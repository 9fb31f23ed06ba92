//! The copy tree `T_v`, hierarchical majority access (Definition 2), and
//! minimal target-set extraction.
//!
//! The `q^k` copies of a variable are the leaves of a complete `q`-ary
//! tree of height `k`. A leaf is *accessed* when its copy is reached; an
//! internal node is accessed when a majority (`⌊q/2⌋+1`) of its children
//! are. A *target set* is a leaf set whose access reaches the root — the
//! hierarchical generalization of the Gifford/Thomas majority quorum:
//! any two target sets intersect, so timestamps always expose the
//! freshest value.
//!
//! CULLING works with the stronger *extensive* access at level `i`:
//! internal nodes at depth ≥ `i` require `⌊q/2⌋+2` accessed children
//! (depth < `i` keeps the plain majority). Extraction of minimal target
//! sets is a small DP over the tree that maximizes a caller-supplied
//! preference — used by CULLING to prefer already-marked copies. It
//! builds its result on one leaf stack plus one stack of finished
//! subtrees, so it allocates two buffers per call.

/// Tree-shape parameters for target-set computations: `q`-ary, height `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetSpec {
    /// Branching factor (the redundancy base).
    pub q: u64,
    /// Height (the number of HMOS levels).
    pub k: u32,
}

/// One copy's reply during a quorum read: which leaf of `T_v` it is and
/// the `(timestamp, value)` pair it stores (possibly stale or corrupt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyReport {
    /// Leaf index in `[0, q^k)` (see [`TargetSpec::is_target`]).
    pub leaf: u64,
    /// Stored write timestamp.
    pub ts: u64,
    /// Stored value.
    pub value: u64,
}

/// Outcome of [`TargetSpec::resolve_majority`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumRead {
    /// A target set certifies `(ts, value)` and no reply carried a higher
    /// timestamp: the clean case.
    Value {
        /// Certified timestamp.
        ts: u64,
        /// Certified value.
        value: u64,
    },
    /// A target set certifies `(ts, value)`, but some *uncertified* reply
    /// exhibited a higher timestamp — the value is trustworthy (quorum
    /// intersection), the anomaly is reported rather than silent.
    Tainted {
        /// Certified timestamp.
        ts: u64,
        /// Certified value.
        value: u64,
    },
    /// No `(timestamp, value)` pair is supported by a target set: the
    /// read failed detectably.
    Unrecoverable,
}

impl QuorumRead {
    /// The value to return to the processor, if any.
    pub fn value(&self) -> Option<u64> {
        match self {
            QuorumRead::Value { value, .. } | QuorumRead::Tainted { value, .. } => Some(*value),
            QuorumRead::Unrecoverable => None,
        }
    }
}

impl TargetSpec {
    /// Majority threshold `⌊q/2⌋ + 1`.
    #[inline]
    pub fn majority(&self) -> usize {
        (self.q / 2 + 1) as usize
    }

    /// Extensive threshold `⌊q/2⌋ + 2` (requires `q ≥ 3`).
    #[inline]
    pub fn extensive(&self) -> usize {
        (self.q / 2 + 2) as usize
    }

    /// Number of leaves, `q^k`.
    #[inline]
    pub fn num_leaves(&self) -> u64 {
        self.q.pow(self.k)
    }

    /// Children threshold for an internal node at `depth` under
    /// extensive-access level `ext_level` (Section 3.2): depth ≥
    /// ext_level ⇒ extensive, else majority. `ext_level = k` is plain
    /// (Definition 2) access; `ext_level = 0` is fully extensive.
    #[inline]
    pub fn threshold(&self, depth: u32, ext_level: u32) -> usize {
        if depth >= ext_level {
            self.extensive()
        } else {
            self.majority()
        }
    }

    /// Size of a minimal level-`i` target set:
    /// `majority^min(i,k) · extensive^(k - min(i,k))`.
    pub fn minimal_size(&self, ext_level: u32) -> u64 {
        let maj_levels = ext_level.min(self.k);
        (self.majority() as u64).pow(maj_levels)
            * (self.extensive() as u64).pow(self.k - maj_levels)
    }

    /// Whether the leaf set grants (extensive-at-`ext_level`) access to
    /// the root. Leaves are indices in `[0, q^k)` with the level-1 branch
    /// as the least-significant base-`q` digit (matching
    /// [`crate::scheme::CopyAddr::leaf_index`]); repeats count once.
    /// Sorts `leaves` in place and looks each leaf of `T_v` up by binary
    /// search, so a call allocates nothing.
    pub fn is_level_target(&self, leaves: &mut [u64], ext_level: u32) -> bool {
        leaves.sort_unstable();
        self.accessed(&|l| leaves.binary_search(&l).is_ok(), 0, 0, ext_level)
    }

    /// Plain (Definition 2) target-set test; sorts `leaves` in place.
    pub fn is_target(&self, leaves: &mut [u64]) -> bool {
        self.is_level_target(leaves, self.k)
    }

    fn accessed<F>(&self, present: &F, depth: u32, prefix: u64, ext_level: u32) -> bool
    where
        F: Fn(u64) -> bool,
    {
        if depth == self.k {
            return present(prefix);
        }
        let stride = self.q.pow(depth);
        let mut count = 0usize;
        for c in 0..self.q {
            if self.accessed(present, depth + 1, prefix + c * stride, ext_level) {
                count += 1;
            }
        }
        count >= self.threshold(depth, ext_level)
    }

    /// Extracts a minimal level-`ext_level` target set from the leaves
    /// for which `avail` is true, choosing — among minimal sets — one
    /// that maximizes the sum of `pref` over its leaves (ties broken by
    /// smaller child index, so the result is deterministic). Returns
    /// `None` if no target set exists within `avail`.
    pub fn extract_minimal<A, P>(&self, ext_level: u32, avail: A, pref: P) -> Option<Vec<u64>>
    where
        A: Fn(u64) -> bool,
        P: Fn(u64) -> u64,
    {
        let mut ex = Extraction {
            spec: self,
            ext_level,
            avail,
            pref,
            leaves: Vec::with_capacity(self.num_leaves() as usize),
            records: Vec::with_capacity((self.q * u64::from(self.k) + 1) as usize),
        };
        ex.subtree(0, 0, 0).then_some(ex.leaves)
    }

    /// Minimum number of faulty copies that can make the root
    /// inaccessible: `⌈q/2⌉^k`. Any fault pattern touching *fewer*
    /// leaves leaves at least one fully healthy target set, because
    /// denying a node requires denying `q - ⌊q/2⌋ = ⌈q/2⌉` of its
    /// children, recursively down to the leaves.
    #[inline]
    pub fn fault_tolerance(&self) -> u64 {
        (self.q - self.q / 2).pow(self.k)
    }

    /// Minimum number of colluding identical replies that certify a
    /// forged `(timestamp, value)` pair: the minimal target-set size
    /// `(⌊q/2⌋+1)^k`. Below this, no fabricated pair can gather a
    /// target set, so corrupt copies are detected rather than believed.
    #[inline]
    pub fn forgery_threshold(&self) -> u64 {
        (self.majority() as u64).pow(self.k)
    }

    /// Resolves a hierarchical-majority (Definition 2) read from the
    /// replies of the reached copies.
    ///
    /// Replies are grouped by identical `(timestamp, value)` pairs; a
    /// pair is *certified* when its supporting leaves form a target set
    /// of `T_v`. Because any two target sets intersect and writes install
    /// the pair on a target set, the certified pair with the highest
    /// timestamp is the last completed write. Replies that certify
    /// nothing — stale, corrupted, or too few — can at worst *taint* the
    /// result by exhibiting a timestamp above the certified one, which
    /// callers surface as a detected (never silent) anomaly.
    ///
    /// Sorts `reports` in place into its groups, freshest pair first and
    /// each group's leaves ascending, so a call allocates nothing.
    pub fn resolve_majority(&self, reports: &mut [CopyReport]) -> QuorumRead {
        use std::cmp::Reverse;
        reports.sort_unstable_by_key(|r| (Reverse(r.ts), Reverse(r.value), r.leaf));
        let Some(max_ts_seen) = reports.first().map(|r| r.ts) else {
            return QuorumRead::Unrecoverable;
        };
        // Try pairs freshest-first; the first certified pair wins.
        for group in reports.chunk_by(|a, b| (a.ts, a.value) == (b.ts, b.value)) {
            // Cheap lower bound before the tree walk.
            if (group.len() as u64) < self.forgery_threshold() {
                continue;
            }
            let present = |l| group.binary_search_by_key(&l, |r| r.leaf).is_ok();
            if self.accessed(&present, 0, 0, self.k) {
                let (ts, value) = (group[0].ts, group[0].value);
                return if ts == max_ts_seen {
                    QuorumRead::Value { ts, value }
                } else {
                    QuorumRead::Tainted { ts, value }
                };
            }
        }
        QuorumRead::Unrecoverable
    }
}

/// One [`TargetSpec::extract_minimal`] call: a depth-first walk of `T_v`
/// that keeps every finished subtree's leaves on one stack and its
/// `(score, child, start, len)` record on another, so the whole
/// extraction allocates two buffers (the leaf stack becomes the result).
struct Extraction<'a, A, P> {
    spec: &'a TargetSpec,
    ext_level: u32,
    avail: A,
    pref: P,
    leaves: Vec<u64>,
    records: Vec<(u64, u64, usize, usize)>,
}

impl<A, P> Extraction<'_, A, P>
where
    A: Fn(u64) -> bool,
    P: Fn(u64) -> u64,
{
    /// Extracts the subtree at `(depth, prefix)`, its parent's `child`-th
    /// child. On success its leaves, ascending, end the leaf stack and its
    /// record ends the record stack; on failure both stacks are unchanged.
    fn subtree(&mut self, depth: u32, prefix: u64, child: u64) -> bool {
        let start = self.leaves.len();
        if depth == self.spec.k {
            if !(self.avail)(prefix) {
                return false;
            }
            self.leaves.push(prefix);
            self.records.push(((self.pref)(prefix), child, start, 1));
            return true;
        }
        let stride = self.spec.q.pow(depth);
        let base = self.records.len();
        for c in 0..self.spec.q {
            self.subtree(depth + 1, prefix + c * stride, c);
        }
        let t = self.spec.threshold(depth, self.ext_level);
        let kids = &mut self.records[base..];
        if kids.len() < t {
            self.leaves.truncate(start);
            self.records.truncate(base);
            return false;
        }
        // Highest preference first; ties go to the smaller child index.
        kids.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let chosen = &mut kids[..t];
        // Saturating: arbitrary caller preferences must not overflow.
        let score = chosen.iter().fold(0u64, |a, k| a.saturating_add(k.0));
        // Slide the chosen children's leaves down to `start` in stack
        // order, so every move goes to a lower or equal position.
        chosen.sort_unstable_by_key(|k| k.2);
        let mut end = start;
        for &(_, _, from, len) in chosen.iter() {
            self.leaves.copy_within(from..from + len, end);
            end += len;
        }
        self.leaves.truncate(end);
        self.leaves[start..].sort_unstable();
        self.records.truncate(base);
        self.records.push((score, child, start, end - start));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_sizes() {
        let s = TargetSpec { q: 3, k: 2 };
        assert_eq!(s.minimal_size(2), 4); // majority 2, all levels: 2^2
        assert_eq!(s.minimal_size(0), 9); // extensive 3 everywhere: 3^2
        assert_eq!(s.minimal_size(1), 6); // 2 · 3
        let s5 = TargetSpec { q: 5, k: 3 };
        assert_eq!(s5.minimal_size(3), 27); // 3^3
        assert_eq!(s5.minimal_size(0), 64); // 4^3
    }

    #[test]
    fn extraction_is_minimal_and_valid() {
        for (q, k) in [(3u64, 1u32), (3, 2), (3, 3), (4, 2), (5, 2)] {
            let s = TargetSpec { q, k };
            for ext in 0..=k {
                let set = s
                    .extract_minimal(ext, |_| true, |_| 0)
                    .expect("full availability must yield a target set");
                assert_eq!(
                    set.len() as u64,
                    s.minimal_size(ext),
                    "q={q} k={k} ext={ext}"
                );
                assert!(s.is_level_target(&mut set.clone(), ext));
                // A minimal level-i target set contains a target set
                // (paper, Section 3.2).
                assert!(s.is_target(&mut set.clone()));
                // Removing any leaf breaks level-ext access (minimality).
                for drop in 0..set.len() {
                    let mut fewer = set.clone();
                    fewer.remove(drop);
                    assert!(
                        !s.is_level_target(&mut fewer.clone(), ext),
                        "set minus leaf {drop} still a level-{ext} target"
                    );
                }
            }
        }
    }

    #[test]
    fn extraction_respects_availability() {
        let s = TargetSpec { q: 3, k: 2 };
        // Block an entire root child subtree (leaves ≡ 0 mod 3 is the
        // level-1 branch digit): root still has 2 of 3 children = majority.
        let set = s.extract_minimal(s.k, |l| l % 3 != 0, |_| 0).unwrap();
        assert!(set.iter().all(|l| l % 3 != 0));
        assert!(s.is_target(&mut set.clone()));
        // Block two root children: majority 2 unreachable.
        assert!(s.extract_minimal(s.k, |l| l % 3 == 2, |_| 0).is_none());
    }

    #[test]
    fn extraction_maximizes_preference() {
        let s = TargetSpec { q: 3, k: 2 };
        // Prefer the odd leaves; a full-preference minimal target set
        // exists iff a target set within the preferred leaves exists.
        let marked = |l: u64| l >= 4; // leaves 4..9 marked
        let set = s
            .extract_minimal(s.k, |_| true, |l| if marked(l) { 1 } else { 0 })
            .unwrap();
        let marked_count = set.iter().filter(|&&l| marked(l)).count();
        // If an all-marked minimal target set exists the DP must find it.
        if s.extract_minimal(s.k, marked, |_| 0).is_some() {
            assert_eq!(marked_count, set.len());
        }
    }

    #[test]
    fn any_two_target_sets_intersect() {
        // The consistency cornerstone: every pair of (majority) target
        // sets shares a leaf. Exhaustive over the deterministic extracts
        // seeded by distinct preferences.
        for (q, k) in [(3u64, 2u32), (3, 3), (5, 2)] {
            let s = TargetSpec { q, k };
            let mut sets = Vec::new();
            for seed in 0..40u64 {
                let set = s
                    .extract_minimal(
                        s.k,
                        |_| true,
                        |l| {
                            l.wrapping_mul(
                                0x9E3779B97F4A7C15 ^ seed.wrapping_mul(0xBF58476D1CE4E5B9),
                            ) >> 32
                        },
                    )
                    .unwrap();
                sets.push(set);
            }
            for a in &sets {
                for b in &sets {
                    assert!(
                        a.iter().any(|l| b.contains(l)),
                        "disjoint target sets found for q={q} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn level_target_implies_plain_target() {
        let s = TargetSpec { q: 3, k: 3 };
        for ext in 0..=3u32 {
            for seed in 0..10u64 {
                let set = s
                    .extract_minimal(ext, |l| (l ^ seed) % 7 != 0 || ext == 0, |l| l % 5)
                    .or_else(|| s.extract_minimal(ext, |_| true, |l| l % 5))
                    .unwrap();
                if s.is_level_target(&mut set.clone(), ext) {
                    assert!(s.is_target(&mut set.clone()));
                }
            }
        }
    }

    /// All leaves reporting the same pair.
    fn unanimous(s: &TargetSpec, ts: u64, value: u64) -> Vec<CopyReport> {
        (0..s.num_leaves())
            .map(|leaf| CopyReport { leaf, ts, value })
            .collect()
    }

    /// A smallest leaf set whose loss denies root access, built by
    /// recursively denying `⌈q/2⌉` children.
    fn destroying_set(s: &TargetSpec) -> Vec<u64> {
        fn rec(s: &TargetSpec, depth: u32, prefix: u64, out: &mut Vec<u64>) {
            if depth == s.k {
                out.push(prefix);
                return;
            }
            let stride = s.q.pow(depth);
            for c in 0..(s.q - s.q / 2) {
                rec(s, depth + 1, prefix + c * stride, out);
            }
        }
        let mut out = Vec::new();
        rec(s, 0, 0, &mut out);
        out
    }

    #[test]
    fn tolerance_and_forgery_thresholds() {
        for (q, k, tol, forge) in [
            (3u64, 1u32, 2u64, 2u64),
            (3, 2, 4, 4),
            (3, 3, 8, 8),
            (4, 2, 4, 9),
            (5, 2, 9, 9),
        ] {
            let s = TargetSpec { q, k };
            assert_eq!(s.fault_tolerance(), tol, "q={q} k={k}");
            assert_eq!(s.forgery_threshold(), forge, "q={q} k={k}");
            // The recursive destroying set realizes the bound exactly.
            let destroy = destroying_set(&s);
            assert_eq!(destroy.len() as u64, tol);
            assert!(s
                .extract_minimal(s.k, |l| !destroy.contains(&l), |_| 0)
                .is_none());
            // One fault fewer always leaves a healthy target set.
            for spare in 0..destroy.len() {
                let partial: Vec<u64> = destroy
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != spare)
                    .map(|(_, &l)| l)
                    .collect();
                assert!(
                    s.extract_minimal(s.k, |l| !partial.contains(&l), |_| 0)
                        .is_some(),
                    "q={q} k={k}: tolerance bound not tight"
                );
            }
        }
    }

    #[test]
    fn unanimous_reports_certify() {
        let s = TargetSpec { q: 3, k: 2 };
        assert_eq!(
            s.resolve_majority(&mut unanimous(&s, 7, 42)),
            QuorumRead::Value { ts: 7, value: 42 }
        );
        assert_eq!(s.resolve_majority(&mut []), QuorumRead::Unrecoverable);
    }

    #[test]
    fn corruption_below_tolerance_returns_true_value() {
        // Corrupt f < ⌈q/2⌉^k copies with pairwise distinct garbage and
        // forged high timestamps: the true pair stays certified. Missing
        // (unreached) copies below the same bound keep it certified too.
        for (q, k) in [(3u64, 2u32), (4, 2), (5, 2), (3, 3)] {
            let s = TargetSpec { q, k };
            let f = (s.fault_tolerance() - 1) as usize;
            for variant in 0..3u64 {
                let mut reports = unanimous(&s, 10, 1000);
                for (i, r) in reports.iter_mut().enumerate().take(f) {
                    // Each corrupt copy forges a *distinct* high pair.
                    r.ts = 900 + variant * 50 + i as u64;
                    r.value = 31_337 + i as u64;
                }
                match s.resolve_majority(&mut reports.clone()) {
                    QuorumRead::Tainted {
                        ts: 10,
                        value: 1000,
                    } if f > 0 => {}
                    QuorumRead::Value {
                        ts: 10,
                        value: 1000,
                    } if f == 0 => {}
                    other => panic!("q={q} k={k}: got {other:?}"),
                }
                // Same bound for missing replies instead of corrupt ones.
                let reached = unanimous(&s, 10, 1000).split_off(f);
                assert_eq!(
                    s.resolve_majority(&mut reached.clone()),
                    QuorumRead::Value {
                        ts: 10,
                        value: 1000
                    }
                );
            }
        }
    }

    #[test]
    fn losing_a_destroying_set_is_detected_not_silent() {
        // At the tolerance bound the read may fail, but it must fail
        // *detectably*: corrupt copies disagree, so nothing certifies.
        let s = TargetSpec { q: 3, k: 2 };
        let destroy = destroying_set(&s);
        let mut reports = unanimous(&s, 10, 1000);
        reports.retain(|r| !destroy.contains(&r.leaf));
        for &leaf in &destroy {
            reports.push(CopyReport {
                leaf,
                ts: 999,
                value: 666 + leaf,
            });
        }
        assert_eq!(
            s.resolve_majority(&mut reports.clone()),
            QuorumRead::Unrecoverable
        );
    }

    #[test]
    fn forgery_needs_a_full_target_set() {
        // Identical colluding fakes on a minimal target set do certify —
        // documenting that forgery_threshold() is tight — while the same
        // number of fakes minus one leaf never does.
        let s = TargetSpec { q: 3, k: 2 };
        let quorum = s.extract_minimal(s.k, |_| true, |_| 0).unwrap();
        assert_eq!(quorum.len() as u64, s.forgery_threshold());
        let mut reports: Vec<CopyReport> = quorum
            .iter()
            .map(|&leaf| CopyReport {
                leaf,
                ts: 99,
                value: 7,
            })
            .collect();
        assert_eq!(
            s.resolve_majority(&mut reports.clone()),
            QuorumRead::Value { ts: 99, value: 7 }
        );
        reports.pop();
        assert_eq!(
            s.resolve_majority(&mut reports.clone()),
            QuorumRead::Unrecoverable
        );
    }

    #[test]
    fn stale_minority_is_outvoted() {
        // A minority of stale copies (older ts) must not mask the newer
        // certified pair, and a stale *majority* target set loses to a
        // fresher certified one (freshest-first resolution).
        let s = TargetSpec { q: 3, k: 1 };
        // Leaves {0,1} fresh, {2} stale: fresh pair certified cleanly.
        let reports = [
            CopyReport {
                leaf: 0,
                ts: 5,
                value: 50,
            },
            CopyReport {
                leaf: 1,
                ts: 5,
                value: 50,
            },
            CopyReport {
                leaf: 2,
                ts: 3,
                value: 30,
            },
        ];
        assert_eq!(
            s.resolve_majority(&mut reports.clone()),
            QuorumRead::Value { ts: 5, value: 50 }
        );
        // Both {0,1} (fresh) and {1,2}∪{0} (stale) are target sets; the
        // freshest certified pair must win.
        let overlapping = [
            CopyReport {
                leaf: 0,
                ts: 3,
                value: 30,
            },
            CopyReport {
                leaf: 1,
                ts: 5,
                value: 50,
            },
            CopyReport {
                leaf: 2,
                ts: 5,
                value: 50,
            },
        ];
        assert_eq!(
            s.resolve_majority(&mut overlapping.clone()),
            QuorumRead::Value { ts: 5, value: 50 }
        );
    }

    #[test]
    fn thresholds_by_depth() {
        let s = TargetSpec { q: 3, k: 3 };
        assert_eq!(s.threshold(0, 2), 2); // depth 0 < ext 2: majority
        assert_eq!(s.threshold(1, 2), 2);
        assert_eq!(s.threshold(2, 2), 3); // depth 2 ≥ ext 2: extensive
        assert_eq!(s.threshold(0, 0), 3);
        assert_eq!(s.threshold(2, 3), 2);
    }
}
