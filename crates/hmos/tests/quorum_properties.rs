//! Property tests of the hierarchical-majority quorum rule (Definition 2).
//!
//! The fault subsystem's safety argument rests on three combinatorial
//! facts about the target sets of `T_v`, checked here across the whole
//! parameter grid `q ∈ {3, 4, 5}`, `k ∈ {1, 2, 3}`:
//!
//! 1. any write target set and any read target set intersect in at
//!    least one copy, so a certified read always sees the last
//!    committed write;
//! 2. destroying every target set takes at least `⌈q/2⌉^k` faulty
//!    copies — and exactly that many suffice — so below-tolerance fault
//!    patterns always leave a healthy quorum;
//! 3. certifying a pair takes `(⌊q/2⌋+1)^k` identical replies, so
//!    per-cell-distinct corruption is detected, never believed.

use prasim_hmos::{CopyReport, QuorumRead, TargetSpec};
use proptest::prelude::*;

const TS_OLD: u64 = 7;
const TS_FORGED: u64 = 90;
const VAL: u64 = 0x00C0_FFEE;
const FORGED: u64 = 0xBAD;

fn spec_strategy() -> impl Strategy<Value = TargetSpec> {
    (prop::sample::select(&[3u64, 4, 5]), 1u32..=3).prop_map(|(q, k)| TargetSpec { q, k })
}

/// SplitMix64 — decorrelates leaf picks and preferences from one seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic `count`-subset of `[0, n)` drawn from `seed`.
fn pick_leaves(n: u64, count: u64, seed: u64) -> Vec<u64> {
    let mut picked = Vec::new();
    let mut s = seed;
    while (picked.len() as u64) < count.min(n) {
        s = mix(s);
        let leaf = s % n;
        if !picked.contains(&leaf) {
            picked.push(leaf);
        }
    }
    picked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (1) Quorum intersection: minimal target sets extracted under
    /// independent random preferences and independent below-tolerance
    /// availability masks — a write quorum and a read quorum — always
    /// share at least one copy.
    #[test]
    fn write_and_read_target_sets_intersect(
        spec in spec_strategy(),
        wseed in any::<u64>(),
        rseed in any::<u64>(),
    ) {
        let n = spec.num_leaves();
        let tol = spec.fault_tolerance();
        let wdead = pick_leaves(n, mix(wseed) % tol, wseed ^ 1);
        let rdead = pick_leaves(n, mix(rseed) % tol, rseed ^ 1);
        let write = spec.extract_minimal(spec.k, |l| !wdead.contains(&l), |l| mix(wseed ^ l) >> 8);
        let read = spec.extract_minimal(spec.k, |l| !rdead.contains(&l), |l| mix(rseed ^ l) >> 8);
        prop_assert!(write.is_some() && read.is_some(),
            "below-tolerance mask destroyed every target set of {:?}", spec);
        let (write, read) = (write.unwrap(), read.unwrap());
        prop_assert_eq!(write.len() as u64, spec.minimal_size(spec.k));
        prop_assert!(write.iter().any(|l| read.contains(l)),
            "disjoint target sets for {:?}: {:?} vs {:?}", spec, write, read);
    }

    /// Mixed extensive levels intersect too: a level-`e1` and a
    /// level-`e2` target set of the same tree share a leaf for every
    /// `e1, e2 ∈ [0, k]` (extensive access only enlarges the majority).
    #[test]
    fn extensive_target_sets_intersect(
        spec in spec_strategy(),
        e1 in 0u32..=3,
        e2 in 0u32..=3,
        seed in any::<u64>(),
    ) {
        let (e1, e2) = (e1.min(spec.k), e2.min(spec.k));
        let a = spec.extract_minimal(e1, |_| true, |l| mix(seed ^ l) >> 8).unwrap();
        let b = spec.extract_minimal(e2, |_| true, |l| mix(!seed ^ l) >> 8).unwrap();
        prop_assert!(a.iter().any(|l| b.contains(l)),
            "level-{} and level-{} target sets disjoint for {:?}", e1, e2, spec);
    }

    /// (2) Below-tolerance dead copies always recover: the write lands
    /// on every live copy, the read reaches every live copy, and the
    /// survivors still certify the fresh pair.
    #[test]
    fn below_tolerance_faults_always_recover(spec in spec_strategy(), seed in any::<u64>()) {
        let n = spec.num_leaves();
        let tol = spec.fault_tolerance();
        let dead = pick_leaves(n, mix(seed) % tol, seed);
        let mut reports: Vec<CopyReport> = (0..n)
            .filter(|l| !dead.contains(l))
            .map(|leaf| CopyReport { leaf, ts: TS_OLD, value: VAL })
            .collect();
        match spec.resolve_majority(&mut reports) {
            QuorumRead::Value { ts, value } => {
                prop_assert_eq!(ts, TS_OLD);
                prop_assert_eq!(value, VAL);
            }
            other => prop_assert!(false,
                "{:?} with {} dead of tolerance {} gave {:?}", spec, dead.len(), tol, other),
        }
    }

    /// The `⌈q/2⌉^k` tolerance bound is tight: the canonical adversarial
    /// pattern — every base-`q` digit below `⌈q/2⌉` — denies the root
    /// with exactly that many faults.
    #[test]
    fn tolerance_bound_is_tight(spec in spec_strategy()) {
        let half = spec.q - spec.q / 2; // ⌈q/2⌉
        let dead: Vec<u64> = (0..spec.num_leaves())
            .filter(|&leaf| {
                let mut x = leaf;
                (0..spec.k).all(|_| {
                    let low = x % spec.q < half;
                    x /= spec.q;
                    low
                })
            })
            .collect();
        prop_assert_eq!(dead.len() as u64, spec.fault_tolerance());
        let mut alive: Vec<u64> = (0..spec.num_leaves()).filter(|l| !dead.contains(l)).collect();
        prop_assert!(!spec.is_target(&mut alive));
        prop_assert!(spec.extract_minimal(spec.k, |l| !dead.contains(&l), |_| 0).is_none());
    }

    /// (3a) Per-cell-distinct corruption of ANY number of copies never
    /// certifies a wrong value: the outcome is the true pair or a
    /// detected failure — silent-wrong is combinatorially impossible.
    /// Below the tolerance the true pair moreover always survives.
    #[test]
    fn distinct_garbage_never_certifies(
        spec in spec_strategy(),
        seed in any::<u64>(),
        percent in 0u64..=100,
    ) {
        let n = spec.num_leaves();
        let count = n * percent / 100;
        let bad = pick_leaves(n, count, seed);
        let mut reports: Vec<CopyReport> = (0..n)
            .map(|leaf| {
                if bad.contains(&leaf) {
                    // Distinct forged pair per corrupt cell (mix is a
                    // bijection), timestamps above the real one.
                    CopyReport { leaf, ts: TS_FORGED + mix(seed ^ leaf) % 1000, value: mix(!leaf) }
                } else {
                    CopyReport { leaf, ts: TS_OLD, value: VAL }
                }
            })
            .collect();
        let out = spec.resolve_majority(&mut reports);
        if let Some(v) = out.value() {
            prop_assert_eq!(v, VAL, "{:?} certified garbage with {} corrupt", spec, count);
        }
        if count < spec.fault_tolerance() {
            prop_assert_eq!(out.value(), Some(VAL));
            if count > 0 {
                prop_assert!(matches!(out, QuorumRead::Tainted { .. }),
                    "higher forged timestamps must taint, got {:?}", out);
            }
        }
    }

    /// (3b) Even colluding corruption — the same forged pair on every
    /// corrupt cell — cannot certify below the forgery threshold
    /// `(⌊q/2⌋+1)^k`.
    #[test]
    fn collusion_below_forgery_threshold_never_certifies(
        spec in spec_strategy(),
        seed in any::<u64>(),
    ) {
        let n = spec.num_leaves();
        let count = mix(seed) % spec.forgery_threshold();
        let bad = pick_leaves(n, count, seed ^ 3);
        let mut reports: Vec<CopyReport> = (0..n)
            .map(|leaf| {
                if bad.contains(&leaf) {
                    CopyReport { leaf, ts: TS_FORGED, value: FORGED }
                } else {
                    CopyReport { leaf, ts: TS_OLD, value: VAL }
                }
            })
            .collect();
        prop_assert_ne!(spec.resolve_majority(&mut reports).value(), Some(FORGED));
    }

    /// The forgery threshold is tight: colluders occupying exactly one
    /// minimal target set DO certify their pair. This is why the fault
    /// injector gives each corrupt cell distinct garbage — collusion is
    /// the one attack the quorum rule cannot repel.
    #[test]
    fn collusion_at_forgery_threshold_forges(spec in spec_strategy(), seed in any::<u64>()) {
        let colluders = spec
            .extract_minimal(spec.k, |_| true, |l| mix(seed ^ l) >> 8)
            .unwrap();
        prop_assert_eq!(colluders.len() as u64, spec.forgery_threshold());
        let mut reports: Vec<CopyReport> = (0..spec.num_leaves())
            .map(|leaf| {
                if colluders.contains(&leaf) {
                    CopyReport { leaf, ts: TS_FORGED, value: FORGED }
                } else {
                    CopyReport { leaf, ts: TS_OLD, value: VAL }
                }
            })
            .collect();
        prop_assert_eq!(spec.resolve_majority(&mut reports).value(), Some(FORGED));
    }
}
