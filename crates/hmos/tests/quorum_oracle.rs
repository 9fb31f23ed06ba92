//! `TargetSpec::resolve_majority` and `TargetSpec::is_level_target`
//! against allocating oracles.
//!
//! The library sorts its input in place: replies into `(timestamp,
//! value)` groups, freshest first with each group's leaves ascending,
//! and leaf sets ascending; it then looks leaves up by binary search.
//! The oracles below are the earlier allocating versions: a `present`
//! mask per tree walk, and a `Vec` of groups with one leaf `Vec` each,
//! tried freshest first. Both must agree on every input.

use prasim_hmos::{CopyReport, QuorumRead, TargetSpec};
use proptest::prelude::*;

fn is_level_target(spec: &TargetSpec, leaves: &[u64], ext_level: u32) -> bool {
    let mut present = vec![false; spec.num_leaves() as usize];
    for &l in leaves {
        present[l as usize] = true;
    }
    accessed(spec, &present, 0, 0, ext_level)
}

fn is_target(spec: &TargetSpec, leaves: &[u64]) -> bool {
    is_level_target(spec, leaves, spec.k)
}

fn accessed(spec: &TargetSpec, present: &[bool], depth: u32, prefix: u64, ext_level: u32) -> bool {
    if depth == spec.k {
        return present[prefix as usize];
    }
    let stride = spec.q.pow(depth);
    let mut count = 0usize;
    for c in 0..spec.q {
        if accessed(spec, present, depth + 1, prefix + c * stride, ext_level) {
            count += 1;
        }
    }
    count >= spec.threshold(depth, ext_level)
}

fn resolve_majority(spec: &TargetSpec, reports: &[CopyReport]) -> QuorumRead {
    if reports.is_empty() {
        return QuorumRead::Unrecoverable;
    }
    // Group identical (ts, value) pairs, keeping their support sets.
    let mut groups: Vec<((u64, u64), Vec<u64>)> = Vec::new();
    for r in reports {
        match groups.iter_mut().find(|(p, _)| *p == (r.ts, r.value)) {
            Some((_, leaves)) => leaves.push(r.leaf),
            None => groups.push(((r.ts, r.value), vec![r.leaf])),
        }
    }
    // Try pairs freshest-first; the first certified pair wins.
    groups.sort_by_key(|g| std::cmp::Reverse(g.0));
    let max_ts_seen = groups[0].0 .0;
    for ((ts, value), leaves) in &groups {
        // Cheap lower bound before the tree walk.
        if (leaves.len() as u64) < spec.forgery_threshold() {
            continue;
        }
        if is_target(spec, leaves) {
            return if *ts == max_ts_seen {
                QuorumRead::Value {
                    ts: *ts,
                    value: *value,
                }
            } else {
                QuorumRead::Tainted {
                    ts: *ts,
                    value: *value,
                }
            };
        }
    }
    QuorumRead::Unrecoverable
}

/// SplitMix64, so one seed gives every leaf its own draws.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A draw in `0..16` for leaf `l` and purpose `salt`.
fn draw(seed: u64, l: u64, salt: u64) -> u64 {
    mix(seed ^ mix(l ^ (salt << 56))) % 16
}

/// Shuffles `items` by a seeded key, so the library never sees its
/// input in leaf order.
fn shuffled<T: Copy>(items: &[T], seed: u64) -> Vec<T> {
    let mut keyed: Vec<(u64, T)> = (0u64..)
        .zip(items)
        .map(|(i, &t)| (mix(seed ^ i), t))
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    keyed.into_iter().map(|(_, t)| t).collect()
}

const TS: u64 = 10;
const VAL: u64 = 1000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same outcome as the oracle on random reply multisets. Out of 16,
    /// a leaf is missing with weight `missing`, stale with weight
    /// `stale` (one of three older pairs, two of them sharing a
    /// timestamp) and forged with weight `forged`; the rest carry the
    /// fresh pair. Forged replies either collude on one pair whose
    /// timestamp is below, equal to or above the fresh one, or each
    /// carry a distinct pair. With weight `dups` a leaf replies twice,
    /// the second time with the fresh pair.
    #[test]
    fn resolve_majority_matches_oracle(
        q in prop::sample::select(&[3u64, 4, 5, 7]),
        k in 1u32..=3,
        missing in 0u64..=8,
        stale in 0u64..=8,
        forged in 0u64..=8,
        dups in 0u64..=4,
        collude in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = TargetSpec { q, k };
        let stale_pairs = [(TS - 7, 30), (TS - 7, 31), (TS - 8, 20)];
        let forged_pair = (TS + seed % 3 - 1, VAL + 1 + seed % 2);
        let mut reports = Vec::new();
        for leaf in 0..spec.num_leaves() {
            let d = draw(seed, leaf, 0);
            let (ts, value) = if d < missing {
                continue;
            } else if d < missing + stale {
                stale_pairs[(mix(seed ^ leaf) % 3) as usize]
            } else if d < missing + stale + forged {
                if collude {
                    forged_pair
                } else {
                    (TS + 1 + mix(!seed ^ leaf) % 5, mix(seed ^ !leaf))
                }
            } else {
                (TS, VAL)
            };
            reports.push(CopyReport { leaf, ts, value });
            if draw(seed, leaf, 1) < dups {
                reports.push(CopyReport { leaf, ts: TS, value: VAL });
            }
        }
        let reports = shuffled(&reports, seed);
        let want = resolve_majority(&spec, &reports);
        let got = spec.resolve_majority(&mut reports.clone());
        prop_assert_eq!(got, want, "q={} k={}", q, k);
    }

    /// Same verdict as the oracle at every extensive level, on random
    /// leaf sets (each leaf kept with weight `keep` out of 16, repeated
    /// with weight `dups`) handed over in shuffled order.
    #[test]
    fn is_level_target_matches_oracle(
        q in prop::sample::select(&[3u64, 4, 5, 7]),
        k in 1u32..=3,
        keep in 4u64..=16,
        dups in 0u64..=4,
        seed in any::<u64>(),
    ) {
        let spec = TargetSpec { q, k };
        let mut leaves = Vec::new();
        for leaf in 0..spec.num_leaves() {
            if draw(seed, leaf, 0) < keep {
                leaves.push(leaf);
                if draw(seed, leaf, 1) < dups {
                    leaves.push(leaf);
                }
            }
        }
        let leaves = shuffled(&leaves, seed);
        for ext in 0..=k {
            let want = is_level_target(&spec, &leaves, ext);
            let got = spec.is_level_target(&mut leaves.clone(), ext);
            prop_assert_eq!(got, want, "q={} k={} ext={}", q, k, ext);
        }
    }
}
