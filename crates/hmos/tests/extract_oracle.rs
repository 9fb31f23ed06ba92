//! `TargetSpec::extract_minimal` against a recursive oracle.
//!
//! The library builds a minimal target set on one leaf stack and one
//! stack of finished subtrees. The oracle below is the plain recursive
//! DP: every subtree returns its own `(score, leaves)`, the
//! parent keeps its `threshold` best children (highest saturating
//! preference sum first, ties to the lower child index) and returns the
//! union ascending. Both must agree on every input, `None` included.

use prasim_hmos::TargetSpec;
use proptest::prelude::*;

fn extract_rec<A, P>(
    spec: &TargetSpec,
    depth: u32,
    prefix: u64,
    ext_level: u32,
    avail: &A,
    pref: &P,
) -> Option<(u64, Vec<u64>)>
where
    A: Fn(u64) -> bool,
    P: Fn(u64) -> u64,
{
    if depth == spec.k {
        return if avail(prefix) {
            Some((pref(prefix), vec![prefix]))
        } else {
            None
        };
    }
    let stride = spec.q.pow(depth);
    let mut kids: Vec<(u64, u64, Vec<u64>)> = Vec::with_capacity(spec.q as usize); // (score, child, leaves)
    for c in 0..spec.q {
        if let Some((score, leaves)) =
            extract_rec(spec, depth + 1, prefix + c * stride, ext_level, avail, pref)
        {
            kids.push((score, c, leaves));
        }
    }
    let t = spec.threshold(depth, ext_level);
    if kids.len() < t {
        return None;
    }
    // Highest preference first; stable tie-break on child index.
    kids.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    kids.truncate(t);
    // Saturating: arbitrary caller preferences must not overflow.
    let score = kids.iter().fold(0u64, |a, k| a.saturating_add(k.0));
    let mut leaves: Vec<u64> = kids.into_iter().flat_map(|k| k.2).collect();
    leaves.sort_unstable();
    Some((score, leaves))
}

/// SplitMix64, so one seed gives every leaf its own draw.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same result as the oracle for every extensive level, under random
    /// availability (each leaf kept with probability `keep/8`) and
    /// preferences drawn below `2^bits` (`bits = 0`: every preference is
    /// `u64::MAX`), so scores tie often and sums saturate at `u64::MAX`.
    #[test]
    fn extract_minimal_matches_recursive_oracle(
        q in prop::sample::select(&[3u64, 4, 5, 7]),
        k in 1u32..=3,
        keep in 4u64..=8,
        bits in prop::sample::select(&[0u32, 1, 2, 8, 40, 63, 64]),
        seed in any::<u64>(),
    ) {
        let spec = TargetSpec { q, k };
        let avail = |l: u64| mix(seed ^ l) % 8 < keep;
        let pref = |l: u64| match bits {
            0 => u64::MAX,
            64 => mix(!seed ^ l),
            b => mix(!seed ^ l) & ((1u64 << b) - 1),
        };
        for ext in 0..=k {
            let got = spec.extract_minimal(ext, avail, pref);
            let want = extract_rec(&spec, 0, 0, ext, &avail, &pref).map(|(_, leaves)| leaves);
            prop_assert_eq!(got, want, "q={} k={} ext={}", q, k, ext);
        }
    }
}
