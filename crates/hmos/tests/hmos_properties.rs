//! Property tests of the HMOS addressing invariants.

use prasim_hmos::{CopyAddr, Hmos, HmosParams, TargetSpec};
use proptest::prelude::*;

fn schemes() -> Vec<Hmos> {
    vec![
        Hmos::new(HmosParams::with_d(3, 1, 256, 4).unwrap()).unwrap(),
        Hmos::new(HmosParams::with_d(3, 2, 1024, 4).unwrap()).unwrap(),
        Hmos::new(HmosParams::with_d(3, 2, 1024, 5).unwrap()).unwrap(),
        Hmos::new(HmosParams::with_d(4, 2, 4096, 3).unwrap()).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every copy of every variable resolves to a physical cell inside
    /// the correct nested submeshes, and distinct copies of one variable
    /// hit distinct cells.
    #[test]
    fn copy_resolution_invariants(scheme_idx in 0usize..4, var_seed in any::<u64>()) {
        let hmos = &schemes()[scheme_idx];
        let v = var_seed % hmos.num_variables();
        let mut cells = std::collections::HashSet::new();
        for addr in hmos.copies_of(v) {
            let rc = hmos.resolve(&addr);
            let k = hmos.params().k as usize;
            prop_assert_eq!(rc.modules.len(), k);
            // Nesting: node ∈ level-1 rect ⊆ level-2 rect ⊆ … ⊆ mesh.
            let mut prev = hmos.pages(1)[rc.instances[0] as usize].rect;
            prop_assert!(prev.contains(rc.node));
            for lvl in 2..=k {
                let outer = hmos.pages(lvl as u32)[rc.instances[lvl - 1] as usize].rect;
                prop_assert!(outer.contains_rect(&prev));
                prev = outer;
            }
            // Page instances replicate the path modules.
            for (lvl, &m) in rc.modules.iter().enumerate() {
                prop_assert_eq!(hmos.pages(lvl as u32 + 1)[rc.instances[lvl] as usize].module, m);
            }
            prop_assert!(cells.insert((rc.node, rc.slot)));
        }
        prop_assert_eq!(cells.len() as u64, hmos.params().redundancy());
    }

    /// Two distinct variables sharing a level-1 module still get
    /// distinct cells (rank injectivity), across random pairs.
    #[test]
    fn no_cross_variable_collisions(scheme_idx in 0usize..4, a in any::<u64>(), b in any::<u64>()) {
        let hmos = &schemes()[scheme_idx];
        let va = a % hmos.num_variables();
        let vb = b % hmos.num_variables();
        if va == vb { return Ok(()); }
        let cells_a: std::collections::HashSet<_> = hmos
            .copies_of(va)
            .map(|addr| { let rc = hmos.resolve(&addr); (rc.node, rc.slot) })
            .collect();
        for addr in hmos.copies_of(vb) {
            let rc = hmos.resolve(&addr);
            prop_assert!(!cells_a.contains(&(rc.node, rc.slot)),
                "variables {} and {} collide at {:?}", va, vb, (rc.node, rc.slot));
        }
    }

    /// Leaf-index codec roundtrip for arbitrary q, k.
    #[test]
    fn leaf_codec_roundtrip(q in prop::sample::select(&[3u64, 4, 5, 7, 9]), k in 1u32..5, leaf_seed in any::<u64>()) {
        let leaf = leaf_seed % q.pow(k);
        let addr = CopyAddr::from_leaf_index(1, q, k, leaf);
        prop_assert_eq!(addr.choices.len(), k as usize);
        prop_assert!(addr.choices.iter().all(|&c| (c as u64) < q));
        prop_assert_eq!(addr.leaf_index(q), leaf);
    }

    /// Minimal target sets extracted under arbitrary preferences always
    /// intersect pairwise (the consistency quorum property).
    #[test]
    fn random_target_sets_intersect(
        q in prop::sample::select(&[3u64, 4, 5]),
        k in 1u32..4,
        s1 in any::<u64>(),
        s2 in any::<u64>(),
    ) {
        let spec = TargetSpec { q, k };
        let mk = |seed: u64| {
            spec.extract_minimal(k, |_| true, |l| {
                l.wrapping_mul(0x9E3779B97F4A7C15 ^ seed).rotate_left(17) >> 16
            })
            .unwrap()
        };
        let (a, b) = (mk(s1), mk(s2));
        prop_assert!(a.iter().any(|l| b.contains(l)), "disjoint target sets: {:?} {:?}", a, b);
    }
}

/// The top-down walk of [`Hmos::resolve_all`] writes, leaf for leaf,
/// what [`Hmos::resolve`] computes one copy at a time, and appends after
/// whatever the buffer already holds.
#[test]
fn resolve_all_matches_resolve_leaf_by_leaf() {
    for q in [3u64, 4, 5, 7] {
        for k in 1u32..=3 {
            let hmos = Hmos::new(HmosParams::with_d(q, k, 4096, 3).unwrap()).unwrap();
            let qk = q.pow(k) as usize;
            let vars = hmos.num_variables();
            let mut out = Vec::new();
            for v in (0..vars)
                .step_by((vars / 61).max(1) as usize)
                .chain([vars - 1])
            {
                out.clear();
                hmos.resolve_all(v, &mut out);
                hmos.resolve_all(v, &mut out);
                assert_eq!(out.len(), 2 * qk);
                for leaf in 0..qk {
                    let rc = hmos.resolve(&CopyAddr::from_leaf_index(v, q, k, leaf as u64));
                    let cell = out[leaf];
                    assert_eq!(
                        (cell.node, cell.slot, cell.instances),
                        (rc.node, rc.slot, rc.instances),
                        "q = {q}, k = {k}, variable {v}, leaf {leaf}"
                    );
                    assert_eq!(cell.instances.len(), k as usize);
                    assert_eq!(out[qk + leaf], cell);
                }
            }
        }
    }
}
