//! Property tests of CULLING: for arbitrary request sets and slack
//! factors, selections are always minimal target sets, Theorem 3 holds
//! at paper slack, and the procedure is deterministic.

use prasim_core::culling::cull_with;
use prasim_core::workload;
use prasim_exec::ExecCtx;
use prasim_hmos::{Hmos, HmosParams, TargetSpec};
use prasim_sortnet::Sorter;
use proptest::prelude::*;

fn hmos() -> Hmos {
    Hmos::new(HmosParams::with_d(3, 2, 256, 3).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Selections are minimal target sets regardless of workload shape,
    /// idle pattern, or marking slack.
    #[test]
    fn selections_always_minimal_targets(
        seed in any::<u64>(),
        active in 1u64..117,
        slack in prop::sample::select(&[1.0f64, 0.3, 0.05, 0.004]),
    ) {
        let h = hmos();
        let spec = TargetSpec { q: 3, k: 2 };
        let vars = workload::random_distinct(active, h.num_variables(), seed);
        let mut reqs: Vec<Option<u64>> = vars.into_iter().map(Some).collect();
        reqs.resize(256, None);
        // Scatter the idle processors around deterministically.
        if seed.is_multiple_of(3) {
            reqs.rotate_right((seed % 256) as usize);
        }
        let out = cull_with(&h, &reqs, slack, &mut ExecCtx::default());
        for (p, sel) in out.selected.iter().enumerate() {
            if reqs[p].is_none() {
                prop_assert!(sel.is_empty());
                continue;
            }
            prop_assert_eq!(sel.len() as u64, spec.minimal_size(2));
            let mut leaves: Vec<u64> = sel.iter().map(|s| s.leaf).collect();
            prop_assert!(spec.is_target(&mut leaves), "processor {} selection invalid", p);
        }
    }

    /// At the paper's slack the Theorem 3 certificate always holds.
    #[test]
    fn theorem3_at_paper_slack(seed in any::<u64>(), active in 1u64..117) {
        let h = hmos();
        let vars = workload::random_distinct(active, h.num_variables(), seed);
        let mut reqs: Vec<Option<u64>> = vars.into_iter().map(Some).collect();
        reqs.resize(256, None);
        let out = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        prop_assert!(out.report.theorem3_holds(), "{:?}", out.report);
    }

    /// Culling is a pure function of the request set.
    #[test]
    fn deterministic(seed in any::<u64>()) {
        let h = hmos();
        let vars = workload::random_distinct(64, h.num_variables(), seed);
        let mut reqs: Vec<Option<u64>> = vars.into_iter().map(Some).collect();
        reqs.resize(256, None);
        let a = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        let b = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        prop_assert_eq!(a.selected, b.selected);
    }

    /// The analytic accounting never changes the selections, only costs.
    #[test]
    fn analytic_mode_same_selection(seed in any::<u64>()) {
        let h = hmos();
        let vars = workload::random_distinct(80, h.num_variables(), seed);
        let mut reqs: Vec<Option<u64>> = vars.into_iter().map(Some).collect();
        reqs.resize(256, None);
        let a = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        let b = cull_with(&h, &reqs, 1.0, &mut ExecCtx::new(1, Sorter::default(), true));
        prop_assert_eq!(a.selected, b.selected);
    }
}
