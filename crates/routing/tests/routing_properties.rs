//! Property tests: every routing algorithm is a correct delivery
//! mechanism, and the measured costs respect the trivial lower bounds.

use prasim_exec::ExecCtx;
use prasim_mesh::topology::MeshShape;
use prasim_routing::cost::theorem2_bound;
use prasim_routing::flat::route_flat;
use prasim_routing::greedy::route_greedy;
use prasim_routing::hierarchical::route_hierarchical;
use prasim_routing::problem::RoutingInstance;
use proptest::prelude::*;

fn arb_instance() -> impl Strategy<Value = RoutingInstance> {
    (prop::sample::select(&[4u32, 8, 16]), 0u64..1000, 1u64..4)
        .prop_map(|(side, seed, l1)| RoutingInstance::random(MeshShape::square(side), l1, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three algorithms deliver every packet (verified internally by
    /// debug assertions) and report consistent packet counts.
    #[test]
    fn all_algorithms_deliver(inst in arb_instance()) {
        let total = inst.pairs.len() as u64;
        let g = route_greedy(&inst, 10_000_000, &mut ExecCtx::default()).unwrap();
        prop_assert_eq!(g.delivered, total);
        let f = route_flat(&inst, 10_000_000, &mut ExecCtx::default()).unwrap();
        prop_assert_eq!(f.delivered, total);
        let parts = (inst.shape.nodes() / 4).clamp(2, 16);
        let h = route_hierarchical(&inst, parts, 10_000_000, &mut ExecCtx::default()).unwrap();
        prop_assert_eq!(h.delivered, 2 * total); // spread + final deliveries
    }

    /// Routing time respects the trivial lower bounds: the maximum
    /// source–destination distance, and receiver serialization l2/4.
    #[test]
    fn respects_lower_bounds(inst in arb_instance()) {
        let shape = inst.shape;
        let max_dist = inst
            .pairs
            .iter()
            .map(|&(s, d)| shape.coord(s).manhattan(shape.coord(d)) as u64)
            .max()
            .unwrap_or(0);
        let l2 = inst.l2();
        let floor = max_dist.max(l2 / 4);
        let g = route_greedy(&inst, 10_000_000, &mut ExecCtx::default()).unwrap();
        prop_assert!(g.route_steps >= max_dist.min(floor).min(g.route_steps)); // greedy >= distance
        prop_assert!(g.route_steps >= max_dist, "greedy {} < dist {}", g.route_steps, max_dist);
        let f = route_flat(&inst, 10_000_000, &mut ExecCtx::default()).unwrap();
        // Post-sort positions differ from the originals, so only the
        // serialization floor applies to the route phase.
        prop_assert!(f.route_steps + f.sort_steps >= l2 / 4);
    }

    /// The Theorem 2 bound (constant 1) is never exceeded by more than a
    /// moderate constant on random instances.
    #[test]
    fn theorem2_ratio_bounded(inst in arb_instance()) {
        let out = route_flat(&inst, 10_000_000, &mut ExecCtx::default()).unwrap();
        let bound = theorem2_bound(inst.l1(), inst.l2(), inst.shape.nodes());
        let ratio = out.total_steps as f64 / bound.max(1.0);
        prop_assert!(ratio < 12.0, "ratio = {ratio} (bound {bound})");
    }

    /// Determinism: identical instances produce identical outcomes.
    #[test]
    fn deterministic(inst in arb_instance()) {
        let a = route_flat(&inst, 10_000_000, &mut ExecCtx::default()).unwrap();
        let b = route_flat(&inst, 10_000_000, &mut ExecCtx::default()).unwrap();
        prop_assert_eq!(a, b);
    }
}
