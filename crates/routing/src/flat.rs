//! Sort-then-route `(l1, l2)`-routing — the Theorem 2 primitive.
//!
//! \[SK93\] achieve `√(l1·l2·n) + O(l1·√n)` steps. We realize the same
//! shape with the standard deterministic strategy: sort all packets into
//! snake order by destination (spreading them evenly over the mesh and
//! making destination neighborhoods contiguous), then greedy-route. The
//! sort prevents the pathological source/destination concentrations that
//! hurt plain greedy routing.

use crate::problem::{RoutingInstance, RoutingOutcome};
use prasim_exec::ExecCtx;
use prasim_mesh::engine::{EngineError, Packet};
use prasim_mesh::region::Rect;
use prasim_mesh::topology::Coord;
use prasim_sortnet::snake::{snake_coord, snake_pos};

/// Routes an `(l1, l2)` instance by sorting by destination and then
/// greedy-routing from the balanced post-sort positions. The sort runs
/// with the context's sorter and resources, and the route engine comes
/// from the context's pool.
pub fn route_flat(
    inst: &RoutingInstance,
    max_steps: u64,
    ctx: &mut ExecCtx,
) -> Result<RoutingOutcome, EngineError> {
    let shape = inst.shape;

    // (dest snake key, packet index) at each packet's source.
    let mut out = RoutingOutcome::default();
    let sorted = ctx.sort_pairs(
        inst.pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| (snake_pos(shape, s), (snake_pos(shape, d), i as u64))),
        shape.rows,
        shape.cols,
    );
    out.add_sort(ctx.ledger_mut().charge(&sorted.cost));

    // Greedy route from post-sort positions.
    let mut engine = ctx.engine(shape);
    engine.reserve(inst.pairs.len());
    let bounds = Rect::full(shape);
    for (pos, &(_, idx)) in sorted.placed() {
        let (r, c) = snake_coord(shape.cols, pos);
        engine.inject(
            Coord { r, c },
            Packet {
                id: idx,
                dest: shape.coord(inst.pairs[idx as usize].1),
                bounds,
                tag: idx,
            },
        );
    }
    let stats = engine.run(max_steps)?;
    out.add_route(stats);
    debug_assert!(crate::greedy::verify_delivery(inst, &mut engine));
    ctx.recycle(engine);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::route_greedy;
    use prasim_mesh::topology::MeshShape;
    use prasim_sortnet::Sorter;

    #[test]
    fn flat_routes_permutation() {
        let shape = MeshShape::square(8);
        let inst = RoutingInstance::permutation(shape, 3);
        let out = route_flat(&inst, 100_000, &mut ExecCtx::default()).unwrap();
        assert_eq!(out.delivered, 64);
        assert!(out.sort_steps > 0);
    }

    #[test]
    fn analytic_context_charges_the_sort_analytically() {
        let shape = MeshShape::square(8);
        let inst = RoutingInstance::random(shape, 2, 5);
        let mut ctx = ExecCtx::new(1, Sorter::default(), true);
        let out = route_flat(&inst, 100_000, &mut ctx).unwrap();
        // The same sort on a measured context.
        let sorted = ExecCtx::default().sort_pairs(
            inst.pairs
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| (snake_pos(shape, s), (snake_pos(shape, d), i as u64))),
            shape.rows,
            shape.cols,
        );
        assert_ne!(sorted.cost.analytic_steps, sorted.cost.steps);
        assert_eq!(out.sort_steps, sorted.cost.analytic_steps);
        assert_eq!(ctx.ledger().charged_steps(), out.sort_steps);
    }

    #[test]
    fn flat_routes_random_multi() {
        let shape = MeshShape::square(8);
        for l1 in [1u64, 2, 4] {
            let inst = RoutingInstance::random(shape, l1, 17 + l1);
            let out = route_flat(&inst, 100_000, &mut ExecCtx::default()).unwrap();
            assert_eq!(out.delivered, 64 * l1);
        }
    }

    #[test]
    fn flat_beats_greedy_on_all_to_one_route_phase() {
        // All packets to one corner. The sort spreads packets so the
        // route phase pipelines into the corner instead of colliding from
        // two sides; total still Θ(n) (that is inherent: l2 = n), but
        // the route phase must not exceed greedy's.
        let shape = MeshShape::square(16);
        let pairs: Vec<(u32, u32)> = (0..256).map(|s| (s, 0)).collect();
        let inst = RoutingInstance { shape, pairs };
        let flat = route_flat(&inst, 1_000_000, &mut ExecCtx::default()).unwrap();
        let greedy = route_greedy(&inst, 1_000_000, &mut ExecCtx::default()).unwrap();
        assert_eq!(flat.delivered, 256);
        assert!(
            flat.route_steps <= greedy.route_steps + 32,
            "flat {} vs greedy {}",
            flat.route_steps,
            greedy.route_steps
        );
    }

    #[test]
    fn flat_handles_empty_instance() {
        let shape = MeshShape::square(4);
        let inst = RoutingInstance {
            shape,
            pairs: vec![],
        };
        let out = route_flat(&inst, 1000, &mut ExecCtx::default()).unwrap();
        assert_eq!(out.delivered, 0);
    }
}
