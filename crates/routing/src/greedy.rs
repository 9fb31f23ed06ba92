//! Direct greedy XY routing (the baseline the staged algorithms beat).

use crate::problem::{RoutingInstance, RoutingOutcome};
use prasim_exec::ExecCtx;
use prasim_mesh::engine::{Engine, EngineError, Packet};
use prasim_mesh::region::Rect;

/// Routes every packet straight from its source to its destination with
/// greedy XY paths and farthest-first contention resolution. No sorting,
/// no spreading — the naive strategy whose worst cases motivate
/// Theorem 2's algorithm. The engine comes from the context's pool.
pub fn route_greedy(
    inst: &RoutingInstance,
    max_steps: u64,
    ctx: &mut ExecCtx,
) -> Result<RoutingOutcome, EngineError> {
    let mut engine = ctx.engine(inst.shape);
    engine.reserve(inst.pairs.len());
    let bounds = Rect::full(inst.shape);
    for (i, &(s, d)) in inst.pairs.iter().enumerate() {
        engine.inject(
            inst.shape.coord(s),
            Packet {
                id: i as u64,
                dest: inst.shape.coord(d),
                bounds,
                tag: i as u64,
            },
        );
    }
    let stats = engine.run(max_steps)?;
    let mut out = RoutingOutcome::default();
    out.add_route(stats);
    debug_assert!(verify_delivery(inst, &mut engine));
    ctx.recycle(engine);
    Ok(out)
}

/// Checks every delivered packet landed on its instance destination.
/// Drains the engine in place ([`Engine::drain_delivered`]) — no
/// intermediate `Vec` of packets is materialized.
pub fn verify_delivery(inst: &RoutingInstance, engine: &mut Engine) -> bool {
    let mut seen = 0usize;
    let all_on_dest = engine.drain_delivered().all(|(node, pkt)| {
        seen += 1;
        inst.pairs[pkt.tag as usize].1 == node
    });
    all_on_dest && seen == inst.pairs.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prasim_mesh::topology::MeshShape;

    #[test]
    fn greedy_routes_permutation() {
        let shape = MeshShape::square(8);
        let inst = RoutingInstance::permutation(shape, 11);
        let out = route_greedy(&inst, 100_000, &mut ExecCtx::default()).unwrap();
        assert_eq!(out.delivered, 64);
        assert!(out.total_steps <= 4 * 14, "steps = {}", out.total_steps);
    }

    #[test]
    fn greedy_routes_random_l1() {
        let shape = MeshShape::square(8);
        let inst = RoutingInstance::random(shape, 4, 5);
        let out = route_greedy(&inst, 100_000, &mut ExecCtx::default()).unwrap();
        assert_eq!(out.delivered, 64 * 4);
        assert_eq!(out.sort_steps, 0);
    }

    #[test]
    fn greedy_suffers_on_concentrated_loads() {
        // All packets to one node: Θ(n) serialization on the last links.
        let shape = MeshShape::square(8);
        let pairs: Vec<(u32, u32)> = (0..64).map(|s| (s, 0)).collect();
        let inst = RoutingInstance { shape, pairs };
        let out = route_greedy(&inst, 100_000, &mut ExecCtx::default()).unwrap();
        // 63 packets must cross the two links into node 0: ≥ ~32 steps.
        assert!(out.total_steps >= 31, "steps = {}", out.total_steps);
    }
}
