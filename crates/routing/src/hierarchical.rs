//! The `(l1, l2, δ, m)`-routing algorithm of Section 2.
//!
//! When the mesh is subdivided into submeshes of `m` nodes and no submesh
//! receives more than `δ·m` packets, the following 4-step algorithm beats
//! the flat `(l1, l2)`-routing whenever `l1, δ ∈ o(l2)`:
//!
//! 1. index the processors in each submesh `0..m-1`;
//! 2. sort and rank all packets by destination submesh;
//! 3. route the rank-`i` packet of each submesh group to the processor
//!    of index `i mod m` in the destination submesh (spreading the load
//!    evenly);
//! 4. route packets to their final destinations *within* each submesh,
//!    all submeshes in parallel.

use crate::problem::{node_parts, RoutingInstance, RoutingOutcome};
use prasim_exec::ExecCtx;
use prasim_mesh::engine::{EngineError, Packet};
use prasim_mesh::region::{Rect, Tessellation};
use prasim_mesh::topology::Coord;
use prasim_sortnet::rank::rank_sorted;
use prasim_sortnet::shearsort::SortCost;
use prasim_sortnet::snake::{snake_coord, snake_index, snake_pos};

/// Errors from hierarchical routing.
#[derive(Debug)]
pub enum HierError {
    /// The tessellation could not be built (too many parts).
    BadTessellation {
        /// Requested number of submeshes.
        parts: u64,
    },
    /// An engine run exceeded its budget.
    Engine(EngineError),
}

impl std::fmt::Display for HierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierError::BadTessellation { parts } => {
                write!(f, "cannot tessellate the mesh into {parts} submeshes")
            }
            HierError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HierError {}

impl From<EngineError> for HierError {
    fn from(e: EngineError) -> Self {
        HierError::Engine(e)
    }
}

/// Runs the 4-step `(l1, l2, δ, m)`-routing with the mesh divided into
/// `parts` submeshes. Sorts use the context's sorter and resources, and
/// both route engines come from the context's pool.
pub fn route_hierarchical(
    inst: &RoutingInstance,
    parts: u64,
    max_steps: u64,
    ctx: &mut ExecCtx,
) -> Result<RoutingOutcome, HierError> {
    let shape = inst.shape;
    let tess =
        Tessellation::new(Rect::full(shape), parts).ok_or(HierError::BadTessellation { parts })?;
    let owner = node_parts(shape, &tess);
    let mut out = RoutingOutcome::default();

    // ---- Step 2: sort by destination submesh (key: part, then dest). --
    let sorted = ctx.sort_pairs(
        inst.pairs.iter().enumerate().map(|(i, &(s, d))| {
            let key = owner[d as usize] as u64 * shape.nodes() + d as u64;
            (snake_pos(shape, s), (key, i as u64))
        }),
        shape.rows,
        shape.cols,
    );
    out.add_sort(ctx.ledger_mut().charge(&sorted.cost));

    // Rank within destination-submesh groups.
    let (ranks, rank_cost) = rank_sorted(&sorted, |&(key, _)| key / shape.nodes());
    out.add_sort(ctx.ledger_mut().charge(&rank_cost));

    // ---- Step 3: spread into destination submeshes (rank i -> slot i mod m).
    let mut engine = ctx.engine(shape);
    engine.reserve(inst.pairs.len());
    let full = Rect::full(shape);
    for ((pos, &(key, idx)), &rank) in sorted.placed().zip(&ranks) {
        let (r, c) = snake_coord(shape.cols, pos);
        let part = (key / shape.nodes()) as usize;
        let rect = tess.parts[part];
        let slot = (rank % rect.area()) as u32;
        engine.inject(
            Coord { r, c },
            Packet {
                id: idx,
                dest: rect.coord_at(slot),
                bounds: full,
                tag: idx,
            },
        );
    }
    let stats = engine.run(max_steps)?;
    out.add_route(stats);

    // ---- Step 4: local sort + route inside each submesh, in parallel. --
    // Gather per-part (local snake position, (final dest key, packet))
    // pairs, draining landed packets straight out of the engine arena.
    let mut part_pairs: Vec<Vec<(u32, (u64, u64))>> = vec![Vec::new(); tess.parts.len()];
    for (node, pkt) in engine.drain_delivered() {
        let coord = shape.coord(node);
        let part = owner[node as usize] as usize;
        let rect = tess.parts[part];
        let local = rect.local_index(coord);
        let lpos = snake_index(rect.cols, local / rect.cols, local % rect.cols);
        let final_dest = inst.pairs[pkt.tag as usize].1;
        let dc = shape.coord(final_dest);
        let key = snake_index(rect.cols, dc.r - rect.r0, dc.c - rect.c0) as u64;
        part_pairs[part].push((lpos, (key, pkt.tag)));
    }
    ctx.recycle(engine);
    // Local sorts run in parallel across submeshes: charge the maximum.
    let part_sorted: Vec<_> = tess
        .parts
        .iter()
        .zip(part_pairs)
        .map(|(rect, pairs)| ctx.sort_pairs(pairs, rect.rows, rect.cols))
        .collect();
    let mut max_local_sort = SortCost::default();
    for sorted in &part_sorted {
        if ctx.ledger().value(&sorted.cost) > ctx.ledger().value(&max_local_sort) {
            max_local_sort = sorted.cost;
        }
    }
    out.add_sort(ctx.ledger_mut().charge(&max_local_sort));

    // Final local routes, all parts simultaneously in one engine run.
    let mut engine = ctx.engine(shape);
    for (rect, sorted) in tess.parts.iter().zip(&part_sorted) {
        for (lpos, &(_, idx)) in sorted.placed() {
            let (lr, lc) = snake_coord(rect.cols, lpos);
            let at = Coord {
                r: rect.r0 + lr,
                c: rect.c0 + lc,
            };
            engine.inject(
                at,
                Packet {
                    id: idx,
                    dest: shape.coord(inst.pairs[idx as usize].1),
                    bounds: *rect,
                    tag: idx,
                },
            );
        }
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
    use crate::flat::route_flat;
    use prasim_mesh::topology::MeshShape;

    #[test]
    fn hierarchical_routes_permutation() {
        let shape = MeshShape::square(8);
        let inst = RoutingInstance::permutation(shape, 1);
        let out = route_hierarchical(&inst, 4, 100_000, &mut ExecCtx::default()).unwrap();
        assert_eq!(out.delivered, 2 * 64); // step-3 spread + final
    }

    #[test]
    fn hierarchical_routes_random() {
        let shape = MeshShape::square(8);
        let inst = RoutingInstance::random(shape, 3, 23);
        let out = route_hierarchical(&inst, 4, 100_000, &mut ExecCtx::default()).unwrap();
        assert_eq!(out.delivered, 2 * 64 * 3);
    }

    #[test]
    fn hierarchical_correct_on_skewed_instances() {
        // δ small, l2 large: the regime Section 2 targets. At 16×16 the
        // asymptotic advantage is not yet visible in measured steps (the
        // extra spread stage costs a constant); the quantitative regime
        // comparison is experiment E3 in the bench harness. Here we check
        // correctness and that the overhead stays within a small factor.
        let shape = MeshShape::square(16);
        let parts = 16u64;
        let tess = Tessellation::new(Rect::full(shape), parts).unwrap();
        let inst = RoutingInstance::skewed_per_part(shape, &tess, 1, 99);
        let hier = route_hierarchical(&inst, parts, 1_000_000, &mut ExecCtx::default()).unwrap();
        let flat = route_flat(&inst, 1_000_000, &mut ExecCtx::default()).unwrap();
        assert_eq!(hier.delivered, 2 * 256);
        assert_eq!(flat.delivered, 256);
        assert!(
            hier.route_steps <= 4 * flat.route_steps + 64,
            "hier {} vs flat {}",
            hier.route_steps,
            flat.route_steps
        );
    }

    #[test]
    fn rejects_impossible_tessellation() {
        let shape = MeshShape::square(4);
        let inst = RoutingInstance::permutation(shape, 1);
        assert!(matches!(
            route_hierarchical(&inst, 1000, 100, &mut ExecCtx::default()),
            Err(HierError::BadTessellation { .. })
        ));
    }
}
