//! Link-congestion heatmaps: why sorting-then-routing flattens traffic.
//!
//! Routes the same receive-skewed instance twice — straight greedy XY,
//! and greedy from sorted (spread) positions — and prints the per-node
//! traffic heatmaps ('.' idle … '9' busiest, log scale).
//!
//! ```sh
//! cargo run --release --example heatmap
//! ```

use prasim::exec::ExecCtx;
use prasim::mesh::engine::{Engine, Packet};
use prasim::mesh::region::{Rect, Tessellation};
use prasim::mesh::topology::MeshShape;
use prasim::routing::problem::RoutingInstance;
use prasim::sortnet::snake::{snake_coord, snake_pos};
use prasim::sortnet::Sorter;

fn main() {
    let shape = MeshShape::square(32);
    let n = shape.nodes();
    let tess = Tessellation::new(Rect::full(shape), 16).unwrap();
    let inst = RoutingInstance::skewed_per_part(shape, &tess, 1, 7);
    println!(
        "instance: n = {n}, l1 = {}, l2 = {}, one hotspot per 64-node submesh\n",
        inst.l1(),
        inst.l2()
    );

    // --- Plain greedy. ---
    let mut engine = Engine::new(shape).with_trace();
    engine.reserve(inst.pairs.len());
    let bounds = Rect::full(shape);
    for (i, &(s, d)) in inst.pairs.iter().enumerate() {
        engine.inject(
            shape.coord(s),
            Packet {
                id: i as u64,
                dest: shape.coord(d),
                bounds,
                tag: i as u64,
            },
        );
    }
    let stats = engine.run(1_000_000).unwrap();
    let trace = engine.trace().unwrap();
    let (hot, dir, count) = trace.hottest().unwrap();
    println!(
        "greedy: {} steps, hottest link ({},{}) {:?} carried {} packets",
        stats.steps, hot.r, hot.c, dir, count
    );
    println!("{}", trace.heatmap());

    // --- Sort by destination first, then greedy. ---
    let sorted = ExecCtx::new(1, Sorter::Shearsort, false).sort_pairs(
        inst.pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| (snake_pos(shape, s), (snake_pos(shape, d), i as u64))),
        shape.rows,
        shape.cols,
    );
    let mut engine = Engine::new(shape).with_trace();
    for (pos, &(_, idx)) in sorted.placed() {
        let (r, c) = snake_coord(shape.cols, pos);
        engine.inject(
            prasim::mesh::topology::Coord { r, c },
            Packet {
                id: idx,
                dest: shape.coord(inst.pairs[idx as usize].1),
                bounds,
                tag: idx,
            },
        );
    }
    let stats = engine.run(1_000_000).unwrap();
    let trace = engine.trace().unwrap();
    let (hot, dir, count) = trace.hottest().unwrap();
    println!(
        "sorted-then-greedy: {} sort + {} route steps, hottest link ({},{}) {:?} carried {}",
        sorted.cost.steps, stats.steps, hot.r, hot.c, dir, count
    );
    println!("{}", trace.heatmap());
}
