//! Execution-context reuse benchmarks: what a warm context's engine
//! pool and parked worker pool save over cold construction.
//!
//! Two comparisons, both on the T16 routing workload:
//!
//! - `pooled_engine` vs `fresh_engine`: checking an engine out of a warm
//!   [`ExecCtx`] (allocations reused, worker pool parked) against
//!   constructing a bare `Engine` per run — the seed's cold-start path.
//! - `warm_pool` vs `cold_pool`: the persistent worker pool kept across
//!   runs against a context rebuilt (threads respawned) every run.
//!
//! Determinism across the two paths is enforced by the equivalence
//! proptest (`tests/exec_context.rs`); this file only measures
//! throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prasim_exec::ExecCtx;
use prasim_mesh::engine::{Engine, Packet};
use prasim_mesh::region::Rect;
use prasim_mesh::topology::MeshShape;
use prasim_routing::problem::SplitMix64;
use prasim_sortnet::Sorter;

/// Injects the T16 workload (`per_node` random-destination packets at
/// every node) into `engine`.
fn saturate(engine: &mut Engine, shape: MeshShape, per_node: u64) {
    let bounds = Rect::full(shape);
    let mut rng = SplitMix64(0xC0FFEE ^ shape.nodes());
    let mut id = 0u64;
    for node in 0..shape.nodes() as u32 {
        let src = shape.coord(node);
        for _ in 0..per_node {
            let dest = shape.coord((rng.next_u64() % shape.nodes()) as u32);
            engine.inject(
                src,
                Packet {
                    id,
                    dest,
                    bounds,
                    tag: id,
                },
            );
            id += 1;
        }
    }
}

fn bench_engine_reuse(c: &mut Criterion) {
    let shape = MeshShape::square_of(1024).unwrap();
    let mut g = c.benchmark_group("exec_reuse/engine_n1024");
    g.sample_size(10);

    g.bench_function("pooled_engine", |b| {
        let mut ctx = ExecCtx::default();
        b.iter(|| {
            let mut e = ctx.engine(shape);
            saturate(&mut e, shape, 8);
            let steps = black_box(e.run(100_000_000).unwrap().steps);
            e.drain_delivered().for_each(drop);
            ctx.recycle(e);
            steps
        })
    });

    g.bench_function("fresh_engine", |b| {
        b.iter(|| {
            let mut e = Engine::new(shape);
            saturate(&mut e, shape, 8);
            black_box(e.run(100_000_000).unwrap().steps)
        })
    });
    g.finish();
}

fn bench_pool_reuse(c: &mut Criterion) {
    let shape = MeshShape::square_of(1024).unwrap();
    let threads = 2;
    let mut g = c.benchmark_group("exec_reuse/pool_n1024");
    g.sample_size(10);

    g.bench_function("warm_pool", |b| {
        let mut ctx = ExecCtx::new(threads, Sorter::default(), false);
        b.iter(|| {
            let mut e = ctx.engine(shape);
            saturate(&mut e, shape, 8);
            let steps = black_box(e.run(100_000_000).unwrap().steps);
            e.drain_delivered().for_each(drop);
            ctx.recycle(e);
            steps
        })
    });

    g.bench_function("cold_pool", |b| {
        b.iter(|| {
            // A context built per run respawns its worker threads and
            // reallocates its engine — the seed's per-step behavior.
            let mut ctx = ExecCtx::new(threads, Sorter::default(), false);
            let mut e = ctx.engine(shape);
            saturate(&mut e, shape, 8);
            let steps = black_box(e.run(100_000_000).unwrap().steps);
            e.drain_delivered().for_each(drop);
            ctx.recycle(e);
            steps
        })
    });
    g.finish();
}

criterion_group!(benches, bench_engine_reuse, bench_pool_reuse);
criterion_main!(benches);
