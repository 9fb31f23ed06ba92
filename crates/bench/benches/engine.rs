//! Engine benchmarks: a light routing phase on a small mesh, and warm
//! step throughput on n = 4096 — fault-free, around dead nodes, and with
//! hot-spot queues in the hundreds.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use prasim_mesh::engine::{Engine, Packet};
use prasim_mesh::fault::FaultMask;
use prasim_mesh::region::Rect;
use prasim_mesh::topology::{Coord, MeshShape};
use prasim_routing::problem::SplitMix64;

fn bench_sequential_small(c: &mut Criterion) {
    // Small mesh, light load: 2 random-destination packets per node.
    let shape = MeshShape::square_of(1024).unwrap();
    let w = step_workload(shape, 2);
    let mut g = c.benchmark_group("engine/sequential_n1024");
    g.sample_size(10);
    g.bench_function("t1_light", |b| {
        b.iter_batched(
            || {
                let mut engine = Engine::new(shape);
                for &(src, pkt) in &w {
                    engine.inject(src, pkt);
                }
                engine
            },
            |mut e| black_box(e.run(100_000_000).unwrap().steps),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// `per_node` random-destination packets at every node, as an injection
/// list.
fn step_workload(shape: MeshShape, per_node: u64) -> Vec<(Coord, Packet)> {
    let bounds = Rect::full(shape);
    let mut rng = SplitMix64(0xC0FFEE ^ shape.nodes());
    let mut out = Vec::new();
    let mut id = 0u64;
    for node in 0..shape.nodes() as u32 {
        let src = shape.coord(node);
        for _ in 0..per_node {
            let dest = shape.coord((rng.next_u64() % shape.nodes()) as u32);
            out.push((
                src,
                Packet {
                    id,
                    dest,
                    bounds,
                    tag: id,
                },
            ));
            id += 1;
        }
    }
    out
}

/// Warm step throughput: one engine reused across iterations (reset,
/// inject, run, drain in place), so the measurement sees the arena
/// engine's steady state — zero allocation — rather than cold buffer
/// growth.
fn bench_engine_step(c: &mut Criterion) {
    let shape = MeshShape::square_of(4096).unwrap();
    let w = step_workload(shape, 8);
    let mut g = c.benchmark_group("engine_step/n4096");
    g.sample_size(10);
    let mut engine = Engine::new(shape);
    // Warmup sizes every buffer before the first sample.
    for &(src, pkt) in &w {
        engine.inject(src, pkt);
    }
    engine.run(100_000_000).unwrap();
    g.bench_function("arena_t1", |b| {
        b.iter(|| {
            engine.reset();
            for &(src, pkt) in &w {
                engine.inject(src, pkt);
            }
            let steps = engine.run(100_000_000).unwrap().steps;
            black_box(engine.drain_delivered().count());
            steps
        })
    });
    // The `arena_t1` workload around 4 fixed dead nodes: the faulted
    // step loop, clear-node fast path and detours included. `reset`
    // drops the mask and `with_faults` consumes the engine, so each
    // cycle re-installs a copy of the mask.
    let mut mask = FaultMask::new(shape);
    for (r, c) in [(16, 16), (16, 47), (47, 16), (47, 47)] {
        mask.kill_node(Coord::new(r, c));
    }
    let faulted_cycle = |mut engine: Engine| {
        engine.reset();
        let mut engine = engine.with_faults(mask.clone());
        for &(src, pkt) in &w {
            engine.inject(src, pkt);
        }
        let steps = engine.run(100_000_000).unwrap().steps;
        black_box(engine.drain_delivered().count());
        (engine, steps)
    };
    // Warmup sizes every buffer before the first sample.
    let mut engine = Some(faulted_cycle(Engine::new(shape)).0);
    g.bench_function("faulted_t1", |b| {
        b.iter(|| {
            let (warm, steps) = faulted_cycle(engine.take().unwrap());
            engine = Some(warm);
            steps
        })
    });
    // The detour tail of a quorum step's whole-mesh spread: the
    // `faulted_t1` workload with one packet in eight redirected to a hot
    // spot beside one of the 4 dead nodes, so queues reach the hundreds.
    let hot = hotspot_workload(shape, &w);
    let hot_cycle = |mut engine: Engine| {
        engine.reset();
        let mut engine = engine.with_faults(mask.clone());
        for &(src, pkt) in &hot {
            engine.inject(src, pkt);
        }
        let steps = engine.run(100_000_000).unwrap().steps;
        black_box(engine.drain_delivered().count());
        (engine, steps)
    };
    let mut engine = Some(hot_cycle(Engine::new(shape)).0);
    g.bench_function("hotspot_faulted_t1", |b| {
        b.iter(|| {
            let (warm, steps) = hot_cycle(engine.take().unwrap());
            engine = Some(warm);
            steps
        })
    });
    g.finish();
}

/// `w` with one packet in eight sent to a node beside one of the dead
/// nodes of `bench_engine_step`'s mask instead.
fn hotspot_workload(shape: MeshShape, w: &[(Coord, Packet)]) -> Vec<(Coord, Packet)> {
    let spots = [(16, 17), (16, 48), (47, 17), (47, 48)];
    let mut rng = SplitMix64(0x407 ^ shape.nodes());
    w.iter()
        .map(|&(src, pkt)| {
            let r = rng.next_u64();
            let dest = match r % 8 {
                0 => {
                    let (row, col) = spots[(r / 8 % 4) as usize];
                    Coord::new(row, col)
                }
                _ => pkt.dest,
            };
            (src, Packet { dest, ..pkt })
        })
        .collect()
}

criterion_group!(benches, bench_sequential_small, bench_engine_step);
criterion_main!(benches);
