//! Full PRAM-step benchmarks (experiments T1/T9/T10 at bench-friendly
//! sizes): one complete simulated step — culling + staged protocol —
//! for the HMOS scheme and the baselines.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prasim_core::baseline::{BaselineScheme, FlatHmosSim, SingleCopySim};
use prasim_core::{workload, PramMeshSim, PramStep, SimConfig};
use prasim_sortnet::Sorter;

fn bench_full_step(c: &mut Criterion) {
    // T1: one PRAM read step across mesh sizes (α ≈ 1.33–1.37).
    let mut g = c.benchmark_group("simulation/t1_step");
    g.sample_size(10);
    for &(n, mem) in &[(1024u64, 9801u64), (4096, 88452)] {
        let mut sim = PramMeshSim::new(SimConfig::new(n, mem)).unwrap();
        let active = n.min(sim.num_variables());
        let vars = workload::random_distinct(active, sim.num_variables(), 42);
        let step = PramStep::reads(&vars);
        g.bench_function(format!("hmos_n{n}"), |b| {
            b.iter(|| black_box(sim.step(&step).unwrap().total_steps))
        });
    }
    g.finish();
}

fn bench_redundancy(c: &mut Criterion) {
    // T9: k = 1 vs 2 vs 3 at fixed n and memory.
    let mut g = c.benchmark_group("simulation/t9_redundancy");
    g.sample_size(10);
    for k in [1u32, 2, 3] {
        let sim = PramMeshSim::new(SimConfig::new(4096, 9801).with_k(k));
        let mut sim = match sim {
            Ok(s) => s,
            Err(_) => continue,
        };
        let vars = workload::multi_module_adversary(sim.hmos(), 4096.min(sim.num_variables()), 0);
        let step = PramStep::reads(&vars);
        g.bench_function(format!("k{k}"), |b| {
            b.iter(|| black_box(sim.step(&step).unwrap().total_steps))
        });
    }
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    // T10: the same uniform step across schemes.
    let mut g = c.benchmark_group("simulation/t10_baselines");
    g.sample_size(10);
    let n = 1024u64;
    let mut hmos = PramMeshSim::new(SimConfig::new(n, 9000)).unwrap();
    let nv = hmos.num_variables();
    let vars = workload::random_distinct(n, nv, 7);
    let step = PramStep::reads(&vars);
    g.bench_function("hmos", |b| {
        b.iter(|| black_box(hmos.step(&step).unwrap().total_steps))
    });
    let mut single = SingleCopySim::new(n, nv, Sorter::default()).unwrap();
    g.bench_function("single_copy", |b| {
        b.iter(|| black_box(single.step(&step).unwrap().total_steps))
    });
    let mut flat = FlatHmosSim::new(3, 2, n, 9000, Sorter::default()).unwrap();
    g.bench_function("flat_hmos", |b| {
        b.iter(|| black_box(flat.step(&step).unwrap().total_steps))
    });
    g.finish();
}

criterion_group!(benches, bench_full_step, bench_redundancy, bench_baselines);
criterion_main!(benches);
