//! Benchmarks of the sorting substrate: shearsort and the step-simulated
//! columnsort, wall-clock scaling (the dominant term in every protocol
//! phase).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prasim_mesh::pool::EnginePool;
use prasim_routing::problem::SplitMix64;
use prasim_sortnet::rank::rank_sorted;
use prasim_sortnet::shearsort::{shearsort, shearsort_flat};
use prasim_sortnet::{columnsort_mesh, RouteMemo};

fn grid(side: u32, h: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = SplitMix64(seed);
    (0..(side as usize * side as usize))
        .map(|_| (0..h).map(|_| rng.next_u64() >> 16).collect())
        .collect()
}

fn bench_shearsort(c: &mut Criterion) {
    let mut g = c.benchmark_group("sortnet/shearsort");
    for &side in &[16u32, 32, 64] {
        for &h in &[1usize, 4, 9] {
            g.bench_function(format!("side{side}_h{h}"), |b| {
                b.iter_batched(
                    || grid(side, h, 42),
                    |mut items| black_box(shearsort(&mut items, side, side, h)),
                    criterion::BatchSize::SmallInput,
                )
            });
        }
    }
    // The flat kernel alone on CULLING's level-1 sort shape at n = 4096
    // (64×64, 9 keys per node), with no per-node buffers to flatten.
    let (side, h) = (64u32, 9usize);
    let mut scratch = Vec::new();
    g.bench_function(format!("flat_side{side}_h{h}"), |b| {
        b.iter_batched(
            || grid(side, h, 42).concat(),
            |mut buf| black_box(shearsort_flat(&mut buf, side, side, h, &mut scratch)),
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_columnsort(c: &mut Criterion) {
    let mut g = c.benchmark_group("sortnet/columnsort");
    let (mut engines, mut memo) = (EnginePool::new(), RouteMemo::new());
    for &side in &[16u32, 32, 64] {
        for &h in &[1usize, 4, 9] {
            // Warm the permutation-cost cache outside the timing loop:
            // route measurement happens once per shape, not per sort.
            let mut warm = grid(side, h, 42);
            columnsort_mesh(&mut warm, side, side, h, &mut engines, &mut memo);
            g.bench_function(format!("side{side}_h{h}"), |b| {
                b.iter_batched(
                    || grid(side, h, 42),
                    |mut items| {
                        black_box(columnsort_mesh(
                            &mut items,
                            side,
                            side,
                            h,
                            &mut engines,
                            &mut memo,
                        ))
                    },
                    criterion::BatchSize::SmallInput,
                )
            });
        }
    }
    g.finish();
}

fn bench_rank(c: &mut Criterion) {
    let mut g = c.benchmark_group("sortnet/rank");
    let side = 32u32;
    let mut items: Vec<Vec<(u64, u64)>> = grid(side, 4, 7)
        .into_iter()
        .map(|v| v.into_iter().map(|x| (x % 50, x)).collect())
        .collect();
    shearsort(&mut items, side, side, 4);
    g.bench_function("side32_h4_groups50", |b| {
        b.iter(|| black_box(rank_sorted(&items, side, side, |&(g, _)| g)))
    });
    g.finish();
}

criterion_group!(benches, bench_shearsort, bench_columnsort, bench_rank);
criterion_main!(benches);
