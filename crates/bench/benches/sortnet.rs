//! Benchmarks of the sorting substrate: shearsort and the step-simulated
//! columnsort, wall-clock scaling (the dominant term in every protocol
//! phase).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prasim_mesh::pool::EnginePool;
use prasim_routing::problem::SplitMix64;
use prasim_sortnet::rank::rank_sorted;
use prasim_sortnet::shearsort::shearsort_flat;
use prasim_sortnet::{RouteMemo, Sorter};

/// `h` random keys on every node of a `side × side` mesh, as
/// `(snake position, key)` pairs.
fn grid(side: u32, h: usize, seed: u64) -> Vec<(u32, u64)> {
    let mut rng = SplitMix64(seed);
    (0..side * side)
        .flat_map(|p| std::iter::repeat_n(p, h))
        .map(|p| (p, rng.next_u64() >> 16))
        .collect()
}

/// One sorter over the pair entry at the sizes every group shares.
fn bench_sorter(c: &mut Criterion, sorter: Sorter) {
    let mut g = c.benchmark_group(format!("sortnet/{sorter}"));
    let (mut engines, mut memo) = (EnginePool::new(), RouteMemo::new());
    for &side in &[16u32, 32, 64] {
        for &h in &[1usize, 4, 9] {
            // Sort once outside the timing loop, so a shape the committed
            // route-cost table lacks is measured into the memo before timing
            // starts: route measurement happens once per shape, not per sort.
            sorter.sort_pairs(grid(side, h, 42), side, side, &mut engines, &mut memo);
            g.bench_function(format!("side{side}_h{h}"), |b| {
                b.iter_batched(
                    || grid(side, h, 42),
                    |pairs| {
                        black_box(sorter.sort_pairs(pairs, side, side, &mut engines, &mut memo))
                    },
                    criterion::BatchSize::SmallInput,
                )
            });
        }
    }
    if sorter == Sorter::Shearsort {
        // The flat kernel alone on CULLING's level-1 sort shape at
        // n = 4096 (64×64, 9 keys per node), with no pairs to place.
        let (side, h) = (64u32, 9usize);
        let mut scratch = Vec::new();
        g.bench_function(format!("flat_side{side}_h{h}"), |b| {
            b.iter_batched(
                || {
                    grid(side, h, 42)
                        .into_iter()
                        .map(|(_, k)| k)
                        .collect::<Vec<_>>()
                },
                |mut buf| black_box(shearsort_flat(&mut buf, side, side, h, &mut scratch)),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_shearsort(c: &mut Criterion) {
    bench_sorter(c, Sorter::Shearsort);
}

fn bench_columnsort(c: &mut Criterion) {
    bench_sorter(c, Sorter::Columnsort);
}

fn bench_rank(c: &mut Criterion) {
    let mut g = c.benchmark_group("sortnet/rank");
    let side = 32u32;
    let pairs = grid(side, 4, 7).into_iter().map(|(p, x)| (p, (x % 50, x)));
    let sorted = Sorter::Shearsort.sort_pairs(
        pairs,
        side,
        side,
        &mut EnginePool::new(),
        &mut RouteMemo::new(),
    );
    g.bench_function("side32_h4_groups50", |b| {
        b.iter(|| black_box(rank_sorted(&sorted, |&(g, _)| g)))
    });
    g.finish();
}

criterion_group!(benches, bench_shearsort, bench_columnsort, bench_rank);
criterion_main!(benches);
