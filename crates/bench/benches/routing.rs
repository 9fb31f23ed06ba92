//! Routing benchmarks (experiments T2/T3 at bench-friendly sizes): the
//! flat `(l1,l2)`-routing against Theorem 2's bound shape and the
//! hierarchical `(l1,l2,δ,m)`-routing of Section 2.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prasim_exec::ExecCtx;
use prasim_mesh::region::{Rect, Tessellation};
use prasim_mesh::topology::MeshShape;
use prasim_routing::flat::route_flat;
use prasim_routing::greedy::route_greedy;
use prasim_routing::hierarchical::route_hierarchical;
use prasim_routing::problem::RoutingInstance;

fn bench_flat_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing/flat_t2");
    g.sample_size(10);
    for &n in &[1024u64, 4096] {
        for &l1 in &[1u64, 4] {
            let shape = MeshShape::square_of(n).unwrap();
            let inst = RoutingInstance::random(shape, l1, 42);
            g.bench_function(format!("n{n}_l1_{l1}"), |b| {
                b.iter(|| {
                    black_box(
                        route_flat(&inst, 100_000_000, &mut ExecCtx::default())
                            .unwrap()
                            .total_steps,
                    )
                })
            });
        }
    }
    g.finish();
}

fn bench_greedy_vs_flat(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing/greedy_baseline");
    g.sample_size(10);
    let shape = MeshShape::square_of(4096).unwrap();
    let inst = RoutingInstance::permutation(shape, 3);
    g.bench_function("greedy_perm_n4096", |b| {
        b.iter(|| {
            black_box(
                route_greedy(&inst, 100_000_000, &mut ExecCtx::default())
                    .unwrap()
                    .total_steps,
            )
        })
    });
    g.bench_function("flat_perm_n4096", |b| {
        b.iter(|| {
            black_box(
                route_flat(&inst, 100_000_000, &mut ExecCtx::default())
                    .unwrap()
                    .total_steps,
            )
        })
    });
    g.finish();
}

fn bench_hierarchical(c: &mut Criterion) {
    // T3: the Section 2 algorithm on its favourable (skewed) instances.
    let mut g = c.benchmark_group("routing/hierarchical_t3");
    g.sample_size(10);
    for &n in &[1024u64, 4096] {
        let shape = MeshShape::square_of(n).unwrap();
        let parts = n / 64;
        let tess = Tessellation::new(Rect::full(shape), parts).unwrap();
        let inst = RoutingInstance::skewed_per_part(shape, &tess, 1, 9);
        g.bench_function(format!("hier_n{n}"), |b| {
            b.iter(|| {
                black_box(
                    route_hierarchical(&inst, parts, 100_000_000, &mut ExecCtx::default())
                        .unwrap()
                        .total_steps,
                )
            })
        });
        g.bench_function(format!("flat_skewed_n{n}"), |b| {
            b.iter(|| {
                black_box(
                    route_flat(&inst, 100_000_000, &mut ExecCtx::default())
                        .unwrap()
                        .total_steps,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_flat_routing,
    bench_greedy_vs_flat,
    bench_hierarchical
);
criterion_main!(benches);
