//! CULLING benchmarks (experiments T4/T5): copy-selection cost across
//! mesh sizes and workloads, with the Theorem 3 certificate asserted.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prasim_core::culling::cull_with;
use prasim_core::workload;
use prasim_exec::ExecCtx;
use prasim_hmos::{Hmos, HmosParams};

fn requests(hmos: &Hmos, seed: u64) -> Vec<Option<u64>> {
    let n = hmos.params().n;
    let active = n.min(hmos.num_variables());
    let mut reqs: Vec<Option<u64>> = workload::random_distinct(active, hmos.num_variables(), seed)
        .into_iter()
        .map(Some)
        .collect();
    reqs.resize(n as usize, None);
    reqs
}

fn bench_culling_scaling(c: &mut Criterion) {
    // T5: T_culling across n (Eq. 2 shape).
    let mut g = c.benchmark_group("culling/t5_scaling");
    g.sample_size(10);
    for &(n, d) in &[(1024u64, 5u32), (4096, 6)] {
        let hmos = Hmos::new(HmosParams::with_d(3, 2, n, d).unwrap()).unwrap();
        let reqs = requests(&hmos, 5);
        g.bench_function(format!("n{n}"), |b| {
            b.iter(|| {
                let out = cull_with(&hmos, &reqs, 1.0, &mut ExecCtx::default());
                assert!(out.report.theorem3_holds());
                black_box(out.report.total_steps)
            })
        });
    }
    g.finish();
}

fn bench_culling_adversarial(c: &mut Criterion) {
    // T4: adversarial request sets.
    let mut g = c.benchmark_group("culling/t4_adversarial");
    g.sample_size(10);
    let hmos = Hmos::new(HmosParams::with_d(3, 2, 1024, 5).unwrap()).unwrap();
    let vars = workload::multi_module_adversary(&hmos, 1024, 0);
    let reqs: Vec<Option<u64>> = vars.into_iter().map(Some).collect();
    g.bench_function("module_saturating_n1024", |b| {
        b.iter(|| {
            let out = cull_with(&hmos, &reqs, 1.0, &mut ExecCtx::default());
            assert!(out.report.theorem3_holds());
            black_box(out.report.total_steps)
        })
    });
    g.finish();
}

fn bench_culling_k(c: &mut Criterion) {
    // Redundancy ablation: culling cost vs k.
    let mut g = c.benchmark_group("culling/vs_k");
    g.sample_size(10);
    for k in [1u32, 2, 3] {
        let hmos = match HmosParams::with_d(3, k, 4096, 5) {
            Ok(p) => Hmos::new(p).unwrap(),
            Err(_) => continue,
        };
        let reqs = requests(&hmos, 7);
        g.bench_function(format!("k{k}"), |b| {
            b.iter(|| {
                black_box(
                    cull_with(&hmos, &reqs, 1.0, &mut ExecCtx::default())
                        .report
                        .total_steps,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_culling_scaling,
    bench_culling_adversarial,
    bench_culling_k
);
criterion_main!(benches);
