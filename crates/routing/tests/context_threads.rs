//! Regression tests: the routing layers, the baselines and columnsort's
//! route measurements must run their engines with the configured
//! worker-thread count. The seed built `Engine::new(shape)` inside
//! `route_flat`/`route_hierarchical`/`route_greedy`, and columnsort
//! checked engines out of the pool without the context's configuration,
//! so `--threads` silently fell back to a process default on those
//! paths. With the execution context every engine comes from the
//! context's pool and carries its thread count.

use prasim_core::baseline::{BaselineScheme, FlatHmosSim, MehlhornVishkinSim, SingleCopySim};
use prasim_core::{workload, PramStep};
use prasim_exec::ExecCtx;
use prasim_mesh::topology::MeshShape;
use prasim_routing::problem::RoutingInstance;
use prasim_routing::{route_flat, route_greedy, route_hierarchical};
use prasim_sortnet::sorter::Sorter;

/// A context whose only engine users are the route phases: shearsort
/// runs no engine, so every pool-thread spawn below is attributable to
/// the routing engines.
fn ctx_with(threads: usize) -> ExecCtx {
    ExecCtx::new(threads, Sorter::Shearsort, false)
}

#[test]
fn flat_route_engine_uses_context_threads() {
    let shape = MeshShape::square(8);
    // l1 = 2 so the post-sort positions differ from the destinations and
    // the route phase actually runs the engine (a bare permutation sorts
    // every packet directly onto its destination).
    let inst = RoutingInstance::random(shape, 2, 5);
    let mut ctx = ctx_with(3);
    let out = route_flat(&inst, 100_000, &mut ctx).unwrap();
    assert_eq!(out.delivered, 128);
    // With the seed bug the engine ignored the configured count and the
    // context pool would have spawned nothing.
    assert_eq!(
        ctx.worker_pool().spawned(),
        3,
        "route engine must shard across the context's 3 workers"
    );
}

#[test]
fn hierarchical_route_engines_use_context_threads() {
    let shape = MeshShape::square(8);
    let inst = RoutingInstance::random(shape, 2, 77);
    let mut ctx = ctx_with(2);
    let out = route_hierarchical(&inst, 4, 100_000, &mut ctx).unwrap();
    assert_eq!(out.delivered, 2 * 64 * 2);
    assert_eq!(ctx.worker_pool().spawned(), 2);
}

#[test]
fn greedy_route_engine_uses_context_threads() {
    let shape = MeshShape::square(8);
    let inst = RoutingInstance::random(shape, 2, 5);
    let mut ctx = ctx_with(3);
    let out = route_greedy(&inst, 100_000, &mut ctx).unwrap();
    assert_eq!(out.delivered, 128);
    assert_eq!(
        ctx.worker_pool().spawned(),
        3,
        "greedy engine must shard across the context's 3 workers"
    );
}

#[test]
fn baseline_engines_use_context_threads() {
    let (threads, sorter) = (3, Sorter::Shearsort);
    let schemes: Vec<Box<dyn BaselineScheme>> = vec![
        Box::new(SingleCopySim::new(256, 10_000, threads, sorter).unwrap()),
        Box::new(MehlhornVishkinSim::new(256, 10_000, 3, threads, sorter).unwrap()),
        Box::new(FlatHmosSim::new(3, 2, 256, 100, threads, sorter).unwrap()),
    ];
    for mut scheme in schemes {
        let vars = workload::random_distinct(64, 100, 9);
        scheme.step(&PramStep::reads(&vars)).unwrap();
        assert_eq!(
            scheme.exec().worker_pool().spawned(),
            3,
            "{} engines must shard across the context's 3 workers",
            scheme.name()
        );
    }
}

#[test]
fn context_thread_count_does_not_change_results() {
    let shape = MeshShape::square(8);
    let inst = RoutingInstance::random(shape, 3, 13);
    let mut base = ExecCtx::default();
    let base_greedy = route_greedy(&inst, 100_000, &mut base).unwrap();
    let base_flat = route_flat(&inst, 100_000, &mut base).unwrap();
    let base_hier = route_hierarchical(&inst, 4, 100_000, &mut base).unwrap();
    for threads in [1usize, 2, 3, 7] {
        let mut ctx = ExecCtx::new(threads, Sorter::default(), false);
        let g = route_greedy(&inst, 100_000, &mut ctx).unwrap();
        let f = route_flat(&inst, 100_000, &mut ctx).unwrap();
        let h = route_hierarchical(&inst, 4, 100_000, &mut ctx).unwrap();
        assert_eq!(g, base_greedy, "threads = {threads}");
        assert_eq!(f, base_flat, "threads = {threads}");
        assert_eq!(h, base_hier, "threads = {threads}");
    }
}

#[test]
fn columnsort_route_engines_use_context_threads() {
    // Columnsort measures the fixed permutation routes its committed
    // cost table lacks (12×20 is not in it) on engines from the
    // context's pool; they must shard across the context's workers.
    let mut ctx = ExecCtx::new(3, Sorter::Columnsort, false);
    ctx.sort_pairs((0..240u32).map(|p| (p, 239 - p)), 12, 20);
    assert_eq!(ctx.route_memo().len(), 1, "the routes were measured");
    assert_eq!(
        ctx.worker_pool().spawned(),
        3,
        "columnsort route engines must shard across the context's 3 workers"
    );
}

#[test]
fn columnsort_costs_do_not_depend_on_context_threads() {
    // 12×20 is not in the committed route-cost table, so every context
    // measures the routes on its own engines.
    let input: Vec<(u32, u64)> = (0..240u32)
        .flat_map(|p| [(p, (p as u64 * 37) % 240), (p, p as u64 / 3)])
        .collect();
    let want = ExecCtx::new(1, Sorter::Columnsort, false).sort_pairs(input.clone(), 12, 20);
    for threads in [2usize, 3] {
        let mut ctx = ExecCtx::new(threads, Sorter::Columnsort, false);
        let got = ctx.sort_pairs(input.clone(), 12, 20);
        assert_eq!(got, want, "threads = {threads}");
    }
}
