//! Regression tests: the routing layers, the baselines and columnsort's
//! route measurements must check their engines out of the execution
//! context's pool. The seed built `Engine::new(shape)` inside
//! `route_flat`/`route_hierarchical`/`route_greedy`, so those paths
//! bypassed the context and rebuilt their queue buffers on every call.
//! Each test below pins that its path checks its engines out of the
//! context.

use prasim_core::baseline::{BaselineScheme, FlatHmosSim, MehlhornVishkinSim, SingleCopySim};
use prasim_core::{workload, PramStep};
use prasim_exec::ExecCtx;
use prasim_mesh::topology::MeshShape;
use prasim_routing::problem::RoutingInstance;
use prasim_routing::{route_flat, route_greedy, route_hierarchical};
use prasim_sortnet::sorter::Sorter;

/// A context whose only engine users are the route phases: shearsort
/// runs no engine, so every engine checkout below is attributable to
/// the routing engines.
fn shearsort_ctx() -> ExecCtx {
    ExecCtx::new(1, Sorter::Shearsort, false)
}

/// Engines the context has handed out so far.
fn checkouts(ctx: &mut ExecCtx) -> u64 {
    ctx.engine_pool().created() + ctx.engine_pool().reused()
}

#[test]
fn flat_route_engine_comes_from_the_context() {
    let shape = MeshShape::square(8);
    // l1 = 2 so the post-sort positions differ from the destinations and
    // the route phase actually runs the engine (a bare permutation sorts
    // every packet directly onto its destination).
    let inst = RoutingInstance::random(shape, 2, 5);
    let mut ctx = shearsort_ctx();
    let out = route_flat(&inst, 100_000, &mut ctx).unwrap();
    assert_eq!(out.delivered, 128);
    // With the seed bug the engine was built outside the context.
    assert!(
        checkouts(&mut ctx) > 0,
        "route engine must come from the context's pool"
    );
}

#[test]
fn hierarchical_route_engines_come_from_the_context() {
    let shape = MeshShape::square(8);
    let inst = RoutingInstance::random(shape, 2, 77);
    let mut ctx = shearsort_ctx();
    let out = route_hierarchical(&inst, 4, 100_000, &mut ctx).unwrap();
    assert_eq!(out.delivered, 2 * 64 * 2);
    assert!(checkouts(&mut ctx) > 0);
}

#[test]
fn greedy_route_engine_comes_from_the_context() {
    let shape = MeshShape::square(8);
    let inst = RoutingInstance::random(shape, 2, 5);
    let mut ctx = shearsort_ctx();
    let out = route_greedy(&inst, 100_000, &mut ctx).unwrap();
    assert_eq!(out.delivered, 128);
    assert!(
        checkouts(&mut ctx) > 0,
        "greedy engine must come from the context's pool"
    );
}

#[test]
fn baseline_engines_come_from_the_context() {
    let sorter = Sorter::Shearsort;
    let schemes: Vec<Box<dyn BaselineScheme>> = vec![
        Box::new(SingleCopySim::new(256, 10_000, sorter).unwrap()),
        Box::new(MehlhornVishkinSim::new(256, 10_000, 3, sorter).unwrap()),
        Box::new(FlatHmosSim::new(3, 2, 256, 100, sorter).unwrap()),
    ];
    for mut scheme in schemes {
        let vars = workload::random_distinct(64, 100, 9);
        let before = checkouts(scheme.exec());
        scheme.step(&PramStep::reads(&vars)).unwrap();
        assert!(
            checkouts(scheme.exec()) > before,
            "{} engines must come from the context's pool",
            scheme.name()
        );
    }
}

#[test]
fn columnsort_route_engines_come_from_the_context() {
    // Columnsort measures the fixed permutation routes its committed
    // cost table lacks (12×20 is not in it) on engines from the
    // context's pool.
    let mut ctx = ExecCtx::new(1, Sorter::Columnsort, false);
    ctx.sort_pairs((0..240u32).map(|p| (p, 239 - p)), 12, 20);
    assert_eq!(ctx.route_memo().len(), 1, "the routes were measured");
    assert!(
        checkouts(&mut ctx) > 0,
        "columnsort route engines must come from the context's pool"
    );
}
