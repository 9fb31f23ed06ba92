//! Zero steady-state allocation: the arena engine's headline guarantee,
//! and CULLING's copy resolution.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! tallies every `alloc`/`realloc`/`alloc_zeroed` call in the process.
//! After a warmup run has sized every buffer — arena columns, the
//! double-buffered slot arrays, handoff rings, staging and removal
//! scratch, the delivered list — repeating the *same* workload must hit
//! the allocator **zero** times at `threads = 1`: not per step, not per
//! run, not in `drain_delivered`, and not when a fault mask with dead
//! nodes, a severed link and a lossy link makes packets detour and drop.
//! That is the whole point of the flat
//! struct-of-arrays layout; any regression (a stray `clone`, a
//! `Vec::new` in the step loop, a drain that reallocates) fails here
//! with an exact allocation count. The same holds for
//! `Hmos::resolve_all`, which CULLING calls for every request of every
//! step: once its output buffer has the capacity, it allocates nothing.
//! CULLING and a quorum read's access protocol are held to a small
//! number of allocations per requesting processor.
//!
//! Parallel runs are allowed a small *per-run* setup cost (each run
//! spawns its scoped band threads), so the parallel test pins down the
//! sharper invariant: the allocation count of a warm parallel run is
//! independent of how many steps the run executes. If the step loop
//! itself allocated, a workload with more steps would allocate more.
//!
//! The counter is process-wide on purpose, so allocations made on the
//! engine's worker threads count too. The test harness runs tests on
//! parallel threads, though, so each test holds [`SERIAL`] for its
//! whole body: otherwise one test's measurement window would count the
//! other test's allocations. The harness itself also allocates when a
//! test finishes (its thread sends the result; the main thread records
//! it in a growing list), so [`serialize`] lets that bookkeeping settle
//! before the next test starts counting.

use prasim::core::culling::{cull_with, select_all};
use prasim::core::protocol::{access_protocol, Cell};
use prasim::core::workload;
use prasim::core::{ReadPolicy, RunOptions};
use prasim::exec::ExecCtx;
use prasim_hmos::{Hmos, HmosParams};
use prasim_mesh::engine::{Engine, Packet};
use prasim_mesh::fault::FaultMask;
use prasim_mesh::region::Rect;
use prasim_mesh::topology::{Coord, Dir, MeshShape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; only adds a relaxed
// counter bump, which is allocation-free.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Held by each test for its whole body so only one test allocates
/// while another is counting.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the other test still runs alone.
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The previous holder's thread and the harness are still recording
    // that test's result; their allocations must not land in this
    // test's window.
    std::thread::sleep(std::time::Duration::from_millis(20));
    guard
}

/// Deterministic SplitMix64 finalizer (same shape the engine benches
/// use) so the workload needs no RNG crate.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `per_node` random-destination packets on every node; `spread` caps
/// how many columns east a destination may sit (same row), which
/// controls the run's step count without changing the packet count.
/// `spread >= nodes` means mesh-wide random destinations.
fn workload(shape: MeshShape, per_node: u64, spread: u64) -> Vec<(Coord, Packet)> {
    let bounds = Rect::full(shape);
    let n = shape.nodes();
    let mut out = Vec::new();
    let mut id = 0u64;
    for node in 0..n as u32 {
        for _ in 0..per_node {
            let r = mix(0xC0FFEE ^ id);
            let dst = if spread >= n {
                (r % n) as u32
            } else {
                let here = shape.coord(node);
                let dc = (here.c + (r % spread) as u32).min(shape.cols - 1);
                shape.index(Coord { r: here.r, c: dc })
            };
            out.push((
                shape.coord(node),
                Packet {
                    id,
                    dest: shape.coord(dst),
                    bounds,
                    tag: id,
                },
            ));
            id += 1;
        }
    }
    out
}

/// One full warm cycle: reset, inject everything, run, drain in place.
/// Returns (steps, delivered) so the caller can sanity-check the
/// workload actually exercised the engine.
fn cycle(engine: &mut Engine, w: &[(Coord, Packet)]) -> (u64, u64) {
    engine.reset();
    for &(src, pkt) in w {
        engine.inject(src, pkt);
    }
    let stats = engine.run(1_000_000).expect("workload must route");
    let delivered = engine.drain_delivered().count() as u64;
    (stats.steps, delivered)
}

#[test]
fn sequential_steady_state_allocates_nothing() {
    let _alone = serialize();
    let shape = MeshShape::square(32);
    let w = workload(shape, 4, shape.nodes());
    let mut engine = Engine::new(shape).with_threads(1);

    // Warmup: size every buffer. Two cycles, because the first grows
    // the arena and slot arrays and the second proves reset/inject/run
    // reuse them (and catches anything sized lazily on first drain).
    let (_, delivered) = cycle(&mut engine, &w);
    assert_eq!(delivered, w.len() as u64);
    cycle(&mut engine, &w);

    // Measure across two full warm cycles so the window spans well over
    // 100 engine steps plus two reset/inject/drain phases.
    let before = allocations();
    let (steps_a, delivered) = cycle(&mut engine, &w);
    let (steps_b, _) = cycle(&mut engine, &w);
    let after = allocations();

    let steps = steps_a + steps_b;
    assert!(steps >= 100, "workload too easy: {steps} warm steps");
    assert_eq!(delivered, w.len() as u64);
    assert_eq!(
        after - before,
        0,
        "warm sequential cycles ({steps} steps, {delivered} packets each) \
         must not allocate"
    );
}

/// [`cycle`] under a fault mask. `reset` drops the installed mask and
/// `with_faults` consumes the engine, so the engine goes through by
/// value and comes back with the stats.
fn faulted_cycle(mut engine: Engine, mask: FaultMask, w: &[(Coord, Packet)]) -> (Engine, u64, u64) {
    engine.reset();
    let mut engine = engine.with_faults(mask);
    for &(src, pkt) in w {
        engine.inject(src, pkt);
    }
    let stats = engine.run(1_000_000).expect("workload must route");
    let delivered = engine.drain_delivered().count() as u64;
    assert_eq!(delivered + stats.dropped, w.len() as u64);
    (engine, stats.steps, delivered)
}

#[test]
fn faulted_steady_state_allocates_nothing() {
    let _alone = serialize();
    let shape = MeshShape::square(32);
    let w = workload(shape, 4, shape.nodes());
    let mut mask = FaultMask::new(shape).with_salt(5);
    for (r, c) in [(5, 5), (5, 20), (20, 5), (20, 20)] {
        mask.kill_node(Coord::new(r, c));
    }
    mask.sever_link(Coord::new(10, 10), Dir::East);
    mask.degrade_link(Coord::new(15, 15), Dir::South, 300);
    // Every cycle consumes a mask, so all four copies are built before
    // the counting window.
    let mut masks: Vec<FaultMask> = (0..4).map(|_| mask.clone()).collect();
    let engine = Engine::new(shape).with_threads(1);

    let (engine, _, delivered) = faulted_cycle(engine, masks.pop().unwrap(), &w);
    assert!(delivered > 0 && delivered < w.len() as u64);
    let (engine, _, _) = faulted_cycle(engine, masks.pop().unwrap(), &w);

    let before = allocations();
    let (engine, steps_a, delivered) = faulted_cycle(engine, masks.pop().unwrap(), &w);
    let (_, steps_b, _) = faulted_cycle(engine, masks.pop().unwrap(), &w);
    let after = allocations();

    let steps = steps_a + steps_b;
    assert!(steps >= 100, "workload too easy: {steps} warm steps");
    assert_eq!(
        after - before,
        0,
        "warm faulted cycles ({steps} steps, {delivered} delivered each) \
         must not allocate"
    );
}

#[test]
fn parallel_run_allocations_are_step_count_independent() {
    let _alone = serialize();
    let shape = MeshShape::square(32);
    // Same packet count, very different step counts: adjacent
    // destinations versus mesh-wide ones.
    let short = workload(shape, 4, 2);
    let long = workload(shape, 4, shape.nodes());
    let mut engine = Engine::new(shape).with_threads(2);

    // Warm both workloads so every buffer has seen its maximum size.
    for _ in 0..2 {
        cycle(&mut engine, &short);
        cycle(&mut engine, &long);
    }

    let measure = |engine: &mut Engine, w: &[(Coord, Packet)]| {
        let before = allocations();
        let (steps, _) = cycle(engine, w);
        (allocations() - before, steps)
    };

    let (short_allocs, short_steps) = measure(&mut engine, &short);
    let (long_allocs, long_steps) = measure(&mut engine, &long);
    assert!(
        long_steps >= short_steps + 30,
        "workloads must differ in step count ({short_steps} vs {long_steps})"
    );
    // The per-run setup (spawning the band threads) may allocate a
    // constant amount; the step loop may not allocate at all.
    assert_eq!(
        short_allocs, long_allocs,
        "a {long_steps}-step warm run must allocate exactly as much as \
         a {short_steps}-step one (per-run setup only)"
    );
    assert!(
        long_allocs <= 16,
        "per-run setup should be a handful of allocations, got {long_allocs}"
    );
}

#[test]
fn warm_resolve_all_allocates_nothing() {
    let _alone = serialize();
    let hmos = Hmos::new(HmosParams::with_d(3, 2, 1024, 5).unwrap()).unwrap();
    let mut cells = Vec::new();
    hmos.resolve_all(0, &mut cells);

    let before = allocations();
    let mut cell_sum = 0u64;
    for v in 0..hmos.num_variables() {
        cells.clear();
        hmos.resolve_all(v, &mut cells);
        cell_sum = cell_sum.wrapping_add(cells.iter().map(|c| c.slot).sum::<u64>());
    }
    let after = allocations();

    assert_eq!(cells.len(), 9);
    assert_ne!(cell_sum, 0);
    assert_eq!(
        after - before,
        0,
        "resolving all {} variables into a warm buffer must not allocate",
        hmos.num_variables()
    );
}

#[test]
fn warm_cull_with_allocates_little_per_request() {
    let _alone = serialize();
    for n in [1024u64, 4096] {
        let hmos = Hmos::new(HmosParams::new(3, 2, n, 40_000).unwrap()).unwrap();
        let requests: Vec<Option<u64>> = workload::random_distinct(n, hmos.num_variables(), 3)
            .into_iter()
            .map(Some)
            .collect();
        let mut ctx = ExecCtx::default();
        cull_with(&hmos, &requests, 1.0, &mut ctx);

        let before = allocations();
        let out = cull_with(&hmos, &requests, 1.0, &mut ctx);
        let after = allocations();

        assert!(out.selected.iter().all(|sel| sel.len() == 4));
        let per_request = (after - before) as f64 / n as f64;
        assert!(
            per_request <= 8.0,
            "a warm cull_with at n = {n} made {} allocations, {per_request:.1} per request",
            after - before
        );
    }
}

#[test]
fn warm_quorum_read_allocates_at_most_once_per_reader() {
    let _alone = serialize();
    for n in [1024u64, 4096] {
        let hmos = Hmos::new(HmosParams::new(3, 2, n, 40_000).unwrap()).unwrap();
        let vars = workload::random_distinct(n, hmos.num_variables(), 3);
        let requests: Vec<Option<u64>> = vars.iter().copied().map(Some).collect();
        // Quorum reads bypass CULLING: every copy of every request.
        let selected = select_all(&hmos, &requests).selected;
        let mut memory: Vec<HashMap<u64, Cell>> = vec![HashMap::new(); n as usize];
        let mut ctx = ExecCtx::default();
        let quorum = |clock| RunOptions::new(clock).with_policy(ReadPolicy::HierarchicalMajority);
        let write = workload::write_step(&vars, 7);
        let read = workload::read_step(&vars);
        access_protocol(
            &hmos,
            &mut memory,
            &write.ops,
            &selected,
            &quorum(1),
            &mut ctx,
        )
        .unwrap();
        access_protocol(
            &hmos,
            &mut memory,
            &read.ops,
            &selected,
            &quorum(2),
            &mut ctx,
        )
        .unwrap();

        let before = allocations();
        let res = access_protocol(
            &hmos,
            &mut memory,
            &read.ops,
            &selected,
            &quorum(3),
            &mut ctx,
        )
        .unwrap();
        let after = allocations();

        assert!((7..).zip(&res.reads).all(|(value, r)| *r == Some(value)));
        let per_reader = (after - before) as f64 / n as f64;
        assert!(
            per_reader <= 1.0,
            "a warm quorum read at n = {n} made {} allocations, {per_reader:.2} per reader",
            after - before
        );
    }
}
