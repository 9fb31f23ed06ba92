//! Sequential vs. sharded-parallel engine equivalence.
//!
//! The contract (ISSUE 2, enforced end-to-end by the CI determinism
//! matrix): for any packet set, bounding rectangles, fault mask and mesh
//! shape, every worker count produces **byte-identical** observables —
//! `EngineStats`, the delivered list including its order, and the link
//! trace. Here the contract is exercised at the engine level with
//! randomized inputs across worker counts 1/2/3/7, deliberately
//! including counts that do not divide the row count and counts larger
//! than it.

use prasim_mesh::engine::{Engine, EngineError, EngineStats, Packet};
use prasim_mesh::fault::FaultMask;
use prasim_mesh::region::Rect;
use prasim_mesh::topology::{Coord, Dir, MeshShape};
use proptest::prelude::*;

/// Everything an engine run can externally observe.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<EngineStats, EngineError>,
    stats: EngineStats,
    delivered: Vec<(u32, Packet)>,
    trace: Vec<u64>,
    in_flight: u64,
}

/// Builds the engine, runs it, and captures every observable.
fn run_with_threads(
    shape: MeshShape,
    packets: &[(Coord, Packet)],
    mask: &FaultMask,
    threads: usize,
    budget: u64,
) -> Outcome {
    let mut engine = Engine::new(shape)
        .with_threads(threads)
        .with_trace()
        .with_faults(mask.clone());
    for &(src, pkt) in packets {
        engine.inject(src, pkt);
    }
    let result = engine.run(budget);
    let trace = engine.trace().expect("tracing enabled").clone();
    // Flatten the trace to per-(node, dir) counts for cheap comparison
    // and readable diffs on failure.
    let flat = (0..shape.nodes() as u32)
        .flat_map(|i| Dir::ALL.map(|d| trace.count(shape.coord(i), d)))
        .collect();
    Outcome {
        result,
        stats: engine.stats(),
        delivered: engine.drain_delivered().collect(),
        trace: flat,
        in_flight: engine.in_flight(),
    }
}

/// Deterministic splitmix-style generator for deriving the instance from
/// one proptest-supplied seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random sub-rectangle of the mesh together with random source and
/// destination coordinates inside it.
fn random_rect_pair(g: &mut Gen, shape: MeshShape) -> (Rect, Coord, Coord) {
    let r0 = g.below(shape.rows as u64) as u32;
    let c0 = g.below(shape.cols as u64) as u32;
    let rows = g.below((shape.rows - r0) as u64) as u32 + 1;
    let cols = g.below((shape.cols - c0) as u64) as u32 + 1;
    let rect = Rect { r0, c0, rows, cols };
    let inside = |g: &mut Gen| {
        Coord::new(
            r0 + g.below(rows as u64) as u32,
            c0 + g.below(cols as u64) as u32,
        )
    };
    let src = inside(g);
    let dst = inside(g);
    (rect, src, dst)
}

/// A random fault mask: a few dead nodes, severed links and lossy links
/// (border picks silently degenerate to no-ops, which is fine — the
/// instance is just a little less faulty).
fn random_mask(g: &mut Gen, shape: MeshShape) -> FaultMask {
    let mut mask = FaultMask::new(shape).with_salt(g.next());
    for _ in 0..g.below(4) {
        mask.kill_node(shape.coord(g.below(shape.nodes()) as u32));
    }
    for _ in 0..g.below(4) {
        let at = shape.coord(g.below(shape.nodes()) as u32);
        mask.sever_link(at, Dir::ALL[g.below(4) as usize]);
    }
    for _ in 0..g.below(3) {
        let at = shape.coord(g.below(shape.nodes()) as u32);
        let per_mille = g.below(700) as u16 + 100;
        mask.degrade_link(at, Dir::ALL[g.below(4) as usize], per_mille);
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random instance, worker counts 1/2/3/7: identical stats,
    /// delivered order, trace and error behavior. Worker counts 3 and 7
    /// rarely divide the row count, and on small meshes 7 exceeds it,
    /// exercising the band-count clamp.
    #[test]
    fn sharded_equals_sequential(
        seed in any::<u64>(),
        rows in 2u32..=10,
        cols in 2u32..=10,
        npkts in 1usize..=64,
        tight_budget in any::<bool>(),
    ) {
        let shape = MeshShape { rows, cols };
        let mut g = Gen(seed);
        let mask = random_mask(&mut g, shape);
        // A few shared rectangles so packets actually contend instead of
        // each living in its own private region.
        let shared: Vec<(Rect, Coord, Coord)> =
            (0..3).map(|_| random_rect_pair(&mut g, shape)).collect();
        let mut packets = Vec::with_capacity(npkts);
        for id in 0..npkts as u64 {
            let (rect, src, dst) = if g.below(2) == 0 {
                shared[g.below(3) as usize]
            } else {
                random_rect_pair(&mut g, shape)
            };
            packets.push((src, Packet { id, dest: dst, bounds: rect, tag: id }));
        }
        // A tight budget occasionally forces the StepBudgetExceeded path,
        // which must also be identical across worker counts.
        let budget = if tight_budget { 1 + g.below(6) } else { 100_000 };
        let sequential = run_with_threads(shape, &packets, &mask, 1, budget);
        for threads in [2usize, 3, 7] {
            let sharded = run_with_threads(shape, &packets, &mask, threads, budget);
            prop_assert_eq!(&sequential, &sharded, "threads = {}", threads);
        }
    }
}

/// The clamp edge case pinned explicitly: a mesh with fewer rows than
/// workers, saturated with cross-traffic.
#[test]
fn two_row_mesh_with_seven_workers() {
    let shape = MeshShape { rows: 2, cols: 16 };
    let bounds = Rect::full(shape);
    let mut g = Gen(0xfeed);
    let mask = random_mask(&mut g, shape);
    let mut packets = Vec::new();
    for id in 0..48u64 {
        let src = shape.coord(g.below(shape.nodes()) as u32);
        let dst = shape.coord(g.below(shape.nodes()) as u32);
        packets.push((
            src,
            Packet {
                id,
                dest: dst,
                bounds,
                tag: id,
            },
        ));
    }
    let sequential = run_with_threads(shape, &packets, &mask, 1, 100_000);
    let sharded = run_with_threads(shape, &packets, &mask, 7, 100_000);
    assert_eq!(sequential, sharded);
}
