//! The legacy packet engine, kept as a differential-testing oracle.
//!
//! [`ReferenceEngine`] is the pre-arena storage layout frozen in place:
//! one heap `Vec<Flight>` per node, whole [`Packet`]s carried in every
//! queue entry, fresh scratch vectors per half-step, and — at
//! `threads > 1` — the legacy sharded loop that allocates its
//! `Vec<Mutex<BandMoves>>` handoff per run and fresh move vectors per
//! step. It shares no storage code with [`crate::engine::Engine`]; the
//! routing policy (greedy XY within bounds, farthest-first link
//! arbitration, fault detours, the deterministic lossy-link hash) is
//! deliberately *duplicated*, not imported, so a storage bug in the
//! arena engine cannot silently cancel out in both implementations.
//!
//! Two consumers:
//!
//! - the `arena_engine_matches_reference` proptest in
//!   `tests/exec_context.rs` byte-diffs every observable (stats,
//!   delivered order, traces, fault drops) of the two engines over
//!   random meshes, thread counts and fault plans;
//! - the T19 throughput table measures both engines on identical
//!   workloads at the same thread counts, so `BENCH_engine.json`
//!   records the speedup of the struct-of-arrays layout over this
//!   baseline rather than over a number that no longer exists in the
//!   tree.
//!
//! Nothing outside tests and benches should use this type.

use crate::engine::{EngineError, EngineStats, Packet};
use crate::fault::FaultMask;
use crate::pool::WorkerPool;
use crate::topology::{Coord, Dir, MeshShape};
use crate::trace::LinkTrace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// A resident packet plus its fault-detour bookkeeping (legacy layout:
/// the whole packet rides in the queue entry).
#[derive(Debug, Clone, Copy)]
struct Flight {
    pkt: Packet,
    detours: u32,
    budget: u32,
    last_dir: Option<Dir>,
}

/// Read-only step context shared by every band worker.
#[derive(Clone, Copy)]
struct StepCtx<'a> {
    shape: MeshShape,
    faults: Option<&'a FaultMask>,
    step: u64,
}

impl StepCtx<'_> {
    /// Greedy XY next direction: fix the column first, then the row.
    fn next_dir(cur: Coord, dest: Coord) -> Option<Dir> {
        if cur.c < dest.c {
            Some(Dir::East)
        } else if cur.c > dest.c {
            Some(Dir::West)
        } else if cur.r < dest.r {
            Some(Dir::South)
        } else if cur.r > dest.r {
            Some(Dir::North)
        } else {
            None
        }
    }

    /// The direction a packet leaves `here` by plus the detour flag;
    /// `None` drops the packet (see the arena engine for commentary).
    fn choose_dir(&self, here: Coord, fl: &Flight) -> Option<(Dir, bool)> {
        let greedy = Self::next_dir(here, fl.pkt.dest)
            .expect("resident packet at destination should have been absorbed");
        let mask = match self.faults {
            Some(m) if !m.is_empty() => m,
            _ => return Some((greedy, false)),
        };
        let idx = self.shape.index(here);
        let dist = here.manhattan(fl.pkt.dest);
        let mut order: [Option<Dir>; 4] = [Some(greedy), None, None, None];
        let mut n = 1;
        for improving_pass in [true, false] {
            for d in Dir::ALL {
                if d == greedy {
                    continue;
                }
                let improves = self
                    .shape
                    .step(here, d)
                    .is_some_and(|c| c.manhattan(fl.pkt.dest) < dist);
                if improves == improving_pass {
                    order[n] = Some(d);
                    n += 1;
                }
            }
        }
        let usable = |dir: Dir| -> Option<(Dir, bool)> {
            let next = self.shape.step(here, dir)?;
            if !fl.pkt.bounds.contains(next) {
                return None;
            }
            if mask.link_severed(idx, dir) {
                return None;
            }
            if mask.node_dead(self.shape.index(next)) && next != fl.pkt.dest {
                return None;
            }
            let improves = next.manhattan(fl.pkt.dest) < dist;
            if !improves && fl.detours >= fl.budget {
                return None;
            }
            Some((dir, !improves))
        };
        let reverse = fl.last_dir.map(Dir::opposite);
        if let Some(choice) = order
            .into_iter()
            .flatten()
            .filter(|d| Some(*d) != reverse)
            .find_map(usable)
        {
            return Some(choice);
        }
        reverse.and_then(usable)
    }
}

/// Packet moves leaving one band, keyed by destination band, each queue
/// in source-node order (legacy: allocated fresh every step).
type BandMoves = Vec<Vec<(u32, Flight)>>;

/// One band's per-step output: outgoing moves keyed by destination band
/// plus the stats deltas the coordinator folds into [`EngineStats`].
#[derive(Default)]
struct BandScratch {
    moves: BandMoves,
    hops: u64,
    dropped: u64,
    delivered: Vec<(u32, Packet)>,
    max_queue: usize,
}

impl BandScratch {
    fn with_bands(bands: usize) -> Self {
        BandScratch {
            moves: (0..bands).map(|_| Vec::new()).collect(),
            ..BandScratch::default()
        }
    }
}

/// One band's compute half-step (legacy storage walk: winner pick per
/// node, `swap_remove` of movers, fresh `stuck`/`removals` vectors).
fn compute_band(
    ctx: &StepCtx<'_>,
    queues: &mut [Vec<Flight>],
    node0: u32,
    mut trace: Option<&mut [[u64; 4]]>,
    band_of: impl Fn(u32) -> usize,
    out: &mut BandScratch,
) {
    for (local, queue) in queues.iter_mut().enumerate() {
        if queue.is_empty() {
            continue;
        }
        let idx = node0 + local as u32;
        let here = ctx.shape.coord(idx);
        let mut best: [Option<(u32, u64, usize, bool)>; 4] = [None; 4]; // (dist, id, pos, detour)
        let mut stuck: Vec<usize> = Vec::new();
        for (pos, fl) in queue.iter().enumerate() {
            match ctx.choose_dir(here, fl) {
                Some((dir, detour)) => {
                    let d = dir.index();
                    let dist = here.manhattan(fl.pkt.dest);
                    let better = match best[d] {
                        None => true,
                        Some((bd, bid, _, _)) => dist > bd || (dist == bd && fl.pkt.id < bid),
                    };
                    if better {
                        best[d] = Some((dist, fl.pkt.id, pos, detour));
                    }
                }
                None => stuck.push(pos),
            }
        }
        let mut removals: Vec<(usize, Option<(Dir, bool)>)> =
            stuck.into_iter().map(|p| (p, None)).collect();
        for (d, slot) in best.iter().enumerate() {
            if let Some((_, _, pos, detour)) = *slot {
                removals.push((pos, Some((Dir::ALL[d], detour))));
            }
        }
        removals.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
        for (pos, action) in removals {
            let mut fl = queue.swap_remove(pos);
            let Some((dir, detour)) = action else {
                out.dropped += 1;
                continue;
            };
            if let Some(counts) = trace.as_deref_mut() {
                counts[local][dir.index()] += 1;
            }
            out.hops += 1;
            let lost = ctx
                .faults
                .is_some_and(|m| m.traversal_lost(ctx.step, idx, dir, fl.pkt.id));
            if lost {
                out.dropped += 1;
                continue;
            }
            if detour {
                fl.detours += 1;
            }
            fl.last_dir = Some(dir);
            let next = ctx
                .shape
                .step(here, dir)
                .expect("XY routing within bounds cannot leave the mesh");
            let next_idx = ctx.shape.index(next);
            out.moves[band_of(next_idx)].push((next_idx, fl));
        }
    }
}

/// Absorbs every packet of the band that sits at its destination (and
/// drops anything resident on a dead node), in ascending node order.
fn absorb_band(
    shape: MeshShape,
    faults: Option<&FaultMask>,
    queues: &mut [Vec<Flight>],
    node0: u32,
    out: &mut BandScratch,
) {
    for (local, queue) in queues.iter_mut().enumerate() {
        let idx = node0 + local as u32;
        let here = shape.coord(idx);
        let dead_here = faults.is_some_and(|m| m.node_dead(idx));
        let mut i = 0;
        while i < queue.len() {
            if dead_here {
                queue.swap_remove(i);
                out.dropped += 1;
            } else if queue[i].pkt.dest == here {
                let fl = queue.swap_remove(i);
                out.delivered.push((idx, fl.pkt));
            } else {
                i += 1;
            }
        }
    }
}

/// The legacy array-of-structs engine. Same observable contract as
/// [`crate::engine::Engine`] at every thread count; see the module docs
/// for why it is kept.
#[derive(Debug)]
pub struct ReferenceEngine {
    shape: MeshShape,
    resident: Vec<Vec<Flight>>,
    delivered: Vec<(u32, Packet)>,
    in_flight: u64,
    stats: EngineStats,
    trace: Option<LinkTrace>,
    faults: Option<FaultMask>,
    threads: usize,
}

impl ReferenceEngine {
    /// An empty, sequential (1 worker thread) legacy engine on the
    /// given mesh.
    pub fn new(shape: MeshShape) -> Self {
        ReferenceEngine {
            resident: vec![Vec::new(); shape.nodes() as usize],
            delivered: Vec::new(),
            in_flight: 0,
            shape,
            stats: EngineStats::default(),
            trace: None,
            faults: None,
            threads: 1,
        }
    }

    /// Enables per-link traversal tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(LinkTrace::new(self.shape));
        self
    }

    /// Returns the engine to its post-[`ReferenceEngine::new`] state
    /// while keeping queue capacity (the legacy `Engine::reset`), so
    /// throughput comparisons can reuse one engine on both sides.
    pub fn reset(&mut self) {
        for q in &mut self.resident {
            q.clear();
        }
        self.delivered.clear();
        self.in_flight = 0;
        self.stats = EngineStats::default();
        self.trace = None;
        self.faults = None;
    }

    /// Sets the worker-thread count of the legacy sharded loop
    /// (clamped to at least 1; results never depend on it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Installs a fault mask; must precede injection.
    pub fn with_faults(mut self, mask: FaultMask) -> Self {
        debug_assert_eq!(mask.shape(), self.shape, "fault mask shape mismatch");
        self.faults = Some(mask);
        self
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&LinkTrace> {
        self.trace.as_ref()
    }

    /// The mesh shape.
    #[inline]
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// Places a packet at `src` (same contract as
    /// [`crate::engine::Engine::inject`]).
    pub fn inject(&mut self, src: Coord, pkt: Packet) {
        debug_assert!(pkt.bounds.contains(src), "source outside bounds");
        debug_assert!(pkt.bounds.contains(pkt.dest), "destination outside bounds");
        if let Some(mask) = &self.faults {
            if mask.node_dead(self.shape.index(src)) || mask.node_dead(self.shape.index(pkt.dest)) {
                self.stats.dropped += 1;
                return;
            }
        }
        let budget = 2 * (pkt.bounds.rows + pkt.bounds.cols) + 8;
        self.in_flight += 1;
        self.resident[self.shape.index(src) as usize].push(Flight {
            pkt,
            detours: 0,
            budget,
            last_dir: None,
        });
    }

    /// Packets not yet delivered.
    #[inline]
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Stats accumulated so far.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Drains and returns the delivered packets.
    pub fn take_delivered(&mut self) -> Vec<(u32, Packet)> {
        std::mem::take(&mut self.delivered)
    }

    /// Runs until every packet is delivered or the budget is exhausted.
    pub fn run(&mut self, max_steps: u64) -> Result<EngineStats, EngineError> {
        self.absorb_arrivals();
        let bands = self.threads.min(self.shape.rows as usize).max(1);
        if bands == 1 {
            while self.in_flight > 0 {
                if self.stats.steps >= max_steps {
                    return Err(EngineError::StepBudgetExceeded {
                        max_steps,
                        in_flight: self.in_flight,
                    });
                }
                self.step();
            }
            return Ok(self.stats);
        }
        self.run_parallel(max_steps, bands)
    }

    /// Sequential absorb over the whole mesh.
    fn absorb_arrivals(&mut self) {
        let mut out = BandScratch::default();
        absorb_band(
            self.shape,
            self.faults.as_ref(),
            &mut self.resident,
            0,
            &mut out,
        );
        self.fold_absorbed(out);
    }

    /// Folds one band's drop/delivery deltas into the engine counters.
    fn fold_absorbed(&mut self, mut out: BandScratch) {
        self.in_flight -= out.dropped + out.delivered.len() as u64;
        self.stats.dropped += out.dropped;
        self.stats.delivered += out.delivered.len() as u64;
        self.delivered.append(&mut out.delivered);
    }

    /// One sequential synchronous step.
    fn step(&mut self) {
        let ctx = StepCtx {
            shape: self.shape,
            faults: self.faults.as_ref(),
            step: self.stats.steps,
        };
        let mut out = BandScratch::with_bands(1);
        compute_band(
            &ctx,
            &mut self.resident,
            0,
            self.trace.as_mut().map(LinkTrace::counts_mut),
            |_| 0,
            &mut out,
        );
        self.stats.total_hops += out.hops;
        self.stats.dropped += out.dropped;
        self.in_flight -= out.dropped;
        for (node, fl) in out.moves.pop().expect("single band") {
            self.resident[node as usize].push(fl);
        }
        self.stats.steps += 1;
        for q in &self.resident {
            self.stats.max_queue = self.stats.max_queue.max(q.len());
        }
        self.absorb_arrivals();
    }

    /// The legacy sharded step loop, frozen exactly as it ran before the
    /// arena rewrite: per-run `Vec<Mutex<BandMoves>>` handoff, fresh
    /// move vectors every step, `mem::take` churn on the drain side.
    fn run_parallel(&mut self, max_steps: u64, bands: usize) -> Result<EngineStats, EngineError> {
        let pool = Arc::clone(WorkerPool::shared());
        let shape = self.shape;
        let rows = shape.rows as usize;
        let cols = shape.cols;
        let row_start = |b: usize| b * rows / bands;
        let node_starts: Vec<u32> = (0..=bands).map(|b| row_start(b) as u32 * cols).collect();
        let mut row_band = vec![0usize; rows];
        for b in 0..bands {
            row_band[row_start(b)..row_start(b + 1)].fill(b);
        }

        let faults = self.faults.as_ref();
        let stats = &mut self.stats;
        let delivered_all = &mut self.delivered;
        let in_flight = &mut self.in_flight;
        let mut band_queues: Vec<&mut [Vec<Flight>]> = Vec::with_capacity(bands);
        let mut rest: &mut [Vec<Flight>] = &mut self.resident;
        for b in 0..bands {
            let (head, tail) = rest.split_at_mut((node_starts[b + 1] - node_starts[b]) as usize);
            band_queues.push(head);
            rest = tail;
        }
        let mut band_trace: Vec<Option<&mut [[u64; 4]]>> = match self.trace.as_mut() {
            None => (0..bands).map(|_| None).collect(),
            Some(t) => {
                let mut v = Vec::with_capacity(bands);
                let mut rest: &mut [[u64; 4]] = t.counts_mut();
                for b in 0..bands {
                    let (head, tail) =
                        rest.split_at_mut((node_starts[b + 1] - node_starts[b]) as usize);
                    v.push(Some(head));
                    rest = tail;
                }
                v
            }
        };

        let barrier_all = Barrier::new(bands + 1);
        let barrier_workers = Barrier::new(bands);
        let stop = AtomicBool::new(false);
        let handoff: Vec<Mutex<BandMoves>> = (0..bands)
            .map(|_| Mutex::new((0..bands).map(|_| Vec::new()).collect()))
            .collect();
        let results: Vec<Mutex<BandScratch>> = (0..bands)
            .map(|_| Mutex::new(BandScratch::default()))
            .collect();
        let start_step = stats.steps;
        let row_band = &row_band;
        let node_starts = &node_starts;
        let barrier_all = &barrier_all;
        let barrier_workers = &barrier_workers;
        let stop = &stop;
        let handoff = &handoff;
        let results = &results;

        type BandState<'a> = (&'a mut [Vec<Flight>], Option<&'a mut [[u64; 4]]>);
        let band_state: Vec<Mutex<Option<BandState<'_>>>> = band_queues
            .into_iter()
            .zip(band_trace.drain(..))
            .map(|(queues, trace)| Mutex::new(Some((queues, trace))))
            .collect();
        let band_state = &band_state;

        let worker = move |b: usize| {
            let (queues, mut trace) = band_state[b]
                .lock()
                .unwrap()
                .take()
                .expect("band state taken once per run");
            let node0 = node_starts[b];
            let band_of = |idx: u32| row_band[(idx / cols) as usize];
            let mut step = start_step;
            loop {
                barrier_all.wait();
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let ctx = StepCtx {
                    shape,
                    faults,
                    step,
                };
                let mut out = BandScratch::with_bands(bands);
                compute_band(&ctx, queues, node0, trace.as_deref_mut(), band_of, &mut out);
                std::mem::swap(&mut *handoff[b].lock().unwrap(), &mut out.moves);
                barrier_workers.wait();
                for src_slot in handoff.iter() {
                    let incoming = std::mem::take(&mut src_slot.lock().unwrap()[b]);
                    for (node, fl) in incoming {
                        queues[(node - node0) as usize].push(fl);
                    }
                }
                for q in queues.iter() {
                    out.max_queue = out.max_queue.max(q.len());
                }
                absorb_band(shape, faults, queues, node0, &mut out);
                *results[b].lock().unwrap() = out;
                step += 1;
                barrier_all.wait();
            }
        };
        pool.run(bands, &worker, move || loop {
            if *in_flight == 0 {
                stop.store(true, Ordering::Release);
                barrier_all.wait();
                return Ok(*stats);
            }
            if stats.steps >= max_steps {
                stop.store(true, Ordering::Release);
                barrier_all.wait();
                return Err(EngineError::StepBudgetExceeded {
                    max_steps,
                    in_flight: *in_flight,
                });
            }
            barrier_all.wait();
            barrier_all.wait();
            stats.steps += 1;
            for slot in results.iter() {
                let mut out = slot.lock().unwrap();
                stats.total_hops += out.hops;
                stats.dropped += out.dropped;
                stats.delivered += out.delivered.len() as u64;
                stats.max_queue = stats.max_queue.max(out.max_queue);
                *in_flight -= out.dropped + out.delivered.len() as u64;
                delivered_all.append(&mut out.delivered);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Rect;

    fn permutation_workload(shape: MeshShape) -> Vec<(Coord, Packet)> {
        let b = Rect::full(shape);
        let mut id = 0u64;
        let mut out = Vec::new();
        for r in 0..shape.rows {
            for c in 0..shape.cols {
                out.push((
                    Coord::new(r, c),
                    Packet {
                        id,
                        dest: Coord::new(c, r),
                        bounds: b,
                        tag: id,
                    },
                ));
                id += 1;
            }
        }
        out
    }

    #[test]
    fn reference_routes_a_permutation() {
        let shape = MeshShape::square(8);
        let mut e = ReferenceEngine::new(shape);
        for (src, pkt) in permutation_workload(shape) {
            e.inject(src, pkt);
        }
        let stats = e.run(10_000).unwrap();
        assert_eq!(stats.delivered, 64);
        assert_eq!(e.take_delivered().len(), 64);
    }

    #[test]
    fn reference_parallel_matches_sequential() {
        let shape = MeshShape::square(8);
        let mut transcripts = Vec::new();
        for threads in [1usize, 3, 8] {
            let mut e = ReferenceEngine::new(shape)
                .with_threads(threads)
                .with_trace();
            for (src, pkt) in permutation_workload(shape) {
                e.inject(src, pkt);
            }
            let stats = e.run(10_000).unwrap();
            transcripts.push(format!(
                "{stats:?} {:?} {:?}",
                e.take_delivered(),
                e.trace()
            ));
        }
        assert_eq!(transcripts[0], transcripts[1]);
        assert_eq!(transcripts[0], transcripts[2]);
    }
}
