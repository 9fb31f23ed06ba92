//! Synchronous store-and-forward packet engine, sequential or sharded
//! across worker threads, with flat struct-of-arrays storage.
//!
//! Models the paper's machine: in each time step every node may send one
//! packet along each of its (at most four) outgoing links and receive one
//! along each incoming link. Packets follow greedy XY paths (column
//! first, then row) confined to a per-packet bounding rectangle, so a
//! single engine run simultaneously simulates independent routings inside
//! disjoint submeshes — the total step count is automatically the maximum
//! over the submeshes, exactly as in the paper's stage analysis.
//!
//! Link contention is resolved deterministically: the packet with the
//! largest remaining Manhattan distance wins (farthest-first), ties by
//! packet id. Queues are unbounded; the maximum observed queue length is
//! reported in [`EngineStats`] as the buffer-space certificate.
//!
//! # Storage: the flat arena layout
//!
//! Packet payloads live in one [`PacketArena`] — ids, destinations,
//! bounds and tags as parallel arrays indexed by a
//! [`PacketRef`]. The per-node queues are
//! *windows into one flat slot array per band*: node `i` of a band owns
//! `buf[heads[i] .. heads[i] + lens[i]]`, where each 20-byte `Slot`
//! holds the arena index, a cached copy of the destination and the only
//! per-hop mutable state (detour count, last direction). The slot array
//! is double-buffered: the apply half-step sizes the shadow buffer to
//! exactly the survivor + arrival count, copies survivors node by node
//! and scatters arrivals behind them, then flips `cur`. Absorption then
//! scans only each node's arrival tail: a survivor was already resident
//! after the previous absorption, so it is neither at its destination
//! nor on a dead node. Every buffer — slot arrays, handoff queues,
//! staging, removal scratch, the delivered list — is owned by the engine
//! and cleared (never dropped) between steps and runs, so after warmup
//! the step loop performs **zero heap allocation**; the
//! `alloc_regression` integration test enforces this with a counting
//! global allocator.
//!
//! [`Packet`] remains the public boundary type: callers inject and drain
//! whole packets; [`Engine::drain_delivered`] materializes them from the
//! arena on the way out without cloning anything heap-allocated.
//!
//! # Faulted runs
//!
//! Without a [`FaultMask`] (or with an empty one) the compute half-step
//! is a plain greedy XY loop. With faults, a packet's direction comes
//! from a detour decision (`StepCtx::choose_dir`) that avoids severed
//! links and dead nodes, prefers improving hops and spends a bounded
//! detour budget. That decision only differs from greedy XY next to a
//! fault, so each occupied node is classified once per step with
//! [`FaultMask::node_clear`] (no severed out-link, no dead neighbour).
//! On a clear node a packet takes its greedy hop directly unless that
//! hop would undo its previous one, which the detour decision refuses;
//! every other packet takes the full decision. Lossy links keep every
//! node clear: each traversal's loss is decided as the packet moves.
//! Faulted routes therefore cost about what fault-free ones do, except
//! right beside a fault.
//!
//! # Sharded parallel execution
//!
//! The machine is synchronous, so one step is an embarrassingly parallel
//! per-node transition plus nearest-neighbor exchange. [`Engine`] exploits
//! this by splitting the rows into contiguous **bands**, one per worker
//! thread ([`Engine::with_threads`]), and running each step as two
//! barrier-separated half-steps:
//!
//! 1. **compute** — every band picks its winners (farthest-first link
//!    arbitration), removes them from its own queue windows and appends
//!    the resulting moves, in source-node order, to one handoff slot per
//!    *destination* band;
//! 2. **apply** — after a barrier, every band drains the handoff slots
//!    addressed to it *in fixed source-band order* into its staging
//!    buffer, rebuilds its shadow slot array (survivors then arrivals),
//!    then absorbs packets that reached their destination.
//!
//! The handoff slots are engine-persistent `bands × bands` ring
//! positions; publishing and draining swap `Vec`s, so capacity
//! ping-pongs between a band's out-buffers and the ring instead of being
//! reallocated per step (the pre-arena engine allocated a
//! `Vec<Mutex<BandMoves>>` per run and fresh move vectors per step).
//!
//! Because bands are contiguous ascending row ranges, concatenating the
//! handoff queues in source-band order reproduces exactly the ascending
//! global node scan of the sequential engine, so every per-node queue —
//! and therefore every subsequent arbitration decision, fault drop,
//! detour, trace count and the [`Engine::drain_delivered`] order — is
//! **byte-identical for every thread count**. Both paths run the same
//! per-band code (`compute_lane`/`apply_lane`/`absorb_lane`); the
//! sequential engine is simply the one-band instance. The property is
//! enforced by the `engine_oracle` proptest, which pins every thread
//! count to a sequential textbook oracle (one `Vec` queue per node), and
//! by the CI determinism matrix, which diffs whole reproduce tables
//! across `--threads 1/2/8`.

use crate::arena::{PacketArena, PacketRef};
use crate::fault::FaultMask;
use crate::pool::WorkerPool;
use crate::region::Rect;
use crate::topology::{Coord, Dir, MeshShape};
use crate::trace::LinkTrace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// A packet in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique id (also the deterministic tie-breaker).
    pub id: u64,
    /// Destination node.
    pub dest: Coord,
    /// The packet never leaves this rectangle; its source and
    /// destination must both lie inside.
    pub bounds: Rect,
    /// Opaque caller payload (e.g. copy address or request index).
    pub tag: u64,
}

/// Counters accumulated over one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Synchronous steps executed.
    pub steps: u64,
    /// Packets delivered to their destinations.
    pub delivered: u64,
    /// Total packet-hops (link traversals).
    pub total_hops: u64,
    /// Largest per-node resident queue observed.
    pub max_queue: usize,
    /// Packets lost to injected faults: injected at or addressed to dead
    /// nodes, lost on lossy links, or stuck with an exhausted detour
    /// budget. Always 0 without a [`FaultMask`].
    pub dropped: u64,
}

/// Errors from an engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The run exceeded the step budget with packets still in flight.
    StepBudgetExceeded {
        /// Budget that was exhausted.
        max_steps: u64,
        /// Packets still undelivered.
        in_flight: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::StepBudgetExceeded {
                max_steps,
                in_flight,
            } => write!(
                f,
                "routing did not finish within {max_steps} steps ({in_flight} packets in flight)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// `Slot::last_dir` value meaning "no previous hop".
const NO_DIR: u8 = 4;

/// One queue entry (20 bytes): the arena index of the packet, a cached
/// copy of its (immutable) destination, and the only per-hop mutable
/// flight state (fault-detour bookkeeping). The destination is
/// duplicated out of the arena because both hot scans need it —
/// arbitration for every resident packet, absorption for every arrival,
/// every step; reading it from the slot keeps those scans streaming over
/// one dense array instead of gathering from the arena's destination
/// column at random. Keeping the mutable state
/// in the slot — it moves *with* the packet between buffers and bands —
/// means no band ever writes to a shared arena row, so the parallel step
/// needs no synchronization beyond the handoff swap.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Arena index ([`PacketRef`] payload).
    pkt: u32,
    /// Cached `arena.dest(pkt)`.
    dest: Coord,
    /// Non-improving hops taken so far to get around faults.
    detours: u32,
    /// Direction index of the previous hop ([`NO_DIR`] = none); detours
    /// avoid immediately undoing it, which would otherwise oscillate in
    /// front of a blocked wall.
    last_dir: u8,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 20);

/// Filler for freshly sized shadow-buffer positions; every live position
/// is overwritten before it is read.
const DUMMY_SLOT: Slot = Slot {
    pkt: u32::MAX,
    dest: Coord { r: 0, c: 0 },
    detours: 0,
    last_dir: NO_DIR,
};

/// Removal action: this packet is stuck and dies here.
const ACT_STUCK: u8 = u8::MAX;

/// Encodes a move action (direction + detour flag) into the removal
/// scratch; [`ACT_STUCK`] is disjoint because direction indices are < 4.
#[inline]
fn act_move(dir: Dir, detour: bool) -> u8 {
    (dir.index() as u8) << 1 | detour as u8
}

/// Immutable inputs of one synchronous step, shared by the sequential
/// path and every parallel worker.
#[derive(Clone, Copy)]
struct StepCtx<'a> {
    shape: MeshShape,
    faults: Option<&'a FaultMask>,
    /// Step number fed to the deterministic lossy-link hash.
    step: u64,
}

impl StepCtx<'_> {
    /// Greedy XY next direction: fix the column first, then the row.
    #[inline]
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

    /// The direction a packet wants to leave `here` by, together with
    /// whether that hop is a detour (does not reduce the distance to the
    /// destination); `greedy` is its greedy XY direction. `None` means
    /// the packet is stuck and must be dropped. Without faults this is
    /// exactly greedy XY.
    fn choose_dir(
        &self,
        here: Coord,
        arena: &PacketArena,
        s: Slot,
        greedy: Dir,
    ) -> Option<(Dir, bool)> {
        let r = PacketRef(s.pkt);
        let dest = s.dest;
        let mask = match self.faults {
            Some(m) if !m.is_empty() => m,
            _ => return Some((greedy, false)),
        };
        let idx = self.shape.index(here);
        let dist = here.manhattan(dest);
        let bounds = arena.bounds(r);
        let budget = arena.budget(r);
        // Candidates in deterministic preference order: the greedy XY
        // direction, then any other improving direction, then the rest.
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
                    .is_some_and(|c| c.manhattan(dest) < dist);
                if improves == improving_pass {
                    order[n] = Some(d);
                    n += 1;
                }
            }
        }
        let usable = |dir: Dir| -> Option<(Dir, bool)> {
            let next = self.shape.step(here, dir)?;
            if !bounds.contains(next) {
                return None;
            }
            if mask.link_severed(idx, dir) {
                return None;
            }
            // Never enter a dead node — except the destination itself,
            // where the packet is then dropped on arrival.
            if mask.node_dead(self.shape.index(next)) && next != dest {
                return None;
            }
            let improves = next.manhattan(dest) < dist;
            if !improves && s.detours >= budget {
                return None;
            }
            Some((dir, !improves))
        };
        // Refusing to undo the previous hop keeps detours walking along a
        // blocked wall instead of bouncing in place; reversal stays
        // available as a dead-end escape of last resort.
        let reverse = (s.last_dir != NO_DIR).then(|| Dir::ALL[s.last_dir as usize].opposite());
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

/// One band's queues and step scratch: the double-buffered flat slot
/// array with per-node `(head, len)` windows, plus every per-step buffer
/// the band needs — all engine-persistent, all cleared rather than
/// dropped, so a warm step allocates nothing.
#[derive(Debug, Default)]
struct Lane {
    /// First global node index of the band.
    node0: u32,
    /// Double-buffered slot storage; `cur` indexes the live half.
    /// Invariant outside the apply half-step: the live half holds node
    /// `i`'s queue at `heads[i] .. heads[i] + lens[i]`, windows disjoint
    /// and ascending; the shadow half is dead storage whose capacity is
    /// reused by the next apply.
    buf: [Vec<Slot>; 2],
    cur: usize,
    /// Per-local-node window starts into the live buffer.
    heads: Vec<u32>,
    /// Per-local-node window lengths (shrink during compute/absorb).
    lens: Vec<u32>,
    /// Outgoing moves per destination band (swapped into the handoff).
    out: Vec<Vec<(u32, Slot)>>,
    /// Incoming moves gathered from the handoff in source-band order.
    staging: Vec<(u32, Slot)>,
    /// Apply scratch: per-local-node arrival counts.
    arrivals: Vec<u32>,
    /// Apply scratch: per-local-node write cursors into the shadow half.
    cursors: Vec<u32>,
    /// Compute scratch: queue positions to remove, with their action.
    removals: Vec<(u32, u8)>,
    /// This step's deliveries `(node, arena index)`, swapped out to the
    /// coordinator each step.
    delivered: Vec<(u32, u32)>,
}

/// One band's per-step counters, published to the coordinator; the
/// delivered buffer is exchanged by `Vec` swap so neither side
/// reallocates it.
#[derive(Debug, Default)]
struct StepOut {
    hops: u64,
    dropped: u64,
    max_queue: usize,
    delivered: Vec<(u32, u32)>,
}

/// One band's compute half-step: per node (ascending), pick the
/// farthest-first winner of each outgoing link, shrink the node's queue
/// window past winners and stuck packets, and append the moves — in
/// source-node order — to `lane.out[destination band]`. Only this band's
/// windows and trace slice are touched, so bands run concurrently; the
/// outcome is independent of how rows are banded. Returns `(hops,
/// dropped)`.
fn compute_lane(
    ctx: &StepCtx<'_>,
    arena: &PacketArena,
    lane: &mut Lane,
    mut trace: Option<&mut [[u64; 4]]>,
    band_of: &dyn Fn(u32) -> usize,
) -> (u64, u64) {
    let Lane {
        node0,
        buf,
        cur,
        heads,
        lens,
        out,
        removals,
        ..
    } = lane;
    let buf = &mut buf[*cur];
    let no_faults = ctx.faults.is_none_or(FaultMask::is_empty);
    let mut hops = 0u64;
    let mut dropped = 0u64;
    for local in 0..lens.len() {
        let len = lens[local] as usize;
        if len == 0 {
            continue;
        }
        let head = heads[local] as usize;
        let idx = *node0 + local as u32;
        let here = ctx.shape.coord(idx);
        // Pick, per direction, the farthest-first packet.
        let mut best: [Option<(u32, u64, u32, bool)>; 4] = [None; 4]; // (dist, id, pos, detour)
        removals.clear();
        let q = &buf[head..head + len];
        if no_faults {
            // Fault-free fast path: the chosen direction is exactly
            // greedy XY on the slot-cached destination, nothing is ever
            // stuck, and the tie-breaking id is only gathered from the
            // arena when a candidate actually ties on distance.
            for (pos, s) in q.iter().enumerate() {
                let dir = StepCtx::next_dir(here, s.dest)
                    .expect("resident packet at destination should have been absorbed");
                let d = dir.index();
                let dist = here.manhattan(s.dest);
                let better = match best[d] {
                    None => true,
                    Some((bd, bid, _, _)) => {
                        dist > bd || (dist == bd && arena.id(PacketRef(s.pkt)) < bid)
                    }
                };
                if better {
                    best[d] = Some((dist, arena.id(PacketRef(s.pkt)), pos as u32, false));
                }
            }
        } else {
            // Faulted path. On a clear node — no severed out-link, no
            // dead neighbour — `choose_dir` answers the greedy XY hop as
            // a non-detour: greedy is its first candidate, the hop stays
            // inside the bounds, its link is intact, its target alive,
            // and it improves, so the detour budget is moot. The one
            // exception is its reversal filter, so a packet whose greedy
            // hop would undo its last hop still takes the full decision.
            let clear = ctx.faults.is_some_and(|m| m.node_clear(idx));
            for (pos, s) in q.iter().enumerate() {
                let greedy = StepCtx::next_dir(here, s.dest)
                    .expect("resident packet at destination should have been absorbed");
                let choice = if clear && s.last_dir != greedy.opposite().index() as u8 {
                    Some((greedy, false))
                } else {
                    ctx.choose_dir(here, arena, *s, greedy)
                };
                match choice {
                    Some((dir, detour)) => {
                        let d = dir.index();
                        let dist = here.manhattan(s.dest);
                        let better = match best[d] {
                            None => true,
                            Some((bd, bid, _, _)) => {
                                dist > bd || (dist == bd && arena.id(PacketRef(s.pkt)) < bid)
                            }
                        };
                        if better {
                            best[d] = Some((dist, arena.id(PacketRef(s.pkt)), pos as u32, detour));
                        }
                    }
                    None => removals.push((pos as u32, ACT_STUCK)),
                }
            }
        }
        // Remove stuck packets and winners in descending position
        // order to keep indices valid, then record the moves.
        for (d, slot) in best.iter().enumerate() {
            if let Some((_, _, pos, detour)) = *slot {
                removals.push((pos, act_move(Dir::ALL[d], detour)));
            }
        }
        removals.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
        let mut qlen = len;
        for &(pos, action) in removals.iter() {
            let mut s = buf[head + pos as usize];
            qlen -= 1;
            buf[head + pos as usize] = buf[head + qlen];
            if action == ACT_STUCK {
                // Every usable link is gone: the packet dies here.
                dropped += 1;
                continue;
            }
            let (dir, detour) = (Dir::ALL[(action >> 1) as usize], action & 1 == 1);
            if let Some(counts) = trace.as_deref_mut() {
                counts[local][dir.index()] += 1;
            }
            hops += 1;
            let lost = !no_faults
                && ctx.faults.is_some_and(|m| {
                    m.traversal_lost(ctx.step, idx, dir, arena.id(PacketRef(s.pkt)))
                });
            if lost {
                dropped += 1;
                continue;
            }
            if detour {
                s.detours += 1;
            }
            s.last_dir = dir.index() as u8;
            let next = ctx
                .shape
                .step(here, dir)
                .expect("XY routing within bounds cannot leave the mesh");
            debug_assert!(
                arena.bounds(PacketRef(s.pkt)).contains(next),
                "packet left its bounds"
            );
            let next_idx = ctx.shape.index(next);
            out[band_of(next_idx)].push((next_idx, s));
        }
        lens[local] = qlen as u32;
    }
    (hops, dropped)
}

/// One band's apply half-step: size the shadow buffer to exactly the
/// survivor + arrival count, copy each node's surviving window, scatter
/// the staged arrivals (already in global source order) behind the
/// survivors they join, and flip the live buffer. Returns the band's
/// largest queue — measured, as in the pre-arena engine, after arrivals
/// land and before absorption.
fn apply_lane(lane: &mut Lane) -> usize {
    let Lane {
        node0,
        buf,
        cur,
        heads,
        lens,
        staging,
        arrivals,
        cursors,
        ..
    } = lane;
    arrivals.fill(0);
    for &(node, _) in staging.iter() {
        arrivals[(node - *node0) as usize] += 1;
    }
    let survivors: usize = lens.iter().map(|&l| l as usize).sum();
    let total = survivors + staging.len();
    let [a, b] = buf;
    let (src, dst): (&[Slot], &mut Vec<Slot>) = if *cur == 0 { (a, b) } else { (b, a) };
    dst.resize(total, DUMMY_SLOT);
    let mut off: u32 = 0;
    let mut max_queue = 0usize;
    for local in 0..heads.len() {
        let h = heads[local] as usize;
        let l = lens[local] as usize;
        dst[off as usize..off as usize + l].copy_from_slice(&src[h..h + l]);
        heads[local] = off;
        cursors[local] = off + l as u32;
        lens[local] = (l + arrivals[local] as usize) as u32;
        off += lens[local];
        max_queue = max_queue.max(lens[local] as usize);
    }
    for &(node, s) in staging.iter() {
        let local = (node - *node0) as usize;
        dst[cursors[local] as usize] = s;
        cursors[local] += 1;
    }
    *cur = 1 - *cur;
    max_queue
}

/// Absorbs every packet of the band that sits at its destination (and
/// drops anything resident on a dead node), appending `(node, arena
/// index)` pairs to `lane.delivered` in node order. Returns the dead-node
/// drop count.
///
/// With `arrivals_only` (right after [`apply_lane`]) only each window's
/// arrival tail is scanned: the survivors in front of it were resident
/// after the previous absorption, so none is at its destination or on a
/// dead node. Swap-removal over the tail then leaves the window exactly
/// as a full scan would, so the delivered order is unchanged.
fn absorb_lane(
    shape: MeshShape,
    faults: Option<&FaultMask>,
    lane: &mut Lane,
    arrivals_only: bool,
) -> u64 {
    let Lane {
        node0,
        buf,
        cur,
        heads,
        lens,
        arrivals,
        delivered,
        ..
    } = lane;
    let buf = &mut buf[*cur];
    let mut dropped = 0u64;
    for local in 0..lens.len() {
        let mut len = lens[local] as usize;
        let mut i = if arrivals_only {
            len - arrivals[local] as usize
        } else {
            0
        };
        if i == len {
            continue;
        }
        let head = heads[local] as usize;
        let idx = *node0 + local as u32;
        let here = shape.coord(idx);
        let dead_here = faults.is_some_and(|m| m.node_dead(idx));
        debug_assert!(
            i == 0 || (!dead_here && buf[head..head + i].iter().all(|s| s.dest != here)),
            "a survivor is at its destination or on a dead node"
        );
        while i < len {
            if dead_here {
                len -= 1;
                buf[head + i] = buf[head + len];
                dropped += 1;
            } else if buf[head + i].dest == here {
                let s = buf[head + i];
                len -= 1;
                buf[head + i] = buf[head + len];
                delivered.push((idx, s.pkt));
            } else {
                i += 1;
            }
        }
        lens[local] = len as u32;
    }
    dropped
}

/// The packet engine. Inject packets, then [`Engine::run`]; delivered
/// packets are collected per destination node.
#[derive(Debug)]
pub struct Engine {
    shape: MeshShape,
    /// Struct-of-arrays store of every injected packet.
    arena: PacketArena,
    /// Packets injected since the last run: `(node, slot)` in injection
    /// order, laid into the band lanes at the next run start.
    pending: Vec<(u32, Slot)>,
    /// Per-band queue storage and step scratch.
    lanes: Vec<Lane>,
    /// Band count the lanes/handoff are currently laid out for.
    bands: usize,
    /// Layout scratch: per-node resident counts.
    counts: Vec<u32>,
    /// Layout scratch: residents regathered in global node order when
    /// the band count changes or a run left packets in flight.
    gather: Vec<(u32, Slot)>,
    /// First node index of each band (`bands + 1` entries).
    node_starts: Vec<u32>,
    /// Band owning each mesh row.
    row_band: Vec<usize>,
    /// Persistent handoff ring: slot `src * bands + dst` carries the
    /// moves leaving band `src` for band `dst` this step, in source-node
    /// order. Locks are uncontended: `src` fills during compute, `dst`
    /// drains after the worker barrier.
    handoff: Vec<Mutex<Vec<(u32, Slot)>>>,
    /// Per-band step results for the coordinator fold.
    step_out: Vec<Mutex<StepOut>>,
    /// Delivered packets as `(destination node, arena index)`.
    delivered: Vec<(u32, u32)>,
    in_flight: u64,
    stats: EngineStats,
    /// Optional per-link traversal recording (see [`crate::trace`]).
    trace: Option<LinkTrace>,
    /// Broken nodes and links for this run, if any.
    faults: Option<FaultMask>,
    /// Worker threads the step loop shards its rows across (1 =
    /// sequential). Never changes the results, only the wall clock.
    threads: usize,
    /// The persistent worker pool the sharded step loop borrows its
    /// threads from: an execution context's, installed at checkout, or
    /// else one the engine builds on its first sharded run and drops
    /// with itself.
    pool: Option<Arc<WorkerPool>>,
}

impl Engine {
    /// An empty, sequential (1 worker thread) engine on the given mesh;
    /// see [`Engine::with_threads`].
    pub fn new(shape: MeshShape) -> Self {
        Engine {
            shape,
            arena: PacketArena::new(),
            pending: Vec::new(),
            lanes: Vec::new(),
            bands: 0,
            counts: Vec::new(),
            gather: Vec::new(),
            node_starts: Vec::new(),
            row_band: Vec::new(),
            handoff: Vec::new(),
            step_out: Vec::new(),
            delivered: Vec::new(),
            in_flight: 0,
            stats: EngineStats::default(),
            trace: None,
            faults: None,
            threads: 1,
            pool: None,
        }
    }

    /// Returns the engine to its post-[`Engine::new`] state while keeping
    /// every allocation (arena columns, lane buffers, handoff ring), so a
    /// pooled engine can be reused across protocol stages without paying
    /// the buffer build again. Threads keep their configured value;
    /// trace, faults, stats, queues and delivered packets are cleared.
    pub fn reset(&mut self) {
        self.arena.clear();
        self.pending.clear();
        self.gather.clear();
        for lane in &mut self.lanes {
            lane.heads.fill(0);
            lane.lens.fill(0);
            lane.staging.clear();
            lane.delivered.clear();
            for o in &mut lane.out {
                o.clear();
            }
        }
        self.delivered.clear();
        self.in_flight = 0;
        self.stats = EngineStats::default();
        self.trace = None;
        self.faults = None;
    }

    /// Enables per-link traversal tracing (congestion heatmaps).
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(LinkTrace::new(self.shape));
        self
    }

    /// Sets the number of worker threads the synchronous step loop
    /// shards its rows across (clamped to at least 1, and to the row
    /// count at run time). Results are byte-identical for every value —
    /// only wall-clock time changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// In-place form of [`Engine::with_threads`] for pooled engines.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker-thread count.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Borrows worker threads from `pool` instead of building a pool of
    /// its own. Execution contexts install theirs here so every engine
    /// they hand out shares one parked thread set, and concurrent
    /// simulations never contend on one.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// Installs a fault mask for this run. Must be called before any
    /// packet is injected, so dead-endpoint drops are accounted
    /// uniformly; panics (debug assertion) if packets are already
    /// resident or delivered.
    pub fn with_faults(mut self, mask: FaultMask) -> Self {
        debug_assert_eq!(mask.shape(), self.shape, "fault mask shape mismatch");
        debug_assert!(
            self.in_flight == 0 && self.delivered.is_empty() && self.stats.steps == 0,
            "install faults before injecting"
        );
        self.faults = Some(mask);
        self
    }

    /// The installed fault mask, if any.
    pub fn faults(&self) -> Option<&FaultMask> {
        self.faults.as_ref()
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

    /// The packet arena (read-only; tags and destinations of everything
    /// injected since the last reset).
    #[inline]
    pub fn arena(&self) -> &PacketArena {
        &self.arena
    }

    /// Pre-sizes the arena and injection staging for `additional` more
    /// packets, so bulk injection loops grow buffers once instead of
    /// amortizing.
    pub fn reserve(&mut self, additional: usize) {
        self.arena.reserve(additional);
        self.pending.reserve(additional);
    }

    /// Places a packet at `src`. Both `src` and the packet destination
    /// must lie inside the packet's bounds. With a fault mask installed,
    /// packets originating at or addressed to dead nodes are dropped on
    /// the spot.
    pub fn inject(&mut self, src: Coord, pkt: Packet) {
        debug_assert!(pkt.bounds.contains(src), "source outside bounds");
        debug_assert!(pkt.bounds.contains(pkt.dest), "destination outside bounds");
        if let Some(mask) = &self.faults {
            if mask.node_dead(self.shape.index(src)) || mask.node_dead(self.shape.index(pkt.dest)) {
                self.stats.dropped += 1;
                return;
            }
        }
        // Detours around faults may not exceed twice the bounding-box
        // perimeter — enough to round any blocked region, small enough to
        // guarantee termination.
        let budget = 2 * (pkt.bounds.rows + pkt.bounds.cols) + 8;
        let r = self.arena.push(&pkt, budget);
        self.in_flight += 1;
        self.pending.push((
            self.shape.index(src),
            Slot {
                pkt: r.0,
                dest: pkt.dest,
                detours: 0,
                last_dir: NO_DIR,
            },
        ));
    }

    /// Packets not yet delivered.
    #[inline]
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Runs until every packet is delivered or the budget is exhausted.
    /// Returns the stats accumulated by this run (also kept in
    /// [`Engine::stats`]). With more than one configured thread the rows
    /// are sharded across a persistent worker pool; the outcome is
    /// byte-identical either way.
    pub fn run(&mut self, max_steps: u64) -> Result<EngineStats, EngineError> {
        let bands = self.threads.max(1).min(self.shape.rows as usize).max(1);
        self.layout(bands);
        // Deliver packets already at their destination (zero-distance).
        self.absorb(false);
        if bands <= 1 || self.in_flight == 0 {
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

    /// Stats accumulated so far.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Drains the delivered packets in delivery order, materializing each
    /// `(destination node, packet)` pair from the arena on the fly — no
    /// clone, no allocation (the backing buffer keeps its capacity for
    /// the next run).
    pub fn drain_delivered(&mut self) -> impl Iterator<Item = (u32, Packet)> + '_ {
        let Engine {
            arena, delivered, ..
        } = self;
        delivered
            .drain(..)
            .map(move |(node, pkt)| (node, arena.packet(PacketRef(pkt))))
    }

    /// Lays the resident and pending packets out into `bands` lanes:
    /// regathers whatever a previous run left in flight (in global node
    /// order), counts per-node totals, sizes each lane's windows by
    /// prefix sums and scatters residents-then-pending so each node's
    /// queue is exactly what the pre-arena engine's push order produced.
    /// All scratch is persistent; with an unchanged band count a warm
    /// layout allocates nothing.
    fn layout(&mut self, bands: usize) {
        // Regather residents in ascending global node order.
        self.gather.clear();
        for lane in &self.lanes {
            let buf = &lane.buf[lane.cur];
            for local in 0..lane.lens.len() {
                let l = lane.lens[local] as usize;
                if l == 0 {
                    continue;
                }
                let h = lane.heads[local] as usize;
                let node = lane.node0 + local as u32;
                for s in &buf[h..h + l] {
                    self.gather.push((node, *s));
                }
            }
        }
        let nodes = self.shape.nodes() as usize;
        self.counts.resize(nodes, 0);
        self.counts.fill(0);
        for &(node, _) in &self.gather {
            self.counts[node as usize] += 1;
        }
        for &(node, _) in &self.pending {
            self.counts[node as usize] += 1;
        }
        // Contiguous near-equal row bands: band b owns rows
        // [b·rows/B, (b+1)·rows/B), hence a contiguous node range.
        let rows = self.shape.rows as usize;
        let cols = self.shape.cols;
        let row_start = |b: usize| b * rows / bands;
        self.node_starts.clear();
        self.node_starts
            .extend((0..=bands).map(|b| row_start(b) as u32 * cols));
        self.row_band.resize(rows, 0);
        for b in 0..bands {
            self.row_band[row_start(b)..row_start(b + 1)].fill(b);
        }
        if self.lanes.len() != bands {
            self.lanes.resize_with(bands, Lane::default);
        }
        for b in 0..bands {
            let lane = &mut self.lanes[b];
            let node0 = self.node_starts[b];
            let n = (self.node_starts[b + 1] - node0) as usize;
            lane.node0 = node0;
            lane.heads.resize(n, 0);
            lane.lens.resize(n, 0);
            lane.cursors.resize(n, 0);
            lane.arrivals.resize(n, 0);
            if lane.out.len() != bands {
                lane.out.resize_with(bands, Vec::new);
                lane.out.truncate(bands);
            }
            lane.staging.clear();
            lane.delivered.clear();
            let mut off = 0u32;
            for local in 0..n {
                let cnt = self.counts[(node0 + local as u32) as usize];
                lane.heads[local] = off;
                lane.cursors[local] = off;
                lane.lens[local] = cnt;
                off += cnt;
            }
            lane.cur = 0;
            lane.buf[0].resize(off as usize, DUMMY_SLOT);
        }
        // Scatter: previous residents first (global node order), then
        // the newly injected packets in injection order — exactly the
        // per-node push order of the pre-arena engine.
        for stage in [&self.gather, &self.pending] {
            for &(node, s) in stage {
                let b = self.row_band[(node / cols) as usize];
                let lane = &mut self.lanes[b];
                let local = (node - lane.node0) as usize;
                lane.buf[0][lane.cursors[local] as usize] = s;
                lane.cursors[local] += 1;
            }
        }
        self.gather.clear();
        self.pending.clear();
        if self.bands != bands {
            self.handoff = (0..bands * bands).map(|_| Mutex::new(Vec::new())).collect();
            self.step_out = (0..bands).map(|_| Mutex::new(StepOut::default())).collect();
            self.bands = bands;
        }
    }

    /// Absorption across all lanes in band (= node) order: of every
    /// resident at run start, of the arrival tails after a step (see
    /// [`absorb_lane`]).
    fn absorb(&mut self, arrivals_only: bool) {
        let Engine {
            shape,
            faults,
            lanes,
            delivered,
            in_flight,
            stats,
            ..
        } = self;
        for lane in lanes.iter_mut() {
            let dropped = absorb_lane(*shape, faults.as_ref(), lane, arrivals_only);
            stats.dropped += dropped;
            stats.delivered += lane.delivered.len() as u64;
            *in_flight -= dropped + lane.delivered.len() as u64;
            delivered.append(&mut lane.delivered);
        }
    }

    /// One sequential synchronous step: the one-band instance of the
    /// sharded step (same compute/apply/absorb code as the workers).
    fn step(&mut self) {
        let ctx = StepCtx {
            shape: self.shape,
            faults: self.faults.as_ref(),
            step: self.stats.steps,
        };
        let lane = &mut self.lanes[0];
        let (hops, dropped) = compute_lane(
            &ctx,
            &self.arena,
            lane,
            self.trace.as_mut().map(LinkTrace::counts_mut),
            &|_| 0,
        );
        self.stats.total_hops += hops;
        self.stats.dropped += dropped;
        self.in_flight -= dropped;
        let lane = &mut self.lanes[0];
        // Single band: the out-buffer is the staging buffer (capacity
        // ping-pongs between the two roles instead of being reallocated).
        std::mem::swap(&mut lane.staging, &mut lane.out[0]);
        lane.out[0].clear();
        let max_queue = apply_lane(lane);
        self.stats.steps += 1;
        self.stats.max_queue = self.stats.max_queue.max(max_queue);
        self.absorb(true);
    }

    /// The sharded step loop: `bands` workers borrowed from the
    /// persistent [`WorkerPool`] (the context's, or the engine's own,
    /// built here on the first sharded run), exchanging moves through the
    /// engine-persistent handoff ring (module docs explain why the result
    /// is byte-identical to [`Engine::step`]). After that first run no
    /// threads are spawned and no warm buffers are reallocated here — the
    /// pool parks its workers between runs and every queue swap reuses
    /// capacity.
    fn run_parallel(&mut self, max_steps: u64, bands: usize) -> Result<EngineStats, EngineError> {
        let pool = Arc::clone(self.pool.get_or_insert_with(|| Arc::new(WorkerPool::new())));
        let shape = self.shape;
        let cols = shape.cols;

        // Split the borrows field by field so the workers can own their
        // lanes while the coordinator keeps the counters.
        let faults = self.faults.as_ref();
        let arena = &self.arena;
        let stats = &mut self.stats;
        let delivered_all = &mut self.delivered;
        let in_flight = &mut self.in_flight;
        let node_starts = &self.node_starts;
        let row_band = &self.row_band;
        let handoff = &self.handoff;
        let step_out = &self.step_out;
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

        // `barrier_all` frames a step (coordinator + workers); the
        // workers-only barrier separates the compute and apply
        // half-steps so no handoff slot is drained before it is full.
        let barrier_all = Barrier::new(bands + 1);
        let barrier_workers = Barrier::new(bands);
        let stop = AtomicBool::new(false);
        let start_step = stats.steps;
        let barrier_all = &barrier_all;
        let barrier_workers = &barrier_workers;
        let stop = &stop;

        // The pool job closure is one `Fn(usize)` shared by every
        // worker, so each band's exclusive state is parked in a slot the
        // owning worker takes on entry.
        type BandState<'a> = (&'a mut Lane, Option<&'a mut [[u64; 4]]>);
        let band_state: Vec<Mutex<Option<BandState<'_>>>> = self
            .lanes
            .iter_mut()
            .zip(band_trace.drain(..))
            .map(|(lane, trace)| Mutex::new(Some((lane, trace))))
            .collect();
        let band_state = &band_state;

        let worker = move |b: usize| {
            let (lane, mut trace) = band_state[b]
                .lock()
                .unwrap()
                .take()
                .expect("band state taken once per run");
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
                let (hops, moved_drops) =
                    compute_lane(&ctx, arena, lane, trace.as_deref_mut(), &band_of);
                // Publish this band's outgoing moves: swap each per-dst
                // buffer into its handoff ring slot (the slot holds the
                // vector this band's buffer was drained into last step,
                // so capacity circulates instead of being reallocated).
                for (dst, out) in lane.out.iter_mut().enumerate() {
                    std::mem::swap(&mut *handoff[b * bands + dst].lock().unwrap(), out);
                }
                barrier_workers.wait();
                // Drain incoming moves in fixed source-band order:
                // concatenated, they reproduce the sequential
                // engine's ascending global node scan.
                lane.staging.clear();
                for src in 0..bands {
                    let mut slot = handoff[src * bands + b].lock().unwrap();
                    lane.staging.extend_from_slice(&slot);
                    slot.clear();
                }
                let max_queue = apply_lane(lane);
                let dead_drops = absorb_lane(shape, faults, lane, true);
                {
                    let mut out = step_out[b].lock().unwrap();
                    out.hops = hops;
                    out.dropped = moved_drops + dead_drops;
                    out.max_queue = max_queue;
                    std::mem::swap(&mut out.delivered, &mut lane.delivered);
                }
                step += 1;
                barrier_all.wait();
            }
        };
        // Coordinator (on the calling thread): frame the steps and fold
        // the per-band deltas in band order (= node order) after each
        // one. `WorkerPool::run` returns only after every band worker
        // has left the loop, so the borrowed band state cannot escape.
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
            barrier_all.wait(); // release the workers into the step
            barrier_all.wait(); // wait for every band to finish
            stats.steps += 1;
            for slot in step_out.iter() {
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

    fn full_bounds(shape: MeshShape) -> Rect {
        Rect::full(shape)
    }

    fn mk(id: u64, dest: Coord, bounds: Rect) -> Packet {
        Packet {
            id,
            dest,
            bounds,
            tag: 0,
        }
    }

    #[test]
    fn single_packet_takes_manhattan_steps() {
        let shape = MeshShape::square(8);
        let mut e = Engine::new(shape);
        let src = Coord::new(1, 1);
        let dst = Coord::new(6, 4);
        e.inject(src, mk(0, dst, full_bounds(shape)));
        let stats = e.run(1000).unwrap();
        assert_eq!(stats.steps, src.manhattan(dst) as u64);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.total_hops, src.manhattan(dst) as u64);
        let d = e.drain_delivered().collect::<Vec<_>>();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, shape.index(dst));
    }

    #[test]
    fn zero_distance_packet_is_free() {
        let shape = MeshShape::square(4);
        let mut e = Engine::new(shape);
        let at = Coord::new(2, 2);
        e.inject(at, mk(0, at, full_bounds(shape)));
        let stats = e.run(10).unwrap();
        assert_eq!(stats.steps, 0);
        assert_eq!(stats.delivered, 1);
    }

    #[test]
    fn permutation_routing_completes() {
        // Transpose permutation on a 16x16 mesh.
        let shape = MeshShape::square(16);
        let mut e = Engine::new(shape);
        let b = full_bounds(shape);
        let mut id = 0u64;
        for r in 0..16 {
            for c in 0..16 {
                e.inject(Coord::new(r, c), mk(id, Coord::new(c, r), b));
                id += 1;
            }
        }
        let stats = e.run(10_000).unwrap();
        assert_eq!(stats.delivered, 256);
        // Greedy XY on a permutation finishes within ~2s steps plus
        // queueing; the transpose is contention-light.
        assert!(stats.steps <= 64, "steps = {}", stats.steps);
    }

    #[test]
    fn all_to_one_serializes() {
        // k packets from the same row to one node must serialize on the
        // final link: at least src_count - 1 extra steps.
        let shape = MeshShape::square(8);
        let mut e = Engine::new(shape);
        let b = full_bounds(shape);
        let dst = Coord::new(0, 0);
        for c in 1..8u32 {
            e.inject(Coord::new(0, c), mk(c as u64, dst, b));
        }
        let stats = e.run(1000).unwrap();
        assert_eq!(stats.delivered, 7);
        // Farthest packet travels 7; packets serialize on the (0,1)->(0,0)
        // link, so exactly 7 steps (pipeline fills behind the farthest).
        assert_eq!(stats.steps, 7);
        assert!(stats.max_queue >= 1);
    }

    #[test]
    fn bounded_packets_do_not_interfere_across_regions() {
        // Two independent 4x8 halves, saturated internally. Steps must
        // equal the max of the two independent runs, not their sum.
        let shape = MeshShape { rows: 8, cols: 8 };
        let top = Rect {
            r0: 0,
            c0: 0,
            rows: 4,
            cols: 8,
        };
        let bot = Rect {
            r0: 4,
            c0: 0,
            rows: 4,
            cols: 8,
        };
        let run_in = |region: Rect, alone: bool| -> u64 {
            let mut e = Engine::new(shape);
            let mut id = 0;
            let regions: Vec<Rect> = if alone { vec![region] } else { vec![top, bot] };
            for reg in regions {
                for c in reg.coords() {
                    // everyone sends to the region corner
                    let dst = Coord::new(reg.r0, reg.c0);
                    e.inject(c, mk(id, dst, reg));
                    id += 1;
                }
            }
            e.run(100_000).unwrap().steps
        };
        let t_top = run_in(top, true);
        let t_both = run_in(top, false);
        assert_eq!(t_top, t_both, "regions interfered");
    }

    #[test]
    fn budget_violation_reported() {
        let shape = MeshShape::square(8);
        let mut e = Engine::new(shape);
        e.inject(
            Coord::new(0, 0),
            mk(0, Coord::new(7, 7), full_bounds(shape)),
        );
        let err = e.run(3).unwrap_err();
        assert!(matches!(err, EngineError::StepBudgetExceeded { .. }));
    }

    /// A budget-exceeded run leaves packets in flight; a follow-up run —
    /// possibly at a different thread count, which relays the packets
    /// out — must finish the job with cumulative stats. Exercises the
    /// resident-regather path of `layout`.
    #[test]
    fn interrupted_run_resumes_across_thread_counts() {
        let shape = MeshShape::square(8);
        let finish = |threads_after: usize| {
            let mut e = Engine::new(shape);
            let b = full_bounds(shape);
            for i in 0..16u64 {
                e.inject(shape.coord(i as u32), mk(i, Coord::new(7, 7), b));
            }
            assert!(e.run(2).is_err());
            assert!(e.in_flight() > 0);
            e.set_threads(threads_after);
            let stats = e.run(10_000).unwrap();
            (stats, e.drain_delivered().collect::<Vec<_>>())
        };
        let seq = finish(1);
        assert_eq!(seq.0.delivered, 16);
        for threads in [2, 5] {
            assert_eq!(seq, finish(threads), "threads = {threads}");
        }
    }

    #[test]
    fn dead_destination_drops_packet() {
        let shape = MeshShape::square(8);
        let mut mask = FaultMask::new(shape);
        mask.kill_node(Coord::new(7, 7));
        let mut e = Engine::new(shape).with_faults(mask);
        e.inject(
            Coord::new(0, 0),
            mk(0, Coord::new(7, 7), full_bounds(shape)),
        );
        e.inject(
            Coord::new(0, 0),
            mk(1, Coord::new(3, 3), full_bounds(shape)),
        );
        let stats = e.run(1000).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 1);
        assert_eq!(e.drain_delivered().collect::<Vec<_>>().len(), 1);
    }

    #[test]
    fn dead_source_drops_packet() {
        let shape = MeshShape::square(8);
        let mut mask = FaultMask::new(shape);
        mask.kill_node(Coord::new(2, 2));
        let mut e = Engine::new(shape).with_faults(mask);
        e.inject(
            Coord::new(2, 2),
            mk(0, Coord::new(5, 5), full_bounds(shape)),
        );
        let stats = e.run(1000).unwrap();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn severed_link_is_routed_around() {
        let shape = MeshShape::square(8);
        let mut mask = FaultMask::new(shape);
        // Cut the greedy XY path (0,0) -> (0,4) at its very first link.
        mask.sever_link(Coord::new(0, 0), Dir::East);
        let mut e = Engine::new(shape).with_faults(mask);
        e.inject(
            Coord::new(0, 0),
            mk(0, Coord::new(0, 4), full_bounds(shape)),
        );
        let stats = e.run(1000).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 0);
        // One detour south, four east, one back north: 4 + 2 hops.
        assert_eq!(stats.total_hops, 6);
    }

    #[test]
    fn dead_region_is_routed_around() {
        // Kill a full column segment blocking the straight path; packets
        // must go around it.
        let shape = MeshShape::square(8);
        let mut mask = FaultMask::new(shape);
        for r in 0..5 {
            mask.kill_node(Coord::new(r, 3));
        }
        let mut e = Engine::new(shape).with_faults(mask);
        e.inject(
            Coord::new(2, 0),
            mk(0, Coord::new(2, 7), full_bounds(shape)),
        );
        let stats = e.run(1000).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn fully_cut_off_packet_is_dropped_not_stuck() {
        // Isolate the corner source by severing both of its links; the
        // run must terminate with a drop rather than exhaust the step
        // budget on a stuck packet.
        let shape = MeshShape::square(4);
        let mut mask = FaultMask::new(shape);
        mask.sever_link(Coord::new(0, 0), Dir::East);
        mask.sever_link(Coord::new(0, 0), Dir::South);
        let mut e = Engine::new(shape).with_faults(mask);
        e.inject(
            Coord::new(0, 0),
            mk(0, Coord::new(3, 3), full_bounds(shape)),
        );
        let stats = e.run(1000).unwrap();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 1);
        assert_eq!(e.in_flight(), 0);
    }

    /// Routes one packet from `src` to `dest` under `mask` and returns
    /// the run's stats and link trace.
    fn route_one(mask: FaultMask, src: Coord, dest: Coord) -> (EngineStats, LinkTrace) {
        let shape = mask.shape();
        let mut e = Engine::new(shape).with_trace().with_faults(mask);
        e.inject(src, mk(0, dest, full_bounds(shape)));
        let stats = e.run(1000).unwrap();
        (stats, e.trace().cloned().unwrap())
    }

    /// Asserts the trace holds exactly the hops `path` lists, one each.
    fn assert_path(trace: &LinkTrace, path: &[((u32, u32), Dir)]) {
        for &((r, c), dir) in path {
            assert_eq!(trace.count(Coord::new(r, c), dir), 1, "({r},{c}) {dir:?}");
        }
        assert_eq!(trace.total(), path.len() as u64);
    }

    /// A packet pushed east by a severed link reaches a clear node whose
    /// greedy hop (west) would undo that detour; the reversal filter
    /// turns it north instead, so it must not take the greedy hop.
    #[test]
    fn clear_node_keeps_the_reversal_filter() {
        let shape = MeshShape::square(4);
        let mut mask = FaultMask::new(shape);
        mask.sever_link(Coord::new(2, 0), Dir::North);
        assert!(mask.node_clear(shape.index(Coord::new(2, 1))));
        let (stats, trace) = route_one(mask, Coord::new(2, 0), Coord::new(0, 0));
        assert_eq!((stats.delivered, stats.dropped), (1, 0));
        assert_path(
            &trace,
            &[
                ((2, 0), Dir::East),
                ((2, 1), Dir::North),
                ((1, 1), Dir::West),
                ((1, 0), Dir::North),
            ],
        );
    }

    /// A node beside a dead node is not clear: its greedy hop into the
    /// dead node (which is not the destination) must be refused.
    #[test]
    fn node_beside_a_dead_node_detours() {
        let shape = MeshShape { rows: 4, cols: 8 };
        let mut mask = FaultMask::new(shape);
        mask.kill_node(Coord::new(1, 2));
        assert!(!mask.node_clear(shape.index(Coord::new(1, 1))));
        let (stats, trace) = route_one(mask, Coord::new(1, 0), Coord::new(1, 5));
        assert_eq!((stats.delivered, stats.dropped), (1, 0));
        assert_path(
            &trace,
            &[
                ((1, 0), Dir::East),
                ((1, 1), Dir::North),
                ((0, 1), Dir::East),
                ((0, 2), Dir::East),
                ((0, 3), Dir::East),
                ((0, 4), Dir::East),
                ((0, 5), Dir::South),
            ],
        );
    }

    /// Severing `(1,2)–(1,3)` from its west endpoint also severs the
    /// west out-link of `(1,3)`: a packet arriving there from the east
    /// must detour rather than cross it.
    #[test]
    fn severed_link_blocks_its_far_endpoint() {
        let shape = MeshShape { rows: 4, cols: 8 };
        let mut mask = FaultMask::new(shape);
        mask.sever_link(Coord::new(1, 2), Dir::East);
        assert!(!mask.node_clear(shape.index(Coord::new(1, 3))));
        let (stats, trace) = route_one(mask, Coord::new(1, 6), Coord::new(1, 0));
        assert_eq!((stats.delivered, stats.dropped), (1, 0));
        assert_path(
            &trace,
            &[
                ((1, 6), Dir::West),
                ((1, 5), Dir::West),
                ((1, 4), Dir::West),
                ((1, 3), Dir::North),
                ((0, 3), Dir::West),
                ((0, 2), Dir::West),
                ((0, 1), Dir::West),
                ((0, 0), Dir::South),
            ],
        );
    }

    /// Lossy links leave every node clear: packets keep their greedy XY
    /// paths and each traversal is still decided per hop, so a link that
    /// loses everything drops exactly the packets whose path crosses it.
    #[test]
    fn lossy_only_mask_keeps_greedy_paths() {
        let shape = MeshShape::square(8);
        let mut mask = FaultMask::new(shape);
        mask.degrade_link(Coord::new(3, 3), Dir::East, 1000);
        assert!((0..shape.nodes() as u32).all(|i| mask.node_clear(i)));
        let mut e = Engine::new(shape).with_faults(mask);
        let b = full_bounds(shape);
        // Transpose: (r, c) -> (c, r), id r·8 + c. Only row-3 sources
        // east of the link cross it, at hop c − 3 of their XY path.
        let mut hops = 0;
        for r in 0..8 {
            for c in 0..8 {
                let (src, dst) = (Coord::new(r, c), Coord::new(c, r));
                e.inject(src, mk((r * 8 + c) as u64, dst, b));
                hops += if r == 3 && c >= 4 {
                    c - 3
                } else {
                    src.manhattan(dst)
                };
            }
        }
        let stats = e.run(10_000).unwrap();
        assert_eq!((stats.delivered, stats.dropped), (60, 4));
        assert_eq!(stats.total_hops, hops as u64);
        let delivered: Vec<u64> = e.drain_delivered().map(|(_, p)| p.id).collect();
        let lost: Vec<u64> = (0..64).filter(|id| !delivered.contains(id)).collect();
        assert_eq!(lost, [28, 29, 30, 31]);
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let shape = MeshShape::square(8);
        let run = |salt: u64| {
            let mut mask = FaultMask::new(shape).with_salt(salt);
            // Every east-bound hop in row 0 is 50% lossy.
            for c in 0..7 {
                mask.degrade_link(Coord::new(0, c), Dir::East, 500);
            }
            let mut e = Engine::new(shape).with_faults(mask);
            for i in 0..64u64 {
                e.inject(
                    Coord::new(0, 0),
                    mk(i, Coord::new(0, 7), full_bounds(shape)),
                );
            }
            e.run(10_000).unwrap()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same salt must lose the same packets");
        assert_eq!(a.delivered + a.dropped, 64);
        assert!(a.dropped > 0, "a 50% lossy 7-hop path should lose packets");
    }

    #[test]
    fn faultless_mask_changes_nothing() {
        let shape = MeshShape::square(8);
        let route = |faults: bool| {
            let mut e = Engine::new(shape);
            if faults {
                e = e.with_faults(FaultMask::new(shape));
            }
            let b = full_bounds(shape);
            for i in 0..32u64 {
                let src = Coord::new((i % 8) as u32, (i / 8) as u32);
                let dst = Coord::new((i / 8) as u32, (i % 8) as u32);
                e.inject(src, mk(i, dst, b));
            }
            e.run(10_000).unwrap()
        };
        assert_eq!(route(false), route(true));
    }

    #[test]
    fn farthest_first_is_deterministic() {
        let shape = MeshShape::square(8);
        let run = || {
            let mut e = Engine::new(shape);
            let b = full_bounds(shape);
            for i in 0..32u64 {
                let src = Coord::new((i % 8) as u32, (i / 8) as u32);
                let dst = Coord::new((i / 8) as u32, (i % 8) as u32);
                e.inject(src, mk(i, dst, b));
            }
            e.run(10_000).unwrap()
        };
        assert_eq!(run(), run());
    }

    /// Full-observable equivalence of the sharded and sequential loops
    /// on a contended instance with faults; the randomized version lives
    /// in `tests/engine_oracle.rs`.
    #[test]
    fn sharded_run_matches_sequential() {
        let shape = MeshShape::square(16);
        let run = |threads: usize| {
            let mut mask = FaultMask::new(shape).with_salt(3);
            mask.kill_node(Coord::new(5, 5));
            mask.sever_link(Coord::new(9, 9), Dir::East);
            mask.degrade_link(Coord::new(0, 3), Dir::East, 300);
            let mut e = Engine::new(shape)
                .with_threads(threads)
                .with_trace()
                .with_faults(mask);
            let b = full_bounds(shape);
            let mut id = 0u64;
            for r in 0..16 {
                for c in 0..16 {
                    e.inject(Coord::new(r, c), mk(id, Coord::new(c, r), b));
                    // A second wave converging on one corner.
                    e.inject(Coord::new(r, c), mk(id + 256, Coord::new(0, 0), b));
                    id += 1;
                }
            }
            let stats = e.run(10_000).unwrap();
            let trace = e.trace().cloned().unwrap();
            (stats, e.drain_delivered().collect::<Vec<_>>(), trace)
        };
        let seq = run(1);
        for threads in [2, 3, 5, 16] {
            assert_eq!(seq, run(threads), "threads = {threads}");
        }
    }

    #[test]
    fn thread_count_is_clamped_and_reported() {
        let e = Engine::new(MeshShape::square(4)).with_threads(0);
        assert_eq!(e.threads(), 1);
        assert_eq!(
            Engine::new(MeshShape::square(4)).with_threads(7).threads(),
            7
        );
    }

    /// More workers than rows: the band count clamps to the row count
    /// and the run still matches the sequential outcome.
    #[test]
    fn more_threads_than_rows_is_fine() {
        let shape = MeshShape { rows: 3, cols: 9 };
        let run = |threads: usize| {
            let mut e = Engine::new(shape).with_threads(threads);
            let b = full_bounds(shape);
            for i in 0..27u64 {
                let src = shape.coord(i as u32);
                let dst = shape.coord(26 - i as u32);
                e.inject(src, mk(i, dst, b));
            }
            let stats = e.run(10_000).unwrap();
            (stats, e.drain_delivered().collect::<Vec<_>>())
        };
        assert_eq!(run(1), run(64));
    }

    /// `drain_delivered` yields every packet at its destination and
    /// leaves the backing buffer empty and reusable.
    #[test]
    fn drain_delivered_empties_the_list() {
        let shape = MeshShape::square(8);
        let mut e = Engine::new(shape);
        let b = full_bounds(shape);
        for i in 0..32u64 {
            let src = Coord::new((i % 8) as u32, (i / 8) as u32);
            let dst = Coord::new((i / 8) as u32, (i % 8) as u32);
            e.inject(src, mk(i, dst, b));
        }
        e.run(10_000).unwrap();
        let out: Vec<_> = e.drain_delivered().collect();
        assert_eq!(out.len(), 32);
        assert!(out.iter().all(|&(node, p)| node == shape.index(p.dest)));
        assert_eq!(e.drain_delivered().count(), 0, "drain must empty the list");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "install faults before injecting")]
    fn with_faults_after_inject_panics() {
        let shape = MeshShape::square(4);
        let mut e = Engine::new(shape);
        e.inject(
            Coord::new(0, 0),
            mk(0, Coord::new(1, 1), full_bounds(shape)),
        );
        let _ = e.with_faults(FaultMask::new(shape));
    }
}
