//! Synchronous store-and-forward packet engine whose step follows the
//! packets that move.
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
//! # Storage: occupied nodes and sorted per-link runs
//!
//! Packet payloads live in one [`PacketArena`] — ids, destinations,
//! bounds and tags as parallel arrays indexed by a [`PacketRef`]. A
//! waiting packet is a 20-byte `Slot`: the arena index, a cached copy of
//! the destination and the per-hop flight state (detour count, previous
//! hop, and the hop decided for this node).
//!
//! Nothing a packet's next hop depends on changes while it waits: its
//! destination, bounds, detour count and previous hop, and the static
//! fault mask. So the hop — direction, detour flag, or the verdict that
//! the packet is stuck — is **decided once, when the packet arrives** (or
//! is laid out at run start), and the packet joins its node's **run** for
//! that direction. Each node owns one block of the slot pool holding its
//! four runs side by side, each with its own capacity, so a node's
//! packets stay contiguous. A run is kept ordered by arbitration
//! priority with its winner last: nearer packets first, and among equal
//! distances larger ids first. A step therefore pops at most four
//! winners per node and rescans nothing; an arrival is inserted by a
//! short shift from the run's end, or by binary search into a long run.
//! A run that outgrows its capacity moves its node's block to the end of
//! the pool with that run's capacity doubled. The blocks it leaves behind
//! are garbage: once the pool has doubled since run start (or since the
//! last compaction), the end of a step slides the live blocks to the
//! front and frees the blocks of empty nodes, so the pool stays within
//! about twice the packets it holds.
//!
//! The engine keeps the list of occupied nodes, and a step visits only
//! those: compute pops each occupied node's winners, and the apply
//! half-step handles each arrival once — delivered, dropped on a dead
//! node, or decided and inserted — so it touches only nodes that receive
//! packets. A node's deliveries keep the order swap-removal produced when
//! every node kept one flat queue window and scanned its arrival tail:
//! arrivals are ranked by incoming link (north, west, east, south
//! neighbour, i.e. ascending source node), and the removal is replayed on
//! those ranks. Each step's deliveries are then ordered by node. Every
//! buffer — the pool, run table, occupied list, move and staging
//! buffers, the delivered list — is owned by the engine and cleared
//! (never dropped) between steps and runs, so after warmup the step loop
//! performs **zero heap allocation**; the `alloc_regression` integration test enforces this
//! with a counting global allocator.
//!
//! [`Packet`] remains the public boundary type: callers inject and drain
//! whole packets; [`Engine::drain_delivered`] materializes them from the
//! arena on the way out without cloning anything heap-allocated.
//!
//! # Faulted runs
//!
//! Without a [`FaultMask`] (or with an empty one) a packet's hop is its
//! greedy XY hop. With faults, it comes from a detour decision
//! (`StepCtx::choose_dir`) that avoids severed links and dead nodes,
//! prefers improving hops and spends a bounded detour budget. That
//! decision only differs from greedy XY next to a fault, so every node is
//! classified once per run with [`FaultMask::node_clear`] (no severed
//! out-link, no dead neighbour). On a clear node a packet takes
//! its greedy hop directly unless that hop would undo its previous one,
//! which the detour decision refuses; every other packet takes the full
//! decision. Both happen on arrival, like the fault-free choice. A
//! packet found stuck waits in the stuck list and is dropped in
//! the first compute pass after it arrived, exactly when a full rescan
//! would have found it. Lossy links keep every node clear: each
//! traversal's loss is decided as the packet moves.
//!
//! # Determinism
//!
//! A step is two half-steps over one set of queues: **compute** pops the
//! winners of the occupied nodes' runs into the move buffer, and
//! **apply** lands those moves in ascending source-node order. Arbitration
//! reads only a run's order (distance, then id), the arrival order at a
//! node is fixed by its incoming links, the lossy-link hash sees only the
//! step number, node, link and packet id, and deliveries are ordered by
//! node. So every arbitration decision, fault drop, detour, trace count
//! and the [`Engine::drain_delivered`] order is a function of the
//! injected packets and the fault mask alone. The `engine_oracle`
//! proptests pin all of it to a textbook oracle (one `Vec` queue per
//! node, rescanned every step).

use crate::arena::{PacketArena, PacketRef};
use crate::fault::FaultMask;
use crate::region::Rect;
use crate::topology::{Coord, Dir, MeshShape};
use crate::trace::LinkTrace;

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

/// Previous-hop value of [`Slot::dirs`] meaning "no previous hop".
const NO_DIR: u8 = 4;

/// One waiting packet (20 bytes): the arena index, a cached copy of its
/// (immutable) destination, and the per-hop flight state. The
/// destination is duplicated out of the arena because arbitration (the
/// comparisons placing each arrival in its run) and absorption (every
/// arrival) both need it; reading it from the slot avoids a gather from
/// the arena's destination column. The mutable state moves *with* the
/// packet between runs, so the arena is never written during a run.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Arena index ([`PacketRef`] payload).
    pkt: u32,
    /// Cached `arena.dest(pkt)`.
    dest: Coord,
    /// Non-improving hops taken so far to get around faults.
    detours: u32,
    /// Bits 0–2: direction index of the previous hop ([`NO_DIR`] =
    /// none); detours avoid immediately undoing it, which would
    /// otherwise oscillate in front of a blocked wall. Bits 3–4: the hop
    /// decided on arrival at the current node; bit 5: that hop is a
    /// detour.
    dirs: u8,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 20);

/// Filler for freshly sized pool positions; every live position is
/// overwritten before it is read.
const DUMMY_SLOT: Slot = Slot {
    pkt: u32::MAX,
    dest: Coord { r: 0, c: 0 },
    detours: 0,
    dirs: NO_DIR,
};

impl Slot {
    /// Direction index of the previous hop, or [`NO_DIR`].
    #[inline]
    fn last_dir(self) -> u8 {
        self.dirs & 7
    }

    /// Direction index of the hop decided at the current node.
    #[inline]
    fn hop(self) -> usize {
        (self.dirs >> 3 & 3) as usize
    }

    /// Records the hop decided at the current node.
    #[inline]
    fn decided(self, dir: Dir, detour: bool) -> Slot {
        Slot {
            dirs: self.last_dir() | (dir.index() as u8) << 3 | (detour as u8) << 5,
            ..self
        }
    }

    /// The slot after taking its decided hop: a detour is counted and
    /// the hop becomes the previous one.
    #[inline]
    fn moved(self) -> Slot {
        Slot {
            detours: self.detours + (self.dirs >> 5 & 1) as u32,
            dirs: self.hop() as u8,
            ..self
        }
    }
}

/// Arrival order at a node by the direction the packet moved in: from
/// the north neighbour (moved south), the west (east), the east (west),
/// the south (north) — ascending source node.
const ARRIVAL_RANK: [usize; 4] = [3, 1, 0, 2];

/// `Lane::flags` bit: the node is dead.
const DEAD: u8 = 1;

/// `Lane::flags` bit: greedy XY hops out of the node need no detour
/// decision — always without faults, else when [`FaultMask::node_clear`]
/// holds (no severed out-link, no dead neighbour).
const CLEAR: u8 = 2;

/// The slot pool may grow to this many times its length after
/// layout (counted as at least one slot per node) or after the last
/// `compact` before `compact` drops the garbage `grow_run` leaves.
const POOL_GROWTH: usize = 2;

/// Capacity `grow_run` gives a run that had none.
const MIN_RUN: u32 = 2;

/// Immutable inputs of one synchronous step.
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

    /// Decides a packet's hop out of `here`, once, as it arrives: its
    /// direction and whether that hop is a detour, or `None` if it is
    /// stuck. On a `clear` node (see [`CLEAR`]) `choose_dir`
    /// would answer the greedy XY hop as a non-detour — greedy is its
    /// first candidate, the hop stays inside the bounds, its link is
    /// intact, its target alive, and it improves, so the detour budget
    /// is moot — except that its reversal filter refuses a greedy hop
    /// that undoes the previous one, so that packet takes the full
    /// decision.
    #[inline]
    fn decide(
        &self,
        here: Coord,
        clear: bool,
        arena: &PacketArena,
        s: Slot,
    ) -> Option<(Dir, bool)> {
        let greedy =
            Self::next_dir(here, s.dest).expect("a waiting packet is never at its destination");
        if clear && s.last_dir() != greedy.opposite().index() as u8 {
            return Some((greedy, false));
        }
        self.choose_dir(here, arena, s, greedy)
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
        let last = s.last_dir();
        let reverse = (last != NO_DIR).then(|| Dir::ALL[last as usize].opposite());
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

/// One node's block in the slot pool: run `d` (the packets
/// waiting to hop in direction `d`, in arbitration order with the winner
/// last: nearer to the destination first, and on equal distance larger
/// id first) is `pool[start[d] .. start[d] + len[d]]`, with room up to
/// `start[d + 1]`; `start[4]` ends the block.
#[derive(Debug, Clone, Copy, Default)]
struct Runs {
    start: [u32; 5],
    len: [u32; 4],
}

impl Runs {
    /// Packets waiting at the node (stuck ones excluded).
    #[inline]
    fn total(&self) -> u32 {
        self.len.iter().sum()
    }
}

/// Moves a node's block `r` to the end of `pool` with run `d`'s
/// capacity doubled (or set to [`MIN_RUN`] from none), keeping every
/// run's packets and order. The old block is left as garbage until
/// `compact` or the next run start rebuilds the pool.
fn grow_run(pool: &mut Vec<Slot>, r: &mut Runs, d: usize) {
    let old = *r;
    let mut new = Runs {
        start: [pool.len() as u32; 5],
        len: old.len,
    };
    for e in 0..4 {
        let cap = old.start[e + 1] - old.start[e];
        let cap = if e == d { (2 * cap).max(MIN_RUN) } else { cap };
        new.start[e + 1] = new.start[e] + cap;
    }
    pool.resize(new.start[4] as usize, DUMMY_SLOT);
    for e in 0..4 {
        let from = old.start[e] as usize;
        pool.copy_within(from..from + old.len[e] as usize, new.start[e] as usize);
    }
    *r = new;
}

/// Rebuilds `pool` in place, dropping the garbage `grow_run` leaves:
/// the occupied nodes' blocks slide to the front in pool order, keeping
/// their runs' capacities, and every empty node gives its block up.
/// Sorts `occupied`, whose order nothing observes.
fn compact(pool: &mut Vec<Slot>, runs: &mut [Runs], occupied: &mut [u32]) {
    for r in runs.iter_mut().filter(|r| r.total() == 0) {
        *r = Runs::default();
    }
    occupied.sort_unstable_by_key(|&local| runs[local as usize].start[0]);
    // Blocks only move towards the front, and in pool order, so no copy
    // overwrites a packet that is still to be moved.
    let mut at = 0;
    for &local in occupied.iter() {
        let r = &mut runs[local as usize];
        let old = *r;
        for d in 0..4 {
            let from = old.start[d] as usize;
            pool.copy_within(from..from + old.len[d] as usize, at as usize);
            r.start[d] = at;
            at += old.start[d + 1] - old.start[d];
        }
        r.start[4] = at;
    }
    pool.truncate(at as usize);
}

/// Inserts `s` into run `d` of the node at `here` (block `r`) in
/// arbitration order, growing the run first if it is full. Short runs
/// shift from the end; longer ones are binary-searched. On the quorum
/// whole-mesh spread 99% of insertions meet a run of at most 8 packets,
/// where the shift is faster (a binary search alone made the criterion
/// `engine_step` cases 10–15% slower); hot spots and deep queues build
/// runs of hundreds, where the shift alone made `prasim simulate --n
/// 1024 --k 6` take 64 s instead of 38 s.
fn insert(pool: &mut Vec<Slot>, r: &mut Runs, arena: &PacketArena, here: Coord, d: usize, s: Slot) {
    if r.start[d] + r.len[d] == r.start[d + 1] {
        grow_run(pool, r, d);
    }
    let (start, len) = (r.start[d] as usize, r.len[d] as usize);
    r.len[d] += 1;
    let run = &mut pool[start..start + len + 1];
    if len == 0 {
        run[0] = s;
        return;
    }
    // Whether `x` loses to `s`: nearer, or as far with a larger id. Ids
    // are read from the arena only on a distance tie.
    let (dist, id) = (here.manhattan(s.dest), arena.id(PacketRef(s.pkt)));
    let loses = |x: &Slot| {
        let dx = here.manhattan(x.dest);
        dx < dist || (dx == dist && arena.id(PacketRef(x.pkt)) > id)
    };
    if len <= 8 {
        let mut pos = len;
        while pos > 0 && !loses(&run[pos - 1]) {
            run[pos] = run[pos - 1];
            pos -= 1;
        }
        run[pos] = s;
    } else {
        let pos = run[..len].partition_point(loses);
        run.copy_within(pos..len, pos + 1);
        run[pos] = s;
    }
}

/// Swap-removal over `q`, which holds a node's arrivals in arrival
/// order: scans from the front, and each element `take` accepts is
/// replaced by the last one, which is examined next. This is how a flat
/// queue's arrival tail was absorbed, so it fixes the delivered order.
/// `take` sees every element exactly once; returns how many remain,
/// compacted to the front.
fn swap_remove_where<T: Copy>(q: &mut [T], mut take: impl FnMut(T) -> bool) -> usize {
    let (mut i, mut len) = (0, q.len());
    while i < len {
        if take(q[i]) {
            len -= 1;
            q[i] = q[len];
        } else {
            i += 1;
        }
    }
    len
}

/// The engine's queues and step scratch: the slot pool with one block of
/// runs per node, the occupied-node list, the stuck list, plus every
/// per-step buffer a step needs — all engine-persistent, all cleared
/// rather than dropped, so a warm step allocates nothing.
#[derive(Debug, Default)]
struct Lane {
    /// Slot storage for every node's block of runs.
    pool: Vec<Slot>,
    /// Per-node block of runs in `pool`.
    runs: Vec<Runs>,
    /// Pool length past which the end of a step runs `compact`.
    compact_at: usize,
    /// Per-node [`DEAD`] and [`CLEAR`] bits, fixed for a run.
    flags: Vec<u8>,
    /// Nodes with at least one packet in a run, in no particular order;
    /// each appears once.
    occupied: Vec<u32>,
    /// Packets found stuck on arrival, as `(node, slot)`; the next
    /// compute pass drops them.
    stuck: Vec<(u32, Slot)>,
    /// This step's moves in source-node order, swapped into `staging`
    /// between the half-steps (capacity ping-pongs between the two).
    out: Vec<(Coord, Slot)>,
    /// The moves the apply half-step lands.
    staging: Vec<(Coord, Slot)>,
    /// Apply scratch, per node, zero between steps: the incoming links
    /// this step's arrivals used, by [`ARRIVAL_RANK`] (bits 0–3), and how
    /// many of them did not join a run (bits 4–7).
    arrived: Vec<u8>,
    /// Apply scratch: this step's deliveries as `(node · 4 + arrival
    /// rank, arena index)`.
    landed: Vec<(u32, u32)>,
    /// Largest queue seen this step (compute's survivors, then apply's
    /// survivors + arrivals).
    max_queue: usize,
}

/// The compute half-step: drop the packets found stuck on arrival, then
/// pop the winner of every non-empty run of every occupied node and
/// append the moves to `lane.out`. Returns `(hops, dropped)`.
fn compute_lane(
    ctx: &StepCtx<'_>,
    arena: &PacketArena,
    lane: &mut Lane,
    mut trace: Option<&mut [[u64; 4]]>,
) -> (u64, u64) {
    let Lane {
        pool,
        runs,
        occupied,
        stuck,
        out,
        max_queue,
        ..
    } = lane;
    // A stuck verdict takes effect in the first compute pass after the
    // packet arrived, as a rescan of its queue would have found it.
    let mut dropped = stuck.len() as u64;
    stuck.clear();
    let lossy = ctx.faults.filter(|m| m.lossy_links() > 0);
    let mut hops = 0u64;
    let mut most = 0;
    let mut kept = 0;
    for i in 0..occupied.len() {
        let idx = occupied[i];
        let here = ctx.shape.coord(idx);
        let r = &mut runs[idx as usize];
        for (d, dir) in Dir::ALL.into_iter().enumerate() {
            if r.len[d] == 0 {
                continue;
            }
            r.len[d] -= 1;
            let s = pool[(r.start[d] + r.len[d]) as usize];
            if let Some(counts) = trace.as_deref_mut() {
                counts[idx as usize][d] += 1;
            }
            hops += 1;
            let lost = lossy
                .is_some_and(|m| m.traversal_lost(ctx.step, idx, dir, arena.id(PacketRef(s.pkt))));
            if lost {
                dropped += 1;
                continue;
            }
            let next = ctx
                .shape
                .step(here, dir)
                .expect("XY routing within bounds cannot leave the mesh");
            debug_assert!(
                arena.bounds(PacketRef(s.pkt)).contains(next),
                "packet left its bounds"
            );
            out.push((next, s.moved()));
        }
        let left = r.total();
        most = most.max(left);
        if left > 0 {
            occupied[kept] = idx;
            kept += 1;
        }
    }
    occupied.truncate(kept);
    *max_queue = most as usize;
    (hops, dropped)
}

/// The apply half-step over the staged arrivals (in source-node order):
/// each arrival is dropped on a dead node, delivered at its destination,
/// or has its next hop decided and joins its run (or the stuck list).
/// Deliveries are appended to `delivered` in node order, each node's in
/// the order swap-removal over its arrivals — ranked by incoming link —
/// produces. Returns the largest queue — measured after arrivals land
/// and before absorption — and the dead-node drop count.
fn apply_lane(
    ctx: &StepCtx<'_>,
    arena: &PacketArena,
    lane: &mut Lane,
    delivered: &mut Vec<(u32, u32)>,
) -> (usize, u64) {
    let Lane {
        pool,
        runs,
        compact_at,
        flags,
        occupied,
        stuck,
        staging,
        arrived,
        landed,
        max_queue,
        ..
    } = lane;
    let mut most = *max_queue as u32;
    let mut dropped = 0u64;
    for &(here, s) in staging.iter() {
        let idx = ctx.shape.index(here);
        let node = idx as usize;
        let rank = ARRIVAL_RANK[s.last_dir() as usize];
        arrived[node] |= 1 << rank;
        let r = &mut runs[node];
        let joined = if flags[node] & DEAD != 0 {
            dropped += 1;
            false
        } else if s.dest == here {
            landed.push((idx << 2 | rank as u32, s.pkt));
            false
        } else {
            match ctx.decide(here, flags[node] & CLEAR != 0, arena, s) {
                Some((dir, detour)) => {
                    if r.total() == 0 {
                        occupied.push(idx);
                    }
                    insert(pool, r, arena, here, dir.index(), s.decided(dir, detour));
                    true
                }
                None => {
                    stuck.push((idx, s));
                    false
                }
            }
        };
        if !joined {
            arrived[node] += 1 << 4;
        }
        // Arrivals only ever add to a node during apply, so its last
        // arrival sees its full survivors + arrivals count.
        most = most.max(r.total() + (arrived[node] >> 4) as u32);
    }
    if !landed.is_empty() {
        // Replay the swap-removal over each node's arrivals in rank
        // order; arrivals that did not land only fill their positions.
        landed.sort_unstable_by_key(|&(key, _)| key);
        for group in landed.chunk_by(|a, b| a.0 >> 2 == b.0 >> 2) {
            let node = group[0].0 >> 2;
            let links = arrived[node as usize] & 15;
            let mut ranks = [0u32; 4];
            let mut len = 0;
            for rank in (0..4).filter(|rank| links >> rank & 1 != 0) {
                ranks[len] = rank;
                len += 1;
            }
            swap_remove_where(&mut ranks[..len], |rank| {
                let at = group.iter().find(|&&(key, _)| key & 3 == rank);
                if let Some(&(_, pkt)) = at {
                    delivered.push((node, pkt));
                }
                at.is_some()
            });
        }
        landed.clear();
    }
    for &(here, _) in staging.iter() {
        arrived[ctx.shape.index(here) as usize] = 0;
    }
    if pool.len() > *compact_at {
        compact(pool, runs, occupied);
        *compact_at = (*compact_at).max(POOL_GROWTH * pool.len());
    }
    *max_queue = most as usize;
    (*max_queue, dropped)
}

/// The packet engine. Inject packets, then [`Engine::run`]; delivered
/// packets are collected per destination node.
#[derive(Debug)]
pub struct Engine {
    shape: MeshShape,
    /// Struct-of-arrays store of every injected packet.
    arena: PacketArena,
    /// Packets injected since the last run: `(node, slot)` in injection
    /// order, laid into the lane at the next run start.
    pending: Vec<(u32, Slot)>,
    /// Queue storage and step scratch.
    lane: Lane,
    /// Layout scratch: per-node packet counts, then pool offsets.
    counts: Vec<u32>,
    /// Layout scratch: what a previous run left in flight, regathered.
    gather: Vec<(u32, Slot)>,
    /// Delivered packets as `(destination node, arena index)`.
    delivered: Vec<(u32, u32)>,
    in_flight: u64,
    stats: EngineStats,
    /// Optional per-link traversal recording (see [`crate::trace`]).
    trace: Option<LinkTrace>,
    /// Broken nodes and links for this run, if any.
    faults: Option<FaultMask>,
}

impl Engine {
    /// An empty engine on the given mesh.
    pub fn new(shape: MeshShape) -> Self {
        Engine {
            shape,
            arena: PacketArena::new(),
            pending: Vec::new(),
            lane: Lane::default(),
            counts: Vec::new(),
            gather: Vec::new(),
            delivered: Vec::new(),
            in_flight: 0,
            stats: EngineStats::default(),
            trace: None,
            faults: None,
        }
    }

    /// Returns the engine to its post-[`Engine::new`] state while keeping
    /// every allocation (arena columns, lane buffers), so a pooled engine
    /// can be reused across protocol stages without paying the buffer
    /// build again. Trace, faults, stats, queues and delivered packets
    /// are cleared.
    pub fn reset(&mut self) {
        self.arena.clear();
        self.pending.clear();
        self.gather.clear();
        self.lane.occupied.clear();
        self.lane.stuck.clear();
        self.lane.out.clear();
        self.lane.staging.clear();
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
                dirs: NO_DIR,
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
    /// [`Engine::stats`]).
    pub fn run(&mut self, max_steps: u64) -> Result<EngineStats, EngineError> {
        // Also delivers packets already at their destination.
        self.layout();
        while self.in_flight > 0 {
            if self.stats.steps >= max_steps {
                return Err(EngineError::StepBudgetExceeded {
                    max_steps,
                    in_flight: self.in_flight,
                });
            }
            self.step();
        }
        Ok(self.stats)
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

    /// Lays the resident and pending packets out into the lane at run
    /// start. Whatever a previous run left in flight is regathered;
    /// every packet is grouped by node — residents first, then pending
    /// packets in injection order — and each node's group is absorbed by
    /// swap-removal (only pending packets can be at their destination),
    /// so deliveries come out in node order. Every other packet's hop is
    /// decided, and the node's runs are built by one sort of its group.
    /// All scratch is persistent; a warm layout allocates nothing.
    fn layout(&mut self) {
        let Engine {
            shape,
            arena,
            pending,
            lane,
            counts,
            gather,
            delivered,
            in_flight,
            stats,
            faults,
            ..
        } = self;
        // Regather residents. Their order is not observable: none is at
        // its destination, and arbitration orders each run by itself.
        gather.clear();
        for &node in &lane.occupied {
            let r = lane.runs[node as usize];
            for d in 0..4 {
                let from = r.start[d] as usize;
                let run = &lane.pool[from..from + r.len[d] as usize];
                gather.extend(run.iter().map(|&s| (node, s)));
            }
        }
        gather.extend_from_slice(&lane.stuck);
        // Group every packet by node, straight into the pool: residents
        // first, then pending packets in injection order. After the
        // scatter, node `i` holds `pool[counts[i - 1] .. counts[i]]` (from
        // 0 for node 0).
        let nodes = shape.nodes() as usize;
        counts.clear();
        counts.resize(nodes, 0);
        for &(node, _) in gather.iter().chain(pending.iter()) {
            counts[node as usize] += 1;
        }
        let mut off = 0;
        for count in counts.iter_mut() {
            (*count, off) = (off, off + *count);
        }
        let Lane {
            pool,
            runs,
            compact_at,
            flags,
            occupied,
            stuck,
            out,
            staging,
            arrived,
            ..
        } = lane;
        pool.clear();
        pool.resize(off as usize, DUMMY_SLOT);
        *compact_at = POOL_GROWTH * (off as usize).max(nodes);
        runs.clear();
        runs.resize(nodes, Runs::default());
        arrived.clear();
        arrived.resize(nodes, 0);
        flags.clear();
        match faults.as_ref().filter(|m| !m.is_empty()) {
            None => flags.resize(nodes, CLEAR),
            Some(m) => flags.extend(
                (0..nodes as u32)
                    .map(|i| (m.node_dead(i) as u8 * DEAD) | (m.node_clear(i) as u8 * CLEAR)),
            ),
        }
        occupied.clear();
        stuck.clear();
        out.clear();
        staging.clear();
        for &(node, s) in gather.iter().chain(pending.iter()) {
            let at = &mut counts[node as usize];
            pool[*at as usize] = s;
            *at += 1;
        }
        gather.clear();
        pending.clear();
        // Per node: absorb, decide every other packet's hop, and sort the
        // group into its four runs in place. A run's capacity is its
        // length, so its first arrival moves the block (see `grow_run`).
        let ctx = StepCtx {
            shape: *shape,
            faults: faults.as_ref(),
            step: stats.steps,
        };
        let arena = &*arena;
        let delivered_before = delivered.len();
        let mut dropped = 0u64;
        for node in 0..nodes as u32 {
            let from = if node == 0 {
                0
            } else {
                counts[node as usize - 1]
            };
            let group = &mut pool[from as usize..counts[node as usize] as usize];
            if group.is_empty() {
                continue;
            }
            let here = shape.coord(node);
            let flag = flags[node as usize];
            let n = if flag & DEAD != 0 {
                dropped += group.len() as u64;
                0
            } else {
                swap_remove_where(group, |s| {
                    let at = s.dest == here;
                    if at {
                        delivered.push((node, s.pkt));
                    }
                    at
                })
            };
            let clear = flag & CLEAR != 0;
            let mut kept = 0;
            for i in 0..n {
                let s = group[i];
                match ctx.decide(here, clear, arena, s) {
                    Some((dir, detour)) => {
                        group[kept] = s.decided(dir, detour);
                        kept += 1;
                    }
                    None => stuck.push((node, s)),
                }
            }
            if kept == 0 {
                continue;
            }
            let group = &mut group[..kept];
            group.sort_unstable_by(|a, b| {
                let key = |s: &Slot| (s.hop(), here.manhattan(s.dest));
                key(a).cmp(&key(b)).then_with(|| {
                    let id = |s: &Slot| arena.id(PacketRef(s.pkt));
                    id(b).cmp(&id(a))
                })
            });
            let r = &mut runs[node as usize];
            r.start = [from; 5];
            for s in group.iter() {
                r.len[s.hop()] += 1;
            }
            for d in 0..4 {
                r.start[d + 1] = r.start[d] + r.len[d];
            }
            occupied.push(node);
        }
        let delivered = (delivered.len() - delivered_before) as u64;
        stats.delivered += delivered;
        stats.dropped += dropped;
        *in_flight -= delivered + dropped;
    }

    /// One synchronous step: compute, hand the moves over, apply.
    fn step(&mut self) {
        let ctx = StepCtx {
            shape: self.shape,
            faults: self.faults.as_ref(),
            step: self.stats.steps,
        };
        let lane = &mut self.lane;
        let (hops, moved_drops) = compute_lane(
            &ctx,
            &self.arena,
            lane,
            self.trace.as_mut().map(LinkTrace::counts_mut),
        );
        // The move buffer becomes the staging buffer (capacity ping-pongs
        // between the two roles instead of being reallocated).
        std::mem::swap(&mut lane.staging, &mut lane.out);
        lane.out.clear();
        let delivered_before = self.delivered.len();
        let (max_queue, dead_drops) = apply_lane(&ctx, &self.arena, lane, &mut self.delivered);
        let dropped = moved_drops + dead_drops;
        let delivered = (self.delivered.len() - delivered_before) as u64;
        self.stats.steps += 1;
        self.stats.total_hops += hops;
        self.stats.max_queue = self.stats.max_queue.max(max_queue);
        self.stats.dropped += dropped;
        self.stats.delivered += delivered;
        self.in_flight -= dropped + delivered;
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

    /// A budget-exceeded run leaves packets in flight; a follow-up run
    /// must finish the job with cumulative stats, exactly as one
    /// uninterrupted run would. Exercises the resident-regather path of
    /// `layout`.
    #[test]
    fn interrupted_run_resumes() {
        let shape = MeshShape::square(8);
        let fresh = || {
            let mut e = Engine::new(shape);
            let b = full_bounds(shape);
            for i in 0..16u64 {
                e.inject(shape.coord(i as u32), mk(i, Coord::new(7, 7), b));
            }
            e
        };
        let mut whole = fresh();
        let stats = whole.run(10_000).unwrap();
        let uninterrupted = (stats, whole.drain_delivered().collect::<Vec<_>>());
        let mut e = fresh();
        assert!(e.run(2).is_err());
        assert!(e.in_flight() > 0);
        let stats = e.run(10_000).unwrap();
        let resumed = (stats, e.drain_delivered().collect::<Vec<_>>());
        assert_eq!(resumed.0.delivered, 16);
        assert_eq!(uninterrupted, resumed);
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
