//! A textbook oracle for the packet engine (one `Vec` queue per node, each
//! synchronous step written out sequentially from the crate's public types)
//! and a proptest pinning every observable of [`Engine`] to it.

use prasim_mesh::engine::{EngineError, EngineStats};
use prasim_mesh::{topology::Dir, Coord, Engine, FaultMask, LinkTrace, MeshShape, Packet, Rect};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::cmp::Reverse;

/// A resident packet: the packet, detours taken so far, last hop.
type Flight = (Packet, u32, Option<Dir>);

struct Oracle {
    shape: MeshShape,
    mask: FaultMask,
    queues: Vec<Vec<Flight>>,
    trace: LinkTrace,
    /// Every packet delivered so far, in delivery order.
    delivered: Vec<(u32, Packet)>,
    stats: EngineStats,
}

impl Oracle {
    fn new(shape: MeshShape, mask: FaultMask) -> Self {
        Oracle {
            queues: vec![Vec::new(); shape.nodes() as usize],
            trace: LinkTrace::new(shape),
            delivered: Vec::new(),
            stats: EngineStats::default(),
            shape,
            mask,
        }
    }

    fn in_flight(&self) -> u64 {
        self.queues.iter().map(|q| q.len() as u64).sum()
    }

    /// Packets at or addressed to a dead node are dropped on the spot.
    fn inject(&mut self, src: Coord, p: Packet) {
        let dead = |c| self.mask.node_dead(self.shape.index(c));
        match dead(src) || dead(p.dest) {
            true => self.stats.dropped += 1,
            false => self.queues[self.shape.index(src) as usize].push((p, 0, None)),
        }
    }

    /// The hop out of `here` and whether it is a detour (`None`: stuck):
    /// improving hops, column before row as in greedy XY, then the rest in
    /// `Dir::ALL` order, undoing the last hop last; 2 (rows + cols) + 8 detours.
    fn choose(&self, here: Coord, &(p, detours, last): &Flight) -> Option<(Dir, bool)> {
        let (d, dist) = (p.dest, here.manhattan(p.dest));
        let improves = |x| matches!(self.shape.step(here, x), Some(n) if n.manhattan(d) < dist);
        let usable = |x: Dir| {
            let next = self.shape.step(here, x)?;
            let ok = p.bounds.contains(next)
                && !self.mask.link_severed(self.shape.index(here), x)
                && (next == d || !self.mask.node_dead(self.shape.index(next)))
                && (improves(x) || detours < 2 * (p.bounds.rows + p.bounds.cols) + 8);
            ok.then_some((x, !improves(x)))
        };
        let undo = |x: Dir| Some(x.opposite()) == last;
        let row = |x| x == Dir::North || x == Dir::South;
        let mut order = Dir::ALL;
        order.sort_by_key(|&x| (undo(x), !improves(x), improves(x) && row(x)));
        order.into_iter().find_map(usable)
    }

    /// Delivers arrived packets and drops those on dead nodes (swap-remove).
    fn absorb(&mut self) {
        for i in 0..self.queues.len() {
            let (here, dead) = (self.shape.coord(i as u32), self.mask.node_dead(i as u32));
            while let Some(j) = self.queues[i].iter().position(|f| dead || f.0.dest == here) {
                let (p, ..) = self.queues[i].swap_remove(j);
                match dead {
                    true => self.stats.dropped += 1,
                    false => self.delivered.push((i as u32, p)),
                }
            }
        }
    }

    /// One synchronous step: each link forwards its farthest-first packet
    /// (ties: lower id); movers land after every node has sent.
    fn step(&mut self) {
        let mut moves = Vec::new();
        for i in 0..self.queues.len() {
            let (here, q) = (self.shape.coord(i as u32), &self.queues[i]);
            let choice = &q.iter().map(|f| self.choose(here, f)).collect::<Vec<_>>();
            let rank = |&j: &usize| (Reverse(here.manhattan(q[j].0.dest)), q[j].0.id);
            let wants = |x: Dir| move |&j: &usize| choice[j].is_some_and(|c| c.0 == x);
            let won = Dir::ALL.map(|x| (0..q.len()).filter(wants(x)).min_by_key(rank));
            let leaves = |j: &usize| choice[*j].is_none() || won.contains(&Some(*j));
            for j in (0..q.len()).rev().filter(leaves).collect::<Vec<_>>() {
                let (p, detours, _) = self.queues[i].swap_remove(j);
                if let Some((x, detour)) = choice[j] {
                    self.trace.record(here, x);
                    self.stats.total_hops += 1;
                    let steps = self.stats.steps;
                    if !self.mask.traversal_lost(steps, i as u32, x, p.id) {
                        let next = self.shape.index(self.shape.step(here, x).unwrap());
                        moves.push((next as usize, (p, detours + detour as u32, Some(x))));
                        continue;
                    }
                }
                self.stats.dropped += 1;
            }
        }
        moves.into_iter().for_each(|(n, f)| self.queues[n].push(f));
        self.stats.steps += 1;
        let longest = self.queues.iter().map(Vec::len).max().unwrap_or(0);
        self.stats.max_queue = self.stats.max_queue.max(longest);
        self.absorb();
    }

    fn run(&mut self, max_steps: u64) -> Result<EngineStats, EngineError> {
        self.absorb();
        while self.in_flight() > 0 && self.stats.steps < max_steps {
            self.step();
        }
        self.stats.delivered = self.delivered.len() as u64;
        match self.in_flight() {
            0 => Ok(self.stats),
            in_flight => Err(EngineError::StepBudgetExceeded {
                max_steps,
                in_flight,
            }),
        }
    }
}

/// Packet `id` from node picks: kind 0 is self-addressed; odd kinds roam the
/// whole mesh, even ones stay in the box spanned by source, `dest` and `e`.
fn packet(shape: MeshShape, id: u64, (s, d, e, kind): (u32, u32, u32, u8)) -> Packet {
    let at = |i: u32| shape.coord(i % shape.nodes() as u32);
    let (src, e) = (at(s), at(e));
    let dest = if kind == 0 { src } else { at(d) };
    let span = |a: u32, b: u32, c: u32| (a.min(b).min(c), a.max(b).max(c) - a.min(b).min(c) + 1);
    let ((r0, rows), (c0, cols)) = (span(src.r, dest.r, e.r), span(src.c, dest.c, e.c));
    Packet {
        id,
        dest,
        bounds: [Rect { r0, c0, rows, cols }, Rect::full(shape)][kind as usize % 2],
        tag: shape.index(src).into(), // the tag carries the source
    }
}

/// Faults from `(node, kind, loss)` picks: kinds 0–3 kill, 4–7 sever, 8–11 degrade.
fn mask(shape: MeshShape, salt: u64, faults: &[(u32, u8, u16)]) -> FaultMask {
    let mut mask = FaultMask::new(shape).with_salt(salt);
    for &(node, kind, loss) in faults {
        let at = shape.coord(node % shape.nodes() as u32);
        match kind / 4 {
            0 => mask.kill_node(at),
            1 => mask.sever_link(at, Dir::ALL[kind as usize % 4]),
            _ => mask.degrade_link(at, Dir::ALL[kind as usize % 4], loss),
        }
    }
    mask
}

/// Hot-spot picks: `count` packets cycling through `picks` from spread
/// sources, each sent to one of the few `spots` — deep queues full of
/// equal-distance ties.
fn hot_picks(picks: &[Pick], spots: &[u32], count: usize) -> Vec<Pick> {
    (0..count)
        .map(|i| {
            let (s, _, e, kind) = picks[i % picks.len()];
            (s + 37 * i as u32, spots[i % spots.len()], e, kind)
        })
        .collect()
}

/// Ids `0..len` in an order drawn from `seed` (Fisher–Yates), so that
/// id order differs from injection order and queue position.
fn shuffled_ids(len: usize, mut seed: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..len as u64).collect();
    for i in (1..len).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ids.swap(i, (seed >> 33) as usize % (i + 1));
    }
    ids
}

/// Routes `packets` in two batches (the first under `budget`, leaving
/// packets in flight for the resumed run) through the engine and through
/// the oracle, comparing every observable.
fn check(
    shape: MeshShape,
    mask: Option<FaultMask>,
    packets: &[Packet],
    budget: u64,
    split: usize,
) -> Result<EngineStats, TestCaseError> {
    let (first, second) = packets.split_at(split.min(packets.len()));
    let mut engine = Engine::new(shape).with_trace();
    if let Some(m) = &mask {
        engine = engine.with_faults(m.clone());
    }
    let mut o = Oracle::new(shape, mask.clone().unwrap_or_else(|| FaultMask::new(shape)));
    for (batch, budget) in [(first, budget), (second, 100_000)] {
        for p in batch {
            engine.inject(shape.coord(p.tag as u32), *p);
            o.inject(shape.coord(p.tag as u32), *p);
        }
        let got = (engine.run(budget), engine.stats(), engine.in_flight());
        let seen = o.delivered.len();
        let want = (o.run(budget), o.stats, o.in_flight());
        prop_assert_eq!(got, want);
        prop_assert_eq!(engine.trace(), Some(&o.trace));
        let delivered: Vec<_> = engine.drain_delivered().collect();
        prop_assert_eq!(&delivered[..], &o.delivered[seen..]);
    }
    Ok(engine.stats())
}

/// A `(source, destination, box corner, kind)` pick for [`packet`].
type Pick = (u32, u32, u32, u8);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 1–10 rows and columns, with and without faults,
    /// ids shuffled against injection order; a tight first budget leaves
    /// packets for a second batch and a resumed run.
    #[test]
    fn engine_matches_oracle(
        (rows, cols) in (1u32..=10, 1u32..=10),
        picks in vec((0u32..100, 0u32..100, 0u32..100, 0u8..4), 1..80),
        id_seed in any::<u64>(),
        faults in prop::option::of((any::<u64>(), vec((0u32..100, 0u8..12, 100u16..800), 0..8))),
        (budget, split) in (prop::sample::select(&[1u64, 3, 6, 100_000]), 0usize..80),
    ) {
        let shape = MeshShape { rows, cols };
        let mask = faults.map(|(salt, f)| mask(shape, salt, &f));
        let ids = shuffled_ids(picks.len(), id_seed);
        let packets: Vec<_> = ids.into_iter().zip(picks).map(|(id, p)| packet(shape, id, p)).collect();
        check(shape, mask, &packets, budget, split)?;
    }

    /// The same comparison under hot-spot traffic: 60–240 packets for 1–3
    /// destinations, so queues run deep and full of distance ties.
    #[test]
    fn engine_matches_oracle_at_hot_spots(
        (rows, cols) in (1u32..=10, 1u32..=10),
        picks in vec((0u32..100, 0u32..100, 0u32..100, 0u8..4), 1..80),
        (spots, count) in (vec(0u32..100, 1..4), 60usize..240),
        id_seed in any::<u64>(),
        faults in prop::option::of((any::<u64>(), vec((0u32..100, 0u8..12, 100u16..800), 0..8))),
        (budget, split) in (prop::sample::select(&[1u64, 3, 6, 100_000]), 0usize..240),
    ) {
        let shape = MeshShape { rows, cols };
        let mask = faults.map(|(salt, f)| mask(shape, salt, &f));
        let picks = hot_picks(&picks, &spots, count);
        let ids = shuffled_ids(picks.len(), id_seed);
        let packets: Vec<_> = ids.into_iter().zip(picks).map(|(id, p)| packet(shape, id, p)).collect();
        check(shape, mask, &packets, budget, split)?;
    }
}

/// The hot-spot mode does what it is for: on a 10 × 10 mesh with and
/// without dead nodes, 240 packets for 2 destinations build queues of
/// 20 or more, and the engine still matches the oracle.
#[test]
fn hot_spot_builds_deep_queues() {
    let shape = MeshShape { rows: 10, cols: 10 };
    let picks: Vec<Pick> = (0..50)
        .map(|i| (i * 13, 0, i * 7, 1 + (i % 2) as u8))
        .collect();
    let picks = hot_picks(&picks, &[44, 45], 240);
    let ids = shuffled_ids(picks.len(), 9);
    let packets: Vec<_> = ids
        .into_iter()
        .zip(picks)
        .map(|(id, p)| packet(shape, id, p))
        .collect();
    let dead = mask(shape, 1, &[(34, 0, 0), (55, 0, 0)]);
    for faults in [None, Some(dead)] {
        let stats = check(shape, faults, &packets, 100_000, 0).unwrap();
        assert!(stats.max_queue >= 20, "max queue {}", stats.max_queue);
    }
}
