//! Static fault masks for the mesh: dead nodes, severed links and lossy
//! links.
//!
//! A [`FaultMask`] describes which components of the machine are broken
//! *during one engine run*. The engine consults it on injection, on every
//! forwarding decision and on arrival:
//!
//! - a **dead node** neither originates, forwards nor receives packets —
//!   anything injected at it, routed through it or addressed to it is
//!   dropped (and counted in `EngineStats::dropped`);
//! - a **severed link** carries no packets at all; greedy XY routing
//!   detours around it within the packet's bounding rectangle, giving up
//!   (dropping) when a bounded detour budget is exhausted;
//! - a **lossy link** carries packets but drops each traversal with a
//!   fixed per-mille probability, decided by a deterministic hash of
//!   `(salt, step, link, packet id)` so that identical runs lose identical
//!   packets.
//!
//! Links are undirected: severing or degrading `(node, dir)` affects both
//! traversal directions. Time-varying fault schedules are layered on top
//! by `prasim-fault`, which materializes one mask per PRAM step.
//!
//! # Storage
//!
//! The mask sits on the engine's hottest paths — `node_clear` (one
//! severed-nibble load, up to four neighbour liveness bits) runs once
//! per occupied node per step, `node_dead` once per node that receives
//! packets, and `link_severed` per candidate direction of every detour
//! decision next to a fault — so faults are stored as dense bitsets
//! rather than hash maps: one bit per node for liveness, one bit per
//! directed `(node, dir)` key for severed links, and a dense `u16`
//! per-mille table for lossy links. The link tables are allocated lazily
//! on the first sever/degrade, so the common all-links-healthy mask
//! costs one `nodes / 8`-byte liveness bitset and nothing else.

use crate::topology::{Coord, Dir, MeshShape};

/// Deterministic per-traversal loss decision hash (SplitMix64 finalizer).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Dense directed-link key: `node * 4 + direction`.
#[inline]
fn link_key(idx: u32, dir: Dir) -> usize {
    idx as usize * 4 + dir.index()
}

/// Which mesh components are broken during one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMask {
    shape: MeshShape,
    /// Per-node liveness bitset; a set bit = dead.
    dead: Vec<u64>,
    /// Severed bitset over directed `(node, dir)` keys, stored for both
    /// endpoints; empty until the first sever.
    severed: Vec<u64>,
    /// Loss rate in per-mille per directed `(node, dir)` key, stored for
    /// both endpoints; empty until the first degrade.
    lossy: Vec<u16>,
    /// Salt for the deterministic loss hash.
    salt: u64,
    dead_count: u64,
    severed_count: u64,
    lossy_count: u64,
}

impl FaultMask {
    /// A mask with no faults.
    pub fn new(shape: MeshShape) -> Self {
        FaultMask {
            dead: vec![0; (shape.nodes() as usize).div_ceil(64)],
            severed: Vec::new(),
            lossy: Vec::new(),
            salt: 0,
            dead_count: 0,
            severed_count: 0,
            lossy_count: 0,
            shape,
        }
    }

    /// Sets the salt mixed into every loss decision.
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// The mesh this mask applies to.
    #[inline]
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// Marks a node dead.
    pub fn kill_node(&mut self, at: Coord) {
        let idx = self.shape.index(at) as usize;
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.dead[word] & bit == 0 {
            self.dead[word] |= bit;
            self.dead_count += 1;
        }
    }

    /// Severs the undirected link `(at, dir)`, if it exists.
    pub fn sever_link(&mut self, at: Coord, dir: Dir) {
        if let Some((a, b)) = self.endpoints(at, dir) {
            if self.severed.is_empty() {
                self.severed = vec![0; (self.shape.nodes() as usize * 4).div_ceil(64)];
            }
            let (word, bit) = (a / 64, 1u64 << (a % 64));
            if self.severed[word] & bit == 0 {
                self.severed_count += 1;
            }
            self.severed[word] |= bit;
            self.severed[b / 64] |= 1u64 << (b % 64);
        }
    }

    /// Makes the undirected link `(at, dir)` drop each traversal with
    /// probability `per_mille`/1000 (clamped to 1000).
    pub fn degrade_link(&mut self, at: Coord, dir: Dir, per_mille: u16) {
        let per_mille = per_mille.min(1000);
        if per_mille == 0 {
            return;
        }
        if let Some((a, b)) = self.endpoints(at, dir) {
            if self.lossy.is_empty() {
                self.lossy = vec![0; self.shape.nodes() as usize * 4];
            }
            if self.lossy[a] == 0 {
                self.lossy_count += 1;
            }
            self.lossy[a] = per_mille;
            self.lossy[b] = per_mille;
        }
    }

    /// Both directed keys of the undirected link `(at, dir)`, or `None`
    /// for a border non-link.
    fn endpoints(&self, at: Coord, dir: Dir) -> Option<(usize, usize)> {
        let next = self.shape.step(at, dir)?;
        Some((
            link_key(self.shape.index(at), dir),
            link_key(self.shape.index(next), dir.opposite()),
        ))
    }

    /// Whether the node with this index is dead.
    #[inline]
    pub fn node_dead(&self, idx: u32) -> bool {
        self.dead[idx as usize / 64] >> (idx as usize % 64) & 1 != 0
    }

    /// Whether the link out of `idx` in direction `dir` is severed.
    #[inline]
    pub fn link_severed(&self, idx: u32, dir: Dir) -> bool {
        if self.severed.is_empty() {
            return false;
        }
        let key = link_key(idx, dir);
        self.severed[key / 64] >> (key % 64) & 1 != 0
    }

    /// Whether no fault borders the node with this index: none of its
    /// out-links is severed and none of its neighbours is dead. From such
    /// a node every improving hop inside a packet's bounds is usable, so
    /// the engine routes its packets greedily without a per-packet
    /// detour decision. Lossy links do not count; their losses are
    /// decided per traversal.
    #[inline]
    pub fn node_clear(&self, idx: u32) -> bool {
        if !self.severed.is_empty() {
            // The node's four directed keys are one aligned nibble.
            let key = link_key(idx, Dir::North);
            if self.severed[key / 64] >> (key % 64) & 0xF != 0 {
                return false;
            }
        }
        if self.dead_count == 0 {
            return true;
        }
        let here = self.shape.coord(idx);
        Dir::ALL.into_iter().all(|d| {
            self.shape
                .step(here, d)
                .is_none_or(|next| !self.node_dead(self.shape.index(next)))
        })
    }

    /// The loss rate of the link out of `idx` in direction `dir`, in
    /// per-mille (0 = lossless).
    #[inline]
    pub fn loss_rate(&self, idx: u32, dir: Dir) -> u16 {
        if self.lossy.is_empty() {
            return 0;
        }
        self.lossy[link_key(idx, dir)]
    }

    /// Whether a traversal of `(idx, dir)` by packet `pkt_id` at engine
    /// step `step` is lost. Deterministic in all arguments and the salt.
    pub fn traversal_lost(&self, step: u64, idx: u32, dir: Dir, pkt_id: u64) -> bool {
        let per_mille = self.loss_rate(idx, dir);
        if per_mille == 0 {
            return false;
        }
        let h = mix(self.salt
            ^ mix(step)
            ^ mix((idx as u64) << 2 | dir.index() as u64).rotate_left(17)
            ^ mix(pkt_id).rotate_left(34));
        (h % 1000) < per_mille as u64
    }

    /// Whether the mask contains no faults at all (fast-path check).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dead_count == 0 && self.severed_count == 0 && self.lossy_count == 0
    }

    /// Number of dead nodes.
    pub fn dead_nodes(&self) -> u64 {
        self.dead_count
    }

    /// Number of severed undirected links.
    pub fn severed_links(&self) -> u64 {
        self.severed_count
    }

    /// Number of lossy undirected links.
    pub fn lossy_links(&self) -> u64 {
        self.lossy_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sever_is_symmetric() {
        let shape = MeshShape::square(4);
        let mut m = FaultMask::new(shape);
        m.sever_link(Coord::new(1, 1), Dir::East);
        assert!(m.link_severed(shape.index(Coord::new(1, 1)), Dir::East));
        assert!(m.link_severed(shape.index(Coord::new(1, 2)), Dir::West));
        assert!(!m.link_severed(shape.index(Coord::new(1, 1)), Dir::West));
        assert_eq!(m.severed_links(), 1);
    }

    #[test]
    fn border_links_are_ignored() {
        let shape = MeshShape::square(4);
        let mut m = FaultMask::new(shape);
        m.sever_link(Coord::new(0, 0), Dir::North);
        m.degrade_link(Coord::new(0, 0), Dir::West, 500);
        assert!(m.is_empty());
        assert!(!m.link_severed(shape.index(Coord::new(0, 0)), Dir::North));
        assert_eq!(m.loss_rate(shape.index(Coord::new(0, 0)), Dir::West), 0);
    }

    #[test]
    fn loss_is_deterministic_and_rate_limited() {
        let shape = MeshShape::square(4);
        let mut m = FaultMask::new(shape).with_salt(7);
        m.degrade_link(Coord::new(2, 2), Dir::South, 250);
        let idx = shape.index(Coord::new(2, 2));
        let mut losses = 0;
        for step in 0..4000 {
            let a = m.traversal_lost(step, idx, Dir::South, step * 3);
            let b = m.traversal_lost(step, idx, Dir::South, step * 3);
            assert_eq!(a, b);
            if a {
                losses += 1;
            }
        }
        // 250‰ nominal; allow wide slack, but it must be neither 0 nor 1.
        assert!(losses > 500 && losses < 1500, "losses = {losses}");
        // Reverse direction of the same undirected link is also lossy.
        let rev = shape.index(Coord::new(3, 2));
        assert_eq!(m.loss_rate(rev, Dir::North), 250);
        // Unrelated link is clean.
        assert!(!m.traversal_lost(0, shape.index(Coord::new(0, 0)), Dir::East, 1));
    }

    #[test]
    fn node_clear_sees_both_link_endpoints_and_dead_neighbours() {
        let shape = MeshShape::square(4);
        let clear = |m: &FaultMask, r, c| m.node_clear(shape.index(Coord::new(r, c)));
        let mut m = FaultMask::new(shape);
        m.degrade_link(Coord::new(1, 1), Dir::East, 1000);
        assert!(
            (0..16).all(|i| m.node_clear(i)),
            "lossy links keep nodes clear"
        );
        m.sever_link(Coord::new(1, 1), Dir::East);
        assert!(!clear(&m, 1, 1) && !clear(&m, 1, 2));
        assert!(clear(&m, 0, 1) && clear(&m, 2, 2));
        m.kill_node(Coord::new(3, 3));
        assert!(!clear(&m, 2, 3) && !clear(&m, 3, 2));
        assert!(
            clear(&m, 3, 3) && clear(&m, 2, 2),
            "only neighbours lose it"
        );
    }

    #[test]
    fn kill_node_counts_once() {
        let shape = MeshShape::square(4);
        let mut m = FaultMask::new(shape);
        m.kill_node(Coord::new(3, 3));
        m.kill_node(Coord::new(3, 3));
        assert_eq!(m.dead_nodes(), 1);
        assert!(m.node_dead(shape.index(Coord::new(3, 3))));
        assert!(!m.is_empty());
    }
}
