//! Struct-of-arrays packet storage.
//!
//! Every packet injected into an [`crate::engine::Engine`] lives in one
//! contiguous [`PacketArena`]: ids, destinations, bounding rectangles,
//! tags and detour budgets as parallel arrays indexed by a [`PacketRef`]
//! (the packet's injection ordinal as a `u32`). Queues, move buffers
//! and the delivered list then carry 4-byte references instead of 48-byte
//! [`Packet`]s, so a queue slot fits in 20 bytes, the hot arbitration
//! loop streams over dense arrays, and draining delivered packets never
//! clones anything — [`PacketArena::packet`] materializes the public
//! boundary type on demand.
//!
//! The arena only ever grows between engine resets (which clear it); a
//! `PacketRef` therefore stays valid from injection until the
//! engine is reset, across any number of runs and
//! `Engine::drain_delivered` calls.

use crate::engine::Packet;
use crate::region::Rect;
use crate::topology::Coord;

/// Index of a packet in its engine's [`PacketArena`] (injection order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(pub u32);

/// Parallel-array store of every packet an engine has been handed since
/// its last reset. See the module docs.
#[derive(Debug, Default)]
pub struct PacketArena {
    ids: Vec<u64>,
    dests: Vec<Coord>,
    bounds: Vec<Rect>,
    tags: Vec<u64>,
    /// Fault-detour budgets, derived from the bounds at injection.
    budgets: Vec<u32>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Packets stored (equals the next `PacketRef` to be handed out).
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no packet has been stored since the last clear.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Drops every packet while keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.dests.clear();
        self.bounds.clear();
        self.tags.clear();
        self.budgets.clear();
    }

    /// Pre-sizes all five columns for `additional` more packets.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.ids.reserve(additional);
        self.dests.reserve(additional);
        self.bounds.reserve(additional);
        self.tags.reserve(additional);
        self.budgets.reserve(additional);
    }

    /// Stores a packet, returning its reference.
    pub(crate) fn push(&mut self, pkt: &Packet, budget: u32) -> PacketRef {
        let r = PacketRef(self.ids.len() as u32);
        self.ids.push(pkt.id);
        self.dests.push(pkt.dest);
        self.bounds.push(pkt.bounds);
        self.tags.push(pkt.tag);
        self.budgets.push(budget);
        r
    }

    /// The packet's unique id (the arbitration tie-breaker).
    #[inline]
    pub fn id(&self, r: PacketRef) -> u64 {
        self.ids[r.0 as usize]
    }

    /// The packet's destination node.
    #[inline]
    pub fn dest(&self, r: PacketRef) -> Coord {
        self.dests[r.0 as usize]
    }

    /// The rectangle the packet never leaves.
    #[inline]
    pub fn bounds(&self, r: PacketRef) -> Rect {
        self.bounds[r.0 as usize]
    }

    /// The caller's opaque payload.
    #[inline]
    pub fn tag(&self, r: PacketRef) -> u64 {
        self.tags[r.0 as usize]
    }

    /// The packet's fault-detour budget.
    #[inline]
    pub(crate) fn budget(&self, r: PacketRef) -> u32 {
        self.budgets[r.0 as usize]
    }

    /// Materializes the public boundary type from the columns.
    #[inline]
    pub fn packet(&self, r: PacketRef) -> Packet {
        let i = r.0 as usize;
        Packet {
            id: self.ids[i],
            dest: self.dests[i],
            bounds: self.bounds[i],
            tag: self.tags[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MeshShape;

    #[test]
    fn round_trips_packets_by_reference() {
        let shape = MeshShape::square(4);
        let mut arena = PacketArena::new();
        let pkt = Packet {
            id: 7,
            dest: Coord::new(3, 1),
            bounds: Rect::full(shape),
            tag: 99,
        };
        let r = arena.push(&pkt, 42);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.id(r), 7);
        assert_eq!(arena.dest(r), Coord::new(3, 1));
        assert_eq!(arena.tag(r), 99);
        assert_eq!(arena.budget(r), 42);
        assert_eq!(arena.packet(r), pkt);
        arena.clear();
        assert!(arena.is_empty());
    }
}
