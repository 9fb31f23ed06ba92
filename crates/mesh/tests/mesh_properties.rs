//! Property tests of tessellations and the packet engine.

use prasim_mesh::engine::{Engine, Packet};
use prasim_mesh::region::{Rect, Tessellation};
use prasim_mesh::topology::MeshShape;
use proptest::prelude::*;

proptest! {
    /// Any feasible split is an exact partition with non-empty parts.
    #[test]
    fn split_is_partition(rows in 1u32..40, cols in 1u32..40, count_seed in any::<u64>()) {
        let rect = Rect { r0: 0, c0: 0, rows, cols };
        let count = count_seed % rect.area() + 1;
        let tess = Tessellation::new(rect, count).unwrap();
        prop_assert!(tess.is_partition());
        let (lo, _) = tess.area_bounds();
        prop_assert!(lo >= 1);
    }

    /// Part areas stay within a factor ~3 of ideal (needed for the Θ
    /// claims of Eq. 4).
    #[test]
    fn split_is_balanced(side in 8u32..64, count_seed in any::<u64>()) {
        let rect = Rect { r0: 0, c0: 0, rows: side, cols: side };
        let count = count_seed % (rect.area() / 4).max(1) + 1;
        let tess = Tessellation::new(rect, count).unwrap();
        let (lo, hi) = tess.area_bounds();
        let ideal = rect.area() as f64 / count as f64;
        prop_assert!(lo as f64 >= ideal / 3.0, "lo={lo} ideal={ideal}");
        prop_assert!(hi as f64 <= ideal * 3.0, "hi={hi} ideal={ideal}");
    }

    /// Random batches of packets are always delivered, each to its
    /// destination, within the trivial serialization bound.
    #[test]
    fn engine_delivers_everything(side in 4u32..16, pkts_seed in any::<u64>(), count in 1usize..200) {
        let shape = MeshShape::square(side);
        let mut engine = Engine::new(shape);
        let bounds = Rect::full(shape);
        let n = shape.nodes();
        let mut state = pkts_seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut dests = Vec::new();
        for id in 0..count {
            let (s, d) = (next() as u32, next() as u32);
            dests.push(d);
            engine.inject(shape.coord(s), Packet {
                id: id as u64,
                dest: shape.coord(d),
                bounds,
                tag: id as u64,
            });
        }
        // Any batch of P packets completes within diameter + P steps per
        // greedy-with-farthest-first on a mesh (loose but safe budget).
        let budget = (shape.diameter() as u64 + count as u64 + 1) * 4;
        let stats = engine.run(budget).unwrap();
        prop_assert_eq!(stats.delivered as usize, count);
        let delivered: Vec<_> = engine.drain_delivered().collect();
        for (node, pkt) in delivered {
            prop_assert_eq!(node, shape.index(shape.coord(dests[pkt.tag as usize])));
        }
    }

    /// Coordinates round-trip through index encodings.
    #[test]
    fn coord_index_roundtrip(rows in 1u32..100, cols in 1u32..100, seed in any::<u64>()) {
        let shape = MeshShape { rows, cols };
        let idx = (seed % shape.nodes()) as u32;
        prop_assert_eq!(shape.index(shape.coord(idx)), idx);
        let c = shape.coord(idx);
        prop_assert!(shape.contains(c));
    }

    /// local_index / coord_at round-trip inside arbitrary rects.
    #[test]
    fn rect_local_roundtrip(r0 in 0u32..20, c0 in 0u32..20, rows in 1u32..20, cols in 1u32..20, seed in any::<u64>()) {
        let rect = Rect { r0, c0, rows, cols };
        let i = (seed % rect.area()) as u32;
        let c = rect.coord_at(i);
        prop_assert!(rect.contains(c));
        prop_assert_eq!(rect.local_index(c), i);
    }
}

#[test]
fn nested_split_preserves_partition() {
    // Split, then split each part again: the leaves must still tile.
    let rect = Rect {
        r0: 0,
        c0: 0,
        rows: 32,
        cols: 32,
    };
    let top = Tessellation::new(rect, 27).unwrap();
    let mut leaves = Vec::new();
    for (i, part) in top.parts.iter().enumerate() {
        let sub = part.split(((i % 5) + 1) as u64).unwrap();
        leaves.extend(sub);
    }
    let total: u64 = leaves.iter().map(|r| r.area()).sum();
    assert_eq!(total, rect.area());
    let mut seen = vec![false; rect.area() as usize];
    for leaf in &leaves {
        for c in leaf.coords() {
            let idx = rect.local_index(c) as usize;
            assert!(!seen[idx]);
            seen[idx] = true;
        }
    }
}
