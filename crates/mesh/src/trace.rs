//! Link-utilization tracing for the packet engine.
//!
//! The engine can record how many packets crossed each directed link,
//! giving a congestion heatmap of a routing phase — the observable
//! behind the paper's congestion arguments (culling exists precisely to
//! flatten this map). Rendering is plain text so traces can go straight
//! into logs or docs.

use crate::topology::{Coord, Dir, MeshShape};

/// Per-link traversal counts for one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkTrace {
    shape: MeshShape,
    /// `counts[node][dir]`: packets sent from `node` in direction `dir`.
    counts: Vec<[u64; 4]>,
}

impl LinkTrace {
    /// An empty trace for a mesh.
    pub fn new(shape: MeshShape) -> Self {
        LinkTrace {
            shape,
            counts: vec![[0; 4]; shape.nodes() as usize],
        }
    }

    /// Records one traversal out of `from` in direction `dir`.
    #[inline]
    pub fn record(&mut self, from: Coord, dir: Dir) {
        self.counts[self.shape.index(from) as usize][dir.index()] += 1;
    }

    /// Mutable per-source-node counts, row-major; the engine's compute
    /// half-step records its hops straight into them.
    #[inline]
    pub(crate) fn counts_mut(&mut self) -> &mut [[u64; 4]] {
        &mut self.counts
    }

    /// Traversals out of `from` in direction `dir`.
    pub fn count(&self, from: Coord, dir: Dir) -> u64 {
        self.counts[self.shape.index(from) as usize][dir.index()]
    }

    /// The most heavily used directed link: `(from, dir, count)`.
    pub fn hottest(&self) -> Option<(Coord, Dir, u64)> {
        let mut best: Option<(Coord, Dir, u64)> = None;
        for (i, dirs) in self.counts.iter().enumerate() {
            for d in Dir::ALL {
                let c = dirs[d.index()];
                if c > 0 && best.is_none_or(|(_, _, bc)| c > bc) {
                    best = Some((self.shape.coord(i as u32), d, c));
                }
            }
        }
        best
    }

    /// Total traversals (= total packet hops).
    pub fn total(&self) -> u64 {
        self.counts.iter().flat_map(|d| d.iter()).sum()
    }

    /// Per-node total outgoing traffic, for heatmaps.
    pub fn node_load(&self, c: Coord) -> u64 {
        self.counts[self.shape.index(c) as usize].iter().sum()
    }

    /// Renders a text heatmap (one glyph per node, log-scaled:
    /// `.` idle through `9` busiest).
    pub fn heatmap(&self) -> String {
        let max = (0..self.shape.nodes() as u32)
            .map(|i| self.node_load(self.shape.coord(i)))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for r in 0..self.shape.rows {
            for c in 0..self.shape.cols {
                let load = self.node_load(Coord { r, c });
                let glyph = if load == 0 {
                    '.'
                } else if max <= 1 {
                    '1'
                } else {
                    let level = 1.0 + (load as f64).ln() * 8.0 / (max as f64).ln();
                    std::char::from_digit(level.min(9.0) as u32, 10).unwrap_or('9')
                };
                out.push(glyph);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Packet};
    use crate::region::Rect;

    #[test]
    fn records_and_totals() {
        let shape = MeshShape::square(4);
        let mut t = LinkTrace::new(shape);
        t.record(Coord::new(0, 0), Dir::East);
        t.record(Coord::new(0, 0), Dir::East);
        t.record(Coord::new(1, 1), Dir::South);
        assert_eq!(t.count(Coord::new(0, 0), Dir::East), 2);
        assert_eq!(t.total(), 3);
        assert_eq!(t.hottest().unwrap().2, 2);
        assert_eq!(t.node_load(Coord::new(1, 1)), 1);
    }

    #[test]
    fn engine_trace_matches_hops() {
        let shape = MeshShape::square(8);
        let mut e = Engine::new(shape).with_trace();
        let b = Rect::full(shape);
        for i in 0..16u64 {
            let src = Coord::new((i % 4) as u32, (i / 4) as u32);
            let dst = Coord::new(7 - (i % 4) as u32, 7 - (i / 4) as u32);
            e.inject(
                src,
                Packet {
                    id: i,
                    dest: dst,
                    bounds: b,
                    tag: i,
                },
            );
        }
        let stats = e.run(10_000).unwrap();
        let trace = e.trace().expect("tracing enabled");
        assert_eq!(trace.total(), stats.total_hops);
        assert!(trace.hottest().is_some());
        let map = trace.heatmap();
        assert_eq!(map.lines().count(), 8);
        assert!(map.contains('.') || map.contains('1'));
    }

    #[test]
    fn heatmap_shows_hotspot() {
        // All packets converge on the corner: traffic concentrates along
        // the final links.
        let shape = MeshShape::square(8);
        let mut e = Engine::new(shape).with_trace();
        let b = Rect::full(shape);
        for i in 0..64u32 {
            e.inject(
                shape.coord(i),
                Packet {
                    id: i as u64,
                    dest: Coord::new(0, 0),
                    bounds: b,
                    tag: i as u64,
                },
            );
        }
        e.run(10_000).unwrap();
        let trace = e.trace().unwrap();
        // The links into (0,0) are the busiest region.
        let near = trace.node_load(Coord::new(0, 1)) + trace.node_load(Coord::new(1, 0));
        let far = trace.node_load(Coord::new(7, 7));
        assert!(near > 4 * far.max(1), "near={near} far={far}");
    }
}
