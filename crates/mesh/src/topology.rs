//! Mesh coordinates, node indices and neighborhoods.

/// A position on the mesh: row `r`, column `c`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Row (0 at the top).
    pub r: u32,
    /// Column (0 at the left).
    pub c: u32,
}

impl Coord {
    /// Convenience constructor.
    #[inline]
    pub fn new(r: u32, c: u32) -> Self {
        Coord { r, c }
    }

    /// Manhattan (L1) distance — the mesh routing metric.
    #[inline]
    pub fn manhattan(self, other: Coord) -> u32 {
        self.r.abs_diff(other.r) + self.c.abs_diff(other.c)
    }
}

/// The four mesh directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Decreasing row.
    North,
    /// Increasing column.
    East,
    /// Increasing row.
    South,
    /// Decreasing column.
    West,
}

impl Dir {
    /// All four directions, in a fixed order (used for deterministic
    /// iteration).
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// Index of the direction in [`Dir::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Dir::North => 0,
            Dir::East => 1,
            Dir::South => 2,
            Dir::West => 3,
        }
    }

    /// The reverse direction.
    #[inline]
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::South => Dir::North,
            Dir::East => Dir::West,
            Dir::West => Dir::East,
        }
    }
}

/// Shape of a rectangular mesh (the full machine is square, `s × s`, but
/// submeshes may be arbitrary rectangles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshShape {
    /// Number of rows.
    pub rows: u32,
    /// Number of columns.
    pub cols: u32,
}

impl MeshShape {
    /// A square `side × side` mesh.
    pub fn square(side: u32) -> Self {
        MeshShape {
            rows: side,
            cols: side,
        }
    }

    /// The square mesh with `n` nodes; `n` must be a perfect square.
    pub fn square_of(n: u64) -> Option<Self> {
        let side = (n as f64).sqrt().round() as u64;
        if side * side == n && side <= u32::MAX as u64 {
            Some(Self::square(side as u32))
        } else {
            None
        }
    }

    /// Total node count.
    #[inline]
    pub fn nodes(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// Node index of a coordinate (row-major).
    #[inline]
    pub fn index(&self, c: Coord) -> u32 {
        debug_assert!(c.r < self.rows && c.c < self.cols);
        c.r * self.cols + c.c
    }

    /// Coordinate of a node index.
    #[inline]
    pub fn coord(&self, idx: u32) -> Coord {
        debug_assert!((idx as u64) < self.nodes());
        Coord {
            r: idx / self.cols,
            c: idx % self.cols,
        }
    }

    /// Whether the coordinate lies on this mesh.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        c.r < self.rows && c.c < self.cols
    }

    /// Neighbor of `c` in direction `d`, if it exists.
    #[inline]
    pub fn step(&self, c: Coord, d: Dir) -> Option<Coord> {
        let (r, cc) = (c.r, c.c);
        let next = match d {
            Dir::North => (r.checked_sub(1)?, cc),
            Dir::South => {
                if r + 1 >= self.rows {
                    return None;
                }
                (r + 1, cc)
            }
            Dir::West => (r, cc.checked_sub(1)?),
            Dir::East => {
                if cc + 1 >= self.cols {
                    return None;
                }
                (r, cc + 1)
            }
        };
        Some(Coord {
            r: next.0,
            c: next.1,
        })
    }

    /// All existing neighbors of `c` (2 to 4 of them).
    pub fn neighbors(&self, c: Coord) -> Vec<Coord> {
        Dir::ALL.iter().filter_map(|&d| self.step(c, d)).collect()
    }

    /// Mesh diameter (longest shortest path): `rows + cols - 2`.
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.rows + self.cols - 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let m = MeshShape { rows: 5, cols: 7 };
        for idx in 0..m.nodes() as u32 {
            assert_eq!(m.index(m.coord(idx)), idx);
        }
    }

    #[test]
    fn square_of_detects_squares() {
        assert_eq!(MeshShape::square_of(16), Some(MeshShape::square(4)));
        assert_eq!(MeshShape::square_of(1024), Some(MeshShape::square(32)));
        assert_eq!(MeshShape::square_of(15), None);
        assert_eq!(MeshShape::square_of(17), None);
    }

    #[test]
    fn degree_at_most_four() {
        let m = MeshShape::square(4);
        assert_eq!(m.neighbors(Coord::new(0, 0)).len(), 2);
        assert_eq!(m.neighbors(Coord::new(0, 1)).len(), 3);
        assert_eq!(m.neighbors(Coord::new(1, 1)).len(), 4);
        assert_eq!(m.neighbors(Coord::new(3, 3)).len(), 2);
    }

    #[test]
    fn steps_stay_inside() {
        let m = MeshShape { rows: 3, cols: 4 };
        for idx in 0..m.nodes() as u32 {
            let c = m.coord(idx);
            for d in Dir::ALL {
                if let Some(nc) = m.step(c, d) {
                    assert!(m.contains(nc));
                    assert_eq!(c.manhattan(nc), 1);
                }
            }
        }
        assert_eq!(m.step(Coord::new(0, 0), Dir::North), None);
        assert_eq!(m.step(Coord::new(2, 0), Dir::South), None);
        assert_eq!(m.step(Coord::new(0, 3), Dir::East), None);
    }

    #[test]
    fn manhattan_symmetry() {
        let a = Coord::new(1, 5);
        let b = Coord::new(4, 2);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(b), 6);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn diameter() {
        assert_eq!(MeshShape::square(8).diameter(), 14);
        assert_eq!(MeshShape { rows: 1, cols: 9 }.diameter(), 8);
    }
}
