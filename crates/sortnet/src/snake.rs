//! Snake (boustrophedon) indexing of a `rows × cols` grid.
//!
//! The snake order visits row 0 left-to-right, row 1 right-to-left, and
//! so on. Sorting "into snake order" is the standard target order for
//! mesh sorting algorithms; under snake indexing a shearsort row pass is
//! an ascending sort of a contiguous chunk, and the alternating row
//! directions come out automatically.

use prasim_mesh::topology::MeshShape;

/// Snake position of grid cell `(r, c)`.
#[inline]
pub fn snake_index(cols: u32, r: u32, c: u32) -> u32 {
    debug_assert!(c < cols);
    if r.is_multiple_of(2) {
        r * cols + c
    } else {
        r * cols + (cols - 1 - c)
    }
}

/// Snake position of row-major node `node` on the whole mesh `shape`.
#[inline]
pub fn snake_pos(shape: MeshShape, node: u32) -> u32 {
    let c = shape.coord(node);
    snake_index(shape.cols, c.r, c.c)
}

/// Grid cell `(r, c)` of snake position `pos`.
#[inline]
pub fn snake_coord(cols: u32, pos: u32) -> (u32, u32) {
    let r = pos / cols;
    let within = pos % cols;
    let c = if r.is_multiple_of(2) {
        within
    } else {
        cols - 1 - within
    };
    (r, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for cols in [1u32, 2, 3, 7, 8] {
            for rows in [1u32, 2, 5, 8] {
                for pos in 0..rows * cols {
                    let (r, c) = snake_coord(cols, pos);
                    assert!(r < rows && c < cols);
                    assert_eq!(snake_index(cols, r, c), pos);
                }
            }
        }
    }

    #[test]
    fn snake_is_boustrophedon() {
        // 3x4: row 0 -> 0,1,2,3; row 1 reversed; row 2 forward.
        let cols = 4;
        assert_eq!(snake_index(cols, 0, 0), 0);
        assert_eq!(snake_index(cols, 0, 3), 3);
        assert_eq!(snake_index(cols, 1, 3), 4);
        assert_eq!(snake_index(cols, 1, 0), 7);
        assert_eq!(snake_index(cols, 2, 0), 8);
    }

    #[test]
    fn adjacent_snake_positions_are_mesh_neighbors() {
        let (rows, cols) = (5u32, 6u32);
        for pos in 0..rows * cols - 1 {
            let (r1, c1) = snake_coord(cols, pos);
            let (r2, c2) = snake_coord(cols, pos + 1);
            let dist = r1.abs_diff(r2) + c1.abs_diff(c2);
            assert_eq!(dist, 1, "snake jump at pos {pos}");
        }
    }
}
