//! Leighton's columnsort — the `O(l·√n)`-class sorting scheme the
//! paper's cost accounting assumes (via \[KSS94, Kun93\]).
//!
//! Columnsort sorts an `r × s` matrix (column-major, `r ≥ 2(s-1)²`) in
//! eight phases: four column-sorting phases interleaved with three fixed
//! permutations (reshape-transpose, its inverse, and a half-column
//! shift).
//!
//! Two realizations live here:
//!
//! - [`columnsort`] — the flat *reference*: the algorithm run on a plain
//!   slice with permutation phases charged at their balanced all-to-all
//!   mesh cost. It backs the analytic accounting mode and the unit tests
//!   of the phase structure.
//! - [`columnsort_mesh`] — the fully **step-simulated** mesh sorter (the
//!   default sorter of the simulation, [`crate::sorter::Sorter`]). Each
//!   matrix column is a rectangular *block* of the mesh (blocks tile the
//!   mesh in snake order over the block grid, so consecutive columns are
//!   mesh-adjacent). The column-sorting phases run shearsort inside every
//!   block in parallel: the flat kernel
//!   [`crate::shearsort::shearsort_flat`] sorts each block's slice of the
//!   matrix in place and charges the merge-split rounds exactly. The
//!   three fixed permutations, plus the final block-major → snake
//!   relayout, are executed as balanced packet routes on the
//!   store-and-forward engine ([`prasim_mesh::engine::Engine`]) and
//!   charged at their *measured* step count. The permutations are
//!   data-independent, so each route is measured once per
//!   `(rows, cols, h, block-plan)` shape and memoized; the engine is
//!   byte-deterministic for every worker count, which makes the memoized
//!   costs thread-independent too.
//!
//! Why no log factor: the block plan maximizes the column count `s`
//! under Leighton's feasibility rule `r ≥ 2(s-1)²`, which drives block
//! sizes to `Θ(n^{2/3})` nodes. Shearsort inside a block then costs
//! `O(l·n^{1/3}·log n)` — asymptotically dominated by the `Θ(l·√n)`
//! permutation routes — so the total is `O(l·√n)` even though the
//! per-block sorter keeps its log factor. Phases 6–8 (shift, sort,
//! unshift) are realized as their provable equivalent: disjoint
//! half-overlap merges of adjacent sorted columns, costing one exchange
//! of `r/2` keys across each block boundary.

use std::collections::HashMap;

use prasim_mesh::engine::Packet;
use prasim_mesh::pool::EnginePool;
use prasim_mesh::region::Rect;
use prasim_mesh::topology::MeshShape;

use crate::key::Key;
use crate::shearsort::{shearsort_flat, SortCost};
use crate::snake::{snake_coord, snake_index};

/// Sorts `data` by recursive columnsort, charging mesh costs for a
/// `rows × cols` submesh holding `h` keys per node
/// (`data.len() ≤ rows·cols·h`). Returns the charged cost.
pub fn columnsort<T: Ord + Copy>(data: &mut [T], rows: u32, cols: u32, h: usize) -> SortCost {
    let mut keys: Vec<Key<T>> = data.iter().map(|&x| Key::Val(x)).collect();
    // Pad to the full mesh capacity so column counts divide evenly.
    let capacity = rows as usize * cols as usize * h;
    debug_assert!(data.len() <= capacity, "data exceeds mesh capacity");
    keys.resize(capacity, Key::PosInf);
    let cost = sort_rec(&mut keys, rows, cols, h);
    for (slot, key) in data.iter_mut().zip(keys) {
        match key {
            Key::Val(x) => *slot = x,
            _ => unreachable!("padding cannot precede real keys after sorting"),
        }
    }
    cost
}

/// Picks the number of columns: the largest divisor `s` of `cols` with
/// `s ≥ 2` and `r = len/s ≥ 2(s-1)²` (Leighton's feasibility rule).
fn pick_s(len: usize, cols: u32) -> Option<u32> {
    let mut best = None;
    for s in 2..=cols {
        if !cols.is_multiple_of(s) || s as usize > len {
            continue;
        }
        let r = len / s as usize;
        if r >= 2 * (s as usize - 1) * (s as usize - 1) {
            best = Some(s);
        }
    }
    best
}

fn sort_rec<T: Ord + Copy>(v: &mut [Key<T>], rows: u32, cols: u32, h: usize) -> SortCost {
    let len = v.len();
    let s = match pick_s(len, cols) {
        Some(s) if len >= 8 => s,
        // Base case: a strip too small to split — charge one odd-even
        // line sort of the strip (len/h nodes, h keys each).
        _ => {
            v.sort_unstable();
            return SortCost {
                steps: len as u64,
                analytic_steps: len as u64,
                phases: 0,
            };
        }
    };
    let r = len / s as usize;
    let strip_cols = cols / s;
    let mut cost = SortCost::default();

    // The three permutation phases each cost one balanced all-to-all
    // between strips: h keys per node crossing at most (rows + cols)
    // distance with full wire parallelism.
    let perm_cost = h as u64 * (rows as u64 + cols as u64);

    // Phase 1: sort columns (parallel strips — charge the max, which is
    // equal across strips).
    cost.add(sort_columns(v, r, s, rows, strip_cols, h));
    // Phase 2: reshape-transpose.
    transpose(v, r, s as usize);
    cost.steps += perm_cost;
    cost.analytic_steps += perm_cost;
    // Phase 3.
    cost.add(sort_columns(v, r, s, rows, strip_cols, h));
    // Phase 4: inverse reshape.
    untranspose(v, r, s as usize);
    cost.steps += perm_cost;
    cost.analytic_steps += perm_cost;
    // Phase 5.
    cost.add(sort_columns(v, r, s, rows, strip_cols, h));
    // Phases 6–8: shift down by r/2, sort columns, unshift. The shift is
    // realized on the padded array with ±∞ sentinels.
    let half = r / 2;
    let mut shifted: Vec<Key<T>> = Vec::with_capacity(len + r);
    shifted.extend(std::iter::repeat_n(Key::NegInf, half));
    shifted.extend_from_slice(v);
    shifted.extend(std::iter::repeat_n(Key::PosInf, r - half));
    cost.steps += perm_cost;
    cost.analytic_steps += perm_cost;
    for col in shifted.chunks_mut(r) {
        // one extra column: charge once more below
        col.sort_unstable();
    }
    cost.add(SortCost {
        steps: r as u64,
        analytic_steps: r as u64,
        phases: 0,
    });
    v.copy_from_slice(&shifted[half..half + len]);

    cost
}

/// Sorts each of the `s` columns (length `r`, stored contiguously)
/// recursively; strips run in parallel so the cost is the maximum.
fn sort_columns<T: Ord + Copy>(
    v: &mut [Key<T>],
    r: usize,
    s: u32,
    rows: u32,
    strip_cols: u32,
    h: usize,
) -> SortCost {
    let mut max = SortCost::default();
    for col in v.chunks_mut(r) {
        debug_assert_eq!(col.len(), r);
        let c = sort_rec(col, rows, strip_cols.max(1), h);
        if c.steps > max.steps {
            max = c;
        }
    }
    let _ = s;
    max
}

/// Phase-2 permutation: read the `r × s` column-major matrix in
/// column-major element order and refill it in row-major order.
fn transpose<T: Copy>(v: &mut [Key<T>], r: usize, s: usize) {
    let old = v.to_vec();
    for (seq, &x) in old.iter().enumerate() {
        // Element `seq` goes to row-major slot seq -> (i, j) with
        // i = seq / s, j = seq % s; column-major index = j*r + i.
        let (i, j) = (seq / s, seq % s);
        v[j * r + i] = x;
    }
}

/// Phase-4 permutation: the exact inverse of [`transpose`] — sequence
/// element `t` (row-major pickup) returns to column-major slot `t`:
/// `new[t] = old[(t mod s)·r + t div s]`.
fn untranspose<T: Copy>(v: &mut [Key<T>], r: usize, s: usize) {
    let old = v.to_vec();
    for (t, slot) in v.iter_mut().enumerate() {
        *slot = old[(t % s) * r + t / s];
    }
}

// ---------------------------------------------------------------------
// Step-simulated mesh columnsort.
// ---------------------------------------------------------------------

/// How matrix columns tile the mesh: an `sr × sc` grid of
/// `brows × bcols` blocks, visited in snake order over the block grid
/// (so consecutive matrix columns are mesh-adjacent blocks).
#[derive(Debug, Clone, Copy)]
struct BlockPlan {
    /// Block-grid rows (`sr | rows`).
    sr: u32,
    /// Block-grid cols (`sc | cols`).
    sc: u32,
    /// Matrix columns, `s = sr·sc ≥ 2`.
    s: u32,
    /// Rows per block.
    brows: u32,
    /// Cols per block.
    bcols: u32,
    /// Keys per matrix column, `r = brows·bcols·h ≥ 2(s-1)²`.
    r: usize,
}

impl BlockPlan {
    /// The plan maximizing `s` under the feasibility rule; ties prefer
    /// squarer blocks, then fewer block-grid rows (deterministic).
    fn choose(rows: u32, cols: u32, h: usize) -> Option<BlockPlan> {
        let slots = rows as usize * cols as usize * h;
        let mut best: Option<BlockPlan> = None;
        for sr in 1..=rows {
            if !rows.is_multiple_of(sr) {
                continue;
            }
            for sc in 1..=cols {
                if !cols.is_multiple_of(sc) {
                    continue;
                }
                let s = sr * sc;
                if s < 2 || s as usize > slots {
                    continue;
                }
                let r = slots / s as usize;
                if r < 2 * (s as usize - 1) * (s as usize - 1) {
                    continue;
                }
                let cand = BlockPlan {
                    sr,
                    sc,
                    s,
                    brows: rows / sr,
                    bcols: cols / sc,
                    r,
                };
                let better = match best {
                    None => true,
                    Some(b) => {
                        let sq = |p: &BlockPlan| p.brows.abs_diff(p.bcols);
                        cand.s > b.s
                            || (cand.s == b.s && sq(&cand) < sq(&b))
                            || (cand.s == b.s && sq(&cand) == sq(&b) && cand.sr < b.sr)
                    }
                };
                if better {
                    best = Some(cand);
                }
            }
        }
        best
    }
}

/// Matrix-index → mesh layout of a block plan: for matrix slot `t`,
/// the snake position of its node and the engine node index.
struct Layout {
    /// `t →` snake position of the owning node (for `items` indexing).
    snake_pos: Vec<usize>,
    /// `t →` row-major node index (for engine coordinates).
    node: Vec<u32>,
}

impl Layout {
    fn build(rows: u32, cols: u32, h: usize, plan: &BlockPlan) -> Layout {
        let slots = rows as usize * cols as usize * h;
        let mut snake_pos = Vec::with_capacity(slots);
        let mut node = Vec::with_capacity(slots);
        for beta in 0..plan.s {
            let (br, bc) = snake_coord(plan.sc, beta);
            for ln in 0..(plan.brows * plan.bcols) {
                let (lr, lc) = snake_coord(plan.bcols, ln);
                let (gr, gc) = (br * plan.brows + lr, bc * plan.bcols + lc);
                let pos = snake_index(cols, gr, gc) as usize;
                let idx = gr * cols + gc;
                for _ in 0..h {
                    snake_pos.push(pos);
                    node.push(idx);
                }
            }
        }
        Layout { snake_pos, node }
    }
}

/// The fixed routes whose engine-measured costs are memoized per shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PermKind {
    Transpose,
    Untranspose,
    MergeExchange,
    Relayout,
}

type PermCacheKey = (u32, u32, u32, u32, u32, PermKind);

/// The per-context memo of engine-measured permutation-route costs,
/// keyed by `(rows, cols, h, sr, sc, kind)`. Memoization is valid
/// because the routes are fixed and data-independent and the engine is
/// byte-deterministic for every worker count — so the memo only affects
/// wall clock, never the charged step counts. Owned by an execution
/// context (`prasim-exec`) rather than a process-wide lock, so
/// concurrent simulations neither contend on nor cross-pollinate each
/// other's cached routes.
#[derive(Debug, Default)]
pub struct RouteMemo {
    costs: HashMap<PermCacheKey, u64>,
}

impl RouteMemo {
    /// An empty memo.
    pub fn new() -> Self {
        RouteMemo::default()
    }

    /// Number of distinct `(shape, block-plan, route)` costs cached.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether nothing has been measured yet.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }
}

/// Runs the route `pairs` (row-major node indices, one packet per pair)
/// on a pooled engine and returns the synchronous step count.
fn measure_route(
    engines: &mut EnginePool,
    shape: MeshShape,
    pairs: impl Iterator<Item = (u32, u32)>,
) -> u64 {
    let mut eng = engines.checkout(shape);
    let full = Rect::full(shape);
    let mut id = 0u64;
    for (src, dst) in pairs {
        if src == dst {
            continue;
        }
        eng.inject(
            shape.coord(src),
            Packet {
                id,
                dest: shape.coord(dst),
                bounds: full,
                tag: 0,
            },
        );
        id += 1;
    }
    if id == 0 {
        engines.recycle(eng);
        return 0;
    }
    let stats = eng
        .run(100_000_000)
        .expect("fixed permutation route exceeded step budget");
    engines.recycle(eng);
    stats.steps
}

/// Engine-measured cost of one of the sorter's fixed permutations,
/// memoized in `memo` by `(rows, cols, h, sr, sc, kind)` — valid
/// because the routes are data-independent and the engine is
/// deterministic.
fn perm_cost(
    shape: MeshShape,
    h: usize,
    plan: &BlockPlan,
    layout: &Layout,
    kind: PermKind,
    engines: &mut EnginePool,
    memo: &mut RouteMemo,
) -> u64 {
    let key = (shape.rows, shape.cols, h as u32, plan.sr, plan.sc, kind);
    if let Some(&c) = memo.costs.get(&key) {
        return c;
    }
    let (r, s) = (plan.r, plan.s as usize);
    let slots = layout.node.len();
    let cost = match kind {
        // Element at matrix slot `seq` moves to slot (seq%s)·r + seq/s.
        PermKind::Transpose => measure_route(
            engines,
            shape,
            (0..slots).map(|seq| (layout.node[seq], layout.node[(seq % s) * r + seq / s])),
        ),
        // The inverse: slot (t%s)·r + t/s moves to slot t.
        PermKind::Untranspose => measure_route(
            engines,
            shape,
            (0..slots).map(|t| (layout.node[(t % s) * r + t / s], layout.node[t])),
        ),
        // Phases 6–8: each adjacent column pair exchanges its boundary
        // halves (the shifted column  = bottom half of column j-1 ++ top
        // of column j); all pairs are disjoint, one parallel route.
        PermKind::MergeExchange => {
            let half = r / 2;
            measure_route(
                engines,
                shape,
                (1..s)
                    .flat_map(|j| {
                        (0..half).flat_map(move |x| {
                            let a = j * r - half + x;
                            let b = j * r + x;
                            [(a, b), (b, a)]
                        })
                    })
                    .map(|(a, b)| (layout.node[a], layout.node[b])),
            )
        }
        // Sorted block-major order → global snake order: rank t goes to
        // snake position t/h.
        PermKind::Relayout => measure_route(
            engines,
            shape,
            (0..slots).map(|t| {
                let (gr, gc) = snake_coord(shape.cols, (t / h) as u32);
                (layout.node[t], gr * shape.cols + gc)
            }),
        ),
    };
    memo.costs.insert(key, cost);
    cost
}

/// Sorts each matrix column (= mesh block) with shearsort run *inside*
/// the block; all blocks sort in parallel, so the charge is the maximum
/// measured cost. A column is already node-major in block-snake order
/// (see [`Layout`]), so the flat kernel [`shearsort_flat`] sorts it in
/// place, charging merge-split rounds exactly. `scratch` is the kernel's
/// reusable column buffer.
fn sort_blocks<T: Ord + Copy>(
    a: &mut [Key<T>],
    h: usize,
    plan: &BlockPlan,
    scratch: &mut Vec<Key<T>>,
) -> u64 {
    a.chunks_mut(plan.r)
        .map(|col| shearsort_flat(col, plan.brows, plan.bcols, h, scratch).steps)
        .max()
        .unwrap_or(0)
}

/// Merges the boundary halves of adjacent sorted columns in place —
/// the provable equivalent of columnsort's shift / sort / unshift
/// phases 6–8. Regions `[j·r − r/2, (j+1)·r − r/2)` are disjoint across
/// `j`, so sequential in-place merging equals the parallel mesh run.
fn merge_adjacent<T: Ord + Copy>(a: &mut [Key<T>], r: usize, s: usize, scratch: &mut Vec<Key<T>>) {
    let half = r / 2;
    for j in 1..s {
        let lo = j * r - half;
        let region = &mut a[lo..lo + r];
        scratch.clear();
        {
            let (left, right) = region.split_at(half);
            let (mut i, mut k) = (0usize, 0usize);
            while i < left.len() && k < right.len() {
                if left[i] <= right[k] {
                    scratch.push(left[i]);
                    i += 1;
                } else {
                    scratch.push(right[k]);
                    k += 1;
                }
            }
            scratch.extend_from_slice(&left[i..]);
            scratch.extend_from_slice(&right[k..]);
        }
        region.copy_from_slice(scratch);
    }
}

/// Degenerate shapes (no feasible block plan): one odd-even
/// transposition sort along the snake — `L` merge-split rounds over `L`
/// nodes, `h` steps each.
fn snake_line_sort<T: Ord + Copy>(
    items: &mut [Vec<T>],
    rows: u32,
    cols: u32,
    h: usize,
) -> SortCost {
    let nodes = items.len();
    let mut all: Vec<T> = Vec::with_capacity(nodes * h);
    for buf in items.iter_mut() {
        all.append(buf);
    }
    all.sort_unstable();
    for (i, x) in all.into_iter().enumerate() {
        items[i / h].push(x);
    }
    SortCost {
        steps: nodes as u64 * h as u64,
        analytic_steps: h as u64 * (rows as u64 + cols as u64),
        phases: 1,
    }
}

/// Step-simulated Leighton columnsort on a `rows × cols` mesh with up to
/// `h` keys per node — same contract as [`crate::shearsort::shearsort`]:
/// `items` is indexed by snake position, on return the concatenation of
/// the buffers in snake order is sorted and balanced `h` per node (the
/// trailing nodes hold the remainder). `engines` serves the
/// permutation-route measurements (reusing buffers across measurements
/// and calls) and `memo` carries the per-shape route costs — both
/// normally owned by an execution context (`prasim-exec`).
///
/// Cost accounting: the four column-sorting phases charge the *maximum*
/// measured in-block shearsort (blocks run in parallel); the transpose,
/// untranspose, boundary-exchange and final-relayout permutations charge
/// their engine-measured route costs (memoized per shape — the routes
/// are fixed and data-independent). `analytic_steps` stays the paper's
/// `h·(rows+cols)` charge, as for shearsort.
///
/// # Panics
/// Panics if any buffer exceeds `h` keys or `items.len() != rows·cols`.
pub fn columnsort_mesh<T: Ord + Copy>(
    items: &mut [Vec<T>],
    rows: u32,
    cols: u32,
    h: usize,
    engines: &mut EnginePool,
    memo: &mut RouteMemo,
) -> SortCost {
    assert_eq!(items.len(), (rows as u64 * cols as u64) as usize);
    assert!(h >= 1);
    for v in items.iter() {
        assert!(v.len() <= h, "buffer exceeds h = {h}");
    }
    let analytic = h as u64 * (rows as u64 + cols as u64);

    let Some(plan) = BlockPlan::choose(rows, cols, h) else {
        let mut cost = snake_line_sort(items, rows, cols, h);
        cost.analytic_steps = analytic;
        return cost;
    };
    let layout = Layout::build(rows, cols, h, &plan);
    let slots = layout.node.len();
    let (r, s) = (plan.r, plan.s as usize);

    // Gather into the column-major matrix, padding to capacity with +∞.
    let mut a: Vec<Key<T>> = Vec::with_capacity(slots);
    for t in 0..slots {
        let buf = &items[layout.snake_pos[t]];
        a.push(buf.get(t % h).copied().map_or(Key::PosInf, Key::Val));
    }

    let mut steps = 0u64;
    // Shared by the block sorts and the permutations; each use clears it.
    let mut scratch: Vec<Key<T>> = Vec::with_capacity(slots);

    // Phase 1: sort columns (blocks, in parallel).
    steps += sort_blocks(&mut a, h, &plan, &mut scratch);
    // Phase 2: reshape-transpose (engine-measured fixed route).
    scratch.clear();
    scratch.extend_from_slice(&a);
    for (seq, &x) in scratch.iter().enumerate() {
        a[(seq % s) * r + seq / s] = x;
    }
    steps += perm_cost(
        MeshShape { rows, cols },
        h,
        &plan,
        &layout,
        PermKind::Transpose,
        engines,
        memo,
    );
    // Phase 3.
    steps += sort_blocks(&mut a, h, &plan, &mut scratch);
    // Phase 4: inverse reshape.
    scratch.clear();
    scratch.extend_from_slice(&a);
    for (t, slot) in a.iter_mut().enumerate() {
        *slot = scratch[(t % s) * r + t / s];
    }
    steps += perm_cost(
        MeshShape { rows, cols },
        h,
        &plan,
        &layout,
        PermKind::Untranspose,
        engines,
        memo,
    );
    // Phase 5.
    steps += sort_blocks(&mut a, h, &plan, &mut scratch);
    // Phases 6–8 as disjoint adjacent-column boundary merges.
    merge_adjacent(&mut a, r, s, &mut scratch);
    steps += perm_cost(
        MeshShape { rows, cols },
        h,
        &plan,
        &layout,
        PermKind::MergeExchange,
        engines,
        memo,
    );
    // Final fixed permutation: block-major sorted order → snake order.
    steps += perm_cost(
        MeshShape { rows, cols },
        h,
        &plan,
        &layout,
        PermKind::Relayout,
        engines,
        memo,
    );

    for buf in items.iter_mut() {
        buf.clear();
    }
    for (t, key) in a.into_iter().enumerate() {
        if let Some(x) = key.val() {
            items[t / h].push(x);
        }
    }

    SortCost {
        steps,
        analytic_steps: analytic,
        phases: 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Columnsort on throwaway execution resources.
    fn sort_mesh(items: &mut [Vec<u64>], rows: u32, cols: u32, h: usize) -> SortCost {
        columnsort_mesh(
            items,
            rows,
            cols,
            h,
            &mut EnginePool::new(),
            &mut RouteMemo::new(),
        )
    }

    fn lcg(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            })
            .collect()
    }

    #[test]
    fn sorts_exactly_across_shapes() {
        for &(rows, cols, h) in &[
            (4u32, 4u32, 1usize),
            (8, 8, 1),
            (8, 8, 4),
            (16, 16, 2),
            (32, 32, 1),
            (16, 64, 3),
        ] {
            let n = (rows * cols) as usize * h;
            let mut data = lcg(n, rows as u64 * 31 + h as u64);
            let mut expect = data.clone();
            expect.sort_unstable();
            let cost = columnsort(&mut data, rows, cols, h);
            assert_eq!(data, expect, "rows={rows} cols={cols} h={h}");
            assert!(cost.steps > 0);
        }
    }

    #[test]
    fn sorts_partial_fill() {
        // Fewer keys than mesh capacity: padding must vanish cleanly.
        let mut data = lcg(1000, 7);
        let mut expect = data.clone();
        expect.sort_unstable();
        columnsort(&mut data, 16, 16, 4); // capacity 1024
        assert_eq!(data, expect);
    }

    #[test]
    fn sorts_adversarial_orders() {
        let n = 1024usize;
        let mut rev: Vec<u64> = (0..n as u64).rev().collect();
        let expect: Vec<u64> = (0..n as u64).collect();
        columnsort(&mut rev, 32, 32, 1);
        assert_eq!(rev, expect);

        let mut eq = vec![7u64; n];
        columnsort(&mut eq, 32, 32, 1);
        assert_eq!(eq, vec![7u64; n]);
    }

    #[test]
    fn cost_beats_shearsort_asymptotically() {
        // The charged cost must scale ~√n while shearsort carries its
        // log factor: the ratio columnsort/shearsort shrinks with n.
        use crate::shearsort::shearsort;
        let mut ratios = Vec::new();
        for side in [16u32, 32, 64, 128] {
            let n = (side * side) as usize;
            let mut a = lcg(n, 3);
            let cc = columnsort(&mut a, side, side, 1);
            let mut items: Vec<Vec<u64>> = lcg(n, 3).into_iter().map(|x| vec![x]).collect();
            let sc = shearsort(&mut items, side, side, 1);
            ratios.push(cc.steps as f64 / sc.steps as f64);
        }
        assert!(
            ratios.last().unwrap() < ratios.first().unwrap(),
            "ratios should shrink: {ratios:?}"
        );
    }

    #[test]
    fn feasibility_rule() {
        // s is the largest divisor of cols with r ≥ 2(s-1)².
        assert_eq!(pick_s(1024, 32), Some(8)); // r=128 ≥ 2·49=98
        assert_eq!(pick_s(64, 8), Some(2)); // s=4 needs r=16 ≥ 18: no
        assert_eq!(pick_s(16, 4), Some(2));
        assert_eq!(pick_s(4, 1), None);
        // Non-power-of-two divisors are now considered (satellite fix):
        // cols=12 admits s=4 (r=36 ≥ 2·9=18); s=6 needs r=24 ≥ 50: no.
        assert_eq!(pick_s(144, 12), Some(4));
        // cols=6, len=216: s=6 needs r=36 ≥ 50: no; s=3 gives r=72 ≥ 8.
        assert_eq!(pick_s(216, 6), Some(3));
        // A prime width still splits once r is large enough (previously
        // any odd width degenerated to a single-column sort).
        assert_eq!(pick_s(98, 7), None); // r=14 < 2·36=72
        assert_eq!(pick_s(504, 7), Some(7)); // r=72 ≥ 72
    }

    fn mesh_items(n: usize, h: usize, seed: u64) -> Vec<Vec<u64>> {
        lcg(n * h, seed).chunks(h).map(|c| c.to_vec()).collect()
    }

    #[test]
    fn mesh_sorts_exactly_across_shapes() {
        for &(rows, cols, h) in &[
            (2u32, 2u32, 1usize),
            (4, 4, 1),
            (8, 8, 1),
            (8, 8, 4),
            (16, 16, 2),
            (32, 32, 1),
            (16, 64, 3),
            (12, 6, 2),
            (1, 16, 2),
            (7, 7, 1),
        ] {
            let n = (rows * cols) as usize;
            let mut items = mesh_items(n, h, rows as u64 * 131 + h as u64);
            let mut expect: Vec<u64> = items.iter().flatten().copied().collect();
            expect.sort_unstable();
            let cost = sort_mesh(&mut items, rows, cols, h);
            let got: Vec<u64> = items.iter().flatten().copied().collect();
            assert_eq!(got, expect, "rows={rows} cols={cols} h={h}");
            assert!(cost.steps > 0);
            assert_eq!(cost.analytic_steps, h as u64 * (rows + cols) as u64);
        }
    }

    #[test]
    fn mesh_sorts_partial_and_uneven_fill() {
        // Buffers of varying fill (0..=h keys) must come back balanced.
        let (rows, cols, h) = (8u32, 8u32, 4usize);
        let mut items: Vec<Vec<u64>> = mesh_items(64, h, 5)
            .into_iter()
            .enumerate()
            .map(|(i, mut v)| {
                v.truncate(i % (h + 1));
                v
            })
            .collect();
        let mut expect: Vec<u64> = items.iter().flatten().copied().collect();
        expect.sort_unstable();
        sort_mesh(&mut items, rows, cols, h);
        let got: Vec<u64> = items.iter().flatten().copied().collect();
        assert_eq!(got, expect);
        let total = expect.len();
        for (i, v) in items.iter().enumerate() {
            if (i + 1) * h <= total {
                assert_eq!(v.len(), h, "node {i} not full");
            }
        }
    }

    #[test]
    fn mesh_cost_is_deterministic_and_cached() {
        let mut a = mesh_items(256, 2, 11);
        let mut b = a.clone();
        let c1 = sort_mesh(&mut a, 16, 16, 2);
        let c2 = sort_mesh(&mut b, 16, 16, 2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn memoized_context_path_matches_standalone() {
        let mut engines = EnginePool::new();
        let mut memo = RouteMemo::new();
        let mut a = mesh_items(256, 2, 11);
        let mut b = a.clone();
        let mut c = a.clone();
        let solo = sort_mesh(&mut a, 16, 16, 2);
        let c1 = columnsort_mesh(&mut b, 16, 16, 2, &mut engines, &mut memo);
        assert_eq!(solo, c1, "context resources must not change the cost");
        assert_eq!(a, b, "context resources must not change the output");
        let measured = memo.len();
        assert!(measured >= 4, "four fixed routes measured");
        let c2 = columnsort_mesh(&mut c, 16, 16, 2, &mut engines, &mut memo);
        assert_eq!(c1, c2);
        assert_eq!(memo.len(), measured, "repeat shape hits the memo");
        assert!(engines.reused() > 0, "route engines are recycled");
    }

    #[test]
    fn mesh_beats_shearsort_at_scale() {
        use crate::shearsort::shearsort;
        let side = 128u32;
        let n = (side * side) as usize;
        let mut a = mesh_items(n, 1, 3);
        let mut b = a.clone();
        let cc = sort_mesh(&mut a, side, side, 1);
        let sc = shearsort(&mut b, side, side, 1);
        assert_eq!(a, b, "both sorters must agree");
        assert!(
            cc.steps < sc.steps,
            "columnsort {} !< shearsort {}",
            cc.steps,
            sc.steps
        );
    }

    #[test]
    fn block_plan_respects_feasibility() {
        for &(rows, cols, h) in &[(8u32, 8u32, 1usize), (16, 16, 2), (12, 6, 1), (128, 128, 1)] {
            let p = BlockPlan::choose(rows, cols, h).expect("plan");
            assert!(rows.is_multiple_of(p.sr) && cols.is_multiple_of(p.sc));
            assert_eq!(p.s, p.sr * p.sc);
            assert!(p.s >= 2);
            assert!(p.r >= 2 * (p.s as usize - 1) * (p.s as usize - 1));
            assert_eq!(p.r * p.s as usize, rows as usize * cols as usize * h);
        }
        // Too small to split: falls back to the line sort.
        assert!(BlockPlan::choose(1, 2, 1).is_none());
    }
}
