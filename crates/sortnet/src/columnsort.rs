//! Leighton's columnsort — the `O(l·√n)`-class sorting scheme the
//! paper's cost accounting assumes (via \[KSS94, Kun93\]).
//!
//! Columnsort sorts an `r × s` matrix (column-major, `r ≥ 2(s-1)²`) in
//! eight phases: four column-sorting phases interleaved with three fixed
//! permutations (reshape-transpose, its inverse, and a half-column
//! shift).
//!
//! [`columnsort_mesh`] is the fully **step-simulated** mesh realization
//! (the default sorter of the simulation, [`crate::sorter::Sorter`]). It
//! sorts the sort layer's one buffer format — `h` padded slots per node,
//! nodes in snake order — in place. Each matrix column is a rectangular
//! *block* of the mesh (blocks tile the mesh in snake order over the
//! block grid, so consecutive columns are mesh-adjacent). The
//! column-sorting phases run shearsort inside every block in parallel:
//! the flat kernel [`crate::shearsort::shearsort_flat`] sorts each
//! block's slice of the matrix in place and charges the merge-split
//! rounds exactly. The three fixed permutations, plus the final
//! block-major → snake relayout, are executed as balanced packet routes
//! on the store-and-forward engine ([`prasim_mesh::engine::Engine`]) and
//! charged at their *measured* step count. The permutations are
//! data-independent, so each route is measured once per
//! `(rows, cols, h, block-plan)` shape and memoized; the engine is
//! byte-deterministic for every worker count, which makes the memoized
//! costs thread-independent too.
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

use crate::shearsort::{shearsort_flat, SortCost};
use crate::snake::{snake_coord, snake_index};

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

/// Matrix-index → mesh layout of a block plan: for matrix slot `t`, its
/// index in the snake-ordered buffer and the engine node index.
struct Layout {
    /// `t →` buffer slot (snake position of the owning node `· h + t mod h`).
    slot: Vec<usize>,
    /// `t →` row-major node index (for engine coordinates).
    node: Vec<u32>,
}

impl Layout {
    fn build(rows: u32, cols: u32, h: usize, plan: &BlockPlan) -> Layout {
        let slots = rows as usize * cols as usize * h;
        let mut slot = Vec::with_capacity(slots);
        let mut node = Vec::with_capacity(slots);
        for beta in 0..plan.s {
            let (br, bc) = snake_coord(plan.sc, beta);
            for ln in 0..(plan.brows * plan.bcols) {
                let (lr, lc) = snake_coord(plan.bcols, ln);
                let (gr, gc) = (br * plan.brows + lr, bc * plan.bcols + lc);
                let pos = snake_index(cols, gr, gc) as usize;
                let idx = gr * cols + gc;
                for i in 0..h {
                    slot.push(pos * h + i);
                    node.push(idx);
                }
            }
        }
        Layout { slot, node }
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
fn sort_blocks<K: Ord + Copy>(
    a: &mut [K],
    h: usize,
    plan: &BlockPlan,
    scratch: &mut Vec<K>,
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
fn merge_adjacent<K: Ord + Copy>(a: &mut [K], r: usize, s: usize, scratch: &mut Vec<K>) {
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

/// Step-simulated Leighton columnsort on a `rows × cols` mesh, sorting
/// `buf` in place: `h` keys per node, nodes in snake order
/// (`buf.len() == rows·cols·h`), padding included as keys that sort
/// after every real key — the [`shearsort_flat`] contract. `engines`
/// serves the permutation-route measurements (reusing buffers across
/// measurements and calls) and `memo` carries the per-shape route costs
/// — both normally owned by an execution context (`prasim-exec`).
///
/// Cost accounting: the four column-sorting phases charge the *maximum*
/// measured in-block shearsort (blocks run in parallel); the transpose,
/// untranspose, boundary-exchange and final-relayout permutations charge
/// their engine-measured route costs (memoized per shape — the routes
/// are fixed and data-independent). Shapes with no feasible block plan
/// fall back to one odd-even transposition sort along the snake: `L`
/// merge-split rounds over `L` nodes, `h` steps each. `analytic_steps`
/// stays the paper's `h·(rows+cols)` charge, as for shearsort.
///
/// # Panics
/// Panics if `buf.len() != rows·cols·h` or `h == 0`.
pub fn columnsort_mesh<K: Ord + Copy>(
    buf: &mut [K],
    rows: u32,
    cols: u32,
    h: usize,
    engines: &mut EnginePool,
    memo: &mut RouteMemo,
) -> SortCost {
    assert!(h >= 1);
    assert_eq!(buf.len(), rows as usize * cols as usize * h);
    let analytic = h as u64 * (rows as u64 + cols as u64);

    let Some(plan) = BlockPlan::choose(rows, cols, h) else {
        buf.sort_unstable();
        return SortCost {
            steps: buf.len() as u64,
            analytic_steps: analytic,
            phases: 1,
        };
    };
    let layout = Layout::build(rows, cols, h, &plan);
    let (r, s) = (plan.r, plan.s as usize);

    // Gather into the column-major matrix.
    let mut a: Vec<K> = layout.slot.iter().map(|&i| buf[i]).collect();

    let mut steps = 0u64;
    // Shared by the block sorts and the permutations; each use clears it.
    let mut scratch: Vec<K> = Vec::with_capacity(a.len());

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
    buf.copy_from_slice(&a);

    SortCost {
        steps,
        analytic_steps: analytic,
        phases: 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;
    use crate::shearsort::shearsort_flat;

    /// Per-node buffers padded to `h` slots, nodes in snake order.
    fn pad(items: &[Vec<u64>], h: usize) -> Vec<Key<u64>> {
        let mut buf = Vec::with_capacity(items.len() * h);
        for v in items {
            buf.extend(v.iter().map(|&x| Key::Val(x)));
            buf.extend(std::iter::repeat_n(Key::PosInf, h - v.len()));
        }
        buf
    }

    /// Columnsort on throwaway execution resources; returns the sorted
    /// real keys and the cost.
    fn sort_mesh(items: &[Vec<u64>], rows: u32, cols: u32, h: usize) -> (Vec<u64>, SortCost) {
        let mut buf = pad(items, h);
        let cost = columnsort_mesh(
            &mut buf,
            rows,
            cols,
            h,
            &mut EnginePool::new(),
            &mut RouteMemo::new(),
        );
        (buf.iter().map_while(|k| k.val()).collect(), cost)
    }

    fn sorted_concat(items: &[Vec<u64>]) -> Vec<u64> {
        let mut all = items.concat();
        all.sort_unstable();
        all
    }

    fn mesh_items(n: usize, h: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                (0..h)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 33
                    })
                    .collect()
            })
            .collect()
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
            let items = mesh_items(n, h, rows as u64 * 131 + h as u64);
            let (got, cost) = sort_mesh(&items, rows, cols, h);
            assert_eq!(got, sorted_concat(&items), "rows={rows} cols={cols} h={h}");
            assert!(cost.steps > 0);
            assert_eq!(cost.analytic_steps, h as u64 * (rows + cols) as u64);
        }
    }

    #[test]
    fn mesh_sorts_partial_and_uneven_fill() {
        // Buffers of varying fill (0..=h keys): the padding must end up
        // behind every real key.
        let (rows, cols, h) = (8u32, 8u32, 4usize);
        let items: Vec<Vec<u64>> = mesh_items(64, h, 5)
            .into_iter()
            .enumerate()
            .map(|(i, mut v)| {
                v.truncate(i % (h + 1));
                v
            })
            .collect();
        let (got, _) = sort_mesh(&items, rows, cols, h);
        assert_eq!(got, sorted_concat(&items));
    }

    #[test]
    fn mesh_cost_is_deterministic_and_cached() {
        let a = mesh_items(256, 2, 11);
        assert_eq!(sort_mesh(&a, 16, 16, 2), sort_mesh(&a, 16, 16, 2));
    }

    #[test]
    fn memoized_context_path_matches_standalone() {
        let mut engines = EnginePool::new();
        let mut memo = RouteMemo::new();
        let items = mesh_items(256, 2, 11);
        let solo = sort_mesh(&items, 16, 16, 2);
        let (mut b, mut c) = (pad(&items, 2), pad(&items, 2));
        let c1 = columnsort_mesh(&mut b, 16, 16, 2, &mut engines, &mut memo);
        assert_eq!(solo.1, c1, "context resources must not change the cost");
        let got: Vec<u64> = b.iter().map_while(|k| k.val()).collect();
        assert_eq!(solo.0, got, "context resources must not change the output");
        let measured = memo.len();
        assert!(measured >= 4, "four fixed routes measured");
        let c2 = columnsort_mesh(&mut c, 16, 16, 2, &mut engines, &mut memo);
        assert_eq!(c1, c2);
        assert_eq!(memo.len(), measured, "repeat shape hits the memo");
        assert!(engines.reused() > 0, "route engines are recycled");
    }

    #[test]
    fn mesh_beats_shearsort_at_scale() {
        let side = 128u32;
        let n = (side * side) as usize;
        let items = mesh_items(n, 1, 3);
        let (got, cc) = sort_mesh(&items, side, side, 1);
        let mut b = pad(&items, 1);
        let sc = shearsort_flat(&mut b, side, side, 1, &mut Vec::new());
        let by_shear: Vec<u64> = b.iter().map_while(|k| k.val()).collect();
        assert_eq!(got, by_shear, "both sorters must agree");
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
