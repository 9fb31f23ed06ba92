//! Oracle test: the flat shearsort kernel against the merge-split
//! shearsort it replaced.
//!
//! The library kernel [`shearsort_flat`] executes each line pass as one
//! in-place sort of the line. The reference below
//! runs the same passes round by round with odd-even transposition and
//! merge-split on per-node `Option<T>` buffers, padding with `None`. By
//! Baudet–Stevenson (1978) both produce the same sorted line after every
//! pass, so the outputs *and* the full [`SortCost`] (`steps`,
//! `analytic_steps`, `phases`) must agree on every input.
//!
//! The second half pins `columnsort_mesh`'s cost at the CULLING shapes
//! (64×64, h = 4, 6, 9) and two small protocol shapes to the values the
//! merge-split implementation produced.
//!
//! Both kernels take the padded buffer at an explicit `h`, built by
//! [`pad`] from per-node buffers exactly as the library pads pairs.

use prasim_mesh::pool::EnginePool;
use prasim_sortnet::key::Key;
use prasim_sortnet::shearsort::{shearsort_flat, SortCost};
use prasim_sortnet::snake::snake_index;
use prasim_sortnet::{columnsort_mesh, RouteMemo};
use proptest::prelude::*;

/// The snake positions forming geometric column `c`, ordered by row.
fn column_positions(rows: u32, cols: u32, c: u32) -> Vec<usize> {
    (0..rows)
        .map(|r| snake_index(cols, r, c) as usize)
        .collect()
}

/// The snake positions forming geometric row `r` (a contiguous ascending
/// chunk).
fn row_positions(cols: u32, r: u32) -> std::ops::Range<usize> {
    (r * cols) as usize..((r + 1) * cols) as usize
}

/// Per-node buffers padded to `h` slots each, nodes in snake order.
fn pad(items: &[Vec<u32>], h: usize) -> Vec<Key<u32>> {
    let mut buf = Vec::with_capacity(items.len() * h);
    for v in items {
        buf.extend(v.iter().map(|&x| Key::Val(x)));
        buf.extend(std::iter::repeat_n(Key::PosInf, h - v.len()));
    }
    buf
}

/// The real keys of a sorted padded buffer.
fn unpad(buf: &[Key<u32>]) -> Vec<u32> {
    buf.iter().map_while(|k| k.val()).collect()
}

/// The round-by-round merge-split shearsort, kept as the oracle.
///
/// `items` is indexed by snake position (`items.len() == rows·cols`);
/// every buffer may hold up to `h` keys. On return the concatenation of
/// the buffers in snake order is sorted, keys are balanced `h` per node
/// (the trailing nodes hold the remainder), and the cost is returned.
///
/// # Panics
/// Panics if any buffer exceeds `h` keys or `items.len() != rows·cols`.
fn oracle_shearsort<T: Ord + Copy>(
    items: &mut [Vec<T>],
    rows: u32,
    cols: u32,
    h: usize,
) -> SortCost {
    assert_eq!(items.len(), (rows as u64 * cols as u64) as usize);
    assert!(h >= 1);
    // Pad to exactly h slots per node with None (= +infinity).
    let mut buf: Vec<Vec<Option<T>>> = items
        .iter()
        .map(|v| {
            assert!(v.len() <= h, "buffer exceeds h = {h}");
            let mut b: Vec<Option<T>> = v.iter().copied().map(Some).collect();
            b.sort_unstable_by(cmp_opt_key);
            b.resize(h, None);
            b
        })
        .collect();

    let mut cost = SortCost {
        steps: 0,
        analytic_steps: h as u64 * (rows as u64 + cols as u64),
        phases: 0,
    };

    let max_phases = rows.max(2).ilog2() + 2 + rows; // theory bound + safety margin
    let mut merge_scratch: Vec<Option<T>> = Vec::with_capacity(2 * h);
    let mut col_scratch: Vec<Vec<Option<T>>> = Vec::with_capacity(rows as usize);
    loop {
        // Row pass: each row is a contiguous ascending chunk in snake
        // indexing. All rows run in parallel -> charge one line sort.
        for r in 0..rows {
            let range = row_positions(cols, r);
            odd_even_line(&mut buf[range], h, &mut merge_scratch);
        }
        cost.steps += cols as u64 * h as u64;
        cost.phases += 1;
        if is_sorted(&buf) {
            break;
        }
        // Column pass.
        for c in 0..cols {
            let ps = column_positions(rows, cols, c);
            col_scratch.clear();
            for &p in &ps {
                col_scratch.push(std::mem::take(&mut buf[p]));
            }
            odd_even_line(&mut col_scratch, h, &mut merge_scratch);
            for (&p, v) in ps.iter().zip(col_scratch.drain(..)) {
                buf[p] = v;
            }
        }
        cost.steps += rows as u64 * h as u64;
        assert!(
            cost.phases < max_phases,
            "shearsort failed to converge in {max_phases} phases"
        );
    }

    for (slot, b) in items.iter_mut().zip(buf) {
        slot.clear();
        slot.extend(b.into_iter().flatten());
    }
    cost
}

/// `None` sorts after every `Some` (acts as +infinity padding).
#[inline]
fn cmp_opt_key<T: Ord>(a: &Option<T>, b: &Option<T>) -> std::cmp::Ordering {
    match (a, b) {
        (Some(x), Some(y)) => x.cmp(y),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    }
}

/// Odd-even transposition with merge-split over a line of blocks; `L`
/// rounds sort `L` pre-sorted blocks. `scratch` is a reusable merge
/// buffer (capacity `2h`) so repeated passes allocate nothing.
fn odd_even_line<T: Ord + Copy>(
    line: &mut [Vec<Option<T>>],
    h: usize,
    scratch: &mut Vec<Option<T>>,
) {
    let n = line.len();
    if n <= 1 {
        return;
    }
    for round in 0..n {
        let start = round % 2;
        let mut i = start;
        while i + 1 < n {
            merge_split(line, i, i + 1, h, scratch);
            i += 2;
        }
    }
}

/// Merge two sorted blocks; lower `h` keys to `lo`, the rest to `hi`.
fn merge_split<T: Ord + Copy>(
    line: &mut [Vec<Option<T>>],
    lo: usize,
    hi: usize,
    h: usize,
    merged: &mut Vec<Option<T>>,
) {
    merged.clear();
    {
        let (a, b) = (&line[lo], &line[hi]);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            if cmp_opt_key(&a[i], &b[j]) != std::cmp::Ordering::Greater {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
    }
    let split = merged.len().min(h);
    line[lo].clear();
    line[lo].extend_from_slice(&merged[..split]);
    line[hi].clear();
    line[hi].extend_from_slice(&merged[split..]);
}

/// Whether the buffers, concatenated in snake order, are sorted with all
/// padding at the tail.
fn is_sorted<T: Ord + Copy>(buf: &[Vec<Option<T>>]) -> bool {
    let mut prev: Option<&Option<T>> = None;
    for b in buf {
        for x in b {
            if let Some(p) = prev {
                if cmp_opt_key(p, x) == std::cmp::Ordering::Greater {
                    return false;
                }
            }
            prev = Some(x);
        }
    }
    true
}

/// Deterministic test input: `rows·cols` node buffers of up to `h` keys.
///
/// `mode` picks the pattern: 0 full random, 1 partial (only the first
/// `fill`% of the capacity, packed from node 0), 2 uneven (node `i`
/// holds `i mod (h+1)` keys), 3 heavy duplicates (keys in `0..3`),
/// 4 reversed, 5 empty.
fn input(rows: u32, cols: u32, h: usize, mode: u8, fill: usize, seed: u64) -> Vec<Vec<u32>> {
    let n = (rows * cols) as usize;
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let cap = n * h;
    (0..n)
        .map(|i| match mode {
            0 => (0..h).map(|_| next()).collect(),
            1 => {
                let keep = cap * fill / 100;
                (0..h)
                    .filter(|j| i * h + j < keep)
                    .map(|_| next())
                    .collect()
            }
            2 => (0..i % (h + 1)).map(|_| next()).collect(),
            3 => (0..h).map(|_| next() % 3).collect(),
            4 => (0..h).map(|j| (cap - i * h - j) as u32).collect(),
            _ => Vec::new(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat kernel matches the merge-split oracle in output and in
    /// every `SortCost` field.
    #[test]
    fn flat_kernel_matches_merge_split_oracle(
        rows in 1u32..=16,
        cols in 1u32..=16,
        h in 1usize..=9,
        mode in 0u8..6,
        fill in 0usize..=100,
        seed in any::<u64>(),
    ) {
        let items = input(rows, cols, h, mode, fill, seed);
        let mut expect = items.clone();
        let want = oracle_shearsort(&mut expect, rows, cols, h);

        let mut flat = pad(&items, h);
        let cost = shearsort_flat(&mut flat, rows, cols, h, &mut Vec::new());
        prop_assert_eq!(cost, want);
        prop_assert_eq!(unpad(&flat), expect.concat());
    }
}

/// Every grid shape in `1..=16 × 1..=16` once, cycling `h` and the input
/// pattern, so no shape is left to the sampler's luck.
#[test]
fn flat_kernel_matches_oracle_on_every_shape() {
    for rows in 1u32..=16 {
        for cols in 1u32..=16 {
            let h = 1 + (rows * 7 + cols) as usize % 9;
            let mode = ((rows + cols) % 6) as u8;
            let items = input(rows, cols, h, mode, 60, (rows * 31 + cols) as u64);
            let mut expect = items.clone();
            let want = oracle_shearsort(&mut expect, rows, cols, h);
            let mut got = pad(&items, h);
            let cost = shearsort_flat(&mut got, rows, cols, h, &mut Vec::new());
            assert_eq!(
                unpad(&got),
                expect.concat(),
                "{rows}x{cols} h={h} mode={mode}"
            );
            assert_eq!(cost, want, "{rows}x{cols} h={h} mode={mode}");
        }
    }
}

#[test]
fn columnsort_mesh_costs_are_pinned() {
    // (rows, cols, h, mode, steps): `steps` as the merge-split
    // implementation charged them; `analytic_steps` is h·(rows+cols) and
    // `phases` is 8 throughout.
    let pinned: [(u32, u32, usize, u8, u64); 30] = [
        (64, 64, 4, 0, 2101),
        (64, 64, 4, 1, 2101),
        (64, 64, 4, 2, 2101),
        (64, 64, 4, 3, 2101),
        (64, 64, 4, 4, 1205),
        (64, 64, 4, 5, 821),
        (64, 64, 6, 0, 3125),
        (64, 64, 6, 1, 3125),
        (64, 64, 6, 2, 3125),
        (64, 64, 6, 3, 2933),
        (64, 64, 6, 4, 1781),
        (64, 64, 6, 5, 1205),
        (64, 64, 9, 0, 4664),
        (64, 64, 9, 1, 4376),
        (64, 64, 9, 2, 4664),
        (64, 64, 9, 3, 4376),
        (64, 64, 9, 4, 2648),
        (64, 64, 9, 5, 1784),
        (8, 5, 9, 0, 424),
        (8, 5, 9, 1, 424),
        (8, 5, 9, 2, 424),
        (8, 5, 9, 3, 343),
        (8, 5, 9, 4, 424),
        (8, 5, 9, 5, 181),
        (9, 6, 6, 0, 309),
        (9, 6, 6, 1, 273),
        (9, 6, 6, 2, 309),
        (9, 6, 6, 3, 273),
        (9, 6, 6, 4, 201),
        (9, 6, 6, 5, 129),
    ];
    let (mut engines, mut memo) = (EnginePool::new(), RouteMemo::new());
    for (rows, cols, h, mode, steps) in pinned {
        let items = input(rows, cols, h, mode, 60, 0x5eed ^ (rows * cols) as u64);
        let mut expect = items.concat();
        expect.sort_unstable();
        let mut buf = pad(&items, h);
        let cost = columnsort_mesh(&mut buf, rows, cols, h, &mut engines, &mut memo);
        assert_eq!(unpad(&buf), expect, "{rows}x{cols} h={h} mode={mode}");
        assert_eq!(
            cost,
            SortCost {
                steps,
                analytic_steps: h as u64 * (rows + cols) as u64,
                phases: 8,
            },
            "{rows}x{cols} h={h} mode={mode}"
        );
    }
}
