//! Property tests: the sort layer against the standard library sort.

use prasim_mesh::pool::EnginePool;
use prasim_sortnet::key::Key;
use prasim_sortnet::shearsort::shearsort_flat;
use prasim_sortnet::snake::{snake_coord, snake_index};
use prasim_sortnet::{RouteMemo, Sorter};
use proptest::prelude::*;

/// Places `(node, key)` pairs `h` slots per node, padding the rest — the
/// buffer the pair entry hands its kernel, filled in input order.
fn pad(pairs: &[(u32, u32)], nodes: usize, h: usize) -> Vec<Key<u32>> {
    let mut buf = vec![Key::PosInf; nodes * h];
    let mut fill = vec![0usize; nodes];
    for &(p, key) in pairs {
        let p = p as usize;
        buf[p * h + fill[p]] = Key::Val(key);
        fill[p] += 1;
    }
    buf
}

proptest! {
    /// Shearsort produces exactly the multiset, sorted in snake order,
    /// for arbitrary grids, loads and data.
    #[test]
    fn matches_std_sort(
        rows in 1u32..12,
        cols in 1u32..12,
        h in 1usize..6,
        data in prop::collection::vec(any::<u32>(), 0..300),
    ) {
        let n = rows * cols;
        // Distribute data round-robin, truncated to capacity.
        let pairs: Vec<(u32, u32)> = data
            .iter()
            .take(n as usize * h)
            .enumerate()
            .map(|(i, &x)| (i as u32 % n, x))
            .collect();
        let mut expect: Vec<u32> = pairs.iter().map(|&(_, x)| x).collect();
        expect.sort_unstable();

        let sorted = Sorter::Shearsort.sort_pairs(
            pairs,
            rows,
            cols,
            &mut EnginePool::new(),
            &mut RouteMemo::new(),
        );
        prop_assert!(sorted.cost.steps > 0 || data.is_empty() || n == 1 || data.len() <= 1);
        prop_assert_eq!(sorted.keys, expect);
    }

    /// Sorting is idempotent.
    #[test]
    fn idempotent(rows in 1u32..8, cols in 1u32..8, seed in any::<u64>()) {
        let n = (rows * cols) as usize;
        let mut state = seed | 1;
        let mut buf: Vec<u64> = (0..n * 3).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 40
        }).collect();
        shearsort_flat(&mut buf, rows, cols, 3, &mut Vec::new());
        let once = buf.clone();
        shearsort_flat(&mut buf, rows, cols, 3, &mut Vec::new());
        prop_assert_eq!(buf, once);
    }

    /// Snake index maps are mutually inverse bijections.
    #[test]
    fn snake_bijection(rows in 1u32..50, cols in 1u32..50) {
        let mut seen = vec![false; (rows * cols) as usize];
        for r in 0..rows {
            for c in 0..cols {
                let pos = snake_index(cols, r, c);
                prop_assert!(!seen[pos as usize]);
                seen[pos as usize] = true;
                prop_assert_eq!(snake_coord(cols, pos), (r, c));
            }
        }
    }
}

mod sorter_agreement {
    use super::pad;
    use prasim_mesh::pool::EnginePool;
    use prasim_sortnet::broadcast::segmented_broadcast;
    use prasim_sortnet::{columnsort_mesh, rank_sorted, shearsort_flat, RouteMemo, Sorter};
    use proptest::prelude::*;

    /// SplitMix64 finalizer: the seeded fills of the block-plan meshes.
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest! {
        /// Both sorters take `(node, key)` pairs on random shapes —
        /// empty input, uneven fill, every key on one node and
        /// duplicate-heavy keys included — and return the standard
        /// library's sorted keys at `h = max(1, largest fill)`, charging
        /// exactly what their kernel charges on the `Key<u32>` node
        /// buffers padded at that `h`: the pair entry's rank buffer is a
        /// pure speed substitution. Half the cases use 8×8 to 16×16
        /// meshes at `h ≤ 9`, where columnsort runs its block plan (and
        /// its route costs), not only the snake fallback of small
        /// meshes. Empty input still pays for a sort at `h = 1`; rank
        /// and broadcast charge from the largest fill after the sort, so
        /// nothing on empty input.
        #[test]
        fn sorters_agree_on_random_multisets(
            block_plan in any::<bool>(),
            rows in 0u32..9,
            cols in 0u32..9,
            layout in 0u8..4,
            distinct in prop::sample::select(&[1u32, 2, 3, 17, u32::MAX]),
            h_max in 1u64..10,
            seed in any::<u64>(),
            data in prop::collection::vec((any::<u32>(), any::<u32>()), 0..250),
        ) {
            let base = if block_plan { 8 } else { 1 };
            let (rows, cols) = (rows + base, cols + base);
            let n = rows * cols;
            let mut pairs: Vec<(u32, u32)> = match layout {
                0 => Vec::new(),
                1 => data.iter().map(|&(node, key)| (node % n, key)).collect(),
                2 => data.iter().map(|&(_, key)| (data.len() as u32 % n, key)).collect(),
                _ => (0..n)
                    .flat_map(|node| {
                        let fill = mix(seed ^ u64::from(node)) % (h_max + 1);
                        (0..fill).map(move |i| (node, mix(seed ^ (u64::from(node) << 8 | i)) as u32))
                    })
                    .collect(),
            };
            for (_, key) in &mut pairs {
                *key %= distinct;
            }
            let mut fill = vec![0usize; n as usize];
            for &(p, _) in &pairs {
                fill[p as usize] += 1;
            }
            let h = fill.iter().copied().max().unwrap_or(0).max(1);
            let mut expect: Vec<u32> = pairs.iter().map(|&(_, k)| k).collect();
            expect.sort_unstable();
            let sweep = 2 * h.min(expect.len()) as u64 * (rows + cols) as u64;

            let (mut engines, mut memo) = (EnginePool::new(), RouteMemo::new());
            for sorter in Sorter::ALL {
                let mut sorted =
                    sorter.sort_pairs(pairs.iter().copied(), rows, cols, &mut engines, &mut memo);
                prop_assert_eq!(&sorted.keys, &expect);
                prop_assert_eq!(sorted.h, h);
                prop_assert!(sorted.placed().all(|(pos, _)| pos < n));

                let mut buf = pad(&pairs, n as usize, h);
                let kernel = sorter.sort_with(&mut buf, rows, cols, h, &mut engines, &mut memo);
                prop_assert_eq!(sorted.cost, kernel);
                let kernel_keys: Vec<u32> = buf.iter().map_while(|k| k.val()).collect();
                prop_assert_eq!(&sorted.keys, &kernel_keys);
                prop_assert_eq!(sorted.cost.analytic_steps, h as u64 * (rows + cols) as u64);
                prop_assert!(sorted.cost.steps > 0, "every sort is charged");
                if sorter == Sorter::Columnsort && block_plan && (rows % 2 == 0 || cols % 2 == 0) {
                    // An even side admits at least the two-column plan.
                    prop_assert_eq!(sorted.cost.phases, 8, "columnsort fell back on {}×{}", rows, cols);
                }

                let (ranks, rank_cost) = rank_sorted(&sorted, |&k| k);
                prop_assert_eq!(ranks.len(), expect.len());
                prop_assert_eq!(rank_cost.steps, sweep);
                let bcast = segmented_broadcast(&mut sorted, |&k| k, |_| None::<u32>, |_, _| {});
                prop_assert_eq!(bcast.steps, sweep);
            }
        }

        /// The [`Sorter`] dispatch layer routes to the same kernels
        /// (cost accounting included).
        #[test]
        fn dispatch_matches_direct(
            rows in 1u32..8,
            cols in 1u32..8,
            seed in any::<u64>(),
        ) {
            let n = rows * cols;
            let mut state = seed | 1;
            let pairs: Vec<(u32, u32)> = (0..2 * n).map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (i / 2, (state >> 40) as u32)
            }).collect();
            for sorter in Sorter::ALL {
                let mut a = pad(&pairs, n as usize, 2);
                let (mut engines, mut memo) = (EnginePool::new(), RouteMemo::new());
                let ca = sorter.sort_with(&mut a, rows, cols, 2, &mut engines, &mut memo);
                let mut b = pad(&pairs, n as usize, 2);
                let cb = match sorter {
                    Sorter::Shearsort => shearsort_flat(&mut b, rows, cols, 2, &mut Vec::new()),
                    Sorter::Columnsort => {
                        columnsort_mesh(&mut b, rows, cols, 2, &mut engines, &mut memo)
                    }
                };
                prop_assert_eq!(a, b);
                prop_assert_eq!(ca, cb);
            }
        }
    }
}
