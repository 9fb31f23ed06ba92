//! Property tests: shearsort against the standard library sort oracle.

use prasim_sortnet::shearsort::shearsort;
use prasim_sortnet::snake::{snake_coord, snake_index};
use proptest::prelude::*;

proptest! {
    /// Shearsort produces exactly the multiset, sorted in snake order,
    /// balanced h-per-node, for arbitrary grids, loads and data.
    #[test]
    fn matches_std_sort(
        rows in 1u32..12,
        cols in 1u32..12,
        h in 1usize..6,
        data in prop::collection::vec(any::<u32>(), 0..300),
    ) {
        let n = (rows * cols) as usize;
        // Distribute data round-robin, truncated to capacity.
        let mut items: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, &x) in data.iter().take(n * h).enumerate() {
            items[i % n].push(x);
        }
        let mut expect: Vec<u32> = items.iter().flatten().copied().collect();
        expect.sort_unstable();

        let cost = shearsort(&mut items, rows, cols, h);
        let got: Vec<u32> = items.iter().flatten().copied().collect();
        prop_assert_eq!(got, expect);
        prop_assert!(cost.steps > 0 || data.is_empty() || n == 1 || data.len() <= 1);
        // Balance: all nodes before the last non-empty one are full.
        let total: usize = items.iter().map(|v| v.len()).sum();
        let full_nodes = total / h;
        for (i, v) in items.iter().enumerate() {
            if i < full_nodes {
                prop_assert_eq!(v.len(), h);
            }
        }
    }

    /// Sorting is idempotent.
    #[test]
    fn idempotent(rows in 1u32..8, cols in 1u32..8, seed in any::<u64>()) {
        let n = (rows * cols) as usize;
        let mut state = seed | 1;
        let mut items: Vec<Vec<u64>> = (0..n).map(|_| {
            (0..3).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 40
            }).collect()
        }).collect();
        shearsort(&mut items, rows, cols, 3);
        let once = items.clone();
        shearsort(&mut items, rows, cols, 3);
        prop_assert_eq!(items, once);
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

mod columnsort_props {
    use prasim_sortnet::columnsort::columnsort;
    use proptest::prelude::*;

    proptest! {
        /// Columnsort agrees with the standard sort for arbitrary data on
        /// power-of-two meshes with partial fill.
        #[test]
        fn matches_std_sort(
            side in prop::sample::select(&[4u32, 8, 16, 32]),
            h in 1usize..5,
            data in prop::collection::vec(any::<u32>(), 1..800),
        ) {
            let cap = (side * side) as usize * h;
            let mut v: Vec<u32> = data.into_iter().take(cap).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            columnsort(&mut v, side, side, h);
            prop_assert_eq!(v, expect);
        }
    }
}

mod sorter_agreement {
    use prasim_mesh::pool::EnginePool;
    use prasim_sortnet::{columnsort_mesh, shearsort::shearsort, RouteMemo, Sorter};
    use proptest::prelude::*;

    proptest! {
        /// Both mesh sorters and the standard library agree on the sorted
        /// multiset for random shapes — non-square meshes and h > 1
        /// included — and both leave the keys balanced h-per-node.
        #[test]
        fn sorters_agree_on_random_multisets(
            rows in 1u32..10,
            cols in 1u32..10,
            h in 1usize..5,
            data in prop::collection::vec(any::<u32>(), 0..250),
        ) {
            let n = (rows * cols) as usize;
            let mut items: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (i, &x) in data.iter().take(n * h).enumerate() {
                items[i % n].push(x);
            }
            let mut expect: Vec<u32> = items.iter().flatten().copied().collect();
            expect.sort_unstable();

            let mut by_shear = items.clone();
            shearsort(&mut by_shear, rows, cols, h);
            let mut by_col = items.clone();
            columnsort_mesh(&mut by_col, rows, cols, h, &mut EnginePool::new(), &mut RouteMemo::new());

            let shear_flat: Vec<u32> = by_shear.iter().flatten().copied().collect();
            let col_flat: Vec<u32> = by_col.iter().flatten().copied().collect();
            prop_assert_eq!(&shear_flat, &expect);
            prop_assert_eq!(&col_flat, &expect);
            // Identical balanced layout, node by node.
            prop_assert_eq!(&by_shear, &by_col);
        }

        /// The [`Sorter`] dispatch layer routes to the same
        /// implementations (cost accounting included).
        #[test]
        fn dispatch_matches_direct(
            rows in 1u32..8,
            cols in 1u32..8,
            seed in any::<u64>(),
        ) {
            let n = (rows * cols) as usize;
            let mut state = seed | 1;
            let items: Vec<Vec<u64>> = (0..n).map(|_| {
                (0..2).map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    state >> 40
                }).collect()
            }).collect();
            for sorter in [Sorter::Shearsort, Sorter::Columnsort] {
                let mut a = items.clone();
                let (mut engines, mut memo) = (EnginePool::new(), RouteMemo::new());
                let ca = sorter.sort_with(&mut a, rows, cols, 2, &mut engines, &mut memo);
                let mut b = items.clone();
                let cb = match sorter {
                    Sorter::Shearsort => shearsort(&mut b, rows, cols, 2),
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
