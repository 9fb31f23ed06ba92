//! Segmented ranking of sorted keys.
//!
//! After a sort, packets destined to the same page/submesh occupy a
//! contiguous segment of the snake order; *ranking* assigns each packet
//! its index within its segment (used to spread packets evenly over the
//! processors of the destination submesh, and by CULLING to mark the
//! first copies of each page). On a mesh this is a segmented parallel
//! prefix, a standard `O(l·(rows + cols))` pipelined computation over
//! the sort's output ([`Sorted`], `l` its most keys on one node); we
//! execute it as a scan and charge exactly that cost (see DESIGN.md §4).

use crate::shearsort::SortCost;
use crate::sorter::Sorted;

/// Ranks sorted keys within their groups along the snake order.
///
/// Groups must be contiguous in `sorted.keys` (e.g. sorted on a key with
/// the group as prefix). Returns per-key ranks, aligned with
/// `sorted.keys`, and the cost charge: one pipelined sweep there and
/// back, `2·l·(rows + cols)` for `l = sorted.max_fill()` (0 when empty).
pub fn rank_sorted<T, G, F>(sorted: &Sorted<T>, mut group_of: F) -> (Vec<u64>, SortCost)
where
    G: Eq + Copy,
    F: FnMut(&T) -> G,
{
    let mut current: Option<(G, u64)> = None;
    let ranks = sorted
        .keys
        .iter()
        .map(|key| {
            let g = group_of(key);
            let next = match current {
                Some((cg, n)) if cg == g => n + 1,
                _ => 0,
            };
            current = Some((g, next));
            next
        })
        .collect();
    (ranks, sweep_cost(sorted))
}

/// The charge of one segmented sweep over `sorted`: `2·l·(rows + cols)`
/// with `l` its most keys on one node.
pub(crate) fn sweep_cost<T>(sorted: &Sorted<T>) -> SortCost {
    let steps = 2 * sorted.max_fill() as u64 * (sorted.rows as u64 + sorted.cols as u64);
    SortCost {
        steps,
        analytic_steps: steps,
        phases: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnsort::RouteMemo;
    use crate::sorter::Sorter;
    use prasim_mesh::pool::EnginePool;
    use std::collections::HashMap;

    fn sorted<T>(keys: Vec<T>, h: usize) -> Sorted<T> {
        Sorted {
            keys,
            h,
            rows: 2,
            cols: 2,
            cost: SortCost::default(),
        }
    }

    #[test]
    fn ranks_within_contiguous_groups() {
        let keys = vec![(0u64, 10u64), (0, 11), (0, 12), (1, 20), (1, 21), (2, 30)];
        let (ranks, cost) = rank_sorted(&sorted(keys, 2), |t| t.0);
        assert_eq!(ranks, vec![0, 1, 2, 0, 1, 0]);
        assert_eq!(cost.steps, 2 * 2 * 4);
    }

    #[test]
    fn empty_input_ranks_nothing_and_costs_nothing() {
        let (ranks, cost) = rank_sorted(&sorted(Vec::<(u64, u64)>::new(), 1), |t| t.0);
        assert!(ranks.is_empty());
        assert_eq!(cost, SortCost::default());
    }

    #[test]
    fn sort_then_rank_pipeline() {
        // The canonical use: sort packets by destination group, then rank.
        let (rows, cols, h) = (4u32, 4u32, 3u32);
        let mut state = 12345u64;
        let pairs: Vec<(u32, (u64, u64))> = (0..rows * cols * h)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (i / h, ((state >> 33) % 5, i as u64))
            })
            .collect();
        let s = Sorter::Shearsort.sort_pairs(
            pairs,
            rows,
            cols,
            &mut EnginePool::new(),
            &mut RouteMemo::new(),
        );
        let (ranks, _) = rank_sorted(&s, |t| t.0);
        // Each (group, rank) pair must be unique and dense per group.
        let mut seen: HashMap<u64, Vec<u64>> = HashMap::new();
        for ((g, _), &r) in s.keys.iter().zip(&ranks) {
            seen.entry(*g).or_default().push(r);
        }
        for (g, mut rs) in seen {
            rs.sort_unstable();
            let expect: Vec<u64> = (0..rs.len() as u64).collect();
            assert_eq!(rs, expect, "group {g} ranks not dense");
        }
    }
}
