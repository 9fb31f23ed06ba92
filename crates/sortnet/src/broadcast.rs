//! Segmented broadcast (prefix copy) along the snake order.
//!
//! After sorting, requests for the same variable form a contiguous
//! segment whose *leader* (rank 0) holds the authoritative value; the
//! segmented broadcast copies the leader's value to every member. On a
//! mesh this is the mirror image of the segmented rank: one pipelined
//! sweep over the sort's output ([`Sorted`]), `O(l·(rows + cols))`
//! steps. It is the primitive behind the concurrent-read (CREW)
//! front-end, where duplicate reads are combined before the EREW machine
//! runs and fanned back out afterwards.

use crate::rank::sweep_cost;
use crate::shearsort::SortCost;
use crate::sorter::Sorted;

/// Copies, along the snake order, the first-seen `value` of each group
/// onto every later key of the same (contiguous) group. Returns the
/// cost charge, the same as [`crate::rank::rank_sorted`]'s (0 when
/// `sorted` is empty).
///
/// Groups must be contiguous in `sorted.keys` (i.e. the keys are sorted
/// by group).
pub fn segmented_broadcast<T, G, V, FG, FV, FS>(
    sorted: &mut Sorted<T>,
    mut group_of: FG,
    mut value_of: FV,
    mut set_value: FS,
) -> SortCost
where
    G: Eq + Copy,
    V: Copy,
    FG: FnMut(&T) -> G,
    FV: FnMut(&T) -> Option<V>,
    FS: FnMut(&mut T, V),
{
    let mut current: Option<(G, Option<V>)> = None;
    for item in sorted.keys.iter_mut() {
        let g = group_of(item);
        match current {
            Some((cg, carried)) if cg == g => {
                if let Some(v) = carried {
                    set_value(item, v);
                } else if let Some(v) = value_of(item) {
                    current = Some((g, Some(v)));
                }
            }
            _ => {
                current = Some((g, value_of(item)));
            }
        }
    }
    sweep_cost(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Item {
        group: u32,
        value: Option<u64>,
    }

    fn item(group: u32, value: Option<u64>) -> Item {
        Item { group, value }
    }

    /// Broadcasts over `keys` laid out `h` per node on a 2×2 submesh;
    /// returns the keys afterwards and the charge.
    fn bcast(keys: Vec<Item>, h: usize) -> (Vec<Item>, SortCost) {
        let mut sorted = Sorted {
            keys,
            h,
            rows: 2,
            cols: 2,
            cost: SortCost::default(),
        };
        let cost = segmented_broadcast(
            &mut sorted,
            |it| it.group,
            |it| it.value,
            |it, v| it.value = Some(v),
        );
        (sorted.keys, cost)
    }

    #[test]
    fn leader_value_propagates() {
        let (keys, _) = bcast(
            vec![
                item(1, Some(10)),
                item(1, None),
                item(1, None),
                item(2, Some(20)),
                item(2, None),
            ],
            2,
        );
        assert_eq!(keys[1].value, Some(10));
        assert_eq!(keys[2].value, Some(10));
        assert_eq!(keys[4].value, Some(20));
    }

    #[test]
    fn late_leader_fills_rest_of_segment() {
        // The first items of a group may lack a value (e.g. the carrier
        // packet landed mid-segment after routing): the first item *with*
        // a value becomes the source for the remainder.
        let (keys, _) = bcast(vec![item(5, None), item(5, Some(7)), item(5, None)], 1);
        assert_eq!(keys[0].value, None); // before the carrier: untouched
        assert_eq!(keys[2].value, Some(7));
    }

    #[test]
    fn groups_do_not_leak() {
        let (keys, _) = bcast(
            vec![
                item(1, Some(1)),
                item(2, None),
                item(3, Some(3)),
                item(3, None),
            ],
            1,
        );
        assert_eq!(keys[1].value, None);
        assert_eq!(keys[3].value, Some(3));
    }

    #[test]
    fn cost_scales_with_load() {
        let (_, c1) = bcast(vec![item(0, Some(1)); 4], 1);
        let (_, c5) = bcast(vec![item(0, Some(1)); 20], 5);
        assert_eq!(c5.steps, 5 * c1.steps);
        let (_, c0) = bcast(Vec::new(), 1);
        assert_eq!(c0, SortCost::default(), "empty input charges nothing");
    }
}
