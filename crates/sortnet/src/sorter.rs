//! The pluggable mesh-sorter layer and the one sort contract.
//!
//! Every hot path of the simulation — the access protocol, CULLING,
//! CREW/CRCW combining, and both routing layers — sorts through
//! [`Sorter::sort_pairs`] (behind `ExecCtx::sort_pairs`): the caller
//! hands over `(snake position, key)` pairs on a `rows × cols` submesh
//! and gets the keys back in sorted order as a [`Sorted`]. The sorter
//! reads `h = max(1, most keys on one node)` off the input, pads every
//! node to `h` slots and runs the selected kernel on that one padded,
//! snake-ordered buffer ([`Sorter::sort_with`]). Sorted key `j` sits on
//! snake position `j / h`, which is where [`crate::rank`] and
//! [`crate::broadcast`] pick it up.
//!
//! The kernel runs on 4-byte *ranks*, not on the keys: the pair entry
//! sorts the keys once with the standard library, replaces each key by
//! the number of strictly smaller keys (equal keys, equal ranks) and
//! pads with `u32::MAX`. That is exact. A kernel's output is the sorted
//! multiset, and its charged cost depends only on how slots compare —
//! shearsort's data-dependent phase count and columnsort's block sorts
//! included — which ranks preserve, ties and padding too. DESIGN.md §4
//! states the argument.
//!
//! Two step-simulated sorters are available:
//!
//! - [`Sorter::Shearsort`] — merge-split shearsort,
//!   `O(l·√n·log n)` (the historical default; kept for comparison and
//!   as the T17 baseline).
//! - [`Sorter::Columnsort`] — the step-simulated Leighton columnsort of
//!   [`crate::columnsort::columnsort_mesh`], in the `O(l·√n)` class the
//!   paper's accounting assumes. **The default** ([`Sorter::default`]).
//!
//! There is no process-wide sorter: a run names its sorter once, in
//! `SimConfig::with_sorter` or `ExecCtx::new` (the CLIs' `--sorter`
//! flag feeds those), and every sort phase reads it from the run's
//! execution context.

use prasim_mesh::pool::EnginePool;

use crate::columnsort::{columnsort_mesh, RouteMemo};
use crate::shearsort::{shearsort_flat, SortCost};

/// Selects the step-simulated sorting algorithm used by the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Sorter {
    /// Merge-split shearsort — `O(l·√n·log n)`.
    Shearsort,
    /// Step-simulated Leighton columnsort — `O(l·√n)`.
    #[default]
    Columnsort,
}

/// Keys sorted into snake order on a `rows × cols` submesh, `h` per node:
/// key `j` sits on snake position `j / h` (the trailing nodes hold the
/// remainder, or nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sorted<T> {
    /// The keys, ascending.
    pub keys: Vec<T>,
    /// Keys per node: `max(1, most keys on one node)` of the input.
    pub h: usize,
    /// Submesh rows.
    pub rows: u32,
    /// Submesh columns.
    pub cols: u32,
    /// The sort's measured cost.
    pub cost: SortCost,
}

impl<T> Sorted<T> {
    /// Every key with its snake position, in sorted order.
    pub fn placed(&self) -> impl Iterator<Item = (u32, &T)> {
        let h = self.h;
        self.keys
            .iter()
            .enumerate()
            .map(move |(j, key)| ((j / h) as u32, key))
    }

    /// The most keys on one node after the sort (0 when there are none):
    /// the load a pipelined sweep over the sorted keys is charged for.
    pub fn max_fill(&self) -> usize {
        self.h.min(self.keys.len())
    }
}

impl Sorter {
    /// Every sorter, in display order.
    pub const ALL: [Sorter; 2] = [Sorter::Shearsort, Sorter::Columnsort];

    /// Sorts `(snake position, key)` pairs on a `rows × cols` submesh:
    /// derives `h = max(1, most keys on one node)`, pads every node to
    /// `h` slots and sorts the padded buffer with [`Sorter::sort_with`].
    /// Empty input still pays for a sort at `h = 1`.
    ///
    /// The keys themselves are sorted once, with the standard library;
    /// the kernel sorts their ranks (the module docs explain why that
    /// charges exactly what sorting the keys would).
    ///
    /// # Panics
    /// Panics if a position is outside the submesh, if the padded buffer
    /// has `u32::MAX` slots or more, or if the kernel returns the ranks
    /// unsorted.
    pub fn sort_pairs<T: Ord + Copy>(
        self,
        pairs: impl IntoIterator<Item = (u32, T)>,
        rows: u32,
        cols: u32,
        engines: &mut EnginePool,
        memo: &mut RouteMemo,
    ) -> Sorted<T> {
        let nodes = rows as usize * cols as usize;
        let mut fill = vec![0usize; nodes];
        let mut keyed: Vec<(T, u32)> = pairs
            .into_iter()
            .map(|(pos, key)| {
                fill[pos as usize] += 1;
                (key, pos)
            })
            .collect();
        let h = fill.iter().copied().max().unwrap_or(0).max(1);
        assert!(
            nodes * h < u32::MAX as usize,
            "a {rows}×{cols} sort at h = {h} has too many slots for u32 ranks"
        );
        // Each node fills its first `fill` slots (in reverse input order:
        // both kernels sort every node before anything else).
        for (_, at) in &mut keyed {
            let p = *at as usize;
            fill[p] -= 1;
            *at = (p * h + fill[p]) as u32;
        }
        keyed.sort_unstable_by_key(|&(key, _)| key);
        let mut buf = vec![u32::MAX; nodes * h];
        let mut rank = 0;
        for (j, &(key, at)) in keyed.iter().enumerate() {
            if j > 0 && keyed[j - 1].0 != key {
                rank = j as u32;
            }
            buf[at as usize] = rank;
        }
        let cost = self.sort_with(&mut buf, rows, cols, h, engines, memo);
        assert!(buf.is_sorted(), "the {self} kernel left its ranks unsorted");
        Sorted {
            keys: keyed.into_iter().map(|(key, _)| key).collect(),
            h,
            rows,
            cols,
            cost,
        }
    }

    /// The kernel dispatch: sorts a padded buffer of `h` keys per node,
    /// nodes in snake order (`buf.len() == rows·cols·h`), with the
    /// selected algorithm and returns its measured cost. `engines` and
    /// `memo` are caller-owned execution resources (normally an
    /// execution context's engine pool and columnsort route memo);
    /// shearsort needs neither, columnsort uses them to measure the
    /// permutation routes its committed cost table lacks.
    pub fn sort_with<K: Ord + Copy>(
        self,
        buf: &mut [K],
        rows: u32,
        cols: u32,
        h: usize,
        engines: &mut EnginePool,
        memo: &mut RouteMemo,
    ) -> SortCost {
        match self {
            Sorter::Shearsort => shearsort_flat(buf, rows, cols, h, &mut Vec::new()),
            Sorter::Columnsort => columnsort_mesh(buf, rows, cols, h, engines, memo),
        }
    }

    /// The CLI / table name.
    pub fn name(self) -> &'static str {
        match self {
            Sorter::Shearsort => "shearsort",
            Sorter::Columnsort => "columnsort",
        }
    }

    /// Parses a CLI name (`shearsort`/`shear`, `columnsort`/`column`).
    pub fn parse(s: &str) -> Option<Sorter> {
        match s {
            "shearsort" | "shear" => Some(Sorter::Shearsort),
            "columnsort" | "column" => Some(Sorter::Columnsort),
            _ => None,
        }
    }
}

impl std::fmt::Display for Sorter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Sorter {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Sorter::parse(s).ok_or_else(|| format!("unknown sorter '{s}' (shearsort|columnsort)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for s in Sorter::ALL {
            assert_eq!(Sorter::parse(s.name()), Some(s));
            assert_eq!(s.name().parse::<Sorter>().unwrap(), s);
        }
        assert_eq!(Sorter::parse("bitonic"), None);
        assert!("bitonic".parse::<Sorter>().is_err());
    }

    #[test]
    fn both_sorters_agree() {
        let pairs: Vec<(u32, u64)> = (0..64u32)
            .rev()
            .flat_map(|x| [(x, x as u64), (x, x as u64 / 2)])
            .collect();
        let [a, b] = Sorter::ALL.map(|s| {
            s.sort_pairs(
                pairs.iter().copied(),
                8,
                8,
                &mut EnginePool::new(),
                &mut RouteMemo::new(),
            )
        });
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.h, 2);
        assert_eq!(b.placed().nth(5), Some((2, &b.keys[5])));
    }

    #[test]
    fn default_is_columnsort() {
        assert_eq!(Sorter::default(), Sorter::Columnsort);
    }
}
