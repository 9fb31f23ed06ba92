//! The pluggable mesh-sorter layer.
//!
//! Every hot path of the simulation — the access protocol, CULLING,
//! CREW/CRCW combining, and both routing layers — sorts through this
//! dispatch point. Two step-simulated sorters are available:
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
use crate::shearsort::{shearsort, SortCost};

/// Selects the step-simulated sorting algorithm used by the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Sorter {
    /// Merge-split shearsort — `O(l·√n·log n)`.
    Shearsort,
    /// Step-simulated Leighton columnsort — `O(l·√n)`.
    #[default]
    Columnsort,
}

impl Sorter {
    /// Every sorter, in display order.
    pub const ALL: [Sorter; 2] = [Sorter::Shearsort, Sorter::Columnsort];

    /// Sorts snake-indexed `h`-key-per-node buffers on a `rows × cols`
    /// submesh (the [`crate::shearsort::shearsort`] contract) with the
    /// selected algorithm, returning its measured cost. `engines` and
    /// `memo` are caller-owned execution resources (normally an
    /// execution context's engine pool and columnsort route memo);
    /// shearsort needs neither, columnsort uses them for its
    /// permutation route measurements.
    pub fn sort_with<T: Ord + Copy>(
        self,
        items: &mut [Vec<T>],
        rows: u32,
        cols: u32,
        h: usize,
        engines: &mut EnginePool,
        memo: &mut RouteMemo,
    ) -> SortCost {
        match self {
            Sorter::Shearsort => shearsort(items, rows, cols, h),
            Sorter::Columnsort => columnsort_mesh(items, rows, cols, h, engines, memo),
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
        let mut a: Vec<Vec<u64>> = (0..64u64).rev().map(|x| vec![x, x / 2]).collect();
        let mut b = a.clone();
        for (s, items) in [(Sorter::Shearsort, &mut a), (Sorter::Columnsort, &mut b)] {
            s.sort_with(
                items,
                8,
                8,
                2,
                &mut EnginePool::new(),
                &mut RouteMemo::new(),
            );
        }
        assert_eq!(a, b);
    }

    #[test]
    fn default_is_columnsort() {
        assert_eq!(Sorter::default(), Sorter::Columnsort);
    }
}
