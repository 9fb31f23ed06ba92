//! Deterministic sorting and ranking on the mesh.
//!
//! The PRAM simulation repeatedly needs to *sort* packets by destination
//! and *rank* packets within groups, inside submeshes of various sizes
//! (the access protocol's stages, the CULLING procedure, and the
//! `(l1,l2)`-routing all start with a sort). The paper charges
//! `O(l·√n)` for these, citing Kunde-style algorithms; two fully
//! step-simulated sorters are provided behind the pluggable
//! [`sorter::Sorter`] layer: merge-split **shearsort**
//! (`O(l·√n·log n)`) and step-simulated Leighton **columnsort**
//! (`O(l·√n)`, the class the paper assumes — and the default). Both
//! carry exact step-cost accounting plus an analytic mode charging the
//! paper's bound; DESIGN.md §4 discusses the substitution.
//!
//! Callers see one contract: hand over `(snake position, key)` pairs on
//! a `rows × cols` submesh and get back a [`Sorted`] — the keys in
//! sorted order, the `h = max(1, most keys on one node)` the sorter read
//! off the input, and the [`SortCost`]. Sorted key `j` sits on snake
//! position `j / h`. Below that entry both kernels sort one padded,
//! snake-ordered buffer of `h` slots per node in place; the entry fills
//! it with the keys' 4-byte ranks, which charges exactly what the keys
//! would (see [`mod@sorter`]).
//!
//! - [`snake`]: snake-order indexing of a rectangular region.
//! - [`mod@sorter`]: the pair contract ([`Sorter::sort_pairs`],
//!   [`Sorted`]) and the kernel dispatch (default: columnsort).
//! - [`mod@shearsort`]: the merge-split shearsort kernel
//!   [`shearsort::shearsort_flat`].
//! - [`key`]: the sentinel-extended key for callers that pad a buffer of
//!   real keys themselves.
//! - [`mod@columnsort`]: the step-simulated Leighton columnsort kernel
//!   [`columnsort::columnsort_mesh`], and its route-cost lookup.
//! - `route_costs.rs`: the generated table of columnsort's permutation
//!   route costs per `(rows, cols, h)` (see [`mod@columnsort`]).
//! - [`rank`]: segmented ranking over a [`Sorted`].
//! - [`broadcast`]: segmented broadcast (prefix copy) over a [`Sorted`],
//!   for request combining.
//!
//! # Example
//!
//! ```
//! use prasim_mesh::pool::EnginePool;
//! use prasim_sortnet::{RouteMemo, Sorter};
//!
//! // Node 0 holds two keys, node 5 one, on a 4×4 grid: h = 2.
//! let pairs = [(0, 31u64), (0, 7), (5, 12)];
//! let sorted = Sorter::Shearsort.sort_pairs(pairs, 4, 4, &mut EnginePool::new(), &mut RouteMemo::new());
//! assert_eq!(sorted.keys, [7, 12, 31]);
//! assert_eq!(sorted.h, 2);
//! // Key j sits on snake position j / h.
//! assert_eq!(sorted.placed().last(), Some((1, &31)));
//! assert!(sorted.cost.steps > 0);
//! ```

#![forbid(unsafe_code)]

pub mod broadcast;
pub mod columnsort;
pub mod key;
pub mod rank;
mod route_costs;
pub mod shearsort;
pub mod snake;
pub mod sorter;

pub use broadcast::segmented_broadcast;
pub use columnsort::{columnsort_mesh, RouteMemo};
pub use rank::rank_sorted;
pub use shearsort::{shearsort_flat, SortCost};
pub use snake::snake_index;
pub use sorter::{Sorted, Sorter};
