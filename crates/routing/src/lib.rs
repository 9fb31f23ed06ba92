//! Routing problems on the mesh: `(l1, l2)`-routing and the hierarchical
//! `(l1, l2, δ, m)`-routing of Section 2 of the paper.
//!
//! An `(l1, l2)`-routing problem has every processor send at most `l1`
//! packets and receive at most `l2`. Theorem 2 (from \[SK93\]) bounds it
//! by `√(l1·l2·n) + O(l1·√n)` steps. When the mesh is subdivided into
//! `n/m` submeshes of `m` nodes and each submesh receives at most `δ·m`
//! packets, the 4-step algorithm of Section 2 — sort and rank by
//! destination submesh, spread within the submesh, then route locally —
//! achieves `O(√δ (√(l1·n) + √(l2·m)))`, which beats the flat bound when
//! `l1, δ ∈ o(l2)` and `√(δm) ∈ o(√(l1 n))`.
//!
//! - [`problem`]: instance representation and generators.
//! - [`greedy`]: greedy XY routing executed on the packet engine.
//! - [`flat`]: sort-then-route `(l1, l2)`-routing.
//! - [`hierarchical`]: the 4-step `(l1, l2, δ, m)`-routing.
//! - [`cost`]: the paper's analytic cost formulas for comparison.
//! - [`bounds`]: instance-specific lower bounds (distance, receiver,
//!   bisection) grounding the measured comparisons.

//!
//! # Example
//!
//! ```
//! use prasim_mesh::topology::MeshShape;
//! use prasim_exec::ExecCtx;
//! use prasim_routing::flat::route_flat;
//! use prasim_routing::problem::RoutingInstance;
//!
//! let inst = RoutingInstance::permutation(MeshShape::square(8), 42);
//! let out = route_flat(&inst, 100_000, &mut ExecCtx::default()).unwrap();
//! assert_eq!(out.delivered, 64);
//! ```

pub mod bounds;
pub mod cost;
pub mod flat;
pub mod greedy;
pub mod hierarchical;
pub mod problem;

pub use bounds::{lower_bounds, LowerBounds};
pub use flat::route_flat;
pub use greedy::route_greedy;
pub use hierarchical::route_hierarchical;
pub use problem::{RoutingInstance, RoutingOutcome};
