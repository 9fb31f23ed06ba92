//! `prasim` — Constructive Deterministic PRAM Simulation on a
//! Mesh-Connected Computer.
//!
//! Facade crate re-exporting the full public API. See the individual
//! crates for details:
//!
//! - [`gf`]: finite fields `GF(q)` for prime powers `q`.
//! - [`bibd`]: the explicit `(q^d, q)`-BIBD and its balanced subgraphs.
//! - [`mesh`]: the mesh-connected computer (topology, packet engine,
//!   tessellations).
//! - [`sortnet`]: deterministic mesh sorting and ranking.
//! - [`exec`]: the shared execution context (engine pool, sorter
//!   resources, unified cost ledger).
//! - [`routing`]: `(l1,l2)`- and `(l1,l2,δ,m)`-routing.
//! - [`hmos`]: the Hierarchical Memory Organization Scheme.
//! - [`fault`]: deterministic fault injection and the PRAM-consistency
//!   trace checker.
//! - [`core`]: the PRAM step simulation (CULLING + access protocol) and
//!   baseline schemes.

#![forbid(unsafe_code)]

pub use prasim_bibd as bibd;
pub use prasim_core as core;
pub use prasim_exec as exec;
pub use prasim_fault as fault;
pub use prasim_gf as gf;
pub use prasim_hmos as hmos;
pub use prasim_mesh as mesh;
pub use prasim_routing as routing;
pub use prasim_sortnet as sortnet;
