//! The mesh-connected computer: topology, rectangular regions and
//! tessellations, and a synchronous store-and-forward packet engine.
//!
//! The simulating machine of the paper is an `n = s × s` square mesh in
//! which every processor has its own memory module and is connected to at
//! most four neighbors by point-to-point links. One time unit lets a
//! processor exchange one packet with one neighbor (one packet per
//! directed link per step). This crate models exactly that machine:
//!
//! - [`topology`]: coordinates, node indices, snake order, neighbor maps.
//! - [`region`]: axis-aligned rectangular submeshes and the recursive
//!   near-equal tessellations used to map HMOS pages onto the mesh.
//! - [`engine`]: the synchronous packet engine (greedy XY routing within
//!   a bounding region, FIFO link queues with farthest-first priority,
//!   step counting and congestion metrics), built on flat
//!   struct-of-arrays storage with zero steady-state allocation.
//! - [`arena`]: the struct-of-arrays packet store the engine indexes
//!   into ([`arena::PacketRef`] instead of cloned packets).
//! - [`fault`]: static fault masks — dead nodes, severed and lossy links —
//!   consulted by the engine to divert or drop packets deterministically,
//!   stored as dense bitsets.
//! - [`pool`]: shape-keyed engine reuse, owned by an execution context
//!   rather than rebuilt per step. The sharded engine's band workers are
//!   not pooled: they are scoped threads that live for one run.
//!
//! The engine is pinned at every thread count to a sequential textbook
//! oracle, one `Vec` queue per node, in `tests/engine_oracle.rs`.
//!
//! # Example
//!
//! ```
//! use prasim_mesh::engine::{Engine, Packet};
//! use prasim_mesh::region::Rect;
//! use prasim_mesh::topology::{Coord, MeshShape};
//!
//! let shape = MeshShape::square(8);
//! let mut engine = Engine::new(shape);
//! engine.inject(Coord::new(0, 0), Packet {
//!     id: 0,
//!     dest: Coord::new(7, 7),
//!     bounds: Rect::full(shape),
//!     tag: 0,
//! });
//! let stats = engine.run(1000).unwrap();
//! assert_eq!(stats.steps, 14); // Manhattan distance, no contention
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod engine;
pub mod fault;
pub mod pool;
pub mod region;
pub mod topology;
pub mod trace;

pub use arena::{PacketArena, PacketRef};
pub use engine::{Engine, EngineStats, Packet};
pub use fault::FaultMask;
pub use pool::EnginePool;
pub use region::{Rect, Tessellation};
pub use topology::{Coord, MeshShape};
pub use trace::LinkTrace;
