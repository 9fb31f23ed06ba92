//! The Hierarchical Memory Organization Scheme (HMOS) — Section 3.1 of
//! the paper.
//!
//! Variables (level-0 modules) are replicated `q` times into level-1
//! modules; each level-`i` module is replicated `q` times into level-`(i+1)`
//! modules, for `k` levels, every replication governed by a balanced
//! BIBD subgraph. The copies of a variable form a complete `q`-ary tree
//! `T_v` of height `k`; tessellations of the mesh assign every level-`i`
//! page to a submesh.
//!
//! - [`params`]: the `d_i`/`|U_i|`/`p_i`/`t_i` arithmetic of Eqs. (1),
//!   (3), (4) and the validity constraints.
//! - [`scheme`]: the HMOS proper — copy addressing, physical mapping.
//! - [`target`]: the copy tree `T_v`, majority / extensive access
//!   (Definition 2), and minimal target-set extraction.

//!
//! # Example
//!
//! ```
//! use prasim_hmos::{CopyAddr, Hmos, HmosParams};
//!
//! let params = HmosParams::with_d(3, 2, 1024, 4).unwrap();
//! assert_eq!(params.redundancy(), 9); // q^k copies per variable
//! let hmos = Hmos::new(params).unwrap();
//! // Resolve one copy of variable 42 to its physical cell.
//! let addr = CopyAddr::from_leaf_index(42, 3, 2, 5);
//! let copy = hmos.resolve(&addr);
//! assert!(hmos.shape().contains(copy.node));
//! ```

#![forbid(unsafe_code)]

pub mod params;
pub mod scheme;
pub mod target;

pub use params::{HmosError, HmosParams, MAX_LEVELS};
pub use scheme::{CopyAddr, CopyCell, Hmos, Instances, PageInstance, ResolvedCopy};
pub use target::{CopyReport, QuorumRead, TargetSpec};
