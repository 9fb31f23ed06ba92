//! Deterministic fault injection and trace-based consistency checking
//! for the PRAM-on-mesh simulation.
//!
//! The paper's entire redundancy machinery — `q^k` copies per variable
//! arranged as the complete `q`-ary tree `T_v` with the hierarchical
//! majority rule of Definition 2 — exists so that memory accesses survive
//! unreachable or stale copies. This crate supplies the two halves needed
//! to actually exercise that claim:
//!
//! - [`plan`]: a seeded, reproducible [`FaultPlan`] describing dead mesh
//!   nodes, severed or lossy links, and corrupted or frozen memory
//!   copies, each either static or activating at a chosen PRAM step. The
//!   plan materializes per-step [`prasim_mesh::FaultMask`]s for the
//!   packet engine and per-cell overlays for the memory system.
//! - [`checker`]: a [`TraceChecker`] that replays the recorded trace of
//!   simulated reads and writes against an ideal shared memory and
//!   classifies every read as correct, tainted (correct but flagged),
//!   detectably unrecoverable, or silently wrong — the last class must
//!   stay empty for the simulation to count as a legal EREW PRAM.

#![forbid(unsafe_code)]

pub mod checker;
pub mod plan;

pub use checker::{ReadOutcome, ReadRecord, TraceChecker, TraceReport, WriteRecord};
pub use plan::{CopyFaultKind, FaultPlan};
