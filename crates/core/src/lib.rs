//! The deterministic PRAM-on-mesh simulation: CULLING, the staged access
//! protocol, consistency, and baseline schemes (Section 3 of the paper).

#![forbid(unsafe_code)]

pub mod baseline;
pub mod crcw;
pub mod crew;
pub mod culling;
pub mod pram;
pub mod programs;
pub mod protocol;
pub mod sim;
pub mod workload;

pub use crcw::{step_crcw, CrcwReport, WriteCombine};
pub use crew::{step_crew, CrewReport};
pub use pram::{Op, PramStep};
pub use protocol::{ReadPolicy, RunOptions};
pub use sim::{PramMeshSim, SimConfig, StepReport};
