//! Experiment harness reproducing every theorem/equation of the paper
//! (the paper has no empirical tables — it is a theory result — so the
//! "tables" here validate its claims empirically; see EXPERIMENTS.md).
//!
//! Each `tables::t*` function runs one experiment and returns a
//! [`tables::Table`]; the `reproduce` binary prints them all at the
//! problem sizes in [`sizes`].

pub mod fit;
pub mod sizes;
pub mod tables;
