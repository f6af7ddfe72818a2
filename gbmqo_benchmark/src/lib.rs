//! `gbmqo_benchmark`: the repository's one benchmark.
//!
//! See `BENCHMARK.md` beside this crate's manifest for the workloads, the
//! metrics, how they should interact, and how to run and compare.

#![warn(missing_docs)]

pub mod check;
pub mod compare;
pub mod json;
pub mod load;
pub mod replay;
pub mod report;
pub mod run;
pub mod script;
pub mod setup;
pub mod stats;
pub mod trace;
