//! # scc-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VI) from
//! the simulated platform. Each `figN` function returns plain data the
//! `experiments` binary prints.

#![forbid(unsafe_code)]

pub mod autoplace;
pub mod dvfs;
pub mod experiments;
pub mod native_throughput;
pub mod recovery;
pub mod report;
pub mod serving;
pub mod tasks;

pub use experiments::*;
