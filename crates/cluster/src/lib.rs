//! # scc-cluster — Mogon-like HPC cluster platform
//!
//! The paper cross-checks the SCC results on the Mogon cluster at Mainz:
//! 64-core nodes with 2.1 GHz modern cores ("roughly 3.94 times higher
//! clock than the SCC's 533 MHz"), node-local memory, and a network hop to
//! the visualisation client (Figure 13, Table I's three HPC rows). This
//! crate runs the same macro pipeline with the same calibrated cost model
//! on that platform: fast cores, cheap shared-memory messaging inside a
//! node (no DRAM-partition round-trip — the very thing the SCC lacks) and
//! a bandwidth-limited external link for the off-node renderer and the
//! viewer.

#![forbid(unsafe_code)]

pub mod platform;
pub mod runner;

pub use platform::ClusterConfig;
pub use runner::{cluster_walkthrough, ClusterMode, ClusterReport};
