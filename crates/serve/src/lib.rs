//! # scc-serve — multi-session serving over pooled pipelines
//!
//! The paper renders one film for one implicit client; this crate turns
//! the pipeline into a shared service. A sharded frontend admits
//! thousands of concurrent walkthrough *sessions* (grouped into weighted
//! *tenants*), schedules their frame requests onto a bounded pool of
//! pipeline instances, batches identical poses across sessions, and
//! content-addresses rendered strips in a bounded LRU cache so a pose
//! any viewer already saw renders exactly once:
//!
//! * [`config`] — [`ServeConfig`]/[`TenantSpec`] and the deterministic
//!   seeded workload generator;
//! * [`cache`] — the content-addressed [`StripCache`]: bucketed FNV with
//!   full-key comparison (collisions can never alias pixels) and
//!   deterministic tick-LRU eviction;
//! * [`session`] — the exactly-once session ledger
//!   (`completed + shed == admitted`, enforced through
//!   `scc_core::check_session_ledger`) and recorded [`ShedEvent`]s;
//! * [`engine`] — the round-based virtual-time engine: weighted-fair
//!   slot allocation, cross-session render de-duplication, `CostModel`
//!   charging of the pool, `scc_serve_*` telemetry.
//!
//! The cache is *semantically transparent*: every session's film is
//! byte-identical with the cache on, off, or thrashing, because strips
//! are pure functions of their content-address (the filter chain draws
//! randomness only from `(pose, run_seed)`). The serving/cache test
//! suites (`tests/serve_cache.rs`, `tests/serve_conformance.rs`) and the
//! `scc-verify` fuzzer hold that line.

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod engine;
pub mod session;

pub use cache::{CacheStats, StripCache, StripKey};
pub use config::{generate_sessions, ServeConfig, SessionSpec, TenantSpec};
pub use engine::{
    serve, serve_default, wfq_allocate, LatencyStats, ServeOutcome, ServeReport, TenantReport,
};
/// SplitMix64, the workload generator's only randomness source.
pub use scc_filters::splitmix64;
pub use session::{ActiveSession, SessionFilm, ShedEvent, ShedReason};
