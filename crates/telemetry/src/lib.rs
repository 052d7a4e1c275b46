//! # scc-telemetry — one measurement substrate for every runner
//!
//! The paper's evaluation is an observability exercise: per-stage idle
//! quartiles (Figure 15), power over time (Figures 16–17), throughput per
//! image size (Figure 12). This crate gives the three runners, the RCCE
//! ARQ/heartbeat paths, and the MCPC supervisor one shared sink so those
//! numbers come from a uniform metrics layer instead of per-runner ad-hoc
//! report structs:
//!
//! * [`metrics`] — lock-cheap primitives: atomic [`Counter`]s, f64-bits
//!   [`Gauge`]s, fixed-bucket [`Histogram`]s (integer micro-unit sums, so
//!   concurrent observation stays associative and therefore
//!   deterministic), behind a name+labels [`Registry`];
//! * [`event`] — the structured event stream: stage start/stop spans,
//!   ARQ retries, heartbeat misses, migrations, degradations;
//! * [`sink`] — [`TelemetrySink`], the cheap-clone handle the whole
//!   system shares. Disabled (the default) it is a `None` and every
//!   record call is an early-return, so golden digests cannot move;
//! * [`snapshot`] — [`Snapshot`], the immutable, deterministically
//!   ordered view a finished run exports;
//! * [`prometheus`] — text exposition rendering of a snapshot;
//! * [`json`] — a hand-rolled JSON document tree (the workspace has no
//!   serialisation crate) plus the snapshot's JSON exporter, the
//!   backing store for the `BENCH_*.json` documents;
//! * [`chrome`] — the Chrome-trace (`chrome://tracing`) exporter, now
//!   the single renderer for both `TraceLog` spans and the event stream.
//!
//! The crate depends on nothing but `std`, so every layer of the
//! workspace — including `scc-rcce` underneath `scc-core` — can record
//! into the same sink without dependency cycles.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod sink;
pub mod snapshot;

pub use chrome::ChromeSpan;
pub use event::{Event, EventKind};
pub use json::{snapshot_to_tree, Json};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use sink::TelemetrySink;
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, Snapshot};

/// Fixed bucket upper bounds (milliseconds) for per-stage idle-time
/// histograms — the live-metric reproduction of Figure 15. Spans the
/// sub-millisecond rendezvous waits of small frames up to the
/// multi-second stalls of degraded links.
pub const IDLE_MS_BUCKETS: &[f64] = &[
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0,
];

/// Fixed bucket upper bounds (seconds) for repair-latency histograms
/// (detection latency, MTTR).
pub const SECONDS_BUCKETS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// The metric-name catalogue. Every name the runners, RCCE paths, and
/// supervisor emit lives here so exporter schema tests (and DESIGN.md
/// §13) have a single source of truth.
pub mod names {
    /// Histogram, ms. Labels: `stage`, `pipeline`. One observation per
    /// frame-wait; quartiles reproduce the report's Figure 15 `idle_ms`.
    pub const STAGE_IDLE_MS: &str = "scc_stage_idle_ms";
    /// Gauge, seconds busy per stage. Labels: `stage`, `pipeline`.
    pub const STAGE_BUSY_SECONDS: &str = "scc_stage_busy_seconds";
    /// Counter, frames a stage completed. Labels: `stage`, `pipeline`.
    pub const STAGE_FRAMES_TOTAL: &str = "scc_stage_frames_total";
    /// Counter, frames the walkthrough delivered to the viz client.
    pub const FRAMES_TOTAL: &str = "scc_frames_total";
    /// Gauge, end-to-end walkthrough seconds (virtual for sim/DES, wall
    /// for native).
    pub const WALKTHROUGH_SECONDS: &str = "scc_walkthrough_seconds";
    /// Gauge, joules over the run (sim backend, Figure 14/17 model).
    pub const ENERGY_JOULES: &str = "scc_energy_joules";
    /// Counter, mesh messages (sim platform NoC audit).
    pub const NOC_MESSAGES_TOTAL: &str = "scc_noc_messages_total";
    /// Counter, mesh payload bytes.
    pub const NOC_BYTES_TOTAL: &str = "scc_noc_bytes_total";
    /// Counter, ARQ send retries. Labels: `path` (`sim` | `native`).
    pub const ARQ_RETRIES_TOTAL: &str = "scc_arq_retries_total";
    /// Counter, payloads dropped by the receiver on CRC mismatch.
    pub const ARQ_CORRUPT_DROPS_TOTAL: &str = "scc_arq_corrupt_drops_total";
    /// Counter, receive timeouts on the reliable path.
    pub const ARQ_TIMEOUTS_TOTAL: &str = "scc_arq_timeouts_total";
    /// Counter, heartbeats booked/sent by supervised stages.
    pub const HEARTBEATS_TOTAL: &str = "scc_heartbeats_total";
    /// Counter, heartbeat misses that crossed the phi-accrual threshold.
    pub const HEARTBEAT_MISSES_TOTAL: &str = "scc_heartbeat_misses_total";
    /// Counter, spare-core migrations performed by the supervisor.
    pub const MIGRATIONS_TOTAL: &str = "scc_migrations_total";
    /// Counter, pipelines retired into graceful degradation.
    pub const DEGRADATIONS_TOTAL: &str = "scc_degradations_total";
    /// Counter, checkpointed frames replayed onto spares.
    pub const FRAMES_REPLAYED_TOTAL: &str = "scc_frames_replayed_total";
    /// Histogram, seconds. Kill-to-repaired latency per recovery.
    pub const MTTR_SECONDS: &str = "scc_mttr_seconds";
    /// Gauge, native-backend host throughput in frames per second.
    pub const HOST_FRAMES_PER_SEC: &str = "scc_host_frames_per_sec";
    /// Gauge, native-backend host throughput in Mpixels per second.
    pub const HOST_MPIXELS_PER_SEC: &str = "scc_host_mpixels_per_sec";
    /// Counter, buffers the native pool served from its free list.
    pub const POOL_RECYCLED_TOTAL: &str = "scc_pool_recycled_total";
    /// Counter, buffers the native pool had to allocate fresh.
    pub const POOL_FRESH_TOTAL: &str = "scc_pool_fresh_total";
    /// Counter, tasks spawned by the dependency-driven task runtime.
    pub const TASK_SPAWNED_TOTAL: &str = "scc_task_spawned_total";
    /// Counter, steal handshakes the task runtime attempted.
    pub const TASK_STEAL_ATTEMPTS_TOTAL: &str = "scc_task_steal_attempts_total";
    /// Counter, steal handshakes that transferred a task.
    pub const TASK_STEALS_TOTAL: &str = "scc_task_steals_total";
    /// Counter, tasks re-queued after a fence (kill/stall recovery).
    pub const TASK_REQUEUES_TOTAL: &str = "scc_task_requeues_total";
    /// Counter, producer stalls against a full bounded deque.
    pub const TASK_BACKPRESSURE_STALLS_TOTAL: &str = "scc_task_backpressure_stalls_total";
    /// Gauge, deepest per-core task deque observed over the run.
    pub const TASK_QUEUE_DEPTH_MAX: &str = "scc_task_queue_depth_max";
    /// Counter, sessions the serving frontend took responsibility for
    /// (every arrival enters the ledger; shed ⊂ admitted, never silent).
    pub const SERVE_SESSIONS_ADMITTED_TOTAL: &str = "scc_serve_sessions_admitted_total";
    /// Counter, sessions refused by admission control. Labels: `reason`.
    pub const SERVE_SESSIONS_SHED_TOTAL: &str = "scc_serve_sessions_shed_total";
    /// Counter, sessions that delivered every requested frame.
    pub const SERVE_SESSIONS_COMPLETED_TOTAL: &str = "scc_serve_sessions_completed_total";
    /// Counter, frames delivered across all sessions.
    pub const SERVE_FRAMES_TOTAL: &str = "scc_serve_frames_total";
    /// Counter, strip-cache lookups served from cached bytes.
    pub const SERVE_CACHE_HITS_TOTAL: &str = "scc_serve_cache_hits_total";
    /// Counter, strip-cache lookups that fell through to a render.
    pub const SERVE_CACHE_MISSES_TOTAL: &str = "scc_serve_cache_misses_total";
    /// Counter, strips evicted by the cache's LRU bound.
    pub const SERVE_CACHE_EVICTIONS_TOTAL: &str = "scc_serve_cache_evictions_total";
    /// Gauge, end-of-run cache hit ratio in [0, 1].
    pub const SERVE_CACHE_HIT_RATIO: &str = "scc_serve_cache_hit_ratio";
    /// Gauge, deepest per-tenant active-session queue. Labels: `tenant`.
    pub const SERVE_TENANT_QUEUE_DEPTH: &str = "scc_serve_tenant_queue_depth";
    /// Histogram, seconds. Ready-to-delivered latency per frame
    /// (includes slot queueing under overload; p50/p99 in reports).
    pub const SERVE_FRAME_LATENCY_SECONDS: &str = "scc_serve_frame_latency_seconds";
    /// Counter, idle-sample epochs the DVFS governor observed.
    pub const DVFS_EPOCHS_TOTAL: &str = "scc_dvfs_epochs_total";
    /// Counter, tile frequency raises the governor applied.
    pub const DVFS_RAISES_TOTAL: &str = "scc_dvfs_raises_total";
    /// Counter, island throttles the governor applied.
    pub const DVFS_THROTTLES_TOTAL: &str = "scc_dvfs_throttles_total";
    /// Counter, raises suppressed by the governor's power cap.
    pub const DVFS_CAP_BLOCKS_TOTAL: &str = "scc_dvfs_cap_blocks_total";
    /// Gauge, final tile frequency in MHz. Labels: `tile`.
    pub const DVFS_TILE_FREQ_MHZ: &str = "scc_dvfs_tile_freq_mhz";

    /// Every catalogued name, for schema tests.
    pub const ALL: &[&str] = &[
        STAGE_IDLE_MS,
        STAGE_BUSY_SECONDS,
        STAGE_FRAMES_TOTAL,
        FRAMES_TOTAL,
        WALKTHROUGH_SECONDS,
        ENERGY_JOULES,
        NOC_MESSAGES_TOTAL,
        NOC_BYTES_TOTAL,
        ARQ_RETRIES_TOTAL,
        ARQ_CORRUPT_DROPS_TOTAL,
        ARQ_TIMEOUTS_TOTAL,
        HEARTBEATS_TOTAL,
        HEARTBEAT_MISSES_TOTAL,
        MIGRATIONS_TOTAL,
        DEGRADATIONS_TOTAL,
        FRAMES_REPLAYED_TOTAL,
        MTTR_SECONDS,
        HOST_FRAMES_PER_SEC,
        HOST_MPIXELS_PER_SEC,
        POOL_RECYCLED_TOTAL,
        POOL_FRESH_TOTAL,
        TASK_SPAWNED_TOTAL,
        TASK_STEAL_ATTEMPTS_TOTAL,
        TASK_STEALS_TOTAL,
        TASK_REQUEUES_TOTAL,
        TASK_BACKPRESSURE_STALLS_TOTAL,
        TASK_QUEUE_DEPTH_MAX,
        SERVE_SESSIONS_ADMITTED_TOTAL,
        SERVE_SESSIONS_SHED_TOTAL,
        SERVE_SESSIONS_COMPLETED_TOTAL,
        SERVE_FRAMES_TOTAL,
        SERVE_CACHE_HITS_TOTAL,
        SERVE_CACHE_MISSES_TOTAL,
        SERVE_CACHE_EVICTIONS_TOTAL,
        SERVE_CACHE_HIT_RATIO,
        SERVE_TENANT_QUEUE_DEPTH,
        SERVE_FRAME_LATENCY_SECONDS,
        DVFS_EPOCHS_TOTAL,
        DVFS_RAISES_TOTAL,
        DVFS_THROTTLES_TOTAL,
        DVFS_CAP_BLOCKS_TOTAL,
        DVFS_TILE_FREQ_MHZ,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_prefixed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in names::ALL {
            assert!(name.starts_with("scc_"), "{name} lacks the scc_ prefix");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name} is not a lower_snake metric name"
            );
            assert!(seen.insert(*name), "{name} catalogued twice");
        }
    }

    #[test]
    fn bucket_bounds_strictly_increase() {
        for bounds in [IDLE_MS_BUCKETS, SECONDS_BUCKETS] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
