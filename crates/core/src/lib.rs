//! # scc-core — parallel macro pipelining on the (simulated) Intel SCC
//!
//! The primary contribution of the reproduced paper: a framework for
//! running parallel macro pipelines — chains of coarse stages, each owning
//! a core, connected by messages — on the SCC + MCPC heterogeneous system,
//! evaluated with the silent-film rendering case study.
//!
//! * [`facade`] — the front door: [`try_run`] / [`run`] over a
//!   [`Backend`], the typed [`RunError`], the one support table;
//! * [`spec`] — run configurations: renderer mode (§V's three scenarios),
//!   pipeline arrangement (§IV-A), geometry, fidelity;
//! * [`placement`] — stage→core mapping for the unordered / ordered /
//!   flipped arrangements and the DVFS island layout (Figure 18);
//! * [`cost`] — the calibrated P54C cycle/traffic model (anchored to
//!   Figure 8 and §VI);
//! * [`runner::sim`] — virtual-time execution on `scc-sim`'s platform,
//!   reproducing every figure of the paper deterministically; it also
//!   holds the one report tail (stage and run telemetry, the NoC-audited
//!   invariant check) every executor records through;
//! * [`runner::native`] — the same pipeline on real OS threads with
//!   RCCE-style channels, for actually-parallel runs on the host;
//! * [`runner::des`] — an independent event-driven executor used to
//!   cross-validate the frame-major scheduler, on the same parts and
//!   stage ledgers and reporting the same [`WalkthroughReport`]; its
//!   events pop from a binary heap, as the workload engine's do;
//! * [`stage_graph`] / [`mod@partition`] — the scheduler: the film's five
//!   filters as a weighted chain ([`film_chain`]), cut into merged and
//!   replicated groups;
//! * [`baseline`] — the single-core Figure 8 reference;
//! * [`mod@reference`] — the sequential data-path oracle used to verify both
//!   runners bit-exactly;
//! * [`metrics`] — walkthrough reports: times, speed-ups, per-stage idle
//!   quartiles (Figure 15), power traces and energy (Figures 14/17,
//!   §VI-B), host wall-clock throughput;
//! * [`pool`] — the recycled strip buffer pool of the native runner: its
//!   sources acquire, its transfer stage releases (no per-frame heap
//!   churn);
//! * [`generic`] — user-defined macro pipelines on the same substrate
//!   (the §I claim that the results translate to other domains);
//! * [`supervise`] — the recovery plane every virtual-time executor
//!   attaches once (crate-internal): the reliable send, heartbeat-based
//!   failure detection, spare-core migration, checkpointed frame replay,
//!   lane failover;
//! * [`trace`] — per-stage phase spans with a Chrome-trace exporter;
//! * [`viz`] — the visualisation client's frame checksum, the content
//!   address every film comparison uses.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod cost;
pub mod facade;
pub mod frame;
pub mod generic;
pub mod governor;
pub mod invariant;
pub mod metrics;
pub mod partition;
pub mod placement;
pub mod pool;
pub(crate) mod power_plane;
pub mod reference;
pub mod runner;
pub mod spec;
pub mod stage_graph;
pub mod supervise;
pub(crate) mod taskrt;
pub mod trace;
pub mod viz;
pub mod wavefront;

pub use baseline::{run_baseline, BaselineReport};
pub use cost::CostModel;
pub use facade::{
    check_support, default_scene, run, run_with_scene, try_run, try_run_with_scene, Backend,
    BackendReport, RunError, RunOutcome,
};
pub use frame::Frame;
pub use generic::{GenericReport, GenericStageReport, StageWork, WAVEFRONT_STAGES};
pub use governor::{
    adjacent_steps, replay_decisions, Governor, GovernorAction, GovernorDecision, StationSample,
};
pub use invariant::{
    check_dvfs_decisions, check_generic_report, check_report, check_session_ledger, enforce,
    Violation,
};
pub use metrics::{
    DegradationEvent, HostTiming, RecoveryEvent, StageReport, TaskStats, WalkthroughReport,
};
pub use partition::{auto_place, partition, placement_for, plan_for, AutoPlacement, StagePlan};
pub use placement::{place, place_dvfs_single_pipeline, Placement, ReplicaSlot};
pub use pool::{BufferPool, PoolStats};
pub use runner::native::NativeReport;
pub use runner::sim::SimRunner;
pub use spec::{
    Arrangement, FaultSpec, Fidelity, GenericChainSpec, GenericStageSpec, GovernorTuning, KillSpec,
    NativeTuning, PowerConfig, RendererMode, RunConfig, RunConfigBuilder, Runtime, StageKind,
    StallSpec, TaskTuning, WavefrontSpec, Workload,
};
pub use stage_graph::{film_chain, StageClass, StageNode, StageWeights, WeightSource};
pub use trace::{Phase, TraceEvent, TraceLog};
pub use wavefront::{propagate, WavefrontTrace};
