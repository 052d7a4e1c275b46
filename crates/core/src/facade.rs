//! The front door: one entry point over the three executors.
//!
//! [`try_run`] / [`try_run_with_scene`] are the only way into a run: one
//! [`RunConfig::validate`], one (backend, config) support table
//! ([`check_support`]), one `(backend, runtime)` dispatch, and the
//! backend's report folded into a [`RunOutcome`] — the common view next
//! to the untouched backend-specific report. [`run`] / [`run_with_scene`]
//! are the same calls for callers to whom a refused config is a bug: they
//! panic with the [`RunError`]'s text. The one way around the default
//! parts, [`SimRunner::with_parts`], goes through the same check.

use crate::generic::{run_workload, EventOrder, GenericReport};
use crate::metrics::{DegradationEvent, HostTiming, RecoveryEvent, StageReport, WalkthroughReport};
use crate::runner::des::run_des;
use crate::runner::native::{run_native, NativeReport};
use crate::runner::sim::SimRunner;
use crate::spec::{RendererMode, RunConfig, Runtime, StageKind};
use crate::taskrt::{run_tasks, ScheduleFlavor};
use crate::trace::TraceLog;
use scc_render::{CityConfig, Scene};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Which executor carries the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Virtual-time frame-major simulation of the SCC platform — the
    /// executor that reproduces the paper's figures. Runs every valid
    /// config.
    Sim,
    /// The independent discrete-event cross-validator: whatever sim runs
    /// under [`Runtime::Tasks`] and on the workload plane; of the static
    /// film pipeline, the single-renderer mode with fail-stop kills that
    /// each find a spare ([`check_support`]).
    Des,
    /// Real OS threads with RCCE-style channels on the host: the film
    /// workload on the static pipeline.
    Native,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Des => "des",
            Backend::Native => "native",
        }
    }
}

/// Why a run was refused before it started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// [`RunConfig::validate`] rejected the config; no backend runs it.
    Invalid(String),
    /// The config is valid but outside what `backend` executes
    /// ([`check_support`]).
    Unsupported { backend: Backend, why: &'static str },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Invalid(why) => write!(f, "invalid run configuration: {why}"),
            RunError::Unsupported { backend, why } => {
                write!(f, "unsupported on the {} backend: {why}", backend.name())
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The support table: is the *valid* config `cfg` something `backend`
/// executes? Every (backend x runtime x workload x renderer x fault-shape)
/// exclusion of the repo is a line of this function and nowhere else.
pub fn check_support(cfg: &RunConfig, backend: Backend) -> Result<(), RunError> {
    let unsupported = |why| Err(RunError::Unsupported { backend, why });
    match backend {
        Backend::Sim => Ok(()),
        Backend::Native if !cfg.workload.is_film() => unsupported(
            "the native backend runs the film workload only; \
             run generic and wavefront chains on sim or des",
        ),
        Backend::Native if cfg.runtime == Runtime::Tasks => unsupported(
            "the native backend runs the static pipeline only; \
             Runtime::Tasks is a sim/DES execution model",
        ),
        Backend::Native => Ok(()),
        // The workload plane and the task runtime are one engine each
        // with a DES-flavored schedule: whatever sim runs, DES runs.
        Backend::Des if !cfg.workload.is_film() || cfg.runtime == Runtime::Tasks => Ok(()),
        // The static film cross-validator. (ROADMAP 4b: delete the next
        // arm when it learns the other two renderer modes.)
        Backend::Des if cfg.renderer != RendererMode::SingleRenderer => unsupported(
            "the static DES validator covers the single-renderer configuration; \
             the other renderer modes run on des under Runtime::Tasks",
        ),
        Backend::Des => match &cfg.fault {
            None => Ok(()),
            // Message-level faults, stalls and the spare-exhausted
            // degradation fallback are the frame-major executor's domain.
            Some(f)
                if f.stall.is_some()
                    || f.drop_rate != 0.0
                    || f.corrupt_rate != 0.0
                    || f.delay_rate != 0.0
                    || f.degraded_links != 0 =>
            {
                unsupported("the static DES validator models supervised fail-stop kills only")
            }
            Some(f) if f.kills.is_empty() => Ok(()),
            Some(f) => {
                let spares = crate::partition::placement_for(cfg).spare_pool().len();
                if f.kills.len() <= spares.min(f.max_spares as usize) {
                    Ok(())
                } else {
                    unsupported("the static DES validator requires a spare for every kill")
                }
            }
        },
    }
}

/// The one gate of a run: [`RunConfig::validate`], then [`check_support`].
pub(crate) fn check(cfg: &RunConfig, backend: Backend) -> Result<(), RunError> {
    cfg.validate().map_err(RunError::Invalid)?;
    check_support(cfg, backend)
}

/// The backend's full report, untouched, for callers that need more than
/// the common view.
// One value exists per run and it is moved exactly once into the
// outcome, so the variant size disparity clippy flags costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum BackendReport {
    /// A sim film run, static or under [`Runtime::Tasks`].
    Sim(WalkthroughReport),
    /// A DES film run: the same report shape — stage reports, energy,
    /// power trace, recoveries — from the event-driven executor or the
    /// task runtime's DES-flavored schedule.
    Des(WalkthroughReport),
    Native(NativeReport),
    /// Workload-plane runs ([`crate::spec::Workload::Generic`] and
    /// [`crate::spec::Workload::Wavefront`]): both virtual-time backends
    /// produce the same report shape.
    Generic(GenericReport),
}

impl BackendReport {
    /// The sim backend's film report, if that is what this is.
    pub fn sim(self) -> Option<WalkthroughReport> {
        match self {
            BackendReport::Sim(r) => Some(r),
            _ => None,
        }
    }

    /// The DES backend's film report, if that is what this is.
    pub fn des(self) -> Option<WalkthroughReport> {
        match self {
            BackendReport::Des(r) => Some(r),
            _ => None,
        }
    }

    /// The native backend's report, if that is what this is.
    pub fn native(self) -> Option<NativeReport> {
        match self {
            BackendReport::Native(r) => Some(r),
            _ => None,
        }
    }
}

/// What every backend can tell you about a finished run.
pub struct RunOutcome {
    /// The executor that produced this outcome.
    pub backend: Backend,
    /// End-to-end duration: virtual seconds for [`Backend::Sim`] and
    /// [`Backend::Des`], wall-clock seconds for [`Backend::Native`].
    pub total_secs: f64,
    /// Frames delivered to the visualisation client (items, on the
    /// workload plane).
    pub frames: u64,
    /// Per-stage ledgers (busy time, idle quartiles, frame counts).
    /// Populated by sim and DES film runs; empty for native and the
    /// workload plane, which do not keep [`StageReport`] ledgers.
    pub stage_reports: Vec<StageReport>,
    /// Graceful-degradation decisions, in decision order (sim film runs;
    /// empty elsewhere).
    pub degradations: Vec<DegradationEvent>,
    /// Supervised kill recoveries, in detection order (sim and DES film
    /// runs).
    pub recoveries: Vec<RecoveryEvent>,
    /// Host wall-clock throughput; `Some` for the native backend.
    pub host: Option<HostTiming>,
    /// Phase spans, present when [`RunConfig::trace`] was set (sim and
    /// native film runs).
    pub trace: Option<TraceLog>,
    /// Metrics + events recorded during the run, present when
    /// [`RunConfig::telemetry`] was set.
    pub telemetry: Option<scc_telemetry::Snapshot>,
    /// The backend's own report, for anything not in the common view.
    pub report: BackendReport,
}

/// The standard scene every entry point defaults to: the procedural city
/// the paper's silent-film walkthrough flies through. One per process:
/// every caller gets a clone of the same `Arc`, so all runs on it share
/// one octree and one probe memo.
pub fn default_scene() -> Arc<Scene> {
    static SCENE: OnceLock<Arc<Scene>> = OnceLock::new();
    SCENE
        .get_or_init(|| Arc::new(Scene::city(CityConfig::default())))
        .clone()
}

/// Run `cfg` on `backend` against the [`default_scene`].
///
/// `Err`, with nothing run, when [`RunConfig::validate`] rejects the
/// config ([`RunError::Invalid`]) or `backend` does not execute it
/// ([`RunError::Unsupported`]). A started run panics only on the sim's
/// modelled total loss ("no surviving pipeline": every lane dead).
pub fn try_run(cfg: &RunConfig, backend: Backend) -> Result<RunOutcome, RunError> {
    try_run_with_scene(cfg, backend, default_scene())
}

/// [`try_run`] with an explicit scene.
pub fn try_run_with_scene(
    cfg: &RunConfig,
    backend: Backend,
    scene: Arc<Scene>,
) -> Result<RunOutcome, RunError> {
    check(cfg, backend)?;
    let report = if cfg.workload.is_film() {
        film(cfg, backend, scene)
    } else {
        // The workload plane: spec-defined chains (no scene, no frames)
        // through one engine; the backend picks its event order.
        let order = match backend {
            Backend::Sim => EventOrder::ItemMajor,
            _ => EventOrder::EarliestStart,
        };
        BackendReport::Generic(run_workload(cfg, order))
    };
    Ok(RunOutcome::new(cfg, backend, report))
}

/// The one (backend, runtime) dispatch of a film run [`check`] admitted.
fn film(cfg: &RunConfig, backend: Backend, scene: Arc<Scene>) -> BackendReport {
    let sim = |scene| SimRunner::new(cfg.clone(), scene);
    match (backend, cfg.runtime) {
        (Backend::Sim, Runtime::Static) => BackendReport::Sim(sim(scene).run()),
        (Backend::Sim, Runtime::Tasks) => {
            BackendReport::Sim(run_tasks(sim(scene), ScheduleFlavor::Sim))
        }
        (Backend::Des, Runtime::Static) => BackendReport::Des(run_des(sim(scene))),
        // The task runtime has one engine; the DES flavor drives it with
        // a different schedule (steal-RNG stream, idle-scan order) so the
        // differential suite can prove the film and the conservation
        // ledgers are schedule-independent.
        (Backend::Des, Runtime::Tasks) => {
            BackendReport::Des(run_tasks(sim(scene), ScheduleFlavor::Des))
        }
        (Backend::Native, _) => BackendReport::Native(run_native(cfg, scene)),
    }
}

/// [`try_run`] for callers to whom a refused config is a bug.
///
/// # Panics
///
/// With the [`RunError`]'s text when [`try_run`] returns one.
///
/// ```
/// use scc_core::{run, Backend, RunConfig};
///
/// let cfg = RunConfig::builder()
///     .size(96, 96)
///     .frames(4)
///     .build()
///     .unwrap();
/// let outcome = run(&cfg, Backend::Sim);
/// assert_eq!(outcome.frames, 4);
/// assert!(outcome.total_secs > 0.0);
/// ```
pub fn run(cfg: &RunConfig, backend: Backend) -> RunOutcome {
    run_with_scene(cfg, backend, default_scene())
}

/// [`run`] with an explicit scene.
pub fn run_with_scene(cfg: &RunConfig, backend: Backend, scene: Arc<Scene>) -> RunOutcome {
    try_run_with_scene(cfg, backend, scene).unwrap_or_else(|e| panic!("{e}"))
}

impl RunOutcome {
    /// Fold a backend's report into the common view.
    fn new(cfg: &RunConfig, backend: Backend, report: BackendReport) -> RunOutcome {
        let mut out = RunOutcome {
            backend,
            total_secs: 0.0,
            frames: cfg.frames,
            stage_reports: Vec::new(),
            degradations: Vec::new(),
            recoveries: Vec::new(),
            host: None,
            trace: None,
            telemetry: None,
            report,
        };
        match &out.report {
            BackendReport::Sim(r) | BackendReport::Des(r) => {
                out.total_secs = r.total_secs;
                let transfer = r
                    .stage_reports
                    .iter()
                    .find(|s| s.kind == StageKind::Transfer);
                out.frames = transfer.map_or(cfg.frames, |s| s.frames);
                out.stage_reports = r.stage_reports.clone();
                out.degradations = r.degradations.clone();
                out.recoveries = r.recoveries.clone();
                out.trace = r.trace.clone();
                out.telemetry = r.telemetry.clone();
            }
            BackendReport::Native(r) => {
                out.total_secs = r.wall.as_secs_f64();
                out.frames = r.frames.len() as u64;
                out.host = Some(r.host);
                out.trace = r.trace.clone();
                out.telemetry = r.telemetry.clone();
            }
            BackendReport::Generic(r) => {
                out.total_secs = r.total_secs;
                out.frames = r.items;
                out.telemetry = r.telemetry.clone();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultSpec, Fidelity, Runtime};

    fn tiny() -> RunConfig {
        RunConfig::builder()
            .pipelines(2)
            .size(96, 96)
            .frames(3)
            .fidelity(Fidelity::TimingOnly)
            .build()
            .expect("valid config")
    }

    fn lossy(fault: FaultSpec) -> RunConfig {
        let mut cfg = tiny();
        cfg.fault = Some(FaultSpec {
            drop_rate: 0.1,
            ..fault
        });
        cfg
    }

    #[test]
    #[should_panic(expected = "checkpoint_depth must be at least 1")]
    fn zero_checkpoint_depth_is_refused_by_validation_not_by_the_ring() {
        run(
            &lossy(FaultSpec {
                checkpoint_depth: 0,
                ..Default::default()
            }),
            Backend::Sim,
        );
    }

    #[test]
    #[should_panic(expected = "retry_budget 63 overflows the virtual clock")]
    fn unrepresentable_retry_patience_is_refused_by_validation_not_by_a_shift() {
        run(
            &lossy(FaultSpec {
                retry_budget: 63,
                ..Default::default()
            }),
            Backend::Sim,
        );
    }

    #[test]
    fn smallest_ring_and_largest_budget_run_to_completion() {
        let cfg = lossy(FaultSpec {
            checkpoint_depth: 1,
            retry_budget: 30,
            ..Default::default()
        });
        cfg.validate().expect("at the bounds, still valid");
        for runtime in [Runtime::Static, Runtime::Tasks] {
            let cfg = RunConfig {
                runtime,
                ..cfg.clone()
            };
            assert_eq!(run(&cfg, Backend::Sim).frames, 3);
        }
    }

    #[test]
    fn sim_outcome_carries_the_common_view() {
        let out = run(&tiny(), Backend::Sim);
        assert_eq!(out.backend, Backend::Sim);
        assert_eq!(out.frames, 3);
        assert!(out.total_secs > 0.0);
        assert!(!out.stage_reports.is_empty());
        assert!(out.telemetry.is_none(), "telemetry off by default");
        assert!(matches!(out.report, BackendReport::Sim(_)));
    }

    #[test]
    fn des_outcome_matches_sim_total() {
        let cfg = tiny();
        let sim = run(&cfg, Backend::Sim);
        let des = run(&cfg, Backend::Des);
        let diff = (sim.total_secs - des.total_secs).abs() / sim.total_secs;
        assert!(diff < 0.02, "sim/des disagree by {:.3}%", diff * 100.0);
    }

    #[test]
    fn telemetry_snapshot_present_when_enabled() {
        let mut cfg = tiny();
        cfg.telemetry = true;
        let out = run(&cfg, Backend::Sim);
        let snap = out.telemetry.expect("telemetry on");
        assert!(snap
            .counter(scc_telemetry::names::FRAMES_TOTAL, &[])
            .is_some_and(|c| c.value == 3));
    }

    /// What `tests/support_table.rs` has no cell for: a chain past the
    /// engine's node budget is invalid on every backend, and the task
    /// runtime takes the kill static DES refuses for want of a spare.
    #[test]
    fn refusals_are_typed_errors_before_anything_runs() {
        use crate::spec::{GenericChainSpec, GenericStageSpec, KillSpec, Workload};
        let mut chain = tiny();
        chain.workload = Workload::Generic(GenericChainSpec {
            stages: vec![GenericStageSpec::compute("a", 1.0)],
            items: u64::MAX / 2,
            source_bytes: 1024,
        });
        assert!(matches!(
            try_run(&chain, Backend::Sim),
            Err(RunError::Invalid(why)) if why.contains("(stage, item) nodes")
        ));
        let mut killed = tiny();
        killed.fault = Some(FaultSpec {
            kills: vec![KillSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 1,
            }],
            max_spares: 0,
            ..FaultSpec::default()
        });
        let refused = try_run(&killed, Backend::Des).err().expect("no spare");
        assert!(refused.to_string().contains("a spare for every kill"));
        killed.runtime = Runtime::Tasks;
        assert!(try_run(&killed, Backend::Des).is_ok());
    }

    #[test]
    fn with_parts_passes_the_same_check() {
        use crate::placement::place;
        use crate::CostModel;
        use scc_sim::{SccConfig, SccPlatform};
        let build = |cfg: RunConfig| {
            let placement = place(cfg.renderer, cfg.arrangement, cfg.pipelines);
            SimRunner::with_parts(
                cfg,
                default_scene(),
                placement,
                SccPlatform::new(SccConfig::default()),
                CostModel::default(),
            )
        };
        let direct = build(tiny()).expect("valid static film").run();
        assert_eq!(direct.total_secs, run(&tiny(), Backend::Sim).total_secs);
        let mut bad = tiny();
        bad.frames = 0;
        assert!(matches!(build(bad), Err(RunError::Invalid(_))));
        let mut tasks = tiny();
        tasks.runtime = Runtime::Tasks;
        assert!(matches!(
            build(tasks),
            Err(RunError::Unsupported {
                backend: Backend::Sim,
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "single-renderer")]
    fn des_rejects_multi_renderer_configs() {
        let cfg = RunConfig::builder()
            .renderer(RendererMode::PerPipelineRenderer)
            .pipelines(2)
            .size(96, 96)
            .frames(2)
            .fidelity(Fidelity::TimingOnly)
            .build()
            .expect("valid config");
        let _ = run(&cfg, Backend::Des);
    }
}
