//! The unified run facade: one entry point over the three executors.
//!
//! Historically each backend had its own entry (`SimRunner::new(..).run()`,
//! [`crate::runner::des::run_des`], [`crate::runner::native::run_native`])
//! with its own report shape, so callers comparing backends — the bench
//! harness, the differential suite, the examples — each re-invented the
//! dispatch and the field mapping. [`run`] dispatches on a [`Backend`] and
//! folds every backend's report into one [`RunOutcome`] carrying the
//! common view (frame count, total time, stage reports, fault history,
//! the telemetry snapshot) next to the untouched backend-specific report.
//!
//! The old entry points remain as thin wrappers and are the right tool
//! when backend-specific knobs are needed (placement overrides,
//! alternative platforms); new code that just wants "run this
//! config and look at the numbers" should come through here.

use crate::generic::{run_workload, EventOrder, GenericReport};
use crate::metrics::{DegradationEvent, HostTiming, RecoveryEvent, StageReport, WalkthroughReport};
use crate::runner::des::{run_des, DesReport};
use crate::runner::native::{run_native, NativeReport};
use crate::runner::sim::SimRunner;
use crate::spec::{RendererMode, RunConfig};
use crate::trace::TraceLog;
use scc_render::{CityConfig, Scene};
use std::sync::{Arc, OnceLock};

/// Which executor carries the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Virtual-time frame-major simulation of the SCC platform — the
    /// executor that reproduces the paper's figures.
    Sim,
    /// The independent discrete-event cross-validator (single-renderer
    /// configurations only).
    Des,
    /// Real OS threads with RCCE-style channels on the host.
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

/// The backend's full report, untouched, for callers that need more than
/// the common view.
// One value exists per run and it is moved exactly once into the
// outcome, so the variant size disparity clippy flags costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum BackendReport {
    Sim(WalkthroughReport),
    Des(DesReport),
    Native(NativeReport),
    /// Workload-plane runs ([`crate::spec::Workload::Generic`] and
    /// [`crate::spec::Workload::Wavefront`]): both virtual-time backends
    /// produce the same report shape.
    Generic(GenericReport),
}

/// What every backend can tell you about a finished run.
pub struct RunOutcome {
    /// The executor that produced this outcome.
    pub backend: Backend,
    /// End-to-end duration: virtual seconds for [`Backend::Sim`] and
    /// [`Backend::Des`], wall-clock seconds for [`Backend::Native`].
    pub total_secs: f64,
    /// Frames delivered to the visualisation client.
    pub frames: u64,
    /// Per-stage ledgers (busy time, idle quartiles, frame counts).
    /// Populated by the sim backend; empty for DES and native, which do
    /// not keep [`StageReport`] ledgers.
    pub stage_reports: Vec<StageReport>,
    /// Graceful-degradation decisions, in decision order (sim only;
    /// empty elsewhere).
    pub degradations: Vec<DegradationEvent>,
    /// Supervised kill recoveries, in detection order (sim and DES).
    pub recoveries: Vec<RecoveryEvent>,
    /// Host wall-clock throughput; `Some` for the native backend.
    pub host: Option<HostTiming>,
    /// Phase spans, present when [`RunConfig::trace`] was set.
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
/// # Panics
///
/// Panics when the configuration is invalid, or when `backend` is
/// [`Backend::Des`] and the config is not
/// [`RendererMode::SingleRenderer`] (the DES validator's scope).
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
    cfg.validate().expect("invalid run configuration");
    if !cfg.workload.is_film() {
        // The workload plane: spec-defined chains (no scene, no frames)
        // through the one workload engine; the backend picks its event
        // order. `frames` reports items.
        let order = match backend {
            Backend::Sim => EventOrder::ItemMajor,
            Backend::Des => EventOrder::EarliestStart,
            Backend::Native => panic!(
                "the native backend runs the film workload only; \
                 run {} on sim or des",
                cfg.workload.name()
            ),
        };
        let report = run_workload(cfg, order);
        return RunOutcome {
            backend,
            total_secs: report.total_secs,
            frames: report.items,
            stage_reports: Vec::new(),
            degradations: Vec::new(),
            recoveries: Vec::new(),
            host: None,
            trace: None,
            telemetry: report.telemetry.clone(),
            report: BackendReport::Generic(report),
        };
    }
    match backend {
        Backend::Sim => {
            let report = SimRunner::new(cfg.clone(), scene).run();
            let frames = report
                .stage_reports
                .iter()
                .find(|s| s.kind == crate::spec::StageKind::Transfer)
                .map_or(cfg.frames, |s| s.frames);
            RunOutcome {
                backend,
                total_secs: report.total_secs,
                frames,
                stage_reports: report.stage_reports.clone(),
                degradations: report.degradations.clone(),
                recoveries: report.recoveries.clone(),
                host: None,
                trace: report.trace.clone(),
                telemetry: report.telemetry.clone(),
                report: BackendReport::Sim(report),
            }
        }
        Backend::Des => {
            // The task runtime runs all three renderer modes under DES
            // (one engine, DES-flavored schedule); the static-pipeline
            // cross-validator remains single-renderer only.
            assert!(
                cfg.runtime == crate::spec::Runtime::Tasks
                    || cfg.renderer == RendererMode::SingleRenderer,
                "the DES backend covers the single-renderer configuration"
            );
            let report = run_des(cfg, scene);
            RunOutcome {
                backend,
                total_secs: report.total_secs,
                frames: cfg.frames,
                stage_reports: Vec::new(),
                degradations: Vec::new(),
                recoveries: report.recoveries.clone(),
                host: None,
                trace: None,
                telemetry: report.telemetry.clone(),
                report: BackendReport::Des(report),
            }
        }
        Backend::Native => {
            let report = run_native(cfg, scene);
            RunOutcome {
                backend,
                total_secs: report.wall.as_secs_f64(),
                frames: report.frames.len() as u64,
                stage_reports: Vec::new(),
                degradations: Vec::new(),
                recoveries: Vec::new(),
                host: Some(report.host),
                trace: report.trace.clone(),
                telemetry: report.telemetry.clone(),
                report: BackendReport::Native(report),
            }
        }
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
