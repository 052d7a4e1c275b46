//! Differential suite for the dependency-driven task runtime
//! ([`Runtime::Tasks`]): work stealing may move a strip's filter chain
//! anywhere, but it must never move a pixel. Every renderer mode is run
//! under the static pipeline and under the task runtime on *both*
//! virtual-time backends (the frame-major simulator and the DES-flavored
//! schedule) and the films must match bit for bit — clean, under a
//! fail-stop kill, and over a lossy message plane where the steal
//! handshake itself loses legs. A property test then pins the robustness
//! claim: fence + re-queue recovery, which provisions no spare cores,
//! must resume no later than the supervisor's spare-migration path for
//! the same kill.

mod common;

use common::{cfg_with, checksums, film, scene, MODES};
use proptest::prelude::*;
use scc_core::{
    run_with_scene, Arrangement, Backend, FaultSpec, KillSpec, RendererMode, RunConfig, Runtime,
};

fn cfg(mode: RendererMode, pipelines: u32, frames: u64) -> RunConfig {
    cfg_with(mode, Arrangement::Unordered, pipelines, frames)
}

/// Clean runs: static sim film == tasks sim film == tasks DES film, in
/// every renderer mode, with balanced exactly-once ledgers.
#[test]
fn tasks_film_is_bit_identical_in_every_mode_on_both_backends() {
    for mode in MODES {
        let st = cfg(mode, 2, 4);
        let want = film(&st, Backend::Sim);

        let mut tk = st.clone();
        tk.runtime = Runtime::Tasks;
        let out = run_with_scene(&tk, Backend::Sim, scene());
        let sim = out.report.sim().unwrap();
        assert_eq!(
            checksums(&sim.outputs.expect("tasks sim film")),
            want,
            "tasks/sim film diverged in {mode:?}"
        );
        let stats = sim.task_stats.expect("task ledger");
        assert_eq!(
            stats.completed + stats.degraded,
            stats.spawned,
            "ledger unbalanced in {mode:?}: {stats:?}"
        );

        assert_eq!(
            film(&tk, Backend::Des),
            want,
            "tasks/DES film diverged in {mode:?}"
        );
    }
}

/// A fail-stop kill *and* a lossy message plane at once: dropped and
/// corrupted legs hit both the data path and the steal handshake, the
/// kill forces a fence — the film must still match the fault-free static
/// run in every mode on both backends, with no task lost or duplicated.
#[test]
fn kills_and_lossy_transport_leave_the_film_identical() {
    for mode in MODES {
        let clean = cfg(mode, 2, 4);
        let want = film(&clean, Backend::Sim);

        let mut tk = clean.clone();
        tk.runtime = Runtime::Tasks;
        tk.fault = Some(FaultSpec {
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            delay_rate: 0.1,
            kills: vec![KillSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 8,
            }],
            heartbeat_period_us: 2_000,
            phi_dead: 2.0,
            ..FaultSpec::default()
        });
        let out = run_with_scene(&tk, Backend::Sim, scene());
        let sim = out.report.sim().unwrap();
        let stats = sim.task_stats.expect("task ledger");
        assert_eq!(
            stats.completed + stats.degraded,
            stats.spawned,
            "a task was lost or duplicated in {mode:?}: {stats:?}"
        );
        assert_eq!(
            checksums(&sim.outputs.expect("tasks sim film")),
            want,
            "chaos moved a pixel in {mode:?} (sim)"
        );

        assert_eq!(
            film(&tk, Backend::Des),
            want,
            "chaos moved a pixel in {mode:?} (DES)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// The robustness claim of the runtime: re-queue recovery provisions
    /// no spare core, yet for the same kill it must resume no later than
    /// the static pipeline's supervised spare migration.
    #[test]
    fn requeue_mttr_not_worse_than_spare_migration(
        at_ms in 4u64..24,
        stage in 0u32..5,
        seed in 1u64..5,
    ) {
        let mut base = cfg(RendererMode::SingleRenderer, 2, 4);
        base.seed = seed;
        let fault = FaultSpec {
            kills: vec![KillSpec { pipeline: 0, stage, at_ms }],
            heartbeat_period_us: 2_000,
            phi_dead: 2.0,
            ..FaultSpec::default()
        };

        let mut st = base.clone();
        st.fault = Some(fault.clone());
        let static_report = run_with_scene(&st, Backend::Sim, scene());

        let mut tk = base;
        tk.runtime = Runtime::Tasks;
        tk.fault = Some(FaultSpec { max_spares: 0, ..fault });
        let tasks_report = run_with_scene(&tk, Backend::Sim, scene()).report.sim().unwrap();
        let stats = tasks_report.task_stats.expect("task ledger");
        prop_assert_eq!(stats.completed + stats.degraded, stats.spawned);

        // A kill can land after the stage's last strip left (or before
        // any arrived); one path may then see nothing to recover. The
        // MTTR comparison only makes sense when both paths recovered.
        if static_report.recoveries.is_empty() || tasks_report.recoveries.is_empty() {
            return;
        }
        let migration = static_report.recoveries[0].mttr_secs;
        let requeue = tasks_report.recoveries[0].mttr_secs;
        prop_assert!(
            requeue <= migration + 1e-9,
            "re-queue MTTR {requeue:.6}s worse than spare migration {migration:.6}s \
             (kill stage {stage} at {at_ms}ms, seed {seed})"
        );
    }
}
