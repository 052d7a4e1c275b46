//! Differential suite for the self-healing control plane: a supervised
//! fail-stop kill with a spare available must be *invisible in the
//! pixels* — the film is bit-identical to the fault-free run — in every
//! renderer mode and arrangement; with the spare pool exhausted the run
//! must degrade *exactly* like the PR-1 permanent-stall fallback; the
//! frame-major and event-driven executors must agree on the recovery
//! timeline; and MTTR must be finite and monotone in the heartbeat
//! period.

mod common;

use common::{cfg_with, checksums, kill_spec, oracle, scene, ARRANGEMENTS, MODES};
use proptest::prelude::*;
use scc_core::{
    place, run_with_scene, Arrangement, Backend, FaultSpec, Fidelity, RendererMode, RunConfig,
    StageKind, StallSpec,
};

fn cfg(mode: RendererMode, arr: Arrangement, pipelines: u32) -> RunConfig {
    cfg_with(mode, arr, pipelines, 4)
}

/// The tentpole guarantee, swept across every renderer mode and core
/// arrangement: one mid-pipeline fail-stop, detected over the heartbeat
/// path, migrated to the first spare, replayed — zero degradations and a
/// bit-identical film.
#[test]
fn kill_with_spare_is_bit_identical_in_every_mode_and_arrangement() {
    for mode in MODES {
        for arr in ARRANGEMENTS {
            let mut c = cfg(mode, arr, 2);
            let want = oracle(&c);
            c.fault = Some(kill_spec(0, 2, 1));
            let out = run_with_scene(&c, Backend::Sim, scene());
            let report = out.report.sim().unwrap();
            assert!(
                !report.recoveries.is_empty(),
                "no recovery in {mode:?}/{arr:?}"
            );
            assert!(
                report.degradations.is_empty(),
                "fallback fired despite a spare in {mode:?}/{arr:?}"
            );
            let placement = place(mode, arr, c.pipelines);
            let ev = &report.recoveries[0];
            assert_eq!(ev.failed_core, placement.pipelines[0][2].raw());
            assert_eq!(
                ev.migration_target,
                placement.spare_pool()[0].raw(),
                "first spare in id order: {mode:?}/{arr:?}"
            );
            let kind = StageKind::PIPELINE_FILTERS[2];
            let stage = report.stage(kind, Some(0)).expect("stage report");
            assert_eq!(
                stage.core_id, ev.migration_target,
                "stage must finish on the spare: {mode:?}/{arr:?}"
            );
            assert_eq!(
                checksums(&report.outputs.expect("full fidelity")),
                want,
                "recovery damaged the film: {mode:?}/{arr:?}"
            );
        }
    }
}

/// With `max_spares: 0` the supervisor has nothing to migrate to, and the
/// kill must fall back to PR-1 graceful degradation with *exactly* the
/// timing and pixels of a permanent stall at the same instant.
#[test]
fn spare_exhausted_kill_degrades_exactly_like_pr1() {
    let base = cfg(RendererMode::SingleRenderer, Arrangement::Flipped, 3);
    let want = oracle(&base);

    let mut killed = base.clone();
    killed.fault = Some(FaultSpec {
        max_spares: 0,
        ..kill_spec(2, 3, 0)
    });
    let mut stalled = base;
    stalled.fault = Some(FaultSpec {
        stall: Some(StallSpec {
            pipeline: 2,
            stage: 3,
            at_ms: 0,
            for_ms: u64::MAX,
        }),
        ..FaultSpec::default()
    });
    let out = run_with_scene(&killed, Backend::Sim, scene());
    let k = out.report.sim().unwrap();
    let out = run_with_scene(&stalled, Backend::Sim, scene());
    let s = out.report.sim().unwrap();
    assert!(k.recoveries.is_empty(), "no spare, no migration");
    assert!(!k.degradations.is_empty(), "the kill must fail over");
    assert_eq!(
        k.degradations, s.degradations,
        "fallback diverged from PR-1"
    );
    assert_eq!(k.total_secs, s.total_secs, "fallback timing diverged");
    assert_eq!(checksums(&k.outputs.expect("frames")), want);
    assert_eq!(checksums(&s.outputs.expect("frames")), want);
}

/// The frame-major and event-driven executors observe the same kill and
/// must agree on the recovery: same failed core, same spare, the same
/// closed-form detection instant, and end-to-end times within the usual
/// cross-executor tolerance.
#[test]
fn des_and_sim_agree_on_the_recovery_timeline() {
    let mut c = cfg(RendererMode::SingleRenderer, Arrangement::Ordered, 3);
    c.fidelity = Fidelity::TimingOnly;
    c.frames = 10;
    c.fault = Some(kill_spec(0, 2, 1));
    let sim = run_with_scene(&c, Backend::Sim, scene());
    let des = run_with_scene(&c, Backend::Des, scene());
    assert_eq!(sim.recoveries.len(), 1, "sim recovers once");
    assert_eq!(des.recoveries.len(), 1, "DES recovers once");
    let (a, b) = (&sim.recoveries[0], &des.recoveries[0]);
    assert_eq!(a.failed_core, b.failed_core);
    assert_eq!(a.migration_target, b.migration_target);
    assert_eq!(a.killed_at_secs, b.killed_at_secs);
    assert_eq!(
        a.detected_at_secs, b.detected_at_secs,
        "detection is a closed form of the kill instant and must match exactly"
    );
    let mttr_dev = (a.mttr_secs - b.mttr_secs).abs() / a.mttr_secs;
    assert!(
        mttr_dev < 0.10,
        "MTTR diverged: sim {:.6}s vs DES {:.6}s",
        a.mttr_secs,
        b.mttr_secs
    );
    let dev = (des.total_secs - sim.total_secs).abs() / sim.total_secs;
    assert!(
        dev < 0.03,
        "DES {:.3}s vs frame-major {:.3}s ({:.1}% apart)",
        des.total_secs,
        sim.total_secs,
        dev * 100.0
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs two full (small) pipelines
        ..ProptestConfig::default()
    })]

    /// Doubling the heartbeat period can only detect (and thus repair)
    /// later, never earlier — and MTTR stays finite either way.
    #[test]
    fn mttr_is_finite_and_monotone_in_heartbeat_period(
        pipelines in 2u32..4,
        stage in 0u32..5,
        at_ms in 0u64..2,
        period_us in 500u64..20_000,
        phi in 2u32..6,
    ) {
        let run = |period_us: u64| {
            let mut c = cfg(RendererMode::SingleRenderer, Arrangement::Ordered, pipelines);
            c.width = 40;
            c.height = 40;
            c.frames = 2;
            c.fidelity = Fidelity::TimingOnly;
            c.fault = Some(FaultSpec {
                heartbeat_period_us: period_us,
                phi_dead: phi as f64,
                ..kill_spec(0, stage, at_ms)
            });
            run_with_scene(&c, Backend::Sim, scene())
        };
        let fast = run(period_us);
        let slow = run(period_us * 2);
        // The pre-observation timeline is identical, so the kill is either
        // observed in both runs or in neither.
        prop_assert_eq!(fast.recoveries.len(), slow.recoveries.len());
        if let (Some(f), Some(s)) = (fast.recoveries.first(), slow.recoveries.first()) {
            prop_assert!(f.mttr_secs.is_finite() && f.mttr_secs > 0.0);
            prop_assert!(s.mttr_secs.is_finite() && s.mttr_secs > 0.0);
            prop_assert!(
                f.detected_at_secs <= s.detected_at_secs,
                "halving the heartbeat rate detected earlier: {} vs {}",
                f.detected_at_secs, s.detected_at_secs
            );
            prop_assert!(
                f.mttr_secs <= s.mttr_secs + 1e-12,
                "MTTR regressed with a faster heartbeat: {} vs {}",
                f.mttr_secs, s.mttr_secs
            );
        }
    }
}

/// A kill and a stall scheduled past the end of virtual time (`at_ms`
/// just beyond `u64::MAX` picoseconds) never fire: the instant saturates
/// at `SimTime::MAX` instead of wrapping to a fraction of a millisecond.
/// No recovery, no degradation, and the clean film — on the static sim
/// and DES executors and on the task runtime's two schedules.
#[test]
fn faults_past_the_end_of_virtual_time_never_fire() {
    const PAST_THE_END_MS: u64 = 18_446_744_074;
    let kill = kill_spec(0, 1, PAST_THE_END_MS);
    let stall = FaultSpec {
        stall: Some(StallSpec {
            pipeline: 1,
            stage: 2,
            at_ms: PAST_THE_END_MS,
            for_ms: 5,
        }),
        ..FaultSpec::default()
    };
    let both = FaultSpec {
        stall: stall.stall,
        ..kill.clone()
    };
    let base = cfg(RendererMode::SingleRenderer, Arrangement::Ordered, 2);
    let mut tasks = base.clone();
    tasks.runtime = scc_core::Runtime::Tasks;
    let runs = [
        (Backend::Sim, &base, kill.clone()),
        (Backend::Des, &base, kill),
        (Backend::Sim, &base, stall),
        (Backend::Sim, &tasks, both.clone()),
        (Backend::Des, &tasks, both),
    ];
    let want = oracle(&base);
    for (backend, c, fault) in runs {
        let mut c = c.clone();
        let what = format!("{backend:?} {:?} {fault:?}", c.runtime);
        c.fault = Some(fault);
        let out = run_with_scene(&c, backend, scene());
        assert!(out.recoveries.is_empty(), "{what}: a recovery fired");
        assert!(out.degradations.is_empty(), "{what}: a lane degraded");
        let film = match out.report {
            scc_core::BackendReport::Sim(r) | scc_core::BackendReport::Des(r) => r.outputs,
            _ => None,
        };
        assert_eq!(checksums(&film.expect("full fidelity")), want, "{what}");
    }
}
