//! The probe plane (DESIGN.md §20) is invisible in virtual time: a run
//! whose render-work probes are answered from a scene's memo — warmed by
//! other configs, other executors, or another thread mid-sweep — books
//! exactly what the same run books on a scene nobody has touched.

mod common;

use common::{scene as fresh_scene, MODES};
use scc_cluster::{cluster_walkthrough, ClusterMode};
use scc_core::{
    check_support, run_baseline, run_with_scene, Backend, BackendReport, Fidelity, GovernorTuning,
    RendererMode, RunConfig, Runtime,
};
use scc_render::Scene;
use std::sync::{Arc, Barrier};

/// Timing-only, and governed where the governor runs (the static
/// runtime), so the decision trace is part of what must not move; 24
/// frames are three governor epochs.
fn cfg(mode: RendererMode, runtime: Runtime, pipelines: u32) -> RunConfig {
    let builder = RunConfig::builder()
        .renderer(mode)
        .runtime(runtime)
        .pipelines(pipelines)
        .size(96, 80)
        .frames(24)
        .seed(23)
        .fidelity(Fidelity::TimingOnly);
    match runtime {
        Runtime::Static => builder.power_governed(GovernorTuning::default()),
        Runtime::Tasks => builder,
    }
    .build()
    .expect("valid config")
}

/// Both virtual-time backends, where the support table lets DES run.
fn backends(c: &RunConfig) -> &'static [Backend] {
    match check_support(c, Backend::Des) {
        Ok(()) => &[Backend::Sim, Backend::Des],
        Err(_) => &[Backend::Sim],
    }
}

/// Everything deterministic a run reports, floats by bit pattern: total,
/// stage ledgers and decision trace (`fingerprint` has them all), and
/// energy.
fn ledger(c: &RunConfig, backend: Backend, scene: &Arc<Scene>) -> String {
    let out = run_with_scene(c, backend, scene.clone());
    match out.report {
        BackendReport::Sim(r) | BackendReport::Des(r) => format!(
            "{}energy={:016x}\n",
            r.fingerprint(),
            r.scc_energy_joules.to_bits()
        ),
        _ => unreachable!("virtual-time film runs"),
    }
}

fn matrix() -> Vec<(RunConfig, Backend)> {
    let mut runs = Vec::new();
    for mode in MODES {
        for runtime in [Runtime::Static, Runtime::Tasks] {
            for pipelines in [1, 3] {
                let c = cfg(mode, runtime, pipelines);
                runs.extend(backends(&c).iter().map(|&b| (c.clone(), b)));
            }
        }
    }
    runs
}

#[test]
fn a_warm_shared_scene_books_what_a_fresh_scene_books() {
    let shared = fresh_scene();
    let runs = matrix();
    assert_eq!(runs.len(), 20);
    let mut decisions = 0;
    for (c, backend) in &runs {
        let what = format!(
            "{:?} {:?} p={} {backend:?}",
            c.renderer, c.runtime, c.pipelines
        );
        let want = ledger(c, *backend, &fresh_scene());
        // First over whatever the earlier configs left in the memo ...
        assert_eq!(ledger(c, *backend, &shared), want, "{what}: warm != fresh");
        // ... then over its own answers, which adds nothing.
        let entries = shared.probe_memo_len();
        assert_eq!(
            ledger(c, *backend, &shared),
            want,
            "{what}: repeat != fresh"
        );
        assert_eq!(
            shared.probe_memo_len(),
            entries,
            "{what}: repeat grew the memo"
        );
        decisions += want.matches("dvfs e=").count();
    }
    assert!(decisions > 0, "no run produced a governor decision");
    // 24 poses: the full frame, and the three bands of p = 3 that the
    // per-pipeline renderers cull. Nothing else was ever asked.
    assert_eq!(shared.probe_memo_len(), 24 * 4);
}

/// The other two consumers of the probe: the single-core baseline and the
/// cluster model.
#[test]
fn baseline_and_cluster_read_the_same_memo() {
    let shared = fresh_scene();
    let c = cfg(RendererMode::PerPipelineRenderer, Runtime::Static, 3);
    ledger(&c, Backend::Sim, &shared);
    let entries = shared.probe_memo_len();
    assert_eq!(
        run_baseline(&c, shared.clone()).total_secs.to_bits(),
        run_baseline(&c, fresh_scene()).total_secs.to_bits()
    );
    for mode in [
        ClusterMode::SingleRenderer,
        ClusterMode::ParallelRenderer,
        ClusterMode::ExternalRenderer,
    ] {
        assert_eq!(
            cluster_walkthrough(mode, 3, &c, shared.clone())
                .total_secs
                .to_bits(),
            cluster_walkthrough(mode, 3, &c, fresh_scene())
                .total_secs
                .to_bits(),
            "{mode:?}"
        );
    }
    assert_eq!(shared.probe_memo_len(), entries, "same poses, same bands");
}

/// Two threads sweep different halves of the matrix over one scene at
/// once — racing to answer the same poses — and every run equals the
/// serial one on a fresh scene.
#[test]
fn two_threads_sweeping_one_scene_equal_the_serial_result() {
    let runs = matrix();
    let want: Vec<String> = runs
        .iter()
        .map(|(c, backend)| ledger(c, *backend, &fresh_scene()))
        .collect();
    let shared = fresh_scene();
    let start = Barrier::new(2);
    let sweep = |parity: usize| {
        let (runs, shared, start) = (&runs, &shared, &start);
        move || {
            start.wait();
            runs.iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(i, (c, backend))| (i, ledger(c, *backend, shared)))
                .collect::<Vec<_>>()
        }
    };
    let got = std::thread::scope(|s| {
        let (even, odd) = (s.spawn(sweep(0)), s.spawn(sweep(1)));
        let mut got = even.join().expect("even sweep panicked");
        got.extend(odd.join().expect("odd sweep panicked"));
        got
    });
    assert_eq!(got.len(), runs.len());
    for (i, ledger) in got {
        let (c, backend) = &runs[i];
        assert_eq!(
            ledger, want[i],
            "{:?} {:?} p={} {backend:?}",
            c.renderer, c.runtime, c.pipelines
        );
    }
    assert_eq!(shared.probe_memo_len(), 24 * 4);
}
