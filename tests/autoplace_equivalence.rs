//! Differential suite for the stage-graph scheduler: an auto-placed run
//! must deliver the *same film, bit for bit* as the paper's fixed
//! 7-stage arrangement — across all three renderer modes, all three
//! backends (frame-major sim, event-driven DES, native threads), and
//! under injected faults (message-level drops/corruption on the native
//! transport, supervised fail-stop kills on the simulated backends).
//! It also pins the scheduler's reason to exist: the auto placement's
//! simulated frame rate beats (or ties within 1%) every fixed
//! arrangement on the film workload.

mod common;

use common::{cfg_with, film, scene, MODES};
use scc_core::{
    reference::reference_frames, run_with_scene, Arrangement, Backend, FaultSpec, Fidelity,
    RendererMode, RunConfig,
};

fn cfg(mode: RendererMode, pipelines: u32) -> RunConfig {
    cfg_with(mode, Arrangement::Ordered, pipelines, 4)
}

#[test]
fn sim_auto_equals_fixed_in_every_renderer_mode() {
    for mode in MODES {
        let fixed = cfg(mode, 2);
        let mut auto = fixed.clone();
        auto.auto_place = true;
        auto.verify = true; // every invariant checked on the auto run
        assert_eq!(
            film(&fixed, Backend::Sim),
            film(&auto, Backend::Sim),
            "{mode:?}: auto placement changed the film"
        );
    }
}

#[test]
fn native_auto_equals_fixed_in_every_renderer_mode() {
    for mode in MODES {
        let fixed = cfg(mode, 2);
        let mut auto = fixed.clone();
        auto.auto_place = true;
        let out = run_with_scene(&auto, Backend::Native, scene());
        let b = out.report.native().unwrap();
        assert_eq!(
            film(&fixed, Backend::Native),
            common::checksums(&b.frames),
            "{mode:?}: native auto placement changed the film"
        );
        // And both equal the sequential oracle.
        let mut ref_cfg = fixed.clone();
        if mode == RendererMode::McpcRenderer {
            ref_cfg.renderer = RendererMode::SingleRenderer;
        }
        assert_eq!(b.frames, reference_frames(&ref_cfg, scene()));
    }
}

#[test]
fn des_auto_equals_fixed_single_renderer() {
    // Static DES covers the single renderer (`check_support`).
    let fixed = cfg(RendererMode::SingleRenderer, 2);
    let mut auto = fixed.clone();
    auto.auto_place = true;
    auto.verify = true;
    assert_eq!(
        film(&fixed, Backend::Des),
        film(&auto, Backend::Des),
        "DES: auto placement changed the film"
    );
}

fn kill_spec(stage: u32) -> FaultSpec {
    common::kill_spec(0, stage, 1)
}

#[test]
fn sim_auto_survives_kills_bit_identical() {
    // Kill the replicated bottleneck's primary (stage 1, blur) and a
    // merged-tail stage (stage 3, flicker): the supervisor must migrate
    // the scheduler placement — group siblings included — and still
    // deliver the reference film.
    for stage in [1u32, 3] {
        let mut auto = cfg(RendererMode::SingleRenderer, 2);
        auto.auto_place = true;
        auto.fault = Some(kill_spec(stage));
        let out = run_with_scene(&auto, Backend::Sim, scene());
        let report = out.report.sim().unwrap();
        assert!(
            !report.recoveries.is_empty(),
            "stage {stage}: the kill must be detected and migrated"
        );
        let mut clean = auto.clone();
        clean.fault = None;
        assert_eq!(
            report.outputs.expect("killed run film"),
            reference_frames(&clean, scene()),
            "stage {stage}: recovery lost film fidelity under auto placement"
        );
    }
}

#[test]
fn des_auto_survives_kills_bit_identical() {
    let mut auto = cfg(RendererMode::SingleRenderer, 2);
    auto.auto_place = true;
    auto.verify = true;
    auto.fault = Some(kill_spec(3));
    let out = run_with_scene(&auto, Backend::Des, scene());
    let report = out.report.des().unwrap();
    assert_eq!(report.recoveries.len(), 1);
    let mut clean = auto.clone();
    clean.fault = None;
    assert_eq!(
        report.outputs.expect("killed run film"),
        reference_frames(&clean, scene())
    );
}

#[test]
fn native_auto_survives_message_faults_bit_identical() {
    let mut auto = cfg(RendererMode::SingleRenderer, 2);
    auto.auto_place = true;
    auto.verify = true; // ARQ ledgers audited at thread exit
    auto.fault = Some(FaultSpec {
        seed: 0xC1A05,
        drop_rate: 0.05,
        corrupt_rate: 0.05,
        timeout_us: 100_000,
        retry_budget: 5,
        ..FaultSpec::default()
    });
    let out = run_with_scene(&auto, Backend::Native, scene());
    let report = out.report.native().unwrap();
    let mut clean = auto.clone();
    clean.fault = None;
    assert_eq!(report.frames, reference_frames(&clean, scene()));
}

#[test]
fn auto_throughput_dominates_every_fixed_arrangement() {
    // The scheduler's reason to exist: replicating blur and merging the
    // idle tail must beat (or tie within 1%) each fixed arrangement's
    // simulated frame rate on the film workload.
    let base = RunConfig::builder()
        .renderer(RendererMode::SingleRenderer)
        .arrangement(Arrangement::Ordered)
        .pipelines(2)
        .size(100, 100)
        .frames(16)
        .seed(23)
        .fidelity(Fidelity::TimingOnly)
        .build()
        .expect("valid config");
    let mut auto = base.clone();
    auto.auto_place = true;
    let auto_secs = run_with_scene(&auto, Backend::Sim, scene()).total_secs;
    for arr in [
        Arrangement::Unordered,
        Arrangement::Ordered,
        Arrangement::Flipped,
    ] {
        let mut fixed = base.clone();
        fixed.arrangement = arr;
        let fixed_secs = run_with_scene(&fixed, Backend::Sim, scene()).total_secs;
        assert!(
            auto_secs <= fixed_secs * 1.01,
            "{arr:?}: auto {auto_secs:.3}s must not lose to fixed {fixed_secs:.3}s"
        );
    }
}
