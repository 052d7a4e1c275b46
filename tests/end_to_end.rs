//! End-to-end data-path correctness: the simulated pipeline, the native
//! (real threads) pipeline and the sequential reference must produce
//! bit-identical frames for every renderer configuration.

use scc_core::{
    reference::reference_frames, run_with_scene, Arrangement, Backend, Fidelity, RendererMode,
    RunConfig,
};
use scc_render::{CityConfig, Scene};
use std::sync::Arc;

fn scene() -> Arc<Scene> {
    Arc::new(Scene::city(CityConfig {
        side: 8,
        spacing: 8.0,
        seed: 11,
    }))
}

fn cfg(mode: RendererMode, pipelines: u32) -> RunConfig {
    RunConfig::builder()
        .renderer(mode)
        .pipelines(pipelines)
        .size(72, 60)
        .frames(4)
        .seed(2013)
        .fidelity(Fidelity::Full)
        .build()
        .expect("valid config")
}

#[test]
fn simulated_pipeline_matches_reference_single_renderer() {
    let c = cfg(RendererMode::SingleRenderer, 3);
    let out = run_with_scene(&c, Backend::Sim, scene());
    let report = out.report.sim().unwrap();
    let reference = reference_frames(&c, scene());
    assert_eq!(report.outputs.unwrap(), reference);
}

#[test]
fn simulated_pipeline_matches_reference_per_pipeline_renderer() {
    let c = cfg(RendererMode::PerPipelineRenderer, 2);
    let out = run_with_scene(&c, Backend::Sim, scene());
    let report = out.report.sim().unwrap();
    let reference = reference_frames(&c, scene());
    assert_eq!(report.outputs.unwrap(), reference);
}

#[test]
fn simulated_pipeline_matches_reference_mcpc_renderer() {
    let c = cfg(RendererMode::McpcRenderer, 4);
    let out = run_with_scene(&c, Backend::Sim, scene());
    let report = out.report.sim().unwrap();
    // The MCPC data path renders full frames and splits, like the
    // single-renderer reference.
    let mut rc = c.clone();
    rc.renderer = RendererMode::SingleRenderer;
    let reference = reference_frames(&rc, scene());
    assert_eq!(report.outputs.unwrap(), reference);
}

#[test]
fn native_and_simulated_pipelines_agree() {
    let c = cfg(RendererMode::SingleRenderer, 2);
    let sim = run_with_scene(&c, Backend::Sim, scene())
        .report
        .sim()
        .unwrap()
        .outputs
        .unwrap();
    let native = run_with_scene(&c, Backend::Native, scene())
        .report
        .native()
        .unwrap()
        .frames;
    assert_eq!(sim, native, "the two execution back-ends diverged");
}

#[test]
fn every_arrangement_produces_the_same_images() {
    // Physical placement must never change the data path.
    let mut images = Vec::new();
    for arr in Arrangement::all() {
        let mut c = cfg(RendererMode::SingleRenderer, 3);
        c.arrangement = arr;
        images.push(
            run_with_scene(&c, Backend::Sim, scene())
                .report
                .sim()
                .unwrap()
                .outputs
                .unwrap(),
        );
    }
    assert_eq!(images[0], images[1]);
    assert_eq!(images[1], images[2]);
}

#[test]
fn run_seed_changes_scratches_but_not_geometry() {
    let mut a = cfg(RendererMode::SingleRenderer, 2);
    let mut b = a.clone();
    b.seed = a.seed + 1;
    a.frames = 8;
    b.frames = 8;
    let fa = run_with_scene(&a, Backend::Sim, scene())
        .report
        .sim()
        .unwrap()
        .outputs
        .unwrap();
    let fb = run_with_scene(&b, Backend::Sim, scene())
        .report
        .sim()
        .unwrap()
        .outputs
        .unwrap();
    // Same walkthrough, different film damage: the randomised filters
    // (scratch columns / flicker offsets) must differ somewhere.
    assert_ne!(fa, fb, "seeds should change the randomised filters");
    assert_eq!(fa.len(), fb.len());
    assert_eq!(fa[0].width(), fb[0].width());
}

#[test]
fn walkthrough_time_is_identical_between_fidelities() {
    let mut timing = cfg(RendererMode::McpcRenderer, 3);
    timing.fidelity = Fidelity::TimingOnly;
    let full = cfg(RendererMode::McpcRenderer, 3);
    let t1 = run_with_scene(&timing, Backend::Sim, scene()).total_secs;
    let t2 = run_with_scene(&full, Backend::Sim, scene()).total_secs;
    assert_eq!(t1, t2);
}
