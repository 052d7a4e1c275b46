//! §VI-B (power/energy) and §VI-D (DVFS) invariants.

use scc_core::{
    place_dvfs_single_pipeline, run_with_scene, Backend, CostModel, PowerConfig, RendererMode,
    RunConfig, SimRunner, WalkthroughReport,
};
use scc_render::{CityConfig, Scene};
use scc_sim::power::McpcPower;
use scc_sim::{CoreId, FreqMHz, IslandId, SccConfig, SccPlatform};
use std::sync::Arc;

fn scene() -> Arc<Scene> {
    Arc::new(Scene::city(CityConfig::default()))
}

fn cfg(mode: RendererMode, pipelines: u32) -> RunConfig {
    RunConfig::builder()
        .renderer(mode)
        .pipelines(pipelines)
        .frames(60)
        .build()
        .expect("valid config")
}

fn dvfs_run(settings: Vec<(CoreId, FreqMHz)>, scene: &Arc<Scene>) -> WalkthroughReport {
    let placement = place_dvfs_single_pipeline(RendererMode::McpcRenderer);
    let mut config = cfg(RendererMode::McpcRenderer, 1);
    config.power = PowerConfig::Static(settings);
    SimRunner::with_parts(
        config,
        Arc::clone(scene),
        placement,
        SccPlatform::new(SccConfig::default()),
        CostModel::default(),
    )
    .expect("a valid static film config")
    .run()
}

fn blur_core() -> CoreId {
    place_dvfs_single_pipeline(RendererMode::McpcRenderer).pipelines[0][1]
}

fn downstream_settings() -> Vec<(CoreId, FreqMHz)> {
    let placement = place_dvfs_single_pipeline(RendererMode::McpcRenderer);
    let island = IslandId::of_tile(placement.pipelines[0][2].tile());
    let mut v = vec![(blur_core(), FreqMHz::F800)];
    for tile in island.tiles() {
        v.push((tile.cores()[0], FreqMHz::F400));
    }
    v
}

#[test]
fn accelerating_blur_speeds_up_the_walkthrough() {
    // Figure 16: 236 s -> 174 s, a ~26% improvement, from raising only
    // the blur tile to 800 MHz.
    let s = scene();
    let base = dvfs_run(vec![], &s);
    let fast = dvfs_run(vec![(blur_core(), FreqMHz::F800)], &s);
    let gain = 1.0 - fast.total_secs / base.total_secs;
    assert!(
        (0.15..0.45).contains(&gain),
        "blur@800 gain {:.0}% (paper ~26%)",
        gain * 100.0
    );
}

#[test]
fn accelerating_blur_costs_about_four_watts() {
    // §VI-D: "For improved pipelining performance 4-5 additional watts
    // are required" (the whole voltage island rises to 1.3 V).
    let s = scene();
    let base = dvfs_run(vec![], &s);
    let fast = dvfs_run(vec![(blur_core(), FreqMHz::F800)], &s);
    let delta = fast.mean_power() - base.mean_power();
    assert!(
        (2.5..7.0).contains(&delta),
        "power uplift {delta:.1} W should be in the paper's 4-5 W band"
    );
}

#[test]
fn undervolting_downstream_recovers_power_without_losing_time() {
    // Figure 16/17: the mixed 533/800/400 configuration runs as fast as
    // blur@800 (174 vs 175 s) at ~1 W *below* the all-533 baseline.
    let s = scene();
    let base = dvfs_run(vec![], &s);
    let fast = dvfs_run(vec![(blur_core(), FreqMHz::F800)], &s);
    let mixed = dvfs_run(downstream_settings(), &s);
    assert!(
        mixed.total_secs < fast.total_secs * 1.05,
        "undervolting idle-ish stages must not slow the pipeline: {:.1} vs {:.1}",
        mixed.total_secs,
        fast.total_secs
    );
    assert!(
        mixed.mean_power() < base.mean_power(),
        "mixed ({:.1} W) should undercut all-533 ({:.1} W)",
        mixed.mean_power(),
        base.mean_power()
    );
    assert!(mixed.mean_power() < fast.mean_power() - 3.0);
}

#[test]
fn power_rises_roughly_linearly_with_pipelines() {
    // Figure 14: power grows linearly with the number of pipelines.
    let s = scene();
    let powers: Vec<f64> = [1u32, 3, 5, 7]
        .iter()
        .map(|&p| {
            run_with_scene(
                &cfg(RendererMode::McpcRenderer, p),
                Backend::Sim,
                Arc::clone(&s),
            )
            .report
            .sim()
            .unwrap()
            .mean_power()
        })
        .collect();
    for w in powers.windows(2) {
        assert!(
            w[1] > w[0],
            "power must increase with pipelines: {powers:?}"
        );
    }
    // Rough linearity: increments within 3x of each other.
    let d1 = powers[1] - powers[0];
    let d3 = powers[3] - powers[2];
    assert!(d1 > 0.5 && d3 > 0.5 && d1 / d3 < 3.0 && d3 / d1 < 3.0);
}

#[test]
fn idle_chip_draws_about_22_watts() {
    let platform = SccPlatform::new(SccConfig::default());
    let idle = platform.idle_power();
    assert!(
        (21.0..23.0).contains(&idle),
        "idle {idle:.1} W (paper: 22 W)"
    );
}

#[test]
fn running_power_lands_in_the_papers_band() {
    // §VI-B anchors: MCPC config with 5 pipelines ≈ 50 W; n-renderer
    // with 7 pipelines ≈ 58 W.
    let s = scene();
    let hybrid = run_with_scene(
        &cfg(RendererMode::McpcRenderer, 5),
        Backend::Sim,
        Arc::clone(&s),
    )
    .report
    .sim()
    .unwrap();
    assert!(
        (45.0..56.0).contains(&hybrid.mean_power()),
        "hybrid power {:.1} W (paper ~50 W)",
        hybrid.mean_power()
    );
    let out = run_with_scene(&cfg(RendererMode::PerPipelineRenderer, 7), Backend::Sim, s);
    let nrend = out.report.sim().unwrap();
    assert!(
        (53.0..68.0).contains(&nrend.mean_power()),
        "n-rend power {:.1} W (paper ~58 W)",
        nrend.mean_power()
    );
}

#[test]
fn hybrid_beats_nrend_on_energy() {
    // §VI-B: 2642 J (hybrid) vs 3364 J (n-renderer) — "it is reasonable
    // to use the hybrid MCPC and SCC approach in long running
    // applications for a better performance/power consumption ratio".
    let s = scene();
    let mcpc = McpcPower::default();
    let hybrid = run_with_scene(
        &cfg(RendererMode::McpcRenderer, 5),
        Backend::Sim,
        Arc::clone(&s),
    )
    .report
    .sim()
    .unwrap();
    let out = run_with_scene(&cfg(RendererMode::PerPipelineRenderer, 7), Backend::Sim, s);
    let nrend = out.report.sim().unwrap();
    let he = hybrid.active_energy_joules(&mcpc);
    let ne = nrend.active_energy_joules(&mcpc);
    assert!(he < ne, "hybrid {he:.0} J should beat n-rend {ne:.0} J");
}

#[test]
fn mcpc_render_time_is_seconds_not_minutes() {
    // §VI-B: "The rendering of all images took only about 3.3 seconds" —
    // scaled to this test's 60-frame walkthrough, ~0.5 s.
    let s = scene();
    let out = run_with_scene(&cfg(RendererMode::McpcRenderer, 5), Backend::Sim, s);
    let hybrid = out.report.sim().unwrap();
    let full_walkthrough_equiv = hybrid.mcpc_busy_secs * 400.0 / 60.0;
    assert!(
        (2.0..5.0).contains(&full_walkthrough_equiv),
        "MCPC render time {full_walkthrough_equiv:.1} s per 400 frames (paper 3.3 s)"
    );
}
