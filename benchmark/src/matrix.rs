//! The two simulated-film workloads, both in deterministic virtual time:
//! `paper_matrix` (what regenerating Figures 9–11 runs) and
//! `film_governed` (the closed-loop DVFS governor, Figures 16/17).
//!
//! Host time and simulated time are kept apart: `host_frames_per_s` and
//! every `*.frames_per_host_s` are host time; every `*.virtual_s`,
//! joule, watt and modelled-chip counter is simulated and must repeat
//! bit for bit.

use crate::catalog::STAGES;
use crate::json;
use crate::measure::{pct, sample_for, timed, Measured, Seeds, SetupTimer, STAGE_KINDS};
use crate::native::probe_render;
use crate::span::Tracer;
use scc_cluster::{cluster_walkthrough, ClusterMode};
use scc_core::spec::StageKind;
use scc_core::{
    check_report, place, plan_for, run_baseline, run_with_scene, Backend, BackendReport,
    GovernorAction, GovernorTuning, PowerConfig, RendererMode, RunConfig, RunOutcome, Runtime,
    WalkthroughReport,
};
use scc_render::{CityConfig, Renderer, Scene};
use scc_sim::platform::PlatformStats;
use scc_sim::{CoreId, FreqMHz};
use std::hint::black_box;
use std::sync::Arc;

/// The matrix: renderer mode × pipeline count, paper order.
const MODES: [(RendererMode, &str, ClusterMode); 3] = [
    (
        RendererMode::SingleRenderer,
        "single",
        ClusterMode::SingleRenderer,
    ),
    (
        RendererMode::PerPipelineRenderer,
        "per_pipeline",
        ClusterMode::ParallelRenderer,
    ),
    (
        RendererMode::McpcRenderer,
        "mcpc",
        ClusterMode::ExternalRenderer,
    ),
];
const PIPELINES: [u32; 5] = [1, 2, 3, 5, 7];

/// Frames per config in the timed passes and the per-executor slices:
/// one pass over the 15 configs is one throughput sample, ~0.7 s, short
/// enough for some to fall between a noisy neighbour's bursts.
const SLICE_FRAMES: u64 = 24;
/// The paper's walkthrough: the traced pass runs it once in full, since
/// the published seconds can only be compared with 400-frame totals.
const PAPER_FRAMES: u64 = 400;
/// `runner::des` documents and tests sim and DES totals within 3%.
const SIM_DES_TOLERANCE: f64 = 0.03;

fn city_scene(seeds: &Seeds) -> Arc<Scene> {
    Arc::new(Scene::city(CityConfig {
        seed: seeds.city,
        ..CityConfig::default()
    }))
}

fn film_cfg(mode: RendererMode, p: u32, frames: u64, seeds: &Seeds) -> RunConfig {
    RunConfig::builder()
        .renderer(mode)
        .pipelines(p)
        .size(400, 400)
        .frames(frames)
        .seed(seeds.run)
        .build()
        .expect("matrix config is valid")
}

fn matrix(frames: u64, seeds: &Seeds) -> Vec<RunConfig> {
    MODES
        .iter()
        .flat_map(|&(mode, _, _)| PIPELINES.map(|p| film_cfg(mode, p, frames, seeds)))
        .collect()
}

fn with<T: Clone>(cfgs: &[T], edit: impl Fn(&mut T)) -> Vec<T> {
    cfgs.iter()
        .map(|c| {
            let mut c = c.clone();
            edit(&mut c);
            c
        })
        .collect()
}

/// Scene, octree, and each config built, validated, planned and placed.
fn build(cfgs: impl Fn() -> Vec<RunConfig>, seeds: &Seeds) -> (Arc<Scene>, Vec<RunConfig>) {
    let scene = city_scene(seeds);
    black_box(Renderer::new(scene.clone()));
    let cfgs = cfgs();
    for c in &cfgs {
        black_box((plan_for(c), place(c.renderer, c.arrangement, c.pipelines)));
    }
    (scene, cfgs)
}

fn sim_report(out: RunOutcome) -> WalkthroughReport {
    match out.report {
        BackendReport::Sim(report) => report,
        _ => unreachable!("sim runs return the walkthrough report"),
    }
}

/// One pass: every config through `backend`; virtual totals and the
/// pass's host seconds.
fn pass(cfgs: &[RunConfig], backend: Backend, scene: &Arc<Scene>) -> (Vec<f64>, f64) {
    timed(|| {
        cfgs.iter()
            .map(|c| run_with_scene(c, backend, scene.clone()).total_secs)
            .collect()
    })
}

/// Traced counterpart of [`pass`]: one span per config (the config's
/// index is the trace id); returns what `run` returned and the summed
/// span seconds.
fn traced_runs<R>(
    t: &mut Tracer,
    name: &'static str,
    cfgs: &[RunConfig],
    run: impl Fn(&RunConfig) -> R,
) -> (Vec<R>, f64) {
    let mut secs = 0.0;
    let out = cfgs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let (r, s) = t.timed(name, i as u64, || run(c));
            secs += s;
            r
        })
        .collect();
    (out, secs)
}

fn frames_of(cfgs: &[RunConfig]) -> f64 {
    cfgs.iter().map(|c| c.frames).sum::<u64>() as f64
}

/// Largest relative sim/DES disagreement over paired totals.
fn sim_des_gap(sim: &[f64], des: &[f64]) -> f64 {
    sim.iter()
        .zip(des)
        .map(|(s, d)| (s - d).abs() / s)
        .fold(0.0, f64::max)
}

pub fn matrix_untraced(seeds: &Seeds, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let (mut setup, (scene, cfgs)) =
        SetupTimer::start(|| build(|| matrix(SLICE_FRAMES, seeds), seeds));
    m.sizes = vec![
        ("width", 400),
        ("height", 400),
        ("configs", cfgs.len() as u64),
        ("frames_per_config", SLICE_FRAMES),
    ];
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let fps = sample_for(seconds, &mut setup, || {
        let (totals, secs) = pass(&cfgs, Backend::Sim, &scene);
        passes.push(totals);
        frames_of(&cfgs) / secs
    });
    // A config fails when its virtual total differs between repeats, or
    // (single-renderer rows, the DES validator's scope) when sim and DES
    // disagree by more than the documented tolerance.
    let single = &cfgs[..PIPELINES.len()];
    let (des, _) = pass(single, Backend::Des, &scene);
    m.attempted = cfgs.len() as u64;
    for (i, c) in cfgs.iter().enumerate() {
        let repeats = passes
            .iter()
            .all(|p| p[i].to_bits() == passes[0][i].to_bits());
        let agrees = des
            .get(i)
            .is_none_or(|d| (passes[0][i] - d).abs() / passes[0][i] <= SIM_DES_TOLERANCE);
        if !(repeats && agrees) {
            m.failed += 1;
            m.problem(format!(
                "{} p={}: repeats identical: {repeats}, sim/DES within 3%: {agrees}",
                c.renderer.name(),
                c.pipelines
            ));
        }
    }
    m.end_to_end(fps, setup.samples);
    m
}

/// The paper's published walkthrough seconds, matrix order.
fn paper_seconds() -> Vec<f64> {
    let doc = json::parse(include_str!("../paper_reference.json")).expect("paper_reference.json");
    let table = json::get(&doc, "walkthrough_s").expect("walkthrough_s");
    let pipelines: Vec<f64> = json::as_arr(json::get(&doc, "pipelines").expect("pipelines"))
        .iter()
        .filter_map(json::as_f64)
        .collect();
    assert_eq!(
        pipelines,
        PIPELINES.map(f64::from),
        "reference pipeline counts"
    );
    MODES
        .iter()
        .flat_map(|(_, key, _)| json::as_arr(json::get(table, key).expect("mode row")))
        .filter_map(json::as_f64)
        .collect()
}

/// Mean over the published points of |simulated − paper| ÷ paper, in %.
fn paper_error_pct(simulated: &[f64], paper: &[f64]) -> f64 {
    assert_eq!(simulated.len(), paper.len());
    let sum: f64 = simulated
        .iter()
        .zip(paper)
        .map(|(s, p)| (s - p).abs() / p)
        .sum();
    100.0 * sum / paper.len() as f64
}

/// The modelled chip's counters. Counts and waits are summed over the
/// reports; imbalance is their mean; power is time-weighted.
fn platform_metrics(m: &mut Measured, reports: &[&WalkthroughReport]) {
    let sum =
        |f: &dyn Fn(&PlatformStats) -> f64| reports.iter().map(|r| f(&r.platform)).sum::<f64>();
    m.layer("sim.noc.messages", sum(&|p| p.noc_messages as f64));
    m.layer("sim.noc.bytes", sum(&|p| p.noc_bytes as f64));
    m.layer("sim.noc.wait_s", sum(&|p| p.noc_wait_secs));
    m.layer("sim.mem.bytes", sum(&|p| p.mem_bytes as f64));
    m.layer("sim.mem.wait_s", sum(&|p| p.mem_wait_secs));
    m.layer(
        "sim.mem.imbalance",
        sum(&|p| p.mem_imbalance) / reports.len() as f64,
    );
    for mc in 0..4 {
        m.layer(
            &format!("sim.mem.mc{mc}_bytes"),
            sum(&|p| p.mem_bytes_per_mc[mc] as f64),
        );
    }
    m.layer("sim.hostlink.bytes", sum(&|p| p.host_link.bytes as f64));
    m.layer(
        "sim.hostlink.wait_s",
        sum(&|p| p.host_link.wait_ps as f64 * 1e-12),
    );
    let energy: f64 = reports.iter().map(|r| r.scc_energy_joules).sum();
    let virtual_s: f64 = reports.iter().map(|r| r.total_secs).sum();
    m.layer("sim.power.mean_w", energy / virtual_s);
}

pub fn matrix_traced(seeds: &Seeds, t: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let (scene, paper_cfgs) = build(|| matrix(PAPER_FRAMES, seeds), seeds);
    m.sizes = vec![
        ("width", 400),
        ("height", 400),
        ("configs", paper_cfgs.len() as u64),
        ("frames_per_config", PAPER_FRAMES),
        ("slice_frames_per_config", SLICE_FRAMES),
    ];
    m.attempted = paper_cfgs.len() as u64;

    // The full walkthrough once per config, audited by scc_core::invariant
    // (`verify`), compared with the paper's 15 published points.
    let verified = with(&paper_cfgs, |c| c.verify = true);
    let sim = |c: &RunConfig| sim_report(run_with_scene(c, Backend::Sim, scene.clone()));
    let (reports, sim_secs) = traced_runs(t, "core.sim", &verified, sim);
    let totals: Vec<f64> = reports.iter().map(|r| r.total_secs).collect();
    m.layer(
        "core.sim.frames_per_host_s",
        frames_of(&paper_cfgs) / sim_secs,
    );
    m.layer("core.sim.virtual_s", totals.iter().sum());
    m.layer(
        "core.sim.energy_j",
        reports.iter().map(|r| r.scc_energy_joules).sum(),
    );
    m.layer(
        "core.sim.paper_error_pct",
        paper_error_pct(&totals, &paper_seconds()),
    );
    platform_metrics(&mut m, &reports.iter().collect::<Vec<_>>());
    // The simulated Figure 8: where the single-renderer p=1 row's cores
    // spent their time.
    for (name, kind) in STAGES.iter().zip(STAGE_KINDS) {
        let busy: f64 = reports[0]
            .stage_reports
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.busy_secs)
            .sum();
        m.layer(&format!("core.stage.{name}.busy_virtual_s"), busy);
    }
    let baseline = t.call("core.baseline", 0, || {
        run_baseline(&paper_cfgs[0], scene.clone())
    });
    m.layer("core.baseline.virtual_s", baseline.total_secs);
    m.layer(
        "core.speedup.max",
        baseline.total_secs / totals.iter().copied().fold(f64::INFINITY, f64::min),
    );

    // Per-executor slices: the same matrix through the other executors.
    let slices = with(&matrix(SLICE_FRAMES, seeds), |c| c.verify = true);
    let single = &slices[..PIPELINES.len()];
    let total = |backend: Backend| {
        let scene = &scene;
        move |c: &RunConfig| run_with_scene(c, backend, scene.clone()).total_secs
    };
    let (sim_slice, _) = traced_runs(t, "core.sim.slice", single, total(Backend::Sim));
    let (des, des_secs) = traced_runs(t, "core.des", single, total(Backend::Des));
    m.layer("core.des.frames_per_host_s", frames_of(single) / des_secs);
    m.layer("core.des.virtual_s", des.iter().sum());
    let gap = sim_des_gap(&sim_slice, &des);
    m.layer("core.sim_des_gap_pct", 100.0 * gap);
    if gap > SIM_DES_TOLERANCE {
        m.failed += 1;
        m.problem(format!("sim and DES totals differ by {:.2}%", 100.0 * gap));
    }

    let tasks = with(&slices, |c| c.runtime = Runtime::Tasks);
    let (task_reports, task_secs) = traced_runs(t, "core.tasks", &tasks, sim);
    let stats = |f: &dyn Fn(&scc_core::TaskStats) -> u64| {
        task_reports
            .iter()
            .filter_map(|r| r.task_stats.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    m.layer(
        "core.tasks.frames_per_host_s",
        frames_of(&tasks) / task_secs,
    );
    m.layer(
        "core.tasks.virtual_s",
        task_reports.iter().map(|r| r.total_secs).sum(),
    );
    m.layer("core.tasks.steals", stats(&|t| t.steals));
    m.layer("core.tasks.steal_attempts", stats(&|t| t.steal_attempts));
    m.layer(
        "core.tasks.backpressure_stalls",
        stats(&|t| t.backpressure_stalls),
    );

    // The slice configs pair up with the cluster rows mode for mode.
    let (cluster, cluster_secs) = traced_runs(t, "cluster", &slices, |c| {
        let mode = MODES
            .iter()
            .find(|(renderer, _, _)| *renderer == c.renderer)
            .expect("matrix mode")
            .2;
        cluster_walkthrough(mode, c.pipelines, c, scene.clone()).total_secs
    });
    m.layer(
        "cluster.frames_per_host_s",
        frames_of(&slices) / cluster_secs,
    );
    m.layer("cluster.virtual_s", cluster.iter().sum());

    // The sim's workload probe, by direct calls: what the
    // single-renderer p=1 config pays, one full-frame cull + coverage
    // estimate per walkthrough frame.
    let culled = probe_render(t, &paper_cfgs[0], &scene, false);
    let busy = t.busy_by_name();
    m.layer("render.cull.busy_s", busy["probe.render.cull"]);
    m.layer("render.coverage.busy_s", busy["probe.render.coverage"]);
    m.layer("render.cull.nodes_visited", culled.nodes_visited as f64);
    m.layer("render.cull.triangles_out", culled.triangles_out as f64);
    m.layer("render.scene.triangles", scene.triangle_count() as f64);
    m
}

// ---------------------------------------------------------------- governed

fn governed_cfg(power: PowerConfig, seeds: &Seeds) -> RunConfig {
    RunConfig {
        power,
        ..film_cfg(RendererMode::McpcRenderer, 1, PAPER_FRAMES, seeds)
    }
}

fn governed(seeds: &Seeds) -> Vec<RunConfig> {
    vec![governed_cfg(
        PowerConfig::Governed(GovernorTuning::default()),
        seeds,
    )]
}

const GOVERNED_SIZES: [(&str, u64); 4] = [
    ("width", 400),
    ("height", 400),
    ("frames", PAPER_FRAMES),
    ("pipelines", 1),
];

pub fn governed_untraced(seeds: &Seeds, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let (mut setup, (scene, cfgs)) = SetupTimer::start(|| build(|| governed(seeds), seeds));
    m.sizes = GOVERNED_SIZES.to_vec();
    let cfg = &cfgs[0];
    let mut runs: Vec<WalkthroughReport> = Vec::new();
    let fps = sample_for(seconds, &mut setup, || {
        let (out, secs) = timed(|| run_with_scene(cfg, Backend::Sim, scene.clone()));
        runs.push(sim_report(out));
        cfg.frames as f64 / secs
    });
    // A repeat fails when its virtual time, energy or decision trace
    // differs from the first, or the invariant checker objects.
    m.attempted = runs.len() as u64;
    for (i, r) in runs.iter().enumerate() {
        let same = r.total_secs.to_bits() == runs[0].total_secs.to_bits()
            && r.scc_energy_joules.to_bits() == runs[0].scc_energy_joules.to_bits()
            && r.dvfs_decisions == runs[0].dvfs_decisions;
        let violations = check_report(r);
        if !same || !violations.is_empty() {
            m.failed += 1;
            m.problem(format!(
                "governed repeat {i}: identical to first: {same}, violations: {violations:?}"
            ));
        }
    }
    m.end_to_end(fps, setup.samples);
    m
}

pub fn governed_traced(seeds: &Seeds, t: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let (scene, _) = build(|| governed(seeds), seeds);
    m.sizes = GOVERNED_SIZES.to_vec();
    let mut run = |name: &'static str, power: PowerConfig| {
        let cfg = RunConfig {
            verify: true,
            ..governed_cfg(power, seeds)
        };
        t.timed(name, 0, || {
            sim_report(run_with_scene(&cfg, Backend::Sim, scene.clone()))
        })
    };
    // The hand split as `bench dvfs` builds it: the blur stage's tile at
    // 800 MHz, found from where a default run placed it.
    let (default, _) = run("core.sim.default", PowerConfig::default());
    let blur = default
        .stage_reports
        .iter()
        .find(|s| s.kind == StageKind::Blur)
        .expect("film has a blur stage")
        .core_id;
    let (hand, _) = run(
        "core.sim.blur800",
        PowerConfig::Static(vec![(CoreId::new(blur), FreqMHz::F800)]),
    );
    let (gov, gov_secs) = run(
        "core.sim.governed",
        PowerConfig::Governed(GovernorTuning::default()),
    );
    m.attempted = 3;
    for (what, r) in [
        ("default", &default),
        ("blur800", &hand),
        ("governed", &gov),
    ] {
        let violations = check_report(r);
        if !violations.is_empty() {
            m.failed += 1;
            m.problem(format!("{what} run: {violations:?}"));
        }
    }

    let count = |pick: fn(&GovernorAction) -> bool| {
        gov.dvfs_decisions
            .iter()
            .filter(|d| pick(&d.action))
            .count() as f64
    };
    m.layer("core.governor.virtual_s", gov.total_secs);
    m.layer("core.governor.energy_j", gov.scc_energy_joules);
    m.layer("core.governor.epochs", gov.dvfs_decisions.len() as f64);
    m.layer(
        "core.governor.raises",
        count(|a| matches!(a, GovernorAction::Raise { .. })),
    );
    m.layer(
        "core.governor.throttles",
        count(|a| matches!(a, GovernorAction::Throttle { .. })),
    );
    m.layer(
        "core.governor.cap_blocked",
        count(|a| matches!(a, GovernorAction::CapBlocked { .. })),
    );
    m.layer("core.governor.hand_split_virtual_s", hand.total_secs);
    m.layer("core.governor.hand_split_energy_j", hand.scc_energy_joules);
    m.layer(
        "core.governor.time_gap_pct",
        pct(gov.total_secs - hand.total_secs, hand.total_secs),
    );
    m.layer(
        "core.governor.energy_gap_pct",
        pct(
            gov.scc_energy_joules - hand.scc_energy_joules,
            hand.scc_energy_joules,
        ),
    );
    m.layer(
        "core.governor.frames_per_host_s",
        PAPER_FRAMES as f64 / gov_secs,
    );
    platform_metrics(&mut m, &[&gov]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_lists_the_fifteen_points_in_matrix_order() {
        let paper = paper_seconds();
        assert_eq!(paper.len(), MODES.len() * PIPELINES.len());
        assert_eq!((paper[0], paper[5], paper[14]), (208.0, 236.0, 54.0));
        let cfgs = matrix(SLICE_FRAMES, &Seeds::derive(1));
        assert_eq!(cfgs.len(), paper.len());
        assert_eq!(cfgs[5].renderer, RendererMode::PerPipelineRenderer);
        assert_eq!(cfgs[14].pipelines, 7);
    }

    #[test]
    fn error_and_gap_helpers() {
        assert_eq!(paper_error_pct(&[110.0, 45.0], &[100.0, 50.0]), 10.0);
        assert_eq!(sim_des_gap(&[100.0, 200.0], &[101.0, 190.0]), 0.05);
    }
}
