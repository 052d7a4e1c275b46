//! One entry point per paper table/figure.

use crate::report;
use scc_core::{
    place, place_dvfs_single_pipeline, run_baseline, run_with_scene, Arrangement, Backend,
    BaselineReport, CostModel, PowerConfig, RendererMode, RunConfig, SimRunner, StageKind,
    WalkthroughReport,
};
use scc_render::Scene;
use scc_sim::power::McpcPower;
use scc_sim::stats::Quartiles;
use scc_sim::{FreqMHz, SccConfig, SccPlatform};
use std::sync::Arc;

/// The paper's standard walkthrough configuration.
pub fn standard_config() -> RunConfig {
    RunConfig::default()
}

fn cfg(mode: RendererMode, arr: Arrangement, p: u32) -> RunConfig {
    RunConfig::builder()
        .renderer(mode)
        .arrangement(arr)
        .pipelines(p)
        .build()
        .expect("valid config")
}

/// Run one film walkthrough on the sim backend and return its report.
pub fn run(config: RunConfig, scene: Arc<Scene>) -> WalkthroughReport {
    run_with_scene(&config, Backend::Sim, scene)
        .report
        .sim()
        .expect("a sim film run")
}

// ---------------------------------------------------------------- Fig. 8

/// Figure 8: per-stage running time with the whole pipeline on one core.
pub fn fig8(scene: Arc<Scene>) -> BaselineReport {
    run_baseline(&standard_config(), scene)
}

// ------------------------------------------------------------ Figs. 9-11

/// One point of a scaling figure.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub pipelines: u32,
    pub arrangement: Arrangement,
    pub secs: f64,
}

/// Processing time vs pipeline count for all three arrangements.
pub fn scaling_curve(
    mode: RendererMode,
    scene: &Arc<Scene>,
    max_pipelines: u32,
) -> Vec<ScalePoint> {
    let mut out = Vec::new();
    for arr in Arrangement::all() {
        for p in 1..=max_pipelines.min(mode.max_pipelines()) {
            let r = run(cfg(mode, arr, p), Arc::clone(scene));
            out.push(ScalePoint {
                pipelines: p,
                arrangement: arr,
                secs: r.total_secs,
            });
        }
    }
    out
}

/// Figure 9: one renderer, 1..8 pipelines, three arrangements.
pub fn fig9(scene: &Arc<Scene>) -> Vec<ScalePoint> {
    scaling_curve(RendererMode::SingleRenderer, scene, 8)
}

/// Figure 10: one renderer per pipeline (max 7).
pub fn fig10(scene: &Arc<Scene>) -> Vec<ScalePoint> {
    scaling_curve(RendererMode::PerPipelineRenderer, scene, 7)
}

/// Figure 11: MCPC renders, 1..8 pipelines.
pub fn fig11(scene: &Arc<Scene>) -> Vec<ScalePoint> {
    scaling_curve(RendererMode::McpcRenderer, scene, 8)
}

// ---------------------------------------------------------------- Fig. 12

/// Figure 12: one MCPC-fed pipeline, image side length 50..400.
#[derive(Debug, Clone)]
pub struct SizePoint {
    pub side: u32,
    pub kilobytes: u64,
    pub secs: f64,
}

pub fn fig12(scene: &Arc<Scene>) -> Vec<SizePoint> {
    (1..=8)
        .map(|i| {
            let side = 50 * i;
            let mut c = cfg(RendererMode::McpcRenderer, Arrangement::Ordered, 1);
            c.width = side;
            c.height = side;
            let r = run(c, Arc::clone(scene));
            SizePoint {
                side,
                kilobytes: (side as u64 * side as u64 * 4) / 1000,
                secs: r.total_secs,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Table I

/// A full Table I: rows = configuration × arrangement (+ cluster rows
/// appended by the caller), columns = 1..7 pipelines.
#[derive(Debug, Clone)]
pub struct TableRow {
    pub label: String,
    pub secs: Vec<f64>,
}

pub fn table1_scc(scene: &Arc<Scene>) -> Vec<TableRow> {
    let mut rows = Vec::new();
    for (mode, tag) in [
        (RendererMode::SingleRenderer, "1 rend."),
        (RendererMode::PerPipelineRenderer, "n rend."),
        (RendererMode::McpcRenderer, "MCPC"),
    ] {
        for arr in Arrangement::all() {
            let secs: Vec<f64> = (1..=7u32)
                .map(|p| {
                    if p > mode.max_pipelines() {
                        f64::NAN
                    } else {
                        run(cfg(mode, arr, p), Arc::clone(scene)).total_secs
                    }
                })
                .collect();
            rows.push(TableRow {
                label: format!("{tag}, {}", arr.name()),
                secs,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Fig. 14

/// Figure 14: SCC power traces for the MCPC configuration at various core
/// counts (pipeline counts) and arrangements.
#[derive(Debug, Clone)]
pub struct PowerCurve {
    pub label: String,
    pub cpus: u32,
    /// (seconds, watts) samples.
    pub samples: Vec<(f64, f64)>,
}

pub fn fig14(scene: &Arc<Scene>, horizon_secs: f64) -> Vec<PowerCurve> {
    let mut out = Vec::new();
    for arr in Arrangement::all() {
        for p in (1..=8u32).step_by(1) {
            let r = run(cfg(RendererMode::McpcRenderer, arr, p), Arc::clone(scene));
            let cpus = RendererMode::McpcRenderer.cores_needed(p);
            let samples = r
                .power_trace
                .iter()
                .map(|s| (s.t.as_secs_f64(), s.watts))
                .filter(|(t, _)| *t <= horizon_secs)
                .collect();
            out.push(PowerCurve {
                label: format!("{cpus} CPUs {}", arr.name()),
                cpus,
                samples,
            });
        }
    }
    out
}

/// §VI-B: energy comparison between the best hybrid (MCPC, 5 pipelines)
/// and the best n-renderer (7 pipelines) configurations.
#[derive(Debug, Clone)]
pub struct EnergyComparison {
    pub hybrid_secs: f64,
    pub hybrid_mean_power: f64,
    pub hybrid_mcpc_render_secs: f64,
    pub hybrid_energy_joules: f64,
    pub nrend_secs: f64,
    pub nrend_mean_power: f64,
    pub nrend_energy_joules: f64,
}

pub fn energy_comparison(scene: &Arc<Scene>) -> EnergyComparison {
    let mcpc = McpcPower::default();
    let hybrid = run(
        cfg(RendererMode::McpcRenderer, Arrangement::Ordered, 5),
        Arc::clone(scene),
    );
    let nrend = run(
        cfg(RendererMode::PerPipelineRenderer, Arrangement::Ordered, 7),
        Arc::clone(scene),
    );
    EnergyComparison {
        hybrid_secs: hybrid.total_secs,
        hybrid_mean_power: hybrid.mean_power(),
        hybrid_mcpc_render_secs: hybrid.mcpc_busy_secs,
        hybrid_energy_joules: hybrid.active_energy_joules(&mcpc),
        nrend_secs: nrend.total_secs,
        nrend_mean_power: nrend.mean_power(),
        nrend_energy_joules: nrend.active_energy_joules(&mcpc),
    }
}

// ---------------------------------------------------------------- Fig. 15

/// Figure 15: per-stage idle-time quartiles, MCPC renderer, 7 pipelines.
#[derive(Debug, Clone)]
pub struct IdleRow {
    pub stage: StageKind,
    pub quartiles: Quartiles,
}

pub fn fig15(scene: &Arc<Scene>) -> Vec<IdleRow> {
    let r = run(
        cfg(RendererMode::McpcRenderer, Arrangement::Ordered, 7),
        Arc::clone(scene),
    );
    StageKind::PIPELINE_FILTERS
        .iter()
        .map(|kind| {
            // Aggregate idle samples over all pipelines by pooling the
            // per-pipeline quartile medians (the paper plots one box per
            // stage across pipelines/frames).
            let medians: Vec<f64> = (0..7)
                .filter_map(|p| {
                    r.stage(*kind, Some(p))
                        .and_then(|s| s.idle_ms.map(|q| q.median))
                })
                .collect();
            // Use the first pipeline's full quartiles as representative —
            // variance across pipelines is tiny (as the paper notes).
            let q = r
                .stage(*kind, Some(0))
                .and_then(|s| s.idle_ms)
                .unwrap_or(Quartiles {
                    min: 0.0,
                    q1: 0.0,
                    median: 0.0,
                    q3: 0.0,
                    max: 0.0,
                });
            let _ = medians;
            IdleRow {
                stage: *kind,
                quartiles: q,
            }
        })
        .collect()
}

// ------------------------------------------------------------ Figs. 16-17

/// The three DVFS variants of §VI-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DvfsVariant {
    /// Everything at 533 MHz / 1.1 V.
    All533,
    /// Blur tile at 800 MHz / 1.3 V.
    Blur800,
    /// Blur at 800 MHz; scratch/flicker/swap/transfer island at 400 MHz /
    /// 0.7 V.
    Mixed800_400,
}

impl DvfsVariant {
    pub fn label(self) -> &'static str {
        match self {
            DvfsVariant::All533 => "all stages 533MHz",
            DvfsVariant::Blur800 => "blur stage 800MHz",
            DvfsVariant::Mixed800_400 => "533MHz, 800MHz, 400MHz",
        }
    }
}

/// Run the single-pipeline MCPC-rendered walkthrough under a DVFS variant
/// using the island-aware placement of Figure 18.
pub fn dvfs_run(variant: DvfsVariant, scene: &Arc<Scene>) -> WalkthroughReport {
    let mut config = cfg(RendererMode::McpcRenderer, Arrangement::Ordered, 1);
    let placement = place_dvfs_single_pipeline(RendererMode::McpcRenderer);
    let blur = placement.pipelines[0][1];
    let downstream = [
        placement.pipelines[0][2],
        placement.pipelines[0][3],
        placement.pipelines[0][4],
        placement.transfer,
    ];
    let mut settings = Vec::new();
    match variant {
        DvfsVariant::All533 => {}
        DvfsVariant::Blur800 => settings.push((blur, FreqMHz::F800)),
        DvfsVariant::Mixed800_400 => {
            settings.push((blur, FreqMHz::F800));
            // Drop the whole downstream voltage island to 400 MHz / 0.7 V;
            // the island's unused tiles come along (the same granularity
            // constraint that forces the blur island up to 1.3 V).
            use scc_sim::IslandId;
            let island = IslandId::of_tile(downstream[0].tile());
            for tile in island.tiles() {
                settings.push((tile.cores()[0], FreqMHz::F400));
            }
        }
    }
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

/// Figure 16: walkthrough times of the three DVFS variants.
pub fn fig16(scene: &Arc<Scene>) -> Vec<(DvfsVariant, f64)> {
    [
        DvfsVariant::All533,
        DvfsVariant::Blur800,
        DvfsVariant::Mixed800_400,
    ]
    .into_iter()
    .map(|v| (v, dvfs_run(v, scene).total_secs))
    .collect()
}

/// Figure 17: power traces of the three DVFS variants over the first
/// `horizon_secs` seconds.
pub fn fig17(scene: &Arc<Scene>, horizon_secs: f64) -> Vec<(DvfsVariant, Vec<(f64, f64)>)> {
    [
        DvfsVariant::All533,
        DvfsVariant::Blur800,
        DvfsVariant::Mixed800_400,
    ]
    .into_iter()
    .map(|v| {
        let r = dvfs_run(v, scene);
        let samples = r
            .power_trace
            .iter()
            .map(|s| (s.t.as_secs_f64(), s.watts))
            .filter(|(t, _)| *t <= horizon_secs)
            .collect();
        (v, samples)
    })
    .collect()
}

/// Convenience: speed-ups quoted in §VI-A for a mode, relative to the
/// one-core baseline and the one-pipeline run.
#[derive(Debug, Clone)]
pub struct SpeedupSummary {
    pub mode: RendererMode,
    pub baseline_secs: f64,
    pub one_pipeline_secs: f64,
    pub best_pipelines: u32,
    pub best_secs: f64,
    pub speedup_vs_core: f64,
    pub speedup_vs_pipeline: f64,
}

pub fn speedup_summary(
    mode: RendererMode,
    scene: &Arc<Scene>,
    baseline_secs: f64,
) -> SpeedupSummary {
    let mut best = (1u32, f64::INFINITY);
    let mut one = f64::NAN;
    for p in 1..=mode.max_pipelines().min(8) {
        let t = run(cfg(mode, Arrangement::Ordered, p), Arc::clone(scene)).total_secs;
        if p == 1 {
            one = t;
        }
        if t < best.1 {
            best = (p, t);
        }
    }
    SpeedupSummary {
        mode,
        baseline_secs,
        one_pipeline_secs: one,
        best_pipelines: best.0,
        best_secs: best.1,
        speedup_vs_core: baseline_secs / best.1,
        speedup_vs_pipeline: one / best.1,
    }
}

// ---------------------------------------------------------------- Fig. 13

/// Figure 13: the walkthrough on the Mogon-like cluster.
pub fn fig13_points(scene: &Arc<Scene>) -> Vec<(scc_cluster::ClusterMode, u32, f64)> {
    use scc_cluster::{cluster_walkthrough, ClusterMode};
    let config = standard_config();
    let mut out = Vec::new();
    for mode in [
        ClusterMode::ExternalRenderer,
        ClusterMode::SingleRenderer,
        ClusterMode::ParallelRenderer,
    ] {
        for p in 1..=8u32 {
            let r = cluster_walkthrough(mode, p, &config, Arc::clone(scene));
            out.push((mode, p, r.total_secs));
        }
    }
    out
}

/// Rendered Figure 13 text.
pub fn render_fig13(scene: &Arc<Scene>) -> String {
    let pts = fig13_points(scene);
    let mut s = String::from(
        "Rendering time with the Mogon Cluster\n  pl   external    single   parallel\n",
    );
    for p in 1..=8u32 {
        let find = |m: scc_cluster::ClusterMode| {
            pts.iter()
                .find(|(mm, pp, _)| *mm == m && *pp == p)
                .map(|(_, _, t)| format!("{t:>8.1}s"))
                .unwrap_or_default()
        };
        s.push_str(&format!(
            "  {:>2}  {}  {}  {}\n",
            p,
            find(scc_cluster::ClusterMode::ExternalRenderer),
            find(scc_cluster::ClusterMode::SingleRenderer),
            find(scc_cluster::ClusterMode::ParallelRenderer),
        ));
    }
    s
}

/// Table I's three HPC rows (1..7 pipelines).
pub fn table1_cluster(scene: &Arc<Scene>) -> Vec<TableRow> {
    use scc_cluster::{cluster_walkthrough, ClusterMode};
    let config = standard_config();
    [
        (ClusterMode::ExternalRenderer, "HPC, external rend."),
        (ClusterMode::SingleRenderer, "HPC, single rend."),
        (ClusterMode::ParallelRenderer, "HPC, parallel rend."),
    ]
    .into_iter()
    .map(|(mode, label)| TableRow {
        label: label.to_string(),
        secs: (1..=7u32)
            .map(|p| cluster_walkthrough(mode, p, &config, Arc::clone(scene)).total_secs)
            .collect(),
    })
    .collect()
}

// ------------------------------------------------------- local-memory what-if

/// The conclusion's what-if: per-core local memory banks (Cell-style)
/// that let messages skip the DRAM-partition round-trip. Compares the
/// real SCC against a hypothetical SCC with 128 KiB banks.
#[derive(Debug, Clone)]
pub struct WhatIfRow {
    pub label: String,
    pub scc_secs: f64,
    pub local_mem_secs: f64,
}

/// Run a configuration on the stock platform and on the local-memory
/// variant.
pub fn whatif(scene: &Arc<Scene>) -> Vec<WhatIfRow> {
    let bank = 256 * 1024;
    let run_on = |config: RunConfig, local: bool, scene: &Arc<Scene>| -> f64 {
        let scc_cfg = if local {
            SccConfig {
                local_memory_bytes: bank,
                ..SccConfig::default()
            }
        } else {
            SccConfig::default()
        };
        let placement = place(config.renderer, config.arrangement, config.pipelines);
        SimRunner::with_parts(
            config,
            Arc::clone(scene),
            placement,
            SccPlatform::new(scc_cfg),
            CostModel::default(),
        )
        .expect("a valid static film config")
        .run()
        .total_secs
    };
    [
        (RendererMode::SingleRenderer, 4u32),
        (RendererMode::PerPipelineRenderer, 7),
        (RendererMode::McpcRenderer, 3),
        (RendererMode::McpcRenderer, 5),
        (RendererMode::McpcRenderer, 8),
    ]
    .into_iter()
    .map(|(mode, p)| {
        let config = cfg(mode, Arrangement::Ordered, p);
        WhatIfRow {
            label: format!("{} / {p} pl. (256 KiB banks)", mode.name()),
            scc_secs: run_on(config.clone(), false, scene),
            local_mem_secs: run_on(config, true, scene),
        }
    })
    .collect()
}

/// Rendered what-if table.
pub fn render_whatif(rows: &[WhatIfRow]) -> String {
    let mut s = String::from(
        "Local-memory what-if (the conclusion's proposed SCC improvement)\n\
         configuration                                  real SCC   with banks     gain\n",
    );
    for r in rows {
        s.push_str(&format!(
            "  {:<44} {:>7.1}s {:>10.1}s {:>7.1}%\n",
            r.label,
            r.scc_secs,
            r.local_mem_secs,
            100.0 * (1.0 - r.local_mem_secs / r.scc_secs)
        ));
    }
    s
}

// ----------------------------------------------------- sensitivity ablation

/// One row of the calibration-sensitivity ablation.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    pub parameter: String,
    pub scale: f64,
    pub nrend7_secs: f64,
    pub mcpc5_secs: f64,
}

/// Which calibrated platform parameter to perturb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    McBandwidth,
    CoreMemBandwidth,
    HostLinkBandwidth,
    NocLinkBandwidth,
}

impl Knob {
    pub fn name(self) -> &'static str {
        match self {
            Knob::McBandwidth => "memory-controller bandwidth",
            Knob::CoreMemBandwidth => "per-core memory bandwidth",
            Knob::HostLinkBandwidth => "MCPC link bandwidth",
            Knob::NocLinkBandwidth => "mesh link bandwidth",
        }
    }

    fn apply(self, scale: f64) -> SccConfig {
        let mut c = SccConfig::default();
        let s = |v: u64| ((v as f64) * scale) as u64;
        match self {
            Knob::McBandwidth => c.mem.bandwidth = s(c.mem.bandwidth),
            Knob::CoreMemBandwidth => c.core_mem_bandwidth = s(c.core_mem_bandwidth),
            Knob::HostLinkBandwidth => c.host_link.bandwidth = s(c.host_link.bandwidth),
            Knob::NocLinkBandwidth => c.noc.link_bandwidth = s(c.noc.link_bandwidth),
        }
        c
    }
}

/// Perturb each platform knob ±2x and report the two headline
/// configurations. Shows which resources the results actually depend on
/// (per-core streaming and the host link) and which they do not (mesh
/// bandwidth — the paper's arrangement finding in another guise).
pub fn sensitivity(scene: &Arc<Scene>) -> Vec<SensitivityRow> {
    let run_with = |scc_cfg: SccConfig, mode: RendererMode, p: u32, scene: &Arc<Scene>| -> f64 {
        let config = cfg(mode, Arrangement::Ordered, p);
        let placement = place(config.renderer, config.arrangement, config.pipelines);
        SimRunner::with_parts(
            config,
            Arc::clone(scene),
            placement,
            SccPlatform::new(scc_cfg),
            CostModel::default(),
        )
        .expect("a valid static film config")
        .run()
        .total_secs
    };
    let mut rows = Vec::new();
    for knob in [
        Knob::McBandwidth,
        Knob::CoreMemBandwidth,
        Knob::HostLinkBandwidth,
        Knob::NocLinkBandwidth,
    ] {
        for scale in [0.5, 1.0, 2.0] {
            let scc_cfg = knob.apply(scale);
            rows.push(SensitivityRow {
                parameter: knob.name().into(),
                scale,
                nrend7_secs: run_with(scc_cfg.clone(), RendererMode::PerPipelineRenderer, 7, scene),
                mcpc5_secs: run_with(scc_cfg, RendererMode::McpcRenderer, 5, scene),
            });
        }
    }
    rows
}

/// Rendered sensitivity table.
pub fn render_sensitivity(rows: &[SensitivityRow]) -> String {
    let mut s = String::from(
        "Calibration sensitivity (x0.5 / x1 / x2 per platform knob)\n\
         parameter                          scale   n-rend 7pl   MCPC 5pl\n",
    );
    for r in rows {
        s.push_str(&format!(
            "  {:<32} x{:<4} {:>9.1}s {:>9.1}s\n",
            r.parameter, r.scale, r.nrend7_secs, r.mcpc5_secs
        ));
    }
    s
}

// ------------------------------------------------------ frequency sweep

/// Uniform-frequency sweep (§II: "The processors' speed can be changed at
/// runtime from 400 MHz up to 1198 MHz"): run the best heterogeneous
/// configuration with every core at 400 / 533 / 800 MHz and report the
/// time-energy trade-off.
#[derive(Debug, Clone)]
pub struct FreqRow {
    pub freq: FreqMHz,
    pub secs: f64,
    pub mean_watts: f64,
    pub joules: f64,
}

pub fn freq_sweep(scene: &Arc<Scene>) -> Vec<FreqRow> {
    use scc_sim::TileId;
    [FreqMHz::F400, FreqMHz::F533, FreqMHz::F800]
        .into_iter()
        .map(|freq| {
            let mut config = cfg(RendererMode::McpcRenderer, Arrangement::Ordered, 5);
            config.power =
                PowerConfig::Static(TileId::all().map(|t| (t.cores()[0], freq)).collect());
            let r = run(config, Arc::clone(scene));
            FreqRow {
                freq,
                secs: r.total_secs,
                mean_watts: r.mean_power(),
                joules: r.scc_energy_joules,
            }
        })
        .collect()
}

/// Rendered frequency-sweep table.
pub fn render_freq(rows: &[FreqRow]) -> String {
    let mut s = String::from(
        "Uniform chip frequency sweep (MCPC renderer, 5 pipelines)\n\
         freq       time        power      energy     energy*delay\n",
    );
    for r in rows {
        s.push_str(&format!(
            "  {:>4} MHz {:>8.1}s {:>8.1} W {:>9.0} J {:>12.0} Js\n",
            r.freq.mhz(),
            r.secs,
            r.mean_watts,
            r.joules,
            r.joules * r.secs
        ));
    }
    s
}

// ---------------------------------------------------------------- the text

/// The sections `experiments all` prints, in order.
const PAPER_SECTIONS: [&str; 17] = [
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "table1",
    "energy",
    "speedups",
    "whatif",
    "sensitivity",
    "freq",
    "trace",
];

/// Where `experiments trace` writes the stage timeline as Chrome JSON.
pub const PIPELINE_TRACE_PATH: &str = "target/pipeline_trace.json";

/// The traced 25-frame run behind the trace section.
pub fn pipeline_trace(scene: &Arc<Scene>) -> scc_core::TraceLog {
    let config = RunConfig::builder()
        .renderer(RendererMode::McpcRenderer)
        .arrangement(Arrangement::Ordered)
        .pipelines(3)
        .frames(25)
        .trace(true)
        .build()
        .expect("valid config");
    run(config, Arc::clone(scene)).trace.expect("trace enabled")
}

/// The text `experiments <name>` prints for one section of the paper's
/// evaluation (`fig8` .. `fig17`, `table1`, `energy`, `speedups`,
/// `whatif`, `sensitivity`, `freq`, `trace`), or for `"all"` of them in
/// that order; `None` for an unknown name. The trace section reports the
/// spans of [`pipeline_trace`] but writes no file.
/// `docs/sample_experiments_output.txt` is the `"all"` text.
pub fn paper_text(name: &str, scene: &Arc<Scene>) -> Option<String> {
    use std::fmt::Write;
    let mut s = String::new();
    macro_rules! out {
        ($($arg:tt)*) => {
            writeln!(s, $($arg)*).expect("a String takes every write")
        };
    }
    match name {
        "all" => {
            for section in PAPER_SECTIONS {
                s.push_str(&paper_text(section, scene)?);
            }
        }
        "fig8" => {
            out!("== Figure 8 ==");
            out!("{}", report::render_fig8(&fig8(Arc::clone(scene))));
        }
        "fig9" => {
            out!("== Figure 9 ==");
            out!(
                "{}",
                report::render_scaling("Rendering time with 1 Renderer", &fig9(scene))
            );
        }
        "fig10" => {
            out!("== Figure 10 ==");
            out!(
                "{}",
                report::render_scaling("Rendering time with n Renderer", &fig10(scene))
            );
        }
        "fig11" => {
            out!("== Figure 11 ==");
            out!(
                "{}",
                report::render_scaling("Rendering time with MCPC for rendering", &fig11(scene))
            );
        }
        "fig12" => {
            out!("== Figure 12 ==");
            out!("{}", report::render_fig12(&fig12(scene)));
        }
        "fig13" => {
            out!("== Figure 13 ==");
            out!("{}", render_fig13(scene));
        }
        "fig14" => {
            out!("== Figure 14 ==");
            out!("{}", report::render_fig14(&fig14(scene, 100.0)));
        }
        "fig15" => {
            out!("== Figure 15 ==");
            out!("{}", report::render_fig15(&fig15(scene)));
        }
        "fig16" => {
            out!("== Figure 16 ==");
            for (v, t) in fig16(scene) {
                out!("  {:<28} {:>7.1} s", v.label(), t);
            }
            out!();
        }
        "fig17" => {
            out!("== Figure 17 ==");
            let curves: Vec<(String, Vec<(f64, f64)>)> = fig17(scene, 100.0)
                .into_iter()
                .map(|(v, samples)| (v.label().to_string(), samples))
                .collect();
            out!(
                "{}",
                report::render_power_curves("SCC power consumption with fast blur stage", &curves)
            );
        }
        "table1" => {
            out!("== Table I ==");
            let mut rows = table1_scc(scene);
            rows.extend(table1_cluster(scene));
            out!("{}", report::render_table1(&rows));
        }
        "trace" => {
            out!("== Stage timeline trace ==");
            let log = pipeline_trace(scene);
            out!(
                "  wrote {} spans to {PIPELINE_TRACE_PATH} (open in chrome://tracing or Perfetto)",
                log.events().len()
            );
            out!(
                "  blur compute total {:.1}s, blur wait total {:.1}s\n",
                log.phase_total(StageKind::Blur, scc_core::Phase::Compute)
                    .as_secs_f64(),
                log.phase_total(StageKind::Blur, scc_core::Phase::Wait)
                    .as_secs_f64()
            );
        }
        "freq" => {
            out!("== Uniform frequency sweep ==");
            out!("{}", render_freq(&freq_sweep(scene)));
        }
        "sensitivity" => {
            out!("== Calibration sensitivity ==");
            out!("{}", render_sensitivity(&sensitivity(scene)));
        }
        "whatif" => {
            out!("== Local-memory what-if (conclusion) ==");
            out!("{}", render_whatif(&whatif(scene)));
        }
        "energy" => {
            out!("== Energy (§VI-B) ==");
            out!("{}", report::render_energy(&energy_comparison(scene)));
        }
        "speedups" => {
            out!("== Speed-ups (§VI-A) ==");
            let base = fig8(Arc::clone(scene)).total_secs;
            for mode in [
                RendererMode::SingleRenderer,
                RendererMode::PerPipelineRenderer,
                RendererMode::McpcRenderer,
            ] {
                let sp = speedup_summary(mode, scene, base);
                out!(
                    "  {:<14} best {} pl.: {:>6.1}s  speedup {:.2}x vs core, {:.2}x vs 1 pl.",
                    mode.name(),
                    sp.best_pipelines,
                    sp.best_secs,
                    sp.speedup_vs_core,
                    sp.speedup_vs_pipeline
                );
            }
            out!();
        }
        _ => return None,
    }
    Some(s)
}

/// The machine-readable series `experiments csv <dir>` writes for the
/// plots of `docs/plots/paper_figures.gp`, as `(file name, text)` pairs:
/// Figures 9–12, 15, 14 and 17 in that order. `docs/plots/csv/` holds
/// the committed copy, which `tests/bench_documents.rs` checks.
pub fn paper_csv(scene: &Arc<Scene>) -> Vec<(&'static str, String)> {
    let f14: Vec<(String, Vec<(f64, f64)>)> = fig14(scene, 100.0)
        .into_iter()
        .map(|c| (c.label, c.samples))
        .collect();
    let f17: Vec<(String, Vec<(f64, f64)>)> = fig17(scene, 100.0)
        .into_iter()
        .map(|(v, s)| (v.label().to_string(), s))
        .collect();
    vec![
        ("fig09.csv", report::csv_scaling(&fig9(scene))),
        ("fig10.csv", report::csv_scaling(&fig10(scene))),
        ("fig11.csv", report::csv_scaling(&fig11(scene))),
        ("fig12.csv", report::csv_fig12(&fig12(scene))),
        ("fig15.csv", report::csv_fig15(&fig15(scene))),
        ("fig14.csv", report::csv_power_curves(&f14)),
        ("fig17.csv", report::csv_power_curves(&f17)),
    ]
}
