//! Closed-loop DVFS measurement — the `BENCH_dvfs.json` trajectory.
//!
//! Sweeps the power plane on two workloads:
//!
//! * the **film** (§VI-D setup: MCPC renderer, one pipeline) under the
//!   static default, the paper's hand-tuned splits, and the governor;
//! * the irregular **wavefront** workload under the static default, the
//!   splits a human would try (expand raised, commit throttled), and the
//!   governor — on both virtual-time backends.
//!
//! Besides the numbers, the sweep enforces the PR's hard gates: no power
//! plan may change a pixel of the film or a bit of the wavefront's
//! output digest, the governed decision trace must be identical across
//! the sim and DES schedulers, and the governor must not be dominated
//! (slower *and* hungrier) by every static split it competes with.

use crate::checksum_fold;
use scc_core::{
    run, Backend, BackendReport, GovernorAction, GovernorTuning, PowerConfig, RendererMode,
    RunConfig, StageKind, WavefrontSpec, Workload,
};
use scc_sim::{CoreId, FreqMHz};
use scc_telemetry::Json;

/// One measured operating point of one workload.
#[derive(Debug, Clone)]
pub struct DvfsPoint {
    /// "film" or "wavefront".
    pub workload: String,
    /// Power-plan label ("default", "blur800", ..., "governed",
    /// "governed-des").
    pub plan: String,
    pub total_secs: f64,
    pub energy_joules: f64,
    pub mean_power: f64,
    /// Folded frame checksums (film) or the propagation digest
    /// (wavefront) — equal within a workload or the gate trips.
    pub output_checksum: u64,
    pub raises: u64,
    pub throttles: u64,
}

/// The sweep, ready to render as `BENCH_dvfs.json`.
#[derive(Debug, Clone)]
pub struct DvfsReport {
    pub film_config: RunConfig,
    pub wavefront_seed: u64,
    pub points: Vec<DvfsPoint>,
    /// Every film plan delivered byte-identical frames.
    pub film_output_consistent: bool,
    /// Every wavefront run (plans × backends) produced the same digest.
    pub wavefront_digest_consistent: bool,
    /// The governed decision trace is identical under sim and DES.
    pub decision_parity: bool,
    /// Per workload, at least one static split fails to beat the
    /// governor on both time and energy.
    pub governed_not_dominated: bool,
}

fn count_actions(decisions: &[scc_core::GovernorDecision]) -> (u64, u64) {
    let raises = decisions
        .iter()
        .filter(|d| matches!(d.action, GovernorAction::Raise { .. }))
        .count() as u64;
    let throttles = decisions
        .iter()
        .filter(|d| matches!(d.action, GovernorAction::Throttle { .. }))
        .count() as u64;
    (raises, throttles)
}

/// `governed` survives when at least one static point fails to beat it
/// on *both* axes (strict domination by the whole field is the failure).
fn not_dominated(points: &[DvfsPoint], workload: &str) -> bool {
    let Some(gov) = points
        .iter()
        .find(|p| p.workload == workload && p.plan == "governed")
    else {
        return false;
    };
    points
        .iter()
        .filter(|p| p.workload == workload && !p.plan.starts_with("governed"))
        .any(|s| s.total_secs >= gov.total_secs || s.energy_joules >= gov.energy_joules)
}

/// Run the sweep. `film_base` supplies geometry/frames/seed; the film
/// leg forces the §VI-D configuration (MCPC renderer, one pipeline).
pub fn measure_dvfs(
    film_base: &RunConfig,
    scene: &std::sync::Arc<scc_render::Scene>,
) -> DvfsReport {
    let film_cfg = |power: PowerConfig| -> RunConfig {
        let mut c = film_base.clone();
        c.renderer = RendererMode::McpcRenderer;
        c.pipelines = 1;
        c.power = power;
        c
    };
    let film_run = |power: PowerConfig| -> scc_core::WalkthroughReport {
        let out = scc_core::run_with_scene(&film_cfg(power), Backend::Sim, scene.clone());
        let BackendReport::Sim(r) = out.report else {
            unreachable!("sim runs return the walkthrough report")
        };
        r
    };

    let mut points = Vec::new();
    let default_film = film_run(PowerConfig::default());
    let stage_core = |r: &scc_core::WalkthroughReport, kind: StageKind| -> CoreId {
        CoreId::new(
            r.stage_reports
                .iter()
                .find(|s| s.kind == kind)
                .expect("film stage present")
                .core_id,
        )
    };
    let sepia = stage_core(&default_film, StageKind::Sepia);
    let blur = stage_core(&default_film, StageKind::Blur);
    let film_point = |plan: &str, r: &scc_core::WalkthroughReport| DvfsPoint {
        workload: "film".into(),
        plan: plan.into(),
        total_secs: r.total_secs,
        energy_joules: r.scc_energy_joules,
        mean_power: r.mean_power(),
        output_checksum: checksum_fold(r.outputs.as_ref().expect("full fidelity")),
        raises: count_actions(&r.dvfs_decisions).0,
        throttles: count_actions(&r.dvfs_decisions).1,
    };
    points.push(film_point("default", &default_film));
    let blur800 = film_run(PowerConfig::Static(vec![(blur, FreqMHz::F800)]));
    points.push(film_point("blur800", &blur800));
    let split = film_run(PowerConfig::Static(vec![
        (sepia, FreqMHz::F800),
        (blur, FreqMHz::F800),
    ]));
    points.push(film_point("sepia+blur800", &split));
    let governed_film = film_run(PowerConfig::Governed(GovernorTuning::default()));
    points.push(film_point("governed", &governed_film));
    let film_sum = points[0].output_checksum;
    let film_output_consistent = points.iter().all(|p| p.output_checksum == film_sum);

    // The wavefront leg: same spec through both backends.
    let wave_cfg = |power: PowerConfig| -> RunConfig {
        let mut c = RunConfig::builder()
            .seed(film_base.seed)
            .workload(Workload::Wavefront(WavefrontSpec::default()))
            .build()
            .expect("valid wavefront config");
        c.power = power;
        c
    };
    let wave_run = |power: PowerConfig, backend: Backend| -> scc_core::GenericReport {
        let out = run(&wave_cfg(power), backend);
        let BackendReport::Generic(r) = out.report else {
            unreachable!("workload runs return the generic report")
        };
        r
    };
    let wave_point = |plan: &str, r: &scc_core::GenericReport| DvfsPoint {
        workload: "wavefront".into(),
        plan: plan.into(),
        total_secs: r.total_secs,
        energy_joules: r.energy_joules,
        mean_power: r.mean_power,
        output_checksum: r.output_digest,
        raises: count_actions(&r.dvfs_decisions).0,
        throttles: count_actions(&r.dvfs_decisions).1,
    };
    let wave_default = wave_run(PowerConfig::default(), Backend::Sim);
    points.push(wave_point("default", &wave_default));
    // The splits a human would try, addressed by the reported group
    // cores (island-major placement: one island per group).
    let group_core = |r: &scc_core::GenericReport, name: &str| -> CoreId {
        CoreId::new(r.stage(name).expect("wavefront group").core_id)
    };
    let expand = group_core(&wave_default, "expand");
    let commit = group_core(&wave_default, "commit");
    let expand800 = wave_run(
        PowerConfig::Static(vec![(expand, FreqMHz::F800)]),
        Backend::Sim,
    );
    points.push(wave_point("expand800", &expand800));
    let expand_commit = wave_run(
        PowerConfig::Static(vec![(expand, FreqMHz::F800), (commit, FreqMHz::F400)]),
        Backend::Sim,
    );
    points.push(wave_point("expand800+commit400", &expand_commit));
    let governed_wave = wave_run(
        PowerConfig::Governed(GovernorTuning::default()),
        Backend::Sim,
    );
    points.push(wave_point("governed", &governed_wave));
    let governed_wave_des = wave_run(
        PowerConfig::Governed(GovernorTuning::default()),
        Backend::Des,
    );
    points.push(wave_point("governed-des", &governed_wave_des));

    let wave_sum = wave_default.output_digest;
    let wavefront_digest_consistent = points
        .iter()
        .filter(|p| p.workload == "wavefront")
        .all(|p| p.output_checksum == wave_sum);
    let decision_parity = governed_wave.dvfs_decisions == governed_wave_des.dvfs_decisions;
    let governed_not_dominated =
        not_dominated(&points, "film") && not_dominated(&points, "wavefront");

    DvfsReport {
        film_config: film_cfg(PowerConfig::default()),
        wavefront_seed: film_base.seed,
        points,
        film_output_consistent,
        wavefront_digest_consistent,
        decision_parity,
        governed_not_dominated,
    }
}

impl DvfsReport {
    /// Render the report as the `BENCH_dvfs.json` document.
    pub fn to_json(&self) -> String {
        let config = crate::config_json(&self.film_config)
            .field("wavefront_seed", Json::U64(self.wavefront_seed));
        let points = Json::Arr(
            self.points
                .iter()
                .map(|p| {
                    Json::obj()
                        .field("workload", Json::str(p.workload.clone()))
                        .field("plan", Json::str(p.plan.clone()))
                        .field("total_secs", Json::F64(p.total_secs))
                        .field("energy_joules", Json::F64(p.energy_joules))
                        .field("mean_power", Json::F64(p.mean_power))
                        .field("output_checksum", Json::U64(p.output_checksum))
                        .field("raises", Json::U64(p.raises))
                        .field("throttles", Json::U64(p.throttles))
                })
                .collect(),
        );
        Json::obj()
            .field("bench", Json::str("dvfs"))
            .field("config", config)
            .field(
                "note",
                Json::str(
                    "virtual-time power-plane sweep: static frequency \
                     splits vs the closed-loop governor on the film and \
                     the irregular wavefront workload, both backends",
                ),
            )
            .field("points", points)
            .field(
                "film_output_consistent",
                Json::Bool(self.film_output_consistent),
            )
            .field(
                "wavefront_digest_consistent",
                Json::Bool(self.wavefront_digest_consistent),
            )
            .field("decision_parity", Json::Bool(self.decision_parity))
            .field(
                "governed_not_dominated",
                Json::Bool(self.governed_not_dominated),
            )
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_core::Fidelity;
    use scc_render::{CityConfig, Scene};
    use std::sync::Arc;

    #[test]
    fn sweep_passes_its_own_gates_and_json_well_formed() {
        let cfg = RunConfig::builder()
            .size(64, 48)
            .frames(24)
            .seed(0x51CC_F11F)
            .fidelity(Fidelity::Full)
            .build()
            .expect("valid config");
        let scene = Arc::new(Scene::city(CityConfig {
            side: 4,
            spacing: 8.0,
            seed: 1,
        }));
        let report = measure_dvfs(&cfg, &scene);
        assert!(report.film_output_consistent);
        assert!(report.wavefront_digest_consistent);
        assert!(report.decision_parity);
        assert!(report.governed_not_dominated);
        assert_eq!(report.points.len(), 9);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"dvfs\""));
        assert!(json.contains("governed-des"));
        crate::tests::assert_keys_match_committed("dvfs", &json);
    }
}
