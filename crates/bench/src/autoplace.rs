//! Auto-placement measurement — the `BENCH_autoplace.json` trajectory.
//!
//! Runs the film workload in virtual time under the stage-graph
//! scheduler (merged cheap stages, replicated bottleneck) and under each
//! of the three fixed arrangements, records the simulated frame rate of
//! every point, verifies the auto film is bit-identical to every fixed
//! film, and embeds the scheduler's decision table so the trajectory
//! shows *why* the placement won. The JSON is built on
//! `scc_telemetry::Json`, flat like the other bench documents.

use crate::checksum_fold;
use scc_core::{auto_place, Arrangement, RunConfig};
use scc_render::Scene;
use scc_telemetry::Json;
use std::sync::Arc;

/// One measured placement point (the auto plan or a fixed arrangement).
#[derive(Debug, Clone)]
pub struct PlacementPoint {
    /// "auto" or the fixed arrangement's name.
    pub label: String,
    pub total_secs: f64,
    pub fps: f64,
    /// FNV fold of all delivered frame checksums; equal across points.
    pub output_checksum: u64,
}

/// The sweep, ready to render as `BENCH_autoplace.json`.
#[derive(Debug, Clone)]
pub struct AutoplaceReport {
    pub config: RunConfig,
    /// The auto point first, then the fixed arrangements.
    pub points: Vec<PlacementPoint>,
    /// Speedup of the auto placement over the *best* fixed arrangement
    /// (>= ~1.0 by the dominance test).
    pub speedup_vs_best_fixed: f64,
    /// True when every point delivered byte-identical frames.
    pub output_consistent: bool,
    /// The scheduler's pinned decision table (stage, class, weight,
    /// group, replicas, cores).
    pub decision_table: String,
}

/// Run the sweep: one auto-placed run, then the three fixed
/// arrangements, all on the same scene and geometry.
pub fn measure_autoplace(base: &RunConfig, scene: &Arc<Scene>) -> AutoplaceReport {
    let mut auto_cfg = base.clone();
    auto_cfg.auto_place = true;
    let decision_table = auto_place(&auto_cfg).decision_table();
    let auto_report = crate::run(auto_cfg.clone(), Arc::clone(scene));
    let auto_sum = checksum_fold(auto_report.outputs.as_ref().expect("full fidelity"));
    let mut points = vec![PlacementPoint {
        label: "auto".into(),
        total_secs: auto_report.total_secs,
        fps: base.frames as f64 / auto_report.total_secs,
        output_checksum: auto_sum,
    }];
    let mut consistent = true;
    let mut best_fixed = f64::INFINITY;
    for arr in [
        Arrangement::Unordered,
        Arrangement::Ordered,
        Arrangement::Flipped,
    ] {
        let mut fixed = base.clone();
        fixed.auto_place = false;
        fixed.arrangement = arr;
        let report = crate::run(fixed, Arc::clone(scene));
        let sum = checksum_fold(report.outputs.as_ref().expect("full fidelity"));
        consistent &= sum == auto_sum;
        best_fixed = best_fixed.min(report.total_secs);
        points.push(PlacementPoint {
            label: format!("{arr:?}").to_lowercase(),
            total_secs: report.total_secs,
            fps: base.frames as f64 / report.total_secs,
            output_checksum: sum,
        });
    }
    AutoplaceReport {
        config: base.clone(),
        points,
        speedup_vs_best_fixed: best_fixed / auto_report.total_secs,
        output_consistent: consistent,
        decision_table,
    }
}

impl AutoplaceReport {
    /// Render the report as the `BENCH_autoplace.json` document.
    pub fn to_json(&self) -> String {
        let points = Json::Arr(
            self.points
                .iter()
                .map(|p| {
                    Json::obj()
                        .field("placement", Json::str(p.label.clone()))
                        .field("total_secs", Json::F64(p.total_secs))
                        .field("fps", Json::F64(p.fps))
                        .field("output_checksum", Json::U64(p.output_checksum))
                })
                .collect(),
        );
        Json::obj()
            .field("bench", Json::str("autoplace"))
            .field("config", crate::config_json(&self.config))
            .field(
                "note",
                Json::str(
                    "virtual-time sweep: the stage-graph scheduler's \
                     placement (merged tail, replicated bottleneck) vs \
                     the three fixed arrangements on the same workload",
                ),
            )
            .field("points", points)
            .field(
                "speedup_vs_best_fixed",
                Json::F64(self.speedup_vs_best_fixed),
            )
            .field("output_consistent", Json::Bool(self.output_consistent))
            .field("decision_table", Json::str(self.decision_table.clone()))
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_core::Fidelity;
    use scc_render::{CityConfig, Scene};

    #[test]
    fn sweep_dominates_and_json_well_formed() {
        let cfg = RunConfig::builder()
            .pipelines(2)
            .size(64, 64)
            .frames(6)
            .seed(5)
            .fidelity(Fidelity::Full)
            .build()
            .expect("valid config");
        let scene = Arc::new(Scene::city(CityConfig {
            side: 4,
            spacing: 8.0,
            seed: 1,
        }));
        let report = measure_autoplace(&cfg, &scene);
        assert_eq!(report.points.len(), 4);
        assert_eq!(report.points[0].label, "auto");
        assert!(report.output_consistent, "scheduler changed the film");
        assert!(
            report.speedup_vs_best_fixed >= 0.99,
            "auto must not lose to fixed: {:.3}x",
            report.speedup_vs_best_fixed
        );
        let json = report.to_json();
        for key in [
            "\"bench\": \"autoplace\"",
            "\"placement\": \"auto\"",
            "\"speedup_vs_best_fixed\"",
            "\"decision_table\"",
            "\"output_consistent\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        crate::tests::assert_keys_match_committed("autoplace", &json);
    }
}
