//! Self-healing recovery measurement — the `BENCH_recovery.json`
//! trajectory.
//!
//! Sweeps the supervised fail-stop scenario over kill time × core
//! arrangement in *virtual* time: for each point one clean run and one
//! killed-with-spare run, recording detection latency, MTTR, the number
//! of replayed strips, and delivered throughput before/after the repair —
//! and verifying the healed film is bit-identical to the clean one. The
//! JSON is built on `scc_telemetry::Json`, deliberately flat.

use scc_core::viz::frame_checksum;
use scc_core::{Arrangement, FaultSpec, KillSpec, RunConfig};
use scc_render::Scene;
use scc_telemetry::Json;
use std::sync::Arc;

/// One (arrangement, kill time) sweep point.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    pub arrangement: Arrangement,
    pub kill_at_ms: u64,
    /// Virtual seconds from kill to the phi detector firing.
    pub detect_latency_secs: f64,
    /// Virtual seconds from kill to the replayed strip resident on the
    /// spare (detection + provisioning + replay).
    pub mttr_secs: f64,
    pub frames_replayed: u32,
    /// Delivered virtual throughput of the fault-free run.
    pub clean_fps: f64,
    /// Delivered virtual throughput of the killed-and-healed run.
    pub healed_fps: f64,
    /// Walkthrough-time overhead of the repair, in percent (can be
    /// negative: the spare's mesh position may beat the dead core's).
    pub overhead_pct: f64,
    /// True when every healed frame matched the clean run byte-for-byte.
    pub bit_identical: bool,
}

/// The full sweep, ready to render as `BENCH_recovery.json`.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    pub config: RunConfig,
    pub heartbeat_period_us: u64,
    pub phi_dead: f64,
    pub points: Vec<RecoveryPoint>,
}

/// Run the sweep: every arrangement × every kill time, one supervised
/// kill of pipeline 0's scratch stage, spare pool at its default.
pub fn measure_recovery(
    base: &RunConfig,
    scene: &Arc<Scene>,
    kill_times_ms: &[u64],
) -> RecoveryReport {
    assert!(!kill_times_ms.is_empty(), "no kill times to sweep");
    const HEARTBEAT_PERIOD_US: u64 = 10_000;
    const PHI_DEAD: f64 = 3.0;
    let mut points = Vec::new();
    for arr in [
        Arrangement::Unordered,
        Arrangement::Ordered,
        Arrangement::Flipped,
    ] {
        let mut clean = base.clone();
        clean.arrangement = arr;
        clean.fault = None;
        let clean_report = crate::run(clean.clone(), Arc::clone(scene));
        let clean_frames: Vec<u64> = clean_report
            .outputs
            .as_ref()
            .expect("full fidelity")
            .iter()
            .map(frame_checksum)
            .collect();
        let clean_fps = clean.frames as f64 / clean_report.total_secs;
        for &kill_at_ms in kill_times_ms {
            let mut killed = clean.clone();
            killed.fault = Some(FaultSpec {
                kills: vec![KillSpec {
                    pipeline: 0,
                    stage: 2,
                    at_ms: kill_at_ms,
                }],
                heartbeat_period_us: HEARTBEAT_PERIOD_US,
                phi_dead: PHI_DEAD,
                ..FaultSpec::default()
            });
            let report = crate::run(killed, Arc::clone(scene));
            let ev = report
                .recoveries
                .first()
                .expect("the kill must be observed and healed");
            let healed: Vec<u64> = report
                .outputs
                .as_ref()
                .expect("full fidelity")
                .iter()
                .map(frame_checksum)
                .collect();
            points.push(RecoveryPoint {
                arrangement: arr,
                kill_at_ms,
                detect_latency_secs: ev.detected_at_secs - ev.killed_at_secs,
                mttr_secs: ev.mttr_secs,
                frames_replayed: ev.frames_replayed,
                clean_fps,
                healed_fps: clean.frames as f64 / report.total_secs,
                overhead_pct: (report.total_secs / clean_report.total_secs - 1.0) * 100.0,
                bit_identical: healed == clean_frames,
            });
        }
    }
    RecoveryReport {
        config: base.clone(),
        heartbeat_period_us: HEARTBEAT_PERIOD_US,
        phi_dead: PHI_DEAD,
        points,
    }
}

impl RecoveryReport {
    /// Render the report as the `BENCH_recovery.json` document.
    pub fn to_json(&self) -> String {
        let points = Json::Arr(
            self.points
                .iter()
                .map(|p| {
                    Json::obj()
                        .field("arrangement", Json::str(format!("{:?}", p.arrangement)))
                        .field("kill_at_ms", Json::U64(p.kill_at_ms))
                        .field("detect_latency_ms", Json::F64(p.detect_latency_secs * 1e3))
                        .field("mttr_ms", Json::F64(p.mttr_secs * 1e3))
                        .field("frames_replayed", Json::U64(u64::from(p.frames_replayed)))
                        .field("clean_fps", Json::F64(p.clean_fps))
                        .field("healed_fps", Json::F64(p.healed_fps))
                        .field("overhead_pct", Json::F64(p.overhead_pct))
                        .field("bit_identical", Json::Bool(p.bit_identical))
                })
                .collect(),
        );
        Json::obj()
            .field("bench", Json::str("recovery"))
            .field("config", crate::config_json(&self.config))
            .field("heartbeat_period_us", Json::U64(self.heartbeat_period_us))
            .field("phi_dead", Json::F64(self.phi_dead))
            .field(
                "note",
                Json::str(
                    "virtual-time sweep: one supervised kill of pipeline \
                     0's scratch stage per point; MTTR = detection + spare \
                     provisioning + checkpointed replay",
                ),
            )
            .field("points", points)
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_core::Fidelity;
    use scc_render::CityConfig;

    #[test]
    fn sweep_heals_every_point_and_json_well_formed() {
        let cfg = RunConfig::builder()
            .pipelines(2)
            .size(40, 40)
            .frames(3)
            .seed(5)
            .fidelity(Fidelity::Full)
            .build()
            .expect("valid config");
        let scene = Arc::new(Scene::city(CityConfig {
            side: 4,
            spacing: 8.0,
            seed: 1,
        }));
        let report = measure_recovery(&cfg, &scene, &[1, 5]);
        // 3 arrangements x 2 kill times.
        assert_eq!(report.points.len(), 6);
        for p in &report.points {
            assert!(p.bit_identical, "{p:?} damaged the film");
            assert!(p.mttr_secs > 0.0 && p.mttr_secs.is_finite());
            assert!(p.detect_latency_secs > 0.0);
            assert!(p.frames_replayed >= 1);
        }
        let json = report.to_json();
        for key in [
            "\"bench\": \"recovery\"",
            "\"heartbeat_period_us\": 10000",
            "\"mttr_ms\"",
            "\"frames_replayed\"",
            "\"bit_identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets — cheap malformation guard.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        crate::tests::assert_keys_match_committed("recovery", &json);
    }
}
