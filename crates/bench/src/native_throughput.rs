//! Host-native throughput measurement — the `BENCH_native_pipeline.json`
//! trajectory.
//!
//! Sweeps the native runner's host tuning knobs (per-stage kernel threads,
//! buffer pooling) over one configuration, records wall-clock frames/s for
//! each point, and verifies every point produced byte-identical output (a
//! perf knob that changes a pixel is a bug, not a speedup). The JSON is
//! built on `scc_telemetry::Json` (the vendored serde shim is a no-op
//! marker), so the schema lives here, in one place, deliberately flat —
//! and when the base config enables telemetry, the baseline point's full
//! metric snapshot is embedded under a `telemetry` key.

use scc_core::viz::frame_checksum;
use scc_core::{run_with_scene, Backend, HostTiming, NativeTuning, PoolStats, RunConfig};
use scc_render::Scene;
use scc_telemetry::{snapshot_to_tree, Json, Snapshot};
use std::fmt::Write as _;
use std::sync::Arc;

/// One measured (kernel_threads, buffer_pool) point.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    pub kernel_threads: u32,
    pub buffer_pool: bool,
    pub timing: HostTiming,
    /// Throughput relative to the 1-thread pooled point.
    pub speedup_vs_1thread: f64,
    /// FNV fold of all delivered frame checksums; equal across points.
    pub output_checksum: u64,
    pub pool_stats: PoolStats,
}

/// The full sweep, ready to render as `BENCH_native_pipeline.json`.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    pub config: RunConfig,
    /// Logical CPUs of the measuring host. Kernel-thread speedup is
    /// bounded by this: on a 1-CPU container every curve is flat at ~1×,
    /// and the ≥2× shape only appears with real spare cores.
    pub host_cpus: u32,
    pub points: Vec<ThroughputPoint>,
    /// True when every point delivered bit-identical frames.
    pub output_consistent: bool,
    /// Metric snapshot of the first sweep point's run, captured when the
    /// base config enables telemetry; embedded in the JSON document.
    pub telemetry: Option<Snapshot>,
}

/// Fold per-frame checksums into one digest (FNV-1a over the u64s).
fn fold_checksums(frames: &[scc_filters::Image]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for img in frames {
        for b in frame_checksum(img).to_le_bytes() {
            acc ^= b as u64;
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    acc
}

/// Run the sweep: each `thread_counts` entry with pooling on, plus pooling
/// ablations at the first and last counts. The base config's own `tuning`
/// is overridden per point.
pub fn measure_native_throughput(
    base: &RunConfig,
    scene: &Arc<Scene>,
    thread_counts: &[u32],
) -> ThroughputReport {
    assert!(!thread_counts.is_empty(), "no thread counts to sweep");
    let mut variants: Vec<NativeTuning> = thread_counts
        .iter()
        .map(|&t| NativeTuning {
            kernel_threads: t,
            buffer_pool: true,
            ..NativeTuning::default()
        })
        .collect();
    for &t in [thread_counts[0], *thread_counts.last().unwrap()].iter() {
        let unpooled = NativeTuning {
            kernel_threads: t,
            buffer_pool: false,
            ..NativeTuning::default()
        };
        if !variants.contains(&unpooled) {
            variants.push(unpooled);
        }
    }

    let mut points = Vec::with_capacity(variants.len());
    let mut telemetry = None;
    for tuning in variants {
        let mut cfg = base.clone();
        cfg.tuning = tuning;
        let out = run_with_scene(&cfg, Backend::Native, Arc::clone(scene));
        let report = out.report.native().expect("a native run");
        if telemetry.is_none() {
            telemetry = report.telemetry.clone();
        }
        points.push(ThroughputPoint {
            kernel_threads: tuning.kernel_threads,
            buffer_pool: tuning.buffer_pool,
            timing: report.host,
            speedup_vs_1thread: 0.0, // filled below
            output_checksum: fold_checksums(&report.frames),
            pool_stats: report.pool_stats,
        });
    }

    let baseline = points
        .iter()
        .find(|p| p.kernel_threads == 1 && p.buffer_pool)
        .unwrap_or(&points[0])
        .timing;
    for p in points.iter_mut() {
        p.speedup_vs_1thread = p.timing.speedup_over(&baseline);
    }
    let output_consistent = points
        .windows(2)
        .all(|w| w[0].output_checksum == w[1].output_checksum);

    ThroughputReport {
        config: base.clone(),
        host_cpus: std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(1),
        points,
        output_consistent,
        telemetry,
    }
}

impl ThroughputReport {
    /// Render the report as the `BENCH_native_pipeline.json` document.
    pub fn to_json(&self) -> String {
        let config = Json::obj()
            .field("renderer", Json::str(self.config.renderer.name()))
            .field("pipelines", Json::U64(u64::from(self.config.pipelines)))
            .field("width", Json::U64(u64::from(self.config.width)))
            .field("height", Json::U64(u64::from(self.config.height)))
            .field("frames", Json::U64(self.config.frames))
            .field("seed", Json::U64(self.config.seed));
        let points = Json::Arr(
            self.points
                .iter()
                .map(|p| {
                    Json::obj()
                        .field("kernel_threads", Json::U64(u64::from(p.kernel_threads)))
                        .field("buffer_pool", Json::Bool(p.buffer_pool))
                        .field("wall_secs", Json::F64(p.timing.wall_secs))
                        .field("frames_per_sec", Json::F64(p.timing.frames_per_sec))
                        .field("mpixels_per_sec", Json::F64(p.timing.mpixels_per_sec))
                        .field("speedup_vs_1thread", Json::F64(p.speedup_vs_1thread))
                        .field(
                            "output_checksum",
                            Json::str(format!("{:#018x}", p.output_checksum)),
                        )
                        .field("pool_recycled", Json::U64(p.pool_stats.recycled))
                        .field("pool_fresh", Json::U64(p.pool_stats.fresh))
                })
                .collect(),
        );
        let mut doc = Json::obj()
            .field("bench", Json::str("native_pipeline"))
            .field("config", config)
            .field("host_cpus", Json::U64(u64::from(self.host_cpus)))
            .field(
                "note",
                Json::str(
                    "kernel-thread speedup is bounded by host_cpus; \
                     on a single-CPU host the curve is flat at ~1x and the >=2x \
                     at 4 threads shape requires >=4 real cores",
                ),
            )
            .field("output_consistent", Json::Bool(self.output_consistent))
            .field("points", points);
        if let Some(snap) = &self.telemetry {
            doc = doc.field("telemetry", snapshot_to_tree(snap));
        }
        doc.render()
    }

    /// Plain-text table for the terminal.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "native pipeline throughput — {} p={} {}x{} f={} (host cpus: {})",
            self.config.renderer.name(),
            self.config.pipelines,
            self.config.width,
            self.config.height,
            self.config.frames,
            self.host_cpus,
        );
        let _ = writeln!(
            out,
            "{:>14} {:>6} {:>10} {:>10} {:>9} {:>9}",
            "kernel_threads", "pool", "wall_s", "frames/s", "Mpx/s", "speedup"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:>14} {:>6} {:>10.3} {:>10.2} {:>9.2} {:>8.2}x",
                p.kernel_threads,
                if p.buffer_pool { "on" } else { "off" },
                p.timing.wall_secs,
                p.timing.frames_per_sec,
                p.timing.mpixels_per_sec,
                p.speedup_vs_1thread,
            );
        }
        let _ = writeln!(
            out,
            "output {}",
            if self.output_consistent {
                "bit-identical across all points"
            } else {
                "DIVERGED — tuning changed pixels!"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_core::Fidelity;
    use scc_render::CityConfig;

    fn tiny() -> (RunConfig, Arc<Scene>) {
        let cfg = RunConfig::builder()
            .pipelines(2)
            .size(32, 32)
            .frames(2)
            .seed(5)
            .fidelity(Fidelity::Full)
            .build()
            .expect("valid config");
        let scene = Arc::new(Scene::city(CityConfig {
            side: 4,
            spacing: 8.0,
            seed: 1,
        }));
        (cfg, scene)
    }

    #[test]
    fn sweep_is_consistent_and_json_well_formed() {
        let (cfg, scene) = tiny();
        let report = measure_native_throughput(&cfg, &scene, &[1, 2]);
        assert!(report.output_consistent, "tuning changed pixels");
        // 2 pooled points + 2 unpooled ablations.
        assert_eq!(report.points.len(), 4);
        let base = &report.points[0];
        assert_eq!(base.kernel_threads, 1);
        assert!((base.speedup_vs_1thread - 1.0).abs() < 1e-9);
        assert!(base.timing.frames_per_sec > 0.0);
        let json = report.to_json();
        for key in [
            "\"bench\": \"native_pipeline\"",
            "\"host_cpus\"",
            "\"kernel_threads\"",
            "\"speedup_vs_1thread\"",
            "\"output_consistent\": true",
            "\"pool_recycled\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets — cheap malformation guard.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let text = report.render_text();
        assert!(text.contains("bit-identical"));
    }
}
