//! The benchmark's vocabulary: workloads, end-to-end metrics, per-layer
//! metrics, and — written down before anything was measured — which
//! end-to-end metric each layer metric is expected to move on which
//! workload (`moves`). `BENCHMARK.json` at the repository root is this
//! module rendered by [`benchmark_json`]; a unit test keeps them equal.

use scc_telemetry::Json;
use Better::{Higher, Lower};

/// Seconds one run measures for (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The seven stage names of the film pipeline, in pipeline order, as
/// `StageKind::name` spells them.
pub const STAGES: [&str; 7] = [
    "render", "sepia", "blur", "scratch", "flicker", "swap", "transfer",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "film_native",
        why: "The paper's film on real threads and rcce channels (one renderer, p=2, 400x400): render, filters and the per-hop frame codec all carry weight, so a raster or codec change must show here.",
    },
    WorkloadSpec {
        name: "film_native_strips",
        why: "Same film with one renderer per pipeline (band-frustum cull and a small z-buffer per strip, two render threads): a raster change that helps full frames but hurts strips shows here.",
    },
    WorkloadSpec {
        name: "film_native_flat",
        why: "800x608 over a ground-only scene (2 triangles): render is ~1-3% of the CPU, hop codec and filters do the work - the bypass for render changes, the stress for codec, filter, pool and rcce changes.",
    },
    WorkloadSpec {
        name: "paper_matrix",
        why: "What regenerating Figures 9-11 runs: timing-only Sim over 3 renderer modes x p in {1,2,3,5,7}; host time is the cull/coverage probe + executor + scc-sim, with no rasterising and no filtering.",
    },
    WorkloadSpec {
        name: "film_governed",
        why: "The modelled design's own performance (Figures 16/17): Mcpc p=1, 400 frames under the closed-loop DVFS governor; exact virtual time and energy, host time is the sim plus governor epochs.",
    },
    WorkloadSpec {
        name: "serve_overlap",
        why: "scc-serve in the cache-read regime: 128 sessions over 40 start poses, >90% strip-cache hits and ~47 renders for 1024 frames, so the engine's round loop and the hit path dominate.",
    },
    WorkloadSpec {
        name: "serve_churn",
        why: "The same serving run in the cache-write regime: a million start poses and a 16-strip cache give 0 hits, a miss + insert + eviction per lookup and one render per frame; bypasses the hit path.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 2] = [
    // Frames delivered (native), simulated (paper_matrix, film_governed)
    // or served (serve_*) per host wall second of the run call; the
    // best of the repeats that fit in the run.
    EndToEnd {
        name: "host_frames_per_s",
        unit: "frames/s",
        better: Better::Higher,
        // Wide because the shared 2-CPU container is noisy: whole runs
        // slow down by a third when a neighbour is busy (README, Noise).
        bound: 0.25,
    },
    // Scene build + Renderer::new (octree) + config build/validate +
    // plan_for/place (+ generate_sessions); the best of 21 samples.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Deterministic (virtual time or a count): two runs of one commit at
    /// one seed must agree bit for bit, and `compare` says so.
    pub exact: bool,
    /// Which end-to-end metric, on which workloads, a change in this
    /// number should move.
    pub moves: &'static str,
}

// The interaction map, one line per group of layer metrics. Host metrics
// name `host_frames_per_s`; the modelled design's own results (virtual
// seconds, joules, latencies) are exact per-layer metrics here because
// the driver's contract wants every end-to-end metric on every workload.
const M_RASTER: &str = "host_frames_per_s on film_native, film_native_strips (~28% of CPU) and serve_churn (one render per frame); no move on film_native_flat, paper_matrix, film_governed, serve_overlap";
const M_CULL: &str = "host_frames_per_s on paper_matrix and film_governed (the sim's workload probe, recomputed per config); <=5% on the native workloads";
const M_RENDER_COUNT: &str = "explains render.*.busy_s; must not change unless the scene or the culling changes, and then core.sim.virtual_s moves with it (the cost model charges from these counts)";
const M_FILTERS: &str = "host_frames_per_s on film_native_flat (~30% of CPU) first, film_native and film_native_strips (~21%) second, serve_churn third; nothing in virtual time (CostModel, not host kernels)";
const M_CODEC: &str = "host_frames_per_s on the three native workloads (largest single consumer: 12 hop codecs per frame, ~50% of CPU at 400x400, ~65% on film_native_flat); no other workload calls them";
const M_RCCE: &str = "host_frames_per_s on the native workloads, expected negligible: transport cost shows as core.native.<stage>.wait_s/send_s instead";
const M_WALK: &str = "host_frames_per_s on its own native workload: on a host with fewer CPUs than stage threads the pipeline is CPU-bound and tracks core.walk.cpu_bound_fps";
const M_NATIVE: &str = "host_frames_per_s on its own native workload; with >=13 CPUs only the stage with the largest compute_s would bound it, stages before it showing send_s and after it wait_s";
const M_TELEMETRY: &str =
    "no end-to-end metric (they run untraced); the budget a later in-program-spans change spends";
const M_SIM_HOST: &str = "host_frames_per_s on paper_matrix; a simulator-only speed-up must leave every exact metric of this workload bit-identical";
const M_SIM_MODEL: &str = "core.sim.virtual_s and core.sim.paper_error_pct on paper_matrix (the paper's finding: controller contention, not mesh arrangement); host time must not depend on it";
const M_GOVERNOR: &str = "core.governor.virtual_s and core.governor.energy_j on film_governed; the gaps to the hand split are what ROADMAP 4c must close";
const M_GOVERNOR_HOST: &str = "host_frames_per_s on film_governed";
const M_SERVE_HOST: &str = "host_frames_per_s on serve_overlap and serve_churn";
const M_SERVE_MODEL: &str = "serve.sessions_per_virtual_s and serve.frame_latency_p99_ms on serve_overlap; on serve_churn the hit ratio is 0, so a cache change must leave its virtual metrics unchanged";
const M_OCTREE: &str = "setup_s on every workload with the city scene";
const M_CLUSTER: &str = "no end-to-end metric: the Table I cluster rows, kept exact so a cost-model change shows on both platforms";
const M_CACHE_HOST: &str = "host_frames_per_s on serve_churn (insert + evict per lookup) and serve_overlap (get per lookup); no virtual metric";

/// One per-layer metric: name, unit, direction, exact, moves.
type Row = (&'static str, &'static str, Better, bool, &'static str);

/// Every per-layer metric, grouped by layer (crate) in pipeline order.
/// `<stage>` names are spelled out so that the table is the whole list.
#[rustfmt::skip]
const PER_LAYER: &[Row] = &[
    // render
    ("render.strip.busy_s", "s", Lower, false, M_RASTER),
    ("render.cull.busy_s", "s", Lower, false, M_CULL),
    ("render.raster.busy_s", "s", Lower, false, M_RASTER),
    ("render.coverage.busy_s", "s", Lower, false, M_CULL),
    ("render.cull.nodes_visited", "count", Lower, true, M_RENDER_COUNT),
    ("render.cull.triangles_out", "count", Lower, true, M_RENDER_COUNT),
    ("render.raster.triangles_filled", "count", Lower, true, M_RENDER_COUNT),
    ("render.raster.pixels_covered", "count", Lower, true, M_RENDER_COUNT),
    ("render.raster.pixels_written", "count", Lower, true, M_RENDER_COUNT),
    ("render.raster.write_ratio", "ratio", Higher, true, M_RENDER_COUNT),
    ("render.raster.mpx_per_s", "Mpx/s", Higher, false, M_RASTER),
    ("render.octree.build_s", "s", Lower, false, M_OCTREE),
    ("render.scene.triangles", "count", Lower, true, M_RENDER_COUNT),
    // filters
    ("filters.sepia.busy_s", "s", Lower, false, M_FILTERS),
    ("filters.blur.busy_s", "s", Lower, false, M_FILTERS),
    ("filters.scratch.busy_s", "s", Lower, false, M_FILTERS),
    ("filters.flicker.busy_s", "s", Lower, false, M_FILTERS),
    ("filters.swap.busy_s", "s", Lower, false, M_FILTERS),
    ("filters.chain.mpx_per_s", "Mpx/s", Higher, false, M_FILTERS),
    ("filters.split.busy_s", "s", Lower, false, M_FILTERS),
    ("filters.assemble.busy_s", "s", Lower, false, M_FILTERS),
    // rcce
    ("rcce.send_recv.busy_s", "s", Lower, false, M_RCCE),
    ("rcce.messages", "count", Lower, true, M_RCCE),
    ("rcce.bytes", "bytes", Lower, true, M_RCCE),
    ("rcce.crc32.mb_per_s", "MB/s", Higher, false, M_CODEC),
    // core: the frame codec and the single-threaded layer walk
    ("core.frame.encode.busy_s", "s", Lower, false, M_CODEC),
    ("core.frame.decode.busy_s", "s", Lower, false, M_CODEC),
    ("core.frame.codec.mb_per_s", "MB/s", Higher, false, M_CODEC),
    ("core.frame.hops", "count", Lower, true, M_CODEC),
    ("core.walk.frames_per_s", "frames/s", Higher, false, M_WALK),
    ("core.walk.cpu_ms_per_frame", "ms", Lower, false, M_WALK),
    ("core.walk.cpu_bound_fps", "frames/s", Higher, false, M_WALK),
    ("core.native.parallel_speedup", "ratio", Higher, false, M_WALK),
    ("core.pool.reuse_ratio", "ratio", Higher, false, M_CODEC),
    // core: the native executor's own trace
    ("core.native.render.compute_s", "s", Lower, false, M_NATIVE),
    ("core.native.render.wait_s", "s", Lower, false, M_NATIVE),
    ("core.native.render.send_s", "s", Lower, false, M_NATIVE),
    ("core.native.sepia.compute_s", "s", Lower, false, M_NATIVE),
    ("core.native.sepia.wait_s", "s", Lower, false, M_NATIVE),
    ("core.native.sepia.send_s", "s", Lower, false, M_NATIVE),
    ("core.native.blur.compute_s", "s", Lower, false, M_NATIVE),
    ("core.native.blur.wait_s", "s", Lower, false, M_NATIVE),
    ("core.native.blur.send_s", "s", Lower, false, M_NATIVE),
    ("core.native.scratch.compute_s", "s", Lower, false, M_NATIVE),
    ("core.native.scratch.wait_s", "s", Lower, false, M_NATIVE),
    ("core.native.scratch.send_s", "s", Lower, false, M_NATIVE),
    ("core.native.flicker.compute_s", "s", Lower, false, M_NATIVE),
    ("core.native.flicker.wait_s", "s", Lower, false, M_NATIVE),
    ("core.native.flicker.send_s", "s", Lower, false, M_NATIVE),
    ("core.native.swap.compute_s", "s", Lower, false, M_NATIVE),
    ("core.native.swap.wait_s", "s", Lower, false, M_NATIVE),
    ("core.native.swap.send_s", "s", Lower, false, M_NATIVE),
    ("core.native.transfer.compute_s", "s", Lower, false, M_NATIVE),
    ("core.native.transfer.wait_s", "s", Lower, false, M_NATIVE),
    ("core.native.transfer.send_s", "s", Lower, false, M_NATIVE),
    ("core.native.frame_latency_p50_ms", "ms", Lower, false, M_NATIVE),
    ("core.native.frame_latency_p90_ms", "ms", Lower, false, M_NATIVE),
    ("core.native.max_stage_busy_share", "ratio", Lower, false, M_NATIVE),
    // telemetry
    ("telemetry.trace_overhead_pct", "%", Lower, false, M_TELEMETRY),
    ("telemetry.events", "count", Lower, false, M_TELEMETRY),
    // core: the virtual-time executors (paper_matrix)
    ("core.sim.frames_per_host_s", "frames/s", Higher, false, M_SIM_HOST),
    ("core.sim.virtual_s", "s", Lower, true, M_SIM_MODEL),
    ("core.sim.energy_j", "J", Lower, true, M_SIM_MODEL),
    ("core.sim.paper_error_pct", "%", Lower, true, M_SIM_MODEL),
    ("core.des.frames_per_host_s", "frames/s", Higher, false, M_SIM_HOST),
    ("core.des.virtual_s", "s", Lower, true, M_SIM_MODEL),
    ("core.sim_des_gap_pct", "%", Lower, true, M_SIM_MODEL),
    ("core.tasks.frames_per_host_s", "frames/s", Higher, false, M_SIM_HOST),
    ("core.tasks.virtual_s", "s", Lower, true, M_SIM_MODEL),
    ("core.tasks.steals", "count", Higher, true, M_SIM_MODEL),
    ("core.tasks.steal_attempts", "count", Lower, true, M_SIM_MODEL),
    ("core.tasks.backpressure_stalls", "count", Lower, true, M_SIM_MODEL),
    ("core.baseline.virtual_s", "s", Lower, true, M_SIM_MODEL),
    ("core.speedup.max", "ratio", Higher, true, M_SIM_MODEL),
    ("core.stage.render.busy_virtual_s", "s", Lower, true, M_SIM_MODEL),
    ("core.stage.sepia.busy_virtual_s", "s", Lower, true, M_SIM_MODEL),
    ("core.stage.blur.busy_virtual_s", "s", Lower, true, M_SIM_MODEL),
    ("core.stage.scratch.busy_virtual_s", "s", Lower, true, M_SIM_MODEL),
    ("core.stage.flicker.busy_virtual_s", "s", Lower, true, M_SIM_MODEL),
    ("core.stage.swap.busy_virtual_s", "s", Lower, true, M_SIM_MODEL),
    ("core.stage.transfer.busy_virtual_s", "s", Lower, true, M_SIM_MODEL),
    // sim: the modelled chip
    ("sim.noc.messages", "count", Lower, true, M_SIM_MODEL),
    ("sim.noc.bytes", "bytes", Lower, true, M_SIM_MODEL),
    ("sim.noc.wait_s", "s", Lower, true, M_SIM_MODEL),
    ("sim.mem.bytes", "bytes", Lower, true, M_SIM_MODEL),
    ("sim.mem.wait_s", "s", Lower, true, M_SIM_MODEL),
    ("sim.mem.imbalance", "ratio", Lower, true, M_SIM_MODEL),
    ("sim.mem.mc0_bytes", "bytes", Lower, true, M_SIM_MODEL),
    ("sim.mem.mc1_bytes", "bytes", Lower, true, M_SIM_MODEL),
    ("sim.mem.mc2_bytes", "bytes", Lower, true, M_SIM_MODEL),
    ("sim.mem.mc3_bytes", "bytes", Lower, true, M_SIM_MODEL),
    ("sim.hostlink.bytes", "bytes", Lower, true, M_SIM_MODEL),
    ("sim.hostlink.wait_s", "s", Lower, true, M_SIM_MODEL),
    ("sim.power.mean_w", "W", Lower, true, M_SIM_MODEL),
    // cluster
    ("cluster.frames_per_host_s", "frames/s", Higher, false, M_SIM_HOST),
    ("cluster.virtual_s", "s", Lower, true, M_CLUSTER),
    // core: the governor (film_governed)
    ("core.governor.virtual_s", "s", Lower, true, M_GOVERNOR),
    ("core.governor.energy_j", "J", Lower, true, M_GOVERNOR),
    ("core.governor.epochs", "count", Lower, true, M_GOVERNOR),
    ("core.governor.raises", "count", Higher, true, M_GOVERNOR),
    ("core.governor.throttles", "count", Higher, true, M_GOVERNOR),
    ("core.governor.cap_blocked", "count", Lower, true, M_GOVERNOR),
    ("core.governor.hand_split_virtual_s", "s", Lower, true, M_GOVERNOR),
    ("core.governor.hand_split_energy_j", "J", Lower, true, M_GOVERNOR),
    ("core.governor.time_gap_pct", "%", Lower, true, M_GOVERNOR),
    ("core.governor.energy_gap_pct", "%", Lower, true, M_GOVERNOR),
    ("core.governor.frames_per_host_s", "frames/s", Higher, false, M_GOVERNOR_HOST),
    // serve
    ("serve.engine.host_s", "s", Lower, false, M_SERVE_HOST),
    ("serve.host_ms_per_frame", "ms", Lower, false, M_SERVE_HOST),
    ("serve.virtual_s", "s", Lower, true, M_SERVE_MODEL),
    ("serve.sessions_per_virtual_s", "1/s", Higher, true, M_SERVE_MODEL),
    ("serve.frame_latency_p50_ms", "ms", Lower, true, M_SERVE_MODEL),
    ("serve.frame_latency_p99_ms", "ms", Lower, true, M_SERVE_MODEL),
    ("serve.rounds", "count", Lower, true, M_SERVE_MODEL),
    ("serve.contended_rounds", "count", Lower, true, M_SERVE_MODEL),
    ("serve.admitted", "count", Higher, true, M_SERVE_MODEL),
    ("serve.completed", "count", Higher, true, M_SERVE_MODEL),
    ("serve.shed", "count", Lower, true, M_SERVE_MODEL),
    ("serve.frames_served", "count", Higher, true, M_SERVE_MODEL),
    ("serve.unique_renders", "count", Lower, true, M_SERVE_MODEL),
    ("serve.cache.hits", "count", Higher, true, M_SERVE_MODEL),
    ("serve.cache.misses", "count", Lower, true, M_SERVE_MODEL),
    ("serve.cache.evictions", "count", Lower, true, M_SERVE_MODEL),
    ("serve.cache.hit_ratio", "ratio", Higher, true, M_SERVE_MODEL),
    ("serve.cache.get_ns", "ns", Lower, false, M_CACHE_HOST),
    ("serve.cache.insert_ns", "ns", Lower, false, M_CACHE_HOST),
];

pub fn per_layer() -> Vec<Layer> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, better, exact, moves)| Layer {
            name,
            unit,
            better,
            exact,
            moves,
        })
        .collect()
}

/// The `BENCHMARK.json` document, exactly the keys the driver reads.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |name: &str, unit: &str, better: Better| {
        Json::obj()
            .field("name", Json::str(name))
            .field("unit", Json::str(unit))
            .field("better", Json::str(better.name()))
    };
    Json::obj()
        .field(
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        )
        .field("paths", strs(&["benchmark"]))
        .field("run_seconds", Json::U64(RUN_SECONDS))
        .field(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj()
                            .field("name", Json::str(w.name))
                            .field("why", Json::str(w.why))
                    })
                    .collect(),
            ),
        )
        .field(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better).field("bound", Json::F64(m.bound)))
                    .collect(),
            ),
        )
        .field(
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better))
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let layers = per_layer();
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(layers.iter().map(|m| m.name.to_string()));
        for n in names {
            assert!(name_ok(&n), "bad name {n}");
            assert!(seen.insert(n.clone()), "duplicate name {n}");
        }
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &layers {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
        }
    }

    #[test]
    fn counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
    }

    #[test]
    fn every_layer_metric_says_what_it_moves() {
        for m in per_layer() {
            assert!(!m.moves.trim().is_empty(), "{} has no moves", m.name);
        }
    }
}
