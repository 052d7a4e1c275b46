//! Shared run-and-compare harness for the equivalence suites.
//!
//! The four differential suites (`runner_equivalence`,
//! `taskrt_equivalence`, `autoplace_equivalence`, `recovery_equivalence`)
//! and the serving suites (`serve_cache`, `serve_conformance`) all drive
//! the same small city scene through the same 48×40 seed-23 configuration
//! space and compare films by frame checksum against the sequential
//! reference. Those helpers live here exactly once. Each suite is its own
//! crate root, so it pulls this in with `mod common;` and uses the subset
//! it needs (hence `allow(dead_code)`).
#![allow(dead_code)]

use scc_core::viz::frame_checksum;
use scc_core::{
    reference::reference_frames, run_with_scene, Arrangement, Backend, BackendReport, FaultSpec,
    Fidelity, GovernorDecision, KillSpec, RendererMode, RunConfig,
};
use scc_filters::Image;
use scc_render::{CityConfig, Scene};
use std::sync::Arc;

/// Every renderer mode (§V's three scenarios).
pub const MODES: [RendererMode; 3] = [
    RendererMode::SingleRenderer,
    RendererMode::PerPipelineRenderer,
    RendererMode::McpcRenderer,
];

/// Every fixed core arrangement (§IV-A).
pub const ARRANGEMENTS: [Arrangement; 3] = [
    Arrangement::Unordered,
    Arrangement::Ordered,
    Arrangement::Flipped,
];

/// The suites' shared city scene: small enough for per-test runs, big
/// enough that every strip sees geometry.
pub fn scene() -> Arc<Scene> {
    Arc::new(Scene::city(CityConfig {
        side: 8,
        spacing: 8.0,
        seed: 17,
    }))
}

/// The shared configuration space: 48×40 frames at seed 23, full
/// fidelity, parameterised over renderer mode, arrangement, pipeline
/// count and frame count. Suites wrap this with their own defaults.
pub fn cfg_with(mode: RendererMode, arr: Arrangement, pipelines: u32, frames: u64) -> RunConfig {
    RunConfig::builder()
        .renderer(mode)
        .arrangement(arr)
        .pipelines(pipelines)
        .size(48, 40)
        .frames(frames)
        .seed(23)
        .fidelity(Fidelity::Full)
        .build()
        .expect("valid config")
}

/// Per-frame FNV checksums of a film.
pub fn checksums(frames: &[Image]) -> Vec<u64> {
    frames.iter().map(frame_checksum).collect()
}

/// Per-frame checksums of the film `c` (full fidelity) delivers on
/// `backend` over the shared [`scene`].
pub fn film(c: &RunConfig, backend: Backend) -> Vec<u64> {
    match run_with_scene(c, backend, scene()).report {
        BackendReport::Sim(r) | BackendReport::Des(r) => {
            checksums(&r.outputs.expect("full fidelity"))
        }
        BackendReport::Native(r) => checksums(&r.frames),
        BackendReport::Generic(_) => panic!("the workload plane delivers no film"),
    }
}

/// The film checksums and the governor's decision trace of a
/// virtual-time film run (full fidelity), from either backend's report.
pub fn film_and_decisions(report: BackendReport) -> (Vec<u64>, Vec<GovernorDecision>) {
    match report {
        BackendReport::Sim(r) | BackendReport::Des(r) => (
            checksums(&r.outputs.expect("full fidelity")),
            r.dvfs_decisions,
        ),
        _ => panic!("not a virtual-time film run"),
    }
}

/// The reference data path for a config: MCPC mode renders full frames
/// and splits, exactly like the single-renderer reference.
pub fn oracle(c: &RunConfig) -> Vec<u64> {
    let mut rc = c.clone();
    if rc.renderer == RendererMode::McpcRenderer {
        rc.renderer = RendererMode::SingleRenderer;
    }
    checksums(&reference_frames(&rc, scene()))
}

/// A fast-detecting supervisor spec with one fail-stop kill.
pub fn kill_spec(pipeline: u32, stage: u32, at_ms: u64) -> FaultSpec {
    FaultSpec {
        kills: vec![KillSpec {
            pipeline,
            stage,
            at_ms,
        }],
        heartbeat_period_us: 2_000,
        phi_dead: 2.0,
        ..FaultSpec::default()
    }
}
