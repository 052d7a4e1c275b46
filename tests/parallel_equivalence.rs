//! Differential suite for the native runner's host tuning knobs: for
//! every renderer mode, pooled vs unpooled buffers and either kernel
//! backend must deliver byte-identical final frames, identical frame
//! counts, and still match the sequential reference. A tuning knob
//! that changes a pixel is a correctness bug dressed up as a speedup.
//! The kernel backend gets the same treatment on every executor: there
//! is one build, so this suite is where the vectorized default and the
//! scalar reference meet.

use scc_core::{
    reference::reference_frames, run_with_scene, Backend, BackendReport, Fidelity, KernelChoice,
    NativeTuning, RendererMode, RunConfig,
};
use scc_filters::{Image, KernelBackend};
use scc_render::{CityConfig, Scene};
use std::sync::Arc;

fn scene() -> Arc<Scene> {
    Arc::new(Scene::city(CityConfig {
        side: 7,
        spacing: 8.0,
        seed: 29,
    }))
}

fn cfg(mode: RendererMode, tuning: NativeTuning) -> RunConfig {
    RunConfig::builder()
        .renderer(mode)
        .pipelines(2)
        .size(52, 44)
        .frames(4)
        .seed(0xCAFE_D00D)
        .fidelity(Fidelity::Full)
        .tuning(tuning)
        .build()
        .expect("valid config")
}

const MODES: [RendererMode; 3] = [
    RendererMode::SingleRenderer,
    RendererMode::PerPipelineRenderer,
    RendererMode::McpcRenderer,
];

fn tune(buffer_pool: bool, kernel: KernelChoice) -> NativeTuning {
    NativeTuning {
        buffer_pool,
        kernel,
        ..NativeTuning::default()
    }
}

/// Every (buffer_pool, kernel backend) point we sweep against baseline
/// — the backend knob must be just as invisible in the pixels as the
/// pool.
const TUNINGS: [(bool, KernelChoice); 3] = [
    (false, KernelChoice::Simd),
    (false, KernelChoice::Scalar),
    (true, KernelChoice::Scalar),
];

fn baseline() -> NativeTuning {
    NativeTuning::default()
}

fn raw_frames(frames: &[Image]) -> Vec<&[u8]> {
    frames.iter().map(|f| f.as_bytes()).collect()
}

#[test]
fn tuning_is_invisible_in_every_renderer_mode() {
    for mode in MODES {
        let out = run_with_scene(&cfg(mode, baseline()), Backend::Native, scene());
        let base = out.report.native().unwrap();
        assert_eq!(base.frames.len(), 4, "{mode:?}: baseline frame count");
        for (pool, kernel) in TUNINGS {
            let tuning = tune(pool, kernel);
            let out = run_with_scene(&cfg(mode, tuning), Backend::Native, scene());
            let variant = out.report.native().unwrap();
            assert_eq!(
                variant.frames.len(),
                base.frames.len(),
                "{mode:?}/{tuning:?}: frame count changed"
            );
            assert_eq!(
                raw_frames(&variant.frames),
                raw_frames(&base.frames),
                "{mode:?}/{tuning:?}: pixels diverged from the default tuning"
            );
        }
    }
}

#[test]
fn threaded_pooled_native_matches_sequential_reference() {
    // Not just self-consistent: the pooled, threaded pipeline still
    // equals the single-threaded sequential oracle, byte for byte.
    for mode in MODES {
        let c = cfg(mode, baseline());
        let mut ref_cfg = c.clone();
        if mode == RendererMode::McpcRenderer {
            ref_cfg.renderer = RendererMode::SingleRenderer;
        }
        let want = reference_frames(&ref_cfg, scene());
        let out = run_with_scene(&c, Backend::Native, scene());
        let native = out.report.native().unwrap();
        assert_eq!(
            raw_frames(&native.frames),
            raw_frames(&want),
            "{mode:?}: threaded+pooled native diverged from reference"
        );
    }
}

#[test]
fn kernel_choice_is_invisible_on_every_backend() {
    // `Simd` is the vectorized kernels and `Scalar` the reference loops:
    // the film through `run()` is the reference film under both, on
    // every executor, in this one build.
    assert_eq!(KernelChoice::Simd.resolve(), KernelBackend::Simd);
    assert_eq!(KernelChoice::Scalar.resolve(), KernelBackend::Scalar);
    let want = reference_frames(&cfg(RendererMode::SingleRenderer, baseline()), scene());
    for backend in [Backend::Sim, Backend::Des, Backend::Native] {
        for kernel in [KernelChoice::Simd, KernelChoice::Scalar] {
            let c = cfg(RendererMode::SingleRenderer, tune(true, kernel));
            let film = match run_with_scene(&c, backend, scene()).report {
                BackendReport::Sim(r) | BackendReport::Des(r) => {
                    r.outputs.expect("full fidelity keeps frames")
                }
                BackendReport::Native(r) => r.frames,
                BackendReport::Generic(_) => unreachable!("a film run"),
            };
            assert_eq!(
                raw_frames(&film),
                raw_frames(&want),
                "{backend:?}/{kernel:?}: film diverged from the reference"
            );
        }
    }
}

#[test]
fn pool_stats_reflect_the_knob() {
    // Long enough that a strip must come back before the film ends: a
    // lane holds at most 18 strips between its source and the transfer
    // stage's release (six windows of 2, five filters, transfer), and the
    // source is the pool's only taker.
    let mut long = cfg(RendererMode::SingleRenderer, baseline());
    long.frames = 24;
    let out = run_with_scene(&long, Backend::Native, scene());
    let pooled = out.report.native().unwrap();
    assert!(
        pooled.pool_stats.recycled + pooled.pool_stats.fresh > 0,
        "pooled run recorded no acquisitions"
    );
    assert!(
        pooled.pool_stats.recycled > 0,
        "pooled run never recycled a buffer"
    );

    let unpooled = run_with_scene(
        &cfg(
            RendererMode::SingleRenderer,
            tune(false, KernelChoice::Simd),
        ),
        Backend::Native,
        scene(),
    )
    .report
    .native()
    .unwrap();
    assert_eq!(
        unpooled.pool_stats.recycled, 0,
        "disabled pool must not recycle"
    );
    assert_eq!(
        unpooled.pool_stats.returned, 0,
        "disabled pool must not retain buffers"
    );
}
