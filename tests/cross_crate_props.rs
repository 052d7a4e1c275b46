//! Property-based tests spanning crates: for arbitrary small
//! configurations, the simulated pipeline's output equals the sequential
//! reference, virtual time is fidelity-independent, and the sort-first
//! decomposition invariants hold through the whole stack.

use proptest::prelude::*;
use scc_core::{
    reference::reference_frames, run_with_scene, Arrangement, Backend, Fidelity, RendererMode,
    RunConfig,
};
use scc_render::{CityConfig, Scene};
use std::sync::Arc;

fn scene(seed: u64) -> Arc<Scene> {
    Arc::new(Scene::city(CityConfig {
        side: 6,
        spacing: 8.0,
        seed,
    }))
}

fn arb_mode() -> impl Strategy<Value = RendererMode> {
    prop_oneof![
        Just(RendererMode::SingleRenderer),
        Just(RendererMode::PerPipelineRenderer),
        Just(RendererMode::McpcRenderer),
    ]
}

fn arb_arrangement() -> impl Strategy<Value = Arrangement> {
    prop_oneof![
        Just(Arrangement::Unordered),
        Just(Arrangement::Ordered),
        Just(Arrangement::Flipped),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs two full (small) pipelines
        ..ProptestConfig::default()
    })]

    #[test]
    fn sim_output_equals_reference_for_arbitrary_configs(
        mode in arb_mode(),
        arr in arb_arrangement(),
        pipelines in 1u32..5,
        frames in 1u64..4,
        seed in any::<u64>(),
        scene_seed in 0u64..4,
    ) {
        let cfg = RunConfig::builder()
            .renderer(mode)
            .arrangement(arr)
            .pipelines(pipelines)
            .size(48, 40)
            .frames(frames)
            .seed(seed)
            .fidelity(Fidelity::Full)
            .build()
            .expect("every swept configuration fits the machine");
        let report = run_with_scene(&cfg, Backend::Sim, scene(scene_seed)).report.sim().unwrap();
        // The per-pipeline-renderer reference renders strips with band
        // frusta; the others split a full-frame render.
        let mut ref_cfg = cfg.clone();
        if mode == RendererMode::McpcRenderer {
            ref_cfg.renderer = RendererMode::SingleRenderer;
        }
        let reference = reference_frames(&ref_cfg, scene(scene_seed));
        prop_assert_eq!(report.outputs.unwrap(), reference);
    }

    #[test]
    fn virtual_time_is_host_and_fidelity_independent(
        mode in arb_mode(),
        pipelines in 1u32..4,
        frames in 1u64..4,
    ) {
        let mut cfg = RunConfig::builder()
            .renderer(mode)
            .pipelines(pipelines)
            .size(40, 40)
            .frames(frames)
            .seed(9)
            .fidelity(Fidelity::TimingOnly)
            .build()
            .expect("valid config");
        let t1 = run_with_scene(&cfg, Backend::Sim, scene(1)).total_secs;
        cfg.fidelity = Fidelity::Full;
        let t2 = run_with_scene(&cfg, Backend::Sim, scene(1)).total_secs;
        let t3 = run_with_scene(&cfg, Backend::Sim, scene(1)).total_secs;
        prop_assert_eq!(t1, t2);
        prop_assert_eq!(t2, t3);
    }

    #[test]
    fn more_pipelines_never_increase_total_stage_work(
        pipelines in 1u32..5,
        frames in 1u64..3,
    ) {
        // Busy time per stage must scale down with strip size: the sum of
        // filter busy time across pipelines stays within a constant factor
        // of the one-pipeline total (no superlinear blow-up).
        let mk = |p: u32| {
            RunConfig::builder()
                .pipelines(p)
                .size(48, 48)
                .frames(frames)
                .seed(3)
                .fidelity(Fidelity::TimingOnly)
                .build()
                .expect("valid config")
        };
        let one = run_with_scene(&mk(1), Backend::Sim, scene(2));
        let many = run_with_scene(&mk(pipelines), Backend::Sim, scene(2));
        let total = |r: &scc_core::RunOutcome| -> f64 {
            r.stage_reports
                .iter()
                .filter(|s| s.pipeline.is_some())
                .map(|s| s.busy_secs)
                .sum()
        };
        let t1 = total(&one);
        let tp = total(&many);
        prop_assert!(
            tp < t1 * 2.0 + 1.0,
            "filter work exploded: {} -> {} with {} pipelines",
            t1, tp, pipelines
        );
    }

    #[test]
    fn walkthrough_time_decreases_or_holds_with_mcpc_pipelines(
        frames in 10u64..14,
    ) {
        // Once past the pipeline-fill transient, more pipelines never
        // hurt by more than a small tolerance (the paper's dip is a few
        // percent). Very short walkthroughs are excluded: with only a
        // couple of frames the longer fill of a wider pipeline dominates.
        let mk = |p: u32| {
            RunConfig::builder()
                .renderer(RendererMode::McpcRenderer)
                .pipelines(p)
                .size(96, 96)
                .frames(frames)
                .seed(3)
                .fidelity(Fidelity::TimingOnly)
                .build()
                .expect("valid config")
        };
        let t2 = run_with_scene(&mk(2), Backend::Sim, scene(0)).total_secs;
        let t4 = run_with_scene(&mk(4), Backend::Sim, scene(0)).total_secs;
        prop_assert!(t4 <= t2 * 1.15, "t2={t2} t4={t4}");
    }
}
