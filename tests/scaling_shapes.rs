//! The qualitative results of §VI-A, asserted as invariants: who wins,
//! where the curves plateau, where the crossovers fall. Runs at the
//! paper's frame geometry but with a shortened walkthrough — the pipeline
//! reaches steady state within a few frames, so the shapes are identical.

use scc_core::{run_with_scene, Arrangement, Backend, RendererMode, RunConfig, StageKind};
use scc_render::{CityConfig, Scene};
use std::sync::Arc;

fn scene() -> Arc<Scene> {
    Arc::new(Scene::city(CityConfig::default()))
}

fn secs(mode: RendererMode, arr: Arrangement, pipelines: u32, scene: &Arc<Scene>) -> f64 {
    let cfg = RunConfig {
        renderer: mode,
        arrangement: arr,
        pipelines,
        frames: 60,
        ..RunConfig::default()
    };
    run_with_scene(&cfg, Backend::Sim, Arc::clone(scene)).total_secs
}

#[test]
fn single_renderer_plateaus_after_two_pipelines() {
    // Figure 9: "this configuration does not scale well due to the
    // rendering bottleneck".
    let s = scene();
    let t1 = secs(RendererMode::SingleRenderer, Arrangement::Ordered, 1, &s);
    let t2 = secs(RendererMode::SingleRenderer, Arrangement::Ordered, 2, &s);
    let t4 = secs(RendererMode::SingleRenderer, Arrangement::Ordered, 4, &s);
    let t7 = secs(RendererMode::SingleRenderer, Arrangement::Ordered, 7, &s);
    assert!(t2 < t1 * 0.6, "2 pipelines should nearly halve the time");
    // Beyond the render-bound plateau, extra pipelines buy almost nothing.
    assert!(
        (t7 - t4).abs() < t4 * 0.1,
        "plateau expected: t4={t4:.1}, t7={t7:.1}"
    );
    assert!(t7 > t2 * 0.75, "cannot beat the render bottleneck");
}

#[test]
fn per_pipeline_renderers_keep_scaling() {
    // Figure 10: "the system scales better using this configuration".
    let s = scene();
    let t1 = secs(
        RendererMode::PerPipelineRenderer,
        Arrangement::Ordered,
        1,
        &s,
    );
    let t3 = secs(
        RendererMode::PerPipelineRenderer,
        Arrangement::Ordered,
        3,
        &s,
    );
    let t7 = secs(
        RendererMode::PerPipelineRenderer,
        Arrangement::Ordered,
        7,
        &s,
    );
    assert!(t3 < t1 * 0.45, "3 pipelines ~3x faster: {t1:.1} -> {t3:.1}");
    assert!(
        t7 < t3 * 0.75,
        "still gaining at 7 pipelines: {t3:.1} -> {t7:.1}"
    );
    // And it beats the single-renderer plateau.
    let single7 = secs(RendererMode::SingleRenderer, Arrangement::Ordered, 7, &s);
    assert!(
        t7 < single7,
        "n renderers must beat the render-bound plateau"
    );
}

#[test]
fn nrend_one_pipeline_pays_the_frustum_adjustment() {
    // §VI-A: the one-pipeline n-renderer run is *slower* than the
    // single-renderer one because the strip-projection computations are
    // not omitted.
    let s = scene();
    let single = secs(RendererMode::SingleRenderer, Arrangement::Ordered, 1, &s);
    let nrend = secs(
        RendererMode::PerPipelineRenderer,
        Arrangement::Ordered,
        1,
        &s,
    );
    assert!(
        nrend > single * 1.05,
        "n-rend 1pl ({nrend:.1}s) should exceed single 1pl ({single:.1}s)"
    );
}

#[test]
fn mcpc_renderer_is_the_fastest_configuration() {
    // Figure 11 + Table I: the heterogeneous setup achieves the best
    // walkthrough time on the SCC system.
    let s = scene();
    let best = |mode: RendererMode| -> f64 {
        (1..=mode.max_pipelines().min(8))
            .map(|p| secs(mode, Arrangement::Ordered, p, &s))
            .fold(f64::INFINITY, f64::min)
    };
    let single = best(RendererMode::SingleRenderer);
    let nrend = best(RendererMode::PerPipelineRenderer);
    let mcpc = best(RendererMode::McpcRenderer);
    assert!(mcpc < single, "MCPC {mcpc:.1} vs single {single:.1}");
    assert!(
        mcpc < nrend * 1.35,
        "MCPC ({mcpc:.1}) must be at least competitive with n-rend ({nrend:.1})"
    );
}

#[test]
fn mcpc_scaling_dips_past_its_optimum() {
    // Figure 11: "if we increase the number of pipelines further, we
    // start to see a dip in performance" — the connector saturates.
    let s = scene();
    let times: Vec<f64> = (1..=8)
        .map(|p| secs(RendererMode::McpcRenderer, Arrangement::Ordered, p, &s))
        .collect();
    let (best_p, best) = times
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, t)| (i + 1, *t))
        .unwrap();
    assert!(
        (3..=7).contains(&best_p),
        "optimum at {best_p} pipelines; paper finds ~5"
    );
    // Past the optimum the curve is flat-to-worse, never improving much.
    let last = times[7];
    assert!(last >= best * 0.98, "no significant gain past the optimum");
}

#[test]
fn arrangements_have_no_significant_influence() {
    // "Quite surprisingly, the arrangements of the stages on the SCC had
    // no performance impact in all of our configurations" (§VI-A).
    let s = scene();
    for mode in [
        RendererMode::SingleRenderer,
        RendererMode::PerPipelineRenderer,
        RendererMode::McpcRenderer,
    ] {
        for p in [2u32, 5] {
            if p > mode.max_pipelines() {
                continue;
            }
            let t: Vec<f64> = Arrangement::all()
                .into_iter()
                .map(|a| secs(mode, a, p, &s))
                .collect();
            let min = t.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = t.iter().cloned().fold(0.0, f64::max);
            assert!(
                (max - min) / min < 0.08,
                "{mode:?} p={p}: arrangement spread {:.1}% too large ({t:?})",
                100.0 * (max - min) / min
            );
        }
    }
}

#[test]
fn blur_is_the_bottleneck_of_a_single_pipeline() {
    let cfg = RunConfig {
        renderer: RendererMode::McpcRenderer,
        pipelines: 1,
        frames: 60,
        ..RunConfig::default()
    };
    let out = run_with_scene(&cfg, Backend::Sim, scene());
    let r = out.report.sim().unwrap();
    let blur = r.utilisation(StageKind::Blur, Some(0)).unwrap();
    assert!(blur > 0.85, "blur utilisation {blur:.2} should be ~1");
    for kind in [
        StageKind::Sepia,
        StageKind::Scratch,
        StageKind::Flicker,
        StageKind::Swap,
    ] {
        let u = r.utilisation(kind, Some(0)).unwrap();
        assert!(
            u < blur,
            "{kind:?} ({u:.2}) must not exceed blur ({blur:.2})"
        );
    }
}

#[test]
fn idle_time_ordering_matches_figure_15() {
    // With seven MCPC-fed pipelines, the blur stage waits least and the
    // scratch stage most (Figure 15: ~58 ms vs ~133 ms medians).
    let cfg = RunConfig {
        renderer: RendererMode::McpcRenderer,
        pipelines: 7,
        frames: 80,
        ..RunConfig::default()
    };
    let out = run_with_scene(&cfg, Backend::Sim, scene());
    let r = out.report.sim().unwrap();
    let median = |k: StageKind| r.stage(k, Some(0)).unwrap().idle_ms.unwrap().median;
    let blur = median(StageKind::Blur);
    let scratch = median(StageKind::Scratch);
    let sepia = median(StageKind::Sepia);
    assert!(
        blur < scratch,
        "blur idle {blur:.1}ms !< scratch {scratch:.1}ms"
    );
    assert!(blur < sepia, "blur idle {blur:.1}ms !< sepia {sepia:.1}ms");
    // Quartiles are tight ("the variances of the task times are small").
    let q = r
        .stage(StageKind::Scratch, Some(0))
        .unwrap()
        .idle_ms
        .unwrap();
    assert!(
        q.iqr() < q.median * 0.25,
        "idle-time spread too large: {q:?}"
    );
}

#[test]
fn shapes_are_robust_to_the_scene_choice() {
    // The reproduction's claims must not hinge on the default procedural
    // city: the Manhattan-style variant (closer to the paper's NYC model)
    // must show the same qualitative structure.
    // Note: shapes tied to the *calibrated ratio* of render-to-filter
    // cost (e.g. exactly where the single-renderer plateau starts) are
    // scene-dependent by nature; what must survive a scene change is the
    // structure — pipelining helps, arrangements don't matter, MCPC
    // offload scales.
    let s: Arc<Scene> = Arc::new(Scene::manhattan(scc_render::ManhattanConfig::default()));
    let t1 = secs(RendererMode::SingleRenderer, Arrangement::Ordered, 1, &s);
    let t2 = secs(RendererMode::SingleRenderer, Arrangement::Ordered, 2, &s);
    assert!(
        t2 < t1 * 0.65,
        "still halves at 2 pipelines: {t1:.1} -> {t2:.1}"
    );
    let m1 = secs(RendererMode::McpcRenderer, Arrangement::Ordered, 1, &s);
    let m5 = secs(RendererMode::McpcRenderer, Arrangement::Ordered, 5, &s);
    assert!(m5 < m1 * 0.45, "MCPC still scales: {m1:.1} -> {m5:.1}");
    // Arrangement insensitivity is scene-independent.
    let a = secs(RendererMode::McpcRenderer, Arrangement::Unordered, 4, &s);
    let b = secs(RendererMode::McpcRenderer, Arrangement::Flipped, 4, &s);
    assert!(
        (a - b).abs() / a < 0.08,
        "arrangements diverge: {a:.1} vs {b:.1}"
    );
}
