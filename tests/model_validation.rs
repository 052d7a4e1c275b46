//! Validation of the simulation machinery itself (as opposed to the
//! paper-shape tests): the contention model must be insensitive to its
//! ledger granularity, and every simulated walkthrough must respect the
//! analytic bounds that hold for any pipeline schedule.

use scc_core::cost::{CostModel, RenderWork};
use scc_core::{place, run_with_scene, Backend, RendererMode, RunConfig, SimRunner, StageKind};
use scc_render::{CityConfig, Renderer, Scene, Walkthrough};
use scc_sim::{SccConfig, SccPlatform, SimTime};
use std::sync::Arc;

fn scene() -> Arc<Scene> {
    Arc::new(Scene::city(CityConfig::default()))
}

fn cfg(mode: RendererMode, pipelines: u32) -> RunConfig {
    RunConfig::builder()
        .renderer(mode)
        .pipelines(pipelines)
        .frames(50)
        .build()
        .expect("valid config")
}

fn run_with_bucket(config: RunConfig, bucket: SimTime, scene: &Arc<Scene>) -> f64 {
    let mut scc = SccConfig::default();
    scc.mem.bucket = bucket;
    scc.noc.bucket = bucket;
    scc.host_link.bucket = bucket;
    let placement = place(config.renderer, config.arrangement, config.pipelines);
    SimRunner::with_parts(
        config,
        Arc::clone(scene),
        placement,
        SccPlatform::new(scc),
        CostModel::default(),
    )
    .expect("a valid static film config")
    .run()
    .total_secs
}

#[test]
fn results_are_insensitive_to_ledger_granularity() {
    // The time-bucketed contention model is an approximation; its bucket
    // width must not be a hidden tuning parameter. Halving / quartering
    // the 1 ms default should move headline results by well under 5%.
    let s = scene();
    for (mode, p) in [
        (RendererMode::PerPipelineRenderer, 7u32),
        (RendererMode::McpcRenderer, 5),
    ] {
        let t_default = run_with_bucket(cfg(mode, p), SimTime::from_ms(1), &s);
        let t_fine = run_with_bucket(cfg(mode, p), SimTime::from_us(250), &s);
        let t_coarse = run_with_bucket(cfg(mode, p), SimTime::from_ms(4), &s);
        let dev_fine = (t_fine - t_default).abs() / t_default;
        let dev_coarse = (t_coarse - t_default).abs() / t_default;
        assert!(
            dev_fine < 0.05,
            "{mode:?}/{p}: 250us bucket deviates {:.1}% ({t_fine:.1} vs {t_default:.1})",
            dev_fine * 100.0
        );
        assert!(
            dev_coarse < 0.05,
            "{mode:?}/{p}: 4ms bucket deviates {:.1}% ({t_coarse:.1} vs {t_default:.1})",
            dev_coarse * 100.0
        );
    }
}

/// Lower bound: no schedule can finish before the bottleneck stage has
/// serviced every frame, computed from pure (uncontended) stage costs.
fn bottleneck_lower_bound(config: &RunConfig, scene: &Arc<Scene>) -> f64 {
    use scc_filters::{Blur, Flicker, Image, ImageFilter, Scratch, Sepia, VSwap};
    let cost = CostModel::default();
    let renderer = Renderer::new(Arc::clone(scene));
    let walkthrough = Walkthrough::standard(config.width as f32 / config.height as f32);
    let filters: [Box<dyn ImageFilter>; 5] = [
        Box::new(Sepia),
        Box::new(Blur::default()),
        Box::new(Scratch::default()),
        Box::new(Flicker::default()),
        Box::new(VSwap),
    ];
    let bounds = Image::strip_bounds(config.height, config.pipelines);
    let (y0, h) = bounds[0];
    let mut per_stage = vec![0.0f64; 5];
    let mut render = 0.0f64;
    for f in 0..config.frames {
        let cam = walkthrough.camera(f);
        let ctx = scc_filters::FrameCtx {
            frame_id: f,
            run_seed: config.seed,
            strip: scc_filters::StripInfo {
                index: 0,
                count: config.pipelines,
                y0,
                height: h,
                full_height: config.height,
            },
            full_width: config.width,
        };
        for (j, filter) in filters.iter().enumerate() {
            per_stage[j] += cost.filter_cycles(filter.as_ref(), &ctx) / 533.0e6;
        }
        if config.renderer == RendererMode::SingleRenderer {
            let work = RenderWork::full_frame(&renderer, &cam, config.width, config.height);
            render += cost.render_cycles(&work, false) / 533.0e6;
        }
    }
    per_stage
        .into_iter()
        .chain(std::iter::once(render))
        .fold(0.0, f64::max)
}

#[test]
fn walkthrough_respects_analytic_bounds() {
    let s = scene();
    for (mode, p) in [
        (RendererMode::SingleRenderer, 1u32),
        (RendererMode::SingleRenderer, 4),
        (RendererMode::McpcRenderer, 3),
    ] {
        let config = cfg(mode, p);
        let t = run_with_scene(&config, Backend::Sim, Arc::clone(&s)).total_secs;
        let lower = bottleneck_lower_bound(&config, &s);
        assert!(
            t >= lower * 0.999,
            "{mode:?}/{p}: simulated {t:.2}s beats the bottleneck bound {lower:.2}s"
        );
        // Upper sanity: pipelining never loses to fully serial execution
        // by more than the pipeline-fill transient.
        let serial: f64 = {
            let base = scc_core::run_baseline(&config, Arc::clone(&s));
            base.total_secs
        };
        assert!(
            t <= serial * 1.2,
            "{mode:?}/{p}: pipelined {t:.2}s worse than serial {serial:.2}s"
        );
    }
}

#[test]
fn busy_time_never_exceeds_wall_time_per_stage() {
    let s = scene();
    let r = run_with_scene(&cfg(RendererMode::PerPipelineRenderer, 5), Backend::Sim, s);
    for st in &r.stage_reports {
        assert!(
            st.busy_secs <= r.total_secs * 1.001,
            "{:?} busy {:.2}s > total {:.2}s",
            st.kind,
            st.busy_secs,
            r.total_secs
        );
        assert!(st.busy_secs >= 0.0);
    }
    // The bottleneck stage must exist: someone is >80% utilised.
    let max_util = r
        .stage_reports
        .iter()
        .map(|st| st.busy_secs / r.total_secs)
        .fold(0.0, f64::max);
    assert!(
        max_util > 0.8,
        "no bottleneck stage? max util {max_util:.2}"
    );
}

#[test]
fn energy_is_at_least_idle_energy() {
    let s = scene();
    let out = run_with_scene(&cfg(RendererMode::McpcRenderer, 4), Backend::Sim, s);
    let r = out.report.sim().unwrap();
    let idle_floor = r.scc_idle_power * r.total_secs;
    assert!(
        r.scc_energy_joules >= idle_floor,
        "energy {:.0} J below idle floor {:.0} J",
        r.scc_energy_joules,
        idle_floor
    );
    // And mean power stays below the all-cores-at-full ceiling (~70 W).
    assert!(r.mean_power() < 70.0);
}

#[test]
fn stage_kind_order_matches_figure_1() {
    // The pipeline order of Figure 1: render -> sepia -> blur -> scratch
    // -> flicker -> swap -> transfer. Encoded in PIPELINE_FILTERS; guard
    // against accidental re-ordering.
    let names: Vec<&str> = StageKind::PIPELINE_FILTERS
        .iter()
        .map(|k| k.name())
        .collect();
    assert_eq!(names, ["sepia", "blur", "scratch", "flicker", "swap"]);
}
