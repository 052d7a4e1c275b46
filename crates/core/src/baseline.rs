//! Single-core baseline: the whole pipeline executed serially on one SCC
//! core (Figure 8 and the 382 s reference of §VI-A).

use crate::cost::{CostModel, RenderWork};
use crate::runner::source::book_render;
use crate::spec::{RunConfig, StageKind};
use scc_filters::standard_chain;
use scc_render::{Renderer, Scene, Walkthrough};
use scc_sim::platform::MemOp;
use scc_sim::{CoreId, SccConfig, SccPlatform, SimTime};
use std::sync::Arc;

/// Figure 8's content: per-stage accumulated time over the walkthrough.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// (stage, total seconds) in pipeline order.
    pub stage_secs: Vec<(StageKind, f64)>,
    /// Complete walkthrough time on one core.
    pub total_secs: f64,
    /// Render-only walkthrough time (§VI-A's "without the transfer stage
    /// it takes about 94 seconds").
    pub render_only_secs: f64,
    /// Render + transfer walkthrough time (§VI-A's "about 104 seconds").
    pub render_transfer_secs: f64,
}

impl BaselineReport {
    pub fn stage(&self, kind: StageKind) -> f64 {
        self.stage_secs
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }
}

/// Run the single-core baseline for `cfg`'s geometry (the renderer mode,
/// arrangement and pipeline count are ignored — everything runs on core 0).
pub fn run_baseline(cfg: &RunConfig, scene: Arc<Scene>) -> BaselineReport {
    let cost = CostModel::default();
    let mut platform = SccPlatform::new(SccConfig::default());
    let renderer = Renderer::new(scene);
    let walkthrough = Walkthrough::standard(cfg.width as f32 / cfg.height as f32);
    let core = CoreId::new(0);
    let full_px = cfg.width as u64 * cfg.height as u64;
    let full_bytes = cfg.frame_bytes();

    let filters = standard_chain();
    let kinds = StageKind::PIPELINE_FILTERS;

    let mut t = SimTime::ZERO;
    let mut acc: Vec<(StageKind, SimTime)> = vec![
        (StageKind::Render, SimTime::ZERO),
        (StageKind::Sepia, SimTime::ZERO),
        (StageKind::Blur, SimTime::ZERO),
        (StageKind::Scratch, SimTime::ZERO),
        (StageKind::Flicker, SimTime::ZERO),
        (StageKind::Swap, SimTime::ZERO),
        (StageKind::Transfer, SimTime::ZERO),
    ];
    let add = |acc: &mut Vec<(StageKind, SimTime)>, kind: StageKind, dur: SimTime| {
        acc.iter_mut().find(|(k, _)| *k == kind).unwrap().1 += dur;
    };

    let mut render_total = SimTime::ZERO;
    let mut transfer_total = SimTime::ZERO;

    for f in 0..cfg.frames {
        let cam = walkthrough.camera(f);
        // Render: same cost path as the pipelined runs.
        let work = RenderWork::full_frame(&renderer, &cam, cfg.width, cfg.height);
        let cycles = cost.render_cycles(&work, false);
        let t0 = t;
        t = book_render(&mut platform, &cost, core, t, &work, cycles, full_bytes);
        add(&mut acc, StageKind::Render, t - t0);
        render_total += t - t0;

        // Filters, in place (one strip = the whole frame).
        let ctx = scc_filters::FrameCtx::whole_frame(f, cfg.seed, cfg.width, cfg.height);
        for (j, filter) in filters.iter().enumerate() {
            let t0 = t;
            t = platform.compute(core, t, cost.filter_cycles(filter.as_ref(), &ctx) as u64);
            let traffic = cost.stage_traffic(kinds[j], full_bytes);
            t = platform.mem_stream(core, t, MemOp::Read, traffic.read_bytes);
            t = platform.mem_stream(core, t, MemOp::Write, traffic.write_bytes);
            add(&mut acc, kinds[j], t - t0);
        }

        // Transfer: assemble (trivial here) + ship to the client.
        let t0 = t;
        t = platform.compute(core, t, cost.assemble_cycles(full_px) as u64);
        t = platform.chip_to_host(core, t, full_bytes);
        add(&mut acc, StageKind::Transfer, t - t0);
        transfer_total += t - t0;
    }

    BaselineReport {
        stage_secs: acc.into_iter().map(|(k, d)| (k, d.as_secs_f64())).collect(),
        total_secs: t.as_secs_f64(),
        render_only_secs: render_total.as_secs_f64(),
        render_transfer_secs: (render_total + transfer_total).as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_render::CityConfig;

    #[test]
    fn baseline_sums_match_total() {
        let cfg = RunConfig {
            frames: 10,
            width: 120,
            height: 120,
            ..Default::default()
        };
        let scene = Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 1,
        }));
        let r = run_baseline(&cfg, scene);
        let sum: f64 = r.stage_secs.iter().map(|(_, s)| s).sum();
        assert!((sum - r.total_secs).abs() < 1e-6);
        assert!(r.render_only_secs > 0.0);
        assert!(r.render_transfer_secs > r.render_only_secs);
        assert!(r.render_transfer_secs < r.total_secs);
        // Blur dominates the filters.
        assert!(r.stage(StageKind::Blur) > r.stage(StageKind::Sepia));
        assert!(r.stage(StageKind::Blur) > r.stage(StageKind::Swap));
        assert!(r.stage(StageKind::Scratch) < r.stage(StageKind::Flicker));
    }
}
