//! The macro pipeline on the cluster platform (Figure 13, Table I's HPC
//! rows): same stage structure and rendezvous flow control as the SCC
//! runner, but with fast cores, cheap intra-node messages and no
//! DRAM-partition round-trip.

use crate::platform::ClusterConfig;
use scc_core::cost::{CostModel, RenderWork};
use scc_core::RunConfig;
use scc_filters::{standard_chain, Image};
use scc_render::{Renderer, Scene, Walkthrough};
use scc_sim::SimTime;
use std::sync::Arc;

/// The three cluster rows of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterMode {
    /// Renderer on a different node, frames over the external link
    /// ("HPC, external rend.").
    ExternalRenderer,
    /// One render core on the node ("HPC, single rend.").
    SingleRenderer,
    /// One renderer per pipeline ("HPC, parallel rend.").
    ParallelRenderer,
}

impl ClusterMode {
    pub fn label(self) -> &'static str {
        match self {
            ClusterMode::ExternalRenderer => "External renderer",
            ClusterMode::SingleRenderer => "Single renderer",
            ClusterMode::ParallelRenderer => "Parallel renderer",
        }
    }
}

/// Outcome of a cluster walkthrough.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    pub mode: ClusterMode,
    pub pipelines: u32,
    pub total_secs: f64,
}

struct Stage {
    free: SimTime,
}

/// Run the walkthrough on the cluster.
pub fn cluster_walkthrough(
    mode: ClusterMode,
    pipelines: u32,
    cfg: &RunConfig,
    scene: Arc<Scene>,
) -> ClusterReport {
    cluster_walkthrough_with(mode, pipelines, cfg, scene, &ClusterConfig::default())
}

/// Run with explicit platform parameters.
pub fn cluster_walkthrough_with(
    mode: ClusterMode,
    pipelines: u32,
    cfg: &RunConfig,
    scene: Arc<Scene>,
    cluster: &ClusterConfig,
) -> ClusterReport {
    assert!(pipelines >= 1);
    let cost = CostModel::default();
    let renderer = Renderer::new(scene);
    let walkthrough = Walkthrough::standard(cfg.width as f32 / cfg.height as f32);
    let bounds = Image::strip_bounds(cfg.height, pipelines);
    let p = pipelines as usize;
    let full_px = cfg.width as u64 * cfg.height as u64;
    let full_bytes = cfg.frame_bytes();

    let impls = standard_chain();

    let n_renderers = match mode {
        ClusterMode::ParallelRenderer => p,
        _ => 1,
    };
    let mut renderers: Vec<Stage> = (0..n_renderers)
        .map(|_| Stage {
            free: SimTime::ZERO,
        })
        .collect();
    let mut filters: Vec<Vec<Stage>> = (0..p)
        .map(|_| {
            (0..5)
                .map(|_| Stage {
                    free: SimTime::ZERO,
                })
                .collect()
        })
        .collect();
    let mut transfer = Stage {
        free: SimTime::ZERO,
    };
    let mut finish = SimTime::ZERO;

    for f in 0..cfg.frames {
        let cam = walkthrough.camera(f);
        let mut arrivals: Vec<SimTime> = vec![SimTime::ZERO; p];

        match mode {
            ClusterMode::SingleRenderer | ClusterMode::ExternalRenderer => {
                let r = &mut renderers[0];
                let work = RenderWork::full_frame(&renderer, &cam, cfg.width, cfg.height);
                let cycles =
                    cost.render_cycles(&work, false) + cost.split_cycles(full_px, pipelines);
                let dur = SimTime::from_secs_f64(cluster.stage_seconds(cycles, true));
                let mut t = r.free + dur;
                if mode == ClusterMode::ExternalRenderer {
                    // The full frame crosses the network once, then gets
                    // split on-node.
                    let start = t.max(filters[0][0].free);
                    t = start + cluster.feed_time(full_bytes);
                }
                for (i, (_, h)) in bounds.iter().enumerate() {
                    let strip_bytes = cfg.width as u64 * *h as u64 * 4;
                    let start = t.max(filters[i][0].free);
                    let arr = start + cluster.message_time(strip_bytes);
                    arrivals[i] = arr;
                    t = arr;
                }
                r.free = t;
            }
            ClusterMode::ParallelRenderer => {
                for i in 0..p {
                    let (_, h) = bounds[i];
                    let r = &mut renderers[i];
                    // Balanced fill, as on the SCC.
                    let work = RenderWork::strip_share(
                        &renderer, &cam, cfg.width, cfg.height, bounds[i], pipelines,
                    );
                    // Strip-mode rendering pays the frustum adjust, as on
                    // the SCC.
                    let cycles = cost.render_cycles(&work, true);
                    let dur = SimTime::from_secs_f64(cluster.stage_seconds(cycles, true));
                    let t = r.free + dur;
                    let strip_bytes = cfg.width as u64 * h as u64 * 4;
                    let start = t.max(filters[i][0].free);
                    let arr = start + cluster.message_time(strip_bytes);
                    arrivals[i] = arr;
                    r.free = arr;
                }
            }
        }

        // Filter chains.
        let mut swap_done: Vec<SimTime> = vec![SimTime::ZERO; p];
        for i in 0..p {
            let (_, h) = bounds[i];
            let strip_bytes = cfg.width as u64 * h as u64 * 4;
            let ctx = scc_filters::FrameCtx {
                frame_id: f,
                run_seed: cfg.seed,
                strip: scc_filters::StripInfo {
                    index: i as u32,
                    count: pipelines,
                    y0: bounds[i].0,
                    height: h,
                    full_height: cfg.height,
                },
                full_width: cfg.width,
            };
            let mut avail = arrivals[i];
            for j in 0..5 {
                let start = avail.max(filters[i][j].free);
                let cycles = cost.filter_cycles(impls[j].as_ref(), &ctx);
                let dur = SimTime::from_secs_f64(cluster.stage_seconds(cycles, false));
                let t = start + dur;
                let next_free = if j + 1 < 5 {
                    filters[i][j + 1].free
                } else {
                    transfer.free
                };
                let send_start = t.max(next_free);
                let arr = send_start + cluster.message_time(strip_bytes);
                filters[i][j].free = arr;
                avail = arr;
            }
            swap_done[i] = avail;
        }

        // Transfer: collect, assemble, ship to the viewer over the network.
        let mut t = transfer.free;
        for &arr in &swap_done {
            t = t.max(arr);
        }
        let assemble =
            SimTime::from_secs_f64(cluster.stage_seconds(cost.assemble_cycles(full_px), false));
        t = t + assemble + cluster.viewer_time(full_bytes);
        transfer.free = t;
        finish = t;
    }

    ClusterReport {
        mode,
        pipelines,
        total_secs: finish.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_render::CityConfig;

    fn scene() -> Arc<Scene> {
        Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 5,
        }))
    }

    fn quick_cfg() -> RunConfig {
        RunConfig {
            width: 120,
            height: 120,
            frames: 20,
            ..Default::default()
        }
    }

    #[test]
    fn parallel_rendering_scales() {
        let cfg = quick_cfg();
        let t1 = cluster_walkthrough(ClusterMode::ParallelRenderer, 1, &cfg, scene()).total_secs;
        let t4 = cluster_walkthrough(ClusterMode::ParallelRenderer, 4, &cfg, scene()).total_secs;
        assert!(t4 < t1 * 0.6, "4 pipelines {t4:.3}s vs 1 {t1:.3}s");
    }

    #[test]
    fn external_renderer_hits_network_floor() {
        // Beyond a few pipelines the external feed dominates; times
        // plateau instead of scaling.
        let cfg = quick_cfg();
        let t4 = cluster_walkthrough(ClusterMode::ExternalRenderer, 4, &cfg, scene()).total_secs;
        let t7 = cluster_walkthrough(ClusterMode::ExternalRenderer, 7, &cfg, scene()).total_secs;
        let floor = 20.0
            * ClusterConfig::default()
                .feed_time(cfg.frame_bytes())
                .as_secs_f64();
        assert!(
            t7 >= floor * 0.9,
            "t7 {t7:.3}s below network floor {floor:.3}s"
        );
        assert!(
            (t7 - t4).abs() < t4 * 0.35,
            "no plateau: {t4:.3} vs {t7:.3}"
        );
    }

    #[test]
    fn deterministic() {
        let cfg = quick_cfg();
        let a = cluster_walkthrough(ClusterMode::SingleRenderer, 3, &cfg, scene()).total_secs;
        let b = cluster_walkthrough(ClusterMode::SingleRenderer, 3, &cfg, scene()).total_secs;
        assert_eq!(a, b);
    }

    #[test]
    fn modes_labelled() {
        assert_eq!(ClusterMode::ExternalRenderer.label(), "External renderer");
        assert_eq!(ClusterMode::SingleRenderer.label(), "Single renderer");
        assert_eq!(ClusterMode::ParallelRenderer.label(), "Parallel renderer");
    }
}
