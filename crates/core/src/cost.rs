//! Calibrated stage cost model.
//!
//! Converts workload statistics (pixels, octree nodes visited, triangles,
//! estimated fill coverage) into P54C cycles at the 533 MHz operating
//! point, plus the memory-traffic profile of each stage. The anchors come
//! from §VI-A of the paper, for the default 400×400-pixel frame:
//!
//! * whole pipeline on one core: ~382 s / 400 frames ≈ 0.955 s per frame;
//! * render + transfer only ≈ 104 s; render only ≈ 94 s → render
//!   ≈ 0.235 s/frame, transfer ≈ 0.025 s/frame;
//! * blur is the most expensive filter stage (Figure 8), confirmed by the
//!   DVFS experiment: accelerating only blur 533→800 MHz takes the
//!   single-pipeline MCPC walkthrough from 236 s to 174 s.
//!
//! Every constant is a plain field so experiments (and the calibration
//! test-suite) can vary them; `CostModel::default()` is the paper
//! calibration.

use crate::spec::StageKind;
use scc_filters::{FrameCtx, ImageFilter};
use scc_render::{Camera, Renderer};

/// Cycle and traffic coefficients (see module docs for provenance).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// P54C cycles per abstract filter work unit (sepia ≡ 1 unit/pixel).
    pub cycles_per_unit: f64,
    /// Extra multiplier on the blur stage (9-tap gather is branchier than
    /// its raw unit count suggests).
    pub blur_multiplier: f64,

    // ---- render stage ----
    /// Fixed per-frame cycles (camera setup, frustum extraction).
    pub render_base_cycles: f64,
    /// Extra fixed cycles per frame for a *strip* renderer (the viewing
    /// frustum adjustment of the sort-first configuration, §VI-A).
    pub render_strip_adjust_cycles: f64,
    /// Cycles per octree node visited (dependent loads through DRAM).
    pub render_node_cycles: f64,
    /// Cycles per triangle transformed/set up.
    pub render_tri_cycles: f64,
    /// Cycles per estimated covered pixel (rasterisation fill).
    pub render_fill_cycles: f64,
    /// Multiplier on fill cycles in the per-pipeline-renderer mode —
    /// calibrated against Table I's "n rend." row, where per-strip
    /// rendering is substantially less efficient per pixel than the single
    /// full-frame renderer.
    pub nrend_fill_multiplier: f64,
    /// Bytes read from the scene per octree node visited.
    pub scene_node_bytes: u64,
    /// Bytes read from the scene per visible triangle.
    pub scene_tri_bytes: u64,

    // ---- distribution / collection stages ----
    /// Cycles per pixel to split a frame into strips (render/connector).
    pub split_cycles_per_px: f64,
    /// Cycles per pixel to assemble strips (transfer stage).
    pub assemble_cycles_per_px: f64,
    /// Connector-side cycles per received byte (UDP/IP stack on a 533 MHz
    /// P54C — the dominant connector cost).
    pub udp_cycles_per_byte: f64,
    /// Per-destination fixed cycles when fanning strips out.
    pub fanout_cycles: f64,

    // ---- heterogeneous hosts ----
    /// How much faster the MCPC's Xeon X3440 renders than a 533 MHz P54C
    /// (clock ratio ≈ 4.7 × micro-architecture ≈ 6). Calibrated so the
    /// 400-frame walkthrough renders in ≈3.3 s on the MCPC (§VI-B).
    pub mcpc_speedup: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cycles_per_unit: 305.0,
            blur_multiplier: 1.18,
            render_base_cycles: 1.0e6,
            render_strip_adjust_cycles: 6.0e6,
            render_node_cycles: 30_000.0,
            render_tri_cycles: 3_000.0,
            render_fill_cycles: 62.0,
            nrend_fill_multiplier: 3.3,
            scene_node_bytes: 256,
            scene_tri_bytes: 64,
            split_cycles_per_px: 12.0,
            assemble_cycles_per_px: 14.0,
            udp_cycles_per_byte: 60.0,
            fanout_cycles: 0.4e6,
            mcpc_speedup: 28.5,
        }
    }
}

/// Workload probe of one strip-render (inputs to the render cost).
#[derive(Debug, Clone, Copy, Default)]
pub struct RenderWork {
    pub nodes_visited: u64,
    pub triangles_out: u64,
    pub est_coverage: u64,
}

impl RenderWork {
    /// One renderer drawing the whole `width`×`height` frame: its cull and
    /// its fill coverage — the one strip of `p = 1`.
    pub fn full_frame(renderer: &Renderer, cam: &Camera, width: u32, height: u32) -> RenderWork {
        RenderWork::strip_share(renderer, cam, width, height, (0, height), 1)
    }

    /// One of `p` sort-first renderers drawing rows `y0..y0+h`. Every
    /// virtual-time executor — SCC or cluster — derives its render work
    /// here, through the scene's probe memo (DESIGN.md §20).
    ///
    /// Fill work per renderer is the full frame's coverage split evenly.
    /// The paper's sort-first renderers share the fill load almost
    /// perfectly (Figure 10 scales ~1/P up to 3 pipelines); charging each
    /// renderer its strip's raw coverage would instead import this
    /// scene's horizon-heavy imbalance. Culling and triangle-setup costs
    /// stay per-strip (they genuinely do not shrink with strip height),
    /// so the strip itself is only culled, never estimated.
    pub fn strip_share(
        renderer: &Renderer,
        cam: &Camera,
        width: u32,
        height: u32,
        (y0, h): (u32, u32),
        p: u32,
    ) -> RenderWork {
        // Coverage first: estimating it runs the full frame's cull, whose
        // stats the memo keeps, so when the strip is the full frame the
        // second question is already answered.
        let full_coverage = renderer.coverage(cam, width, height, 0, height);
        let cull = renderer.cull_stats(cam, width, height, y0, h);
        RenderWork {
            nodes_visited: cull.nodes_visited,
            triangles_out: cull.triangles_out,
            est_coverage: full_coverage / p as u64,
        }
    }
}

/// Memory traffic of a stage application (bytes to stream through the
/// cache model, beyond the message fetch/send the runner charges).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTraffic {
    pub read_bytes: u64,
    pub write_bytes: u64,
}

impl CostModel {
    /// Cycles for one filter application on the strip `ctx` describes.
    pub fn filter_cycles(&self, filter: &dyn ImageFilter, ctx: &FrameCtx) -> f64 {
        let mult = if filter.name() == "blur" {
            self.blur_multiplier
        } else {
            1.0
        };
        filter.work_units(ctx) * self.cycles_per_unit * mult
    }

    /// Cycles for rendering one strip.
    ///
    /// `strip_mode` marks the per-pipeline-renderer configuration with its
    /// frustum-adjust overhead and less efficient fill path.
    pub fn render_cycles(&self, work: &RenderWork, strip_mode: bool) -> f64 {
        let mut c = self.render_base_cycles
            + work.nodes_visited as f64 * self.render_node_cycles
            + work.triangles_out as f64 * self.render_tri_cycles;
        let fill = work.est_coverage as f64 * self.render_fill_cycles;
        if strip_mode {
            c += self.render_strip_adjust_cycles + fill * self.nrend_fill_multiplier;
        } else {
            c += fill;
        }
        c
    }

    /// Scene bytes the renderer pulls from memory for one strip.
    pub fn render_scene_bytes(&self, work: &RenderWork) -> u64 {
        work.nodes_visited * self.scene_node_bytes + work.triangles_out * self.scene_tri_bytes
    }

    /// Cycles to split a full frame into `parts` strips.
    pub fn split_cycles(&self, pixels: u64, parts: u32) -> f64 {
        pixels as f64 * self.split_cycles_per_px + parts as f64 * self.fanout_cycles
    }

    /// Cycles for the transfer stage to assemble `pixels` worth of strips.
    pub fn assemble_cycles(&self, pixels: u64) -> f64 {
        pixels as f64 * self.assemble_cycles_per_px
    }

    /// Connector cycles to ingest `bytes` from the MCPC link.
    pub fn connector_cycles(&self, bytes: u64, parts: u32) -> f64 {
        bytes as f64 * self.udp_cycles_per_byte + parts as f64 * self.fanout_cycles
    }

    /// Seconds the MCPC needs to render one frame that costs
    /// `p54c_cycles` on a 533 MHz SCC core.
    pub fn mcpc_render_seconds(&self, p54c_cycles: f64) -> f64 {
        p54c_cycles / (533.0e6 * self.mcpc_speedup)
    }

    /// Per-kind stage traffic for one strip application (read/write bytes
    /// streamed through the cache, §IV's differing access patterns).
    pub fn stage_traffic(&self, kind: StageKind, strip_bytes: u64) -> StageTraffic {
        match kind {
            // Blur reads the source and writes the second buffer.
            StageKind::Blur => StageTraffic {
                read_bytes: strip_bytes,
                write_bytes: strip_bytes,
            },
            // In-place per-pixel passes read + write the strip.
            StageKind::Sepia | StageKind::Flicker => StageTraffic {
                read_bytes: strip_bytes,
                write_bytes: strip_bytes,
            },
            // Swap copies every row once through a line buffer.
            StageKind::Swap => StageTraffic {
                read_bytes: strip_bytes,
                write_bytes: strip_bytes,
            },
            // Scratch touches a handful of columns.
            StageKind::Scratch => StageTraffic {
                read_bytes: strip_bytes / 64,
                write_bytes: strip_bytes / 64,
            },
            // Render writes the frame buffer (scene reads are charged
            // separately via `render_scene_bytes`).
            StageKind::Render => StageTraffic {
                read_bytes: 0,
                write_bytes: strip_bytes,
            },
            // Connector/transfer move whole frames; their message traffic
            // is charged by the runner, plus one staging copy here.
            StageKind::Connect | StageKind::Transfer => StageTraffic {
                read_bytes: strip_bytes,
                write_bytes: strip_bytes,
            },
        }
    }
}

/// Seconds for `cycles` at `freq_hz` — tiny convenience used all over the
/// runner.
pub fn cycles_to_secs(cycles: f64, freq_hz: u64) -> f64 {
    cycles / freq_hz as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_filters::{Blur, Flicker, Scratch, Sepia, VSwap};

    const FRAME_PX: u64 = 400 * 400;
    const F533: f64 = 533.0e6;

    fn full_frame_secs(filter: &dyn ImageFilter) -> f64 {
        let m = CostModel::default();
        let ctx = FrameCtx::whole_frame(3, 7, 400, 400);
        m.filter_cycles(filter, &ctx) / F533
    }

    #[test]
    fn sepia_calibration_anchor() {
        let t = full_frame_secs(&Sepia);
        assert!(
            (0.09..0.13).contains(&t),
            "sepia {t:.3}s/frame should be ≈0.105 s"
        );
    }

    #[test]
    fn blur_is_the_most_expensive_filter() {
        let blur = full_frame_secs(&Blur::default());
        assert!(
            (0.42..0.56).contains(&blur),
            "blur {blur:.3}s/frame should be ≈0.49 s"
        );
        for f in [
            full_frame_secs(&Sepia),
            full_frame_secs(&Flicker::default()),
            full_frame_secs(&VSwap),
            full_frame_secs(&Scratch::default()),
        ] {
            assert!(blur > 2.0 * f, "blur must dominate (other={f:.3}s)");
        }
    }

    #[test]
    fn scratch_is_the_cheapest_filter() {
        let scratch = full_frame_secs(&Scratch::default());
        assert!(scratch < 0.02, "scratch {scratch}s should be milliseconds");
    }

    #[test]
    fn filter_stage_sum_matches_figure8() {
        // Filters (sepia+blur+scratch+flicker+swap) ≈ 0.70 s/frame so the
        // full single-core pipeline lands near 0.955 s/frame.
        let sum: f64 = [
            full_frame_secs(&Sepia),
            full_frame_secs(&Blur::default()),
            full_frame_secs(&Scratch::default()),
            full_frame_secs(&Flicker::default()),
            full_frame_secs(&VSwap),
        ]
        .iter()
        .sum();
        assert!(
            (0.60..0.80).contains(&sum),
            "filter sum {sum:.3}s/frame should be ≈0.70 s"
        );
    }

    #[test]
    fn render_cost_components_add_up() {
        let m = CostModel::default();
        let work = RenderWork {
            nodes_visited: 150,
            triangles_out: 5500,
            est_coverage: 1_280_000,
        };
        let full = m.render_cycles(&work, false) / F533;
        // ~0.21 s for a typical walkthrough frame: base 1M + nodes 4.5M +
        // tris 16.5M + fill 79M ≈ 101M cycles.
        assert!((0.12..0.35).contains(&full), "render {full:.3}s");
        let strip = m.render_cycles(&work, true) / F533;
        assert!(strip > full, "strip mode must cost extra");
        assert_eq!(m.render_scene_bytes(&work), 150 * 256 + 5500 * 64);
    }

    #[test]
    fn mcpc_renders_walkthrough_in_about_3_seconds() {
        // §VI-B: "The rendering of all images took only about 3.3 seconds".
        let m = CostModel::default();
        let per_frame_p54c = 0.225 * F533;
        let total = 400.0 * m.mcpc_render_seconds(per_frame_p54c);
        assert!(
            (2.5..4.5).contains(&total),
            "MCPC walkthrough render {total:.2}s should be ≈3.3 s"
        );
    }

    #[test]
    fn traffic_profiles_differ_by_stage() {
        let m = CostModel::default();
        let b = FRAME_PX * 4;
        let blur = m.stage_traffic(StageKind::Blur, b);
        let scratch = m.stage_traffic(StageKind::Scratch, b);
        assert!(blur.read_bytes > scratch.read_bytes * 10);
        let render = m.stage_traffic(StageKind::Render, b);
        assert_eq!(render.read_bytes, 0, "scene reads charged separately");
        assert_eq!(render.write_bytes, b);
    }

    #[test]
    fn cycles_to_secs_roundtrip() {
        assert_eq!(cycles_to_secs(533.0e6, 533_000_000), 1.0);
        assert_eq!(cycles_to_secs(0.0, 533_000_000), 0.0);
    }
}
