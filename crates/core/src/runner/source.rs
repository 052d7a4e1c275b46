//! Film-source lowering: what producing frame `f` costs in each of §V's
//! three renderer modes, and which strips come out of it.
//!
//! Every virtual-time executor — the frame-major simulator, the task
//! runtime, the DES validator — starts a frame the same way: derive the
//! [`RenderWork`] from the scene's probe memo, book the render (and, with
//! the MCPC renderer, the host link and the connector's UDP/split work)
//! on the platform, and cut the frame into per-pipeline strips. That is
//! [`FilmSource::lower`]. What happens to a strip next — a rendezvous
//! send with failover, a deque injection, a DES arrival fact — is the
//! executor's own business, so it stays in the executor, between `lower`
//! and [`FilmSource::commit`]; the platform booking order of each
//! executor is exactly what it was when the lowering was written out
//! three times.

use super::sim::StageState;
use crate::cost::{CostModel, RenderWork};
use crate::frame::Frame;
use crate::placement::Placement;
use crate::spec::{Fidelity, RendererMode, RunConfig, StageKind};
use scc_filters::{Image, StripInfo};
use scc_render::{Camera, Renderer};
use scc_sim::platform::MemOp;
use scc_sim::{CoreId, SccPlatform, SimTime};

/// The source side of a film run: the render (and connector) stage
/// ledgers and the MCPC's private timeline.
pub(crate) struct FilmSource {
    pub(crate) renderers: Vec<StageState>,
    pub(crate) connector: Option<StageState>,
    mcpc_free: SimTime,
    pub(crate) mcpc_busy: SimTime,
    mode: RendererMode,
    fidelity: Fidelity,
    width: u32,
    height: u32,
    bounds: Vec<(u32, u32)>,
}

/// The strips one source unit produced, ready to leave `core` at `ready`.
pub(crate) struct SourceStrips {
    pub(crate) strips: Vec<Frame>,
    pub(crate) core: CoreId,
    pub(crate) ready: SimTime,
}

/// Book one on-chip render on `core` from `t`: pull the visible scene
/// data through the mesh, spend `cycles`, write `out_bytes` of frame
/// buffer back if it exceeds the L2. Returns completion.
pub(crate) fn book_render(
    platform: &mut SccPlatform,
    cost: &CostModel,
    core: CoreId,
    t: SimTime,
    work: &RenderWork,
    cycles: f64,
    out_bytes: u64,
) -> SimTime {
    let t = platform.mem_raw(core, t, MemOp::Read, cost.render_scene_bytes(work));
    let t = platform.compute(core, t, cycles as u64);
    platform.mem_stream(core, t, MemOp::Write, out_bytes)
}

impl FilmSource {
    pub(crate) fn new(cfg: &RunConfig, placement: &Placement) -> FilmSource {
        let per_pipeline = cfg.renderer == RendererMode::PerPipelineRenderer;
        FilmSource {
            renderers: placement
                .renderers
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    StageState::new(StageKind::Render, *c, per_pipeline.then_some(i as u32))
                })
                .collect(),
            connector: placement
                .connector
                .map(|c| StageState::new(StageKind::Connect, c, None)),
            mcpc_free: SimTime::ZERO,
            mcpc_busy: SimTime::ZERO,
            mode: cfg.renderer,
            fidelity: cfg.fidelity,
            width: cfg.width,
            height: cfg.height,
            bounds: Image::strip_bounds(cfg.height, cfg.pipelines),
        }
    }

    /// Source units per frame: one per pipeline when every pipeline has
    /// its own renderer, one otherwise. An executor lowers, delivers and
    /// commits the units of a frame in order.
    pub(crate) fn units(&self) -> usize {
        match self.mode {
            RendererMode::PerPipelineRenderer => self.bounds.len(),
            _ => 1,
        }
    }

    /// The stage strips of `unit` are sent from.
    fn stage_mut(&mut self, unit: usize) -> &mut StageState {
        match self.connector.as_mut() {
            Some(conn) => conn,
            None => &mut self.renderers[unit],
        }
    }

    /// Produce `unit`'s share of frame `f`: book the work on `platform`,
    /// advance the producing stage's ledger to the instant its strips are
    /// ready, and return them.
    pub(crate) fn lower(
        &mut self,
        cost: &CostModel,
        renderer: &Renderer,
        cam: &Camera,
        platform: &mut SccPlatform,
        f: u64,
        unit: usize,
    ) -> SourceStrips {
        let (width, height) = (self.width, self.height);
        let p = self.bounds.len() as u32;
        let full_px = width as u64 * height as u64;
        let full_bytes = full_px * 4;
        let full = self.fidelity == Fidelity::Full;
        match self.mode {
            RendererMode::SingleRenderer => {
                let work = RenderWork::full_frame(renderer, cam, width, height);
                let cycles = cost.render_cycles(&work, false) + cost.split_cycles(full_px, p);
                let r = &mut self.renderers[0];
                let t = book_render(platform, cost, r.core, r.free, &work, cycles, full_bytes);
                platform.record_busy(r.core, r.free, t);
                r.busy += t - r.free;
                r.free = t;
                let image = full.then(|| renderer.render_full(cam, width, height).0);
                SourceStrips {
                    strips: make_strips(f, &self.bounds, width, image),
                    core: r.core,
                    ready: t,
                }
            }
            RendererMode::PerPipelineRenderer => {
                let (y0, h) = self.bounds[unit];
                let work = RenderWork::strip_share(renderer, cam, width, height, (y0, h), p);
                let cycles = cost.render_cycles(&work, true);
                let strip_bytes = width as u64 * h as u64 * 4;
                let r = &mut self.renderers[unit];
                let t = book_render(platform, cost, r.core, r.free, &work, cycles, strip_bytes);
                platform.record_busy(r.core, r.free, t);
                r.busy += t - r.free;
                r.free = t;
                let image = full.then(|| renderer.render_strip(cam, width, height, y0, h).0);
                SourceStrips {
                    strips: vec![Frame {
                        id: f,
                        strip: strip_info(unit, &self.bounds, height),
                        full_width: width,
                        image,
                    }],
                    core: r.core,
                    ready: t,
                }
            }
            RendererMode::McpcRenderer => {
                // The MCPC renders on its own timeline.
                let work = RenderWork::full_frame(renderer, cam, width, height);
                let p54c_cycles = cost.render_cycles(&work, false);
                let render_dur = SimTime::from_secs_f64(cost.mcpc_render_seconds(p54c_cycles));
                let render_done = self.mcpc_free + render_dur;
                self.mcpc_busy += render_dur;

                let conn = self.connector.as_mut().expect("MCPC mode has a connector");
                // UDP into the connector's partition, paced by the
                // connector being ready (receive window).
                let send_start = render_done.max(conn.free);
                let resident = platform.host_to_chip(conn.core, send_start, full_bytes);
                self.mcpc_free = resident;

                // Connector: fetch the frame, run the UDP/IP stack, split.
                conn.idle_samples.push(resident.saturating_sub(conn.free));
                let start = resident.max(conn.free);
                let mut t = platform.fetch_from_partition(conn.core, start, full_bytes);
                let cycles = cost.connector_cycles(full_bytes, p) + cost.split_cycles(full_px, p);
                t = platform.compute(conn.core, t, cycles as u64);
                t = platform.mem_stream(conn.core, t, MemOp::Write, full_bytes);
                platform.record_busy(conn.core, start, t);
                conn.busy += t - start;
                conn.free = t;
                let image = full.then(|| renderer.render_full(cam, width, height).0);
                SourceStrips {
                    strips: make_strips(f, &self.bounds, width, image),
                    core: conn.core,
                    ready: t,
                }
            }
        }
    }

    /// `unit`'s strips are on their way: its stage stayed occupied by the
    /// sends until `t` (`ready` itself when delivery is asynchronous) and
    /// has one more frame behind it.
    pub(crate) fn commit(&mut self, unit: usize, t: SimTime) {
        let stage = self.stage_mut(unit);
        stage.advance(stage.free, t);
    }
}

fn strip_info(i: usize, bounds: &[(u32, u32)], full_height: u32) -> StripInfo {
    let (y0, h) = bounds[i];
    StripInfo {
        index: i as u32,
        count: bounds.len() as u32,
        y0,
        height: h,
        full_height,
    }
}

/// Split an (optional) full frame into per-pipeline strip frames.
fn make_strips(
    frame_id: u64,
    bounds: &[(u32, u32)],
    width: u32,
    image: Option<Image>,
) -> Vec<Frame> {
    let full_height: u32 = bounds.iter().map(|(_, h)| h).sum();
    match image {
        Some(img) => img
            .split_strips(bounds.len() as u32)
            .into_iter()
            .map(|(info, strip)| Frame {
                id: frame_id,
                strip: info,
                full_width: width,
                image: Some(strip),
            })
            .collect(),
        None => (0..bounds.len())
            .map(|i| Frame {
                id: frame_id,
                strip: strip_info(i, bounds, full_height),
                full_width: width,
                image: None,
            })
            .collect(),
    }
}
