//! The three native film workloads: the pipeline on real threads and rcce
//! channels, measured as a closed loop (the source renders as fast as
//! the 2-frame windows allow; the executor's stage threads are the
//! program, not the load).
//!
//! The traced pass replays the same data path on one thread with a span
//! around every call into a layer ([`layer_walk`]): that one pass is the
//! correctness oracle (its film must hash equal to `reference_frames`
//! and to the native runs), the single-threaded baseline and the
//! per-layer busy time.

use crate::catalog::STAGES;
use crate::measure::{
    host_cpus, median, pct, sample_for, timed, Measured, Seeds, SetupTimer, STAGE_KINDS,
};
use crate::span::Tracer;
use scc_core::reference::reference_frames;
use scc_core::runner::native::{decode_frame_pooled, encode_frame};
use scc_core::spec::StageKind;
use scc_core::viz::frame_checksum;
use scc_core::{
    place, plan_for, run_with_scene, Backend, BackendReport, BufferPool, Fidelity, Frame, Phase,
    RendererMode, RunConfig, RunOutcome, TraceLog,
};
use scc_filters::{standard_chain, vswap, Image, StripInfo};
use scc_rcce::{communicator, crc32, Endpoint, MpbConfig};
use scc_render::frustum::Frustum;
use scc_render::raster::{estimate_coverage, new_zbuf, rasterize};
use scc_render::{
    CityConfig, CullStats, Octree, OctreeConfig, RenderStats, Renderer, Scene, Walkthrough,
};
use scc_sim::stats::quantile;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Which film: how it renders and over what scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Film {
    /// `film_native`: one renderer, the standard city, 400x400.
    Full,
    /// `film_native_strips`: one renderer per pipeline, same city.
    Strips,
    /// `film_native_flat`: one renderer, ground-only scene, 800x608.
    Flat,
}

const PIPELINES: u32 = 2;
/// One run is one throughput sample, and a sample has to be short for
/// some to fall between a noisy neighbour's bursts: 24 frames is ~0.6 s.
const CITY_FRAMES: u64 = 24;
/// 12 frames of 800x608 cost about as much as 24 of 400x400.
const FLAT_FRAMES: u64 = 12;

const FILTER_SPANS: [&str; 5] = [
    "filters.sepia",
    "filters.blur",
    "filters.scratch",
    "filters.flicker",
    "filters.swap",
];

struct Built {
    cfg: RunConfig,
    scene: Arc<Scene>,
}

fn city(film: Film, seeds: &Seeds) -> CityConfig {
    CityConfig {
        // Four buildings a side all fall inside the central plaza, which
        // the generator keeps empty: only the two ground triangles remain.
        side: if film == Film::Flat {
            4
        } else {
            CityConfig::default().side
        },
        seed: seeds.city,
        ..CityConfig::default()
    }
}

/// Everything a user pays before the first frame: the scene, the octree,
/// the validated config, the stage plan and the placement.
fn build(film: Film, seeds: &Seeds) -> Built {
    let scene = Arc::new(Scene::city(city(film, seeds)));
    let renderer = Renderer::new(scene.clone());
    let (width, height, frames) = match film {
        Film::Flat => (800, 608, FLAT_FRAMES),
        _ => (400, 400, CITY_FRAMES),
    };
    let cfg = RunConfig::builder()
        .renderer(match film {
            Film::Strips => RendererMode::PerPipelineRenderer,
            _ => RendererMode::SingleRenderer,
        })
        .pipelines(PIPELINES)
        .size(width, height)
        .frames(frames)
        .seed(seeds.run)
        .fidelity(Fidelity::Full)
        .build()
        .expect("native workload config is valid");
    black_box((
        renderer,
        plan_for(&cfg),
        place(cfg.renderer, cfg.arrangement, cfg.pipelines),
    ));
    Built { cfg, scene }
}

fn sizes(m: &mut Measured, built: &Built) {
    m.sizes = vec![
        ("width", built.cfg.width as u64),
        ("height", built.cfg.height as u64),
        ("frames", built.cfg.frames),
        ("pipelines", built.cfg.pipelines as u64),
        ("scene_triangles", built.scene.triangle_count() as u64),
    ];
}

fn checksums(frames: &[Image]) -> Vec<u64> {
    frames.iter().map(frame_checksum).collect()
}

fn native_frames(out: &RunOutcome) -> &[Image] {
    match &out.report {
        BackendReport::Native(report) => &report.frames,
        _ => unreachable!("native runs return the native report"),
    }
}

/// Count the run's frames against the reference film: a missing frame
/// or one whose checksum differs is a failed operation.
fn check_film(m: &mut Measured, what: &str, film: &[u64], reference: &[u64]) {
    m.attempted += reference.len() as u64;
    let bad = (0..reference.len())
        .filter(|&i| film.get(i) != Some(&reference[i]))
        .count()
        + film.len().saturating_sub(reference.len());
    if bad > 0 {
        m.failed += bad as u64;
        m.problem(format!(
            "{what}: {bad} of {} frames differ from the reference film",
            reference.len()
        ));
    }
}

fn run_native(built: &Built) -> (RunOutcome, f64) {
    timed(|| run_with_scene(&built.cfg, Backend::Native, built.scene.clone()))
}

pub fn untraced(film: Film, seeds: &Seeds, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let (mut setup, built) = SetupTimer::start(|| build(film, seeds));
    sizes(&mut m, &built);
    let reference = checksums(&reference_frames(&built.cfg, built.scene.clone()));
    let run_once = |m: &mut Measured| {
        let (out, secs) = run_native(&built);
        check_film(m, "native run", &checksums(native_frames(&out)), &reference);
        out.frames as f64 / secs
    };
    // One untimed run first: it pages in the binary and fills the
    // allocator's free lists, which users do not pay per film.
    run_once(&mut m);
    let fps = sample_for(seconds, &mut setup, || run_once(&mut m));
    m.end_to_end(fps, setup.samples);
    m
}

/// The single-threaded replay of the native data path.
pub struct Walk {
    pub film: Vec<u64>,
    pub wall_s: f64,
    pub render: RenderStats,
    /// Loopback messages, one per pipeline hop, and their wire bytes.
    pub messages: u64,
    pub bytes: u64,
    /// Pixels that went through each filter.
    pub filtered_px: u64,
}

struct Loopback {
    tx: Endpoint,
    rx: Endpoint,
    pool: BufferPool,
}

impl Loopback {
    /// One pipeline hop, as a stage thread pair does it: encode (CRC +
    /// copy), send, release the sent buffer, receive, decode into a
    /// pooled buffer.
    fn hop(&self, t: &mut Tracer, mut frame: Frame) -> Frame {
        let id = frame.id;
        let wire = t.call("core.frame.encode", id, || encode_frame(&frame));
        t.call("rcce.send", id, || {
            self.tx.send(1, wire).expect("loopback send")
        });
        self.pool
            .release(frame.image.take().expect("native frames carry pixels"));
        let wire = t.call("rcce.recv", id, || self.rx.recv(0).expect("loopback recv"));
        t.call("core.frame.decode", id, || {
            decode_frame_pooled(wire, 0, &self.pool).expect("loopback frame is intact")
        })
    }
}

fn add_render(total: &mut RenderStats, s: &RenderStats) {
    total.cull.nodes_visited += s.cull.nodes_visited;
    total.cull.triangles_out += s.cull.triangles_out;
    total.raster.triangles_filled += s.raster.triangles_filled;
    total.raster.pixels_covered += s.raster.pixels_covered;
    total.raster.pixels_written += s.raster.pixels_written;
}

/// Replay `cfg`'s data path on one thread: render, split, then per strip
/// and per hop of `plan_for(cfg)` encode → loopback send/recv → decode
/// with each stage's `apply_vectored` between hops, and assemble. Every
/// call into a layer gets a span under a `walk` root; the frame number is
/// the trace id.
pub fn layer_walk(cfg: &RunConfig, scene: Arc<Scene>, t: &mut Tracer) -> Walk {
    let renderer = Renderer::new(scene);
    let walkthrough = Walkthrough::standard(cfg.width as f32 / cfg.height as f32);
    let chain = standard_chain();
    let backend = cfg.tuning.kernel.resolve();
    let kernel_threads = cfg.tuning.kernel_threads as usize;
    let plan = plan_for(cfg);
    let bounds = Image::strip_bounds(cfg.height, cfg.pipelines);
    let per_strip = cfg.renderer == RendererMode::PerPipelineRenderer;
    let mut endpoints = communicator(2, 2, MpbConfig::default());
    let rx = endpoints.pop().expect("rank 1");
    let tx = endpoints.pop().expect("rank 0");
    let link = Loopback {
        tx,
        rx,
        pool: BufferPool::from_enabled(cfg.tuning.buffer_pool),
    };

    let mut render = RenderStats::default();
    let mut filtered_px = 0u64;
    let mut frames = Vec::with_capacity(cfg.frames as usize);
    t.enter("walk", 0);
    for f in 0..cfg.frames {
        t.enter("frame", f);
        let cam = walkthrough.camera(f);
        let strips: Vec<(StripInfo, Image)> = if per_strip {
            bounds
                .iter()
                .enumerate()
                .map(|(i, &(y0, h))| {
                    let (img, stats) = t.call("render.strip", f, || {
                        renderer.render_strip(&cam, cfg.width, cfg.height, y0, h)
                    });
                    add_render(&mut render, &stats);
                    let info = StripInfo {
                        index: i as u32,
                        count: cfg.pipelines,
                        y0,
                        height: h,
                        full_height: cfg.height,
                    };
                    (info, img)
                })
                .collect()
        } else {
            let (img, stats) = t.call("render.strip", f, || {
                renderer.render_full(&cam, cfg.width, cfg.height)
            });
            add_render(&mut render, &stats);
            let strips = t.call("filters.split", f, || img.split_strips(cfg.pipelines));
            link.pool.release(img);
            strips
        };
        let mut done = Vec::with_capacity(strips.len());
        for (info, img) in strips {
            filtered_px += img.pixel_count();
            let mut frame = link.hop(
                t,
                Frame {
                    id: f,
                    strip: info,
                    full_width: cfg.width,
                    image: Some(img),
                },
            );
            for group in &plan.groups {
                let ctx = frame.ctx(cfg.seed);
                for j in group.stages() {
                    let img = frame.image.as_mut().expect("pixels");
                    t.call(FILTER_SPANS[j], f, || {
                        chain[j].apply_vectored(img, &ctx, backend, kernel_threads)
                    });
                }
                frame = link.hop(t, frame);
            }
            done.push((frame.strip, frame.image.expect("pixels")));
        }
        let (out, placed) = t.call("filters.assemble", f, || {
            let placed: Vec<(StripInfo, Image)> = done
                .into_iter()
                .map(|(info, img)| (vswap::mirrored_info(info), img))
                .collect();
            (Image::assemble(&placed), placed)
        });
        for (_, strip) in placed {
            link.pool.release(strip);
        }
        // Checksummed after the walk, so hashing is not in its wall time.
        frames.push(out);
        t.exit();
    }
    let wall_s = t.exit();
    let stats = link.tx.stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    Walk {
        film: checksums(&frames),
        wall_s,
        render,
        messages: load(&stats.sent_messages),
        bytes: load(&stats.sent_bytes),
        filtered_px,
    }
}

/// Direct calls into the render layer's parts, on the inputs `cfg`'s
/// render stage sees (`Octree::cull` + the coverage estimate are
/// `Renderer::cull_strip`, the timing-only sim's per-frame probe);
/// `raster` adds `rasterize`. Spans go under a `probe` root; returns the
/// culls' summed stats.
pub fn probe_render(
    t: &mut Tracer,
    cfg: &RunConfig,
    scene: &Arc<Scene>,
    raster: bool,
) -> CullStats {
    let renderer = Renderer::new(scene.clone());
    let walkthrough = Walkthrough::standard(cfg.width as f32 / cfg.height as f32);
    let regions = if cfg.renderer == RendererMode::PerPipelineRenderer {
        Image::strip_bounds(cfg.height, cfg.pipelines)
    } else {
        vec![(0, cfg.height)]
    };
    let tris = &renderer.scene().triangles;
    let mut total = CullStats::default();
    t.enter("probe", 0);
    for f in 0..cfg.frames {
        let cam = walkthrough.camera(f);
        for &(y0, h) in &regions {
            let mvp = cam.strip_view_projection(cfg.height, y0, h);
            let frustum = Frustum::from_matrix(&mvp);
            let mut visible = Vec::new();
            let stats = t.call("probe.render.cull", f, || {
                renderer.octree().cull(&frustum, &mut visible)
            });
            total.nodes_visited += stats.nodes_visited;
            total.triangles_out += stats.triangles_out;
            t.call("probe.render.coverage", f, || {
                black_box(estimate_coverage(tris, &visible, &mvp, cfg.width, h))
            });
            if raster {
                let mut img = Image::new(cfg.width, h);
                let mut zbuf = new_zbuf(cfg.width, h);
                t.call("probe.render.raster", f, || {
                    black_box(rasterize(tris, &visible, &mvp, &mut img, &mut zbuf))
                });
            }
        }
    }
    t.exit();
    total
}

/// `crc32` throughput over one strip's wire bytes, MB/s.
fn crc32_mb_per_s(cfg: &RunConfig) -> f64 {
    let strip_bytes = (cfg.width * cfg.height.div_ceil(cfg.pipelines) * 4) as usize;
    let wire: Vec<u8> = (0..strip_bytes).map(|i| (i * 31) as u8).collect();
    let passes = (64 << 20) / strip_bytes + 1;
    let ((), secs) = timed(|| {
        for _ in 0..passes {
            black_box(crc32(black_box(&wire)));
        }
    });
    (passes * strip_bytes) as f64 / secs / 1e6
}

fn octree_build_s(scene: &Scene) -> f64 {
    let builds: Vec<f64> = (0..5)
        .map(|_| timed(|| black_box(Octree::build(&scene.triangles, OctreeConfig::default()))).1)
        .collect();
    median(&builds)
}

/// Per-stage phase totals, per-frame latency and the busiest thread's
/// share of the wall, from the native executor's own trace.
fn native_trace_metrics(m: &mut Measured, log: &TraceLog, wall_s: f64, frames: u64) {
    for (name, kind) in STAGES.iter().zip(STAGE_KINDS) {
        for (phase_name, phase) in [
            ("compute", Phase::Compute),
            ("wait", Phase::Wait),
            ("send", Phase::Send),
        ] {
            m.layer(
                &format!("core.native.{name}.{phase_name}_s"),
                log.phase_total(kind, phase).as_secs_f64(),
            );
        }
    }
    // Latency of frame f: first render span's start to last transfer
    // span's end.
    let mut latency_ms: Vec<f64> = (0..frames)
        .filter_map(|f| {
            let of = |kind: StageKind| {
                log.events()
                    .iter()
                    .filter(move |e| e.frame == f && e.kind == kind)
            };
            let start = of(StageKind::Render).map(|e| e.t0).min()?;
            let end = of(StageKind::Transfer).map(|e| e.t1).max()?;
            Some((end.saturating_sub(start)).as_millis_f64())
        })
        .collect();
    latency_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    if latency_ms.len() as u64 != frames {
        m.problem(format!(
            "native trace covers {} of {frames} frames",
            latency_ms.len()
        ));
    }
    if !latency_ms.is_empty() {
        m.layer(
            "core.native.frame_latency_p50_ms",
            quantile(&latency_ms, 0.5),
        );
        m.layer(
            "core.native.frame_latency_p90_ms",
            quantile(&latency_ms, 0.9),
        );
    }
    let mut compute_by_thread: BTreeMap<u8, f64> = BTreeMap::new();
    for e in log.events().iter().filter(|e| e.phase == Phase::Compute) {
        *compute_by_thread.entry(e.core).or_insert(0.0) += (e.t1 - e.t0).as_secs_f64();
    }
    let busiest = compute_by_thread.values().copied().fold(0.0, f64::max);
    m.layer("core.native.max_stage_busy_share", busiest / wall_s);
}

pub fn traced(film: Film, seeds: &Seeds, t: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let built = build(film, seeds);
    sizes(&mut m, &built);
    let cfg = &built.cfg;
    let frames = cfg.frames;

    // 1. The layer walk, checked against the sequential reference.
    let reference = checksums(&reference_frames(cfg, built.scene.clone()));
    let walk = layer_walk(cfg, built.scene.clone(), t);
    check_film(&mut m, "layer walk", &walk.film, &reference);
    let busy = t.busy_by_name();
    let of = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let glue = of("walk") + of("frame");
    let layers_s = walk.wall_s - glue;
    if layers_s < 0.95 * walk.wall_s {
        m.problem(format!(
            "layer spans cover {:.1}% of the walk's wall, below 95%",
            pct(layers_s, walk.wall_s)
        ));
    }
    m.layer("render.strip.busy_s", of("render.strip"));
    m.layer(
        "render.cull.nodes_visited",
        walk.render.cull.nodes_visited as f64,
    );
    m.layer(
        "render.cull.triangles_out",
        walk.render.cull.triangles_out as f64,
    );
    m.layer(
        "render.raster.triangles_filled",
        walk.render.raster.triangles_filled as f64,
    );
    m.layer(
        "render.raster.pixels_covered",
        walk.render.raster.pixels_covered as f64,
    );
    m.layer(
        "render.raster.pixels_written",
        walk.render.raster.pixels_written as f64,
    );
    m.layer(
        "render.raster.write_ratio",
        walk.render.raster.pixels_written as f64 / walk.render.raster.pixels_covered.max(1) as f64,
    );
    m.layer(
        "render.scene.triangles",
        built.scene.triangle_count() as f64,
    );
    m.layer("render.octree.build_s", octree_build_s(&built.scene));
    let filters_s: f64 = FILTER_SPANS.iter().map(|s| of(s)).sum();
    for (span, stage) in FILTER_SPANS.iter().zip(&STAGES[1..6]) {
        m.layer(&format!("filters.{stage}.busy_s"), of(span));
    }
    m.layer(
        "filters.chain.mpx_per_s",
        walk.filtered_px as f64 / filters_s / 1e6,
    );
    m.layer("filters.split.busy_s", of("filters.split"));
    m.layer("filters.assemble.busy_s", of("filters.assemble"));
    m.layer("rcce.send_recv.busy_s", of("rcce.send") + of("rcce.recv"));
    m.layer("rcce.messages", walk.messages as f64);
    m.layer("rcce.bytes", walk.bytes as f64);
    m.layer("rcce.crc32.mb_per_s", crc32_mb_per_s(cfg));
    let codec_s = of("core.frame.encode") + of("core.frame.decode");
    m.layer("core.frame.encode.busy_s", of("core.frame.encode"));
    m.layer("core.frame.decode.busy_s", of("core.frame.decode"));
    // Every wire byte is encoded once and decoded once.
    m.layer(
        "core.frame.codec.mb_per_s",
        2.0 * walk.bytes as f64 / codec_s / 1e6,
    );
    m.layer("core.frame.hops", walk.messages as f64);
    let walk_fps = frames as f64 / walk.wall_s;
    let cpu_s_per_frame = layers_s / frames as f64;
    m.layer("core.walk.frames_per_s", walk_fps);
    m.layer("core.walk.cpu_ms_per_frame", cpu_s_per_frame * 1e3);
    m.layer(
        "core.walk.cpu_bound_fps",
        host_cpus() as f64 / cpu_s_per_frame,
    );

    // 2. The render layer's parts and crc32, by direct calls.
    probe_render(t, cfg, &built.scene, true);
    let busy = t.busy_by_name();
    let of = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    m.layer("render.cull.busy_s", of("probe.render.cull"));
    m.layer("render.coverage.busy_s", of("probe.render.coverage"));
    m.layer("render.raster.busy_s", of("probe.render.raster"));
    m.layer(
        "render.raster.mpx_per_s",
        walk.render.raster.pixels_covered as f64 / of("probe.render.raster") / 1e6,
    );

    // 3. The native executor: one warm-up, two untraced runs, one traced
    //    run; every film must equal the walk's.
    let mut walls = Vec::new();
    for i in 0..3 {
        let (out, secs) = run_native(&built);
        check_film(
            &mut m,
            "native run",
            &checksums(native_frames(&out)),
            &walk.film,
        );
        if i > 0 {
            walls.push(secs);
        }
    }
    let untraced_wall = median(&walls);
    let traced_cfg = RunConfig {
        trace: true,
        telemetry: true,
        ..cfg.clone()
    };
    let (out, traced_wall) =
        timed(|| run_with_scene(&traced_cfg, Backend::Native, built.scene.clone()));
    check_film(
        &mut m,
        "traced native run",
        &checksums(native_frames(&out)),
        &walk.film,
    );
    m.layer(
        "core.native.parallel_speedup",
        frames as f64 / untraced_wall / walk_fps,
    );
    m.layer(
        "telemetry.trace_overhead_pct",
        pct(traced_wall - untraced_wall, untraced_wall),
    );
    m.layer(
        "telemetry.events",
        out.telemetry.as_ref().map_or(0, |s| s.events.len()) as f64,
    );
    if let BackendReport::Native(report) = &out.report {
        let pool = report.pool_stats;
        m.layer(
            "core.pool.reuse_ratio",
            pool.recycled as f64 / (pool.recycled + pool.fresh).max(1) as f64,
        );
    }
    match &out.trace {
        Some(log) => native_trace_metrics(&mut m, log, traced_wall, frames),
        None => m.problem("traced native run returned no trace".into()),
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_walk_equals_the_reference_in_every_renderer_mode() {
        let scene = Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 3,
        }));
        for mode in [
            RendererMode::SingleRenderer,
            RendererMode::PerPipelineRenderer,
            RendererMode::McpcRenderer,
        ] {
            let cfg = RunConfig::builder()
                .renderer(mode)
                .pipelines(2)
                .size(64, 64)
                .frames(3)
                .seed(77)
                .fidelity(Fidelity::Full)
                .build()
                .unwrap();
            let mut t = Tracer::new();
            let walk = layer_walk(&cfg, scene.clone(), &mut t);
            let reference = checksums(&reference_frames(&cfg, scene.clone()));
            assert_eq!(walk.film, reference, "{mode:?}");
            // Two strips x (5 stage groups + 1) hops x 3 frames.
            assert_eq!(walk.messages, 36, "{mode:?}");
            assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        }
    }

    #[test]
    fn film_check_counts_missing_and_differing_frames() {
        let mut m = Measured::default();
        check_film(&mut m, "t", &[1, 2, 3], &[1, 2, 3]);
        assert!(m.correct());
        check_film(&mut m, "t", &[1, 9], &[1, 2, 3]);
        assert_eq!((m.attempted, m.failed), (6, 2));
        assert!(!m.correct());
    }
}
