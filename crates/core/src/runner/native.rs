//! Real-thread execution of the parallel macro pipeline.
//!
//! Runs the same stage graph as the simulator on the host machine: one OS
//! thread per stage, connected by `scc-rcce` endpoints (blocking
//! source-matched send/recv over bounded windows — the RCCE programming
//! model). Frames carry real pixels; the output is bit-identical to
//! [`crate::reference::reference_frames`]. Wall-clock timings demonstrate
//! genuine pipeline parallelism on the host, and per-stage receive-wait
//! statistics mirror the paper's Figure 15 measurement methodology.

use super::sim::{record_run, record_stage};
use super::stage::assemble_mirrored;
use crate::frame::Frame;
use crate::metrics::HostTiming;
use crate::partition::StagePlan;
use crate::pool::{BufferPool, PoolStats};
use crate::spec::{RendererMode, RunConfig, StageKind};
use crate::trace::{Phase, TraceLog};
use scc_filters::{standard_chain, Image, StripInfo, BYTES_PER_PIXEL};
use scc_rcce::{communicator, crc32, Endpoint, MpbConfig, RcceError, Reliability};
use scc_render::{Camera, FrameSetup, Renderer, Scene, Walkthrough, BAND_ROWS};
use scc_sim::fault::{FaultConfig, FaultPlan};
use scc_sim::stats::Quartiles;
use scc_sim::{CoreId, SimTime};
use scc_telemetry::{names, TelemetrySink};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use std::{array, slice};

/// Outcome of a native run.
#[derive(Debug)]
pub struct NativeReport {
    /// Wall-clock duration of the whole walkthrough.
    pub wall: Duration,
    /// Final frames as delivered to the visualisation client.
    pub frames: Vec<Image>,
    /// Per-stage receive-wait quartiles in milliseconds, keyed by
    /// (stage, pipeline).
    pub idle_ms: Vec<(StageKind, u32, Option<Quartiles>)>,
    /// Host wall-clock throughput (the bench trajectory's quantity).
    pub host: HostTiming,
    /// Buffer-pool reuse counters (all zero when pooling is off).
    pub pool_stats: PoolStats,
    /// `(messages, bytes)` each source's endpoint sent, in rank order.
    pub source_sent: Vec<(u64, u64)>,
    /// Wall-clock phase spans per stage thread, present when
    /// [`RunConfig::trace`] is set. Times are nanoseconds since the run
    /// started, expressed on the same [`SimTime`] axis the simulator
    /// uses, so the Chrome exporter works unchanged.
    pub trace: Option<TraceLog>,
    /// Metrics and events recorded during the run
    /// ([`RunConfig::telemetry`]); `None` when telemetry is off.
    pub telemetry: Option<scc_telemetry::Snapshot>,
}

/// Per-thread span collector for the native runner: each stage thread
/// owns one and returns its log for merging after the join. When tracing
/// is off it records nothing.
struct SpanRecorder {
    on: bool,
    base: Instant,
    core: CoreId,
    kind: StageKind,
    pipeline: Option<u32>,
    log: TraceLog,
}

impl SpanRecorder {
    fn span(&mut self, frame: u64, phase: Phase, from: Instant, to: Instant) {
        self.span_kind(self.kind, frame, phase, from, to);
    }

    /// Record a span under an explicit stage kind — a merged-group thread
    /// runs several stages back-to-back and labels each compute slice
    /// with the stage that did the work.
    fn span_kind(&mut self, kind: StageKind, frame: u64, phase: Phase, from: Instant, to: Instant) {
        if !self.on {
            return;
        }
        let t0 = SimTime::from_ns(from.duration_since(self.base).as_nanos() as u64);
        let t1 = SimTime::from_ns(to.duration_since(self.base).as_nanos() as u64);
        self.log
            .span(self.core, kind, self.pipeline, frame, phase, t0, t1);
    }
}

/// Bytes after the pixels: the 32-byte header plus the CRC field.
pub(crate) const FRAME_TRAILER: usize = 36;

/// Finish a hop message in the buffer that holds the strip's pixels.
/// Wire format: `RGBA payload || header || crc32(payload || header)`,
/// big-endian — the checksum covers everything before itself, so a flipped
/// bit anywhere is detected. The pixels stay at offset 0 of their
/// allocation, and a buffer with [`FRAME_TRAILER`] bytes of spare capacity
/// (every [`BufferPool`] buffer, every decoded one) is not reallocated.
fn seal(mut buf: Vec<u8>, id: u64, s: StripInfo, full_width: u32) -> Vec<u8> {
    buf.reserve_exact(FRAME_TRAILER);
    buf.extend_from_slice(&id.to_be_bytes());
    for v in [s.index, s.count, s.y0, s.height, s.full_height, full_width] {
        buf.extend_from_slice(&v.to_be_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_be_bytes());
    buf
}

/// The hop message of a frame the caller keeps: one copy of the pixels
/// into a message-sized buffer, then [`seal`].
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let pixels = frame.image.as_ref().expect("native frames carry pixels");
    let mut buf = Vec::with_capacity(pixels.as_bytes().len() + FRAME_TRAILER);
    buf.extend_from_slice(pixels.as_bytes());
    seal(buf, frame.id, frame.strip, frame.full_width)
}

/// The hop message of a frame the caller is done with: its pixel buffer
/// becomes the message, no copy.
pub fn encode_frame_owned(frame: Frame) -> Vec<u8> {
    let pixels = frame.image.expect("native frames carry pixels");
    seal(pixels.into_raw(), frame.id, frame.strip, frame.full_width)
}

enum DecodeFailure {
    Truncated,
    SizeMismatch,
    Crc,
}

fn try_decode(mut b: Vec<u8>) -> Result<Frame, DecodeFailure> {
    let Some(pixels) = b.len().checked_sub(FRAME_TRAILER) else {
        return Err(DecodeFailure::Truncated);
    };
    let (body, crc) = b.split_at(b.len() - 4);
    if crc32(body).to_be_bytes() != crc {
        return Err(DecodeFailure::Crc);
    }
    let header = &body[pixels..];
    let id = u64::from_be_bytes(header[..8].try_into().unwrap());
    let [index, count, y0, height, full_height, full_width] =
        array::from_fn(|i| u32::from_be_bytes(header[8 + 4 * i..][..4].try_into().unwrap()));
    let strip = StripInfo {
        index,
        count,
        y0,
        height,
        full_height,
    };
    // The header is outside input: an empty strip or a geometry whose
    // byte count does not fit `usize` cannot match any payload.
    let expect = (full_width as usize)
        .checked_mul(strip.height as usize)
        .and_then(|px| px.checked_mul(BYTES_PER_PIXEL))
        .filter(|&bytes| bytes > 0);
    if expect != Some(pixels) {
        return Err(DecodeFailure::SizeMismatch);
    }
    // The message's buffer becomes the image.
    b.truncate(pixels);
    Ok(Frame {
        id,
        strip,
        full_width,
        image: Some(Image::from_raw(full_width, strip.height, b)),
    })
}

/// Non-panicking decode for transports that may hand over damaged bytes:
/// any malformation — truncation, a size lie, or a CRC mismatch — comes
/// back as [`RcceError::Corrupt`] attributed to `src`.
pub fn decode_frame_checked(b: Vec<u8>, src: usize) -> Result<Frame, RcceError> {
    try_decode(b).map_err(|_| RcceError::Corrupt { rank: src })
}

/// [`decode_frame_checked`]: the frame's pixel buffer is the message's
/// own, so nothing is drawn from `_pool`, only released into it later.
pub fn decode_frame_pooled(b: Vec<u8>, src: usize, _pool: &BufferPool) -> Result<Frame, RcceError> {
    decode_frame_checked(b, src)
}

/// Rank layout of the native communicator.
///
/// The scheduler plan shapes the interior: one rank (one OS thread) per
/// *group replica* per lane — a merged group's stages share a thread, a
/// replicated group gets one thread per replica. The fixed plan (five
/// singleton groups, one replica each) reproduces the historical
/// one-thread-per-stage layout exactly.
struct Ranks {
    sources: Vec<usize>,
    /// `groups[i][g]` — ranks of the replicas serving group `g` of lane
    /// `i`; frame `f` is handled by `groups[i][g][f % r]`.
    groups: Vec<Vec<Vec<usize>>>,
    /// The last rank.
    transfer: usize,
}

fn ranks(mode: RendererMode, p: usize, plan: &StagePlan) -> Ranks {
    let n_sources = match mode {
        RendererMode::PerPipelineRenderer => p,
        _ => 1,
    };
    let mut next = n_sources..;
    let groups = (0..p)
        .map(|_| {
            let replicas = plan.groups.iter().map(|g| g.replicas as usize);
            replicas.map(|r| next.by_ref().take(r).collect()).collect()
        })
        .collect();
    Ranks {
        sources: (0..n_sources).collect(),
        groups,
        transfer: next.start,
    }
}

/// What every thread of a native run reads.
struct Shared<'a> {
    cfg: &'a RunConfig,
    plan: &'a StagePlan,
    layout: &'a Ranks,
    renderer: Renderer,
    bounds: Vec<(u32, u32)>,
    /// A strip keeps one buffer from the source's acquire to the transfer
    /// stage's release, where the source's next acquire finds it.
    pool: BufferPool,
    /// Fault injection switches every hop to the reliable (CRC + ack +
    /// retry) protocol.
    reliable: bool,
    /// Telemetry mirrors the span log into its event stream, so an
    /// enabled sink collects spans even when the caller did not ask for a
    /// trace in the report.
    tracing: bool,
    start: Instant,
}

impl Shared<'_> {
    fn recorder(&self, rank: usize, kind: StageKind, pipeline: Option<u32>) -> SpanRecorder {
        SpanRecorder {
            on: self.tracing,
            base: self.start,
            core: CoreId::new(rank as u8),
            kind,
            pipeline,
            log: TraceLog::new(),
        }
    }

    fn send(&self, ep: &Endpoint, dst: usize, payload: Vec<u8>) {
        if self.reliable {
            ep.send_reliable(dst, payload).expect("reliable send");
        } else {
            ep.send(dst, payload).expect("send");
        }
    }

    fn recv(&self, ep: &Endpoint, src: usize) -> Vec<u8> {
        if self.reliable {
            ep.recv_reliable(src).expect("reliable recv")
        } else {
            ep.recv(src).expect("recv")
        }
    }
}

/// What a filter or transfer thread hands back: its stage and lane (0 for
/// the transfer stage), its receive-wait samples, the assembled frames
/// (transfer only), its span log, and the number of frames it handled (a
/// replica sees only its stride's share).
struct StageResult {
    kind: StageKind,
    pipeline: u32,
    waits: Vec<Duration>,
    frames: Option<Vec<Image>>,
    log: TraceLog,
    handled: u64,
}

/// Run the film's static pipeline natively. Frames always carry pixels
/// (the `fidelity` field of the config is ignored).
pub(crate) fn run_native(cfg: &RunConfig, scene: Arc<Scene>) -> NativeReport {
    let plan = crate::partition::plan_for(cfg);
    let layout = ranks(cfg.renderer, cfg.pipelines as usize, &plan);
    // One sink shared by every stage thread and every RCCE endpoint, so
    // ARQ retries recorded inside the transport and stage metrics
    // recorded out here land in the same snapshot.
    let tel = TelemetrySink::from_enabled(cfg.telemetry);
    let mut eps = endpoints(cfg, layout.transfer + 1, &tel);
    let sh = Shared {
        cfg,
        plan: &plan,
        layout: &layout,
        renderer: Renderer::new(scene),
        bounds: Image::strip_bounds(cfg.height, cfg.pipelines),
        pool: BufferPool::from_enabled(cfg.tuning.buffer_pool),
        reliable: cfg.fault.is_some(),
        tracing: cfg.trace || tel.is_enabled(),
        start: Instant::now(),
    };
    // Spawn order — sources, then filter replicas lane by lane, group by
    // group, replica by replica, then transfer — is the order of
    // `source_sent`, of `idle_ms` and of the span merge.
    let (sources, stages) = thread::scope(|s| {
        let sh = &sh;
        let mut take = |rank: usize| eps[rank].take().expect("one thread a rank");
        let sources: Vec<_> = (0..layout.sources.len())
            .map(|i| {
                let ep = take(layout.sources[i]);
                match cfg.renderer {
                    RendererMode::PerPipelineRenderer => s.spawn(move || strip_source(sh, ep, i)),
                    _ => s.spawn(move || frame_source(sh, ep)),
                }
            })
            .collect();
        let mut stages = Vec::new();
        for (lane, groups) in layout.groups.iter().enumerate() {
            for (g, replicas) in groups.iter().enumerate() {
                for (k, &rank) in replicas.iter().enumerate() {
                    let ep = take(rank);
                    stages.push(s.spawn(move || replica(sh, ep, lane, g, k)));
                }
            }
        }
        let ep = take(layout.transfer);
        stages.push(s.spawn(move || transfer(sh, ep)));
        let sources = sources
            .into_iter()
            .map(|h| h.join().expect("source thread panicked"));
        let stages = stages
            .into_iter()
            .map(|h| h.join().expect("stage thread panicked"));
        (sources.collect(), stages.collect())
    });
    // The film is done here; merging the span logs below is bookkeeping.
    let wall = sh.start.elapsed();
    report(&sh, &tel, wall, sources, stages)
}

/// The communicator's endpoints, armed: each records into `tel`, and
/// under fault injection each runs the spec's seeded message-fault plan
/// behind the reliable protocol.
fn endpoints(cfg: &RunConfig, ranks: usize, tel: &TelemetrySink) -> Vec<Option<Endpoint>> {
    // Window of 2 in-flight frames per channel: enough to pipeline,
    // small enough to exert RCCE-like backpressure.
    let mut endpoints = communicator(ranks, 2, MpbConfig::default());
    if tel.is_enabled() {
        for ep in endpoints.iter_mut() {
            ep.set_telemetry(tel.clone());
        }
    }
    // The schedule is deterministic in the spec's seed. Core stalls and
    // link degradation are simulator-only notions — the native threads
    // see the message-level faults.
    if let Some(spec) = &cfg.fault {
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            seed: spec.seed,
            drop_rate: spec.drop_rate,
            corrupt_rate: spec.corrupt_rate,
            delay_rate: spec.delay_rate,
            max_delay: SimTime::from_us(spec.max_delay_us),
            degraded_links: 0,
            degrade_factor: 1.0,
            stalls: Vec::new(),
            kills: Vec::new(),
        }));
        // Real threads on a loaded host need a wider ack window than the
        // simulator's virtual-time default.
        let policy = Reliability {
            timeout: Duration::from_micros(spec.timeout_us).max(Duration::from_millis(50)),
            retries: spec.retry_budget,
        };
        for ep in endpoints.iter_mut() {
            ep.set_fault_plan(Arc::clone(&plan));
            ep.set_reliability(policy);
        }
    }
    endpoints.into_iter().map(Some).collect()
}

/// The full-frame source of the single-renderer and MCPC modes: one
/// thread renders whole frames and scatters their strips. In MCPC mode it
/// plays the MCPC renderer + connector pair — functionally identical;
/// only the platform timing differed.
fn frame_source(sh: &Shared, ep: Endpoint) -> (TraceLog, Endpoint) {
    // One set-up list and one z-buffer for the whole film. A frame is
    // culled and set up once, then its row bands are filled across the
    // host straight into pooled strips; a recycled strip holds some
    // earlier frame, and its bands overwrite every pixel of it. The
    // render stage is the only thread that renders, so it may take every
    // CPU.
    let (mut setup, mut zbuf) = (FrameSetup::default(), Vec::new());
    let host = thread::available_parallelism().map_or(1, |n| n.get());
    let (width, height) = (sh.cfg.width, sh.cfg.height);
    source(sh, ep, None, |cam, strips| {
        sh.renderer.set_up_frame(cam, width, height, &mut setup);
        Renderer::render_bands(&setup, strips, &mut zbuf, BAND_ROWS, host);
    })
}

/// The source of lane `i` in per-pipeline mode: it renders its own strip.
fn strip_source(sh: &Shared, ep: Endpoint, i: usize) -> (TraceLog, Endpoint) {
    let (mut setup, mut zbuf) = (FrameSetup::default(), Vec::new());
    let (y0, height) = (sh.bounds[i].0, sh.cfg.height);
    source(sh, ep, Some(i), |cam, strips| {
        // A recycled buffer holds some earlier strip: the render
        // overwrites every pixel of it.
        sh.renderer
            .render_strip_into(cam, height, y0, &mut strips[0], &mut zbuf, &mut setup);
    })
}

/// The per-frame loop of every source: acquire the strips of its lanes
/// (every lane, or lane `pipeline`), `fill` them with pixels, and send
/// each lane's strip to its first-group replica `f % r`, which keeps the
/// strip order per lane. Returns the span log and the endpoint, for its
/// counters.
fn source(
    sh: &Shared,
    ep: Endpoint,
    pipeline: Option<usize>,
    mut fill: impl FnMut(&Camera, &mut [Image]),
) -> (TraceLog, Endpoint) {
    let cfg = sh.cfg;
    let lanes = pipeline.map_or(0..sh.bounds.len(), |i| i..i + 1);
    let rank = sh.layout.sources[pipeline.unwrap_or(0)];
    let mut rec = sh.recorder(rank, StageKind::Render, pipeline.map(|i| i as u32));
    let walkthrough = Walkthrough::standard(cfg.width as f32 / cfg.height as f32);
    let mut strips = Vec::with_capacity(lanes.len());
    for f in 0..cfg.frames {
        let c0 = Instant::now();
        let bounds = &sh.bounds[lanes.clone()];
        let acquire = |&(_, h): &(u32, u32)| sh.pool.acquire_stale(cfg.width, h);
        strips.extend(bounds.iter().map(acquire));
        fill(&walkthrough.camera(f), &mut strips);
        let c1 = Instant::now();
        for ((i, image), &(y0, height)) in lanes.clone().zip(strips.drain(..)).zip(bounds) {
            let strip = StripInfo {
                index: i as u32,
                count: cfg.pipelines,
                y0,
                height,
                full_height: cfg.height,
            };
            let firsts = &sh.layout.groups[i][0];
            let dst = firsts[(f % firsts.len() as u64) as usize];
            sh.send(&ep, dst, seal(image.into_raw(), f, strip, cfg.width));
        }
        rec.span(f, Phase::Compute, c0, c1);
        rec.span(f, Phase::Send, c1, Instant::now());
    }
    (rec.log, ep)
}

/// Replica `k` of filter group `g` on lane `lane`. It owns the frames
/// f ≡ k (mod r) — the strip order within the lane never changes — and
/// runs the group's stages back-to-back on each, in plan order: internal
/// hops are plain function calls, no message, no copy, and each stage's
/// span is measured.
fn replica(sh: &Shared, ep: Endpoint, lane: usize, g: usize, k: usize) -> StageResult {
    let (cfg, layout, group) = (sh.cfg, sh.layout, &sh.plan.groups[g]);
    let groups = &layout.groups[lane];
    // One upstream rank per sender replica; frame f arrives from replica
    // f % |from|. A source counts as one replica, and a full-frame source
    // feeds every lane.
    let source = &layout.sources[lane.min(layout.sources.len() - 1)];
    let from = if g == 0 {
        slice::from_ref(source)
    } else {
        &groups[g - 1]
    };
    let to = groups
        .get(g + 1)
        .map_or(slice::from_ref(&layout.transfer), |v| v);
    let kind = StageKind::PIPELINE_FILTERS[group.start];
    let mut rec = sh.recorder(groups[g][k], kind, Some(lane as u32));
    let chain = standard_chain();
    let backend = cfg.tuning.kernel;
    let mut handled = 0;
    for f in (k as u64..cfg.frames).step_by(group.replicas as usize) {
        let w0 = Instant::now();
        let src = from[(f % from.len() as u64) as usize];
        let raw = sh.recv(&ep, src);
        let r0 = Instant::now();
        let mut frame = decode_frame_checked(raw, src).expect("frame survived transport");
        let ctx = frame.ctx(cfg.seed);
        rec.span(frame.id, Phase::Wait, w0, r0);
        let mut prev = r0;
        for j in group.stages() {
            let pixels = frame.image.as_mut().expect("pixels");
            chain[j].apply_vectored(pixels, &ctx, backend, 1);
            let now = Instant::now();
            let stage = StageKind::PIPELINE_FILTERS[j];
            rec.span_kind(stage, frame.id, Phase::Compute, prev, now);
            prev = now;
        }
        let (id, dst) = (frame.id, to[(f % to.len() as u64) as usize]);
        sh.send(&ep, dst, encode_frame_owned(frame));
        rec.span(id, Phase::Send, prev, Instant::now());
        handled += 1;
    }
    finish(sh, ep, rec, None, handled)
}

/// The transfer stage: frame f's strip arrives from replica f % r of each
/// lane's tail group; the strips assemble into the delivered frame.
fn transfer(sh: &Shared, ep: Endpoint) -> StageResult {
    let (cfg, layout) = (sh.cfg, sh.layout);
    let mut rec = sh.recorder(layout.transfer, StageKind::Transfer, None);
    let mut out = Vec::with_capacity(cfg.frames as usize);
    for f in 0..cfg.frames {
        let w0 = Instant::now();
        let mut strips = Vec::with_capacity(layout.groups.len());
        for tail in layout.groups.iter().map(|g| g.last().unwrap()) {
            let r = tail[(f % tail.len() as u64) as usize];
            let frame = decode_frame_checked(sh.recv(&ep, r), r).expect("frame survived transport");
            strips.push((frame.strip, frame.image.expect("pixels")));
        }
        let c0 = Instant::now();
        // The assembled frame leaves with the report, so it cannot be
        // pooled — but the strips can.
        out.push(assemble_mirrored(&mut strips));
        rec.span(f, Phase::Wait, w0, c0);
        rec.span(f, Phase::Compute, c0, Instant::now());
        for (_, strip) in strips {
            sh.pool.release(strip);
        }
    }
    finish(sh, ep, rec, Some(out), cfg.frames)
}

/// The end of a filter or transfer thread: under `verify` its endpoint's
/// ARQ ledger is audited, then its results are handed back.
fn finish(
    sh: &Shared,
    ep: Endpoint,
    rec: SpanRecorder,
    frames: Option<Vec<Image>>,
    handled: u64,
) -> StageResult {
    if sh.cfg.verify {
        if let Err(e) = ep.audit_arq() {
            panic!("[arq-legality] {e}");
        }
    }
    StageResult {
        kind: rec.kind,
        pipeline: rec.pipeline.unwrap_or(0),
        waits: ep.take_wait_samples(),
        frames,
        log: rec.log,
        handled,
    }
}

/// The report: source traffic, per-stage idle quartiles and telemetry,
/// and the span logs merged in spawn order.
fn report(
    sh: &Shared,
    tel: &TelemetrySink,
    wall: Duration,
    sources: Vec<(TraceLog, Endpoint)>,
    stages: Vec<StageResult>,
) -> NativeReport {
    let cfg = sh.cfg;
    let mut trace = sh.tracing.then(TraceLog::new);
    let mut source_sent = Vec::with_capacity(sources.len());
    for (log, ep) in sources {
        let s = ep.stats();
        source_sent.push((s.sent_messages.load(Relaxed), s.sent_bytes.load(Relaxed)));
        if let Some(t) = trace.as_mut() {
            t.merge(log);
        }
    }
    let mut frames = Vec::new();
    let mut idle_ms = Vec::new();
    for stage in stages {
        let (kind, pl) = (stage.kind, stage.pipeline);
        if let Some(out) = stage.frames {
            frames = out;
        }
        if let Some(t) = trace.as_mut() {
            t.merge(stage.log);
        }
        let ms: Vec<f64> = stage.waits.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        // The transfer stage is unpipelined; native keeps no busy ledger.
        let pipeline = (kind != StageKind::Transfer).then_some(pl);
        let waits = ms.iter().copied();
        record_stage(tel, pipeline, kind.name(), waits, None, stage.handled);
        idle_ms.push((kind, pl, Quartiles::from_samples(&ms)));
    }
    if let Some(t) = trace.as_mut() {
        t.sort_by_time();
    }

    let n = frames.len() as u64;
    let host = HostTiming::from_wall(wall.as_secs_f64(), n, cfg.width, cfg.height);
    let pool_stats = sh.pool.stats();
    record_run(tel, n, wall.as_secs_f64(), None);
    if tel.is_enabled() {
        tel.gauge(names::HOST_FRAMES_PER_SEC, &[], host.frames_per_sec);
        tel.gauge(names::HOST_MPIXELS_PER_SEC, &[], host.mpixels_per_sec);
        tel.count(names::POOL_RECYCLED_TOTAL, &[], pool_stats.recycled);
        tel.count(names::POOL_FRESH_TOTAL, &[], pool_stats.fresh);
        if let Some(t) = trace.as_ref() {
            t.record_into(tel);
        }
    }
    NativeReport {
        wall,
        frames,
        idle_ms,
        host,
        pool_stats,
        source_sent,
        trace: trace.filter(|_| cfg.trace),
        telemetry: tel.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_frames;
    use crate::spec::{Arrangement, Fidelity};
    use scc_filters::fnv1a;
    use scc_render::CityConfig;

    fn scene() -> Arc<Scene> {
        Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 3,
        }))
    }

    fn cfg(mode: RendererMode, pipelines: u32, frames: u64) -> RunConfig {
        RunConfig::builder()
            .renderer(mode)
            .arrangement(Arrangement::Ordered)
            .pipelines(pipelines)
            .size(64, 64)
            .frames(frames)
            .seed(77)
            .fidelity(Fidelity::Full)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn frame_codec_roundtrip() {
        let mut img = Image::new(8, 4);
        img.set(3, 2, [9, 8, 7, 6]);
        let frame = Frame {
            id: 42,
            strip: StripInfo {
                index: 1,
                count: 3,
                y0: 4,
                height: 4,
                full_height: 12,
            },
            full_width: 8,
            image: Some(img.clone()),
        };
        let decoded = decode_frame_checked(encode_frame(&frame), 0).expect("clean decode");
        assert_eq!(decoded.id, 42);
        assert_eq!(decoded.strip, frame.strip);
        assert_eq!(decoded.image.unwrap(), img);
    }

    /// The wire layout written out longhand, for the tests to hold the
    /// codec against: payload, frame id and six strip fields big-endian
    /// (index, count, y0, height, full height, full width), CRC-32 of
    /// everything before it.
    fn reference_wire(id: u64, fields: [u32; 6], payload: &[u8]) -> Vec<u8> {
        let mut wire = payload.to_vec();
        wire.extend_from_slice(&id.to_be_bytes());
        for v in fields {
            wire.extend_from_slice(&v.to_be_bytes());
        }
        let crc = crc32(&wire);
        wire.extend_from_slice(&crc.to_be_bytes());
        wire
    }

    /// A frame's only strip, `h` rows.
    fn whole(h: u32) -> StripInfo {
        StripInfo {
            index: 0,
            count: 1,
            y0: 0,
            height: h,
            full_height: h,
        }
    }

    /// A strip filled with a seeded integer pattern (no renderer, no
    /// filters: the wire bytes depend on the codec alone).
    fn patterned_frame(id: u64, strip: StripInfo, full_width: u32, seed: u64) -> Frame {
        let mut img = Image::new(full_width, strip.height);
        for y in 0..strip.height {
            for x in 0..full_width {
                let v = seed
                    .wrapping_add((x as u64).wrapping_mul(31))
                    .wrapping_add(((strip.y0 + y) as u64).wrapping_mul(97));
                img.set(
                    x,
                    y,
                    [
                        (v % 251) as u8,
                        ((v >> 3) % 241) as u8,
                        ((v >> 5) % 239) as u8,
                        255,
                    ],
                );
            }
        }
        Frame {
            id,
            strip,
            full_width,
            image: Some(img),
        }
    }

    /// The exact bytes `encode_frame` puts on the wire, checked against a
    /// reference writer of the layout (payload, eight big-endian fields,
    /// CRC-32 of both) and pinned by length and FNV-1a hash for three
    /// fixed frames: a 2x2 single strip, strip 1 of 2 of a 400x400 frame,
    /// and a 1-pixel-wide strip whose 28-byte payload is not a multiple
    /// of 16.
    #[test]
    fn encode_frame_wire_bytes_are_pinned() {
        let lower_half = StripInfo {
            index: 1,
            count: 2,
            y0: 200,
            height: 200,
            full_height: 400,
        };
        let frames = [
            patterned_frame(1, whole(2), 2, 0xF11A),
            patterned_frame(0x0123_4567_89AB_CDEF, lower_half, 400, 0xD00D_FEED),
            patterned_frame(u64::MAX, whole(7), 1, 7),
        ];
        let got: Vec<(usize, u64)> = frames
            .iter()
            .map(|f| {
                let wire = encode_frame(f);
                let s = f.strip;
                let fields = [
                    s.index,
                    s.count,
                    s.y0,
                    s.height,
                    s.full_height,
                    f.full_width,
                ];
                let pixels = f.image.as_ref().unwrap().as_bytes();
                assert_eq!(wire, reference_wire(f.id, fields, pixels)[..]);
                (wire.len(), fnv1a(&wire))
            })
            .collect();
        let want = [
            (52, 0xa44a_2acd_467e_9145),
            (320_036, 0x2ddb_fa30_c7cf_f1a4),
            (64, 0xd12b_92f1_10a2_a46f),
        ];
        assert_eq!(got, want);
    }

    /// A correctly-checksummed message of frame 0, strip 0 of 1 at row 0,
    /// claiming `full_width` x `height` pixels over `payload`.
    fn checksummed(full_width: u32, height: u32, payload: &[u8]) -> Vec<u8> {
        let fields = [0, 1, 0, height, height, full_width];
        reference_wire(0, fields, payload)
    }

    #[test]
    fn codec_rejects_bad_payload() {
        // The payload length lies about the geometry: the CRC passes, the
        // size check must still fire.
        assert!(matches!(
            try_decode(checksummed(8, 4, &[0u8; 3])),
            Err(DecodeFailure::SizeMismatch)
        ));
    }

    #[test]
    fn codec_rejects_hostile_header_geometry() {
        // Geometries whose byte count wraps to the payload's length when
        // multiplied unchecked (2^31 x 2^31 x 4 = 2^64 = 0 over no pixels;
        // u32::MAX^2 x 4 = 2^64 - 2^35 + 4 = 4 mod 2^64 over one pixel)
        // and empty strips. Each used to panic in debug builds and decode
        // to an `Image` over the wrong buffer in release builds.
        let pixel = [0u8; 4];
        for (full_width, height, payload) in [
            (1u32 << 31, 1u32 << 31, &pixel[..0]),
            (u32::MAX, u32::MAX, &pixel[..]),
            (0, 7, &pixel[..0]),
            (7, 0, &pixel[..0]),
            (0, 0, &pixel[..0]),
        ] {
            assert!(
                matches!(
                    decode_frame_checked(checksummed(full_width, height, payload), 2),
                    Err(RcceError::Corrupt { rank: 2 })
                ),
                "{full_width} x {height} over {} bytes",
                payload.len()
            );
        }
    }

    /// The point of the trailer layout: a strip sent through five
    /// consuming hops stays in the allocation its first hop sealed.
    #[test]
    fn a_strip_keeps_one_allocation_across_hops() {
        let strip = StripInfo {
            index: 1,
            count: 2,
            y0: 9,
            height: 9,
            full_height: 18,
        };
        let first = patterned_frame(5, strip, 67, 0xBEEF);
        let pixels = first.image.clone().unwrap();
        // An image from `Image::new` has no spare capacity: the first
        // seal may move it, none after that.
        let mut frame = decode_frame_checked(encode_frame_owned(first), 0).unwrap();
        let home = frame.image.as_ref().unwrap().as_bytes().as_ptr();
        let mut capacity = None;
        for hop in 1..5 {
            let wire = encode_frame_owned(frame);
            assert_eq!(wire.as_ptr(), home, "hop {hop}: seal moved the strip");
            assert_eq!(wire.len(), pixels.as_bytes().len() + FRAME_TRAILER);
            frame = decode_frame_checked(wire, 0).unwrap();
            let raw = frame.image.take().unwrap().into_raw();
            assert_eq!(raw.as_ptr(), home, "hop {hop}: decode moved the strip");
            assert!(raw.capacity() >= raw.len() + FRAME_TRAILER);
            assert_eq!(*capacity.get_or_insert(raw.capacity()), raw.capacity());
            frame.image = Some(Image::from_raw(67, strip.height, raw));
        }
        assert_eq!((frame.id, frame.strip, frame.full_width), (5, strip, 67));
        assert_eq!(frame.image.unwrap(), pixels);
    }

    /// A reliable hop decodes in place like a plain one: `recv_reliable`
    /// truncates the envelope trailer off the buffer the message arrived
    /// in, and that buffer becomes the strip's image, with room left to
    /// seal the next hop.
    #[test]
    fn a_reliable_hop_decodes_in_the_buffer_it_arrived_in() {
        let frame = patterned_frame(3, whole(5), 6, 11);
        let wire = encode_frame(&frame);
        let mut eps = communicator(2, 2, MpbConfig::default());
        let (rx, tx) = (eps.pop().unwrap(), eps.pop().unwrap());
        let sender = thread::spawn(move || tx.send_reliable(1, wire));
        let got = rx.recv_reliable(0).expect("no faults");
        sender.join().unwrap().expect("acknowledged");
        assert_eq!(got, encode_frame(&frame));
        let home = got.as_ptr();
        let decoded = decode_frame_checked(got, 0).expect("intact");
        let raw = decoded.image.unwrap().into_raw();
        assert_eq!(raw.as_ptr(), home, "decode moved the strip");
        assert!(raw.capacity() >= raw.len() + FRAME_TRAILER);
        assert_eq!(Some(raw), frame.image.map(Image::into_raw));
    }

    #[test]
    fn every_message_shorter_than_the_trailer_is_corrupt() {
        let frame = patterned_frame(1, whole(1), 1, 2);
        let wire = encode_frame(&frame);
        for len in 0..FRAME_TRAILER {
            // Both ends of a real message, and zeros.
            for short in [&wire[..len], &wire[wire.len() - len..], &[0u8; 36][..len]] {
                assert!(matches!(
                    decode_frame_checked(short.to_vec(), 4),
                    Err(RcceError::Corrupt { rank: 4 })
                ));
            }
        }
    }

    #[test]
    fn codec_rejects_flipped_pixel_bit() {
        let frame = Frame {
            id: 1,
            strip: StripInfo {
                index: 0,
                count: 1,
                y0: 0,
                height: 2,
                full_height: 2,
            },
            full_width: 2,
            image: Some(Image::new(2, 2)),
        };
        let mut raw = encode_frame(&frame);
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        assert!(matches!(try_decode(raw), Err(DecodeFailure::Crc)));
    }

    #[test]
    fn checked_decode_reports_corruption_instead_of_panicking() {
        let frame = Frame {
            id: 9,
            strip: StripInfo {
                index: 0,
                count: 1,
                y0: 0,
                height: 1,
                full_height: 1,
            },
            full_width: 4,
            image: Some(Image::new(4, 1)),
        };
        let good = encode_frame(&frame);
        assert!(decode_frame_checked(good.clone(), 3).is_ok());
        let mut bad = good.clone();
        bad[20] ^= 1; // somewhere in the header
        assert!(matches!(
            decode_frame_checked(bad, 3),
            Err(RcceError::Corrupt { rank: 3 })
        ));
        assert!(matches!(
            decode_frame_checked(vec![1u8; 10], 5),
            Err(RcceError::Corrupt { rank: 5 })
        ));
    }

    #[test]
    fn native_single_renderer_matches_reference() {
        let c = cfg(RendererMode::SingleRenderer, 2, 4);
        let native = run_native(&c, scene());
        let reference = reference_frames(&c, scene());
        assert_eq!(native.frames.len(), 4);
        assert_eq!(native.frames, reference, "native output != reference");
    }

    #[test]
    fn native_per_pipeline_renderer_matches_its_reference() {
        let c = cfg(RendererMode::PerPipelineRenderer, 3, 3);
        let native = run_native(&c, scene());
        let reference = reference_frames(&c, scene());
        assert_eq!(native.frames, reference);
    }

    #[test]
    fn native_mcpc_mode_matches_reference() {
        let c = cfg(RendererMode::McpcRenderer, 2, 3);
        let native = run_native(&c, scene());
        // The MCPC-mode data path renders full frames and splits — same
        // as the single-renderer reference.
        let mut ref_cfg = c.clone();
        ref_cfg.renderer = RendererMode::SingleRenderer;
        let reference = reference_frames(&ref_cfg, scene());
        assert_eq!(native.frames, reference);
    }

    /// What a change to how strips move between threads must not move: a
    /// 3-frame film equals the sequential reference checksum for checksum
    /// in every renderer mode, pool on and off, and each source puts
    /// `payload + 36` bytes a strip on the wire. 64x48 splits evenly; 97
    /// rows leave remainder rows at p = 3 (strips of 33, 32, 32) and at
    /// p = 7 (six of 14, one of 13), strips shorter than 25 rows.
    #[test]
    fn film_checksums_and_source_traffic_are_pinned() {
        use crate::viz::frame_checksum;
        // (mode, pipelines, height, sources, (messages, bytes) per source).
        let cases = [
            (RendererMode::SingleRenderer, 2, 48, 1, (6, 37_080)),
            (RendererMode::PerPipelineRenderer, 3, 48, 3, (3, 12_396)),
            (RendererMode::McpcRenderer, 2, 48, 1, (6, 37_080)),
            (RendererMode::SingleRenderer, 3, 97, 1, (9, 74_820)),
            (RendererMode::SingleRenderer, 7, 97, 1, (21, 75_252)),
            (RendererMode::McpcRenderer, 3, 97, 1, (9, 74_820)),
            (RendererMode::McpcRenderer, 7, 97, 1, (21, 75_252)),
        ];
        for (mode, p, height, sources, sent) in cases {
            let mut c = cfg(mode, p, 3);
            c.height = height;
            let mut ref_cfg = c.clone();
            if mode == RendererMode::McpcRenderer {
                ref_cfg.renderer = RendererMode::SingleRenderer;
            }
            let want: Vec<u64> = reference_frames(&ref_cfg, scene())
                .iter()
                .map(frame_checksum)
                .collect();
            for pooled in [true, false] {
                c.tuning.buffer_pool = pooled;
                let report = run_native(&c, scene());
                let got: Vec<u64> = report.frames.iter().map(frame_checksum).collect();
                let what = format!("{mode:?} p={p} h={height} pooled={pooled}");
                assert_eq!(got, want, "{what}");
                assert_eq!(report.source_sent, vec![sent; sources], "{what}");
            }
        }
    }

    /// What a change to how the stage threads are spawned, joined and
    /// merged must not move: for a traced 64x48, 3-frame, p = 2 film in
    /// every renderer mode (and once under auto placement), the sorted
    /// `(core, kind, pipeline, frame, phase)` span list, the
    /// `(kind, pipeline)` order of `idle_ms` and each source's traffic.
    /// Wall times stay out.
    #[test]
    fn trace_layout_idle_order_and_source_traffic_are_pinned() {
        // (mode, auto_place, span hash, idle-order hash, per-source traffic).
        let cases = [
            (
                RendererMode::SingleRenderer,
                false,
                0xa229_0cef_298e_98af,
                0x2c15_d40a_f6b7_911c,
                vec![(6, 37_080)],
            ),
            (
                RendererMode::PerPipelineRenderer,
                false,
                0xfad0_78dd_90cf_2037,
                0x2c15_d40a_f6b7_911c,
                vec![(3, 18_540); 2],
            ),
            (
                RendererMode::McpcRenderer,
                false,
                0xa229_0cef_298e_98af,
                0x2c15_d40a_f6b7_911c,
                vec![(6, 37_080)],
            ),
            (
                RendererMode::SingleRenderer,
                true,
                0x89a7_a571_e27c_60f9,
                0x1a9d_c146_6830_e5c4,
                vec![(6, 37_080)],
            ),
        ];
        for (mode, auto_place, spans, idle, sent) in cases {
            let mut c = cfg(mode, 2, 3);
            c.height = 48;
            c.trace = true;
            c.auto_place = auto_place;
            let report = run_native(&c, scene());
            let mut layout: Vec<_> = report
                .trace
                .expect("trace requested")
                .events()
                .iter()
                .map(|e| (e.core, e.kind.name(), e.pipeline, e.frame, e.phase.name()))
                .collect();
            layout.sort();
            let order: Vec<_> = report
                .idle_ms
                .iter()
                .map(|(k, pl, _)| (k.name(), *pl))
                .collect();
            let got = (
                fnv1a(format!("{layout:?}").as_bytes()),
                fnv1a(format!("{order:?}").as_bytes()),
                report.source_sent,
            );
            assert_eq!(got, (spans, idle, sent), "{mode:?} auto_place={auto_place}");
        }
    }

    #[test]
    fn native_auto_placement_matches_reference_all_modes() {
        // The scheduler plan on real threads: merged groups share a
        // thread, replicas stripe frames — the film must still equal the
        // sequential oracle bit-for-bit in every renderer mode.
        for mode in [
            RendererMode::SingleRenderer,
            RendererMode::PerPipelineRenderer,
            RendererMode::McpcRenderer,
        ] {
            let mut c = cfg(mode, 2, 5);
            c.auto_place = true;
            let native = run_native(&c, scene());
            let mut ref_cfg = c.clone();
            if mode == RendererMode::McpcRenderer {
                ref_cfg.renderer = RendererMode::SingleRenderer;
            }
            let reference = reference_frames(&ref_cfg, scene());
            assert_eq!(
                native.frames, reference,
                "{mode:?} diverged under auto placement"
            );
        }
    }

    #[test]
    fn native_auto_placement_survives_message_faults() {
        use crate::spec::FaultSpec;
        let mut c = cfg(RendererMode::SingleRenderer, 2, 4);
        c.auto_place = true;
        c.verify = true;
        c.fault = Some(FaultSpec {
            seed: 0xC1A05,
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            timeout_us: 100_000,
            retry_budget: 5,
            ..FaultSpec::default()
        });
        let native = run_native(&c, scene());
        let mut clean = c.clone();
        clean.fault = None;
        clean.auto_place = false;
        let reference = reference_frames(&clean, scene());
        assert_eq!(native.frames, reference);
    }

    #[test]
    fn idle_stats_are_collected() {
        let c = cfg(RendererMode::SingleRenderer, 2, 6);
        let report = run_native(&c, scene());
        // 2 pipelines × 5 filters + transfer = 11 instrumented stages.
        assert_eq!(report.idle_ms.len(), 11);
        for (_, _, q) in &report.idle_ms {
            let q = q.expect("samples recorded");
            assert!(q.median >= 0.0);
        }
        assert!(report.wall > Duration::ZERO);
    }

    #[test]
    fn pooling_does_not_change_output() {
        let base = cfg(RendererMode::SingleRenderer, 2, 3);
        let reference = reference_frames(&base, scene());
        for pooled in [false, true] {
            let mut c = base.clone();
            c.tuning.buffer_pool = pooled;
            let report = run_native(&c, scene());
            assert_eq!(
                report.frames, reference,
                "pooled={pooled} diverged from reference"
            );
        }
    }

    #[test]
    fn pool_recycles_and_host_timing_is_populated() {
        // The pool serves the two ends of the pipeline: a buffer comes
        // back when the transfer stage is done with a frame. A lane holds
        // at most 18 strips past its source (six windows of 2, five
        // filter threads, the transfer stage), so the 20th frame's
        // acquire follows the first frame's release however the threads
        // are scheduled; a shorter film may finish on fresh buffers.
        let c = cfg(RendererMode::SingleRenderer, 2, 24);
        let report = run_native(&c, scene());
        let s = report.pool_stats;
        assert!(s.recycled > 0, "steady state must reuse buffers: {s:?}");
        assert!(s.returned > 0);
        assert_eq!(report.host.frames, 24);
        assert!(report.host.frames_per_sec > 0.0);
        assert!(report.host.wall_secs > 0.0);

        let mut unpooled = c.clone();
        unpooled.tuning.buffer_pool = false;
        let report = run_native(&unpooled, scene());
        assert_eq!(report.pool_stats, PoolStats::default());
    }

    #[test]
    fn trace_flag_yields_wall_clock_spans() {
        // Regression: `trace: true` used to be silently ignored by the
        // native runner — the report had no field to carry it at all.
        let mut c = cfg(RendererMode::SingleRenderer, 2, 3);
        c.trace = true;
        let report = run_native(&c, scene());
        let log = report.trace.expect("trace requested, trace delivered");
        assert!(!log.is_empty());
        // Every filter stage computed every frame on the wall clock.
        for kind in StageKind::PIPELINE_FILTERS {
            let busy = log.phase_total(kind, crate::trace::Phase::Compute);
            assert!(
                busy > SimTime::ZERO,
                "{} recorded no compute time",
                kind.name()
            );
        }
        // Spans stay within the measured wall-clock window and export to
        // the same Chrome format as the simulator's trace.
        let wall = SimTime::from_ns(report.wall.as_nanos() as u64);
        for e in log.events() {
            assert!(e.t0 < e.t1 && e.t1 <= wall);
        }
        let json = log.to_chrome_json();
        assert!(json.contains(r#""ph":"X""#) && json.contains("compute"));

        let untraced = run_native(&cfg(RendererMode::SingleRenderer, 2, 3), scene());
        assert!(untraced.trace.is_none(), "no trace unless requested");
    }

    #[test]
    fn merged_group_spans_are_measured_per_stage() {
        // A merged group's thread times every stage it runs: one Compute
        // span per (stage, lane, frame), back-to-back on the thread's own
        // clock — never an apportioned share of a longer interval.
        let (p, frames) = (2u32, 4u64);
        let mut c = cfg(RendererMode::SingleRenderer, p, frames);
        c.auto_place = true;
        c.trace = true;
        assert!(
            crate::partition::plan_for(&c)
                .groups
                .iter()
                .any(|g| g.len > 1),
            "the plan must merge something for this test to bind"
        );
        let log = run_native(&c, scene()).trace.expect("trace requested");
        for kind in StageKind::PIPELINE_FILTERS {
            let spans = log
                .events()
                .iter()
                .filter(|e| e.kind == kind && e.phase == Phase::Compute)
                .count() as u64;
            assert_eq!(spans, p as u64 * frames, "{} compute spans", kind.name());
        }
        let mut by_rank: std::collections::BTreeMap<u8, Vec<(SimTime, SimTime)>> =
            Default::default();
        for e in log.events() {
            by_rank.entry(e.core).or_default().push((e.t0, e.t1));
        }
        for (rank, mut spans) in by_rank {
            spans.sort();
            for w in spans.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "rank {rank}: {:?} overlaps {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn deterministic_output_across_runs() {
        let c = cfg(RendererMode::SingleRenderer, 3, 3);
        let a = run_native(&c, scene());
        let b = run_native(&c, scene());
        assert_eq!(a.frames, b.frames);
    }

    #[test]
    fn native_run_survives_drops_and_corruption() {
        use crate::spec::FaultSpec;
        let mut c = cfg(RendererMode::SingleRenderer, 2, 3);
        c.verify = true; // every endpoint's ARQ ledger is audited at exit
        c.fault = Some(FaultSpec {
            seed: 0xC1A05,
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            timeout_us: 100_000, // generous for a loaded 1-CPU host
            retry_budget: 5,
            ..FaultSpec::default()
        });
        let native = run_native(&c, scene());
        let mut clean = c.clone();
        clean.fault = None;
        let reference = reference_frames(&clean, scene());
        assert_eq!(
            native.frames, reference,
            "retry protocol must hide injected message faults"
        );
    }

    /// Reliable hops re-frame every message, so a strip's buffer does not
    /// survive them: drops, corruption and delays together, over the
    /// per-pipeline sources' recycled targets, still deliver the film.
    #[test]
    fn native_strips_survive_drops_corruption_and_delays() {
        use crate::spec::FaultSpec;
        let mut c = cfg(RendererMode::PerPipelineRenderer, 2, 4);
        c.verify = true;
        c.fault = Some(FaultSpec {
            seed: 0xD1A7,
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            delay_rate: 0.1,
            timeout_us: 100_000,
            retry_budget: 5,
            ..FaultSpec::default()
        });
        let native = run_native(&c, scene());
        let mut clean = c.clone();
        clean.fault = None;
        assert_eq!(native.frames, reference_frames(&clean, scene()));
    }
}
