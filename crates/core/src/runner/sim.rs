//! Virtual-time execution of the parallel macro pipeline on the simulated
//! SCC.
//!
//! Every stage is a sequential process — *receive a strip, process it,
//! hand it on* — with RCCE-style rendezvous flow control: a sender blocks
//! until its receiver has finished the previous frame, so the pipeline is
//! self-clocking at the bottleneck stage's rate, exactly like the paper's
//! system. Because the stage graph is a tree processed in topological
//! order, the whole walkthrough can be timed frame-by-frame without an
//! explicit event queue while still sharing the platform's contended
//! resources (mesh links, memory controllers, host link) in timestamp
//! order.
//!
//! Message timing follows the SCC's no-local-memory path: payloads land in
//! the **receiver's DRAM partition** and are fetched back out before
//! processing (`SccPlatform::{send_to_partition, fetch_from_partition}`) —
//! the overhead the paper identifies as the platform's key weakness.
//!
//! All three film executors — this one, the event-driven [`super::des`]
//! validator and the task runtime (`crate::taskrt`) — run on one
//! `FilmRun`: the [`SimRunner`] parts, the `StageLedgers` (whose
//! `replica` is the one mapping from a frame to the replica ledger that
//! runs it), the power plane, the stage lowering and the delivered
//! frames, ending in the shared `FilmRun::finish`. Everything a run does
//! about faults goes through the one [`RecoveryPlane`] the parts hold.
//! `FrameMajor` keeps what is this executor's own: where a failed send
//! or a dead stage is observed (one `send_or_heal` for the source send
//! and every handoff, the walk's resident-strip check), which ledger
//! slots a migration re-homes, the failover + re-send policy, the span
//! log and the degradation telemetry.

use super::source::FilmSource;
use super::stage::FilmStages;
use crate::cost::CostModel;
use crate::facade::{Backend, RunError};
use crate::frame::Frame;
use crate::invariant::Violation;
use crate::metrics::{StageReport, TaskStats, WalkthroughReport};
use crate::partition::StagePlan;
use crate::placement::Placement;
use crate::power_plane::PowerPlane;
use crate::spec::{Fidelity, RunConfig, StageKind};
use crate::supervise::{Episode, RecoveryPlane};
use crate::trace::{Phase, TraceLog};
use scc_filters::Image;
use scc_render::{Renderer, Scene, Walkthrough};
use scc_sim::{CoreId, SccConfig, SccPlatform, SimTime};
use scc_telemetry::{names, EventKind, TelemetrySink, IDLE_MS_BUCKETS};
use std::sync::Arc;

/// Per-stage runtime state. Shared with the event-driven executor
/// ([`super::des`]) and the task runtime ([`crate::taskrt`]), whose
/// ledgers keep the same shape, so all three produce identical
/// stage-report structures.
pub(crate) struct StageState {
    pub(crate) kind: StageKind,
    pub(crate) core: CoreId,
    pub(crate) pipeline: Option<u32>,
    /// Time the stage finished its previous frame (ready for the next).
    pub(crate) free: SimTime,
    pub(crate) busy: SimTime,
    pub(crate) idle_samples: Vec<SimTime>,
    pub(crate) frames: u64,
}

impl StageState {
    pub(crate) fn new(kind: StageKind, core: CoreId, pipeline: Option<u32>) -> StageState {
        StageState {
            kind,
            core,
            pipeline,
            free: SimTime::ZERO,
            busy: SimTime::ZERO,
            idle_samples: Vec::new(),
            frames: 0,
        }
    }

    /// One more frame, the core busy with it from `start` to `done`.
    pub(crate) fn advance(&mut self, start: SimTime, done: SimTime) {
        self.busy += done - start;
        self.free = done;
        self.frames += 1;
    }

    pub(crate) fn report(&self) -> StageReport {
        StageReport {
            kind: self.kind,
            pipeline: self.pipeline,
            core_id: self.core.raw(),
            busy_secs: self.busy.as_secs_f64(),
            idle_ms: scc_sim::stats::Quartiles::from_times(&self.idle_samples),
            idle_total_secs: self
                .idle_samples
                .iter()
                .copied()
                .sum::<SimTime>()
                .as_secs_f64(),
            frames: self.frames,
        }
    }
}

/// The simulated-SCC pipeline runner.
pub struct SimRunner {
    pub(crate) cfg: RunConfig,
    pub(crate) cost: CostModel,
    pub(crate) placement: Placement,
    pub(crate) plan: StagePlan,
    pub(crate) platform: SccPlatform,
    pub(crate) renderer: Arc<Renderer>,
    pub(crate) walkthrough: Walkthrough,
    pub(crate) recovery: RecoveryPlane,
    pub(crate) tel: TelemetrySink,
}

impl SimRunner {
    /// The default parts: default platform and cost model, and the
    /// placement implied by the configuration — the scheduler's when
    /// [`RunConfig::auto_place`] is set, else the fixed arrangement.
    /// [`crate::try_run_with_scene`] has checked `cfg` by the time it
    /// assembles a runner.
    pub(crate) fn new(cfg: RunConfig, scene: Arc<Scene>) -> SimRunner {
        let placement = crate::partition::placement_for(&cfg);
        SimRunner::assemble(
            cfg,
            scene,
            placement,
            SccPlatform::new(SccConfig::default()),
            CostModel::default(),
        )
    }

    /// The parts-override constructor: what [`crate::try_run`] cannot
    /// take — a placement (the DVFS experiment's), another platform,
    /// another cost calibration — for the static sim pipeline, which
    /// [`SimRunner::run`] then executes. `cfg` passes the same check as
    /// through the front door.
    pub fn with_parts(
        cfg: RunConfig,
        scene: Arc<Scene>,
        placement: Placement,
        platform: SccPlatform,
        cost: CostModel,
    ) -> Result<SimRunner, RunError> {
        crate::facade::check(&cfg, Backend::Sim)?;
        if cfg.runtime != crate::spec::Runtime::Static || !cfg.workload.is_film() {
            return Err(RunError::Unsupported {
                backend: Backend::Sim,
                why: "SimRunner::with_parts assembles the static film pipeline; \
                      the task runtime and the workload plane take the default parts",
            });
        }
        Ok(SimRunner::assemble(cfg, scene, placement, platform, cost))
    }

    fn assemble(
        cfg: RunConfig,
        scene: Arc<Scene>,
        placement: Placement,
        platform: SccPlatform,
        cost: CostModel,
    ) -> SimRunner {
        let plan = crate::partition::plan_for(&cfg);
        let walkthrough = Walkthrough::standard(cfg.width as f32 / cfg.height as f32);
        // One sink for the whole run: the frame loop, the ARQ retry
        // path, and the supervisor all record into it. Disabled (the
        // default) it is a no-op and cannot perturb anything.
        let tel = TelemetrySink::from_enabled(cfg.telemetry);
        let mut platform = platform;
        let recovery = RecoveryPlane::arm(&cfg, &placement, &mut platform, tel.clone());
        // Every film executor on these parts lets the platform apply the
        // schedule too (stall windows, degraded links, flit delays).
        if let Some(plan) = recovery.fault_plan() {
            platform.set_fault_plan(plan);
        }
        SimRunner {
            renderer: Arc::new(Renderer::new(scene)),
            cfg,
            cost,
            placement,
            plan,
            platform,
            walkthrough,
            recovery,
            tel,
        }
    }

    /// Execute the static frame-major walkthrough on these parts;
    /// consumes the runner.
    pub fn run(self) -> WalkthroughReport {
        debug_assert_eq!(self.cfg.runtime, crate::spec::Runtime::Static);
        // The invariant checker walks the span log even when the caller
        // did not ask for a trace: collect internally and strip it from
        // the report afterwards. Span collection never feeds back into
        // the virtual timeline, so `verify` cannot change results. The
        // telemetry event stream is fed from the same log, so an enabled
        // sink also forces internal collection.
        let trace =
            (self.cfg.trace || self.cfg.verify || self.tel.is_enabled()).then(TraceLog::new);
        let mut fm = FrameMajor {
            run: FilmRun::new(self),
            trace,
        };
        for f in 0..fm.run.r.cfg.frames {
            fm.frame(f);
        }
        fm.finish()
    }
}

/// Every stage ledger of a film run, in the one shape all three film
/// executors report from: `extras[lane][j]` holds replicas `1..r` of
/// stage `j` (scheduler placements only).
pub(crate) struct StageLedgers {
    pub(crate) source: FilmSource,
    pub(crate) filters: Vec<[StageState; 5]>,
    pub(crate) extras: Vec<[Vec<StageState>; 5]>,
    pub(crate) transfer: StageState,
}

impl StageLedgers {
    pub(crate) fn new(cfg: &RunConfig, placement: &Placement) -> StageLedgers {
        let filter = |i: usize, j: usize, core: CoreId| {
            StageState::new(StageKind::PIPELINE_FILTERS[j], core, Some(i as u32))
        };
        StageLedgers {
            source: FilmSource::new(cfg, placement),
            filters: placement
                .pipelines
                .iter()
                .enumerate()
                .map(|(i, cores)| std::array::from_fn(|j| filter(i, j, cores[j])))
                .collect(),
            extras: (0..placement.pipelines.len())
                .map(|i| {
                    std::array::from_fn(|j| {
                        placement
                            .replica_extras(i as u32, j)
                            .iter()
                            .map(|&c| filter(i, j, c))
                            .collect()
                    })
                })
                .collect(),
            transfer: StageState::new(StageKind::Transfer, placement.transfer, None),
        }
    }

    /// The ledger of replica `k` of lane `i`'s stage `j`: the primary for
    /// `k = 0`, the scheduler's extra `k - 1` otherwise.
    pub(crate) fn slot(&mut self, i: usize, j: usize, k: usize) -> &mut StageState {
        match k {
            0 => &mut self.filters[i][j],
            k => &mut self.extras[i][j][k - 1],
        }
    }

    /// The ledger that runs frame `f` at lane `i`'s stage `j`: replica
    /// `f % r`, which keeps strips in order within the lane. A stage
    /// without replica ledgers (every fixed placement) is its primary.
    pub(crate) fn replica(
        &mut self,
        plan: &StagePlan,
        i: usize,
        j: usize,
        f: u64,
    ) -> &mut StageState {
        if self.extras[i][j].is_empty() {
            return &mut self.filters[i][j];
        }
        self.slot(i, j, (f % u64::from(plan.replicas_of(j))) as usize)
    }

    /// Every ledger in report order. Replica clones report alongside
    /// their primaries, so the frame ledger still sums to pipelines x
    /// frames per stage position.
    fn all(&self) -> impl Iterator<Item = &StageState> {
        self.source
            .renderers
            .iter()
            .chain(&self.source.connector)
            .chain(self.filters.iter().flatten())
            .chain(self.extras.iter().flatten().flatten())
            .chain(std::iter::once(&self.transfer))
    }
}

/// A film run in flight — what the three film executors share: the
/// parts, every stage ledger, the power plane, the stage lowering, the
/// delivered frames and the instant the last one left the chip.
pub(crate) struct FilmRun {
    pub(crate) r: SimRunner,
    pub(crate) ledgers: StageLedgers,
    pub(crate) power: PowerPlane,
    pub(crate) stages: FilmStages,
    pub(crate) outputs: Vec<Image>,
    pub(crate) finish: SimTime,
}

impl FilmRun {
    /// Lay the ledgers out on `r`'s placement and arm its power
    /// configuration. The source cores never report idle, so a governor
    /// must not read their silence as coasting; the task runtime, which
    /// reports no idle at all, is never governed (`validate` refuses it).
    pub(crate) fn new(mut r: SimRunner) -> FilmRun {
        let (cfg, sources) = (&r.cfg, r.placement.source_cores());
        let power = PowerPlane::arm(cfg, &mut r.platform, cfg.frames, sources);
        FilmRun {
            ledgers: StageLedgers::new(cfg, &r.placement),
            stages: FilmStages::new(cfg),
            power,
            outputs: Vec::new(),
            finish: SimTime::ZERO,
            r,
        }
    }

    /// The tail once the last frame is out: the supervised run's
    /// heartbeat traffic, the stage reports, energy, the run-level
    /// telemetry rollup, and — behind `cfg.verify` — the invariant
    /// checker.
    pub(crate) fn finish(
        self,
        task_stats: Option<TaskStats>,
        trace: Option<TraceLog>,
    ) -> WalkthroughReport {
        let (mut runner, ledgers, power, finish) = (self.r, self.ledgers, self.power, self.finish);
        // Every placed core heartbeats the MCPC once per period for the
        // whole walkthrough (killed cores go silent at their fail-stop).
        // Booked after the run so the charges appear in the ledgers as real
        // NoC and host-link messages without re-timing completed stage work.
        runner
            .recovery
            .finish(&mut runner.platform, &runner.placement, finish);
        let tel = &runner.tel;
        let totals = power.finish(&runner.platform, finish, tel);
        for s in ledgers.all() {
            let idle_ms = s.idle_samples.iter().map(|t| t.as_secs_f64() * 1e3);
            let busy = Some(s.busy.as_secs_f64());
            record_stage(tel, s.pipeline, s.kind.name(), idle_ms, busy, s.frames);
        }
        let platform = Some(&runner.platform);
        record_run(tel, ledgers.transfer.frames, finish.as_secs_f64(), platform);

        let mut report = WalkthroughReport {
            config: runner.cfg.clone(),
            total_secs: finish.as_secs_f64(),
            stage_reports: ledgers.all().map(StageState::report).collect(),
            power_trace: power.power_trace(&runner.platform, finish),
            scc_energy_joules: totals.energy_joules,
            scc_idle_power: totals.idle_floor_watts,
            dvfs_decisions: power.decisions(),
            mcpc_busy_secs: ledgers.source.mcpc_busy.as_secs_f64(),
            platform: runner.platform.stats(),
            degradations: std::mem::take(&mut runner.recovery.degradations),
            recoveries: std::mem::take(&mut runner.recovery.recoveries),
            task_stats,
            outputs: (runner.cfg.fidelity == Fidelity::Full).then_some(self.outputs),
            trace,
            telemetry: tel.snapshot(),
        };
        enforce_audited(&runner.cfg, &runner.platform, || {
            crate::invariant::check_report(&report)
        });
        if !runner.cfg.trace {
            report.trace = None;
        }
        report
    }
}

/// Record one stage's per-run ledgers — the Figure 15 idle distribution
/// (milliseconds), busy time where the executor keeps it, frame count —
/// into the sink under `{stage, pipeline}` labels (`pipeline="-"` for
/// unpipelined stages, keeping one label set per metric family). Every
/// report tail records its stages through this; a disabled sink formats
/// no label.
pub(crate) fn record_stage(
    tel: &TelemetrySink,
    pipeline: Option<u32>,
    stage: &str,
    idle_ms: impl IntoIterator<Item = f64>,
    busy_secs: Option<f64>,
    frames: u64,
) {
    if !tel.is_enabled() {
        return;
    }
    let pl = pipeline.map(|i| i.to_string());
    let labels = [("pipeline", pl.as_deref().unwrap_or("-")), ("stage", stage)];
    if let Some(h) = tel.histogram(names::STAGE_IDLE_MS, &labels, IDLE_MS_BUCKETS) {
        idle_ms.into_iter().for_each(|ms| h.observe(ms));
    }
    if let Some(busy) = busy_secs {
        tel.gauge(names::STAGE_BUSY_SECONDS, &labels, busy);
    }
    tel.count(names::STAGE_FRAMES_TOTAL, &labels, frames);
}

/// Record the run-level rollup: frames delivered, the run's length and,
/// for a virtual-time run, the mesh's message and byte totals. A
/// disabled sink gathers no platform stats.
pub(crate) fn record_run(tel: &TelemetrySink, frames: u64, secs: f64, noc: Option<&SccPlatform>) {
    if !tel.is_enabled() {
        return;
    }
    tel.count(names::FRAMES_TOTAL, &[], frames);
    tel.gauge(names::WALKTHROUGH_SECONDS, &[], secs);
    if let Some(stats) = noc.map(SccPlatform::stats) {
        tel.count(names::NOC_MESSAGES_TOTAL, &[], stats.noc_messages);
        tel.count(names::NOC_BYTES_TOTAL, &[], stats.noc_bytes);
    }
}

/// Behind `cfg.verify`: the report's invariant violations (`check`) plus
/// the NoC conservation audit, enforced — the end of both virtual-time
/// report tails.
pub(crate) fn enforce_audited(
    cfg: &RunConfig,
    platform: &SccPlatform,
    check: impl FnOnce() -> Vec<Violation>,
) {
    if cfg.verify {
        let mut violations = check();
        if let Err(e) = platform.audit_noc() {
            violations.push(Violation::new("noc-conservation", e));
        }
        crate::invariant::enforce(cfg, &violations);
    }
}

/// The frame-major walkthrough in flight: the shared run and the span
/// log.
struct FrameMajor {
    run: FilmRun,
    trace: Option<TraceLog>,
}

/// One strip's pass through lane `lane` in frame `f`: its size, and the
/// checkpointed frames a replay of it re-sends.
#[derive(Clone, Copy)]
struct Pass {
    f: u64,
    lane: usize,
    bytes: u64,
    in_flight: u32,
}

impl FrameMajor {
    /// The ledger running `pass`'s frame at stage `j` of its lane.
    fn stage(&mut self, pass: Pass, j: usize) -> &mut StageState {
        let run = &mut self.run;
        run.ledgers.replica(&run.r.plan, pass.lane, j, pass.f)
    }

    /// Frame `f` end to end: render and send its strips, walk each
    /// through its lane, deliver the frame.
    fn frame(&mut self, f: u64) {
        let run = &mut self.run;
        let cam = run.r.walkthrough.camera(f);
        run.power.apply_for_item(&mut run.r.platform, f);

        // ---- source: produce the P strips of frame f ----
        // Each strip with its producer — the failover path re-sends from
        // there — and the instant it is resident in its first filter
        // core's partition.
        let mut strips = Vec::with_capacity(run.r.cfg.pipelines as usize);
        for unit in 0..run.ledgers.source.units() {
            let run = &mut self.run;
            let lowered = run.ledgers.source.lower(
                &run.r.cost,
                &run.r.renderer,
                &cam,
                &mut run.r.platform,
                f,
                unit,
            );
            // Fan the strips out, serialised on the producing core.
            let (core, mut t) = (lowered.core, lowered.ready);
            for frame in lowered.strips {
                let i = frame.strip.index as usize;
                self.run.r.recovery.checkpoint(i, f, &frame);
                let (start, resident) = self.send_strip(i, f, core, t, frame.byte_len());
                self.run.r.platform.record_busy(core, start, resident);
                strips.push((frame, core, resident));
                t = resident;
            }
            self.run.ledgers.source.commit(unit, t);
        }

        // ---- the five filter stages of each pipeline ----
        let mut arrivals = Vec::with_capacity(strips.len());
        for (i, (frame, source, avail)) in strips.iter_mut().enumerate() {
            arrivals.push(self.walk(i, f, frame, *source, *avail));
        }

        // ---- transfer: collect strips, assemble, ship to the client ----
        let run = &mut self.run;
        let transfer = &mut run.ledgers.transfer;
        let was_free = transfer.free;
        let strips = arrivals.into_iter().zip(strips.into_iter().map(|s| s.0));
        let out = run
            .stages
            .transfer(&mut run.r.platform, &run.r.cost, transfer, strips.collect());
        run.power.note_idle(transfer.core, f, out.idle);
        if let Some(log) = self.trace.as_mut() {
            let mut span = |phase, from, to| {
                log.span(transfer.core, StageKind::Transfer, None, f, phase, from, to);
            };
            span(Phase::Wait, was_free, out.start);
            span(Phase::Compute, out.start, out.done);
        }
        // Mutation smoke test: a planted off-by-one in the transfer frame
        // ledger the invariant checker must catch.
        #[cfg(feature = "verify-selftest")]
        if f == 0 {
            transfer.frames -= 1;
        }
        run.finish = out.done;
        run.outputs.extend(out.image);

        // Frame f delivered end-to-end: release its checkpoints.
        #[cfg(not(feature = "verify-selftest"))]
        let acked = f;
        // Mutation smoke test: acknowledge one frame too few, so the
        // checkpoint ring keeps a delivered strip in flight and the
        // replay ledger drifts from the DES executor's.
        #[cfg(feature = "verify-selftest")]
        let acked = f.saturating_sub(1);
        run.r.recovery.ack(acked);
        run.power.delivered(f, out.done);
    }

    /// Walk strip `i` of frame `f`, resident from `avail`, through its
    /// owner lane's five filter stages. A walk that aborts fails the lane
    /// over: `source` re-sends the checkpointed strip to the adopting
    /// lane and processing restarts there from scratch (the filters are
    /// deterministic in the strip's identity, so the pixels come out
    /// bit-identical). Returns the strip's residency at the transfer
    /// stage.
    fn walk(
        &mut self,
        i: usize,
        f: u64,
        frame: &mut Frame,
        source: CoreId,
        mut avail: SimTime,
    ) -> SimTime {
        let in_flight = self.run.r.recovery.in_flight(i);
        loop {
            let pass = Pass {
                f,
                lane: self.run.r.recovery.owner(i),
                bytes: frame.byte_len(),
                in_flight,
            };
            let walked = self.run_strip_on_lane(pass, source, frame, avail);
            // The walk pushed one idle sample per stage it entered: all
            // five, or those before the stage it aborted at.
            let entered = match walked {
                Ok(_) => 5,
                Err((j, _)) => j.min(5),
            };
            for j in 0..entered {
                let run = &mut self.run;
                let s = run.ledgers.replica(&run.r.plan, pass.lane, j, f);
                let wait = *s.idle_samples.last().expect("entered stages sampled idle");
                run.power.note_idle(s.core, f, wait);
            }
            match walked {
                Ok(done) => return done,
                Err((j, at)) => {
                    self.mark_failed(i, f, at, j);
                    *frame = self.run.r.recovery.restore(i, f);
                    avail = self.send_strip(i, f, source, at, frame.byte_len()).1;
                }
            }
        }
    }

    /// Roll the degradation log into telemetry and feed it the span log
    /// — pure observation of state the report already carries, recorded
    /// after the frame loop so nothing here can perturb the timeline —
    /// then end on the shared tail.
    fn finish(self) -> WalkthroughReport {
        let FrameMajor { run, trace } = self;
        let tel = &run.r.tel;
        if tel.is_enabled() {
            let degradations = &run.r.recovery.degradations;
            tel.count(names::DEGRADATIONS_TOTAL, &[], degradations.len() as u64);
            // Degradations retire lanes one at a time, so the k-th event
            // leaves p - (k + 1) survivors.
            for (k, d) in degradations.iter().enumerate() {
                tel.event(
                    (d.at_secs * 1e9) as u64,
                    EventKind::Degradation {
                        pipeline: d.pipeline,
                        frame: d.frame,
                        survivors: run.r.cfg.pipelines - (k as u32 + 1),
                    },
                );
            }
            if let Some(log) = trace.as_ref() {
                log.record_into(tel);
            }
        }
        run.finish(None, trace)
    }

    /// The reliable send of `pass`'s strip from `from` into stage `j`'s
    /// core (`j == 5`: the transfer stage's) from `start`. A send that
    /// gives up on a fail-stopped filter stage runs a recovery episode:
    /// the supervisor's redirect pre-empts the sender's remaining retry
    /// patience — the replay is gated on detection + provisioning, not on
    /// ARQ exhaustion — so it is observed from the send's start. Returns
    /// the strip's residency, or the give-up instant when no spare took
    /// over; what happens then is the caller's policy.
    fn send_or_heal(
        &mut self,
        pass: Pass,
        j: usize,
        from: CoreId,
        start: SimTime,
    ) -> Result<SimTime, SimTime> {
        let (to, stage) = match j {
            5 => (self.run.ledgers.transfer.core, StageKind::Transfer),
            _ => {
                let s = self.stage(pass, j);
                (s.core, s.kind)
            }
        };
        let (rec, platform) = (&mut self.run.r.recovery, &mut self.run.r.platform);
        let at = match rec.send(platform, from, to, start, pass.bytes) {
            Ok(resident) => return Ok(resident),
            Err(at) => at,
        };
        // The transfer stage is never a kill target.
        let Some(kill_at) = rec.kill_seen(to, at).filter(|_| j < 5) else {
            return Err(at);
        };
        let ep = Episode {
            frame: pass.f,
            pipeline: pass.lane as u32,
            stage,
            failed_core: to,
            kill_at,
            observed: start,
            upstream: from,
            bytes: pass.bytes,
            frames_replayed: pass.in_flight,
        };
        self.try_recover(j, ep).ok_or(at)
    }

    /// One supervised recovery episode for stage `j` of a lane, as
    /// observed by this executor: run the plane's detect → migrate →
    /// replay ([`RecoveryPlane::migrate`]), then re-home the lane's
    /// ledger slots onto the spare and log the `Migrate` span.
    ///
    /// Returns the replayed strip's residency time on the migrated core,
    /// or `None` when no supervisor is armed, the spare pool is
    /// exhausted, or the replay itself dies — the caller then falls back
    /// to PR-1 graceful degradation with its exact timing.
    fn try_recover(&mut self, j: usize, ep: Episode) -> Option<SimTime> {
        let (failed_core, lane, f) = (ep.failed_core, ep.pipeline, ep.frame);
        let run = &mut self.run;
        let m = run.r.recovery.migrate(&mut run.r.platform, ep)?;
        // A merged group lives and dies with its one core: every sibling
        // stage it hosted migrates to the spare alongside stage `j`.
        let (plan, ledgers) = (&run.r.plan, &mut run.ledgers);
        for sib in plan.groups[plan.group_of(j)].stages() {
            let s = ledgers.replica(plan, lane as usize, sib, f);
            if sib == j || s.core == failed_core {
                s.core = m.spare;
                s.free = m.ready;
            }
        }
        let kind = ledgers.replica(plan, lane as usize, j, f).kind;
        if let Some(log) = self.trace.as_mut() {
            log.span(
                m.spare,
                kind,
                Some(lane),
                f,
                Phase::Migrate,
                m.detected,
                m.resident,
            );
        }
        Some(m.resident)
    }

    /// Declare `strip`'s lane failed at stage position `failed_stage` and
    /// hand the strip to the adopting lane, logging the `Degrade` marker.
    fn mark_failed(&mut self, strip: usize, f: u64, at: SimTime, failed_stage: usize) {
        let run = &mut self.run;
        let lane = run.r.recovery.owner(strip);
        let core = run.ledgers.replica(&run.r.plan, lane, 0, f).core;
        if let Some(log) = self.trace.as_mut() {
            log.span(
                core,
                StageKind::PIPELINE_FILTERS[0],
                Some(lane as u32),
                f,
                Phase::Degrade,
                at,
                at + SimTime::from_us(1),
            );
        }
        run.r.recovery.fail_lane(strip, f, at, failed_stage);
    }

    /// Route strip `strip` of frame `f` from `src` into its owner lane's
    /// first filter stage. A send that gives up on a fail-stopped
    /// receiver first tries a supervised recovery (migrate the stage to a
    /// spare and replay); only when that is impossible does the strip
    /// fail over to the next surviving lane. Returns the send's (start,
    /// resident-in-partition) times.
    fn send_strip(
        &mut self,
        strip: usize,
        f: u64,
        src: CoreId,
        mut t: SimTime,
        bytes: u64,
    ) -> (SimTime, SimTime) {
        loop {
            let pass = Pass {
                f,
                lane: self.run.r.recovery.owner(strip),
                bytes,
                in_flight: self.run.r.recovery.in_flight(strip),
            };
            let start = t.max(self.stage(pass, 0).free);
            match self.send_or_heal(pass, 0, src, start) {
                Ok(resident) => return (start, resident),
                Err(at) => {
                    self.mark_failed(strip, f, at, 0);
                    t = at;
                }
            }
        }
    }

    /// Re-align every multi-stage group of `pass`'s lane to its latest
    /// member clock, and floor the group of `active` at `at`. A walk that
    /// aborts mid-chain still spent real core time: `active` is the stage
    /// whose core was still busy (retrying a dead handoff) when the abort
    /// was detected at `at`. Without this, the next strip walked on this
    /// lane pipelines into busy spans the merged core has already
    /// emitted, which a single core cannot do (the trace-overlap invariant
    /// catches exactly that).
    fn sync_group_clocks(&mut self, pass: Pass, active: usize, at: SimTime) {
        let run = &mut self.run;
        let (plan, ledgers) = (&run.r.plan, &mut run.ledgers);
        for g in plan.groups.iter().filter(|g| g.len > 1) {
            let floor = if g.stages().contains(&active) {
                at
            } else {
                SimTime::ZERO
            };
            let group_free = g.stages().fold(floor, |t, j| {
                t.max(ledgers.replica(plan, pass.lane, j, pass.f).free)
            });
            for j in g.stages() {
                ledgers.replica(plan, pass.lane, j, pass.f).free = group_free;
            }
        }
    }

    /// Run `pass`'s strip through the five filter stages of its lane,
    /// charging virtual time exactly like the healthy inline path. Under
    /// faults, sends use the retry protocol; a fail-stopped stage
    /// triggers a supervised in-place migration to a spare core (the loop
    /// re-enters the same stage on its new core), while a stage stalled
    /// beyond the full retry horizon — or a kill with the spare pool
    /// exhausted — aborts with `Err((stage index, detection time))` so
    /// the caller can fail the lane over. `source` is the strip's
    /// producer, the replay upstream for a stage-0 migration.
    fn run_strip_on_lane(
        &mut self,
        pass: Pass,
        source: CoreId,
        frame: &mut Frame,
        mut avail: SimTime,
    ) -> Result<SimTime, (usize, SimTime)> {
        let mut j = 0;
        while j < 5 {
            let s = self.stage(pass, j);
            let (core, free, kind) = (s.core, s.free, s.kind);
            // Inside a merged group the strip never leaves the core: the
            // previous stage's output is already local, so there is no
            // idle wait, no fetch, and (below) no send for the handoff.
            let merged_prev = self.run.r.plan.merged_with_prev(j);
            let start = avail.max(free);
            // A fail-stopped stage with a strip already resident: migrate
            // and re-enter this stage index on the spare core.
            if let Some(kill_at) = self.run.r.recovery.kill_seen(core, start) {
                let ep = Episode {
                    frame: pass.f,
                    pipeline: pass.lane as u32,
                    stage: kind,
                    failed_core: core,
                    kill_at,
                    observed: start,
                    upstream: match j {
                        0 => source,
                        _ => self.stage(pass, j - 1).core,
                    },
                    bytes: pass.bytes,
                    frames_replayed: pass.in_flight,
                };
                if let Some(resident) = self.try_recover(j, ep) {
                    avail = resident;
                    continue;
                }
            }
            // The upstream sender's retransmissions go unanswered while
            // this core is dead (no spare took over) or stalled; past the
            // full horizon it is given up on before any more virtual time
            // is sunk into it.
            let rec = &self.run.r.recovery;
            if rec.dead_equivalent(core, start) {
                let at = start + rec.horizon();
                self.sync_group_clocks(pass, j, at);
                return Err((j, at));
            }
            let idle = match merged_prev {
                true => SimTime::ZERO,
                false => avail.saturating_sub(free),
            };
            self.stage(pass, j).idle_samples.push(idle);
            // Fetch the strip out of this core's DRAM partition (a merged
            // stage's input is already resident from its in-group
            // predecessor), apply the stage, charge compute and its
            // traffic.
            let (run, fetch) = (&mut self.run, !merged_prev);
            let (stages, platform) = (&run.stages, &mut run.r.platform);
            let times = stages.filter(platform, &run.r.cost, core, j..j + 1, frame, start, fetch);
            let t = times.done;
            if let Some(log) = self.trace.as_mut() {
                let lane = Some(pass.lane as u32);
                let mut span =
                    |phase, from, to| log.span(core, kind, lane, pass.f, phase, from, to);
                if !merged_prev {
                    span(Phase::Wait, free, start);
                    span(Phase::Fetch, start, times.fetched);
                }
                span(Phase::Compute, times.fetched, times.computed);
                span(Phase::Memory, times.computed, t);
            }

            // Hand over to the next stage (or the transfer stage),
            // rendezvous-paced. A handoff to the next stage of the same
            // merged group stays on-core: no rendezvous, no message,
            // nothing for the fault plan to touch.
            let resident = if j + 1 < 5 && self.run.r.plan.merged_with_prev(j + 1) {
                t
            } else {
                match self.run_strip_handoff(pass, j, start, t) {
                    Ok(resident) => resident,
                    Err((failed, at)) => {
                        // The *sender* (stage j) burned the retry horizon
                        // on its core before the receiver was declared
                        // dead.
                        self.sync_group_clocks(pass, j, at);
                        return Err((failed, at));
                    }
                }
            };
            self.stage(pass, j).advance(start, resident);
            avail = resident;
            j += 1;
        }
        // Merged groups share one core: once the frame clears the group,
        // every member is next free when the group's last stage is (the
        // latest member clock) — without this, the group's first stage
        // could start frame f + 1 while the core is still finishing frame
        // f's tail stages. No stage is still active.
        self.sync_group_clocks(pass, 5, SimTime::ZERO);
        Ok(avail)
    }

    /// The rendezvous-paced handoff of the strip stage `j` worked on from
    /// `start` to `t` to its downstream — the next stage's core for this
    /// frame, or the transfer stage.
    /// Extracted from [`FrameMajor::run_strip_on_lane`] so merged groups
    /// can skip it wholesale; returns the strip's residency downstream,
    /// or the degradation abort `(failed stage, detection time)`.
    fn run_strip_handoff(
        &mut self,
        pass: Pass,
        j: usize,
        start: SimTime,
        t: SimTime,
    ) -> Result<SimTime, (usize, SimTime)> {
        let s = self.stage(pass, j);
        let (core, kind) = (s.core, s.kind);
        let next_free = match j + 1 {
            5 => self.run.ledgers.transfer.free,
            next => self.stage(pass, next).free,
        };
        let send_start = t.max(next_free);
        // A fail-stopped downstream filter stage is migrated and the
        // replayed strip lands on the spare; otherwise the receiving
        // stage is blamed — it is the one not acking.
        let sent = self.send_or_heal(pass, j + 1, core, send_start);
        let resident = sent.unwrap_or_else(|at| at);
        if sent.is_err() {
            // This stage finished its pass — only the handoff failed — so
            // it books the strip, and it stays occupied through the futile
            // retransmission window: `free` must reach the ARQ's give-up
            // time or the lane's next strip would overlap this one on the
            // same core. `failed_stage` is j+1 and the ledger stays
            // uniform across both detection sites.
            let stage = self.stage(pass, j);
            stage.frames += 1;
            stage.busy += resident.saturating_sub(start);
            stage.free = resident;
        }
        self.run.r.platform.record_busy(core, send_start, resident);
        if let Some(log) = self.trace.as_mut() {
            let lane = Some(pass.lane as u32);
            log.span(core, kind, lane, pass.f, Phase::Send, t, resident);
        }
        sent.map_err(|at| (j + 1, at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::place;
    use crate::spec::{Arrangement, FaultSpec, PowerConfig, RendererMode};
    use scc_render::CityConfig;
    use scc_sim::FreqMHz;

    fn tiny_scene() -> Arc<Scene> {
        Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 3,
        }))
    }

    fn quick_cfg(mode: RendererMode, pipelines: u32) -> RunConfig {
        RunConfig::builder()
            .renderer(mode)
            .arrangement(Arrangement::Ordered)
            .pipelines(pipelines)
            .size(100, 100)
            .frames(12)
            .seed(42)
            .fidelity(Fidelity::TimingOnly)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn runs_complete_and_report_all_stages() {
        let cfg = quick_cfg(RendererMode::SingleRenderer, 2);
        let report = SimRunner::new(cfg, tiny_scene()).run();
        assert!(report.total_secs > 0.0);
        // 1 render + 2×5 filters + 1 transfer = 12 stages.
        assert_eq!(report.stage_reports.len(), 12);
        for s in &report.stage_reports {
            assert_eq!(s.frames, 12, "{:?} missed frames", s.kind);
        }
    }

    #[test]
    fn mcpc_mode_has_connector_and_mcpc_time() {
        let cfg = quick_cfg(RendererMode::McpcRenderer, 2);
        let report = SimRunner::new(cfg, tiny_scene()).run();
        assert!(report
            .stage_reports
            .iter()
            .any(|s| s.kind == StageKind::Connect));
        assert!(report.mcpc_busy_secs > 0.0);
        assert!(report.mcpc_busy_secs < report.total_secs);
    }

    #[test]
    fn more_pipelines_do_not_slow_things_down() {
        let scene = tiny_scene();
        let t1 = SimRunner::new(quick_cfg(RendererMode::McpcRenderer, 1), Arc::clone(&scene))
            .run()
            .total_secs;
        let t3 = SimRunner::new(quick_cfg(RendererMode::McpcRenderer, 3), scene)
            .run()
            .total_secs;
        assert!(t3 < t1, "3 pipelines ({t3:.3}s) should beat 1 ({t1:.3}s)");
    }

    #[test]
    fn full_fidelity_produces_frames() {
        let mut cfg = quick_cfg(RendererMode::SingleRenderer, 2);
        cfg.fidelity = Fidelity::Full;
        cfg.frames = 3;
        let report = SimRunner::new(cfg, tiny_scene()).run();
        let out = report.outputs.expect("full fidelity keeps outputs");
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].width(), 100);
        assert_eq!(out[0].height(), 100);
        // Frames differ (walkthrough moves).
        assert_ne!(out[0], out[2]);
    }

    #[test]
    fn timing_identical_across_fidelity_modes() {
        // The central invariant permitting cheap sweeps: the virtual-time
        // result does not depend on whether pixels are computed.
        let scene = tiny_scene();
        let mut a = quick_cfg(RendererMode::McpcRenderer, 2);
        a.frames = 5;
        let mut b = a.clone();
        b.fidelity = Fidelity::Full;
        let ta = SimRunner::new(a, Arc::clone(&scene)).run().total_secs;
        let tb = SimRunner::new(b, scene).run().total_secs;
        assert_eq!(ta, tb, "fidelity changed virtual time");
    }

    #[test]
    fn deterministic_across_runs() {
        let scene = tiny_scene();
        let r1 = SimRunner::new(
            quick_cfg(RendererMode::PerPipelineRenderer, 3),
            Arc::clone(&scene),
        )
        .run();
        let r2 = SimRunner::new(quick_cfg(RendererMode::PerPipelineRenderer, 3), scene).run();
        assert_eq!(r1.total_secs, r2.total_secs);
        assert_eq!(r1.scc_energy_joules, r2.scc_energy_joules);
    }

    #[test]
    fn dvfs_plan_speeds_up_blur_bound_pipeline() {
        let scene = tiny_scene();
        let mut cfg = quick_cfg(RendererMode::McpcRenderer, 1);
        let base = SimRunner::new(cfg.clone(), Arc::clone(&scene)).run();
        let placement = place(cfg.renderer, cfg.arrangement, cfg.pipelines);
        let blur_core = placement.pipelines[0][1];
        cfg.power = PowerConfig::Static(vec![(blur_core, FreqMHz::F800)]);
        let fast = SimRunner::new(cfg, scene).run();
        assert!(
            fast.total_secs < base.total_secs * 0.9,
            "blur at 800 MHz should cut the walkthrough markedly \
             ({:.3}s vs {:.3}s)",
            fast.total_secs,
            base.total_secs
        );
    }

    #[test]
    fn idle_times_collected_per_stage() {
        let report = SimRunner::new(quick_cfg(RendererMode::McpcRenderer, 3), tiny_scene()).run();
        let scratch = report
            .stage_reports
            .iter()
            .find(|s| s.kind == StageKind::Scratch && s.pipeline == Some(0))
            .unwrap();
        let blur = report
            .stage_reports
            .iter()
            .find(|s| s.kind == StageKind::Blur && s.pipeline == Some(0))
            .unwrap();
        // The cheap scratch stage waits longer than the expensive blur.
        let sq = scratch.idle_ms.expect("samples");
        let bq = blur.idle_ms.expect("samples");
        assert!(
            sq.median >= bq.median,
            "scratch median idle {:.2}ms < blur {:.2}ms",
            sq.median,
            bq.median
        );
    }

    #[test]
    fn quiet_fault_plan_changes_nothing() {
        // An installed fault plan with all rates at zero and no stall must
        // be a perfect identity on the virtual timeline.
        let scene = tiny_scene();
        let base = SimRunner::new(
            quick_cfg(RendererMode::SingleRenderer, 2),
            Arc::clone(&scene),
        )
        .run();
        let mut cfg = quick_cfg(RendererMode::SingleRenderer, 2);
        cfg.fault = Some(crate::spec::FaultSpec::default());
        let quiet = SimRunner::new(cfg, scene).run();
        assert_eq!(base.total_secs, quiet.total_secs);
        assert_eq!(base.scc_energy_joules, quiet.scc_energy_joules);
        assert_eq!(base.platform.noc_messages, quiet.platform.noc_messages);
        assert!(quiet.degradations.is_empty());
    }

    #[test]
    fn chaos_run_delivers_every_frame_bit_identical() {
        // The headline acceptance scenario: 1% flit loss plus one filter
        // core stalled forever. The walkthrough must still deliver every
        // frame, pixel-for-pixel equal to the clean run, with the failover
        // recorded.
        use crate::spec::StallSpec;
        let scene = tiny_scene();
        let mut clean = quick_cfg(RendererMode::SingleRenderer, 3);
        clean.fidelity = Fidelity::Full;
        clean.frames = 4;
        let reference = SimRunner::new(clean.clone(), Arc::clone(&scene)).run();

        let mut chaos = clean.clone();
        chaos.fault = Some(FaultSpec {
            drop_rate: 0.01,
            stall: Some(StallSpec {
                pipeline: 1,
                stage: 2,
                at_ms: 0,
                for_ms: u64::MAX,
            }),
            ..FaultSpec::default()
        });
        let report = SimRunner::new(chaos, scene).run();

        assert!(
            !report.degradations.is_empty(),
            "the stalled scratch core must trigger a failover"
        );
        assert_eq!(report.degradations[0].pipeline, 1);
        assert_ne!(report.degradations[0].reassigned_to, 1);
        let want = reference.outputs.expect("clean frames");
        let got = report.outputs.expect("chaos frames");
        assert_eq!(got.len(), want.len(), "a frame was lost under faults");
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                crate::viz::frame_checksum(a),
                crate::viz::frame_checksum(b),
                "frame {i} differs from the clean run"
            );
        }
        // Degradation costs time: the chaos run cannot be faster.
        assert!(report.total_secs >= reference.total_secs);
    }

    #[test]
    fn same_fault_seed_means_identical_fingerprints() {
        use crate::spec::StallSpec;
        let scene = tiny_scene();
        let mut cfg = quick_cfg(RendererMode::PerPipelineRenderer, 3);
        cfg.fidelity = Fidelity::Full;
        cfg.frames = 3;
        cfg.fault = Some(FaultSpec {
            drop_rate: 0.05,
            corrupt_rate: 0.02,
            delay_rate: 0.1,
            degraded_links: 3,
            degrade_factor: 0.5,
            stall: Some(StallSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 1,
                for_ms: u64::MAX,
            }),
            ..FaultSpec::default()
        });
        let a = SimRunner::new(cfg.clone(), Arc::clone(&scene)).run();
        let b = SimRunner::new(cfg, scene).run();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.degradations.is_empty());
        assert_eq!(a.degradations, b.degradations);
    }

    #[test]
    fn killed_stage_recovers_on_spare_bit_identical() {
        // The tentpole acceptance scenario: a mid-pipeline core
        // fail-stops, the supervisor detects it via the heartbeat stream,
        // migrates the stage to a spare core, replays the in-flight strip
        // — and the delivered film is bit-identical to the fault-free run
        // with no graceful-degradation fallback.
        use crate::spec::KillSpec;
        let scene = tiny_scene();
        let mut clean = quick_cfg(RendererMode::SingleRenderer, 2);
        clean.fidelity = Fidelity::Full;
        clean.frames = 4;
        let reference = SimRunner::new(clean.clone(), Arc::clone(&scene)).run();

        let mut cfg = clean.clone();
        cfg.fault = Some(FaultSpec {
            kills: vec![KillSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 1,
            }],
            heartbeat_period_us: 2_000,
            phi_dead: 2.0,
            ..FaultSpec::default()
        });
        let report = SimRunner::new(cfg.clone(), scene).run();

        assert_eq!(report.recoveries.len(), 1, "exactly one recovery episode");
        assert!(report.degradations.is_empty(), "no fallback needed");
        let ev = &report.recoveries[0];
        let placement = place(cfg.renderer, cfg.arrangement, cfg.pipelines);
        assert_eq!(ev.pipeline, 0);
        assert_eq!(ev.stage, StageKind::Blur);
        assert_eq!(ev.failed_core, placement.pipelines[0][1].raw());
        assert_eq!(
            ev.migration_target,
            placement.spare_pool()[0].raw(),
            "first spare in id order"
        );
        assert!(ev.killed_at_secs <= ev.detected_at_secs);
        assert!(ev.detected_at_secs <= ev.resumed_at_secs);
        assert!(ev.mttr_secs > 0.0 && ev.mttr_secs.is_finite());
        assert_eq!(ev.frames_replayed, 1);

        // The migrated stage finishes the walkthrough on the spare core
        // and still processes every frame.
        let blur = report.stage(StageKind::Blur, Some(0)).unwrap();
        assert_eq!(blur.core_id, ev.migration_target);
        assert_eq!(blur.frames, 4);

        let want = reference.outputs.expect("clean frames");
        let got = report.outputs.as_ref().expect("recovered frames");
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                crate::viz::frame_checksum(a),
                crate::viz::frame_checksum(b),
                "frame {i} differs after recovery"
            );
        }
        // The repair itself takes real virtual time (the walkthrough may
        // still end up faster or slower overall — the spare's mesh
        // position differs from the dead core's), and the fingerprint is
        // reproducible.
        assert!(ev.resumed_at_secs > ev.killed_at_secs);
        let again = SimRunner::new(cfg, tiny_scene()).run();
        assert_eq!(report.fingerprint(), again.fingerprint());
    }

    #[test]
    fn kill_without_spares_degrades_exactly_like_a_permanent_stall() {
        // With the spare pool exhausted (max_spares = 0), a fail-stopped
        // core must fall back to PR-1 graceful degradation with *exactly*
        // the timing of a permanent stall at the same instant: same
        // walkthrough time, same degradation log, same pixels. (Platform
        // ledgers differ: the supervised run carries heartbeat traffic.)
        use crate::spec::{KillSpec, StallSpec};
        let scene = tiny_scene();
        let mut base = quick_cfg(RendererMode::SingleRenderer, 3);
        base.fidelity = Fidelity::Full;
        base.frames = 4;

        let mut killed = base.clone();
        killed.fault = Some(FaultSpec {
            kills: vec![KillSpec {
                pipeline: 1,
                stage: 2,
                at_ms: 0,
            }],
            max_spares: 0,
            ..FaultSpec::default()
        });
        let mut stalled = base;
        stalled.fault = Some(FaultSpec {
            stall: Some(StallSpec {
                pipeline: 1,
                stage: 2,
                at_ms: 0,
                for_ms: u64::MAX,
            }),
            ..FaultSpec::default()
        });

        let k = SimRunner::new(killed, Arc::clone(&scene)).run();
        let s = SimRunner::new(stalled, scene).run();

        assert!(k.recoveries.is_empty(), "no spares means no migration");
        assert!(!k.degradations.is_empty(), "fallback must engage");
        assert_eq!(k.total_secs, s.total_secs, "kill != stall(forever) timing");
        assert_eq!(k.degradations, s.degradations);
        let ka = k.outputs.expect("frames");
        let sa = s.outputs.expect("frames");
        assert_eq!(ka.len(), sa.len());
        for (a, b) in ka.iter().zip(&sa) {
            assert_eq!(crate::viz::frame_checksum(a), crate::viz::frame_checksum(b));
        }
        // The supervised run's heartbeats are real ledger traffic.
        assert!(k.platform.noc_messages > s.platform.noc_messages);
    }

    #[test]
    fn auto_placement_verifies_clean_and_matches_fixed_film() {
        // The scheduler placement (merged tail + replicated blur) must
        // deliver the same film bit-for-bit, pass every invariant
        // (verify panics inside run on a violation), and not lose
        // throughput against the paper's fixed arrangement.
        let scene = tiny_scene();
        let mut fixed = quick_cfg(RendererMode::SingleRenderer, 2);
        fixed.fidelity = Fidelity::Full;
        fixed.frames = 6;
        fixed.verify = true;
        let mut auto = fixed.clone();
        auto.auto_place = true;
        let a = SimRunner::new(fixed, Arc::clone(&scene)).run();
        let b = SimRunner::new(auto.clone(), scene).run();
        assert_eq!(
            a.outputs.expect("fixed frames"),
            b.outputs.expect("auto frames"),
            "auto placement changed the film"
        );
        assert!(
            b.total_secs <= a.total_secs * 1.01,
            "auto ({:.3}s) must not lose to fixed ({:.3}s)",
            b.total_secs,
            a.total_secs
        );
        // Replicated blur means more blur stage reports than lanes.
        let blurs = b
            .stage_reports
            .iter()
            .filter(|s| s.kind == StageKind::Blur)
            .count();
        assert!(blurs > 2, "expected blur replicas, saw {blurs} reports");
        // And each stage position still accounts for every strip.
        for kind in StageKind::PIPELINE_FILTERS {
            let sum: u64 = b
                .stage_reports
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.frames)
                .sum();
            assert_eq!(sum, 12, "{} ledger", kind.name());
        }
    }

    #[test]
    fn power_trace_spans_run() {
        let report = SimRunner::new(quick_cfg(RendererMode::SingleRenderer, 2), tiny_scene()).run();
        assert!(!report.power_trace.is_empty());
        // All samples at or above idle power, and at least one above it.
        let idle = report.scc_idle_power;
        assert!(report.power_trace.iter().all(|s| s.watts >= idle - 1e-9));
        assert!(report.power_trace.iter().any(|s| s.watts > idle + 1.0));
        assert!(report.scc_energy_joules > 0.0);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::spec::{Arrangement, RendererMode};
    use crate::trace::Phase;
    use scc_render::CityConfig;

    #[test]
    fn trace_records_all_phases_when_enabled() {
        let cfg = RunConfig::builder()
            .renderer(RendererMode::McpcRenderer)
            .arrangement(Arrangement::Ordered)
            .pipelines(2)
            .size(100, 100)
            .frames(6)
            .seed(1)
            .fidelity(Fidelity::TimingOnly)
            .trace(true)
            .build()
            .expect("valid test config");
        let scene = Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 3,
        }));
        let report = SimRunner::new(cfg, scene).run();
        let log = report.trace.expect("trace enabled");
        assert!(!log.is_empty());
        // Blur compute spans must dominate sepia compute spans.
        let blur = log.phase_total(StageKind::Blur, Phase::Compute);
        let sepia = log.phase_total(StageKind::Sepia, Phase::Compute);
        assert!(blur > sepia * 2);
        // Every filter stage fetched and sent each frame.
        let fetches = log
            .events()
            .iter()
            .filter(|e| e.kind == StageKind::Blur && e.phase == Phase::Fetch)
            .count();
        assert_eq!(fetches, 2 * 6, "2 pipelines x 6 frames");
        // Spans are well-formed and inside the run.
        for e in log.events() {
            assert!(e.t1 > e.t0);
            assert!(e.t1.as_secs_f64() <= report.total_secs + 1e-9);
        }
        // Chrome export is non-trivial.
        assert!(log.to_chrome_json().len() > 200);
    }

    #[test]
    fn trace_absent_when_disabled() {
        let cfg = RunConfig {
            width: 50,
            height: 50,
            frames: 2,
            pipelines: 1,
            ..RunConfig::default()
        };
        let scene = Arc::new(Scene::city(CityConfig {
            side: 6,
            spacing: 8.0,
            seed: 3,
        }));
        let report = SimRunner::new(cfg, scene).run();
        assert!(report.trace.is_none());
    }
}

// The governor's convergence behaviour (which tiles it raises, which
// islands it throttles, sim/DES decision-trace equality) is pinned by
// the dedicated suite in `tests/governor_convergence.rs`.
