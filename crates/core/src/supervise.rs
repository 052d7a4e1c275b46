//! The recovery plane every virtual-time executor attaches once:
//! MCPC-hosted supervision, the reliable send, checkpointed replay and
//! lane failover.
//!
//! The paper's SCC is babysat by a Management Control PC; this module
//! models that console as a *control plane* for the simulated runners.
//! Every placed core emits periodic heartbeats over the real message path
//! (mesh hops to the system-interface tile, then the host link), so the
//! supervisor's view of a core is as stale as that core's distance from
//! the interface — detection latency is mesh- and arrangement-dependent,
//! exactly like the data traffic the paper measures. A phi-style
//! suspicion threshold separates *slow* (late heartbeats within
//! `phi_dead` periods — tolerated) from *dead* (silence beyond it —
//! migrated).
//!
//! Whatever an executor does about a fault, it needs the same things
//! from [`RecoveryPlane`], and this module is the only place they are
//! written down:
//!
//! * [`RecoveryPlane::arm`] — resolve the fault spec against the
//!   placement: supervisor and spare pool, spin-wait roster, rings;
//! * [`RecoveryPlane::send`] — one payload into a partition: plain
//!   `send_to_partition` when no fault spec is armed, the stop-and-wait
//!   ARQ otherwise;
//! * [`RecoveryPlane::kill_seen`] / [`RecoveryPlane::dead_equivalent`] —
//!   what the schedule says about a core at an instant;
//! * [`RecoveryPlane::migrate`] — the static executors' episode (detect,
//!   take a spare, provision, replay, enrol, log); the task runtime's
//!   fence re-queues on survivors instead and shares its two halves,
//!   [`RecoveryPlane::detect`] and [`RecoveryPlane::record`];
//! * [`RecoveryPlane::fail_lane`] — retire a lane, pick the adopter;
//! * [`RecoveryPlane::checkpoint`] / [`RecoveryPlane::in_flight`] /
//!   [`RecoveryPlane::restore`] / [`RecoveryPlane::ack`] — the rings;
//! * [`RecoveryPlane::finish`] — the run's heartbeat traffic.
//!
//! *Where* a kill is observed, in what order events run, and which
//! ledger slots a migration re-homes stay with each executor: the
//! frame-major [`crate::runner::sim::SimRunner`] and the event-driven
//! [`crate::runner::des`] executor reach identical detection instants
//! and migration targets through this plane, which is what lets the
//! differential suite compare them under kills.

use crate::frame::Frame;
use crate::metrics::{DegradationEvent, RecoveryEvent};
use crate::placement::Placement;
use crate::spec::{FaultSpec, RunConfig, StageKind};
use scc_sim::fault::{CoreKill, CoreStall, FaultConfig, FaultPlan, MessageOutcome};
use scc_sim::{CoreId, SccPlatform, SimTime, HEARTBEAT_BYTES};
use scc_telemetry::{names, EventKind, TelemetrySink, SECONDS_BUCKETS};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Bytes shipped to provision a migrated stage on its spare core: the
/// stage binary plus filter state, pushed from the MCPC over the host
/// link (the same path RCCE programs are loaded over).
pub const STAGE_PROVISION_BYTES: u64 = 64 * 1024;

/// Resolve a spec's (pipeline, stage)-addressed kills to physical cores
/// under `placement` — shared by every runner so the same spec kills the
/// same silicon everywhere.
pub(crate) fn resolve_kills(spec: &FaultSpec, placement: &Placement) -> Vec<CoreKill> {
    spec.kills
        .iter()
        .map(|k| CoreKill {
            core: placement.pipelines[k.pipeline as usize][k.stage as usize].raw(),
            at: SimTime::from_ms(k.at_ms),
        })
        .collect()
}

/// `2^n`, the ARQ's window multiplier — the one place the retry shift
/// is written. `FaultSpec::validate` bounds `retry_budget` so that
/// `timeout · 2^(budget + 1)` fits a `SimTime`.
fn pow2(n: u32) -> u64 {
    1u64.checked_shl(n)
        .expect("retry_budget is bounded by FaultSpec::validate")
}

/// Take the next stop-and-wait sequence number of the `(from, to)` pair.
fn next_seq(seqs: &mut HashMap<(u8, u8), u64>, from: CoreId, to: CoreId) -> u64 {
    let counter = seqs.entry((from.raw(), to.raw())).or_insert(0);
    let seq = *counter;
    *counter += 1;
    seq
}

/// Resolved fault-injection context for a run: the schedule plus the
/// retry protocol's virtual-time parameters.
struct FaultCtx {
    plan: Arc<FaultPlan>,
    /// First-attempt acknowledgement window; attempt `n` waits `2^n` times
    /// as long.
    timeout: SimTime,
    /// Retransmissions after the first attempt.
    budget: u32,
}

impl FaultCtx {
    /// Worst-case wait across every attempt starting from `attempt`:
    /// `timeout * (2^(budget+1) - 2^attempt)`.
    fn patience_from(&self, attempt: u32) -> SimTime {
        self.timeout * (pow2(self.budget + 1) - pow2(attempt))
    }

    /// Total patience of the full retry schedule — beyond this, a silent
    /// peer is declared dead.
    fn horizon(&self) -> SimTime {
        self.patience_from(0)
    }

    /// Build the simulator-facing plan from a [`FaultSpec`], resolving the
    /// stall's (pipeline, stage) address to a physical core.
    fn from_spec(spec: &FaultSpec, placement: &Placement) -> FaultCtx {
        let stalls = spec
            .stall
            .iter()
            .map(|s| CoreStall {
                core: placement.pipelines[s.pipeline as usize][s.stage as usize].raw(),
                at: SimTime::from_ms(s.at_ms),
                duration: SimTime::from_ms(s.for_ms),
            })
            .collect();
        FaultCtx {
            plan: Arc::new(FaultPlan::new(FaultConfig {
                seed: spec.seed,
                drop_rate: spec.drop_rate,
                corrupt_rate: spec.corrupt_rate,
                delay_rate: spec.delay_rate,
                max_delay: SimTime::from_us(spec.max_delay_us),
                degraded_links: spec.degraded_links,
                degrade_factor: spec.degrade_factor,
                stalls,
                kills: resolve_kills(spec, placement),
            })),
            timeout: SimTime::from_us(spec.timeout_us),
            budget: spec.retry_budget,
        }
    }
}

/// One fail-stop as a static executor observed it: which stage of which
/// lane died with `failed_core` at `kill_at`, and what the replay needs.
pub(crate) struct Episode {
    pub(crate) frame: u64,
    pub(crate) pipeline: u32,
    pub(crate) stage: StageKind,
    pub(crate) failed_core: CoreId,
    pub(crate) kill_at: SimTime,
    /// When the data path hit the dead core: the replay starts no
    /// earlier, however soon the spare is provisioned.
    pub(crate) observed: SimTime,
    /// Who re-sends the unacknowledged strip, and its size.
    pub(crate) upstream: CoreId,
    pub(crate) bytes: u64,
    /// The frame-major executor's checkpoint ring depth in flight; the
    /// event-driven executor keeps no ring and replays exactly one.
    pub(crate) frames_replayed: u32,
}

/// The outcome of [`RecoveryPlane::migrate`]: the caller re-homes its
/// own ledger slots onto `spare`, free from `ready`, input at `resident`.
pub(crate) struct Migrated {
    pub(crate) spare: CoreId,
    pub(crate) detected: SimTime,
    pub(crate) ready: SimTime,
    pub(crate) resident: SimTime,
}

pub(crate) struct RecoveryPlane {
    /// `None` when the run has no fault spec: every send is then a
    /// direct platform call.
    fault: Option<FaultCtx>,
    /// Stop-and-wait sequence counters per (sender, receiver) core pair.
    seqs: HashMap<(u8, u8), u64>,
    /// Armed only when the fault spec schedules kills.
    supervisor: Option<Supervisor>,
    /// The spin-wait roster (a migration enrols the spare).
    roster: Vec<CoreId>,
    /// One bounded ring per strip; empty without a fault spec.
    rings: Vec<CheckpointRing>,
    /// Which lanes have been declared dead, and which lane owns each
    /// strip.
    failed: Vec<bool>,
    owner: Vec<usize>,
    pub(crate) degradations: Vec<DegradationEvent>,
    pub(crate) recoveries: Vec<RecoveryEvent>,
    tel: TelemetrySink,
}

impl RecoveryPlane {
    /// Attach `cfg.fault` to a run on `placement`. The film executors'
    /// shared parts then install the fault plan on the platform: see
    /// [`RecoveryPlane::fault_plan`].
    pub(crate) fn arm(
        cfg: &RunConfig,
        placement: &Placement,
        platform: &mut SccPlatform,
        tel: TelemetrySink,
    ) -> RecoveryPlane {
        let p = cfg.pipelines as usize;
        let spec = cfg.fault.as_ref();
        // Every placed stage spin-waits on its RCCE flags when idle.
        let roster = placement.all_cores();
        platform.set_spinning(roster.clone());
        RecoveryPlane {
            fault: spec.map(|s| FaultCtx::from_spec(s, placement)),
            seqs: HashMap::new(),
            supervisor: spec
                .filter(|s| s.supervised())
                .map(|s| Supervisor::new(placement, s)),
            roster,
            rings: spec.map_or_else(Vec::new, |s| {
                (0..p)
                    .map(|_| CheckpointRing::new(s.checkpoint_depth))
                    .collect()
            }),
            failed: vec![false; p],
            owner: (0..p).collect(),
            degradations: Vec::new(),
            recoveries: Vec::new(),
            tel,
        }
    }

    /// The resolved schedule, for an executor that lets the platform
    /// apply it (stall windows, link degradation, flit delays).
    pub(crate) fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault.as_ref().map(|fc| Arc::clone(&fc.plan))
    }

    /// The resolved kill schedule in spec order; empty when none is armed.
    pub(crate) fn kills(&self) -> &[CoreKill] {
        self.fault
            .as_ref()
            .map_or(&[], |fc| fc.plan.config().kills.as_slice())
    }

    /// Total patience of the ARQ's retry schedule; zero when unarmed.
    pub(crate) fn horizon(&self) -> SimTime {
        self.fault.as_ref().map_or(SimTime::ZERO, FaultCtx::horizon)
    }

    /// `core`'s fail-stop instant, if it has one at or before `by`.
    pub(crate) fn kill_seen(&self, core: CoreId, by: SimTime) -> Option<SimTime> {
        self.fault
            .as_ref()
            .and_then(|fc| fc.plan.kill_time(core.raw()))
            .filter(|&k| k <= by)
    }

    /// Fail-stop-equivalent at `at`: the core is killed, or stalled past
    /// the full ARQ horizon (no peer waits that long).
    pub(crate) fn dead_equivalent(&self, core: CoreId, at: SimTime) -> bool {
        self.fault.as_ref().is_some_and(|fc| {
            fc.plan.dead_at(core.raw(), at)
                || fc.plan.stall_remaining(core.raw(), at) > fc.horizon()
        })
    }

    /// Fate of one unacknowledged datagram `from -> to` (the task
    /// runtime's steal legs): the pair's next sequence number rolled at
    /// attempt 0. Always `Deliver` when no fault spec is armed.
    pub(crate) fn roll(&mut self, from: CoreId, to: CoreId) -> MessageOutcome {
        let Some(fc) = &self.fault else {
            return MessageOutcome::Deliver;
        };
        let seq = next_seq(&mut self.seqs, from, to);
        fc.plan
            .message_outcome(u64::from(from.raw()), u64::from(to.raw()), seq, 0)
    }

    /// Ship `bytes` from `from` into `to`'s partition starting at `at`.
    /// Unarmed this is `send_to_partition` and cannot fail. Armed it is
    /// one virtual-time reliable send: each attempt rolls its own fate
    /// from the fault plan; lost or corrupted attempts burn an
    /// exponentially growing ack window before the retransmission. Fails
    /// (returning the detection time) when the receiver is dead or
    /// stalled beyond everything the sender is still willing to wait, or
    /// when every attempt is lost.
    pub(crate) fn send(
        &mut self,
        platform: &mut SccPlatform,
        from: CoreId,
        to: CoreId,
        at: SimTime,
        bytes: u64,
    ) -> Result<SimTime, SimTime> {
        let Some(ctx) = &self.fault else {
            return Ok(platform.send_to_partition(from, to, at, bytes));
        };
        let seq = next_seq(&mut self.seqs, from, to);
        let tel = &self.tel;
        let mut t = at;
        for attempt in 0..=ctx.budget {
            if ctx.plan.dead_at(to.raw(), t)
                || ctx.plan.stall_remaining(to.raw(), t) > ctx.patience_from(attempt)
            {
                // Fail-stop: a killed receiver acknowledges nothing, ever —
                // timing-wise indistinguishable from a stall it cannot
                // wake from before the last retry window closes (the
                // sender burns the same retry schedule before giving up).
                tel.count(names::ARQ_TIMEOUTS_TOTAL, &[], 1);
                return Err(t + ctx.patience_from(attempt));
            }
            match ctx
                .plan
                .message_outcome(from.raw() as u64, to.raw() as u64, seq, attempt)
            {
                MessageOutcome::Deliver => {
                    return Ok(platform.send_to_partition(from, to, t, bytes));
                }
                MessageOutcome::Delay(d) => {
                    return Ok(platform.send_to_partition(from, to, t + d, bytes));
                }
                outcome @ (MessageOutcome::Drop | MessageOutcome::Corrupt { .. }) => {
                    // Lost outright, or delivered mangled and rejected by the
                    // receiver's CRC check: either way no ack arrives and the
                    // sender backs off.
                    if matches!(outcome, MessageOutcome::Corrupt { .. }) {
                        tel.count(names::ARQ_CORRUPT_DROPS_TOTAL, &[], 1);
                    }
                    t += ctx.timeout * pow2(attempt);
                    if attempt < ctx.budget {
                        tel.count(names::ARQ_RETRIES_TOTAL, &[], 1);
                        tel.event(
                            t.as_ps() / 1_000,
                            EventKind::ArqRetry {
                                from: u32::from(from.raw()),
                                to: u32::from(to.raw()),
                                attempt: attempt + 1,
                            },
                        );
                    }
                }
            }
        }
        tel.count(names::ARQ_TIMEOUTS_TOTAL, &[], 1);
        Err(t)
    }

    /// When the failure detector declares `core`, fail-stopped at
    /// `kill_at`, dead: once its heartbeat stream (which travels the real
    /// mesh + host-link path) has been silent for `phi_dead` periods.
    /// Unsupervised, peers only learn of the silence through the ARQ's
    /// full retry horizon.
    pub(crate) fn detect(&self, platform: &SccPlatform, core: CoreId, kill_at: SimTime) -> SimTime {
        match &self.supervisor {
            Some(sup) => {
                sup.detect_time(kill_at, platform.host_path_latency(core, HEARTBEAT_BYTES))
            }
            None => kill_at + self.horizon(),
        }
    }

    /// One supervised recovery episode:
    ///
    /// 1. *detect* — see [`RecoveryPlane::detect`];
    /// 2. *migrate* — the MCPC provisions the next spare core over the
    ///    host link, concurrently with whatever the pipeline is doing;
    /// 3. *replay* — `upstream` re-sends its unacknowledged strip from the
    ///    ARQ checkpoint once the spare is ready *and* the data path has
    ///    actually hit the dead core.
    ///
    /// The spare joins the spin-wait roster and the episode is logged and
    /// counted. `None` when no supervisor is armed, the spare pool is
    /// exhausted, or the replay itself dies — the caller then falls back
    /// to graceful degradation.
    pub(crate) fn migrate(&mut self, platform: &mut SccPlatform, ep: Episode) -> Option<Migrated> {
        let spare = self.supervisor.as_mut()?.take_spare()?;
        let detected = self.detect(platform, ep.failed_core, ep.kill_at);
        let ready = platform.host_to_chip(spare, detected, STAGE_PROVISION_BYTES);
        let resend_at = ready.max(ep.observed);
        let resident = self
            .send(platform, ep.upstream, spare, resend_at, ep.bytes)
            .ok()?;
        self.roster.push(spare);
        platform.set_spinning(self.roster.clone());
        self.record(
            RecoveryEvent {
                frame: ep.frame,
                pipeline: ep.pipeline,
                stage: ep.stage,
                failed_core: ep.failed_core.raw(),
                migration_target: spare.raw(),
                killed_at_secs: ep.kill_at.as_secs_f64(),
                detected_at_secs: detected.as_secs_f64(),
                resumed_at_secs: resident.as_secs_f64(),
                frames_replayed: ep.frames_replayed,
                mttr_secs: resident.saturating_sub(ep.kill_at).as_secs_f64(),
            },
            detected,
            Some(resident),
        );
        Some(Migrated {
            spare,
            detected,
            ready,
            resident,
        })
    }

    /// Log one recovery: the report's event, the `HeartbeatMiss` event at
    /// `detected`, the supervision counters and — for a spare migration
    /// whose replay landed at `migrated` — the `Migration` event.
    pub(crate) fn record(
        &mut self,
        e: RecoveryEvent,
        detected: SimTime,
        migrated: Option<SimTime>,
    ) {
        let tel = &self.tel;
        tel.event(
            detected.as_ps() / 1_000,
            EventKind::HeartbeatMiss {
                core: u32::from(e.failed_core),
                suspicion: self.supervisor.as_ref().map_or(0.0, |s| s.phi_dead),
            },
        );
        tel.count(names::HEARTBEAT_MISSES_TOTAL, &[], 1);
        if let Some(at) = migrated {
            tel.event(
                at.as_ps() / 1_000,
                EventKind::Migration {
                    stage: e.stage.name(),
                    pipeline: e.pipeline,
                    from_core: u32::from(e.failed_core),
                    to_core: u32::from(e.migration_target),
                    frames_replayed: e.frames_replayed,
                },
            );
            tel.count(names::MIGRATIONS_TOTAL, &[], 1);
        }
        tel.count(
            names::FRAMES_REPLAYED_TOTAL,
            &[],
            u64::from(e.frames_replayed),
        );
        tel.observe(names::MTTR_SECONDS, &[], SECONDS_BUCKETS, e.mttr_secs);
        self.recoveries.push(e);
    }

    /// The lane that currently runs `strip`.
    pub(crate) fn owner(&self, strip: usize) -> usize {
        self.owner[strip]
    }

    /// Declare `strip`'s lane failed at stage position `failed_stage`
    /// (5 is the handoff to transfer), hand the strip to the next
    /// surviving lane (wrapping) and record the decision. Panics when no
    /// lane survives: with every lane dead the walkthrough genuinely
    /// cannot be delivered.
    pub(crate) fn fail_lane(
        &mut self,
        strip: usize,
        frame: u64,
        at: SimTime,
        failed_stage: usize,
    ) -> usize {
        let lane = self.owner[strip];
        self.failed[lane] = true;
        let p = self.failed.len();
        let adopter = (1..p)
            .map(|k| (lane + k) % p)
            .find(|&k| !self.failed[k])
            .expect("no surviving pipeline to adopt the strip");
        self.owner[strip] = adopter;
        let culprit = StageKind::PIPELINE_FILTERS
            .get(failed_stage)
            .unwrap_or(&StageKind::Transfer);
        self.degradations.push(DegradationEvent {
            frame,
            pipeline: lane as u32,
            reassigned_to: adopter as u32,
            at_secs: at.as_secs_f64(),
            failed_stage: failed_stage as u32,
            reason: format!("{} unresponsive beyond retry budget", culprit.name()),
        });
        adopter
    }

    /// Checkpoint `strip`'s pristine frame `f` (a no-op without a fault
    /// spec: nothing can be lost, nothing is copied).
    pub(crate) fn checkpoint(&mut self, strip: usize, f: u64, frame: &Frame) {
        if let Some(ring) = self.rings.get_mut(strip) {
            ring.push(f, frame.clone());
        }
    }

    /// Frames of `strip` checkpointed but not yet delivered — what a
    /// recovery episode replays.
    pub(crate) fn in_flight(&self, strip: usize) -> u32 {
        self.rings.get(strip).map_or(1, |r| r.unacked() as u32)
    }

    /// The checkpointed copy of `strip`'s frame `f`.
    pub(crate) fn restore(&self, strip: usize, f: u64) -> Frame {
        self.rings[strip]
            .get(f)
            .expect("in-flight strip still checkpointed")
            .clone()
    }

    /// Every strip of frames up to and including `f` left the chip.
    pub(crate) fn ack(&mut self, f: u64) {
        for ring in &mut self.rings {
            ring.ack(f);
        }
    }

    /// Book the supervised run's heartbeat traffic over `[0, until]` and
    /// count it (`scc_heartbeats_total`). Called after the timeline is
    /// final, so the charges never re-time stage work.
    pub(crate) fn finish(&self, platform: &mut SccPlatform, placement: &Placement, until: SimTime) {
        if let (Some(sup), Some(fc)) = (&self.supervisor, &self.fault) {
            let booked =
                book_heartbeats(platform, placement, &fc.plan, sup.heartbeat_period, until);
            self.tel.count(names::HEARTBEATS_TOTAL, &[], booked);
        }
    }
}

/// The MCPC's supervisor state for one run: failure-detector parameters
/// plus the spare-core pool (unused cores of the placement, enlisted in
/// deterministic id order).
pub(crate) struct Supervisor {
    heartbeat_period: SimTime,
    /// Suspicion threshold the detector fires at (phi periods of silence).
    phi_dead: f64,
    spares: Vec<CoreId>,
    enlisted: usize,
}

impl Supervisor {
    pub(crate) fn new(placement: &Placement, spec: &FaultSpec) -> Supervisor {
        let mut spares = placement.spare_pool();
        spares.truncate(spec.max_spares as usize);
        Supervisor {
            heartbeat_period: SimTime::from_us(spec.heartbeat_period_us),
            phi_dead: spec.phi_dead,
            spares,
            enlisted: 0,
        }
    }

    /// Enlist the next spare core (deterministic: id order).
    pub(crate) fn take_spare(&mut self) -> Option<CoreId> {
        let c = self.spares.get(self.enlisted).copied();
        if c.is_some() {
            self.enlisted += 1;
        }
        c
    }

    /// Virtual time at which the phi detector declares a core dead, given
    /// it fail-stopped at `kill_at` and its heartbeats reach the MCPC
    /// after `hb_latency` (see [`SccPlatform::host_path_latency`]). The
    /// last heartbeat leaves at the last period boundary at or before the
    /// kill; suspicion crosses `phi_dead` once that many periods pass
    /// beyond its arrival. With `phi_dead >= 2` (enforced by validation)
    /// this is monotone in the heartbeat period under period doubling.
    pub(crate) fn detect_time(&self, kill_at: SimTime, hb_latency: SimTime) -> SimTime {
        let period = self.heartbeat_period.as_ps();
        let last_sent = SimTime::from_ps((kill_at.as_ps() / period) * period);
        let last_arrival = last_sent + hb_latency;
        last_arrival + SimTime::from_ps((self.phi_dead * period as f64) as u64)
    }
}

/// Book the run's heartbeat traffic onto the platform ledgers: every
/// placed core sends one datagram per period from t=0 until `until` (or
/// until its kill instant — a dead core goes silent). Called after the
/// frame loop so the charges land as real NoC/host-link messages in the
/// stats without perturbing stage timelines; only supervised runs (armed
/// kills) carry this traffic, keeping the quiet-plan identity intact.
/// Returns the number of heartbeats booked (telemetry's
/// `scc_heartbeats_total`).
pub(crate) fn book_heartbeats(
    platform: &mut SccPlatform,
    placement: &Placement,
    plan: &FaultPlan,
    period: SimTime,
    until: SimTime,
) -> u64 {
    let mut booked = 0u64;
    for core in placement.all_cores() {
        let silent_from = plan.kill_time(core.raw()).unwrap_or(SimTime::MAX);
        let mut t = SimTime::ZERO;
        while t < until && t < silent_from {
            // A stalled core issues nothing until its window closes; a
            // datagram whose window closes after the run end (forever,
            // for a permanent stall) never gets out — that silence is
            // exactly what the failure detector sees.
            if plan.stall_adjusted(core.raw(), t) < until {
                platform.heartbeat(core, t);
                booked += 1;
            }
            t += period;
        }
    }
    booked
}

/// Bounded per-strip checkpoint ring: pristine strip frames keyed by
/// frame id, retained until the transfer stage acknowledges delivery.
/// The replay path restores from here, so delivered film stays
/// bit-identical to the fault-free run; the bound keeps checkpoint
/// memory O(depth) per strip no matter how long the walkthrough is.
pub(crate) struct CheckpointRing {
    capacity: usize,
    entries: VecDeque<(u64, Frame)>,
}

impl CheckpointRing {
    pub(crate) fn new(depth: u32) -> CheckpointRing {
        assert!(depth >= 1, "checkpoint ring needs at least one slot");
        CheckpointRing {
            capacity: depth as usize,
            entries: VecDeque::new(),
        }
    }

    /// Checkpoint `frame` under `seq`, evicting the oldest entry when the
    /// ring is full (an evicted frame can no longer be replayed — the
    /// runners never let in-flight depth exceed the bound).
    pub(crate) fn push(&mut self, seq: u64, frame: Frame) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((seq, frame));
    }

    /// The checkpointed frame for `seq`, if still retained.
    pub(crate) fn get(&self, seq: u64) -> Option<&Frame> {
        self.entries.iter().find(|(s, _)| *s == seq).map(|(_, f)| f)
    }

    /// Acknowledge delivery of everything up to and including `seq`.
    pub(crate) fn ack(&mut self, seq: u64) {
        self.entries.retain(|(s, _)| *s > seq);
    }

    /// Frames checkpointed but not yet acknowledged — what a recovery
    /// episode must replay.
    pub(crate) fn unacked(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::place;
    use crate::spec::{Arrangement, KillSpec, RendererMode};
    use scc_filters::StripInfo;

    fn spec(period_us: u64, phi: f64, max_spares: u32) -> FaultSpec {
        FaultSpec {
            kills: vec![KillSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 7,
            }],
            heartbeat_period_us: period_us,
            phi_dead: phi,
            max_spares,
            ..FaultSpec::default()
        }
    }

    /// A plane armed with `fault` on the ordered p-lane placement, with
    /// telemetry on so the tests can see what was counted.
    fn armed(fault: Option<FaultSpec>, p: u32) -> (RecoveryPlane, SccPlatform, Placement) {
        let cfg = RunConfig::builder()
            .pipelines(p)
            .fault(fault)
            .build()
            .expect("valid config");
        let pl = place(RendererMode::SingleRenderer, Arrangement::Ordered, p);
        let mut platform = SccPlatform::new(scc_sim::SccConfig::default());
        let plane = RecoveryPlane::arm(&cfg, &pl, &mut platform, TelemetrySink::enabled());
        (plane, platform, pl)
    }

    fn strip(id: u64) -> Frame {
        Frame {
            id,
            strip: StripInfo {
                index: 0,
                count: 1,
                y0: 0,
                height: 4,
                full_height: 4,
            },
            full_width: 4,
            image: None,
        }
    }

    /// The blur core of lane 0 dying at 7 ms, observed at 9 ms, replayed
    /// from the sepia core.
    fn blur_episode(pl: &Placement) -> Episode {
        Episode {
            frame: 3,
            pipeline: 0,
            stage: StageKind::Blur,
            failed_core: pl.pipelines[0][1],
            kill_at: SimTime::from_ms(7),
            observed: SimTime::from_ms(9),
            upstream: pl.pipelines[0][0],
            bytes: 4096,
            frames_replayed: 2,
        }
    }

    #[test]
    fn unarmed_send_is_the_platform_call_and_counts_nothing() {
        let (mut plane, mut platform, pl) = armed(None, 2);
        let (from, to) = (pl.pipelines[0][0], pl.pipelines[0][1]);
        let at = SimTime::from_us(30);
        let direct =
            SccPlatform::new(scc_sim::SccConfig::default()).send_to_partition(from, to, at, 4096);
        assert_eq!(plane.send(&mut platform, from, to, at, 4096), Ok(direct));
        assert!(plane.seqs.is_empty(), "no sequence counter without an ARQ");
        let snap = plane.tel.snapshot().expect("sink enabled");
        assert_eq!(snap.metric_count() + snap.events.len(), 0);
        assert!(plane.fault_plan().is_none() && plane.kills().is_empty());
        assert!(!plane.dead_equivalent(to, SimTime::MAX));
        assert_eq!(plane.in_flight(0), 1, "ringless runs replay one strip");
    }

    #[test]
    fn migrate_orders_the_episode_and_enrols_the_spare_once() {
        let (mut plane, mut platform, pl) = armed(Some(spec(2_000, 2.0, 8)), 2);
        let roster = plane.roster.len();
        let ep = blur_episode(&pl);
        let (kill_at, observed) = (ep.kill_at, ep.observed);
        let m = plane.migrate(&mut platform, ep).expect("spares available");
        assert_eq!(m.spare, pl.spare_pool()[0]);
        assert!(kill_at <= m.detected && m.detected <= m.ready && m.ready <= m.resident);
        assert!(m.resident >= observed, "replay waits for the data path");
        assert_eq!(plane.roster.len(), roster + 1);
        assert_eq!(plane.roster.iter().filter(|&&c| c == m.spare).count(), 1);
        let [e] = plane.recoveries.as_slice() else {
            panic!("one episode logged, got {:?}", plane.recoveries);
        };
        assert_eq!(e.mttr_secs, e.resumed_at_secs - e.killed_at_secs);
        assert_eq!(e.resumed_at_secs, m.resident.as_secs_f64());
        assert_eq!((e.frame, e.frames_replayed), (3, 2));
        let snap = plane.tel.snapshot().expect("sink enabled");
        for (name, want) in [
            (names::HEARTBEAT_MISSES_TOTAL, 1),
            (names::MIGRATIONS_TOTAL, 1),
            (names::FRAMES_REPLAYED_TOTAL, 2),
        ] {
            assert_eq!(
                snap.counter(name, &[]).map(|c| c.value),
                Some(want),
                "{name}"
            );
        }
        let kinds: Vec<_> = snap.events.iter().map(|e| e.kind.type_name()).collect();
        assert_eq!(kinds, ["heartbeat_miss", "migration"]);
    }

    #[test]
    fn exhausted_spare_pool_leaves_the_plane_untouched() {
        let (mut plane, mut platform, pl) = armed(Some(spec(2_000, 2.0, 0)), 2);
        let roster = plane.roster.clone();
        assert!(plane.migrate(&mut platform, blur_episode(&pl)).is_none());
        assert!(plane.recoveries.is_empty());
        assert_eq!(plane.roster, roster);
        assert!(plane.seqs.is_empty(), "no replay was attempted");
        // Unsupervised planes (no kills) refuse the same way.
        let (mut quiet, mut platform, pl) = armed(Some(FaultSpec::default()), 2);
        assert!(quiet.migrate(&mut platform, blur_episode(&pl)).is_none());
    }

    #[test]
    fn sequence_numbers_advance_per_pair_across_sends_and_a_replay() {
        let (mut plane, mut platform, pl) = armed(Some(spec(2_000, 2.0, 8)), 2);
        let (a, b, c) = (pl.pipelines[0][0], pl.pipelines[0][2], pl.pipelines[1][2]);
        let pair = |from: CoreId, to: CoreId| (from.raw(), to.raw());
        for _ in 0..2 {
            plane
                .send(&mut platform, a, b, SimTime::ZERO, 64)
                .expect("quiet links");
        }
        assert_eq!(plane.roll(a, b), MessageOutcome::Deliver);
        plane
            .send(&mut platform, a, c, SimTime::ZERO, 64)
            .expect("quiet links");
        assert_eq!(plane.seqs[&pair(a, b)], 3);
        assert_eq!(plane.seqs[&pair(a, c)], 1);
        // The replay is one more stop-and-wait message, upstream -> spare.
        let m = plane
            .migrate(&mut platform, blur_episode(&pl))
            .expect("spare");
        assert_eq!(plane.seqs[&pair(a, m.spare)], 1);
        assert_eq!(plane.seqs[&pair(a, b)], 3, "other pairs untouched");
        // A send to the killed core gives up after the full horizon.
        let dead = pl.pipelines[0][1];
        assert_eq!(plane.kill_seen(dead, SimTime::from_ms(6)), None);
        assert_eq!(
            plane.kill_seen(dead, SimTime::from_ms(7)),
            Some(SimTime::from_ms(7))
        );
        let at = SimTime::from_ms(8);
        assert_eq!(
            plane.send(&mut platform, a, dead, at, 64),
            Err(at + plane.horizon())
        );
    }

    #[test]
    fn rings_keep_in_flight_within_the_depth() {
        let depth = FaultSpec::default().checkpoint_depth;
        let (mut plane, _, _) = armed(Some(FaultSpec::default()), 2);
        for f in 0..3 * u64::from(depth) {
            plane.checkpoint(0, f, &strip(f));
            assert!(plane.in_flight(0) <= depth);
            assert_eq!(plane.restore(0, f).id, f);
        }
        assert_eq!(plane.in_flight(0), depth);
        assert_eq!(plane.in_flight(1), 0, "rings are per strip");
        plane.ack(3 * u64::from(depth) - 2);
        assert_eq!(plane.in_flight(0), 1);
    }

    #[test]
    fn fail_lane_hands_the_strip_to_the_next_survivor() {
        let (mut plane, _, _) = armed(Some(FaultSpec::default()), 3);
        assert_eq!(plane.fail_lane(1, 4, SimTime::from_ms(2), 2), 2);
        assert_eq!(plane.owner(1), 2);
        // Lane 2 now dies while running strip 1: wraps to lane 0.
        assert_eq!(plane.fail_lane(1, 5, SimTime::from_ms(3), 5), 0);
        assert_eq!((plane.owner(0), plane.owner(1), plane.owner(2)), (0, 0, 2));
        let d = &plane.degradations;
        assert_eq!(
            (d[0].pipeline, d[0].reassigned_to, d[0].failed_stage),
            (1, 2, 2)
        );
        assert_eq!(d[0].reason, "scratch unresponsive beyond retry budget");
        assert_eq!(d[1].reason, "transfer unresponsive beyond retry budget");
    }

    #[test]
    #[should_panic(expected = "no surviving pipeline to adopt the strip")]
    fn fail_lane_panics_when_no_lane_survives() {
        let (mut plane, _, _) = armed(Some(FaultSpec::default()), 2);
        plane.fail_lane(0, 0, SimTime::ZERO, 0);
        plane.fail_lane(0, 0, SimTime::ZERO, 0);
    }

    #[test]
    fn kills_resolve_to_placement_cores() {
        let pl = place(RendererMode::SingleRenderer, Arrangement::Ordered, 2);
        let kills = resolve_kills(&spec(50_000, 4.0, 8), &pl);
        assert_eq!(kills.len(), 1);
        assert_eq!(kills[0].core, pl.pipelines[0][1].raw());
        assert_eq!(kills[0].at, SimTime::from_ms(7));
    }

    #[test]
    fn spare_enlistment_is_deterministic_and_bounded() {
        let pl = place(RendererMode::SingleRenderer, Arrangement::Ordered, 2);
        let pool = pl.spare_pool();
        let mut sup = Supervisor::new(&pl, &spec(50_000, 4.0, 2));
        assert_eq!(sup.take_spare(), Some(pool[0]));
        assert_eq!(sup.take_spare(), Some(pool[1]));
        assert_eq!(sup.take_spare(), None, "pool exhausted at max_spares");

        let mut none = Supervisor::new(&pl, &spec(50_000, 4.0, 0));
        assert_eq!(none.take_spare(), None, "max_spares=0 forces degradation");
    }

    #[test]
    fn detection_is_finite_phi_scaled_and_period_monotone() {
        let pl = place(RendererMode::SingleRenderer, Arrangement::Ordered, 2);
        let lat = SimTime::from_us(40);
        for kill_ms in [0u64, 3, 7, 99] {
            let kill = SimTime::from_ms(kill_ms);
            for period in [10_000u64, 25_000, 50_000] {
                let d1 = Supervisor::new(&pl, &spec(period, 2.0, 8)).detect_time(kill, lat);
                let d2 = Supervisor::new(&pl, &spec(2 * period, 2.0, 8)).detect_time(kill, lat);
                assert!(d1 > kill, "detection precedes the kill");
                assert!(d2 >= d1, "doubling the period sped up detection");
                // Higher phi waits longer.
                let strict = Supervisor::new(&pl, &spec(period, 6.0, 8)).detect_time(kill, lat);
                assert!(strict > d1);
            }
        }
    }

    #[test]
    fn detect_time_matches_the_rcce_phi_detector() {
        // The closed form must agree with scc-rcce's incremental detector:
        // feed it the last heartbeat arrival, then suspicion crosses the
        // threshold exactly at (never before) the computed instant.
        let pl = place(RendererMode::SingleRenderer, Arrangement::Ordered, 2);
        let sup = Supervisor::new(&pl, &spec(50_000, 4.0, 8));
        let lat = SimTime::from_us(25);
        let kill = SimTime::from_ms(123);
        let detect = sup.detect_time(kill, lat);

        let period_ns = 50_000_000u64; // 50 ms
        let last_arrival_ns = (kill.as_ps() / (period_ns * 1000)) * period_ns + lat.as_ps() / 1000;
        let mut phi = scc_rcce::health::PhiDetector::new(period_ns, 4.0, 0);
        phi.observe(last_arrival_ns, 1);
        let just_before = detect.as_ps() / 1000 - 1;
        assert!(!phi.is_dead(just_before), "declared dead early");
        assert!(
            phi.is_dead(detect.as_ps() / 1000 + 1),
            "missed the deadline"
        );
    }

    #[test]
    fn checkpoint_ring_retains_acks_and_bounds() {
        let mut ring = CheckpointRing::new(2);
        ring.push(0, strip(0));
        assert_eq!(ring.unacked(), 1);
        assert_eq!(ring.get(0).map(|f| f.id), Some(0));
        ring.ack(0);
        assert_eq!(ring.unacked(), 0);
        assert!(ring.get(0).is_none(), "acked frames are released");

        // Bounded: pushing past capacity evicts the oldest.
        ring.push(1, strip(1));
        ring.push(2, strip(2));
        ring.push(3, strip(3));
        assert_eq!(ring.unacked(), 2);
        assert!(ring.get(1).is_none(), "evicted by the bound");
        assert!(ring.get(2).is_some() && ring.get(3).is_some());
        ring.ack(3);
        assert_eq!(ring.unacked(), 0);
    }

    #[test]
    fn heartbeat_booking_charges_real_messages_until_kill() {
        use scc_sim::fault::FaultConfig;
        use scc_sim::SccConfig;
        let pl = place(RendererMode::SingleRenderer, Arrangement::Ordered, 1);
        let plan = FaultPlan::new(FaultConfig {
            kills: resolve_kills(&spec(50_000, 4.0, 8), &pl),
            ..FaultConfig::default()
        });
        let mut platform = SccPlatform::new(SccConfig::default());
        let before = platform.stats().noc_messages;
        let period = SimTime::from_ms(50);
        book_heartbeats(&mut platform, &pl, &plan, period, SimTime::from_ms(500));
        let sent = platform.stats().noc_messages - before;
        // 8 placed cores (1 renderer + 5 filters + transfer = 7... plus
        // none else) beat 10 times each, except the killed blur core which
        // goes silent after 7 ms (1 beat, at t=0).
        let placed = pl.all_cores().len() as u64;
        assert_eq!(sent, (placed - 1) * 10 + 1);
    }
}
