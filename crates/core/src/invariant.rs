//! Runtime invariant checking for the pipeline executors.
//!
//! Behind [`crate::spec::RunConfig::verify`] the sim and DES runners hand
//! their finished report to [`check_report`], which walks every internal
//! consistency property the executors are supposed to uphold:
//!
//! * **frame conservation** — every stage's frame ledger balances: each
//!   filter position processed `pipelines × frames` strips plus one
//!   aborted pass per degradation event that failed *downstream* of it;
//!   sources and the transfer stage each account for every frame;
//! * **trace causality** — per core, the busy phases (fetch → compute →
//!   memory → send) appear in cycle order with strictly advancing,
//!   non-overlapping virtual-time spans inside `[0, total]`;
//! * **energy identity** — the SCC energy is finite and not below the
//!   idle floor (idle power × run length), and no power sample dips
//!   below that floor;
//! * **recovery legality** — every self-healing episode is ordered
//!   (killed ≤ detected ≤ resumed), its MTTR is the closed difference,
//!   and the replay never exceeds the checkpoint ring's depth.
//!
//! NoC flit conservation lives next to the mesh state it audits
//! ([`scc_sim::noc::Noc::audit`]); the runners fold its verdict into the
//! same violation list. Violations are *reported with the seed and
//! config that produced them* ([`enforce`]) so any failure is a
//! one-paste repro.

use crate::metrics::WalkthroughReport;
use crate::spec::{RendererMode, RunConfig, StageKind};
use crate::trace::{Phase, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One broken invariant: which check tripped and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable kebab-case name of the invariant (e.g. `frame-conservation`).
    pub check: &'static str,
    pub detail: String,
}

impl Violation {
    pub fn new(check: &'static str, detail: impl Into<String>) -> Violation {
        Violation {
            check,
            detail: detail.into(),
        }
    }
}

/// Render the seed + config that produced a violation, debug-complete so
/// the failing run can be reconstructed from the message alone.
pub fn describe(cfg: &RunConfig) -> String {
    format!(
        "seed={:#x} fault_seed={} {:?}",
        cfg.seed,
        cfg.fault
            .as_ref()
            .map_or("none".to_string(), |f| format!("{:#x}", f.seed)),
        cfg
    )
}

/// Panic with every violation and the offending configuration; no-op on
/// an empty list. The runners call this; search tooling (`scc-verify`)
/// uses [`check_report`] directly to harvest violations without dying.
pub fn enforce(cfg: &RunConfig, violations: &[Violation]) {
    if violations.is_empty() {
        return;
    }
    let mut msg = String::new();
    let _ = writeln!(
        msg,
        "{} invariant violation(s) in {}",
        violations.len(),
        describe(cfg)
    );
    for v in violations {
        let _ = writeln!(msg, "  [{}] {}", v.check, v.detail);
    }
    panic!("{msg}");
}

/// Run every report-level invariant; returns all violations found.
pub fn check_report(report: &WalkthroughReport) -> Vec<Violation> {
    let mut v = Vec::new();
    check_totals(report, &mut v);
    check_frame_conservation(report, &mut v);
    check_energy_identity(report, &mut v);
    check_events(report, &mut v);
    check_tasks(report, &mut v);
    v.extend(check_dvfs_decisions(&report.dvfs_decisions));
    if let Some(trace) = &report.trace {
        check_trace(report, trace.events(), &mut v);
    }
    v
}

/// Every governor decision must be a *legal* move: epochs strictly
/// increase (one decision per epoch, in order) and each Raise/Throttle
/// steps exactly one rung of the 400/533/800 ladder — the control law
/// never teleports a tile across the frequency range in one epoch.
pub fn check_dvfs_decisions(decisions: &[crate::governor::GovernorDecision]) -> Vec<Violation> {
    use crate::governor::{adjacent_steps, GovernorAction};
    let mut v = Vec::new();
    let mut prev_epoch: Option<u32> = None;
    for d in decisions {
        if let Some(p) = prev_epoch {
            if d.epoch <= p {
                v.push(Violation::new(
                    "dvfs-legality",
                    format!("decision at epoch {} after epoch {p}", d.epoch),
                ));
            }
        }
        prev_epoch = Some(d.epoch);
        match d.action {
            GovernorAction::Raise { tile, from, to } => {
                if to.mhz() <= from.mhz() || !adjacent_steps(from, to) {
                    v.push(Violation::new(
                        "dvfs-legality",
                        format!(
                            "epoch {}: raise of tile {} from {} to {} MHz is not \
                             one step up",
                            d.epoch,
                            tile.index(),
                            from.mhz(),
                            to.mhz()
                        ),
                    ));
                }
            }
            GovernorAction::Throttle { island, from, to } => {
                if to.mhz() >= from.mhz() || !adjacent_steps(from, to) {
                    v.push(Violation::new(
                        "dvfs-legality",
                        format!(
                            "epoch {}: throttle of island {} from {} to {} MHz is \
                             not one step down",
                            d.epoch,
                            island.index(),
                            from.mhz(),
                            to.mhz()
                        ),
                    ));
                }
            }
            GovernorAction::Hold | GovernorAction::CapBlocked { .. } => {}
        }
    }
    v
}

/// Report-level invariants for the workload plane (`Generic` and
/// `Wavefront` runs): finite positive totals, per-group busy time inside
/// the walkthrough, the energy identity against the cheapest idle floor
/// the run visited, and a legal governor trace.
pub fn check_generic_report(r: &crate::generic::GenericReport) -> Vec<Violation> {
    let mut v = Vec::new();
    if !(r.total_secs.is_finite() && r.total_secs > 0.0) {
        v.push(Violation::new(
            "totals",
            format!("workload time {} not positive finite", r.total_secs),
        ));
    }
    if r.items == 0 {
        v.push(Violation::new("totals", "run processed zero items"));
    }
    for s in &r.stages {
        if !(s.busy_secs.is_finite() && s.busy_secs >= 0.0)
            || s.busy_secs > r.total_secs * (1.0 + 1e-9)
        {
            v.push(Violation::new(
                "totals",
                format!(
                    "group {} busy {}s outside [0, total {}s]",
                    s.name, s.busy_secs, r.total_secs
                ),
            ));
        }
        if !(0.0..=1.0 + 1e-9).contains(&s.utilisation) {
            v.push(Violation::new(
                "totals",
                format!("group {} utilisation {}", s.name, s.utilisation),
            ));
        }
    }
    check_energy_floor(r.energy_joules, r.scc_idle_power, r.total_secs, &mut v);
    let eps = 1e-6 * r.energy_joules.abs().max(1.0);
    if (r.mean_power * r.total_secs - r.energy_joules).abs() > eps {
        v.push(Violation::new(
            "energy-identity",
            format!(
                "mean power {} W x {} s != {} J",
                r.mean_power, r.total_secs, r.energy_joules
            ),
        ));
    }
    v.extend(check_dvfs_decisions(&r.dvfs_decisions));
    v
}

/// Exactly-once session accounting for the serving layer (`scc-serve`):
/// every session the frontend took responsibility for must reach exactly
/// one terminal state — `completed + shed == admitted` — so load shedding
/// can never be silent. Plain-argument form because the serving ledger
/// lives above this crate; `scc-serve` calls it and feeds the result to
/// [`enforce`].
pub fn check_session_ledger(admitted: u64, completed: u64, shed: u64) -> Vec<Violation> {
    let mut v = Vec::new();
    if completed + shed != admitted {
        v.push(Violation::new(
            "session-ledger",
            format!(
                "completed ({completed}) + shed ({shed}) != admitted ({admitted}); \
                 {} session(s) unaccounted for",
                admitted as i128 - (completed + shed) as i128
            ),
        ));
    }
    v
}

/// Exactly-once task accounting for `Runtime::Tasks` runs: every spawned
/// task is either completed or degraded (`completed + degraded ==
/// spawned`, the ISSUE's `completed + re-queued + degraded = spawned`
/// with every re-queued task having re-entered its chain by run end);
/// re-runs only ever *add* executions (`executed >= completed`), never
/// completions; and the steal ledger is internally consistent.
fn check_tasks(r: &WalkthroughReport, v: &mut Vec<Violation>) {
    use crate::spec::Runtime;
    let Some(t) = &r.task_stats else {
        if r.config.runtime == Runtime::Tasks {
            v.push(Violation::new(
                "task-conservation",
                "Tasks run produced no task ledger",
            ));
        }
        return;
    };
    if r.config.runtime != Runtime::Tasks {
        v.push(Violation::new(
            "task-conservation",
            "task ledger present on a static-placement run",
        ));
    }
    if t.completed + t.degraded != t.spawned {
        v.push(Violation::new(
            "task-conservation",
            format!(
                "completed {} + degraded {} != spawned {} — a task was \
                 duplicated or lost",
                t.completed, t.degraded, t.spawned
            ),
        ));
    }
    if t.executed < t.completed {
        v.push(Violation::new(
            "task-conservation",
            format!(
                "executed {} < completed {} — a completion without an execution",
                t.executed, t.completed
            ),
        ));
    }
    if t.executed > t.completed && t.requeued == 0 {
        v.push(Violation::new(
            "task-conservation",
            format!(
                "{} re-executions with no re-queue recorded",
                t.executed - t.completed
            ),
        ));
    }
    if t.steals > t.steal_attempts {
        v.push(Violation::new(
            "task-conservation",
            format!(
                "{} completed steals out of {} attempts",
                t.steals, t.steal_attempts
            ),
        ));
    }
    let expected = r.config.pipelines as u64
        * r.config.frames
        * crate::partition::plan_for(&r.config).groups.len() as u64;
    if t.spawned != expected {
        v.push(Violation::new(
            "task-conservation",
            format!(
                "{} tasks spawned, plan implies {} (strips x groups)",
                t.spawned, expected
            ),
        ));
    }
}

fn check_totals(r: &WalkthroughReport, v: &mut Vec<Violation>) {
    if !(r.total_secs.is_finite() && r.total_secs > 0.0) {
        v.push(Violation::new(
            "totals",
            format!("walkthrough time {} not positive finite", r.total_secs),
        ));
    }
    for s in &r.stage_reports {
        if !(s.busy_secs.is_finite() && s.busy_secs >= 0.0)
            || s.busy_secs > r.total_secs * (1.0 + 1e-9)
        {
            v.push(Violation::new(
                "totals",
                format!(
                    "stage {} p{:?} busy {}s outside [0, total {}s]",
                    s.kind.name(),
                    s.pipeline,
                    s.busy_secs,
                    r.total_secs
                ),
            ));
        }
        if !(s.idle_total_secs.is_finite() && s.idle_total_secs >= 0.0) {
            v.push(Violation::new(
                "totals",
                format!(
                    "stage {} p{:?} idle total {}s negative or non-finite",
                    s.kind.name(),
                    s.pipeline,
                    s.idle_total_secs
                ),
            ));
        }
    }
}

/// in = out + degraded + replayed, per stage position: a filter at
/// position `j` runs `p × frames` successful passes plus one aborted pass
/// for every degradation whose failure point lies *past* `j` (those
/// strips cleared stage `j` before the lane died and were then re-run on
/// the adopting lane from scratch). Sources and transfer each see every
/// frame exactly once; replayed strips re-enter the *same* stage pass, so
/// migration never double-counts.
fn check_frame_conservation(r: &WalkthroughReport, v: &mut Vec<Violation>) {
    let frames = r.config.frames;
    let p = r.config.pipelines as u64;
    for s in &r.stage_reports {
        let want = match s.kind {
            StageKind::Render | StageKind::Connect | StageKind::Transfer => frames,
            // Filter stages are balanced summed across lanes below.
            _ => continue,
        };
        if s.frames != want {
            v.push(Violation::new(
                "frame-conservation",
                format!(
                    "{} p{:?} processed {} frames, walkthrough has {}",
                    s.kind.name(),
                    s.pipeline,
                    s.frames,
                    want
                ),
            ));
        }
    }
    for (j, &kind) in StageKind::PIPELINE_FILTERS.iter().enumerate() {
        let processed: u64 = r
            .stage_reports
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.frames)
            .sum();
        let aborted = r
            .degradations
            .iter()
            .filter(|d| d.failed_stage > j as u32)
            .count() as u64;
        let want = p * frames + aborted;
        if processed != want {
            v.push(Violation::new(
                "frame-conservation",
                format!(
                    "{} ledger: {} strips across lanes, expected {} \
                     ({} lanes x {} frames + {} aborted passes)",
                    kind.name(),
                    processed,
                    want,
                    p,
                    frames,
                    aborted
                ),
            ));
        }
    }
    // Source stages exist in the shape the renderer mode dictates.
    let renders = r
        .stage_reports
        .iter()
        .filter(|s| s.kind == StageKind::Render)
        .count() as u64;
    let want_renders = match r.config.renderer {
        RendererMode::PerPipelineRenderer => p,
        RendererMode::SingleRenderer => 1,
        RendererMode::McpcRenderer => 0,
    };
    if renders != want_renders {
        v.push(Violation::new(
            "frame-conservation",
            format!("{renders} render stages reported, mode implies {want_renders}"),
        ));
    }
}

/// A run's energy is finite and not below its idle floor: the idle power
/// of the cheapest DVFS state it visited times its length, less a
/// relative ε. Both report kinds check their energy here.
fn check_energy_floor(joules: f64, idle_watts: f64, secs: f64, v: &mut Vec<Violation>) {
    let floor = idle_watts * secs;
    if !(joules.is_finite() && joules + 1e-6 * joules.abs().max(1.0) >= floor) {
        v.push(Violation::new(
            "energy-identity",
            format!("energy {joules} J not finite or below the idle floor {floor} J ({idle_watts} W x {secs} s)"),
        ));
    }
}

/// The SCC energy against its idle floor, a sane MCPC busy time, and the
/// power trace never dipping below idle.
fn check_energy_identity(r: &WalkthroughReport, v: &mut Vec<Violation>) {
    check_energy_floor(r.scc_energy_joules, r.scc_idle_power, r.total_secs, v);
    if !(r.mcpc_busy_secs.is_finite() && r.mcpc_busy_secs >= 0.0) {
        v.push(Violation::new(
            "energy-identity",
            format!("mcpc busy {}s negative or non-finite", r.mcpc_busy_secs),
        ));
    }
    for s in &r.power_trace {
        if !s.watts.is_finite() || s.watts < r.scc_idle_power - 1e-6 {
            v.push(Violation::new(
                "energy-identity",
                format!(
                    "power sample {} W below the {} W idle floor",
                    s.watts, r.scc_idle_power
                ),
            ));
            break;
        }
    }
}

/// Degradation and recovery events must be internally consistent and
/// legal under the run's fault spec.
fn check_events(r: &WalkthroughReport, v: &mut Vec<Violation>) {
    let p = r.config.pipelines;
    for d in &r.degradations {
        if d.pipeline >= p || d.reassigned_to >= p || d.reassigned_to == d.pipeline {
            v.push(Violation::new(
                "degradation-legality",
                format!(
                    "degradation reassigns pipeline {} to {} of {}",
                    d.pipeline, d.reassigned_to, p
                ),
            ));
        }
        if d.failed_stage > 5 {
            v.push(Violation::new(
                "degradation-legality",
                format!(
                    "failed_stage {} beyond the transfer handoff",
                    d.failed_stage
                ),
            ));
        }
        if !(d.at_secs.is_finite() && d.at_secs >= 0.0) {
            v.push(Violation::new(
                "degradation-legality",
                format!("degradation at {}s", d.at_secs),
            ));
        }
    }
    check_recoveries(r, v);
}

/// Recovery-timeline legality: kill ≤ detect ≤ resume, MTTR is their
/// span, the replay fits the checkpoint ring, and the lane exists.
fn check_recoveries(r: &WalkthroughReport, v: &mut Vec<Violation>) {
    let (depth, pipelines) = (
        r.config.fault.as_ref().map_or(0, |f| f.checkpoint_depth),
        r.config.pipelines,
    );
    for e in &r.recoveries {
        if !(e.killed_at_secs <= e.detected_at_secs && e.detected_at_secs <= e.resumed_at_secs) {
            v.push(Violation::new(
                "recovery-legality",
                format!(
                    "recovery timeline disordered: killed {} detected {} resumed {}",
                    e.killed_at_secs, e.detected_at_secs, e.resumed_at_secs
                ),
            ));
        }
        if (e.mttr_secs - (e.resumed_at_secs - e.killed_at_secs)).abs() > 1e-9 {
            v.push(Violation::new(
                "recovery-legality",
                format!(
                    "mttr {} != resumed - killed = {}",
                    e.mttr_secs,
                    e.resumed_at_secs - e.killed_at_secs
                ),
            ));
        }
        if e.frames_replayed == 0 || e.frames_replayed > depth {
            v.push(Violation::new(
                "recovery-legality",
                format!(
                    "replayed {} frames with a checkpoint ring of depth {}",
                    e.frames_replayed, depth
                ),
            ));
        }
        if e.pipeline >= pipelines {
            v.push(Violation::new(
                "recovery-legality",
                format!("recovery names pipeline {} of {}", e.pipeline, pipelines),
            ));
        }
    }
}

/// Position of a busy phase in the fetch → compute → memory → send cycle.
fn cycle_index(phase: Phase) -> Option<usize> {
    match phase {
        Phase::Fetch => Some(0),
        Phase::Compute => Some(1),
        Phase::Memory => Some(2),
        Phase::Send => Some(3),
        // Wait legitimately overlaps Migrate after a migration, and
        // Degrade is a zero-width marker; none of the three occupies the
        // core.
        Phase::Wait | Phase::Degrade | Phase::Migrate => None,
    }
}

/// Trace-span causality and per-core non-overlap, plus monotone clocks:
/// every span lies inside `[0, total]`; on one core the busy phases
/// strictly advance and the filter stages cycle fetch → compute →
/// memory → send (memory is optional — a stage with no extra traffic
/// emits a zero-width span, which the log drops).
fn check_trace(r: &WalkthroughReport, events: &[TraceEvent], v: &mut Vec<Violation>) {
    let total = r.total_secs;
    let mut per_core: BTreeMap<u8, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if e.t1 <= e.t0 {
            v.push(Violation::new(
                "trace-causality",
                format!(
                    "core {} {} {} span not forward in time: {} -> {}",
                    e.core,
                    e.kind.name(),
                    e.phase.name(),
                    e.t0.as_secs_f64(),
                    e.t1.as_secs_f64()
                ),
            ));
        }
        if e.t1.as_secs_f64() > total * (1.0 + 1e-9) + 1e-12 {
            v.push(Violation::new(
                "trace-causality",
                format!(
                    "core {} {} {} span ends at {}s, past the {}s walkthrough",
                    e.core,
                    e.kind.name(),
                    e.phase.name(),
                    e.t1.as_secs_f64(),
                    total
                ),
            ));
        }
        if cycle_index(e.phase).is_some() {
            per_core.entry(e.core).or_default().push(e);
        }
    }
    // Under degradation or migration a lane legally re-runs a frame it
    // adopted (often with its zero-width Fetch span dropped), so the
    // strict within-frame cycle order only holds on clean runs; frame
    // monotonicity and non-overlap hold regardless.
    let clean = r.degradations.is_empty() && r.recoveries.is_empty();
    for (core, mut spans) in per_core {
        spans.sort_by_key(|e| (e.t0, e.t1));
        let filters_only = clean
            && spans
                .iter()
                .all(|e| StageKind::PIPELINE_FILTERS.contains(&e.kind));
        let mut prev_end = None;
        let mut prev_cycle: Option<(u64, StageKind, usize)> = None;
        for e in &spans {
            if let Some(end) = prev_end {
                if e.t0 < end {
                    v.push(Violation::new(
                        "trace-overlap",
                        format!(
                            "core {core} busy spans overlap: {} {} starts at {}s \
                             before the previous span ends at {}s",
                            e.kind.name(),
                            e.phase.name(),
                            e.t0.as_secs_f64(),
                            end.as_secs_f64()
                        ),
                    ));
                    break;
                }
            }
            prev_end = Some(e.t1);
            // Cycle-order causality only applies to the filter stages —
            // source and transfer cores emit different shapes. Within one
            // (frame, stage) the cycle index must strictly advance (phases
            // with no work emit zero-width spans the log drops, so gaps
            // are fine); across spans the frame number never regresses.
            // The check is keyed by stage kind, not just frame, because a
            // merged auto-placement group runs several stages of the same
            // frame back-to-back on one core.
            if filters_only {
                let idx = cycle_index(e.phase).expect("busy phases only");
                if let Some((pf, pk, pi)) = prev_cycle {
                    if e.frame < pf {
                        v.push(Violation::new(
                            "trace-causality",
                            format!(
                                "core {core} frame {} {} span after frame {pf}",
                                e.frame,
                                e.phase.name()
                            ),
                        ));
                        break;
                    }
                    if e.frame == pf && e.kind == pk && idx <= pi {
                        v.push(Violation::new(
                            "trace-causality",
                            format!(
                                "core {core} frame {} phase {} out of cycle order \
                                 after index {pi}",
                                e.frame,
                                e.phase.name()
                            ),
                        ));
                        break;
                    }
                }
                prev_cycle = Some((e.frame, e.kind, idx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::sim::SimRunner;
    use crate::spec::{Arrangement, FaultSpec, Fidelity, KillSpec, StallSpec};
    use scc_render::{CityConfig, Scene};
    use std::sync::Arc;

    fn scene() -> Arc<Scene> {
        Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 3,
        }))
    }

    fn cfg(mode: RendererMode, pipelines: u32) -> RunConfig {
        RunConfig {
            renderer: mode,
            pipelines,
            width: 64,
            height: 48,
            frames: 4,
            seed: 11,
            arrangement: Arrangement::Ordered,
            fidelity: Fidelity::TimingOnly,
            verify: true,
            ..RunConfig::default()
        }
    }

    #[test]
    fn healthy_runs_verify_clean_in_every_mode() {
        for mode in [
            RendererMode::SingleRenderer,
            RendererMode::PerPipelineRenderer,
            RendererMode::McpcRenderer,
        ] {
            // `verify: true` panics inside run() on any violation.
            let report = SimRunner::new(cfg(mode, 2), scene()).run();
            assert!(check_report(&report).is_empty(), "{mode:?}");
            // The internal trace is stripped when the caller did not ask.
            assert!(report.trace.is_none());
        }
    }

    #[test]
    fn degraded_run_still_balances_the_frame_ledger() {
        let mut c = cfg(RendererMode::SingleRenderer, 3);
        c.fault = Some(FaultSpec {
            stall: Some(StallSpec {
                pipeline: 1,
                stage: 2,
                at_ms: 0,
                for_ms: u64::MAX,
            }),
            ..FaultSpec::default()
        });
        let report = SimRunner::new(c, scene()).run();
        assert!(!report.degradations.is_empty());
        assert!(report.degradations.iter().all(|d| d.failed_stage <= 5));
        assert!(check_report(&report).is_empty());
    }

    #[test]
    fn recovered_run_verifies_clean() {
        let mut c = cfg(RendererMode::SingleRenderer, 2);
        c.fault = Some(FaultSpec {
            kills: vec![KillSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 1,
            }],
            heartbeat_period_us: 2_000,
            phi_dead: 2.0,
            ..FaultSpec::default()
        });
        let report = SimRunner::new(c, scene()).run();
        assert_eq!(report.recoveries.len(), 1);
        assert!(check_report(&report).is_empty());
    }

    #[test]
    fn verify_never_changes_the_virtual_timeline() {
        let mut plain = cfg(RendererMode::McpcRenderer, 2);
        plain.verify = false;
        let mut verified = plain.clone();
        verified.verify = true;
        let a = SimRunner::new(plain, scene()).run();
        let b = SimRunner::new(verified, scene()).run();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn doctored_report_is_flagged_with_repro_context() {
        let mut c = cfg(RendererMode::SingleRenderer, 2);
        c.verify = false;
        let mut report = SimRunner::new(c, scene()).run();
        // Cook the transfer ledger the way a lost frame would.
        let t = report
            .stage_reports
            .iter_mut()
            .find(|s| s.kind == StageKind::Transfer)
            .unwrap();
        t.frames -= 1;
        let violations = check_report(&report);
        assert!(violations
            .iter()
            .any(|v| v.check == "frame-conservation" && v.detail.contains("transfer")));
        // And the enforcement message carries the seed.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            enforce(&report.config, &violations)
        }))
        .expect_err("enforce must panic on violations");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("seed=0xb"), "repro context missing: {msg}");
    }

    #[test]
    fn non_finite_energy_breaks_the_energy_identity() {
        let mut c = cfg(RendererMode::McpcRenderer, 2);
        c.verify = false;
        let mut report = SimRunner::new(c, scene()).run();
        assert!(check_report(&report).is_empty());
        for joules in [f64::NAN, f64::INFINITY] {
            report.scc_energy_joules = joules;
            assert!(
                check_report(&report)
                    .iter()
                    .any(|v| v.check == "energy-identity"),
                "energy {joules} passed the energy identity"
            );
        }
    }

    #[cfg(feature = "verify-selftest")]
    #[test]
    fn planted_frame_accounting_mutant_is_caught() {
        let mut c = cfg(RendererMode::SingleRenderer, 2);
        c.verify = false; // harvest violations instead of panicking
        let report = SimRunner::new(c, scene()).run();
        let violations = check_report(&report);
        assert!(
            violations.iter().any(|v| v.check == "frame-conservation"),
            "the planted off-by-one must trip frame conservation: {violations:?}"
        );
    }
}
