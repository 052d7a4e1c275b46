//! Event-driven cross-validation executor.
//!
//! [`super::sim::SimRunner`] computes stage timelines frame-major, relying
//! on the time-bucketed resource ledger to tolerate out-of-order platform
//! bookings. This module is an *independent* implementation of the same
//! rendezvous pipeline semantics as a dependency-driven discrete-event
//! simulation on [`scc_sim::EventQueue`]: nodes are `(stage, frame)` work
//! items, scheduled once all their dependencies (input arrival, own
//! previous frame, downstream readiness) resolve, and executed in
//! nondecreasing start-time order — so platform bookings happen almost
//! exactly in virtual-time order.
//!
//! The two executors share the platform, the cost model, what one
//! stage books on them ([`super::source`], [`super::stage`]) and the
//! supervised recovery episode ([`crate::supervise::RecoveryPlane`] —
//! this executor observes a kill at a filter node's start, re-homes
//! `reps`, and does not install the schedule on the platform); the
//! scheduling — when a stage may start, and in what order the platform
//! sees the bookings — is written twice on purpose. `tests/` asserts they
//! agree within a small tolerance, which guards both implementations
//! against scheduling bugs. (The single-renderer mode is enough to
//! exercise every rendezvous pattern: fan-out, chains, fan-in.)

use super::sim::StageState;
use super::source::FilmSource;
use super::stage::FilmStages;
use crate::cost::CostModel;
use crate::frame::Frame;
use crate::metrics::{RecoveryEvent, WalkthroughReport};
use crate::partition::StagePlan;
use crate::placement::Placement;
use crate::power_plane::PowerPlane;
use crate::spec::{Fidelity, RunConfig, StageKind};
use crate::supervise::{Episode, RecoveryPlane};
use scc_filters::Image;
use scc_render::{Renderer, Scene, Walkthrough};
use scc_sim::fault::CoreKill;
use scc_sim::{CoreId, EventQueue, SccConfig, SccPlatform, SimTime};
use scc_telemetry::{names, TelemetrySink, IDLE_MS_BUCKETS};
use std::collections::HashMap;
use std::sync::Arc;

/// A work item: one stage processing one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Render(u64),
    /// (pipeline, stage index 0..5, frame)
    Filter(usize, usize, u64),
    Transfer(u64),
}

/// Resolved timing facts other nodes consume.
#[derive(Debug, Default, Clone, Copy)]
struct Facts {
    /// When the stage finished its cycle (ready for the next frame) —
    /// also the instant its output became resident downstream (for the
    /// renderer, per target: folded into `arrivals`).
    free: SimTime,
}

/// Minimal result of a DES run.
#[derive(Debug, Clone)]
pub struct DesReport {
    pub total_secs: f64,
    /// Assembled output frames (full fidelity only) — lets the
    /// differential suite compare the DES data path bit-for-bit against
    /// the other runners.
    pub frames: Option<Vec<Image>>,
    /// Supervised kill recoveries, in detection order — the DES
    /// counterpart of [`crate::metrics::WalkthroughReport::recoveries`],
    /// so the differential suite can cross-check the migration timeline.
    pub recoveries: Vec<RecoveryEvent>,
    /// Metrics and events recorded during the run
    /// ([`RunConfig::telemetry`]); `None` when telemetry is off.
    pub telemetry: Option<scc_telemetry::Snapshot>,
    /// Closed-loop DVFS decision trace, one entry per observed epoch
    /// (empty unless [`crate::spec::PowerConfig::Governed`]) — byte-
    /// comparable against the frame-major executor's trace.
    pub dvfs_decisions: Vec<crate::governor::GovernorDecision>,
}

/// The kill schedule entry for `core`, if any: the *first listed* one,
/// where the frame-major executor takes the earliest. Part of this
/// executor's own observation — `tests/regressions/kill-window-boundary.txt`
/// (two kills of one core, later one first) pins the difference.
fn kill_time(kills: &[CoreKill], core: CoreId) -> Option<SimTime> {
    kills.iter().find(|k| k.core == core.raw()).map(|k| k.at)
}

impl From<WalkthroughReport> for DesReport {
    /// A task-runtime run under the DES-flavored schedule reports in the
    /// sim's shape; this is its DES view.
    fn from(report: WalkthroughReport) -> DesReport {
        DesReport {
            total_secs: report.total_secs,
            frames: report.outputs,
            recoveries: report.recoveries,
            telemetry: report.telemetry,
            dvfs_decisions: report.dvfs_decisions,
        }
    }
}

/// Execute the static film pipeline of `cfg` event-wise. What it
/// covers — single renderer, fail-stop kills with a spare each — is
/// [`crate::facade::check_support`]'s to decide, before this runs.
pub(crate) fn run_des(cfg: &RunConfig, scene: Arc<Scene>) -> DesReport {
    let cost = CostModel::default();
    let mut platform = SccPlatform::new(SccConfig::default());
    let placement: Placement = crate::partition::placement_for(cfg);
    let plan: StagePlan = crate::partition::plan_for(cfg);
    // Shared observation sink; disabled (the default) it records nothing
    // and the DES timeline is bit-identical to pre-telemetry builds.
    let tel = TelemetrySink::from_enabled(cfg.telemetry);
    // Supervision: the DES validator models *supervised fail-stop kills*
    // only — message-level faults, stalls, and the spare-exhausted
    // degradation fallback are the frame-major executor's domain — and
    // it does not install the schedule on the platform.
    let mut recovery = RecoveryPlane::arm(cfg, &placement, &mut platform, tel.clone());
    // The governed plane closes the loop on the event timeline with the
    // frame-major executor's control law and epoch mapping (one shared
    // power plane): a frame's state is always already decided by the
    // time the pipelined lookahead reaches it.
    let mut power = PowerPlane::arm(cfg, &mut platform, cfg.frames, placement.source_cores());
    // Stage-to-core mapping, mutable so a migration can re-home a stage
    // onto a spare; every node indexes this instead of the placement.
    // `reps[i][j]` lists the cores serving stage `j` of lane `i`: the
    // primary first, then the scheduler's replica extras — frame `f` is
    // handled by `reps[i][j][f % r]`, which preserves strip order within
    // the lane by construction.
    let mut reps: Vec<Vec<Vec<CoreId>>> = placement
        .pipelines
        .iter()
        .enumerate()
        .map(|(i, lane)| {
            (0..5)
                .map(|j| {
                    let mut v = vec![lane[j]];
                    v.extend_from_slice(placement.replica_extras(i as u32, j));
                    v
                })
                .collect()
        })
        .collect();
    let renderer = Renderer::new(scene);
    let mut source = FilmSource::new(cfg, &placement);
    let walkthrough = Walkthrough::standard(cfg.width as f32 / cfg.height as f32);
    let stages = FilmStages::new(cfg);
    let mut transfer = StageState::new(StageKind::Transfer, placement.transfer, None);
    let p = cfg.pipelines as usize;
    let frames = cfg.frames;
    // The strip each (pipeline, frame) chain is working on; in full
    // fidelity it carries real pixels alongside the timing facts.
    let mut strip_frames: HashMap<(usize, u64), Frame> = HashMap::new();
    let mut outputs: Vec<Image> = Vec::new();

    // Scheduler-plan strides: a replicated stage advances its own clock
    // once every `r` frames (replica `f % r`), and a merged stage
    // serializes on its group's *last* member — the shared core runs the
    // whole group frame-major, so frame `f` may only begin once frame
    // `f - r` has cleared the group tail.
    let r_of = |j: usize| u64::from(plan.replicas_of(j));
    let same_core_hop = |j: usize| j + 1 < 5 && plan.merged_with_prev(j + 1);
    // Dependency counts per node; a node becomes schedulable at 0.
    let mut pending: HashMap<Node, u32> = HashMap::new();
    let deps_of = |node: Node| -> Vec<Node> {
        let mut d = Vec::new();
        match node {
            Node::Render(f) => {
                if f > 0 {
                    d.push(Node::Render(f - 1));
                }
                // Sends rendezvous with the receiving replica's previous
                // cycle (stride r for a replicated first stage).
                let r0 = r_of(0);
                if f >= r0 {
                    for i in 0..p {
                        d.push(Node::Filter(i, 0, f - r0));
                    }
                }
            }
            Node::Filter(i, j, f) => {
                // Input arrival.
                if j == 0 {
                    d.push(Node::Render(f));
                } else {
                    d.push(Node::Filter(i, j - 1, f));
                }
                // Own previous cycle, via the group serialization point.
                let r = r_of(j);
                if f >= r {
                    d.push(Node::Filter(i, plan.last_of_group(j), f - r));
                }
                // Downstream readiness — skipped when the next hop stays
                // on this core (the strip is already resident, there is
                // no rendezvous to wait for).
                if j + 1 < 5 {
                    let rn = r_of(j + 1);
                    if f >= rn && !same_core_hop(j) {
                        d.push(Node::Filter(i, j + 1, f - rn));
                    }
                } else if f > 0 {
                    d.push(Node::Transfer(f - 1));
                }
            }
            Node::Transfer(f) => {
                for i in 0..p {
                    d.push(Node::Filter(i, 4, f));
                }
                if f > 0 {
                    d.push(Node::Transfer(f - 1));
                }
            }
        }
        d
    };

    let mut all_nodes: Vec<Node> = Vec::new();
    for f in 0..frames {
        all_nodes.push(Node::Render(f));
        for i in 0..p {
            for j in 0..5 {
                all_nodes.push(Node::Filter(i, j, f));
            }
        }
        all_nodes.push(Node::Transfer(f));
    }
    let mut dependents: HashMap<Node, Vec<Node>> = HashMap::new();
    for &n in &all_nodes {
        let deps = deps_of(n);
        pending.insert(n, deps.len() as u32);
        for d in deps {
            dependents.entry(d).or_default().push(n);
        }
    }

    // Resolved facts.
    let mut facts: HashMap<Node, Facts> = HashMap::new();
    // Arrival time of each filter/transfer input (per node).
    let mut arrivals: HashMap<Node, SimTime> = HashMap::new();
    // Transfer collects one (arrival, strip) per pipeline.
    let mut transfer_arrivals: HashMap<u64, Vec<(SimTime, usize)>> = HashMap::new();

    // Earliest-start of a node once schedulable.
    let start_of =
        |node: Node, facts: &HashMap<Node, Facts>, arrivals: &HashMap<Node, SimTime>| -> SimTime {
            match node {
                Node::Render(f) => {
                    if f == 0 {
                        SimTime::ZERO
                    } else {
                        facts[&Node::Render(f - 1)].free
                    }
                }
                Node::Filter(i, j, f) => {
                    let r = u64::from(plan.replicas_of(j));
                    let own = if f < r {
                        SimTime::ZERO
                    } else {
                        facts[&Node::Filter(i, plan.last_of_group(j), f - r)].free
                    };
                    arrivals[&node].max(own)
                }
                Node::Transfer(f) => {
                    if f == 0 {
                        SimTime::ZERO
                    } else {
                        facts[&Node::Transfer(f - 1)].free
                    }
                }
            }
        };

    let mut queue: EventQueue<Node> = EventQueue::new();
    // Seed the initially-ready nodes.
    for (&n, &c) in &pending {
        if c == 0 {
            queue.schedule(SimTime::ZERO, n);
        }
    }

    let mut finish = SimTime::ZERO;
    let mut executed = 0usize;
    while let Some((_, node)) = queue.pop() {
        // The platform reads the DVFS state at call time, so every
        // (stage, frame) gets the work-to-frequency mapping the
        // frame-major executor applies at epoch boundaries.
        let (Node::Render(f) | Node::Filter(_, _, f) | Node::Transfer(f)) = node;
        power.apply_for_item(&mut platform, f);
        match node {
            Node::Render(f) => {
                // The source ledger's clock is `start_of` this node: it
                // was left at the previous frame's last send.
                let cam = walkthrough.camera(f);
                let lowered = source.lower(&cost, &renderer, &cam, &mut platform, f, 0);
                let core = lowered.core;
                let mut t = lowered.ready;
                let r0 = u64::from(plan.replicas_of(0));
                for frame in lowered.strips {
                    let i = frame.strip.index as usize;
                    let dst = reps[i][0][(f % r0) as usize];
                    let recv_free = if f < r0 {
                        SimTime::ZERO
                    } else {
                        facts[&Node::Filter(i, 0, f - r0)].free
                    };
                    let send_start = t.max(recv_free);
                    let resident =
                        platform.send_to_partition(core, dst, send_start, frame.byte_len());
                    platform.record_busy(core, send_start, resident);
                    arrivals.insert(Node::Filter(i, 0, f), resident);
                    strip_frames.insert((i, f), frame);
                    t = resident;
                }
                source.commit(0, t);
                facts.insert(node, Facts { free: t });
            }
            Node::Filter(i, j, f) => {
                let r = u64::from(plan.replicas_of(j));
                let rep = (f % r) as usize;
                let merged_prev = plan.merged_with_prev(j);
                let mut core = reps[i][j][rep];
                let kind = StageKind::PIPELINE_FILTERS[j];
                let strip = strip_frames.get_mut(&(i, f)).expect("strip rendered");
                let bytes = strip.byte_len();
                let mut start = start_of(node, &facts, &arrivals);
                let own_free = if merged_prev {
                    // Same-core input: the stage was never idle, it
                    // picked the strip up the instant it appeared.
                    start
                } else if f < r {
                    SimTime::ZERO
                } else {
                    facts[&Node::Filter(i, plan.last_of_group(j), f - r)].free
                };
                let idle = start.saturating_sub(own_free);
                if tel.is_enabled() {
                    let pl = i.to_string();
                    tel.observe(
                        names::STAGE_IDLE_MS,
                        &[("pipeline", pl.as_str()), ("stage", kind.name())],
                        IDLE_MS_BUCKETS,
                        idle.as_secs_f64() * 1e3,
                    );
                }
                power.note_idle(core, f, idle);
                if let Some(kill_at) = kill_time(recovery.kills(), core).filter(|&k| k <= start) {
                    // Fail-stop observed with the strip already resident:
                    // the same detect → migrate → replay episode as the
                    // frame-major executor, replayed from the merged
                    // group's *external* upstream — internal inputs died
                    // with the core.
                    let g0 = plan.groups[plan.group_of(j)].start;
                    let upstream = if g0 == 0 {
                        placement.renderers[0]
                    } else {
                        reps[i][g0 - 1][(f % r_of(g0 - 1)) as usize]
                    };
                    let m = recovery
                        .migrate(
                            &mut platform,
                            Episode {
                                frame: f,
                                pipeline: i as u32,
                                stage: kind,
                                failed_core: core,
                                kill_at,
                                observed: start,
                                upstream,
                                bytes,
                                // No checkpoint ring here: exactly the
                                // one resident strip is replayed.
                                frames_replayed: 1,
                            },
                        )
                        .expect("the support check counted a spare for every kill");
                    // A merged group lives and dies with its one core:
                    // every sibling stage re-homes to the spare with it.
                    for sib in plan.groups[plan.group_of(j)].stages() {
                        reps[i][sib][rep] = m.spare;
                    }
                    core = m.spare;
                    start = m.resident;
                }
                // A same-core input is already resident: no MPB fetch.
                let t = stages
                    .filter(
                        &mut platform,
                        &cost,
                        core,
                        j..j + 1,
                        strip,
                        start,
                        !merged_prev,
                    )
                    .done;
                let resident = if same_core_hop(j) {
                    // Next stage shares this core: the strip stays put,
                    // there is no send and no rendezvous.
                    t
                } else {
                    let (next_core, next_free) = if j + 1 < 5 {
                        let rn = u64::from(plan.replicas_of(j + 1));
                        (
                            reps[i][j + 1][(f % rn) as usize],
                            if f < rn {
                                SimTime::ZERO
                            } else {
                                facts[&Node::Filter(i, j + 1, f - rn)].free
                            },
                        )
                    } else {
                        (
                            placement.transfer,
                            if f == 0 {
                                SimTime::ZERO
                            } else {
                                facts[&Node::Transfer(f - 1)].free
                            },
                        )
                    };
                    let send_start = t.max(next_free);
                    let resident = platform.send_to_partition(core, next_core, send_start, bytes);
                    platform.record_busy(core, send_start, resident);
                    resident
                };
                if j + 1 < 5 {
                    arrivals.insert(Node::Filter(i, j + 1, f), resident);
                } else {
                    transfer_arrivals.entry(f).or_default().push((resident, i));
                }
                facts.insert(node, Facts { free: resident });
            }
            Node::Transfer(f) => {
                // Collect strips as they arrive, each with its own size.
                let mut arr = transfer_arrivals.remove(&f).expect("all strips arrived");
                arr.sort();
                let out = stages.transfer(
                    &mut platform,
                    &cost,
                    &mut transfer,
                    arr.into_iter()
                        .map(|(at, i)| (at, strip_frames.remove(&(i, f)).expect("strip processed")))
                        .collect(),
                );
                if tel.is_enabled() {
                    tel.observe(
                        names::STAGE_IDLE_MS,
                        &[("pipeline", "-"), ("stage", StageKind::Transfer.name())],
                        IDLE_MS_BUCKETS,
                        out.idle.as_secs_f64() * 1e3,
                    );
                }
                power.note_idle(transfer.core, f, out.idle);
                outputs.extend(out.image);
                let t_out = out.done;
                facts.insert(node, Facts { free: t_out });
                finish = t_out;
                // The epoch's last transfer is its close: every filter
                // node of its frames is a transitive dependency.
                power.delivered(f, t_out);
            }
        }
        executed += 1;
        // Release dependents.
        if let Some(deps) = dependents.get(&node) {
            for &d in deps {
                let c = pending.get_mut(&d).expect("known node");
                *c -= 1;
                if *c == 0 {
                    let at = start_of(d, &facts, &arrivals);
                    queue.schedule(at.max(queue.now()), d);
                }
            }
        }
    }
    assert_eq!(executed, all_nodes.len(), "deadlock: unexecuted nodes");

    // Book the heartbeat traffic every placed core emitted while alive —
    // real mesh + host-link messages, charged after the timeline so the
    // computed stage times match the frame-major executor's.
    recovery.finish(&mut platform, &placement, finish);

    // Behind `RunConfig::verify`: the DES-side invariants — monotone
    // virtual clocks per stage, recovery-timeline legality, NoC flit
    // conservation. (Frame conservation is structural here: the executed
    // == all_nodes assertion above is exactly that ledger.)
    if cfg.verify {
        use crate::invariant::Violation;
        let mut violations: Vec<Violation> = Vec::new();
        let mut stages: Vec<(String, Vec<Node>)> = vec![
            ("render".into(), (0..frames).map(Node::Render).collect()),
            ("transfer".into(), (0..frames).map(Node::Transfer).collect()),
        ];
        for i in 0..p {
            for (j, kind) in StageKind::PIPELINE_FILTERS.iter().enumerate() {
                // A replicated stage keeps one virtual clock per replica:
                // frames f ≡ k (mod r) form an independent chain.
                let r = u64::from(plan.replicas_of(j));
                for k in 0..r {
                    stages.push((
                        format!("{} p{i} r{k}", kind.name()),
                        (k..frames)
                            .step_by(r as usize)
                            .map(|f| Node::Filter(i, j, f))
                            .collect(),
                    ));
                }
            }
        }
        for (label, nodes) in stages {
            let mut prev = SimTime::ZERO;
            for (f, n) in nodes.iter().enumerate() {
                let free = facts[n].free;
                if free < prev {
                    violations.push(Violation::new(
                        "monotone-clock",
                        format!(
                            "{label}: frame {f} freed at {}s, before frame {} at {}s",
                            free.as_secs_f64(),
                            f - 1,
                            prev.as_secs_f64()
                        ),
                    ));
                    break;
                }
                prev = free;
            }
        }
        let depth = cfg.fault.as_ref().map_or(0, |f| f.checkpoint_depth);
        crate::invariant::check_recoveries(
            &recovery.recoveries,
            depth,
            cfg.pipelines,
            &mut violations,
        );
        if let Err(err) = platform.audit_noc() {
            violations.push(Violation::new("noc-conservation", err));
        }
        crate::invariant::enforce(cfg, &violations);
    }

    // Run-level rollups (nothing here can perturb the timeline: the
    // event queue has drained).
    if tel.is_enabled() {
        tel.count(names::FRAMES_TOTAL, &[], frames);
        tel.gauge(names::WALKTHROUGH_SECONDS, &[], finish.as_secs_f64());
        power.finish(&platform, finish, &tel);
        let stats = platform.stats();
        tel.count(names::NOC_MESSAGES_TOTAL, &[], stats.noc_messages);
        tel.count(names::NOC_BYTES_TOTAL, &[], stats.noc_bytes);
    }

    DesReport {
        total_secs: finish.as_secs_f64(),
        frames: (cfg.fidelity == Fidelity::Full).then_some(outputs),
        recoveries: recovery.recoveries,
        telemetry: tel.snapshot(),
        dvfs_decisions: power.decisions(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::sim::SimRunner;
    use crate::spec::{Arrangement, Fidelity, RendererMode};
    use scc_render::CityConfig;

    fn scene() -> Arc<Scene> {
        Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 3,
        }))
    }

    fn cfg(pipelines: u32, frames: u64) -> RunConfig {
        RunConfig::builder()
            .renderer(RendererMode::SingleRenderer)
            .arrangement(Arrangement::Ordered)
            .pipelines(pipelines)
            .size(120, 120)
            .frames(frames)
            .seed(5)
            .fidelity(Fidelity::TimingOnly)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn des_verifies_clean_with_and_without_kills() {
        use crate::spec::{FaultSpec, KillSpec};
        let mut c = cfg(2, 4);
        c.verify = true;
        run_des(&c, scene()); // would panic on a violation
        c.fault = Some(FaultSpec {
            kills: vec![KillSpec {
                pipeline: 1,
                stage: 3,
                at_ms: 1,
            }],
            heartbeat_period_us: 2_000,
            phi_dead: 2.0,
            ..FaultSpec::default()
        });
        let r = run_des(&c, scene());
        assert_eq!(r.recoveries.len(), 1);
    }

    #[test]
    fn des_completes_every_node() {
        let r = run_des(&cfg(2, 8), scene());
        assert!(r.total_secs > 0.0);
    }

    #[test]
    fn des_agrees_with_frame_major_runner() {
        // Two independent implementations of the same pipeline semantics
        // must agree closely (small differences come from resource-ledger
        // booking order).
        // The last case has strips of unequal height (17, 17, 16 rows).
        for (p, w, h) in [(1u32, 120, 120), (3, 120, 120), (5, 120, 120), (3, 64, 50)] {
            let mut c = cfg(p, 20);
            c.width = w;
            c.height = h;
            let des = run_des(&c, scene()).total_secs;
            let fm = SimRunner::new(c, scene()).run().total_secs;
            let dev = (des - fm).abs() / fm;
            assert!(
                dev < 0.03,
                "{p} pipelines {w}x{h}: DES {des:.3}s vs frame-major {fm:.3}s ({:.1}% apart)",
                dev * 100.0
            );
        }
    }

    #[test]
    fn des_full_fidelity_matches_reference_data_path() {
        // The second case has strips of unequal height (17, 17, 16 rows).
        for (p, h) in [(2u32, 64), (3, 50)] {
            let mut c = cfg(p, 3);
            c.width = 64;
            c.height = h;
            c.fidelity = Fidelity::Full;
            let des = run_des(&c, scene());
            let reference = crate::reference::reference_frames(&c, scene());
            assert_eq!(des.frames.expect("full fidelity keeps frames"), reference);
        }
    }

    #[test]
    fn des_kill_migrates_and_keeps_the_data_path_intact() {
        use crate::spec::{FaultSpec, KillSpec};
        let mut c = cfg(2, 4);
        c.width = 64;
        c.height = 64;
        c.fidelity = Fidelity::Full;
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
        let des = run_des(&c, scene());
        assert_eq!(des.recoveries.len(), 1, "exactly one migration");
        let r = &des.recoveries[0];
        assert_eq!(r.pipeline, 0);
        assert_eq!(r.stage, StageKind::Blur);
        assert!(r.mttr_secs.is_finite() && r.mttr_secs > 0.0);
        assert!(r.killed_at_secs < r.detected_at_secs);
        assert!(r.detected_at_secs < r.resumed_at_secs);
        // The migrated run still delivers the reference film bit-for-bit.
        let mut clean = c.clone();
        clean.fault = None;
        let reference = crate::reference::reference_frames(&clean, scene());
        assert_eq!(des.frames.expect("full fidelity keeps frames"), reference);
    }

    #[test]
    fn des_auto_placement_verifies_clean_and_matches_reference() {
        // The scheduler plan (merged tail + replicated blur) through the
        // event-driven executor: every invariant holds and the film is
        // still the reference film, bit-for-bit.
        let mut c = cfg(2, 6);
        c.width = 64;
        c.height = 64;
        c.fidelity = Fidelity::Full;
        c.auto_place = true;
        c.verify = true;
        let des = run_des(&c, scene());
        let reference = crate::reference::reference_frames(&c, scene());
        assert_eq!(des.frames.expect("full fidelity keeps frames"), reference);
    }

    #[test]
    fn des_auto_placement_beats_fixed_throughput() {
        // Replicating the bottleneck must shorten the virtual walkthrough.
        let fixed = run_des(&cfg(2, 12), scene()).total_secs;
        let mut c = cfg(2, 12);
        c.auto_place = true;
        let auto = run_des(&c, scene()).total_secs;
        assert!(
            auto <= fixed * 1.01,
            "auto {auto:.3}s must not lose to fixed {fixed:.3}s"
        );
    }

    #[test]
    fn des_is_deterministic() {
        let a = run_des(&cfg(3, 10), scene()).total_secs;
        let b = run_des(&cfg(3, 10), scene()).total_secs;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "single-renderer")]
    fn rejects_other_modes() {
        let mut c = cfg(2, 2);
        c.renderer = RendererMode::McpcRenderer;
        crate::run_with_scene(&c, crate::Backend::Des, scene());
    }
}
