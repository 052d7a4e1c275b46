//! Event-driven cross-validation executor.
//!
//! [`SimRunner::run`] times the pipeline frame-major, relying on the
//! time-bucketed resource ledger to tolerate out-of-order platform
//! bookings. This module schedules the same rendezvous pipeline
//! *independently*, as a dependency-driven discrete-event simulation: nodes
//! are `(stage, frame)` work items in a min-heap keyed by start and
//! readiness order, the workload engine's idiom (`crate::generic`),
//! scheduled once their dependencies (input arrival, own previous frame,
//! downstream readiness) resolve and executed in nondecreasing start-time
//! order, so the platform sees its bookings almost exactly in time order.
//!
//! Everything else is shared (DESIGN.md §13): the `FilmRun` — the
//! [`SimRunner`] parts, the power plane, the stage ledgers and their
//! replica mapping, what a stage books ([`super::source`],
//! [`super::stage`]) — and its report tail (`FilmRun::finish`). This
//! executor owns the event order, arrival-order delivery to the transfer
//! stage, where a kill is observed (a filter node's start, against the
//! first listed kill of its core), the merged group's replay upstream,
//! the ledger cores a migration re-homes, and the monotone-clock check.
//! `tests/` holds the two executors to a small tolerance of each other;
//! the single renderer exercises every rendezvous pattern (fan-out,
//! chains, fan-in).
//!
//! The parts install the run's fault plan on the platform. Here that is
//! an identity: [`crate::facade::check_support`] admits no stall, no
//! degraded link and no message fault, so the plan holds no core, slows
//! no link and delays no flit. Its kills are observed below.

use super::sim::{FilmRun, SimRunner, StageState};
use crate::frame::Frame;
use crate::invariant::{enforce, Violation};
use crate::metrics::WalkthroughReport;
use crate::partition::StagePlan;
use crate::spec::{RunConfig, StageKind};
use crate::supervise::Episode;
use scc_sim::fault::CoreKill;
use scc_sim::{CoreId, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A work item: one stage processing one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Node {
    Render(u64),
    /// (pipeline, stage index 0..5, frame)
    Filter(usize, usize, u64),
    Transfer(u64),
}

/// The kill schedule entry for `core`, if any: the *first listed* one,
/// where the frame-major executor takes the earliest. Part of this
/// executor's own observation — `tests/regressions/kill-window-boundary.txt`
/// (two kills of one core, later one first) pins the difference.
fn kill_time(kills: &[CoreKill], core: CoreId) -> Option<SimTime> {
    kills.iter().find(|k| k.core == core.raw()).map(|k| k.at)
}

/// Does stage `j` hand its strip to a next stage on the same core?
fn same_core_hop(plan: &StagePlan, j: usize) -> bool {
    j + 1 < 5 && plan.merged_with_prev(j + 1)
}

/// The nodes `node` waits for. A replicated stage strides by its `r`; a
/// merged stage serializes on its group's *last* member — the shared
/// core runs the whole group frame-major, so frame `f` may only begin
/// once frame `f - r` has cleared the group tail.
fn deps_of(plan: &StagePlan, p: usize, node: Node) -> Vec<Node> {
    let r_of = |j: usize| u64::from(plan.replicas_of(j));
    let mut d = Vec::new();
    match node {
        Node::Render(f) => {
            if f > 0 {
                d.push(Node::Render(f - 1));
            }
            // Sends rendezvous with the receiving replica's previous cycle.
            if f >= r_of(0) {
                d.extend((0..p).map(|i| Node::Filter(i, 0, f - r_of(0))));
            }
        }
        Node::Filter(i, j, f) => {
            d.push(match j {
                0 => Node::Render(f),
                _ => Node::Filter(i, j - 1, f),
            });
            if f >= r_of(j) {
                d.push(Node::Filter(i, plan.last_of_group(j), f - r_of(j)));
            }
            // Downstream readiness — none when the next hop stays on
            // this core (no rendezvous to wait for).
            if j + 1 < 5 {
                if f >= r_of(j + 1) && !same_core_hop(plan, j) {
                    d.push(Node::Filter(i, j + 1, f - r_of(j + 1)));
                }
            } else if f > 0 {
                d.push(Node::Transfer(f - 1));
            }
        }
        Node::Transfer(f) => {
            d.extend((0..p).map(|i| Node::Filter(i, 4, f)));
            if f > 0 {
                d.push(Node::Transfer(f - 1));
            }
        }
    }
    d
}

/// Behind [`RunConfig::verify`]: a stage ledger's clock never runs
/// backwards from one of its frames to the next.
fn check_clock(cfg: &RunConfig, s: &StageState, was: SimTime, f: u64) {
    if cfg.verify && s.free < was {
        let (kind, pipeline) = (s.kind.name(), s.pipeline);
        let (free, was) = (s.free.as_secs_f64(), was.as_secs_f64());
        let detail = format!("{kind} p{pipeline:?}: frame {f} freed at {free}s, before {was}s");
        enforce(cfg, &[Violation::new("monotone-clock", detail)]);
    }
}

/// A run in flight: the shared film run, plus what the event order
/// hands from node to node.
struct Des {
    run: FilmRun,
    /// The strip each (pipeline, frame) chain is working on; in full
    /// fidelity it carries real pixels alongside the timing.
    strips: HashMap<(usize, u64), Frame>,
    /// When each filter node's input became resident on its core.
    arrivals: HashMap<Node, SimTime>,
    /// Each frame's strips at the transfer stage: (arrival, pipeline).
    delivered: HashMap<u64, Vec<(SimTime, usize)>>,
}

impl Des {
    /// Earliest start of a node whose dependencies have all run. A ledger
    /// read here is its previous node's finish: a ledger's next node
    /// depends on the one before, so it has not run yet.
    fn start_of(&mut self, node: Node) -> SimTime {
        let (plan, ledgers) = (&self.run.r.plan, &mut self.run.ledgers);
        match node {
            Node::Render(_) => ledgers.source.renderers[0].free,
            Node::Filter(i, j, f) => {
                let own = ledgers.replica(plan, i, plan.last_of_group(j), f).free;
                self.arrivals[&node].max(own)
            }
            Node::Transfer(_) => ledgers.transfer.free,
        }
    }

    /// Render frame `f` and fan its strips out, serialised on the render
    /// core, each rendezvousing with its receiving replica.
    fn render(&mut self, f: u64) {
        let (cam, run) = (self.run.r.walkthrough.camera(f), &mut self.run);
        let was = run.ledgers.source.renderers[0].free;
        let (cost, platform) = (&run.r.cost, &mut run.r.platform);
        let lowered = run
            .ledgers
            .source
            .lower(cost, &run.r.renderer, &cam, platform, f, 0);
        let (core, mut t) = (lowered.core, lowered.ready);
        for frame in lowered.strips {
            let (i, bytes) = (frame.strip.index as usize, frame.byte_len());
            let dst = run.ledgers.replica(&run.r.plan, i, 0, f);
            let send_start = t.max(dst.free);
            let resident = platform.send_to_partition(core, dst.core, send_start, bytes);
            platform.record_busy(core, send_start, resident);
            self.arrivals.insert(Node::Filter(i, 0, f), resident);
            self.strips.insert((i, f), frame);
            t = resident;
        }
        run.ledgers.source.commit(0, t);
        check_clock(&run.r.cfg, &run.ledgers.source.renderers[0], was, f);
    }

    /// Stage `j` of lane `i` runs frame `f`, then hands it downstream.
    fn filter(&mut self, i: usize, j: usize, f: u64) {
        let mut start = self.start_of(Node::Filter(i, j, f));
        let run = &mut self.run;
        let (plan, ledgers) = (&run.r.plan, &mut run.ledgers);
        let (merged_prev, group) = (plan.merged_with_prev(j), plan.group_of(j));
        let own = ledgers.replica(plan, i, plan.last_of_group(j), f).free;
        // Same-core input: the stage was never idle, it picked the strip
        // up the instant it appeared.
        let idle = start.saturating_sub(if merged_prev { start } else { own });
        let stage = ledgers.replica(plan, i, j, f);
        let (mut core, was) = (stage.core, stage.free);
        run.power.note_idle(core, f, idle);
        let strip = self.strips.get_mut(&(i, f)).expect("strip rendered");
        let bytes = strip.byte_len();
        if let Some(kill_at) = kill_time(run.r.recovery.kills(), core).filter(|&k| k <= start) {
            // Fail-stop observed with the strip already resident: the
            // frame-major executor's detect → migrate → replay episode,
            // replayed from the merged group's *external* upstream —
            // internal inputs died with the core.
            let g0 = plan.groups[group].start;
            let upstream = match g0 {
                0 => run.r.placement.renderers[0],
                _ => ledgers.replica(plan, i, g0 - 1, f).core,
            };
            let episode = Episode {
                frame: f,
                pipeline: i as u32,
                stage: StageKind::PIPELINE_FILTERS[j],
                failed_core: core,
                kill_at,
                observed: start,
                upstream,
                bytes,
                // No checkpoint ring: exactly the resident strip replays.
                frames_replayed: 1,
            };
            let m = run
                .r
                .recovery
                .migrate(&mut run.r.platform, episode)
                .expect("the support check counted a spare for every kill");
            // A merged group lives and dies with its one core: every
            // sibling stage re-homes to the spare with it.
            for sib in plan.groups[group].stages() {
                ledgers.replica(plan, i, sib, f).core = m.spare;
            }
            (core, start) = (m.spare, m.resident);
        }
        let platform = &mut run.r.platform;
        // A same-core input is already resident: no MPB fetch.
        let fetch = !merged_prev;
        let t = run
            .stages
            .filter(platform, &run.r.cost, core, j..j + 1, strip, start, fetch)
            .done;
        let resident = if same_core_hop(plan, j) {
            // The strip stays put: no send, no rendezvous.
            t
        } else {
            let next = match j + 1 {
                5 => &mut ledgers.transfer,
                next => ledgers.replica(plan, i, next, f),
            };
            let send_start = t.max(next.free);
            let resident = platform.send_to_partition(core, next.core, send_start, bytes);
            platform.record_busy(core, send_start, resident);
            resident
        };
        if j + 1 < 5 {
            self.arrivals.insert(Node::Filter(i, j + 1, f), resident);
        } else {
            self.delivered.entry(f).or_default().push((resident, i));
        }
        let stage = ledgers.replica(plan, i, j, f);
        stage.idle_samples.push(idle);
        stage.advance(start, resident);
        check_clock(&run.r.cfg, stage, was, f);
    }

    /// Collect frame `f`'s strips in the order they arrived, each at its
    /// own size, and ship the frame.
    fn transfer(&mut self, f: u64) {
        let mut arrived = self.delivered.remove(&f).expect("all strips arrived");
        arrived.sort();
        let strips = arrived
            .into_iter()
            .map(|(at, i)| (at, self.strips.remove(&(i, f)).expect("strip processed")))
            .collect();
        let (was, run) = (self.run.ledgers.transfer.free, &mut self.run);
        let (platform, stage) = (&mut run.r.platform, &mut run.ledgers.transfer);
        let out = run.stages.transfer(platform, &run.r.cost, stage, strips);
        run.power.note_idle(stage.core, f, out.idle);
        run.outputs.extend(out.image);
        run.finish = out.done;
        // The epoch's last transfer is its close: every filter node of
        // its frames is a transitive dependency.
        run.power.delivered(f, out.done);
        check_clock(&run.r.cfg, stage, was, f);
    }
}

/// Execute the static film pipeline on `runner`'s parts event-wise. What
/// it covers — single renderer, fail-stop kills with a spare each — is
/// [`crate::facade::check_support`]'s to decide, before this runs.
pub(crate) fn run_des(runner: SimRunner) -> WalkthroughReport {
    // The governor closes the loop with the frame-major executor's law
    // and epochs: a frame's state is decided before lookahead reaches it.
    let (p, frames) = (runner.cfg.pipelines as usize, runner.cfg.frames);
    let mut des = Des {
        run: FilmRun::new(runner),
        strips: HashMap::new(),
        arrivals: HashMap::new(),
        delivered: HashMap::new(),
    };

    // Dependency counts per node (schedulable at 0), and whom each
    // node releases.
    let mut pending: HashMap<Node, u32> = HashMap::new();
    let mut dependents: HashMap<Node, Vec<Node>> = HashMap::new();
    for f in 0..frames {
        let filters = (0..p).flat_map(|i| (0..5).map(move |j| Node::Filter(i, j, f)));
        let frame = [Node::Render(f)].into_iter().chain(filters);
        for n in frame.chain([Node::Transfer(f)]) {
            let deps = deps_of(&des.run.r.plan, p, n);
            pending.insert(n, deps.len() as u32);
            for d in deps {
                dependents.entry(d).or_default().push(n);
            }
        }
    }

    // Ready nodes pop by start, then by the order they became ready in
    // (unique, so `Node`'s own order never decides); a start never
    // precedes the last pop's. The first render is the one node with no
    // dependency.
    let mut queue = BinaryHeap::from([Reverse((SimTime::ZERO, 0u64, Node::Render(0)))]);
    let (mut readied, mut executed) = (1u64, 0usize);
    while let Some(Reverse((now, _, node))) = queue.pop() {
        // The platform reads the DVFS state at call time: every node runs
        // under its frame's epoch state, as in the frame-major executor.
        let (Node::Render(f) | Node::Filter(_, _, f) | Node::Transfer(f)) = node;
        des.run.power.apply_for_item(&mut des.run.r.platform, f);
        match node {
            Node::Render(f) => des.render(f),
            Node::Filter(i, j, f) => des.filter(i, j, f),
            Node::Transfer(f) => des.transfer(f),
        }
        executed += 1;
        for &d in dependents.get(&node).map_or(&[][..], Vec::as_slice) {
            let c = pending.get_mut(&d).expect("known node");
            *c -= 1;
            if *c == 0 {
                let at = des.start_of(d).max(now);
                queue.push(Reverse((at, readied, d)));
                readied += 1;
            }
        }
    }
    assert_eq!(executed, pending.len(), "deadlock: unexecuted nodes");
    des.run.finish(None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Arrangement, Fidelity, RendererMode};
    use scc_render::{CityConfig, Scene};
    use std::sync::Arc;

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

    fn des(c: &RunConfig) -> WalkthroughReport {
        run_des(SimRunner::new(c.clone(), scene()))
    }

    #[test]
    fn des_verifies_clean_with_and_without_kills() {
        use crate::spec::{FaultSpec, KillSpec};
        let mut c = cfg(2, 4);
        c.verify = true;
        des(&c); // would panic on a violation
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
        let r = des(&c);
        assert_eq!(r.recoveries.len(), 1);
    }

    #[test]
    fn des_completes_every_node() {
        let r = des(&cfg(2, 8));
        assert!(r.total_secs > 0.0);
        // 1 render + 2×5 filters + 1 transfer, every one on every frame
        // it owns, and the energy of the run.
        assert_eq!(r.stage_reports.len(), 12);
        assert!(r.stage_reports.iter().all(|s| s.frames == 8));
        assert!(r.scc_energy_joules > 0.0 && !r.power_trace.is_empty());
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
            let des = des(&c).total_secs;
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
            let reference = crate::reference::reference_frames(&c, scene());
            assert_eq!(
                des(&c).outputs.expect("full fidelity keeps frames"),
                reference
            );
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
        let des = des(&c);
        assert_eq!(des.recoveries.len(), 1, "exactly one migration");
        let r = &des.recoveries[0];
        assert_eq!(r.pipeline, 0);
        assert_eq!(r.stage, StageKind::Blur);
        assert!(r.mttr_secs.is_finite() && r.mttr_secs > 0.0);
        assert!(r.killed_at_secs < r.detected_at_secs);
        assert!(r.detected_at_secs < r.resumed_at_secs);
        // The re-homed ledger reports from the spare.
        let blur = des.stage(StageKind::Blur, Some(0)).expect("blur ledger");
        assert_eq!(blur.core_id, r.migration_target);
        // The migrated run still delivers the reference film bit-for-bit.
        let mut clean = c.clone();
        clean.fault = None;
        let reference = crate::reference::reference_frames(&clean, scene());
        assert_eq!(des.outputs.expect("full fidelity keeps frames"), reference);
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
        let reference = crate::reference::reference_frames(&c, scene());
        assert_eq!(
            des(&c).outputs.expect("full fidelity keeps frames"),
            reference
        );
    }

    #[test]
    fn des_auto_placement_beats_fixed_throughput() {
        // Replicating the bottleneck must shorten the virtual walkthrough.
        let fixed = des(&cfg(2, 12)).total_secs;
        let mut c = cfg(2, 12);
        c.auto_place = true;
        let auto = des(&c).total_secs;
        assert!(
            auto <= fixed * 1.01,
            "auto {auto:.3}s must not lose to fixed {fixed:.3}s"
        );
    }

    #[test]
    fn des_is_deterministic() {
        let a = des(&cfg(3, 10)).fingerprint();
        let b = des(&cfg(3, 10)).fingerprint();
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
