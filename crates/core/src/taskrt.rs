//! # Dependency-driven task runtime over the simulated SCC
//!
//! The static executor ([`crate::runner::sim`]) nails every stage to one
//! core and lets the rendezvous protocol clock the pipeline at the
//! bottleneck's rate — faithful to the paper, but cores hosting cheap
//! stages idle while the blur core saturates (the Figure 15 spread).
//! This module is the alternative execution model behind
//! [`crate::spec::Runtime::Tasks`]: every strip walk becomes a *chain of
//! tasks* — one per [`StagePlan`] group — with the data dependence
//! `(frame, strip, group) → (frame, strip, group + 1)` derived from the
//! stage graph, executed by per-core bounded deques with randomized work
//! stealing over the rcce steal/claim control plane.
//!
//! Execution rules:
//!
//! * **Home affinity** — a task is enqueued at the *home* core of its
//!   group (the static placement's core, replica-rotated per frame), so
//!   the healthy NoC pattern matches the paper's pipeline. Stealing only
//!   drains backlogs.
//! * **Bounded deques, backpressure** — a producer whose target deque is
//!   full parks the handoff; it is admitted (and its payload message
//!   booked) when the consumer next pops. Queues can never grow beyond
//!   [`crate::spec::TaskTuning::queue_capacity`].
//! * **Randomized stealing** — an idle core picks a loaded victim with a
//!   seeded RNG and runs the four-leg steal/claim handshake
//!   ([`scc_rcce::steal`]) with real encoded frames; any lost or
//!   corrupted leg burns an exponential-backoff window and leaves *no
//!   net change* (the victim-side [`ClaimTable`] keeps hand-off
//!   idempotent, so a task is never executed twice nor lost).
//! * **Fence + re-queue recovery** — a fail-stopped (or forever-stalled)
//!   worker is *fenced*: its claim epoch advances (straggling claims are
//!   rejected), the chains it held restart from the source's
//!   [`CheckpointRing`] copy on a surviving core. No spare provisioning
//!   is needed, so re-queue MTTR is structurally at or below the static
//!   supervisor's migration MTTR. Only when no worker survives does the
//!   run abort — the same "no surviving pipeline" terminal state as the
//!   static executor's total loss.
//! * **Exactly-once accounting** — the ledger invariant
//!   `completed + degraded == spawned` (checked by
//!   [`crate::invariant::check_report`]) holds because completions are
//!   counted once per task identity; re-runs after a fence re-enter the
//!   same chain under a bumped *chain epoch* and stale-epoch completions
//!   are discarded before they can spawn duplicate successors.
//!
//! The delivered film is bit-identical to the static placement's: the
//! same filter kernels run over the same strip identities, and strip
//! assembly is order-independent.

use crate::frame::Frame;
use crate::metrics::{RecoveryEvent, TaskStats, WalkthroughReport};
use crate::runner::sim::{FilmRun, SimRunner};
use crate::spec::{RendererMode, StageKind};
use scc_filters::SplitMix;
use scc_rcce::{
    decode_claim_ack, decode_steal_grant, decode_steal_request, decode_task_claim,
    encode_claim_ack, encode_steal_grant, encode_steal_request, encode_task_claim, ClaimAck,
    ClaimTable, ClaimVerdict, StealGrant, StealRequest, TaskClaim, TaskId,
};
use scc_sim::fault::MessageOutcome;
use scc_sim::{CoreId, SimTime};
use scc_telemetry::names;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Which backend drives the engine. Both flavors execute the identical
/// task graph; they differ only in *schedule* (steal-RNG stream and
/// idle-scan order), which is exactly what the differential suite wants:
/// the film and the conservation ledgers must be schedule-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScheduleFlavor {
    /// The frame-major runner's dispatch (`Backend::Sim`).
    Sim,
    /// The event-driven validator's dispatch (`Backend::Des`).
    Des,
}

/// In-flight frames the source keeps outstanding in a fault-free run:
/// deep enough that the steal scheduler always has chains to balance.
/// Under a fault plan the window shrinks to the checkpoint ring depth so
/// every live chain stays replayable.
const DEFAULT_WINDOW: u32 = 8;

/// One schedulable unit: the strip `(frame, strip)` passing through stage
/// group `group` of the plan. `epoch` is the chain's re-queue generation;
/// a completion whose epoch is stale is discarded.
struct Task {
    frame: u64,
    strip: usize,
    group: usize,
    epoch: u32,
    data: Frame,
    /// When the payload is resident in the executing worker's partition.
    avail: SimTime,
}

/// A handoff parked on a full deque: payload still in the producer's
/// partition; the message is booked at admission time.
struct Pending {
    frame: u64,
    strip: usize,
    group: usize,
    epoch: u32,
    data: Frame,
    from: CoreId,
    ready: SimTime,
}

struct Worker {
    core: CoreId,
    /// Where the worker's busy/idle ledgers land in the stage-report
    /// grid: replica `k` of lane `i`'s stage `j`, as `(i, j, k)`
    /// ([`crate::runner::sim::StageLedgers::slot`]).
    slot: (usize, usize, usize),
    free: SimTime,
    /// Start time of the most recent pop — the earliest instant a parked
    /// handoff could have been admitted.
    room_at: SimTime,
    deque: VecDeque<Task>,
    parked: VecDeque<Pending>,
    dead: bool,
    claims: ClaimTable,
    /// Failed steal attempts since the deque was last non-empty.
    idle_attempts: u32,
}

pub(crate) fn run_tasks(runner: SimRunner, flavor: ScheduleFlavor) -> WalkthroughReport {
    Engine::new(runner, flavor).run()
}

struct Engine {
    /// The shared film run: its stage-report ledgers are shaped exactly
    /// like the static executors'.
    run: FilmRun,
    flavor: ScheduleFlavor,

    workers: Vec<Worker>,
    worker_of: HashMap<u8, usize>,

    window: u32,
    cap: usize,

    chain_epoch: HashMap<(u64, usize), u32>,
    completed_task: HashSet<(u64, usize, usize)>,
    completed_stage: HashSet<(u64, usize, usize)>,
    delivered: HashMap<(u64, usize), (SimTime, Frame)>,

    stats: TaskStats,
    rng: SplitMix,
    nonce: u64,

    next_out: u64,
    f_src: u64,
}

impl Engine {
    fn new(runner: SimRunner, flavor: ScheduleFlavor) -> Engine {
        let (cfg, plan) = (&runner.cfg, &runner.plan);
        let p = cfg.pipelines as usize;

        // Workers: one per distinct core hosting a stage group (primary or
        // replica). The slot maps the worker's busy/idle ledgers back to
        // its home report.
        let mut workers: Vec<Worker> = Vec::new();
        let mut worker_of: HashMap<u8, usize> = HashMap::new();
        let add = |core: CoreId,
                   slot: (usize, usize, usize),
                   workers: &mut Vec<Worker>,
                   worker_of: &mut HashMap<u8, usize>| {
            worker_of.entry(core.raw()).or_insert_with(|| {
                workers.push(Worker {
                    core,
                    slot,
                    free: SimTime::ZERO,
                    room_at: SimTime::ZERO,
                    deque: VecDeque::new(),
                    parked: VecDeque::new(),
                    dead: false,
                    claims: ClaimTable::new(),
                    idle_attempts: 0,
                });
                workers.len() - 1
            });
        };
        for i in 0..p {
            for g in &plan.groups {
                let j0 = g.start;
                add(
                    runner.placement.pipelines[i][j0],
                    (i, j0, 0),
                    &mut workers,
                    &mut worker_of,
                );
                for (k, &c) in runner
                    .placement
                    .replica_extras(i as u32, j0)
                    .iter()
                    .enumerate()
                {
                    add(c, (i, j0, k + 1), &mut workers, &mut worker_of);
                }
            }
        }

        let window = cfg
            .fault
            .as_ref()
            .map_or(DEFAULT_WINDOW, |s| s.checkpoint_depth);

        let stats = TaskStats {
            spawned: cfg.frames * p as u64 * plan.groups.len() as u64,
            ..TaskStats::default()
        };
        let salt = match flavor {
            ScheduleFlavor::Sim => 0x7461_736b_7274_0001u64,
            ScheduleFlavor::Des => 0x7461_736b_7274_0002u64,
        };
        let cap = cfg.task_tuning.queue_capacity.max(1) as usize;

        Engine {
            flavor,
            workers,
            worker_of,
            window,
            cap,
            chain_epoch: HashMap::new(),
            completed_task: HashSet::new(),
            completed_stage: HashSet::new(),
            delivered: HashMap::new(),
            stats,
            rng: SplitMix::new(cfg.seed ^ salt),
            nonce: 0,
            next_out: 0,
            f_src: 0,
            run: FilmRun::new(runner),
        }
    }

    // ---- small helpers -------------------------------------------------

    /// Count one more `name` event in the run's telemetry.
    fn bump(&self, name: &'static str) {
        self.run.r.tel.count(name, &[], 1);
    }

    fn groups(&self) -> usize {
        self.run.r.plan.groups.len()
    }

    /// The `k`-th worker a scan over the workers visits: ascending under
    /// the sim flavor, descending under the DES one.
    fn scan(&self, k: usize) -> usize {
        match self.flavor {
            ScheduleFlavor::Sim => k,
            ScheduleFlavor::Des => self.workers.len() - 1 - k,
        }
    }

    /// The home worker of `(strip, group)` for `frame` — the static
    /// placement's core with the frame-rotated replica choice.
    fn home(&self, strip: usize, group: usize, frame: u64) -> usize {
        let g = &self.run.r.plan.groups[group];
        let r = u64::from(g.replicas.max(1));
        let k = (frame % r) as usize;
        let core = if k == 0 {
            self.run.r.placement.pipelines[strip][g.start]
        } else {
            self.run.r.placement.replica_extras(strip as u32, g.start)[k - 1]
        };
        self.worker_of[&core.raw()]
    }

    /// Earliest-free surviving worker, or the static executor's terminal
    /// panic when the whole worker set is dead.
    fn earliest_free_survivor(&self) -> usize {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.dead)
            .min_by_key(|(idx, w)| (w.free, *idx))
            .map(|(idx, _)| idx)
            .expect("no surviving pipeline to adopt the strip")
    }

    /// The core that produced (and checkpointed) strip `i` — re-queues
    /// replay from here.
    fn source_core(&self, strip: usize) -> CoreId {
        let source = &self.run.ledgers.source;
        match self.run.r.cfg.renderer {
            RendererMode::SingleRenderer => source.renderers[0].core,
            RendererMode::PerPipelineRenderer => source.renderers[strip].core,
            RendererMode::McpcRenderer => source.connector.as_ref().expect("MCPC connector").core,
        }
    }

    fn chain_epoch_of(&self, frame: u64, strip: usize) -> u32 {
        self.chain_epoch.get(&(frame, strip)).copied().unwrap_or(0)
    }

    /// Ship `bytes` from `from` into worker `widx`'s partition starting at
    /// `t`, through the ARQ when faults are armed. `Err(at)` means the
    /// receiver was declared dead at `at`.
    fn ship(
        &mut self,
        from: CoreId,
        widx: usize,
        t: SimTime,
        bytes: u64,
    ) -> Result<SimTime, SimTime> {
        let to = self.workers[widx].core;
        if from == to {
            // Continuation hand-off: the strip is already resident.
            return Ok(t);
        }
        let r = &mut self.run.r;
        r.recovery.send(&mut r.platform, from, to, t, bytes)
    }

    /// Enqueue a task at worker `widx` (push to the deque, or park on a
    /// full deque with a backpressure stall). The payload send is booked
    /// immediately on a direct push, or at admission time when parked.
    /// Falls over to a survivor when the target turns out to be dead.
    fn enqueue(&mut self, mut widx: usize, p: Pending) {
        let mut p = p;
        loop {
            if self.workers[widx].dead {
                widx = self.earliest_free_survivor();
                continue;
            }
            if self.workers[widx].deque.len() >= self.cap {
                self.stats.backpressure_stalls += 1;
                self.bump(names::TASK_BACKPRESSURE_STALLS_TOTAL);
                self.workers[widx].parked.push_back(p);
                return;
            }
            let bytes = p.data.byte_len();
            match self.ship(p.from, widx, p.ready, bytes) {
                Ok(resident) => {
                    let w = &mut self.workers[widx];
                    w.deque.push_back(Task {
                        frame: p.frame,
                        strip: p.strip,
                        group: p.group,
                        epoch: p.epoch,
                        data: p.data,
                        avail: resident,
                    });
                    w.idle_attempts = 0;
                    self.stats.max_queue_depth =
                        self.stats.max_queue_depth.max(w.deque.len() as u64);
                    return;
                }
                Err(at) => {
                    self.fence(widx, at);
                    p.ready = p.ready.max(at);
                }
            }
        }
    }

    /// Admit parked handoffs wherever room has opened up.
    fn admit_parked(&mut self) {
        for widx in 0..self.workers.len() {
            loop {
                let w = &self.workers[widx];
                if w.dead || w.parked.is_empty() || w.deque.len() >= self.cap {
                    break;
                }
                let room_at = w.room_at;
                let mut p = self.workers[widx].parked.pop_front().expect("non-empty");
                p.ready = p.ready.max(room_at);
                self.enqueue(widx, p);
            }
        }
    }

    // ---- source --------------------------------------------------------

    /// Produce frame `f_src` when the checkpoint window has room. The
    /// render/split booking is the static executor's (one shared
    /// lowering); strips are injected at the home worker of the first
    /// stage group.
    fn produce_source(&mut self) -> bool {
        let frames = self.run.r.cfg.frames;
        if self.f_src >= frames || self.f_src - self.next_out >= u64::from(self.window) {
            return false;
        }
        let f = self.f_src;
        self.f_src += 1;
        let cam = self.run.r.walkthrough.camera(f);
        for unit in 0..self.run.ledgers.source.units() {
            let lowered = self.run.ledgers.source.lower(
                &self.run.r.cost,
                &self.run.r.renderer,
                &cam,
                &mut self.run.r.platform,
                f,
                unit,
            );
            for frame in lowered.strips {
                let i = frame.strip.index as usize;
                self.run.r.recovery.checkpoint(i, f, &frame);
                self.inject_strip(i, f, frame, lowered.core, lowered.ready);
            }
            // Injection is asynchronous: the payload send is booked when
            // the deque admits the task, not on the producing core.
            self.run.ledgers.source.commit(unit, lowered.ready);
        }
        true
    }

    fn inject_strip(&mut self, strip: usize, f: u64, data: Frame, from: CoreId, t: SimTime) {
        // Root placement rotates round-robin over the worker set, so the
        // heavy stages spread evenly by construction and stealing only
        // has to absorb the residual imbalance (chains are not all the
        // same length, and the transfer fan-in skews the tail).
        let p = self.run.r.cfg.pipelines as usize;
        let mut widx = (f as usize * p + strip) % self.workers.len();
        let mut probe = 0;
        while self.workers[widx].dead {
            widx = (widx + 1) % self.workers.len();
            probe += 1;
            assert!(
                probe <= self.workers.len(),
                "no surviving pipeline to adopt the strip"
            );
        }
        let epoch = self.chain_epoch_of(f, strip);
        self.enqueue(
            widx,
            Pending {
                frame: f,
                strip,
                group: 0,
                epoch,
                data,
                from,
                ready: t,
            },
        );
    }

    // ---- execution -----------------------------------------------------

    /// Execute the most urgent ready task (the min-start worker's deque
    /// front). Returns false when no worker holds a task.
    fn execute_one(&mut self) -> bool {
        let mut best: Option<(SimTime, usize)> = None;
        for k in 0..self.workers.len() {
            let widx = self.scan(k);
            let w = &self.workers[widx];
            if w.dead {
                continue;
            }
            if let Some(task) = w.deque.front() {
                let start = w.free.max(task.avail);
                if best.is_none_or(|(bs, _)| start < bs) {
                    best = Some((start, widx));
                }
            }
        }
        let Some((start, widx)) = best else {
            return false;
        };
        // A worker that is dead (or stalled beyond the whole ARQ horizon)
        // by the time it would run: fence it instead of executing.
        let core = self.workers[widx].core;
        if self.run.r.recovery.dead_equivalent(core, start) {
            self.fence(widx, start);
            return true;
        }

        let mut task = self.workers[widx].deque.pop_front().expect("non-empty");
        let wfree = self.workers[widx].free;
        self.workers[widx].room_at = start;
        let idle = start.saturating_sub(wfree);

        // Book the group's stage walk on this core, exactly like the
        // static lane walk: one fetch at group entry, then per stage
        // compute + cache-model traffic; merged siblings stay on-core.
        let bytes = task.data.byte_len();
        let group = self.run.r.plan.groups[task.group].clone();
        let (r, stages) = (&mut self.run.r, &self.run.stages);
        let (platform, data) = (&mut r.platform, &mut task.data);
        let walked = stages.filter(platform, &r.cost, core, group.stages(), data, start, true);
        let t = walked.done;
        self.workers[widx].free = t;
        self.stats.executed += 1;

        // Busy/idle land on the executing worker's home report.
        let (i, j, k) = self.workers[widx].slot;
        let home = self.run.ledgers.slot(i, j, k);
        home.busy += t - start;
        home.idle_samples.push(idle);

        // Stale-epoch completions (a steal that raced a fence, or a chain
        // restarted underneath the thief) are discarded: no frame counts,
        // no successor — the restarted chain owns the strip now.
        if task.epoch != self.chain_epoch_of(task.frame, task.strip) {
            return true;
        }

        // First completion of this task identity counts toward the
        // conservation ledger and the per-stage frame counts; a re-run
        // after a re-queue only adds `executed`.
        if self
            .completed_task
            .insert((task.frame, task.strip, task.group))
        {
            self.stats.completed += 1;
            for j in group.stages() {
                if self.completed_stage.insert((task.frame, task.strip, j)) {
                    self.run.ledgers.filters[task.strip][j].frames += 1;
                }
            }
        }

        if task.group + 1 < self.groups() {
            // The continuation runs where the strip is resident: no
            // transfer, and chains spread across cores through stealing
            // alone — which is what flattens the idle quartiles.
            self.enqueue(
                widx,
                Pending {
                    frame: task.frame,
                    strip: task.strip,
                    group: task.group + 1,
                    epoch: task.epoch,
                    data: task.data,
                    from: core,
                    ready: t,
                },
            );
        } else {
            // Final group: ship the finished strip to the transfer stage.
            let tcore = self.run.ledgers.transfer.core;
            let r = &mut self.run.r;
            let resident = r
                .recovery
                .send(&mut r.platform, core, tcore, t, bytes)
                .unwrap_or_else(|at| {
                    // The transfer core is never a kill target; worst
                    // case the ARQ burned its horizon.
                    r.platform.send_to_partition(core, tcore, at, bytes)
                });
            self.delivered
                .insert((task.frame, task.strip), (resident, task.data));
        }
        true
    }

    // ---- stealing ------------------------------------------------------

    /// One pass over idle workers: each may run a single steal handshake
    /// against a seeded-random loaded victim. The handshake's four legs
    /// are real encoded wire frames rolled against the fault plan; a lost
    /// or corrupted leg leaves no net deque change.
    fn steal_pass(&mut self) {
        let retries = self.run.r.cfg.task_tuning.steal_retries.max(1);
        for k in 0..self.workers.len() {
            let widx = self.scan(k);
            let w = &self.workers[widx];
            if w.dead || !w.deque.is_empty() || !w.parked.is_empty() || w.idle_attempts >= retries {
                continue;
            }
            // A killed or hopelessly-stalled thief must not run the
            // handshake: the platform would push its legs past the stall
            // window (forever, for a permanent stall) and the "steal"
            // would book unbounded time. Fence it — its chains re-queue.
            if self.run.r.recovery.dead_equivalent(w.core, w.free) {
                let at = self.workers[widx].free;
                self.fence(widx, at);
                continue;
            }
            let thief_free = self.workers[widx].free;
            let victims: Vec<usize> = (0..self.workers.len())
                .filter(|&v| {
                    let w = &self.workers[v];
                    // Profitability: rob only when the queued task would
                    // actually WAIT on the victim (victim clock past the
                    // task's data arrival) and the thief could start it
                    // earlier (thief clock behind the victim's). A task
                    // still waiting on its data starts at `avail` on any
                    // core — stealing it gains nothing and just scatters
                    // the balanced root placement. A dead-equivalent
                    // victim can't grant (its reply leg would never
                    // issue): skip it, execute_one's fence re-queues its
                    // chains instead.
                    v != widx
                        && !w.dead
                        && !self.run.r.recovery.dead_equivalent(w.core, w.free)
                        && w.deque.back().is_some_and(|t| w.free > t.avail)
                        && w.free > thief_free
                })
                .collect();
            if victims.is_empty() {
                continue;
            }
            // Power-of-two-choices: sample two random victims and rob the
            // busier one. Still randomized, but load drains from the most
            // loaded cores almost as fast as a full scan would — and a
            // full scan is exactly what the message-passing mesh cannot
            // afford.
            let a = victims[self.rng.gen_range(0..victims.len())];
            let b = victims[self.rng.gen_range(0..victims.len())];
            let victim = if self.workers[b].free > self.workers[a].free {
                b
            } else {
                a
            };
            self.attempt_steal(widx, victim);
        }
    }

    /// Run the four-leg steal/claim handshake thief→victim. Encodes and
    /// decodes every control frame through the real codec; each leg rolls
    /// its fate from the fault plan. On success the victim's *back* task
    /// moves (with its payload) into the thief's deque.
    fn attempt_steal(&mut self, thief: usize, victim: usize) {
        self.stats.steal_attempts += 1;
        self.bump(names::TASK_STEAL_ATTEMPTS_TOTAL);
        let attempt = self.workers[thief].idle_attempts;
        let tcore = self.workers[thief].core;
        let vcore = self.workers[victim].core;
        let t0 = self.workers[thief].free;
        let timeout = SimTime::from_us(self.run.r.cfg.task_tuning.steal_timeout_us.max(1));
        let backoff = timeout * (1u64 << attempt.min(16));
        self.nonce += 1;
        let nonce = self.nonce;
        let fail = |engine: &mut Engine, offered: bool, lost: bool| {
            if offered {
                engine.workers[victim].claims.cancel(nonce);
            }
            if lost {
                engine.stats.steal_losses += 1;
            }
            engine.workers[thief].idle_attempts += 1;
            engine.workers[thief].free = t0 + backoff;
        };

        // Leg 1: StealRequest thief → victim.
        let epoch = self.workers[victim].claims.epoch();
        let req = StealRequest {
            thief: u32::from(tcore.raw()),
            epoch,
            nonce,
        };
        let wire = encode_steal_request(req);
        debug_assert_eq!(decode_steal_request(&wire), Some(req));
        let Some(t1) = self.leg(tcore, vcore, t0, wire.len() as u64) else {
            return fail(self, false, true);
        };
        if self.run.r.recovery.kill_seen(vcore, t1).is_some() {
            self.stats.midsteal_kills += 1;
            return fail(self, false, false);
        }

        // The victim answers with a grant for its back task and parks the
        // offer in its claim table (idempotent hand-off bookkeeping).
        let task_ref = self.workers[victim].deque.back().expect("victim loaded");
        let tid = TaskId {
            frame: task_ref.frame as u32,
            strip: task_ref.strip as u32,
            group: task_ref.group as u32,
        };
        self.workers[victim]
            .claims
            .offer(nonce, u32::from(tcore.raw()), tid);
        let grant = StealGrant {
            victim: u32::from(vcore.raw()),
            epoch,
            nonce,
            task: tid,
        };
        let wire = encode_steal_grant(grant);
        debug_assert_eq!(decode_steal_grant(&wire), Some(grant));
        let Some(t2) = self.leg(vcore, tcore, t1, wire.len() as u64) else {
            return fail(self, true, true);
        };

        // Leg 3: TaskClaim thief → victim.
        let claim = TaskClaim {
            thief: u32::from(tcore.raw()),
            epoch,
            nonce,
        };
        let wire = encode_task_claim(claim);
        debug_assert_eq!(decode_task_claim(&wire), Some(claim));
        let Some(t3) = self.leg(tcore, vcore, t2, wire.len() as u64) else {
            return fail(self, true, true);
        };
        if self.run.r.recovery.kill_seen(vcore, t3).is_some() {
            // The victim fail-stopped between grant and claim: fence it
            // (bumping its claim epoch) and watch the straggling claim be
            // rejected — the task went back with the fence's re-queue.
            self.fence(victim, t3);
            let verdict = self.workers[victim].claims.claim(claim);
            assert!(
                matches!(verdict, ClaimVerdict::Rejected(_)),
                "stale claim must be rejected after a fence"
            );
            self.stats.midsteal_kills += 1;
            self.stats.steal_rejects += 1;
            self.workers[thief].idle_attempts += 1;
            self.workers[thief].free = t0 + backoff;
            return;
        }
        let verdict = self.workers[victim].claims.claim(claim);
        let ClaimVerdict::Accepted(got) = verdict else {
            self.stats.steal_rejects += 1;
            return fail(self, false, false);
        };
        debug_assert_eq!(got, tid);

        // Leg 4: ClaimAck victim → thief.
        let ack = ClaimAck {
            accepted: true,
            nonce,
        };
        let wire = encode_claim_ack(ack);
        debug_assert_eq!(decode_claim_ack(&wire), Some(ack));
        let Some(t4) = self.leg(vcore, tcore, t3, wire.len() as u64) else {
            // The ack was lost *after* the claim was accepted. The thief
            // owns the task (the claim table is idempotent: a retransmit
            // re-answers Accepted), so the hand-off still happens — it
            // just burned the retransmission window first.
            self.stats.steal_losses += 1;
            let t4 = t3 + backoff;
            self.finish_steal(thief, victim, t4);
            return;
        };
        self.finish_steal(thief, victim, t4);
    }

    /// Move the claimed back task from victim to thief at `t`, booking the
    /// payload transfer into the thief's partition.
    fn finish_steal(&mut self, thief: usize, victim: usize, t: SimTime) {
        let mut task = self.workers[victim].deque.pop_back().expect("claimed task");
        let vcore = self.workers[victim].core;
        let tcore = self.workers[thief].core;
        let resident = self.run.r.platform.send_to_partition(
            vcore,
            tcore,
            t.max(task.avail),
            task.data.byte_len(),
        );
        task.avail = resident;
        self.workers[thief].free = t;
        self.workers[thief].deque.push_back(task);
        self.workers[thief].idle_attempts = 0;
        self.stats.max_queue_depth = self
            .stats
            .max_queue_depth
            .max(self.workers[thief].deque.len() as u64);
        self.stats.steals += 1;
        self.bump(names::TASK_STEALS_TOTAL);
    }

    /// Book one control-frame leg; `None` means the leg was lost or
    /// corrupted (a corrupted leg is round-tripped through the codec to
    /// prove the CRC rejects it).
    fn leg(&mut self, from: CoreId, to: CoreId, t: SimTime, bytes: u64) -> Option<SimTime> {
        match self.run.r.recovery.roll(from, to) {
            MessageOutcome::Deliver => Some(self.run.r.platform.message(from, to, t, bytes)),
            MessageOutcome::Delay(d) => Some(self.run.r.platform.message(from, to, t + d, bytes)),
            MessageOutcome::Corrupt { .. } => {
                // Prove the wire layer rejects the mangled frame instead
                // of smuggling garbage into the handshake.
                let mut mangled = encode_steal_request(StealRequest {
                    thief: u32::from(from.raw()),
                    epoch: 0,
                    nonce: self.nonce,
                })
                .to_vec();
                mangled[4] ^= 0x5A;
                debug_assert_eq!(decode_steal_request(&mangled), None);
                self.bump(names::ARQ_CORRUPT_DROPS_TOTAL);
                None
            }
            MessageOutcome::Drop => None,
        }
    }

    // ---- fence + re-queue recovery -------------------------------------

    /// Fence a dead (or hopelessly stalled) worker at `observed`: bump its
    /// claim epoch so straggling claims are rejected, re-route handoffs
    /// parked against it (their payloads still live in their producers'
    /// partitions), and restart the chains whose in-flight strips died in
    /// its partition from the source's checkpoint ring — on surviving
    /// cores, with *no* spare provisioning.
    fn fence(&mut self, widx: usize, observed: SimTime) {
        if self.workers[widx].dead {
            return;
        }
        let core = self.workers[widx].core;
        let rec = &self.run.r.recovery;
        let killed_at = rec.kill_seen(core, SimTime::MAX).unwrap_or(observed);
        let detected = rec.detect(&self.run.r.platform, core, killed_at);
        self.workers[widx].dead = true;
        let epoch = self.workers[widx].claims.epoch();
        self.workers[widx].claims.fence(epoch + 1);

        // Chains whose current-epoch strips were resident in the dead
        // partition: everything queued here restarts from the checkpoint.
        let mut chains: BTreeSet<(u64, usize)> = BTreeSet::new();
        let drained: Vec<Task> = self.workers[widx].deque.drain(..).collect();
        for task in drained {
            if task.epoch == self.chain_epoch_of(task.frame, task.strip) {
                chains.insert((task.frame, task.strip));
            }
        }
        // Handoffs parked against the dead worker still hold their
        // payloads upstream: redirect them to survivors untouched.
        let parked: Vec<Pending> = self.workers[widx].parked.drain(..).collect();
        for mut p in parked {
            p.ready = p.ready.max(detected);
            let target = self.earliest_free_survivor();
            self.enqueue(target, p);
        }

        if chains.is_empty() {
            self.bump(names::HEARTBEAT_MISSES_TOTAL);
            return;
        }
        let frames_replayed = chains
            .iter()
            .map(|&(f, _)| f)
            .collect::<BTreeSet<u64>>()
            .len() as u32;
        let (first_f, first_i) = *chains.iter().next().expect("non-empty");
        let mut first_resident = SimTime::ZERO;
        let mut first_target = core;
        for (k, (f, i)) in chains.into_iter().enumerate() {
            *self.chain_epoch.entry((f, i)).or_insert(0) += 1;
            self.stats.requeued += 1;
            self.bump(names::TASK_REQUEUES_TOTAL);
            let data = self.run.r.recovery.restore(i, f);
            let src = self.source_core(i);
            let target = {
                let home = self.home(i, 0, f);
                if self.workers[home].dead {
                    self.earliest_free_survivor()
                } else {
                    home
                }
            };
            if k == 0 {
                first_target = self.workers[target].core;
                // The replay lands when the re-sent strip is resident on
                // the adopting worker — approximate with the ship below.
            }
            let epoch = self.chain_epoch_of(f, i);
            let before = self.workers[target].free.max(detected);
            self.enqueue(
                target,
                Pending {
                    frame: f,
                    strip: i,
                    group: 0,
                    epoch,
                    data,
                    from: src,
                    ready: detected,
                },
            );
            if k == 0 {
                let resumed = self.workers[target]
                    .deque
                    .back()
                    .map(|task| task.avail)
                    .unwrap_or(before);
                first_resident = resumed.max(detected);
            }
        }
        let kind = StageKind::PIPELINE_FILTERS[self.workers[widx].slot.1];
        // Re-queued on a survivor, not migrated to a spare: the plane logs
        // the episode without a `Migration`.
        self.run.r.recovery.record(
            RecoveryEvent {
                frame: first_f,
                pipeline: first_i as u32,
                stage: kind,
                failed_core: core.raw(),
                migration_target: first_target.raw(),
                killed_at_secs: killed_at.as_secs_f64(),
                detected_at_secs: detected.as_secs_f64(),
                resumed_at_secs: first_resident.as_secs_f64(),
                frames_replayed,
                mttr_secs: first_resident.saturating_sub(killed_at).as_secs_f64(),
            },
            detected,
            None,
        );
    }

    // ---- transfer ------------------------------------------------------

    /// Assemble and ship every fully-arrived frame, in order. Mirrors the
    /// static transfer booking; acks the checkpoint rings as frames leave
    /// the chip (which re-opens the source window).
    fn drain_transfer(&mut self) -> bool {
        let p = self.run.r.cfg.pipelines as usize;
        let mut any = false;
        while self.next_out < self.run.r.cfg.frames {
            let f = self.next_out;
            if !(0..p).all(|i| self.delivered.contains_key(&(f, i))) {
                break;
            }
            let out = self.run.stages.transfer(
                &mut self.run.r.platform,
                &self.run.r.cost,
                &mut self.run.ledgers.transfer,
                (0..p)
                    .map(|i| self.delivered.remove(&(f, i)).expect("checked"))
                    .collect(),
            );
            self.run.finish = self.run.finish.max(out.done);
            self.run.outputs.extend(out.image);
            self.run.r.recovery.ack(f);
            self.next_out += 1;
            any = true;
        }
        any
    }

    // ---- the run -------------------------------------------------------

    fn run(mut self) -> WalkthroughReport {
        while self.next_out < self.run.r.cfg.frames {
            self.admit_parked();
            if self.drain_transfer() {
                continue;
            }
            if self.produce_source() {
                continue;
            }
            self.steal_pass();
            self.admit_parked();
            if self.execute_one() {
                continue;
            }
            // Nothing ran: with tasks outstanding this is a lost-task bug
            // (the deques, parked lists and source window are all empty
            // but the film is incomplete).
            if self.next_out < self.run.r.cfg.frames {
                panic!(
                    "task runtime wedged at frame {} of {}: no actionable work",
                    self.next_out, self.run.r.cfg.frames
                );
            }
        }

        let (tel, stats) = (&self.run.r.tel, &self.stats);
        tel.count(names::TASK_SPAWNED_TOTAL, &[], stats.spawned);
        let depth = stats.max_queue_depth as f64;
        tel.gauge(names::TASK_QUEUE_DEPTH_MAX, &[], depth);
        // The steal scheduler interleaves strips across cores, so the
        // static trace invariants (per-stage frame monotonicity) do not
        // apply: no trace, the task ledger is the runtime's audit trail.
        self.run.finish(Some(self.stats), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Arrangement, FaultSpec, Fidelity, KillSpec, RunConfig, Runtime};
    use scc_render::{CityConfig, Scene};
    use std::sync::Arc;

    fn tiny_scene() -> Arc<Scene> {
        Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 3,
        }))
    }

    /// Through the front door, which dispatches on `c.runtime`.
    fn sim(c: RunConfig, scene: Arc<Scene>) -> WalkthroughReport {
        crate::run_with_scene(&c, crate::Backend::Sim, scene)
            .report
            .sim()
            .expect("sim report")
    }

    fn cfg(mode: RendererMode, pipelines: u32, frames: u64) -> RunConfig {
        RunConfig::builder()
            .renderer(mode)
            .arrangement(Arrangement::Ordered)
            .pipelines(pipelines)
            .size(100, 100)
            .frames(frames)
            .seed(42)
            .fidelity(Fidelity::TimingOnly)
            .runtime(Runtime::Tasks)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn tasks_runtime_completes_and_conserves() {
        for mode in [
            RendererMode::SingleRenderer,
            RendererMode::PerPipelineRenderer,
            RendererMode::McpcRenderer,
        ] {
            let mut c = cfg(mode, 2, 8);
            c.verify = true;
            let report = sim(c, tiny_scene());
            let stats = report.task_stats.expect("task ledger present");
            assert_eq!(stats.completed + stats.degraded, stats.spawned);
            assert!(stats.executed >= stats.completed);
            assert!(report.total_secs > 0.0);
        }
    }

    #[test]
    fn tasks_film_matches_static_film() {
        let scene = tiny_scene();
        let mut st = cfg(RendererMode::SingleRenderer, 2, 4);
        st.runtime = Runtime::Static;
        st.fidelity = Fidelity::Full;
        let mut tk = st.clone();
        tk.runtime = Runtime::Tasks;
        let a = sim(st, Arc::clone(&scene));
        let b = sim(tk, scene);
        assert_eq!(
            a.outputs.expect("static frames"),
            b.outputs.expect("task frames"),
            "task scheduling changed the film"
        );
    }

    #[test]
    fn tasks_steal_under_load() {
        // With one renderer feeding three lanes, cheap stages go hungry
        // and the runtime must actually steal.
        let c = cfg(RendererMode::SingleRenderer, 3, 16);
        let report = sim(c, tiny_scene());
        let stats = report.task_stats.expect("ledger");
        assert!(stats.steal_attempts > 0, "no steal attempts at all");
        assert!(stats.steals > 0, "no successful steals: {stats:?}");
        assert!(stats.max_queue_depth >= 1);
    }

    #[test]
    fn kill_recovers_by_requeue_with_no_lost_or_duplicate_task() {
        let scene = tiny_scene();
        let mut clean = cfg(RendererMode::SingleRenderer, 2, 6);
        clean.fidelity = Fidelity::Full;
        clean.runtime = Runtime::Static;
        let reference = sim(clean.clone(), Arc::clone(&scene));

        let mut c = clean.clone();
        c.runtime = Runtime::Tasks;
        c.verify = true;
        // Kill while the core is mid-chain on frame 0 (first strip lands
        // ~15 ms in, the chain runs to ~36 ms), so recovery is exercised
        // as a *re-queue* of queued work — a kill that lands before any
        // strip arrives is observed at injection time and merely
        // re-routes.
        c.fault = Some(FaultSpec {
            kills: vec![KillSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 20,
            }],
            heartbeat_period_us: 2_000,
            phi_dead: 2.0,
            ..FaultSpec::default()
        });
        let report = sim(c, scene);
        let stats = report.task_stats.expect("ledger");
        assert_eq!(
            stats.completed + stats.degraded,
            stats.spawned,
            "task conservation broke under a kill: {stats:?}"
        );
        assert!(stats.requeued > 0, "the kill must force re-queues");
        assert!(!report.recoveries.is_empty(), "fence recorded a recovery");
        let ev = &report.recoveries[0];
        assert!(ev.killed_at_secs <= ev.detected_at_secs);
        assert!(ev.detected_at_secs <= ev.resumed_at_secs);
        let want = reference.outputs.expect("clean frames");
        let got = report.outputs.expect("recovered frames");
        assert_eq!(got.len(), want.len(), "a frame was lost");
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                crate::viz::frame_checksum(a),
                crate::viz::frame_checksum(b),
                "frame {i} differs after re-queue recovery"
            );
        }
    }

    #[test]
    fn permanent_stall_is_fenced_not_stolen_through() {
        // Regression: a forever-stalled worker is idle (empty deque) and
        // used to run the steal handshake as a thief. The platform's
        // stall model pushed its legs past the stall window — to the end
        // of virtual time for a permanent stall — so the "steal" booked
        // unbounded busy spans and the run never terminated. A stalled
        // core past the ARQ horizon is fail-stop-equivalent: it must be
        // fenced, its chains re-queued, and the film unchanged.
        let scene = tiny_scene();
        let mut clean = cfg(RendererMode::SingleRenderer, 2, 4);
        clean.fidelity = Fidelity::Full;
        clean.runtime = Runtime::Static;
        let reference = sim(clean.clone(), Arc::clone(&scene));

        let mut c = clean.clone();
        c.runtime = Runtime::Tasks;
        c.verify = true;
        c.fault = Some(FaultSpec {
            stall: Some(crate::spec::StallSpec {
                pipeline: 0,
                stage: 2,
                at_ms: 0,
                for_ms: u64::MAX,
            }),
            heartbeat_period_us: 2_000,
            phi_dead: 2.0,
            ..FaultSpec::default()
        });
        let report = sim(c, scene);
        let stats = report.task_stats.expect("ledger");
        assert_eq!(
            stats.completed + stats.degraded,
            stats.spawned,
            "task conservation broke under a permanent stall: {stats:?}"
        );
        assert!(
            report.total_secs < 3600.0,
            "stalled core leaked into the timeline: {} s",
            report.total_secs
        );
        let want = reference.outputs.expect("clean frames");
        let got = report.outputs.expect("stall-recovered frames");
        assert_eq!(got.len(), want.len(), "a frame was lost");
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                crate::viz::frame_checksum(a),
                crate::viz::frame_checksum(b),
                "frame {i} differs after fencing the stalled core"
            );
        }
    }

    #[test]
    fn deterministic_per_flavor_and_schedule_independent_film() {
        let scene = tiny_scene();
        let mut c = cfg(RendererMode::PerPipelineRenderer, 2, 4);
        c.fidelity = Fidelity::Full;
        let a = run_tasks(
            SimRunner::new(c.clone(), Arc::clone(&scene)),
            ScheduleFlavor::Sim,
        );
        let b = run_tasks(
            SimRunner::new(c.clone(), Arc::clone(&scene)),
            ScheduleFlavor::Sim,
        );
        assert_eq!(a.fingerprint(), b.fingerprint(), "same flavor must repeat");
        let d = run_tasks(SimRunner::new(c, scene), ScheduleFlavor::Des);
        assert_eq!(
            a.outputs.expect("sim frames"),
            d.outputs.expect("des frames"),
            "film must be schedule-independent"
        );
        let sa = a.task_stats.expect("ledger");
        let sd = d.task_stats.expect("ledger");
        assert_eq!(sa.spawned, sd.spawned);
        assert_eq!(sa.completed, sd.completed);
    }

    #[test]
    fn bounded_queues_never_exceed_capacity() {
        let mut c = cfg(RendererMode::SingleRenderer, 2, 12);
        c.task_tuning.queue_capacity = 2;
        let report = sim(c, tiny_scene());
        let stats = report.task_stats.expect("ledger");
        assert!(
            stats.max_queue_depth <= 2,
            "deque exceeded its bound: {}",
            stats.max_queue_depth
        );
        assert_eq!(stats.completed, stats.spawned);
    }
}
