//! The round-based serving engine: a control plane on strip handles,
//! then a windowed data plane.
//!
//! All *observable decisions* — admission, shedding, weighted-fair slot
//! allocation, cache hits/misses/evictions, the session ledger, virtual
//! time, frame latencies — are made by a deterministic virtual-time
//! control loop that touches no pixels: the cache holds a handle per strip,
//! a render job is priced when it is planned (the cost model reads only
//! the strip geometry), and a delivered frame records its strips' handles.
//! The pixels follow a *window* of rounds at a time: one burst renders and
//! filters every job the window planned, a second hashes its frames
//! `HASH_LANES` at a time, both through [`scc_filters::burst`] (the
//! `Renderer` is `&self`-only over `Arc`s), results in job order. No
//! decision waits on a pixel, so neither the host's thread count nor where
//! a window ends shows in a report or a film (DESIGN.md §17, "Host
//! execution of a round").
//!
//! One round, the control plane:
//!  1. **admit** this round's arrivals (per-tenant queue bound, global
//!     session cap; refusals are recorded [`ShedEvent`]s — never silent);
//!  2. **allocate** `batch_frames` slots per shard across tenants by
//!     largest-remainder weighted fair queuing, round-robin within a
//!     tenant;
//!  3. **resolve** each scheduled frame's strips against the
//!     content-addressed cache (a hit is the handle its entry holds);
//!     misses are de-duplicated across sessions (two viewers at one pose
//!     render once);
//!  4. **plan** the render jobs, a handle reserved for each missing strip,
//!     each job priced in virtual seconds;
//!  5. **charge** each of the `pool` instances virtual cycles from the
//!     shared [`CostModel`], and advance virtual time by the slowest
//!     instance;
//!  6. **deliver**: insert the new handles (LRU-bounded), record each
//!     frame's strip handles in the window and its ready→delivered
//!     latency;
//!  7. **retire** finished sessions into the ledger.
//!
//! A window closes once the strips it planned reach `cache_capacity`, and
//! when the run ends. Its data plane:
//!  8. **render** and filter every job of the window in one burst;
//!  9. **hash** every frame straight from its strips in row order and hand
//!     each session its checksums (its frames too, assembled, under
//!     `keep_films`), retired sessions included;
//! 10. **free** the strips the cache let go of during the window.

use crate::cache::{CacheStats, StripCache, StripKey};
use crate::config::{generate_sessions, ServeConfig, SessionSpec};
use crate::session::{ActiveSession, SessionFilm, ShedEvent, ShedReason};
use scc_core::cost::cycles_to_secs;
use scc_core::spec::RendererMode;
use scc_core::CostModel;
use scc_filters::{
    burst, fnv1a_fold, fnv1a_fold_lanes, standard_chain, vswap, FrameCtx, Image, ImageFilter,
    KernelBackend, StripInfo, FNV_OFFSET, FNV_PRIME,
};
use scc_render::{Renderer, Scene, Walkthrough};
use scc_telemetry::{names, TelemetrySink, SECONDS_BUCKETS};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The SCC's P54C cores run at 533 MHz (§II); all pool cost charging is
/// anchored there, matching the simulator's clock.
pub const P54C_HZ: u64 = 533_000_000;

/// Fixed per-round control overhead (admission + scheduling bookkeeping)
/// so virtual time advances even in all-hit rounds.
const ROUND_OVERHEAD_SECS: f64 = 50.0e-6;

/// Livelock guard: no sane config needs this many rounds.
const MAX_ROUNDS: u64 = 10_000_000;

/// Order statistics over the recorded frame latencies (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    pub count: u64,
    pub p50: f64,
    pub p99: f64,
    pub max: f64,
}

impl LatencyStats {
    fn from_samples(samples: &mut [f64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        LatencyStats {
            count: n as u64,
            p50: samples[(n - 1) / 2],
            p99: samples[(n - 1) * 99 / 100],
            max: samples[n - 1],
        }
    }
}

/// Per-tenant slice of the serving report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantReport {
    pub name: String,
    pub weight: u32,
    /// Sessions the tenant offered (== its ledger's `admitted`).
    pub offered: u64,
    pub shed: u64,
    pub completed_sessions: u64,
    pub frames_completed: u64,
    /// Frames won in *contended* shard-rounds (every tenant could have
    /// consumed the whole slot budget) — the weighted-fair envelope is
    /// asserted over these.
    pub contended_frames: u64,
    /// Deepest active-session queue observed for this tenant.
    pub max_queue_depth: u64,
}

/// Everything a serving run reports (deterministic for a given config).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Sessions the frontend took responsibility for (all arrivals).
    pub admitted: u64,
    /// Sessions that delivered every requested frame.
    pub completed: u64,
    /// Sessions refused by admission control (`shed ⊂ admitted`).
    pub shed: u64,
    pub shed_events: Vec<ShedEvent>,
    pub frames_served: u64,
    /// Render jobs actually executed (after cache hits and cross-session
    /// de-duplication).
    pub unique_renders: u64,
    pub rounds: u64,
    /// Shard-rounds in which every tenant's backlog exceeded the slot
    /// budget (the regime where the weighted-fair envelope is exact).
    pub contended_rounds: u64,
    pub contended_frames_total: u64,
    pub cache: CacheStats,
    pub per_tenant: Vec<TenantReport>,
    /// Virtual seconds from first arrival to last delivery.
    pub virtual_secs: f64,
    pub sessions_per_sec: f64,
    pub frames_per_sec: f64,
    pub latency: LatencyStats,
    /// FNV fold of every completed session's frame checksums, in session
    /// id order — the cache-transparency fingerprint.
    pub film_hash: u64,
}

/// A finished serving run: the report plus (optionally) the films and
/// the telemetry snapshot for the exporters.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    pub report: ServeReport,
    /// Completed sessions in id order; `film` is populated only under
    /// `keep_films`, checksums always.
    pub films: Vec<SessionFilm>,
    /// `Some` when `cfg.run.telemetry` was set.
    pub snapshot: Option<scc_telemetry::Snapshot>,
}

/// Largest-remainder weighted-fair allocation of `slots` over tenants
/// with the given backlogs; allocations are capped by backlog and the
/// leftover re-distributed among still-hungry tenants until either the
/// slots or the backlog run out. Ties break toward the lower tenant
/// index, so the split is deterministic.
pub fn wfq_allocate(slots: u64, pending: &[u64], weights: &[u32]) -> Vec<u64> {
    assert_eq!(pending.len(), weights.len());
    let mut alloc = vec![0u64; pending.len()];
    let mut left = slots;
    loop {
        let hungry: Vec<usize> = (0..pending.len())
            .filter(|&i| alloc[i] < pending[i])
            .collect();
        if hungry.is_empty() || left == 0 {
            break;
        }
        let w_total: u64 = hungry.iter().map(|&i| weights[i] as u64).sum();
        // Integer largest-remainder split of `left` proportional to the
        // hungry tenants' weights.
        let mut shares: Vec<(usize, u64, u64)> = hungry
            .iter()
            .map(|&i| {
                let num = left * weights[i] as u64;
                (i, num / w_total, num % w_total)
            })
            .collect();
        let base: u64 = shares.iter().map(|s| s.1).sum();
        // Largest remainder first; ties toward the lower tenant index.
        shares.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        for s in shares.iter_mut().take((left - base) as usize) {
            s.1 += 1;
        }
        let before = left;
        for &(i, q, _) in &shares {
            let grant = q.min(pending[i] - alloc[i]);
            alloc[i] += grant;
            left -= grant;
        }
        if left == before {
            break;
        }
    }
    alloc
}

/// A handle to one strip in the engine's [`Strips`].
type StripId = usize;

/// A round's strips by `(pose, strip)`, each a handle.
type Store = BTreeMap<(u64, u32), StripId>;

/// The strips the cache holds and the open window reads, by handle. A
/// handle is reserved when its strip is planned, filled by the window's
/// render burst, and freed at the end of the window in which the cache
/// let go of it, so a frame of that window can still read it.
#[derive(Default)]
struct Strips {
    slots: Vec<Option<(StripInfo, Image)>>,
    free: Vec<StripId>,
}

impl Strips {
    fn reserve(&mut self) -> StripId {
        self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        })
    }

    /// A rendered strip, at its placement in the assembled frame.
    fn get(&self, h: StripId) -> &(StripInfo, Image) {
        self.slots[h].as_ref().expect("strip rendered")
    }

    fn fill(&mut self, h: StripId, strip: (StripInfo, Image)) {
        self.slots[h] = Some(strip);
    }

    fn free(&mut self, h: StripId) {
        self.slots[h] = None;
        self.free.push(h);
    }

    /// Handles reserved and not yet freed.
    #[cfg(test)]
    fn held(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// A planned render job: a pose, the one strip to render in per-strip
/// mode (`None` renders the full frame and splits it), and by strip index
/// the handle each strip it yields fills — `None` for a strip it does not
/// yield or the cache had.
struct Job {
    pose: u64,
    strip: Option<u32>,
    into: Vec<Option<StripId>>,
}

/// A delivered frame: its session and its strips' handles by strip index.
/// Its checksum is filled in when its window runs.
struct Frame {
    session: u32,
    strips: Vec<StripId>,
}

/// What the open window has planned and not yet run.
#[derive(Default)]
struct Window {
    jobs: Vec<Job>,
    frames: Vec<Frame>,
    /// Handles reserved in this window, one per missing strip.
    planned: usize,
    /// Handles the cache let go of in this window (evicted, or never
    /// kept), freed once the window's frames are hashed.
    released: Vec<StripId>,
    /// Sessions retired in this window start at this index of `finished`.
    retired_from: usize,
}

/// The serving engine between rounds: each phase is one method, and
/// [`serve`] runs them in order.
struct Engine<'a> {
    cfg: &'a ServeConfig,
    renderer: Renderer,
    walk: Walkthrough,
    chain: Vec<Box<dyn ImageFilter>>,
    backend: KernelBackend,
    bounds: Vec<(u32, u32)>,
    model: CostModel,
    /// A burst wider than the host only queues threads behind each other:
    /// `pool` is how many modelled instances a round is charged over, the
    /// host decides how many threads can actually run.
    host_threads: usize,
    cache: StripCache<StripId>,
    strips: Strips,
    window: Window,
    /// Arrivals not yet admitted or shed, in arrival order.
    arrivals: std::iter::Peekable<std::vec::IntoIter<SessionSpec>>,
    active: Vec<ActiveSession>,
    finished: Vec<SessionFilm>,
    shed_events: Vec<ShedEvent>,
    latencies: Vec<f64>,
    /// Live sessions per tenant, the count the queue bound admits against.
    tenant_active: Vec<u64>,
    per_tenant: Vec<TenantReport>,
    vtime: f64,
    round: u64,
    contended_rounds: u64,
    unique_renders: u64,
}

/// Serve the configured workload against `scene`.
///
/// Panics on an invalid config, and — via the core invariant machinery —
/// if the session ledger fails to balance while `cfg.run.verify` is set.
pub fn serve(cfg: &ServeConfig, scene: &Arc<Scene>) -> ServeOutcome {
    if let Err(e) = cfg.validate() {
        panic!("serve: invalid config: {e}");
    }
    let mut engine = Engine::new(cfg, scene);
    while engine.plan_window() {
        engine.run_window();
    }
    engine.run_window();
    engine.report()
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a ServeConfig, scene: &Arc<Scene>) -> Self {
        let run = &cfg.run;
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let per_tenant = cfg.tenants.iter().map(|t| TenantReport {
            name: t.name.clone(),
            weight: t.weight,
            offered: t.sessions as u64,
            ..TenantReport::default()
        });
        Engine {
            cfg,
            renderer: Renderer::new(scene.clone()),
            walk: Walkthrough::standard(run.width as f32 / run.height as f32),
            chain: standard_chain(),
            backend: run.tuning.kernel,
            bounds: Image::strip_bounds(run.height, run.pipelines),
            model: CostModel::default(),
            host_threads: host.min(cfg.pool as usize),
            cache: StripCache::new(cfg.cache_capacity, cfg.cache_buckets),
            strips: Strips::default(),
            window: Window::default(),
            arrivals: generate_sessions(cfg).into_iter().peekable(),
            active: Vec::new(),
            finished: Vec::new(),
            shed_events: Vec::new(),
            latencies: Vec::new(),
            tenant_active: vec![0; cfg.tenants.len()],
            per_tenant: per_tenant.collect(),
            vtime: 0.0,
            round: 0,
            contended_rounds: 0,
            unique_renders: 0,
        }
    }

    /// Plan rounds until the window's strips reach `cache_capacity`;
    /// false once the run's last round is planned.
    fn plan_window(&mut self) -> bool {
        while self.plan_round() {
            if self.window.planned >= self.cfg.cache_capacity as usize {
                return true;
            }
        }
        false
    }

    /// One round's control plane; false once no session is active and
    /// none is left to arrive.
    fn plan_round(&mut self) -> bool {
        self.admit();
        if self.active.is_empty() {
            if self.arrivals.peek().is_none() {
                return false;
            }
            // Idle gap before the next arrival burst.
            self.vtime += ROUND_OVERHEAD_SECS;
            self.round += 1;
            return true;
        }
        let scheduled = self.allocate();
        let (mut store, needed) = self.resolve(&scheduled);
        let hits = store.len() as u64;
        let secs = self.plan(&needed, &mut store);
        self.charge(&secs, hits, scheduled.len() as u64);
        self.deliver(&scheduled, &store, &needed);
        self.retire();
        self.round += 1;
        if self.round >= MAX_ROUNDS {
            panic!("serve: round livelock (config bug)");
        }
        true
    }

    /// The cache address of strip `strip` of `pose` under this run.
    fn key(&self, (pose, strip): (u64, u32)) -> StripKey {
        let run = &self.cfg.run;
        StripKey {
            mode: match run.renderer {
                RendererMode::SingleRenderer => 0,
                RendererMode::PerPipelineRenderer => 1,
                RendererMode::McpcRenderer => 2,
            },
            width: run.width,
            height: run.height,
            pipelines: run.pipelines,
            run_seed: run.seed,
            pose,
            strip,
        }
    }

    /// Phase 1: activate this round's arrivals, or shed each with its
    /// reason.
    fn admit(&mut self) {
        let cfg = self.cfg;
        while let Some(spec) = self.arrivals.next_if(|a| a.arrive_round <= self.round) {
            let ti = spec.tenant as usize;
            let reason = if self.tenant_active[ti] >= cfg.queue_depth as u64 {
                Some(ShedReason::TenantQueueFull)
            } else if self.active.len() as u64 >= cfg.max_sessions as u64 {
                Some(ShedReason::SessionCap)
            } else {
                None
            };
            let tenant = &mut self.per_tenant[ti];
            if let Some(reason) = reason {
                tenant.shed += 1;
                self.shed_events.push(ShedEvent {
                    round: self.round,
                    session: spec.id,
                    tenant: spec.tenant,
                    reason,
                });
                continue;
            }
            self.tenant_active[ti] += 1;
            tenant.max_queue_depth = tenant.max_queue_depth.max(self.tenant_active[ti]);
            self.active.push(ActiveSession {
                id: spec.id,
                tenant: spec.tenant,
                shard: spec.id % cfg.shards,
                start_pose: spec.start_pose,
                frames: spec.frames,
                next_frame: 0,
                ready_vtime: self.vtime,
                checksums: Vec::with_capacity(spec.frames as usize),
                film: Vec::new(),
            });
        }
    }

    /// Phase 2: deal each shard's `batch_frames` slots across tenants by
    /// weighted-fair allocation; returns indices into `active`, in
    /// dispatch order.
    fn allocate(&mut self) -> Vec<usize> {
        let slots = self.cfg.batch_frames as u64;
        let weights: Vec<u32> = self.per_tenant.iter().map(|t| t.weight).collect();
        let mut scheduled = Vec::new();
        for shard in 0..self.cfg.shards {
            // Tenant backlogs on this shard: one schedulable frame per
            // active session (frames within a session are in-order).
            let mut pending = vec![0u64; weights.len()];
            for s in self.active.iter().filter(|s| s.shard == shard) {
                pending[s.tenant as usize] += 1;
            }
            let contended = pending.iter().all(|&p| p >= slots);
            self.contended_rounds += contended as u64;
            let alloc = wfq_allocate(slots, &pending, &weights);
            for (ti, &take) in alloc.iter().enumerate().filter(|&(_, &take)| take > 0) {
                // Sessions of this tenant on this shard, id order, with a
                // round-rotating start so no session camps on the slots.
                let active = &self.active;
                let mut members: Vec<usize> = (0..active.len())
                    .filter(|&i| active[i].shard == shard && active[i].tenant as usize == ti)
                    .collect();
                members.sort_by_key(|&i| active[i].id);
                let rot = self.round as usize % members.len();
                members.rotate_left(rot);
                // The allocation is capped by the backlog, `members.len()`.
                scheduled.extend_from_slice(&members[..take as usize]);
                if contended {
                    self.per_tenant[ti].contended_frames += take;
                }
            }
        }
        scheduled
    }

    /// Phase 3: resolve each scheduled frame's strips against the cache.
    /// Returns the hits and the strips the cache missed; a strip two
    /// sessions miss is missed once.
    fn resolve(&mut self, scheduled: &[usize]) -> (Store, BTreeSet<(u64, u32)>) {
        let mut hits = Store::new();
        let mut needed = BTreeSet::new();
        for &ai in scheduled {
            let pose = self.active[ai].pose();
            for si in 0..self.bounds.len() as u32 {
                if hits.contains_key(&(pose, si)) || needed.contains(&(pose, si)) {
                    continue;
                }
                if let Some((_, h)) = self.cache.get(&self.key((pose, si))) {
                    hits.insert((pose, si), h);
                } else {
                    needed.insert((pose, si));
                }
            }
        }
        (hits, needed)
    }

    /// Phase 4: reserve a handle for each missing strip and plan the jobs
    /// that fill them; returns each new job's virtual seconds, in job
    /// order. Per-strip mode renders exactly the missing strips; the
    /// full-frame modes render each missing pose once and split.
    fn plan(&mut self, needed: &BTreeSet<(u64, u32)>, store: &mut Store) -> Vec<f64> {
        let per_strip = self.cfg.run.renderer == RendererMode::PerPipelineRenderer;
        let mut jobs: Vec<Job> = Vec::new();
        // `needed` is sorted by pose, so a full frame's strips are adjacent.
        for &(pose, si) in needed {
            let h = self.strips.reserve();
            store.insert((pose, si), h);
            if per_strip || jobs.last().is_none_or(|j| j.pose != pose) {
                jobs.push(Job {
                    pose,
                    strip: per_strip.then_some(si),
                    into: vec![None; self.bounds.len()],
                });
            }
            jobs.last_mut().expect("a job was just planned").into[si as usize] = Some(h);
        }
        self.window.planned += needed.len();
        let secs = jobs.iter().map(|j| self.price(j.pose, j.strip)).collect();
        self.window.jobs.extend(jobs);
        secs
    }

    /// Strip `si` as the decomposition cuts it from the rendered frame.
    fn strip_info(&self, si: u32) -> StripInfo {
        let (y0, height) = self.bounds[si as usize];
        StripInfo {
            index: si,
            count: self.bounds.len() as u32,
            y0,
            height,
            full_height: self.cfg.run.height,
        }
    }

    /// The virtual seconds of one render job: its render, then the chain
    /// over each strip it yields at the strip's placement in the assembled
    /// frame, strip by strip.
    fn price(&self, pose: u64, strip: Option<u32>) -> f64 {
        let run = &self.cfg.run;
        let yields = match strip {
            Some(si) => si..si + 1,
            None => 0..self.bounds.len() as u32,
        };
        let mut filter_cycles = 0.0;
        for si in yields {
            let ctx = FrameCtx {
                frame_id: pose,
                run_seed: run.seed,
                strip: vswap::mirrored_info(self.strip_info(si)),
                full_width: run.width,
            };
            for f in &self.chain {
                filter_cycles += self.model.filter_cycles(f.as_ref(), &ctx);
            }
        }
        self.render_secs(strip) + cycles_to_secs(filter_cycles, P54C_HZ)
    }

    /// The virtual seconds of rendering one job: a strip in per-strip
    /// mode, a full frame and its split otherwise.
    fn render_secs(&self, strip: Option<u32>) -> f64 {
        let (run, model) = (&self.cfg.run, &self.model);
        let cycles = match strip {
            Some(si) => {
                model.render_base_cycles
                    + model.render_strip_adjust_cycles
                    + model.render_fill_cycles
                        * model.nrend_fill_multiplier
                        * (run.width as f64 * self.bounds[si as usize].1 as f64)
            }
            None => {
                model.render_base_cycles
                    + model.render_fill_cycles * (run.width as f64 * run.height as f64)
                    + model.split_cycles(run.width as u64 * run.height as u64, run.pipelines)
            }
        };
        if run.renderer == RendererMode::McpcRenderer {
            model.mcpc_render_seconds(cycles)
        } else {
            cycles_to_secs(cycles, P54C_HZ)
        }
    }

    /// Phase 5: charge the round to the pool and advance virtual time by
    /// the busiest instance. Jobs, hits and frames are each dealt
    /// round-robin over the pool, so instances past the longest of the
    /// three lists would only ever hold zeros.
    fn charge(&mut self, jobs: &[f64], hits: u64, frames: u64) {
        let (run, pool) = (&self.cfg.run, self.cfg.pool as u64);
        self.unique_renders += jobs.len() as u64;
        let charged = (jobs.len() as u64).max(hits).max(frames);
        let mut busy = vec![0.0f64; charged.min(pool) as usize];
        for (j, secs) in (0u64..).zip(jobs) {
            busy[(j % pool) as usize] += secs;
        }
        // A cache hit costs one strip transfer, a delivered frame one
        // assemble.
        let strip_px = run.width as u64 * (run.height as u64 / run.pipelines as u64).max(1);
        let frame_px = run.width as u64 * run.height as u64;
        for (n, px) in [(hits, strip_px), (frames, frame_px)] {
            let secs = cycles_to_secs(self.model.assemble_cycles(px), P54C_HZ);
            for i in 0..n {
                busy[(i % pool) as usize] += secs;
            }
        }
        self.vtime += busy.iter().cloned().fold(0.0f64, f64::max) + ROUND_OVERHEAD_SECS;
    }

    /// Phase 6: cache the strips sessions missed, then hand each scheduled
    /// frame to its session: the window records its strips, the session
    /// its latency.
    fn deliver(&mut self, scheduled: &[usize], store: &Store, needed: &BTreeSet<(u64, u32)>) {
        for &at in needed {
            let info = vswap::mirrored_info(self.strip_info(at.1));
            if let Some(h) = self.cache.insert(self.key(at), info, store[&at]) {
                self.window.released.push(h);
            }
        }
        let strips = self.bounds.len() as u32;
        for &ai in scheduled {
            let s = &mut self.active[ai];
            let pose = s.pose();
            self.window.frames.push(Frame {
                session: s.id,
                strips: (0..strips).map(|si| store[&(pose, si)]).collect(),
            });
            self.latencies.push(self.vtime - s.ready_vtime);
            s.ready_vtime = self.vtime;
            s.next_frame += 1;
            self.per_tenant[s.tenant as usize].frames_completed += 1;
        }
    }

    /// Phase 7: retire the completed sessions into the ledger.
    fn retire(&mut self) {
        for s in self.active.extract_if(.., |s| s.done()) {
            let ti = s.tenant as usize;
            self.tenant_active[ti] -= 1;
            self.per_tenant[ti].completed_sessions += 1;
            self.finished.push(SessionFilm {
                id: s.id,
                tenant: s.tenant,
                start_pose: s.start_pose,
                checksums: s.checksums,
                film: s.film,
            });
        }
    }

    /// Phases 8–10, the window's data plane: render every planned job,
    /// hash every frame and hand the checksums to their sessions, then
    /// free the strips the cache let go of.
    fn run_window(&mut self) {
        if self.window.frames.is_empty() {
            return;
        }
        let next = Window {
            retired_from: self.finished.len(),
            ..Window::default()
        };
        let w = std::mem::replace(&mut self.window, next);
        let rendered = burst(self.host_threads, w.jobs.len(), |j| self.render(&w.jobs[j]));
        for (h, strip) in rendered.into_iter().flatten() {
            self.strips.fill(h, strip);
        }

        // Each frame is read in place, its strips in row order.
        let strips = &self.strips;
        let rows = |f: &Frame| Image::tiled(f.strips.iter().map(|&h| strips.get(h)));
        let groups: Vec<&[Frame]> = w.frames.chunks(HASH_LANES).collect();
        let threads = self.host_threads.min(groups.len() / HASH_GROUPS_PER_THREAD);
        let sums = burst(threads, groups.len(), |g| {
            frame_checksums(&groups[g].iter().map(rows).collect::<Vec<_>>())
        });
        // A session may have retired since its frame was planned.
        let mut sessions: BTreeMap<u32, (&mut Vec<u64>, &mut Vec<Image>)> = self
            .active
            .iter_mut()
            .map(|s| (s.id, (&mut s.checksums, &mut s.film)))
            .chain(
                self.finished[w.retired_from..]
                    .iter_mut()
                    .map(|f| (f.id, (&mut f.checksums, &mut f.film))),
            )
            .collect();
        for (frame, sum) in w.frames.iter().zip(sums.into_iter().flatten()) {
            let (checksums, film) = sessions.get_mut(&frame.session).expect("frame's session");
            checksums.push(sum);
            if self.cfg.keep_films {
                film.push(Image::vstack(&rows(frame)));
            }
        }
        for h in w.released {
            self.strips.free(h);
        }
    }

    /// Render one job and filter the strips it fills, each returned with
    /// its handle and its placement in the assembled frame.
    fn render(&self, job: &Job) -> Vec<(StripId, (StripInfo, Image))> {
        let run = &self.cfg.run;
        let cam = self.walk.camera(job.pose);
        let raw = match job.strip {
            Some(si) => {
                let info = self.strip_info(si);
                let (img, _) =
                    self.renderer
                        .render_strip(&cam, run.width, run.height, info.y0, info.height);
                vec![(info, img)]
            }
            None => {
                let (img, _) = self.renderer.render_full(&cam, run.width, run.height);
                img.split_strips(run.pipelines)
            }
        };
        // A split's strips the cache had are dropped unfiltered.
        let kept = raw
            .into_iter()
            .filter_map(|(info, img)| Some((job.into[info.index as usize]?, (info, img))));
        kept.map(|(h, (info, mut img))| {
            let ctx = FrameCtx {
                frame_id: job.pose,
                run_seed: run.seed,
                strip: info,
                full_width: run.width,
            };
            for f in &self.chain {
                f.apply_vectored(&mut img, &ctx, self.backend, 1);
            }
            (h, (vswap::mirrored_info(info), img))
        })
        .collect()
    }

    /// Balance the ledger, fold the film fingerprint and report.
    fn report(mut self) -> ServeOutcome {
        let run = &self.cfg.run;
        self.finished.sort_by_key(|f| f.id);
        let admitted = self.cfg.offered_sessions();
        let completed = self.finished.len() as u64;
        let shed = self.shed_events.len() as u64;
        let violations = scc_core::check_session_ledger(admitted, completed, shed);
        if run.verify {
            scc_core::enforce(run, &violations);
        }
        let sums = self.finished.iter().flat_map(|f| &f.checksums);
        let film_hash = sums.fold(FNV_OFFSET, |h, &c| (h ^ c).wrapping_mul(FNV_PRIME));
        let virtual_secs = self.vtime.max(f64::MIN_POSITIVE);
        let frames_served = self.per_tenant.iter().map(|t| t.frames_completed).sum();
        let report = ServeReport {
            admitted,
            completed,
            shed,
            shed_events: self.shed_events,
            frames_served,
            unique_renders: self.unique_renders,
            rounds: self.round,
            contended_rounds: self.contended_rounds,
            contended_frames_total: self.per_tenant.iter().map(|t| t.contended_frames).sum(),
            cache: self.cache.stats,
            per_tenant: self.per_tenant,
            virtual_secs,
            sessions_per_sec: completed as f64 / virtual_secs,
            frames_per_sec: frames_served as f64 / virtual_secs,
            latency: LatencyStats::from_samples(&mut self.latencies),
            film_hash,
        };
        let sink = TelemetrySink::from_enabled(run.telemetry);
        record_telemetry(&sink, &report, &self.latencies);
        ServeOutcome {
            snapshot: sink.snapshot(),
            report,
            films: self.finished,
        }
    }
}

/// Frames hashed side by side: one FNV-1a chain is a serial multiply per
/// byte, and this many independent chains keep the core busy instead.
const HASH_LANES: usize = 4;

/// Groups of [`HASH_LANES`] frames a hash thread takes at least: a smaller
/// share hashes in less time than a thread takes to spawn, so a window of
/// one round's few frames is hashed on the calling thread alone.
const HASH_GROUPS_PER_THREAD: usize = 4;

/// The FNV-1a of each frame, every frame given as its strips in row
/// order. Groups of [`HASH_LANES`] frames are hashed together; every
/// frame of a round has one geometry, so lane `k`'s strip `s` is as long
/// as every other lane's (`fnv1a_fold_lanes` asserts it).
fn frame_checksums(frames: &[Vec<&Image>]) -> Vec<u64> {
    let groups = frames.chunks_exact(HASH_LANES);
    let rest = groups.remainder().iter().map(|rows| {
        rows.iter()
            .fold(FNV_OFFSET, |h, img| fnv1a_fold(h, img.as_bytes()))
    });
    groups
        .flat_map(|group| {
            (0..group[0].len()).fold([FNV_OFFSET; HASH_LANES], |h, s| {
                fnv1a_fold_lanes(h, std::array::from_fn(|k| group[k][s].as_bytes()))
            })
        })
        .chain(rest)
        .collect()
}

/// Serve against the facade's default city scene.
pub fn serve_default(cfg: &ServeConfig) -> ServeOutcome {
    serve(cfg, &scc_core::default_scene())
}

fn record_telemetry(sink: &TelemetrySink, r: &ServeReport, lat: &[f64]) {
    if !sink.is_enabled() {
        return;
    }
    sink.count(names::SERVE_SESSIONS_ADMITTED_TOTAL, &[], r.admitted);
    sink.count(names::SERVE_SESSIONS_COMPLETED_TOTAL, &[], r.completed);
    for reason in [ShedReason::TenantQueueFull, ShedReason::SessionCap] {
        let n = r.shed_events.iter().filter(|e| e.reason == reason).count() as u64;
        if n > 0 {
            let labels = [("reason", reason.name())];
            sink.count(names::SERVE_SESSIONS_SHED_TOTAL, &labels, n);
        }
    }
    sink.count(names::SERVE_FRAMES_TOTAL, &[], r.frames_served);
    sink.count(names::SERVE_CACHE_HITS_TOTAL, &[], r.cache.hits);
    sink.count(names::SERVE_CACHE_MISSES_TOTAL, &[], r.cache.misses);
    sink.count(names::SERVE_CACHE_EVICTIONS_TOTAL, &[], r.cache.evictions);
    sink.gauge(names::SERVE_CACHE_HIT_RATIO, &[], r.cache.hit_ratio());
    for t in &r.per_tenant {
        let (labels, depth) = ([("tenant", t.name.as_str())], t.max_queue_depth as f64);
        sink.gauge(names::SERVE_TENANT_QUEUE_DEPTH, &labels, depth);
    }
    for &v in lat {
        sink.observe(names::SERVE_FRAME_LATENCY_SECONDS, &[], SECONDS_BUCKETS, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TenantSpec;
    use scc_core::RunConfig;
    use scc_filters::fnv1a;
    use scc_render::CityConfig;

    fn tiny_scene() -> Arc<Scene> {
        Arc::new(Scene::city(CityConfig {
            side: 4,
            spacing: 8.0,
            seed: 3,
        }))
    }

    fn tiny_cfg() -> ServeConfig {
        ServeConfig {
            run: RunConfig {
                pipelines: 2,
                width: 32,
                height: 24,
                frames: 1,
                seed: 11,
                verify: true,
                ..RunConfig::default()
            },
            tenants: vec![TenantSpec::new("a", 2, 4, 3), TenantSpec::new("b", 1, 2, 3)],
            shards: 2,
            pool: 2,
            cache_capacity: 32,
            cache_buckets: 16,
            queue_depth: 4,
            max_sessions: 8,
            batch_frames: 3,
            pose_span: 3,
            arrival_burst: 2,
            seed: 99,
            keep_films: false,
        }
    }

    #[test]
    fn serve_is_deterministic() {
        let scene = tiny_scene();
        let a = serve(&tiny_cfg(), &scene);
        let b = serve(&tiny_cfg(), &scene);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn ledger_balances_and_all_frames_serve() {
        let cfg = tiny_cfg();
        let out = serve(&cfg, &tiny_scene());
        let r = &out.report;
        assert_eq!(r.admitted, 6);
        assert_eq!(r.completed + r.shed, r.admitted);
        assert_eq!(r.frames_served, r.completed * 3);
        assert!(r.virtual_secs > 0.0);
        assert!(r.sessions_per_sec > 0.0);
        assert_eq!(r.latency.count, r.frames_served);
        assert!(r.latency.p50 <= r.latency.p99 && r.latency.p99 <= r.latency.max);
    }

    #[test]
    fn overlap_produces_cache_hits_and_fewer_renders() {
        let mut cfg = tiny_cfg();
        cfg.pose_span = 1; // all sessions share every pose
        let out = serve(&cfg, &tiny_scene());
        assert!(out.report.cache.hits > 0, "full overlap must hit");
        // 6 sessions × 3 frames = 18 frames but only 3 distinct poses.
        assert!(out.report.unique_renders <= 3 * cfg.run.pipelines as u64);
    }

    #[test]
    fn cache_off_is_byte_identical() {
        let scene = tiny_scene();
        let on = serve(&tiny_cfg(), &scene);
        let mut cfg = tiny_cfg();
        cfg.cache_capacity = 0;
        let off = serve(&cfg, &scene);
        assert_eq!(on.report.film_hash, off.report.film_hash);
        assert_eq!(off.report.cache.hits, 0);
    }

    #[test]
    fn overload_sheds_deterministically_and_never_silently() {
        let mut cfg = tiny_cfg();
        cfg.queue_depth = 1;
        cfg.max_sessions = 2;
        let a = serve(&cfg, &tiny_scene());
        let b = serve(&cfg, &tiny_scene());
        assert!(!a.report.shed_events.is_empty(), "overload must shed");
        assert_eq!(a.report.shed_events, b.report.shed_events);
        assert_eq!(
            a.report.completed + a.report.shed,
            a.report.admitted,
            "sheds are ledgered, never silent"
        );
    }

    #[test]
    fn telemetry_snapshot_present_when_enabled() {
        let mut cfg = tiny_cfg();
        cfg.run.telemetry = true;
        let out = serve(&cfg, &tiny_scene());
        let snap = out.snapshot.expect("telemetry snapshot");
        let admitted = snap
            .counters
            .iter()
            .find(|c| c.name == names::SERVE_SESSIONS_ADMITTED_TOTAL)
            .expect("admitted counter");
        assert_eq!(admitted.value, out.report.admitted);
    }

    /// The `serving-smoke` golden's config with telemetry on: every
    /// series' name, labels and value. Floats print in Rust's shortest
    /// round-trip form, so the text pins their bits.
    #[test]
    fn serving_smoke_telemetry_snapshot_is_pinned() {
        let run = RunConfig::builder()
            .pipelines(2)
            .size(48, 32)
            .frames(4)
            .seed(11)
            .fidelity(scc_core::spec::Fidelity::Full)
            .verify(true)
            .telemetry(true)
            .build()
            .expect("valid config");
        let cfg = ServeConfig {
            run,
            tenants: vec![
                TenantSpec::new("gold", 3, 8, 3),
                TenantSpec::new("bronze", 1, 8, 3),
            ],
            shards: 2,
            pool: 2,
            cache_capacity: 32,
            cache_buckets: 16,
            queue_depth: 4,
            max_sessions: 10,
            batch_frames: 3,
            pose_span: 4,
            arrival_burst: 6,
            seed: 0x05EC_5E55,
            keep_films: false,
        };
        let scene = Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 3,
        }));
        let snap = serve(&cfg, &scene).snapshot.expect("telemetry on");
        let mut got = String::new();
        for c in &snap.counters {
            got += &format!("counter {} {:?} {}\n", c.name, c.labels, c.value);
        }
        for g in &snap.gauges {
            got += &format!("gauge {} {:?} {:?}\n", g.name, g.labels, g.value);
        }
        for h in &snap.histograms {
            got += &format!(
                "histogram {} {:?} {:?} {:?} {} {:?}\n",
                h.name, h.labels, h.bounds, h.bucket_counts, h.count, h.sum
            );
        }
        assert!(snap.events.is_empty());
        let want = r#"counter scc_serve_cache_evictions_total [] 0
counter scc_serve_cache_hits_total [] 18
counter scc_serve_cache_misses_total [] 12
counter scc_serve_frames_total [] 24
counter scc_serve_sessions_admitted_total [] 16
counter scc_serve_sessions_completed_total [] 8
counter scc_serve_sessions_shed_total [("reason", "tenant-queue-full")] 8
gauge scc_serve_cache_hit_ratio [] 0.6
gauge scc_serve_tenant_queue_depth [("tenant", "bronze")] 4.0
gauge scc_serve_tenant_queue_depth [("tenant", "gold")] 4.0
histogram scc_serve_frame_latency_seconds [] [0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0] [4, 0, 0, 0, 8, 10, 2, 0, 0, 0, 0, 0, 0, 0, 0] 24 0.314978
"#;
        assert_eq!(got, want);
    }

    #[test]
    fn hostile_pool_width_serves_like_any_pool_wider_than_its_busiest_round() {
        // A round of the tiny config charges at most 2 shards × 3 frames
        // × 2 strips = 12 items, so every pool from there up is the same
        // run; `u32::MAX` instances must not be 32 GiB of ledger a round.
        let scene = tiny_scene();
        let serve_with_pool = |pool: u32| {
            let mut cfg = tiny_cfg();
            cfg.pool = pool;
            serve(&cfg, &scene)
        };
        let (wide, hostile) = (serve_with_pool(12), serve_with_pool(u32::MAX));
        assert_eq!(hostile.report, wide.report);
        let sums = |o: &ServeOutcome| -> Vec<Vec<u64>> {
            o.films.iter().map(|f| f.checksums.clone()).collect()
        };
        assert_eq!(sums(&hostile), sums(&wide));
    }

    #[test]
    fn strips_held_stay_within_the_cache_and_the_open_window() {
        // Capacity 2 thrashes: windows of a round or two, strips evicted
        // while their window's frames still read them. Capacity 256 plans
        // the whole run as one window. Strips held peak once a window is
        // planned, its handles reserved: at most the cache's plus the
        // window's. Once the window has run, exactly the cache's.
        let scene = tiny_scene();
        for capacity in [2u32, 256] {
            let mut cfg = tiny_cfg();
            cfg.cache_capacity = capacity;
            let mut engine = Engine::new(&cfg, &scene);
            let mut windows = 0;
            loop {
                let more = engine.plan_window();
                let (held, planned) = (engine.strips.held(), engine.window.planned);
                assert!(
                    held <= capacity as usize + planned,
                    "cap {capacity} window {windows}: {held} strips held, {planned} planned"
                );
                engine.run_window();
                assert_eq!(engine.strips.held(), engine.cache.len(), "cap {capacity}");
                windows += 1;
                if !more {
                    break;
                }
            }
            let report = engine.report().report;
            assert_eq!(report, serve(&cfg, &scene).report, "cap {capacity}");
            if capacity == 2 {
                assert!(
                    windows > 2 && report.cache.evictions > 0,
                    "{windows} windows"
                );
            } else {
                assert_eq!(windows, 1);
            }
        }
    }

    #[test]
    fn frame_checksums_are_each_frames_fnv1a_at_any_frame_count() {
        // Three strips of 5, 4 and 4 rows; 0..=9 frames leave every
        // remainder after the groups of four.
        let frames: Vec<Image> = (0..9u8)
            .map(|f| Image::from_raw(3, 13, (0..156).map(|i| i ^ f.wrapping_mul(37)).collect()))
            .collect();
        let strips: Vec<Vec<(StripInfo, Image)>> =
            frames.iter().map(|f| f.split_strips(3)).collect();
        for n in 0..=frames.len() {
            let rows: Vec<Vec<&Image>> = strips[..n].iter().map(Image::tiled).collect();
            let want: Vec<u64> = frames[..n].iter().map(|f| fnv1a(f.as_bytes())).collect();
            assert_eq!(frame_checksums(&rows), want, "{n} frames");
        }
    }

    #[test]
    fn wfq_allocation_is_weight_proportional_and_capped() {
        assert_eq!(wfq_allocate(6, &[10, 10], &[2, 1]), vec![4, 2]);
        assert_eq!(wfq_allocate(6, &[1, 10], &[2, 1]), vec![1, 5]);
        assert_eq!(wfq_allocate(0, &[5, 5], &[1, 1]), vec![0, 0]);
        assert_eq!(wfq_allocate(10, &[2, 1], &[1, 1]), vec![2, 1]);
        // Deterministic tie-break toward the lower index.
        assert_eq!(wfq_allocate(1, &[5, 5], &[1, 1]), vec![1, 0]);
    }
}
