//! The round-based serving engine.
//!
//! All *observable decisions* — admission, shedding, weighted-fair slot
//! allocation, cache hits/misses/evictions, the session ledger, frame
//! latencies — are made by a deterministic virtual-time control loop, so
//! two runs of one config agree bit-for-bit. Pixel production inside a
//! round — rendering and filtering the missing strips, assembling and
//! checksumming the scheduled frames — fans out over host threads through
//! `burst` (the `Renderer` is `&self`-only over `Arc`s), which hands the
//! results back in job order; every decision is then taken on the control
//! thread in that order, so the host's thread count never shows in a
//! report or a film (DESIGN.md §17, "Host execution of a round").
//!
//! One round:
//!  1. **admit** this round's arrivals (per-tenant queue bound, global
//!     session cap; refusals are recorded [`ShedEvent`]s — never silent);
//!  2. **allocate** `batch_frames` slots per shard across tenants by
//!     largest-remainder weighted fair queuing, round-robin within a
//!     tenant;
//!  3. **resolve** each scheduled frame's strips against the
//!     content-addressed cache; misses become render jobs, de-duplicated
//!     across sessions (two viewers at one pose render once);
//!  4. **render** the job burst, charge each of the `pool` instances
//!     virtual cycles from the shared [`CostModel`], and advance virtual
//!     time by the slowest instance;
//!  5. **deliver**: insert new strips (LRU-bounded), assemble frames,
//!     record ready→delivered latency, retire finished sessions into the
//!     ledger.

use crate::cache::{fnv1a, CacheStats, StripCache, StripKey, FNV_PRIME};
use crate::config::{generate_sessions, ServeConfig};
use crate::session::{ActiveSession, SessionFilm, ShedEvent, ShedReason};
use scc_core::cost::cycles_to_secs;
use scc_core::spec::RendererMode;
use scc_core::CostModel;
use scc_filters::{standard_chain, FrameCtx, Image, StripInfo};
use scc_render::{Renderer, Scene, Walkthrough};
use scc_telemetry::{names, TelemetrySink, SECONDS_BUCKETS};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
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
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
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
#[derive(Debug, Clone, PartialEq)]
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

fn mode_tag(mode: RendererMode) -> u8 {
    match mode {
        RendererMode::SingleRenderer => 0,
        RendererMode::PerPipelineRenderer => 1,
        RendererMode::McpcRenderer => 2,
    }
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
        let mut base = 0u64;
        let mut shares: Vec<(usize, u64, u64)> = hungry
            .iter()
            .map(|&i| {
                let num = left * weights[i] as u64;
                let q = num / w_total;
                let r = num % w_total;
                base += q;
                (i, q, r)
            })
            .collect();
        let mut extra = left - base;
        // Largest remainder first; ties toward the lower tenant index.
        shares.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        for s in shares.iter_mut() {
            if extra == 0 {
                break;
            }
            s.1 += 1;
            extra -= 1;
        }
        let mut granted_any = false;
        for &(i, q, _) in &shares {
            let grant = q.min(pending[i] - alloc[i]);
            if grant > 0 {
                granted_any = true;
            }
            alloc[i] += grant;
            left -= grant;
        }
        if !granted_any {
            break;
        }
    }
    alloc
}

/// `f(0), f(1), .., f(n - 1)`, in index order, computed on up to `threads`
/// host threads of which the calling thread is one. Jobs are claimed from
/// a shared counter, so a thread that draws a cheap job takes the next
/// one rather than idling behind a static deal. A panic in a job is
/// re-raised on the caller once the other threads have run out of jobs.
fn burst<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // Relaxed: the counter only deals out indices. The results reach the
    // caller through `join`, which is the synchronisation.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let helpers = threads.min(n).saturating_sub(1);
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in handles {
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        done
    });
    debug_assert_eq!(done.len(), n, "burst: every index is claimed exactly once");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
}

/// Serve the configured workload against `scene`.
///
/// Panics on an invalid config, and — via the core invariant machinery —
/// if the session ledger fails to balance while `cfg.run.verify` is set.
pub fn serve(cfg: &ServeConfig, scene: &Arc<Scene>) -> ServeOutcome {
    if let Err(e) = cfg.validate() {
        panic!("serve: invalid config: {e}");
    }
    let run = &cfg.run;
    let per_strip_mode = run.renderer == RendererMode::PerPipelineRenderer;
    let tag = mode_tag(run.renderer);
    let renderer = Renderer::new(scene.clone());
    let walk = Walkthrough::standard(run.width as f32 / run.height as f32);
    let chain = standard_chain();
    let backend = run.tuning.kernel.resolve();
    let bounds = Image::strip_bounds(run.height, run.pipelines);
    let model = CostModel::default();
    // A burst wider than the host only queues threads behind each other:
    // `pool` is how many modelled instances the round is charged over,
    // the host decides how many threads can actually run.
    let host_threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(cfg.pool as usize);
    let mut cache = StripCache::new(cfg.cache_capacity, cfg.cache_buckets);

    let arrivals = generate_sessions(cfg);
    let mut next_arrival = 0usize;
    let mut active: Vec<ActiveSession> = Vec::new();
    let mut finished: Vec<SessionFilm> = Vec::new();
    let mut shed_events: Vec<ShedEvent> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();

    let nt = cfg.tenants.len();
    let mut tenant_active = vec![0u64; nt];
    let mut tenant_shed = vec![0u64; nt];
    let mut tenant_completed_sessions = vec![0u64; nt];
    let mut tenant_frames = vec![0u64; nt];
    let mut tenant_contended = vec![0u64; nt];
    let mut tenant_max_depth = vec![0u64; nt];
    let weights: Vec<u32> = cfg.tenants.iter().map(|t| t.weight).collect();

    let mut vtime = 0.0f64;
    let mut round = 0u64;
    let mut contended_rounds = 0u64;
    let mut contended_total = 0u64;
    let mut frames_served = 0u64;
    let mut unique_renders = 0u64;

    loop {
        // ---- 1. admissions --------------------------------------------
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrive_round <= round {
            let spec = arrivals[next_arrival];
            next_arrival += 1;
            let ti = spec.tenant as usize;
            let reason = if tenant_active[ti] >= cfg.queue_depth as u64 {
                Some(ShedReason::TenantQueueFull)
            } else if active.len() as u64 >= cfg.max_sessions as u64 {
                Some(ShedReason::SessionCap)
            } else {
                None
            };
            match reason {
                Some(reason) => {
                    tenant_shed[ti] += 1;
                    shed_events.push(ShedEvent {
                        round,
                        session: spec.id,
                        tenant: spec.tenant,
                        reason,
                    });
                }
                None => {
                    tenant_active[ti] += 1;
                    tenant_max_depth[ti] = tenant_max_depth[ti].max(tenant_active[ti]);
                    active.push(ActiveSession {
                        id: spec.id,
                        tenant: spec.tenant,
                        shard: spec.id % cfg.shards,
                        start_pose: spec.start_pose,
                        frames: spec.frames,
                        next_frame: 0,
                        ready_vtime: vtime,
                        checksums: Vec::with_capacity(spec.frames as usize),
                        film: Vec::new(),
                    });
                }
            }
        }
        if active.is_empty() {
            if next_arrival >= arrivals.len() {
                break;
            }
            // Idle gap before the next arrival burst.
            vtime += ROUND_OVERHEAD_SECS;
            round += 1;
            continue;
        }

        // ---- 2. weighted-fair slot allocation per shard ---------------
        // `scheduled` holds indices into `active`, in dispatch order.
        let mut scheduled: Vec<usize> = Vec::new();
        for shard in 0..cfg.shards {
            // Tenant backlogs on this shard: one schedulable frame per
            // active session (frames within a session are in-order).
            let mut pending = vec![0u64; nt];
            for s in active.iter() {
                if s.shard == shard {
                    pending[s.tenant as usize] += 1;
                }
            }
            let slots = cfg.batch_frames as u64;
            if pending.iter().sum::<u64>() == 0 {
                continue;
            }
            let contended = pending.iter().all(|&p| p >= slots);
            if contended {
                contended_rounds += 1;
            }
            let alloc = wfq_allocate(slots, &pending, &weights);
            for (ti, &take) in alloc.iter().enumerate() {
                if take == 0 {
                    continue;
                }
                // Sessions of this tenant on this shard, id order, with a
                // round-rotating start so no session camps on the slots.
                let mut members: Vec<usize> = active
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.shard == shard && s.tenant as usize == ti)
                    .map(|(i, _)| i)
                    .collect();
                members.sort_by_key(|&i| active[i].id);
                let rot = (round as usize) % members.len();
                members.rotate_left(rot);
                for &ai in members.iter().take(take as usize) {
                    scheduled.push(ai);
                    if contended {
                        tenant_contended[ti] += 1;
                        contended_total += 1;
                    }
                }
            }
        }

        // ---- 3. cache resolution + cross-session de-duplication ------
        // Round-local strip store: (pose, strip) → filtered strip.
        let mut store: BTreeMap<(u64, u32), (StripInfo, Image)> = BTreeMap::new();
        let mut needed: BTreeSet<(u64, u32)> = BTreeSet::new();
        let mut hit_count_this_round = 0u64;
        for &ai in &scheduled {
            let pose = active[ai].pose();
            for (si, _) in bounds.iter().enumerate() {
                let si = si as u32;
                if store.contains_key(&(pose, si)) || needed.contains(&(pose, si)) {
                    continue;
                }
                let key = StripKey {
                    mode: tag,
                    width: run.width,
                    height: run.height,
                    pipelines: run.pipelines,
                    run_seed: run.seed,
                    pose,
                    strip: si,
                };
                match cache.get(&key) {
                    Some((info, img)) => {
                        hit_count_this_round += 1;
                        store.insert((pose, si), (info, img));
                    }
                    None => {
                        needed.insert((pose, si));
                    }
                }
            }
        }
        // Job list: per-strip mode renders exactly the missing strips;
        // the full-frame modes render each missing pose once and split.
        let jobs: Vec<(u64, Option<u32>)> = if per_strip_mode {
            needed.iter().map(|&(p, s)| (p, Some(s))).collect()
        } else {
            let poses: BTreeSet<u64> = needed.iter().map(|&(p, _)| p).collect();
            poses.into_iter().map(|p| (p, None)).collect()
        };
        unique_renders += jobs.len() as u64;

        // ---- 4. render burst (parallel, results in job order) ---------
        let outputs = burst(host_threads, jobs.len(), |j| {
            let (pose, strip) = jobs[j];
            let cam = walk.camera(pose);
            let raw: Vec<(StripInfo, Image)> = match strip {
                Some(si) => {
                    let (y0, h) = bounds[si as usize];
                    let (img, _) = renderer.render_strip(&cam, run.width, run.height, y0, h);
                    let info = StripInfo {
                        index: si,
                        count: bounds.len() as u32,
                        y0,
                        height: h,
                        full_height: run.height,
                    };
                    vec![(info, img)]
                }
                None => {
                    let (img, _) = renderer.render_full(&cam, run.width, run.height);
                    img.split_strips(run.pipelines)
                }
            };
            raw.into_iter()
                .map(|(info, mut img)| {
                    let ctx = FrameCtx {
                        frame_id: pose,
                        run_seed: run.seed,
                        strip: info,
                        full_width: run.width,
                    };
                    for f in &chain {
                        f.apply_vectored(&mut img, &ctx, backend, 1);
                    }
                    (info.index, scc_filters::vswap::mirrored_info(info), img)
                })
                .collect::<Vec<(u32, StripInfo, Image)>>()
        });

        // ---- virtual-time charging ------------------------------------
        // Jobs, hits and frames are each dealt round-robin over the pool
        // and the round takes the busiest instance, so instances past the
        // longest of the three lists would only ever hold zeros.
        let charged = (jobs.len() as u64)
            .max(hit_count_this_round)
            .max(scheduled.len() as u64);
        let mut busy = vec![0.0f64; charged.min(cfg.pool as u64) as usize];
        for (j, strips) in outputs.iter().enumerate() {
            let (pose, strip) = jobs[j];
            let render_cycles = match strip {
                Some(si) => {
                    let (_, h) = bounds[si as usize];
                    model.render_base_cycles
                        + model.render_strip_adjust_cycles
                        + model.render_fill_cycles
                            * model.nrend_fill_multiplier
                            * (run.width as f64 * h as f64)
                }
                None => {
                    model.render_base_cycles
                        + model.render_fill_cycles * (run.width as f64 * run.height as f64)
                        + model.split_cycles(run.width as u64 * run.height as u64, run.pipelines)
                }
            };
            let render_secs = if run.renderer == RendererMode::McpcRenderer {
                model.mcpc_render_seconds(render_cycles)
            } else {
                cycles_to_secs(render_cycles, P54C_HZ)
            };
            let mut filter_cycles = 0.0;
            for (_, info, _) in strips {
                let ctx = FrameCtx {
                    frame_id: pose,
                    run_seed: run.seed,
                    strip: *info,
                    full_width: run.width,
                };
                for f in &chain {
                    filter_cycles += model.filter_cycles(f.as_ref(), &ctx);
                }
            }
            busy[j % cfg.pool as usize] += render_secs + cycles_to_secs(filter_cycles, P54C_HZ);
        }
        // Cache hits cost one strip transfer each; delivered frames cost
        // one assemble each. Both are charged round-robin over the pool.
        let strip_px = run.width as u64 * (run.height as u64 / run.pipelines as u64).max(1);
        for h in 0..hit_count_this_round {
            busy[(h % cfg.pool as u64) as usize] +=
                cycles_to_secs(model.assemble_cycles(strip_px), P54C_HZ);
        }
        for (i, _) in scheduled.iter().enumerate() {
            busy[i % cfg.pool as usize] += cycles_to_secs(
                model.assemble_cycles(run.width as u64 * run.height as u64),
                P54C_HZ,
            );
        }
        let round_secs = busy.iter().cloned().fold(0.0f64, f64::max) + ROUND_OVERHEAD_SECS;
        vtime += round_secs;

        // ---- 5. delivery ----------------------------------------------
        for (&(pose, _), strips) in jobs.iter().zip(outputs) {
            for (si, info, img) in strips {
                // Only strips a session asked for enter the cache; the
                // split of a full frame also yields strips nobody missed.
                if needed.contains(&(pose, si)) {
                    cache.insert(
                        StripKey {
                            mode: tag,
                            width: run.width,
                            height: run.height,
                            pipelines: run.pipelines,
                            run_seed: run.seed,
                            pose,
                            strip: si,
                        },
                        info,
                        img.clone(),
                    );
                }
                store.entry((pose, si)).or_insert((info, img));
            }
        }
        // A frame's bytes depend only on the round's strip store, so the
        // frames assemble and checksum side by side; the ledger below
        // takes them in dispatch order.
        let frames = burst(host_threads, scheduled.len(), |i| {
            let pose = active[scheduled[i]].pose();
            let strips: Vec<(StripInfo, Image)> = (0..bounds.len() as u32)
                .map(|si| store.get(&(pose, si)).expect("strip resolved").clone())
                .collect();
            let frame = Image::assemble(&strips);
            (fnv1a(frame.as_bytes()), cfg.keep_films.then_some(frame))
        });
        for (&ai, (checksum, frame)) in scheduled.iter().zip(frames) {
            let s = &mut active[ai];
            s.checksums.push(checksum);
            s.film.extend(frame);
            latencies.push(vtime - s.ready_vtime);
            s.ready_vtime = vtime;
            s.next_frame += 1;
            tenant_frames[s.tenant as usize] += 1;
            frames_served += 1;
        }
        // Retire completed sessions into the ledger.
        let mut i = 0;
        while i < active.len() {
            if active[i].done() {
                let s = active.remove(i);
                let ti = s.tenant as usize;
                tenant_active[ti] -= 1;
                tenant_completed_sessions[ti] += 1;
                finished.push(SessionFilm {
                    id: s.id,
                    tenant: s.tenant,
                    start_pose: s.start_pose,
                    checksums: s.checksums,
                    film: s.film,
                });
            } else {
                i += 1;
            }
        }

        round += 1;
        assert!(round < MAX_ROUNDS, "serve: round livelock (config bug)");
    }

    finished.sort_by_key(|f| f.id);

    // ---- ledger + report ---------------------------------------------
    let admitted = arrivals.len() as u64;
    let completed = finished.len() as u64;
    let shed = shed_events.len() as u64;
    let violations = scc_core::check_session_ledger(admitted, completed, shed);
    if run.verify {
        scc_core::enforce(run, &violations);
    }

    let mut film_hash = crate::cache::FNV_OFFSET;
    for f in &finished {
        for &c in &f.checksums {
            film_hash ^= c;
            film_hash = film_hash.wrapping_mul(FNV_PRIME);
        }
    }

    let virtual_secs = vtime.max(f64::MIN_POSITIVE);
    let latency = LatencyStats::from_samples(&mut latencies);
    let per_tenant: Vec<TenantReport> = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(ti, t)| TenantReport {
            name: t.name.clone(),
            weight: t.weight,
            offered: t.sessions as u64,
            shed: tenant_shed[ti],
            completed_sessions: tenant_completed_sessions[ti],
            frames_completed: tenant_frames[ti],
            contended_frames: tenant_contended[ti],
            max_queue_depth: tenant_max_depth[ti],
        })
        .collect();

    let report = ServeReport {
        admitted,
        completed,
        shed,
        shed_events,
        frames_served,
        unique_renders,
        rounds: round,
        contended_rounds,
        contended_frames_total: contended_total,
        cache: cache.stats,
        per_tenant,
        virtual_secs,
        sessions_per_sec: completed as f64 / virtual_secs,
        frames_per_sec: frames_served as f64 / virtual_secs,
        latency,
        film_hash,
    };

    let sink = TelemetrySink::from_enabled(run.telemetry);
    record_telemetry(&sink, cfg, &report, &latencies);
    ServeOutcome {
        snapshot: sink.snapshot(),
        report,
        films: finished,
    }
}

/// Serve against the facade's default city scene.
pub fn serve_default(cfg: &ServeConfig) -> ServeOutcome {
    serve(cfg, &scc_core::default_scene())
}

fn record_telemetry(sink: &TelemetrySink, cfg: &ServeConfig, r: &ServeReport, lat: &[f64]) {
    if !sink.is_enabled() {
        return;
    }
    sink.count(names::SERVE_SESSIONS_ADMITTED_TOTAL, &[], r.admitted);
    sink.count(names::SERVE_SESSIONS_COMPLETED_TOTAL, &[], r.completed);
    for reason in [ShedReason::TenantQueueFull, ShedReason::SessionCap] {
        let n = r.shed_events.iter().filter(|e| e.reason == reason).count() as u64;
        if n > 0 {
            sink.count(
                names::SERVE_SESSIONS_SHED_TOTAL,
                &[("reason", reason.name())],
                n,
            );
        }
    }
    sink.count(names::SERVE_FRAMES_TOTAL, &[], r.frames_served);
    sink.count(names::SERVE_CACHE_HITS_TOTAL, &[], r.cache.hits);
    sink.count(names::SERVE_CACHE_MISSES_TOTAL, &[], r.cache.misses);
    sink.count(names::SERVE_CACHE_EVICTIONS_TOTAL, &[], r.cache.evictions);
    sink.gauge(names::SERVE_CACHE_HIT_RATIO, &[], r.cache.hit_ratio());
    for (t, tr) in cfg.tenants.iter().zip(&r.per_tenant) {
        sink.gauge(
            names::SERVE_TENANT_QUEUE_DEPTH,
            &[("tenant", t.name.as_str())],
            tr.max_queue_depth as f64,
        );
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
    fn burst_runs_every_index_once_and_answers_in_index_order() {
        for threads in [1, 2, 5] {
            for n in [0, 1, 2, 9] {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = burst(threads, n, |i| {
                    calls[i].fetch_add(1, Ordering::SeqCst);
                    i * i
                });
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, want, "threads {threads} n {n}");
                assert!(
                    calls.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                    "threads {threads} n {n}: an index ran twice or not at all"
                );
            }
        }
    }

    #[test]
    fn burst_spawns_no_thread_it_has_no_job_for() {
        // `min(threads, n) − 1` helpers: none for an empty burst, and a
        // single job runs on the thread that asked.
        let me = std::thread::current().id();
        assert!(burst(5, 0, |_| std::thread::current().id()).is_empty());
        assert_eq!(burst(5, 1, |_| std::thread::current().id()), [me]);
    }

    /// Count this job in and wait until `n` jobs are inside the burst at
    /// once; false if they never are (a burst that ran them one after the
    /// other), so a regression fails instead of hanging.
    fn rendezvous(arrived: &AtomicUsize, n: usize) -> bool {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while arrived.load(Ordering::SeqCst) < n {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn burst_runs_jobs_side_by_side_with_the_caller_as_a_worker() {
        let me = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        let out = burst(2, 2, |_| {
            (rendezvous(&arrived, 2), std::thread::current().id() == me)
        });
        assert!(out.iter().all(|&(met, _)| met), "jobs never overlapped");
        assert_eq!(
            out.iter().filter(|&&(_, on_caller)| on_caller).count(),
            1,
            "the calling thread takes exactly one of two overlapping jobs"
        );
    }

    #[test]
    #[should_panic(expected = "job on a helper failed")]
    fn burst_reraises_a_helper_panic_on_the_caller() {
        let me = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        burst(2, 2, |_| {
            // Both threads hold a job before either decides.
            assert!(rendezvous(&arrived, 2));
            if std::thread::current().id() != me {
                panic!("job on a helper failed");
            }
        });
    }

    #[test]
    #[should_panic(expected = "job on the caller failed")]
    fn burst_lets_a_caller_panic_through_once_the_helpers_are_done() {
        let me = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        burst(2, 2, |_| {
            assert!(rendezvous(&arrived, 2));
            if std::thread::current().id() == me {
                panic!("job on the caller failed");
            }
        });
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
