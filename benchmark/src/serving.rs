//! The two serving workloads: `scc_serve::serve` as an open loop in
//! virtual time (`arrival_burst` sessions per tenant per round whatever
//! the backlog), deterministic for a seed. `serve_overlap` and
//! `serve_churn` are one config except for the pose span and the cache
//! size, so they sit on either side of the strip cache's hit path.

use crate::measure::{median, sample_for, timed, Measured, Seeds, SetupTimer};
use crate::span::Tracer;
use scc_core::{Fidelity, RunConfig};
use scc_filters::{Image, StripInfo};
use scc_render::{CityConfig, Renderer, Scene};
use scc_serve::{
    generate_sessions, serve, ServeConfig, ServeReport, StripCache, StripKey, TenantSpec,
};
use std::hint::black_box;
use std::sync::Arc;

/// One run is one throughput sample, and a sample has to be short for
/// some to fall between a noisy neighbour's bursts: at 64x64 the churn
/// run (one render per frame, 1024 frames) is ~1.1 s. Smaller frames buy
/// little more: the per-frame cost is by then triangle set-up, not pixels.
const SIDE: u32 = 64;
const PIPELINES: u32 = 2;
/// 96 + 32 sessions of 8 frames: 1024 frame latencies, so p99 has ten
/// samples beyond it.
const BULK_SESSIONS: u32 = 96;
const VIP_SESSIONS: u32 = 32;
const FRAMES_PER_SESSION: u32 = 8;

fn serve_cfg(churn: bool, seeds: &Seeds) -> ServeConfig {
    let run = RunConfig::builder()
        .pipelines(PIPELINES)
        .size(SIDE, SIDE)
        .seed(seeds.run)
        .fidelity(Fidelity::Full)
        .build()
        .expect("serve pipeline config is valid");
    let (pose_span, cache_capacity, cache_buckets) = if churn {
        (1_000_000, 16, 8)
    } else {
        (40, 256, 128)
    };
    ServeConfig {
        run,
        tenants: vec![
            TenantSpec::new("bulk", 1, BULK_SESSIONS, FRAMES_PER_SESSION),
            TenantSpec::new("vip", 3, VIP_SESSIONS, FRAMES_PER_SESSION),
        ],
        shards: 2,
        pool: 4,
        cache_capacity,
        cache_buckets,
        // Admission limits sit at the offered load: the workload is
        // chosen so that no session is refused, and a refusal counts as
        // a failed operation.
        queue_depth: BULK_SESSIONS,
        max_sessions: BULK_SESSIONS + VIP_SESSIONS,
        batch_frames: 4,
        pose_span,
        arrival_burst: VIP_SESSIONS,
        seed: seeds.serve,
        keep_films: false,
    }
}

/// Scene, octree, validated config and the generated arrival list.
fn build(churn: bool, seeds: &Seeds) -> (Arc<Scene>, ServeConfig) {
    let scene = Arc::new(Scene::city(CityConfig {
        seed: seeds.city,
        ..CityConfig::default()
    }));
    black_box(Renderer::new(scene.clone()));
    let cfg = serve_cfg(churn, seeds);
    cfg.validate().expect("serve config is valid");
    black_box(generate_sessions(&cfg));
    (scene, cfg)
}

fn sizes(cfg: &ServeConfig) -> Vec<(&'static str, u64)> {
    vec![
        ("width", cfg.run.width as u64),
        ("height", cfg.run.height as u64),
        ("pipelines", cfg.run.pipelines as u64),
        ("sessions", cfg.offered_sessions()),
        ("frames_per_session", FRAMES_PER_SESSION as u64),
        ("pose_span", cfg.pose_span),
        ("cache_strips", cfg.cache_capacity as u64),
    ]
}

/// Sessions attempted and failed in one run: a shed or unfinished
/// session is a failed operation; a ledger that does not balance is a
/// hard error.
fn check_ledger(m: &mut Measured, r: &ServeReport) {
    m.attempted += r.admitted;
    m.failed += r.admitted - r.completed;
    if r.completed + r.shed != r.admitted {
        m.problem(format!(
            "session ledger: completed {} + shed {} != admitted {}",
            r.completed, r.shed, r.admitted
        ));
    }
    if r.shed > 0 {
        m.problem(format!("{} of {} sessions shed", r.shed, r.admitted));
    }
}

pub fn untraced(churn: bool, seeds: &Seeds, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let (mut setup, (scene, cfg)) = SetupTimer::start(|| build(churn, seeds));
    m.sizes = sizes(&cfg);
    let mut reports: Vec<ServeReport> = Vec::new();
    let fps = sample_for(seconds, &mut setup, || {
        let (out, secs) = timed(|| serve(&cfg, &scene));
        reports.push(out.report);
        reports[reports.len() - 1].frames_served as f64 / secs
    });
    check_ledger(&mut m, &reports[0]);
    if let Some(i) = reports.iter().position(|r| *r != reports[0]) {
        m.problem(format!(
            "serve repeat {i} reports differently from the first"
        ));
    }
    m.end_to_end(fps, setup.samples);
    m
}

/// Median nanoseconds of `StripCache::get` (hit) and `insert` (with an
/// eviction once full) on strip-sized images, by direct calls.
fn cache_probe(cfg: &ServeConfig) -> (f64, f64) {
    let strip_h = cfg.run.height / cfg.run.pipelines;
    let info = StripInfo {
        index: 0,
        count: cfg.run.pipelines,
        y0: 0,
        height: strip_h,
        full_height: cfg.run.height,
    };
    let key = |pose: u64| StripKey {
        mode: 0,
        width: cfg.run.width,
        height: cfg.run.height,
        pipelines: cfg.run.pipelines,
        run_seed: cfg.run.seed,
        pose,
        strip: 0,
    };
    let mut cache = StripCache::new(cfg.cache_capacity, cfg.cache_buckets);
    let strip = Image::new(cfg.run.width, strip_h);
    let ops = 4 * cfg.cache_capacity.max(16) as u64;
    let insert_ns: Vec<f64> = (0..ops)
        .map(|pose| {
            let img = strip.clone();
            timed(|| cache.insert(key(pose), info, img)).1 * 1e9
        })
        .collect();
    // The most recent `capacity` poses are resident: every get hits.
    let get_ns: Vec<f64> = (ops - cfg.cache_capacity as u64..ops)
        .map(|pose| timed(|| black_box(cache.get(&key(pose)))).1 * 1e9)
        .collect();
    assert_eq!(
        cache.stats.hits, cfg.cache_capacity as u64,
        "probe gets all hit"
    );
    (median(&get_ns), median(&insert_ns))
}

pub fn traced(churn: bool, seeds: &Seeds, t: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let (scene, mut cfg) = build(churn, seeds);
    m.sizes = sizes(&cfg);
    // `verify` arms scc_core's session-ledger invariant inside the run.
    cfg.run.verify = true;
    let (out, host_s) = t.timed("serve.engine", 0, || serve(&cfg, &scene));
    check_ledger(&mut m, &out.report);

    // Cache transparency: the same schedule with the cache off must
    // deliver every session the same film.
    let cache_off = ServeConfig {
        cache_capacity: 0,
        ..cfg.clone()
    };
    let off = t.call("serve.engine.cache_off", 0, || serve(&cache_off, &scene));
    let differing = out
        .films
        .iter()
        .zip(&off.films)
        .filter(|(a, b)| a.id != b.id || a.checksums != b.checksums)
        .count()
        + out.films.len().abs_diff(off.films.len());
    if differing > 0 {
        m.failed += differing as u64;
        m.problem(format!(
            "{differing} session films differ with the cache off"
        ));
    }

    let r = &out.report;
    m.layer("serve.engine.host_s", host_s);
    m.layer(
        "serve.host_ms_per_frame",
        1e3 * host_s / r.frames_served as f64,
    );
    m.layer("serve.virtual_s", r.virtual_secs);
    m.layer("serve.sessions_per_virtual_s", r.sessions_per_sec);
    m.layer("serve.frame_latency_p50_ms", 1e3 * r.latency.p50);
    // p99 needs ten samples beyond it.
    if r.latency.count >= 1000 {
        m.layer("serve.frame_latency_p99_ms", 1e3 * r.latency.p99);
    } else {
        m.problem(format!(
            "{} frame latencies, fewer than 1000",
            r.latency.count
        ));
    }
    m.layer("serve.rounds", r.rounds as f64);
    m.layer("serve.contended_rounds", r.contended_rounds as f64);
    m.layer("serve.admitted", r.admitted as f64);
    m.layer("serve.completed", r.completed as f64);
    m.layer("serve.shed", r.shed as f64);
    m.layer("serve.frames_served", r.frames_served as f64);
    m.layer("serve.unique_renders", r.unique_renders as f64);
    m.layer("serve.cache.hits", r.cache.hits as f64);
    m.layer("serve.cache.misses", r.cache.misses as f64);
    m.layer("serve.cache.evictions", r.cache.evictions as f64);
    m.layer("serve.cache.hit_ratio", r.cache.hit_ratio());
    let (get_ns, insert_ns) = cache_probe(&cfg);
    m.layer("serve.cache.get_ns", get_ns);
    m.layer("serve.cache.insert_ns", insert_ns);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_regimes_differ_only_in_pose_span_and_cache() {
        let seeds = Seeds::derive(5);
        let (a, b) = (serve_cfg(false, &seeds), serve_cfg(true, &seeds));
        assert!(a.validate().is_ok() && b.validate().is_ok());
        let same = ServeConfig {
            pose_span: a.pose_span,
            cache_capacity: a.cache_capacity,
            cache_buckets: a.cache_buckets,
            ..b.clone()
        };
        assert_eq!(format!("{same:?}"), format!("{a:?}"));
        // Enough frame latencies for a p99, and no arrival can be refused.
        let frames = a.offered_sessions() * FRAMES_PER_SESSION as u64;
        assert!(frames >= 1000);
        assert!(a.queue_depth >= BULK_SESSIONS && a.max_sessions as u64 >= a.offered_sessions());
    }

    #[test]
    fn cache_probe_measures_hits_and_inserts() {
        let (get_ns, insert_ns) = cache_probe(&serve_cfg(true, &Seeds::derive(5)));
        assert!(get_ns > 0.0 && insert_ns > 0.0);
    }
}
