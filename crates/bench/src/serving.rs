//! Serving-layer throughput measurement — the `BENCH_serving.json`
//! trajectory.
//!
//! The serving claim is that a content-addressed strip cache turns
//! viewer overlap into throughput: when sessions revisit each other's
//! poses (the workload here guarantees ≥ 50% pose overlap), a cached
//! strip is a transfer instead of a render, so sessions/s must rise and
//! p99 frame latency must not explode with session count. The sweep runs
//! each session count twice — cache on and cache off, identical workload
//! seed — in deterministic virtual time. Three gates:
//!
//! * **transparency** — the film fingerprint is byte-identical cache
//!   on/off at every point (the cache may never move a pixel);
//! * **speedup** — sessions/s strictly higher with the cache on at every
//!   point (the acceptance criterion of the serving layer);
//! * **ledger** — `completed + shed == admitted` at every point (sheds
//!   are recorded, never silent).

use scc_core::RunConfig;
use scc_render::Scene;
use scc_serve::{serve, ServeConfig, ServeReport, TenantSpec};
use scc_telemetry::Json;
use std::fmt::Write as _;
use std::sync::Arc;

/// One (session count, cache on/off) measurement.
#[derive(Debug, Clone)]
pub struct ServingPoint {
    pub sessions: u32,
    pub cache: bool,
    pub report: ServeReport,
}

/// The full sweep, ready to render as `BENCH_serving.json`.
#[derive(Debug, Clone)]
pub struct ServingReport {
    pub config: RunConfig,
    /// Frames each session requests.
    pub frames_per_session: u32,
    pub pool: u32,
    pub cache_capacity: u32,
    pub points: Vec<ServingPoint>,
}

/// Build the sweep's serving config for one session count. Two tenants —
/// a heavy bulk fleet and a light weighted-up interactive tier — so the
/// sweep also exercises admission and weighted fairness. The pose span
/// scales with the session count but stays at half the per-point frame
/// demand, keeping pose overlap at or above 50% at every point.
pub fn sweep_config(
    base: &RunConfig,
    sessions: u32,
    cache: bool,
    frames_per_session: u32,
    pool: u32,
    cache_capacity: u32,
) -> ServeConfig {
    let bulk = (sessions * 3) / 4;
    let vip = sessions - bulk;
    let pose_span = u64::from(sessions.div_ceil(2).max(2));
    ServeConfig {
        run: base.clone(),
        tenants: vec![
            TenantSpec::new("bulk", 1, bulk, frames_per_session),
            TenantSpec::new("vip", 3, vip, frames_per_session),
        ],
        shards: 2,
        pool,
        cache_capacity: if cache { cache_capacity } else { 0 },
        cache_buckets: (cache_capacity / 2).max(1),
        queue_depth: (sessions / 2).max(4),
        max_sessions: sessions.max(4),
        batch_frames: 4,
        pose_span,
        arrival_burst: (sessions / 4).max(2),
        seed: 0x05EC_5E55 ^ u64::from(sessions),
        keep_films: false,
    }
}

/// Run the sweep over `session_counts`, cache off then on per count.
pub fn measure_serving(
    base: &RunConfig,
    scene: &Arc<Scene>,
    session_counts: &[u32],
) -> ServingReport {
    let frames_per_session = 4;
    let pool = 4;
    let cache_capacity = 256;
    let mut points = Vec::new();
    for &sessions in session_counts {
        for cache in [false, true] {
            let cfg = sweep_config(
                base,
                sessions,
                cache,
                frames_per_session,
                pool,
                cache_capacity,
            );
            let out = serve(&cfg, scene);
            points.push(ServingPoint {
                sessions,
                cache,
                report: out.report,
            });
        }
    }
    ServingReport {
        config: base.clone(),
        frames_per_session,
        pool,
        cache_capacity,
        points,
    }
}

impl ServingReport {
    fn pairs(&self) -> impl Iterator<Item = (&ServingPoint, &ServingPoint)> {
        // Points come in (off, on) pairs per session count.
        self.points.chunks(2).filter_map(|c| match c {
            [off, on] if !off.cache && on.cache => Some((off, on)),
            _ => None,
        })
    }

    /// True when every point's film fingerprint matches cache on vs off.
    pub fn cache_transparent(&self) -> bool {
        self.pairs().all(|(off, on)| {
            off.report.film_hash == on.report.film_hash
                && off.report.frames_served == on.report.frames_served
        })
    }

    /// True when sessions/s is strictly higher with the cache at every
    /// session count — the serving acceptance criterion.
    pub fn cache_speeds_up(&self) -> bool {
        self.pairs()
            .all(|(off, on)| on.report.sessions_per_sec > off.report.sessions_per_sec)
    }

    /// True when every point's session ledger balances.
    pub fn ledger_balanced(&self) -> bool {
        self.points
            .iter()
            .all(|p| p.report.completed + p.report.shed == p.report.admitted)
    }

    /// Render the report as the `BENCH_serving.json` document.
    pub fn to_json(&self) -> String {
        let config = Json::obj()
            .field("pipelines", Json::U64(u64::from(self.config.pipelines)))
            .field("width", Json::U64(u64::from(self.config.width)))
            .field("height", Json::U64(u64::from(self.config.height)))
            .field("seed", Json::U64(self.config.seed))
            .field(
                "frames_per_session",
                Json::U64(u64::from(self.frames_per_session)),
            )
            .field("pool", Json::U64(u64::from(self.pool)))
            .field("cache_capacity", Json::U64(u64::from(self.cache_capacity)));
        let points = Json::Arr(
            self.points
                .iter()
                .map(|p| {
                    let r = &p.report;
                    Json::obj()
                        .field("sessions", Json::U64(u64::from(p.sessions)))
                        .field("cache", Json::Bool(p.cache))
                        .field("admitted", Json::U64(r.admitted))
                        .field("completed", Json::U64(r.completed))
                        .field("shed", Json::U64(r.shed))
                        .field("frames", Json::U64(r.frames_served))
                        .field("unique_renders", Json::U64(r.unique_renders))
                        .field("cache_hits", Json::U64(r.cache.hits))
                        .field("cache_evictions", Json::U64(r.cache.evictions))
                        .field("hit_ratio", Json::F64(r.cache.hit_ratio()))
                        .field("virtual_secs", Json::F64(r.virtual_secs))
                        .field("sessions_per_sec", Json::F64(r.sessions_per_sec))
                        .field("frames_per_sec", Json::F64(r.frames_per_sec))
                        .field("latency_p50_ms", Json::F64(r.latency.p50 * 1e3))
                        .field("latency_p99_ms", Json::F64(r.latency.p99 * 1e3))
                        .field("film_hash", Json::str(format!("{:#018x}", r.film_hash)))
                })
                .collect(),
        );
        Json::obj()
            .field("bench", Json::str("serving"))
            .field("config", config)
            .field(
                "note",
                Json::str(
                    "virtual-time serving sweep: sessions/s and p99 frame \
                     latency vs session count, cache off/on per count at a \
                     >= 50% pose-overlap workload; gates are byte-identical \
                     films (transparency), strictly higher sessions/s with \
                     the cache, and a balanced session ledger",
                ),
            )
            .field("points", points)
            .render()
    }

    /// Plain-text table for the terminal.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serving sweep — p={} {}x{} f/sess={} pool={} cache_cap={}",
            self.config.pipelines,
            self.config.width,
            self.config.height,
            self.frames_per_session,
            self.pool,
            self.cache_capacity,
        );
        let _ = writeln!(
            out,
            "{:>9} {:>6} {:>9} {:>6} {:>8} {:>8} {:>10} {:>9} {:>9}",
            "sessions", "cache", "complete", "shed", "renders", "hit%", "sess/s", "p50ms", "p99ms"
        );
        for p in &self.points {
            let r = &p.report;
            let _ = writeln!(
                out,
                "{:>9} {:>6} {:>9} {:>6} {:>8} {:>7.1}% {:>10.2} {:>9.2} {:>9.2}",
                p.sessions,
                if p.cache { "on" } else { "off" },
                r.completed,
                r.shed,
                r.unique_renders,
                100.0 * r.cache.hit_ratio(),
                r.sessions_per_sec,
                r.latency.p50 * 1e3,
                r.latency.p99 * 1e3,
            );
        }
        let _ = writeln!(
            out,
            "films {}; cache {}; ledger {}",
            if self.cache_transparent() {
                "byte-identical cache on/off at every point"
            } else {
                "DIVERGED — the cache moved a pixel!"
            },
            if self.cache_speeds_up() {
                "strictly faster at every point"
            } else {
                "NOT faster — overlap failed to pay"
            },
            if self.ledger_balanced() {
                "balanced (completed + shed == admitted)"
            } else {
                "UNBALANCED — sessions lost silently!"
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_render::CityConfig;

    #[test]
    fn sweep_gates_hold_on_a_smoke_run() {
        let cfg = RunConfig::builder()
            .pipelines(2)
            .size(48, 32)
            .seed(7)
            .build()
            .expect("valid config");
        let scene = Arc::new(Scene::city(CityConfig {
            side: 4,
            spacing: 8.0,
            seed: 1,
        }));
        let report = measure_serving(&cfg, &scene, &[4, 8]);
        assert_eq!(report.points.len(), 4);
        assert!(report.cache_transparent(), "{}", report.render_text());
        assert!(report.cache_speeds_up(), "{}", report.render_text());
        assert!(report.ledger_balanced(), "{}", report.render_text());
        let json = report.to_json();
        for key in [
            "\"bench\": \"serving\"",
            "\"sessions_per_sec\"",
            "\"latency_p99_ms\"",
            "\"hit_ratio\"",
            "\"film_hash\"",
            "\"unique_renders\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
