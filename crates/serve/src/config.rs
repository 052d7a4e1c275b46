//! Serving-layer configuration and the deterministic workload generator.
//!
//! A [`ServeConfig`] describes a fleet of viewer *sessions* grouped into
//! *tenants*: each session walks a contiguous window of the standard
//! walkthrough starting at a seeded pose, so two sessions whose windows
//! overlap request identical poses — the overlap the strip cache exploits.
//! Everything is derived from the config and its seed; two runs of the
//! same config observe byte-identical admissions, sheds and cache events.

use scc_core::RunConfig;
use scc_filters::splitmix64;

/// One tenant: a weight class plus its offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Label used in telemetry and reports.
    pub name: String,
    /// Weighted-fair share (≥ 1). Frame slots in contended rounds are
    /// split proportionally to weights.
    pub weight: u32,
    /// Sessions this tenant offers over the run.
    pub sessions: u32,
    /// Frames each of this tenant's sessions requests (≥ 1).
    pub frames_per_session: u32,
}

impl TenantSpec {
    pub fn new(name: &str, weight: u32, sessions: u32, frames_per_session: u32) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            weight,
            sessions,
            frames_per_session,
        }
    }
}

/// Full serving-layer configuration.
///
/// `run` is the pipeline facade config the pool members execute: its
/// renderer mode, frame geometry, pipeline count and seed define the data
/// path (and the cache key); its `verify` flag arms the session-ledger
/// invariant and its `telemetry` flag arms the `scc_serve_*` series.
/// The `frames` field of `run` is ignored — per-session frame counts come
/// from the tenant specs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Pipeline unit-of-work config (renderer, geometry, seed, flags).
    pub run: RunConfig,
    /// Tenant mix. Must be non-empty with ≥ 1 session in total.
    pub tenants: Vec<TenantSpec>,
    /// Frontend shards (thread-per-core model); sessions are assigned
    /// round-robin by id. Each shard spends `batch_frames` slots/round.
    pub shards: u32,
    /// Pipeline-pool instances a round's work is charged against. The
    /// host threads a round's pixels are produced on number at most this
    /// many and at most the host's CPUs; that never shows in a report.
    pub pool: u32,
    /// Strip-cache capacity in strips; `0` disables the cache.
    pub cache_capacity: u32,
    /// Hash-bucket count of the cache. Kept configurable so tests can
    /// force collisions into full-key comparison.
    pub cache_buckets: u32,
    /// Per-tenant bound on concurrently active sessions; arrivals beyond
    /// it are shed with [`ShedReason::TenantQueueFull`].
    pub queue_depth: u32,
    /// Global bound on concurrently active sessions; arrivals beyond it
    /// are shed with [`ShedReason::SessionCap`].
    pub max_sessions: u32,
    /// Frame slots each shard may dispatch per scheduling round.
    pub batch_frames: u32,
    /// Distinct start poses the workload draws from. Small spans create
    /// heavy pose overlap across sessions (the cache-friendly regime).
    pub pose_span: u64,
    /// Sessions that arrive per tenant per round (arrival pacing).
    pub arrival_burst: u32,
    /// Workload seed (start poses). Independent of `run.seed`, which
    /// feeds the filter chain.
    pub seed: u64,
    /// Retain every rendered frame in the outcome (tests); when false
    /// only per-frame checksums are kept.
    pub keep_films: bool,
}

pub use crate::session::ShedReason;

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            run: RunConfig::default(),
            tenants: vec![TenantSpec::new("default", 1, 4, 4)],
            shards: 2,
            pool: 2,
            cache_capacity: 64,
            cache_buckets: 64,
            queue_depth: 8,
            max_sessions: 64,
            batch_frames: 4,
            pose_span: 8,
            arrival_burst: 4,
            seed: 0x05EC_5E55,
            keep_films: false,
        }
    }
}

impl ServeConfig {
    /// Total sessions offered across all tenants.
    pub fn offered_sessions(&self) -> u64 {
        self.tenants.iter().map(|t| t.sessions as u64).sum()
    }

    /// Validate the serving knobs plus the embedded pipeline config.
    pub fn validate(&self) -> Result<(), String> {
        self.run.validate()?;
        if self.tenants.is_empty() {
            return Err("serve: at least one tenant required".into());
        }
        for t in &self.tenants {
            if t.weight == 0 {
                return Err(format!("serve: tenant {} has zero weight", t.name));
            }
            if t.frames_per_session == 0 {
                return Err(format!(
                    "serve: tenant {} has zero frames per session",
                    t.name
                ));
            }
        }
        if self.offered_sessions() == 0 {
            return Err("serve: zero sessions offered".into());
        }
        if self.shards == 0 {
            return Err("serve: shards must be >= 1".into());
        }
        if self.pool == 0 {
            return Err("serve: pool must be >= 1".into());
        }
        if self.cache_buckets == 0 {
            return Err("serve: cache_buckets must be >= 1".into());
        }
        if self.queue_depth == 0 {
            return Err("serve: queue_depth must be >= 1".into());
        }
        if self.max_sessions == 0 {
            return Err("serve: max_sessions must be >= 1".into());
        }
        if self.batch_frames == 0 {
            return Err("serve: batch_frames must be >= 1".into());
        }
        if self.pose_span == 0 {
            return Err("serve: pose_span must be >= 1".into());
        }
        if self.arrival_burst == 0 {
            return Err("serve: arrival_burst must be >= 1".into());
        }
        Ok(())
    }
}

/// One generated session: a window into the shared walkthrough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// Global session id (also the shard assignment key).
    pub id: u32,
    /// Index into `cfg.tenants`.
    pub tenant: u32,
    /// First walkthrough pose this session requests.
    pub start_pose: u64,
    /// Frames requested (poses `start_pose .. start_pose + frames`).
    pub frames: u32,
    /// Scheduling round at which the session arrives at the frontend.
    pub arrive_round: u64,
}

/// Expand the tenant mix into the deterministic session arrival list,
/// ordered by (arrive_round, id). Session ids interleave tenants in
/// arrival order so shard assignment (`id % shards`) spreads every
/// tenant across every shard.
pub fn generate_sessions(cfg: &ServeConfig) -> Vec<SessionSpec> {
    let mut out = Vec::new();
    let mut id = 0u32;
    let max_burst: u32 = cfg.arrival_burst;
    let most = cfg.tenants.iter().map(|t| t.sessions).max().unwrap_or(0);
    let rounds = most.div_ceil(max_burst);
    for round in 0..rounds.max(1) {
        for (ti, t) in cfg.tenants.iter().enumerate() {
            let lo = round * max_burst;
            let hi = (lo + max_burst).min(t.sessions);
            for s in lo..hi.max(lo) {
                let h = splitmix64(cfg.seed ^ ((ti as u64) << 40) ^ (s as u64));
                out.push(SessionSpec {
                    id,
                    tenant: ti as u32,
                    start_pose: h % cfg.pose_span,
                    frames: t.frames_per_session,
                    arrive_round: round as u64,
                });
                id += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let cfg = ServeConfig::default();
        assert_eq!(generate_sessions(&cfg), generate_sessions(&cfg));
    }

    #[test]
    fn workload_counts_match_offered_load() {
        let cfg = ServeConfig {
            tenants: vec![
                TenantSpec::new("a", 4, 10, 3),
                TenantSpec::new("b", 1, 1, 3),
            ],
            ..ServeConfig::default()
        };
        let sessions = generate_sessions(&cfg);
        assert_eq!(sessions.len() as u64, cfg.offered_sessions());
        let a = sessions.iter().filter(|s| s.tenant == 0).count();
        let b = sessions.iter().filter(|s| s.tenant == 1).count();
        assert_eq!((a, b), (10, 1));
        // Arrival rounds never decrease in generation order.
        assert!(sessions
            .windows(2)
            .all(|w| w[0].arrive_round <= w[1].arrive_round));
        // Ids are dense and unique.
        let mut ids: Vec<u32> = sessions.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..sessions.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_pose_span_forces_overlap() {
        let cfg = ServeConfig {
            tenants: vec![TenantSpec::new("a", 1, 32, 4)],
            pose_span: 2,
            ..ServeConfig::default()
        };
        let sessions = generate_sessions(&cfg);
        let distinct: std::collections::BTreeSet<u64> =
            sessions.iter().map(|s| s.start_pose).collect();
        assert!(distinct.len() <= 2, "pose span bound violated");
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        let ok = ServeConfig::default();
        assert!(ok.validate().is_ok());
        for breaker in [
            |c: &mut ServeConfig| c.tenants.clear(),
            |c: &mut ServeConfig| c.tenants[0].weight = 0,
            |c: &mut ServeConfig| c.shards = 0,
            |c: &mut ServeConfig| c.pool = 0,
            |c: &mut ServeConfig| c.cache_buckets = 0,
            |c: &mut ServeConfig| c.queue_depth = 0,
            |c: &mut ServeConfig| c.max_sessions = 0,
            |c: &mut ServeConfig| c.batch_frames = 0,
            |c: &mut ServeConfig| c.pose_span = 0,
        ] {
            let mut bad = ok.clone();
            breaker(&mut bad);
            assert!(bad.validate().is_err());
        }
    }
}
