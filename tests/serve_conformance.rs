//! Serving-conformance suite: the frontend's scheduling contract.
//!
//! Three guarantees under test: (1) *fairness* — under a 10:1 offered-load
//! skew no tenant starves, and on contended rounds completed frames stay
//! inside the weighted-fair envelope; (2) *exactly-once accounting* — every
//! admitted session reaches exactly one terminal state, checked through the
//! shared invariant checker (`completed + shed == admitted`); (3)
//! *deterministic shedding* — under a pinned seed the shed decisions are a
//! pure function of the config, never silent, and reported per event.

mod common;

use common::scene;
use proptest::prelude::*;
use scc_core::check_session_ledger;
use scc_core::{Fidelity, RendererMode, RunConfig};
use scc_serve::{serve, ServeConfig, ServeOutcome, ShedReason, TenantSpec};

fn base_run() -> RunConfig {
    RunConfig::builder()
        .renderer(RendererMode::SingleRenderer)
        .pipelines(2)
        .size(40, 32)
        .seed(23)
        .fidelity(Fidelity::Full)
        .verify(true)
        .build()
        .expect("valid run config")
}

fn serve_cfg(tenants: Vec<TenantSpec>) -> ServeConfig {
    ServeConfig {
        run: base_run(),
        tenants,
        shards: 1, // one shard => contended counters cover the whole frontend
        pool: 2,
        cache_capacity: 64,
        cache_buckets: 64,
        queue_depth: 64,
        max_sessions: 128,
        batch_frames: 4,
        pose_span: 4,
        arrival_burst: 64,
        seed: 0x05EC_5E55,
        keep_films: false,
    }
}

fn run(cfg: &ServeConfig) -> ServeOutcome {
    serve(cfg, &scene())
}

/// 10:1 offered-load skew, equal weights: the flood tenant may not starve
/// the small one. Both must complete everything they offered, and on
/// contended rounds the small tenant must still receive its fair share.
#[test]
fn no_tenant_starves_under_ten_to_one_skew() {
    let cfg = serve_cfg(vec![
        TenantSpec::new("flood", 1, 40, 6),
        TenantSpec::new("drip", 1, 4, 6),
    ]);
    let out = run(&cfg);
    let r = &out.report;
    assert_eq!(r.shed, 0, "capacity fits the whole offered load");
    for t in &r.per_tenant {
        assert_eq!(
            t.completed_sessions, t.offered,
            "tenant {} starved: {}/{} sessions",
            t.name, t.completed_sessions, t.offered
        );
        assert!(t.frames_completed > 0, "tenant {} served no frames", t.name);
    }
    // While both tenants had backlog, equal weights mean the drip tenant
    // got frames alongside the flood — not after it drained.
    let drip = &r.per_tenant[1];
    assert!(
        drip.contended_frames > 0,
        "drip tenant was frozen out of every contended round"
    );
}

/// Weighted-fair envelope: with one shard and every tenant backlogged, a
/// tenant's completed frames on contended rounds must sit within one
/// round's worth of slots of its weight share `w_t/W · total`.
#[test]
fn contended_frames_stay_within_the_weighted_fair_envelope() {
    let cfg = serve_cfg(vec![
        TenantSpec::new("gold", 3, 12, 8),
        TenantSpec::new("bronze", 1, 12, 8),
    ]);
    let out = run(&cfg);
    let r = &out.report;
    assert!(
        r.contended_rounds > 4,
        "workload too small to contend ({} rounds)",
        r.contended_rounds
    );
    let total: u64 = r.contended_frames_total;
    let weight_sum: f64 = r.per_tenant.iter().map(|t| f64::from(t.weight)).sum();
    for t in &r.per_tenant {
        let share = f64::from(t.weight) / weight_sum * total as f64;
        let dev = (t.contended_frames as f64 - share).abs();
        assert!(
            dev <= r.contended_rounds as f64,
            "tenant {} outside the weighted-fair envelope: got {} of {} \
             contended frames, fair share {:.1}, slack {} rounds",
            t.name,
            t.contended_frames,
            total,
            share,
            r.contended_rounds
        );
    }
    // The 3:1 weighting must actually bite, not just stay inside the band.
    assert!(
        r.per_tenant[0].contended_frames > 2 * r.per_tenant[1].contended_frames,
        "3:1 weights produced {}:{} contended frames",
        r.per_tenant[0].contended_frames,
        r.per_tenant[1].contended_frames
    );
}

/// Exactly-once ledger through the shared invariant checker: the engine's
/// reported counters satisfy `completed + shed == admitted`, and the
/// checker itself flags an imbalance.
#[test]
fn session_ledger_balances_through_the_invariant_checker() {
    let mut cfg = serve_cfg(vec![
        TenantSpec::new("a", 2, 16, 4),
        TenantSpec::new("b", 1, 16, 4),
    ]);
    // Force real shedding so the ledger covers both terminal states.
    cfg.queue_depth = 2;
    cfg.max_sessions = 8;
    cfg.arrival_burst = 8;
    let out = run(&cfg);
    let r = &out.report;
    assert!(r.shed > 0, "overload config must shed");
    assert!(r.completed > 0, "overload config must also complete work");
    assert!(
        check_session_ledger(r.admitted, r.completed, r.shed).is_empty(),
        "ledger out of balance: admitted {} completed {} shed {}",
        r.admitted,
        r.completed,
        r.shed
    );
    // Shedding is never silent: the counter and the event log agree.
    assert_eq!(r.shed, r.shed_events.len() as u64);
    // And the checker really does catch an imbalance.
    let v = check_session_ledger(5, 2, 2);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].check, "session-ledger");
}

/// Shed decisions under a pinned seed are a pure function of the config:
/// two runs produce the same events (round, session, tenant, reason), and
/// every reason is one of the two documented policies.
#[test]
fn shed_decisions_are_deterministic_under_a_pinned_seed() {
    let mut cfg = serve_cfg(vec![
        TenantSpec::new("a", 1, 24, 4),
        TenantSpec::new("b", 1, 24, 4),
    ]);
    cfg.queue_depth = 3;
    cfg.max_sessions = 10;
    cfg.arrival_burst = 12;
    let first = run(&cfg);
    let second = run(&cfg);
    assert!(
        first.report.shed > 0,
        "overload config must shed to exercise determinism"
    );
    assert_eq!(
        first.report.shed_events, second.report.shed_events,
        "shed decisions drifted between identical runs"
    );
    assert_eq!(first.report.film_hash, second.report.film_hash);
    for ev in &first.report.shed_events {
        assert!(
            matches!(
                ev.reason,
                ShedReason::TenantQueueFull | ShedReason::SessionCap
            ),
            "undocumented shed reason {:?}",
            ev.reason
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case serves a full (small) workload
        ..ProptestConfig::default()
    })]

    /// The ledger balances and shedding stays non-silent for arbitrary
    /// tenant mixes and admission knobs, including heavy overload.
    #[test]
    fn ledger_balances_over_random_admission_pressure(
        sessions_a in 1u32..20,
        sessions_b in 1u32..20,
        weight_a in 1u32..4,
        queue_depth in 1u32..6,
        max_sessions in 1u32..12,
        burst in 1u32..16,
        wseed in 0u64..1000,
    ) {
        let mut cfg = serve_cfg(vec![
            TenantSpec::new("a", weight_a, sessions_a, 3),
            TenantSpec::new("b", 1, sessions_b, 3),
        ]);
        cfg.queue_depth = queue_depth;
        cfg.max_sessions = max_sessions;
        cfg.arrival_burst = burst;
        cfg.seed = wseed;
        let out = run(&cfg);
        let r = &out.report;
        prop_assert_eq!(r.admitted, u64::from(sessions_a + sessions_b));
        prop_assert!(check_session_ledger(r.admitted, r.completed, r.shed).is_empty());
        prop_assert_eq!(r.shed, r.shed_events.len() as u64);
        let by_tenant: u64 = r.per_tenant.iter().map(|t| t.completed_sessions).sum();
        prop_assert_eq!(by_tenant, r.completed);
    }
}
