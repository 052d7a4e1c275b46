//! Convergence suite for the closed-loop DVFS governor.
//!
//! The governor watches per-station idle fractions each epoch and moves
//! one frequency step at a time. These tests pin *where it lands*:
//!
//! * on the film pipeline it re-discovers the paper's §VI-D split —
//!   the expensive filters raised to 800 MHz, coasting islands
//!   throttled to 400 MHz — and both virtual-time backends make the
//!   identical decision sequence;
//! * on the irregular wavefront workload it converges to a *different*
//!   split (the expand stage's island raised, the commit island
//!   throttled), because the bottleneck lives elsewhere;
//! * the frequency plan improves time *and* energy over the static
//!   default, raising the power cap never slows the run, and no tile
//!   oscillates (raise → throttle → raise) within a run.

use proptest::prelude::*;
use scc_core::{
    replay_decisions, run, Backend, BackendReport, GovernorAction, GovernorDecision,
    GovernorTuning, RunConfig, StageKind, WavefrontSpec, Workload,
};
use scc_sim::{DvfsState, FreqMHz, IslandId, TileId};

/// The paper's §VI-D DVFS setup: rendering on the MCPC, the filter
/// chain on-chip, so the expensive filters are the raisable bottleneck.
fn film_cfg(tuning: Option<GovernorTuning>) -> RunConfig {
    let mut b = RunConfig::builder()
        .renderer(scc_core::RendererMode::McpcRenderer)
        .pipelines(1)
        .size(128, 96)
        .frames(64)
        .seed(42)
        .fidelity(scc_core::Fidelity::TimingOnly)
        .verify(true);
    if let Some(t) = tuning {
        b = b.power_governed(t);
    }
    b.build().expect("valid film config")
}

/// The DES cross-validator's scope: single on-chip renderer. Here the
/// bottleneck (render) is protected, so the governor's moves are pure
/// energy savings — throttling coasting islands.
fn single_renderer_cfg(tuning: GovernorTuning) -> RunConfig {
    RunConfig::builder()
        .pipelines(1)
        .size(128, 96)
        .frames(64)
        .seed(42)
        .fidelity(scc_core::Fidelity::TimingOnly)
        .verify(true)
        .power_governed(tuning)
        .build()
        .expect("valid film config")
}

fn wavefront_cfg(tuning: Option<GovernorTuning>) -> RunConfig {
    let mut b = RunConfig::builder()
        .seed(11)
        .verify(true)
        .workload(Workload::Wavefront(WavefrontSpec::default()));
    if let Some(t) = tuning {
        b = b.power_governed(t);
    }
    b.build().expect("valid wavefront config")
}

/// Tiles a decision trace raised (ever) and throttled (ever).
fn moved_tiles(decisions: &[GovernorDecision]) -> (Vec<TileId>, Vec<IslandId>) {
    let mut raised = Vec::new();
    let mut throttled = Vec::new();
    for d in decisions {
        match d.action {
            GovernorAction::Raise { tile, .. } if !raised.contains(&tile) => raised.push(tile),
            GovernorAction::Throttle { island, .. } if !throttled.contains(&island) => {
                throttled.push(island)
            }
            _ => {}
        }
    }
    (raised, throttled)
}

/// Per-tile direction changes across a trace: raise-after-throttle or
/// throttle-after-raise on the same tile.
fn direction_changes(decisions: &[GovernorDecision]) -> usize {
    use std::collections::HashMap;
    let mut last: HashMap<u8, i8> = HashMap::new();
    let mut changes = 0;
    for d in decisions {
        let moves: Vec<(u8, i8)> = match d.action {
            GovernorAction::Raise { tile, .. } => vec![(tile.index() as u8, 1)],
            GovernorAction::Throttle { island, .. } => island
                .tiles()
                .iter()
                .map(|t| (t.index() as u8, -1))
                .collect(),
            _ => vec![],
        };
        for (tile, dir) in moves {
            if let Some(prev) = last.insert(tile, dir) {
                if prev != dir {
                    changes += 1;
                }
            }
        }
    }
    changes
}

#[test]
fn film_governor_converges_to_the_paper_split() {
    let cfg = film_cfg(Some(GovernorTuning::default()));
    let sim = run(&cfg, Backend::Sim);
    let BackendReport::Sim(sim_report) = &sim.report else {
        unreachable!()
    };

    // The converged plan is the paper's: the expensive filters (sepia
    // and blur) raised to 800 MHz, coasting islands down at 400 MHz.
    assert!(
        !sim_report.dvfs_decisions.is_empty(),
        "the governor never acted on the film"
    );
    let state = replay_decisions(&DvfsState::default(), &sim_report.dvfs_decisions);
    let blur_core = sim_report
        .stage_reports
        .iter()
        .find(|s| s.kind == StageKind::Blur)
        .expect("film runs report a blur stage")
        .core_id;
    let blur_tile = scc_sim::CoreId::new(blur_core).tile();
    assert_eq!(
        state.tile_freq(blur_tile),
        FreqMHz::F800,
        "the paper's split accelerates the blur tile"
    );
    let (raised, throttled) = moved_tiles(&sim_report.dvfs_decisions);
    assert!(raised.len() >= 2, "sepia and blur both raise: {raised:?}");
    assert!(!throttled.is_empty(), "coasting islands throttle");
    // The chain connector's island is protected: never throttled.
    let connect_core = sim_report
        .stage_reports
        .iter()
        .find(|s| s.kind == StageKind::Connect)
        .expect("connect stage")
        .core_id;
    let connect_island = IslandId::of_tile(scc_sim::CoreId::new(connect_core).tile());
    assert!(
        !throttled.contains(&connect_island),
        "the governor must not throttle the connector's island"
    );
}

#[test]
fn film_decision_trace_is_backend_independent() {
    // The DES validator's scope is the single-renderer film; there the
    // protected render core is the bottleneck, so the governed trace is
    // throttle-only — and must be identical event-for-event across the
    // two independent schedulers.
    let cfg = single_renderer_cfg(GovernorTuning::default());
    let sim = run(&cfg, Backend::Sim);
    let des = run(&cfg, Backend::Des);
    let BackendReport::Sim(sim_r) = &sim.report else {
        unreachable!()
    };
    let BackendReport::Des(des_r) = &des.report else {
        unreachable!()
    };
    assert!(!sim_r.dvfs_decisions.is_empty());
    assert_eq!(sim_r.dvfs_decisions, des_r.dvfs_decisions);
    assert!(sim_r
        .dvfs_decisions
        .iter()
        .all(|d| !matches!(d.action, GovernorAction::Raise { .. })));
}

#[test]
fn film_governed_run_beats_the_static_default_on_time_and_energy() {
    let stat = run(&film_cfg(None), Backend::Sim);
    let gov = run(&film_cfg(Some(GovernorTuning::default())), Backend::Sim);
    let BackendReport::Sim(stat_r) = &stat.report else {
        unreachable!()
    };
    let BackendReport::Sim(gov_r) = &gov.report else {
        unreachable!()
    };
    assert!(
        gov_r.total_secs < stat_r.total_secs,
        "governed {} s vs static {} s",
        gov_r.total_secs,
        stat_r.total_secs
    );
    assert!(
        gov_r.scc_energy_joules < stat_r.scc_energy_joules,
        "governed {} J vs static {} J",
        gov_r.scc_energy_joules,
        stat_r.scc_energy_joules
    );
}

#[test]
fn governor_never_touches_a_pixel() {
    // Frequency moves change *when* strips compute, never *what* they
    // compute: the delivered film is checksum-identical governor on/off.
    let mk = |tuning: Option<GovernorTuning>| {
        let mut b = RunConfig::builder()
            .renderer(scc_core::RendererMode::McpcRenderer)
            .pipelines(1)
            .size(64, 48)
            .frames(24)
            .seed(42)
            .fidelity(scc_core::Fidelity::Full);
        if let Some(t) = tuning {
            b = b.power_governed(t);
        }
        b.build().expect("valid config")
    };
    let stat = run(&mk(None), Backend::Sim);
    let gov = run(&mk(Some(GovernorTuning::default())), Backend::Sim);
    let BackendReport::Sim(stat_r) = &stat.report else {
        unreachable!()
    };
    let BackendReport::Sim(gov_r) = &gov.report else {
        unreachable!()
    };
    let sums = |r: &scc_core::WalkthroughReport| -> Vec<u64> {
        r.outputs
            .as_ref()
            .expect("full fidelity keeps frames")
            .iter()
            .map(scc_core::viz::frame_checksum)
            .collect()
    };
    assert_eq!(sums(stat_r), sums(gov_r));
}

#[test]
fn wavefront_converges_to_a_different_split_than_the_film() {
    let film = run(&film_cfg(Some(GovernorTuning::default())), Backend::Sim);
    let wave = run(
        &wavefront_cfg(Some(GovernorTuning::default())),
        Backend::Sim,
    );
    let BackendReport::Sim(film_r) = &film.report else {
        unreachable!()
    };
    let BackendReport::Generic(wave_r) = &wave.report else {
        unreachable!()
    };
    assert!(
        !wave_r.dvfs_decisions.is_empty(),
        "the governor never acted on the wavefront"
    );
    let (film_raised, film_throttled) = moved_tiles(&film_r.dvfs_decisions);
    let (wave_raised, wave_throttled) = moved_tiles(&wave_r.dvfs_decisions);
    assert!(!wave_raised.is_empty());
    assert_ne!(
        (film_raised.clone(), film_throttled),
        (wave_raised.clone(), wave_throttled),
        "two workloads with different bottlenecks must converge differently"
    );
    // Island-major placement: the wavefront's raised tiles sit on
    // different voltage islands, so a raise never drags a neighbour
    // group's voltage up.
    let islands: std::collections::HashSet<_> =
        wave_raised.iter().map(|t| IslandId::of_tile(*t)).collect();
    assert_eq!(islands.len(), wave_raised.len());
}

#[test]
fn wavefront_decision_trace_is_backend_independent() {
    let cfg = wavefront_cfg(Some(GovernorTuning::default()));
    let sim = run(&cfg, Backend::Sim);
    let des = run(&cfg, Backend::Des);
    let BackendReport::Generic(sim_r) = &sim.report else {
        unreachable!()
    };
    let BackendReport::Generic(des_r) = &des.report else {
        unreachable!()
    };
    assert_eq!(sim_r.dvfs_decisions, des_r.dvfs_decisions);
    assert_eq!(sim_r.output_digest, des_r.output_digest);
}

#[test]
fn zero_cap_blocks_every_raise() {
    let tuning = GovernorTuning {
        power_cap_watts: 0.0,
        ..GovernorTuning::default()
    };
    let out = run(&wavefront_cfg(Some(tuning)), Backend::Sim);
    let BackendReport::Generic(r) = &out.report else {
        unreachable!()
    };
    assert!(r
        .dvfs_decisions
        .iter()
        .all(|d| !matches!(d.action, GovernorAction::Raise { .. })));
    assert!(
        r.dvfs_decisions
            .iter()
            .any(|d| matches!(d.action, GovernorAction::CapBlocked { .. })),
        "a zero cap must be visible as cap-blocks, not silence"
    );
}

#[test]
fn no_tile_oscillates_within_a_run() {
    for cfg in [
        film_cfg(Some(GovernorTuning::default())),
        wavefront_cfg(Some(GovernorTuning::default())),
    ] {
        let out = run(&cfg, Backend::Sim);
        let decisions = match &out.report {
            BackendReport::Sim(r) => r.dvfs_decisions.clone(),
            BackendReport::Generic(r) => r.dvfs_decisions.clone(),
            _ => unreachable!(),
        };
        assert_eq!(
            direction_changes(&decisions),
            0,
            "hysteresis must prevent raise/throttle ping-pong: {decisions:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs four full wavefront sweeps
        ..ProptestConfig::default()
    })]

    /// Raising the power cap only ever adds raises, and the extra speed
    /// never costs wall-clock time: energy-vs-cap is monotone in the
    /// direction the control law promises.
    #[test]
    fn raising_the_cap_is_monotone(seed in 1u64..64) {
        let mut prev_raises = 0usize;
        let mut prev_total = f64::INFINITY;
        for cap in [0.0f64, 4.0, 8.0, 16.0] {
            let tuning = GovernorTuning { power_cap_watts: cap, ..GovernorTuning::default() };
            let mut cfg = wavefront_cfg(Some(tuning));
            cfg.seed = seed;
            let out = run(&cfg, Backend::Sim);
            let BackendReport::Generic(r) = &out.report else { unreachable!() };
            let raises = r
                .dvfs_decisions
                .iter()
                .filter(|d| matches!(d.action, GovernorAction::Raise { .. }))
                .count();
            prop_assert!(
                raises >= prev_raises,
                "cap {} admitted {} raises after {} at the lower cap",
                cap, raises, prev_raises
            );
            prop_assert!(
                r.total_secs <= prev_total * (1.0 + 1e-9),
                "cap {} slowed the run: {} s after {} s",
                cap, r.total_secs, prev_total
            );
            prev_raises = raises;
            prev_total = r.total_secs;
        }
    }
}
