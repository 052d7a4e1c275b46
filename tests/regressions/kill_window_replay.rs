//! Regression repro for the pre-existing sim↔DES `differential-replay`
//! divergence (ROADMAP, surfaced by the PR-6 fuzzer): a kill scheduled
//! inside the executors' end-of-run timing skew can be observed by one
//! executor (a strip still reaches the killed core) while landing past
//! the other's last strip — one records a recovery, the other does not.
//! The differential oracle now compares recovery counts modulo such
//! *boundary kills*, where the boundary window covers the end-to-end
//! timing skew plus one frame period of per-stage drain skew. This file
//! pins the two repro mechanisms (end-of-run skew and stage-drain skew:
//! raw counts still diverge, but no more `differential-replay` failure)
//! and the guard rail (an early kill is still compared strictly).

use scc_core::{Backend, RunOutcome};
use scc_verify::fuzz::{boundary_window_start, run_oracle, FuzzCase, DES_TIMING_TOLERANCE};

/// A minimal divergent schedule, found by replaying fuzzer mutants
/// against the raw recovery counts: fixed single-renderer run, p=1,
/// f=3 (~35 ms end to end), an early kill at 23 ms and a second kill
/// of the (by then migrated) stage at 34 ms — inside the 5 % tail
/// window. The frame-major simulator still routes a strip through the
/// re-killed core and records a second recovery; the DES executor's
/// last strip has already left it, so it records none.
const TAIL_KILL_REPRO: &str = "\
run mode=single arr=flipped p=1 w=48 h=32 f=3 seed=0x13 fid=full threads=1 pool=1
fault seed=0xfa017 drop=0 corrupt=0 delay=0 max_delay_us=200 links=0 factor=1 timeout_us=1000 retries=0
sup hb_us=1000 phi=3 spares=2 depth=4
kill p=0 s=1 at_ms=34
kill p=0 s=1 at_ms=23
";

/// Run both executors (the raw comparison the old oracle made).
fn raw_runs(case: &FuzzCase) -> (RunOutcome, RunOutcome) {
    let on = |backend| scc_core::run_with_scene(&case.cfg, backend, scc_verify::verify_scene());
    (on(Backend::Sim), on(Backend::Des))
}

/// The oracle's boundary-window start: end-to-end timing skew plus one
/// *lane* frame period of per-stage drain skew.
fn window_start(case: &FuzzCase, sim: &RunOutcome, des: &RunOutcome) -> f64 {
    boundary_window_start(&case.cfg, sim.total_secs, des.total_secs)
}

#[test]
fn tail_window_kills_no_longer_trip_the_replay_differential() {
    let case = FuzzCase::from_text(TAIL_KILL_REPRO).expect("repro parses");

    // The repro must still exercise the real divergence: the executors'
    // raw recovery counts disagree (this is exactly what the oracle
    // reported as `differential-replay` before the boundary tolerance),
    // and the disagreeing kill sits in the tail window. If cost-model
    // drift ever ends the run elsewhere, fail loudly so the repro gets
    // retuned instead of silently testing nothing.
    let (sim, des) = raw_runs(&case);
    assert_ne!(
        sim.recoveries.len(),
        des.recoveries.len(),
        "repro no longer diverges (sim {:.1} ms, DES {:.1} ms) — retune its kill times \
         to the executors' current run end",
        sim.total_secs * 1e3,
        des.total_secs * 1e3,
    );
    let window_start = window_start(&case, &sim, &des);
    let kills = &case.cfg.fault.as_ref().expect("repro has faults").kills;
    assert!(
        kills.iter().any(|k| k.at_ms as f64 / 1e3 >= window_start),
        "repro kills ({:?} ms) miss the tail window starting at {:.1} ms",
        kills.iter().map(|k| k.at_ms).collect::<Vec<_>>(),
        window_start * 1e3,
    );

    // The old behavior: `differential-replay` fired on any recovery-count
    // mismatch, boundary kill or not. The oracle must now absorb the
    // mismatch (while still running every other check — film vs
    // reference, invariants, timing) and surface the boundary as
    // coverage so the fuzzer keeps breeding cases that reach it.
    let outcome = run_oracle(&case);
    assert!(
        outcome.failures.is_empty(),
        "boundary kill still reported as a failure: {:?}",
        outcome.failures
    );
    assert!(
        outcome.coverage.contains("replay:boundary-kill"),
        "tolerated boundary kill must surface as coverage, got {:?}",
        outcome.coverage
    );
}

#[test]
fn drain_skew_kills_are_tolerated_inside_one_frame_period() {
    // Fuzzer-shrunk repro (seed 20260806): three kills on distinct
    // stages; the 35 ms kill on flicker lands *before* the end-of-run
    // skew window (the DES run ends ~43 ms) yet after the DES's last
    // flicker strip — the frame-major sim still routes the final frame
    // through the killed core, the pipelined DES drained that stage a
    // frame period earlier. This is why the boundary window spans the
    // timing tolerance PLUS one frame period.
    let repro = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/regressions/drain-window-replay.txt"
    ))
    .expect("committed repro readable");
    let case = FuzzCase::from_text(&repro).expect("repro parses");
    let (sim, des) = raw_runs(&case);
    assert_ne!(
        sim.recoveries.len(),
        des.recoveries.len(),
        "repro no longer diverges (sim {:.1} ms, DES {:.1} ms) — retune its kill times",
        sim.total_secs * 1e3,
        des.total_secs * 1e3,
    );
    // The divergent kill sits below the pure end-of-run window — only
    // the drain term classifies it — but inside the drain-aware one.
    let end_window = sim.total_secs.min(des.total_secs) * (1.0 - DES_TIMING_TOLERANCE);
    let kills = &case.cfg.fault.as_ref().expect("repro has faults").kills;
    assert!(
        kills.iter().all(|k| (k.at_ms as f64) / 1e3 < end_window),
        "repro kills reached the end-of-run skew window — no longer pins the drain term"
    );
    let start = window_start(&case, &sim, &des);
    assert!(
        kills.iter().any(|k| (k.at_ms as f64) / 1e3 >= start),
        "no kill inside the drain-aware window starting at {:.1} ms",
        start * 1e3,
    );
    let outcome = run_oracle(&case);
    assert!(
        outcome.failures.is_empty(),
        "drain-skew kill still reported as a failure: {:?}",
        outcome.failures
    );
    assert!(
        outcome.coverage.contains("replay:boundary-kill"),
        "tolerated drain-skew kill must surface as coverage, got {:?}",
        outcome.coverage
    );
}

#[test]
fn early_kills_are_still_compared_strictly() {
    // Guard rail: the tolerance must not swallow genuine divergence. An
    // early-run kill sits far from the boundary window, so the oracle
    // compares its recovery strictly — and both executors observe it.
    let repro = "\
run mode=single arr=unordered p=1 w=48 h=32 f=3 seed=0x1 fid=full threads=1 pool=1
fault seed=0x1 drop=0 corrupt=0 delay=0 max_delay_us=200 links=0 factor=1 timeout_us=1000 retries=3
sup hb_us=5000 phi=3 spares=2 depth=3
kill p=0 s=1 at_ms=2
";
    let case = FuzzCase::from_text(repro).expect("repro parses");
    let (sim, des) = raw_runs(&case);
    assert!(
        2.0 / 1e3 < window_start(&case, &sim, &des),
        "early kill unexpectedly inside the boundary window"
    );
    assert_eq!(
        sim.recoveries.len(),
        des.recoveries.len(),
        "early kill must be observed by both executors"
    );
    assert!(!sim.recoveries.is_empty(), "the kill must actually fire");
    let outcome = run_oracle(&case);
    assert!(
        !outcome.coverage.contains("replay:boundary-kill"),
        "early kill wrongly classified as a boundary kill"
    );
    assert!(
        outcome.failures.is_empty(),
        "early-kill repro must pass every oracle strictly: {:?}",
        outcome.failures
    );
    assert!(
        outcome.coverage.contains("event:recovery"),
        "recovery coverage missing: {:?}",
        outcome.coverage
    );
}
