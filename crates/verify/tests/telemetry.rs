//! Telemetry conformance: the golden matrix with telemetry enabled must
//! not move a single pinned digest, every snapshot must speak the
//! catalogued schema, and the Figure 15 idle quartiles must be
//! reproducible from the live `scc_stage_idle_ms` histograms alone.
//!
//! Disabled under `verify-selftest`: the planted mutants make every
//! digest (deliberately) wrong.
#![cfg(not(feature = "verify-selftest"))]

use scc_core::{run_with_scene, Backend};
use scc_telemetry::names;
use scc_verify::telemetry::{check_idle_quartiles, check_snapshot_schema, with_telemetry};
use scc_verify::{digest_case, golden_matrix, verify_scene};
use std::path::PathBuf;

fn pinned(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} — pin the telemetry-off digest first",
            path.display()
        )
    })
}

/// Observation must be free of observer effects: every golden case run
/// with telemetry on reproduces the telemetry-off pinned digest,
/// byte for byte.
#[test]
fn telemetry_on_leaves_every_golden_digest_unchanged() {
    for case in golden_matrix() {
        assert_eq!(
            digest_case(&with_telemetry(&case)),
            pinned(&case.name),
            "{}: enabling telemetry moved the golden digest",
            case.name
        );
    }
}

/// Every sim-backend snapshot across the 3×3 matrix passes the exporter
/// schema checks, and its idle histograms bracket the report's exact
/// Figure 15 quartiles.
#[test]
fn matrix_snapshots_pass_schema_and_reproduce_idle_quartiles() {
    for case in golden_matrix().iter().take(9) {
        let cfg = with_telemetry(case).cfg;
        let out = run_with_scene(&cfg, Backend::Sim, verify_scene());
        let report = out.report.sim().unwrap();
        let snap = report.telemetry.as_ref().expect("telemetry enabled");
        check_snapshot_schema(snap).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert!(
            snap.counter(names::FRAMES_TOTAL, &[]).map(|c| c.value) == Some(case.cfg.frames),
            "{}: frames counter disagrees with the config",
            case.name
        );
        check_idle_quartiles(&report).unwrap_or_else(|e| panic!("{}: {e}", case.name));
    }
}

/// The DES and native backends feed the same sink: their facade
/// outcomes carry schema-clean snapshots with the delivered frame count.
#[test]
fn des_and_native_snapshots_pass_schema_checks() {
    let base = &golden_matrix()[0]; // single-renderer: valid for DES too
    let cfg = with_telemetry(base).cfg;
    for backend in [Backend::Des, Backend::Native] {
        let outcome = run_with_scene(&cfg, backend, verify_scene());
        let snap = outcome
            .telemetry
            .as_ref()
            .unwrap_or_else(|| panic!("{}: telemetry enabled", backend.name()));
        check_snapshot_schema(snap).unwrap_or_else(|e| panic!("{}: {e}", backend.name()));
        assert_eq!(
            snap.counter(names::FRAMES_TOTAL, &[]).map(|c| c.value),
            Some(cfg.frames),
            "{}: frames counter disagrees with the config",
            backend.name()
        );
    }
}
