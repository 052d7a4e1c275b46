//! Golden run-digests: the full renderer × arrangement matrix plus the
//! fault, tuning, scheduler, serving and workload variants, pinned as
//! diff-friendly text under `tests/golden/`. Regenerate after an
//! intentional behaviour change with
//! `UPDATE_GOLDEN=1 cargo test -p scc-verify --test golden_digests`.
//!
//! Disabled under `verify-selftest`: the planted mutants make every
//! digest (deliberately) wrong.
#![cfg(not(feature = "verify-selftest"))]

use scc_verify::{
    autoplace_decision_digest, des_recovered_digest, digest_case, golden_matrix,
    native_tuning_digest, serving_burst_digest, serving_smoke_digest, workload_digest,
    workload_goldens,
};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn check_or_update(name: &str, digest: &str) -> Result<(), String> {
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, digest).expect("write golden file");
        return Ok(());
    }
    let want = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} — run UPDATE_GOLDEN=1 to create it", path.display()))?;
    if want == digest {
        return Ok(());
    }
    let mut msg = format!("{name}: digest drifted from {}\n", path.display());
    for (l, (got, exp)) in digest.lines().zip(want.lines()).enumerate() {
        if got != exp {
            msg.push_str(&format!(
                "  line {}: got  {got}\n  line {}: want {exp}\n",
                l + 1,
                l + 1
            ));
        }
    }
    Err(msg)
}

#[test]
fn golden_matrix_digests_match_the_pinned_files() {
    let mut drift = Vec::new();
    for case in golden_matrix() {
        if let Err(e) = check_or_update(&case.name, &digest_case(&case)) {
            drift.push(e);
        }
    }
    assert!(drift.is_empty(), "{}", drift.join("\n"));
}

#[test]
fn native_tuning_digest_matches_the_pinned_file() {
    if let Err(e) = check_or_update("native-tuning", &native_tuning_digest()) {
        panic!("{e}");
    }
}

#[test]
fn serving_smoke_digest_matches_the_pinned_file() {
    if let Err(e) = check_or_update("serving-smoke", &serving_smoke_digest()) {
        panic!("{e}");
    }
}

#[test]
fn serving_burst_digest_matches_the_pinned_file() {
    if let Err(e) = check_or_update("serving-burst", &serving_burst_digest()) {
        panic!("{e}");
    }
}

#[test]
fn workload_digests_match_the_pinned_files() {
    let mut drift = Vec::new();
    for case in workload_goldens() {
        if let Err(e) = check_or_update(&case.name, &workload_digest(&case)) {
            drift.push(e);
        }
    }
    assert!(drift.is_empty(), "{}", drift.join("\n"));
}

#[test]
fn des_recovered_digest_matches_the_pinned_file() {
    if let Err(e) = check_or_update("des-recovered", &des_recovered_digest()) {
        panic!("{e}");
    }
}

#[test]
fn autoplace_decision_digest_matches_the_pinned_file() {
    if let Err(e) = check_or_update("autoplace-decision", &autoplace_decision_digest()) {
        panic!("{e}");
    }
}

/// The acceptance bar: two consecutive runs of the whole matrix must be
/// byte-identical — no wall-clock, allocator or iteration-order leak.
#[test]
fn consecutive_matrix_runs_are_byte_identical() {
    for case in golden_matrix() {
        assert_eq!(
            digest_case(&case),
            digest_case(&case),
            "{}: two consecutive runs disagree",
            case.name
        );
    }
    assert_eq!(native_tuning_digest(), native_tuning_digest());
    assert_eq!(autoplace_decision_digest(), autoplace_decision_digest());
    assert_eq!(serving_smoke_digest(), serving_smoke_digest());
    assert_eq!(serving_burst_digest(), serving_burst_digest());
    assert_eq!(des_recovered_digest(), des_recovered_digest());
}
