//! The five committed `BENCH_*.json` documents are derived artifacts:
//! each test below re-runs one virtual-time sweep at the committed
//! geometry (400×400, 48 frames, full fidelity), asserts that sweep's
//! hard gates and compares the rendered JSON byte for byte with the file
//! at the repository root. `docs/sample_experiments_output.txt` is one
//! more: the paper's evaluation as `experiments all` prints it. After an
//! intentional change, rewrite the files with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release -p scc-bench --test bench_documents -- --ignored
//! ```
//!
//! The sweeps take seconds in release and minutes in a debug build, so
//! the tests are ignored by default; CI runs them in release.

use scc_bench::autoplace::measure_autoplace;
use scc_bench::dvfs::measure_dvfs;
use scc_bench::paper_text;
use scc_bench::recovery::measure_recovery;
use scc_bench::serving::measure_serving;
use scc_bench::tasks::measure_tasks;
use scc_core::{default_scene, Fidelity, RunConfig};
use std::path::PathBuf;

/// The paper's 400×400 silent-film geometry the documents record.
fn cfg(pipelines: u32) -> RunConfig {
    RunConfig::builder()
        .pipelines(pipelines)
        .size(400, 400)
        .frames(48)
        .seed(0x51CC_F11F)
        .fidelity(Fidelity::Full)
        .build()
        .expect("document configuration")
}

/// Compare `json` with the committed `file` (a path from the repository
/// root), or rewrite the file when `UPDATE_GOLDEN` is set.
fn check_document(file: &str, json: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, json).expect("write bench document");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{file}: {e} — run with UPDATE_GOLDEN=1 to create it"));
    if want == json {
        return;
    }
    let line = json
        .lines()
        .zip(want.lines())
        .position(|(got, exp)| got != exp)
        .unwrap_or_else(|| json.lines().count().min(want.lines().count()));
    let end = "<end of document>";
    panic!(
        "{file} drifted at line {}\n  got  {}\n  want {}\n\
         rerun with UPDATE_GOLDEN=1 if the change is intended",
        line + 1,
        json.lines().nth(line).unwrap_or(end),
        want.lines().nth(line).unwrap_or(end),
    );
}

#[test]
#[ignore = "full-geometry sweep; run in release with --ignored"]
fn recovery_document_is_current() {
    let report = measure_recovery(&cfg(3), &default_scene(), &[10, 50, 150]);
    assert!(
        report.points.iter().all(|p| p.bit_identical),
        "recovery damaged a frame"
    );
    check_document("BENCH_recovery.json", &report.to_json());
}

#[test]
#[ignore = "full-geometry sweep; run in release with --ignored"]
fn autoplace_document_is_current() {
    let report = measure_autoplace(&cfg(2), &default_scene());
    assert!(
        report.output_consistent,
        "the scheduler placement changed a pixel"
    );
    assert!(
        report.speedup_vs_best_fixed >= 0.99,
        "auto placement lost to a fixed arrangement ({:.3}x)",
        report.speedup_vs_best_fixed
    );
    check_document("BENCH_autoplace.json", &report.to_json());
}

#[test]
#[ignore = "full-geometry sweep; run in release with --ignored"]
fn tasks_document_is_current() {
    let report = measure_tasks(&cfg(2), &default_scene());
    assert!(
        report.output_consistent(),
        "the task runtime changed a pixel"
    );
    assert!(
        report.no_lost_tasks(),
        "the task ledger does not balance (lost tasks)"
    );
    assert!(
        report.spread_reduced(),
        "idle-quartile spread not reduced vs static"
    );
    check_document("BENCH_tasks.json", &report.to_json());
}

#[test]
#[ignore = "full-geometry sweep; run in release with --ignored"]
fn serving_document_is_current() {
    let report = measure_serving(&cfg(2), &default_scene(), &[16, 32, 64]);
    assert!(
        report.cache_transparent(),
        "the strip cache changed a pixel"
    );
    assert!(
        report.cache_speeds_up(),
        "sessions/s not strictly higher with the cache on"
    );
    assert!(
        report.ledger_balanced(),
        "the session ledger does not balance (silent shed)"
    );
    check_document("BENCH_serving.json", &report.to_json());
}

#[test]
#[ignore = "full-geometry sweep; run in release with --ignored"]
fn dvfs_document_is_current() {
    let report = measure_dvfs(&cfg(2), &default_scene());
    assert!(
        report.film_output_consistent,
        "a power plan changed a film pixel"
    );
    assert!(
        report.wavefront_digest_consistent,
        "a power plan or backend drifted the wavefront digest"
    );
    assert!(
        report.decision_parity,
        "governed decision traces split between sim and des"
    );
    assert!(
        report.governed_not_dominated,
        "the governor lost to every static split on time and energy"
    );
    check_document("BENCH_dvfs.json", &report.to_json());
}

#[test]
#[ignore = "every paper figure; run in release with --ignored"]
fn paper_text_is_current() {
    let text = paper_text("all", &default_scene()).expect("a known section");
    check_document("docs/sample_experiments_output.txt", &text);
}
