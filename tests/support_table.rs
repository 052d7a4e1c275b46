//! The (backend, config) support table, pinned cell by cell.
//!
//! Every tiny config over backend x runtime x workload x renderer x fault
//! shape goes through `scc_core::run`; the table records, as literals,
//! whether the cell runs (`ok`), is refused by `build()` (`--`), or is
//! refused by the backend — and then with which key phrase.

use scc_core::{
    run, try_run, Backend, FaultSpec, Fidelity, GenericChainSpec, GenericStageSpec, KillSpec,
    RendererMode, RunConfig, RunError, Runtime, StallSpec, WavefrontSpec, Workload,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

const BACKENDS: [Backend; 3] = [Backend::Sim, Backend::Des, Backend::Native];
const RUNTIMES: [Runtime; 2] = [Runtime::Static, Runtime::Tasks];
const WORKLOADS: [&str; 3] = ["film", "generic", "wavefront"];
const RENDERERS: [RendererMode; 3] = [
    RendererMode::SingleRenderer,
    RendererMode::PerPipelineRenderer,
    RendererMode::McpcRenderer,
];
const FAULTS: [&str; 5] = ["none", "lossy", "stall", "kill", "kill-no-spare"];

/// One row per (backend, runtime, workload), in enumeration order; the
/// fifteen cells of a row are renderer-major (single, per-pipeline, MCPC),
/// each over the five fault shapes of [`FAULTS`].
#[rustfmt::skip]
const TABLE: [&str; 18] = [
    // sim, static: film / generic / wavefront
    "ok ok ok ok ok   ok ok ok ok ok   ok ok ok ok ok",
    "ok -- -- -- --   ok -- -- -- --   ok -- -- -- --",
    "ok -- -- -- --   ok -- -- -- --   ok -- -- -- --",
    // sim, tasks
    "ok ok ok ok ok   ok ok ok ok ok   ok ok ok ok ok",
    "-- -- -- -- --   -- -- -- -- --   -- -- -- -- --",
    "-- -- -- -- --   -- -- -- -- --   -- -- -- -- --",
    // des, static
    "ok kills-only kills-only ok spare   single single single single single   single single single single single",
    "ok -- -- -- --   ok -- -- -- --   ok -- -- -- --",
    "ok -- -- -- --   ok -- -- -- --   ok -- -- -- --",
    // des, tasks
    "ok ok ok ok ok   ok ok ok ok ok   ok ok ok ok ok",
    "-- -- -- -- --   -- -- -- -- --   -- -- -- -- --",
    "-- -- -- -- --   -- -- -- -- --   -- -- -- -- --",
    // native, static
    "ok ok ok ok ok   ok ok ok ok ok   ok ok ok ok ok",
    "film-only -- -- -- --   film-only -- -- -- --   film-only -- -- -- --",
    "film-only -- -- -- --   film-only -- -- -- --   film-only -- -- -- --",
    // native, tasks
    "static-only static-only static-only static-only static-only   static-only static-only static-only static-only static-only   static-only static-only static-only static-only static-only",
    "-- -- -- -- --   -- -- -- -- --   -- -- -- -- --",
    "-- -- -- -- --   -- -- -- -- --   -- -- -- -- --",
];

/// The phrase a refusal's message must contain, per table token.
fn key_phrase(token: &str) -> &'static str {
    match token {
        "single" => "single-renderer",
        "kills-only" => "fail-stop kills only",
        "spare" => "requires a spare for every kill",
        "film-only" => "the native backend runs the film workload only",
        "static-only" => "the native backend runs the static pipeline only",
        other => panic!("unknown table token {other:?}"),
    }
}

fn workload(name: &str) -> Workload {
    match name {
        "film" => Workload::Film,
        "generic" => Workload::Generic(GenericChainSpec {
            stages: vec![
                GenericStageSpec::compute("a", 2.0),
                GenericStageSpec::compute("b", 3.0),
            ],
            items: 3,
            source_bytes: 4096,
        }),
        "wavefront" => Workload::Wavefront(WavefrontSpec {
            width: 16,
            height: 16,
            seeds: 2,
            max_waves: 3,
        }),
        other => panic!("unknown workload {other:?}"),
    }
}

fn fault(name: &str) -> Option<FaultSpec> {
    let kill = |max_spares| FaultSpec {
        kills: vec![KillSpec {
            pipeline: 1,
            stage: 2,
            at_ms: 1,
        }],
        heartbeat_period_us: 2_000,
        phi_dead: 2.0,
        max_spares,
        ..FaultSpec::default()
    };
    match name {
        "none" => None,
        "lossy" => Some(FaultSpec {
            drop_rate: 0.05,
            ..FaultSpec::default()
        }),
        "stall" => Some(FaultSpec {
            stall: Some(StallSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 1,
                for_ms: 2,
            }),
            ..FaultSpec::default()
        }),
        "kill" => Some(kill(u32::MAX)),
        "kill-no-spare" => Some(kill(0)),
        other => panic!("unknown fault shape {other:?}"),
    }
}

/// Every cell with its table token, in enumeration order. `None` for the
/// config when `build()` refuses the cell.
fn cells() -> Vec<(String, Backend, Option<RunConfig>, &'static str)> {
    let mut out = Vec::new();
    let mut rows = TABLE.iter();
    for backend in BACKENDS {
        for runtime in RUNTIMES {
            for wl in WORKLOADS {
                let row: Vec<&'static str> = rows
                    .next()
                    .expect("one row per (backend, runtime, workload)")
                    .split_whitespace()
                    .collect();
                assert_eq!(row.len(), RENDERERS.len() * FAULTS.len());
                let mut tokens = row.into_iter();
                for renderer in RENDERERS {
                    for f in FAULTS {
                        let cfg = RunConfig::builder()
                            .renderer(renderer)
                            .pipelines(2)
                            .size(48, 40)
                            .frames(3)
                            .fidelity(Fidelity::TimingOnly)
                            .runtime(runtime)
                            .workload(workload(wl))
                            .fault(fault(f))
                            .build()
                            .ok();
                        let label = format!("{} {runtime:?} {wl} {renderer:?} {f}", backend.name());
                        out.push((label, backend, cfg, tokens.next().expect("fifteen cells")));
                    }
                }
            }
        }
    }
    out
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast::<&'static str>()
            .map_or_else(|_| "?".into(), |s| s.to_string()),
    }
}

#[test]
fn run_accepts_and_refuses_exactly_the_pinned_cells() {
    let mut wrong = Vec::new();
    for (label, backend, cfg, token) in cells() {
        let got = match &cfg {
            None => "--".to_string(),
            Some(cfg) => match catch_unwind(AssertUnwindSafe(|| run(cfg, backend))) {
                Ok(_) => "ok".to_string(),
                Err(p) => panic_text(p),
            },
        };
        let matches = match token {
            "--" | "ok" => got == token,
            refusal => got.contains(key_phrase(refusal)),
        };
        if !matches {
            wrong.push(format!("{label}: pinned {token:?}, got {got:?}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} cell(s) moved:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// The same cells through `try_run`: `ok` is `Ok`, every refusal is
/// `Err(Unsupported)` naming the backend and carrying the pinned phrase,
/// and nothing panics.
#[test]
fn try_run_answers_every_pinned_cell_without_panicking() {
    for (label, backend, cfg, token) in cells() {
        let Some(cfg) = cfg else { continue };
        let got = catch_unwind(AssertUnwindSafe(|| try_run(&cfg, backend)))
            .unwrap_or_else(|p| panic!("{label}: try_run panicked: {}", panic_text(p)));
        match (token, got) {
            ("ok", Ok(out)) => assert_eq!(out.backend, backend, "{label}"),
            ("ok", Err(e)) => panic!("{label}: pinned ok, refused: {e}"),
            (_, Ok(_)) => panic!("{label}: pinned {token:?}, ran"),
            (_, Err(RunError::Unsupported { backend: b, why })) => {
                assert_eq!(b, backend, "{label}");
                assert!(why.contains(key_phrase(token)), "{label}: {why}");
            }
            (_, Err(e)) => panic!("{label}: pinned {token:?}, got {e}"),
        }
    }
}
