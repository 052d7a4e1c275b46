//! Rendering: the driver's one-line result, the human-readable metric
//! listing, the results document `run` writes and `compare` reads, the
//! history line and the trace file.

use crate::catalog::{per_layer, Layer, WorkloadSpec, END_TO_END};
use crate::measure::{host_cpus, quartiles, reported, Measured};
use crate::span::Tracer;
use scc_telemetry::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

pub const RESULTS_SCHEMA: &str = "scc-benchmark/1";

/// `benchmark/out/`, git-ignored: trace files and the default results
/// file. Resolved from the manifest, so it is inside the checkout
/// wherever the binary is run from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    write_file(path, &doc.render())
}

/// `trace-<workload>.json`: the traced pass's spans, in start order.
pub fn write_trace(workload: &str, tracer: &Tracer) -> Result<PathBuf, String> {
    let path = out_dir().join(format!("trace-{workload}.json"));
    let doc = Json::obj()
        .field("workload", Json::str(workload))
        .field("spans", tracer.to_json());
    write_file(&path, &doc.render_compact())?;
    Ok(path)
}

/// A per-layer metric's value in a traced run: what the workload
/// measured, or 0 for a layer it bypasses (which did no work).
fn layer_value(m: &Measured, layer: &Layer) -> f64 {
    m.layers.get(layer.name).copied().unwrap_or(0.0)
}

/// Checks on the measurement itself, appended to the run's problems:
/// every name must be in the catalog and every value finite.
pub fn audit(m: &mut Measured, trace: bool) {
    let layers = per_layer();
    let mut found = Vec::new();
    if trace {
        for (name, v) in &m.layers {
            if !layers.iter().any(|l| l.name == name) {
                found.push(format!("per-layer metric {name} is not in the catalog"));
            }
            if !v.is_finite() {
                found.push(format!("per-layer metric {name} is not finite"));
            }
        }
    } else {
        for e in &END_TO_END {
            match m.samples.get(e.name) {
                Some(s) if !s.is_empty() && s.iter().all(|v| v.is_finite() && *v > 0.0) => {}
                _ => found.push(format!(
                    "end-to-end metric {} has no positive samples",
                    e.name
                )),
            }
        }
    }
    if m.attempted == 0 {
        found.push("no operation was checked".into());
    }
    m.problems.extend(found);
}

/// The last line of standard output in driver mode.
pub fn driver_line(m: &Measured, trace: bool) -> String {
    let value = |v: f64, unit: &str| {
        Json::obj()
            .field("value", Json::F64(if v.is_finite() { v } else { 0.0 }))
            .field("unit", Json::str(unit))
    };
    let metrics = if trace {
        per_layer().iter().fold(Json::obj(), |doc, l| {
            doc.field(l.name, value(layer_value(m, l), l.unit))
        })
    } else {
        END_TO_END.iter().fold(Json::obj(), |doc, e| {
            let v = m.samples.get(e.name).map_or(0.0, |s| reported(s, e.better));
            doc.field(e.name, value(v, e.unit))
        })
    };
    outcome(m).field("metrics", metrics).render_compact()
}

/// `correct`, `attempted`, `failed`: the result line's first three keys.
fn outcome(m: &Measured) -> Json {
    Json::obj()
        .field("correct", Json::Bool(m.correct()))
        .field("attempted", Json::U64(m.attempted))
        .field("failed", Json::U64(m.failed))
}

fn checks(m: &Measured) -> Json {
    outcome(m).field(
        "problems",
        Json::Arr(m.problems.iter().map(|p| Json::str(p.clone())).collect()),
    )
}

fn sizes(m: &Measured) -> Json {
    m.sizes
        .iter()
        .fold(Json::obj(), |doc, (k, v)| doc.field(k, Json::U64(*v)))
}

/// One workload's entry in the results document.
pub fn workload_entry(spec: &WorkloadSpec, untraced: &Measured, traced: &Measured) -> Json {
    let end_to_end = END_TO_END.iter().fold(Json::obj(), |doc, e| {
        let samples = &untraced.samples[e.name];
        let q = quartiles(samples);
        doc.field(
            e.name,
            Json::obj()
                .field("unit", Json::str(e.unit))
                .field("better", Json::str(e.better.name()))
                .field("bound", Json::F64(e.bound))
                .field("value", Json::F64(reported(samples, e.better)))
                .field("median", Json::F64(q.median))
                .field("q1", Json::F64(q.q1))
                .field("q3", Json::F64(q.q3))
                .field("count", Json::U64(samples.len() as u64))
                .field(
                    "samples",
                    Json::Arr(samples.iter().map(|v| Json::F64(*v)).collect()),
                ),
        )
    });
    let layers = per_layer().iter().fold(Json::obj(), |doc, l| {
        doc.field(
            l.name,
            Json::obj()
                .field("value", Json::F64(layer_value(traced, l)))
                .field("unit", Json::str(l.unit))
                .field("exact", Json::Bool(l.exact))
                .field("measured", Json::Bool(traced.layers.contains_key(l.name)))
                .field("moves", Json::str(l.moves)),
        )
    });
    Json::obj()
        .field("name", Json::str(spec.name))
        .field("why", Json::str(spec.why))
        .field("sizes", sizes(untraced))
        .field("traced_sizes", sizes(traced))
        .field("untraced", checks(untraced))
        .field("traced", checks(traced))
        .field("end_to_end", end_to_end)
        .field("per_layer", layers)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The results document's header: what the numbers are comparable at.
pub fn results_header(seed: u64, seconds: f64) -> Json {
    Json::obj()
        .field("schema", Json::str(RESULTS_SCHEMA))
        .field(
            "rev",
            Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        )
        .field("rustc", Json::str(command_line("rustc", &["--version"])))
        .field("host_cpus", Json::U64(host_cpus() as u64))
        .field("seed", Json::U64(seed))
        .field("seconds", Json::F64(seconds))
}

/// One `history.jsonl` line: the header's identity fields and each
/// workload's end-to-end values.
pub fn history_line(results: &Json) -> String {
    use crate::json::{as_arr, as_str, get};
    let values = as_arr(get(results, "workloads").expect("workloads"))
        .iter()
        .fold(Json::obj(), |doc, w| {
            let name = as_str(get(w, "name").expect("name")).expect("name");
            let e2e = get(w, "end_to_end").expect("end_to_end");
            let row = END_TO_END.iter().fold(Json::obj(), |row, e| {
                let value = get(get(e2e, e.name).expect("metric"), "value").expect("value");
                row.field(e.name, value.clone())
            });
            doc.field(name, row)
        });
    ["rev", "host_cpus", "seed"]
        .iter()
        .fold(Json::obj(), |doc, k| {
            doc.field(k, get(results, k).expect("header field").clone())
        })
        .field("workloads", values)
        .render_compact()
}

/// A number for a table: six significant digits, whatever its size (a
/// set-up time is microseconds, a byte count is billions).
pub fn show(v: f64) -> String {
    if v == 0.0 || (1e-3..1e9).contains(&v.abs()) {
        let digits = 5 - (v.abs().max(1.0).log10().floor() as usize).min(5);
        format!("{v:.digits$}")
    } else {
        format!("{v:.5e}")
    }
}

/// Every metric the run measured, by name, with its unit.
pub fn print_workload(spec: &WorkloadSpec, untraced: &Measured, traced: &Measured) {
    println!("== {} ({} CPUs)", spec.name, host_cpus());
    for (pass, m) in [("untraced", untraced), ("traced", traced)] {
        println!(
            "   {pass}: {} attempted, {} failed, {}",
            m.attempted,
            m.failed,
            if m.correct() {
                "correct"
            } else {
                "NOT CORRECT"
            }
        );
        for p in &m.problems {
            println!("     problem: {p}");
        }
    }
    for e in &END_TO_END {
        let samples = &untraced.samples[e.name];
        let q = quartiles(samples);
        println!(
            "   {:<42} {:>14} {:<9} q1 {} median {} q3 {} n={}",
            e.name,
            show(reported(samples, e.better)),
            e.unit,
            show(q.q1),
            show(q.median),
            show(q.q3),
            samples.len()
        );
    }
    for l in per_layer() {
        if let Some(v) = traced.layers.get(l.name) {
            println!("   {:<42} {:>14} {}", l.name, show(*v), l.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::show;

    #[test]
    fn numbers_show_six_significant_digits() {
        assert_eq!(show(0.0), "0.00000");
        assert_eq!(show(0.000001289), "1.28900e-6");
        assert_eq!(show(0.0123456789), "0.01235");
        assert_eq!(show(41.909291), "41.9093");
        assert_eq!(show(17072.307357), "17072.3");
        assert_eq!(show(31616489.0), "31616489");
        assert_eq!(show(-2.5), "-2.50000");
        assert_eq!(show(7.35049e10), "7.35049e10");
    }
}
