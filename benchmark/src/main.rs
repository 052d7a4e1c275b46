//! The repository's benchmark: seven workloads over the native, simulated
//! and serving paths, end-to-end metrics with tracing off, a per-layer
//! traced pass, output checks. Every layer is measured from outside,
//! through its crate's public functions. See `README.md` beside this
//! crate for the metric tables and how the layers interact.
//!
//! ```text
//! scc-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one measured run; the last line of stdout is the result as JSON
//! scc-benchmark run [--seed N] [--seconds S] [--workload NAME] [--out PATH] [--record]
//!     every workload untraced then traced; prints every metric and
//!     writes the results document (default benchmark/out/results.json)
//! scc-benchmark compare A.json B.json
//!     B against A by each metric's direction and bound
//! scc-benchmark catalog
//!     prints BENCHMARK.json
//! ```

mod catalog;
mod compare;
mod json;
mod matrix;
mod measure;
mod native;
mod report;
mod serving;
mod span;

use catalog::{WorkloadSpec, RUN_SECONDS, WORKLOADS};
use measure::{Measured, Seeds, DEFAULT_SEED};
use native::Film;
use scc_telemetry::Json;
use span::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

/// One run of `workload`: end-to-end samples with tracing off, or the
/// per-layer pass with its spans.
fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Measured, Tracer), String> {
    let seeds = Seeds::derive(seed);
    let film = match workload {
        "film_native" => Some(Film::Full),
        "film_native_strips" => Some(Film::Strips),
        "film_native_flat" => Some(Film::Flat),
        _ => None,
    };
    let mut tracer = Tracer::new();
    let mut m = match (workload, film, trace) {
        (_, Some(film), false) => native::untraced(film, &seeds, seconds),
        (_, Some(film), true) => native::traced(film, &seeds, &mut tracer),
        ("paper_matrix", _, false) => matrix::matrix_untraced(&seeds, seconds),
        ("paper_matrix", _, true) => matrix::matrix_traced(&seeds, &mut tracer),
        ("film_governed", _, false) => matrix::governed_untraced(&seeds, seconds),
        ("film_governed", _, true) => matrix::governed_traced(&seeds, &mut tracer),
        ("serve_overlap", _, false) => serving::untraced(false, &seeds, seconds),
        ("serve_overlap", _, true) => serving::traced(false, &seeds, &mut tracer),
        ("serve_churn", _, false) => serving::untraced(true, &seeds, seconds),
        ("serve_churn", _, true) => serving::traced(true, &seeds, &mut tracer),
        _ => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload `{workload}`; one of {names:?}"));
        }
    };
    report::audit(&mut m, trace);
    Ok((m, tracer))
}

/// `--key value` pairs and bare flags, in any order.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn value(&mut self, key: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == key) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{key} needs a value"));
        }
        self.rest.remove(i);
        Ok(Some(self.rest.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.value(key)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{key}: cannot read `{v}`")),
        }
    }

    fn flag(&mut self, key: &str) -> bool {
        let found = self.rest.iter().position(|a| a == key);
        found.map(|i| self.rest.remove(i)).is_some()
    }

    fn done(self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected arguments {:?}", self.rest))
        }
    }

    fn seconds(&mut self) -> Result<f64, String> {
        let seconds = self.parsed("--seconds")?.unwrap_or(RUN_SECONDS as f64);
        if (0.0..=600.0).contains(&seconds) {
            Ok(seconds)
        } else {
            Err(format!("--seconds {seconds} is outside 0..=600"))
        }
    }
}

/// Standard error: the failed checks, and every end-to-end sample (the
/// result line carries only one number per metric).
fn report_problems(workload: &str, m: &Measured) {
    for p in &m.problems {
        eprintln!("{workload}: {p}");
    }
    for (metric, samples) in &m.samples {
        eprintln!("{workload}: {metric} samples {samples:?}");
    }
}

/// Driver mode: one run, one JSON line.
fn single(mut args: Args) -> Result<ExitCode, String> {
    let workload = args
        .value("--workload")?
        .ok_or("--workload NAME is required")?;
    let seed = args.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds()?;
    let trace = match args.parsed::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    args.done()?;
    let (m, tracer) = measure(&workload, seed, seconds, trace)?;
    report_problems(&workload, &m);
    if trace {
        report::write_trace(&workload, &tracer)?;
    }
    println!("{}", report::driver_line(&m, trace));
    Ok(ExitCode::SUCCESS)
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    let seed = args.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds()?;
    let only = args.value("--workload")?;
    let out = args
        .value("--out")?
        .map_or_else(|| report::out_dir().join("results.json"), PathBuf::from);
    let record = args.flag("--record");
    args.done()?;
    let chosen: Vec<&WorkloadSpec> = WORKLOADS
        .iter()
        .filter(|w| only.as_deref().is_none_or(|o| o == w.name))
        .collect();
    if chosen.is_empty() {
        return Err(format!("unknown workload `{}`", only.unwrap_or_default()));
    }
    let mut entries = Vec::new();
    let mut all_correct = true;
    for spec in chosen {
        let (untraced, _) = measure(spec.name, seed, seconds, false)?;
        let (traced, tracer) = measure(spec.name, seed, seconds, true)?;
        report::write_trace(spec.name, &tracer)?;
        report::print_workload(spec, &untraced, &traced);
        all_correct &= untraced.correct() && traced.correct();
        entries.push(report::workload_entry(spec, &untraced, &traced));
    }
    let results = report::results_header(seed, seconds).field("workloads", Json::Arr(entries));
    report::write_json(&out, &results)?;
    println!("results: {}", out.display());
    if record {
        use std::io::Write as _;
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("history.jsonl");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", report::history_line(&results))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("recorded: {}", path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: Args) -> Result<ExitCode, String> {
    let [a, b] = args.rest.as_slice() else {
        return Err("compare takes two results files".into());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let ok = compare::compare(&read(a)?, &read(b)?)?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut rest: Vec<String> = std::env::args().skip(1).collect();
    let command = match rest.first() {
        Some(first) if !first.starts_with("--") => rest.remove(0),
        _ => String::new(),
    };
    let args = Args { rest };
    let outcome = match command.as_str() {
        "" => single(args),
        "run" => run(args),
        "compare" => compare_files(args),
        "catalog" => {
            print!("{}", catalog::benchmark_json().render());
            args.done().map(|()| ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown command `{other}`; see the crate documentation"
        )),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("scc-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{per_layer, END_TO_END};
    use crate::json::{as_arr, as_f64, as_str, get};

    #[test]
    fn benchmark_json_lists_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc,
            json::parse(&catalog::benchmark_json().render()).unwrap()
        );
        let names = |key: &str| -> Vec<String> {
            as_arr(get(&doc, key).unwrap())
                .iter()
                .map(|m| as_str(get(m, "name").unwrap()).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        let layers: Vec<&str> = per_layer().into_iter().map(|l| l.name).collect();
        assert_eq!(names("per_layer"), layers);
        assert_eq!(
            as_f64(get(&doc, "run_seconds").unwrap()),
            Some(RUN_SECONDS as f64)
        );

        // The driver line carries exactly those names, whatever ran.
        let mut m = Measured::default();
        m.samples.insert("host_frames_per_s", vec![2.0, 4.0, 3.0]);
        m.samples.insert("setup_s", vec![0.5]);
        m.layer("serve.shed", 0.0);
        m.attempted = 1;
        for (trace, want) in [(false, names("end_to_end")), (true, names("per_layer"))] {
            let line = json::parse(&report::driver_line(&m, trace)).unwrap();
            let Json::Obj(metrics) = get(&line, "metrics").unwrap() else {
                panic!("metrics is an object");
            };
            let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(got, want);
            let Json::Obj(top) = &line else {
                panic!("object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
        let line = json::parse(&report::driver_line(&m, false)).unwrap();
        let fps = get(get(&line, "metrics").unwrap(), "host_frames_per_s").unwrap();
        // The best sample, not the median.
        assert_eq!(as_f64(get(fps, "value").unwrap()), Some(4.0));
    }

    #[test]
    fn arguments_parse_in_any_order() {
        let mut args = Args {
            rest: ["--seed", "7", "--record", "--workload", "x"]
                .map(String::from)
                .to_vec(),
        };
        assert!(args.flag("--record"));
        assert_eq!(args.value("--workload").unwrap().as_deref(), Some("x"));
        assert_eq!(args.parsed::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(args.parsed::<u64>("--seconds").unwrap(), None);
        assert!(args.done().is_ok());
        let mut bad = Args {
            rest: ["--seed"].map(String::from).to_vec(),
        };
        assert!(bad.value("--seed").is_err());
        assert!(measure("nope", 1, 0.0, false).is_err());
    }
}
