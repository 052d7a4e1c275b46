//! The `scc-verify` binary: the coverage-guided fault-space fuzzer and its
//! repro replayer. The golden digests are checked (and, under
//! `UPDATE_GOLDEN=1`, regenerated) by `cargo test -p scc-verify --test
//! golden_digests`.
//!
//! ```text
//! scc-verify fuzz [--budget 60s] [--seed N] [--cases K]
//! scc-verify replay <repro.txt>      run the oracle on one repro file
//! ```

#![forbid(unsafe_code)]

use scc_filters::SplitMix;
use scc_verify::fnv1a_str;
use scc_verify::fuzz::{run_oracle, shrink, FuzzCase};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn regressions_dir() -> PathBuf {
    match std::env::var("SCC_REGRESSIONS_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/regressions"),
    }
}

const USAGE: &str = "usage: scc-verify fuzz [--budget 60s] [--seed N] [--cases K] | replay <file>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("replay") => cmd_replay(args.get(1).map(String::as_str)),
        _ => Err(String::new()),
    };
    let code = run.unwrap_or_else(|e| {
        if !e.is_empty() {
            eprintln!("scc-verify: {e}");
        }
        eprintln!("{USAGE}");
        2
    });
    std::process::exit(code);
}

fn parse_budget(s: &str) -> Option<Duration> {
    let (num, mult) = match s.strip_suffix('m') {
        Some(m) => (m, 60),
        None => (s.strip_suffix('s').unwrap_or(s), 1),
    };
    Some(Duration::from_secs(
        num.parse::<u64>().ok()?.checked_mul(mult)?,
    ))
}

/// A flag's parsed value, its default when absent, or an error naming it.
fn flag<T>(
    args: &[String],
    name: &str,
    default: T,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => parse(v).ok_or_else(|| format!("bad {name} value `{v}`")),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The fuzz loop: seed a corpus, then repeatedly pick a recent corpus
/// entry, mutate it, and run the differential oracle. Mutants that reach
/// fault-decision branches or recovery phases no earlier case reached
/// join the corpus; failures are shrunk to minimal repros and written to
/// `tests/regressions/`.
fn cmd_fuzz(args: &[String]) -> Result<i32, String> {
    let budget = flag(args, "--budget", Duration::from_secs(60), parse_budget)?;
    let seed: u64 = flag(args, "--seed", 0xf022, |s| s.parse().ok())?;
    let max_cases: usize = flag(args, "--cases", usize::MAX, |s| s.parse().ok())?;

    // The oracle converts target panics into outcomes; silence the
    // default hook so modelled crashes don't spam the fuzz log.
    std::panic::set_hook(Box::new(|_| {}));

    let mut rng = SplitMix::new(seed);
    let mut corpus: Vec<FuzzCase> = vec![FuzzCase::base(seed)];
    let mut seen = BTreeSet::new();
    let mut failing: Vec<(String, FuzzCase)> = Vec::new();
    let deadline = Instant::now() + budget;
    let mut iterations = 0usize;

    // Charge the coverage map with the corpus seed.
    seen.extend(run_oracle(&corpus[0]).coverage);

    while Instant::now() < deadline && iterations < max_cases {
        iterations += 1;
        // Newest-biased parent selection: recent corpus entries carry the
        // rarest coverage, so they breed first.
        let u: f64 = rng.gen_range(0.0..1.0);
        let idx = corpus.len() - 1 - ((u * u * corpus.len() as f64) as usize).min(corpus.len() - 1);
        let mut mutant = corpus[idx].clone();
        for _ in 0..rng.gen_range(1u32..=3) {
            mutant.mutate(&mut rng);
        }

        let outcome = run_oracle(&mutant);
        let new_features: Vec<String> = outcome
            .coverage
            .iter()
            .filter(|f| !seen.contains(*f))
            .cloned()
            .collect();

        if !outcome.failures.is_empty() {
            let check = outcome.failures[0].check.clone();
            if failing.iter().any(|(c, _)| *c == check) {
                continue; // one repro per distinct check is enough
            }
            println!(
                "[fuzz] iteration {iterations}: {} failure(s), first `{check}` — shrinking",
                outcome.failures.len()
            );
            for f in &outcome.failures {
                println!("[fuzz]   {}: {}", f.check, f.detail);
            }
            let minimal = shrink(mutant, &check);
            let text = minimal.to_text();
            let dir = regressions_dir();
            std::fs::create_dir_all(&dir).expect("create regressions dir");
            let path = dir.join(format!("fuzz-{:016x}.txt", fnv1a_str(&text)));
            std::fs::write(&path, &text).expect("write repro");
            println!(
                "[fuzz] minimal repro ({} lines) -> {}",
                text.lines().count(),
                path.display()
            );
            print!("{text}");
            failing.push((check, minimal));
            continue;
        }

        if !new_features.is_empty() {
            println!(
                "[fuzz] iteration {iterations}: +{} feature(s) ({}), corpus {}",
                new_features.len(),
                new_features.join(", "),
                corpus.len() + 1
            );
            seen.extend(new_features);
            corpus.push(mutant);
        }
    }

    println!(
        "[fuzz] done: {iterations} iterations, corpus {}, {} coverage features, {} failing check(s)",
        corpus.len(),
        seen.len(),
        failing.len()
    );
    for f in &seen {
        println!("[fuzz]   covered {f}");
    }
    Ok(if failing.is_empty() { 0 } else { 1 })
}

/// Re-run the oracle on a saved repro; exits 0 only if it passes.
fn cmd_replay(path: Option<&str>) -> Result<i32, String> {
    let path = path.ok_or("replay needs a repro file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let case = FuzzCase::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
    let outcome = run_oracle(&case);
    if outcome.failures.is_empty() {
        println!("{path}: ok ({} coverage features)", outcome.coverage.len());
        Ok(0)
    } else {
        for f in &outcome.failures {
            eprintln!("{path}: {}: {}", f.check, f.detail);
        }
        Ok(1)
    }
}
