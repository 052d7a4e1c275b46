//! Wall-clock benchmark runner: measures host-native pipeline throughput
//! and writes `BENCH_native_pipeline.json` so every PR has a perf
//! trajectory to compare against. The `recovery` mode instead sweeps the
//! supervised fail-stop scenario (kill time × arrangement, virtual time)
//! and writes `BENCH_recovery.json`.
//!
//! Usage:
//!   bench [--smoke] [--out PATH] [--frames N] [--size WxH]
//!         [--pipelines P] [--threads 1,2,4,8]
//!   bench recovery [--smoke] [--out PATH] [--frames N] [--size WxH]
//!                  [--pipelines P] [--kills 10,50,150]
//!   bench autoplace [--smoke] [--out PATH] [--frames N] [--size WxH]
//!                   [--pipelines P]
//!   bench tasks [--smoke] [--out PATH] [--frames N] [--size WxH]
//!               [--pipelines P]
//!   bench serving [--smoke] [--out PATH] [--size WxH] [--pipelines P]
//!                 [--sessions 8,16,32]
//!   bench dvfs [--smoke] [--out PATH] [--frames N] [--size WxH]
//!
//! `--smoke` shrinks everything to a seconds-long configuration for CI;
//! the defaults measure the paper's 400×400 silent-film geometry.
//! `autoplace` sweeps the stage-graph scheduler's placement against the
//! three fixed arrangements in virtual time and writes
//! `BENCH_autoplace.json`.

#![forbid(unsafe_code)]

use scc_bench::autoplace::measure_autoplace;
use scc_bench::dvfs::measure_dvfs;
use scc_bench::native_throughput::measure_native_throughput;
use scc_bench::recovery::measure_recovery;
use scc_bench::serving::measure_serving;
use scc_bench::tasks::measure_tasks;
use scc_core::{default_scene, Fidelity, RunConfig};

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Comma-separated numeric list flag, e.g. `--threads 1,2,4`.
fn parse_list<T: std::str::FromStr>(args: &[String], name: &str) -> Option<Vec<T>> {
    parse_flag(args, name).map(|v| {
        v.split(',')
            .map(|t| t.trim().parse().unwrap_or_else(|_| panic!("{name} a,b,c")))
            .collect()
    })
}

/// The flags every mode shares, parsed once.
struct Opts {
    args: Vec<String>,
    smoke: bool,
    /// `" (smoke)"` on the progress line of a smoke run.
    smoke_tag: &'static str,
    width: u32,
    height: u32,
    frames: u64,
    pipelines: u32,
}

impl Opts {
    fn cfg(&self) -> RunConfig {
        RunConfig::builder()
            .pipelines(self.pipelines)
            .size(self.width, self.height)
            .frames(self.frames)
            .seed(0x51CC_F11F)
            .fidelity(Fidelity::Full)
            .build()
            .expect("bench configuration")
    }
}

/// What a mode hands back: the table to print, the JSON to write, and
/// its hard gates in check order as `(passed, FATAL message)`.
struct Measured {
    text: String,
    json: String,
    gates: Vec<(bool, String)>,
}

fn gate(passed: bool, fatal: &str) -> (bool, String) {
    (passed, fatal.to_string())
}

fn native(o: &Opts) -> Measured {
    let threads: Vec<u32> = parse_list(&o.args, "--threads").unwrap_or_else(|| {
        if o.smoke {
            vec![1, 2]
        } else {
            vec![1, 2, 4]
        }
    });
    eprintln!(
        "measuring native throughput: {}x{} f={} p={} threads={threads:?}{}",
        o.width, o.height, o.frames, o.pipelines, o.smoke_tag,
    );
    let report = measure_native_throughput(&o.cfg(), &default_scene(), &threads);
    Measured {
        text: report.render_text(),
        json: report.to_json(),
        gates: vec![gate(
            report.output_consistent,
            "tuning variants produced different pixels",
        )],
    }
}

fn recovery(o: &Opts) -> Measured {
    let kills: Vec<u64> = parse_list(&o.args, "--kills").unwrap_or_else(|| {
        if o.smoke {
            vec![1, 5]
        } else {
            vec![10, 50, 150]
        }
    });
    eprintln!(
        "measuring supervised recovery: {}x{} f={} p={} kills={kills:?} ms{}",
        o.width, o.height, o.frames, o.pipelines, o.smoke_tag,
    );
    let report = measure_recovery(&o.cfg(), &default_scene(), &kills);
    Measured {
        text: report.render_text(),
        json: report.to_json(),
        gates: vec![gate(
            report.points.iter().all(|p| p.bit_identical),
            "recovery damaged a frame",
        )],
    }
}

fn autoplace(o: &Opts) -> Measured {
    eprintln!(
        "measuring auto-placement vs fixed arrangements: {}x{} f={} p={}{}",
        o.width, o.height, o.frames, o.pipelines, o.smoke_tag,
    );
    let report = measure_autoplace(&o.cfg(), &default_scene());
    Measured {
        text: report.render_text(),
        json: report.to_json(),
        gates: vec![
            gate(
                report.output_consistent,
                "the scheduler placement changed a pixel",
            ),
            (
                report.speedup_vs_best_fixed >= 0.99,
                format!(
                    "auto placement lost to a fixed arrangement \
                     ({:.3}x)",
                    report.speedup_vs_best_fixed
                ),
            ),
        ],
    }
}

fn tasks(o: &Opts) -> Measured {
    eprintln!(
        "measuring task runtime vs static pipeline: {}x{} f={} p={}{}",
        o.width, o.height, o.frames, o.pipelines, o.smoke_tag,
    );
    let report = measure_tasks(&o.cfg(), &default_scene());
    Measured {
        text: report.render_text(),
        json: report.to_json(),
        gates: vec![
            gate(
                report.output_consistent(),
                "the task runtime changed a pixel",
            ),
            gate(
                report.no_lost_tasks(),
                "the task ledger does not balance (lost tasks)",
            ),
            gate(
                report.spread_reduced(),
                "idle-quartile spread not reduced vs static",
            ),
        ],
    }
}

fn serving(o: &Opts) -> Measured {
    let session_counts: Vec<u32> = parse_list(&o.args, "--sessions").unwrap_or_else(|| {
        if o.smoke {
            vec![4, 8]
        } else {
            vec![16, 32, 64]
        }
    });
    eprintln!(
        "measuring serving layer: {}x{} p={} sessions={session_counts:?}{}",
        o.width, o.height, o.pipelines, o.smoke_tag,
    );
    let report = measure_serving(&o.cfg(), &default_scene(), &session_counts);
    Measured {
        text: report.render_text(),
        json: report.to_json(),
        gates: vec![
            gate(
                report.cache_transparent(),
                "the strip cache changed a pixel",
            ),
            gate(
                report.cache_speeds_up(),
                "sessions/s not strictly higher with the cache on",
            ),
            gate(
                report.ledger_balanced(),
                "the session ledger does not balance (silent shed)",
            ),
        ],
    }
}

fn dvfs(o: &Opts) -> Measured {
    eprintln!(
        "measuring dvfs power plane: film {}x{} f={} + wavefront{}",
        o.width, o.height, o.frames, o.smoke_tag,
    );
    let report = measure_dvfs(&o.cfg(), &default_scene());
    Measured {
        text: report.render_text(),
        json: report.to_json(),
        gates: vec![
            gate(
                report.film_output_consistent,
                "a power plan changed a film pixel",
            ),
            gate(
                report.wavefront_digest_consistent,
                "a power plan or backend drifted the wavefront digest",
            ),
            gate(
                report.decision_parity,
                "governed decision traces split between sim and des",
            ),
            gate(
                report.governed_not_dominated,
                "the governor lost to every static split on time and energy",
            ),
        ],
    }
}

/// One row per mode: subcommand, default output file, measurement.
type Mode = (&'static str, &'static str, fn(&Opts) -> Measured);

const MODES: [Mode; 5] = [
    ("recovery", "BENCH_recovery.json", recovery),
    ("autoplace", "BENCH_autoplace.json", autoplace),
    ("tasks", "BENCH_tasks.json", tasks),
    ("serving", "BENCH_serving.json", serving),
    ("dvfs", "BENCH_dvfs.json", dvfs),
];

/// No subcommand: host-native pipeline throughput.
const NATIVE: Mode = ("native", "BENCH_native_pipeline.json", native);

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let named = MODES
        .iter()
        .find(|(name, _, _)| args.first().is_some_and(|a| a == name));
    if named.is_some() {
        args.remove(0);
    }
    let (name, default_out, measure) = *named.unwrap_or(&NATIVE);

    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = parse_flag(&args, "--out").unwrap_or_else(|| default_out.into());
    let (mut width, mut height) = if smoke { (64, 64) } else { (400, 400) };
    if let Some(size) = parse_flag(&args, "--size") {
        let (w, h) = size.split_once('x').expect("--size WxH");
        width = w.parse().expect("width");
        height = h.parse().expect("height");
    }
    let frames: u64 = parse_flag(&args, "--frames")
        .map(|v| v.parse().expect("--frames N"))
        .unwrap_or(if smoke { 4 } else { 48 });
    let pipelines: u32 = parse_flag(&args, "--pipelines")
        .map(|v| v.parse().expect("--pipelines P"))
        .unwrap_or(if name == "recovery" { 3 } else { 2 });

    let measured = measure(&Opts {
        args,
        smoke,
        smoke_tag: if smoke { " (smoke)" } else { "" },
        width,
        height,
        frames,
        pipelines,
    });
    print!("{}", measured.text);
    std::fs::write(&out_path, measured.json).expect("write bench json");
    println!("wrote {out_path}");
    if let Some((_, fatal)) = measured.gates.iter().find(|(passed, _)| !passed) {
        eprintln!("FATAL: {fatal}");
        std::process::exit(1);
    }
}
