//! Regenerate the paper's tables and figures.
//!
//! Usage: `experiments [fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig15|
//! fig16|fig17|table1|energy|speedups|all]`

#![forbid(unsafe_code)]

use scc_bench::report;
use scc_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let scene = scc_core::default_scene();

    // `experiments csv <dir>`: write machine-readable series for every
    // plot (consumed by docs/plots/paper_figures.gp).
    if what == "csv" {
        let dir = args.get(1).cloned().unwrap_or_else(|| "target/csv".into());
        std::fs::create_dir_all(&dir).expect("create csv dir");
        let w = |name: &str, data: String| {
            let path = format!("{dir}/{name}");
            std::fs::write(&path, data).expect("write csv");
            println!("wrote {path}");
        };
        w("fig09.csv", report::csv_scaling(&fig9(&scene)));
        w("fig10.csv", report::csv_scaling(&fig10(&scene)));
        w("fig11.csv", report::csv_scaling(&fig11(&scene)));
        w("fig12.csv", report::csv_fig12(&fig12(&scene)));
        w("fig15.csv", report::csv_fig15(&fig15(&scene)));
        let f14: Vec<(String, Vec<(f64, f64)>)> = fig14(&scene, 100.0)
            .into_iter()
            .map(|c| (c.label, c.samples))
            .collect();
        w("fig14.csv", report::csv_power_curves(&f14));
        let f17: Vec<(String, Vec<(f64, f64)>)> = fig17(&scene, 100.0)
            .into_iter()
            .map(|(v, s)| (v.label().to_string(), s))
            .collect();
        w("fig17.csv", report::csv_power_curves(&f17));
        return;
    }

    let Some(text) = paper_text(what, &scene) else {
        eprintln!("unknown experiment '{what}'");
        std::process::exit(2);
    };
    if what == "trace" || what == "all" {
        std::fs::create_dir_all("target").ok();
        let log = pipeline_trace(&scene);
        std::fs::write(PIPELINE_TRACE_PATH, log.to_chrome_json()).expect("write trace");
    }
    print!("{text}");
}
