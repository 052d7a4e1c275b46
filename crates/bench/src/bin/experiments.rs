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

    let run_one = |name: &str| match name {
        "fig8" => {
            println!("== Figure 8 ==");
            println!(
                "{}",
                report::render_fig8(&fig8(std::sync::Arc::clone(&scene)))
            );
        }
        "fig9" => {
            println!("== Figure 9 ==");
            println!(
                "{}",
                report::render_scaling("Rendering time with 1 Renderer", &fig9(&scene))
            );
        }
        "fig10" => {
            println!("== Figure 10 ==");
            println!(
                "{}",
                report::render_scaling("Rendering time with n Renderer", &fig10(&scene))
            );
        }
        "fig11" => {
            println!("== Figure 11 ==");
            println!(
                "{}",
                report::render_scaling("Rendering time with MCPC for rendering", &fig11(&scene))
            );
        }
        "fig12" => {
            println!("== Figure 12 ==");
            println!("{}", report::render_fig12(&fig12(&scene)));
        }
        "fig13" => {
            println!("== Figure 13 ==");
            println!("{}", scc_bench::render_fig13(&scene));
        }
        "fig14" => {
            println!("== Figure 14 ==");
            println!("{}", report::render_fig14(&fig14(&scene, 100.0)));
        }
        "fig15" => {
            println!("== Figure 15 ==");
            println!("{}", report::render_fig15(&fig15(&scene)));
        }
        "fig16" => {
            println!("== Figure 16 ==");
            for (v, t) in fig16(&scene) {
                println!("  {:<28} {:>7.1} s", v.label(), t);
            }
            println!();
        }
        "fig17" => {
            println!("== Figure 17 ==");
            let curves: Vec<(String, Vec<(f64, f64)>)> = fig17(&scene, 100.0)
                .into_iter()
                .map(|(v, s)| (v.label().to_string(), s))
                .collect();
            println!(
                "{}",
                report::render_power_curves("SCC power consumption with fast blur stage", &curves)
            );
        }
        "table1" => {
            println!("== Table I ==");
            let mut rows = table1_scc(&scene);
            rows.extend(scc_bench::table1_cluster(&scene));
            println!("{}", report::render_table1(&rows));
        }
        "trace" => {
            println!("== Stage timeline trace ==");
            let config = scc_core::RunConfig::builder()
                .renderer(scc_core::RendererMode::McpcRenderer)
                .arrangement(scc_core::Arrangement::Ordered)
                .pipelines(3)
                .frames(25)
                .trace(true)
                .build()
                .expect("valid config");
            let r = scc_bench::run(config, std::sync::Arc::clone(&scene));
            let log = r.trace.expect("trace enabled");
            let path = "target/pipeline_trace.json";
            std::fs::create_dir_all("target").ok();
            std::fs::write(path, log.to_chrome_json()).expect("write trace");
            println!(
                "  wrote {} spans to {path} (open in chrome://tracing or Perfetto)",
                log.events().len()
            );
            println!(
                "  blur compute total {:.1}s, blur wait total {:.1}s\n",
                log.phase_total(scc_core::StageKind::Blur, scc_core::trace::Phase::Compute)
                    .as_secs_f64(),
                log.phase_total(scc_core::StageKind::Blur, scc_core::trace::Phase::Wait)
                    .as_secs_f64()
            );
        }
        "freq" => {
            println!("== Uniform frequency sweep ==");
            println!("{}", render_freq(&freq_sweep(&scene)));
        }
        "sensitivity" => {
            println!("== Calibration sensitivity ==");
            println!("{}", render_sensitivity(&sensitivity(&scene)));
        }
        "whatif" => {
            println!("== Local-memory what-if (conclusion) ==");
            println!("{}", render_whatif(&whatif(&scene)));
        }
        "energy" => {
            println!("== Energy (§VI-B) ==");
            println!("{}", report::render_energy(&energy_comparison(&scene)));
        }
        "speedups" => {
            println!("== Speed-ups (§VI-A) ==");
            let base = fig8(std::sync::Arc::clone(&scene)).total_secs;
            for mode in [
                scc_core::RendererMode::SingleRenderer,
                scc_core::RendererMode::PerPipelineRenderer,
                scc_core::RendererMode::McpcRenderer,
            ] {
                let s = speedup_summary(mode, &scene, base);
                println!(
                    "  {:<14} best {} pl.: {:>6.1}s  speedup {:.2}x vs core, {:.2}x vs 1 pl.",
                    mode.name(),
                    s.best_pipelines,
                    s.best_secs,
                    s.speedup_vs_core,
                    s.speedup_vs_pipeline
                );
            }
            println!();
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    };

    if what == "all" {
        for name in [
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "table1",
            "energy",
            "speedups",
            "whatif",
            "sensitivity",
            "freq",
            "trace",
        ] {
            run_one(name);
        }
    } else {
        run_one(what);
    }
}
