//! The §VI-D experiment: accelerate the blur stage to 800 MHz, then claw
//! the power back by undervolting the downstream island to 400 MHz/0.7 V
//! (Figures 16–18).
//!
//! ```sh
//! cargo run --release -p scc-core --example dvfs_tuning
//! ```

use scc_core::{
    default_scene, place_dvfs_single_pipeline, CostModel, PowerConfig, RendererMode, RunConfig,
    SimRunner,
};
use scc_sim::{FreqMHz, IslandId, SccConfig, SccPlatform};
use std::sync::Arc;

fn main() {
    // The island-aware placement is a part `scc_core::try_run` does not
    // take, so this example uses the one parts-override constructor,
    // `SimRunner::with_parts` — same config check as the front door, a
    // `Result` back; the frequency plan itself is plain
    // `RunConfig::power`.
    let scene = default_scene();
    let config = RunConfig::builder()
        .renderer(RendererMode::McpcRenderer)
        .pipelines(1)
        .build()
        .expect("valid config");
    // Island-aware placement (Figure 18): blur alone in its voltage
    // island, the post-blur stages together in another.
    let placement = place_dvfs_single_pipeline(RendererMode::McpcRenderer);
    let blur = placement.pipelines[0][1];
    let downstream_island = IslandId::of_tile(placement.pipelines[0][2].tile());

    let variants: Vec<(&str, Vec<(scc_sim::CoreId, FreqMHz)>)> = vec![
        ("all stages at 533 MHz", vec![]),
        ("blur tile at 800 MHz", vec![(blur, FreqMHz::F800)]),
        ("blur 800 MHz + downstream island 400 MHz", {
            let mut v = vec![(blur, FreqMHz::F800)];
            for tile in downstream_island.tiles() {
                v.push((tile.cores()[0], FreqMHz::F400));
            }
            v
        }),
    ];

    println!(
        "{:<44} {:>10} {:>10} {:>10}",
        "variant", "time", "power", "energy"
    );
    for (label, settings) in variants {
        let mut config = config.clone();
        config.power = PowerConfig::Static(settings);
        let r = SimRunner::with_parts(
            config,
            Arc::clone(&scene),
            placement.clone(),
            SccPlatform::new(SccConfig::default()),
            CostModel::default(),
        )
        .expect("a valid static film config")
        .run();
        println!(
            "{:<44} {:>9.1}s {:>8.1} W {:>8.0} J",
            label,
            r.total_secs,
            r.mean_power(),
            r.scc_energy_joules
        );
    }
    println!("\nAccelerating only the bottleneck stage buys ~30% runtime for ~4.5 W;");
    println!("undervolting the downstream island recovers the power at no time cost.");
}
