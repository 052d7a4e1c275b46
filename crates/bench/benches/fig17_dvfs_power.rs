//! Figure 17 regenerator bench: power traces under the three DVFS
//! variants (§VI-D), using the island-aware placement of Figure 18.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use scc_core::{
    place_dvfs_single_pipeline, CostModel, Fidelity, PowerConfig, RendererMode, RunConfig,
    SimRunner,
};
use scc_render::{CityConfig, Scene};
use scc_sim::{CoreId, FreqMHz, IslandId, SccConfig, SccPlatform};
use std::sync::Arc;

fn settings(variant: &str) -> Vec<(CoreId, FreqMHz)> {
    let placement = place_dvfs_single_pipeline(RendererMode::McpcRenderer);
    let blur = placement.pipelines[0][1];
    match variant {
        "all533" => vec![],
        "blur800" => vec![(blur, FreqMHz::F800)],
        _ => {
            let island = IslandId::of_tile(placement.pipelines[0][2].tile());
            let mut v = vec![(blur, FreqMHz::F800)];
            for tile in island.tiles() {
                v.push((tile.cores()[0], FreqMHz::F400));
            }
            v
        }
    }
}

fn bench(c: &mut Criterion) {
    let scene = Arc::new(Scene::city(CityConfig::default()));
    let mut g = c.benchmark_group("fig17");
    g.sample_size(10);
    for variant in ["all533", "blur800", "mixed"] {
        g.bench_with_input(BenchmarkId::from_parameter(variant), &variant, |b, v| {
            let cfg = RunConfig {
                renderer: RendererMode::McpcRenderer,
                pipelines: 1,
                frames: 40,
                fidelity: Fidelity::TimingOnly,
                trace: false,
                fault: None,
                power: PowerConfig::Static(settings(v)),
                ..RunConfig::default()
            };
            b.iter(|| {
                let r = SimRunner::with_parts(
                    cfg.clone(),
                    Arc::clone(&scene),
                    place_dvfs_single_pipeline(RendererMode::McpcRenderer),
                    SccPlatform::new(SccConfig::default()),
                    CostModel::default(),
                )
                .run();
                black_box((r.power_trace.len(), r.mean_power()))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
