//! Ablation bench for the conclusion's local-memory what-if: the same
//! blur-bound configuration on the stock SCC and with 256 KiB per-core
//! banks (Cell-style direct messaging).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use scc_core::{place, Arrangement, CostModel, Fidelity, RendererMode, RunConfig, SimRunner};
use scc_render::{CityConfig, Scene};
use scc_sim::{SccConfig, SccPlatform};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let scene = Arc::new(Scene::city(CityConfig::default()));
    let mut g = c.benchmark_group("ablation_localmem");
    g.sample_size(10);
    for (label, bank) in [("real_scc", 0u64), ("with_256k_banks", 256 * 1024)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &bank, |b, &bank| {
            let config = RunConfig {
                renderer: RendererMode::McpcRenderer,
                arrangement: Arrangement::Ordered,
                pipelines: 3,
                frames: 40,
                fidelity: Fidelity::TimingOnly,
                ..RunConfig::default()
            };
            b.iter(|| {
                let placement = place(config.renderer, config.arrangement, config.pipelines);
                let scc = SccConfig {
                    local_memory_bytes: bank,
                    ..SccConfig::default()
                };
                black_box(
                    SimRunner::with_parts(
                        config.clone(),
                        Arc::clone(&scene),
                        placement,
                        SccPlatform::new(scc),
                        CostModel::default(),
                    )
                    .run()
                    .total_secs,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
