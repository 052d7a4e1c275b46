//! Figure 13 / Table I HPC rows: the same macro pipeline on a modern
//! cluster node embarrasses the SCC — and the configurations invert
//! (what is slowest on the SCC is fastest on the cluster).

use scc_cluster::{cluster_walkthrough, ClusterMode};
use scc_core::{run_with_scene, Backend, RendererMode, RunConfig};
use scc_render::{CityConfig, Scene};
use std::sync::Arc;

fn scene() -> Arc<Scene> {
    Arc::new(Scene::city(CityConfig::default()))
}

fn cfg() -> RunConfig {
    RunConfig::builder()
        .frames(60)
        .build()
        .expect("valid config")
}

fn cluster_secs(mode: ClusterMode, p: u32, s: &Arc<Scene>) -> f64 {
    cluster_walkthrough(mode, p, &cfg(), Arc::clone(s)).total_secs
}

#[test]
fn cluster_is_several_times_faster_than_the_scc() {
    // "the rendering can be done at least three times faster than on the
    // MCPC-SCC combination (which was the fastest on the SCC system)".
    let s = scene();
    let scc_best = (1..=8u32)
        .map(|p| {
            run_with_scene(
                &RunConfig::builder()
                    .renderer(RendererMode::McpcRenderer)
                    .pipelines(p)
                    .frames(60)
                    .build()
                    .expect("valid config"),
                Backend::Sim,
                Arc::clone(&s),
            )
            .total_secs
        })
        .fold(f64::INFINITY, f64::min);
    let cluster_1pl = cluster_secs(ClusterMode::SingleRenderer, 1, &s);
    assert!(
        cluster_1pl * 1.5 < scc_best,
        "even one cluster pipeline ({cluster_1pl:.1}s) should crush the \
         SCC's best ({scc_best:.1}s)"
    );
}

#[test]
fn seven_pipeline_cluster_is_an_order_of_magnitude_faster() {
    // "Using seven pipelines, the cluster is 13.5 times faster than the
    // SCC system."
    let s = scene();
    let scc7 = run_with_scene(
        &RunConfig::builder()
            .renderer(RendererMode::PerPipelineRenderer)
            .pipelines(7)
            .frames(60)
            .build()
            .expect("valid config"),
        Backend::Sim,
        Arc::clone(&s),
    )
    .total_secs;
    let hpc7 = cluster_secs(ClusterMode::ParallelRenderer, 7, &s);
    let ratio = scc7 / hpc7;
    assert!(
        (8.0..20.0).contains(&ratio),
        "cluster speed-up {ratio:.1}x at 7 pipelines (paper: 13.5x)"
    );
}

#[test]
fn cluster_parallel_renderer_scales_smoothly() {
    // Table I HPC rows: 26 -> 14 -> 10 -> 7 -> 6 -> 5 -> 4 seconds.
    let s = scene();
    let times: Vec<f64> = (1..=7u32)
        .map(|p| cluster_secs(ClusterMode::ParallelRenderer, p, &s))
        .collect();
    for w in times.windows(2) {
        assert!(w[1] < w[0], "monotone scaling expected: {times:?}");
    }
    assert!(
        times[0] / times[6] > 4.0,
        "7 pipelines should be >4x one pipeline: {times:?}"
    );
}

#[test]
fn external_renderer_hits_a_network_plateau_on_the_cluster() {
    // Table I: HPC external rend. flattens around 18-20 s while the
    // on-node configurations keep scaling to ~4 s.
    let s = scene();
    let ext: Vec<f64> = (1..=7u32)
        .map(|p| cluster_secs(ClusterMode::ExternalRenderer, p, &s))
        .collect();
    let par: Vec<f64> = (1..=7u32)
        .map(|p| cluster_secs(ClusterMode::ParallelRenderer, p, &s))
        .collect();
    // Plateau: last three external values within 15% of each other.
    let p5 = ext[4];
    assert!((ext[5] - p5).abs() < p5 * 0.15 && (ext[6] - p5).abs() < p5 * 0.15);
    // And well above the on-node configurations at 7 pipelines.
    assert!(
        ext[6] > par[6] * 2.0,
        "external {} vs parallel {}",
        ext[6],
        par[6]
    );
}

#[test]
fn slowest_scc_config_is_fastest_cluster_config() {
    // "The other configurations that were the slowest on the SCC system
    // achieve the best performance on the cluster nodes."
    let s = scene();
    // On the SCC, the n-renderer configuration is slowest at 1-2
    // pipelines; on the cluster, parallel rendering ties for fastest.
    let hpc_par = cluster_secs(ClusterMode::ParallelRenderer, 7, &s);
    let hpc_ext = cluster_secs(ClusterMode::ExternalRenderer, 7, &s);
    assert!(
        hpc_par < hpc_ext,
        "parallel ({hpc_par:.1}) beats external ({hpc_ext:.1})"
    );
}

#[test]
fn cluster_and_scc_runs_are_deterministic() {
    let s = scene();
    let a = cluster_secs(ClusterMode::SingleRenderer, 4, &s);
    let b = cluster_secs(ClusterMode::SingleRenderer, 4, &s);
    assert_eq!(a, b);
}
