//! Cross-runner differential suite: the frame-major simulator, the
//! event-driven (DES) validator and the native thread runner must all
//! produce bit-identical frame checksums against the sequential
//! reference, for every renderer mode and every pipeline arrangement —
//! and the guarantee must survive injected message faults.

mod common;

use common::{cfg_with, checksums, film, oracle, scene, ARRANGEMENTS, MODES};
use scc_core::{
    run_with_scene, Arrangement, Backend, FaultSpec, RendererMode, RunConfig, StallSpec,
};

fn cfg(mode: RendererMode, arr: Arrangement, pipelines: u32) -> RunConfig {
    cfg_with(mode, arr, pipelines, 3)
}

#[test]
fn sim_matches_reference_in_every_mode_and_arrangement() {
    for mode in MODES {
        for arr in ARRANGEMENTS {
            let c = cfg(mode, arr, 2);
            let sim = film(&c, Backend::Sim);
            assert_eq!(sim, oracle(&c), "sim diverged: {mode:?}/{arr:?}");
        }
    }
}

#[test]
fn native_matches_reference_in_every_mode_and_arrangement() {
    for mode in MODES {
        for arr in ARRANGEMENTS {
            let c = cfg(mode, arr, 2);
            let native = film(&c, Backend::Native);
            assert_eq!(native, oracle(&c), "native diverged: {mode:?}/{arr:?}");
        }
    }
}

#[test]
fn des_matches_reference_in_every_arrangement() {
    // Static DES covers the single renderer (`check_support`); the
    // arrangement only moves stages between cores, so the data path must
    // be byte-stable across all three.
    for arr in ARRANGEMENTS {
        let c = cfg(RendererMode::SingleRenderer, arr, 3);
        assert_eq!(film(&c, Backend::Des), oracle(&c), "DES diverged: {arr:?}");
    }
}

#[test]
fn all_three_runners_agree_with_each_other() {
    let c = cfg(RendererMode::SingleRenderer, Arrangement::Ordered, 2);
    let a = film(&c, Backend::Sim);
    assert_eq!(a, film(&c, Backend::Des), "sim vs DES");
    assert_eq!(a, film(&c, Backend::Native), "sim vs native");

    // The native runner's host tuning (chunked kernels + buffer pool) is
    // a pure perf knob; the agreement must hold at any setting.
    let mut tuned = c.clone();
    tuned.tuning = scc_core::NativeTuning {
        kernel_threads: 3,
        buffer_pool: true,
        ..scc_core::NativeTuning::default()
    };
    assert_eq!(a, film(&tuned, Backend::Native), "sim vs tuned native");
}

#[test]
fn chaos_walkthrough_delivers_every_frame() {
    // The headline robustness scenario across both executable runners:
    // 1% flit loss plus one permanently stalled filter core (sim), and
    // message drop/corruption (native) — zero lost frames everywhere.
    let mut c = cfg(RendererMode::SingleRenderer, Arrangement::Ordered, 3);
    let want = oracle(&c);
    c.fault = Some(FaultSpec {
        drop_rate: 0.01,
        stall: Some(StallSpec {
            pipeline: 0,
            stage: 1,
            at_ms: 0,
            for_ms: u64::MAX,
        }),
        ..FaultSpec::default()
    });
    let sim = run_with_scene(&c, Backend::Sim, scene());
    assert!(
        !sim.degradations.is_empty(),
        "the stalled blur core must be failed over"
    );
    assert_eq!(
        checksums(&sim.report.sim().unwrap().outputs.expect("frames")),
        want,
        "sim lost or damaged a frame under faults"
    );

    // Native: no core stalls (threads are real), message faults only,
    // with host-friendly timeouts — and the most aggressive host tuning,
    // so retransmission, chunked kernels and buffer recycling all overlap.
    let mut nc = c.clone();
    nc.fault = Some(FaultSpec {
        drop_rate: 0.02,
        corrupt_rate: 0.02,
        timeout_us: 100_000,
        retry_budget: 5,
        ..FaultSpec::default()
    });
    nc.tuning = scc_core::NativeTuning {
        kernel_threads: 4,
        buffer_pool: true,
        ..scc_core::NativeTuning::default()
    };
    assert_eq!(
        film(&nc, Backend::Native),
        want,
        "native lost or damaged a frame under faults"
    );
}

#[test]
fn same_fault_seed_reports_are_byte_identical() {
    let mut c = cfg(RendererMode::SingleRenderer, Arrangement::Ordered, 3);
    c.fault = Some(FaultSpec {
        drop_rate: 0.02,
        corrupt_rate: 0.01,
        delay_rate: 0.05,
        degraded_links: 2,
        degrade_factor: 0.6,
        stall: Some(StallSpec {
            pipeline: 2,
            stage: 3,
            at_ms: 5,
            for_ms: u64::MAX,
        }),
        ..FaultSpec::default()
    });
    let print = || {
        run_with_scene(&c, Backend::Sim, scene())
            .report
            .sim()
            .unwrap()
            .fingerprint()
    };
    assert_eq!(print(), print());
}
