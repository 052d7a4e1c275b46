//! Cross-runner differential suite: the frame-major simulator, the
//! event-driven (DES) validator and the native thread runner must all
//! produce bit-identical frame checksums against the sequential
//! reference, for every renderer mode and every pipeline arrangement —
//! and the guarantee must survive injected message faults.

mod common;

use common::{
    cfg_with, checksums, film, film_and_decisions, kill_spec, oracle, scene, ARRANGEMENTS, MODES,
};
use scc_core::{
    check_report, run_with_scene, Arrangement, Backend, BackendReport, FaultSpec, GenericChainSpec,
    GenericStageSpec, GovernorTuning, PowerConfig, RendererMode, RunConfig, Runtime, StageReport,
    StallSpec, WavefrontSpec, Workload,
};
use scc_telemetry::Snapshot;
use std::collections::BTreeMap;

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

    // The native runner's host tuning (kernel backend + buffer pool) is
    // a pure perf knob; the agreement must hold at any setting.
    let mut tuned = c.clone();
    tuned.tuning = scc_core::NativeTuning {
        buffer_pool: false,
        kernel: scc_filters::KernelBackend::Scalar,
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
    // with host-friendly timeouts — and the pooled default tuning, so
    // retransmission and buffer recycling overlap.
    let mut nc = c.clone();
    nc.fault = Some(FaultSpec {
        drop_rate: 0.02,
        corrupt_rate: 0.02,
        timeout_us: 100_000,
        retry_budget: 5,
        ..FaultSpec::default()
    });
    assert_eq!(
        film(&nc, Backend::Native),
        want,
        "native lost or damaged a frame under faults"
    );
}

/// FNV-1a 64 over a text rendering.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every DES film run shape as text, floats by bit pattern: the total,
/// the film, every recovery field and the decision trace. The single
/// renderer in every arrangement at p = 1, 3, 5, then the scheduler's
/// placement, a governed run and the task runtime at p = 2 — 64×48, six
/// frames, full fidelity.
#[test]
fn des_film_digest_is_pinned() {
    let sized = |mut c: RunConfig| {
        c.width = 64;
        c.height = 48;
        c.frames = 6;
        c
    };
    let mut runs: Vec<(String, RunConfig)> = Vec::new();
    for arr in ARRANGEMENTS {
        for p in [1, 3, 5] {
            let c = sized(cfg(RendererMode::SingleRenderer, arr, p));
            runs.push((format!("single {arr:?} p={p}"), c));
        }
    }
    let two = sized(cfg(RendererMode::SingleRenderer, Arrangement::Ordered, 2));
    let mut auto = two.clone();
    auto.auto_place = true;
    runs.push(("auto_place p=2".into(), auto));
    let mut governed = two.clone();
    governed.power = PowerConfig::Governed(GovernorTuning {
        epoch_frames: 2,
        ..GovernorTuning::default()
    });
    runs.push(("governed p=2".into(), governed));
    let mut tasks = two;
    tasks.runtime = Runtime::Tasks;
    runs.push(("tasks p=2".into(), tasks));

    let mut text = String::new();
    for (label, c) in &runs {
        let out = run_with_scene(c, Backend::Des, scene());
        text += &format!("== {label}\ntotal={:016x}\n", out.total_secs.to_bits());
        for e in &out.recoveries {
            text += &format!(
                "recovery frame={} pipeline={} stage={} failed_core={} target={} \
                 killed={:016x} detected={:016x} resumed={:016x} replayed={} mttr={:016x}\n",
                e.frame,
                e.pipeline,
                e.stage.name(),
                e.failed_core,
                e.migration_target,
                e.killed_at_secs.to_bits(),
                e.detected_at_secs.to_bits(),
                e.resumed_at_secs.to_bits(),
                e.frames_replayed,
                e.mttr_secs.to_bits()
            );
        }
        let (film, decisions) = film_and_decisions(out.report);
        let film_text: String = film.iter().map(|c| format!("{c:016x}")).collect();
        text += &format!(
            "film={:016x} frames={}\ndecisions={decisions:?}\n",
            fnv1a(&film_text),
            film.len()
        );
    }
    assert_eq!(runs.len(), 12);
    assert_eq!(
        fnv1a(&text),
        0xfd88_08fe_a3f6_1613,
        "DES runs moved:\n{text}"
    );
}

/// The frame-major executor and the task runtime, traced and with
/// telemetry on, over every path their ledgers, sends and recoveries
/// take: the scheduler's replicas in all three renderer modes, a
/// permanent stall (source-send failover, walk abort, in a lane and in
/// the merged tail), a lossy send to a dead receiver (handoff give-up), a
/// kill at each detection site (source send, resident strip, handoff;
/// on a replicated primary and inside the merged tail), the
/// spare-exhausted fallback at a handoff and at a resident strip, and the
/// task runtime on the scheduler's placement, clean and with a kill, on
/// both schedules. 48×40, six frames: a frame takes ~10 ms, and the
/// kills and stalls at 22, 54 and 61 ms land while a strip is already
/// resident on (or inside the merged group of) the core they stop. Each
/// run's fingerprint, trace spans and telemetry snapshot (metrics and
/// event stream) go into one FNV-1a.
#[test]
fn sim_and_tasks_film_digest_is_pinned() {
    let traced = |mode, p, frames| {
        let mut c = cfg_with(mode, Arrangement::Ordered, p, frames);
        c.trace = true;
        c.telemetry = true;
        c
    };
    let single = |p| traced(RendererMode::SingleRenderer, p, 6);
    let auto = |p| {
        let mut c = single(p);
        c.auto_place = true;
        c
    };
    let faulted = |mut c: RunConfig, fault: FaultSpec| {
        c.fault = Some(fault);
        c
    };
    let stall = |pipeline, stage, at_ms| FaultSpec {
        stall: Some(StallSpec {
            pipeline,
            stage,
            at_ms,
            for_ms: u64::MAX,
        }),
        ..FaultSpec::default()
    };
    let mut runs: Vec<(String, RunConfig, Backend)> = Vec::new();
    for mode in MODES {
        for p in [2, 3] {
            let mut c = traced(mode, p, 6);
            c.auto_place = true;
            runs.push((format!("auto {mode:?} p={p}"), c, Backend::Sim));
        }
    }
    let no_spares = |fault: FaultSpec| FaultSpec {
        max_spares: 0,
        ..fault
    };
    let sim_runs = [
        ("stall source send", faulted(single(3), stall(1, 0, 0))),
        ("stall mid-walk", faulted(single(3), stall(1, 1, 22))),
        ("stall merged tail", faulted(auto(2), stall(1, 2, 54))),
        (
            "lossy send to a stalled receiver",
            faulted(
                single(3),
                FaultSpec {
                    drop_rate: 0.05,
                    ..stall(1, 2, 0)
                },
            ),
        ),
        ("kill source send", faulted(single(3), kill_spec(0, 0, 0))),
        (
            "kill resident strip",
            faulted(single(3), kill_spec(1, 1, 22)),
        ),
        ("kill handoff", faulted(single(3), kill_spec(2, 3, 0))),
        (
            "kill replicated primary",
            faulted(auto(2), kill_spec(0, 1, 61)),
        ),
        (
            "kill handoff merged tail",
            faulted(auto(2), kill_spec(1, 4, 3)),
        ),
        (
            "kill resident merged tail",
            faulted(auto(2), kill_spec(1, 4, 54)),
        ),
        (
            "kill handoff without spares",
            faulted(single(3), no_spares(kill_spec(1, 2, 0))),
        ),
        (
            "kill merged tail without spares",
            faulted(auto(2), no_spares(kill_spec(1, 4, 54))),
        ),
    ];
    for (label, c) in sim_runs {
        runs.push((label.into(), c, Backend::Sim));
    }
    for backend in [Backend::Sim, Backend::Des] {
        let mut tasks = auto(2);
        tasks.runtime = Runtime::Tasks;
        runs.push((format!("tasks {backend:?}"), tasks.clone(), backend));
        let killed = faulted(tasks, kill_spec(0, 1, 3));
        runs.push((format!("tasks {backend:?} kill"), killed, backend));
    }

    let mut text = String::new();
    for (label, c, backend) in &runs {
        let out = run_with_scene(c, *backend, scene());
        let report = match out.report {
            BackendReport::Sim(r) | BackendReport::Des(r) => r,
            _ => panic!("{label}: not a virtual-time film run"),
        };
        text += &format!("== {label}\n{}", report.fingerprint());
        for e in out.trace.as_ref().map_or(&[][..], |t| t.events()) {
            text += &format!(
                "span {} {} {:?} {:?} {} {:x} {:x}\n",
                e.core,
                e.kind.name(),
                e.pipeline,
                e.phase,
                e.frame,
                e.t0.as_ps(),
                e.t1.as_ps()
            );
        }
        text += &format!("{:?}\n", out.telemetry.expect("telemetry on"));
    }
    assert_eq!(runs.len(), 22);
    assert_eq!(
        fnv1a(&text),
        0x9aba_e33a_998d_ae93,
        "sim / tasks runs moved:\n{text}"
    );
}

/// Frames each (stage kind, pipeline) processed, replicas summed.
fn frames_per_stage(reports: &[StageReport]) -> BTreeMap<(&'static str, Option<u32>), u64> {
    let mut sums = BTreeMap::new();
    for s in reports {
        *sums.entry((s.kind.name(), s.pipeline)).or_default() += s.frames;
    }
    sums
}

/// A DES run reports what a sim run does: over the single-renderer
/// matrix (and the scheduler's replicated placement) its stage reports
/// pass the invariant catalogue, and every (stage, pipeline) ledger
/// counts the frames the sim's counts.
#[test]
fn des_stage_reports_pass_the_invariant_catalogue() {
    let mut runs: Vec<RunConfig> = Vec::new();
    for arr in ARRANGEMENTS {
        for p in [1, 3, 5] {
            runs.push(cfg(RendererMode::SingleRenderer, arr, p));
        }
    }
    let mut auto = cfg(RendererMode::SingleRenderer, Arrangement::Ordered, 2);
    auto.auto_place = true;
    runs.push(auto);
    for c in &runs {
        let what = format!(
            "{:?} p={} auto={}",
            c.arrangement, c.pipelines, c.auto_place
        );
        let sim = run_with_scene(c, Backend::Sim, scene());
        let des = run_with_scene(c, Backend::Des, scene());
        assert_eq!(
            des.stage_reports.len(),
            sim.stage_reports.len(),
            "{what}: render + 5p filters (+ replicas) + transfer"
        );
        assert_eq!(
            frames_per_stage(&des.stage_reports),
            frames_per_stage(&sim.stage_reports),
            "{what}"
        );
        let report = des.report.des().expect("a DES film run");
        assert!(report.scc_energy_joules > 0.0, "{what}: no energy");
        assert_eq!(check_report(&report), Vec::new(), "{what}");
    }
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

/// FNV-1a of a snapshot's metrics: every counter, the bits of every
/// gauge, and every histogram's name, labels, bounds, bucket counts,
/// count and sum. Events are left to the film pins above.
fn snapshot_digest(snap: &Snapshot) -> u64 {
    fn series(out: &mut Vec<u8>, name: &str, labels: &[(String, String)]) {
        out.extend_from_slice(name.as_bytes());
        for (k, v) in labels {
            out.extend_from_slice(format!("|{k}={v}").as_bytes());
        }
        out.push(b'\n');
    }
    let mut bytes = Vec::new();
    for c in &snap.counters {
        series(&mut bytes, &c.name, &c.labels);
        bytes.extend_from_slice(&c.value.to_le_bytes());
    }
    for g in &snap.gauges {
        series(&mut bytes, &g.name, &g.labels);
        bytes.extend_from_slice(&g.value.to_bits().to_le_bytes());
    }
    for h in &snap.histograms {
        series(&mut bytes, &h.name, &h.labels);
        for b in &h.bounds {
            bytes.extend_from_slice(&b.to_bits().to_le_bytes());
        }
        for c in h.bucket_counts.iter().chain([&h.count]) {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        bytes.extend_from_slice(&h.sum.to_bits().to_le_bytes());
    }
    scc_filters::fnv1a(&bytes)
}

/// What every report tail records into telemetry, pinned per run shape:
/// a sim film in the single-renderer and MCPC modes, a DES film, the
/// task runtime, a generic workload chain on both event orders and a
/// governed wavefront, each snapshot hashed on its own so a moved pin
/// names its run. A native run is pinned only where it does not depend
/// on wall-clock time or thread timing: the set of (name, labels) series
/// it records and its frame counters (its gauges, idle histograms and
/// pool counters vary from run to run).
#[test]
fn telemetry_snapshots_are_pinned() {
    let on = |mut c: RunConfig| {
        c.telemetry = true;
        c
    };
    let film = |mode, p| on(cfg_with(mode, Arrangement::Ordered, p, 6));
    let mut tasks = film(RendererMode::SingleRenderer, 2);
    tasks.auto_place = true;
    tasks.runtime = Runtime::Tasks;
    let chain = on(RunConfig::builder()
        .workload(Workload::Generic(GenericChainSpec {
            stages: vec![
                GenericStageSpec::compute("parse", 12.0),
                GenericStageSpec {
                    read_factor: 1.0,
                    out_factor: 1.0 / 3.0,
                    ..GenericStageSpec::compute("compress", 90.0)
                },
                GenericStageSpec::compute("encrypt", 25.0),
            ],
            items: 24,
            source_bytes: 64 * 1024,
        }))
        .build()
        .expect("valid chain config"));
    let wavefront = on(RunConfig::builder()
        .seed(11)
        .workload(Workload::Wavefront(WavefrontSpec::default()))
        .power_governed(GovernorTuning::default())
        .build()
        .expect("valid wavefront config"));
    let runs = [
        (
            "sim single p=3",
            film(RendererMode::SingleRenderer, 3),
            Backend::Sim,
        ),
        (
            "sim mcpc p=2",
            film(RendererMode::McpcRenderer, 2),
            Backend::Sim,
        ),
        (
            "des single p=2",
            film(RendererMode::SingleRenderer, 2),
            Backend::Des,
        ),
        ("tasks auto p=2", tasks, Backend::Sim),
        ("chain sim", chain.clone(), Backend::Sim),
        ("chain des", chain, Backend::Des),
        ("governed wavefront", wavefront, Backend::Sim),
    ];
    let mut got: Vec<(&str, u64)> = runs
        .iter()
        .map(|(label, c, backend)| {
            let snap = run_with_scene(c, *backend, scene()).telemetry;
            (*label, snapshot_digest(&snap.expect("telemetry on")))
        })
        .collect();

    let native = film(RendererMode::SingleRenderer, 2);
    let snap = run_with_scene(&native, Backend::Native, scene())
        .telemetry
        .expect("telemetry on");
    let counters = snap.counters.iter().map(|s| (&s.name, &s.labels));
    let gauges = snap.gauges.iter().map(|s| (&s.name, &s.labels));
    let histograms = snap.histograms.iter().map(|s| (&s.name, &s.labels));
    let mut text = String::new();
    for (name, labels) in counters.chain(gauges).chain(histograms) {
        text += &format!("{name} {labels:?}\n");
    }
    for s in snap.counters.iter().filter(|s| s.name.contains("frames")) {
        text += &format!("{} {:?} = {}\n", s.name, s.labels, s.value);
    }
    got.push(("native series", fnv1a(&text)));

    let want: [(&str, u64); 8] = [
        ("sim single p=3", 0xab08_767e_50c7_03cf),
        ("sim mcpc p=2", 0x6fee_d7ed_aa12_3cd2),
        ("des single p=2", 0xa8a6_9889_542d_e6b6),
        ("tasks auto p=2", 0xa669_9340_f3d4_07a1),
        ("chain sim", 0x89b5_be19_387e_3e36),
        ("chain des", 0xc34b_53eb_4d50_9f64),
        ("governed wavefront", 0x2940_846b_dc01_0601),
        ("native series", 0x12c3_6d6e_e09f_ed09),
    ];
    assert_eq!(got, want, "telemetry moved; native series:\n{text}");
}
