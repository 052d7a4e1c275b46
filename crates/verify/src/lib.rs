//! # scc-verify — the conformance harness
//!
//! Four layers of defence for the macro-pipelining framework, each
//! independent of the code it checks:
//!
//! * **golden run-digests** ([`golden_matrix`], [`digest_case`]) — a
//!   diff-friendly text digest of everything deterministic in a run
//!   (report fingerprint, film hash, trace summary, energy identity)
//!   for the full renderer × arrangement matrix plus fault, recovery
//!   and native-tuning variants, pinned under `tests/golden/`;
//! * **differential oracle** ([`fuzz::run_oracle`]) — one configuration
//!   executed by the frame-major simulator, the DES validator, and the
//!   sequential reference data path, with the invariant checker
//!   ([`scc_core::invariant`]) applied to the report;
//! * **coverage-guided fuzzer** ([`fuzz`], driven by the `scc-verify`
//!   binary) — mutates fault plans, kill schedules and tunings, keeps
//!   mutants that reach new fault-decision branches or recovery phases,
//!   and shrinks any failure to a ≤ 10-line repro for
//!   `tests/regressions/`;
//! * **telemetry conformance** ([`telemetry`]) — the golden matrix
//!   re-run with `RunConfig::telemetry` on (digests must not move), the
//!   exporter schema checks against `scc_telemetry::names::ALL`, and
//!   the Figure 15 idle-quartile reproduction from live histograms.

#![forbid(unsafe_code)]

use fuzz::MODES;
use scc_core::spec::{Arrangement, FaultSpec, Fidelity, KillSpec, RunConfig};
use scc_core::viz::frame_checksum;
use scc_core::{run_with_scene, Backend, WalkthroughReport};
use scc_filters::{fnv1a, fnv1a_fold, FNV_OFFSET};
use scc_render::{CityConfig, Scene};
use std::sync::{Arc, OnceLock};

pub mod fuzz;
pub mod telemetry;

/// FNV-1a over a string's UTF-8 bytes.
pub fn fnv1a_str(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

/// The fixed scene every conformance run renders: small enough for CI,
/// rich enough that every filter has real work. One per process, so the
/// golden matrix and a fuzz campaign share its octree and probe memo.
pub fn verify_scene() -> Arc<Scene> {
    static SCENE: OnceLock<Arc<Scene>> = OnceLock::new();
    SCENE
        .get_or_init(|| {
            Arc::new(Scene::city(CityConfig {
                side: 8,
                spacing: 8.0,
                seed: 3,
            }))
        })
        .clone()
}

/// One golden configuration: a stable name (the golden file's stem) and
/// the run it pins.
#[derive(Debug, Clone)]
pub struct GoldenCase {
    pub name: String,
    pub cfg: RunConfig,
}

fn base_cfg() -> RunConfig {
    RunConfig::builder()
        .pipelines(2)
        .size(64, 48)
        .frames(4)
        .seed(11)
        .fidelity(Fidelity::Full)
        .trace(true)
        .verify(true)
        .build()
        .expect("valid config")
}

/// The goldens' supervised kill: `stage` of pipeline 0 dies at 1 ms,
/// under a 2 ms heartbeat and a phi threshold of 2.
fn one_kill(stage: u32) -> FaultSpec {
    FaultSpec {
        kills: vec![KillSpec {
            pipeline: 0,
            stage,
            at_ms: 1,
        }],
        heartbeat_period_us: 2_000,
        phi_dead: 2.0,
        ..FaultSpec::default()
    }
}

/// The golden matrix: every renderer mode × every arrangement, plus a
/// degraded (permanent stall, no spares), a recovered (kill + spare),
/// and a lossy-links variant. All run under the invariant checker.
pub fn golden_matrix() -> Vec<GoldenCase> {
    use scc_core::spec::{Runtime, StallSpec};
    let mut cases = Vec::new();
    for (tag, mode) in MODES {
        for arr in Arrangement::all() {
            let mut cfg = base_cfg();
            cfg.renderer = mode;
            cfg.arrangement = arr;
            cases.push(GoldenCase {
                name: format!("{tag}-{}", arr.name()),
                cfg,
            });
        }
    }
    let mut degraded = base_cfg();
    degraded.pipelines = 3;
    degraded.fault = Some(FaultSpec {
        stall: Some(StallSpec {
            pipeline: 1,
            stage: 2,
            at_ms: 0,
            for_ms: u64::MAX,
        }),
        max_spares: 0,
        ..FaultSpec::default()
    });
    cases.push(GoldenCase {
        name: "fault-degraded".into(),
        cfg: degraded,
    });
    let mut recovered = base_cfg();
    recovered.fault = Some(one_kill(1));
    cases.push(GoldenCase {
        name: "fault-recovered".into(),
        cfg: recovered,
    });
    let mut lossy = base_cfg();
    lossy.fault = Some(FaultSpec {
        seed: 0x1055,
        drop_rate: 0.05,
        corrupt_rate: 0.05,
        delay_rate: 0.10,
        ..FaultSpec::default()
    });
    cases.push(GoldenCase {
        name: "fault-lossy".into(),
        cfg: lossy,
    });
    // The stage-graph scheduler: one auto-placed run per renderer mode
    // (film must stay bit-identical to the fixed digests' film hash),
    // plus a kill on the replicated bottleneck's primary — the
    // supervisor must migrate a scheduler placement, group siblings
    // included, without moving the film hash.
    for (tag, mode) in MODES {
        let mut cfg = base_cfg();
        cfg.renderer = mode;
        cfg.auto_place = true;
        cases.push(GoldenCase {
            name: format!("auto-{tag}"),
            cfg,
        });
    }
    let mut auto_recovered = base_cfg();
    auto_recovered.auto_place = true;
    auto_recovered.fault = Some(one_kill(1));
    cases.push(GoldenCase {
        name: "auto-recovered".into(),
        cfg: auto_recovered,
    });
    // The dependency-driven task runtime: the steal scheduler must
    // deliver the *same film hash* as the fixed digests, and the
    // exactly-once ledger (spawned/completed/requeued/steals) rides in
    // the fingerprint so any conservation drift moves the digest.
    let mut tasks_clean = base_cfg();
    tasks_clean.runtime = Runtime::Tasks;
    tasks_clean.trace = false;
    cases.push(GoldenCase {
        name: "tasks-clean".into(),
        cfg: tasks_clean,
    });
    let mut tasks_recovered = base_cfg();
    tasks_recovered.runtime = Runtime::Tasks;
    tasks_recovered.trace = false;
    tasks_recovered.fault = Some(one_kill(1));
    cases.push(GoldenCase {
        name: "tasks-recovered".into(),
        cfg: tasks_recovered,
    });
    // The power plane: a governed film and a hand-tuned static split.
    // The film hash must stay equal to the fixed digests' — frequency
    // moves schedules, never pixels — while the fingerprint carries the
    // power config and decision trace, so any governor drift (an extra
    // raise, a moved epoch) shifts the digest.
    let mut dvfs_governed = base_cfg();
    dvfs_governed.power = scc_core::PowerConfig::Governed(scc_core::GovernorTuning::default());
    cases.push(GoldenCase {
        name: "dvfs-governed".into(),
        cfg: dvfs_governed,
    });
    let mut dvfs_static = base_cfg();
    dvfs_static.power = scc_core::PowerConfig::Static(vec![
        (scc_sim::CoreId::new(4), scc_sim::FreqMHz::F800),
        (scc_sim::CoreId::new(8), scc_sim::FreqMHz::F400),
    ]);
    cases.push(GoldenCase {
        name: "dvfs-static".into(),
        cfg: dvfs_static,
    });
    cases
}

/// Digest everything deterministic in a walkthrough report as a small
/// diff-friendly text block. Floats go in as IEEE-754 bit patterns —
/// formatting can never drift.
pub fn digest_report(r: &WalkthroughReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fingerprint={:016x}\n",
        fnv1a_str(&r.fingerprint())
    ));
    match &r.outputs {
        Some(frames) => {
            let h = film_hash(frames);
            out.push_str(&format!("film={:016x} frames={}\n", h, frames.len()));
        }
        None => out.push_str("film=none\n"),
    }
    let replayed: u32 = r.recoveries.iter().map(|e| e.frames_replayed).sum();
    out.push_str(&format!(
        "events degradations={} recoveries={} replayed={}\n",
        r.degradations.len(),
        r.recoveries.len(),
        replayed
    ));
    match &r.trace {
        Some(log) => {
            let mut text = String::new();
            for e in log.events() {
                text.push_str(&format!(
                    "{} {} {:?} {} {:?} {} {}\n",
                    e.core,
                    e.kind.name(),
                    e.pipeline,
                    e.frame,
                    e.phase,
                    e.t0.as_ps(),
                    e.t1.as_ps()
                ));
            }
            out.push_str(&format!(
                "trace spans={} digest={:016x}\n",
                log.events().len(),
                fnv1a_str(&text)
            ));
        }
        None => out.push_str("trace=none\n"),
    }
    out.push_str(&format!(
        "energy scc={:016x} idle_w={:016x} total_secs={:016x}\n",
        r.scc_energy_joules.to_bits(),
        r.scc_idle_power.to_bits(),
        r.total_secs.to_bits()
    ));
    out
}

/// Run one golden case through the simulator (invariant-checked) and
/// render its digest block, headed by the case name and config.
pub fn digest_case(case: &GoldenCase) -> String {
    let out = run_with_scene(&case.cfg, Backend::Sim, verify_scene());
    let report = out.report.sim().expect("a sim film run");
    format!(
        "== {}\nconfig={}\n{}",
        case.name,
        config_line(&case.cfg),
        digest_report(&report)
    )
}

/// One-line canonical config rendering for digest headers. The
/// scheduler suffix (`auto=1`, explicit weights) only appears when the
/// case opts in, so the fixed-arrangement digests are byte-stable
/// across the scheduler's introduction; likewise the kernel suffix
/// appears only when a case departs from the default backend.
pub fn config_line(cfg: &RunConfig) -> String {
    let mut auto = if cfg.auto_place {
        match &cfg.stage_weights {
            Some(w) => format!(" auto=1 weights={w:?}"),
            None => " auto=1".to_string(),
        }
    } else {
        String::new()
    };
    if cfg.tuning.kernel != scc_filters::KernelBackend::default() {
        auto.push_str(&format!(" kernel={}", cfg.tuning.kernel.name()));
    }
    // Like the scheduler suffix: only non-default runtimes print, so the
    // pre-task-runtime digests stay byte-stable.
    if cfg.runtime != scc_core::spec::Runtime::Static {
        auto.push_str(&format!(
            " runtime={} qcap={} steal_us={} retries={}",
            cfg.runtime.name(),
            cfg.task_tuning.queue_capacity,
            cfg.task_tuning.steal_timeout_us,
            cfg.task_tuning.steal_retries
        ));
    }
    // Power and workload suffixes print only away from the defaults, so
    // every pre-power-plane digest stays byte-stable.
    match &cfg.power {
        scc_core::PowerConfig::Static(pairs) if pairs.is_empty() => {}
        scc_core::PowerConfig::Static(pairs) => {
            let list: Vec<String> = pairs
                .iter()
                .map(|(c, f)| format!("{}:{}", c.raw(), f.mhz()))
                .collect();
            auto.push_str(&format!(" power=static[{}]", list.join(",")));
        }
        scc_core::PowerConfig::Governed(t) => {
            auto.push_str(&format!(
                " power=governed epoch={} hyst={} cap_w={}",
                t.epoch_frames, t.hysteresis_epochs, t.power_cap_watts
            ));
        }
    }
    if !cfg.workload.is_film() {
        auto.push_str(&format!(" workload={}", cfg.workload.name()));
    }
    format!(
        "{} {} p={} {}x{}x{} seed={:#x}{auto} fault={}",
        cfg.renderer.name(),
        cfg.arrangement.name(),
        cfg.pipelines,
        cfg.width,
        cfg.height,
        cfg.frames,
        cfg.seed,
        match &cfg.fault {
            None => "none".to_string(),
            Some(f) => format!(
                "seed={:#x} drop={:?} corrupt={:?} delay={:?} stall={} kills={}",
                f.seed,
                f.drop_rate,
                f.corrupt_rate,
                f.delay_rate,
                f.stall.is_some(),
                f.kills.len()
            ),
        }
    )
}

/// Digest of the native runner's output film under several tunings: the
/// film hash must be identical pooled and unpooled and equal to the
/// sequential reference — wall-clock timings are excluded, so the digest
/// is byte-stable across machines. The `threads` column is the unused
/// `kernel_threads` field, kept so the committed digest stays as it was.
pub fn native_tuning_digest() -> String {
    use scc_core::spec::NativeTuning;
    let mut cfg = base_cfg();
    cfg.width = 48;
    cfg.height = 32;
    cfg.frames = 3;
    cfg.trace = false;
    let reference = scc_core::reference::reference_frames(&cfg, verify_scene());
    let ref_hash = film_hash(&reference);
    let mut out = format!("== native-tuning\nreference={:016x}\n", ref_hash);
    for (threads, pool) in [(1u32, true), (2, true), (2, false)] {
        let mut c = cfg.clone();
        c.tuning = NativeTuning {
            kernel_threads: threads,
            buffer_pool: pool,
            ..NativeTuning::default()
        };
        let run = run_with_scene(&c, Backend::Native, verify_scene());
        let report = run.report.native().expect("a native run");
        out.push_str(&format!(
            "threads={} pool={} film={:016x}\n",
            threads,
            pool,
            film_hash(&report.frames)
        ));
    }
    out
}

/// Digest of the stage-graph scheduler's *decisions* on the golden
/// geometry: the full decision table (stage, class, weight, group,
/// replicas, cores) for every renderer mode, pinned verbatim plus an
/// FNV fold. Any change to the cost model, the partitioning passes or
/// the core realisation moves this file — reviewers see the new table,
/// not just a hash.
pub fn autoplace_decision_digest() -> String {
    let mut out = String::from("== autoplace-decision\n");
    for (tag, mode) in MODES {
        let mut cfg = base_cfg();
        cfg.renderer = mode;
        cfg.auto_place = true;
        let table = scc_core::auto_place(&cfg).decision_table();
        out.push_str(&format!(
            "-- {tag} digest={:016x}\n{table}",
            fnv1a_str(&table)
        ));
    }
    out
}

/// Digest of a pinned multi-tenant serving run: the session ledger, the
/// cache counters, the WFQ contention split, the film fingerprint and
/// the virtual-time fields (as IEEE-754 bits), all byte-stable because
/// the serving engine's control loop runs in virtual time. Any change to
/// admission, WFQ, cache keying or shed policy moves this file.
pub fn serving_smoke_digest() -> String {
    use scc_serve::{serve, ServeConfig, TenantSpec};
    let mut run = base_cfg();
    run.width = 48;
    run.height = 32;
    run.trace = false;
    let cfg = ServeConfig {
        run,
        tenants: vec![
            TenantSpec::new("gold", 3, 8, 3),
            TenantSpec::new("bronze", 1, 8, 3),
        ],
        shards: 2,
        pool: 2,
        cache_capacity: 32,
        cache_buckets: 16,
        queue_depth: 4,
        max_sessions: 10,
        batch_frames: 3,
        pose_span: 4,
        arrival_burst: 6,
        seed: 0x05EC_5E55,
        keep_films: false,
    };
    serving_doc("serving-smoke", &cfg, &serve(&cfg, &verify_scene()).report)
}

/// The `benchmark/` crate's churn shape scaled down: 64x64 frames over a
/// million start poses and a 16-strip cache, so nothing hits, every
/// frame is a render, and rounds carry up to eight render jobs for a
/// pool of four — the engine's burst runs on more than one host thread
/// wherever the host has them. Pins what `serving-smoke` pins plus the
/// frame latencies as bits; host thread count must never show here.
pub fn serving_burst_digest() -> String {
    use scc_serve::{serve, ServeConfig, TenantSpec};
    let mut run = base_cfg();
    run.width = 64;
    run.height = 64;
    run.trace = false;
    let cfg = ServeConfig {
        run,
        tenants: vec![
            TenantSpec::new("bulk", 1, 16, 4),
            TenantSpec::new("vip", 3, 8, 4),
        ],
        shards: 2,
        pool: 4,
        cache_capacity: 16,
        cache_buckets: 8,
        queue_depth: 16,
        max_sessions: 24,
        batch_frames: 4,
        pose_span: 1_000_000,
        arrival_burst: 8,
        seed: 0x05EC_5E55,
        keep_films: false,
    };
    let r = serve(&cfg, &verify_scene()).report;
    let mut doc = serving_doc("serving-burst", &cfg, &r);
    doc.push_str(&format!(
        "latency count={} p50={:016x} p99={:016x} max={:016x}\n",
        r.latency.count,
        r.latency.p50.to_bits(),
        r.latency.p99.to_bits(),
        r.latency.max.to_bits()
    ));
    doc
}

fn serving_doc(name: &str, cfg: &scc_serve::ServeConfig, r: &scc_serve::ServeReport) -> String {
    let mut doc = format!("== {name}\n");
    doc.push_str(&format!(
        "config shards={} pool={} cache={}x{} qd={} cap={} batch={} span={} seed={:#x}\n",
        cfg.shards,
        cfg.pool,
        cfg.cache_capacity,
        cfg.cache_buckets,
        cfg.queue_depth,
        cfg.max_sessions,
        cfg.batch_frames,
        cfg.pose_span,
        cfg.seed
    ));
    doc.push_str(&format!(
        "ledger admitted={} completed={} shed={} events={}\n",
        r.admitted,
        r.completed,
        r.shed,
        r.shed_events.len()
    ));
    doc.push_str(&format!(
        "frames served={} unique_renders={} rounds={} contended={} contended_frames={}\n",
        r.frames_served, r.unique_renders, r.rounds, r.contended_rounds, r.contended_frames_total
    ));
    doc.push_str(&format!(
        "cache hits={} misses={} evictions={} collisions={} insertions={}\n",
        r.cache.hits, r.cache.misses, r.cache.evictions, r.cache.collisions, r.cache.insertions
    ));
    for t in &r.per_tenant {
        doc.push_str(&format!(
            "tenant {} w={} offered={} shed={} sessions={} frames={} contended={}\n",
            t.name,
            t.weight,
            t.offered,
            t.shed,
            t.completed_sessions,
            t.frames_completed,
            t.contended_frames
        ));
    }
    doc.push_str(&format!(
        "film={:016x} vtime={:016x}\n",
        r.film_hash,
        r.virtual_secs.to_bits()
    ));
    doc
}

/// The two pinned workload-plane configurations (`workload-chain`,
/// `workload-wavefront`), each in its static-default power form; the
/// digest adds the governed-default variant and both backends.
pub fn workload_goldens() -> Vec<GoldenCase> {
    use scc_core::{GenericChainSpec, GenericStageSpec, WavefrontSpec, Workload};
    let chain = RunConfig::builder()
        .seed(11)
        .verify(true)
        .workload(Workload::Generic(GenericChainSpec {
            stages: vec![
                GenericStageSpec::compute("parse", 12.0),
                GenericStageSpec {
                    read_factor: 1.0,
                    out_factor: 1.0 / 3.0,
                    ..GenericStageSpec::compute("compress", 90.0)
                },
                GenericStageSpec::compute("encrypt", 25.0),
                GenericStageSpec::compute("checksum", 4.0),
            ],
            items: 64,
            source_bytes: 64 * 1024,
        }))
        .build()
        .expect("valid chain config");
    let wavefront = RunConfig::builder()
        .seed(11)
        .verify(true)
        .workload(Workload::Wavefront(WavefrontSpec::default()))
        .build()
        .expect("valid wavefront config");
    vec![
        GoldenCase {
            name: "workload-chain".into(),
            cfg: chain,
        },
        GoldenCase {
            name: "workload-wavefront".into(),
            cfg: wavefront,
        },
    ]
}

/// Digest of one workload-plane case on both virtual-time backends under
/// the static-default and governed-default power planes: times and
/// energy as IEEE-754 bits, the per-stage ledgers, the output digest and
/// the governor's full decision trace. There is no film to hash, so this
/// is the workload plane's only byte-exact pin.
pub fn workload_digest(case: &GoldenCase) -> String {
    use scc_core::{BackendReport, GovernorTuning, PowerConfig};
    let mut out = format!("== {}\n", case.name);
    for backend in [Backend::Sim, Backend::Des] {
        for power in [
            PowerConfig::default(),
            PowerConfig::Governed(GovernorTuning::default()),
        ] {
            let mut cfg = case.cfg.clone();
            cfg.power = power;
            let BackendReport::Generic(r) = scc_core::run(&cfg, backend).report else {
                panic!("{}: workload runs produce a generic report", case.name);
            };
            out.push_str(&format!(
                "-- {} {} items={} total_secs={:016x} energy={:016x} idle_w={:016x} output={:016x}\n",
                backend.name(),
                cfg.power.name(),
                r.items,
                r.total_secs.to_bits(),
                r.energy_joules.to_bits(),
                r.scc_idle_power.to_bits(),
                r.output_digest
            ));
            for s in &r.stages {
                let idle = s.idle_ms.map_or("none".to_string(), |q| {
                    format!(
                        "{:016x}/{:016x}/{:016x}/{:016x}/{:016x}",
                        q.min.to_bits(),
                        q.q1.to_bits(),
                        q.median.to_bits(),
                        q.q3.to_bits(),
                        q.max.to_bits()
                    )
                });
                out.push_str(&format!(
                    "stage {} core={} busy={:016x} idle_ms={idle}\n",
                    s.name,
                    s.core_id,
                    s.busy_secs.to_bits()
                ));
            }
            for d in &r.dvfs_decisions {
                out.push_str(&format!("decision {} {:?}\n", d.epoch, d.action));
            }
        }
    }
    out
}

/// Digest of supervised fail-stop kills on the event-driven executor —
/// the only byte-exact pin of a DES kill run (`fault-recovered`,
/// `auto-recovered` and `tasks-recovered` run the frame-major executor
/// or the task runtime; `tests/recovery_equivalence.rs` compares within
/// a tolerance). Two cases, telemetry on: the fixed placement with a
/// kill of pipeline 0's blur core, and the scheduler's placement with a
/// kill inside its merged scratch+flicker+swap group. Each pins the
/// run time and every [`scc_core::RecoveryEvent`] field as IEEE-754
/// bits, the film hash, the four supervision counters and the event
/// stream.
pub fn des_recovered_digest() -> String {
    use scc_telemetry::names;
    let mut out = String::from("== des-recovered\n");
    for (tag, auto_place, stage) in [("fixed", false, 1u32), ("auto-merged", true, 3)] {
        let mut cfg = base_cfg();
        cfg.trace = false;
        cfg.telemetry = true;
        cfg.auto_place = auto_place;
        cfg.fault = Some(one_kill(stage));
        let run = run_with_scene(&cfg, Backend::Des, verify_scene());
        let r = run.report.des().expect("a DES film run");
        out.push_str(&format!(
            "-- {tag} config={}\ntotal_secs={:016x} film={:016x} frames={}\n",
            config_line(&cfg),
            r.total_secs.to_bits(),
            film_hash(r.outputs.as_deref().expect("full fidelity keeps the film")),
            r.outputs.as_ref().map_or(0, Vec::len)
        ));
        for e in &r.recoveries {
            out.push_str(&format!(
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
            ));
        }
        let snap = r.telemetry.as_ref().expect("telemetry was on");
        let counter = |name: &str| snap.counter(name, &[]).map_or(0, |c| c.value);
        out.push_str(&format!(
            "counters heartbeats={} misses={} migrations={} replayed={}\n",
            counter(names::HEARTBEATS_TOTAL),
            counter(names::HEARTBEAT_MISSES_TOTAL),
            counter(names::MIGRATIONS_TOTAL),
            counter(names::FRAMES_REPLAYED_TOTAL)
        ));
        let mut stream = String::new();
        for e in &snap.events {
            stream.push_str(&format!("event {} {:?}\n", e.at_ns, e.kind));
        }
        out.push_str(&format!(
            "{stream}events={} digest={:016x}\n",
            snap.events.len(),
            fnv1a_str(&stream)
        ));
    }
    out
}

fn film_hash(frames: &[scc_filters::Image]) -> u64 {
    let sums = frames.iter().map(|f| frame_checksum(f).to_le_bytes());
    sums.fold(FNV_OFFSET, |h, bytes| fnv1a_fold(h, &bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn golden_matrix_covers_the_full_mode_arrangement_grid() {
        let cases = golden_matrix();
        assert_eq!(
            cases.len(),
            20,
            "3x3 matrix + 3 fault variants + 4 scheduler variants + \
             2 task-runtime variants + 2 power-plane variants"
        );
        let names: Vec<_> = cases.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"single-ordered"));
        assert!(names.contains(&"mcpc-flipped"));
        assert!(names.contains(&"fault-recovered"));
        assert!(names.contains(&"auto-single"));
        assert!(names.contains(&"auto-recovered"));
        assert!(names.contains(&"tasks-clean"));
        assert!(names.contains(&"tasks-recovered"));
        assert!(names.contains(&"dvfs-governed"));
        assert!(names.contains(&"dvfs-static"));
        for c in &cases {
            assert_eq!(
                c.name.starts_with("auto-"),
                c.cfg.auto_place,
                "{}: auto_place must match the auto- prefix",
                c.name
            );
        }
        for c in &cases {
            assert!(
                c.cfg.verify,
                "{}: golden runs are invariant-checked",
                c.name
            );
            c.cfg.validate().expect("golden config valid");
        }
    }

    #[test]
    #[cfg_attr(feature = "verify-selftest", ignore = "mutants trip the checker")]
    fn digests_are_deterministic() {
        let case = &golden_matrix()[0];
        assert_eq!(digest_case(case), digest_case(case));
    }
}
