//! Coverage-guided fault-space fuzzing.
//!
//! A [`FuzzCase`] is a complete [`RunConfig`] with a ≤ 10-line text form
//! (the repro format under `tests/regressions/`). The fuzzer mutates the
//! fault plan, kill schedule and tuning of corpus cases, runs each mutant
//! through the differential oracle ([`run_oracle`]), and keeps mutants
//! whose [`coverage`] reaches fault-decision branches or recovery phases
//! no earlier case reached. Failures are [`shrink`]-minimised while
//! preserving the failing check's name.

use scc_core::reference::reference_frames;
use scc_core::spec::{
    Arrangement, FaultSpec, Fidelity, GovernorTuning, KillSpec, PowerConfig, RendererMode,
    RunConfig, Runtime, StallSpec, TaskTuning, WavefrontSpec, Workload,
};
use scc_core::viz::frame_checksum;
use scc_core::{
    check_generic_report, check_report, check_session_ledger, run_with_scene, Backend,
    BackendReport, GovernorAction, GovernorDecision, RecoveryEvent,
};
use scc_filters::{KernelBackend, SplitMix};
use scc_serve::{serve, ServeConfig, TenantSpec};
use scc_sim::fault::{FaultConfig, FaultPlan, MessageOutcome};
use scc_sim::{CoreId, FreqMHz, SimTime};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

/// How far apart the frame-major simulator and the DES executor are
/// allowed to drift on end-to-end virtual time. This skew, *plus one
/// frame period* for per-stage drain order, defines the end-of-run
/// *boundary window*: a kill scheduled inside it may be observed by one
/// executor only (the other's last strip has already left the killed
/// core), so recovery counts are compared modulo such boundary kills.
/// The extra frame period is the honest scale of the drain skew — the
/// frame-major simulator walks all stages of frame `k` before frame
/// `k+1`, while the DES pipelines them, so the time the *last* frame
/// departs an individual stage can differ between executors by up to a
/// frame period even when end-to-end times agree exactly.
pub const DES_TIMING_TOLERANCE: f64 = 0.05;

/// One point in the fault space: a full run configuration, optionally
/// extended with a serving-frontend workload (two tenants driving the
/// same pipeline geometry through `scc-serve`).
#[derive(Debug, Clone)]
pub struct FuzzCase {
    pub cfg: RunConfig,
    pub serve: Option<ServeFuzz>,
}

/// The serving knobs the fuzzer mutates: workload shape (session counts,
/// per-session frames), tenant weights, cache geometry (capacity 0 =
/// disabled, 1 bucket = every key collides) and the admission thresholds
/// that trigger shedding. Everything else in [`ServeConfig`] is pinned
/// so repros stay one text line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeFuzz {
    pub sessions_a: u32,
    pub sessions_b: u32,
    pub weight_a: u32,
    pub weight_b: u32,
    pub frames: u32,
    pub cache_capacity: u32,
    pub cache_buckets: u32,
    pub pool: u32,
    pub queue_depth: u32,
    pub max_sessions: u32,
}

impl Default for ServeFuzz {
    fn default() -> ServeFuzz {
        ServeFuzz {
            sessions_a: 4,
            sessions_b: 2,
            weight_a: 2,
            weight_b: 1,
            frames: 2,
            cache_capacity: 16,
            cache_buckets: 8,
            pool: 2,
            queue_depth: 4,
            max_sessions: 8,
        }
    }
}

/// One oracle failure: the stable name of the check that tripped plus a
/// human-readable detail line.
#[derive(Debug, Clone)]
pub struct Failure {
    pub check: String,
    pub detail: String,
}

/// Everything one oracle execution produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub failures: Vec<Failure>,
    pub coverage: BTreeSet<String>,
}

/// The renderer modes by the one name repros, coverage tags and golden
/// names give them. The other closed sets of the run line print their
/// own `name()` (arrangement, kernel, runtime) or `mhz()` (frequency).
pub(crate) const MODES: [(&str, RendererMode); 3] = [
    ("single", RendererMode::SingleRenderer),
    ("perpipe", RendererMode::PerPipelineRenderer),
    ("mcpc", RendererMode::McpcRenderer),
];

/// The fidelities by their repro and coverage name.
const FIDELITIES: [(&str, Fidelity); 2] =
    [("full", Fidelity::Full), ("timing", Fidelity::TimingOnly)];

/// The name `table` gives `v`.
fn tag<T: PartialEq>(table: &[(&'static str, T)], v: &T) -> &'static str {
    let hit = table.iter().find(|(_, t)| t == v);
    hit.expect("a name table covers its closed set").0
}

/// One `directive key=value ...` line of a repro. Every accessor marks
/// the key it reads, so [`ReproLine::finish`] can reject whatever the
/// directive did not read — there is no second table of known keys to
/// keep in step with the parser.
struct ReproLine<'a> {
    no: usize,
    directive: &'a str,
    kvs: Vec<(&'a str, &'a str, Cell<bool>)>,
}

impl<'a> ReproLine<'a> {
    fn parse(no: usize, line: &'a str) -> Result<Self, String> {
        let mut words = line.split_whitespace();
        let directive = words.next().unwrap_or("");
        let kvs = words
            .map(|kv| {
                kv.split_once('=')
                    .map(|(k, v)| (k, v, Cell::new(false)))
                    .ok_or_else(|| format!("line {no}: malformed field `{kv}`"))
            })
            .collect::<Result<_, _>>()?;
        Ok(ReproLine { no, directive, kvs })
    }

    fn err(&self, msg: impl std::fmt::Display) -> String {
        format!("line {}: {msg}", self.no)
    }

    fn has(&self, key: &str) -> bool {
        self.kvs.iter().any(|(k, _, _)| *k == key)
    }

    fn get(&self, key: &str) -> Result<&'a str, String> {
        let (_, v, read) = self
            .kvs
            .iter()
            .find(|(k, _, _)| *k == key)
            .ok_or_else(|| self.err(format!("missing field `{key}`")))?;
        read.set(true);
        Ok(v)
    }

    /// An integer (decimal or `0x` hex) that must fit the field it is
    /// assigned to.
    fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key)?;
        let (src, radix) = match v.strip_prefix("0x") {
            Some(hex) => (hex, 16),
            None => (v, 10),
        };
        let n = u64::from_str_radix(src, radix).map_err(|e| self.err(format!("{key}={v}: {e}")))?;
        T::try_from(n).map_err(|_| self.err(format!("{key}={v} is out of range")))
    }

    /// A name from the closed set `table` lists; any other is an
    /// `unknown {what}`.
    fn tag<T: Copy>(&self, key: &str, what: &str, table: &[(&str, T)]) -> Result<T, String> {
        let v = self.get(key)?;
        let hit = table.iter().find(|(name, _)| *name == v);
        hit.map(|&(_, t)| t)
            .ok_or_else(|| self.err(format!("unknown {what} `{v}`")))
    }

    fn float(&self, key: &str) -> Result<f64, String> {
        let v = self.get(key)?;
        v.parse().map_err(|e| self.err(format!("{key}={v}: {e}")))
    }

    /// Reject the first key nothing read: unknown to this directive (or
    /// to this `kind=` of it), or a duplicate of one already read.
    fn finish(&self) -> Result<(), String> {
        match self.kvs.iter().find(|(_, _, read)| !read.get()) {
            Some((k, _, _)) => Err(self.err(format!(
                "`{}` does not take `{k}` here (unknown or repeated key)",
                self.directive
            ))),
            None => Ok(()),
        }
    }
}

impl FuzzCase {
    /// A small, clean starting point (the fuzzer's corpus seed).
    pub fn base(seed: u64) -> FuzzCase {
        FuzzCase {
            cfg: RunConfig::builder()
                .pipelines(2)
                .size(48, 32)
                .frames(3)
                .seed(seed)
                .fidelity(Fidelity::Full)
                .build()
                .expect("valid config"),
            serve: None,
        }
    }

    /// The serving config a case's `serve` knobs describe: two tenants on
    /// the case's pipeline geometry, clean transport (the serving engine
    /// models admission and caching, not the fault plane), small pinned
    /// pose span so overlapping walkthroughs exercise the cache.
    pub fn serve_config(&self) -> Option<ServeConfig> {
        let s = self.serve.as_ref()?;
        let mut run = self.cfg.clone();
        run.fault = None;
        run.trace = false;
        run.verify = false;
        Some(ServeConfig {
            run,
            tenants: vec![
                TenantSpec::new("a", s.weight_a, s.sessions_a, s.frames),
                TenantSpec::new("b", s.weight_b, s.sessions_b, s.frames),
            ],
            shards: 2,
            pool: s.pool,
            cache_capacity: s.cache_capacity,
            cache_buckets: s.cache_buckets,
            queue_depth: s.queue_depth,
            max_sessions: s.max_sessions,
            batch_frames: 3,
            pose_span: 3,
            arrival_burst: 4,
            seed: self.cfg.seed,
            keep_films: false,
        })
    }

    /// Serialise to the ≤ 10-line repro format. Floats use Rust's
    /// shortest round-trip `Display`, so `from_text` is lossless. The
    /// scheduler fields (`auto=1` on the run line, a `weights` line)
    /// and the kernel choice are emitted only when set / away from
    /// the default, so older repros stay valid. `threads=` is still
    /// written and read, though no runner uses it.
    pub fn to_text(&self) -> String {
        let c = &self.cfg;
        let mut extras = String::new();
        if c.auto_place {
            extras.push_str(" auto=1");
        }
        if c.tuning.kernel != KernelBackend::default() {
            extras.push_str(&format!(" kernel={}", c.tuning.kernel.name()));
        }
        // The task runtime and its knobs ride the run line only when the
        // case left the static pipeline, so pre-runtime repros parse
        // unchanged.
        if c.runtime != Runtime::Static {
            extras.push_str(&format!(
                " runtime={} qcap={} steal_us={} steal_retries={}",
                c.runtime.name(),
                c.task_tuning.queue_capacity,
                c.task_tuning.steal_timeout_us,
                c.task_tuning.steal_retries,
            ));
        }
        let mut out = format!(
            "run mode={} arr={} p={} w={} h={} f={} seed={:#x} fid={} threads={} pool={}{extras}\n",
            tag(&MODES, &c.renderer),
            c.arrangement.name(),
            c.pipelines,
            c.width,
            c.height,
            c.frames,
            c.seed,
            tag(&FIDELITIES, &c.fidelity),
            c.tuning.kernel_threads,
            c.tuning.buffer_pool as u8,
        );
        if let Some(w) = &c.stage_weights {
            let list: Vec<String> = w.iter().map(f64::to_string).collect();
            out.push_str(&format!("weights w={}\n", list.join(",")));
        }
        if let Some(f) = &c.fault {
            out.push_str(&format!(
                "fault seed={:#x} drop={} corrupt={} delay={} max_delay_us={} links={} factor={} timeout_us={} retries={}\n",
                f.seed, f.drop_rate, f.corrupt_rate, f.delay_rate, f.max_delay_us,
                f.degraded_links, f.degrade_factor, f.timeout_us, f.retry_budget,
            ));
            out.push_str(&format!(
                "sup hb_us={} phi={} spares={} depth={}\n",
                f.heartbeat_period_us, f.phi_dead, f.max_spares, f.checkpoint_depth,
            ));
            for k in &f.kills {
                out.push_str(&format!(
                    "kill p={} s={} at_ms={}\n",
                    k.pipeline, k.stage, k.at_ms
                ));
            }
            if let Some(s) = &f.stall {
                out.push_str(&format!(
                    "stall p={} s={} at_ms={} for_ms={}\n",
                    s.pipeline, s.stage, s.at_ms, s.for_ms
                ));
            }
        }
        // The serving workload rides one optional line, so pre-serving
        // repros parse unchanged and the 10-line bound holds.
        // Power plane and workload ride optional lines (defaults are
        // omitted), so pre-power-plane repros parse unchanged.
        match &c.power {
            PowerConfig::Static(pairs) if pairs.is_empty() => {}
            PowerConfig::Static(pairs) => {
                let list: Vec<String> = pairs
                    .iter()
                    .map(|(core, f)| format!("{}:{}", core.raw(), f.mhz()))
                    .collect();
                out.push_str(&format!("power kind=static pairs={}\n", list.join(",")));
            }
            PowerConfig::Governed(t) => out.push_str(&format!(
                "power kind=governed epoch={} hyst={} bneck={} thr={} cap_w={}\n",
                t.epoch_frames,
                t.hysteresis_epochs,
                t.bottleneck_idle_frac,
                t.throttle_idle_frac,
                t.power_cap_watts,
            )),
        }
        if let Workload::Wavefront(w) = &c.workload {
            out.push_str(&format!(
                "workload kind=wavefront w={} h={} seeds={} waves={}\n",
                w.width, w.height, w.seeds, w.max_waves
            ));
        }
        if let Some(s) = &self.serve {
            out.push_str(&format!(
                "serve sa={} sb={} wa={} wb={} f={} cache={} buckets={} pool={} qd={} cap={}\n",
                s.sessions_a,
                s.sessions_b,
                s.weight_a,
                s.weight_b,
                s.frames,
                s.cache_capacity,
                s.cache_buckets,
                s.pool,
                s.queue_depth,
                s.max_sessions,
            ));
        }
        out
    }

    /// Parse the repro format back into a case. A key the directive
    /// does not read, a duplicate key and an integer that does not fit
    /// its field are errors naming the key and the line — a misspelt or
    /// stale token must not parse to a different case that then passes.
    pub fn from_text(text: &str) -> Result<FuzzCase, String> {
        let mut case = FuzzCase::base(0);
        let mut saw_run = false;
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let l = ReproLine::parse(no + 1, line)?;
            match l.directive {
                "run" => {
                    saw_run = true;
                    let c = &mut case.cfg;
                    c.renderer = l.tag("mode", "renderer mode", &MODES)?;
                    let arrangements = Arrangement::all().map(|a| (a.name(), a));
                    c.arrangement = l.tag("arr", "arrangement", &arrangements)?;
                    c.pipelines = l.int("p")?;
                    c.width = l.int("w")?;
                    c.height = l.int("h")?;
                    c.frames = l.int("f")?;
                    c.seed = l.int("seed")?;
                    c.fidelity = l.tag("fid", "fidelity", &FIDELITIES)?;
                    c.tuning.kernel_threads = l.int("threads")?;
                    c.tuning.buffer_pool = l.int::<u64>("pool")? != 0;
                    // Optional: absent in pre-scheduler repros.
                    c.auto_place = l.has("auto") && l.int::<u64>("auto")? != 0;
                    // Optional: absent in pre-kernel-backend repros.
                    if l.has("kernel") {
                        let kernels = [KernelBackend::Scalar, KernelBackend::Simd];
                        let kernels = kernels.map(|k| (k.name(), k));
                        c.tuning.kernel = l.tag("kernel", "kernel", &kernels)?;
                    }
                    // Optional: absent in pre-task-runtime repros.
                    if l.has("runtime") {
                        let runtimes = [Runtime::Static, Runtime::Tasks].map(|r| (r.name(), r));
                        c.runtime = l.tag("runtime", "runtime", &runtimes)?;
                        c.task_tuning = TaskTuning {
                            queue_capacity: l.int("qcap")?,
                            steal_timeout_us: l.int("steal_us")?,
                            steal_retries: l.int("steal_retries")?,
                        };
                    }
                }
                "weights" => {
                    let w: Result<Vec<f64>, String> = l
                        .get("w")?
                        .split(',')
                        .map(|v| v.parse().map_err(|e| l.err(format!("weights {v}: {e}"))))
                        .collect();
                    case.cfg.stage_weights = Some(w?);
                }
                "fault" => {
                    let f = case.cfg.fault.get_or_insert_with(FaultSpec::default);
                    f.seed = l.int("seed")?;
                    f.drop_rate = l.float("drop")?;
                    f.corrupt_rate = l.float("corrupt")?;
                    f.delay_rate = l.float("delay")?;
                    f.max_delay_us = l.int("max_delay_us")?;
                    f.degraded_links = l.int("links")?;
                    f.degrade_factor = l.float("factor")?;
                    f.timeout_us = l.int("timeout_us")?;
                    f.retry_budget = l.int("retries")?;
                }
                "sup" => {
                    let f = case.cfg.fault.get_or_insert_with(FaultSpec::default);
                    f.heartbeat_period_us = l.int("hb_us")?;
                    f.phi_dead = l.float("phi")?;
                    f.max_spares = l.int("spares")?;
                    f.checkpoint_depth = l.int("depth")?;
                }
                "kill" => {
                    let f = case.cfg.fault.get_or_insert_with(FaultSpec::default);
                    f.kills.push(KillSpec {
                        pipeline: l.int("p")?,
                        stage: l.int("s")?,
                        at_ms: l.int("at_ms")?,
                    });
                }
                "stall" => {
                    let f = case.cfg.fault.get_or_insert_with(FaultSpec::default);
                    f.stall = Some(StallSpec {
                        pipeline: l.int("p")?,
                        stage: l.int("s")?,
                        at_ms: l.int("at_ms")?,
                        for_ms: l.int("for_ms")?,
                    });
                }
                "power" => match l.get("kind")? {
                    "static" => {
                        let pairs: Result<Vec<(CoreId, FreqMHz)>, String> = l
                            .get("pairs")?
                            .split(',')
                            .map(|kv| {
                                let (core, mhz) = kv
                                    .split_once(':')
                                    .ok_or_else(|| format!("malformed power pair `{kv}`"))?;
                                let core: u8 = core
                                    .parse()
                                    .map_err(|e| format!("power core {core}: {e}"))?;
                                let core = CoreId::try_new(core)
                                    .ok_or_else(|| format!("power core {core} out of range"))?;
                                let f = FreqMHz::all()
                                    .into_iter()
                                    .find(|f| f.mhz().to_string() == mhz);
                                Ok((core, f.ok_or_else(|| format!("unknown frequency `{mhz}`"))?))
                            })
                            .collect();
                        case.cfg.power = PowerConfig::Static(pairs.map_err(|e| l.err(e))?);
                    }
                    "governed" => {
                        case.cfg.power = PowerConfig::Governed(GovernorTuning {
                            epoch_frames: l.int("epoch")?,
                            hysteresis_epochs: l.int("hyst")?,
                            bottleneck_idle_frac: l.float("bneck")?,
                            throttle_idle_frac: l.float("thr")?,
                            power_cap_watts: l.float("cap_w")?,
                        });
                    }
                    other => return Err(l.err(format!("unknown power kind `{other}`"))),
                },
                "workload" => match l.get("kind")? {
                    "wavefront" => {
                        case.cfg.workload = Workload::Wavefront(WavefrontSpec {
                            width: l.int("w")?,
                            height: l.int("h")?,
                            seeds: l.int("seeds")?,
                            max_waves: l.int("waves")?,
                        });
                    }
                    other => return Err(l.err(format!("unknown workload kind `{other}`"))),
                },
                "serve" => {
                    case.serve = Some(ServeFuzz {
                        sessions_a: l.int("sa")?,
                        sessions_b: l.int("sb")?,
                        weight_a: l.int("wa")?,
                        weight_b: l.int("wb")?,
                        frames: l.int("f")?,
                        cache_capacity: l.int("cache")?,
                        cache_buckets: l.int("buckets")?,
                        pool: l.int("pool")?,
                        queue_depth: l.int("qd")?,
                        max_sessions: l.int("cap")?,
                    });
                }
                other => return Err(l.err(format!("unknown directive `{other}`"))),
            }
            l.finish()?;
        }
        if !saw_run {
            return Err("repro has no `run` line".into());
        }
        case.cfg
            .validate()
            .map_err(|e| format!("invalid repro: {e}"))?;
        if let Some(scfg) = case.serve_config() {
            scfg.validate().map_err(|e| format!("invalid repro: {e}"))?;
        }
        Ok(case)
    }

    /// Apply one random, validity-preserving mutation. Mutations that
    /// produce an invalid config are rolled back and retried (bounded).
    pub fn mutate(&mut self, rng: &mut SplitMix) {
        for _ in 0..24 {
            let mut next = self.clone();
            next.mutate_once(rng);
            if next.valid() {
                *self = next;
                return;
            }
        }
    }

    fn mutate_once(&mut self, rng: &mut SplitMix) {
        let c = &mut self.cfg;
        match rng.gen_range(0u32..31) {
            0 => c.renderer = MODES[rng.gen_range(0usize..3)].1,
            1 => c.arrangement = Arrangement::all()[rng.gen_range(0usize..3)],
            2 => c.pipelines = rng.gen_range(1u32..=4),
            3 => {
                let (w, h) = [(32u32, 24u32), (48, 32), (64, 48)][rng.gen_range(0usize..3)];
                c.width = w;
                c.height = h;
            }
            4 => c.frames = rng.gen_range(2u64..=5),
            5 => c.seed = rng.next_u64(),
            6 => {
                c.fidelity = if rng.coin() {
                    Fidelity::Full
                } else {
                    Fidelity::TimingOnly
                }
            }
            7 => c.tuning.buffer_pool = rng.coin(),
            8 => c.fault = None,
            9 => {
                let f = c.fault.get_or_insert_with(FaultSpec::default);
                f.seed = rng.next_u64();
                f.drop_rate = [0.0, 0.05, 0.2][rng.gen_range(0usize..3)];
                f.corrupt_rate = [0.0, 0.05, 0.2][rng.gen_range(0usize..3)];
                f.delay_rate = [0.0, 0.1, 0.3][rng.gen_range(0usize..3)];
            }
            10 => {
                let f = c.fault.get_or_insert_with(FaultSpec::default);
                f.degraded_links = rng.gen_range(0u32..=4);
                f.degrade_factor = [0.25, 0.5, 1.0][rng.gen_range(0usize..3)];
            }
            11 => {
                let pipelines = c.pipelines;
                let f = c.fault.get_or_insert_with(FaultSpec::default);
                if f.kills.len() >= 3 {
                    f.kills.clear();
                }
                // Kill times span the whole walkthrough (a frame is
                // ~11 ms of virtual time at the fuzzing geometry), so
                // mutants reach early-, mid- and post-run kills.
                f.kills.push(KillSpec {
                    pipeline: rng.gen_range(0..pipelines),
                    stage: rng.gen_range(0u32..5),
                    at_ms: rng.gen_range(0u64..=40),
                });
                f.heartbeat_period_us = [1_000, 2_000, 5_000][rng.gen_range(0usize..3)];
                f.phi_dead = [2.0, 3.0][rng.gen_range(0usize..2)];
            }
            12 => self.edit_fault(|f| f.kills.clear()),
            13 => {
                let pipelines = c.pipelines;
                let f = c.fault.get_or_insert_with(FaultSpec::default);
                f.stall = Some(StallSpec {
                    pipeline: rng.gen_range(0..pipelines),
                    stage: rng.gen_range(0u32..5),
                    at_ms: rng.gen_range(0u64..=2),
                    for_ms: if rng.coin() {
                        rng.gen_range(1u64..=5)
                    } else {
                        u64::MAX
                    },
                });
            }
            14 => self.edit_fault(|f| f.stall = None),
            15 => {
                let f = c.fault.get_or_insert_with(FaultSpec::default);
                f.max_spares = rng.gen_range(0u32..=2);
                f.retry_budget = rng.gen_range(0u32..=4);
                f.timeout_us = [200, 500, 1_000][rng.gen_range(0usize..3)];
                f.checkpoint_depth = rng.gen_range(1u32..=4);
            }
            16 => c.auto_place = !c.auto_place,
            19 => {
                c.tuning.kernel = if rng.coin() {
                    KernelBackend::Scalar
                } else {
                    KernelBackend::Simd
                }
            }
            17 => {
                // Explicit scheduler weights from a palette spanning the
                // interesting regimes: flat (everything merges), spiky
                // (maximal replication), zero-heavy (degenerate).
                let palette = [0.0, 0.1, 1.0, 4.0, 250.0];
                c.stage_weights = Some((0..5).map(|_| palette[rng.gen_range(0usize..5)]).collect());
            }
            21 => {
                c.runtime = if rng.coin() {
                    Runtime::Tasks
                } else {
                    Runtime::Static
                };
            }
            22 => {
                // Task-runtime knob palette: a capacity of 1 forces
                // backpressure on every chain handoff (the
                // `task:queue-full` arm); the timeout/retry spread
                // exercises the steal ARQ's backoff schedule.
                c.runtime = Runtime::Tasks;
                c.task_tuning = TaskTuning {
                    queue_capacity: [1, 2, 8, 32][rng.gen_range(0usize..4)],
                    steal_timeout_us: [50, 200, 1_000][rng.gen_range(0usize..3)],
                    steal_retries: rng.gen_range(1u32..=4),
                };
            }
            23 => {
                // Chaos arm: a kill on top of a lossy message plane while
                // the task runtime is stealing — the `task:kill-midsteal`
                // and `task:steal-loss` labels in one mutant.
                let pipelines = c.pipelines;
                c.runtime = Runtime::Tasks;
                let f = c.fault.get_or_insert_with(FaultSpec::default);
                f.drop_rate = [0.05, 0.2][rng.gen_range(0usize..2)];
                f.kills.push(KillSpec {
                    pipeline: rng.gen_range(0..pipelines),
                    stage: rng.gen_range(0u32..5),
                    at_ms: rng.gen_range(0u64..=40),
                });
                if f.kills.len() > 3 {
                    f.kills.drain(..f.kills.len() - 3);
                }
            }
            24 => {
                // Serving workload shape: session counts and per-session
                // frame budgets, small enough that the double run (cache
                // on + off) stays cheap.
                let s = self.serve.get_or_insert_with(ServeFuzz::default);
                s.sessions_a = [1, 2, 4, 8][rng.gen_range(0usize..4)];
                s.sessions_b = [1, 2, 4][rng.gen_range(0usize..3)];
                s.frames = rng.gen_range(1u32..=3);
            }
            25 => {
                // Tenant weights: equal, skewed, and strongly skewed mixes
                // drive the WFQ allocator through its contended regimes.
                let s = self.serve.get_or_insert_with(ServeFuzz::default);
                s.weight_a = rng.gen_range(1u32..=4);
                s.weight_b = rng.gen_range(1u32..=2);
            }
            26 => {
                // Cache geometry: capacity 0 disables the cache, 1–2 force
                // eviction (`serve:cache-evict`); a single bucket forces a
                // collision on every probe.
                let s = self.serve.get_or_insert_with(ServeFuzz::default);
                s.cache_capacity = [0, 1, 2, 8, 64][rng.gen_range(0usize..5)];
                s.cache_buckets = [1, 2, 16][rng.gen_range(0usize..3)];
            }
            27 => {
                // Pool size and shed thresholds: a queue depth / session
                // cap of 1–2 against the burst size forces deterministic
                // load shedding (`serve:shed`).
                let s = self.serve.get_or_insert_with(ServeFuzz::default);
                s.pool = [1, 2, 4][rng.gen_range(0usize..3)];
                s.queue_depth = [1, 2, 8][rng.gen_range(0usize..3)];
                s.max_sessions = [2, 4, 16][rng.gen_range(0usize..3)];
            }
            28 => self.serve = None,
            29 => {
                // Governor tuning palette: small epochs make decisions
                // land inside short fuzz runs; a zero watt cap forces the
                // `dvfs:cap-block` arm.
                c.power = if rng.coin() {
                    PowerConfig::Governed(GovernorTuning {
                        epoch_frames: [1, 2, 4, 8][rng.gen_range(0usize..4)],
                        hysteresis_epochs: rng.gen_range(1u32..=2),
                        power_cap_watts: [0.0, 4.0, 8.0][rng.gen_range(0usize..3)],
                        ..GovernorTuning::default()
                    })
                } else {
                    PowerConfig::default()
                };
            }
            30 => {
                // Static splits: one raised and one throttled core drawn
                // from the filter band, mirroring the paper's hand tuning.
                let mut pairs = vec![(
                    CoreId::new(rng.gen_range(0u8..12) * 2),
                    [FreqMHz::F400, FreqMHz::F800][rng.gen_range(0usize..2)],
                )];
                if rng.coin() {
                    pairs.push((
                        CoreId::new(rng.gen_range(12u8..24) * 2),
                        [FreqMHz::F400, FreqMHz::F800][rng.gen_range(0usize..2)],
                    ));
                }
                c.power = PowerConfig::Static(pairs);
            }
            20 => {
                // The wavefront workload excludes the fault plane and the
                // task runtime (validate enforces it), so this arm clears
                // both rather than burning its mutation on a rollback.
                if c.workload.is_film() {
                    c.fault = None;
                    c.runtime = Runtime::Static;
                    self.serve = None;
                    c.workload = Workload::Wavefront(WavefrontSpec {
                        width: [32, 64, 96][rng.gen_range(0usize..3)],
                        height: [32, 64][rng.gen_range(0usize..2)],
                        seeds: rng.gen_range(1u32..=5),
                        max_waves: [0, 4, 16][rng.gen_range(0usize..3)],
                    });
                } else {
                    c.workload = Workload::Film;
                }
            }
            _ => c.stage_weights = None,
        }
        self.drop_stale_targets();
    }

    /// Drop the kills and the stall that point past a shrunken pipeline
    /// count.
    fn drop_stale_targets(&mut self) {
        let p = self.cfg.pipelines;
        self.edit_fault(|f| {
            f.kills.retain(|k| k.pipeline < p);
            if f.stall.is_some_and(|s| s.pipeline >= p) {
                f.stall = None;
            }
        });
    }

    /// Apply `edit` to the fault spec, if the case has one.
    fn edit_fault(&mut self, edit: impl FnOnce(&mut FaultSpec)) {
        if let Some(f) = &mut self.cfg.fault {
            edit(f);
        }
    }

    /// A case the oracle runs: valid run and serving configs, and
    /// serving only on a film.
    fn valid(&self) -> bool {
        self.cfg.validate().is_ok()
            && self.serve_config().is_none_or(|s| s.validate().is_ok())
            && (self.cfg.workload.is_film() || self.serve.is_none())
    }
}

/// Static + dynamic coverage features of one case/report pair. Static
/// features come from probing the deterministic [`FaultPlan`] decision
/// surface (which branches *will* fire); dynamic ones from what the run
/// actually did (degradations, recoveries, replay).
pub fn coverage(case: &FuzzCase, outcome_events: &CoverageEvents) -> BTreeSet<String> {
    let c = &case.cfg;
    let mut set = BTreeSet::new();
    set.insert(format!("mode:{}", tag(&MODES, &c.renderer)));
    set.insert(format!("arr:{}", c.arrangement.name()));
    set.insert(format!("p:{}", c.pipelines));
    set.insert(format!("fid:{}", tag(&FIDELITIES, &c.fidelity)));
    if !c.tuning.buffer_pool {
        set.insert("tuning:no-pool".into());
    }
    if c.tuning.kernel != KernelBackend::default() {
        set.insert(format!("kernel:{}", c.tuning.kernel.name()));
    }
    if c.auto_place {
        set.insert("place:auto".into());
        // Probe the scheduler's decision surface: which placement
        // shapes does this case actually reach?
        let auto = scc_core::auto_place(c);
        if auto.plan.groups.iter().any(|g| g.replicas > 1) {
            set.insert("place:replicated".into());
        }
        if auto.plan.groups.iter().any(|g| g.len > 1) {
            set.insert("place:merged".into());
        }
    }
    if c.stage_weights.is_some() {
        set.insert("weights:explicit".into());
    }
    match &c.power {
        PowerConfig::Static(pairs) if pairs.is_empty() => {}
        PowerConfig::Static(pairs) => {
            set.insert("dvfs:static".into());
            if pairs.iter().any(|(_, f)| *f == FreqMHz::F800) {
                set.insert("dvfs:static-raise".into());
            }
            if pairs.iter().any(|(_, f)| *f == FreqMHz::F400) {
                set.insert("dvfs:static-throttle".into());
            }
        }
        PowerConfig::Governed(t) => {
            set.insert("dvfs:governed".into());
            if t.power_cap_watts == 0.0 {
                set.insert("dvfs:zero-cap".into());
            }
        }
    }
    match &c.workload {
        Workload::Film => {}
        Workload::Generic(_) => {
            set.insert("workload:generic".into());
        }
        Workload::Wavefront(w) => {
            set.insert("workload:wavefront".into());
            if w.max_waves > 0 {
                set.insert("wavefront:capped".into());
            }
        }
    }
    if c.runtime == Runtime::Tasks {
        set.insert("runtime:tasks".into());
        if let Some(f) = &c.fault {
            // Steal-handshake legs (request/grant/claim/ack) traverse
            // the same lossy message plane as data, so any loss rate
            // reaches the ARQ path of the steal protocol.
            if f.drop_rate > 0.0 || f.corrupt_rate > 0.0 || f.delay_rate > 0.0 {
                set.insert("task:steal-loss".into());
            }
            // A kill can land between a steal grant and its claim-ack;
            // the fence must then reject the stale claim and re-queue.
            if !f.kills.is_empty() {
                set.insert("task:kill-midsteal".into());
            }
        }
    }
    if let Some(f) = &c.fault {
        if f.degraded_links > 0 && f.degrade_factor < 1.0 {
            set.insert("links:degraded".into());
        }
        if let Some(s) = &f.stall {
            set.insert(
                if s.for_ms == u64::MAX {
                    "stall:forever"
                } else {
                    "stall:transient"
                }
                .into(),
            );
        }
        set.insert(format!("kills:{}", f.kills.len()));
        if !f.kills.is_empty() {
            set.insert(
                if f.kills.len() as u32 <= f.max_spares {
                    "spares:enough"
                } else {
                    "spares:short"
                }
                .into(),
            );
        }
        // Probe the message-plane decision surface the way the runner
        // will query it (per from/to/seq/attempt), without running.
        let plan = FaultPlan::new(FaultConfig {
            seed: f.seed,
            drop_rate: f.drop_rate,
            corrupt_rate: f.corrupt_rate,
            delay_rate: f.delay_rate,
            max_delay: SimTime::from_us(f.max_delay_us),
            ..FaultConfig::default()
        });
        for from in 0..4u64 {
            for to in 0..4u64 {
                for seq in 0..4u64 {
                    let mut first = None;
                    for attempt in 0..=f.retry_budget.min(3) {
                        let o = plan.message_outcome(from, to, seq, attempt);
                        match o {
                            MessageOutcome::Drop => {
                                set.insert("msg:drop".into());
                            }
                            MessageOutcome::Corrupt { .. } => {
                                set.insert("msg:corrupt".into());
                            }
                            MessageOutcome::Delay(_) => {
                                set.insert("msg:delay".into());
                            }
                            MessageOutcome::Deliver => {
                                set.insert("msg:deliver".into());
                                if attempt > 0 && !matches!(first, Some(MessageOutcome::Deliver)) {
                                    set.insert("msg:deliver-after-retry".into());
                                }
                            }
                        }
                        if attempt == 0 {
                            first = Some(o);
                        }
                    }
                }
            }
        }
        if (0..64).any(|i| !plan.flit_delay(i).is_zero()) {
            set.insert("flit:delayed".into());
        }
    }
    if let Some(s) = &case.serve {
        set.insert("serve:on".into());
        if s.cache_capacity == 0 {
            set.insert("serve:cache-off".into());
        }
        if s.weight_a != s.weight_b {
            set.insert("serve:weighted".into());
        }
    }
    // Each run fact the run recorded at least once.
    let e = outcome_events;
    for (count, fact) in [
        (e.degradations as u64, "event:degradation"),
        (e.recoveries as u64, "event:recovery"),
        (u64::from(e.frames_replayed), "event:replay"),
        (e.task_backpressure, "task:queue-full"),
        (e.task_steals, "task:steal"),
        (e.dvfs_raises, "dvfs:raise"),
        (e.dvfs_throttles, "dvfs:throttle"),
        (e.dvfs_cap_blocks, "dvfs:cap-block"),
        (e.serve_sheds, "serve:shed"),
        (e.serve_cache_hits, "serve:cache-hit"),
        (e.serve_cache_evictions, "serve:cache-evict"),
    ] {
        if count > 0 {
            set.insert(fact.into());
        }
    }
    set
}

/// The run facts [`coverage`] folds in.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoverageEvents {
    pub degradations: usize,
    pub recoveries: usize,
    pub frames_replayed: u32,
    /// Backpressure stalls the task runtime's bounded deques recorded.
    pub task_backpressure: u64,
    /// Successful steals the task runtime completed.
    pub task_steals: u64,
    /// Sessions the serving frontend shed (admission control fired).
    pub serve_sheds: u64,
    /// Strip-cache hits the serving frontend recorded.
    pub serve_cache_hits: u64,
    /// Strip-cache evictions the serving frontend recorded.
    pub serve_cache_evictions: u64,
    /// Frequency raises the governor applied.
    pub dvfs_raises: u64,
    /// Island throttles the governor applied.
    pub dvfs_throttles: u64,
    /// Raises the governor wanted but the power cap rejected.
    pub dvfs_cap_blocks: u64,
}

/// One executor run the oracle makes of a case. A film case walks the
/// rows from `Sim` to `ServeOff`, a spec-driven workload the three
/// `Chain*`/`Ungoverned` rows, in declaration order: each row that
/// [`Row::applies`] runs once into a [`View`], and then checks the laws it
/// closes ([`Row::close`]) against the rows run before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Row {
    /// The film on the frame-major simulator (static or task runtime),
    /// traced: the trace invariants need spans.
    Sim,
    /// The sequential reference film (`Full` fidelity only).
    Reference,
    /// The film on the DES executor (static or task runtime).
    Des,
    /// The serving frontend over the case's geometry, strip cache on.
    ServeOn,
    /// The same serving workload with the strip cache off.
    ServeOff,
    /// A spec-driven workload chain on the item-major simulator.
    ChainSim,
    /// The same chain on the DES executor.
    ChainDes,
    /// The sim chain again with the governor off (governed cases only).
    Ungoverned,
}

/// What every row's run returns: the common view the laws compare.
#[derive(Default)]
struct View {
    /// End-to-end virtual seconds.
    secs: f64,
    /// Checksum of each delivered frame; `None` when the run kept no film.
    frames: Option<Vec<u64>>,
    /// Output digest: a workload's `output_digest`, the serving film hash.
    digest: u64,
    /// Frames the serving frontend delivered.
    served: u64,
    /// The governor's decisions (its frequency moves), in epoch order.
    dvfs: Vec<GovernorDecision>,
    recoveries: Vec<RecoveryEvent>,
    /// Frames each (stage kind, pipeline) processed, replicas summed.
    per_stage: BTreeMap<(&'static str, Option<u32>), u64>,
    /// The run's own invariant violations, named as the oracle reports
    /// them (a DES film's as `des-invariant:<check>`).
    violations: Vec<Failure>,
    events: CoverageEvents,
}

impl Row {
    fn backend(self) -> Backend {
        match self {
            Row::Des | Row::ChainDes => Backend::Des,
            _ => Backend::Sim,
        }
    }

    /// Does this row run for `case`, given the rows run before it?
    fn applies(self, case: &FuzzCase, views: &BTreeMap<Row, View>) -> bool {
        let cfg = &case.cfg;
        let governed = matches!(cfg.power, PowerConfig::Governed(_));
        let film = cfg.workload.is_film();
        match self {
            Row::Sim => film,
            Row::Reference => film && cfg.fidelity == Fidelity::Full,
            // Whatever `check_support` lets DES run, minus two holes:
            // - ROADMAP 11(a): replicated/merged groups give the
            //   frame-major and pipelined executors different idle
            //   profiles, so near a governor threshold the two can pick
            //   different moves (default placements stay in: their traces
            //   must match epoch for epoch);
            // - ROADMAP 11(c): a stalled worker (only the task runtime
            //   admits one) is fenced at a schedule-dependent instant, so
            //   the two task-runtime flavors have no common timeline.
            Row::Des => {
                film && scc_core::check_support(cfg, self.backend()).is_ok()
                    && !(governed && cfg.auto_place)
                    && cfg.fault.as_ref().is_none_or(|f| f.stall.is_none())
            }
            Row::ServeOn => film && case.serve.is_some(),
            Row::ServeOff => views.contains_key(&Row::ServeOn),
            Row::ChainSim | Row::ChainDes => !film,
            Row::Ungoverned => !film && governed,
        }
    }

    /// What a panic in this row reports: the detail's prefix, and whether
    /// it ends the case (no later row runs).
    fn on_panic(self) -> (&'static str, bool) {
        match self {
            Row::Des => ("DES executor panicked: ", true),
            Row::ServeOn => ("serving engine panicked: ", false),
            Row::ServeOff => ("serving engine panicked (cache off): ", false),
            Row::Ungoverned => ("ungoverned workload run panicked: ", false),
            Row::Sim | Row::Reference | Row::ChainSim | Row::ChainDes => ("", true),
        }
    }

    fn run(self, case: &FuzzCase) -> View {
        let scene = crate::verify_scene();
        let mut cfg = case.cfg.clone();
        // Only the sim film is traced (the trace invariants need spans);
        // violations are collected, not raised.
        (cfg.trace, cfg.verify) = (self == Row::Sim, false);
        if self == Row::Ungoverned {
            cfg.power = PowerConfig::default();
        }
        let report = match self {
            Row::Reference => {
                let frames = Some(checksums(&reference_frames(&case.cfg, scene)));
                return View {
                    frames,
                    ..View::default()
                };
            }
            Row::ServeOn | Row::ServeOff => {
                let mut scfg = case.serve_config().expect("a serving case");
                if self == Row::ServeOff {
                    scfg.cache_capacity = 0;
                }
                let r = serve(&scfg, &scene).report;
                let (shed, logged) = (r.shed, r.shed_events.len());
                let mut violations = named(check_session_ledger(r.admitted, r.completed, shed), "");
                if shed != logged as u64 {
                    let detail = format!("shed counter {shed} but {logged} shed event(s) recorded");
                    violations.push(fail("serve-silent-shed", detail));
                }
                let events = CoverageEvents {
                    serve_sheds: shed,
                    serve_cache_hits: r.cache.hits,
                    serve_cache_evictions: r.cache.evictions,
                    ..CoverageEvents::default()
                };
                let (digest, served) = (r.film_hash, r.frames_served);
                return View {
                    digest,
                    served,
                    violations,
                    events,
                    ..View::default()
                };
            }
            _ => run_with_scene(&cfg, self.backend(), scene).report,
        };
        let mut view = match report {
            BackendReport::Sim(r) | BackendReport::Des(r) => {
                let des = self == Row::Des;
                let mut per_stage = BTreeMap::new();
                for s in &r.stage_reports {
                    *per_stage.entry((s.kind.name(), s.pipeline)).or_default() += s.frames;
                }
                let prefix = if des { "des-invariant:" } else { "" };
                let events = CoverageEvents {
                    degradations: r.degradations.len(),
                    recoveries: r.recoveries.len(),
                    frames_replayed: r.recoveries.iter().map(|e| e.frames_replayed).sum(),
                    task_backpressure: r.task_stats.map_or(0, |t| t.backpressure_stalls),
                    task_steals: r.task_stats.map_or(0, |t| t.steals),
                    ..CoverageEvents::default()
                };
                View {
                    secs: r.total_secs,
                    frames: r.outputs.as_deref().map(checksums),
                    violations: named(check_report(&r), prefix),
                    dvfs: r.dvfs_decisions,
                    recoveries: r.recoveries,
                    per_stage,
                    events,
                    ..View::default()
                }
            }
            BackendReport::Generic(r) => {
                let violations = named(check_generic_report(&r), "");
                let (secs, digest, dvfs) = (r.total_secs, r.output_digest, r.dvfs_decisions);
                View {
                    secs,
                    digest,
                    dvfs,
                    violations,
                    ..View::default()
                }
            }
            BackendReport::Native(_) => unreachable!("the oracle runs no native row"),
        };
        for d in &view.dvfs {
            match d.action {
                GovernorAction::Raise { .. } => view.events.dvfs_raises += 1,
                GovernorAction::Throttle { .. } => view.events.dvfs_throttles += 1,
                GovernorAction::CapBlocked { .. } => view.events.dvfs_cap_blocks += 1,
                GovernorAction::Hold => {}
            }
        }
        view
    }

    /// Check the laws this row closes against the rows run before it, in
    /// the order the oracle has always reported them.
    fn close(self, cfg: &RunConfig, views: &BTreeMap<Row, View>, out: &mut Vec<Failure>) {
        let (v, own) = (|row| &views[&row], views[&self].violations.iter().cloned());
        match self {
            Row::Sim | Row::ServeOn | Row::ChainSim => out.extend(own),
            Row::Reference => out.extend(film_divergence(v(Row::Sim), v(self))),
            Row::Des => {
                let (s, d) = (v(Row::Sim), v(self));
                out.extend(timing(cfg, s, d));
                out.extend(parity(cfg, s, d));
                out.extend(replay(cfg, s, d));
                out.extend(film(cfg, s, d));
                out.extend(own);
                out.extend(ledger(cfg, s, d));
            }
            Row::ServeOff => out.extend(cache_transparency(v(Row::ServeOn), v(self))),
            Row::ChainDes => {
                let (s, d) = (v(Row::ChainSim), v(self));
                out.extend(own);
                out.extend(digests("workload-digest-divergence", ["sim", "DES"], s, d));
                out.extend(timing(cfg, s, d));
                out.extend(parity(cfg, s, d));
            }
            Row::Ungoverned => {
                let (s, u) = (v(Row::ChainSim), v(self));
                out.extend(digests("dvfs-output-drift", ["governed", "static"], s, u));
            }
        }
    }
}

fn checksums(frames: &[scc_filters::Image]) -> Vec<u64> {
    frames.iter().map(frame_checksum).collect()
}

fn fail(check: &str, detail: String) -> Failure {
    let check = check.to_string();
    Failure { check, detail }
}

fn named(violations: Vec<scc_core::Violation>, prefix: &str) -> Vec<Failure> {
    let name = |v: scc_core::Violation| fail(&format!("{prefix}{}", v.check), v.detail);
    violations.into_iter().map(name).collect()
}

/// `film-divergence`: at `Full` fidelity the sim film equals the
/// sequential reference bit for bit, faults or no faults.
fn film_divergence(sim: &View, reference: &View) -> Option<Failure> {
    let want = reference.frames.as_deref().unwrap_or_default();
    let detail = match &sim.frames {
        None => "full fidelity but no output frames".to_string(),
        Some(got) if got.len() != want.len() => {
            format!(
                "sim delivered {} frames, reference {}",
                got.len(),
                want.len()
            )
        }
        Some(got) => {
            let i = (0..got.len()).find(|&i| got[i] != want[i])?;
            format!(
                "frame {i}: sim {:016x} != reference {:016x}",
                got[i], want[i]
            )
        }
    };
    Some(fail("film-divergence", detail))
}

/// `differential-timing`: end-to-end virtual time within
/// [`DES_TIMING_TOLERANCE`]. A film's strict bound binds clean
/// uniform-frequency runs only: a governed run changes frequency
/// mid-flight, and the frame-major and pipelined executors overlap those
/// changes with idle time differently, so end-to-end skew can
/// legitimately exceed the drain-order tolerance (the governed
/// instrument is [`parity`]). A workload chain is always timed.
fn timing(cfg: &RunConfig, sim: &View, des: &View) -> Option<Failure> {
    let uniform = matches!(&cfg.power, PowerConfig::Static(v) if v.is_empty());
    let timed = !cfg.workload.is_film() || (cfg.fault.is_none() && uniform);
    let (s, d) = (sim.secs, des.secs);
    let dev = (d - s).abs() / s;
    let detail = || format!("sim {s:.6}s vs DES {d:.6}s ({:.1}% apart)", dev * 100.0);
    (timed && dev > DES_TIMING_TOLERANCE).then(|| fail("differential-timing", detail()))
}

/// `dvfs-parity`: a governed run makes the same decisions, epoch for
/// epoch, on both executors.
fn parity(cfg: &RunConfig, sim: &View, des: &View) -> Option<Failure> {
    let governed = matches!(cfg.power, PowerConfig::Governed(_));
    let (s, d) = (sim.dvfs.len(), des.dvfs.len());
    let detail = || format!("sim made {s} decision(s), DES {d} — traces differ");
    (governed && sim.dvfs != des.dvfs).then(|| fail("dvfs-parity", detail()))
}

/// `differential-replay`. Under the task runtime the two backends run
/// differently flavored schedules, so whether a kill is observed with
/// chains still queued (a fence records a recovery) or caught at handoff
/// time and re-routed (no event), and how much in-flight work a fence
/// catches, are both schedule-dependent: the cross-backend instruments
/// there are the film and the conserved task ledger. The law binds the
/// static pipeline, whose recovery schedule is deterministic, with
/// recovery counts compared modulo boundary kills.
fn replay(cfg: &RunConfig, sim: &View, des: &View) -> Option<Failure> {
    let boundary = boundary_kills(cfg, sim, des);
    let (s, d) = (&sim.recoveries, &des.recoveries);
    let (sn, dn) = (s.len(), d.len());
    let detail = if cfg.runtime != Runtime::Static {
        None
    } else if sn != dn {
        let tolerated = format!("{boundary} boundary kill(s) tolerated");
        (sn.abs_diff(dn) > boundary)
            .then(|| format!("sim recovered {sn} times, DES {dn} ({tolerated})"))
    } else if boundary == 0 {
        let mut pairs = s.iter().zip(d);
        let (s, d) = pairs.find(|(s, d)| s.frames_replayed != d.frames_replayed)?;
        let (f, sr, dr) = (s.frame, s.frames_replayed, d.frames_replayed);
        Some(format!("frame {f}: sim replayed {sr} frames, DES {dr}"))
    } else {
        None
    };
    detail.map(|detail| fail("differential-replay", detail))
}

/// `differential-film`: sim and DES deliver the same film.
fn film(cfg: &RunConfig, sim: &View, des: &View) -> Option<Failure> {
    let full = cfg.fidelity == Fidelity::Full;
    let differ = matches!((&sim.frames, &des.frames), (Some(a), Some(b)) if a != b);
    let detail = "sim and DES output films differ".to_string();
    (full && differ).then(|| fail("differential-film", detail))
}

/// `differential-ledger`: the static pipeline routes every strip the
/// same way on both executors, so each (stage, pipeline) ledger counts
/// the same frames.
fn ledger(cfg: &RunConfig, sim: &View, des: &View) -> Option<Failure> {
    let (s, d) = (&sim.per_stage, &des.per_stage);
    let detail = || format!("frames per (stage, pipeline): sim {s:?}, DES {d:?}");
    (cfg.runtime == Runtime::Static && s != d).then(|| fail("differential-ledger", detail()))
}

/// `serve-cache-transparency`: the film fingerprint and frame count with
/// the strip cache on equal a run with the cache off. The decisions are
/// cache-independent by construction, so this is exact.
fn cache_transparency(on: &View, off: &View) -> Option<Failure> {
    let ((a, n), (b, m)) = ((on.digest, on.served), (off.digest, off.served));
    let detail =
        || format!("cache on: film {a:016x} / {n} frames, cache off: film {b:016x} / {m} frames");
    ((a, n) != (b, m)).then(|| fail("serve-cache-transparency", detail()))
}

/// `workload-digest-divergence` (sim and DES compute the same output)
/// and `dvfs-output-drift` (the governor moves schedules, never bytes).
fn digests(check: &str, [x, y]: [&str; 2], a: &View, b: &View) -> Option<Failure> {
    let (da, db) = (a.digest, b.digest);
    let detail = || format!("{x} digest {da:016x} != {y} digest {db:016x}");
    (da != db).then(|| fail(check, detail()))
}

/// Where the end-of-run boundary window starts, in seconds, for a case
/// whose sim and DES films took `sim_secs` and `des_secs`: the earlier
/// finish less the end-to-end skew ([`DES_TIMING_TOLERANCE`]) and one
/// *lane* frame period of per-stage drain skew. Frames interleave across
/// pipelines, so with p lanes a lane turns over every ceil(f/p)-th of
/// the run.
pub fn boundary_window_start(cfg: &RunConfig, sim_secs: f64, des_secs: f64) -> f64 {
    let min_total = sim_secs.min(des_secs);
    let lane_frames = cfg.frames.div_ceil(u64::from(cfg.pipelines.max(1)));
    let frame_period = min_total / lane_frames.max(1) as f64;
    min_total * (1.0 - DES_TIMING_TOLERANCE) - frame_period
}

/// Kills scheduled inside the boundary window: observable by one
/// executor and past the other's last strip for the killed stage, so
/// their recovery count has no well-defined cross-executor answer.
fn boundary_kills(cfg: &RunConfig, sim: &View, des: &View) -> usize {
    let start = boundary_window_start(cfg, sim.secs, des.secs);
    let late = |f: &FaultSpec| {
        f.kills
            .iter()
            .filter(|k| k.at_ms as f64 / 1e3 >= start)
            .count()
    };
    cfg.fault.as_ref().map_or(0, late)
}

/// Run one case through every oracle row that applies and check every
/// law between the rows that ran:
///
/// 1. a film runs on the frame-major simulator with the full invariant
///    catalogue applied to its report (collected, not panicking), and
///    at `Full` fidelity must equal the sequential reference;
/// 2. inside the DES envelope (`Row::applies`) it runs on DES too:
///    the invariant catalogue on the DES report (as
///    `des-invariant:<check>`), the same frames per (stage, pipeline) on
///    the static pipeline, walkthrough timing, the governor's decisions,
///    the recovery timeline and the output film must agree between the
///    two executors. Kills inside the end-of-run boundary window
///    ([`boundary_window_start`]) are excluded from the recovery-count
///    comparison and surface as `replay:boundary-kill` coverage;
/// 3. a serving case keeps the frontend's exactly-once session ledger
///    balanced, never sheds silently (counter and event log agree) and
///    is transparent about its strip cache;
/// 4. a spec-driven workload chain runs on the item-major simulator and
///    on DES: their output digests must be bit-equal and their virtual
///    times within [`DES_TIMING_TOLERANCE`]; a governed chain must make
///    the same decisions on both and the same output digest as an
///    ungoverned run.
///
/// A panic in a row is a `panic` failure; in the sim, reference, DES or
/// chain rows it ends the case. The sim's "no surviving pipeline" is the
/// one exception: every lane dead is a *modelled* fatal outcome (the sim
/// documents the panic), so it ends the case as `event:total-loss`
/// coverage, not as a conformance failure.
pub fn run_oracle(case: &FuzzCase) -> Outcome {
    use Row::*;
    let film = case.cfg.workload.is_film();
    let (mut views, mut failures) = (BTreeMap::new(), Vec::new());
    for row in [
        Sim, Reference, Des, ServeOn, ServeOff, ChainSim, ChainDes, Ungoverned,
    ] {
        if !row.applies(case, &views) {
            continue;
        }
        let msg = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| row.run(case))) {
            Ok(view) => {
                views.insert(row, view);
                row.close(&case.cfg, &views, &mut failures);
                continue;
            }
            Err(e) => match (e.downcast_ref::<String>(), e.downcast_ref::<&str>()) {
                (Some(s), _) => s.clone(),
                (None, Some(s)) => s.to_string(),
                (None, None) => "non-string panic payload".into(),
            },
        };
        if row == Sim && msg.contains("no surviving pipeline") {
            let mut coverage = coverage(case, &CoverageEvents::default());
            coverage.insert("event:total-loss".into());
            return Outcome { failures, coverage };
        }
        let (prefix, ends_case) = row.on_panic();
        failures.push(fail("panic", format!("{prefix}{msg}")));
        if ends_case {
            break;
        }
    }
    // Coverage reads the sim row's facts and the cache-on serving row's.
    let facts = |row| {
        views
            .get(&row)
            .map_or_else(CoverageEvents::default, |v: &View| v.events)
    };
    let (serving, sim) = (facts(ServeOn), facts(if film { Sim } else { ChainSim }));
    let events = CoverageEvents {
        serve_sheds: serving.serve_sheds,
        serve_cache_hits: serving.serve_cache_hits,
        serve_cache_evictions: serving.serve_cache_evictions,
        ..sim
    };
    let mut coverage = coverage(case, &events);
    if let (Some(s), Some(d)) = (views.get(&Sim), views.get(&Des)) {
        if boundary_kills(&case.cfg, s, d) > 0 {
            coverage.insert("replay:boundary-kill".into());
        }
    }
    Outcome { failures, coverage }
}
/// Does the case still fail with the same check name?
fn still_fails(case: &FuzzCase, check: &str) -> bool {
    case.valid() && run_oracle(case).failures.iter().any(|f| f.check == check)
}

/// Complexity score the shrinker minimises. A candidate is only accepted
/// when this strictly decreases, so the greedy loop cannot oscillate
/// between candidates that merely *change* the case.
fn cost(case: &FuzzCase) -> u64 {
    let c = &case.cfg;
    let mut k = 0u64;
    if let Some(f) = &c.fault {
        k += 1_000;
        k += 500 * f.kills.len() as u64;
        if f.stall.is_some() {
            k += 500;
        }
        if f.drop_rate > 0.0 || f.corrupt_rate > 0.0 || f.delay_rate > 0.0 {
            k += 100;
        }
        if f.degraded_links > 0 {
            k += 100;
        }
    }
    k += c.pipelines as u64 * 50;
    k += c.frames * 10;
    k += (c.width as u64 * c.height as u64) / 64;
    if c.renderer != RendererMode::SingleRenderer {
        k += 25;
    }
    if c.arrangement != Arrangement::Unordered {
        k += 5;
    }
    if !c.tuning.buffer_pool {
        k += 5;
    }
    if c.tuning.kernel != KernelBackend::default() {
        k += 5;
    }
    if c.auto_place {
        k += 50;
    }
    if c.runtime != Runtime::Static {
        k += 75;
    }
    if c.task_tuning != TaskTuning::default() {
        k += 5;
    }
    if c.stage_weights.is_some() {
        k += 25;
    }
    if let Some(s) = &case.serve {
        k += 200;
        k += u64::from(s.sessions_a + s.sessions_b) * 10;
        k += u64::from(s.frames) * 5;
        if s.cache_capacity > 0 {
            k += 5;
        }
    }
    match &c.power {
        PowerConfig::Static(pairs) if pairs.is_empty() => {}
        PowerConfig::Static(pairs) => k += 50 + 10 * pairs.len() as u64,
        PowerConfig::Governed(_) => k += 100,
    }
    if !c.workload.is_film() {
        k += 150;
    }
    if c.seed != 1 {
        k += 1;
    }
    k
}

/// Shrink a failing case to a minimal repro that still trips the *same*
/// check. Candidate simplifications are applied greedily to fixpoint;
/// the result is what lands in `tests/regressions/`.
pub fn shrink(mut case: FuzzCase, check: &str) -> FuzzCase {
    let candidates: Vec<fn(&mut FuzzCase)> = vec![
        |t| t.cfg.fault = None,
        |t| t.edit_fault(|f| f.stall = None),
        |t| t.edit_fault(|f| f.kills.truncate(1)),
        |t| t.edit_fault(|f| f.kills.clear()),
        |t| t.edit_fault(|f| (f.drop_rate, f.corrupt_rate, f.delay_rate) = (0.0, 0.0, 0.0)),
        |t| t.edit_fault(|f| (f.degraded_links, f.degrade_factor) = (0, 1.0)),
        |t| t.cfg.pipelines = 1,
        |t| t.cfg.frames = 2,
        |t| {
            t.cfg.width = 32;
            t.cfg.height = 24;
        },
        |t| t.cfg.renderer = RendererMode::SingleRenderer,
        |t| t.cfg.arrangement = Arrangement::Unordered,
        |t| t.cfg.tuning = Default::default(),
        |t| {
            t.cfg.runtime = Runtime::Static;
            t.cfg.task_tuning = Default::default();
        },
        |t| t.cfg.task_tuning = Default::default(),
        |t| t.cfg.stage_weights = None,
        |t| {
            t.cfg.auto_place = false;
            t.cfg.stage_weights = None;
        },
        |t| t.serve = None,
        |t| {
            if let Some(s) = &mut t.serve {
                s.sessions_a = 1;
                s.sessions_b = 1;
                s.frames = 1;
            }
        },
        |t| t.cfg.power = PowerConfig::default(),
        |t| t.cfg.workload = Workload::Film,
        |t| t.cfg.seed = 1,
    ];
    loop {
        let mut improved = false;
        for candidate in &candidates {
            let mut trial = case.clone();
            candidate(&mut trial);
            trial.drop_stale_targets();
            if cost(&trial) < cost(&case) && still_fails(&trial, check) {
                case = trial;
                improved = true;
            }
        }
        if !improved {
            return case;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_text_round_trips() {
        let mut rng = SplitMix::new(0x5eed);
        let mut case = FuzzCase::base(7);
        for _ in 0..40 {
            case.mutate(&mut rng);
            let text = case.to_text();
            assert!(
                text.lines().count() <= 10,
                "repro must stay within 10 lines:\n{text}"
            );
            let back = FuzzCase::from_text(&text).expect("parse own output");
            assert_eq!(back.to_text(), text, "round trip changed the case");
        }
    }

    #[test]
    fn repro_reader_rejects_unknown_keys_and_out_of_range_integers() {
        let good = FuzzCase::base(7).to_text();
        assert!(good.starts_with("run ") && FuzzCase::from_text(&good).is_ok());
        let run_with = |extra: &str| format!("# comment\n{} {extra}\n", good.trim_end());
        // A misspelt key, a key of a removed knob, a repeated key and a
        // key on the wrong directive must not parse to a different case.
        for (text, key) in [
            (run_with("auot=1"), "auot"),
            (run_with("fuse=on"), "fuse"),
            (run_with("auto=0 auto=1"), "auto"),
            (run_with("qcap=4"), "qcap"),
            (format!("{good}weights w=1,1,1,1,1 p=2\n"), "p"),
            (
                format!("{good}power kind=static pairs=0:800 epoch=2\n"),
                "epoch",
            ),
        ] {
            let e = FuzzCase::from_text(&text).expect_err(&text);
            let line = text.lines().count();
            assert!(
                e.contains(&format!("line {line}:")) && e.contains(&format!("`{key}`")),
                "{text:?} -> {e}"
            );
        }
        // A name outside each closed set is an error naming the value.
        for (text, want) in [
            (
                good.replacen(" mode=single", " mode=x", 1),
                "line 1: unknown renderer mode `x`",
            ),
            (
                good.replacen(" arr=ordered", " arr=x", 1),
                "line 1: unknown arrangement `x`",
            ),
            (
                good.replacen(" fid=full", " fid=x", 1),
                "line 1: unknown fidelity `x`",
            ),
            (run_with("kernel=x"), "line 2: unknown kernel `x`"),
            (run_with("runtime=x"), "line 2: unknown runtime `x`"),
            (
                format!("{good}power kind=static pairs=0:801\n"),
                "line 2: unknown frequency `801`",
            ),
        ] {
            assert_eq!(FuzzCase::from_text(&text).expect_err(&text), want);
        }
        // 2^32 + 1 must not wrap to 1.
        for (from, to) in [
            (" p=2", " p=4294967297"),
            (" threads=1", " threads=4294967297"),
        ] {
            assert!(good.contains(from), "{good}");
            let e = FuzzCase::from_text(&good.replacen(from, to, 1)).expect_err(to);
            assert!(
                e.contains("line 1:") && e.contains(to.trim()),
                "{to} -> {e}"
            );
        }
    }

    #[test]
    fn coverage_sees_task_runtime_arms() {
        let mut case = FuzzCase::base(3);
        case.cfg.runtime = Runtime::Tasks;
        case.cfg.fault = Some(FaultSpec {
            drop_rate: 0.05,
            kills: vec![KillSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 3,
            }],
            ..FaultSpec::default()
        });
        let set = coverage(
            &case,
            &CoverageEvents {
                task_backpressure: 1,
                task_steals: 2,
                ..CoverageEvents::default()
            },
        );
        for label in [
            "runtime:tasks",
            "task:steal-loss",
            "task:kill-midsteal",
            "task:queue-full",
            "task:steal",
        ] {
            assert!(set.contains(label), "missing {label} in {set:?}");
        }
        let clean = coverage(&FuzzCase::base(1), &CoverageEvents::default());
        assert!(
            !clean
                .iter()
                .any(|c| c.starts_with("task:") || c.starts_with("runtime:")),
            "static case claims task coverage: {clean:?}"
        );
    }

    #[test]
    fn oracle_clears_task_runtime_chaos() {
        // A kill on a lossy plane under the task runtime: the oracle must
        // see a bit-identical film, balanced ledgers, and sim/DES
        // agreement — the chaos shows up as coverage, not failures.
        let mut case = FuzzCase::base(9);
        case.cfg.runtime = Runtime::Tasks;
        case.cfg.fault = Some(FaultSpec {
            seed: 7,
            drop_rate: 0.05,
            kills: vec![KillSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 3,
            }],
            heartbeat_period_us: 2_000,
            phi_dead: 2.0,
            ..FaultSpec::default()
        });
        let out = run_oracle(&case);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.coverage.contains("runtime:tasks"));
        assert!(out.coverage.contains("task:kill-midsteal"));
        assert!(out.coverage.contains("task:steal-loss"));
    }

    #[test]
    fn oracle_clears_stalled_thief_repro() {
        // tests/regressions/stalled-thief-steal.txt: a permanently
        // stalled worker used to run the steal handshake as a thief; the
        // platform pushed its legs past the stall window (the end of
        // virtual time) and the run never terminated. The stalled core
        // must be fenced as fail-stop-equivalent and the oracle must
        // come back clean.
        let text = "\
run mode=single arr=unordered p=1 w=64 h=48 f=4 seed=0xd22d65871def9b4c fid=full threads=4 pool=0 runtime=tasks qcap=8 steal_us=200 steal_retries=3
fault seed=0xa5b5766792751374 drop=0 corrupt=0.2 delay=0 max_delay_us=200 links=2 factor=1 timeout_us=5000 retries=3
sup hb_us=2000 phi=2 spares=4294967295 depth=4
kill p=0 s=3 at_ms=34
kill p=0 s=1 at_ms=27
stall p=0 s=4 at_ms=0 for_ms=18446744073709551615
";
        let case = FuzzCase::from_text(text).expect("repro parses");
        let out = run_oracle(&case);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.coverage.contains("runtime:tasks"));
    }

    #[test]
    fn mutate_preserves_validity() {
        let mut rng = SplitMix::new(42);
        let mut case = FuzzCase::base(1);
        for _ in 0..200 {
            case.mutate(&mut rng);
            case.cfg.validate().expect("mutants stay valid");
            if let Some(scfg) = case.serve_config() {
                scfg.validate().expect("serve mutants stay valid");
            }
        }
    }

    #[test]
    fn coverage_sees_serving_arms() {
        let mut case = FuzzCase::base(3);
        case.serve = Some(ServeFuzz {
            weight_a: 3,
            weight_b: 1,
            ..ServeFuzz::default()
        });
        let set = coverage(
            &case,
            &CoverageEvents {
                serve_sheds: 2,
                serve_cache_hits: 5,
                serve_cache_evictions: 1,
                ..CoverageEvents::default()
            },
        );
        for label in [
            "serve:on",
            "serve:weighted",
            "serve:shed",
            "serve:cache-hit",
            "serve:cache-evict",
        ] {
            assert!(set.contains(label), "missing {label} in {set:?}");
        }
        let clean = coverage(&FuzzCase::base(1), &CoverageEvents::default());
        assert!(
            !clean.iter().any(|c| c.starts_with("serve:")),
            "pipeline-only case claims serving coverage: {clean:?}"
        );
    }

    #[test]
    fn serve_repro_line_round_trips() {
        let mut case = FuzzCase::base(5);
        case.serve = Some(ServeFuzz {
            sessions_a: 8,
            cache_capacity: 0,
            cache_buckets: 1,
            queue_depth: 1,
            ..ServeFuzz::default()
        });
        let text = case.to_text();
        assert!(text.lines().any(|l| l.starts_with("serve ")));
        let back = FuzzCase::from_text(&text).expect("parse own output");
        assert_eq!(back.serve, case.serve);
        assert_eq!(back.to_text(), text);
        // Pre-serving repros still parse to a pipeline-only case.
        let old = FuzzCase::base(5).to_text();
        assert_eq!(FuzzCase::from_text(&old).expect("parse").serve, None);
    }

    #[test]
    #[cfg_attr(feature = "verify-selftest", ignore = "mutants make every run fail")]
    fn oracle_clears_serving_cases() {
        // An overloaded serving workload with a collision-prone cache:
        // the oracle must see a balanced ledger, non-silent sheds and a
        // cache-transparent film — the pressure shows up as coverage.
        let mut case = FuzzCase::base(3);
        case.serve = Some(ServeFuzz {
            sessions_a: 8,
            sessions_b: 2,
            cache_capacity: 2,
            cache_buckets: 1,
            queue_depth: 1,
            max_sessions: 2,
            ..ServeFuzz::default()
        });
        let out = run_oracle(&case);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        for label in ["serve:on", "serve:shed", "serve:cache-evict"] {
            assert!(
                out.coverage.contains(label),
                "missing {label} in {:?}",
                out.coverage
            );
        }

        // A roomy cache over an overlapping pose span: hits, no pressure.
        let mut warm = FuzzCase::base(3);
        warm.serve = Some(ServeFuzz {
            sessions_a: 8,
            ..ServeFuzz::default()
        });
        let out = run_oracle(&warm);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(
            out.coverage.contains("serve:cache-hit"),
            "missing serve:cache-hit in {:?}",
            out.coverage
        );
    }

    #[test]
    fn power_and_workload_repro_lines_round_trip() {
        let mut case = FuzzCase::base(5);
        case.cfg.power = PowerConfig::Governed(GovernorTuning {
            epoch_frames: 2,
            power_cap_watts: 0.0,
            ..GovernorTuning::default()
        });
        case.cfg.workload = Workload::Wavefront(WavefrontSpec {
            width: 32,
            height: 32,
            seeds: 2,
            max_waves: 4,
        });
        let text = case.to_text();
        assert!(text.lines().any(|l| l.starts_with("power kind=governed")));
        assert!(text
            .lines()
            .any(|l| l.starts_with("workload kind=wavefront")));
        let back = FuzzCase::from_text(&text).expect("parse own output");
        assert_eq!(back.to_text(), text);

        let mut split = FuzzCase::base(5);
        split.cfg.power = PowerConfig::Static(vec![
            (CoreId::new(4), FreqMHz::F800),
            (CoreId::new(8), FreqMHz::F400),
            (CoreId::new(12), FreqMHz::F533),
        ]);
        let text = split.to_text();
        assert!(text.contains("power kind=static pairs=4:800,8:400,12:533\n"));
        let back = FuzzCase::from_text(&text).expect("parse");
        assert_eq!(format!("{:?}", back.cfg), format!("{:?}", split.cfg));

        // Every value of every closed set on the run line: its exact
        // token (none for the default kernel and runtime) and a lossless
        // round trip.
        type Edit = fn(&mut RunConfig);
        let closed: [(&str, Option<&str>, Edit); 12] = [
            ("mode=", Some("single"), |c| {
                c.renderer = RendererMode::SingleRenderer
            }),
            ("mode=", Some("perpipe"), |c| {
                c.renderer = RendererMode::PerPipelineRenderer
            }),
            ("mode=", Some("mcpc"), |c| {
                c.renderer = RendererMode::McpcRenderer
            }),
            ("arr=", Some("unordered"), |c| {
                c.arrangement = Arrangement::Unordered
            }),
            ("arr=", Some("ordered"), |c| {
                c.arrangement = Arrangement::Ordered
            }),
            ("arr=", Some("flipped"), |c| {
                c.arrangement = Arrangement::Flipped
            }),
            ("fid=", Some("full"), |c| c.fidelity = Fidelity::Full),
            ("fid=", Some("timing"), |c| {
                c.fidelity = Fidelity::TimingOnly
            }),
            ("kernel=", Some("scalar"), |c| {
                c.tuning.kernel = KernelBackend::Scalar
            }),
            ("kernel=", None, |c| c.tuning.kernel = KernelBackend::Simd),
            ("runtime=", Some("tasks"), |c| c.runtime = Runtime::Tasks),
            ("runtime=", None, |c| c.runtime = Runtime::Static),
        ];
        for (key, value, edit) in closed {
            let mut case = FuzzCase::base(5);
            edit(&mut case.cfg);
            let text = case.to_text();
            let run = text.lines().next().expect("a run line");
            let token = run.split_whitespace().find_map(|w| w.strip_prefix(key));
            assert_eq!(token, value, "{text}");
            let back = FuzzCase::from_text(&text).expect("parse own output");
            assert_eq!(format!("{:?}", back.cfg), format!("{:?}", case.cfg));
        }

        // Pre-power-plane repros still parse to the uniform default.
        let old = FuzzCase::base(5).to_text();
        let parsed = FuzzCase::from_text(&old).expect("parse");
        assert!(matches!(parsed.cfg.power, PowerConfig::Static(ref v) if v.is_empty()));
        assert!(parsed.cfg.workload.is_film());
    }

    #[test]
    fn coverage_sees_dvfs_and_workload_arms() {
        let mut case = FuzzCase::base(3);
        case.cfg.power = PowerConfig::Governed(GovernorTuning {
            power_cap_watts: 0.0,
            ..GovernorTuning::default()
        });
        case.cfg.workload = Workload::Wavefront(WavefrontSpec {
            max_waves: 4,
            ..WavefrontSpec::default()
        });
        let set = coverage(
            &case,
            &CoverageEvents {
                dvfs_raises: 1,
                dvfs_throttles: 1,
                dvfs_cap_blocks: 1,
                ..CoverageEvents::default()
            },
        );
        for label in [
            "dvfs:governed",
            "dvfs:zero-cap",
            "dvfs:raise",
            "dvfs:throttle",
            "dvfs:cap-block",
            "workload:wavefront",
            "wavefront:capped",
        ] {
            assert!(set.contains(label), "missing {label} in {set:?}");
        }
        let mut split = FuzzCase::base(3);
        split.cfg.power = PowerConfig::Static(vec![(CoreId::new(4), FreqMHz::F800)]);
        let set = coverage(&split, &CoverageEvents::default());
        assert!(set.contains("dvfs:static"));
        assert!(set.contains("dvfs:static-raise"));
        let clean = coverage(&FuzzCase::base(1), &CoverageEvents::default());
        assert!(
            !clean
                .iter()
                .any(|c| c.starts_with("dvfs:") || c.starts_with("workload:")),
            "default case claims power/workload coverage: {clean:?}"
        );
    }

    #[test]
    #[cfg_attr(feature = "verify-selftest", ignore = "mutants make every run fail")]
    fn oracle_clears_governed_wavefront_case() {
        let mut case = FuzzCase::base(11);
        case.cfg.workload = Workload::Wavefront(WavefrontSpec::default());
        case.cfg.power = PowerConfig::Governed(GovernorTuning {
            epoch_frames: 2,
            ..GovernorTuning::default()
        });
        let out = run_oracle(&case);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.coverage.contains("workload:wavefront"));
        assert!(out.coverage.contains("dvfs:governed"));
    }

    #[test]
    fn coverage_sees_fault_decision_branches() {
        let mut lossy = FuzzCase::base(1);
        lossy.cfg.fault = Some(FaultSpec {
            seed: 9,
            drop_rate: 0.3,
            corrupt_rate: 0.3,
            delay_rate: 0.3,
            ..FaultSpec::default()
        });
        let set = coverage(&lossy, &CoverageEvents::default());
        for feature in [
            "msg:drop",
            "msg:corrupt",
            "msg:delay",
            "msg:deliver",
            "flit:delayed",
        ] {
            assert!(set.contains(feature), "missing {feature} in {set:?}");
        }
        let clean = coverage(&FuzzCase::base(1), &CoverageEvents::default());
        assert!(
            !clean.contains("msg:drop"),
            "clean case claims fault coverage"
        );
    }

    #[test]
    fn coverage_sees_scheduler_decisions() {
        let mut auto = FuzzCase::base(1);
        auto.cfg.auto_place = true;
        let set = coverage(&auto, &CoverageEvents::default());
        for feature in ["place:auto", "place:replicated", "place:merged"] {
            assert!(set.contains(feature), "missing {feature} in {set:?}");
        }
        let clean = coverage(&FuzzCase::base(1), &CoverageEvents::default());
        assert!(
            !clean.contains("place:auto"),
            "fixed case claims scheduler coverage"
        );
        auto.cfg.stage_weights = Some(vec![1.0; 5]);
        assert!(coverage(&auto, &CoverageEvents::default()).contains("weights:explicit"));
    }

    #[test]
    #[cfg_attr(feature = "verify-selftest", ignore = "mutants make every run fail")]
    fn oracle_passes_auto_placed_cases() {
        // The scheduler inside the full differential oracle: sim vs DES
        // vs sequential reference, clean and with a kill on the
        // replicated bottleneck's primary.
        let mut auto = FuzzCase::base(3);
        auto.cfg.auto_place = true;
        let out = run_oracle(&auto);
        assert!(
            out.failures.is_empty(),
            "auto case failed: {:?}",
            out.failures
        );
        assert!(out.coverage.contains("place:auto"));

        auto.cfg.fault = Some(FaultSpec {
            kills: vec![KillSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 1,
            }],
            heartbeat_period_us: 2_000,
            phi_dead: 2.0,
            ..FaultSpec::default()
        });
        let out = run_oracle(&auto);
        assert!(
            out.failures.is_empty(),
            "auto kill case failed: {:?}",
            out.failures
        );
        assert!(out.coverage.contains("event:recovery"));
    }

    #[test]
    #[cfg_attr(feature = "verify-selftest", ignore = "mutants make every run fail")]
    fn oracle_passes_clean_and_recovery_cases() {
        let clean = FuzzCase::base(3);
        let out = run_oracle(&clean);
        assert!(
            out.failures.is_empty(),
            "clean case failed: {:?}",
            out.failures
        );
        assert!(out.coverage.contains("mode:single"));

        let mut kill = FuzzCase::base(3);
        kill.cfg.fault = Some(FaultSpec {
            kills: vec![KillSpec {
                pipeline: 0,
                stage: 1,
                at_ms: 1,
            }],
            heartbeat_period_us: 2_000,
            phi_dead: 2.0,
            ..FaultSpec::default()
        });
        let out = run_oracle(&kill);
        assert!(
            out.failures.is_empty(),
            "kill case failed: {:?}",
            out.failures
        );
        assert!(out.coverage.contains("event:recovery"));
    }
}
