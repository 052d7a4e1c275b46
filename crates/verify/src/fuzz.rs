//! Coverage-guided fault-space fuzzing.
//!
//! A [`FuzzCase`] is a complete [`RunConfig`] with a ≤ 10-line text form
//! (the repro format under `tests/regressions/`). The fuzzer mutates the
//! fault plan, kill schedule and tuning of corpus cases, runs each mutant
//! through the differential oracle ([`run_oracle`]), and keeps mutants
//! whose [`coverage`] reaches fault-decision branches or recovery phases
//! no earlier case reached. Failures are [`shrink`]-minimised while
//! preserving the failing check's name.

use rand::rngs::StdRng;
use rand::Rng;
use scc_core::spec::{
    Arrangement, FaultSpec, Fidelity, GovernorTuning, KernelChoice, KillSpec, PowerConfig,
    RendererMode, RunConfig, Runtime, StallSpec, TaskTuning, WavefrontSpec, Workload,
};
use scc_core::viz::frame_checksum;
use scc_core::{run_with_scene, Backend, BackendReport, GovernorAction, WalkthroughReport};
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

fn mode_tag(m: RendererMode) -> &'static str {
    match m {
        RendererMode::SingleRenderer => "single",
        RendererMode::PerPipelineRenderer => "perpipe",
        RendererMode::McpcRenderer => "mcpc",
    }
}

fn mode_from_tag(s: &str) -> Result<RendererMode, String> {
    match s {
        "single" => Ok(RendererMode::SingleRenderer),
        "perpipe" => Ok(RendererMode::PerPipelineRenderer),
        "mcpc" => Ok(RendererMode::McpcRenderer),
        _ => Err(format!("unknown renderer mode `{s}`")),
    }
}

fn arr_from_tag(s: &str) -> Result<Arrangement, String> {
    match s {
        "unordered" => Ok(Arrangement::Unordered),
        "ordered" => Ok(Arrangement::Ordered),
        "flipped" => Ok(Arrangement::Flipped),
        _ => Err(format!("unknown arrangement `{s}`")),
    }
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
        if c.tuning.kernel != KernelChoice::default() {
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
            mode_tag(c.renderer),
            c.arrangement.name(),
            c.pipelines,
            c.width,
            c.height,
            c.frames,
            c.seed,
            match c.fidelity {
                Fidelity::Full => "full",
                Fidelity::TimingOnly => "timing",
            },
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
                    c.renderer = mode_from_tag(l.get("mode")?).map_err(|e| l.err(e))?;
                    c.arrangement = arr_from_tag(l.get("arr")?).map_err(|e| l.err(e))?;
                    c.pipelines = l.int("p")?;
                    c.width = l.int("w")?;
                    c.height = l.int("h")?;
                    c.frames = l.int("f")?;
                    c.seed = l.int("seed")?;
                    c.fidelity = match l.get("fid")? {
                        "full" => Fidelity::Full,
                        "timing" => Fidelity::TimingOnly,
                        other => return Err(l.err(format!("unknown fidelity `{other}`"))),
                    };
                    c.tuning.kernel_threads = l.int("threads")?;
                    c.tuning.buffer_pool = l.int::<u64>("pool")? != 0;
                    // Optional: absent in pre-scheduler repros.
                    c.auto_place = l.has("auto") && l.int::<u64>("auto")? != 0;
                    // Optional: absent in pre-kernel-backend repros.
                    if l.has("kernel") {
                        c.tuning.kernel = match l.get("kernel")? {
                            "scalar" => KernelChoice::Scalar,
                            "simd" => KernelChoice::Simd,
                            other => return Err(l.err(format!("unknown kernel `{other}`"))),
                        };
                    }
                    // Optional: absent in pre-task-runtime repros.
                    if l.has("runtime") {
                        c.runtime = match l.get("runtime")? {
                            "static" => Runtime::Static,
                            "tasks" => Runtime::Tasks,
                            other => return Err(l.err(format!("unknown runtime `{other}`"))),
                        };
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
                                let f = match mhz {
                                    "400" => FreqMHz::F400,
                                    "533" => FreqMHz::F533,
                                    "800" => FreqMHz::F800,
                                    other => return Err(format!("unknown frequency `{other}`")),
                                };
                                Ok((core, f))
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
    pub fn mutate(&mut self, rng: &mut StdRng) {
        for _ in 0..24 {
            let mut next = self.clone();
            next.mutate_once(rng);
            let serve_ok = next.serve_config().is_none_or(|s| s.validate().is_ok())
                && (next.cfg.workload.is_film() || next.serve.is_none());
            if next.cfg.validate().is_ok() && serve_ok {
                *self = next;
                return;
            }
        }
    }

    fn mutate_once(&mut self, rng: &mut StdRng) {
        let c = &mut self.cfg;
        match rng.gen_range(0u32..31) {
            0 => {
                c.renderer = [
                    RendererMode::SingleRenderer,
                    RendererMode::PerPipelineRenderer,
                    RendererMode::McpcRenderer,
                ][rng.gen_range(0usize..3)]
            }
            1 => {
                c.arrangement = [
                    Arrangement::Unordered,
                    Arrangement::Ordered,
                    Arrangement::Flipped,
                ][rng.gen_range(0usize..3)]
            }
            2 => c.pipelines = rng.gen_range(1u32..=4),
            3 => {
                let (w, h) = [(32u32, 24u32), (48, 32), (64, 48)][rng.gen_range(0usize..3)];
                c.width = w;
                c.height = h;
            }
            4 => c.frames = rng.gen_range(2u64..=5),
            5 => c.seed = rng.gen(),
            6 => {
                c.fidelity = if rng.gen() {
                    Fidelity::Full
                } else {
                    Fidelity::TimingOnly
                }
            }
            7 => c.tuning.buffer_pool = rng.gen(),
            8 => c.fault = None,
            9 => {
                let f = c.fault.get_or_insert_with(FaultSpec::default);
                f.seed = rng.gen();
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
            12 => {
                if let Some(f) = &mut c.fault {
                    f.kills.clear();
                }
            }
            13 => {
                let pipelines = c.pipelines;
                let f = c.fault.get_or_insert_with(FaultSpec::default);
                f.stall = Some(StallSpec {
                    pipeline: rng.gen_range(0..pipelines),
                    stage: rng.gen_range(0u32..5),
                    at_ms: rng.gen_range(0u64..=2),
                    for_ms: if rng.gen() {
                        rng.gen_range(1u64..=5)
                    } else {
                        u64::MAX
                    },
                });
            }
            14 => {
                if let Some(f) = &mut c.fault {
                    f.stall = None;
                }
            }
            15 => {
                let f = c.fault.get_or_insert_with(FaultSpec::default);
                f.max_spares = rng.gen_range(0u32..=2);
                f.retry_budget = rng.gen_range(0u32..=4);
                f.timeout_us = [200, 500, 1_000][rng.gen_range(0usize..3)];
                f.checkpoint_depth = rng.gen_range(1u32..=4);
            }
            16 => c.auto_place = !c.auto_place,
            19 => {
                c.tuning.kernel = if rng.gen() {
                    KernelChoice::Scalar
                } else {
                    KernelChoice::Simd
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
                c.runtime = if rng.gen() {
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
                c.power = if rng.gen() {
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
                if rng.gen() {
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
        // Drop fault sub-specs that point past a shrunken pipeline count.
        if let Some(f) = &mut c.fault {
            let p = c.pipelines;
            f.kills.retain(|k| k.pipeline < p);
            if f.stall.is_some_and(|s| s.pipeline >= p) {
                f.stall = None;
            }
        }
    }
}

/// Static + dynamic coverage features of one case/report pair. Static
/// features come from probing the deterministic [`FaultPlan`] decision
/// surface (which branches *will* fire); dynamic ones from what the run
/// actually did (degradations, recoveries, replay).
pub fn coverage(case: &FuzzCase, outcome_events: &CoverageEvents) -> BTreeSet<String> {
    let c = &case.cfg;
    let mut set = BTreeSet::new();
    set.insert(format!("mode:{}", mode_tag(c.renderer)));
    set.insert(format!("arr:{}", c.arrangement.name()));
    set.insert(format!("p:{}", c.pipelines));
    set.insert(format!(
        "fid:{}",
        if c.fidelity == Fidelity::Full {
            "full"
        } else {
            "timing"
        }
    ));
    if !c.tuning.buffer_pool {
        set.insert("tuning:no-pool".into());
    }
    if c.tuning.kernel != KernelChoice::default() {
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
    if outcome_events.degradations > 0 {
        set.insert("event:degradation".into());
    }
    if outcome_events.recoveries > 0 {
        set.insert("event:recovery".into());
    }
    if outcome_events.frames_replayed > 0 {
        set.insert("event:replay".into());
    }
    if outcome_events.task_backpressure > 0 {
        set.insert("task:queue-full".into());
    }
    if outcome_events.task_steals > 0 {
        set.insert("task:steal".into());
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
    if outcome_events.dvfs_raises > 0 {
        set.insert("dvfs:raise".into());
    }
    if outcome_events.dvfs_throttles > 0 {
        set.insert("dvfs:throttle".into());
    }
    if outcome_events.dvfs_cap_blocks > 0 {
        set.insert("dvfs:cap-block".into());
    }
    if outcome_events.serve_sheds > 0 {
        set.insert("serve:shed".into());
    }
    if outcome_events.serve_cache_hits > 0 {
        set.insert("serve:cache-hit".into());
    }
    if outcome_events.serve_cache_evictions > 0 {
        set.insert("serve:cache-evict".into());
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

/// Does the DES differential apply to this configuration? Whatever
/// `scc_core::check_support` lets `Backend::Des` run, minus two *policy*
/// exclusions of this oracle.
fn des_eligible(cfg: &RunConfig) -> bool {
    // ROADMAP 4a: replicated/merged groups give the frame-major and
    // pipelined executors different idle profiles, so near a governor
    // threshold the two can legitimately pick different moves (default
    // placements stay in: their traces must match epoch for epoch).
    let governed_auto = matches!(cfg.power, PowerConfig::Governed(_)) && cfg.auto_place;
    // A stalled worker is fenced at a schedule-dependent instant, so the
    // two task-runtime flavors have no common timeline to compare.
    let stalled = cfg.fault.as_ref().is_some_and(|f| f.stall.is_some());
    scc_core::check_support(cfg, Backend::Des).is_ok() && !governed_auto && !stalled
}

/// Frames each (stage kind, pipeline) processed, replicas summed.
fn frames_per_stage(r: &WalkthroughReport) -> BTreeMap<(&'static str, Option<u32>), u64> {
    let mut sums = BTreeMap::new();
    for s in &r.stage_reports {
        *sums.entry((s.kind.name(), s.pipeline)).or_default() += s.frames;
    }
    sums
}

/// What the sim's report and the DES report of one case must share: the
/// film, the invariant catalogue (on the DES report too), and on the
/// static pipeline — which routes every strip the same way on both
/// executors — the frames each (stage, pipeline) ledger counted.
fn des_report_checks(
    case: &FuzzCase,
    sim: &WalkthroughReport,
    des: &WalkthroughReport,
) -> Vec<Failure> {
    let mut failures = Vec::new();
    if case.cfg.fidelity == Fidelity::Full {
        if let (Some(a), Some(b)) = (&sim.outputs, &des.outputs) {
            let fa: Vec<u64> = a.iter().map(frame_checksum).collect();
            let fb: Vec<u64> = b.iter().map(frame_checksum).collect();
            if fa != fb {
                failures.push(Failure {
                    check: "differential-film".into(),
                    detail: "sim and DES output films differ".into(),
                });
            }
        }
    }
    for v in scc_core::invariant::check_report(des) {
        failures.push(Failure {
            check: format!("des-invariant:{}", v.check),
            detail: v.detail,
        });
    }
    let (s, d) = (frames_per_stage(sim), frames_per_stage(des));
    if case.cfg.runtime == Runtime::Static && s != d {
        failures.push(Failure {
            check: "differential-ledger".into(),
            detail: format!("frames per (stage, pipeline): sim {s:?}, DES {d:?}"),
        });
    }
    failures
}

/// Run one case through every oracle that applies:
///
/// 1. the frame-major simulator with the full invariant catalogue
///    applied to its report (collected, not panicking);
/// 2. the film oracle — `Full`-fidelity output frames must match the
///    sequential reference bit for bit, faults or no faults;
/// 3. the DES differential — when the config is inside the DES envelope,
///    the invariant catalogue on the DES report too (as
///    `des-invariant:<check>`), the same frames per (stage, pipeline) on
///    the static pipeline (`differential-ledger`), walkthrough timing
///    (clean runs, ±[`DES_TIMING_TOLERANCE`]), the
///    recovery timeline and the output film must agree between the two
///    executors. Kills inside the end-of-run boundary window (see
///    [`DES_TIMING_TOLERANCE`]) are excluded from the recovery-count
///    comparison and surface as `replay:boundary-kill` coverage.
pub fn run_oracle(case: &FuzzCase) -> Outcome {
    if !case.cfg.workload.is_film() {
        return run_workload_oracle(case);
    }
    let mut failures = Vec::new();

    let mut sim_cfg = case.cfg.clone();
    sim_cfg.trace = true; // the trace invariants need spans
    sim_cfg.verify = false; // collect violations instead of panicking
    let report = match run_caught(|| {
        run_with_scene(&sim_cfg, Backend::Sim, crate::verify_scene())
            .report
            .sim()
            .expect("a sim film run")
    }) {
        Ok(r) => r,
        Err(msg) if msg.contains("no surviving pipeline") => {
            // Every lane dead is a *modelled* fatal outcome (the sim
            // documents the panic), so it counts as coverage, not as a
            // conformance failure.
            let mut cov = coverage(case, &CoverageEvents::default());
            cov.insert("event:total-loss".into());
            return Outcome {
                failures: Vec::new(),
                coverage: cov,
            };
        }
        Err(msg) => {
            return Outcome {
                failures: vec![Failure {
                    check: "panic".into(),
                    detail: msg,
                }],
                coverage: coverage(case, &CoverageEvents::default()),
            };
        }
    };

    for v in scc_core::invariant::check_report(&report) {
        failures.push(Failure {
            check: v.check.to_string(),
            detail: v.detail,
        });
    }

    if case.cfg.fidelity == Fidelity::Full {
        let reference = scc_core::reference::reference_frames(&case.cfg, crate::verify_scene());
        match &report.outputs {
            Some(frames) if frames.len() == reference.len() => {
                for (i, (got, want)) in frames.iter().zip(&reference).enumerate() {
                    let (g, w) = (frame_checksum(got), frame_checksum(want));
                    if g != w {
                        failures.push(Failure {
                            check: "film-divergence".into(),
                            detail: format!("frame {i}: sim {g:016x} != reference {w:016x}"),
                        });
                        break;
                    }
                }
            }
            Some(frames) => failures.push(Failure {
                check: "film-divergence".into(),
                detail: format!(
                    "sim delivered {} frames, reference {}",
                    frames.len(),
                    reference.len()
                ),
            }),
            None => failures.push(Failure {
                check: "film-divergence".into(),
                detail: "full fidelity but no output frames".into(),
            }),
        }
    }

    let mut boundary_cov: Option<String> = None;
    if des_eligible(&case.cfg) {
        let mut des_cfg = case.cfg.clone();
        des_cfg.trace = false;
        des_cfg.verify = false;
        let des = match run_caught(|| {
            run_with_scene(&des_cfg, Backend::Des, crate::verify_scene())
                .report
                .des()
                .expect("a DES film run")
        }) {
            Ok(d) => d,
            Err(msg) => {
                failures.push(Failure {
                    check: "panic".into(),
                    detail: format!("DES executor panicked: {msg}"),
                });
                let events = CoverageEvents {
                    degradations: report.degradations.len(),
                    recoveries: report.recoveries.len(),
                    frames_replayed: report.recoveries.iter().map(|r| r.frames_replayed).sum(),
                    task_backpressure: report.task_stats.map_or(0, |t| t.backpressure_stalls),
                    task_steals: report.task_stats.map_or(0, |t| t.steals),
                    ..CoverageEvents::default()
                };
                return Outcome {
                    failures,
                    coverage: coverage(case, &events),
                };
            }
        };
        // The strict timing bound binds uniform-frequency runs only: a
        // governed run changes frequency mid-flight, and the frame-major
        // and pipelined executors overlap those changes with idle time
        // differently, so end-to-end skew can legitimately exceed the
        // drain-order tolerance. The governed cross-backend instrument is
        // the decision trace, which must match epoch for epoch.
        let uniform_power = matches!(&case.cfg.power, PowerConfig::Static(v) if v.is_empty());
        if case.cfg.fault.is_none() && uniform_power {
            let dev = (des.total_secs - report.total_secs).abs() / report.total_secs;
            if dev > DES_TIMING_TOLERANCE {
                failures.push(Failure {
                    check: "differential-timing".into(),
                    detail: format!(
                        "sim {:.6}s vs DES {:.6}s ({:.1}% apart)",
                        report.total_secs,
                        des.total_secs,
                        dev * 100.0
                    ),
                });
            }
        }
        if matches!(&case.cfg.power, PowerConfig::Governed(_))
            && report.dvfs_decisions != des.dvfs_decisions
        {
            failures.push(Failure {
                check: "dvfs-parity".into(),
                detail: format!(
                    "sim made {} decision(s), DES {} — traces differ",
                    report.dvfs_decisions.len(),
                    des.dvfs_decisions.len()
                ),
            });
        }
        // Boundary-kill tolerance: sim and DES agree on end-to-end time
        // only to ±DES_TIMING_TOLERANCE, and within the *last frame's*
        // transit of the pipeline the executors additionally disagree
        // about per-stage drain order (the frame-major sim walks every
        // stage of frame k before frame k+1; the DES pipelines them).
        // A kill scheduled inside that window of the earlier finisher's
        // end is observable by one executor and past the other's last
        // strip for the killed stage. Its recovery count has no
        // well-defined cross-executor answer; the oracle records the
        // boundary as coverage instead of reporting divergence.
        let boundary_kills = case.cfg.fault.as_ref().map_or(0, |f| {
            let min_total = report.total_secs.min(des.total_secs);
            // Frames interleave across pipelines, so the drain cadence a
            // killed stage sees is its *lane's* frame count: with p
            // lanes, a lane turns over every ceil(f/p)-th of the run.
            let lane_frames = case
                .cfg
                .frames
                .div_ceil(u64::from(case.cfg.pipelines.max(1)));
            let frame_period = min_total / lane_frames.max(1) as f64;
            let horizon = min_total * (1.0 - DES_TIMING_TOLERANCE) - frame_period;
            f.kills
                .iter()
                .filter(|k| k.at_ms as f64 / 1e3 >= horizon)
                .count()
        });
        if boundary_kills > 0 {
            boundary_cov = Some("replay:boundary-kill".to_string());
        }
        // Under the task runtime the two backends run differently
        // flavored schedules, so whether a kill is observed with chains
        // still queued (a fence records a recovery) or caught at handoff
        // time and re-routed (no event) — and how much in-flight work a
        // fence catches — are both legitimately schedule-dependent. The
        // cross-backend instruments there are the film and the conserved
        // task ledger; the replay-count comparison only binds the static
        // pipeline, whose recovery schedule is deterministic.
        if case.cfg.runtime != Runtime::Static {
            // fallthrough to the film comparison below
        } else if des.recoveries.len() != report.recoveries.len() {
            let diff = report.recoveries.len().abs_diff(des.recoveries.len());
            if diff > boundary_kills {
                failures.push(Failure {
                    check: "differential-replay".into(),
                    detail: format!(
                        "sim recovered {} times, DES {} ({} boundary kill(s) tolerated)",
                        report.recoveries.len(),
                        des.recoveries.len(),
                        boundary_kills
                    ),
                });
            }
        } else if boundary_kills == 0 {
            for (s, d) in report.recoveries.iter().zip(&des.recoveries) {
                if s.frames_replayed != d.frames_replayed {
                    failures.push(Failure {
                        check: "differential-replay".into(),
                        detail: format!(
                            "frame {}: sim replayed {} frames, DES {}",
                            s.frame, s.frames_replayed, d.frames_replayed
                        ),
                    });
                    break;
                }
            }
        }
        failures.extend(des_report_checks(case, &report, &des));
    }

    // Serving oracle: when the case carries a serving workload, the
    // frontend must (a) keep the exactly-once session ledger balanced,
    // (b) be *semantically transparent* about its strip cache — the film
    // fingerprint and frame count with the cache on must equal a second
    // run with the cache disabled — and (c) never shed silently (counter
    // and event log agree). The decisions are cache-independent by
    // construction, so this is exact, not statistical.
    let (mut serve_sheds, mut serve_hits, mut serve_evicts) = (0u64, 0u64, 0u64);
    if let Some(scfg) = case.serve_config() {
        match run_caught(|| serve(&scfg, &crate::verify_scene())) {
            Ok(on) => {
                let r = &on.report;
                for v in scc_core::check_session_ledger(r.admitted, r.completed, r.shed) {
                    failures.push(Failure {
                        check: v.check.to_string(),
                        detail: v.detail,
                    });
                }
                if r.shed != r.shed_events.len() as u64 {
                    failures.push(Failure {
                        check: "serve-silent-shed".into(),
                        detail: format!(
                            "shed counter {} but {} shed event(s) recorded",
                            r.shed,
                            r.shed_events.len()
                        ),
                    });
                }
                let mut off_cfg = scfg.clone();
                off_cfg.cache_capacity = 0;
                match run_caught(|| serve(&off_cfg, &crate::verify_scene())) {
                    Ok(off) => {
                        if r.film_hash != off.report.film_hash
                            || r.frames_served != off.report.frames_served
                        {
                            failures.push(Failure {
                                check: "serve-cache-transparency".into(),
                                detail: format!(
                                    "cache on: film {:016x} / {} frames, \
                                     cache off: film {:016x} / {} frames",
                                    r.film_hash,
                                    r.frames_served,
                                    off.report.film_hash,
                                    off.report.frames_served
                                ),
                            });
                        }
                    }
                    Err(msg) => failures.push(Failure {
                        check: "panic".into(),
                        detail: format!("serving engine panicked (cache off): {msg}"),
                    }),
                }
                serve_sheds = r.shed;
                serve_hits = r.cache.hits;
                serve_evicts = r.cache.evictions;
            }
            Err(msg) => failures.push(Failure {
                check: "panic".into(),
                detail: format!("serving engine panicked: {msg}"),
            }),
        }
    }

    let (dvfs_raises, dvfs_throttles, dvfs_cap_blocks) = dvfs_counts(&report.dvfs_decisions);
    let events = CoverageEvents {
        degradations: report.degradations.len(),
        recoveries: report.recoveries.len(),
        frames_replayed: report.recoveries.iter().map(|r| r.frames_replayed).sum(),
        task_backpressure: report.task_stats.map_or(0, |t| t.backpressure_stalls),
        task_steals: report.task_stats.map_or(0, |t| t.steals),
        serve_sheds,
        serve_cache_hits: serve_hits,
        serve_cache_evictions: serve_evicts,
        dvfs_raises,
        dvfs_throttles,
        dvfs_cap_blocks,
    };
    let mut cov = coverage(case, &events);
    cov.extend(boundary_cov);
    Outcome {
        failures,
        coverage: cov,
    }
}

fn dvfs_counts(decisions: &[scc_core::GovernorDecision]) -> (u64, u64, u64) {
    let mut raises = 0;
    let mut throttles = 0;
    let mut blocks = 0;
    for d in decisions {
        match d.action {
            GovernorAction::Raise { .. } => raises += 1,
            GovernorAction::Throttle { .. } => throttles += 1,
            GovernorAction::CapBlocked { .. } => blocks += 1,
            GovernorAction::Hold => {}
        }
    }
    (raises, throttles, blocks)
}

/// The oracle for spec-driven (non-film) workloads: the item-major
/// simulator and the DES executor run the same resolved chain, so their
/// output digests must be bit-equal and their virtual times within
/// [`DES_TIMING_TOLERANCE`]; a governed run must additionally produce an
/// identical decision trace on both backends and the same output digest
/// as an ungoverned run — the governor moves schedules, never bytes.
fn run_workload_oracle(case: &FuzzCase) -> Outcome {
    let mut failures = Vec::new();
    let mut cfg = case.cfg.clone();
    cfg.trace = false;
    cfg.verify = false;

    let generic = |backend: Backend| -> Result<scc_core::GenericReport, String> {
        run_caught(|| scc_core::run(&cfg, backend)).map(|out| match out.report {
            BackendReport::Generic(r) => r,
            _ => unreachable!("workload runs return the generic report"),
        })
    };
    let (sim, des) = match (generic(Backend::Sim), generic(Backend::Des)) {
        (Ok(s), Ok(d)) => (s, d),
        (Err(msg), _) | (_, Err(msg)) => {
            return Outcome {
                failures: vec![Failure {
                    check: "panic".into(),
                    detail: msg,
                }],
                coverage: coverage(case, &CoverageEvents::default()),
            };
        }
    };

    for r in [&sim, &des] {
        for v in scc_core::check_generic_report(r) {
            failures.push(Failure {
                check: v.check.to_string(),
                detail: v.detail,
            });
        }
    }
    if sim.output_digest != des.output_digest {
        failures.push(Failure {
            check: "workload-digest-divergence".into(),
            detail: format!(
                "sim digest {:016x} != DES digest {:016x}",
                sim.output_digest, des.output_digest
            ),
        });
    }
    let dev = (des.total_secs - sim.total_secs).abs() / sim.total_secs;
    if dev > DES_TIMING_TOLERANCE {
        failures.push(Failure {
            check: "differential-timing".into(),
            detail: format!(
                "sim {:.6}s vs DES {:.6}s ({:.1}% apart)",
                sim.total_secs,
                des.total_secs,
                dev * 100.0
            ),
        });
    }
    if matches!(cfg.power, PowerConfig::Governed(_)) {
        if sim.dvfs_decisions != des.dvfs_decisions {
            failures.push(Failure {
                check: "dvfs-parity".into(),
                detail: format!(
                    "sim made {} decision(s), DES {} — traces differ",
                    sim.dvfs_decisions.len(),
                    des.dvfs_decisions.len()
                ),
            });
        }
        let mut ungoverned = cfg.clone();
        ungoverned.power = PowerConfig::default();
        match run_caught(|| scc_core::run(&ungoverned, Backend::Sim)) {
            Ok(out) => {
                let BackendReport::Generic(r) = out.report else {
                    unreachable!("workload runs return the generic report")
                };
                if r.output_digest != sim.output_digest {
                    failures.push(Failure {
                        check: "dvfs-output-drift".into(),
                        detail: format!(
                            "governed digest {:016x} != static digest {:016x}",
                            sim.output_digest, r.output_digest
                        ),
                    });
                }
            }
            Err(msg) => failures.push(Failure {
                check: "panic".into(),
                detail: format!("ungoverned workload run panicked: {msg}"),
            }),
        }
    }

    let (dvfs_raises, dvfs_throttles, dvfs_cap_blocks) = dvfs_counts(&sim.dvfs_decisions);
    let events = CoverageEvents {
        dvfs_raises,
        dvfs_throttles,
        dvfs_cap_blocks,
        ..CoverageEvents::default()
    };
    Outcome {
        failures,
        coverage: coverage(case, &events),
    }
}

/// Run a runner call, converting a panic into its message. Keeps one bad
/// mutant from killing the whole fuzzing campaign.
fn run_caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// Does the case still fail with the same check name?
fn still_fails(case: &FuzzCase, check: &str) -> bool {
    case.cfg.validate().is_ok()
        && case.serve_config().is_none_or(|s| s.validate().is_ok())
        && run_oracle(case).failures.iter().any(|f| f.check == check)
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
    if c.tuning.kernel != KernelChoice::default() {
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
        |t| {
            if let Some(f) = &mut t.cfg.fault {
                f.stall = None;
            }
        },
        |t| {
            if let Some(f) = &mut t.cfg.fault {
                f.kills.truncate(1);
            }
        },
        |t| {
            if let Some(f) = &mut t.cfg.fault {
                f.kills.clear();
            }
        },
        |t| {
            if let Some(f) = &mut t.cfg.fault {
                f.drop_rate = 0.0;
                f.corrupt_rate = 0.0;
                f.delay_rate = 0.0;
            }
        },
        |t| {
            if let Some(f) = &mut t.cfg.fault {
                f.degraded_links = 0;
                f.degrade_factor = 1.0;
            }
        },
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
            if let Some(f) = &mut trial.cfg.fault {
                let p = trial.cfg.pipelines;
                f.kills.retain(|k| k.pipeline < p);
                if f.stall.is_some_and(|s| s.pipeline >= p) {
                    f.stall = None;
                }
            }
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
    use rand::SeedableRng;

    #[test]
    fn repro_text_round_trips() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
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
        let mut rng = StdRng::seed_from_u64(42);
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
        ]);
        let text = split.to_text();
        assert!(text.contains("power kind=static pairs=4:800,8:400"));
        assert_eq!(FuzzCase::from_text(&text).expect("parse").to_text(), text);

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
