//! Pipeline configuration: renderer mode, arrangement, geometry, fidelity.

use scc_sim::{CoreId, FreqMHz};

/// The stage types of the paper's macro pipeline (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// RS — renders a strip (or the full frame) from the CAD data.
    Render,
    /// CS — receives frames from the MCPC and distributes them.
    Connect,
    /// SeS — sepia tone.
    Sepia,
    /// BS — blur (the most expensive filter stage).
    Blur,
    /// ScS — random vertical scratches.
    Scratch,
    /// FS — per-frame brightness flicker.
    Flicker,
    /// SwS — vertical mirror.
    Swap,
    /// TrS — collects strips, assembles, sends to the visualisation client.
    Transfer,
}

impl StageKind {
    /// The five filter stages inside one pipeline, in order.
    pub const PIPELINE_FILTERS: [StageKind; 5] = [
        StageKind::Sepia,
        StageKind::Blur,
        StageKind::Scratch,
        StageKind::Flicker,
        StageKind::Swap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            StageKind::Render => "render",
            StageKind::Connect => "connect",
            StageKind::Sepia => "sepia",
            StageKind::Blur => "blur",
            StageKind::Scratch => "scratch",
            StageKind::Flicker => "flicker",
            StageKind::Swap => "swap",
            StageKind::Transfer => "transfer",
        }
    }
}

/// Who renders (§V's three scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RendererMode {
    /// One SCC core renders full frames and splits them among pipelines.
    SingleRenderer,
    /// One render stage per pipeline, each rendering its own strip
    /// (sort-first).
    PerPipelineRenderer,
    /// The MCPC's Xeon renders; a connector core on the SCC distributes.
    McpcRenderer,
}

impl RendererMode {
    pub fn name(self) -> &'static str {
        match self {
            RendererMode::SingleRenderer => "1 renderer",
            RendererMode::PerPipelineRenderer => "n renderers",
            RendererMode::McpcRenderer => "MCPC renderer",
        }
    }

    /// SCC cores needed for `p` pipelines in this mode.
    pub fn cores_needed(self, p: u32) -> u32 {
        match self {
            // render + 5p filters + transfer
            RendererMode::SingleRenderer => 5 * p + 2,
            // p renderers + 5p filters + transfer
            RendererMode::PerPipelineRenderer => 6 * p + 1,
            // connector + 5p filters + transfer
            RendererMode::McpcRenderer => 5 * p + 2,
        }
    }

    /// Largest pipeline count that fits on the 48-core SCC.
    pub fn max_pipelines(self) -> u32 {
        let mut p = 1;
        while self.cores_needed(p + 1) <= 48 {
            p += 1;
        }
        p
    }
}

/// Physical placement strategies for the pipeline stages (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrangement {
    /// Stages assigned in SCC core-id order.
    Unordered,
    /// Pipelines laid in parallel along the mesh rows.
    Ordered,
    /// Like ordered, but every second pipeline reversed.
    Flipped,
}

impl Arrangement {
    pub fn name(self) -> &'static str {
        match self {
            Arrangement::Unordered => "unordered",
            Arrangement::Ordered => "ordered",
            Arrangement::Flipped => "flipped",
        }
    }

    pub fn all() -> [Arrangement; 3] {
        [
            Arrangement::Unordered,
            Arrangement::Ordered,
            Arrangement::Flipped,
        ]
    }
}

/// Whether frames carry real pixels through the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Process real images (output comparable to the reference).
    Full,
    /// Charge costs only; frames carry byte counts. Timing is identical
    /// to `Full` by construction.
    TimingOnly,
}

/// A core stall injected into the simulated run, addressed by pipeline
/// position rather than raw core id so it survives placement changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallSpec {
    /// Which pipeline's stage stalls (0-based).
    pub pipeline: u32,
    /// Which of the five filter stages stalls (0-based, sepia..swap).
    pub stage: u32,
    /// Start of the stall window, milliseconds of virtual time.
    pub at_ms: u64,
    /// Stall length, milliseconds; `u64::MAX` = never recovers.
    pub for_ms: u64,
}

/// A permanent fail-stop core kill, addressed like [`StallSpec`] by
/// pipeline position. Unlike a stall the core never comes back; with a
/// spare core available the supervisor *migrates* the stage instead of
/// failing the whole lane over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillSpec {
    /// Which pipeline's stage dies (0-based).
    pub pipeline: u32,
    /// Which of the five filter stages dies (0-based, sepia..swap).
    pub stage: u32,
    /// Instant of the fail-stop, milliseconds of virtual time.
    pub at_ms: u64,
}

/// Fault-injection knobs for a run. All rates are per transmission
/// attempt; the same seed always produces the same fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the deterministic fault schedule.
    pub seed: u64,
    /// Probability a message transmission attempt is lost.
    pub drop_rate: f64,
    /// Probability a message transmission attempt arrives corrupted.
    pub corrupt_rate: f64,
    /// Probability a NoC message / transmission attempt is delayed.
    pub delay_rate: f64,
    /// Upper bound of an injected delay, microseconds.
    pub max_delay_us: u64,
    /// Number of mesh links running at `degrade_factor` bandwidth.
    pub degraded_links: u32,
    /// Bandwidth multiplier of a degraded link (0 < f ≤ 1).
    pub degrade_factor: f64,
    /// Optional core stall.
    pub stall: Option<StallSpec>,
    /// Per-attempt acknowledgement timeout, microseconds of virtual time
    /// (wall-clock milliseconds on the native runner).
    pub timeout_us: u64,
    /// Retransmissions allowed after the first attempt.
    pub retry_budget: u32,
    /// Permanent core kills. Non-empty kills arm the MCPC supervisor:
    /// placed cores emit heartbeats and a dead stage is migrated to a
    /// spare core (when one is available) instead of degrading the lane.
    pub kills: Vec<KillSpec>,
    /// Heartbeat emission period, microseconds of virtual time.
    pub heartbeat_period_us: u64,
    /// Phi-style suspicion threshold: a core is declared dead once no
    /// heartbeat has arrived for `phi_dead` periods (beyond the mesh
    /// latency of the freshest possible heartbeat). Must be ≥ 2, which
    /// also keeps detection latency monotone in the heartbeat period.
    pub phi_dead: f64,
    /// Bound of the per-strip checkpoint ring the replay path restores
    /// from (frames retained until acknowledged by the transfer stage).
    pub checkpoint_depth: u32,
    /// Spare cores the supervisor may enlist before falling back to
    /// graceful degradation (0 forces the PR-1 failover path).
    pub max_spares: u32,
}

impl Default for FaultSpec {
    /// A seeded but quiet plan: retry machinery armed, no faults injected.
    fn default() -> Self {
        FaultSpec {
            seed: 0xFA_017,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            delay_rate: 0.0,
            max_delay_us: 200,
            degraded_links: 0,
            degrade_factor: 1.0,
            stall: None,
            timeout_us: 5_000,
            retry_budget: 3,
            kills: Vec::new(),
            heartbeat_period_us: 50_000,
            phi_dead: 4.0,
            checkpoint_depth: 4,
            max_spares: u32::MAX,
        }
    }
}

impl FaultSpec {
    pub fn validate(&self, pipelines: u32) -> Result<(), String> {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("corrupt_rate", self.corrupt_rate),
            ("delay_rate", self.delay_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} {rate} outside [0, 1]"));
            }
        }
        if self.drop_rate + self.corrupt_rate + self.delay_rate > 1.0 {
            return Err("fault rates sum beyond 1".into());
        }
        if !(self.degrade_factor > 0.0 && self.degrade_factor <= 1.0) {
            return Err(format!(
                "degrade_factor {} outside (0, 1]",
                self.degrade_factor
            ));
        }
        if let Some(stall) = &self.stall {
            if stall.pipeline >= pipelines {
                return Err(format!(
                    "stall targets pipeline {} of {pipelines}",
                    stall.pipeline
                ));
            }
            if stall.stage >= StageKind::PIPELINE_FILTERS.len() as u32 {
                return Err(format!("stall targets stage {} of 5", stall.stage));
            }
        }
        for kill in &self.kills {
            if kill.pipeline >= pipelines {
                return Err(format!(
                    "kill targets pipeline {} of {pipelines}",
                    kill.pipeline
                ));
            }
            if kill.stage >= StageKind::PIPELINE_FILTERS.len() as u32 {
                return Err(format!("kill targets stage {} of 5", kill.stage));
            }
        }
        if !self.kills.is_empty() {
            if self.heartbeat_period_us < 1_000 {
                return Err(format!(
                    "heartbeat period {}us below the 1ms floor",
                    self.heartbeat_period_us
                ));
            }
            if !(self.phi_dead >= 2.0 && self.phi_dead.is_finite()) {
                return Err(format!("phi_dead {} below 2", self.phi_dead));
            }
        }
        // Every fault spec gets a checkpoint ring per strip, kills or not.
        if self.checkpoint_depth == 0 {
            return Err("checkpoint_depth must be at least 1".into());
        }
        // The ARQ's total patience, timeout * 2^(budget + 1), must be a
        // representable virtual time (picoseconds in a u64).
        let patience_ps = self
            .retry_budget
            .checked_add(1)
            .and_then(|n| 1u64.checked_shl(n))
            .and_then(|windows| windows.checked_mul(self.timeout_us))
            .and_then(|us| us.checked_mul(1_000_000));
        if patience_ps.is_none() {
            return Err(format!(
                "retry_budget {} overflows the virtual clock: timeout_us {} * 2^(budget + 1) \
                 exceeds u64 picoseconds",
                self.retry_budget, self.timeout_us
            ));
        }
        Ok(())
    }

    /// Does this spec arm the MCPC supervisor (heartbeats, migration)?
    pub fn supervised(&self) -> bool {
        !self.kills.is_empty()
    }
}

/// Which filter-kernel backend the runners execute. `Simd` (the
/// default, and the only value the golden configs use) runs the
/// lane-vectorized kernels; `Scalar` forces the reference loops they
/// are tested against. Both backends are always compiled and
/// bit-identical, so this knob — like the rest of [`NativeTuning`] —
/// can never move a pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Force the paper-literal scalar loops.
    Scalar,
    /// The lane-vectorized kernels.
    #[default]
    Simd,
}

impl KernelChoice {
    /// Resolve to a concrete backend.
    pub fn resolve(&self) -> scc_filters::KernelBackend {
        match self {
            KernelChoice::Scalar => scc_filters::KernelBackend::Scalar,
            KernelChoice::Simd => scc_filters::KernelBackend::Simd,
        }
    }

    /// Short name for digests and fuzz-repro lines.
    pub fn name(&self) -> &'static str {
        match self {
            KernelChoice::Scalar => "scalar",
            KernelChoice::Simd => "simd",
        }
    }
}

/// How strips are scheduled onto cores.
///
/// `Static` is the paper's model: every stage owns a core for the whole
/// run (possibly merged/replicated by the auto-placer). `Tasks` turns
/// each (frame, strip, stage-group) into a dependency-tracked task and
/// runs a randomized work-stealing protocol over the same placement —
/// the BDDT-SCC direction of ROADMAP item 4. Output film is guaranteed
/// bit-identical across both runtimes; only *when and where* a strip is
/// processed changes, which is exactly what flattens the paper's
/// Figure 15 idle-time spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Runtime {
    /// Fixed stage-to-core placement (the paper's execution model).
    #[default]
    Static,
    /// Dependency-driven task runtime with per-core deques, randomized
    /// work stealing, and re-queue recovery.
    Tasks,
}

impl Runtime {
    /// Short name for digests and fuzz-repro lines.
    pub fn name(&self) -> &'static str {
        match self {
            Runtime::Static => "static",
            Runtime::Tasks => "tasks",
        }
    }
}

/// Knobs of the dependency-driven task runtime ([`Runtime::Tasks`]).
/// Like [`NativeTuning`] these are performance/robustness knobs only:
/// the output film is bit-identical for every legal setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTuning {
    /// Bounded per-core deque capacity. A producer whose target deque is
    /// full *stalls* (backpressure) instead of growing the queue — the
    /// runtime can never OOM on a slow consumer.
    pub queue_capacity: u32,
    /// Per-attempt steal-request acknowledgement window, microseconds of
    /// virtual time. Attempt `n` waits `2^n` times as long (exponential
    /// backoff), mirroring the ARQ layer's schedule.
    pub steal_timeout_us: u64,
    /// Steal attempts a hungry core makes (each against a fresh random
    /// victim) before re-checking its own deque.
    pub steal_retries: u32,
}

impl Default for TaskTuning {
    fn default() -> Self {
        TaskTuning {
            queue_capacity: 8,
            steal_timeout_us: 200,
            steal_retries: 3,
        }
    }
}

impl TaskTuning {
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_capacity == 0 {
            return Err("task queue_capacity must be at least 1".into());
        }
        if self.steal_timeout_us == 0 {
            return Err("steal_timeout_us must be at least 1".into());
        }
        if self.steal_retries == 0 {
            return Err("steal_retries must be at least 1".into());
        }
        Ok(())
    }
}

/// Host-execution tuning for the native runner (and the runners' buffer
/// management). These knobs affect performance only: output is guaranteed
/// bit-identical across every setting, which `tests/parallel_equivalence.rs`
/// enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeTuning {
    /// Unused: every filter stage runs its kernel on its own thread.
    /// The field stays because the standalone benchmark crate reads it;
    /// fuzz repros still carry it as `threads=`.
    pub kernel_threads: u32,
    /// Recycle strip allocations through `scc-core`'s buffer pool: the
    /// transfer stage releases a frame's strips, the source reuses them.
    pub buffer_pool: bool,
    /// Filter-kernel backend (scalar reference loops vs lane-vectorized
    /// kernels, the default).
    pub kernel: KernelChoice,
}

impl Default for NativeTuning {
    fn default() -> Self {
        NativeTuning {
            kernel_threads: 1,
            buffer_pool: true,
            kernel: KernelChoice::Simd,
        }
    }
}

/// Tuning of the closed-loop per-tile DVFS governor
/// ([`PowerConfig::Governed`]). The governor samples per-stage idle
/// fractions once per `epoch_frames` delivered frames and moves one tile
/// (or one voltage island) one frequency step at a time: the stage with
/// the smallest idle fraction is raised when it sits below
/// `bottleneck_idle_frac`, and a whole island is throttled when every
/// stage on it idles above `throttle_idle_frac`. Raises are suppressed
/// once the floor-power delta over the uniform-533 baseline would exceed
/// `power_cap_watts`. A candidate move must repeat for
/// `hysteresis_epochs` consecutive epochs before it is applied, which
/// bounds frequency flips (the no-oscillation invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorTuning {
    /// Frames (or generic work items) per control epoch. Decisions made
    /// at the end of epoch `e` take effect in epoch `e + 2`, so both
    /// virtual-time backends — frame-major and event-driven — see the
    /// identical work-to-frequency mapping despite pipelined lookahead.
    pub epoch_frames: u32,
    /// Consecutive epochs a candidate move must persist before it is
    /// applied.
    pub hysteresis_epochs: u32,
    /// A stage idling below this fraction of the epoch is a bottleneck
    /// candidate.
    pub bottleneck_idle_frac: f64,
    /// An island whose every resident stage idles above this fraction is
    /// a throttle candidate.
    pub throttle_idle_frac: f64,
    /// Energy budget: cap on the chip floor-power increase (watts) over
    /// the uniform-533 baseline that raises may accumulate.
    pub power_cap_watts: f64,
}

impl Default for GovernorTuning {
    fn default() -> Self {
        GovernorTuning {
            epoch_frames: 8,
            hysteresis_epochs: 2,
            bottleneck_idle_frac: 0.10,
            throttle_idle_frac: 0.55,
            power_cap_watts: 8.0,
        }
    }
}

impl GovernorTuning {
    pub fn validate(&self) -> Result<(), String> {
        if self.epoch_frames == 0 {
            return Err("governor epoch_frames must be at least 1 (zero epoch)".into());
        }
        if self.hysteresis_epochs == 0 {
            return Err("governor hysteresis_epochs must be at least 1".into());
        }
        for (name, v) in [
            ("bottleneck_idle_frac", self.bottleneck_idle_frac),
            ("throttle_idle_frac", self.throttle_idle_frac),
        ] {
            if !v.is_finite() || !(0.0..1.0).contains(&v) {
                return Err(format!("governor {name} {v} outside [0, 1)"));
            }
        }
        if self.bottleneck_idle_frac >= self.throttle_idle_frac {
            return Err(format!(
                "governor bottleneck_idle_frac {} must sit below throttle_idle_frac {}",
                self.bottleneck_idle_frac, self.throttle_idle_frac
            ));
        }
        if !self.power_cap_watts.is_finite() || self.power_cap_watts < 0.0 {
            return Err(format!(
                "governor power_cap_watts {} is not a finite non-negative budget",
                self.power_cap_watts
            ));
        }
        Ok(())
    }
}

/// The power plane of a run: how per-tile frequencies are chosen.
///
/// It lives in [`RunConfig`], so every virtual-time executor honors the
/// same plan through one shared power plane. `Static` is the
/// paper's open-loop experiment (a fixed frequency per listed core's
/// tile, everything else at the 533 MHz default); `Governed` closes the
/// loop with the [`GovernorTuning`] controller.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerConfig {
    /// Fixed per-tile settings applied before the run starts. The empty
    /// list is the uniform-533 default.
    Static(Vec<(CoreId, FreqMHz)>),
    /// Closed-loop per-tile DVFS driven by live idle telemetry.
    Governed(GovernorTuning),
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig::Static(Vec::new())
    }
}

impl PowerConfig {
    /// Build a static plan from raw core ids, rejecting ids off the die.
    pub fn static_plan(
        pairs: impl IntoIterator<Item = (u8, FreqMHz)>,
    ) -> Result<PowerConfig, String> {
        let mut settings = Vec::new();
        for (raw, freq) in pairs {
            let core = CoreId::try_new(raw).ok_or_else(|| format!("unknown core {raw} (0..48)"))?;
            settings.push((core, freq));
        }
        Ok(PowerConfig::Static(settings))
    }

    /// Is this the uniform-533 default (empty static plan)?
    pub fn is_default(&self) -> bool {
        matches!(self, PowerConfig::Static(s) if s.is_empty())
    }

    /// Is the closed-loop governor armed?
    pub fn governed(&self) -> bool {
        matches!(self, PowerConfig::Governed(_))
    }

    /// Short name for digests and fuzz-repro lines.
    pub fn name(&self) -> &'static str {
        match self {
            PowerConfig::Static(_) => "static",
            PowerConfig::Governed(_) => "governed",
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        match self {
            PowerConfig::Static(settings) => {
                let mut tiles_seen = Vec::new();
                for (core, _) in settings {
                    let tile = core.tile();
                    if tiles_seen.contains(&tile) {
                        return Err(format!(
                            "duplicate tile {}: frequency is per tile, set it once",
                            tile.raw()
                        ));
                    }
                    tiles_seen.push(tile);
                }
                Ok(())
            }
            PowerConfig::Governed(tuning) => tuning.validate(),
        }
    }
}

/// A declarative stage of a generic macro pipeline: work is an affine
/// function of the item's input payload, so the whole chain's work
/// profile is a pure function of the spec (deterministic across
/// backends).
#[derive(Debug, Clone, PartialEq)]
pub struct GenericStageSpec {
    /// Stage name for reports.
    pub name: String,
    /// Cycles charged per item regardless of payload.
    pub fixed_cycles: f64,
    /// Cycles charged per input byte.
    pub cycles_per_byte: f64,
    /// Auxiliary DRAM reads as a fraction of the input payload.
    pub read_factor: f64,
    /// Auxiliary DRAM writes as a fraction of the input payload.
    pub write_factor: f64,
    /// Output payload as a fraction of the input payload.
    pub out_factor: f64,
}

impl GenericStageSpec {
    /// A compute-only stage passing its payload through unchanged.
    pub fn compute(name: &str, cycles_per_byte: f64) -> GenericStageSpec {
        GenericStageSpec {
            name: name.to_string(),
            fixed_cycles: 0.0,
            cycles_per_byte,
            read_factor: 0.0,
            write_factor: 0.0,
            out_factor: 1.0,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("generic stage name must not be empty".into());
        }
        for (field, v) in [
            ("fixed_cycles", self.fixed_cycles),
            ("cycles_per_byte", self.cycles_per_byte),
            ("read_factor", self.read_factor),
            ("write_factor", self.write_factor),
            ("out_factor", self.out_factor),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "generic stage {} {field} = {v} is not a finite non-negative value",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// A declarative generic chain, routable through `scc_core::run`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericChainSpec {
    pub stages: Vec<GenericStageSpec>,
    /// Work items streamed through the chain.
    pub items: u64,
    /// Payload bytes entering stage 0 per item.
    pub source_bytes: u64,
}

impl GenericChainSpec {
    /// Cap on `stages x items`. The workload engine keeps 42 bytes per
    /// (stage, item) node for the whole run — three virtual times, the
    /// output size, two dependency counters, one idle sample — so 2^20
    /// nodes is ~44 MB; a chain past it is refused instead of asking the
    /// allocator for whatever `items` says.
    pub const MAX_NODES: u64 = 1 << 20;

    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("generic chain has no stages".into());
        }
        if self.stages.len() > 48 {
            return Err(format!(
                "generic chain has {} stages; the SCC has 48 cores",
                self.stages.len()
            ));
        }
        if self.items == 0 {
            return Err("generic chain needs at least one item".into());
        }
        if self.items > Self::MAX_NODES / self.stages.len() as u64 {
            return Err(format!(
                "generic chain of {} stages x {} items exceeds the {} (stage, item) nodes \
                 the engine keeps resident",
                self.stages.len(),
                self.items,
                Self::MAX_NODES
            ));
        }
        if self.source_bytes == 0 {
            return Err("generic chain needs a non-empty source payload".into());
        }
        for stage in &self.stages {
            stage.validate()?;
        }
        Ok(())
    }
}

/// The irregular wavefront-propagation workload: morphological
/// reconstruction of a seeded marker under a seeded mask grid (Gomes &
/// Teodoro). Each propagation wave is one pipeline item whose work is
/// proportional to the wave's frontier size — queue-driven,
/// data-dependent load, the stress case the film pipeline never shows.
/// The grids, the wave profile, and the reconstructed-grid digest are
/// pure functions of `(width, height, seeds, seed)`, so the workload is
/// deterministic across backends and the digest gates output drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavefrontSpec {
    /// Grid width in cells.
    pub width: u32,
    /// Grid height in cells.
    pub height: u32,
    /// Marker seed points planted into the mask.
    pub seeds: u32,
    /// Cap on propagation waves (0 = run until the frontier drains).
    pub max_waves: u32,
}

impl Default for WavefrontSpec {
    fn default() -> Self {
        WavefrontSpec {
            width: 96,
            height: 96,
            seeds: 3,
            max_waves: 0,
        }
    }
}

impl WavefrontSpec {
    pub fn validate(&self) -> Result<(), String> {
        if self.width < 8 || self.height < 8 {
            return Err(format!(
                "wavefront grid {}x{} below the 8x8 floor",
                self.width, self.height
            ));
        }
        if self.width > 1024 || self.height > 1024 {
            return Err(format!(
                "wavefront grid {}x{} beyond the 1024x1024 cap",
                self.width, self.height
            ));
        }
        if self.seeds == 0 {
            return Err("wavefront needs at least one marker seed".into());
        }
        if self.seeds as u64 > self.width as u64 * self.height as u64 {
            return Err(format!(
                "{} marker seeds exceed the {}x{} grid",
                self.seeds, self.width, self.height
            ));
        }
        Ok(())
    }
}

/// What the pipeline processes: the paper's silent-film walkthrough
/// (default), a user-declared generic chain, or the irregular wavefront
/// workload. Non-film workloads run on the sim and DES virtual-time
/// backends through the same `scc_core::run` facade, with the same
/// telemetry, power plane, and invariant checking.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Workload {
    /// The paper's render → 5-filter → transfer silent-film pipeline.
    #[default]
    Film,
    /// A declarative generic macro-pipeline chain.
    Generic(GenericChainSpec),
    /// Irregular wavefront propagation (morphological reconstruction).
    Wavefront(WavefrontSpec),
}

impl Workload {
    pub fn is_film(&self) -> bool {
        matches!(self, Workload::Film)
    }

    /// Short name for digests and fuzz-repro lines.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Film => "film",
            Workload::Generic(_) => "generic",
            Workload::Wavefront(_) => "wavefront",
        }
    }
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub renderer: RendererMode,
    pub arrangement: Arrangement,
    pub pipelines: u32,
    /// Full frame width in pixels.
    pub width: u32,
    /// Full frame height in pixels.
    pub height: u32,
    /// Walkthrough length in frames.
    pub frames: u64,
    /// Run seed for the scratch/flicker randomness.
    pub seed: u64,
    pub fidelity: Fidelity,
    /// Record per-stage phase spans (exportable to Chrome trace JSON).
    pub trace: bool,
    /// Run the invariant checker during sim/DES execution: frame
    /// conservation, trace causality, NoC flit conservation, energy
    /// identity. A violation panics with the seed + config that
    /// produced it. Costs a little memory (the trace is collected
    /// internally even when `trace` is off) but never changes results.
    pub verify: bool,
    /// Fault injection; `None` runs the healthy fast path unchanged.
    pub fault: Option<FaultSpec>,
    /// Host-execution tuning (kernel backend, buffer pooling). Never
    /// changes output, only how fast the host produces it.
    pub tuning: NativeTuning,
    /// Record metrics and events into a [`scc_telemetry::TelemetrySink`]
    /// during the run. Observation only: the sink never feeds back into
    /// scheduling, so enabling it cannot move a result, and disabling it
    /// (the default) leaves golden digests byte-identical.
    pub telemetry: bool,
    /// Let the stage-graph scheduler compute the placement instead of
    /// the fixed arrangement: cheap adjacent stages merge onto one
    /// core and the bottleneck stage is replicated across spare cores
    /// (frame-round-robin, order preserving). Off by default; the
    /// output film is bit-identical either way.
    pub auto_place: bool,
    /// Explicit per-stage weights for the scheduler, in
    /// [`StageKind::PIPELINE_FILTERS`] order (five finite, non-negative
    /// values; relative scale only). `None` uses the static cost-model
    /// estimate.
    pub stage_weights: Option<Vec<f64>>,
    /// Execution model: static stage-to-core placement (default) or the
    /// dependency-driven work-stealing task runtime. Film output is
    /// bit-identical either way.
    pub runtime: Runtime,
    /// Knobs of the task runtime (ignored under [`Runtime::Static`]).
    pub task_tuning: TaskTuning,
    /// The power plane: fixed per-tile frequencies (the paper's open-loop
    /// experiment) or the closed-loop governor. Honored by the sim and
    /// DES backends; frequency never moves a pixel, so output is
    /// bit-identical across every power plan.
    pub power: PowerConfig,
    /// What the pipeline processes (default: the paper's silent film).
    pub workload: Workload,
}

impl Default for RunConfig {
    /// The paper's default experiment: 400-frame walkthrough over 400×400
    /// frames (Figure 12's largest point matches the walkthrough time of
    /// the single-pipeline MCPC configuration).
    fn default() -> Self {
        RunConfig {
            renderer: RendererMode::SingleRenderer,
            arrangement: Arrangement::Ordered,
            pipelines: 1,
            width: 400,
            height: 400,
            frames: 400,
            seed: 0x51CC_F11F,
            fidelity: Fidelity::TimingOnly,
            trace: false,
            verify: false,
            fault: None,
            tuning: NativeTuning::default(),
            telemetry: false,
            auto_place: false,
            stage_weights: None,
            runtime: Runtime::Static,
            task_tuning: TaskTuning::default(),
            power: PowerConfig::default(),
            workload: Workload::Film,
        }
    }
}

impl RunConfig {
    /// Start a fluent [`RunConfigBuilder`] seeded with the defaults.
    /// `build()` runs [`RunConfig::validate`] once, so a successfully
    /// built config runs on [`crate::Backend::Sim`]; which of them the
    /// other two backends execute is [`crate::check_support`]'s table,
    /// and [`crate::try_run`] answers with a typed error, not a panic.
    pub fn builder() -> RunConfigBuilder {
        RunConfigBuilder::default()
    }

    /// Check the configuration fits the machine.
    pub fn validate(&self) -> Result<(), String> {
        if self.pipelines == 0 {
            return Err("at least one pipeline required".into());
        }
        let needed = self.renderer.cores_needed(self.pipelines);
        if needed > 48 {
            return Err(format!(
                "{} pipelines need {needed} cores; the SCC has 48",
                self.pipelines
            ));
        }
        if self.height < self.pipelines {
            return Err("more pipelines than image rows".into());
        }
        if self.width == 0 || self.height == 0 || self.frames == 0 {
            return Err("degenerate geometry".into());
        }
        if let Some(fault) = &self.fault {
            fault.validate(self.pipelines)?;
        }
        self.task_tuning.validate()?;
        if let Some(w) = &self.stage_weights {
            if w.len() != StageKind::PIPELINE_FILTERS.len() {
                return Err(format!(
                    "stage_weights has {} entries, need {}",
                    w.len(),
                    StageKind::PIPELINE_FILTERS.len()
                ));
            }
            for (j, v) in w.iter().enumerate() {
                if !v.is_finite() || *v < 0.0 {
                    return Err(format!("stage_weights[{j}] = {v} is not a finite weight"));
                }
            }
        }
        self.power.validate()?;
        if self.power.governed() && self.runtime == Runtime::Tasks {
            return Err("the DVFS governor requires the static runtime".into());
        }
        match &self.workload {
            Workload::Film => {}
            Workload::Generic(spec) => {
                spec.validate()?;
                self.validate_non_film()?;
            }
            Workload::Wavefront(spec) => {
                spec.validate()?;
                self.validate_non_film()?;
            }
        }
        Ok(())
    }

    /// Current boundary of the unified workload plane: non-film
    /// workloads run on both virtual-time backends with telemetry, the
    /// power plane (static and governed), chain-merge auto-placement,
    /// and invariant checking — but not yet fault injection or the task
    /// runtime, which remain film-only.
    fn validate_non_film(&self) -> Result<(), String> {
        if self.fault.is_some() {
            return Err(format!(
                "fault injection requires the film workload (got {})",
                self.workload.name()
            ));
        }
        if self.runtime == Runtime::Tasks {
            return Err(format!(
                "the task runtime requires the film workload (got {})",
                self.workload.name()
            ));
        }
        Ok(())
    }

    /// Bytes of one full frame.
    pub fn frame_bytes(&self) -> u64 {
        self.width as u64 * self.height as u64 * 4
    }
}

/// Fluent construction for [`RunConfig`] — the supported alternative to
/// struct-literal configs. Starts from [`RunConfig::default`]; every
/// setter is chainable; [`RunConfigBuilder::build`] validates exactly
/// once and refuses configurations the machine cannot run.
///
/// ```
/// use scc_core::spec::{Arrangement, RendererMode, RunConfig};
///
/// let cfg = RunConfig::builder()
///     .renderer(RendererMode::McpcRenderer)
///     .arrangement(Arrangement::Ordered)
///     .pipelines(3)
///     .size(64, 48)
///     .frames(4)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.pipelines, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunConfigBuilder {
    cfg: RunConfig,
    /// Raw-id static power pairs from [`RunConfigBuilder::power_static`],
    /// converted (and range-checked: "unknown core") in `build`.
    raw_power: Option<Vec<(u8, FreqMHz)>>,
}

impl RunConfigBuilder {
    pub fn renderer(mut self, renderer: RendererMode) -> Self {
        self.cfg.renderer = renderer;
        self
    }

    pub fn arrangement(mut self, arrangement: Arrangement) -> Self {
        self.cfg.arrangement = arrangement;
        self
    }

    pub fn pipelines(mut self, pipelines: u32) -> Self {
        self.cfg.pipelines = pipelines;
        self
    }

    /// Set both frame dimensions at once.
    pub fn size(mut self, width: u32, height: u32) -> Self {
        self.cfg.width = width;
        self.cfg.height = height;
        self
    }

    pub fn frames(mut self, frames: u64) -> Self {
        self.cfg.frames = frames;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.cfg.fidelity = fidelity;
        self
    }

    pub fn trace(mut self, trace: bool) -> Self {
        self.cfg.trace = trace;
        self
    }

    pub fn verify(mut self, verify: bool) -> Self {
        self.cfg.verify = verify;
        self
    }

    /// Enable telemetry recording (off by default).
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.cfg.telemetry = telemetry;
        self
    }

    /// Install a fault-injection plan (`fault(None)` clears it).
    pub fn fault(mut self, fault: impl Into<Option<FaultSpec>>) -> Self {
        self.cfg.fault = fault.into();
        self
    }

    /// Hand placement to the stage-graph scheduler (off by default).
    pub fn auto_place(mut self, auto_place: bool) -> Self {
        self.cfg.auto_place = auto_place;
        self
    }

    /// Explicit scheduler weights (`stage_weights(None)` reverts to the
    /// static cost-model estimate).
    pub fn stage_weights(mut self, stage_weights: impl Into<Option<Vec<f64>>>) -> Self {
        self.cfg.stage_weights = stage_weights.into();
        self
    }

    pub fn tuning(mut self, tuning: NativeTuning) -> Self {
        self.cfg.tuning = tuning;
        self
    }

    /// Pick the execution model (default [`Runtime::Static`]).
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.cfg.runtime = runtime;
        self
    }

    /// Replace the whole task-runtime tuning block.
    pub fn task_tuning(mut self, task_tuning: TaskTuning) -> Self {
        self.cfg.task_tuning = task_tuning;
        self
    }

    /// Open-loop static frequency plan from raw core ids. Ids off the
    /// die surface as an "unknown core" error from [`Self::build`].
    pub fn power_static(mut self, pairs: impl IntoIterator<Item = (u8, FreqMHz)>) -> Self {
        self.raw_power = Some(pairs.into_iter().collect());
        self
    }

    /// Arm the closed-loop DVFS governor.
    pub fn power_governed(mut self, tuning: GovernorTuning) -> Self {
        self.cfg.power = PowerConfig::Governed(tuning);
        self.raw_power = None;
        self
    }

    /// Pick the workload (default [`Workload::Film`]).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.cfg.workload = workload;
        self
    }

    /// Validate once and hand out the finished config.
    pub fn build(mut self) -> Result<RunConfig, String> {
        if let Some(raw) = self.raw_power.take() {
            self.cfg.power = PowerConfig::static_plan(raw)?;
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_budgets_match_paper() {
        // §V/§VI: the n-renderer configuration tops out at 7 pipelines
        // (6·7+1 = 43 ≤ 48); the others support more.
        assert_eq!(RendererMode::PerPipelineRenderer.max_pipelines(), 7);
        assert_eq!(RendererMode::SingleRenderer.max_pipelines(), 9);
        assert_eq!(RendererMode::McpcRenderer.max_pipelines(), 9);
        // Figure 14's x-axis: 5p+2 cores = 7, 12, ..., 42 for p = 1..8.
        assert_eq!(RendererMode::McpcRenderer.cores_needed(1), 7);
        assert_eq!(RendererMode::McpcRenderer.cores_needed(8), 42);
    }

    #[test]
    fn validation_rejects_oversubscription() {
        let cfg = RunConfig {
            renderer: RendererMode::PerPipelineRenderer,
            pipelines: 8,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let ok = RunConfig {
            renderer: RendererMode::PerPipelineRenderer,
            pipelines: 7,
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate() {
        assert!(RunConfig {
            pipelines: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RunConfig {
            frames: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RunConfig {
            height: 4,
            pipelines: 5,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn fault_spec_validation() {
        let mut cfg = RunConfig {
            fault: Some(FaultSpec::default()),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok(), "quiet fault spec is valid");

        cfg.fault = Some(FaultSpec {
            drop_rate: 1.5,
            ..FaultSpec::default()
        });
        assert!(cfg.validate().is_err(), "rate beyond 1 rejected");

        cfg.fault = Some(FaultSpec {
            drop_rate: 0.5,
            corrupt_rate: 0.4,
            delay_rate: 0.3,
            ..FaultSpec::default()
        });
        assert!(cfg.validate().is_err(), "rates summing beyond 1 rejected");

        cfg.fault = Some(FaultSpec {
            degrade_factor: 0.0,
            ..FaultSpec::default()
        });
        assert!(cfg.validate().is_err(), "zero-bandwidth link rejected");

        cfg.fault = Some(FaultSpec {
            stall: Some(StallSpec {
                pipeline: 5,
                stage: 0,
                at_ms: 0,
                for_ms: 1,
            }),
            ..FaultSpec::default()
        });
        assert!(
            cfg.validate().is_err(),
            "stall beyond pipeline count rejected"
        );

        cfg.pipelines = 2;
        cfg.fault = Some(FaultSpec {
            stall: Some(StallSpec {
                pipeline: 1,
                stage: 4,
                at_ms: 10,
                for_ms: 50,
            }),
            ..FaultSpec::default()
        });
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn kill_spec_validation() {
        let mut cfg = RunConfig {
            pipelines: 2,
            ..Default::default()
        };
        let kill = |pipeline, stage| KillSpec {
            pipeline,
            stage,
            at_ms: 5,
        };
        cfg.fault = Some(FaultSpec {
            kills: vec![kill(1, 3)],
            ..FaultSpec::default()
        });
        assert!(cfg.validate().is_ok(), "in-range kill accepted");
        assert!(cfg.fault.as_ref().unwrap().supervised());

        cfg.fault = Some(FaultSpec {
            kills: vec![kill(2, 0)],
            ..FaultSpec::default()
        });
        assert!(cfg.validate().is_err(), "kill beyond pipeline count");

        cfg.fault = Some(FaultSpec {
            kills: vec![kill(0, 5)],
            ..FaultSpec::default()
        });
        assert!(cfg.validate().is_err(), "kill beyond stage count");

        cfg.fault = Some(FaultSpec {
            kills: vec![kill(0, 0)],
            heartbeat_period_us: 10,
            ..FaultSpec::default()
        });
        assert!(cfg.validate().is_err(), "sub-millisecond heartbeat period");

        cfg.fault = Some(FaultSpec {
            kills: vec![kill(0, 0)],
            phi_dead: 1.5,
            ..FaultSpec::default()
        });
        assert!(cfg.validate().is_err(), "phi threshold below 2");

        cfg.fault = Some(FaultSpec {
            kills: vec![kill(0, 0)],
            checkpoint_depth: 0,
            ..FaultSpec::default()
        });
        assert!(cfg.validate().is_err(), "zero checkpoint depth");

        // Supervision knobs are not policed while supervision is unarmed.
        cfg.fault = Some(FaultSpec {
            phi_dead: 0.0,
            ..FaultSpec::default()
        });
        assert!(!cfg.fault.as_ref().unwrap().supervised());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn checkpoint_depth_is_policed_without_kills() {
        // Every fault spec builds a checkpoint ring per strip, so a zero
        // depth is an error whether or not the supervisor is armed.
        let err = RunConfig::builder()
            .fault(FaultSpec {
                checkpoint_depth: 0,
                drop_rate: 0.1,
                ..FaultSpec::default()
            })
            .build()
            .unwrap_err();
        assert!(err.contains("checkpoint_depth"), "{err}");
    }

    #[test]
    fn retry_budget_is_bounded_by_the_virtual_clock() {
        let with_budget = |retry_budget| {
            RunConfig::builder()
                .fault(FaultSpec {
                    retry_budget,
                    ..FaultSpec::default()
                })
                .build()
        };
        // Default timeout 5 ms = 5e9 ps: 2^31 windows still fit a u64 of
        // picoseconds, 2^32 do not.
        assert!(with_budget(30).is_ok(), "patience at the bound fits");
        for past in [31, 63, u32::MAX] {
            let err = with_budget(past).unwrap_err();
            assert!(err.contains("retry_budget"), "{err}");
        }
        // The bound moves with the timeout.
        let tiny = FaultSpec {
            timeout_us: 1,
            retry_budget: 43,
            ..FaultSpec::default()
        };
        assert!(tiny.validate(1).is_ok());
        let err = FaultSpec {
            retry_budget: 44,
            ..tiny
        }
        .validate(1)
        .unwrap_err();
        assert!(err.contains("retry_budget"), "{err}");
    }

    #[test]
    fn tuning_validation() {
        let mut cfg = RunConfig::default();
        assert_eq!(cfg.tuning, NativeTuning::default());
        cfg.tuning = NativeTuning {
            kernel_threads: 8,
            buffer_pool: false,
            ..NativeTuning::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn kernel_choice_resolves_and_defaults_to_simd() {
        assert_eq!(NativeTuning::default().kernel, KernelChoice::Simd);
        assert_eq!(
            KernelChoice::Scalar.resolve(),
            scc_filters::KernelBackend::Scalar
        );
        assert_eq!(
            KernelChoice::Simd.resolve(),
            scc_filters::KernelBackend::Simd
        );
    }

    #[test]
    fn default_matches_paper_geometry() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.frames, 400);
        assert_eq!(cfg.frame_bytes(), 640_000, "Figure 12: 400 side = 640 kb");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn stage_names() {
        assert_eq!(StageKind::Blur.name(), "blur");
        assert_eq!(StageKind::PIPELINE_FILTERS.len(), 5);
        assert_eq!(Arrangement::all().len(), 3);
        assert_eq!(RendererMode::McpcRenderer.name(), "MCPC renderer");
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = RunConfig::builder().build().expect("defaults are valid");
        let direct = RunConfig::default();
        assert_eq!(format!("{built:?}"), format!("{direct:?}"));
    }

    #[test]
    fn builder_sets_every_field() {
        let cfg = RunConfig::builder()
            .renderer(RendererMode::McpcRenderer)
            .arrangement(Arrangement::Flipped)
            .pipelines(2)
            .size(64, 48)
            .frames(4)
            .seed(11)
            .fidelity(Fidelity::Full)
            .trace(true)
            .verify(true)
            .telemetry(true)
            .fault(FaultSpec::default())
            .tuning(NativeTuning {
                kernel_threads: 2,
                buffer_pool: false,
                kernel: KernelChoice::Scalar,
            })
            .auto_place(true)
            .stage_weights(vec![1.0, 5.0, 1.0, 1.0, 1.0])
            .runtime(Runtime::Tasks)
            .task_tuning(TaskTuning {
                queue_capacity: 16,
                steal_timeout_us: 500,
                steal_retries: 5,
            })
            .power_static([(8, FreqMHz::F800)])
            .build()
            .expect("valid config");
        assert_eq!(cfg.renderer, RendererMode::McpcRenderer);
        assert_eq!(cfg.arrangement, Arrangement::Flipped);
        assert_eq!(
            (cfg.width, cfg.height, cfg.frames, cfg.seed),
            (64, 48, 4, 11)
        );
        assert_eq!(cfg.fidelity, Fidelity::Full);
        assert!(cfg.trace && cfg.verify && cfg.telemetry);
        assert!(cfg.fault.is_some());
        assert_eq!(cfg.tuning.kernel_threads, 2);
        assert!(!cfg.tuning.buffer_pool);
        assert_eq!(cfg.tuning.kernel, KernelChoice::Scalar);
        assert!(cfg.auto_place);
        assert_eq!(
            cfg.stage_weights.as_deref(),
            Some(&[1.0, 5.0, 1.0, 1.0, 1.0][..])
        );
        assert_eq!(cfg.runtime, Runtime::Tasks);
        assert_eq!(cfg.task_tuning.queue_capacity, 16);
        assert_eq!(cfg.task_tuning.steal_timeout_us, 500);
        assert_eq!(cfg.task_tuning.steal_retries, 5);
        assert!(
            matches!(cfg.power, PowerConfig::Static(ref s) if s == &[(CoreId::new(8), FreqMHz::F800)])
        );
        assert!(cfg.workload.is_film());
    }

    #[test]
    fn runtime_and_task_tuning() {
        assert_eq!(Runtime::default(), Runtime::Static);
        assert_eq!(Runtime::Static.name(), "static");
        assert_eq!(Runtime::Tasks.name(), "tasks");
        let d = TaskTuning::default();
        assert_eq!(
            (d.queue_capacity, d.steal_timeout_us, d.steal_retries),
            (8, 200, 3)
        );
        // Every zero knob is rejected through build().
        for (zeroed, knob) in [
            (
                TaskTuning {
                    queue_capacity: 0,
                    ..d
                },
                "queue_capacity",
            ),
            (
                TaskTuning {
                    steal_timeout_us: 0,
                    ..d
                },
                "steal_timeout_us",
            ),
            (
                TaskTuning {
                    steal_retries: 0,
                    ..d
                },
                "steal_retries",
            ),
        ] {
            let err = RunConfig::builder()
                .task_tuning(zeroed)
                .build()
                .unwrap_err();
            assert!(err.contains(knob), "{err}");
        }
    }

    #[test]
    fn stage_weights_validation() {
        // Wrong arity.
        let err = RunConfig::builder()
            .stage_weights(vec![1.0, 2.0])
            .build()
            .unwrap_err();
        assert!(err.contains("entries"), "{err}");
        // NaN and negatives rejected — the scheduler must never see them.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let err = RunConfig::builder()
                .stage_weights(vec![1.0, bad, 1.0, 1.0, 1.0])
                .build()
                .unwrap_err();
            assert!(err.contains("finite weight"), "{err}");
        }
        // All-zero is legal (the partitioner merges everything mergeable).
        assert!(RunConfig::builder()
            .stage_weights(vec![0.0; 5])
            .build()
            .is_ok());
        // stage_weights(None) clears.
        let cfg = RunConfig::builder()
            .stage_weights(vec![1.0; 5])
            .stage_weights(None)
            .build()
            .expect("valid");
        assert!(cfg.stage_weights.is_none());
    }

    #[test]
    fn builder_error_paths_mirror_validate() {
        // Zero pipelines.
        let err = RunConfig::builder().pipelines(0).build().unwrap_err();
        assert!(err.contains("at least one pipeline"), "{err}");
        // Core oversubscription.
        let err = RunConfig::builder()
            .renderer(RendererMode::PerPipelineRenderer)
            .pipelines(8)
            .build()
            .unwrap_err();
        assert!(err.contains("48"), "{err}");
        // More pipelines than rows.
        let err = RunConfig::builder()
            .pipelines(5)
            .size(64, 4)
            .build()
            .unwrap_err();
        assert!(err.contains("rows"), "{err}");
        // Degenerate geometry.
        let err = RunConfig::builder().frames(0).build().unwrap_err();
        assert!(err.contains("degenerate"), "{err}");
        // Invalid fault plan propagates through build().
        let err = RunConfig::builder()
            .fault(FaultSpec {
                drop_rate: 1.5,
                ..FaultSpec::default()
            })
            .build()
            .unwrap_err();
        assert!(err.contains("rate"), "{err}");
        // fault(None) clears a previously set plan.
        let cfg = RunConfig::builder()
            .fault(FaultSpec::default())
            .fault(None)
            .build()
            .expect("cleared fault plan is valid");
        assert!(cfg.fault.is_none());
    }

    #[test]
    fn power_plane_validation() {
        // A core id off the die surfaces from build().
        let err = RunConfig::builder()
            .power_static([(55, FreqMHz::F800)])
            .build()
            .unwrap_err();
        assert!(err.contains("unknown core"), "{err}");
        // Frequency is per tile: cores 4 and 5 share tile 2.
        let err = RunConfig::builder()
            .power_static([(4, FreqMHz::F800), (5, FreqMHz::F400)])
            .build()
            .unwrap_err();
        assert!(err.contains("duplicate tile"), "{err}");
        // Zero epoch.
        let err = RunConfig::builder()
            .power_governed(GovernorTuning {
                epoch_frames: 0,
                ..GovernorTuning::default()
            })
            .build()
            .unwrap_err();
        assert!(err.contains("epoch"), "{err}");
        // The governor needs the static runtime's stage ledgers.
        let err = RunConfig::builder()
            .power_governed(GovernorTuning::default())
            .runtime(Runtime::Tasks)
            .build()
            .unwrap_err();
        assert!(err.contains("static runtime"), "{err}");
        // Defaults and a valid plan.
        assert!(PowerConfig::default().is_default());
        assert!(!PowerConfig::Governed(GovernorTuning::default()).is_default());
        assert!(PowerConfig::Governed(GovernorTuning::default()).governed());
        let cfg = RunConfig::builder()
            .power_static([(4, FreqMHz::F800), (8, FreqMHz::F400)])
            .build()
            .expect("valid static plan");
        assert!(matches!(cfg.power, PowerConfig::Static(ref s) if s.len() == 2));
        // power_governed() replaces a pending raw plan entirely.
        let cfg = RunConfig::builder()
            .power_static([(55, FreqMHz::F800)])
            .power_governed(GovernorTuning::default())
            .build()
            .expect("replaced plan is valid");
        assert!(cfg.power.governed());
    }

    #[test]
    fn governor_tuning_validation() {
        let ok = GovernorTuning::default();
        assert!(ok.validate().is_ok());
        let bad = GovernorTuning {
            hysteresis_epochs: 0,
            ..ok.clone()
        };
        assert!(bad.validate().unwrap_err().contains("hysteresis"));
        let bad = GovernorTuning {
            bottleneck_idle_frac: 0.7,
            throttle_idle_frac: 0.6,
            ..ok.clone()
        };
        assert!(bad.validate().unwrap_err().contains("below"));
        let bad = GovernorTuning {
            throttle_idle_frac: f64::NAN,
            ..ok.clone()
        };
        assert!(bad.validate().is_err());
        let bad = GovernorTuning {
            power_cap_watts: -1.0,
            ..ok
        };
        assert!(bad.validate().unwrap_err().contains("power_cap_watts"));
    }

    #[test]
    fn workload_plane_validation() {
        // Degenerate wavefront grids.
        let err = RunConfig::builder()
            .workload(Workload::Wavefront(WavefrontSpec {
                width: 4,
                ..WavefrontSpec::default()
            }))
            .build()
            .unwrap_err();
        assert!(err.contains("8x8"), "{err}");
        let err = RunConfig::builder()
            .workload(Workload::Wavefront(WavefrontSpec {
                seeds: 0,
                ..WavefrontSpec::default()
            }))
            .build()
            .unwrap_err();
        assert!(err.contains("seed"), "{err}");
        // Generic chain sanity.
        let err = RunConfig::builder()
            .workload(Workload::Generic(GenericChainSpec {
                stages: vec![],
                items: 10,
                source_bytes: 1024,
            }))
            .build()
            .unwrap_err();
        assert!(err.contains("no stages"), "{err}");
        let err = RunConfig::builder()
            .workload(Workload::Generic(GenericChainSpec {
                stages: vec![GenericStageSpec {
                    cycles_per_byte: f64::NAN,
                    ..GenericStageSpec::compute("parse", 1.0)
                }],
                items: 10,
                source_bytes: 1024,
            }))
            .build()
            .unwrap_err();
        assert!(err.contains("finite"), "{err}");
        // Boundary: non-film workloads reject faults and the task runtime.
        let err = RunConfig::builder()
            .workload(Workload::Wavefront(WavefrontSpec::default()))
            .fault(FaultSpec::default())
            .build()
            .unwrap_err();
        assert!(err.contains("film workload"), "{err}");
        let err = RunConfig::builder()
            .workload(Workload::Wavefront(WavefrontSpec::default()))
            .runtime(Runtime::Tasks)
            .build()
            .unwrap_err();
        assert!(err.contains("film workload"), "{err}");
        // A governed wavefront run is a legal configuration.
        let cfg = RunConfig::builder()
            .workload(Workload::Wavefront(WavefrontSpec::default()))
            .power_governed(GovernorTuning::default())
            .build()
            .expect("governed wavefront is valid");
        assert_eq!(cfg.workload.name(), "wavefront");
        assert!(!cfg.workload.is_film());
        assert_eq!(cfg.power.name(), "governed");
    }

    #[test]
    fn generic_chain_is_capped_at_the_engines_node_budget() {
        let chain = |stages: usize, items: u64| GenericChainSpec {
            stages: (0..stages)
                .map(|_| GenericStageSpec::compute("s", 1.0))
                .collect(),
            items,
            source_bytes: 1024,
        };
        let max = GenericChainSpec::MAX_NODES;
        // At the bound, one stage and three (3 does not divide 2^20).
        chain(1, max).validate().expect("exactly the budget");
        chain(3, max / 3).validate().expect("largest fit");
        // One past it.
        for spec in [chain(1, max + 1), chain(3, max / 3 + 1)] {
            let err = spec.validate().unwrap_err();
            assert!(err.contains("(stage, item) nodes"), "{err}");
        }
        // A hostile value is refused by `build()`, before anything allocates.
        let err = RunConfig::builder()
            .workload(Workload::Generic(chain(2, u64::MAX / 2)))
            .build()
            .unwrap_err();
        assert!(err.contains("(stage, item) nodes"), "{err}");
    }
}
