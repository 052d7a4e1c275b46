//! Chip power model and power-over-time tracing.
//!
//! The model is analytic, calibrated against every power number the paper
//! publishes (§II, §VI-B, §VI-D):
//!
//! * whole chip idle at 533 MHz / 1.1 V ≈ **22 W**;
//! * MCPC-render configuration with 27 pipeline cores ≈ **50 W**,
//!   n-renderer configuration with 43 cores ≈ **58 W** → a slope of about
//!   0.5 W per pipeline core at ~60 % average stage utilisation on top of
//!   a ~14 W "mesh + memory controllers active" uplift;
//! * raising one tile (and hence its 2×2-tile voltage island) from
//!   1.1 V to 1.3 V costs **4–5 W**; dropping an island to 0.7 V recovers
//!   most of it (Figure 17: ≈40 W all-533 vs ≈44 W blur\@800 vs ≈39 W
//!   with the downstream island at 400 MHz / 0.7 V).
//!
//! The decomposition: `P = uncore_idle + Σ_tiles router(V) +
//! Σ_cores [idle(V) + busy·dyn(f, V)] + uncore_active·[any core busy]`,
//! with an additional per-island static uplift `island_static(V)` that
//! captures the strong voltage dependence of leakage.

use crate::dvfs::{DvfsState, IslandId};
use crate::time::SimTime;
use crate::topology::{CoreId, TileId, NUM_CORES};
use serde::Serialize;

/// Nominal supply voltage (533 MHz operating point).
pub const V_NOM: f64 = 1.1;
/// Nominal frequency in MHz.
pub const F_NOM: f64 = 533.0;

/// Calibration constants for the analytic model. All values in watts.
#[derive(Debug, Clone, Serialize)]
pub struct PowerConfig {
    /// Fixed uncore power (clock distribution, I/O, MCs idling).
    pub uncore_idle: f64,
    /// Additional uncore power while at least one core is busy
    /// (mesh traffic, memory controllers out of power-down).
    pub uncore_active: f64,
    /// Per-tile router power at nominal voltage.
    pub router_nom: f64,
    /// Per-core idle (clock + leakage) power at nominal voltage.
    pub core_idle_nom: f64,
    /// Per-core dynamic power when busy at the nominal operating point.
    pub core_dyn_nom: f64,
    /// Per-island static uplift coefficient: `k * ((V/V_nom)^2 - 1)` watts
    /// is added per island, capturing voltage-dependent leakage of the
    /// whole island.
    pub island_static_k: f64,
    /// Fraction of the dynamic power a *participating* core burns while
    /// spin-waiting for input. RCCE receives poll MPB flags in a tight
    /// loop, so an idle pipeline stage is far from quiescent — this is
    /// why the paper measures power rising linearly with the number of
    /// pipelines even though most stages mostly wait (Figures 14/15).
    pub spin_factor: f64,
    /// Floor on total chip power. The island-static term is a *delta*
    /// model calibrated around the nominal 1.1 V point; undervolting the
    /// whole die would otherwise extrapolate it below physical reality
    /// (I/O, PLLs and the always-on mesh keep the SCC in the teens of
    /// watts even fully undervolted).
    pub min_chip_power: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            uncore_idle: 5.2,
            uncore_active: 14.0,
            router_nom: 0.4,
            core_idle_nom: 0.15,
            core_dyn_nom: 0.85,
            island_static_k: 6.0,
            spin_factor: 0.4,
            min_chip_power: 14.0,
        }
    }
}

impl PowerConfig {
    fn vratio2(v: f64) -> f64 {
        (v / V_NOM) * (v / V_NOM)
    }

    /// Idle power of one core at supply voltage `v`.
    pub fn core_idle(&self, v: f64) -> f64 {
        self.core_idle_nom * Self::vratio2(v)
    }

    /// Additional dynamic power of a busy core at `f_mhz` / `v`.
    pub fn core_dyn(&self, f_mhz: f64, v: f64) -> f64 {
        self.core_dyn_nom * (f_mhz / F_NOM) * Self::vratio2(v)
    }

    /// Router power of one tile at island voltage `v`.
    pub fn router(&self, v: f64) -> f64 {
        self.router_nom * Self::vratio2(v)
    }

    /// Per-island static uplift (can be negative for undervolted islands).
    pub fn island_static(&self, v: f64) -> f64 {
        self.island_static_k * (Self::vratio2(v) - 1.0)
    }

    /// Instantaneous chip power for a given DVFS state and set of busy
    /// cores (`busy[i]` = core `i` currently executing stage work).
    pub fn chip_power(&self, dvfs: &DvfsState, busy: &[bool]) -> f64 {
        debug_assert_eq!(busy.len(), NUM_CORES as usize);
        let mut p = self.uncore_idle;
        let any_busy = busy.iter().any(|&b| b);
        if any_busy {
            p += self.uncore_active;
        }
        for island in IslandId::all() {
            let v = dvfs.island_volts(island);
            p += self.island_static(v);
        }
        for tile in TileId::all() {
            let v = dvfs.island_volts(IslandId::of_tile(tile));
            p += self.router(v);
        }
        for core in CoreId::all() {
            let v = dvfs.core_volts(core);
            p += self.core_idle(v);
            if busy[core.index()] {
                p += self.core_dyn(dvfs.core_freq(core).mhz() as f64, v);
            }
        }
        p.max(self.min_chip_power)
    }

    /// Chip idle power (nothing busy) — ≈22 W at the default state.
    pub fn idle_power(&self, dvfs: &DvfsState) -> f64 {
        self.chip_power(dvfs, &[false; NUM_CORES as usize])
    }
}

/// One DVFS state priced once: the idle chip's watts and each core's
/// dynamic watts while busy, so a span or a sample looks them up instead
/// of walking its island's tiles for the supply voltage.
struct Prices {
    idle: f64,
    dyn_w: [f64; NUM_CORES as usize],
}

impl Prices {
    fn new(cfg: &PowerConfig, dvfs: &DvfsState) -> Self {
        Prices {
            idle: cfg.idle_power(dvfs),
            dyn_w: std::array::from_fn(|i| {
                let core = CoreId::new(i as u8);
                cfg.core_dyn(dvfs.core_freq(core).mhz() as f64, dvfs.core_volts(core))
            }),
        }
    }
}

/// A busy interval of one core, recorded by the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusySpan {
    pub core: CoreId,
    pub from: SimTime,
    pub to: SimTime,
}

/// Collects busy spans during a simulation and renders them into a power
/// trace / energy total afterwards.
#[derive(Debug, Default)]
pub struct PowerMeter {
    spans: Vec<BusySpan>,
    /// Cores participating in the run: they spin-wait (at
    /// `PowerConfig::spin_factor` of their dynamic power) whenever they
    /// are not busy.
    spinning: Vec<CoreId>,
}

/// One sample of the rendered power trace.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PowerSample {
    pub t: SimTime,
    pub watts: f64,
}

impl PowerMeter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `core` was busy during `[from, to)`.
    pub fn record(&mut self, core: CoreId, from: SimTime, to: SimTime) {
        if to > from {
            self.spans.push(BusySpan { core, from, to });
        }
    }

    /// Declare which cores participate in the run (and therefore
    /// spin-wait whenever they are not busy).
    pub fn set_spinning(&mut self, cores: Vec<CoreId>) {
        self.spinning = cores;
    }

    pub fn spinning(&self) -> &[CoreId] {
        &self.spinning
    }

    pub fn spans(&self) -> &[BusySpan] {
        &self.spans
    }

    /// Total busy time of one core.
    pub fn busy_time(&self, core: CoreId) -> SimTime {
        self.spans
            .iter()
            .filter(|s| s.core == core)
            .map(|s| s.to - s.from)
            .sum()
    }

    /// Render the trace by sampling every `dt` from 0 to `end`.
    ///
    /// Within one `dt` bucket each core contributes its busy *fraction*, so
    /// the sample is the average power over the bucket — which is what a
    /// real power meter reports.
    pub fn trace(
        &self,
        cfg: &PowerConfig,
        dvfs: &DvfsState,
        end: SimTime,
        dt: SimTime,
    ) -> Vec<PowerSample> {
        let prices = Prices::new(cfg, dvfs);
        self.render(cfg, end, dt, |_| &prices)
    }

    /// Per-core busy time in each `dt` bucket over `[0, end)`.
    fn busy_per_bucket(&self, end: SimTime, dt: SimTime) -> Vec<[u64; NUM_CORES as usize]> {
        assert!(!dt.is_zero(), "zero sample interval");
        let buckets = (end.as_ps().div_ceil(dt.as_ps())).max(1) as usize;
        let mut busy_ps = vec![[0u64; NUM_CORES as usize]; buckets];
        for s in &self.spans {
            let mut t = s.from;
            while t < s.to {
                let b = (t.as_ps() / dt.as_ps()) as usize;
                if b >= buckets {
                    break;
                }
                // The last bucket's end can lie past `u64::MAX` ps.
                let bucket_end = SimTime::from_ps((b as u64 + 1).saturating_mul(dt.as_ps()));
                let seg_end = s.to.min(bucket_end);
                busy_ps[b][s.core.index()] += (seg_end - t).as_ps();
                t = seg_end;
            }
        }
        busy_ps
    }

    /// One sample per `dt` bucket, priced by the state `prices_at` gives
    /// for the bucket's start.
    fn render<'p>(
        &self,
        cfg: &PowerConfig,
        end: SimTime,
        dt: SimTime,
        prices_at: impl Fn(SimTime) -> &'p Prices,
    ) -> Vec<PowerSample> {
        // Precompute the two extreme chip powers per core-busy pattern is
        // exponential; instead compose the sample from the model's linear
        // structure: idle chip + per-core dynamic * busy_fraction +
        // uncore_active * (any busy fraction, approximated by the max core
        // fraction in the bucket).
        let is_spinning = self.spin_table();
        let busy_ps = self.busy_per_bucket(end, dt);
        let mut out = Vec::with_capacity(busy_ps.len());
        for (b, per_core) in busy_ps.iter().enumerate() {
            let t = SimTime::from_ps(b as u64 * dt.as_ps());
            let prices = prices_at(t);
            let mut watts = prices.idle;
            let mut max_frac = 0.0f64;
            for core in 0..NUM_CORES as usize {
                let frac = (per_core[core] as f64 / dt.as_ps() as f64).min(1.0);
                let dyn_w = prices.dyn_w[core];
                if frac > 0.0 {
                    watts += dyn_w * frac;
                    max_frac = max_frac.max(frac);
                }
                if is_spinning[core] {
                    watts += dyn_w * cfg.spin_factor * (1.0 - frac);
                    max_frac = 1.0;
                }
            }
            watts += cfg.uncore_active * max_frac.min(1.0);
            out.push(PowerSample { t, watts });
        }
        out
    }

    /// `is_spinning[i]`: core `i` participates in the run.
    fn spin_table(&self) -> [bool; NUM_CORES as usize] {
        let mut is_spinning = [false; NUM_CORES as usize];
        for c in &self.spinning {
            is_spinning[c.index()] = true;
        }
        is_spinning
    }

    /// Total energy in joules over `[0, end]`, integrating exactly over the
    /// recorded spans (not the sampled trace).
    pub fn energy_joules(&self, cfg: &PowerConfig, dvfs: &DvfsState, end: SimTime) -> f64 {
        let prices = Prices::new(cfg, dvfs);
        let is_spinning = self.spin_table();
        let mut joules = prices.idle * end.as_secs_f64();
        for s in &self.spans {
            let dur = (s.to.min(end)).saturating_sub(s.from).as_secs_f64();
            // A spinning core's busy time upgrades it from spin power to
            // full dynamic power; charge the difference here and the spin
            // floor below.
            let spin = if is_spinning[s.core.index()] {
                cfg.spin_factor
            } else {
                0.0
            };
            joules += prices.dyn_w[s.core.index()] * dur * (1.0 - spin);
        }
        for core in &self.spinning {
            joules += prices.dyn_w[core.index()] * cfg.spin_factor * end.as_secs_f64();
        }
        // Uncore-active term: spinning cores keep the mesh awake for the
        // whole run; otherwise integrate over the union of busy spans.
        if self.spinning.is_empty() {
            joules += cfg.uncore_active * self.union_busy_time(end).as_secs_f64();
        } else {
            joules += cfg.uncore_active * end.as_secs_f64();
        }
        joules
    }

    /// Energy in joules over the window `[from, to)` with the chip held
    /// in one DVFS state — the building block of the piecewise
    /// (governed) accounting. `energy_in_window(cfg, dvfs, 0, end)` is
    /// arithmetic-identical to [`PowerMeter::energy_joules`].
    pub fn energy_in_window(
        &self,
        cfg: &PowerConfig,
        dvfs: &DvfsState,
        from: SimTime,
        to: SimTime,
    ) -> f64 {
        let prices = Prices::new(cfg, dvfs);
        self.priced_window(cfg, &prices, &self.spin_table(), from, to)
    }

    /// [`PowerMeter::energy_in_window`] with the state already priced.
    fn priced_window(
        &self,
        cfg: &PowerConfig,
        prices: &Prices,
        is_spinning: &[bool; NUM_CORES as usize],
        from: SimTime,
        to: SimTime,
    ) -> f64 {
        if to <= from {
            return 0.0;
        }
        let dur = (to - from).as_secs_f64();
        let mut joules = prices.idle * dur;
        for s in &self.spans {
            let a = s.from.max(from);
            let b = s.to.min(to);
            if b <= a {
                continue;
            }
            let spin = if is_spinning[s.core.index()] {
                cfg.spin_factor
            } else {
                0.0
            };
            joules += prices.dyn_w[s.core.index()] * (b - a).as_secs_f64() * (1.0 - spin);
        }
        for core in &self.spinning {
            joules += prices.dyn_w[core.index()] * cfg.spin_factor * dur;
        }
        if self.spinning.is_empty() {
            joules += cfg.uncore_active * self.union_busy_in(from, to).as_secs_f64();
        } else {
            joules += cfg.uncore_active * dur;
        }
        joules
    }

    /// Total energy over `[0, end]` under a piecewise-constant DVFS
    /// schedule: `schedule[k]` = (instant the state takes effect, state),
    /// sorted by instant with the first entry at 0. This is how a
    /// governed run integrates energy — the chip is in exactly one state
    /// at any instant, and each segment is an exact span integral.
    pub fn energy_joules_piecewise(
        &self,
        cfg: &PowerConfig,
        schedule: &[(SimTime, DvfsState)],
        end: SimTime,
    ) -> f64 {
        assert!(!schedule.is_empty(), "empty DVFS schedule");
        assert!(schedule[0].0.is_zero(), "schedule must start at t=0");
        let is_spinning = self.spin_table();
        let mut joules = 0.0;
        for (k, (from, dvfs)) in schedule.iter().enumerate() {
            let to = schedule.get(k + 1).map_or(end, |(t, _)| *t).min(end);
            let prices = Prices::new(cfg, dvfs);
            joules += self.priced_window(cfg, &prices, &is_spinning, *from, to);
        }
        joules
    }

    /// [`PowerMeter::trace`] under a piecewise-constant DVFS schedule:
    /// each `dt` bucket is rendered against the state in effect at the
    /// bucket's start.
    pub fn trace_piecewise(
        &self,
        cfg: &PowerConfig,
        schedule: &[(SimTime, DvfsState)],
        end: SimTime,
        dt: SimTime,
    ) -> Vec<PowerSample> {
        assert!(!schedule.is_empty(), "empty DVFS schedule");
        let prices: Vec<Prices> = schedule.iter().map(|(_, s)| Prices::new(cfg, s)).collect();
        self.render(cfg, end, dt, |t| {
            &prices[schedule.iter().rposition(|(at, _)| *at <= t).unwrap_or(0)]
        })
    }

    /// Length of the union of all busy intervals clipped to `[from, to]`.
    fn union_busy_in(&self, from: SimTime, to: SimTime) -> SimTime {
        let mut intervals: Vec<(SimTime, SimTime)> = self
            .spans
            .iter()
            .map(|s| (s.from.max(from).min(to), s.to.max(from).min(to)))
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort();
        let mut total = SimTime::ZERO;
        let mut cur: Option<(SimTime, SimTime)> = None;
        for (a, b) in intervals {
            match cur {
                None => cur = Some((a, b)),
                Some((ca, cb)) => {
                    if a <= cb {
                        cur = Some((ca, cb.max(b)));
                    } else {
                        total += cb - ca;
                        cur = Some((a, b));
                    }
                }
            }
        }
        if let Some((ca, cb)) = cur {
            total += cb - ca;
        }
        total
    }

    /// Length of the union of all busy intervals clipped to `[0, end]`.
    pub fn union_busy_time(&self, end: SimTime) -> SimTime {
        let mut intervals: Vec<(SimTime, SimTime)> = self
            .spans
            .iter()
            .map(|s| (s.from.min(end), s.to.min(end)))
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort();
        let mut total = SimTime::ZERO;
        let mut cur: Option<(SimTime, SimTime)> = None;
        for (a, b) in intervals {
            match cur {
                None => cur = Some((a, b)),
                Some((ca, cb)) => {
                    if a <= cb {
                        cur = Some((ca, cb.max(b)));
                    } else {
                        total += cb - ca;
                        cur = Some((a, b));
                    }
                }
            }
        }
        if let Some((ca, cb)) = cur {
            total += cb - ca;
        }
        total
    }
}

/// The paper's MCPC (Xeon X3440 host) power figures: 52 W idle, 80 W while
/// rendering (§II, §VI-B).
#[derive(Debug, Clone, Serialize)]
pub struct McpcPower {
    pub idle: f64,
    pub rendering: f64,
}

impl Default for McpcPower {
    fn default() -> Self {
        McpcPower {
            idle: 52.0,
            rendering: 80.0,
        }
    }
}

impl McpcPower {
    /// Incremental power of the render work itself.
    pub fn render_delta(&self) -> f64 {
        self.rendering - self.idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::FreqMHz;

    #[test]
    fn idle_chip_is_about_22_watts() {
        let cfg = PowerConfig::default();
        let idle = cfg.idle_power(&DvfsState::default());
        assert!(
            (idle - 22.0).abs() < 0.5,
            "idle power {idle:.2} W should calibrate to ~22 W"
        );
    }

    #[test]
    fn busy_cores_add_power_linearly() {
        let cfg = PowerConfig::default();
        let dvfs = DvfsState::default();
        let mut busy = [false; NUM_CORES as usize];
        let p0 = cfg.chip_power(&dvfs, &busy);
        busy[0] = true;
        let p1 = cfg.chip_power(&dvfs, &busy);
        busy[1] = true;
        let p2 = cfg.chip_power(&dvfs, &busy);
        // First busy core pays the uncore-active uplift; the second only
        // its own dynamic power.
        assert!((p1 - p0 - cfg.uncore_active - cfg.core_dyn_nom).abs() < 1e-9);
        assert!((p2 - p1 - cfg.core_dyn_nom).abs() < 1e-9);
    }

    #[test]
    fn raising_an_island_costs_about_four_watts() {
        let cfg = PowerConfig::default();
        let mut busy = [false; NUM_CORES as usize];
        busy[8] = true; // the "blur" core, tile 4, island 2
        let base = cfg.chip_power(&DvfsState::default(), &busy);
        let mut dvfs = DvfsState::default();
        dvfs.set_core_tile(CoreId::new(8), FreqMHz::F800);
        let raised = cfg.chip_power(&dvfs, &busy);
        let delta = raised - base;
        assert!(
            (3.0..6.0).contains(&delta),
            "island uplift {delta:.2} W should land in the paper's 4-5 W band"
        );
    }

    #[test]
    fn undervolting_an_island_saves_power() {
        let cfg = PowerConfig::default();
        let busy = [false; NUM_CORES as usize];
        let base = cfg.chip_power(&DvfsState::default(), &busy);
        let mut dvfs = DvfsState::default();
        for t in IslandId::new(0).tiles() {
            dvfs.set_tile(t, FreqMHz::F400);
        }
        let lowered = cfg.chip_power(&dvfs, &busy);
        assert!(
            lowered < base - 2.0,
            "0.7 V island should save several watts"
        );
    }

    #[test]
    fn meter_energy_matches_hand_computation() {
        let cfg = PowerConfig::default();
        let dvfs = DvfsState::default();
        let mut m = PowerMeter::new();
        // One core busy for the first half of a 10 s run.
        m.record(CoreId::new(0), SimTime::ZERO, SimTime::from_secs(5));
        let e = m.energy_joules(&cfg, &dvfs, SimTime::from_secs(10));
        let idle = cfg.idle_power(&dvfs);
        let expect = idle * 10.0 + (cfg.core_dyn_nom + cfg.uncore_active) * 5.0;
        assert!((e - expect).abs() < 1e-6, "{e} vs {expect}");
    }

    #[test]
    fn union_busy_time_merges_overlaps() {
        let mut m = PowerMeter::new();
        m.record(CoreId::new(0), SimTime::from_secs(1), SimTime::from_secs(4));
        m.record(CoreId::new(1), SimTime::from_secs(2), SimTime::from_secs(6));
        m.record(CoreId::new(2), SimTime::from_secs(8), SimTime::from_secs(9));
        assert_eq!(
            m.union_busy_time(SimTime::from_secs(10)),
            SimTime::from_secs(6)
        );
        // Clipping at end.
        assert_eq!(
            m.union_busy_time(SimTime::from_secs(5)),
            SimTime::from_secs(4)
        );
    }

    #[test]
    fn trace_reflects_busy_fraction() {
        let cfg = PowerConfig::default();
        let dvfs = DvfsState::default();
        let mut m = PowerMeter::new();
        // Busy exactly during the second 1 s bucket.
        m.record(CoreId::new(3), SimTime::from_secs(1), SimTime::from_secs(2));
        let trace = m.trace(&cfg, &dvfs, SimTime::from_secs(3), SimTime::from_secs(1));
        assert_eq!(trace.len(), 3);
        let idle = cfg.idle_power(&dvfs);
        assert!((trace[0].watts - idle).abs() < 1e-9);
        assert!(trace[1].watts > idle + cfg.uncore_active * 0.9);
        assert!((trace[2].watts - idle).abs() < 1e-9);
    }

    #[test]
    fn traces_end_at_the_end_of_time() {
        // Two samples of 2^63 ps: the second one's end lies past
        // `u64::MAX` ps, and the span runs to 5 ps before it.
        let cfg = PowerConfig::default();
        let dvfs = DvfsState::default();
        let dt = SimTime::from_ps(1 << 63);
        let mut m = PowerMeter::new();
        m.record(
            CoreId::new(0),
            SimTime::from_ps((1 << 63) + 10),
            SimTime::from_ps(u64::MAX - 5),
        );
        let idle = cfg.idle_power(&dvfs);
        let frac = ((1u64 << 63) - 16) as f64 / dt.as_ps() as f64;
        let busy = idle + cfg.core_dyn_nom * frac + cfg.uncore_active * frac;
        for trace in [
            m.trace(&cfg, &dvfs, SimTime::MAX, dt),
            m.trace_piecewise(&cfg, &[(SimTime::ZERO, dvfs.clone())], SimTime::MAX, dt),
        ] {
            assert_eq!(trace.len(), 2);
            assert_eq!((trace[0].t, trace[1].t), (SimTime::ZERO, dt));
            assert_eq!(trace[0].watts, idle);
            assert!((trace[1].watts - busy).abs() < 1e-9, "{}", trace[1].watts);
        }
    }

    #[test]
    fn empty_meter_reports_zero_busy() {
        let m = PowerMeter::new();
        assert_eq!(m.busy_time(CoreId::new(0)), SimTime::ZERO);
        assert_eq!(m.union_busy_time(SimTime::from_secs(1)), SimTime::ZERO);
    }

    #[test]
    fn mcpc_power_defaults() {
        let m = McpcPower::default();
        assert_eq!(m.render_delta(), 28.0, "paper's 80 W - 52 W");
    }

    fn busy_meter() -> PowerMeter {
        let mut m = PowerMeter::new();
        m.record(CoreId::new(0), SimTime::from_secs(1), SimTime::from_secs(4));
        m.record(CoreId::new(8), SimTime::from_secs(2), SimTime::from_secs(9));
        m.set_spinning(vec![CoreId::new(0), CoreId::new(8), CoreId::new(9)]);
        m
    }

    #[test]
    fn single_state_piecewise_matches_legacy_integral() {
        let cfg = PowerConfig::default();
        let dvfs = DvfsState::default();
        let m = busy_meter();
        let end = SimTime::from_secs(10);
        let legacy = m.energy_joules(&cfg, &dvfs, end);
        let windowed = m.energy_in_window(&cfg, &dvfs, SimTime::ZERO, end);
        let piecewise = m.energy_joules_piecewise(&cfg, &[(SimTime::ZERO, dvfs)], end);
        assert!((legacy - windowed).abs() < 1e-9, "{legacy} vs {windowed}");
        assert!((legacy - piecewise).abs() < 1e-9, "{legacy} vs {piecewise}");
    }

    #[test]
    fn windows_partition_the_run() {
        let cfg = PowerConfig::default();
        let dvfs = DvfsState::default();
        let m = busy_meter();
        let end = SimTime::from_secs(10);
        let total = m.energy_in_window(&cfg, &dvfs, SimTime::ZERO, end);
        let split = m.energy_in_window(&cfg, &dvfs, SimTime::ZERO, SimTime::from_secs(3))
            + m.energy_in_window(&cfg, &dvfs, SimTime::from_secs(3), SimTime::from_secs(7))
            + m.energy_in_window(&cfg, &dvfs, SimTime::from_secs(7), end);
        assert!((total - split).abs() < 1e-9, "{total} vs {split}");
    }

    #[test]
    fn piecewise_energy_lands_between_the_pure_states() {
        let cfg = PowerConfig::default();
        let low = DvfsState::default();
        let mut high = DvfsState::default();
        high.set_core_tile(CoreId::new(8), FreqMHz::F800);
        let m = busy_meter();
        let end = SimTime::from_secs(10);
        let e_low = m.energy_joules(&cfg, &low, end);
        let e_high = m.energy_joules(&cfg, &high, end);
        let mixed = m.energy_joules_piecewise(
            &cfg,
            &[(SimTime::ZERO, low), (SimTime::from_secs(5), high)],
            end,
        );
        assert!(
            e_low < mixed && mixed < e_high,
            "{e_low} < {mixed} < {e_high}"
        );
    }

    #[test]
    fn piecewise_trace_switches_floor_at_the_boundary() {
        let cfg = PowerConfig::default();
        let low = DvfsState::default();
        let mut high = DvfsState::default();
        high.set_core_tile(CoreId::new(8), FreqMHz::F800);
        let m = PowerMeter::new();
        let schedule = [
            (SimTime::ZERO, low.clone()),
            (SimTime::from_secs(2), high.clone()),
        ];
        let trace = m.trace_piecewise(
            &cfg,
            &schedule,
            SimTime::from_secs(4),
            SimTime::from_secs(1),
        );
        assert_eq!(trace.len(), 4);
        let idle_low = cfg.idle_power(&low);
        let idle_high = cfg.idle_power(&high);
        assert!((trace[0].watts - idle_low).abs() < 1e-9);
        assert!((trace[3].watts - idle_high).abs() < 1e-9);
        assert!(idle_high > idle_low + 3.0, "1.3 V island uplift visible");
    }
}
