//! Closed-loop DVFS governor.
//!
//! The paper's §VI-D frequency split (blur at 800 MHz, the downstream
//! island recovered to 400 MHz) was chosen open-loop, by a person staring
//! at Figure 15's idle quartiles. This module closes that loop: at a
//! configurable epoch the runner hands the governor one idle fraction per
//! placed station, and the governor moves per-tile `FreqMHz` to shrink the
//! bottleneck stage's deficit under an idle-power budget.
//!
//! The control law is deliberately small — the same three moves a person
//! would make from the idle histogram:
//!
//! * **Raise** the tile of the station with the *lowest* idle fraction one
//!   frequency step, when that fraction sits below
//!   [`GovernorTuning::bottleneck_idle_frac`] — it is the stage everyone
//!   else is waiting on.
//! * **Throttle** a whole voltage island one step down when *every*
//!   station resident on it idles above
//!   [`GovernorTuning::throttle_idle_frac`] — the island is coasting, and
//!   voltage only drops when all four tiles come down together
//!   (`DvfsState::island_volts` is a max).
//! * **Hold** otherwise.
//!
//! Two dampers keep it from chattering. A candidate must persist for
//! [`GovernorTuning::hysteresis_epochs`] consecutive epochs before it is
//! acted on, and a raise is suppressed (recorded as
//! [`GovernorAction::CapBlocked`]) when the cumulative idle-power cost of
//! all raises would exceed [`GovernorTuning::power_cap_watts`] — the cap
//! bounds what the governor may spend on speed; throttle savings are not
//! credited back.
//!
//! Both runner backends call [`Governor::observe_epoch`] with identically
//! defined samples (idle-in-epoch over epoch duration, quantised to
//! 1/256ths to absorb the sim≡DES timing tolerance), so the decision trace
//! is byte-comparable across backends. A decision made from epoch `e`'s
//! samples takes effect at epoch `e + 2`: the one-epoch lag gives the DES
//! backend's pipelined lookahead a frequency map that is always already
//! decided when a node needs it.

use crate::spec::GovernorTuning;
use scc_sim::dvfs::NUM_ISLANDS;
use scc_sim::power::PowerConfig as PowerCalibration;
use scc_sim::{CoreId, DvfsState, FreqMHz, IslandId, TileId};
use serde::Serialize;

/// One sampled station: a placed stage and the fraction of the epoch it
/// spent waiting for input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationSample {
    pub core: CoreId,
    /// Idle-in-epoch over epoch duration, in `[0, 1]`.
    pub idle_frac: f64,
}

impl StationSample {
    pub fn new(core: CoreId, idle_frac: f64) -> StationSample {
        StationSample { core, idle_frac }
    }
}

/// What the governor did with one epoch's samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GovernorAction {
    /// No candidate, or a candidate still accumulating hysteresis.
    Hold,
    /// The bottleneck station's tile moved one frequency step up.
    Raise {
        tile: TileId,
        from: FreqMHz,
        to: FreqMHz,
    },
    /// A coasting island moved one frequency step down (all four tiles).
    Throttle {
        island: IslandId,
        from: FreqMHz,
        to: FreqMHz,
    },
    /// A raise cleared hysteresis but would blow the idle-power budget.
    CapBlocked { tile: TileId },
}

/// One line of the governor's decision trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GovernorDecision {
    pub epoch: u32,
    pub action: GovernorAction,
}

/// The closed-loop controller. Owns its view of the DVFS state it has
/// decided so far; the runner owns when each decided state takes effect.
#[derive(Debug, Clone)]
pub struct Governor {
    tuning: GovernorTuning,
    cal: PowerCalibration,
    state: DvfsState,
    /// Idle-power watts the applied raises have cost so far. Throttle
    /// savings are deliberately not credited back: the cap bounds how
    /// much the governor may *spend* on speed, not the net balance — a
    /// refundable cap would let every budget converge to the same state
    /// and stop being a knob.
    spent_watts: f64,
    /// Tiles whose raise was refused by the cap; the budget never grows,
    /// so they stay off the candidate list and the throttle arm can run.
    blocked_tiles: Vec<TileId>,
    /// Tiles hosting placed-but-unsampled cores (renderers, connector):
    /// their islands are never throttled — no idle sample does not mean
    /// no work.
    protected_tiles: Vec<TileId>,
    raise_streak: Option<(TileId, u32)>,
    throttle_streak: Option<(IslandId, u32)>,
    decisions: Vec<GovernorDecision>,
    raises: u32,
    throttles: u32,
    cap_blocks: u32,
}

/// Idle fractions quantised to this grain before any comparison, so the
/// sim and DES backends (timing within a few percent of each other) reach
/// the same verdicts from the same workload.
const IDLE_GRAIN: f64 = 256.0;

fn quantise(idle_frac: f64) -> f64 {
    (idle_frac.clamp(0.0, 1.0) * IDLE_GRAIN).round() / IDLE_GRAIN
}

fn step_up(f: FreqMHz) -> Option<FreqMHz> {
    match f {
        FreqMHz::F400 => Some(FreqMHz::F533),
        FreqMHz::F533 => Some(FreqMHz::F800),
        FreqMHz::F800 => None,
    }
}

fn step_down(f: FreqMHz) -> Option<FreqMHz> {
    match f {
        FreqMHz::F400 => None,
        FreqMHz::F533 => Some(FreqMHz::F400),
        FreqMHz::F800 => Some(FreqMHz::F533),
    }
}

/// One frequency step apart, in either direction — the legality test the
/// invariant checker applies to every decision.
pub fn adjacent_steps(a: FreqMHz, b: FreqMHz) -> bool {
    step_up(a) == Some(b) || step_down(a) == Some(b)
}

/// The DVFS state a decision trace converges to from `initial` — what a
/// report's `dvfs_decisions` imply, independent of how many of the tail
/// decisions the run was still long enough to put into effect.
pub fn replay_decisions(initial: &DvfsState, decisions: &[GovernorDecision]) -> DvfsState {
    let mut state = initial.clone();
    for d in decisions {
        match d.action {
            GovernorAction::Raise { tile, to, .. } => state.set_tile(tile, to),
            GovernorAction::Throttle { island, to, .. } => {
                for tile in island.tiles() {
                    state.set_tile(tile, to);
                }
            }
            _ => {}
        }
    }
    state
}

impl Governor {
    /// A governor starting from `initial` (usually the uniform default),
    /// budgeted against `cal`'s idle-power model.
    pub fn new(tuning: GovernorTuning, cal: PowerCalibration, initial: DvfsState) -> Governor {
        Governor {
            tuning,
            cal,
            state: initial,
            spent_watts: 0.0,
            blocked_tiles: Vec::new(),
            protected_tiles: Vec::new(),
            raise_streak: None,
            throttle_streak: None,
            decisions: Vec::new(),
            raises: 0,
            throttles: 0,
            cap_blocks: 0,
        }
    }

    /// Shield the tiles of `cores` from island throttles — for placed
    /// stages the runner does not sample (renderers, the MCPC connector),
    /// whose silence must not read as coasting.
    pub fn protect(mut self, cores: impl IntoIterator<Item = CoreId>) -> Governor {
        for c in cores {
            let tile = c.tile();
            if !self.protected_tiles.contains(&tile) {
                self.protected_tiles.push(tile);
            }
        }
        self
    }

    /// The state the governor has decided so far (the runner applies it on
    /// its own effect schedule).
    pub fn state(&self) -> &DvfsState {
        &self.state
    }

    pub fn decisions(&self) -> &[GovernorDecision] {
        &self.decisions
    }

    pub fn epochs(&self) -> u32 {
        self.decisions.len() as u32
    }

    pub fn raises(&self) -> u32 {
        self.raises
    }

    pub fn throttles(&self) -> u32 {
        self.throttles
    }

    pub fn cap_blocks(&self) -> u32 {
        self.cap_blocks
    }

    /// Feed one epoch's samples; returns the newly decided state when the
    /// epoch produced a move, `None` on a hold. At most one move per epoch
    /// — a raise outranks a throttle, so the pipeline is never slowed in
    /// the same breath that speeds it up.
    pub fn observe_epoch(&mut self, stations: &[StationSample]) -> Option<DvfsState> {
        let epoch = self.decisions.len() as u32;
        let action = if stations.is_empty() {
            GovernorAction::Hold
        } else {
            self.raise_move(stations)
                .or_else(|| self.throttle_move(stations))
                .unwrap_or(GovernorAction::Hold)
        };
        self.decisions.push(GovernorDecision { epoch, action });
        match action {
            GovernorAction::Raise { .. } => self.raises += 1,
            GovernorAction::Throttle { .. } => self.throttles += 1,
            GovernorAction::CapBlocked { .. } => self.cap_blocks += 1,
            GovernorAction::Hold => {}
        }
        matches!(
            action,
            GovernorAction::Raise { .. } | GovernorAction::Throttle { .. }
        )
        .then(|| self.state.clone())
    }

    /// The bottleneck arm: lowest-idle station below the threshold that
    /// can still step up, with hysteresis and the power cap between
    /// candidacy and action. Stations whose tile is maxed out or
    /// cap-blocked are passed over so they cannot shadow the next-worst
    /// deficit (a raised sepia must not hide a starved blur).
    fn raise_move(&mut self, stations: &[StationSample]) -> Option<GovernorAction> {
        // Lowest quantised idle first; ties break on core id so both
        // backends rank identically.
        let mut ranked: Vec<StationSample> = stations.to_vec();
        ranked.sort_by(|a, b| {
            quantise(a.idle_frac)
                .total_cmp(&quantise(b.idle_frac))
                .then(a.core.cmp(&b.core))
        });
        let bottleneck = ranked.into_iter().find(|s| {
            let tile = s.core.tile();
            quantise(s.idle_frac) < self.tuning.bottleneck_idle_frac
                && !self.blocked_tiles.contains(&tile)
                && step_up(self.state.tile_freq(tile)).is_some()
        });
        let Some(bottleneck) = bottleneck else {
            self.raise_streak = None;
            return None;
        };
        let tile = bottleneck.core.tile();
        let to = step_up(self.state.tile_freq(tile)).expect("candidacy checked a step exists");
        let streak = match self.raise_streak {
            Some((t, n)) if t == tile => n + 1,
            _ => 1,
        };
        self.raise_streak = Some((tile, streak));
        if streak < self.tuning.hysteresis_epochs {
            return Some(GovernorAction::Hold);
        }
        self.raise_streak = None;
        let from = self.state.tile_freq(tile);
        let mut candidate = self.state.clone();
        candidate.set_tile(tile, to);
        let cost = self.cal.idle_power(&candidate) - self.cal.idle_power(&self.state);
        if self.spent_watts + cost > self.tuning.power_cap_watts + 1e-9 {
            self.blocked_tiles.push(tile);
            return Some(GovernorAction::CapBlocked { tile });
        }
        self.spent_watts += cost;
        self.state = candidate;
        self.throttle_streak = None;
        Some(GovernorAction::Raise { tile, from, to })
    }

    /// The coasting arm: an island where every resident station idles
    /// above the threshold and all four tiles share one frequency with a
    /// step below it. Lowest island id wins so the trace is deterministic.
    fn throttle_move(&mut self, stations: &[StationSample]) -> Option<GovernorAction> {
        let mut resident: [Vec<f64>; NUM_ISLANDS as usize] = Default::default();
        for s in stations {
            resident[IslandId::of_tile(s.core.tile()).index()].push(quantise(s.idle_frac));
        }
        let candidate = IslandId::all().find(|island| {
            let idles = &resident[island.index()];
            if idles.is_empty()
                || idles
                    .iter()
                    .any(|idle| *idle <= self.tuning.throttle_idle_frac)
                || island
                    .tiles()
                    .iter()
                    .any(|t| self.protected_tiles.contains(t))
            {
                return false;
            }
            let freqs: Vec<FreqMHz> = island
                .tiles()
                .iter()
                .map(|t| self.state.tile_freq(*t))
                .collect();
            freqs.iter().all(|f| *f == freqs[0]) && step_down(freqs[0]).is_some()
        });
        let Some(island) = candidate else {
            self.throttle_streak = None;
            return None;
        };
        let streak = match self.throttle_streak {
            Some((i, n)) if i == island => n + 1,
            _ => 1,
        };
        self.throttle_streak = Some((island, streak));
        if streak < self.tuning.hysteresis_epochs {
            return Some(GovernorAction::Hold);
        }
        self.throttle_streak = None;
        let from = self.state.tile_freq(island.tiles()[0]);
        let to = step_down(from).expect("candidacy checked a step exists");
        for tile in island.tiles() {
            self.state.set_tile(tile, to);
        }
        Some(GovernorAction::Throttle { island, from, to })
    }

    /// Largest number of frequency-direction changes any single tile saw
    /// over the decision trace — the no-oscillation metric. A converging
    /// governor settles each tile with at most one change of direction.
    pub fn max_direction_changes(&self) -> u32 {
        let mut last_dir: [i8; 24] = [0; 24];
        let mut changes: [u32; 24] = [0; 24];
        for d in &self.decisions {
            let (tiles, dir): (Vec<TileId>, i8) = match d.action {
                GovernorAction::Raise { tile, .. } => (vec![tile], 1),
                GovernorAction::Throttle { island, .. } => (island.tiles().to_vec(), -1),
                _ => continue,
            };
            for t in tiles {
                let i = t.index();
                if last_dir[i] != 0 && last_dir[i] != dir {
                    changes[i] += 1;
                }
                last_dir[i] = dir;
            }
        }
        changes.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sim::topology::TileId;

    fn tuning() -> GovernorTuning {
        GovernorTuning::default()
    }

    fn core_at(x: u8, y: u8, slot: u8) -> CoreId {
        CoreId::new(TileId::from_xy(x, y).raw() * 2 + slot)
    }

    /// The paper's film shape: blur starved of idle, everyone else
    /// coasting. Stations mirror `place_dvfs_single_pipeline`.
    fn film_epoch() -> Vec<StationSample> {
        vec![
            StationSample::new(core_at(1, 0, 0), 0.62), // sepia
            StationSample::new(core_at(2, 0, 0), 0.02), // blur (bottleneck)
            StationSample::new(core_at(4, 0, 0), 0.66), // scratch
            StationSample::new(core_at(4, 0, 1), 0.68), // flicker
            StationSample::new(core_at(5, 0, 0), 0.70), // swap
            StationSample::new(core_at(5, 0, 1), 0.64), // transfer
        ]
    }

    #[test]
    fn converges_to_the_papers_film_split() {
        let mut g = Governor::new(tuning(), PowerCalibration::default(), DvfsState::default());
        for _ in 0..20 {
            g.observe_epoch(&film_epoch());
        }
        let blur_tile = TileId::from_xy(2, 0);
        assert_eq!(g.state().tile_freq(blur_tile), FreqMHz::F800);
        // The downstream island (tiles (4..6, 0..2)) coasts to 400.
        let downstream = IslandId::of_tile(TileId::from_xy(4, 0));
        for t in downstream.tiles() {
            assert_eq!(g.state().tile_freq(t), FreqMHz::F400, "{t}");
        }
        // Sepia shares island 0 with no low-idle station, so it coasts
        // too; blur's island keeps its other tiles at the default.
        let upstream = IslandId::of_tile(TileId::from_xy(1, 0));
        for t in upstream.tiles() {
            assert_eq!(g.state().tile_freq(t), FreqMHz::F400, "{t}");
        }
        assert!(g.raises() >= 1 && g.throttles() >= 2);
        assert_eq!(g.max_direction_changes(), 0, "no tile reversed direction");
    }

    #[test]
    fn blurs_island_is_never_throttled() {
        let mut g = Governor::new(tuning(), PowerCalibration::default(), DvfsState::default());
        for _ in 0..20 {
            g.observe_epoch(&film_epoch());
        }
        // Blur sits on island 1; its low idle vetoes the island throttle,
        // so every tile there holds at least the default frequency.
        let blur_island = IslandId::of_tile(TileId::from_xy(2, 0));
        for t in blur_island.tiles() {
            assert!(g.state().tile_freq(t).mhz() >= FreqMHz::F533.mhz(), "{t}");
        }
        assert_eq!(
            g.state().tile_freq(TileId::from_xy(3, 0)),
            FreqMHz::F533,
            "blur's island mate holds the default"
        );
    }

    #[test]
    fn hysteresis_blocks_an_alternating_bottleneck() {
        let mut g = Governor::new(tuning(), PowerCalibration::default(), DvfsState::default());
        let a = StationSample::new(core_at(1, 0, 0), 0.02);
        let b = StationSample::new(core_at(2, 0, 0), 0.02);
        let calm = StationSample::new(core_at(4, 0, 0), 0.30);
        for e in 0..12 {
            // The bottleneck flips tile every epoch: no streak ever
            // reaches the hysteresis bar.
            let noisy = if e % 2 == 0 {
                vec![a, StationSample::new(b.core, 0.2), calm]
            } else {
                vec![StationSample::new(a.core, 0.2), b, calm]
            };
            g.observe_epoch(&noisy);
        }
        assert_eq!(g.raises(), 0);
        assert!(g
            .decisions()
            .iter()
            .all(|d| d.action == GovernorAction::Hold));
    }

    #[test]
    fn power_cap_blocks_the_raise_but_not_the_throttles() {
        let tight = GovernorTuning {
            power_cap_watts: 0.5,
            ..tuning()
        };
        let mut g = Governor::new(tight, PowerCalibration::default(), DvfsState::default());
        for _ in 0..20 {
            g.observe_epoch(&film_epoch());
        }
        assert_eq!(g.raises(), 0, "0.5 W cannot pay for a 1.3 V island");
        assert!(g.cap_blocks() >= 1);
        assert!(g.throttles() >= 2, "throttles are always budget-positive");
        assert_eq!(
            g.state().tile_freq(TileId::from_xy(2, 0)),
            FreqMHz::F533,
            "blur stays at the default under the tight cap"
        );
    }

    #[test]
    fn wider_cap_reaches_a_faster_state() {
        let run = |cap: f64| {
            let t = GovernorTuning {
                power_cap_watts: cap,
                ..tuning()
            };
            let mut g = Governor::new(t, PowerCalibration::default(), DvfsState::default());
            for _ in 0..20 {
                g.observe_epoch(&film_epoch());
            }
            g
        };
        let tight = run(0.5);
        let wide = run(8.0);
        for t in TileId::all() {
            assert!(
                wide.state().tile_freq(t).mhz() >= tight.state().tile_freq(t).mhz(),
                "{t} slower under the wider cap"
            );
        }
        assert!(wide.raises() > tight.raises());
    }

    #[test]
    fn decision_trace_is_deterministic_and_legal() {
        let mk = || {
            let mut g = Governor::new(tuning(), PowerCalibration::default(), DvfsState::default());
            for _ in 0..16 {
                g.observe_epoch(&film_epoch());
            }
            g
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.decisions(), b.decisions());
        for d in a.decisions() {
            match d.action {
                GovernorAction::Raise { from, to, .. }
                | GovernorAction::Throttle { from, to, .. } => {
                    assert!(adjacent_steps(from, to), "illegal step {from:?}->{to:?}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn empty_station_list_holds_forever() {
        let mut g = Governor::new(tuning(), PowerCalibration::default(), DvfsState::default());
        for _ in 0..5 {
            assert!(g.observe_epoch(&[]).is_none());
        }
        assert_eq!(g.raises() + g.throttles() + g.cap_blocks(), 0);
    }
}
