//! The power plane every virtual-time executor attaches once.
//!
//! [`crate::spec::PowerConfig`] is either a static per-tile plan or the
//! closed-loop [`Governor`]. Whichever it is, an executor needs the same
//! five things from it, and this module is the only place they are
//! written down:
//!
//! * [`PowerPlane::arm`] — apply the static pairs, or build the governor
//!   (shielding the cores the run places but never samples);
//! * [`PowerPlane::apply_for_item`] — the DVFS state item `k` runs under;
//! * [`PowerPlane::note_idle`] — a station core waited for item `k`;
//! * [`PowerPlane::delivered`] — item `k` left the chip at `t`;
//! * [`PowerPlane::finish`] — energy, the idle-power floor and the
//!   `scc_dvfs_*` telemetry rollup.
//!
//! The epoch protocol lives here and nowhere else. Epoch `e` covers items
//! `[eE, (e+1)E)`. It closes when its last item is delivered: the idle
//! each station core accumulated *for the items of that epoch* (bucketed
//! by item, because an event-ordered executor legally runs items of
//! epoch `e + 1` before `e` closes) over the epoch's duration is handed
//! to the governor, and the state it decides takes force at the first
//! item of epoch `e + 2`. The one-epoch lag is what lets executors with
//! pipelined lookahead find every item's frequency already decided, so
//! the item-to-frequency mapping — and with it the decision trace — is
//! the same under any event order. A zero-duration epoch is still
//! observed (with no stations, hence a `Hold`), so the epoch count is a
//! function of the item count alone.

use crate::governor::{Governor, GovernorDecision, StationSample};
use crate::spec::{PowerConfig, RunConfig};
use scc_sim::{CoreId, DvfsState, FreqMHz, PowerSample, SccPlatform, SimTime, TileId};
use scc_telemetry::{names, TelemetrySink};
use std::collections::BTreeMap;

pub(crate) struct PowerPlane {
    governor: Option<Governor>,
    /// Items per control epoch; `u64::MAX` under a static plan.
    epoch_items: u64,
    /// Items in the whole run (no boundary is stamped after the last).
    items: u64,
    /// `states[e]` is the DVFS state in force for epoch `e`'s items. The
    /// two seed entries are the control lag; empty under a static plan.
    states: Vec<DvfsState>,
    /// Idle per station core, indexed by the epoch of the waiting item.
    idle: Vec<BTreeMap<CoreId, SimTime>>,
    /// The DVFS schedule every energy and power figure is priced over:
    /// the state in force from each instant. A static run (or a governed
    /// one whose frequencies never moved) has its one entry at zero.
    schedule: Vec<(SimTime, DvfsState)>,
    epoch_mark: SimTime,
}

/// Energy accounting of a finished run.
pub(crate) struct PowerTotals {
    pub(crate) energy_joules: f64,
    /// Idle power of the cheapest DVFS state the run visited, watts.
    pub(crate) idle_floor_watts: f64,
}

impl PowerPlane {
    /// Attach `cfg.power` to `platform` for a run of `items` items.
    /// `unsampled` are placed cores that never report idle (renderers,
    /// the connector): the governor must not read their silence as
    /// coasting.
    pub(crate) fn arm(
        cfg: &RunConfig,
        platform: &mut SccPlatform,
        items: u64,
        unsampled: impl IntoIterator<Item = CoreId>,
    ) -> PowerPlane {
        let (governor, epoch_items) = match &cfg.power {
            PowerConfig::Static(pairs) => {
                for (core, freq) in pairs {
                    platform.set_core_frequency(*core, *freq);
                }
                (None, u64::MAX)
            }
            PowerConfig::Governed(tuning) => (
                Some(
                    Governor::new(
                        tuning.clone(),
                        platform.power_calibration().clone(),
                        platform.dvfs().clone(),
                    )
                    .protect(unsampled),
                ),
                u64::from(tuning.epoch_frames),
            ),
        };
        let initial = platform.dvfs().clone();
        PowerPlane {
            states: if governor.is_some() {
                vec![initial.clone(), initial.clone()]
            } else {
                Vec::new()
            },
            governor,
            epoch_items,
            items,
            idle: Vec::new(),
            schedule: vec![(SimTime::ZERO, initial)],
            epoch_mark: SimTime::ZERO,
        }
    }

    /// The decided state of `item`'s epoch. Chains deeper than epoch +
    /// lag can outrun the decided prefix; they clamp to the newest
    /// decision.
    fn state_for(&self, item: u64) -> Option<&DvfsState> {
        self.states
            .get((item / self.epoch_items) as usize)
            .or(self.states.last())
    }

    /// Put the platform into the state `item` runs under. The platform
    /// reads its DVFS state at call time, so an executor calls this
    /// before booking any of the item's work.
    pub(crate) fn apply_for_item(&self, platform: &mut SccPlatform, item: u64) {
        if let Some(state) = self.state_for(item) {
            if platform.dvfs() != state {
                platform.apply_dvfs(state);
            }
        }
    }

    /// Station `core` waited `wait` for `item`'s input.
    pub(crate) fn note_idle(&mut self, core: CoreId, item: u64, wait: SimTime) {
        if self.governor.is_none() {
            return;
        }
        let e = (item / self.epoch_items) as usize;
        if self.idle.len() <= e {
            self.idle.resize_with(e + 1, BTreeMap::new);
        }
        *self.idle[e].entry(core).or_insert(SimTime::ZERO) += wait;
    }

    /// `item` left the chip at `at`. Executors deliver items in order,
    /// and the last item of an epoch transitively depends on every node
    /// of that epoch, so its idle bucket is complete here.
    pub(crate) fn delivered(&mut self, item: u64, at: SimTime) {
        let Some(gov) = self.governor.as_mut() else {
            return;
        };
        if !(item + 1).is_multiple_of(self.epoch_items) {
            return;
        }
        let e = (item / self.epoch_items) as usize;
        let dur = at.saturating_sub(self.epoch_mark).as_secs_f64();
        let stations: Vec<StationSample> = match self.idle.get_mut(e) {
            Some(bucket) if dur > 0.0 => std::mem::take(bucket)
                .into_iter()
                .map(|(core, idle)| StationSample::new(core, idle.as_secs_f64() / dur))
                .collect(),
            _ => Vec::new(),
        };
        gov.observe_epoch(&stations);
        self.states.push(gov.state().clone());
        self.epoch_mark = at;
        // Epoch e + 1's (already decided) state takes force at this
        // instant on the virtual timeline.
        if item + 1 < self.items {
            let next = self
                .state_for(item + 1)
                .expect("governed runs seed two states");
            if *next != self.schedule.last().expect("seeded at zero").1 {
                self.schedule.push((at, next.clone()));
            }
        }
    }

    /// The governor's decision trace; empty under a static plan.
    pub(crate) fn decisions(&self) -> Vec<GovernorDecision> {
        self.governor
            .as_ref()
            .map(|g| g.decisions().to_vec())
            .unwrap_or_default()
    }

    /// Energy over `[0, end]`, priced over the schedule, the idle floor
    /// of the cheapest state in it, and, when `tel` is enabled, the energy
    /// gauge and the `scc_dvfs_*` rollup.
    pub(crate) fn finish(
        &self,
        platform: &SccPlatform,
        end: SimTime,
        tel: &TelemetrySink,
    ) -> PowerTotals {
        let totals = PowerTotals {
            energy_joules: platform.energy_joules(&self.schedule, end),
            idle_floor_watts: self
                .schedule
                .iter()
                .map(|(_, s)| platform.idle_power_for(s))
                .fold(f64::INFINITY, f64::min),
        };
        tel.gauge(names::ENERGY_JOULES, &[], totals.energy_joules);
        if let Some(gov) = self.governor.as_ref().filter(|_| tel.is_enabled()) {
            tel.count(names::DVFS_EPOCHS_TOTAL, &[], gov.epochs() as u64);
            tel.count(names::DVFS_RAISES_TOTAL, &[], gov.raises() as u64);
            tel.count(names::DVFS_THROTTLES_TOTAL, &[], gov.throttles() as u64);
            tel.count(names::DVFS_CAP_BLOCKS_TOTAL, &[], gov.cap_blocks() as u64);
            let last = &self.schedule.last().expect("seeded at zero").1;
            for tile in TileId::all() {
                let freq = last.tile_freq(tile);
                if freq != FreqMHz::F533 {
                    let label = tile.raw().to_string();
                    tel.gauge(
                        names::DVFS_TILE_FREQ_MHZ,
                        &[("tile", &label)],
                        freq.mhz() as f64,
                    );
                }
            }
        }
        totals
    }

    /// Chip power over `[0, end]` in 1 s samples, priced over the
    /// schedule.
    pub(crate) fn power_trace(&self, platform: &SccPlatform, end: SimTime) -> Vec<PowerSample> {
        platform.power_trace(&self.schedule, end, SimTime::from_secs(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GovernorTuning;
    use scc_sim::SccConfig;

    const BOTTLENECK: u8 = 4;
    const COASTER: u8 = 8;

    fn governed(epoch_frames: u32) -> RunConfig {
        RunConfig::builder()
            .power_governed(GovernorTuning {
                epoch_frames,
                hysteresis_epochs: 1,
                ..GovernorTuning::default()
            })
            .build()
            .expect("valid governed config")
    }

    /// Drive `items` items of 10 ms each through the plane: one station
    /// that never waits (the bottleneck) and one that waits 9 ms per
    /// item. Returns the frequency the bottleneck's tile ran each item
    /// under.
    fn drive(plane: &mut PowerPlane, platform: &mut SccPlatform, items: u64) -> Vec<FreqMHz> {
        let core = CoreId::new(BOTTLENECK);
        let mut seen = Vec::new();
        for k in 0..items {
            plane.apply_for_item(platform, k);
            seen.push(platform.dvfs().core_freq(core));
            plane.note_idle(core, k, SimTime::ZERO);
            plane.note_idle(CoreId::new(COASTER), k, SimTime::from_ms(9));
            plane.delivered(k, SimTime::from_ms(10 * (k + 1)));
        }
        seen
    }

    #[test]
    fn decision_takes_force_at_e_plus_two_and_not_before() {
        let mut platform = SccPlatform::new(SccConfig::default());
        let mut plane = PowerPlane::arm(&governed(4), &mut platform, 16, []);
        let seen = drive(&mut plane, &mut platform, 16);
        // Epoch 0 (items 0..4) decides the raise; epochs 0 and 1 still
        // run on the initial state, item 8 is the first at 800 MHz.
        assert!(matches!(
            plane.decisions()[0].action,
            crate::governor::GovernorAction::Raise { .. }
        ));
        assert!(seen[..8].iter().all(|f| *f == FreqMHz::F533), "{seen:?}");
        assert_eq!(seen[8], FreqMHz::F800);
        // The boundary is stamped at item 7's delivery, the instant the
        // epoch accounting closed on.
        assert_eq!(plane.schedule[1].0, SimTime::from_ms(80));
        assert_eq!(plane.decisions().len(), 4);
    }

    #[test]
    fn items_past_the_decided_prefix_clamp_to_the_newest() {
        let mut platform = SccPlatform::new(SccConfig::default());
        let mut plane = PowerPlane::arm(&governed(2), &mut platform, 64, []);
        drive(&mut plane, &mut platform, 4);
        // Two epochs closed: states cover epochs 0..4. An event-ordered
        // executor asking for item 40 (epoch 20) gets the newest one.
        assert_eq!(plane.states.len(), 4);
        let newest = plane.states.last().expect("seeded").clone();
        plane.apply_for_item(&mut platform, 40);
        assert_eq!(*platform.dvfs(), newest);
        assert_ne!(newest, DvfsState::default());
    }

    #[test]
    fn static_plan_is_a_one_entry_schedule() {
        let cfg = RunConfig::builder()
            .power_static([(BOTTLENECK, FreqMHz::F800)])
            .build()
            .expect("valid static config");
        let mut platform = SccPlatform::new(SccConfig::default());
        let mut plane = PowerPlane::arm(&cfg, &mut platform, 16, []);
        let seen = drive(&mut plane, &mut platform, 16);
        assert!(seen.iter().all(|f| *f == FreqMHz::F800));
        let one_state = [(SimTime::ZERO, platform.dvfs().clone())];
        assert_eq!(plane.schedule, one_state);
        assert!(plane.decisions().is_empty());
        let end = SimTime::from_ms(160);
        let totals = plane.finish(&platform, end, &TelemetrySink::from_enabled(false));
        assert_eq!(
            totals.energy_joules,
            platform.energy_joules(&one_state, end)
        );
        assert_eq!(totals.idle_floor_watts, platform.idle_power());
    }

    #[test]
    fn zero_duration_epoch_is_observed_as_a_hold() {
        let mut platform = SccPlatform::new(SccConfig::default());
        let mut plane = PowerPlane::arm(&governed(1), &mut platform, 4, []);
        for k in 0..4 {
            plane.note_idle(CoreId::new(BOTTLENECK), k, SimTime::ZERO);
            // Every item is delivered at the same instant.
            plane.delivered(k, SimTime::from_ms(5));
        }
        // Epoch 0 has a duration and raises; the three zero-length
        // epochs after it are still counted, as holds.
        let actions: Vec<_> = plane.decisions().iter().map(|d| d.action).collect();
        assert_eq!(actions.len(), 4);
        assert!(actions[1..]
            .iter()
            .all(|a| *a == crate::governor::GovernorAction::Hold));
    }
}
