//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a pure function from a seed to a complete fault
//! schedule: whether message *n* between two cores is dropped, corrupted
//! or delayed, which mesh links run at degraded bandwidth, and when a
//! core stalls. Every decision is a hash of `(seed, identity of the
//! event)` — never of a shared mutable RNG — so the schedule is identical
//! no matter in which order the simulator (or the native runner's
//! threads) ask the questions. Two plans built from the same
//! [`FaultConfig`] answer every query identically, which is what makes
//! chaos runs reproducible and bisectable.
//!
//! The plan is wired into two layers:
//! * [`crate::noc`] — per-link bandwidth degradation and per-message
//!   flit delay;
//! * [`crate::platform`] — core stall windows (a stalled core issues no
//!   compute, memory or message operations until the window closes).
//!
//! The retry/timeout *protocol* built on these primitives lives in
//! `scc-rcce` (native, wall-clock) and `scc-core`'s runner (simulated,
//! virtual-time).

use crate::time::SimTime;
use crate::topology::Link;

/// What happens to one transmission attempt of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageOutcome {
    /// The payload arrives intact.
    Deliver,
    /// The payload never arrives; the sender's timeout will fire.
    Drop,
    /// The payload arrives with `xor` folded into the byte at
    /// `offset % len`; a CRC check must catch it.
    Corrupt { offset: u64, xor: u8 },
    /// The payload arrives intact but late by the given amount.
    Delay(SimTime),
}

/// One core stall: the core issues nothing during `[at, at + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreStall {
    pub core: u8,
    pub at: SimTime,
    pub duration: SimTime,
}

impl CoreStall {
    /// End of the stall window (saturating: `duration = SimTime::MAX`
    /// models a core that never comes back).
    pub fn until(&self) -> SimTime {
        SimTime::from_ps(self.at.as_ps().saturating_add(self.duration.as_ps()))
    }
}

/// One permanent core failure: from `at` onwards the core executes
/// nothing, acknowledges nothing, and emits no heartbeats — fail-stop.
/// Unlike a [`CoreStall`] it never ends, which is what makes supervised
/// *migration* (rather than patience) the right response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreKill {
    pub core: u8,
    pub at: SimTime,
}

/// Seeded description of every fault the plan may inject.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Master seed; all decisions derive from it.
    pub seed: u64,
    /// Probability that a message transmission attempt is dropped.
    pub drop_rate: f64,
    /// Probability that an attempt arrives corrupted.
    pub corrupt_rate: f64,
    /// Probability that an attempt (or a NoC message) is delayed.
    pub delay_rate: f64,
    /// Upper bound of an injected delay.
    pub max_delay: SimTime,
    /// Number of mesh links running at degraded bandwidth (chosen by the
    /// seed from the `Link::DENSE_COUNT` directed links).
    pub degraded_links: u32,
    /// Bandwidth multiplier applied to degraded links (0 < f ≤ 1).
    pub degrade_factor: f64,
    /// Core stall windows.
    pub stalls: Vec<CoreStall>,
    /// Permanent fail-stop core kills.
    pub kills: Vec<CoreKill>,
}

impl Default for FaultConfig {
    /// A quiet plan: no faults at all (every query answers "healthy").
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            delay_rate: 0.0,
            max_delay: SimTime::from_us(200),
            degraded_links: 0,
            degrade_factor: 1.0,
            stalls: Vec::new(),
            kills: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// Does this configuration inject per-message faults?
    pub fn perturbs_messages(&self) -> bool {
        self.drop_rate > 0.0 || self.corrupt_rate > 0.0 || self.delay_rate > 0.0
    }
}

// Domain-separation tags so the same seed yields independent streams for
// each decision family.
const TAG_MESSAGE: u64 = 0x4D45_5353_4147_4531;
const TAG_FLIT: u64 = 0x464C_4954_4445_4C41;
const TAG_LINK: u64 = 0x4C49_4E4B_4445_4752;
const TAG_EVENT: u64 = 0x4556_454E_544A_4954;

/// SplitMix64 finaliser: a high-quality 64-bit mixing function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform value in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The resolved, immutable fault schedule. Cheap to share (`Arc`) between
/// the platform, the NoC, the event queue and native endpoints.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    /// Bandwidth factor per dense link index (1.0 = healthy).
    link_factors: Vec<f64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(FaultConfig::default())
    }
}

impl FaultPlan {
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        let mut link_factors = vec![1.0; Link::DENSE_COUNT];
        let wanted = (cfg.degraded_links as usize).min(Link::DENSE_COUNT);
        let mut chosen = 0usize;
        let mut round = 0u64;
        while chosen < wanted {
            let idx = (mix(cfg.seed ^ TAG_LINK ^ round) % Link::DENSE_COUNT as u64) as usize;
            round += 1;
            if link_factors[idx] == 1.0 {
                link_factors[idx] = cfg.degrade_factor.clamp(1e-3, 1.0);
                chosen += 1;
            }
        }
        FaultPlan { cfg, link_factors }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Bandwidth multiplier of the link with this dense index.
    pub fn link_factor(&self, dense_index: usize) -> f64 {
        self.link_factors[dense_index]
    }

    /// Extra latency injected into NoC message number `msg_idx`.
    pub fn flit_delay(&self, msg_idx: u64) -> SimTime {
        if self.cfg.delay_rate <= 0.0 {
            return SimTime::ZERO;
        }
        let h = mix(self.cfg.seed ^ TAG_FLIT ^ msg_idx);
        if unit(h) >= self.cfg.delay_rate {
            return SimTime::ZERO;
        }
        SimTime::from_ps((self.cfg.max_delay.as_ps() as f64 * unit(mix(h))) as u64)
    }

    /// Deterministic jitter for event `seq`. No executor applies it;
    /// [`FaultPlan::schedule_digest`] folds it in with the other decision
    /// families.
    pub fn event_jitter(&self, seq: u64) -> SimTime {
        if self.cfg.delay_rate <= 0.0 {
            return SimTime::ZERO;
        }
        let h = mix(self.cfg.seed ^ TAG_EVENT ^ seq);
        if unit(h) >= self.cfg.delay_rate {
            return SimTime::ZERO;
        }
        SimTime::from_ps((self.cfg.max_delay.as_ps() as f64 * unit(mix(h))) as u64)
    }

    /// Fate of transmission attempt `attempt` of message `seq` from
    /// endpoint `from` to endpoint `to`. Keyed on the attempt number so a
    /// retransmission of a dropped message gets a fresh roll — without
    /// that, a bounded-retry protocol could never recover.
    pub fn message_outcome(&self, from: u64, to: u64, seq: u64, attempt: u32) -> MessageOutcome {
        if !self.cfg.perturbs_messages() {
            return MessageOutcome::Deliver;
        }
        let key = mix(self.cfg.seed ^ TAG_MESSAGE ^ mix(from ^ mix(to ^ mix(seq))))
            ^ mix(attempt as u64 ^ TAG_MESSAGE);
        let u = unit(key);
        if u < self.cfg.drop_rate {
            return MessageOutcome::Drop;
        }
        if u < self.cfg.drop_rate + self.cfg.corrupt_rate {
            let h = mix(key);
            // A zero mask would be a no-op corruption; force at least one
            // flipped bit.
            let xor = ((h >> 8) as u8) | 1;
            return MessageOutcome::Corrupt {
                offset: h % (1 << 24),
                xor,
            };
        }
        if u < self.cfg.drop_rate + self.cfg.corrupt_rate + self.cfg.delay_rate {
            let h = mix(key ^ TAG_FLIT);
            return MessageOutcome::Delay(SimTime::from_ps(
                (self.cfg.max_delay.as_ps() as f64 * unit(h)) as u64,
            ));
        }
        MessageOutcome::Deliver
    }

    /// Remaining stall time of `core` at instant `t` (zero if healthy).
    pub fn stall_remaining(&self, core: u8, t: SimTime) -> SimTime {
        self.cfg
            .stalls
            .iter()
            .filter(|s| s.core == core && t >= s.at && t < s.until())
            .map(|s| s.until().saturating_sub(t))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Earliest instant at or after `t` at which `core` can issue an
    /// operation (identity when the core is not stalled at `t`).
    pub fn stall_adjusted(&self, core: u8, t: SimTime) -> SimTime {
        t + self.stall_remaining(core, t)
    }

    /// The instant `core` fail-stops, if a kill is scheduled for it.
    /// Multiple kills of the same core collapse to the earliest.
    pub fn kill_time(&self, core: u8) -> Option<SimTime> {
        self.cfg
            .kills
            .iter()
            .filter(|k| k.core == core)
            .map(|k| k.at)
            .min()
    }

    /// Is `core` permanently dead at instant `t`?
    pub fn dead_at(&self, core: u8, t: SimTime) -> bool {
        self.kill_time(core).is_some_and(|k| k <= t)
    }

    /// Fold the first `probes` decisions of every family into one value —
    /// a compact fingerprint of the schedule for determinism checks.
    pub fn schedule_digest(&self, probes: u64) -> u64 {
        let mut acc = mix(self.cfg.seed);
        for (i, f) in self.link_factors.iter().enumerate() {
            acc = mix(acc ^ (i as u64) ^ f.to_bits());
        }
        for k in &self.cfg.kills {
            acc = mix(acc ^ k.core as u64 ^ mix(k.at.as_ps()));
        }
        for n in 0..probes {
            acc = mix(acc ^ self.flit_delay(n).as_ps());
            acc = mix(acc ^ self.event_jitter(n).as_ps());
            for attempt in 0..3 {
                let o = self.message_outcome(n % 7, (n + 1) % 11, n, attempt);
                let code = match o {
                    MessageOutcome::Deliver => 1,
                    MessageOutcome::Drop => 2,
                    MessageOutcome::Corrupt { offset, xor } => 3 ^ mix(offset ^ xor as u64),
                    MessageOutcome::Delay(d) => 5 ^ mix(d.as_ps()),
                };
                acc = mix(acc ^ code);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_rate: 0.2,
            corrupt_rate: 0.2,
            delay_rate: 0.2,
            degraded_links: 4,
            degrade_factor: 0.25,
            stalls: vec![CoreStall {
                core: 7,
                at: SimTime::from_ms(3),
                duration: SimTime::from_ms(10),
            }],
            ..FaultConfig::default()
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::new(lossy(42));
        let b = FaultPlan::new(lossy(42));
        assert_eq!(a.schedule_digest(256), b.schedule_digest(256));
        for n in 0..64 {
            assert_eq!(a.message_outcome(1, 2, n, 0), b.message_outcome(1, 2, n, 0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(lossy(1));
        let b = FaultPlan::new(lossy(2));
        assert_ne!(a.schedule_digest(256), b.schedule_digest(256));
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let p = FaultPlan::default();
        for n in 0..100 {
            assert_eq!(p.message_outcome(0, 1, n, 0), MessageOutcome::Deliver);
            assert_eq!(p.flit_delay(n), SimTime::ZERO);
            assert_eq!(p.event_jitter(n), SimTime::ZERO);
        }
        assert!(p.link_factors.iter().all(|&f| f == 1.0));
        assert_eq!(p.stall_remaining(0, SimTime::from_ms(1)), SimTime::ZERO);
    }

    #[test]
    fn outcome_rates_are_roughly_respected() {
        let p = FaultPlan::new(lossy(9));
        let mut drops = 0;
        let mut corrupts = 0;
        let mut delays = 0;
        let n = 10_000u64;
        for s in 0..n {
            match p.message_outcome(3, 4, s, 0) {
                MessageOutcome::Drop => drops += 1,
                MessageOutcome::Corrupt { xor, .. } => {
                    assert_ne!(xor, 0);
                    corrupts += 1;
                }
                MessageOutcome::Delay(d) => {
                    assert!(d <= p.config().max_delay);
                    delays += 1;
                }
                MessageOutcome::Deliver => {}
            }
        }
        for count in [drops, corrupts, delays] {
            let rate = count as f64 / n as f64;
            assert!((rate - 0.2).abs() < 0.03, "rate {rate} far from 0.2");
        }
    }

    #[test]
    fn retransmission_rolls_fresh_fate() {
        // With a 20% drop rate some first attempts drop, but virtually no
        // message drops on all of 4 attempts.
        let p = FaultPlan::new(lossy(5));
        let mut first_drops = 0;
        let mut all_drops = 0;
        for s in 0..2_000u64 {
            if p.message_outcome(0, 1, s, 0) == MessageOutcome::Drop {
                first_drops += 1;
            }
            if (0..4).all(|a| p.message_outcome(0, 1, s, a) == MessageOutcome::Drop) {
                all_drops += 1;
            }
        }
        assert!(first_drops > 200);
        assert!(all_drops <= 2, "budget-4 retry should almost never fail");
    }

    #[test]
    fn degraded_links_counted_and_bounded() {
        let p = FaultPlan::new(lossy(11));
        let degraded: Vec<f64> = p
            .link_factors
            .iter()
            .copied()
            .filter(|&f| f < 1.0)
            .collect();
        assert_eq!(degraded.len(), 4);
        assert!(degraded.iter().all(|&f| (f - 0.25).abs() < 1e-12));
    }

    #[test]
    fn stall_window_arithmetic() {
        let p = FaultPlan::new(lossy(3));
        // Outside the window: identity.
        assert_eq!(
            p.stall_adjusted(7, SimTime::from_ms(1)),
            SimTime::from_ms(1)
        );
        assert_eq!(
            p.stall_adjusted(7, SimTime::from_ms(20)),
            SimTime::from_ms(20)
        );
        // Inside: pushed to the end of the window.
        assert_eq!(
            p.stall_adjusted(7, SimTime::from_ms(5)),
            SimTime::from_ms(13)
        );
        assert_eq!(
            p.stall_remaining(7, SimTime::from_ms(3)),
            SimTime::from_ms(10)
        );
        // Other cores are unaffected.
        assert_eq!(p.stall_remaining(6, SimTime::from_ms(5)), SimTime::ZERO);
    }

    #[test]
    fn permanent_stall_saturates() {
        let s = CoreStall {
            core: 0,
            at: SimTime::from_ms(1),
            duration: SimTime::MAX,
        };
        assert_eq!(s.until(), SimTime::MAX);
    }

    #[test]
    fn kill_queries() {
        let p = FaultPlan::new(FaultConfig {
            kills: vec![
                CoreKill {
                    core: 9,
                    at: SimTime::from_ms(4),
                },
                CoreKill {
                    core: 9,
                    at: SimTime::from_ms(2),
                },
            ],
            ..FaultConfig::default()
        });
        // Earliest kill wins.
        assert_eq!(p.kill_time(9), Some(SimTime::from_ms(2)));
        assert_eq!(p.kill_time(8), None);
        assert!(!p.dead_at(9, SimTime::from_ms(1)));
        assert!(p.dead_at(9, SimTime::from_ms(2)));
        assert!(p.dead_at(9, SimTime::from_secs(100)));
        assert!(!p.dead_at(8, SimTime::from_secs(100)));
        // Kills never interfere with the transient-stall arithmetic.
        assert_eq!(p.stall_remaining(9, SimTime::from_ms(3)), SimTime::ZERO);
    }

    #[test]
    fn kills_enter_the_schedule_digest() {
        let quiet = FaultPlan::default();
        let killed = FaultPlan::new(FaultConfig {
            kills: vec![CoreKill {
                core: 3,
                at: SimTime::from_ms(1),
            }],
            ..FaultConfig::default()
        });
        assert_ne!(quiet.schedule_digest(16), killed.schedule_digest(16));
    }
}
