//! Phi-style failure suspicion.
//!
//! The supervision control plane (scc-core's `supervise` module) decides
//! a core is dead once its heartbeats have been silent long enough. This
//! module holds the accrual-style [`PhiDetector`] that rule is written
//! against: it converts heartbeat arrival times into a dimensionless
//! suspicion level (elapsed silence in heartbeat periods). A core is
//! *slow* while suspicion is below the `phi_dead` threshold and *dead*
//! once it crosses — the distinction that keeps the supervisor from
//! migrating a stage that was merely stalled. The supervisor evaluates
//! the same rule in closed form in virtual time, and its tests hold the
//! closed form to this detector.
//!
//! The detector is deterministic: suspicion is a pure function of the
//! last observed arrival and the queried clock.

/// Accrual failure detector over one peer's heartbeat stream.
///
/// Suspicion is the silence since the last accepted heartbeat, measured
/// in heartbeat periods; the peer is declared dead once suspicion reaches
/// `phi_dead`. Stale or duplicate sequence numbers are ignored so
/// reordered health traffic can only ever *advance* the liveness
/// evidence, never rewind it.
#[derive(Debug, Clone)]
pub struct PhiDetector {
    period_ns: u64,
    phi_dead: f64,
    last_arrival_ns: u64,
    last_seq: Option<u64>,
}

impl PhiDetector {
    /// A detector armed at `now_ns`: the peer gets a full grace window
    /// from arming before any suspicion accrues.
    pub fn new(period_ns: u64, phi_dead: f64, now_ns: u64) -> PhiDetector {
        assert!(period_ns > 0, "heartbeat period must be positive");
        assert!(
            phi_dead.is_finite() && phi_dead >= 1.0,
            "phi_dead must be a finite threshold >= 1"
        );
        PhiDetector {
            period_ns,
            phi_dead,
            last_arrival_ns: now_ns,
            last_seq: None,
        }
    }

    /// Record a heartbeat with sequence `seq` arriving at `now_ns`.
    /// Returns whether it advanced the detector (false for stale or
    /// duplicate sequence numbers).
    pub fn observe(&mut self, now_ns: u64, seq: u64) -> bool {
        if self.last_seq.is_some_and(|s| seq <= s) {
            return false;
        }
        self.last_seq = Some(seq);
        self.last_arrival_ns = self.last_arrival_ns.max(now_ns);
        true
    }

    /// Silence since the last accepted heartbeat, in periods.
    pub fn suspicion(&self, now_ns: u64) -> f64 {
        now_ns.saturating_sub(self.last_arrival_ns) as f64 / self.period_ns as f64
    }

    /// True once suspicion has reached the death threshold.
    pub fn is_dead(&self, now_ns: u64) -> bool {
        self.suspicion(now_ns) >= self.phi_dead
    }

    /// Highest sequence number accepted so far.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suspicion_accrues_linearly_and_crosses_at_phi() {
        let mut phi = PhiDetector::new(1_000, 4.0, 0);
        phi.observe(500, 1);
        assert_eq!(phi.suspicion(500), 0.0);
        assert_eq!(phi.suspicion(2_500), 2.0);
        assert!(!phi.is_dead(500 + 3_999));
        assert!(phi.is_dead(500 + 4_000), "threshold is inclusive");
    }

    #[test]
    fn stale_and_duplicate_sequences_do_not_rewind_liveness() {
        let mut phi = PhiDetector::new(1_000, 2.0, 0);
        assert!(phi.observe(1_000, 5));
        assert!(!phi.observe(9_000, 5), "duplicate seq ignored");
        assert!(!phi.observe(9_000, 3), "stale seq ignored");
        assert_eq!(phi.last_seq(), Some(5));
        assert!(phi.is_dead(1_000 + 2_000));
        assert!(phi.observe(4_000, 6), "fresh seq accepted");
        assert!(!phi.is_dead(4_500));
    }

    #[test]
    fn grace_window_before_first_heartbeat() {
        let phi = PhiDetector::new(1_000, 3.0, 10_000);
        assert!(!phi.is_dead(12_999), "armed detector grants a grace window");
        assert!(phi.is_dead(13_000), "grace expires like any other silence");
    }
}
