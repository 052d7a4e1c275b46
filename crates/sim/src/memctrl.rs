//! Memory-controller timing model.
//!
//! The SCC has no core-local memory: every load miss, store writeback and
//! message transfer ends up at one of four DDR3 controllers. Each
//! controller is a bandwidth-limited resource with a fixed access latency;
//! concurrent requests from many pipeline stages share its capacity
//! through time-bucketed booking ([`crate::bucket`]), which is what makes
//! many concurrent pipeline stages saturate — the central effect the paper
//! reports.

use crate::bucket::BucketedResource;
use crate::time::SimTime;
use crate::topology::{McId, NUM_MCS};

/// DDR3 controller timing parameters.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// Fixed DRAM access latency per request (row activation etc.).
    pub access_latency: SimTime,
    /// Sustained bandwidth of one controller, bytes/second.
    /// DDR3-800 with a 64-bit channel peaks at 6.4 GB/s; sustained
    /// traffic from many blocking in-order P54Cs lands far lower.
    pub bandwidth: u64,
    /// Contention-resolution granularity.
    pub bucket: SimTime,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            access_latency: SimTime::from_ns(90),
            bandwidth: 100_000_000,
            bucket: SimTime::from_ms(1),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct McStats {
    pub requests: u64,
    pub bytes: u64,
    pub busy_ps: u64,
    pub wait_ps: u64,
}

/// One memory controller's service state.
#[derive(Debug)]
struct Controller {
    res: BucketedResource,
    stats: McStats,
}

/// The four controllers of the die.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    ctrls: Vec<Controller>,
}

impl MemorySystem {
    pub fn new(cfg: MemConfig) -> Self {
        MemorySystem {
            ctrls: (0..NUM_MCS)
                .map(|_| Controller {
                    res: BucketedResource::new(cfg.bucket),
                    stats: McStats::default(),
                })
                .collect(),
            cfg,
        }
    }

    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Service a request for `bytes` at controller `mc`, arriving at `now`
    /// (already including the mesh traversal). Returns completion time.
    pub fn access(&mut self, now: SimTime, mc: McId, bytes: u64) -> SimTime {
        let c = &mut self.ctrls[mc.index()];
        let service = SimTime::from_bytes_at(bytes.max(1), self.cfg.bandwidth);
        let booking = c.res.book(now, service);
        c.stats.requests += 1;
        c.stats.bytes += bytes;
        c.stats.busy_ps += service.as_ps();
        c.stats.wait_ps += booking.wait.as_ps();
        booking.completion + self.cfg.access_latency
    }

    /// Service time for `bytes` ignoring queueing — used for estimates.
    pub fn uncontended(&self, bytes: u64) -> SimTime {
        self.cfg.access_latency + SimTime::from_bytes_at(bytes.max(1), self.cfg.bandwidth)
    }

    pub fn stats(&self, mc: McId) -> McStats {
        self.ctrls[mc.index()].stats
    }

    pub fn total_bytes(&self) -> u64 {
        self.ctrls.iter().map(|c| c.stats.bytes).sum()
    }

    pub fn total_wait(&self) -> SimTime {
        SimTime::from_ps(self.ctrls.iter().map(|c| c.stats.wait_ps).sum())
    }

    /// Imbalance indicator: max/mean bytes over the four controllers
    /// (1.0 = perfectly balanced). Returns 0 when no traffic has flowed.
    pub fn load_imbalance(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        let max = self.ctrls.iter().map(|c| c.stats.bytes).max().unwrap_or(0);
        max as f64 / (total as f64 / NUM_MCS as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemConfig {
        MemConfig {
            access_latency: SimTime::from_ns(100),
            bandwidth: 1_000_000_000, // 1 byte per ns
            bucket: SimTime::from_ms(1),
        }
    }

    #[test]
    fn single_access_cost() {
        let mut mem = MemorySystem::new(cfg());
        let done = mem.access(SimTime::ZERO, McId::new(0), 1000);
        assert_eq!(done, SimTime::from_ns(100) + SimTime::from_us(1));
        assert_eq!(done, mem.uncontended(1000));
    }

    #[test]
    fn overlapping_requests_queue() {
        let mut mem = MemorySystem::new(cfg());
        let d1 = mem.access(SimTime::ZERO, McId::new(0), 10_000);
        let d2 = mem.access(SimTime::ZERO, McId::new(0), 10_000);
        assert!(d2 > d1);
        assert_eq!(mem.stats(McId::new(0)).wait_ps, (d2 - d1).as_ps());
        assert_eq!(mem.total_wait(), d2 - d1);
    }

    #[test]
    fn earlier_request_issued_later_does_not_queue() {
        // Frame-major simulation order must not create phantom queueing.
        let mut mem = MemorySystem::new(cfg());
        mem.access(SimTime::from_secs(2), McId::new(0), 500_000);
        let early = mem.access(SimTime::from_ms(1), McId::new(0), 1000);
        assert_eq!(early, SimTime::from_ms(1) + mem.uncontended(1000));
    }

    #[test]
    fn different_controllers_are_independent() {
        let mut mem = MemorySystem::new(cfg());
        let d1 = mem.access(SimTime::ZERO, McId::new(0), 10_000);
        let d2 = mem.access(SimTime::ZERO, McId::new(1), 10_000);
        assert_eq!(d1, d2);
        assert_eq!(mem.total_wait(), SimTime::ZERO);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut mem = MemorySystem::new(cfg());
        let d1 = mem.access(SimTime::ZERO, McId::new(0), 100);
        let later = d1 + SimTime::from_ms(5);
        let d2 = mem.access(later, McId::new(0), 100);
        assert_eq!(d2, later + mem.uncontended(100));
    }

    #[test]
    fn imbalance_metric() {
        let mut mem = MemorySystem::new(cfg());
        assert_eq!(mem.load_imbalance(), 0.0);
        for _ in 0..4 {
            mem.access(SimTime::ZERO, McId::new(2), 1000);
        }
        // All traffic on one of four controllers -> imbalance 4.0.
        assert!((mem.load_imbalance() - 4.0).abs() < 1e-9);
        for mc in [0u8, 1, 3] {
            for _ in 0..4 {
                mem.access(SimTime::ZERO, McId::new(mc), 1000);
            }
        }
        assert!((mem.load_imbalance() - 1.0).abs() < 1e-9);
    }
}
