//! Off-chip link between the MCPC host and the SCC (PCIe carrying the
//! UDP stream the paper uses in its third scenario).
//!
//! Frames do not fit the driver's send/receive buffers, so the paper splits
//! each image into sub-images sent back-to-back (§VI-A, Figure 12's curve is
//! attributed to exactly this chunking overhead). The model reflects that:
//! a transfer of `n` bytes is `ceil(n / packet_bytes)` packets, each paying
//! a fixed protocol overhead, serialised over a bandwidth-limited FIFO.

use crate::bucket::BucketedResource;
use crate::time::SimTime;

#[derive(Debug, Clone)]
pub struct HostLinkConfig {
    /// Sustained payload bandwidth, bytes/second.
    pub bandwidth: u64,
    /// Maximum payload carried per packet (driver buffer size).
    pub packet_bytes: u64,
    /// Fixed cost per packet (syscall, UDP/IP header handling, PCIe
    /// doorbell).
    pub packet_overhead: SimTime,
    /// Contention-resolution granularity.
    pub bucket: SimTime,
}

impl Default for HostLinkConfig {
    fn default() -> Self {
        HostLinkConfig {
            // eMAC/PCIe path to the SCC sustains on the order of 60 MB/s
            // for UDP payload traffic.
            bandwidth: 60_000_000,
            packet_bytes: 8 * 1024,
            packet_overhead: SimTime::from_us(30),
            bucket: SimTime::from_ms(1),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct HostLinkStats {
    pub transfers: u64,
    pub packets: u64,
    pub bytes: u64,
    pub wait_ps: u64,
}

/// Serialised host link (time-bucketed capacity).
#[derive(Debug)]
pub struct HostLink {
    cfg: HostLinkConfig,
    res: BucketedResource,
    stats: HostLinkStats,
}

impl HostLink {
    pub fn new(cfg: HostLinkConfig) -> Self {
        HostLink {
            res: BucketedResource::new(cfg.bucket),
            cfg,
            stats: HostLinkStats::default(),
        }
    }

    pub fn config(&self) -> &HostLinkConfig {
        &self.cfg
    }

    /// Duration of an uncontended transfer of `bytes`.
    pub fn uncontended(&self, bytes: u64) -> SimTime {
        let packets = bytes.div_ceil(self.cfg.packet_bytes).max(1);
        self.cfg.packet_overhead * packets
            + SimTime::from_bytes_at(bytes.max(1), self.cfg.bandwidth)
    }

    /// Push `bytes` through the link starting no earlier than `now`;
    /// returns the arrival time of the last packet.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let dur = self.uncontended(bytes);
        let booking = self.res.book(now, dur);
        self.stats.transfers += 1;
        self.stats.packets += bytes.div_ceil(self.cfg.packet_bytes).max(1);
        self.stats.bytes += bytes;
        self.stats.wait_ps += booking.wait.as_ps();
        booking.completion
    }

    pub fn stats(&self) -> HostLinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HostLinkConfig {
        HostLinkConfig {
            bandwidth: 1_000_000, // 1 MB/s
            packet_bytes: 1000,
            packet_overhead: SimTime::from_us(10),
            bucket: SimTime::from_ms(1),
        }
    }

    #[test]
    fn packetisation_overhead() {
        let link = HostLink::new(cfg());
        // 2500 bytes -> 3 packets -> 30 us overhead + 2.5 ms payload.
        let t = link.uncontended(2500);
        assert_eq!(t, SimTime::from_us(30) + SimTime::from_us(2500));
        // Tiny message still pays one packet.
        assert_eq!(
            link.uncontended(1),
            SimTime::from_us(10) + SimTime::from_us(1)
        );
    }

    #[test]
    fn fifo_serialisation() {
        let mut link = HostLink::new(cfg());
        let t1 = link.transfer(SimTime::ZERO, 1000);
        let t2 = link.transfer(SimTime::ZERO, 1000);
        assert_eq!(t2, t1 * 2);
        assert!(link.stats().wait_ps > 0);
        assert_eq!(link.stats().transfers, 2);
        assert_eq!(link.stats().packets, 2);
    }

    #[test]
    fn per_byte_cost_decreases_with_size() {
        // Larger transfers amortise packet overhead: cost per byte shrinks,
        // giving Figure 12 its slightly curved shape.
        let link = HostLink::new(cfg());
        let small = link.uncontended(500).as_secs_f64() / 500.0;
        let large = link.uncontended(50_000).as_secs_f64() / 50_000.0;
        assert!(large < small);
    }
}
