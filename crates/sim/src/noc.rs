//! Mesh network-on-chip timing model.
//!
//! Every directed link between adjacent routers is a bandwidth-limited
//! resource; a message serialises over each link of its XY route in turn
//! (virtual cut-through with whole-message serialisation, which is the
//! right granularity for the multi-kilobyte strip payloads the macro
//! pipeline moves around). Contention is resolved with time-bucketed
//! booking ([`crate::bucket`]): messages queue only when they genuinely
//! overlap in virtual time on a link, irrespective of the order the
//! simulator discovers them in.

use crate::bucket::BucketedResource;
use crate::fault::FaultPlan;
use crate::time::SimTime;
use crate::topology::{Link, Route, TileId};
use std::sync::Arc;

/// NoC timing parameters.
#[derive(Debug, Clone)]
pub struct NocConfig {
    /// Per-hop router traversal latency (4 cycles at mesh clock on the SCC).
    pub hop_latency: SimTime,
    /// Usable bandwidth of one mesh link, bytes/second. The SCC mesh moves
    /// 16 bytes per cycle at 800 MHz per link in theory; sustained payload
    /// bandwidth seen by RCCE-style transfers is far lower.
    pub link_bandwidth: u64,
    /// Fixed software+protocol overhead charged once per message
    /// (marshalling, flag handling in an RCCE-style library).
    pub message_overhead: SimTime,
    /// Contention-resolution granularity.
    pub bucket: SimTime,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            // 4 mesh cycles at 800 MHz = 5 ns per hop.
            hop_latency: SimTime::from_ns(5),
            // Sustained per-link payload bandwidth ~ 1.6 GB/s.
            link_bandwidth: 1_600_000_000,
            // ~8 us per message of library/software overhead.
            message_overhead: SimTime::from_us(8),
            bucket: SimTime::from_ms(1),
        }
    }
}

/// Per-link accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    pub messages: u64,
    pub bytes: u64,
    /// Accumulated time this link spent transmitting.
    pub busy_ps: u64,
    /// Accumulated time messages waited for this link.
    pub wait_ps: u64,
}

/// The mesh interconnect state.
#[derive(Debug)]
pub struct Noc {
    cfg: NocConfig,
    links: Vec<BucketedResource>,
    stats: Vec<LinkStats>,
    total_messages: u64,
    total_bytes: u64,
    /// Flit-conservation ledger: per-link message/byte counts registered
    /// at route-computation time, *before* any booking happens. The
    /// [`Noc::audit`] cross-checks the booked `stats` against these, so a
    /// refactor that books a link twice — or forgets one hop of a route —
    /// is caught rather than silently mis-accounted.
    expected_msgs: Vec<u64>,
    expected_bytes: Vec<u64>,
    /// Transfers whose route was registered in the expectation ledger.
    routed_messages: u64,
    fault: Option<Arc<FaultPlan>>,
}

impl Noc {
    pub fn new(cfg: NocConfig) -> Self {
        Noc {
            links: (0..Link::DENSE_COUNT)
                .map(|_| BucketedResource::new(cfg.bucket))
                .collect(),
            stats: vec![LinkStats::default(); Link::DENSE_COUNT],
            total_messages: 0,
            total_bytes: 0,
            expected_msgs: vec![0; Link::DENSE_COUNT],
            expected_bytes: vec![0; Link::DENSE_COUNT],
            routed_messages: 0,
            fault: None,
            cfg,
        }
    }

    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Inject a deterministic fault schedule: degraded links slow their
    /// serialisation, and individually delayed messages start late.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault = Some(plan);
    }

    /// Move `bytes` from router `from` to router `to` starting no earlier
    /// than `now`. Returns the arrival time at `to`, after any queueing.
    ///
    /// A zero-hop transfer (same tile) still pays the message overhead and
    /// one serialisation: even a tile-local RCCE transfer runs library
    /// code and crosses the router once.
    pub fn transfer(&mut self, now: SimTime, from: TileId, to: TileId, bytes: u64) -> SimTime {
        let msg_idx = self.total_messages;
        self.total_messages += 1;
        self.total_bytes += bytes;
        let serialise = SimTime::from_bytes_at(bytes.max(1), self.cfg.link_bandwidth);
        let mut t = now + self.cfg.message_overhead;
        if let Some(plan) = &self.fault {
            t += plan.flit_delay(msg_idx);
        }
        // Register what this route *should* book before booking anything.
        let route = Route::xy(from, to);
        self.routed_messages += 1;
        for link in &route {
            let idx = link.dense_index();
            self.expected_msgs[idx] += 1;
            self.expected_bytes[idx] += bytes;
        }
        for link in &route {
            let idx = link.dense_index();
            // A degraded link transmits at a fraction of nominal bandwidth,
            // so the same payload occupies it proportionally longer.
            let link_serialise = match &self.fault {
                Some(plan) if plan.link_factor(idx) < 1.0 => SimTime::from_bytes_at(
                    bytes.max(1),
                    ((self.cfg.link_bandwidth as f64 * plan.link_factor(idx)) as u64).max(1),
                ),
                _ => serialise,
            };
            let booking = self.links[idx].book(t, link_serialise);
            let s = &mut self.stats[idx];
            s.messages += 1;
            s.bytes += bytes;
            s.busy_ps += link_serialise.as_ps();
            s.wait_ps += booking.wait.as_ps();
            t = booking.completion + self.cfg.hop_latency;
        }
        if from == to {
            t += serialise;
        }
        t
    }

    /// Pure estimate of an uncontended transfer's latency.
    pub fn uncontended_latency(&self, from: TileId, to: TileId, bytes: u64) -> SimTime {
        let hops = from.hops_to(to) as u64;
        let serialise = SimTime::from_bytes_at(bytes.max(1), self.cfg.link_bandwidth);
        let per_hop = serialise + self.cfg.hop_latency;
        self.cfg.message_overhead + per_hop * hops.max(1)
    }

    pub fn stats(&self, link: Link) -> LinkStats {
        self.stats[link.dense_index()]
    }

    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Sum of queueing delay across all links — a congestion indicator.
    pub fn total_wait(&self) -> SimTime {
        SimTime::from_ps(self.stats.iter().map(|s| s.wait_ps).sum())
    }

    /// Flit conservation per link: every message booked on a link must
    /// correspond to exactly one hop of exactly one routed transfer, with
    /// the full payload accounted. Returns a description of the first
    /// discrepancy, if any.
    pub fn audit(&self) -> Result<(), String> {
        if self.routed_messages != self.total_messages {
            return Err(format!(
                "noc routed {} transfers but counted {}",
                self.routed_messages, self.total_messages
            ));
        }
        for idx in 0..Link::DENSE_COUNT {
            let s = &self.stats[idx];
            if s.messages != self.expected_msgs[idx] {
                return Err(format!(
                    "link {idx}: booked {} messages, route ledger expects {}",
                    s.messages, self.expected_msgs[idx]
                ));
            }
            if s.bytes != self.expected_bytes[idx] {
                return Err(format!(
                    "link {idx}: booked {} bytes, route ledger expects {}",
                    s.bytes, self.expected_bytes[idx]
                ));
            }
            if s.messages == 0 && (s.busy_ps != 0 || s.wait_ps != 0) {
                return Err(format!(
                    "link {idx}: time booked ({} ps busy, {} ps wait) with no messages",
                    s.busy_ps, s.wait_ps
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Direction;

    fn cfg() -> NocConfig {
        NocConfig {
            hop_latency: SimTime::from_ns(10),
            link_bandwidth: 1_000_000_000, // 1 GB/s -> 1 ns per byte
            message_overhead: SimTime::from_us(1),
            bucket: SimTime::from_ms(1),
        }
    }

    #[test]
    fn uncontended_transfer_cost_scales_with_hops() {
        let mut noc = Noc::new(cfg());
        let a = TileId::from_xy(0, 0);
        let b = TileId::from_xy(3, 0); // 3 hops
        let t = noc.transfer(SimTime::ZERO, a, b, 1000);
        // overhead + 3 * (serialise 1us + hop 10ns)
        let expect = SimTime::from_us(1) + (SimTime::from_us(1) + SimTime::from_ns(10)) * 3;
        assert_eq!(t, expect);
        assert_eq!(t, noc.uncontended_latency(a, b, 1000));
    }

    #[test]
    fn contention_delays_second_message() {
        let mut noc = Noc::new(cfg());
        let a = TileId::from_xy(0, 0);
        let b = TileId::from_xy(1, 0);
        let t1 = noc.transfer(SimTime::ZERO, a, b, 100_000); // 100 us serialise
        let t2 = noc.transfer(SimTime::ZERO, a, b, 100_000);
        assert!(t2 > t1, "second message must queue behind the first");
        let link = Link {
            from: a,
            dir: Direction::East,
        };
        assert_eq!(noc.stats(link).wait_ps, (t2 - t1).as_ps());
        assert_eq!(noc.total_wait(), t2 - t1);
        assert_eq!(noc.stats(link).messages, 2);
    }

    #[test]
    fn disjoint_routes_do_not_interact() {
        let mut noc = Noc::new(cfg());
        let t1 = noc.transfer(
            SimTime::ZERO,
            TileId::from_xy(0, 0),
            TileId::from_xy(1, 0),
            50_000,
        );
        let t2 = noc.transfer(
            SimTime::ZERO,
            TileId::from_xy(0, 3),
            TileId::from_xy(1, 3),
            50_000,
        );
        assert_eq!(t1, t2);
        assert_eq!(noc.total_wait(), SimTime::ZERO);
    }

    #[test]
    fn out_of_order_issue_does_not_create_phantom_queueing() {
        let mut noc = Noc::new(cfg());
        let a = TileId::from_xy(2, 1);
        let b = TileId::from_xy(3, 1);
        noc.transfer(SimTime::from_secs(3), a, b, 100_000);
        let early = noc.transfer(SimTime::from_ms(1), a, b, 1000);
        assert_eq!(
            early,
            SimTime::from_ms(1) + noc.uncontended_latency(a, b, 1000)
        );
    }

    #[test]
    fn local_transfer_pays_overhead_and_serialisation() {
        let mut noc = Noc::new(cfg());
        let t = TileId::from_xy(2, 2);
        let done = noc.transfer(SimTime::ZERO, t, t, 1000);
        assert_eq!(done, SimTime::from_us(1) + SimTime::from_us(1));
    }

    #[test]
    fn degraded_link_slows_transfer_and_delay_shifts_start() {
        use crate::fault::{FaultConfig, FaultPlan};
        use std::sync::Arc;

        let a = TileId::from_xy(0, 0);
        let b = TileId::from_xy(1, 0);

        let mut healthy = Noc::new(cfg());
        let base = healthy.transfer(SimTime::ZERO, a, b, 100_000);

        // Degrade every link to half bandwidth: serialisation doubles.
        let mut slow = Noc::new(cfg());
        slow.set_fault_plan(Arc::new(FaultPlan::new(FaultConfig {
            seed: 1,
            degraded_links: Link::DENSE_COUNT as u32,
            degrade_factor: 0.5,
            ..FaultConfig::default()
        })));
        let degraded = slow.transfer(SimTime::ZERO, a, b, 100_000);
        assert!(degraded > base, "degraded link must be slower");

        // Delay every message by up to max_delay: arrival shifts late and
        // the same seed shifts it identically on a replay.
        let delayed_cfg = FaultConfig {
            seed: 7,
            delay_rate: 1.0,
            max_delay: SimTime::from_us(50),
            ..FaultConfig::default()
        };
        let mut d1 = Noc::new(cfg());
        d1.set_fault_plan(Arc::new(FaultPlan::new(delayed_cfg.clone())));
        let mut d2 = Noc::new(cfg());
        d2.set_fault_plan(Arc::new(FaultPlan::new(delayed_cfg)));
        let t1 = d1.transfer(SimTime::ZERO, a, b, 100_000);
        assert_eq!(t1, d2.transfer(SimTime::ZERO, a, b, 100_000));
        assert!(t1 >= base);
    }

    #[test]
    fn totals_accumulate() {
        let mut noc = Noc::new(cfg());
        noc.transfer(
            SimTime::ZERO,
            TileId::from_xy(0, 0),
            TileId::from_xy(5, 3),
            123,
        );
        noc.transfer(
            SimTime::ZERO,
            TileId::from_xy(5, 3),
            TileId::from_xy(0, 0),
            77,
        );
        assert_eq!(noc.total_messages(), 2);
        assert_eq!(noc.total_bytes(), 200);
    }

    #[test]
    fn audit_passes_after_arbitrary_traffic() {
        let mut noc = Noc::new(cfg());
        assert_eq!(noc.audit(), Ok(()), "a fresh mesh is balanced");
        for i in 0..20u32 {
            noc.transfer(
                SimTime::from_us(i as u64),
                TileId::from_xy((i % 6) as u8, (i % 4) as u8),
                TileId::from_xy(((i + 3) % 6) as u8, ((i + 1) % 4) as u8),
                1000 + i as u64,
            );
        }
        // Zero-hop transfers book no links but still count as messages.
        let t = TileId::from_xy(2, 2);
        noc.transfer(SimTime::ZERO, t, t, 555);
        assert_eq!(noc.audit(), Ok(()));
    }

    #[test]
    fn audit_catches_a_cooked_ledger() {
        let mut noc = Noc::new(cfg());
        noc.transfer(
            SimTime::ZERO,
            TileId::from_xy(0, 0),
            TileId::from_xy(2, 0),
            4096,
        );
        // Simulate a booking bug: one link loses a message from its stats.
        let idx = Link {
            from: TileId::from_xy(0, 0),
            dir: Direction::East,
        }
        .dense_index();
        noc.stats[idx].messages -= 1;
        assert!(noc.audit().is_err(), "missing booking must be flagged");
    }
}
