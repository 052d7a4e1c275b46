//! The assembled SCC platform: cores + caches + mesh + memory controllers +
//! DVFS + power metering behind one façade.
//!
//! The pipeline runner drives this object with three kinds of requests —
//! *compute* (cycles on a core), *memory traffic* (streaming reads/writes
//! through the core's quadrant controller) and *messages* (which, true to
//! the real SCC, land in the **receiver's DRAM partition** and must be
//! fetched back out of memory by the receiver; there is no core-local
//! store). All requests return completion times in virtual time and mutate
//! the shared contention state deterministically.

use crate::cache::{CacheGeometry, StreamModel};
use crate::dvfs::{DvfsState, FreqMHz};
use crate::fault::FaultPlan;
use crate::hostlink::{HostLink, HostLinkConfig, HostLinkStats};
use crate::memctrl::{MemConfig, MemorySystem};
use crate::noc::{Noc, NocConfig};
use crate::power::{PowerConfig, PowerMeter, PowerSample};
use crate::time::SimTime;
use crate::topology::{CoreId, McId, TileId};
use serde::Serialize;
use std::sync::Arc;

/// Wire size of one heartbeat datagram (magic + rank + sequence number —
/// the format `scc-rcce`'s health module encodes).
pub const HEARTBEAT_BYTES: u64 = 16;

/// Full platform configuration.
#[derive(Debug, Clone, Serialize)]
pub struct SccConfig {
    pub noc: NocConfig,
    pub mem: MemConfig,
    pub power: PowerConfig,
    pub host_link: HostLinkConfig,
    pub l2: L2Config,
    /// Sustained memory bandwidth one P54C core can extract with its
    /// blocking in-order loads/stores, bytes/second. This — not the
    /// controllers — bounds a single stage's streaming rate, matching the
    /// few-tens-of-MB/s per-core figures measured on the real SCC.
    pub core_mem_bandwidth: u64,
    /// What-if ablation from the paper's conclusion: per-core local
    /// memory banks of this many bytes ("small local and manageable
    /// memory banks per node would be a nice way to reduce the traffic").
    /// Messages that fit go Cell-SPE-style straight over the mesh into
    /// the receiver's local store — no DRAM partition round-trip. 0 (the
    /// default) models the real SCC, which has none.
    pub local_memory_bytes: u64,
    /// The one piece of on-die storage the real SCC *does* have: each
    /// core's 8 KiB message-passing-buffer window. RCCE keeps messages
    /// that fit a single MPB window on-die; only larger payloads (every
    /// frame strip in this workload) take the DRAM-partition round-trip.
    pub mpb_window_bytes: u64,
}

impl Default for SccConfig {
    fn default() -> Self {
        SccConfig {
            noc: NocConfig::default(),
            mem: MemConfig::default(),
            power: PowerConfig::default(),
            host_link: HostLinkConfig::default(),
            l2: L2Config::default(),
            core_mem_bandwidth: 45_000_000,
            local_memory_bytes: 0,
            mpb_window_bytes: 8 * 1024,
        }
    }
}

#[derive(Debug, Clone, Serialize)]
pub struct L2Config {
    pub geometry: CacheGeometry,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            geometry: CacheGeometry::scc_l2(),
        }
    }
}

/// Direction of a streaming memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    Read,
    Write,
}

/// Aggregated platform counters for reports.
#[derive(Debug, Clone, Serialize)]
pub struct PlatformStats {
    pub noc_messages: u64,
    pub noc_bytes: u64,
    pub noc_wait_secs: f64,
    pub mem_bytes: u64,
    /// DRAM bytes served by each of the four quadrant controllers.
    pub mem_bytes_per_mc: [u64; 4],
    pub mem_wait_secs: f64,
    pub mem_imbalance: f64,
    pub host_link: HostLinkStats,
}

/// The simulated chip.
pub struct SccPlatform {
    cfg: SccConfig,
    noc: Noc,
    mem: MemorySystem,
    dvfs: DvfsState,
    meter: PowerMeter,
    stream: StreamModel,
    host_link: HostLink,
    fault: Option<Arc<FaultPlan>>,
}

impl SccPlatform {
    pub fn new(cfg: SccConfig) -> Self {
        SccPlatform {
            noc: Noc::new(cfg.noc.clone()),
            mem: MemorySystem::new(cfg.mem.clone()),
            dvfs: DvfsState::default(),
            meter: PowerMeter::new(),
            stream: StreamModel::new(cfg.l2.geometry),
            host_link: HostLink::new(cfg.host_link.clone()),
            fault: None,
            cfg,
        }
    }

    pub fn config(&self) -> &SccConfig {
        &self.cfg
    }

    /// Inject a deterministic fault schedule. Forwards the plan to the
    /// NoC (link degradation, flit delay); core stalls are applied here —
    /// a stalled core issues no compute, memory or message operation
    /// until its stall window closes.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.noc.set_fault_plan(Arc::clone(&plan));
        self.fault = Some(plan);
    }

    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// Earliest time at or after `now` at which `core` can issue work.
    fn stall_adjust(&self, core: CoreId, now: SimTime) -> SimTime {
        match &self.fault {
            Some(plan) => plan.stall_adjusted(core.raw(), now),
            None => now,
        }
    }

    pub fn dvfs(&self) -> &DvfsState {
        &self.dvfs
    }

    /// Set the frequency of the tile hosting `core` (affects its sibling
    /// and, through the voltage island, six more cores' supply voltage).
    pub fn set_core_frequency(&mut self, core: CoreId, freq: FreqMHz) {
        self.dvfs.set_core_tile(core, freq);
    }

    pub fn core_freq_hz(&self, core: CoreId) -> u64 {
        self.dvfs.core_freq(core).hz()
    }

    /// Execute `cycles` of computation on `core` starting at `now`.
    /// Records the busy span for power accounting and returns completion.
    pub fn compute(&mut self, core: CoreId, now: SimTime, cycles: u64) -> SimTime {
        let start = self.stall_adjust(core, now);
        let dur = SimTime::from_cycles(cycles, self.core_freq_hz(core));
        let done = start + dur;
        self.meter.record(core, start, done);
        done
    }

    /// Stream `working_set` bytes through `core`'s cache, fetching whatever
    /// misses from the core's quadrant memory controller over the mesh.
    ///
    /// Returns the completion time. If the working set fits in L2 the data
    /// stays resident across frames and no traffic is generated.
    pub fn mem_stream(
        &mut self,
        core: CoreId,
        now: SimTime,
        op: MemOp,
        working_set: u64,
    ) -> SimTime {
        let bytes = self.stream.bytes_from_memory(working_set);
        if bytes == 0 {
            return now;
        }
        self.mem_raw(core, now, op, bytes)
    }

    /// The issuing core's own streaming limit for `bytes`.
    fn core_paced(&self, start: SimTime, done: SimTime, bytes: u64) -> SimTime {
        done.max(start + SimTime::from_bytes_at(bytes.max(1), self.cfg.core_mem_bandwidth))
    }

    /// Move `bytes` between `core` and its quadrant memory controller,
    /// bypassing the cache model (used for explicit DMA-like transfers).
    pub fn mem_raw(&mut self, core: CoreId, now: SimTime, op: MemOp, bytes: u64) -> SimTime {
        let now = self.stall_adjust(core, now);
        let tile = core.tile();
        let mc = tile.memory_controller();
        let done = match op {
            MemOp::Write => {
                // Data crosses the mesh to the controller, then is written.
                let at_mc = self.noc.transfer(now, tile, mc.attach_tile(), bytes);
                self.mem.access(at_mc, mc, bytes)
            }
            MemOp::Read => {
                // Request reaches the controller (latency is inside the
                // MC model), data crosses back over the mesh.
                let served = self.mem.access(now, mc, bytes);
                self.noc.transfer(served, mc.attach_tile(), tile, bytes)
            }
        };
        // A blocking in-order core cannot stream faster than its own
        // load/store rate, regardless of controller headroom.
        self.core_paced(now, done, bytes)
    }

    /// Memory controller that owns `core`'s private DRAM partition.
    pub fn partition_of(&self, core: CoreId) -> McId {
        core.tile().memory_controller()
    }

    /// Sender half of a core-to-core message: the payload crosses the mesh
    /// from the sender's tile into the *receiver's* DRAM partition.
    /// Returns the time the data is fully resident in the receiver's
    /// partition.
    pub fn send_to_partition(
        &mut self,
        from: CoreId,
        to: CoreId,
        now: SimTime,
        bytes: u64,
    ) -> SimTime {
        let now = self.stall_adjust(from, now);
        if bytes <= self.cfg.local_memory_bytes {
            // What-if: the payload travels straight into the receiver's
            // local bank, like a Cell SPE-to-SPE DMA — no DRAM round-trip
            // and no blocking-load pacing (the DMA engine streams at
            // link rate).
            return self.noc.transfer(now, from.tile(), to.tile(), bytes);
        }
        if bytes <= self.cfg.mpb_window_bytes {
            // Small messages fit one MPB window and stay on-die (flags,
            // barrier tokens). The receiver still copies them out, at
            // core speed.
            let done = self.noc.transfer(now, from.tile(), to.tile(), bytes);
            return self.core_paced(now, done, bytes);
        }
        let dst_mc = self.partition_of(to);
        let at_mc = self
            .noc
            .transfer(now, from.tile(), dst_mc.attach_tile(), bytes);
        let done = self.mem.access(at_mc, dst_mc, bytes);
        self.core_paced(now, done, bytes)
    }

    /// Receiver half: fetch a message of `bytes` from the core's own
    /// partition back through the mesh into its cache. This is the step a
    /// core with local memory (e.g. a Cell SPE) would not need — the paper's
    /// central architectural critique.
    pub fn fetch_from_partition(&mut self, core: CoreId, now: SimTime, bytes: u64) -> SimTime {
        let now = self.stall_adjust(core, now);
        if bytes <= self.cfg.local_memory_bytes.max(self.cfg.mpb_window_bytes) {
            // Already resident on-die (local bank or MPB window).
            return now;
        }
        let mc = self.partition_of(core);
        let served = self.mem.access(now, mc, bytes);
        let done = self
            .noc
            .transfer(served, mc.attach_tile(), core.tile(), bytes);
        self.core_paced(now, done, bytes)
    }

    /// Full message cost (send + fetch) with no overlap — the latency a
    /// blocking RCCE-style `send`/`recv` pair observes when the receiver is
    /// already waiting.
    pub fn message(&mut self, from: CoreId, to: CoreId, now: SimTime, bytes: u64) -> SimTime {
        let resident = self.send_to_partition(from, to, now, bytes);
        self.fetch_from_partition(to, resident, bytes)
    }

    /// Transfer `bytes` from the MCPC host into the chip (arrives at the
    /// connector core's partition) starting at `now`.
    pub fn host_to_chip(&mut self, connector: CoreId, now: SimTime, bytes: u64) -> SimTime {
        let delivered = self.host_link.transfer(now, bytes);
        // The PCIe/eMAC bridge drops the payload into the connector's
        // DRAM partition through its quadrant controller.
        let mc = self.partition_of(connector);
        self.mem.access(delivered, mc, bytes)
    }

    /// One heartbeat datagram from `from` to the MCPC supervisor: across
    /// the mesh to the system interface tile, then the host link. Tiny,
    /// but charged as real traffic so supervision shows up in the NoC and
    /// host-link ledgers like any other message.
    pub fn heartbeat(&mut self, from: CoreId, now: SimTime) -> SimTime {
        let now = self.stall_adjust(from, now);
        let sif = TileId::from_xy(3, 0);
        let on_sif = self.noc.transfer(now, from.tile(), sif, HEARTBEAT_BYTES);
        self.host_link.transfer(on_sif, HEARTBEAT_BYTES)
    }

    /// Uncontended one-way latency of a `bytes` payload from `from` to the
    /// MCPC: mesh hops to the system interface tile plus the host link. A
    /// pure estimate (no ledger mutation) — the failure detector's view of
    /// how stale the freshest possible heartbeat is, which makes detection
    /// latency mesh- and arrangement-dependent.
    pub fn host_path_latency(&self, from: CoreId, bytes: u64) -> SimTime {
        let sif = TileId::from_xy(3, 0);
        self.noc.uncontended_latency(from.tile(), sif, bytes) + self.host_link.uncontended(bytes)
    }

    /// Transfer `bytes` from the chip to the host (visualization client).
    pub fn chip_to_host(&mut self, from: CoreId, now: SimTime, bytes: u64) -> SimTime {
        let now = self.stall_adjust(from, now);
        // Data leaves the sender's partition, crosses the mesh to the
        // system interface (modelled at the bottom-right corner), then the
        // host link.
        let sif = TileId::from_xy(3, 0); // SCC system interface tile
        let on_sif = self.noc.transfer(now, from.tile(), sif, bytes);
        let done = self.host_link.transfer(on_sif, bytes);
        self.core_paced(now, done, bytes)
    }

    /// Record an externally computed busy span (e.g. stage framework
    /// overhead) for power accounting.
    pub fn record_busy(&mut self, core: CoreId, from: SimTime, to: SimTime) {
        self.meter.record(core, from, to);
    }

    /// Declare the cores that participate in the run: they spin-wait on
    /// RCCE flags whenever they are not busy, which costs
    /// `PowerConfig::spin_factor` of their dynamic power.
    pub fn set_spinning(&mut self, cores: Vec<CoreId>) {
        self.meter.set_spinning(cores);
    }

    pub fn meter(&self) -> &PowerMeter {
        &self.meter
    }

    /// Render the power trace for the recorded activity.
    pub fn power_trace(&self, end: SimTime, dt: SimTime) -> Vec<PowerSample> {
        self.meter.trace(&self.cfg.power, &self.dvfs, end, dt)
    }

    /// Total chip energy over `[0, end]` in joules.
    pub fn energy_joules(&self, end: SimTime) -> f64 {
        self.meter.energy_joules(&self.cfg.power, &self.dvfs, end)
    }

    /// Chip idle power at the current DVFS state, watts.
    pub fn idle_power(&self) -> f64 {
        self.cfg.power.idle_power(&self.dvfs)
    }

    /// Chip idle power at an arbitrary DVFS state, watts. Governed runs
    /// report the minimum across their schedule as the power floor.
    pub fn idle_power_for(&self, dvfs: &DvfsState) -> f64 {
        self.cfg.power.idle_power(dvfs)
    }

    /// [`SccPlatform::power_trace`] under a piecewise-constant DVFS
    /// schedule (governed runs).
    pub fn power_trace_piecewise(
        &self,
        schedule: &[(SimTime, DvfsState)],
        end: SimTime,
        dt: SimTime,
    ) -> Vec<PowerSample> {
        self.meter
            .trace_piecewise(&self.cfg.power, schedule, end, dt)
    }

    /// [`SccPlatform::energy_joules`] under a piecewise-constant DVFS
    /// schedule (governed runs).
    pub fn energy_joules_piecewise(&self, schedule: &[(SimTime, DvfsState)], end: SimTime) -> f64 {
        self.meter
            .energy_joules_piecewise(&self.cfg.power, schedule, end)
    }

    /// The power-model calibration constants.
    pub fn power_calibration(&self) -> &PowerConfig {
        &self.cfg.power
    }

    /// Replace the whole DVFS state (the governor applies an epoch's
    /// decision in one step).
    pub fn apply_dvfs(&mut self, state: &DvfsState) {
        self.dvfs = state.clone();
    }

    /// Flit conservation across the mesh: cross-check the per-link
    /// booking statistics against the independently registered route
    /// ledger (see [`crate::noc::Noc::audit`]).
    pub fn audit_noc(&self) -> Result<(), String> {
        self.noc.audit()
    }

    pub fn stats(&self) -> PlatformStats {
        PlatformStats {
            noc_messages: self.noc.total_messages(),
            noc_bytes: self.noc.total_bytes(),
            noc_wait_secs: self.noc.total_wait().as_secs_f64(),
            mem_bytes: self.mem.total_bytes(),
            mem_bytes_per_mc: {
                let mut per = [0u64; 4];
                for mc in McId::all() {
                    per[mc.index()] = self.mem.stats(mc).bytes;
                }
                per
            },
            mem_wait_secs: self.mem.total_wait().as_secs_f64(),
            mem_imbalance: self.mem.load_imbalance(),
            host_link: self.host_link.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> SccPlatform {
        SccPlatform::new(SccConfig::default())
    }

    #[test]
    fn compute_time_scales_with_frequency() {
        let mut p = platform();
        let c = CoreId::new(0);
        let t533 = p.compute(c, SimTime::ZERO, 533_000_000);
        assert_eq!(t533, SimTime::from_secs(1));
        p.set_core_frequency(c, FreqMHz::F800);
        let start = t533;
        let t800 = p.compute(c, start, 800_000_000) - start;
        assert_eq!(t800, SimTime::from_secs(1));
        p.set_core_frequency(c, FreqMHz::F400);
        let t400 = p.compute(c, SimTime::from_secs(10), 400_000_000) - SimTime::from_secs(10);
        assert_eq!(t400, SimTime::from_secs(1));
    }

    #[test]
    fn compute_records_busy_span() {
        let mut p = platform();
        let c = CoreId::new(7);
        p.compute(c, SimTime::from_ms(5), 533_000);
        assert_eq!(p.meter().busy_time(c), SimTime::from_ms(1));
    }

    #[test]
    fn small_working_set_generates_no_traffic() {
        let mut p = platform();
        let done = p.mem_stream(CoreId::new(0), SimTime::ZERO, MemOp::Read, 100 * 1024);
        assert_eq!(done, SimTime::ZERO, "fits in 256 KiB L2");
        assert_eq!(p.stats().mem_bytes, 0);
    }

    #[test]
    fn large_working_set_crosses_mesh_and_mc() {
        let mut p = platform();
        let ws = 1024 * 1024;
        let done = p.mem_stream(CoreId::new(0), SimTime::ZERO, MemOp::Read, ws);
        assert!(done > SimTime::ZERO);
        assert_eq!(p.stats().mem_bytes, ws);
        assert!(p.stats().noc_bytes >= ws);
    }

    #[test]
    fn message_goes_through_receiver_partition() {
        let mut p = platform();
        let from = CoreId::new(0); // tile (0,0), mc0
        let to = CoreId::new(46); // tile 23 = (5,3), mc3
        let arrive = p.message(from, to, SimTime::ZERO, 64 * 1024);
        assert!(arrive > SimTime::ZERO);
        // Traffic hits the receiver's controller, not the sender's.
        assert_eq!(p.mem.stats(McId::new(3)).requests, 2, "write + fetch");
        assert_eq!(p.mem.stats(McId::new(0)).requests, 0);
    }

    #[test]
    fn message_cost_exceeds_raw_mesh_cost() {
        // The partition round-trip makes SCC messaging strictly more
        // expensive than a hypothetical direct core-to-core copy.
        let mut direct = platform();
        let mut scc = platform();
        let from = CoreId::new(0);
        let to = CoreId::new(2);
        let bytes = 64 * 1024;
        let t_direct = direct
            .noc
            .transfer(SimTime::ZERO, from.tile(), to.tile(), bytes);
        let t_scc = scc.message(from, to, SimTime::ZERO, bytes);
        assert!(t_scc > t_direct);
    }

    #[test]
    fn contention_from_concurrent_streams() {
        let mut p = platform();
        // Six cores of one quadrant all stream a megabyte at t=0: the
        // shared controller must serialise them.
        let ws = 1024 * 1024;
        let mut dones = Vec::new();
        for c in [0u8, 2, 4, 12, 14, 16] {
            dones.push(p.mem_stream(CoreId::new(c), SimTime::ZERO, MemOp::Read, ws));
        }
        let first = dones.iter().min().unwrap();
        let last = dones.iter().max().unwrap();
        assert!(
            last.as_secs_f64() > first.as_secs_f64() * 2.0,
            "serialisation should spread completions"
        );
        assert!(p.stats().mem_wait_secs > 0.0);
    }

    #[test]
    fn stalled_core_issues_nothing_during_its_window() {
        use crate::fault::{CoreStall, FaultConfig, FaultPlan};
        use std::sync::Arc;

        let mut p = platform();
        p.set_fault_plan(Arc::new(FaultPlan::new(FaultConfig {
            seed: 1,
            stalls: vec![CoreStall {
                core: 3,
                at: SimTime::from_ms(1),
                duration: SimTime::from_ms(4),
            }],
            ..FaultConfig::default()
        })));
        let stalled = CoreId::new(3);
        // Work issued inside the window starts only when it closes.
        let done = p.compute(stalled, SimTime::from_ms(2), 533_000);
        assert_eq!(done, SimTime::from_ms(5) + SimTime::from_ms(1));
        // The sibling core is unaffected.
        let other = p.compute(CoreId::new(4), SimTime::from_ms(2), 533_000);
        assert_eq!(other, SimTime::from_ms(3));
        // Messages from the stalled core wait out the window too.
        let sent = p.send_to_partition(stalled, CoreId::new(9), SimTime::from_ms(2), 64);
        assert!(sent >= SimTime::from_ms(5));
    }

    #[test]
    fn host_roundtrip() {
        let mut p = platform();
        let conn = CoreId::new(0);
        let t_in = p.host_to_chip(conn, SimTime::ZERO, 100_000);
        assert!(t_in > SimTime::ZERO);
        let t_out = p.chip_to_host(CoreId::new(47), t_in, 100_000);
        assert!(t_out > t_in);
        assert_eq!(p.stats().host_link.transfers, 2);
    }

    #[test]
    fn energy_accumulates_idle_floor() {
        let p = platform();
        let e = p.energy_joules(SimTime::from_secs(10));
        // Idle chip for 10 s ≈ 220 J.
        assert!((e - p.idle_power() * 10.0).abs() < 1e-6);
    }
}

#[cfg(test)]
mod local_memory_tests {
    use super::*;

    #[test]
    fn local_banks_remove_the_partition_roundtrip() {
        let mut scc = SccPlatform::new(SccConfig::default());
        let mut what_if = SccPlatform::new(SccConfig {
            local_memory_bytes: 256 * 1024,
            ..SccConfig::default()
        });
        let from = CoreId::new(0);
        let to = CoreId::new(10);
        let bytes = 128 * 1024;
        let t_scc = scc.message(from, to, SimTime::ZERO, bytes);
        let t_local = what_if.message(from, to, SimTime::ZERO, bytes);
        assert!(
            t_local.as_secs_f64() < t_scc.as_secs_f64() * 0.7,
            "local banks should cut messaging cost sharply: {t_local} vs {t_scc}"
        );
        // And no DRAM traffic flows for the message.
        assert_eq!(what_if.stats().mem_bytes, 0);
        assert!(scc.stats().mem_bytes > 0);
    }

    #[test]
    fn oversized_messages_still_go_through_dram() {
        let mut what_if = SccPlatform::new(SccConfig {
            local_memory_bytes: 16 * 1024,
            ..SccConfig::default()
        });
        what_if.message(CoreId::new(0), CoreId::new(2), SimTime::ZERO, 64 * 1024);
        assert!(
            what_if.stats().mem_bytes > 0,
            "a message beyond the bank size must spill to DRAM"
        );
    }
}

#[cfg(test)]
mod mpb_path_tests {
    use super::*;

    #[test]
    fn small_messages_stay_on_die() {
        let mut p = SccPlatform::new(SccConfig::default());
        // A barrier-token-sized message generates no DRAM traffic.
        p.message(CoreId::new(0), CoreId::new(7), SimTime::ZERO, 64);
        assert_eq!(p.stats().mem_bytes, 0, "MPB messages must skip DRAM");
        assert!(p.stats().noc_bytes > 0);
    }

    #[test]
    fn strip_sized_messages_take_the_partition_path() {
        let mut p = SccPlatform::new(SccConfig::default());
        // A frame strip far exceeds the 8 KiB window.
        p.message(CoreId::new(0), CoreId::new(7), SimTime::ZERO, 100_000);
        assert!(p.stats().mem_bytes > 0, "large payloads must hit DRAM");
    }

    #[test]
    fn mpb_cutoff_is_exactly_the_window() {
        let mut a = SccPlatform::new(SccConfig::default());
        let mut b = SccPlatform::new(SccConfig::default());
        let w = a.config().mpb_window_bytes;
        a.message(CoreId::new(0), CoreId::new(2), SimTime::ZERO, w);
        b.message(CoreId::new(0), CoreId::new(2), SimTime::ZERO, w + 1);
        assert_eq!(a.stats().mem_bytes, 0);
        assert!(b.stats().mem_bytes > 0);
    }
}
