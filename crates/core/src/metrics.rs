//! Walkthrough measurement reports.

use crate::spec::{RunConfig, StageKind};
use scc_filters::Image;
use scc_sim::platform::PlatformStats;
use scc_sim::power::{McpcPower, PowerSample};
use scc_sim::stats::Quartiles;

/// Per-stage outcome of a simulated walkthrough.
#[derive(Debug, Clone)]
pub struct StageReport {
    pub kind: StageKind,
    /// Pipeline index for per-pipeline stages.
    pub pipeline: Option<u32>,
    pub core_id: u8,
    /// Total virtual time the stage's core spent working.
    pub busy_secs: f64,
    /// Quartiles of the per-frame wait for input, in milliseconds
    /// (Figure 15's quantity).
    pub idle_ms: Option<Quartiles>,
    pub idle_total_secs: f64,
    pub frames: u64,
}

/// Wall-clock throughput of a host-native run. Virtual-time reports
/// measure the *simulated* SCC; this measures the host that ran it.
#[derive(Debug, Clone, Copy)]
pub struct HostTiming {
    /// Wall-clock seconds for the whole walkthrough.
    pub wall_secs: f64,
    /// Frames delivered to the visualisation client.
    pub frames: u64,
    /// Delivered frames per wall-clock second.
    pub frames_per_sec: f64,
    /// Megapixels filtered per wall-clock second (frames × w × h / wall).
    pub mpixels_per_sec: f64,
}

impl HostTiming {
    /// Derive the rates from a measured wall time.
    ///
    /// Degenerate inputs never produce NaN or infinity: a wall time that
    /// is zero, negative, or not finite (a stopped clock, a subtraction
    /// gone backwards) yields zero rates and a wall time clamped to 0.0,
    /// so downstream speedup ratios and JSON documents stay well-formed.
    pub fn from_wall(wall_secs: f64, frames: u64, width: u32, height: u32) -> HostTiming {
        let wall_ok = wall_secs.is_finite() && wall_secs > 0.0;
        let fps = if wall_ok {
            frames as f64 / wall_secs
        } else {
            0.0
        };
        HostTiming {
            wall_secs: if wall_ok { wall_secs } else { 0.0 },
            frames,
            frames_per_sec: fps,
            mpixels_per_sec: fps * width as f64 * height as f64 / 1e6,
        }
    }
}

/// One graceful-degradation decision: a pipeline exceeded its retry
/// budget and its strip was re-assigned to a surviving neighbour.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationEvent {
    /// Frame being processed when the failure was detected.
    pub frame: u64,
    /// The pipeline declared failed.
    pub pipeline: u32,
    /// The surviving pipeline that adopted its strip.
    pub reassigned_to: u32,
    /// Virtual time of the decision, seconds.
    pub at_secs: f64,
    /// Pipeline position of the stage that failed: 0..=4 name the five
    /// filter stages (sepia..swap), 5 is the handoff to transfer. Stages
    /// *before* this index completed the aborted strip; the invariant
    /// checker uses that to balance the per-stage frame ledger.
    pub failed_stage: u32,
    /// Human-readable cause (e.g. which stage stalled).
    pub reason: String,
}

/// One completed self-healing episode: a core was declared dead, its
/// stage migrated to a spare, and the in-flight work replayed from the
/// checkpoint. The timeline (kill → detect → resume) is the MTTR the
/// recovery benchmark sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Frame being processed when the failure surfaced.
    pub frame: u64,
    /// Pipeline owning the failed stage.
    pub pipeline: u32,
    /// The migrated stage.
    pub stage: StageKind,
    /// Core that fail-stopped.
    pub failed_core: u8,
    /// Spare core the stage now runs on.
    pub migration_target: u8,
    /// Virtual time of the fail-stop, seconds.
    pub killed_at_secs: f64,
    /// Virtual time the phi detector declared the core dead, seconds
    /// (mesh- and arrangement-dependent: heartbeats travel the real
    /// host path).
    pub detected_at_secs: f64,
    /// Virtual time the migrated stage resumed useful work, seconds.
    pub resumed_at_secs: f64,
    /// Checkpointed frames replayed through the migrated stage.
    pub frames_replayed: u32,
    /// Mean time to repair: `resumed_at_secs - killed_at_secs`.
    pub mttr_secs: f64,
}

/// Exactly-once accounting for a [`crate::spec::Runtime::Tasks`] run:
/// the task runtime's whole ledger, checked by the invariant checker's
/// `task-conservation` audit (`completed + degraded == spawned`, with
/// re-queued tasks re-entering the same chain rather than forking it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Tasks created from the stage plan (strips × stage groups).
    pub spawned: u64,
    /// Tasks whose *first* completion was recorded (each task counts
    /// once, however many times a re-queue made it re-run).
    pub completed: u64,
    /// Total task executions, re-runs included (`>= completed`).
    pub executed: u64,
    /// Task-chain re-injections after a fence (checkpoint re-queues).
    pub requeued: u64,
    /// Tasks abandoned because no surviving core could take them.
    pub degraded: u64,
    /// Steal handshakes initiated by hungry cores.
    pub steal_attempts: u64,
    /// Handshakes that transferred a task (claim accepted).
    pub steals: u64,
    /// Handshakes answered with an empty queue or a rejected claim.
    pub steal_rejects: u64,
    /// Handshake legs lost or corrupted in flight (ARQ-style backoff
    /// paid, no task moved).
    pub steal_losses: u64,
    /// Handshakes cut short by a fail-stop of one of the two parties.
    pub midsteal_kills: u64,
    /// Producer stalls against a full bounded deque (backpressure).
    pub backpressure_stalls: u64,
    /// High-water mark of any per-core deque.
    pub max_queue_depth: u64,
}

/// Everything measured in one walkthrough run.
pub struct WalkthroughReport {
    pub config: RunConfig,
    /// Virtual seconds from start to the last frame reaching the
    /// visualisation client — the paper's "walkthrough time".
    pub total_secs: f64,
    pub stage_reports: Vec<StageReport>,
    /// SCC power over time, 1 s samples.
    pub power_trace: Vec<PowerSample>,
    /// SCC energy for the run, joules.
    pub scc_energy_joules: f64,
    /// SCC idle power at the run's DVFS state, watts.
    pub scc_idle_power: f64,
    /// Seconds the MCPC spent rendering (0 unless MCPC mode).
    pub mcpc_busy_secs: f64,
    pub platform: PlatformStats,
    /// Graceful-degradation events (empty unless faults were injected
    /// and a pipeline actually failed).
    pub degradations: Vec<DegradationEvent>,
    /// Self-healing episodes: detected kills migrated to spare cores
    /// (empty unless kills were injected and a spare was available).
    pub recoveries: Vec<RecoveryEvent>,
    /// Task-runtime ledger; `Some` exactly when the run executed under
    /// [`crate::spec::Runtime::Tasks`].
    pub task_stats: Option<TaskStats>,
    /// Closed-loop DVFS decision trace, one entry per observed epoch
    /// (empty unless the power plane is
    /// [`crate::spec::PowerConfig::Governed`]).
    pub dvfs_decisions: Vec<crate::governor::GovernorDecision>,
    /// Final assembled frames (full fidelity only).
    pub outputs: Option<Vec<Image>>,
    /// Stage phase spans (when `RunConfig::trace` was set).
    pub trace: Option<crate::trace::TraceLog>,
    /// Telemetry snapshot (when `RunConfig::telemetry` was set).
    /// Deliberately excluded from [`WalkthroughReport::fingerprint`]:
    /// observation must never move a golden digest.
    pub telemetry: Option<scc_telemetry::Snapshot>,
}

impl WalkthroughReport {
    /// Speed-up of this run versus a reference time (e.g. the single-core
    /// baseline's 382 s, or a one-pipeline run).
    pub fn speedup_vs(&self, reference_secs: f64) -> f64 {
        reference_secs / self.total_secs
    }

    /// Canonical text rendering of everything deterministic in the report.
    /// Two runs of the same configuration (fault seed included) must
    /// produce byte-identical fingerprints; floats are rendered via their
    /// bit patterns so no formatting ambiguity can creep in.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run {} {} p{} {}x{} f{} seed={:#x}",
            self.config.renderer.name(),
            self.config.arrangement.name(),
            self.config.pipelines,
            self.config.width,
            self.config.height,
            self.config.frames,
            self.config.seed,
        );
        if self.config.runtime != crate::spec::Runtime::Static {
            let t = &self.config.task_tuning;
            let _ = writeln!(
                out,
                "runtime {} qcap={} steal_us={} retries={}",
                self.config.runtime.name(),
                t.queue_capacity,
                t.steal_timeout_us,
                t.steal_retries,
            );
        }
        if let Some(fault) = &self.config.fault {
            let _ = writeln!(
                out,
                "fault seed={:#x} drop={:016x} corrupt={:016x} delay={:016x} links={} budget={}",
                fault.seed,
                fault.drop_rate.to_bits(),
                fault.corrupt_rate.to_bits(),
                fault.delay_rate.to_bits(),
                fault.degraded_links,
                fault.retry_budget,
            );
            for k in &fault.kills {
                let _ = writeln!(out, "kill p{} s{} at_ms={}", k.pipeline, k.stage, k.at_ms);
            }
            if fault.supervised() {
                let _ = writeln!(
                    out,
                    "supervise hb_us={} phi={:016x} depth={} spares={}",
                    fault.heartbeat_period_us,
                    fault.phi_dead.to_bits(),
                    fault.checkpoint_depth,
                    fault.max_spares,
                );
            }
        }
        if !self.config.power.is_default() {
            match &self.config.power {
                crate::spec::PowerConfig::Static(pairs) => {
                    let _ = write!(out, "power static");
                    for (core, freq) in pairs {
                        let _ = write!(out, " {}@{}", core.raw(), freq.mhz());
                    }
                    let _ = writeln!(out);
                }
                crate::spec::PowerConfig::Governed(t) => {
                    let _ = writeln!(
                        out,
                        "power governed epoch={} hyst={} raise={:016x} throttle={:016x} \
                         cap={:016x}",
                        t.epoch_frames,
                        t.hysteresis_epochs,
                        t.bottleneck_idle_frac.to_bits(),
                        t.throttle_idle_frac.to_bits(),
                        t.power_cap_watts.to_bits(),
                    );
                }
            }
        }
        for d in &self.dvfs_decisions {
            let _ = writeln!(out, "dvfs e={} {:?}", d.epoch, d.action);
        }
        let _ = writeln!(out, "total={:016x}", self.total_secs.to_bits());
        for s in &self.stage_reports {
            let _ = writeln!(
                out,
                "stage {} p{:?} core={} busy={:016x} idle={:016x} frames={}",
                s.kind.name(),
                s.pipeline,
                s.core_id,
                s.busy_secs.to_bits(),
                s.idle_total_secs.to_bits(),
                s.frames,
            );
        }
        let _ = writeln!(
            out,
            "platform msgs={} bytes={} wait={:016x} mem={} memwait={:016x}",
            self.platform.noc_messages,
            self.platform.noc_bytes,
            self.platform.noc_wait_secs.to_bits(),
            self.platform.mem_bytes,
            self.platform.mem_wait_secs.to_bits(),
        );
        let _ = writeln!(out, "energy={:016x}", self.scc_energy_joules.to_bits());
        for d in &self.degradations {
            let _ = writeln!(
                out,
                "degrade frame={} pipeline={} to={} at={:016x} stage={} reason={}",
                d.frame,
                d.pipeline,
                d.reassigned_to,
                d.at_secs.to_bits(),
                d.failed_stage,
                d.reason,
            );
        }
        for r in &self.recoveries {
            let _ = writeln!(
                out,
                "recover frame={} pipeline={} stage={} core={}->{} killed={:016x} \
                 detected={:016x} resumed={:016x} replayed={} mttr={:016x}",
                r.frame,
                r.pipeline,
                r.stage.name(),
                r.failed_core,
                r.migration_target,
                r.killed_at_secs.to_bits(),
                r.detected_at_secs.to_bits(),
                r.resumed_at_secs.to_bits(),
                r.frames_replayed,
                r.mttr_secs.to_bits(),
            );
        }
        if let Some(t) = &self.task_stats {
            let _ = writeln!(
                out,
                "tasks spawned={} completed={} executed={} requeued={} degraded={} \
                 steal_attempts={} steals={} rejects={} losses={} midsteal={} stalls={} maxq={}",
                t.spawned,
                t.completed,
                t.executed,
                t.requeued,
                t.degraded,
                t.steal_attempts,
                t.steals,
                t.steal_rejects,
                t.steal_losses,
                t.midsteal_kills,
                t.backpressure_stalls,
                t.max_queue_depth,
            );
        }
        if let Some(outputs) = &self.outputs {
            for (i, img) in outputs.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "frame {i} crc={:016x}",
                    crate::viz::frame_checksum(img)
                );
            }
        }
        out
    }

    /// Mean measured SCC power while running, watts.
    pub fn mean_power(&self) -> f64 {
        if self.total_secs <= 0.0 {
            return 0.0;
        }
        self.scc_energy_joules / self.total_secs
    }

    /// MCPC energy for the run: idle floor for the whole walkthrough plus
    /// the render-active delta (§VI-B's accounting charges the render
    /// delta over the render time only).
    pub fn mcpc_energy_joules(&self, mcpc: &McpcPower) -> f64 {
        mcpc.idle * self.total_secs + mcpc.render_delta() * self.mcpc_busy_secs
    }

    /// The §VI-B comparison figure: incremental energy of the computation
    /// — SCC active energy above idle, plus the MCPC's render delta.
    /// (The paper computes `3.3 s · 28 W + 51 s · 50 W` for the hybrid.)
    pub fn active_energy_joules(&self, mcpc: &McpcPower) -> f64 {
        self.scc_energy_joules + mcpc.render_delta() * self.mcpc_busy_secs
    }

    /// Report for a specific stage of a specific pipeline.
    pub fn stage(&self, kind: StageKind, pipeline: Option<u32>) -> Option<&StageReport> {
        self.stage_reports
            .iter()
            .find(|s| s.kind == kind && s.pipeline == pipeline)
    }

    /// Utilisation of a stage: busy time / total time.
    pub fn utilisation(&self, kind: StageKind, pipeline: Option<u32>) -> Option<f64> {
        self.stage(kind, pipeline)
            .map(|s| s.busy_secs / self.total_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunConfig;

    fn report() -> WalkthroughReport {
        WalkthroughReport {
            config: RunConfig::default(),
            total_secs: 50.0,
            stage_reports: vec![StageReport {
                kind: StageKind::Blur,
                pipeline: Some(0),
                core_id: 3,
                busy_secs: 45.0,
                idle_ms: None,
                idle_total_secs: 5.0,
                frames: 400,
            }],
            power_trace: vec![],
            scc_energy_joules: 2500.0,
            scc_idle_power: 22.0,
            mcpc_busy_secs: 3.3,
            platform: PlatformStats {
                noc_messages: 0,
                noc_bytes: 0,
                noc_wait_secs: 0.0,
                mem_bytes: 0,
                mem_bytes_per_mc: [0; 4],
                mem_wait_secs: 0.0,
                mem_imbalance: 0.0,
                host_link: Default::default(),
            },
            degradations: vec![DegradationEvent {
                frame: 17,
                pipeline: 1,
                reassigned_to: 2,
                at_secs: 4.2,
                failed_stage: 1,
                reason: "blur stalled".into(),
            }],
            recoveries: vec![RecoveryEvent {
                frame: 9,
                pipeline: 0,
                stage: StageKind::Blur,
                failed_core: 3,
                migration_target: 40,
                killed_at_secs: 2.0,
                detected_at_secs: 2.2,
                resumed_at_secs: 2.5,
                frames_replayed: 1,
                mttr_secs: 0.5,
            }],
            task_stats: None,
            dvfs_decisions: vec![],
            outputs: None,
            trace: None,
            telemetry: None,
        }
    }

    #[test]
    fn speedup_and_power_math() {
        let r = report();
        assert_eq!(r.speedup_vs(382.0), 7.64);
        assert_eq!(r.mean_power(), 50.0);
    }

    #[test]
    fn host_timing_rates() {
        let t = HostTiming::from_wall(2.0, 100, 400, 400);
        assert_eq!(t.frames_per_sec, 50.0);
        assert_eq!(t.mpixels_per_sec, 8.0);
        let degenerate = HostTiming::from_wall(0.0, 10, 4, 4);
        assert_eq!(degenerate.frames_per_sec, 0.0);
    }

    #[test]
    fn host_timing_degenerate_inputs_are_nan_free() {
        // Zero, negative, NaN, and infinite wall times all clamp to a
        // quiet zero-rate timing instead of poisoning downstream math.
        for wall in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let t = HostTiming::from_wall(wall, 10, 4, 4);
            assert_eq!(t.wall_secs, 0.0, "wall {wall} must clamp");
            assert_eq!(t.frames_per_sec, 0.0);
            assert_eq!(t.mpixels_per_sec, 0.0);
            assert_eq!(t.frames, 10, "frame count is preserved");
        }
        // Zero frames over a real wall time is a valid zero rate.
        let idle = HostTiming::from_wall(2.0, 0, 4, 4);
        assert_eq!(idle.frames_per_sec, 0.0);
        assert!(idle.mpixels_per_sec == 0.0 && !idle.mpixels_per_sec.is_nan());
    }

    #[test]
    fn mcpc_energy_accounting_matches_paper_formula() {
        let r = report();
        let mcpc = McpcPower::default();
        // active energy = SCC + 3.3 s × 28 W, the §VI-B structure.
        let e = r.active_energy_joules(&mcpc);
        assert!((e - (2500.0 + 3.3 * 28.0)).abs() < 1e-9);
        let full = r.mcpc_energy_joules(&mcpc);
        assert!((full - (52.0 * 50.0 + 28.0 * 3.3)).abs() < 1e-9);
    }

    #[test]
    fn stage_lookup_and_utilisation() {
        let r = report();
        assert!(r.stage(StageKind::Blur, Some(0)).is_some());
        assert!(r.stage(StageKind::Sepia, Some(0)).is_none());
        assert_eq!(r.utilisation(StageKind::Blur, Some(0)), Some(0.9));
    }

    #[test]
    fn fingerprint_is_stable_and_covers_degradations() {
        let a = report();
        let b = report();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().contains("degrade frame=17 pipeline=1 to=2"));
        assert!(a
            .fingerprint()
            .contains("recover frame=9 pipeline=0 stage=blur core=3->40"));
        // Any drift in a float shows up (bit-pattern rendering).
        let mut c = report();
        c.total_secs += 1e-12;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
