//! Generic macro pipelines — the paper's closing claim, as an API.
//!
//! "The ideas presented in our work should easily translate to other
//! problem domains where parallel macro pipelines are used" (§I). This
//! module lets a user define *their own* stage chain — any workload with
//! per-item compute cycles, auxiliary memory traffic and an output
//! payload — and run it on the simulated SCC with exactly the mechanics
//! of the rendering case study: RCCE-style rendezvous handovers through
//! DRAM partitions, contended controllers, per-stage idle accounting.
//!
//! See `examples/generic_pipeline.rs` for a compress→encrypt→checksum
//! stream-processing pipeline reproducing the paper's qualitative story
//! on a non-graphics workload.
//!
//! There is one way in: put a [`crate::spec::Workload`] into
//! [`RunConfig`] and call [`crate::run`]. The spec resolves to a pure
//! per-(stage, item) work table, and one dependency-counted engine
//! ([`run_workload`]) executes it on either virtual-time backend — the
//! backends differ only in the order they pop ready events
//! ([`EventOrder`]) — with the full run machinery attached once:
//! telemetry, the power plane (static plans *and* the closed-loop DVFS
//! governor), chain-merge auto-placement, invariant checking, and an
//! output digest that gates drift.

use crate::governor::GovernorDecision;
use crate::power_plane::PowerPlane;
use crate::runner::sim::{enforce_audited, record_run, record_stage};
use crate::spec::{RunConfig, Workload};
use scc_filters::{fnv1a_fold, FNV_OFFSET};
use scc_sim::platform::MemOp;
use scc_sim::stats::Quartiles;
use scc_sim::{CoreId, IslandId, SccConfig, SccPlatform, SimTime};
use scc_telemetry::TelemetrySink;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// What one stage does to one work item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageWork {
    /// Compute cycles at the core's current frequency.
    pub cycles: f64,
    /// Auxiliary bytes streamed from DRAM (beyond the input fetch).
    pub read_bytes: u64,
    /// Auxiliary bytes streamed to DRAM (beyond the output send).
    pub write_bytes: u64,
    /// Payload handed to the next stage.
    pub out_bytes: u64,
}

/// Per-stage outcome of a generic run.
#[derive(Debug, Clone)]
pub struct GenericStageReport {
    pub name: String,
    pub core_id: u8,
    pub busy_secs: f64,
    pub idle_ms: Option<Quartiles>,
    pub utilisation: f64,
}

/// Result of a generic pipeline run.
#[derive(Debug, Clone)]
pub struct GenericReport {
    pub total_secs: f64,
    pub items: u64,
    pub stages: Vec<GenericStageReport>,
    pub mean_power: f64,
    pub energy_joules: f64,
    /// FNV-1a fingerprint of the workload's output (the reconstructed
    /// grid for wavefront runs, the payload-flow profile for declarative
    /// chains); equal across backends and power plans.
    pub output_digest: u64,
    /// Idle floor (watts) of the cheapest DVFS state the run visited —
    /// the same floor the energy-identity invariant checks against.
    pub scc_idle_power: f64,
    /// The governor's decision trace, in epoch order; empty on static
    /// power plans.
    pub dvfs_decisions: Vec<GovernorDecision>,
    /// Metrics recorded during the run when `cfg.telemetry` was set.
    pub telemetry: Option<scc_telemetry::Snapshot>,
}

impl GenericReport {
    /// Items per virtual second at steady state.
    pub fn throughput(&self) -> f64 {
        self.items as f64 / self.total_secs
    }

    pub fn stage(&self, name: &str) -> Option<&GenericStageReport> {
        self.stages.iter().find(|s| s.name == name)
    }
}

fn fnv_fold(digest: u64, value: u64) -> u64 {
    fnv1a_fold(digest, &value.to_le_bytes())
}

/// Per-cell cost constants of the wavefront chain (cycles and bytes as
/// functions of the wave's frontier size `n`). Expand dominates by an
/// order of magnitude — the chain's blur — but unlike blur its absolute
/// cost moves with every wave.
fn wavefront_stage(stage: usize, n: u64) -> StageWork {
    let nf = n as f64;
    match stage {
        // Drain the frontier queue, order the records.
        0 => StageWork {
            cycles: 900.0 + 45.0 * nf,
            read_bytes: 0,
            write_bytes: 0,
            out_bytes: 16 * n,
        },
        // Dilate: fetch each cell's mask neighborhood, compare, write
        // the grown marker values back.
        1 => StageWork {
            cycles: 2_400.0 + 520.0 * nf,
            read_bytes: 32 * n,
            write_bytes: 16 * n,
            out_bytes: 16 * n,
        },
        // Commit the delta log off-chip.
        2 => StageWork {
            cycles: 700.0 + 60.0 * nf,
            read_bytes: 0,
            write_bytes: 8 * n,
            out_bytes: 8 * n + 16,
        },
        _ => unreachable!("the wavefront chain has 3 stages"),
    }
}

/// Names of the wavefront chain's stages, in order.
pub const WAVEFRONT_STAGES: [&str; 3] = ["ingest", "expand", "commit"];

/// A workload resolved into an executable chain: per-(stage, item) work
/// precomputed as a pure function of the spec, so both backends charge
/// exactly the same cycles and bytes, in a possibly different order.
pub(crate) struct ResolvedChain {
    pub names: Vec<String>,
    /// Input payload per stage; one entry when uniform across items,
    /// `items` entries otherwise.
    ins: Vec<Vec<u64>>,
    works: Vec<Vec<StageWork>>,
    pub items: u64,
    pub output_digest: u64,
}

impl ResolvedChain {
    pub(crate) fn resolve(cfg: &RunConfig) -> ResolvedChain {
        match &cfg.workload {
            Workload::Generic(spec) => {
                let mut digest = fnv_fold(FNV_OFFSET, spec.items);
                digest = fnv_fold(digest, spec.source_bytes);
                let mut in_bytes = spec.source_bytes;
                let mut ins = Vec::with_capacity(spec.stages.len());
                let mut works = Vec::with_capacity(spec.stages.len());
                let mut names = Vec::with_capacity(spec.stages.len());
                for s in &spec.stages {
                    let w = StageWork {
                        cycles: s.fixed_cycles + s.cycles_per_byte * in_bytes as f64,
                        read_bytes: (s.read_factor * in_bytes as f64) as u64,
                        write_bytes: (s.write_factor * in_bytes as f64) as u64,
                        out_bytes: (s.out_factor * in_bytes as f64) as u64,
                    };
                    digest = fnv_fold(digest, w.out_bytes);
                    ins.push(vec![in_bytes]);
                    works.push(vec![w]);
                    names.push(s.name.clone());
                    in_bytes = w.out_bytes;
                }
                ResolvedChain {
                    names,
                    ins,
                    works,
                    items: spec.items,
                    output_digest: digest,
                }
            }
            Workload::Wavefront(spec) => {
                let trace = crate::wavefront::propagate(spec, cfg.seed);
                let items = trace.waves.len() as u64;
                let mut ins = Vec::with_capacity(3);
                let mut works = Vec::with_capacity(3);
                for stage in 0..3 {
                    let per_item: Vec<StageWork> = trace
                        .waves
                        .iter()
                        .map(|&n| wavefront_stage(stage, n))
                        .collect();
                    let stage_in: Vec<u64> = if stage == 0 {
                        // Stage 0 ingests the raw frontier queue.
                        trace.waves.iter().map(|&n| 8 * n).collect()
                    } else {
                        trace
                            .waves
                            .iter()
                            .map(|&n| wavefront_stage(stage - 1, n).out_bytes)
                            .collect()
                    };
                    ins.push(stage_in);
                    works.push(per_item);
                }
                ResolvedChain {
                    names: WAVEFRONT_STAGES.iter().map(|s| s.to_string()).collect(),
                    ins,
                    works,
                    items,
                    output_digest: trace.digest,
                }
            }
            Workload::Film => unreachable!("the film workload runs on the strip executors"),
        }
    }

    fn stages(&self) -> usize {
        self.works.len()
    }

    fn in_bytes(&self, stage: usize, item: u64) -> u64 {
        let v = &self.ins[stage];
        v[if v.len() == 1 { 0 } else { item as usize }]
    }

    fn work(&self, stage: usize, item: u64) -> StageWork {
        let v = &self.works[stage];
        v[if v.len() == 1 { 0 } else { item as usize }]
    }

    /// Mean per-item cost of a stage in cycle-equivalents, for the
    /// chain-merge planner (memory traffic weighted at a rough 1.5
    /// cycles per byte).
    fn stage_cost(&self, stage: usize) -> f64 {
        let v = &self.works[stage];
        let sum: f64 = v
            .iter()
            .map(|w| w.cycles + 1.5 * (w.read_bytes + w.write_bytes + w.out_bytes) as f64)
            .sum();
        sum / v.len() as f64
    }
}

/// Chain-merge auto-placement: greedily merge the cheapest adjacent
/// group pair while the merged cost stays at or below the bottleneck
/// stage's cost — merged stages share a core and skip the partition
/// handover, without ever slowing the cadence the bottleneck sets.
/// With `auto_place` off every stage keeps its own core.
pub(crate) fn plan_groups(chain: &ResolvedChain, auto_place: bool) -> Vec<Range<usize>> {
    let mut groups: Vec<Range<usize>> = (0..chain.stages()).map(|j| j..j + 1).collect();
    if !auto_place {
        return groups;
    }
    let mut cost: Vec<f64> = (0..chain.stages()).map(|j| chain.stage_cost(j)).collect();
    while groups.len() > 1 {
        let bottleneck = cost.iter().cloned().fold(0.0, f64::max);
        let (mut best, mut best_cost) = (None, f64::INFINITY);
        for i in 0..groups.len() - 1 {
            let c = cost[i] + cost[i + 1];
            if c < best_cost {
                best = Some(i);
                best_cost = c;
            }
        }
        let Some(i) = best else { break };
        if best_cost > bottleneck {
            break;
        }
        groups[i] = groups[i].start..groups[i + 1].end;
        groups.remove(i + 1);
        cost[i] = best_cost;
        cost.remove(i + 1);
    }
    groups
}

/// Stage-group to core mapping for the workload plane: island-major, so
/// consecutive groups land on *different* voltage islands. A chain of up
/// to six groups owns one island per group — the natural placement for a
/// power-plane experiment (raising one group's tile never drags a
/// neighbor group's voltage up), and deliberately different from the
/// film pipeline's row-major packing, so the governor's converged split
/// is workload-specific rather than an artifact of shared tiles.
pub(crate) fn island_major_core(k: usize) -> CoreId {
    assert!(k < 48, "chain group {k} beyond the 48-core die");
    let island = IslandId::new((k % 6) as u8);
    let tile = island.tiles()[(k / 6) % 4];
    CoreId::new(tile.raw() * 2 + (k / 24) as u8)
}

/// Event kinds per (group, item) node: the compute half (fetch, cycles,
/// auxiliary traffic) and the send half (rendezvous handover or
/// off-chip delivery). A sender computes as soon as its input and core
/// are free, then blocks in the send until the receiver drains the
/// previous item.
const EV_COMPUTE: u8 = 0;
const EV_SEND: u8 = 1;

/// The order the engine pops ready events in — the only thing the two
/// virtual-time backends disagree on. Work, placement, epochs and the
/// governor's item-to-frequency mapping are identical by construction;
/// the platform books contention in pop order, so totals agree to
/// contention noise while the output digest and the decision trace are
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventOrder {
    /// `(item, group, kind)`: every item clears the whole chain before
    /// the next one starts — the frame-major simulator's order.
    ItemMajor,
    /// `(earliest start, item, group, kind)`: global virtual-time order —
    /// the discrete-event validator's.
    EarliestStart,
}

/// The send instants node `(g, k)` of an `n`-group chain waits on, read
/// off `send_done` (zero where the chain has no such node): its input's
/// arrival (group `g - 1`'s send of item `k`), its own core's previous
/// send (item `k - 1`) and its receiver's rendezvous (group `g + 1`'s
/// send of item `k - 1`).
fn waits(send_done: &[SimTime], n: usize, g: usize, k: usize) -> (SimTime, SimTime, SimTime) {
    let at = |g: usize, k: usize| send_done[k * n + g];
    let arrival = if g > 0 { at(g - 1, k) } else { SimTime::ZERO };
    let own_free = if k > 0 { at(g, k - 1) } else { SimTime::ZERO };
    let rendezvous = if g + 1 < n && k > 0 {
        at(g + 1, k - 1)
    } else {
        SimTime::ZERO
    };
    (arrival, own_free, rendezvous)
}

/// Execute `cfg`'s workload: the resolved chain as a dependency-counted
/// event engine, popping ready events in `order`.
pub(crate) fn run_workload(cfg: &RunConfig, order: EventOrder) -> GenericReport {
    let chain = ResolvedChain::resolve(cfg);
    let groups = plan_groups(&chain, cfg.auto_place);
    let mut platform = SccPlatform::new(SccConfig::default());
    let tel = TelemetrySink::from_enabled(cfg.telemetry);
    // Every chain stage is a station; there is no render core to shield.
    let mut power = PowerPlane::arm(cfg, &mut platform, chain.items, []);
    let cores: Vec<CoreId> = (0..groups.len()).map(island_major_core).collect();
    platform.set_spinning(cores.clone());

    let n = groups.len();
    let items = chain.items as usize;
    let idx = |g: usize, k: usize| k * n + g;

    let mut comp_start = vec![SimTime::ZERO; n * items];
    let mut comp_done = vec![SimTime::ZERO; n * items];
    let mut send_done = vec![SimTime::ZERO; n * items];
    let mut out_bytes = vec![0u64; n * items];
    // Remaining dependencies per event; compute waits on own-prev send
    // and upstream arrival, send waits on its compute and the
    // receiver-side rendezvous.
    let mut indeg = vec![0u8; 2 * n * items];
    for k in 0..items {
        for g in 0..n {
            indeg[2 * idx(g, k) + EV_COMPUTE as usize] = u8::from(k > 0) + u8::from(g > 0);
            indeg[2 * idx(g, k) + EV_SEND as usize] = 1 + u8::from(g + 1 < n && k > 0);
        }
    }

    let mut busy = vec![SimTime::ZERO; n];
    let mut idle: Vec<Vec<SimTime>> = vec![Vec::new(); n];
    let mut finish = SimTime::ZERO;

    // Ready events keyed by `order`'s notion of urgency — the
    // earliest-start estimate (max of dependency completion times), or
    // nothing — tie-broken by (item, group, kind) so the pop order is
    // total and deterministic.
    let key = |est: SimTime, k: usize, g: usize, kind: u8| {
        let urgency = match order {
            EventOrder::ItemMajor => SimTime::ZERO,
            EventOrder::EarliestStart => est,
        };
        Reverse((urgency, k, g, kind))
    };
    let mut heap: BinaryHeap<Reverse<(SimTime, usize, usize, u8)>> = BinaryHeap::new();
    heap.push(key(SimTime::ZERO, 0, 0, EV_COMPUTE));

    let mut processed = 0usize;
    while let Some(Reverse((_, k, g, kind))) = heap.pop() {
        processed += 1;
        let i = idx(g, k);
        let core = cores[g];
        let (arrival, own_free, rendezvous) = waits(&send_done, n, g, k);
        power.apply_for_item(&mut platform, k as u64);
        if kind == EV_COMPUTE {
            // Items appear at the source as fast as stage 0 takes them
            // (its arrival is zero).
            let wait = arrival.saturating_sub(own_free);
            idle[g].push(wait);
            power.note_idle(core, k as u64, wait);
            let range = &groups[g];
            let start = arrival.max(own_free);
            let mut t =
                platform.fetch_from_partition(core, start, chain.in_bytes(range.start, k as u64));
            let mut out = 0u64;
            for j in range.clone() {
                let w = chain.work(j, k as u64);
                t = platform.compute(core, t, w.cycles as u64);
                if w.read_bytes > 0 {
                    t = platform.mem_stream(core, t, MemOp::Read, w.read_bytes);
                }
                if w.write_bytes > 0 {
                    t = platform.mem_stream(core, t, MemOp::Write, w.write_bytes);
                }
                out = w.out_bytes;
            }
            platform.record_busy(core, start, t);
            comp_start[i] = start;
            comp_done[i] = t;
            out_bytes[i] = out;
            // Enable this node's send half.
            let si = 2 * i + EV_SEND as usize;
            indeg[si] -= 1;
            if indeg[si] == 0 {
                heap.push(key(t.max(rendezvous), k, g, EV_SEND));
            }
        } else {
            // The last group's rendezvous is zero: it ships off-chip as
            // soon as its compute is done.
            let start = comp_done[i].max(rendezvous);
            let r = if g + 1 < n {
                platform.send_to_partition(core, cores[g + 1], start, out_bytes[i])
            } else {
                platform.chip_to_host(core, start, out_bytes[i])
            };
            platform.record_busy(core, start, r);
            busy[g] += r - comp_start[i];
            send_done[i] = r;

            if g + 1 == n {
                finish = finish.max(r);
                power.delivered(k as u64, r);
            }

            // Enable dependents: own next compute, downstream compute,
            // upstream rendezvous.
            let mut enable = |g2: usize, k2: usize, kind2: u8, heap: &mut BinaryHeap<_>| {
                let j = 2 * idx(g2, k2) + kind2 as usize;
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    let (arrival, own_free, rendezvous) = waits(&send_done, n, g2, k2);
                    let est = if kind2 == EV_COMPUTE {
                        arrival.max(own_free)
                    } else {
                        comp_done[idx(g2, k2)].max(rendezvous)
                    };
                    heap.push(key(est, k2, g2, kind2));
                }
            };
            if k + 1 < items {
                enable(g, k + 1, EV_COMPUTE, &mut heap);
            }
            if g + 1 < n {
                enable(g + 1, k, EV_COMPUTE, &mut heap);
            }
            if g > 0 && k + 1 < items {
                enable(g - 1, k + 1, EV_SEND, &mut heap);
            }
        }
    }
    assert_eq!(processed, 2 * n * items, "the engine drained every event");

    // The tail: energy over the power plane's DVFS schedule, the stage
    // reports and their telemetry, and — behind `cfg.verify` — the
    // invariant checker.
    let total = finish.as_secs_f64();
    let totals = power.finish(&platform, finish, &tel);
    let mut stages = Vec::with_capacity(n);
    for (g, range) in groups.iter().enumerate() {
        let name = chain.names[range.clone()].join("+");
        let busy_secs = busy[g].as_secs_f64();
        let idle_ms = idle[g].iter().map(|t| t.as_secs_f64() * 1e3);
        record_stage(&tel, None, &name, idle_ms, Some(busy_secs), chain.items);
        stages.push(GenericStageReport {
            name,
            core_id: cores[g].raw(),
            busy_secs,
            idle_ms: Quartiles::from_times(&idle[g]),
            utilisation: busy_secs / total.max(1e-12),
        });
    }
    record_run(&tel, chain.items, total, Some(&platform));
    let report = GenericReport {
        total_secs: total,
        items: chain.items,
        stages,
        mean_power: totals.energy_joules / total.max(1e-12),
        energy_joules: totals.energy_joules,
        output_digest: chain.output_digest,
        scc_idle_power: totals.idle_floor_watts,
        dvfs_decisions: power.decisions(),
        telemetry: tel.snapshot(),
    };
    enforce_audited(cfg, &platform, || {
        crate::invariant::check_generic_report(&report)
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        GenericChainSpec, GenericStageSpec, GovernorTuning, PowerConfig, WavefrontSpec,
    };

    /// A stage doing `mcycles` million cycles per item, passing payload
    /// through unchanged.
    fn fixed(label: &str, mcycles: f64) -> GenericStageSpec {
        GenericStageSpec {
            fixed_cycles: mcycles * 1e6,
            ..GenericStageSpec::compute(label, 0.0)
        }
    }

    fn chain_of(stages: Vec<GenericStageSpec>, items: u64, source_bytes: u64) -> Workload {
        Workload::Generic(GenericChainSpec {
            stages,
            items,
            source_bytes,
        })
    }

    /// Through the one front door, on the frame-major backend.
    fn run(workload: Workload) -> GenericReport {
        let cfg = RunConfig::builder()
            .workload(workload)
            .build()
            .expect("valid chain config");
        match crate::run(&cfg, crate::Backend::Sim).report {
            crate::BackendReport::Generic(r) => r,
            _ => unreachable!("workload runs produce a generic report"),
        }
    }

    #[test]
    fn throughput_is_set_by_the_bottleneck() {
        // Stages of 10/50/10 Mcycles at 533 MHz: bottleneck ≈ 93.8 ms.
        let stages = vec![
            fixed("light-a", 10.0),
            fixed("heavy", 50.0),
            fixed("light-b", 10.0),
        ];
        let r = run(chain_of(stages, 100, 64 * 1024));
        let per_item = r.total_secs / 100.0;
        let bottleneck = 50.0e6 / 533.0e6;
        assert!(
            per_item > bottleneck * 0.95 && per_item < bottleneck * 1.35,
            "cadence {per_item:.4}s vs bottleneck {bottleneck:.4}s"
        );
        // The heavy stage is the busy one. The *downstream* light stage
        // mostly waits in recv; the upstream one blocks inside its send
        // (RCCE senders spin until the receiver drains), so its busy time
        // is high even though it computes little — the same asymmetry the
        // paper's idle-time plot shows.
        assert!(r.stage("heavy").unwrap().utilisation > 0.75);
        assert!(r.stage("light-b").unwrap().utilisation < 0.5);
        let heavy_idle = r.stage("heavy").unwrap().idle_ms.unwrap().median;
        let light_idle = r.stage("light-b").unwrap().idle_ms.unwrap().median;
        assert!(
            light_idle > heavy_idle,
            "light stage should wait more ({light_idle:.1} vs {heavy_idle:.1} ms)"
        );
    }

    #[test]
    fn pipelining_beats_serial_execution() {
        let stages = (0..6).map(|i| fixed(&format!("s{i}"), 20.0)).collect();
        let pipelined = run(chain_of(stages, 50, 32 * 1024)).total_secs;
        // Serial: one item through all 6 stages before the next starts =
        // 6 × 20 Mcycles per item.
        let serial = 50.0 * 6.0 * 20.0e6 / 533.0e6;
        assert!(
            pipelined < serial * 0.35,
            "pipelined {pipelined:.2}s vs serial {serial:.2}s"
        );
    }

    #[test]
    fn payload_size_flows_through_the_chain() {
        // A compressor stage shrinks the payload; downstream fetches get
        // cheaper, so a shrinking chain beats an identity chain.
        let chain = |compress_out: f64| {
            let stages = vec![
                fixed("produce", 5.0),
                GenericStageSpec {
                    out_factor: compress_out,
                    ..fixed("compress", 8.0)
                },
                fixed("sink", 2.0),
            ];
            run(chain_of(stages, 60, 512 * 1024))
        };
        let shrink = chain(1.0 / 8.0);
        let identity = chain(1.0);
        assert_ne!(shrink.output_digest, identity.output_digest);
        assert!(
            shrink.total_secs < identity.total_secs,
            "shrinking payload ({:.2}s) must beat identity ({:.2}s)",
            shrink.total_secs,
            identity.total_secs
        );
    }

    #[test]
    fn reports_are_complete_and_positive() {
        let r = run(chain_of(vec![fixed("only", 30.0)], 10, 1024));
        assert_eq!(r.items, 10);
        assert_eq!(r.stages.len(), 1);
        assert!(r.throughput() > 0.0);
        assert!(r.mean_power > 20.0, "at least idle power");
        assert!(r.energy_joules > 0.0);
    }

    #[test]
    #[should_panic(expected = "generic chain has no stages")]
    fn rejects_empty_chain() {
        let empty = GenericChainSpec {
            stages: Vec::new(),
            items: 1,
            source_bytes: 1024,
        };
        assert!(empty.validate().is_err());
        // The front door refuses it too (it validates before running).
        let cfg = RunConfig {
            workload: Workload::Generic(empty),
            ..RunConfig::default()
        };
        crate::run(&cfg, crate::Backend::Sim);
    }

    // --- the workload engine ------------------------------------------

    fn chain_cfg() -> RunConfig {
        RunConfig::builder()
            .workload(Workload::Generic(GenericChainSpec {
                stages: vec![
                    GenericStageSpec::compute("parse", 12.0),
                    GenericStageSpec {
                        read_factor: 1.0,
                        out_factor: 1.0 / 3.0,
                        ..GenericStageSpec::compute("compress", 90.0)
                    },
                    GenericStageSpec::compute("encrypt", 25.0),
                ],
                items: 48,
                source_bytes: 64 * 1024,
            }))
            .build()
            .expect("valid chain config")
    }

    fn wavefront_cfg(governed: bool) -> RunConfig {
        let mut b = RunConfig::builder()
            .seed(11)
            .workload(Workload::Wavefront(WavefrontSpec::default()));
        if governed {
            b = b.power_governed(GovernorTuning::default());
        }
        b.build().expect("valid wavefront config")
    }

    #[test]
    fn resolve_threads_payload_and_digests_the_flow() {
        let chain = ResolvedChain::resolve(&chain_cfg());
        assert_eq!(chain.names, ["parse", "compress", "encrypt"]);
        assert_eq!(chain.items, 48);
        // Payload threads: 64K into parse, 64K into compress, 64K/3 out.
        assert_eq!(chain.in_bytes(1, 0), 64 * 1024);
        assert_eq!(chain.work(1, 7).out_bytes, 64 * 1024 / 3);
        assert_eq!(chain.in_bytes(2, 0), 64 * 1024 / 3);
        let again = ResolvedChain::resolve(&chain_cfg());
        assert_eq!(chain.output_digest, again.output_digest);
        assert_ne!(chain.output_digest, 0);
    }

    #[test]
    fn wavefront_resolve_is_item_varying_and_seed_keyed() {
        let a = ResolvedChain::resolve(&wavefront_cfg(false));
        assert_eq!(a.names, WAVEFRONT_STAGES);
        assert!(a.items >= 16, "only {} waves", a.items);
        // Per-item work moves with the frontier — not a uniform table.
        let cycles: Vec<u64> = (0..a.items).map(|k| a.work(1, k).cycles as u64).collect();
        assert!(cycles.iter().any(|&c| c != cycles[0]));
        let mut other = wavefront_cfg(false);
        other.seed = 12;
        let b = ResolvedChain::resolve(&other);
        assert_ne!(a.output_digest, b.output_digest);
    }

    #[test]
    fn plan_groups_merges_only_under_the_bottleneck() {
        // One heavy stage and three light ones: the light neighbors can
        // share a core without slowing the cadence the heavy stage sets.
        let cfg = RunConfig::builder()
            .workload(Workload::Generic(GenericChainSpec {
                stages: vec![
                    GenericStageSpec::compute("parse", 10.0),
                    GenericStageSpec::compute("compress", 90.0),
                    GenericStageSpec::compute("encrypt", 15.0),
                    GenericStageSpec::compute("checksum", 4.0),
                ],
                items: 16,
                source_bytes: 64 * 1024,
            }))
            .build()
            .expect("valid config");
        let chain = ResolvedChain::resolve(&cfg);
        assert_eq!(plan_groups(&chain, false), vec![0..1, 1..2, 2..3, 3..4]);
        let merged = plan_groups(&chain, true);
        // encrypt + checksum merge under the compress bottleneck; every
        // stage still appears exactly once, contiguously.
        assert!(merged.len() < 4, "nothing merged: {merged:?}");
        assert_eq!(merged.first().unwrap().start, 0);
        assert_eq!(merged.last().unwrap().end, 4);
        for pair in merged.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        let bottleneck = (0..4).map(|j| chain.stage_cost(j)).fold(0.0, f64::max);
        for g in &merged {
            let cost: f64 = g.clone().map(|j| chain.stage_cost(j)).sum();
            assert!(cost <= bottleneck * (1.0 + 1e-9));
        }
    }

    #[test]
    fn island_major_placement_spreads_groups_across_islands() {
        let cores: Vec<CoreId> = (0..12).map(island_major_core).collect();
        let mut seen = std::collections::HashSet::new();
        for c in &cores {
            assert!(seen.insert(c.raw()), "core {} reused", c.raw());
        }
        // The first six groups each own a distinct voltage island.
        let islands: std::collections::HashSet<u8> = cores[..6]
            .iter()
            .map(|c| IslandId::of_tile(c.tile()).index() as u8)
            .collect();
        assert_eq!(islands.len(), 6);
    }

    #[test]
    fn workload_backends_agree_on_output_and_disagree_only_in_noise() {
        for cfg in [chain_cfg(), wavefront_cfg(false)] {
            let sim = run_workload(&cfg, EventOrder::ItemMajor);
            let des = run_workload(&cfg, EventOrder::EarliestStart);
            assert_eq!(sim.output_digest, des.output_digest);
            assert_eq!(sim.items, des.items);
            assert!(sim.dvfs_decisions.is_empty());
            let diff = (sim.total_secs - des.total_secs).abs() / sim.total_secs;
            assert!(
                diff < 0.03,
                "{}: sim {} vs des {} ({:.2}%)",
                cfg.workload.name(),
                sim.total_secs,
                des.total_secs,
                diff * 100.0
            );
        }
    }

    #[test]
    fn governed_wavefront_matches_across_backends() {
        let cfg = wavefront_cfg(true);
        let sim = run_workload(&cfg, EventOrder::ItemMajor);
        let des = run_workload(&cfg, EventOrder::EarliestStart);
        // The governor must act, identically under both schedules, and
        // the workload output must not notice the frequency moves.
        assert!(!sim.dvfs_decisions.is_empty(), "governor never acted");
        assert_eq!(sim.dvfs_decisions, des.dvfs_decisions);
        assert_eq!(sim.output_digest, des.output_digest);
        let stat = run_workload(&wavefront_cfg(false), EventOrder::ItemMajor);
        assert_eq!(sim.output_digest, stat.output_digest);
        assert!(crate::invariant::check_generic_report(&sim).is_empty());
        assert!(crate::invariant::check_generic_report(&des).is_empty());
    }

    #[test]
    fn both_event_orders_agree_on_digest_decisions_and_time() {
        // One engine, two pop orders: the governed chain and the governed
        // wavefront must not notice which one ran them, beyond the
        // platform's booking-order contention noise.
        let mut chain = chain_cfg();
        chain.power = PowerConfig::Governed(GovernorTuning::default());
        for cfg in [chain, wavefront_cfg(true)] {
            let a = run_workload(&cfg, EventOrder::ItemMajor);
            let b = run_workload(&cfg, EventOrder::EarliestStart);
            assert_eq!(a.output_digest, b.output_digest);
            assert_eq!(a.dvfs_decisions, b.dvfs_decisions);
            assert!(!a.dvfs_decisions.is_empty());
            let diff = (a.total_secs - b.total_secs).abs() / a.total_secs;
            assert!(
                diff < 0.03,
                "{}: {:.2}% apart",
                cfg.workload.name(),
                diff * 100.0
            );
        }
    }

    #[test]
    fn static_power_plan_changes_the_workload_timeline() {
        let base = run_workload(&chain_cfg(), EventOrder::ItemMajor);
        let mut throttled = chain_cfg();
        // Slow the bottleneck group's core (group 1 -> island 1).
        let core = island_major_core(1);
        throttled.power = PowerConfig::Static(vec![(core, scc_sim::FreqMHz::F400)]);
        let slow = run_workload(&throttled, EventOrder::ItemMajor);
        assert!(slow.total_secs > base.total_secs * 1.05);
        assert_eq!(slow.output_digest, base.output_digest);
    }
}
