//! The scheduler's second half: turn a weighted stage chain into a
//! core placement (PS-DSWP style).
//!
//! Two moves, both driven by the per-stage weights of
//! [`crate::stage_graph`]:
//!
//! * **merge** — adjacent cheap stages share one core, as long as the
//!   merged service time stays at or below the bottleneck's (merging
//!   never moves the pipeline's cadence, which the bottleneck sets);
//! * **replicate** — the bottleneck stage, when it is a stateless
//!   singleton, is cloned DOALL-style across spare cores; frame `f`
//!   goes to replica `f mod r`, so downstream sees frames in order and
//!   the film stays bit-identical (the ordering guarantee DESIGN.md
//!   §14 spells out).
//!
//! The partitioner is a pure function of (stage chain, weights, lane
//! count, core budget) — same inputs, same [`StagePlan`], which the
//! property suite (`tests/partition_props.rs`) and the golden decision
//! tables rely on.

use crate::placement::Placement;
use crate::spec::{RendererMode, RunConfig, StageKind};
use crate::stage_graph::{StageGraph, StageNode, StageWeights};
use scc_sim::topology::NUM_CORES;
use serde::Serialize;

/// Spare cores the partitioner always leaves unclaimed so the
/// supervisor's migration path (PR 3) keeps working under auto
/// placement.
pub const SPARE_RESERVE: u32 = 2;

/// A contiguous run of chain stages sharing one core (per lane),
/// optionally replicated.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StageGroup {
    /// First stage index of the run (into the interior chain).
    pub start: usize,
    /// Number of merged stages (≥ 1).
    pub len: usize,
    /// DOALL replication factor (≥ 1; > 1 only for stateless
    /// singletons).
    pub replicas: u32,
}

impl StageGroup {
    pub fn stages(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// The partitioner's output: an ordered partition of the stage chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StagePlan {
    pub groups: Vec<StageGroup>,
}

impl StagePlan {
    /// The identity plan for `n` stages: one singleton group per stage,
    /// no replication — exactly the paper's fixed placement.
    pub fn fixed(n: usize) -> StagePlan {
        StagePlan {
            groups: (0..n)
                .map(|j| StageGroup {
                    start: j,
                    len: 1,
                    replicas: 1,
                })
                .collect(),
        }
    }

    /// Is this the identity plan (no merges, no replication)?
    pub fn is_fixed(&self) -> bool {
        self.groups.iter().all(|g| g.len == 1 && g.replicas == 1)
    }

    /// Total stages covered.
    pub fn stage_count(&self) -> usize {
        self.groups.iter().map(|g| g.len).sum()
    }

    /// Index of the group containing stage `j`.
    pub fn group_of(&self, j: usize) -> usize {
        self.groups
            .iter()
            .position(|g| g.stages().contains(&j))
            .expect("stage outside plan")
    }

    /// Replication factor of the group containing stage `j`.
    pub fn replicas_of(&self, j: usize) -> u32 {
        self.groups[self.group_of(j)].replicas
    }

    /// Last stage index of the group containing stage `j`.
    pub fn last_of_group(&self, j: usize) -> usize {
        let g = &self.groups[self.group_of(j)];
        g.start + g.len - 1
    }

    /// Does stage `j` share its core with stage `j - 1`?
    pub fn merged_with_prev(&self, j: usize) -> bool {
        j > 0 && self.group_of(j) == self.group_of(j - 1)
    }

    /// Interior cores one lane needs: one per group plus the extra
    /// replicas.
    pub fn cores_per_lane(&self) -> u32 {
        self.groups.len() as u32 + self.groups.iter().map(|g| g.replicas - 1).sum::<u32>()
    }
}

/// Weight of a contiguous stage slice sharing one core: the sum of its
/// members' weights, which is what every executor charges a merged group.
fn slice_weight(nodes: &[StageNode]) -> f64 {
    nodes.iter().map(|n| n.weight).sum()
}

/// Partition `nodes` (the interior stage chain of one lane) for `lanes`
/// identical lanes sharing `interior_budget` cores, keeping
/// [`SPARE_RESERVE`] cores free for the supervisor. A merged group costs
/// the sum of its stages' weights.
///
/// Guarantees (enforced by `tests/partition_props.rs`):
/// * every stage lands in exactly one group, order preserved;
/// * multi-stage groups contain only mergeable (stateless) stages;
/// * `replicas > 1` only for stateless singleton groups;
/// * `lanes · cores_per_lane ≤ interior_budget`;
/// * deterministic for fixed inputs.
pub fn partition(
    nodes: &[StageNode],
    lanes: u32,
    interior_budget: u32,
) -> Result<StagePlan, String> {
    if nodes.is_empty() {
        return Err("cannot partition an empty stage chain".into());
    }
    if lanes == 0 {
        return Err("need at least one lane".into());
    }
    for n in nodes {
        if !n.weight.is_finite() || n.weight < 0.0 {
            return Err(format!("{} has illegal weight {}", n.kind.name(), n.weight));
        }
    }
    let bottleneck_w = nodes.iter().map(|n| n.weight).fold(0.0f64, f64::max);

    // Pass 1 — greedy adjacent merge: extend the open group while the
    // merged weight stays within the bottleneck's service time (the
    // cadence, so merging is free) and both sides are mergeable.
    let mut groups: Vec<StageGroup> = Vec::new();
    let mut start = 0usize;
    for j in 1..nodes.len() {
        let open_mergeable = nodes[start..j].iter().all(|n| n.class.mergeable());
        let fits = slice_weight(&nodes[start..=j]) <= bottleneck_w;
        if !(open_mergeable && nodes[j].class.mergeable() && fits) {
            groups.push(StageGroup {
                start,
                len: j - start,
                replicas: 1,
            });
            start = j;
        }
    }
    groups.push(StageGroup {
        start,
        len: nodes.len() - start,
        replicas: 1,
    });

    // Pass 2 — force-fit: if the budget cannot seat one core per group
    // per lane, keep merging the cheapest mergeable adjacent pair.
    let group_w = |g: &StageGroup| -> f64 { slice_weight(&nodes[g.stages()]) };
    let pair_w =
        |a: &StageGroup, b: &StageGroup| -> f64 { slice_weight(&nodes[a.start..b.start + b.len]) };
    while lanes as u64 * groups.len() as u64 > interior_budget as u64 {
        let mergeable_pair = (0..groups.len().saturating_sub(1))
            .filter(|&i| {
                groups[i]
                    .stages()
                    .chain(groups[i + 1].stages())
                    .all(|j| nodes[j].class.mergeable())
            })
            .min_by(|&a, &b| {
                let wa = pair_w(&groups[a], &groups[a + 1]);
                let wb = pair_w(&groups[b], &groups[b + 1]);
                wa.partial_cmp(&wb).unwrap_or(std::cmp::Ordering::Equal)
            });
        match mergeable_pair {
            Some(i) => {
                let right = groups.remove(i + 1);
                groups[i].len += right.len;
            }
            None => {
                return Err(format!(
                    "{} lanes x {} stage groups exceed the {}-core budget",
                    lanes,
                    groups.len(),
                    interior_budget
                ))
            }
        }
    }

    // Pass 3 — replicate the bottleneck DOALL-style. Only a stateless
    // singleton qualifies: merged groups pipeline internally, stateful
    // stages are sequential by definition.
    let bottleneck_group = (0..groups.len())
        .max_by(|&a, &b| {
            group_w(&groups[a])
                .partial_cmp(&group_w(&groups[b]))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("non-empty groups");
    let g = &groups[bottleneck_group];
    if g.len == 1 && nodes[g.start].class.replicable() {
        let heavy = group_w(g);
        let second = (0..groups.len())
            .filter(|&i| i != bottleneck_group)
            .map(|i| group_w(&groups[i]))
            .fold(0.0f64, f64::max);
        // Enough clones to pull the bottleneck's effective service time
        // at or below the next-heaviest group — more buys nothing.
        let r_target = if second > 0.0 {
            (heavy / second).ceil() as u32
        } else {
            u32::MAX
        };
        let seats = lanes as u64 * groups.len() as u64;
        let free = (interior_budget as u64)
            .saturating_sub(seats)
            .saturating_sub(SPARE_RESERVE as u64);
        let per_lane_extra = (free / lanes as u64) as u32;
        groups[bottleneck_group].replicas = r_target.max(1).min(1 + per_lane_extra);
    }

    Ok(StagePlan { groups })
}

/// Everything the scheduler decided for one run: the weighted graph,
/// the plan, and its realization on the mesh.
#[derive(Debug, Clone)]
pub struct AutoPlacement {
    pub graph: StageGraph,
    pub weights: StageWeights,
    pub plan: StagePlan,
    pub placement: Placement,
}

impl AutoPlacement {
    /// The diff-friendly decision table the golden suite pins: one line
    /// per stage with class, weight (exact bits and rounded), group,
    /// replication factor and assigned core(s), plus a plan summary.
    /// Byte-stable for fixed inputs.
    pub fn decision_table(&self) -> String {
        let interior = self.graph.interior();
        let mut out =
            String::from("stage    class      weight_bits      weight      group replicas cores\n");
        for (j, node) in interior.iter().enumerate() {
            let g = self.plan.group_of(j);
            let r = self.plan.groups[g].replicas;
            let mut cores: Vec<String> = vec![format!("{}", self.placement.pipelines[0][j])];
            for slot in &self.placement.replicas {
                if slot.pipeline == 0 && slot.stage == j {
                    cores.extend(slot.extras.iter().map(|c| format!("{c}")));
                }
            }
            out.push_str(&format!(
                "{:<8} {:<10} {:016x} {:<11.4e} {:<5} {:<8} {}\n",
                node.kind.name(),
                node.class.name(),
                node.weight.to_bits(),
                node.weight,
                g,
                r,
                cores.join("+"),
            ));
        }
        out.push_str(&format!(
            "plan groups={} cores_per_lane={} source={}\n",
            self.plan.groups.len(),
            self.plan.cores_per_lane(),
            self.weights.source.name(),
        ));
        out
    }
}

/// Compute the scheduler placement for `cfg` (weights resolved via
/// [`StageWeights::for_config`]: explicit config weights, else the
/// static cost model).
///
/// # Panics
///
/// Panics when the configuration is invalid; validate first.
pub fn auto_place(cfg: &RunConfig) -> AutoPlacement {
    let weights = StageWeights::for_config(cfg);
    let graph = StageGraph::film(cfg, &weights);
    let interior = graph.interior();
    let p = cfg.pipelines;
    let endpoint_cores = match cfg.renderer {
        RendererMode::SingleRenderer => 2, // renderer + transfer
        RendererMode::PerPipelineRenderer => p + 1,
        RendererMode::McpcRenderer => 2, // connector + transfer
    };
    let interior_budget = NUM_CORES as u32 - endpoint_cores;
    let plan = partition(&interior, p, interior_budget).expect("validated config fits");
    // Lanes along rows (the ordered arrangement's one-way flow), like
    // the fixed row placements.
    let placement = crate::placement::place_rows(cfg.renderer, p, false, &plan);
    placement.assert_valid();
    AutoPlacement {
        graph,
        weights,
        plan,
        placement,
    }
}

/// The placement a run should use: the scheduler's when
/// [`RunConfig::auto_place`] is set, else the fixed arrangement.
pub fn placement_for(cfg: &RunConfig) -> Placement {
    if cfg.auto_place {
        auto_place(cfg).placement
    } else {
        crate::placement::place(cfg.renderer, cfg.arrangement, cfg.pipelines)
    }
}

/// The stage plan a run should use (the native backend keys its thread
/// layout off this rather than off core ids).
pub fn plan_for(cfg: &RunConfig) -> StagePlan {
    if cfg.auto_place {
        auto_place(cfg).plan
    } else {
        StagePlan::fixed(StageKind::PIPELINE_FILTERS.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage_graph::{StageClass, StageWeights};
    use crate::CostModel;

    fn film_cfg(p: u32) -> RunConfig {
        let mut cfg = RunConfig::builder()
            .pipelines(p)
            .size(100, 100)
            .frames(8)
            .build()
            .expect("valid config");
        cfg.auto_place = true;
        cfg
    }

    fn film_nodes(cfg: &RunConfig) -> Vec<StageNode> {
        let w = StageWeights::from_cost_model(cfg, &CostModel::default());
        StageGraph::film(cfg, &w).interior()
    }

    #[test]
    fn film_plan_merges_the_tail_and_replicates_blur() {
        let cfg = film_cfg(2);
        let plan = partition(&film_nodes(&cfg), 2, 46).expect("fits");
        // The calibrated model yields [sepia][blur][scratch+flicker+swap]
        // with blur (the bottleneck, >2x every other stage) replicated.
        assert_eq!(plan.groups.len(), 3);
        assert_eq!(plan.groups[0].stages().collect::<Vec<_>>(), vec![0]);
        assert_eq!(plan.groups[1].stages().collect::<Vec<_>>(), vec![1]);
        assert_eq!(plan.groups[2].stages().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert!(plan.groups[1].replicas > 1, "blur must be replicated");
        assert_eq!(plan.groups[0].replicas, 1);
        assert_eq!(plan.groups[2].replicas, 1);
    }

    #[test]
    fn partitioner_is_deterministic() {
        let cfg = film_cfg(3);
        let nodes = film_nodes(&cfg);
        assert_eq!(
            partition(&nodes, 3, 46).unwrap(),
            partition(&nodes, 3, 46).unwrap()
        );
    }

    #[test]
    fn tight_budget_forces_merges_never_oversubscription() {
        let cfg = film_cfg(2);
        let nodes = film_nodes(&cfg);
        for budget in 2..=10u32 {
            let plan = partition(&nodes, 2, budget).expect("two lanes fit two cores");
            assert!(2 * plan.cores_per_lane() <= budget, "budget {budget}");
            assert_eq!(plan.stage_count(), 5);
        }
        // One core per lane cannot seat two lanes of anything.
        assert!(partition(&nodes, 2, 1).is_err());
    }

    #[test]
    fn stateful_stages_stay_alone_and_unreplicated() {
        let mut nodes = film_nodes(&film_cfg(1));
        // Pretend blur carries cross-frame state.
        nodes[1].class = StageClass::Stateful;
        let plan = partition(&nodes, 1, 46).expect("fits");
        for g in &plan.groups {
            if g.stages().contains(&1) {
                assert_eq!(g.len, 1, "stateful stage must stay alone");
                assert_eq!(g.replicas, 1, "stateful stage must not replicate");
            }
        }
    }

    #[test]
    fn auto_placement_reserves_supervisor_spares() {
        for p in [1u32, 2, 3] {
            let auto = auto_place(&film_cfg(p));
            assert!(
                auto.placement.spare_pool().len() >= SPARE_RESERVE as usize,
                "p={p}: {} spares",
                auto.placement.spare_pool().len()
            );
        }
    }

    #[test]
    fn realized_placement_matches_the_plan() {
        let cfg = film_cfg(2);
        let auto = auto_place(&cfg);
        let plan = &auto.plan;
        let pl = &auto.placement;
        assert_eq!(pl.pipelines.len(), 2);
        for lane in &pl.pipelines {
            for j in 1..5 {
                assert_eq!(
                    lane[j] == lane[j - 1],
                    plan.merged_with_prev(j),
                    "stage {j} core sharing must mirror the plan"
                );
            }
        }
        // Replica slots exist exactly for the replicated groups.
        let expected: usize = plan.groups.iter().filter(|g| g.replicas > 1).count() * 2;
        assert_eq!(pl.replicas.len(), expected);
        for slot in &pl.replicas {
            let g = &plan.groups[plan.group_of(slot.stage)];
            assert_eq!(slot.extras.len() as u32, g.replicas - 1);
        }
    }

    #[test]
    fn decision_table_is_deterministic_and_complete() {
        let cfg = film_cfg(2);
        let a = auto_place(&cfg).decision_table();
        let b = auto_place(&cfg).decision_table();
        assert_eq!(a, b);
        for name in ["sepia", "blur", "scratch", "flicker", "swap"] {
            assert!(a.contains(name), "missing {name} in:\n{a}");
        }
        assert!(a.contains("stencil") && a.contains("pointwise"));
    }

    #[test]
    fn fixed_plan_is_the_identity() {
        let plan = plan_for(&RunConfig::default());
        assert!(plan.is_fixed());
        assert_eq!(plan.groups.len(), 5);
        assert_eq!(plan.cores_per_lane(), 5);
    }
}
