//! Property tests for the stage-graph partitioner (`scc_core::partition`):
//! for arbitrary stage chains, lane counts and core budgets the emitted
//! [`scc_core::StagePlan`] is always *legal* —
//!
//! * every stage lands in exactly one group, chain order preserved;
//! * multi-stage groups contain only mergeable (stateless) stages;
//! * replication (`replicas > 1`) only for stateless singleton groups;
//! * `lanes x cores_per_lane` never exceeds the interior budget;
//! * the partitioner is a pure function: same inputs, same plan;
//! * it fails *only* when even maximal merging cannot seat the lanes.
//!
//! The case stream derives from `PROPTEST_RNG_SEED` (CI pins it), so a
//! failure reproduces exactly.

use proptest::prelude::*;
use scc_core::{auto_place, partition, RunConfig, StageClass, StageKind, StageNode};

/// Interior stage classes the partitioner can encounter (sources and
/// sinks are stripped before partitioning).
fn arb_class() -> impl Strategy<Value = StageClass> {
    prop_oneof![
        Just(StageClass::Pointwise),
        Just(StageClass::Pointwise),
        Just(StageClass::Stencil),
        Just(StageClass::Stateful),
    ]
}

fn arb_node() -> impl Strategy<Value = StageNode> {
    (any::<u8>(), arb_class(), 0.0f64..1e9).prop_map(|(k, class, weight)| StageNode {
        kind: StageKind::PIPELINE_FILTERS[k as usize % 5],
        class,
        weight,
    })
}

fn arb_chain() -> impl Strategy<Value = Vec<StageNode>> {
    proptest::collection::vec(arb_node(), 1..9)
}

/// Fewest groups any legal plan can have: maximal runs of mergeable
/// stages collapse to one group, everything else stands alone.
fn minimal_groups(nodes: &[StageNode]) -> u64 {
    let mut groups = 0u64;
    let mut in_run = false;
    for n in nodes {
        if n.class.mergeable() {
            if !in_run {
                groups += 1;
                in_run = true;
            }
        } else {
            groups += 1;
            in_run = false;
        }
    }
    groups
}

proptest! {
    #[test]
    fn plans_are_always_legal(
        nodes in arb_chain(),
        lanes in 1u32..7,
        budget in 1u32..49,
    ) {
        match partition(&nodes, lanes, budget) {
            Ok(plan) => {
                // Exactly-once, order-preserving coverage.
                prop_assert_eq!(plan.stage_count(), nodes.len());
                let mut next = 0usize;
                for g in &plan.groups {
                    prop_assert_eq!(g.start, next, "groups out of order");
                    prop_assert!(g.len >= 1);
                    next += g.len;
                    // Merges only between mergeable (stateless) stages.
                    if g.len > 1 {
                        for j in g.stages() {
                            prop_assert!(
                                nodes[j].class.mergeable(),
                                "stage {} ({}) merged illegally",
                                j,
                                nodes[j].class.name()
                            );
                        }
                    }
                    // Replication only for stateless singletons.
                    prop_assert!(g.replicas >= 1);
                    if g.replicas > 1 {
                        prop_assert_eq!(g.len, 1, "replicated group must be a singleton");
                        prop_assert!(
                            nodes[g.start].class.replicable(),
                            "stage {} ({}) replicated illegally",
                            g.start,
                            nodes[g.start].class.name()
                        );
                    }
                }
                prop_assert_eq!(next, nodes.len());
                // No oversubscription.
                prop_assert!(
                    u64::from(lanes) * u64::from(plan.cores_per_lane()) <= u64::from(budget),
                    "{} lanes x {} cores/lane > {} budget",
                    lanes,
                    plan.cores_per_lane(),
                    budget
                );
                // Determinism: a pure function of its inputs.
                prop_assert_eq!(plan, partition(&nodes, lanes, budget).unwrap());
            }
            Err(_) => {
                // Refusal is legal only when even maximal merging cannot
                // seat one core per group per lane.
                prop_assert!(
                    u64::from(lanes) * minimal_groups(&nodes) > u64::from(budget),
                    "partitioner gave up although {} lanes x {} minimal groups fit {}",
                    lanes,
                    minimal_groups(&nodes),
                    budget
                );
            }
        }
    }

    #[test]
    fn film_auto_placement_is_legal_for_arbitrary_weights(
        weights in proptest::collection::vec(0.1f64..1e6, 5),
        p in 1u32..7,
    ) {
        // The full scheduler path on the real film pipeline with
        // arbitrary explicit weights: the realized placement must always
        // validate (realize() asserts core uniqueness internally), keep
        // supervisor spares, and reproduce byte-identical decision
        // tables on a second run.
        let mut cfg = RunConfig::builder()
            .pipelines(p)
            .size(64, 64)
            .frames(2)
            .build()
            .expect("valid config");
        cfg.auto_place = true;
        cfg.stage_weights = Some(weights);
        let auto = auto_place(&cfg);
        prop_assert_eq!(auto.plan.stage_count(), 5);
        prop_assert!(
            auto.placement.spare_pool().len() >= scc_core::partition::SPARE_RESERVE as usize
        );
        let again = auto_place(&cfg);
        prop_assert_eq!(auto.decision_table(), again.decision_table());
        prop_assert_eq!(auto.plan, again.plan);
    }
}
