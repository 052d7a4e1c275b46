//! The pipeline as *data*: a chain of stage nodes plus per-stage weights.
//!
//! The paper hard-codes the seven-stage film pipeline onto fixed cores;
//! Figure 15 shows the idle-time imbalance that fixed placement causes
//! (blur saturated, scratch mostly idle). This module is the first half
//! of the scheduler that removes the hard-coding: it describes *what*
//! the pipeline is — stage kinds and parallelism classes, in chain
//! order — and *how heavy* each stage is, either from the calibrated
//! cost model or from weights the caller supplies in the config.
//! [`mod@crate::partition`] consumes both to compute a placement.
//!
//! Weight semantics: weights are **relative** costs (P54C cycles per
//! strip for the static estimator; any scale for explicit weights). Only
//! ratios matter to the partitioner, so the two sources never need a
//! common unit.

use crate::cost::CostModel;
use crate::spec::{RunConfig, StageKind};
use scc_filters::{standard_chain, FrameCtx};

/// Parallelism class of a stage — what the partitioner may legally do
/// with it (PS-DSWP's DOALL-vs-sequential distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageClass {
    /// Per-pixel, stateless across frames (sepia, scratch, flicker,
    /// swap). Mergeable with neighbours and replicable DOALL-style.
    Pointwise,
    /// Neighbourhood gather, still stateless across frames (blur).
    /// Mergeable and replicable.
    Stencil,
    /// Carries state from frame to frame. Must stay alone on its core
    /// and can never be replicated (sequential in PS-DSWP terms). The
    /// film pipeline has none; user-defined pipelines may.
    Stateful,
}

impl StageClass {
    /// May this stage share a core with an adjacent compatible stage?
    pub fn mergeable(self) -> bool {
        matches!(self, StageClass::Pointwise | StageClass::Stencil)
    }

    /// May this stage be replicated across frames (DOALL)?
    pub fn replicable(self) -> bool {
        matches!(self, StageClass::Pointwise | StageClass::Stencil)
    }

    pub fn name(self) -> &'static str {
        match self {
            StageClass::Pointwise => "pointwise",
            StageClass::Stencil => "stencil",
            StageClass::Stateful => "stateful",
        }
    }
}

/// One node of the stage graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageNode {
    pub kind: StageKind,
    pub class: StageClass,
    /// Relative per-strip cost (see module docs). Must be finite and
    /// non-negative; the estimators guarantee it.
    pub weight: f64,
}

/// One lane's film chain, weighted by `weights` (one entry per
/// [`StageKind::PIPELINE_FILTERS`] stage): the five filters in order,
/// blur the only stencil and the other four pointwise. The source and
/// the sink are endpoints the partitioner never merges or replicates, so
/// the chain leaves them out — it is a linear chain of interior stages,
/// which is all [`crate::partition::partition`] takes.
pub fn film_chain(weights: &StageWeights) -> Vec<StageNode> {
    StageKind::PIPELINE_FILTERS
        .iter()
        .zip(weights.per_stage)
        .map(|(&kind, weight)| StageNode {
            kind,
            class: if kind == StageKind::Blur {
                StageClass::Stencil
            } else {
                StageClass::Pointwise
            },
            weight,
        })
        .collect()
}

/// Where a weight vector came from — pinned in the decision table so the
/// golden digests distinguish static from explicit placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightSource {
    /// Calibrated [`CostModel`] estimate.
    StaticModel,
    /// Supplied explicitly through [`RunConfig::stage_weights`].
    Explicit,
}

impl WeightSource {
    pub fn name(self) -> &'static str {
        match self {
            WeightSource::StaticModel => "static-model",
            WeightSource::Explicit => "explicit",
        }
    }
}

/// Per-filter-stage weights in [`StageKind::PIPELINE_FILTERS`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct StageWeights {
    pub per_stage: [f64; 5],
    pub source: WeightSource,
}

impl StageWeights {
    /// Static estimator: cycles per strip from the calibrated cost
    /// model, on the exact strip geometry the run will use. Always
    /// finite and positive.
    pub fn from_cost_model(cfg: &RunConfig, cost: &CostModel) -> StageWeights {
        let strip_h = (cfg.height / cfg.pipelines).max(1);
        let ctx = FrameCtx::whole_frame(0, cfg.seed, cfg.width, strip_h);
        let chain = standard_chain();
        let mut per_stage = [0.0f64; 5];
        for (j, filter) in chain.iter().enumerate() {
            per_stage[j] = cost.filter_cycles(filter.as_ref(), &ctx);
        }
        StageWeights {
            per_stage,
            source: WeightSource::StaticModel,
        }
    }

    /// Resolve the weights a run should use: explicit overrides from the
    /// config win, else the static model.
    pub fn for_config(cfg: &RunConfig) -> StageWeights {
        match &cfg.stage_weights {
            Some(w) => {
                let mut per_stage = [0.0f64; 5];
                per_stage.copy_from_slice(&w[..5]);
                StageWeights {
                    per_stage,
                    source: WeightSource::Explicit,
                }
            }
            None => StageWeights::from_cost_model(cfg, &CostModel::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RunConfig {
        RunConfig::builder()
            .pipelines(2)
            .size(100, 100)
            .frames(8)
            .build()
            .expect("valid config")
    }

    #[test]
    fn film_graph_is_a_seven_stage_chain() {
        let w = StageWeights::from_cost_model(&cfg(), &CostModel::default());
        let chain = film_chain(&w);
        let kinds: Vec<_> = chain.iter().map(|n| n.kind).collect();
        assert_eq!(kinds, StageKind::PIPELINE_FILTERS);
        for (n, weight) in chain.iter().zip(w.per_stage) {
            assert_eq!(n.weight, weight);
        }
        // Blur is the only stencil; sepia/scratch/flicker pointwise.
        let classes: Vec<_> = chain.iter().map(|n| n.class).collect();
        assert_eq!(classes[1], StageClass::Stencil);
        for j in [0usize, 2, 3] {
            assert_eq!(classes[j], StageClass::Pointwise);
        }
    }

    #[test]
    fn static_weights_make_blur_the_bottleneck() {
        let w = StageWeights::from_cost_model(&cfg(), &CostModel::default());
        assert_eq!(w.source, WeightSource::StaticModel);
        let blur = w.per_stage[1];
        for (j, &s) in w.per_stage.iter().enumerate() {
            assert!(s.is_finite() && s > 0.0, "stage {j} weight {s}");
            if j != 1 {
                assert!(blur > 2.0 * s, "blur must dominate stage {j} ({s})");
            }
        }
    }

    #[test]
    fn explicit_config_weights_win() {
        let mut c = cfg();
        c.stage_weights = Some(vec![1.0, 9.0, 1.0, 1.0, 1.0]);
        let w = StageWeights::for_config(&c);
        assert_eq!(w.source, WeightSource::Explicit);
        assert_eq!(w.per_stage[1], 9.0);
    }
}
