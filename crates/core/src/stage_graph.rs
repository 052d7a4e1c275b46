//! The pipeline as *data*: a DAG of stage nodes plus per-stage weights.
//!
//! The paper hard-codes the seven-stage film pipeline onto fixed cores;
//! Figure 15 shows the idle-time imbalance that fixed placement causes
//! (blur saturated, scratch mostly idle). This module is the first half
//! of the scheduler that removes the hard-coding: it describes *what*
//! the pipeline is — stage kinds, parallelism classes, dependencies —
//! and *how heavy* each stage is, either from the calibrated cost model
//! or from weights the caller supplies in the config.
//! [`mod@crate::partition`] consumes both to compute a placement.
//!
//! Weight semantics: weights are **relative** costs (P54C cycles per
//! strip for the static estimator; any scale for explicit weights). Only
//! ratios matter to the partitioner, so the two sources never need a
//! common unit.

use crate::cost::CostModel;
use crate::spec::{RunConfig, StageKind};
use scc_filters::{standard_chain, FrameCtx};
use serde::Serialize;

/// Parallelism class of a stage — what the partitioner may legally do
/// with it (PS-DSWP's DOALL-vs-sequential distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StageClass {
    /// Produces frames (render / connector). Endpoint: never merged or
    /// replicated.
    Source,
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
    /// Consumes frames (transfer/assemble). Endpoint: never merged or
    /// replicated.
    Sink,
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
            StageClass::Source => "source",
            StageClass::Pointwise => "pointwise",
            StageClass::Stencil => "stencil",
            StageClass::Stateful => "stateful",
            StageClass::Sink => "sink",
        }
    }
}

/// One node of the stage graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StageNode {
    pub kind: StageKind,
    pub class: StageClass,
    /// Relative per-strip cost (see module docs). Must be finite and
    /// non-negative; the estimators guarantee it.
    pub weight: f64,
}

/// The parallelism class of each film-pipeline stage (tentpole contract:
/// sepia, scratch and flicker are pointwise, blur is the only stencil,
/// the endpoints are endpoints).
pub fn class_of(kind: StageKind) -> StageClass {
    match kind {
        StageKind::Render | StageKind::Connect => StageClass::Source,
        StageKind::Blur => StageClass::Stencil,
        StageKind::Sepia | StageKind::Scratch | StageKind::Flicker | StageKind::Swap => {
            StageClass::Pointwise
        }
        StageKind::Transfer => StageClass::Sink,
    }
}

/// A stage DAG. For the film workload this is a chain
/// (source → five filters → sink, one chain instance per lane), but the
/// representation keeps explicit edges so user-defined graphs from
/// [`crate::generic`] fit the same scheduler.
#[derive(Debug, Clone, Serialize)]
pub struct StageGraph {
    pub nodes: Vec<StageNode>,
    /// `(from, to)` indices into `nodes`.
    pub edges: Vec<(usize, usize)>,
}

impl StageGraph {
    /// A linear chain over `nodes` in order.
    pub fn chain(nodes: Vec<StageNode>) -> StageGraph {
        let edges = (1..nodes.len()).map(|i| (i - 1, i)).collect();
        StageGraph { nodes, edges }
    }

    /// The film pipeline of `cfg` as one lane's stage chain, weighted by
    /// `weights` (one entry per [`StageKind::PIPELINE_FILTERS`] stage).
    pub fn film(cfg: &RunConfig, weights: &StageWeights) -> StageGraph {
        let source_kind = match cfg.renderer {
            crate::spec::RendererMode::McpcRenderer => StageKind::Connect,
            _ => StageKind::Render,
        };
        let mut nodes = vec![StageNode {
            kind: source_kind,
            class: StageClass::Source,
            weight: 0.0,
        }];
        for (j, kind) in StageKind::PIPELINE_FILTERS.iter().enumerate() {
            nodes.push(StageNode {
                kind: *kind,
                class: class_of(*kind),
                weight: weights.per_stage[j],
            });
        }
        nodes.push(StageNode {
            kind: StageKind::Transfer,
            class: StageClass::Sink,
            weight: 0.0,
        });
        StageGraph::chain(nodes)
    }

    /// The interior (non-endpoint) nodes, in chain order.
    pub fn interior(&self) -> Vec<StageNode> {
        self.nodes
            .iter()
            .copied()
            .filter(|n| !matches!(n.class, StageClass::Source | StageClass::Sink))
            .collect()
    }

    /// Sanity: every edge in range, no self loops, acyclic for chains.
    pub fn validate(&self) -> Result<(), String> {
        for &(a, b) in &self.edges {
            if a >= self.nodes.len() || b >= self.nodes.len() {
                return Err(format!("edge ({a},{b}) out of range"));
            }
            if a == b {
                return Err(format!("self loop on node {a}"));
            }
        }
        for n in &self.nodes {
            if !n.weight.is_finite() || n.weight < 0.0 {
                return Err(format!("{} has illegal weight {}", n.kind.name(), n.weight));
            }
        }
        Ok(())
    }
}

/// Where a weight vector came from — pinned in the decision table so the
/// golden digests distinguish static from explicit placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize)]
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
    use crate::spec::RendererMode;

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
        let g = StageGraph::film(&cfg(), &w);
        g.validate().expect("valid graph");
        assert_eq!(g.nodes.len(), 7);
        assert_eq!(g.edges.len(), 6);
        assert_eq!(g.nodes[0].class, StageClass::Source);
        assert_eq!(g.nodes[6].class, StageClass::Sink);
        assert_eq!(g.interior().len(), 5);
        // Blur is the only stencil; sepia/scratch/flicker pointwise.
        let classes: Vec<_> = g.interior().iter().map(|n| n.class).collect();
        assert_eq!(classes[1], StageClass::Stencil);
        for j in [0usize, 2, 3] {
            assert_eq!(classes[j], StageClass::Pointwise);
        }
    }

    #[test]
    fn mcpc_film_graph_sources_from_the_connector() {
        let mut c = cfg();
        c.renderer = RendererMode::McpcRenderer;
        let w = StageWeights::from_cost_model(&c, &CostModel::default());
        let g = StageGraph::film(&c, &w);
        assert_eq!(g.nodes[0].kind, StageKind::Connect);
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
