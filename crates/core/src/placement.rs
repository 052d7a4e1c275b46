//! Mapping pipeline stages onto SCC cores for the three arrangements
//! (§IV-A, Figures 3–5).
//!
//! * **Unordered** — stages take consecutive SCC core ids, so pipelines can
//!   wrap around mesh rows mid-pipeline (Figure 3).
//! * **Ordered** — each pipeline is laid left-to-right along one mesh row,
//!   giving a one-way communication flow (Figure 4).
//! * **Flipped** — ordered, but every second pipeline runs right-to-left to
//!   spread the expensive front stages across both ends (and hence both
//!   memory-controller columns) of the die (Figure 5).

use crate::partition::StagePlan;
use crate::spec::{Arrangement, RendererMode, StageKind};
use scc_sim::topology::{CoreId, TileId, CORES_PER_TILE, MESH_H, MESH_W, NUM_CORES};
use std::collections::HashSet;

/// Extra DOALL replica cores the scheduler assigned to one replicated
/// stage of one lane (the primary stays in [`Placement::pipelines`];
/// frame `f` runs on replica `f mod (1 + extras.len())`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSlot {
    /// Which lane the replicas belong to.
    pub pipeline: u32,
    /// Which of the five filter stages is replicated (0-based).
    pub stage: usize,
    /// The replica cores beyond the primary, in replica order.
    pub extras: Vec<CoreId>,
}

/// Where every stage of a run lives.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Render cores: one (SingleRenderer), `p` (PerPipelineRenderer) or
    /// none (McpcRenderer).
    pub renderers: Vec<CoreId>,
    /// Connector core for the MCPC configuration.
    pub connector: Option<CoreId>,
    /// `pipelines[i]` = the five filter cores of pipeline `i` in stage
    /// order (sepia, blur, scratch, flicker, swap). Scheduler-produced
    /// placements may *merge* adjacent stages onto one core, in which
    /// case the core id repeats across those (contiguous) slots.
    pub pipelines: Vec<[CoreId; 5]>,
    /// Replica cores for scheduler-replicated stages. Empty for the
    /// fixed arrangements.
    pub replicas: Vec<ReplicaSlot>,
    /// The single transfer core.
    pub transfer: CoreId,
}

impl Placement {
    /// Every core used, each exactly once, in a deterministic order
    /// (merged stages contribute their shared core once).
    pub fn all_cores(&self) -> Vec<CoreId> {
        let mut v = Vec::new();
        let mut seen = HashSet::new();
        let mut push = |v: &mut Vec<CoreId>, c: CoreId| {
            if seen.insert(c) {
                v.push(c);
            }
        };
        for &c in &self.renderers {
            push(&mut v, c);
        }
        if let Some(c) = self.connector {
            push(&mut v, c);
        }
        for p in &self.pipelines {
            for &c in p {
                push(&mut v, c);
            }
        }
        for r in &self.replicas {
            for &c in &r.extras {
                push(&mut v, c);
            }
        }
        push(&mut v, self.transfer);
        v
    }

    /// The cores that feed the pipelines (renderers, the MCPC connector):
    /// placed and working, but never idle-sampled as stations.
    pub(crate) fn source_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.renderers.iter().copied().chain(self.connector)
    }

    /// Replica cores of stage `j` in lane `lane` beyond the primary
    /// (empty for fixed placements).
    pub fn replica_extras(&self, lane: u32, stage: usize) -> &[CoreId] {
        self.replicas
            .iter()
            .find(|r| r.pipeline == lane && r.stage == stage)
            .map_or(&[], |r| r.extras.as_slice())
    }

    /// The deterministic spare-core pool: every core the placement left
    /// unused, in SCC core-id order. The paper's 48-core mesh rarely has
    /// every core enlisted; the supervisor migrates a failed stage onto
    /// the first spare. Deliberately *not* part of [`Self::all_cores`] —
    /// spares idle (no spin-wait power, no heartbeats) until enlisted.
    pub fn spare_pool(&self) -> Vec<CoreId> {
        let used: HashSet<CoreId> = self.all_cores().into_iter().collect();
        CoreId::all().filter(|c| !used.contains(c)).collect()
    }

    /// The stage living on `core`, if any.
    pub fn stage_at(&self, core: CoreId) -> Option<(StageKind, Option<u32>)> {
        if self.renderers.contains(&core) {
            let pl = (self.renderers.len() > 1)
                .then(|| self.renderers.iter().position(|c| *c == core).unwrap() as u32);
            return Some((StageKind::Render, pl));
        }
        if self.connector == Some(core) {
            return Some((StageKind::Connect, None));
        }
        if core == self.transfer {
            return Some((StageKind::Transfer, None));
        }
        for (i, p) in self.pipelines.iter().enumerate() {
            if let Some(j) = p.iter().position(|c| *c == core) {
                return Some((StageKind::PIPELINE_FILTERS[j], Some(i as u32)));
            }
        }
        for r in &self.replicas {
            if r.extras.contains(&core) {
                return Some((StageKind::PIPELINE_FILTERS[r.stage], Some(r.pipeline)));
            }
        }
        None
    }

    pub(crate) fn assert_valid(&self) {
        // Endpoints and replica extras must be globally unique; a lane
        // core may repeat, but only across *contiguous* stage slots of
        // the same lane (a scheduler merge), never between lanes or
        // with an endpoint.
        // Indexed by core: this runs in every `place`, and two hash
        // tables with fresh random states cost more than the rest of it.
        let mut singular = [false; NUM_CORES as usize];
        for &c in self
            .renderers
            .iter()
            .chain(self.connector.iter())
            .chain(self.replicas.iter().flat_map(|r| r.extras.iter()))
            .chain(std::iter::once(&self.transfer))
        {
            assert!(!singular[c.index()], "placement assigns {c} twice");
            singular[c.index()] = true;
        }
        let mut lane_owner: [Option<(usize, usize)>; NUM_CORES as usize] =
            [None; NUM_CORES as usize];
        for (i, lane) in self.pipelines.iter().enumerate() {
            for (j, &c) in lane.iter().enumerate() {
                assert!(!singular[c.index()], "placement assigns {c} twice");
                if let Some((li, lj)) = lane_owner[c.index()] {
                    assert!(
                        li == i && lj + 1 == j,
                        "placement assigns {c} twice (non-contiguous reuse)"
                    );
                }
                lane_owner[c.index()] = Some((i, j));
            }
        }
    }
}

/// Core at mesh position (`x`,`y`), slot `slot`.
fn core_at(x: u8, y: u8, slot: u8) -> CoreId {
    CoreId::new(TileId::from_xy(x, y).raw() * CORES_PER_TILE + slot)
}

/// Compute the placement for `p` pipelines of `mode` under `arrangement`.
///
/// Panics if the configuration does not fit the chip; validate the
/// [`crate::spec::RunConfig`] first.
pub fn place(mode: RendererMode, arrangement: Arrangement, p: u32) -> Placement {
    assert!(p >= 1, "need at least one pipeline");
    assert!(
        mode.cores_needed(p) <= NUM_CORES as u32,
        "{p} pipelines of {mode:?} exceed 48 cores"
    );
    let placement = match arrangement {
        Arrangement::Unordered => place_unordered(mode, p),
        Arrangement::Ordered | Arrangement::Flipped => {
            let fixed = StagePlan::fixed(StageKind::PIPELINE_FILTERS.len());
            place_rows(mode, p, arrangement == Arrangement::Flipped, &fixed)
        }
    };
    placement.assert_valid();
    placement
}

/// Sequential core-id assignment (the SCC's natural processor order).
fn place_unordered(mode: RendererMode, p: u32) -> Placement {
    let mut next = 0u8;
    let mut take = || {
        let c = CoreId::new(next);
        next += 1;
        c
    };
    let mut renderers = Vec::new();
    let mut connector = None;
    let mut pipelines = Vec::new();
    match mode {
        RendererMode::SingleRenderer => {
            renderers.push(take());
            for _ in 0..p {
                pipelines.push([take(), take(), take(), take(), take()]);
            }
        }
        RendererMode::PerPipelineRenderer => {
            for _ in 0..p {
                renderers.push(take());
                pipelines.push([take(), take(), take(), take(), take()]);
            }
        }
        RendererMode::McpcRenderer => {
            connector = Some(take());
            for _ in 0..p {
                pipelines.push([take(), take(), take(), take(), take()]);
            }
        }
    }
    Placement {
        renderers,
        connector,
        pipelines,
        replicas: Vec::new(),
        transfer: take(),
    }
}

/// Claim free core `c` in `used`.
fn claim(used: &mut [bool; NUM_CORES as usize], c: CoreId) -> CoreId {
    assert!(!used[c.index()], "double booking {c}");
    used[c.index()] = true;
    c
}

/// Row-parallel placement of `plan` (the ordered arrangement's one-way
/// flow, every second lane reversed under `flip`): one core per stage
/// group, the renderer first in the n-renderer mode, replica extras
/// nearest their primary, source/sink in the spare east column.
pub(crate) fn place_rows(mode: RendererMode, p: u32, flip: bool, plan: &StagePlan) -> Placement {
    let mut used = [false; NUM_CORES as usize];
    let per_pipeline_render = mode == RendererMode::PerPipelineRenderer;
    let row_len = plan.groups.len() as u8 + per_pipeline_render as u8;

    let mut renderers = Vec::new();
    let mut pipelines = Vec::with_capacity(p as usize);
    for i in 0..p {
        let y = (i % MESH_H as u32) as u8;
        let slot = (i / MESH_H as u32) as u8;
        let mut cores = Vec::with_capacity(row_len as usize);
        for j in 0..row_len {
            let x = if flip && i % 2 == 1 {
                row_len - 1 - j
            } else {
                j
            };
            // Beyond two full layers of rows (only reachable for the
            // 9-pipeline corner of the connector/single modes): use the
            // spare east column, wrapping over its tiles.
            let c = if slot < CORES_PER_TILE {
                core_at(x, y, slot)
            } else {
                core_at(MESH_W - 1, x % MESH_H, x / MESH_H)
            };
            cores.push(claim(&mut used, c));
        }
        if per_pipeline_render {
            renderers.push(cores.remove(0));
        }
        // Merged stages repeat their group's core.
        pipelines.push(std::array::from_fn(|j| cores[plan.group_of(j)]));
    }

    // Replica extras: nearest free core to the primary by (manhattan
    // tile distance, core id) — deterministic and NoC-local.
    let mut replicas = Vec::new();
    for (i, lane) in pipelines.iter().enumerate() {
        for g in plan.groups.iter().filter(|g| g.replicas > 1) {
            let primary = lane[g.start].tile();
            let (px, py) = (primary.x() as i32, primary.y() as i32);
            let extras = (1..g.replicas)
                .map(|_| {
                    let best = CoreId::all()
                        .filter(|c| !used[c.index()])
                        .min_by_key(|c| {
                            let (x, y) = (c.tile().x() as i32, c.tile().y() as i32);
                            ((x - px).abs() + (y - py).abs(), c.raw())
                        })
                        .expect("partition respects the core budget");
                    claim(&mut used, best)
                })
                .collect();
            replicas.push(ReplicaSlot {
                pipeline: i as u32,
                stage: g.start,
                extras,
            });
        }
    }

    // Place source/sink in the spare east column if free, else scan.
    let mut fallback = |prefer: &[CoreId]| -> CoreId {
        let free = prefer
            .iter()
            .copied()
            .chain(CoreId::all())
            .find(|c| !used[c.index()])
            .expect("no free core despite budget check");
        claim(&mut used, free)
    };
    let east = MESH_W - 1;
    let prefer_src = [
        core_at(east, 0, 0),
        core_at(east, 0, 1),
        core_at(east, 1, 0),
        core_at(east, 1, 1),
    ];
    let prefer_sink = [
        core_at(east, MESH_H - 1, 0),
        core_at(east, MESH_H - 1, 1),
        core_at(east, MESH_H - 2, 0),
        core_at(east, MESH_H - 2, 1),
    ];
    let mut connector = None;
    match mode {
        RendererMode::SingleRenderer => renderers.push(fallback(&prefer_src)),
        RendererMode::McpcRenderer => connector = Some(fallback(&prefer_src)),
        RendererMode::PerPipelineRenderer => {}
    }
    let transfer = fallback(&prefer_sink);

    Placement {
        renderers,
        connector,
        pipelines,
        replicas,
        transfer,
    }
}

/// A placement for the DVFS experiment (§VI-D, Figure 18): a single
/// pipeline with the bottleneck filter *alone on its own tile*, in a
/// voltage island not shared with any other stage, so only that island
/// needs the 1.3 V uplift. Returns the placement; the isolated core is
/// `placement.pipelines[0][1]` (blur, under the calibrated cost model).
///
/// Which filter earns the isolation is read off the scheduler's own
/// weight table ([`crate::partition::auto_place`]'s decision graph)
/// rather than hardcoded, so a cost-model recalibration that moves the
/// bottleneck moves the 1.3 V uplift with it.
pub fn place_dvfs_single_pipeline(mode: RendererMode) -> Placement {
    let cfg = crate::spec::RunConfig {
        renderer: mode,
        pipelines: 1,
        ..crate::spec::RunConfig::default()
    };
    let auto = crate::partition::auto_place(&cfg);
    let interior = auto.graph.interior();
    let filters = interior.len();
    assert_eq!(filters, 5, "the film chain has five filter stages");
    let hot = (0..filters)
        .max_by(|&a, &b| {
            interior[a]
                .weight
                .partial_cmp(&interior[b].weight)
                .expect("finite stage weights")
        })
        .expect("non-empty chain");

    // Island geometry: islands are 2×2 tiles. The hot stage sits alone
    // on tile (2,0) — island 1, otherwise empty — while the remaining
    // filters pack into islands 0 and 2 (one neighbour beside the
    // source, the cool tail two-per-tile next to the transfer core), so
    // exactly one island pays for 800 MHz.
    let isolated = core_at(2, 0, 0);
    let shared = [
        core_at(1, 0, 0),
        core_at(4, 0, 0),
        core_at(4, 0, 1),
        core_at(5, 0, 0),
    ];
    let mut shared_slots = shared.iter();
    let mut lane = [isolated; 5];
    for (j, slot) in lane.iter_mut().enumerate() {
        if j != hot {
            *slot = *shared_slots.next().expect("four shared slots");
        }
    }
    let transfer = core_at(5, 0, 1);
    let source = core_at(0, 0, 0);
    let (renderers, connector) = match mode {
        RendererMode::McpcRenderer => (vec![], Some(source)),
        _ => (vec![source], None),
    };
    let p = Placement {
        renderers,
        connector,
        pipelines: vec![lane],
        replicas: Vec::new(),
        transfer,
    };
    p.assert_valid();
    // The isolated tile's island hosts nothing else.
    let hot_island = scc_sim::dvfs::IslandId::of_tile(lane[hot].tile());
    for c in p.all_cores() {
        if c != lane[hot] {
            assert_ne!(
                scc_sim::dvfs::IslandId::of_tile(c.tile()),
                hot_island,
                "the bottleneck island must not be shared"
            );
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sim::dvfs::IslandId;

    fn distinct(p: &Placement) -> bool {
        let v = p.all_cores();
        let s: HashSet<_> = v.iter().collect();
        s.len() == v.len()
    }

    #[test]
    fn all_modes_and_arrangements_produce_valid_placements() {
        for mode in [
            RendererMode::SingleRenderer,
            RendererMode::PerPipelineRenderer,
            RendererMode::McpcRenderer,
        ] {
            for arr in Arrangement::all() {
                for p in 1..=mode.max_pipelines() {
                    let pl = place(mode, arr, p);
                    assert!(distinct(&pl), "{mode:?}/{arr:?}/{p}");
                    assert_eq!(pl.pipelines.len(), p as usize);
                    assert_eq!(
                        pl.all_cores().len() as u32,
                        mode.cores_needed(p),
                        "{mode:?}/{arr:?}/{p}"
                    );
                }
            }
        }
    }

    #[test]
    fn unordered_is_sequential() {
        let pl = place(RendererMode::SingleRenderer, Arrangement::Unordered, 2);
        assert_eq!(pl.renderers, vec![CoreId::new(0)]);
        assert_eq!(pl.pipelines[0][0], CoreId::new(1));
        assert_eq!(pl.pipelines[1][4], CoreId::new(10));
        assert_eq!(pl.transfer, CoreId::new(11));
    }

    #[test]
    fn unordered_pipelines_cross_rows() {
        // The defining flaw of the unordered arrangement: a pipeline can
        // start in one mesh row and end in another (12 cores per row).
        let pl = place(RendererMode::SingleRenderer, Arrangement::Unordered, 3);
        let crossing = pl.pipelines.iter().any(|p| {
            let rows: HashSet<u8> = p.iter().map(|c| c.tile().y()).collect();
            rows.len() > 1
        });
        assert!(crossing, "expected at least one row-crossing pipeline");
    }

    #[test]
    fn ordered_pipelines_stay_in_one_row() {
        let pl = place(RendererMode::PerPipelineRenderer, Arrangement::Ordered, 4);
        for (i, pipe) in pl.pipelines.iter().enumerate() {
            let rows: HashSet<u8> = pipe.iter().map(|c| c.tile().y()).collect();
            assert_eq!(rows.len(), 1, "pipeline {i} crosses rows");
            // Stages progress east.
            let xs: Vec<u8> = pipe.iter().map(|c| c.tile().x()).collect();
            assert!(xs.windows(2).all(|w| w[1] > w[0]), "not one-way: {xs:?}");
        }
        // Renderer sits west of its sepia stage.
        for (i, r) in pl.renderers.iter().enumerate() {
            assert!(r.tile().x() < pl.pipelines[i][0].tile().x());
        }
    }

    #[test]
    fn flipped_reverses_every_second_pipeline() {
        let pl = place(RendererMode::McpcRenderer, Arrangement::Flipped, 4);
        for (i, pipe) in pl.pipelines.iter().enumerate() {
            let xs: Vec<u8> = pipe.iter().map(|c| c.tile().x()).collect();
            if i % 2 == 0 {
                assert!(xs.windows(2).all(|w| w[1] > w[0]), "pipe {i}: {xs:?}");
            } else {
                assert!(xs.windows(2).all(|w| w[1] < w[0]), "pipe {i}: {xs:?}");
            }
        }
    }

    #[test]
    fn flipped_spreads_blur_across_columns() {
        // With flipping, blur stages (index 1) land on both sides of the
        // die, spreading quadrant memory-controller load.
        let flipped = place(RendererMode::McpcRenderer, Arrangement::Flipped, 4);
        let xs: HashSet<u8> = flipped.pipelines.iter().map(|p| p[1].tile().x()).collect();
        assert!(xs.len() > 1, "flipped blur columns: {xs:?}");
        let ordered = place(RendererMode::McpcRenderer, Arrangement::Ordered, 4);
        let xs_o: HashSet<u8> = ordered.pipelines.iter().map(|p| p[1].tile().x()).collect();
        assert_eq!(xs_o.len(), 1, "ordered blur stays in one column");
    }

    #[test]
    fn stage_at_inverts_placement() {
        let pl = place(RendererMode::PerPipelineRenderer, Arrangement::Ordered, 3);
        assert_eq!(
            pl.stage_at(pl.pipelines[2][1]),
            Some((StageKind::Blur, Some(2)))
        );
        assert_eq!(
            pl.stage_at(pl.renderers[1]),
            Some((StageKind::Render, Some(1)))
        );
        assert_eq!(pl.stage_at(pl.transfer), Some((StageKind::Transfer, None)));
        // Some unused core maps to nothing.
        let used: HashSet<_> = pl.all_cores().into_iter().collect();
        let free = CoreId::all().find(|c| !used.contains(c)).unwrap();
        assert_eq!(pl.stage_at(free), None);
    }

    #[test]
    fn spare_pool_is_the_unused_complement_in_id_order() {
        for mode in [
            RendererMode::SingleRenderer,
            RendererMode::PerPipelineRenderer,
            RendererMode::McpcRenderer,
        ] {
            for arr in Arrangement::all() {
                let pl = place(mode, arr, 3);
                let spares = pl.spare_pool();
                assert_eq!(
                    spares.len() as u32,
                    48 - mode.cores_needed(3),
                    "{mode:?}/{arr:?}"
                );
                // Disjoint from the placement, sorted by core id.
                let used: HashSet<_> = pl.all_cores().into_iter().collect();
                assert!(spares.iter().all(|c| !used.contains(c)));
                assert!(spares.windows(2).all(|w| w[0].raw() < w[1].raw()));
                // Deterministic.
                assert_eq!(spares, place(mode, arr, 3).spare_pool());
            }
        }
    }

    #[test]
    fn nine_pipelines_fit_via_spare_column() {
        let pl = place(RendererMode::McpcRenderer, Arrangement::Ordered, 9);
        assert!(distinct(&pl));
        assert_eq!(pl.all_cores().len(), 47);
    }

    #[test]
    fn dvfs_placement_isolates_blur_island() {
        for mode in [RendererMode::McpcRenderer, RendererMode::SingleRenderer] {
            let pl = place_dvfs_single_pipeline(mode);
            let blur = pl.pipelines[0][1];
            let blur_island = IslandId::of_tile(blur.tile());
            for c in pl.all_cores() {
                if c == blur {
                    continue;
                }
                assert_ne!(
                    IslandId::of_tile(c.tile()),
                    blur_island,
                    "{c} shares blur's voltage island"
                );
            }
        }
    }

    #[test]
    fn dvfs_downstream_stages_share_islands_for_undervolting() {
        // Scratch, flicker, swap and transfer should sit in one island so
        // a single island can be dropped to 0.7 V (§VI-D).
        let pl = place_dvfs_single_pipeline(RendererMode::McpcRenderer);
        let downstream = [
            pl.pipelines[0][2],
            pl.pipelines[0][3],
            pl.pipelines[0][4],
            pl.transfer,
        ];
        let islands: HashSet<IslandId> = downstream
            .iter()
            .map(|c| IslandId::of_tile(c.tile()))
            .collect();
        assert_eq!(islands.len(), 1, "downstream stages span {islands:?}");
    }
}

impl Placement {
    /// ASCII map of the die: 6×4 tile grid, two characters per tile (one
    /// per core). `R` render, `C` connector, `T` transfer, `s b c f w`
    /// the filter stages, `.` unused — the textual cousin of the paper's
    /// Figures 3–5.
    pub fn ascii_map(&self) -> String {
        let mut grid = vec!['.'; NUM_CORES as usize];
        for c in CoreId::all() {
            if let Some((kind, _)) = self.stage_at(c) {
                grid[c.index()] = match kind {
                    StageKind::Render => 'R',
                    StageKind::Connect => 'C',
                    StageKind::Sepia => 's',
                    StageKind::Blur => 'b',
                    StageKind::Scratch => 'c',
                    StageKind::Flicker => 'f',
                    StageKind::Swap => 'w',
                    StageKind::Transfer => 'T',
                };
            }
        }
        // Row y=MESH_H-1 on top (north up), like the paper's figures.
        let mut out = String::new();
        for y in (0..MESH_H).rev() {
            for x in 0..MESH_W {
                let t = TileId::from_xy(x, y);
                let cores = t.cores();
                out.push(grid[cores[0].index()]);
                out.push(grid[cores[1].index()]);
                if x + 1 < MESH_W {
                    out.push(' ');
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod ascii_tests {
    use super::*;

    #[test]
    fn map_shows_every_stage_once_per_assignment() {
        let p = place(RendererMode::McpcRenderer, Arrangement::Ordered, 3);
        let map = p.ascii_map();
        assert_eq!(map.lines().count(), 4);
        assert_eq!(map.matches('C').count(), 1);
        assert_eq!(map.matches('T').count(), 1);
        assert_eq!(map.matches('b').count(), 3, "one blur per pipeline");
        assert_eq!(map.matches('s').count(), 3);
        // Unused cores shown as dots: 48 - 17 used.
        assert_eq!(map.matches('.').count(), 48 - 17);
    }

    #[test]
    fn ordered_map_reads_left_to_right() {
        let p = place(RendererMode::PerPipelineRenderer, Arrangement::Ordered, 1);
        let map = p.ascii_map();
        // The single pipeline occupies the bottom row: R s b c f w west
        // to east on slot 0 of each tile.
        let bottom = map.lines().last().unwrap();
        let stages: String = bottom.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(stages.starts_with("R.s.b.c.f.w."), "bottom row: {stages}");
    }
}
