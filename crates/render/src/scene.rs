//! Procedural city scene — the stand-in for the paper's NYC CAD model.
//!
//! A seeded grid of box buildings with varied footprints, heights and
//! facade colours plus a ground plane. The triangle count is tunable so
//! benches can sweep scene complexity ("the running time of this stage
//! depends on … the complexity of the scene", §IV).

use crate::math::vec3;
use crate::mesh::{push_box, Aabb, Triangle};
use crate::octree::{Octree, OctreeConfig};
use crate::probe::ProbeMemo;
use scc_filters::SplitMix;
use std::sync::OnceLock;

/// City generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct CityConfig {
    /// Buildings per side (total ≈ side² buildings ≈ 12·side² triangles).
    pub side: u32,
    /// Street spacing between building centres.
    pub spacing: f32,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            side: 24,
            spacing: 8.0,
            seed: 0xC17B_0A5E,
        }
    }
}

/// The generated scene, with the state derived from its triangles: the
/// octree (built on first use, then shared by every
/// [`Renderer`](crate::Renderer) on the scene) and the memo of workload
/// probe results (DESIGN.md §20).
///
/// A `Scene` is immutable once a `Renderer` has been built on it:
/// `triangles` stays a `pub` field for readers, but the octree indexes it
/// and the memo holds answers computed from it, so editing it afterwards
/// would leave both describing geometry that is gone. Build a new `Scene`
/// instead.
#[derive(Debug)]
pub struct Scene {
    pub triangles: Vec<Triangle>,
    pub bounds: Aabb,
    octree: OnceLock<Octree>,
    pub(crate) probes: ProbeMemo,
}

impl Scene {
    /// A scene over `triangles`; nothing derived is built yet (and nothing
    /// is allocated for it).
    pub(crate) fn from_triangles(triangles: Vec<Triangle>) -> Scene {
        let mut bounds = Aabb::EMPTY;
        for t in &triangles {
            bounds = bounds.union(&t.aabb());
        }
        Scene {
            triangles,
            bounds,
            octree: OnceLock::new(),
            probes: ProbeMemo::default(),
        }
    }

    /// The octree over `triangles`, built by the first caller.
    pub fn octree(&self) -> &Octree {
        self.octree
            .get_or_init(|| Octree::build(&self.triangles, OctreeConfig::default()))
    }

    /// Entries in the probe memo (what [`Renderer::cull_stats`] and
    /// [`Renderer::coverage`] have answered on this scene so far).
    ///
    /// [`Renderer::cull_stats`]: crate::Renderer::cull_stats
    /// [`Renderer::coverage`]: crate::Renderer::coverage
    pub fn probe_memo_len(&self) -> usize {
        self.probes.len()
    }

    /// Generate the procedural city.
    pub fn city(cfg: CityConfig) -> Scene {
        assert!(cfg.side >= 1);
        let mut rng = SplitMix::new(cfg.seed);
        let half = cfg.side as f32 * cfg.spacing * 0.5;
        // Cell (i, j)'s centre, or `None` inside the plaza left at the
        // middle so the camera orbit stays outside the buildings.
        let building_at = |i: u32, j: u32| {
            let cx = i as f32 * cfg.spacing - half + cfg.spacing * 0.5;
            let cz = j as f32 * cfg.spacing - half + cfg.spacing * 0.5;
            if cx * cx + cz * cz < (cfg.spacing * 2.5) * (cfg.spacing * 2.5) {
                None
            } else {
                Some((cx, cz))
            }
        };
        // Reserve what the city will hold — a box is 12 triangles — and
        // not a box for every cell: a ground-only scene then allocates
        // 96 bytes rather than kilobytes it never fills.
        let buildings = (0..cfg.side)
            .flat_map(|i| (0..cfg.side).map(move |j| (i, j)))
            .filter(|&(i, j)| building_at(i, j).is_some())
            .count();
        let mut tris = Vec::with_capacity(12 * buildings + 2);

        // Ground plane (two big triangles).
        let g = 1.2 * half;
        let ground_col = [70, 72, 68];
        tris.push(Triangle::new(
            vec3(-g, 0.0, -g),
            vec3(g, 0.0, -g),
            vec3(g, 0.0, g),
            ground_col,
        ));
        tris.push(Triangle::new(
            vec3(-g, 0.0, -g),
            vec3(g, 0.0, g),
            vec3(-g, 0.0, g),
            ground_col,
        ));

        for i in 0..cfg.side {
            for j in 0..cfg.side {
                let Some((cx, cz)) = building_at(i, j) else {
                    continue;
                };
                let w = rng.gen_range(0.25..0.45) * cfg.spacing;
                let d = rng.gen_range(0.25..0.45) * cfg.spacing;
                let h = rng.gen_range(4.0..28.0);
                let shade = rng.gen_range(90..200) as u8;
                let tint = rng.gen_range(0..3);
                let color = match tint {
                    0 => [shade, shade.saturating_sub(10), shade.saturating_sub(25)],
                    1 => [shade.saturating_sub(15), shade, shade.saturating_sub(5)],
                    _ => [shade.saturating_sub(5), shade.saturating_sub(12), shade],
                };
                push_box(
                    &mut tris,
                    &Aabb::new(vec3(cx - w, 0.0, cz - d), vec3(cx + w, h, cz + d)),
                    color,
                );
            }
        }

        Scene::from_triangles(tris)
    }

    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }
}

/// Parameters for the Manhattan-style variant.
#[derive(Debug, Clone, Copy)]
pub struct ManhattanConfig {
    /// City blocks per side.
    pub blocks: u32,
    /// Street-to-street block pitch.
    pub block_pitch: f32,
    /// Buildings per block side (buildings per block = side²).
    pub per_block: u32,
    pub seed: u64,
}

impl Default for ManhattanConfig {
    fn default() -> Self {
        ManhattanConfig {
            blocks: 7,
            block_pitch: 26.0,
            per_block: 2,
            seed: 0x4E59_C0DE,
        }
    }
}

impl Scene {
    /// A Manhattan-style street grid: square blocks of tightly packed
    /// towers separated by wide avenues — closer to the paper's NYC
    /// walkthrough model than the default scattered city, with the
    /// central avenue kept clear for the camera orbit.
    pub fn manhattan(cfg: ManhattanConfig) -> Scene {
        assert!(cfg.blocks >= 1 && cfg.per_block >= 1);
        let mut rng = SplitMix::new(cfg.seed);
        let mut tris = Vec::new();
        let half = cfg.blocks as f32 * cfg.block_pitch * 0.5;

        let g = 1.15 * half;
        let ground = [64, 66, 62];
        tris.push(Triangle::new(
            vec3(-g, 0.0, -g),
            vec3(g, 0.0, -g),
            vec3(g, 0.0, g),
            ground,
        ));
        tris.push(Triangle::new(
            vec3(-g, 0.0, -g),
            vec3(g, 0.0, g),
            vec3(-g, 0.0, g),
            ground,
        ));

        // Street width = 35% of pitch; buildings fill the block interior.
        let street = 0.35 * cfg.block_pitch;
        let lot = (cfg.block_pitch - street) / cfg.per_block as f32;
        for bi in 0..cfg.blocks {
            for bj in 0..cfg.blocks {
                let bx = bi as f32 * cfg.block_pitch - half + street * 0.5;
                let bz = bj as f32 * cfg.block_pitch - half + street * 0.5;
                // Keep a plaza in the centre for the camera.
                let cx = bx + (cfg.block_pitch - street) * 0.5;
                let cz = bz + (cfg.block_pitch - street) * 0.5;
                if cx * cx + cz * cz < (1.6 * cfg.block_pitch) * (1.6 * cfg.block_pitch) {
                    continue;
                }
                for i in 0..cfg.per_block {
                    for j in 0..cfg.per_block {
                        let x0 = bx + i as f32 * lot + 0.08 * lot;
                        let z0 = bz + j as f32 * lot + 0.08 * lot;
                        let x1 = x0 + 0.84 * lot;
                        let z1 = z0 + 0.84 * lot;
                        // Manhattan-ish height distribution: many mid-rise,
                        // occasional towers.
                        let h = if rng.gen_range(0..8) == 0 {
                            rng.gen_range(30.0..60.0)
                        } else {
                            rng.gen_range(6.0..22.0)
                        };
                        let shade = rng.gen_range(95..190) as u8;
                        let color = [shade, shade.saturating_sub(8), shade.saturating_sub(18)];
                        push_box(
                            &mut tris,
                            &Aabb::new(vec3(x0, 0.0, z0), vec3(x1, h, z1)),
                            color,
                        );
                    }
                }
            }
        }

        Scene::from_triangles(tris)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Scene::city(CityConfig::default());
        let b = Scene::city(CityConfig::default());
        assert_eq!(a.triangle_count(), b.triangle_count());
        assert_eq!(a.triangles[100], b.triangles[100]);
    }

    #[test]
    fn city_reserves_exactly_what_it_holds() {
        // The plaza swallows all of a 4x4 city: two ground triangles, and
        // no kilobytes reserved for buildings that are never placed.
        let flat = Scene::city(CityConfig {
            side: 4,
            ..Default::default()
        });
        assert_eq!((flat.triangles.len(), flat.triangles.capacity()), (2, 2));
        let city = Scene::city(CityConfig::default());
        assert_eq!(
            (city.triangles.len(), city.triangles.capacity()),
            (6722, 6722)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scene::city(CityConfig {
            seed: 1,
            ..Default::default()
        });
        let b = Scene::city(CityConfig {
            seed: 2,
            ..Default::default()
        });
        assert_eq!(a.triangle_count(), b.triangle_count());
        assert!(a.triangles.iter().zip(&b.triangles).any(|(x, y)| x != y));
    }

    #[test]
    fn size_scales_with_side() {
        let small = Scene::city(CityConfig {
            side: 8,
            ..Default::default()
        });
        let large = Scene::city(CityConfig {
            side: 24,
            ..Default::default()
        });
        assert!(large.triangle_count() > small.triangle_count() * 4);
    }

    #[test]
    fn buildings_stand_on_the_ground() {
        let s = Scene::city(CityConfig::default());
        assert!(s.bounds.min.y >= -1e-3, "geometry below ground");
        assert!(s.bounds.max.y > 4.0, "no building has height");
    }

    #[test]
    fn plaza_is_clear_for_the_camera() {
        // No building triangle within the central plaza radius (ground
        // triangles excluded by their y extent).
        let cfg = CityConfig::default();
        let s = Scene::city(cfg);
        let clear_r = cfg.spacing * 2.0;
        for t in &s.triangles[2..] {
            let c = t.centroid();
            let r = (c.x * c.x + c.z * c.z).sqrt();
            assert!(
                r > clear_r - cfg.spacing * 0.5,
                "building at radius {r} blocks the plaza"
            );
        }
    }
}

#[cfg(test)]
mod manhattan_tests {
    use super::*;

    #[test]
    fn manhattan_is_deterministic_and_sized() {
        let a = Scene::manhattan(ManhattanConfig::default());
        let b = Scene::manhattan(ManhattanConfig::default());
        assert_eq!(a.triangle_count(), b.triangle_count());
        assert!(
            a.triangle_count() > 1500,
            "{} triangles",
            a.triangle_count()
        );
        assert!(a.bounds.max.y > 25.0, "towers expected");
    }

    #[test]
    fn streets_are_clear() {
        // No building geometry inside the avenue strips between blocks.
        let cfg = ManhattanConfig::default();
        let s = Scene::manhattan(cfg);
        let half = cfg.blocks as f32 * cfg.block_pitch * 0.5;
        // The avenue centred on x = -half + k*pitch (block boundaries).
        for t in &s.triangles[2..] {
            let c = t.centroid();
            let rel = (c.x + half) / cfg.block_pitch;
            let frac = rel - rel.floor();
            let street_frac = 0.35 * 0.5 / 1.0; // half street width / pitch
            assert!(
                frac > street_frac * 0.9 || c.y < 0.01,
                "building at x-fraction {frac:.3} blocks an avenue"
            );
        }
    }

    #[test]
    fn walkthrough_renders_on_manhattan() {
        use crate::camera::Walkthrough;
        use crate::renderer::Renderer;
        use std::sync::Arc;
        let scene = Arc::new(Scene::manhattan(ManhattanConfig {
            blocks: 5,
            ..Default::default()
        }));
        let r = Renderer::new(scene);
        let cam = Walkthrough::standard(1.0).camera(50);
        let (_, stats) = r.render_full(&cam, 64, 64);
        assert!(stats.raster.pixels_written > 0);
        assert!(stats.cull.triangles_out > 0);
    }
}
