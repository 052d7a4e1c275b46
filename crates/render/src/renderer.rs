//! The render stage proper: frustum-cull the octree, rasterise the strip.
//!
//! Ties the scene, octree, camera and rasteriser together behind the API
//! the macro pipeline's render stage uses: *give me frame `f`'s pixels for
//! image rows `y0..y0+h`*, with the workload statistics the cost model
//! needs.

use crate::camera::Camera;
use crate::frustum::Frustum;
use crate::octree::{CullStats, Octree};
use crate::probe::ProbeKey;
use crate::raster::{estimate_coverage, new_zbuf, rasterize, RasterStats};
use crate::scene::Scene;
use scc_filters::Image;
use std::sync::Arc;

/// Workload statistics of one strip render.
#[derive(Debug, Clone, Copy, Default)]
pub struct RenderStats {
    pub cull: CullStats,
    pub raster: RasterStats,
}

/// A renderer bound to one scene (shared, read-only). The octree and the
/// probe memo live with the scene, so every renderer on one `Arc<Scene>`
/// shares them.
pub struct Renderer {
    scene: Arc<Scene>,
}

impl Renderer {
    /// Bind to `scene`, building its octree if no renderer has yet. From
    /// here on the scene must not change (see [`Scene`]).
    pub fn new(scene: Arc<Scene>) -> Renderer {
        let octree = scene.octree();
        debug_assert_eq!(
            octree.triangle_count(),
            scene.triangles.len(),
            "scene edited after its octree was built"
        );
        Renderer { scene }
    }

    /// Share the same scene/octree with another pipeline's renderer —
    /// mirrors the n-renderer configuration where every render core loads
    /// the same model.
    pub fn clone_shared(&self) -> Renderer {
        Renderer {
            scene: Arc::clone(&self.scene),
        }
    }

    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    pub fn octree(&self) -> &Octree {
        self.scene.octree()
    }

    /// Frustum-cull the strip's view without rasterising: visible triangle
    /// indices, traversal stats and an analytic fill-coverage estimate,
    /// computed afresh. The timing-only simulation asks
    /// [`Renderer::cull_stats`] and [`Renderer::coverage`] instead, which
    /// return exactly these numbers and remember them.
    pub fn cull_strip(
        &self,
        camera: &Camera,
        width: u32,
        full_height: u32,
        y0: u32,
        h: u32,
    ) -> (Vec<u32>, CullStats, u64) {
        let mvp = camera.strip_view_projection(full_height, y0, h);
        let mut visible = Vec::new();
        let cull = self
            .octree()
            .cull(&Frustum::from_matrix(&mvp), &mut visible);
        let coverage = estimate_coverage(&self.scene.triangles, &visible, &mvp, width, h);
        (visible, cull, coverage)
    }

    /// What culling rows `y0..y0+h` costs: the octree traversal's stats,
    /// without the coverage estimate (a hundred times the cull's price).
    /// Both fidelity modes charge render cost from these numbers. `width`
    /// does not change the cull; it names the strip, so that one memo
    /// entry serves this question and [`Renderer::coverage`].
    pub fn cull_stats(
        &self,
        camera: &Camera,
        width: u32,
        full_height: u32,
        y0: u32,
        h: u32,
    ) -> CullStats {
        let mvp = camera.strip_view_projection(full_height, y0, h);
        let key = ProbeKey::new(&mvp, width, h);
        if let Some(cull) = self.scene.probes.cull(&key) {
            return cull;
        }
        let cull = self
            .octree()
            .cull(&Frustum::from_matrix(&mvp), &mut Vec::new());
        self.scene.probes.record(key, cull, None);
        cull
    }

    /// The analytic fill-coverage estimate of rows `y0..y0+h`, in pixels.
    /// Computing it runs the cull, whose stats are remembered alongside.
    pub fn coverage(&self, camera: &Camera, width: u32, full_height: u32, y0: u32, h: u32) -> u64 {
        let mvp = camera.strip_view_projection(full_height, y0, h);
        let key = ProbeKey::new(&mvp, width, h);
        if let Some(coverage) = self.scene.probes.coverage(&key) {
            return coverage;
        }
        let (_, cull, coverage) = self.cull_strip(camera, width, full_height, y0, h);
        self.scene.probes.record(key, cull, Some(coverage));
        coverage
    }

    /// Render image rows `y0..y0+h` of a `width`×`full_height` frame seen
    /// by `camera`. Returns the strip image and workload stats.
    pub fn render_strip(
        &self,
        camera: &Camera,
        width: u32,
        full_height: u32,
        y0: u32,
        h: u32,
    ) -> (Image, RenderStats) {
        let mvp = camera.strip_view_projection(full_height, y0, h);
        let mut visible = Vec::new();
        let cull = self
            .octree()
            .cull(&Frustum::from_matrix(&mvp), &mut visible);
        let mut img = Image::new(width, h);
        // Sky gradient background so the silent film has something to
        // flicker over even where no geometry lands.
        for y in 0..h {
            let t = (y0 + y) as f32 / full_height as f32;
            let r = (150.0 - 60.0 * t) as u8;
            let g = (170.0 - 50.0 * t) as u8;
            let b = (200.0 - 40.0 * t) as u8;
            for x in 0..width {
                img.set(x, y, [r, g, b, 255]);
            }
        }
        let mut zbuf = new_zbuf(width, h);
        let raster = rasterize(&self.scene.triangles, &visible, &mvp, &mut img, &mut zbuf);
        (img, RenderStats { cull, raster })
    }

    /// Render a complete frame (a single strip covering every row).
    pub fn render_full(&self, camera: &Camera, width: u32, height: u32) -> (Image, RenderStats) {
        self.render_strip(camera, width, height, 0, height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Walkthrough;
    use crate::scene::CityConfig;

    fn small_renderer() -> Renderer {
        Renderer::new(Arc::new(Scene::city(CityConfig {
            side: 10,
            spacing: 8.0,
            seed: 7,
        })))
    }

    #[test]
    fn full_render_draws_buildings() {
        let r = small_renderer();
        let cam = Walkthrough::standard(1.0).camera(0);
        let (img, stats) = r.render_full(&cam, 64, 64);
        assert!(stats.raster.pixels_written > 0, "nothing rendered");
        assert!(stats.cull.triangles_out > 0);
        assert!(
            stats.cull.triangles_out < r.scene().triangle_count() as u64,
            "culling removed nothing"
        );
        // Image is not uniform (buildings against sky).
        let first = img.get(0, 0);
        let mut uniform = true;
        'outer: for y in 0..64 {
            for x in 0..64 {
                if img.get(x, y) != first {
                    uniform = false;
                    break 'outer;
                }
            }
        }
        assert!(!uniform);
    }

    #[test]
    fn strips_compose_to_full_frame() {
        let r = small_renderer();
        let cam = Walkthrough::standard(1.0).camera(13);
        let (full, _) = r.render_full(&cam, 48, 48);
        let mut mismatches = 0u32;
        for strips in [2u32, 3] {
            let bounds = Image::strip_bounds(48, strips);
            let mut y_acc = 0;
            for (y0, h) in bounds {
                let (strip, _) = r.render_strip(&cam, 48, 48, y0, h);
                for sy in 0..h {
                    for x in 0..48 {
                        if strip.get(x, sy) != full.get(x, y0 + sy) {
                            mismatches += 1;
                        }
                    }
                }
                y_acc += h;
            }
            assert_eq!(y_acc, 48);
        }
        // Strip rendering re-derives sample positions through a different
        // matrix; allow a small fraction of boundary pixels to differ from
        // floating-point rounding, but the images must be essentially
        // identical.
        let total = 48 * 48 * 2;
        assert!(
            mismatches < total / 50,
            "{mismatches}/{total} pixels differ between strip and full render"
        );
    }

    #[test]
    fn deterministic_rendering() {
        let r = small_renderer();
        let cam = Walkthrough::standard(1.0).camera(99);
        let (a, sa) = r.render_full(&cam, 32, 32);
        let (b, sb) = r.render_full(&cam, 32, 32);
        assert_eq!(a, b);
        assert_eq!(sa.raster, sb.raster);
        assert_eq!(sa.cull, sb.cull);
    }

    /// The property a recycled render target must keep: what a renderer
    /// drew before — another pose, another size — leaves no trace in the
    /// next strip.
    #[test]
    fn render_strip_does_not_depend_on_the_previous_render() {
        let r = small_renderer();
        let w = Walkthrough::standard(64.0 / 48.0);
        let cam = w.camera(21);
        let (first, s1) = r.render_strip(&cam, 64, 48, 16, 16);
        let _ = r.render_full(&w.camera(300), 96, 80);
        let _ = r.render_strip(&w.camera(5), 32, 48, 40, 8);
        let (again, s2) = r.render_strip(&cam, 64, 48, 16, 16);
        assert_eq!(first, again);
        assert_eq!(s1.raster, s2.raster);
        assert_eq!(s1.cull, s2.cull);
    }

    #[test]
    fn shared_clone_uses_same_octree() {
        let r = small_renderer();
        let r2 = r.clone_shared();
        assert!(std::ptr::eq(r.octree(), r2.octree()));
        // So does a renderer built separately on the same scene.
        let r3 = Renderer::new(Arc::clone(&r.scene));
        assert!(std::ptr::eq(r.octree(), r3.octree()));
    }

    #[test]
    fn different_frames_see_different_geometry() {
        let r = small_renderer();
        let w = Walkthrough::standard(1.0);
        let (_, s0) = r.render_full(&w.camera(0), 32, 32);
        let (_, s200) = r.render_full(&w.camera(200), 32, 32);
        assert_ne!(
            s0.cull.triangles_out, s200.cull.triangles_out,
            "walkthrough should vary the visible set"
        );
    }

    #[test]
    fn narrow_strip_culls_harder_than_full() {
        let r = small_renderer();
        let cam = Walkthrough::standard(1.0).camera(40);
        let (_, full) = r.render_full(&cam, 64, 64);
        let (_, strip) = r.render_strip(&cam, 64, 64, 0, 16);
        assert!(strip.cull.triangles_out <= full.cull.triangles_out);
    }
}
