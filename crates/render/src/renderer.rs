//! The render stage proper: frustum-cull the octree, rasterise the strip.
//!
//! Ties the scene, octree, camera and rasteriser together behind the API
//! the macro pipeline's render stage uses: *give me frame `f`'s pixels for
//! image rows `y0..y0+h`*, with the workload statistics the cost model
//! needs.

use crate::camera::Camera;
use crate::frustum::Frustum;
use crate::math::Mat4;
use crate::octree::{CullStats, Octree};
use crate::probe::ProbeKey;
use crate::raster::{estimate_coverage, FrameSetup, RasterStats};
use crate::scene::Scene;
use scc_filters::{fan_out, Image, BYTES_PER_PIXEL};
use std::sync::Arc;

/// Rows per band of [`Renderer::render_bands`]: 16 bands of a 400-row
/// frame, 2 of a 64-row one — enough jobs for two to four host threads to
/// even out a frame whose buildings crowd a few rows, few enough that each
/// band's pass over the frame's chunk groups stays a small share of its
/// fill (DESIGN.md §19).
pub const BAND_ROWS: u32 = 25;

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
        let mut img = Image::new(width, h);
        let (mut zbuf, mut setup) = (Vec::new(), FrameSetup::default());
        let stats =
            self.render_strip_into(camera, full_height, y0, &mut img, &mut zbuf, &mut setup);
        (img, stats)
    }

    /// [`Renderer::render_strip`] into a target the caller keeps: `img`
    /// gives the strip's width and height and is overwritten whole, `zbuf`
    /// is re-sized and re-filled, and the strip is set up into `setup`
    /// (its allocations reused) and filled as one band. None of them has
    /// to hold anything on entry.
    pub fn render_strip_into(
        &self,
        camera: &Camera,
        full_height: u32,
        y0: u32,
        img: &mut Image,
        zbuf: &mut Vec<f32>,
        setup: &mut FrameSetup,
    ) -> RenderStats {
        let (width, h) = (img.width(), img.height());
        let mvp = camera.strip_view_projection(full_height, y0, h);
        let cull = self.set_up(&mvp, width, h, setup);
        zbuf.resize(img.pixel_count() as usize, f32::INFINITY);
        let mut raster = setup.stats();
        render_band(
            setup,
            (y0, full_height),
            0,
            img.as_bytes_mut(),
            zbuf,
            &mut raster,
        );
        RenderStats { cull, raster }
    }

    /// Cull the frame `camera` sees at `width`×`height` once and group and
    /// bound the visible triangles once, into `setup` (its allocations
    /// reused): the per-frame half of [`Renderer::render_strip_into`] for a
    /// whole frame, ahead of [`Renderer::render_bands`].
    pub fn set_up_frame(
        &self,
        camera: &Camera,
        width: u32,
        height: u32,
        setup: &mut FrameSetup,
    ) -> CullStats {
        let mvp = camera.strip_view_projection(height, 0, height);
        self.set_up(&mvp, width, height, setup)
    }

    /// Cull the view `mvp` and group what it sees onto a `width`×`h`
    /// target, into `setup`.
    fn set_up(&self, mvp: &Mat4, width: u32, h: u32, setup: &mut FrameSetup) -> CullStats {
        setup.visible.clear();
        let cull = self
            .octree()
            .cull(&Frustum::from_matrix(mvp), &mut setup.visible);
        setup.set_up(&self.scene, mvp, width, h);
        cull
    }

    /// Render a set-up frame into `strips`, which tile its rows top to
    /// bottom, in bands of `band_rows` rows (a strip's last band may be
    /// shorter) spread over up to `threads` host threads, the caller one
    /// of them. `zbuf` is the frame's z-buffer, re-sized to it; neither it
    /// nor the strips have to hold anything on entry. The strips come out
    /// as the rows [`Renderer::render_strip_into`] draws for the whole
    /// frame, and the stats as its raster stats.
    pub fn render_bands(
        setup: &FrameSetup,
        strips: &mut [Image],
        zbuf: &mut Vec<f32>,
        band_rows: u32,
        threads: usize,
    ) -> RasterStats {
        let (w, h) = (setup.width() as usize, setup.height);
        assert_eq!(
            strips.iter().map(Image::height).sum::<u32>(),
            h,
            "strips do not tile the frame"
        );
        assert!(strips.iter().all(|s| s.width() as usize == w));
        assert!(band_rows > 0, "empty bands");
        let stats = setup.stats();
        if w == 0 {
            return stats;
        }
        zbuf.resize(w * h as usize, f32::INFINITY);
        let bands: u32 = strips.iter().map(|s| s.height().div_ceil(band_rows)).sum();
        let band_px = band_rows as usize * w;
        // Each strip's rows and the matching z rows, cut into bands; the
        // iterator hands each band out once, lazily, to whichever thread
        // claims it.
        let (mut top, mut z_rest) = (0u32, zbuf.as_mut_slice());
        let jobs = strips.iter_mut().flat_map(|strip| {
            let z;
            (z, z_rest) = std::mem::take(&mut z_rest).split_at_mut(strip.pixel_count() as usize);
            let first = top;
            top += strip.height();
            strip
                .as_bytes_mut()
                .chunks_mut(band_px * BYTES_PER_PIXEL)
                .zip(z.chunks_mut(band_px))
                .zip((first..).step_by(band_rows as usize))
        });
        let filled = fan_out(
            threads.min(bands as usize),
            jobs,
            |acc, ((pix, z), band_top)| render_band(setup, (0, h), band_top, pix, z, acc),
            |acc: &mut RasterStats, theirs| {
                acc.triangles_filled += theirs.triangles_filled;
                acc.pixels_covered += theirs.pixels_covered;
                acc.pixels_written += theirs.pixels_written;
            },
        );
        RasterStats {
            triangles_in: stats.triangles_in,
            ..filled
        }
    }

    /// Render a complete frame (a single strip covering every row).
    pub fn render_full(&self, camera: &Camera, width: u32, height: u32) -> (Image, RenderStats) {
        self.render_strip(camera, width, height, 0, height)
    }
}

/// Render rows `top..` of a set-up strip into a band: `pix` and `zbuf`
/// hold those rows and nothing has to be in them on entry. The strip's
/// row 0 is row `y0` of a `full_height`-row frame, whose sky the band is
/// cleared to, over an empty depth, before the frame's chunk queue is
/// filled over it; its set-up and pixel counters are added to `stats`.
fn render_band(
    setup: &FrameSetup,
    (y0, full_height): (u32, u32),
    top: u32,
    pix: &mut [u8],
    zbuf: &mut [f32],
    stats: &mut RasterStats,
) {
    setup.fill_band(top, pix, zbuf, stats, |pix, zbuf| {
        draw_sky(pix, setup.width(), y0 + top, full_height);
        zbuf.fill(f32::INFINITY);
    });
}

/// The sky gradient behind the geometry, so the silent film has something
/// to flicker over even where nothing lands: `pix` holds `width`-wide rows
/// `top..` of a `full_height`-row frame.
fn draw_sky(pix: &mut [u8], width: u32, top: u32, full_height: u32) {
    let row_bytes = width as usize * BYTES_PER_PIXEL;
    if row_bytes == 0 {
        return;
    }
    for (y, row) in (top..).zip(pix.chunks_exact_mut(row_bytes)) {
        let t = y as f32 / full_height as f32;
        let r = (150.0 - 60.0 * t) as u8;
        let g = (170.0 - 50.0 * t) as u8;
        let b = (200.0 - 40.0 * t) as u8;
        for px in row.chunks_exact_mut(4) {
            px.copy_from_slice(&[r, g, b, 255]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Walkthrough;
    use crate::frame_pins::{Geometry, GEOMETRIES};
    use crate::frustum::Frustum;
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

    /// `render_strip_into` over a target full of `0xAB`, a z-buffer of the
    /// wrong length full of `-1.0` (nearer than anything) and the set-up
    /// list of the case before equals `render_strip`, on the geometries
    /// `raster_pins` pins: the standard city at 400x400 and at the serving
    /// sizes.
    #[test]
    fn render_strip_into_overwrites_a_dirty_target() {
        let r = Renderer::new(Arc::new(Scene::city(CityConfig::default())));
        // (frame, width, full height, pipelines, strip).
        let cases = [
            (0, 400, 400, 1, 0),
            (133, 400, 400, 1, 0),
            (266, 400, 400, 1, 0),
            (57, 400, 400, 2, 1),
            (200, 400, 400, 3, 0),
            (200, 400, 400, 3, 2),
            (311, 400, 400, 7, 3),
            (399, 400, 400, 7, 6),
            (0, 64, 64, 1, 0),
            (133, 64, 64, 1, 0),
            (266, 64, 64, 1, 0),
            (57, 64, 64, 2, 1),
            (200, 32, 24, 1, 0),
        ];
        let mut setup = FrameSetup::default();
        for (frame, w, full_h, pipelines, strip) in cases {
            let (y0, h) = Image::strip_bounds(full_h, pipelines)[strip];
            let cam = Walkthrough::standard(w as f32 / full_h as f32).camera(frame);
            let (want, want_stats) = r.render_strip(&cam, w, full_h, y0, h);
            let mut img = Image::new(w, h);
            img.fill([0xAB; 4]);
            let mut zbuf = vec![-1.0f32; (w * h) as usize / 2 + frame as usize];
            let stats = r.render_strip_into(&cam, full_h, y0, &mut img, &mut zbuf, &mut setup);
            let name = format!("f{frame} {w}x{full_h} p{pipelines} s{strip}");
            assert_eq!(img, want, "{name}");
            assert_eq!(stats.raster, want_stats.raster, "{name}");
            assert_eq!(stats.cull, want_stats.cull, "{name}");
            assert_eq!(zbuf.len(), (w * h) as usize, "{name}");
        }
    }

    /// One target, one z-buffer and one set-up list through ten
    /// consecutive poses, as a source thread keeps them, with the strip geometry changing twice
    /// on the way (the buffer keeps its stale bytes, as a pooled one
    /// does).
    #[test]
    fn render_strip_into_recycles_one_target_across_poses_and_sizes() {
        let r = small_renderer();
        let mut img = Image::new(64, 48);
        let (mut zbuf, mut setup) = (Vec::new(), FrameSetup::default());
        for frame in 0..10u64 {
            // (width, full height, y0, rows).
            let (w, full_h, y0, h) = match frame {
                0..=3 => (64, 48, 0, 48),
                4..=6 => (32, 48, 24, 24),
                _ => (96, 64, 16, 40),
            };
            if (img.width(), img.height()) != (w, h) {
                let mut raw = img.into_raw();
                raw.resize((w * h) as usize * 4, 0xAB);
                img = Image::from_raw(w, h, raw);
            }
            let cam = Walkthrough::standard(w as f32 / full_h as f32).camera(frame * 37);
            let stats = r.render_strip_into(&cam, full_h, y0, &mut img, &mut zbuf, &mut setup);
            let (want, want_stats) = r.render_strip(&cam, w, full_h, y0, h);
            assert_eq!(img, want, "frame {frame}");
            assert_eq!(stats.raster, want_stats.raster, "frame {frame}");
            assert_eq!(stats.cull, want_stats.cull, "frame {frame}");
        }
    }

    /// `frame` at `g` through [`Renderer::set_up_frame`] and
    /// [`Renderer::render_bands`] into the strips of `pipelines` pipelines,
    /// on dirty targets: strips full of `0xAB`, and whatever `zbuf` and
    /// `setup` hold from the frame before. Returns the strips' rows as one
    /// image and the stats.
    fn banded(
        g: &Geometry,
        r: &Renderer,
        frame: u64,
        (pipelines, band_rows): (u32, u32),
        setup: &mut FrameSetup,
        zbuf: &mut Vec<f32>,
    ) -> (Image, RasterStats) {
        let cam = g.walkthrough().camera(frame);
        let cull = r.set_up_frame(&cam, g.width, g.height, setup);
        assert_eq!(cull.triangles_out, setup.visible.len() as u64);
        let mut strips: Vec<Image> = Image::strip_bounds(g.height, pipelines)
            .iter()
            .map(|&(_, h)| {
                let mut strip = Image::new(g.width, h);
                strip.fill([0xAB; 4]);
                strip
            })
            .collect();
        let stats = Renderer::render_bands(setup, &mut strips, zbuf, band_rows, 3);
        let rows = strips.into_iter().flat_map(Image::into_raw).collect();
        (Image::from_raw(g.width, g.height, rows), stats)
    }

    /// The triangles each band of a [`banded`] run sets up: the set-up
    /// frame `setup` drawn again band by band, as
    /// [`Renderer::render_bands`] cuts the strips of `pipelines` pipelines
    /// into bands of `band_rows` rows.
    fn band_set_ups(
        setup: &FrameSetup,
        g: &Geometry,
        (pipelines, band_rows): (u32, u32),
    ) -> Vec<u64> {
        let mut counts = Vec::new();
        for (y0, h) in Image::strip_bounds(g.height, pipelines) {
            for top in (y0..y0 + h).step_by(band_rows as usize) {
                let n = band_rows.min(y0 + h - top) as usize * g.width as usize;
                let (mut pix, mut z) = (vec![0; 4 * n], vec![0.0; n]);
                let mut stats = RasterStats::default();
                render_band(setup, (0, g.height), top, &mut pix, &mut z, &mut stats);
                counts.push(stats.triangles_filled);
            }
        }
        counts
    }

    /// The painter's frame `cam` sees at `g`: the sky, then
    /// [`rasterize`](crate::raster::rasterize) over the same cull, every
    /// set-up triangle filled in draw order. Returns the image, the
    /// z-buffer and the stats.
    fn painter(g: &Geometry, r: &Renderer, cam: &Camera) -> (Image, Vec<f32>, RasterStats) {
        let mvp = cam.strip_view_projection(g.height, 0, g.height);
        let mut visible = Vec::new();
        r.octree().cull(&Frustum::from_matrix(&mvp), &mut visible);
        let mut img = Image::new(g.width, g.height);
        draw_sky(img.as_bytes_mut(), g.width, 0, g.height);
        let mut z = crate::raster::new_zbuf(g.width, g.height);
        let stats =
            crate::raster::rasterize(&r.scene().triangles, &visible, &mvp, &mut img, &mut z);
        (img, z, stats)
    }

    /// The render stage draws the painter's frame: for walkthrough
    /// `frames` of every pinned geometry,
    /// `render_strip_into` of the whole frame and the band path (bands of
    /// 1, 7, 25 and 64 rows and of the whole frame, over the strips of 1,
    /// 2, 3 and 7 pipelines in turn) each equal the painter in every image
    /// byte and z-buffer bit, and in `triangles_in`. A row that differs
    /// would mean the fill is not row-independent, or the nearest-first
    /// order changed a pixel. No band sets up more triangles than the
    /// painter does, and a run's count is the sum of its bands'.
    ///
    /// `pixels_written` counts depth-test winners in the fill's order, at
    /// least the pixels the frame drew over the sky. `pixels_covered`
    /// depends on the band tiling, because each band decides on its own
    /// depth tiles which triangles it can skip. It lies between
    /// `pixels_written` and the painter's count, and equals the full
    /// render's when one band covers the whole frame.
    fn bands_equal_the_full_render(frames: impl Iterator<Item = u64> + Clone) {
        for g in &GEOMETRIES {
            let r = g.renderer();
            let (mut setup, mut zbuf) = (FrameSetup::default(), vec![-1.0; 7]);
            let mut strip_setup = FrameSetup::default();
            let row_bytes = g.width as usize * 4;
            for (k, frame) in frames.clone().enumerate() {
                let cam = g.walkthrough().camera(frame);
                let (want, want_z, painted) = painter(g, &r, &cam);
                let drawn = want_z.iter().filter(|z| **z != f32::INFINITY).count() as u64;
                let mut full = Image::new(g.width, g.height);
                let mut full_z = Vec::new();
                let full_stats = r
                    .render_strip_into(&cam, g.height, 0, &mut full, &mut full_z, &mut strip_setup)
                    .raster;
                let pipelines = [1, 2, 3, 7][k % 4];
                let runs = [1, 7, 25, 64, g.height].map(|band_rows| {
                    let name = format!("{} f{frame} p{pipelines} bands of {band_rows}", g.name);
                    let (img, stats) =
                        banded(g, &r, frame, (pipelines, band_rows), &mut setup, &mut zbuf);
                    let bands = band_set_ups(&setup, g, (pipelines, band_rows));
                    assert_eq!(bands.iter().sum::<u64>(), stats.triangles_filled, "{name}");
                    (name, img, zbuf.clone(), stats, bands)
                });
                let full_run = (
                    format!("{} f{frame} full render", g.name),
                    full,
                    full_z,
                    full_stats,
                    vec![full_stats.triangles_filled],
                );
                for (name, img, z, stats, bands) in std::iter::once(full_run).chain(runs) {
                    let bad_row = (0..g.height as usize).find(|&y| {
                        let px = y * row_bytes..(y + 1) * row_bytes;
                        let zs = y * g.width as usize..(y + 1) * g.width as usize;
                        img.as_bytes()[px.clone()] != want.as_bytes()[px]
                            || z[zs.clone()]
                                .iter()
                                .map(|v| v.to_bits())
                                .ne(want_z[zs].iter().map(|v| v.to_bits()))
                    });
                    assert_eq!(bad_row, None, "{name}: first row that differs");
                    assert_eq!(z.len(), want_z.len(), "{name}");
                    assert_eq!(stats.triangles_in, painted.triangles_in, "{name}");
                    let most = bands.iter().max().copied().unwrap_or(0);
                    assert!(
                        most <= painted.triangles_filled,
                        "{name}: a band set up {most}, painter {}",
                        painted.triangles_filled
                    );
                    let (covered, written) = (stats.pixels_covered, stats.pixels_written);
                    assert!(
                        drawn <= written && written <= covered && covered <= painted.pixels_covered,
                        "{name}: {covered} covered, {written} written, {drawn} drawn; painter {painted:?}"
                    );
                    if name.ends_with(&format!("p1 bands of {}", g.height)) {
                        assert_eq!(covered, full_stats.pixels_covered, "{name}: one band");
                    }
                }
            }
        }
    }

    #[test]
    fn row_bands_equal_the_full_render_on_pinned_frames() {
        // Frame 285 ties at 400x400, so its bands are redrawn in draw order.
        bands_equal_the_full_render([0, 11, 23, 200, 285].into_iter());
    }

    #[test]
    #[ignore = "the whole walkthrough; run in release"]
    fn row_bands_equal_the_full_render_on_every_walkthrough_frame() {
        bands_equal_the_full_render(0..crate::WALKTHROUGH_FRAMES);
    }

    /// The fan-out's width never shows: one thread and more threads than
    /// bands give the same pixels and counters.
    #[test]
    fn row_bands_do_not_depend_on_the_thread_count() {
        let g = &GEOMETRIES[2];
        let r = g.renderer();
        let mut setup = FrameSetup::default();
        r.set_up_frame(&g.walkthrough().camera(57), g.width, g.height, &mut setup);
        let render = |threads| {
            let mut strips: Vec<Image> = Image::strip_bounds(g.height, 3)
                .iter()
                .map(|&(_, h)| Image::new(g.width, h))
                .collect();
            let mut zbuf = Vec::new();
            let stats = Renderer::render_bands(&setup, &mut strips, &mut zbuf, 5, threads);
            (
                strips,
                zbuf.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                stats,
            )
        };
        let one = render(1);
        for threads in [2, 4, 64] {
            assert!(render(threads) == one, "{threads} threads");
        }
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
