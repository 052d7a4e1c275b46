//! Z-buffered software rasteriser.
//!
//! Stands in for the os-mesa renderer the paper uses: triangles are
//! transformed by a model-view-projection matrix, clipped (conservatively)
//! against the near plane, perspective-divided, and filled with an edge
//! function test. Each renderer owns its frame buffer (4 bytes per pixel)
//! and a z-buffer, as described in §IV.
//!
//! One `TriSetup` per triangle (clip → near test → clip-space reject →
//! screen → area → clipped box) feeds both [`rasterize`] and
//! [`estimate_coverage`]. The fill evaluates the same f32 barycentric
//! expression, in the same order, as a plain walk over the clipped
//! bounding box would — so images,
//! z-buffers and [`RasterStats`] are bit-identical to that walk, which is
//! kept as the test oracle — but on fewer pixels and without a branch:
//! per scanline a `SpanBound` brackets the covered columns from the
//! three edge equations in f64, relaxed by `SPAN_RELAX` times the f32
//! rounding scale so it can only over-include, and inside it the exact
//! test, the depth test and both stores are selects over a row slice, a
//! loop the compiler vectorises at whatever width the target has. Every
//! lane is the scalar expression, so the width never shows in the output
//! (the `scc_filters::lanes` discipline). DESIGN.md §19 has the argument.
//!
//! [`rasterize`] is the painter's algorithm and stays the reference. The
//! render stage's one fill, `FrameSetup::fill_band`, draws the set-up
//! list nearest first and asks `DepthTiles` whether the z-buffer already
//! hides a triangle everywhere its box reaches, skipping it if so. The
//! fill counts depth ties; a band with none holds the painter's pixels
//! and z-buffer, and a band with one is drawn again in the painter's
//! order.

use crate::math::{vec3, Mat4, Vec3, Vec4};
use crate::mesh::Triangle;
use scc_filters::Image;

/// Counters for one rasterisation pass. They describe the host's work; the
/// cost model does not read them (it prices the cull's stats and
/// [`estimate_coverage`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterStats {
    /// Triangles submitted after culling.
    pub triangles_in: u64,
    /// Triangles that survived set-up (near-plane, clip-space, degeneracy
    /// and viewport tests), whether or not the fill then skipped them as
    /// hidden.
    pub triangles_filled: u64,
    /// Pixels passing the edge test (fill-rate work, pre depth test), over
    /// the triangles actually filled. [`rasterize`] fills every set-up
    /// triangle. The render stage's fill skips the triangles its depth
    /// tiles prove hidden, so its count is lower, and it depends on the
    /// band tiling: each band decides on tiles of its own rows.
    pub pixels_covered: u64,
    /// Depth-test winners, in the fill's order: [`rasterize`] counts the
    /// painter's. The render stage's fill draws nearest first, so on the
    /// city far fewer pixels are overwritten. Its count is at least the
    /// number of pixels whose depth the pass changed, but the painter's
    /// does not bound it.
    pub pixels_written: u64,
}

/// Directional light used for flat shading.
pub const LIGHT_DIR: Vec3 = vec3(0.45, 0.8, 0.35);

/// Ambient / diffuse mix for flat shading.
const AMBIENT: f32 = 0.35;

/// A triangle that survived the near-plane, degeneracy and viewport tests:
/// screen-space vertices, reciprocal doubled area and the pixel box it may
/// touch (inclusive, inside the viewport).
struct TriSetup {
    x: [f32; 3],
    y: [f32; 3],
    z: [f32; 3],
    inv_area: f32,
    min_x: usize,
    max_x: usize,
    min_y: usize,
    max_y: usize,
}

impl TriSetup {
    /// Transform `tri` onto a `w`×`h` viewport; `None` if nothing of it can
    /// be drawn.
    ///
    /// Inlined into the two triangle loops by force: as a call, handing
    /// back the `Option` through memory costs a 64×64 city frame ~25 µs
    /// of its ~200 µs of set-up, and inlined the two reject slopes are
    /// loop constants.
    #[inline(always)]
    fn new(tri: &Triangle, mvp: &Mat4, w: i64, h: i64) -> Option<TriSetup> {
        // Transform to clip space.
        let clip = [
            mvp.transform_point(tri.v[0]),
            mvp.transform_point(tri.v[1]),
            mvp.transform_point(tri.v[2]),
        ];
        // Conservative near-plane handling: drop triangles that cross or
        // sit behind the near plane (w ≤ ε). The walkthrough keeps
        // geometry away from the eye so this loses almost nothing, and it
        // keeps strip renders bit-consistent with full-frame renders.
        if clip.iter().any(|c| c.w < 1e-4) {
            return None;
        }
        // Most of what is left lies wholly to one side of the viewport:
        // drop it before the divides.
        if beyond_one_edge(&clip, reject_slope(w), reject_slope(h)) {
            return None;
        }
        let ndc = [clip[0].project(), clip[1].project(), clip[2].project()];
        // Viewport transform (row 0 = top of the image).
        let to_screen = |p: Vec3| -> (f32, f32, f32) {
            (
                (p.x + 1.0) * 0.5 * w as f32,
                (1.0 - p.y) * 0.5 * h as f32,
                p.z,
            )
        };
        let (x0, y0, z0) = to_screen(ndc[0]);
        let (x1, y1, z1) = to_screen(ndc[1]);
        let (x2, y2, z2) = to_screen(ndc[2]);

        // Signed doubled area; skip degenerate triangles. Render
        // double-sided (the city boxes are closed, but the ground plane
        // may be seen from grazing angles).
        let area = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0);
        if area.abs() < 1e-6 {
            return None;
        }

        // Screen bounding box clipped to the viewport.
        let min_x = floor_from_zero(x0.min(x1).min(x2));
        let max_x = ceil_up_to(x0.max(x1).max(x2), w - 1);
        let min_y = floor_from_zero(y0.min(y1).min(y2));
        let max_y = ceil_up_to(y0.max(y1).max(y2), h - 1);
        if min_x > max_x || min_y > max_y {
            return None;
        }
        Some(TriSetup {
            x: [x0, x1, x2],
            y: [y0, y1, y2],
            z: [z0, z1, z2],
            inv_area: 1.0 / area,
            min_x: min_x as usize,
            max_x: max_x as usize,
            min_y: min_y as usize,
            max_y: max_y as usize,
        })
    }
}

/// How far past "a pixel outside the viewport", in NDC units, a triangle
/// must lie before [`beyond_one_edge`] rejects it. The divide, the add and
/// the two viewport multiplies of the exact path are each good to 2⁻²⁴
/// relative, about 10⁻⁶ in these units all told at the worst; this is a
/// thousand times that and still takes nine rejects in ten.
const REJECT_MARGIN: f32 = 1e-3;

/// `k` such that a clip-space vertex with `c.x < −k·c.w` (or `c.y`, for a
/// vertical `extent`) lands more than a pixel plus [`REJECT_MARGIN`]
/// outside a viewport `extent` pixels across: NDC −(1 + 2/extent) is
/// pixel −1.
#[inline]
fn reject_slope(extent: i64) -> f32 {
    1.0 + 2.0 / extent as f32 + REJECT_MARGIN
}

/// Conservative clip-space reject: all three vertices (`c.w > 0`) beyond
/// the same viewport edge by the [`reject_slope`] margins. The exact box
/// test drops every such triangle too — DESIGN.md §19 has the rounding
/// argument — and the margin is symmetric although the far edges reject a
/// pixel earlier. A NaN, or a product that overflows, fails its
/// comparison, so those triangles take the exact path.
#[inline]
fn beyond_one_edge(clip: &[Vec4; 3], kx: f32, ky: f32) -> bool {
    clip.iter().all(|c| c.x < -kx * c.w)
        || clip.iter().all(|c| c.x > kx * c.w)
        || clip.iter().all(|c| c.y < -ky * c.w)
        || clip.iter().all(|c| c.y > ky * c.w)
}

/// `v.floor().max(0.0) as i64` for every `v` — NaN and everything at or
/// below zero give 0, +∞ saturates — without the call into libm: above
/// zero, truncation is the floor.
#[inline]
fn floor_from_zero(v: f32) -> i64 {
    if v > 0.0 {
        v as i64
    } else {
        0
    }
}

/// `(v.ceil() as i64).min(limit)` for every `v` and `limit`, likewise by
/// truncation: `t` is the ceiling unless it fell short of a positive
/// fraction (an f32 that large in magnitude has none, and NaN compares
/// false), and `t ≥ limit` settles the minimum before `t + 1` can
/// overflow.
#[inline]
fn ceil_up_to(v: f32, limit: i64) -> i64 {
    let t = v as i64;
    if t >= limit {
        limit
    } else {
        t + ((t as f32) < v) as i64
    }
}

/// Flat shading from the world-space normal.
fn flat_shade(tri: &Triangle, light: Vec3) -> [u8; 4] {
    // `normalized()` without its debug assertion: a triangle whose normal
    // underflows or is not finite shades to black in every build.
    let n = tri.normal_raw();
    let n = n / n.length();
    let diff = n.dot(light).abs();
    let shade = AMBIENT + (1.0 - AMBIENT) * diff;
    [
        (tri.color[0] as f32 * shade) as u8,
        (tri.color[1] as f32 * shade) as u8,
        (tri.color[2] as f32 * shade) as u8,
        255,
    ]
}

/// How far the span bound relaxes each edge test, in units of
/// `f32::EPSILON · (1 + |inv_area|·m)`, where `m` bounds the magnitude of
/// the two edge products `|x_i − cx|·|y_j − cy|` summed over `w0` and `w1`
/// anywhere in the triangle's box.
///
/// With u = `EPSILON`/2 the unit roundoff: the four subtractions, two
/// products, their difference and the scale by `inv_area` put the computed
/// `w0` and `w1` within 5.01·u·|inv_area|·m of the real-number values `W0`,
/// `W1` of the same expressions over the f32 inputs, and the two
/// subtractions of `1.0 - w0 - w1` put `w2` within 7.01·u·(1 + |inv_area|·m)
/// of `1 − W0 − W1` (underflow adds < 1e-38). 8·`EPSILON` = 16·u is more
/// than twice that; the surplus covers the f64 rounding of the bound
/// itself, which is 2⁻²⁹ of the same scale.
const SPAN_RELAX: f64 = 8.0;

/// Boxes narrower than this take whole rows: there is little to save, and
/// the surplus in [`SPAN_RELAX`] is sized for boxes at least 3 wide.
const SPAN_MIN_BOX: usize = 8;

/// Row-span solver for one triangle: for each row of its box, an interval
/// of columns outside which the fill's `w0/w1/w2` test provably fails.
///
/// In real arithmetic over the f32 vertices each `Wi` is affine in the
/// column `t` and row `s` (both counted from the box's first pixel
/// centre): `Wi = a_i + da_i·s + slope_i·t`. A pixel can only pass the f32
/// test if every `Wi ≥ −relax`, i.e. `slope_i·t ≥ need_i(s)` with `need_i`
/// affine in `s` — so the covered columns of a row lie between the largest
/// root of the rising edges and the smallest root of the falling ones.
/// Everything but one multiply-add and one multiply per edge is per
/// triangle.
struct SpanBound {
    need: [f64; 3],
    need_step: [f64; 3],
    slope: [f64; 3],
    inv_slope: [f64; 3],
    /// `max_x − min_x`.
    last: f64,
}

impl SpanBound {
    /// `None` when the bound does not apply: a non-finite vertex or area,
    /// or edge products that can overflow (the f32 test then passes NaN
    /// pixels the real-number model cannot see), pixel centres past f32's
    /// exact range, or a box under [`SPAN_MIN_BOX`] columns. The fill then
    /// takes whole box rows.
    fn new(t: &TriSetup) -> Option<SpanBound> {
        let finite = |v: &[f32; 3]| v.iter().all(|c| c.is_finite());
        if t.max_x - t.min_x < SPAN_MIN_BOX
            || t.max_x >= 1 << 22
            || !finite(&t.x)
            || !finite(&t.y)
            || !t.inv_area.is_finite()
        {
            return None;
        }
        let last = (t.max_x - t.min_x) as f64;
        let rows = (t.max_y - t.min_y) as f64;
        let [x0, x1, x2] = t.x.map(|x| x as f64 - (t.min_x as f64 + 0.5));
        let [y0, y1, y2] = t.y.map(|y| y as f64 - (t.min_y as f64 + 0.5));
        let inv_area = t.inv_area as f64;

        let reach = |v: f64, len: f64| v.abs().max((v - len).abs());
        let [rx0, rx1, rx2] = [x0, x1, x2].map(|x| reach(x, last));
        let [ry0, ry1, ry2] = [y0, y1, y2].map(|y| reach(y, rows));
        let m = (rx1 + rx0) * ry2 + rx2 * (ry1 + ry0);
        // Finite inputs: `m` can overflow to infinity but not to NaN.
        if m >= 1e30 {
            return None;
        }
        let relax = SPAN_RELAX * f32::EPSILON as f64 * (1.0 + inv_area.abs() * m);

        let a0 = inv_area * (x1 * y2 - y1 * x2);
        let a1 = inv_area * (x2 * y0 - y2 * x0);
        let slope = [
            inv_area * (y1 - y2),
            inv_area * (y2 - y0),
            inv_area * (y0 - y1),
        ];
        Some(SpanBound {
            need: [a0, a1, 1.0 - a0 - a1].map(|a| -relax - a),
            need_step: [x1 - x2, x2 - x0, x0 - x1].map(|dx| inv_area * dx),
            slope,
            inv_slope: slope.map(|s| 1.0 / s),
            last,
        })
    }

    /// Columns `lo..=hi` (counted from `min_x`) that may be covered on row
    /// `s` (counted from `min_y`); `None` if none can be.
    #[inline]
    fn row(&self, s: f64) -> Option<(usize, usize)> {
        let (mut lo, mut hi) = (0.0, self.last);
        for i in 0..3 {
            // slope · t ≥ need
            let need = self.need[i] + s * self.need_step[i];
            if self.slope[i] > 0.0 {
                let q = need * self.inv_slope[i];
                if q > lo {
                    lo = q;
                }
            } else if self.slope[i] < 0.0 {
                let q = need * self.inv_slope[i];
                if q < hi {
                    hi = q;
                }
            } else if need > 0.0 {
                return None;
            }
        }
        // Neither is NaN: a NaN root fails both comparisons above.
        if lo > hi {
            return None;
        }
        // ceil(lo) and floor(hi) by truncation: both are in 0..=last.
        let mut first = lo as u32;
        if (first as f64) < lo {
            first += 1;
        }
        let end = hi as u32;
        (first <= end).then_some((first as usize, end as usize))
    }
}

/// Fill one triangle into a row window of a target as wide as `centres`
/// (`centres[px]` is the centre of column `px`): `pix` (RGBA bytes) and
/// `zbuf` hold rows `top..` of it, and only the triangle's rows inside the
/// window are drawn. A row is drawn exactly as in a window of the whole
/// target, so filling a frame's windows one by one, in any order, draws
/// what one fill of the frame draws.
///
/// Returns the rectangle around the pixels written, if any, as window rows
/// `first..=last` and columns `lo..=hi`, and whether a covered pixel's
/// depth compared equal to what the z-buffer held (a tie; ±0 are equal,
/// NaN equals nothing).
fn fill(
    t: &TriSetup,
    color: [u8; 4],
    centres: &[f32],
    top: usize,
    pix: &mut [u8],
    zbuf: &mut [f32],
    stats: &mut RasterStats,
) -> (Option<WriteRect>, bool) {
    let ([x0, x1, x2], [y0, y1, y2], [z0, z1, z2]) = (t.x, t.y, t.z);
    let inv_area = t.inv_area;
    let color = u32::from_ne_bytes(color);
    let spans = SpanBound::new(t);
    let w = centres.len();
    let end = top + zbuf.len() / w;
    let mut wrote: Option<WriteRect> = None;
    let mut tied = false;

    for py in t.min_y.max(top)..(t.max_y + 1).min(end) {
        let (lo, hi) = match &spans {
            Some(s) => match s.row((py - t.min_y) as u32 as f64) {
                Some((lo, hi)) => (t.min_x + lo, t.min_x + hi),
                None => continue,
            },
            None => (t.min_x, t.max_x),
        };
        let cy = py as f32 + 0.5;
        let (y0c, y1c, y2c) = (y0 - cy, y1 - cy, y2 - cy);
        let row = (py - top) * w;
        let zrow = &mut zbuf[row + lo..=row + hi];
        let prow = pix[4 * (row + lo)..4 * (row + hi + 1)].chunks_exact_mut(4);
        let (mut covered, mut written, mut ties) = (0u32, 0u32, 0u32);
        // No branch and nothing carried between pixels but the three
        // counts: this is the loop the compiler vectorises.
        for ((zb, p), &cx) in zrow.iter_mut().zip(prow).zip(&centres[lo..=hi]) {
            // Barycentric via edge functions (sign matched to `area`).
            let w0 = ((x1 - cx) * y2c - y1c * (x2 - cx)) * inv_area;
            let w1 = ((x2 - cx) * y0c - y2c * (x0 - cx)) * inv_area;
            let w2 = 1.0 - w0 - w1;
            let inside = !((w0 < 0.0) | (w1 < 0.0) | (w2 < 0.0));
            let z = w0 * z0 + w1 * z1 + w2 * z2;
            let win = inside & (z < *zb);
            ties += (inside & (z == *zb)) as u32;
            *zb = if win { z } else { *zb };
            let old = u32::from_ne_bytes([p[0], p[1], p[2], p[3]]);
            p.copy_from_slice(&(if win { color } else { old }).to_ne_bytes());
            covered += inside as u32;
            written += win as u32;
        }
        stats.pixels_covered += covered as u64;
        stats.pixels_written += written as u64;
        tied |= ties > 0;
        if written > 0 {
            let row = py - top;
            wrote = Some(match wrote {
                Some((first, _, l, h)) => (first, row, l.min(lo), h.max(hi)),
                None => (row, row, lo, hi),
            });
        }
    }
    (wrote, tied)
}

/// Window rows `first..=last` and columns `lo..=hi`, in that order.
type WriteRect = (usize, usize, usize, usize);

/// Rasterise `indices` of `tris` through `mvp` into `img` (with its
/// z-buffer), accumulating statistics: the painter's algorithm, every
/// triangle that survives set-up filled in submission order.
///
/// `zbuf` must have one entry per pixel, initialised to `f32::INFINITY`
/// for a fresh frame.
pub fn rasterize(
    tris: &[Triangle],
    indices: &[u32],
    mvp: &Mat4,
    img: &mut Image,
    zbuf: &mut [f32],
) -> RasterStats {
    let w = img.width() as i64;
    let h = img.height() as i64;
    assert_eq!(zbuf.len(), (w * h) as usize, "z-buffer size mismatch");
    let mut stats = RasterStats {
        triangles_in: indices.len() as u64,
        ..Default::default()
    };
    let light = LIGHT_DIR.normalized();
    let centres = pixel_centres(w);

    for &ti in indices {
        let tri = &tris[ti as usize];
        let Some(setup) = TriSetup::new(tri, mvp, w, h) else {
            continue;
        };
        stats.triangles_filled += 1;
        let color = flat_shade(tri, light);
        fill(
            &setup,
            color,
            &centres,
            0,
            img.as_bytes_mut(),
            zbuf,
            &mut stats,
        );
    }
    stats
}

/// Side of the square tiles [`DepthTiles`] bounds depth over.
const TILE: usize = 8;

/// How far below its nearest vertex the fill's `z` of a covered pixel can
/// come out, in units of `f32::EPSILON · (1 + r)` with `r` = the largest
/// vertex `|z_i|`.
///
/// With u = `EPSILON`/2: a covered pixel has f32 `w0, w1, w2 ≥ 0`, and the
/// two roundings of `w2 = 1.0 - w0 - w1` put their real sum `S` within 2u
/// of 1, so `Σ wi·zi ≥ S·zmin ≥ zmin − 2u·r`. The three products and two
/// sums of `z` are within γ₃·S·r ≤ 3.01u·r of `Σ wi·zi`, and underflow in
/// the products adds under 2⁻¹⁴⁸. So `z ≥ zmin − 5.01u·r − 2⁻¹⁴⁸`; 4·`EPSILON`
/// = 8u·(1 + r) covers that and the f64 rounding of the bound itself.
/// DESIGN.md §19 has the argument in full.
const DEPTH_RELAX: f64 = 4.0;

/// Vertex depths at or past this magnitude (and NaN) take the fill: the
/// sums in `z` could overflow f32, which the rounding bound cannot see.
const DEPTH_LIMIT: f32 = 1e30;

/// Farthest-depth bounds over the `TILE`×`TILE` tiles of a row window of a
/// target (rows `top..top + rows`, counted from the window's first row),
/// for [`fill`]s that skip triangles the z-buffer already hides.
///
/// Depth only ever falls — a fill stores `z` only where `z < zb` — so a
/// bound taken at any time stays an upper bound on the tile. A fill marks
/// the tiles it wrote into dirty; a query recomputes a dirty tile only
/// when its old bound is not enough, and stops at the first tile that
/// fails.
struct DepthTiles {
    /// Tiles across.
    cols: usize,
    width: usize,
    top: usize,
    rows: usize,
    /// Per tile, an upper bound on every depth in it.
    max: Vec<f32>,
    /// Per tile, written since `max` was taken.
    dirty: Vec<bool>,
}

impl DepthTiles {
    /// Tiles over frame rows `top..top + rows` of a `width`-wide target.
    /// Every tile starts dirty, so the z-buffer may hold anything.
    fn new(width: usize, top: usize, rows: usize) -> DepthTiles {
        let cols = width.div_ceil(TILE);
        let n = cols * rows.div_ceil(TILE);
        DepthTiles {
            cols,
            width,
            top,
            rows,
            max: vec![f32::INFINITY; n],
            dirty: vec![true; n],
        }
    }

    /// Whether `zbuf` (the window's depth rows) already holds, at every
    /// pixel of `t`'s box inside the window, a depth that no covered pixel
    /// of `t` can go below: every tile the box meets has its bound at or
    /// under `t`'s nearest vertex depth less [`DEPTH_RELAX`]. Every covered
    /// pixel's `z` then exceeds its `zb` (or `zb` is NaN): the fill would
    /// neither write nor tie. A non-finite or huge vertex depth says no.
    fn hide(&mut self, t: &TriSetup, zbuf: &[f32]) -> bool {
        let [z0, z1, z2] = t.z;
        // NaN and ±∞ fail the comparison.
        if !t.z.iter().all(|z| z.abs() < DEPTH_LIMIT) {
            return false;
        }
        let reach = z0.abs().max(z1.abs()).max(z2.abs()) as f64;
        let bound = z0.min(z1).min(z2) as f64 - DEPTH_RELAX * f32::EPSILON as f64 * (1.0 + reach);
        let first = t.min_y.max(self.top) - self.top;
        let end = (t.max_y + 1).min(self.top + self.rows) - self.top;
        for ty in first / TILE..end.div_ceil(TILE) {
            for tx in t.min_x / TILE..=t.max_x / TILE {
                let i = ty * self.cols + tx;
                if (self.max[i] as f64) <= bound {
                    continue;
                }
                if !self.dirty[i] {
                    return false;
                }
                self.max[i] = self.tile_max(zbuf, tx, ty);
                self.dirty[i] = false;
                if (self.max[i] as f64) > bound {
                    return false;
                }
            }
        }
        true
    }

    /// The farthest depth in tile (`tx`, `ty`), NaN left out: `z < NaN` is
    /// false, so a NaN entry is never overwritten.
    ///
    /// A running maximum per column, reduced once at the end, so the rows
    /// compare as vectors.
    fn tile_max(&self, zbuf: &[f32], tx: usize, ty: usize) -> f32 {
        let cols = tx * TILE..((tx + 1) * TILE).min(self.width);
        let rows = ty * TILE..((ty + 1) * TILE).min(self.rows);
        let mut lanes = [f32::NEG_INFINITY; TILE];
        for row in zbuf[rows.start * self.width..rows.end * self.width].chunks_exact(self.width) {
            for (m, &z) in lanes.iter_mut().zip(&row[cols.clone()]) {
                *m = if z > *m { z } else { *m };
            }
        }
        lanes
            .into_iter()
            .fold(f32::NEG_INFINITY, |m, z| if z > m { z } else { m })
    }

    /// A fill wrote somewhere in window rows `first..=last`, columns
    /// `lo..=hi`: mark every tile of that rectangle dirty. One mark per
    /// triangle, not per row: a mark per written row cost more than the
    /// extra rescans of a triangle's whole rectangle.
    fn touch(&mut self, (first, last, lo, hi): WriteRect) {
        for ty in first / TILE..=last / TILE {
            let base = ty * self.cols;
            self.dirty[base + lo / TILE..=base + hi / TILE].fill(true);
        }
    }
}

/// One frame's (or one strip's) visible triangles, set up once for all
/// of it — what [`rasterize`] computes per triangle before it fills, kept
/// so that row bands of the frame can be filled one at a time, side by
/// side, each by the same `fill` over its own rows. The list keeps its
/// allocations from frame to frame.
#[derive(Default)]
pub struct FrameSetup {
    /// Indices into the scene's triangles to set up, in draw order (the
    /// octree cull's order).
    pub(crate) visible: Vec<u32>,
    /// The triangles of `visible` that survived set-up, with their flat
    /// colours, in the same order.
    list: Vec<(TriSetup, [u8; 4])>,
    /// Each entry of `list` as its nearest vertex depth's
    /// [`total_order_key`] above its index, sorted: the fill's order,
    /// nearest first, ties by index.
    order: Vec<u64>,
    /// `pixel_centres(width)`.
    centres: Vec<f32>,
    height: u32,
}

impl FrameSetup {
    /// Set up the `visible` triangles of `tris` through `mvp` onto a
    /// `width`×`height` frame, replacing the previous frame's list:
    /// `TriSetup` and `flat_shade` once per triangle, as [`rasterize`]
    /// runs them, then the list sorted nearest first into `order`.
    pub(crate) fn set_up(&mut self, tris: &[Triangle], mvp: &Mat4, width: u32, height: u32) {
        let (w, h) = (width as i64, height as i64);
        let light = LIGHT_DIR.normalized();
        if self.centres.len() != width as usize {
            self.centres = pixel_centres(w);
        }
        self.height = height;
        self.list.clear();
        self.list.extend(self.visible.iter().filter_map(|&ti| {
            let tri = &tris[ti as usize];
            TriSetup::new(tri, mvp, w, h).map(|t| (t, flat_shade(tri, light)))
        }));
        self.order.clear();
        self.order
            .extend(self.list.iter().enumerate().map(|(i, (t, _))| {
                let near = t.z[0].min(t.z[1]).min(t.z[2]);
                (total_order_key(near) as u64) << 32 | i as u64
            }));
        // One integer sort: half the time of sorting (depth, index) pairs
        // with `total_cmp`.
        self.order.sort_unstable();
    }

    pub(crate) fn width(&self) -> u32 {
        self.centres.len() as u32
    }

    pub(crate) fn height(&self) -> u32 {
        self.height
    }

    /// The frame's triangle counters: what [`rasterize`] reports for it
    /// before any pixel is counted.
    pub(crate) fn stats(&self) -> RasterStats {
        RasterStats {
            triangles_in: self.visible.len() as u64,
            triangles_filled: self.list.len() as u64,
            ..RasterStats::default()
        }
    }

    /// Draw frame rows `top..` into a band: `pix` and `zbuf` hold those
    /// rows (whole rows of the frame's width), `clear` puts the band's
    /// starting contents into them, and the band's pixel counters are
    /// added to `stats`. The pixels are those a [`rasterize`] of the whole
    /// frame leaves in these rows over what `clear` puts there.
    ///
    /// The list is filled nearest first, and a triangle that depth tiles
    /// over the band's own rows prove hidden there is skipped. That leaves
    /// the painter's pixels unless two triangles reach a pixel's least
    /// depth, and the fill notices every such tie (DESIGN.md §19). A band
    /// that saw one is cleared and filled again in draw order, and its
    /// counters are that pass's.
    pub(crate) fn fill_band(
        &self,
        top: u32,
        pix: &mut [u8],
        zbuf: &mut [f32],
        stats: &mut RasterStats,
        clear: impl Fn(&mut [u8], &mut [f32]),
    ) {
        clear(pix, zbuf);
        let mut pass = RasterStats::default();
        if self.fill_rows(self.nearest_first(), top, pix, zbuf, &mut pass) {
            clear(pix, zbuf);
            pass = RasterStats::default();
            self.fill_rows(0..self.list.len(), top, pix, zbuf, &mut pass);
        }
        stats.pixels_covered += pass.pixels_covered;
        stats.pixels_written += pass.pixels_written;
    }

    /// The list's indices in the fill's order.
    fn nearest_first(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().map(|&k| k as u32 as usize)
    }

    /// Fill the entries `order` of the list, in that order, over the band
    /// of [`FrameSetup::fill_band`], skipping those its depth tiles prove
    /// hidden. Returns whether the fill saw a tie.
    fn fill_rows(
        &self,
        order: impl Iterator<Item = usize>,
        top: u32,
        pix: &mut [u8],
        zbuf: &mut [f32],
        stats: &mut RasterStats,
    ) -> bool {
        debug_assert_eq!(
            pix.len(),
            4 * zbuf.len(),
            "band pixel and depth rows differ"
        );
        let top = top as usize;
        let rows = zbuf.len() / self.centres.len().max(1);
        let end = top + rows;
        let mut tiles = DepthTiles::new(self.centres.len(), top, rows);
        let mut tied = false;
        for (t, color) in order.map(|i| &self.list[i]) {
            if t.min_y < end && t.max_y >= top && !tiles.hide(t, zbuf) {
                let (wrote, tie) = fill(t, *color, &self.centres, top, pix, zbuf, stats);
                tied |= tie;
                if let Some(rect) = wrote {
                    tiles.touch(rect);
                }
            }
        }
        tied
    }
}

/// `z`'s bits, mapped so that unsigned order is `f32::total_cmp`'s
/// order: negative values have their magnitude bits flipped, then the
/// sign bit is flipped.
fn total_order_key(z: f32) -> u32 {
    let b = z.to_bits() as i32;
    (b ^ (((b >> 31) as u32) >> 1) as i32) as u32 ^ 0x8000_0000
}

/// `px as f32 + 0.5` for every column, computed once per pass so the row
/// loops load it and stay free of integer conversions.
fn pixel_centres(w: i64) -> Vec<f32> {
    (0..w).map(|px| px as f32 + 0.5).collect()
}

/// Fresh z-buffer for a `w`×`h` target.
pub fn new_zbuf(w: u32, h: u32) -> Vec<f32> {
    vec![f32::INFINITY; w as usize * h as usize]
}

/// Estimate the fill-rate work (covered pixels, pre-depth-test) of
/// rasterising `indices`, by counting edge-function passes on a
/// `1/COVERAGE_SCALE`-resolution grid and scaling back up. Tracks the real
/// `pixels_covered` within a few percent at a fraction of the cost, and —
/// crucially for the per-strip load balance of the sort-first renderer —
/// distributes work across strips the same way real rasterisation does.
/// Used by both fidelity modes so render costs are identical.
pub const COVERAGE_SCALE: u32 = 4;

pub fn estimate_coverage(tris: &[Triangle], indices: &[u32], mvp: &Mat4, w: u32, h: u32) -> u64 {
    let sw = (w / COVERAGE_SCALE).max(1) as i64;
    let sh = (h / COVERAGE_SCALE).max(1) as i64;
    let mut covered = 0u64;
    let centres = pixel_centres(sw);
    for &ti in indices {
        let Some(t) = TriSetup::new(&tris[ti as usize], mvp, sw, sh) else {
            continue;
        };
        let [x0, x1, x2] = t.x;
        let [y0, y1, y2] = t.y;
        let inv_area = t.inv_area;
        // At this resolution rows are a handful of pixels: bounding them
        // costs more than walking the box.
        for py in t.min_y..=t.max_y {
            let cy = py as f32 + 0.5;
            let (y0c, y1c, y2c) = (y0 - cy, y1 - cy, y2 - cy);
            let mut n = 0u32;
            for &cx in &centres[t.min_x..=t.max_x] {
                let w0 = ((x1 - cx) * y2c - y1c * (x2 - cx)) * inv_area;
                let w1 = ((x2 - cx) * y0c - y2c * (x0 - cx)) * inv_area;
                let w2 = 1.0 - w0 - w1;
                n += ((w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)) as u32;
            }
            covered += n as u64;
        }
    }
    covered * (COVERAGE_SCALE as u64 * COVERAGE_SCALE as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::WALKTHROUGH_FRAMES;
    use crate::frame_pins::GEOMETRIES;
    use crate::math::{vec3, Vec4};
    use crate::raster_pins::{city_cases, hand_cases, serving_cases, Case};
    use crate::renderer::BAND_ROWS;
    use proptest::prelude::*;

    /// The bounding-box walk [`rasterize`] replaced, kept as the oracle with
    /// its own transform and box code: every pixel of every triangle's
    /// clipped box, one at a time.
    fn rasterize_reference(
        tris: &[Triangle],
        indices: &[u32],
        mvp: &Mat4,
        img: &mut Image,
        zbuf: &mut [f32],
    ) -> RasterStats {
        let w = img.width() as i64;
        let h = img.height() as i64;
        assert_eq!(zbuf.len(), (w * h) as usize, "z-buffer size mismatch");
        let mut stats = RasterStats {
            triangles_in: indices.len() as u64,
            ..Default::default()
        };
        let light = LIGHT_DIR.normalized();

        for &ti in indices {
            let tri = &tris[ti as usize];
            // Transform to clip space.
            let clip = [
                mvp.transform_point(tri.v[0]),
                mvp.transform_point(tri.v[1]),
                mvp.transform_point(tri.v[2]),
            ];
            // Conservative near-plane handling: drop triangles that cross or
            // sit behind the near plane (w ≤ ε). The walkthrough keeps
            // geometry away from the eye so this loses almost nothing, and it
            // keeps strip renders bit-consistent with full-frame renders.
            if clip.iter().any(|c| c.w < 1e-4) {
                continue;
            }
            let ndc = [clip[0].project(), clip[1].project(), clip[2].project()];
            // Viewport transform (row 0 = top of the image).
            let to_screen = |p: Vec3| -> (f32, f32, f32) {
                (
                    (p.x + 1.0) * 0.5 * w as f32,
                    (1.0 - p.y) * 0.5 * h as f32,
                    p.z,
                )
            };
            let (x0, y0, z0) = to_screen(ndc[0]);
            let (x1, y1, z1) = to_screen(ndc[1]);
            let (x2, y2, z2) = to_screen(ndc[2]);

            // Signed doubled area; skip degenerate triangles. Render
            // double-sided (the city boxes are closed, but the ground plane
            // may be seen from grazing angles).
            let area = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0);
            if area.abs() < 1e-6 {
                continue;
            }

            // Screen bounding box clipped to the viewport.
            let min_x = x0.min(x1).min(x2).floor().max(0.0) as i64;
            let max_x = (x0.max(x1).max(x2).ceil() as i64).min(w - 1);
            let min_y = y0.min(y1).min(y2).floor().max(0.0) as i64;
            let max_y = (y0.max(y1).max(y2).ceil() as i64).min(h - 1);
            if min_x > max_x || min_y > max_y {
                continue;
            }
            stats.triangles_filled += 1;

            let color = flat_shade(tri, light);

            let inv_area = 1.0 / area;
            for py in min_y..=max_y {
                for px in min_x..=max_x {
                    let cx = px as f32 + 0.5;
                    let cy = py as f32 + 0.5;
                    // Barycentric via edge functions (sign matched to `area`).
                    let w0 = ((x1 - cx) * (y2 - cy) - (y1 - cy) * (x2 - cx)) * inv_area;
                    let w1 = ((x2 - cx) * (y0 - cy) - (y2 - cy) * (x0 - cx)) * inv_area;
                    let w2 = 1.0 - w0 - w1;
                    if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                        continue;
                    }
                    stats.pixels_covered += 1;
                    let z = w0 * z0 + w1 * z1 + w2 * z2;
                    let zi = (py * w + px) as usize;
                    if z < zbuf[zi] {
                        zbuf[zi] = z;
                        img.set(px as u32, py as u32, color);
                        stats.pixels_written += 1;
                    }
                }
            }
        }
        stats
    }

    /// Run the fill and the oracle on the same target (cleared first
    /// unless `dirty`, so a second soup meets a used z-buffer) and demand
    /// identical image bytes, z-buffer bits and stats.
    fn assert_matches_reference(
        tris: &[Triangle],
        indices: &[u32],
        mvp: &Mat4,
        got: &mut (Image, Vec<f32>),
        want: &mut (Image, Vec<f32>),
        what: &str,
    ) {
        let s_got = rasterize(tris, indices, mvp, &mut got.0, &mut got.1);
        let s_want = rasterize_reference(tris, indices, mvp, &mut want.0, &mut want.1);
        assert_eq!(s_got, s_want, "{what}: stats");
        assert!(got.0 == want.0, "{what}: image bytes differ");
        let bits = |z: &[f32]| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(&got.1) == bits(&want.1),
            "{what}: z-buffer bits differ"
        );
    }

    fn fresh(w: u32, h: u32) -> (Image, Vec<f32>) {
        (Image::new(w, h), new_zbuf(w, h))
    }

    fn pinned_cases() -> Vec<Case> {
        let mut cases = hand_cases();
        cases.extend(city_cases());
        cases.extend(serving_cases());
        cases
    }

    #[test]
    fn pinned_cases_match_the_reference_walk() {
        for c in pinned_cases() {
            let (mut got, mut want) = (fresh(c.w, c.h), fresh(c.w, c.h));
            assert_matches_reference(&c.tris, &c.indices, &c.mvp, &mut got, &mut want, &c.name);
        }
    }

    /// The fill's per-pixel test, one pixel at a time.
    fn passes(t: &TriSetup, px: usize, py: usize) -> bool {
        let ([x0, x1, x2], [y0, y1, y2]) = (t.x, t.y);
        let cx = px as f32 + 0.5;
        let cy = py as f32 + 0.5;
        let w0 = ((x1 - cx) * (y2 - cy) - (y1 - cy) * (x2 - cx)) * t.inv_area;
        let w1 = ((x2 - cx) * (y0 - cy) - (y2 - cy) * (x0 - cx)) * t.inv_area;
        let w2 = 1.0 - w0 - w1;
        !(w0 < 0.0 || w1 < 0.0 || w2 < 0.0)
    }

    /// Every pixel of `t`'s box that passes the exact test lies inside the
    /// row's span. Returns [box pixels, span pixels, passing pixels].
    fn check_spans(t: &TriSetup, what: &str) -> [u64; 3] {
        let spans = SpanBound::new(t);
        let mut n = [0u64; 3];
        for py in t.min_y..=t.max_y {
            let span = match &spans {
                Some(s) => s
                    .row((py - t.min_y) as f64)
                    .map(|(lo, hi)| (t.min_x + lo, t.min_x + hi)),
                None => Some((t.min_x, t.max_x)),
            };
            if let Some((lo, hi)) = span {
                assert!(
                    t.min_x <= lo && lo <= hi && hi <= t.max_x,
                    "{what}: span leaves box"
                );
                n[1] += (hi - lo + 1) as u64;
            }
            for px in t.min_x..=t.max_x {
                n[0] += 1;
                if passes(t, px, py) {
                    n[2] += 1;
                    assert!(
                        span.is_some_and(|(lo, hi)| lo <= px && px <= hi),
                        "{what}: row {py} span {span:?} excludes covered pixel {px}"
                    );
                }
            }
        }
        n
    }

    #[test]
    fn span_bound_never_excludes_a_covered_pixel_of_the_pinned_cases() {
        for c in pinned_cases() {
            let mut passes = 0;
            for &ti in &c.indices {
                if let Some(t) = TriSetup::new(&c.tris[ti as usize], &c.mvp, c.w as i64, c.h as i64)
                {
                    passes += check_spans(&t, &c.name)[2];
                }
            }
            // The same count the fill reports: the row-by-row check saw
            // every covered pixel.
            let (mut img, mut z) = fresh(c.w, c.h);
            let stats = rasterize(&c.tris, &c.indices, &c.mvp, &mut img, &mut z);
            assert_eq!(passes, stats.pixels_covered, "{}", c.name);
        }
    }

    /// The bound has to be tight as well as safe: a fill that fell back to
    /// whole box rows would pass every bit-identity test and lose the
    /// speed-up silently.
    #[test]
    fn span_bound_halves_the_pixels_tested_on_a_city_frame() {
        let c = &city_cases()[0];
        let mut n = [0u64; 3];
        for &ti in &c.indices {
            if let Some(t) = TriSetup::new(&c.tris[ti as usize], &c.mvp, c.w as i64, c.h as i64) {
                let m = check_spans(&t, &c.name);
                for (a, b) in n.iter_mut().zip(m) {
                    *a += b;
                }
            }
        }
        let [boxed, spanned, covered] = n;
        println!("{}: box {boxed} span {spanned} covered {covered}", c.name);
        assert!(covered <= spanned);
        assert!(
            2 * spanned <= boxed + covered,
            "span {spanned} of box {boxed}, {covered} covered"
        );
    }

    /// The clip-space reject has to fire as well as be safe: a margin that
    /// stopped taking triangles would pass every bit-identity test and
    /// lose the set-up saving silently. (That it takes nothing the exact
    /// path keeps is `pinned_cases_match_the_reference_walk` over these
    /// same frames: `triangles_filled` and every pixel are the oracle's.)
    #[test]
    fn clip_reject_takes_nine_in_ten_of_the_rejects_on_small_city_frames() {
        for c in serving_cases().iter().filter(|c| (c.w, c.h) == (64, 64)) {
            let (mut rejected, mut early) = (0u32, 0u32);
            for &ti in &c.indices {
                let tri = &c.tris[ti as usize];
                let clip = tri.v.map(|v| c.mvp.transform_point(v));
                if clip.iter().any(|v| v.w < 1e-4)
                    || TriSetup::new(tri, &c.mvp, c.w as i64, c.h as i64).is_some()
                {
                    continue;
                }
                rejected += 1;
                early += beyond_one_edge(&clip, reject_slope(64), reject_slope(64)) as u32;
            }
            println!("{}: {early} of {rejected} rejects taken early", c.name);
            assert!(rejected > 1000, "{}: {rejected} rejects", c.name);
            assert!(
                10 * early >= 9 * rejected,
                "{}: {early} of {rejected} rejects taken early",
                c.name
            );
        }
    }

    #[test]
    fn truncating_box_bounds_equal_floor_and_ceil_on_every_kind_of_value() {
        let nudge = |v: f32, ulps: i32| f32::from_bits((v.to_bits() as i32 + ulps) as u32);
        let mut values = vec![
            f32::NAN,
            f32::INFINITY,
            f32::MIN_POSITIVE,
            1e-30,
            0.0,
            0.25,
            0.5,
            1.0,
            1.5,
            2.0,
            8388607.5,
            8388608.0,
            1e10,
            9.223372e18,
            9.223373e18,
            3.4e38,
            f32::MAX,
        ];
        let limits: Vec<i64> = [1i64, 3, 7, 8, 9, 61, 400, 401, 1 << 31, 1 << 32]
            .iter()
            .flat_map(|&w| [w - 1, w])
            .chain([-1, i64::MAX - 1, i64::MAX, i64::MIN])
            .collect();
        // Every viewport extent, and the values an ulp to either side.
        for &l in &limits {
            let v = l as f32;
            values.extend([v, nudge(v, 1), nudge(v, -1), v + 0.5, v - 0.5]);
        }
        let signed: Vec<f32> = values.iter().flat_map(|&v| [v, -v]).collect();
        for &v in &signed {
            assert_eq!(
                floor_from_zero(v),
                v.floor().max(0.0) as i64,
                "floor of {v:e}"
            );
            for &limit in &limits {
                assert_eq!(
                    ceil_up_to(v, limit),
                    (v.ceil() as i64).min(limit),
                    "ceil of {v:e} up to {limit}"
                );
            }
        }
    }

    /// A coordinate from one of the regimes the fill has to survive:
    /// on-screen, a few screens out, magnitudes up to 1e7 pixels, values
    /// that differ in the last bits, and non-finite.
    fn arb_coord() -> impl Strategy<Value = f32> {
        (0u32..20, -1f32..1.0, any::<u32>()).prop_map(|(class, v, bits)| match class {
            0..=8 => v * 1.1,
            9..=11 => v * 6.0,
            12 | 13 => v * 1e3,
            14 => v * 1e5,
            15 => (v * 8.0).round() / 8.0,
            16 => f32::from_bits(0.5f32.to_bits() + bits % 4),
            17 => v * 1e-30,
            18 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][bits as usize % 3],
            _ => 0.0,
        })
    }

    fn arb_soup() -> impl Strategy<Value = Vec<Triangle>> {
        let vertex = || (arb_coord(), arb_coord(), -1f32..1.0).prop_map(|(x, y, z)| vec3(x, y, z));
        // Half the triangles are a vertex plus two short edges: slivers
        // and small boxes rather than screen-filling soup.
        let tri = (vertex(), vertex(), vertex(), any::<bool>(), any::<u32>()).prop_map(
            |(a, b, c, local, rgb)| {
                let [r, g, b_, _] = rgb.to_le_bytes();
                let color = [r, g, b_];
                if local {
                    Triangle::new(a, a + b * 0.05, a + c * 0.05, color)
                } else {
                    Triangle::new(a, b, c, color)
                }
            },
        );
        prop::collection::vec(tri, 1..24)
    }

    fn arb_mvp() -> impl Strategy<Value = Mat4> {
        // Identity passes NDC through, so x = ±1e5 is ~1e7 pixels out at
        // width 400; the perspective puts some vertices near and behind
        // the w = 1e-4 reject; the third keeps a −0 vertex depth −0.
        (0u32..5, -3f32..0.5).prop_map(|(kind, dz)| match kind {
            0 => Mat4::perspective(1.0, 1.0, 0.5, 50.0)
                .mul_mat(&Mat4::translation(vec3(0.0, 0.0, dz))),
            1 => signed_zero_mvp(),
            _ => Mat4::IDENTITY,
        })
    }

    /// Identity moved by (−2, −2) with −0 in every other entry of the
    /// depth row. A sum with a +0 term is +0, so this is a matrix that
    /// keeps a −0 vertex depth −0 through the transform: for x and y ≥ 0
    /// every term of the depth row is −0.
    fn signed_zero_mvp() -> Mat4 {
        let mut mvp = Mat4::IDENTITY;
        mvp.cols[3] = Vec4 {
            x: -2.0,
            y: -2.0,
            z: -0.0,
            w: 1.0,
        };
        mvp.cols[0].z = -0.0;
        mvp.cols[1].z = -0.0;
        mvp
    }

    /// The skip proptests' strategies reach the fill with −0 depths: over
    /// 1 000 draws of `arb_soup`, `edit_depths` and `arb_mvp`, some
    /// triangles survive set-up onto a 400×40 target with a −0 vertex
    /// depth.
    #[test]
    fn arb_mvp_keeps_negative_zero_depths_through_set_up() {
        let strategy = (arb_soup(), arb_depth_edits(), arb_mvp());
        let mut hits = 0;
        for seed in 0..1000 {
            let rng = &mut proptest::test_runner::TestRng::seed_from_u64(seed);
            let (mut tris, edits, mvp) = strategy.generate(rng);
            edit_depths(&mut tris, &edits);
            hits += tris
                .iter()
                .filter_map(|t| TriSetup::new(t, &mvp, 400, 40))
                .filter(|t| t.z.iter().any(|z| z.to_bits() == (-0f32).to_bits()))
                .count();
        }
        assert!(hits > 0, "no set-up triangle with a −0 depth");
    }

    proptest! {
        // `PROPTEST_CASES` can only raise the count (CI does).
        #![proptest_config(ProptestConfig {
            cases: ProptestConfig::default().cases.max(96),
            ..ProptestConfig::default()
        })]

        #[test]
        fn oracle_random_soups_match_the_reference_walk(
            soup in arb_soup(),
            second in arb_soup(),
            mvp in arb_mvp(),
            wi in 0usize..8,
            h in 1u32..40,
        ) {
            let w = [1u32, 3, 7, 8, 9, 61, 400, 401][wi];
            let (mut got, mut want) = (fresh(w, h), fresh(w, h));
            for (pass, tris) in [soup, second].iter().enumerate() {
                let indices: Vec<u32> = (0..tris.len() as u32).collect();
                let what = format!("{w}x{h} pass {pass}");
                assert_matches_reference(tris, &indices, &mvp, &mut got, &mut want, &what);
                for (i, tri) in tris.iter().enumerate() {
                    if let Some(t) = TriSetup::new(tri, &mvp, w as i64, h as i64) {
                        check_spans(&t, &format!("{what} triangle {i}"));
                    }
                }
            }
        }
    }

    /// A screen coordinate aimed at one of the thresholds the clip-space
    /// reject and the exact box test turn on, resolved against the viewport
    /// extent once that is known.
    #[derive(Debug, Clone, Copy)]
    struct Hug {
        base: u32,
        neg: bool,
        ulps: i32,
        free: f32,
    }

    impl Hug {
        /// NDC for a viewport `extent` pixels across: pixel −1 or the
        /// reject threshold past it, the far-side equivalents at 1 and
        /// 1 + margin, each a few ulps off and on either side; or an
        /// ordinary coordinate.
        fn ndc(self, extent: u32) -> f32 {
            let edge = 1.0 + 2.0 / extent as f32;
            let v = match self.base {
                0 => edge,
                1 => edge + REJECT_MARGIN,
                2 => 1.0,
                3 => 1.0 + REJECT_MARGIN,
                _ => return self.free,
            };
            let v = f32::from_bits((v.to_bits() as i32 + self.ulps) as u32);
            if self.neg {
                -v
            } else {
                v
            }
        }
    }

    fn arb_hug() -> impl Strategy<Value = Hug> {
        (0u32..6, any::<bool>(), -4i32..5, -1.2f32..1.2).prop_map(|(base, neg, ulps, free)| Hug {
            base,
            neg,
            ulps,
            free,
        })
    }

    /// Three vertices of [`Hug`] coordinates. `side` 0 and 1 put all three
    /// x (resp. y) at a threshold on one side of the viewport, the only
    /// way the reject can fire; 2 and 3 leave them as drawn.
    #[derive(Debug, Clone)]
    struct EdgeTri {
        side: u32,
        neg: bool,
        x: [Hug; 3],
        y: [Hug; 3],
        z: [f32; 3],
        color: [u8; 3],
    }

    impl EdgeTri {
        /// The triangle whose NDC comes out at the aimed coordinates on a
        /// `w`×`h` viewport: directly under the identity, and under
        /// [`edge_perspective`]`(dz)` scaled by each vertex's clip `w`, so
        /// that the divide lands within rounding of them.
        fn build(&self, w: u32, h: u32, persp: Option<f32>) -> Triangle {
            let aim = |hugs: &[Hug; 3], axis: u32, extent: u32| {
                hugs.map(|mut hug| {
                    if self.side == axis {
                        hug.base %= 4;
                        hug.neg = self.neg;
                    }
                    hug.ndc(extent)
                })
            };
            let (x, y) = (aim(&self.x, 0, w), aim(&self.y, 1, h));
            let v = |i: usize| match persp {
                None => vec3(x[i], y[i], self.z[i]),
                Some(dz) => {
                    let f = edge_perspective(0.0).cols[0].x;
                    let cw = -(self.z[i] + dz);
                    vec3(x[i] * cw / f, y[i] * cw / f, self.z[i])
                }
            };
            Triangle::new(v(0), v(1), v(2), self.color)
        }
    }

    /// [`arb_mvp`]'s perspective: clip `w` is `−(z + dz)`, clip x and y are
    /// view x and y times `cols[0].x`.
    fn edge_perspective(dz: f32) -> Mat4 {
        Mat4::perspective(1.0, 1.0, 0.5, 50.0).mul_mat(&Mat4::translation(vec3(0.0, 0.0, dz)))
    }

    fn arb_edge_tri() -> impl Strategy<Value = EdgeTri> {
        let hugs = || (arb_hug(), arb_hug(), arb_hug()).prop_map(|(a, b, c)| [a, b, c]);
        let zs = (-1f32..1.0, -1f32..1.0, -1f32..1.0).prop_map(|(a, b, c)| [a, b, c]);
        (0u32..4, any::<bool>(), hugs(), hugs(), zs, any::<u32>()).prop_map(
            |(side, neg, x, y, z, rgb)| {
                let [r, g, b, _] = rgb.to_le_bytes();
                EdgeTri {
                    side,
                    neg,
                    x,
                    y,
                    z,
                    color: [r, g, b],
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: ProptestConfig::default().cases.max(96),
            ..ProptestConfig::default()
        })]

        /// The oracle again, on soups that sit where the clip-space reject
        /// decides: pixel −1, the margin past it, and their far-side
        /// counterparts, a few ulps either way.
        #[test]
        fn oracle_reject_boundary_soups_match_the_reference_walk(
            soup in prop::collection::vec(arb_edge_tri(), 1..24),
            persp in any::<bool>(),
            dz in -3f32..0.5,
            wi in 0usize..8,
            h in 1u32..40,
        ) {
            let w = [1u32, 3, 7, 8, 9, 61, 400, 401][wi];
            let (persp, mvp) = if persp {
                (Some(dz), edge_perspective(dz))
            } else {
                (None, Mat4::IDENTITY)
            };
            let tris: Vec<Triangle> = soup.iter().map(|t| t.build(w, h, persp)).collect();
            let indices: Vec<u32> = (0..tris.len() as u32).collect();
            let (mut got, mut want) = (fresh(w, h), fresh(w, h));
            let what = format!("{w}x{h} persp {persp:?}");
            assert_matches_reference(&tris, &indices, &mvp, &mut got, &mut want, &what);
        }
    }

    /// A target width: one of the oracle's list (the 8-column tile edges
    /// among them) half the time, else any of 1–401.
    fn arb_width() -> impl Strategy<Value = u32> {
        (0usize..16, 1u32..402)
            .prop_map(|(i, w)| [1, 3, 7, 8, 9, 61, 400, 401].get(i).copied().unwrap_or(w))
    }

    /// Per-triangle depth edits: `(kind, pick)` in order.
    fn arb_depth_edits() -> impl Strategy<Value = Vec<(u32, u32)>> {
        prop::collection::vec((0u32..8, any::<u32>()), 24)
    }

    /// Move `tris`' depths onto the cases the skip and the tie check decide
    /// on: a recoloured copy of an earlier triangle (equal depth at every
    /// pixel it shares), the other half of an earlier triangle's
    /// parallelogram (equal depths along the shared edge, often with a
    /// nearer vertex, so that nearest first reverses the two), all three
    /// vertices at one of a few shared depths, ±0 among them (coplanar
    /// triangles at equal depth), or one vertex at NaN or ±∞.
    fn edit_depths(tris: &mut [Triangle], edits: &[(u32, u32)]) {
        for (i, &(kind, pick)) in edits.iter().enumerate().take(tris.len()) {
            match kind {
                0 if i > 0 => {
                    tris[i] = Triangle {
                        color: [pick as u8, 7, 200],
                        ..tris[pick as usize % i]
                    };
                }
                1 | 2 => {
                    let z = [-0.5, 0.0, -0.0, 0.25, 0.9][pick as usize % 5];
                    for v in &mut tris[i].v {
                        v.z = z;
                    }
                }
                3 => {
                    let z = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][pick as usize % 3];
                    tris[i].v[(pick / 3) as usize % 3].z = z;
                }
                4 if i > 0 => {
                    let [a, b, c] = tris[pick as usize % i].v;
                    tris[i] = Triangle::new(b, c, b + c - a, [pick as u8, 99, 9]);
                }
                _ => {}
            }
        }
    }

    /// `tris` through `mvp`, drawn two ways over targets that hold the
    /// same contents on entry: by [`rasterize`] (`painted`), and set up
    /// once as a [`FrameSetup`] then drawn in bands of `band_rows` rows,
    /// top to bottom, each band cleared back to its entry contents
    /// (`banded`). The two must agree in image bytes and z-buffer bits and
    /// in `triangles_in` and `triangles_filled`. The bands must count a
    /// write for every pixel whose depth they changed, a covered pixel for
    /// every write, and may test no more pixels than the painter. (They
    /// may write more: nearest first goes by each triangle's nearest
    /// vertex, and a triangle drawn early can still lose pixels to one
    /// drawn later.)
    fn assert_skip_matches_painter(
        tris: &[Triangle],
        mvp: &Mat4,
        band_rows: u32,
        [painted, banded]: [&mut (Image, Vec<f32>); 2],
        what: &str,
    ) {
        let indices: Vec<u32> = (0..tris.len() as u32).collect();
        let (w, h) = (painted.0.width(), painted.0.height());
        let bits = |z: &[f32]| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let entry = bits(&banded.1);
        let want = rasterize(tris, &indices, mvp, &mut painted.0, &mut painted.1);

        let mut setup = FrameSetup {
            visible: indices,
            ..FrameSetup::default()
        };
        setup.set_up(tris, mvp, w, h);
        let mut got = setup.stats();
        let band_px = band_rows as usize * w as usize;
        let pix = banded.0.as_bytes_mut().chunks_mut(4 * band_px);
        for ((pix, z), top) in pix
            .zip(banded.1.chunks_mut(band_px))
            .zip((0..).step_by(band_rows as usize))
        {
            let (pix0, z0) = (pix.to_vec(), z.to_vec());
            setup.fill_band(top, pix, z, &mut got, |pix, z| {
                pix.copy_from_slice(&pix0);
                z.copy_from_slice(&z0);
            });
        }

        assert!(banded.0 == painted.0, "{what}: image bytes differ");
        assert!(
            bits(&banded.1) == bits(&painted.1),
            "{what}: z-buffer bits differ"
        );
        let exact = |s: &RasterStats| (s.triangles_in, s.triangles_filled);
        assert_eq!(exact(&got), exact(&want), "{what}: stats");
        let changed = entry
            .iter()
            .zip(bits(&banded.1))
            .filter(|(a, b)| *a != b)
            .count();
        assert!(
            changed as u64 <= got.pixels_written
                && got.pixels_written <= got.pixels_covered
                && got.pixels_covered <= want.pixels_covered,
            "{what}: {changed} depths changed, {} written, {} covered of the painter's {}",
            got.pixels_written,
            got.pixels_covered,
            want.pixels_covered
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: ProptestConfig::default().cases.max(96),
            ..ProptestConfig::default()
        })]

        /// The front-to-back fill and its tie redo change no pixel and no
        /// depth: random soups with the depth edits, a second soup onto
        /// the used target.
        #[test]
        fn skip_random_soups_match_the_painter(
            soups in (arb_soup(), arb_soup()),
            edits in (arb_depth_edits(), arb_depth_edits()),
            mvp in arb_mvp(),
            w in arb_width(),
            h in 1u32..40,
            band_rows in 1u32..20,
        ) {
            let mut targets = [fresh(w, h), fresh(w, h)];
            for (pass, (mut tris, edits)) in [(soups.0, edits.0), (soups.1, edits.1)].into_iter().enumerate() {
                edit_depths(&mut tris, &edits);
                let [a, b] = &mut targets;
                let what = format!("{w}x{h} bands of {band_rows} pass {pass}");
                assert_skip_matches_painter(&tris, &mvp, band_rows, [a, b], &what);
            }
        }

        /// The same on soups aimed at the clip-space reject's thresholds.
        #[test]
        fn skip_reject_boundary_soups_match_the_painter(
            soups in (
                prop::collection::vec(arb_edge_tri(), 1..24),
                prop::collection::vec(arb_edge_tri(), 1..24),
            ),
            edits in (arb_depth_edits(), arb_depth_edits()),
            persp in any::<bool>(),
            dz in -3f32..0.5,
            w in arb_width(),
            h in 1u32..40,
            band_rows in 1u32..20,
        ) {
            let (persp, mvp) = if persp {
                (Some(dz), edge_perspective(dz))
            } else {
                (None, Mat4::IDENTITY)
            };
            let mut targets = [fresh(w, h), fresh(w, h)];
            for (pass, (soup, edits)) in [(soups.0, edits.0), (soups.1, edits.1)].into_iter().enumerate() {
                let mut tris: Vec<Triangle> = soup.iter().map(|t| t.build(w, h, persp)).collect();
                edit_depths(&mut tris, &edits);
                let [a, b] = &mut targets;
                let what = format!("{w}x{h} persp {persp:?} bands of {band_rows} pass {pass}");
                assert_skip_matches_painter(&tris, &mvp, band_rows, [a, b], &what);
            }
        }
    }

    /// `c` set up as a [`FrameSetup`] and drawn as one band over a fresh
    /// target, as the render stage draws a strip: the pixels and stats.
    fn fill_case(c: &Case) -> ((Image, Vec<f32>), RasterStats) {
        let mut setup = FrameSetup {
            visible: c.indices.clone(),
            ..FrameSetup::default()
        };
        setup.set_up(&c.tris, &c.mvp, c.w, c.h);
        let (mut img, mut z) = fresh(c.w, c.h);
        let mut stats = setup.stats();
        setup.fill_band(0, img.as_bytes_mut(), &mut z, &mut stats, |pix, z| {
            pix.fill(0);
            z.fill(f32::INFINITY);
        });
        ((img, z), stats)
    }

    /// The skip has to fire as well as be safe: a margin or a tile bound
    /// that stopped proving triangles hidden would pass every bit-identity
    /// test and lose the speed-up silently. Over the 64×64 serving frames
    /// the pinned cases draw, the render stage's fill may count at most two
    /// thirds of the pixels the painter covers (it counts 27%).
    #[test]
    fn skip_removes_a_third_of_the_painters_covered_pixels_at_64x64() {
        let (mut painted, mut skipped) = (0u64, 0u64);
        for c in serving_cases().iter().filter(|c| (c.w, c.h) == (64, 64)) {
            let mut a = fresh(c.w, c.h);
            painted += rasterize(&c.tris, &c.indices, &c.mvp, &mut a.0, &mut a.1).pixels_covered;
            skipped += fill_case(c).1.pixels_covered;
        }
        println!("64x64: skipping fill covered {skipped} of the painter's {painted}");
        assert!(3 * skipped <= 2 * painted, "{skipped} of {painted}");
    }

    /// The order has to fire as well as be safe: a fill that fell back to
    /// draw order would pass every bit-identity test. Over the pinned
    /// 400×400 city strips, the render stage's fill may count at most 40%
    /// of the pixels the painter covers (it counts 28%).
    #[test]
    fn nearest_first_covers_at_most_two_fifths_of_the_painters_pixels_at_400x400() {
        let (mut painted, mut filled) = (0u64, 0u64);
        for c in &city_cases() {
            let mut a = fresh(c.w, c.h);
            painted += rasterize(&c.tris, &c.indices, &c.mvp, &mut a.0, &mut a.1).pixels_covered;
            filled += fill_case(c).1.pixels_covered;
        }
        println!("400x400: nearest-first fill covered {filled} of the painter's {painted}");
        assert!(5 * filled <= 2 * painted, "{filled} of {painted}");
    }

    /// Two full-screen triangles at depth zero, +0 at draw index 0 and −0
    /// at index 1. Nearest first draws the −0 one first; the +0 one then
    /// ties everywhere, and only the redo gives the painter's frame: the
    /// first triangle's colour, at +0.
    #[test]
    fn signed_zero_tie_is_redrawn_in_draw_order() {
        // The −0 survives the transform: x and y ≥ 0, moved on screen by
        // the matrix.
        let tri = |z: f32, color| {
            Triangle::new(
                vec3(0.0, 0.0, z),
                vec3(8.0, 0.0, z),
                vec3(0.0, 8.0, z),
                color,
            )
        };
        let mvp = signed_zero_mvp();
        let c = Case {
            name: "±0".into(),
            tris: std::sync::Arc::new(vec![tri(0.0, [200, 0, 0]), tri(-0.0, [0, 0, 200])]),
            indices: vec![0, 1],
            mvp,
            w: 16,
            h: 16,
        };
        let mut setup = FrameSetup {
            visible: c.indices.clone(),
            ..FrameSetup::default()
        };
        setup.set_up(&c.tris, &c.mvp, c.w, c.h);
        assert!(setup.nearest_first().eq([1, 0]), "−0 sorts first");

        let mut painted = fresh(c.w, c.h);
        rasterize(&c.tris, &c.indices, &c.mvp, &mut painted.0, &mut painted.1);
        let ((img, z), _) = fill_case(&c);
        let first = flat_shade(&c.tris[0], LIGHT_DIR.normalized());
        assert!((0..16).all(|y| (0..16).all(|x| img.get(x, y) == first)));
        assert!(z.iter().all(|v| v.to_bits() == 0));
        assert!(img == painted.0);
    }

    #[test]
    fn total_order_key_sorts_as_total_cmp() {
        let nan = f32::NAN;
        let mut values = vec![
            -nan,
            f32::NEG_INFINITY,
            f32::MIN,
            -1.0,
            -f32::MIN_POSITIVE,
            -1e-45,
            -0.0,
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            0.5,
            1.0,
            f32::MAX,
            f32::INFINITY,
            nan,
        ];
        values.extend((0..400).map(|i| f32::from_bits(i * 10_737_418)));
        for a in &values {
            for b in &values {
                let by_key = total_order_key(*a).cmp(&total_order_key(*b));
                assert_eq!(by_key, a.total_cmp(b), "{a:e} against {b:e}");
            }
        }
    }

    /// The redo has to stay rare, or the order buys little: over every
    /// third walkthrough frame of each pinned geometry, at most one
    /// [`BAND_ROWS`]-row band in a hundred sees a tie (4 of 2 144 at
    /// 400×400, none at 64×64 or on the flat scene).
    #[test]
    fn at_most_one_band_in_a_hundred_is_redrawn_for_a_tie() {
        for g in &GEOMETRIES {
            let r = g.renderer();
            let mut setup = FrameSetup::default();
            let (mut bands, mut redrawn) = (0u32, 0u32);
            for frame in (0..WALKTHROUGH_FRAMES).step_by(3) {
                r.set_up_frame(
                    &g.walkthrough().camera(frame),
                    g.width,
                    g.height,
                    &mut setup,
                );
                for top in (0..g.height).step_by(BAND_ROWS as usize) {
                    let n = BAND_ROWS.min(g.height - top) as usize * g.width as usize;
                    let (mut pix, mut z) = (vec![0; 4 * n], vec![f32::INFINITY; n]);
                    let (order, stats) = (setup.nearest_first(), &mut RasterStats::default());
                    redrawn += setup.fill_rows(order, top, &mut pix, &mut z, stats) as u32;
                    bands += 1;
                }
            }
            println!("{}: {redrawn} of {bands} bands tied", g.name);
            assert!(100 * redrawn <= bands, "{}: {redrawn} of {bands}", g.name);
        }
    }

    /// The order has to pay for itself. Timed in one process, so host
    /// noise mostly cancels: on the census poses (walkthrough frames 0,
    /// 50, …, 350) at 400×400, set-up plus the nearest-first fill against
    /// set-up plus the same skipping fill in draw order, calls interleaved,
    /// best of 15 each. The floor is about half the measured ratio
    /// (EXPERIMENTS.md has the runs).
    #[test]
    #[ignore = "a speed gate; run in release"]
    fn nearest_first_fill_outpaces_draw_order_at_400x400() {
        const FLOOR: f64 = 1.5;
        let g = &GEOMETRIES[0];
        let r = g.renderer();
        let mut setup = FrameSetup::default();
        let n = (g.width * g.height) as usize;
        let (mut pix, mut z) = (vec![0u8; 4 * n], vec![f32::INFINITY; n]);
        let mut time = |frame: u64, nearest: bool| {
            let t0 = std::time::Instant::now();
            r.set_up_frame(
                &g.walkthrough().camera(frame),
                g.width,
                g.height,
                &mut setup,
            );
            z.fill(f32::INFINITY);
            let stats = &mut RasterStats::default();
            if nearest {
                setup.fill_rows(setup.nearest_first(), 0, &mut pix, &mut z, stats);
            } else {
                setup.fill_rows(0..setup.list.len(), 0, &mut pix, &mut z, stats);
            }
            t0.elapsed().as_secs_f64()
        };
        let (mut nearest, mut drawn) = (0.0, 0.0);
        for frame in (0..WALKTHROUGH_FRAMES).step_by(50) {
            let (mut a, mut b) = (f64::MAX, f64::MAX);
            for _ in 0..15 {
                a = a.min(time(frame, true));
                b = b.min(time(frame, false));
            }
            nearest += a;
            drawn += b;
        }
        let ratio = drawn / nearest;
        println!(
            "nearest first {:.0} µs, draw order {:.0} µs a frame: {ratio:.2}x",
            nearest / 8.0 * 1e6,
            drawn / 8.0 * 1e6
        );
        assert!(ratio >= FLOOR, "{ratio:.2}x, floor {FLOOR}x");
    }

    fn full_screen_tri(z: f32, color: [u8; 3]) -> Triangle {
        // Covers the whole NDC square generously at depth `z` (view space
        // straight ahead with identity MVP).
        Triangle::new(
            vec3(-4.0, -4.0, z),
            vec3(4.0, -4.0, z),
            vec3(0.0, 6.0, z),
            color,
        )
    }

    /// Identity-like MVP: pass NDC through (w = 1).
    fn identity() -> Mat4 {
        Mat4::IDENTITY
    }

    #[test]
    fn fills_pixels_inside_triangle() {
        let tris = [full_screen_tri(0.0, [200, 0, 0])];
        let mut img = Image::new(16, 16);
        let mut z = new_zbuf(16, 16);
        let stats = rasterize(&tris, &[0], &identity(), &mut img, &mut z);
        assert_eq!(stats.triangles_filled, 1);
        assert!(stats.pixels_written > 0);
        // Centre pixel must be shaded red-ish.
        let c = img.get(8, 8);
        assert!(c[0] > 0 && c[1] == 0 && c[2] == 0);
    }

    #[test]
    fn depth_test_keeps_nearest() {
        // NDC z: smaller = nearer with our convention.
        let tris = [
            full_screen_tri(0.5, [0, 255, 0]),
            full_screen_tri(0.1, [255, 0, 0]),
        ];
        let mut img = Image::new(8, 8);
        let mut z = new_zbuf(8, 8);
        // Draw far first then near.
        rasterize(&tris, &[0, 1], &identity(), &mut img, &mut z);
        let c = img.get(4, 4);
        assert!(c[0] > 0 && c[1] == 0, "near (red) triangle must win");
        // Order independence: near first, far second.
        let mut img2 = Image::new(8, 8);
        let mut z2 = new_zbuf(8, 8);
        rasterize(&tris, &[1, 0], &identity(), &mut img2, &mut z2);
        assert_eq!(img.get(4, 4), img2.get(4, 4));
    }

    #[test]
    fn degenerate_triangles_skipped() {
        let t = Triangle::new(
            vec3(0.0, 0.0, 0.0),
            vec3(1.0, 1.0, 0.0),
            vec3(2.0, 2.0, 0.0),
            [9; 3],
        );
        let tris = [t];
        let mut img = Image::new(8, 8);
        let mut z = new_zbuf(8, 8);
        let stats = rasterize(&tris, &[0], &identity(), &mut img, &mut z);
        assert_eq!(stats.triangles_filled, 0);
        assert_eq!(stats.pixels_written, 0);
    }

    #[test]
    fn behind_camera_rejected() {
        // With a real perspective matrix, w = -z_view; a triangle behind
        // the eye has w < 0 and must be dropped, not smeared.
        let proj = Mat4::perspective(1.0, 1.0, 0.5, 50.0);
        let t = Triangle::new(
            vec3(-1.0, -1.0, 5.0),
            vec3(1.0, -1.0, 5.0),
            vec3(0.0, 1.0, 5.0),
            [255; 3],
        );
        let tris = [t];
        let mut img = Image::new(8, 8);
        let mut z = new_zbuf(8, 8);
        let stats = rasterize(&tris, &[0], &proj, &mut img, &mut z);
        assert_eq!(stats.pixels_written, 0);
        assert_eq!(stats.triangles_filled, 0);
    }

    #[test]
    fn offscreen_triangle_writes_nothing() {
        let proj = Mat4::perspective(1.0, 1.0, 0.5, 50.0);
        // Far off to the +x side.
        let t = Triangle::new(
            vec3(100.0, 0.0, -10.0),
            vec3(101.0, 0.0, -10.0),
            vec3(100.0, 1.0, -10.0),
            [255; 3],
        );
        let mut img = Image::new(8, 8);
        let mut z = new_zbuf(8, 8);
        let stats = rasterize(&[t], &[0], &proj, &mut img, &mut z);
        assert_eq!(stats.pixels_written, 0);
    }

    #[test]
    fn covered_at_least_written() {
        let tris = [
            full_screen_tri(0.3, [1, 2, 3]),
            full_screen_tri(0.2, [3, 2, 1]),
        ];
        let mut img = Image::new(32, 32);
        let mut z = new_zbuf(32, 32);
        let stats = rasterize(&tris, &[0, 1], &identity(), &mut img, &mut z);
        assert!(stats.pixels_covered >= stats.pixels_written);
        assert!(stats.pixels_written >= 32 * 32, "both cover full screen");
    }

    #[test]
    #[should_panic(expected = "z-buffer size mismatch")]
    fn zbuf_size_checked() {
        let mut img = Image::new(4, 4);
        let mut z = vec![f32::INFINITY; 3];
        rasterize(&[], &[], &identity(), &mut img, &mut z);
    }
}
