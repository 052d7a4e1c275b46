//! Blur stage (BS): box blur over a square neighbourhood.
//!
//! "Pixels are transformed with respect to the neighboring pixels by
//! calculating the average color of these pixels. To work from the
//! original data, a second buffer is required" (§IV). This is the most
//! expensive filter stage in the paper's measurements — the 3×3 (or
//! larger) gather makes it both compute- and memory-heavy.

use crate::backend::KernelBackend;
use crate::chunk::par_row_chunks;
use crate::filter::{FrameCtx, ImageFilter, Traffic};
use crate::image::{Image, BYTES_PER_PIXEL};

/// Box blur with configurable radius (radius 1 = 3×3 window).
#[derive(Debug, Clone, Copy)]
pub struct Blur {
    pub radius: u32,
}

impl Default for Blur {
    fn default() -> Self {
        Blur { radius: 1 }
    }
}

impl Blur {
    pub fn new(radius: u32) -> Blur {
        assert!(radius >= 1, "radius 0 is a no-op blur");
        Blur { radius }
    }

    fn window(&self) -> u64 {
        let d = (2 * self.radius + 1) as u64;
        d * d
    }
}

/// The shared kernel: average the window around every pixel of row `y`,
/// reading the pristine `src` buffer and writing `out_row` (that row's
/// bytes of the destination). Blur is a pure function of (src, y), so the
/// sequential path and any row chunk of the parallel one run the exact
/// same integer arithmetic.
fn blur_row(src: &Image, y: u32, out_row: &mut [u8], r: i64) {
    let w = src.width();
    let h = src.height();
    for x in 0..w {
        let mut acc = [0u32; 3];
        let mut n = 0u32;
        for dy in -r..=r {
            for dx in -r..=r {
                let sx = x as i64 + dx;
                let sy = y as i64 + dy;
                if sx < 0 || sy < 0 || sx >= w as i64 || sy >= h as i64 {
                    continue;
                }
                let p = src.get(sx as u32, sy as u32);
                acc[0] += p[0] as u32;
                acc[1] += p[1] as u32;
                acc[2] += p[2] as u32;
                n += 1;
            }
        }
        let o = x as usize * BYTES_PER_PIXEL;
        out_row[o] = (acc[0] / n) as u8;
        out_row[o + 1] = (acc[1] / n) as u8;
        out_row[o + 2] = (acc[2] / n) as u8;
        // Alpha stays whatever the destination row held (the source value).
    }
}

/// Exact unsigned division by a small run-time constant via the
/// round-up multiply-shift (Granlund–Montgomery): `q = (a·m) >> 32`
/// with `m = ⌊2³²/n⌋ + 1` equals `a / n` for every `a ≤ 255·n` as long
/// as `255·n² < 2³²` (windows up to 63×63). Outside that envelope it
/// falls back to the hardware divide — same quotient either way.
#[derive(Clone, Copy)]
struct ExactDiv {
    n: u32,
    m: u64,
    exact: bool,
}

impl ExactDiv {
    fn new(n: u32) -> ExactDiv {
        ExactDiv {
            n,
            m: (1u64 << 32) / n as u64 + 1,
            exact: 255 * (n as u64) * (n as u64) < (1u64 << 32),
        }
    }

    #[inline]
    fn div(self, a: u32) -> u32 {
        if self.exact {
            ((a as u64 * self.m) >> 32) as u32
        } else {
            a / self.n
        }
    }
}

fn add_row(src: &Image, y: u32, cr: &mut [u32], cg: &mut [u32], cb: &mut [u32]) {
    let row = src.row(y);
    for (x, px) in row.chunks_exact(BYTES_PER_PIXEL).enumerate() {
        cr[x] += px[0] as u32;
        cg[x] += px[1] as u32;
        cb[x] += px[2] as u32;
    }
}

fn sub_row(src: &Image, y: u32, cr: &mut [u32], cg: &mut [u32], cb: &mut [u32]) {
    let row = src.row(y);
    for (x, px) in row.chunks_exact(BYTES_PER_PIXEL).enumerate() {
        cr[x] -= px[0] as u32;
        cg[x] -= px[1] as u32;
        cb[x] -= px[2] as u32;
    }
}

/// The vectorized backend's kernel: the same box average computed as a
/// separable sliding window. Per-column vertical sums slide down the
/// chunk (add the entering row, subtract the leaving row) and a
/// horizontal running sum slides across each output row, so the
/// per-pixel cost is O(1) instead of O((2r+1)²). All partial sums are
/// exact u32 integers and u32 addition is associative and commutative,
/// so `acc` and `n` — and therefore `acc / n` — are bit-identical to
/// the naive gather of [`blur_row`] for every pixel, including partial
/// windows at all four borders.
fn blur_chunk_sliding(src: &Image, y0: u32, out_rows: &mut [u8], r: i64) {
    let w = src.width() as usize;
    let h = src.height() as i64;
    let row_bytes = w * BYTES_PER_PIXEL;
    let mut cr = vec![0u32; w];
    let mut cg = vec![0u32; w];
    let mut cb = vec![0u32; w];
    // Vertical window of the chunk's first output row.
    let lo = (y0 as i64 - r).max(0);
    let hi = (y0 as i64 + r).min(h - 1);
    for sy in lo..=hi {
        add_row(src, sy as u32, &mut cr, &mut cg, &mut cb);
    }
    let mut ny = (hi - lo + 1) as u32;
    let full_nx = ((2 * r + 1) as u64).min(w as u64) as u32;
    for (dy, out_row) in out_rows.chunks_exact_mut(row_bytes).enumerate() {
        let y = y0 as i64 + dy as i64;
        if dy > 0 {
            let leave = y - 1 - r;
            if leave >= 0 {
                sub_row(src, leave as u32, &mut cr, &mut cg, &mut cb);
                ny -= 1;
            }
            let enter = y + r;
            if enter < h {
                add_row(src, enter as u32, &mut cr, &mut cg, &mut cb);
                ny += 1;
            }
        }
        // Horizontal window of x = 0.
        let mut ar = 0u32;
        let mut ag = 0u32;
        let mut ab = 0u32;
        let mut nx = 0u32;
        for cx in 0..=(r.min(w as i64 - 1) as usize) {
            ar += cr[cx];
            ag += cg[cx];
            ab += cb[cx];
            nx += 1;
        }
        // One divider for the (constant) interior window, hoisted out
        // of the loop; border pixels with partial windows divide the
        // plain way.
        let interior = ExactDiv::new(ny * full_nx);
        for x in 0..w {
            let (qr, qg, qb) = if nx == full_nx {
                (interior.div(ar), interior.div(ag), interior.div(ab))
            } else {
                let n = ny * nx;
                (ar / n, ag / n, ab / n)
            };
            let o = x * BYTES_PER_PIXEL;
            out_row[o] = qr as u8;
            out_row[o + 1] = qg as u8;
            out_row[o + 2] = qb as u8;
            // Alpha stays whatever the destination row held.
            let enter = x as i64 + 1 + r;
            if enter < w as i64 {
                ar += cr[enter as usize];
                ag += cg[enter as usize];
                ab += cb[enter as usize];
                nx += 1;
            }
            let leave = x as i64 - r;
            if leave >= 0 {
                ar -= cr[leave as usize];
                ag -= cg[leave as usize];
                ab -= cb[leave as usize];
                nx -= 1;
            }
        }
    }
}

impl ImageFilter for Blur {
    fn name(&self) -> &'static str {
        "blur"
    }

    fn apply(&self, img: &mut Image, ctx: &FrameCtx) {
        self.apply_chunked(img, ctx, 1);
    }

    fn apply_chunked(&self, img: &mut Image, _ctx: &FrameCtx, workers: usize) {
        let r = self.radius as i64;
        let row_bytes = img.width() as usize * BYTES_PER_PIXEL;
        // The second buffer the paper describes: blur must read original
        // values, not partially blurred ones — and it is what makes the
        // row decomposition race-free (workers share `src` read-only).
        let src = img.clone();
        par_row_chunks(img, workers, |y0, rows| {
            for (dy, row) in rows.chunks_exact_mut(row_bytes).enumerate() {
                blur_row(&src, y0 + dy as u32, row, r);
            }
        });
    }

    fn apply_vectored(
        &self,
        img: &mut Image,
        ctx: &FrameCtx,
        backend: KernelBackend,
        workers: usize,
    ) {
        match backend {
            KernelBackend::Scalar => self.apply_chunked(img, ctx, workers),
            KernelBackend::Simd => {
                let r = self.radius as i64;
                let src = img.clone();
                par_row_chunks(img, workers, |y0, rows| {
                    blur_chunk_sliding(&src, y0, rows, r)
                });
            }
        }
    }

    fn work_units(&self, ctx: &FrameCtx) -> f64 {
        // One unit per pixel per window element gathered: a 3×3 blur is
        // ~9 units/pixel, several times the 1 unit/pixel of sepia —
        // matching its rank as the slowest filter stage (Figure 8).
        ctx.pixel_count() as f64 * self.window() as f64 * 0.45
    }

    fn traffic(&self, img: &Image, _ctx: &FrameCtx) -> Traffic {
        // Reads the source buffer, writes the second buffer.
        Traffic {
            read_bytes: img.byte_len(),
            write_bytes: img.byte_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(w: u32, h: u32) -> FrameCtx {
        FrameCtx::whole_frame(0, 0, w, h)
    }

    #[test]
    fn constant_image_is_fixed_point() {
        let mut img = Image::new(8, 8);
        img.fill([100, 150, 200, 255]);
        Blur::default().apply(&mut img, &ctx(8, 8));
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(img.get(x, y), [100, 150, 200, 255]);
            }
        }
    }

    #[test]
    fn blur_averages_neighbourhood() {
        // A lone white pixel in black spreads to 255/9 = 28 in its window.
        let mut img = Image::new(5, 5);
        img.set(2, 2, [255, 255, 255, 255]);
        Blur::default().apply(&mut img, &ctx(5, 5));
        assert_eq!(img.get(2, 2)[0], 28);
        assert_eq!(img.get(1, 1)[0], 28);
        assert_eq!(img.get(0, 0)[0], 0, "outside the 3x3 window");
    }

    #[test]
    fn border_uses_partial_window() {
        // A 2x1 image: each pixel averages the two.
        let mut img = Image::new(2, 1);
        img.set(0, 0, [0, 0, 0, 255]);
        img.set(1, 0, [200, 0, 0, 255]);
        Blur::default().apply(&mut img, &ctx(2, 1));
        assert_eq!(img.get(0, 0)[0], 100);
        assert_eq!(img.get(1, 0)[0], 100);
    }

    #[test]
    fn blur_reduces_contrast() {
        let mut img = Image::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                let v = if (x + y) % 2 == 0 { 255 } else { 0 };
                img.set(x, y, [v, v, v, 255]);
            }
        }
        let before_spread = 255;
        Blur::default().apply(&mut img, &ctx(16, 16));
        let mut max = 0u8;
        let mut min = 255u8;
        for y in 0..16 {
            for x in 0..16 {
                let v = img.get(x, y)[0];
                max = max.max(v);
                min = min.min(v);
            }
        }
        assert!((max - min) < before_spread, "contrast must shrink");
    }

    #[test]
    fn larger_radius_is_more_work() {
        let c = ctx(10, 10);
        assert!(Blur::new(2).work_units(&c) > Blur::new(1).work_units(&c));
    }

    #[test]
    fn alpha_preserved() {
        let mut img = Image::new(3, 3);
        img.set(1, 1, [10, 20, 30, 42]);
        Blur::default().apply(&mut img, &ctx(3, 3));
        assert_eq!(img.get(1, 1)[3], 42);
    }

    #[test]
    #[should_panic(expected = "no-op blur")]
    fn zero_radius_rejected() {
        Blur::new(0);
    }

    #[test]
    fn exact_div_matches_hardware_divide_over_the_full_range() {
        // Every divisor a blur window can produce (ny·nx for windows up
        // to 7×7) across the whole dividend envelope a ≤ 255·n.
        for n in 1u32..=49 {
            let d = ExactDiv::new(n);
            assert!(d.exact);
            for a in 0..=255 * n {
                assert_eq!(d.div(a), a / n, "n={n} a={a}");
            }
        }
        // Beyond the envelope the fallback path must still divide.
        let big = ExactDiv::new(5000);
        assert!(!big.exact);
        assert_eq!(big.div(1_275_000), 255);
    }

    #[test]
    fn sliding_window_is_bit_identical_to_naive_gather() {
        // Degenerate and remainder-heavy geometries × radii, sequential
        // and chunked: the sliding reformulation must match the scalar
        // gather byte for byte.
        for (w, h) in [
            (1u32, 1u32),
            (1, 9),
            (9, 1),
            (2, 2),
            (7, 5),
            (23, 17),
            (64, 48),
        ] {
            let mut img = Image::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    img.set(
                        x,
                        y,
                        [(x * 31 + y * 7) as u8, (x ^ y) as u8, (x + y) as u8, 200],
                    );
                }
            }
            for radius in [1u32, 2, 3, 7] {
                let blur = Blur::new(radius);
                let ctx = FrameCtx::whole_frame(0, 0, w, h);
                let mut naive = img.clone();
                blur.apply(&mut naive, &ctx);
                for workers in [1usize, 2, 3, 8] {
                    let mut fast = img.clone();
                    blur.apply_vectored(&mut fast, &ctx, KernelBackend::Simd, workers);
                    assert_eq!(
                        fast, naive,
                        "diverged at {w}x{h} r={radius} workers={workers}"
                    );
                }
            }
        }
    }
}
