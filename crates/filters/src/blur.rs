//! Blur stage (BS): box blur over a square neighbourhood.
//!
//! "Pixels are transformed with respect to the neighboring pixels by
//! calculating the average color of these pixels. To work from the
//! original data, a second buffer is required" (§IV). This is the most
//! expensive filter stage in the paper's measurements — the 3×3 (or
//! larger) gather makes it both compute- and memory-heavy.
//!
//! The modelled SCC pays that second buffer: `traffic` charges a full
//! read of the strip and a full write of its copy. The host does not
//! allocate it on the vectorized path. That kernel blurs in place and
//! keeps only what it still needs of the original: `r + 1` rows in a
//! ring, plus, under a worker fan-out, each chunk's ≤ `r` halo rows on
//! either side. The scalar reference still gathers from a full clone.

use crate::backend::KernelBackend;
use crate::chunk::{chunk_rows, par_row_chunks};
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

    /// Pixels in a full window, `(2r+1)²`. The side is taken in `u64`
    /// (it overflows `u32` from `r = 2³¹`) and squared in `f64` (its
    /// square overflows `u64` there too); both are exact for any radius
    /// a frame can hold.
    fn window(&self) -> f64 {
        let d = (2 * u64::from(self.radius) + 1) as f64;
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

/// Widest radius the in-place kernel runs: a full window's sum,
/// `(2r+1)²·255`, must fit a `u16` lane (57 375 at r = 7, 73 695 at
/// r = 8). Wider blurs run the scalar gather.
const LANE_RADIUS: u32 = 7;

/// Exact division of a window sum `s ≤ 255·n` by the window's pixel
/// count `n`, one reciprocal per row: `q = (s·m) >> k` with
/// `m = ⌊2ᵏ/n⌋ + 1`. The round-up error stays below one quotient step
/// while `255·n² < 2ᵏ`, so `k = 16` is exact for `n ≤ 16` (a `u16 × u16`
/// high-half multiply) and `k = 24` for `n ≤ 256`, where `s·m` still
/// fits a `u32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Recip {
    /// `k = 16`, for `2 ≤ n ≤ 16` (`m` fits a `u16` from `n = 2`).
    Narrow(u16),
    /// `k = 24`, for `16 < n ≤ 256`.
    Wide(u32),
}

impl Recip {
    fn new(n: u32) -> Recip {
        debug_assert!((2..=256).contains(&n), "no reciprocal for n = {n}");
        if n <= 16 {
            Recip::Narrow(((1 << 16) / n + 1) as u16)
        } else {
            Recip::Wide((1 << 24) / n + 1)
        }
    }

    /// `s / n`.
    #[cfg(test)]
    fn div(self, s: u16) -> u8 {
        match self {
            Recip::Narrow(m) => narrow(m, s),
            Recip::Wide(m) => wide(m, s),
        }
    }

    /// `out[j] = (sums[j] + last[j]) / n` on the RGB lanes, `out[j]`
    /// kept on the alpha lanes: the window's last column joins the sum,
    /// and alpha is masked back, in the divide's own pass. One loop per
    /// shift, so each vectorizes.
    fn divide_into(self, sums: &[u16], last: &[u16], out: &mut [u8]) {
        match self {
            Recip::Narrow(m) => blend_lanes(sums, last, out, |s| narrow(m, s)),
            Recip::Wide(m) => blend_lanes(sums, last, out, |s| wide(m, s)),
        }
    }
}

#[inline(always)]
fn narrow(m: u16, s: u16) -> u8 {
    ((u32::from(s) * u32::from(m)) >> 16) as u8
}

#[inline(always)]
fn wide(m: u32, s: u16) -> u8 {
    ((u32::from(s) * m) >> 24) as u8
}

/// Lanes per [`RGB`] mask: sixteen pixels.
const MASK_LANES: usize = 16 * BYTES_PER_PIXEL;

/// `0xFF` on the RGB lanes of [`MASK_LANES`] bytes, `0` on alpha.
const RGB: [u8; MASK_LANES] = {
    let mut m = [0xFF; MASK_LANES];
    let mut l = 3;
    while l < MASK_LANES {
        m[l] = 0;
        l += BYTES_PER_PIXEL;
    }
    m
};

#[inline(always)]
fn blend_lanes(sums: &[u16], last: &[u16], out: &mut [u8], div: impl Fn(u16) -> u8) {
    let blocks = out
        .chunks_mut(MASK_LANES)
        .zip(sums.chunks(MASK_LANES))
        .zip(last.chunks(MASK_LANES));
    for ((out, sums), last) in blocks {
        for (((o, &s), &c), &m) in out.iter_mut().zip(sums).zip(last).zip(&RGB) {
            *o = (div(s + c) & m) | (*o & !m);
        }
    }
}

/// The vectorized backend's kernel: blur rows `y0..` of an `h`-row
/// image in place, `rows` being that chunk's bytes. `above` and `below`
/// hold the pristine rows just outside the chunk that its windows reach
/// (≤ `r` each, both empty for a whole image).
///
/// The box average is computed separably. Column sums — one `u16` lane
/// per byte of the row, alpha lane included and discarded — slide down
/// the chunk, adding the entering row and subtracting the leaving one
/// in one pass. Each row's original is saved into an `(r+1)`-row ring
/// just before it is overwritten, which is where it comes back from
/// when it leaves the window `r + 1` rows later. Interior pixels sum
/// their `2r+1` column lanes directly and divide through one [`Recip`]
/// per row; the `r` border pixels each side divide the plain way. Every
/// sum is the same exact integer the scalar gather forms, so the
/// quotient is bit-identical to `blur_row` at every pixel.
fn blur_chunk_in_place(
    rows: &mut [u8],
    row_bytes: usize,
    y0: usize,
    h: usize,
    above: &[u8],
    below: &[u8],
    r: usize,
) {
    let rb = row_bytes;
    let w = rb / BYTES_PER_PIXEL;
    let end = y0 + rows.len() / rb;
    let top = y0 - above.len() / rb;
    let outside = |sy: usize| -> &[u8] {
        if sy < y0 {
            &above[(sy - top) * rb..][..rb]
        } else {
            &below[(sy - end) * rb..][..rb]
        }
    };
    // Interior pixels x ∈ r..w−r see all 2r+1 columns; their `span`
    // lanes start `lead` bytes into the row. The rest are borders.
    let lead = r * BYTES_PER_PIXEL;
    let span = rb.saturating_sub(2 * lead);
    let left = r.min(w);
    let borders = (0..left).chain(left.max(w.saturating_sub(r))..w);
    let mut col = vec![0u16; rb];
    let mut sums = vec![0u16; span];
    // Only rows that leave the window inside the chunk come back out of
    // the ring: the first `ch − r − 1`, at most `r + 1` at a time.
    let ch = end - y0;
    let mut ring = vec![0u8; (r + 1).min(ch.saturating_sub(r + 1)) * rb];

    // Vertical window of the chunk's first row: nothing is written yet.
    let (lo, hi) = (y0.saturating_sub(r), (y0 + r).min(h - 1));
    for sy in lo..=hi {
        let src = if sy < y0 || sy >= end {
            outside(sy)
        } else {
            &rows[(sy - y0) * rb..][..rb]
        };
        for (c, &p) in col.iter_mut().zip(src) {
            *c += u16::from(p);
        }
    }
    let mut ny = hi + 1 - lo;

    for y in y0..end {
        if y > y0 {
            let leave = (y > r).then(|| {
                let sy = y - 1 - r;
                if sy < y0 {
                    outside(sy)
                } else {
                    &ring[(sy - y0) % (r + 1) * rb..][..rb]
                }
            });
            let enter = (y + r < h).then(|| {
                let sy = y + r;
                if sy < end {
                    &rows[(sy - y0) * rb..][..rb]
                } else {
                    outside(sy)
                }
            });
            match (enter, leave) {
                (Some(e), Some(l)) => {
                    for ((c, &a), &b) in col.iter_mut().zip(e).zip(l) {
                        *c = *c + u16::from(a) - u16::from(b);
                    }
                }
                (Some(e), None) => {
                    for (c, &a) in col.iter_mut().zip(e) {
                        *c += u16::from(a);
                    }
                    ny += 1;
                }
                (None, Some(l)) => {
                    for (c, &b) in col.iter_mut().zip(l) {
                        *c -= u16::from(b);
                    }
                    ny -= 1;
                }
                (None, None) => {}
            }
        }
        let row = &mut rows[(y - y0) * rb..][..rb];
        if y + 1 + r < end {
            ring[(y - y0) % (r + 1) * rb..][..rb].copy_from_slice(row);
        }

        if span > 0 {
            // Lane j sums col[j + 4k] for k = 0..=2r: the first two
            // columns in one pass, the last one inside the divide.
            let step = |k: usize| &col[k * BYTES_PER_PIXEL..][..span];
            for ((s, &a), &b) in sums.iter_mut().zip(step(0)).zip(step(1)) {
                *s = a + b;
            }
            for k in 2..2 * r {
                for (s, &c) in sums.iter_mut().zip(step(k)) {
                    *s += c;
                }
            }
            let out = &mut row[lead..lead + span];
            Recip::new((ny * (2 * r + 1)) as u32).divide_into(&sums, step(2 * r), out);
        }
        for x in borders.clone() {
            let (sx0, sx1) = (x.saturating_sub(r), (x + r).min(w - 1));
            let n = (ny * (sx1 + 1 - sx0)) as u32;
            for c in 0..3 {
                let s: u32 = (sx0..=sx1)
                    .map(|sx| u32::from(col[sx * BYTES_PER_PIXEL + c]))
                    .sum();
                row[x * BYTES_PER_PIXEL + c] = (s / n) as u8;
            }
        }
    }
}

/// [`blur_chunk_in_place`] over `par_row_chunks`: each chunk's halo —
/// the ≤ `r` rows above and below it that neighbouring chunks
/// overwrite — is copied before the fan-out. A lone chunk has none.
fn blur_in_place(img: &mut Image, r: usize, workers: usize) {
    let rb = img.width() as usize * BYTES_PER_PIXEL;
    let h = img.height() as usize;
    let chunks = chunk_rows(img.height(), workers);
    let src = img.as_bytes();
    let mut halos = Vec::new();
    let mut starts = Vec::with_capacity(chunks.len() + 1);
    for &(y0, ch) in &chunks {
        let (y0, end) = (y0 as usize, (y0 + ch) as usize);
        starts.push(halos.len());
        halos.extend_from_slice(&src[y0.saturating_sub(r) * rb..y0 * rb]);
        halos.extend_from_slice(&src[end * rb..(end + r).min(h) * rb]);
    }
    starts.push(halos.len());
    par_row_chunks(img, workers, |y0, rows| {
        let i = chunks.partition_point(|&(c0, _)| c0 < y0);
        let y0 = y0 as usize;
        let halo = &halos[starts[i]..starts[i + 1]];
        let (above, below) = halo.split_at((y0 - y0.saturating_sub(r)) * rb);
        blur_chunk_in_place(rows, rb, y0, h, above, below, r);
    });
}

impl ImageFilter for Blur {
    fn name(&self) -> &'static str {
        "blur"
    }

    fn apply(&self, img: &mut Image, ctx: &FrameCtx) {
        self.apply_vectored(img, ctx, KernelBackend::Scalar, 1);
    }

    fn apply_vectored(
        &self,
        img: &mut Image,
        _ctx: &FrameCtx,
        backend: KernelBackend,
        workers: usize,
    ) {
        match (backend, self.radius) {
            // A 1×1 window: every pixel is its own average.
            (KernelBackend::Simd, 0) => {}
            (KernelBackend::Simd, 1..=LANE_RADIUS) => {
                blur_in_place(img, self.radius as usize, workers)
            }
            _ => {
                let r = self.radius as i64;
                let row_bytes = img.width() as usize * BYTES_PER_PIXEL;
                // The second buffer the paper describes: the scalar
                // gather must read original values, not partially blurred
                // ones — and it is what makes the row decomposition
                // race-free (workers share `src` read-only).
                let src = img.clone();
                par_row_chunks(img, workers, |y0, rows| {
                    for (dy, row) in rows.chunks_exact_mut(row_bytes).enumerate() {
                        blur_row(&src, y0 + dy as u32, row, r);
                    }
                });
            }
        }
    }

    fn work_units(&self, ctx: &FrameCtx) -> f64 {
        // One unit per pixel per window element gathered: a 3×3 blur is
        // ~9 units/pixel, several times the 1 unit/pixel of sepia —
        // matching its rank as the slowest filter stage (Figure 8).
        ctx.pixel_count() as f64 * self.window() * 0.45
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
    fn window_does_not_overflow_past_two_to_the_31() {
        // 2r+1 used to be formed in u32: a panic in debug, a 1-pixel
        // window (and a near-zero work_units) in release.
        let huge = Blur {
            radius: u32::MAX / 2 + 1,
        };
        let side = ((1u64 << 32) + 1) as f64;
        assert_eq!(huge.window(), side * side);
        let c = ctx(10, 10);
        let below = Blur {
            radius: u32::MAX / 2,
        };
        assert!(huge.work_units(&c) > below.work_units(&c));
        assert_eq!(Blur::new(1).window(), 9.0);
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

    /// `recip.div(a) == a / n` for every dividend `a ≤ 255·n`.
    fn divides_exactly(recip: Recip, n: u32) -> bool {
        (0..=255 * n).all(|a| u32::from(recip.div(a as u16)) == a / n)
    }

    #[test]
    fn reciprocal_matches_hardware_divide_over_the_full_range() {
        // Every window the in-place kernel can divide by is ny·(2r+1)
        // for r ≤ LANE_RADIUS and ny ≤ 2r+1: 3..=225. Both shifts are
        // checked over everything they claim, which covers it.
        for n in 2u32..=16 {
            assert_eq!(Recip::new(n), Recip::Narrow(((1 << 16) / n + 1) as u16));
            assert!(divides_exactly(Recip::new(n), n), "narrow n={n}");
        }
        for n in 2u32..=256 {
            assert!(
                divides_exactly(Recip::Wide((1 << 24) / n + 1), n),
                "wide n={n}"
            );
        }
        let widest = 2 * LANE_RADIUS + 1;
        assert!(widest * widest <= 256);
    }

    #[test]
    fn window_of_17_takes_the_wide_shift() {
        // The 16-bit reciprocal of 17 is off by one somewhere below
        // 255·17, so 17 must not get it.
        let narrow = Recip::Narrow(((1 << 16) / 17 + 1) as u16);
        assert!(!divides_exactly(narrow, 17));
        assert!(matches!(Recip::new(17), Recip::Wide(_)));
        assert!(divides_exactly(Recip::new(17), 17));
    }

    #[test]
    fn sliding_window_is_bit_identical_to_naive_gather() {
        // Degenerate and remainder-heavy geometries × radii, sequential
        // and chunked: the in-place kernel must match the scalar gather
        // byte for byte.
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
