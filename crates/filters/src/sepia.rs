//! Sepia stage (SeS): shift every pixel towards an old-photograph brown.
//!
//! Implements the paper's formula verbatim (§IV):
//!
//! ```text
//! S1  = (0.2, 0.05, 0.0)
//! S2  = (1.0, 0.9,  0.5)
//! mix = clamp(0.3·r + 0.59·g + 0.11·b)
//! rgb_new = clamp(S1·(1 − mix) + S2·mix)
//! ```

use crate::backend::KernelBackend;
use crate::chunk::par_row_chunks;
use crate::filter::{FrameCtx, ImageFilter};
use crate::image::{from_unit, to_unit, Image, BYTES_PER_PIXEL};
use crate::lanes::{F32x8, LANES};

/// The darkest sepia tone.
pub const S1: [f32; 3] = [0.2, 0.05, 0.0];
/// The brightest sepia tone.
pub const S2: [f32; 3] = [1.0, 0.9, 0.5];

/// Luminance weights used to compute `mix`.
pub const LUMA: [f32; 3] = [0.3, 0.59, 0.11];

/// Apply the sepia formula to one RGB triple (unit range).
#[inline]
pub fn sepia_pixel(r: f32, g: f32, b: f32) -> [f32; 3] {
    let mix = (LUMA[0] * r + LUMA[1] * g + LUMA[2] * b).clamp(0.0, 1.0);
    [
        (S1[0] * (1.0 - mix) + S2[0] * mix).clamp(0.0, 1.0),
        (S1[1] * (1.0 - mix) + S2[1] * mix).clamp(0.0, 1.0),
        (S1[2] * (1.0 - mix) + S2[2] * mix).clamp(0.0, 1.0),
    ]
}

/// The sepia filter stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sepia;

/// The shared kernel: sepia is strictly per-pixel, so the same byte loop
/// serves the sequential path and any row chunk of the parallel one.
fn sepia_bytes(bytes: &mut [u8]) {
    for px in bytes.chunks_exact_mut(BYTES_PER_PIXEL) {
        let [r, g, b] = sepia_pixel(to_unit(px[0]), to_unit(px[1]), to_unit(px[2]));
        px[0] = from_unit(r);
        px[1] = from_unit(g);
        px[2] = from_unit(b);
    }
}

/// The lane-vectorized kernel: 8 pixels per block through [`F32x8`],
/// running the exact per-lane operation sequence of [`sepia_pixel`]
/// (same multiplies, same adds, same clamps, in the same order), with
/// the `< 8`-pixel row tail handed to the scalar loop — bit-identical
/// to [`sepia_bytes`] on every input.
fn sepia_bytes_lanes(bytes: &mut [u8]) {
    const BLOCK: usize = BYTES_PER_PIXEL * LANES;
    let mut blocks = bytes.chunks_exact_mut(BLOCK);
    for px in &mut blocks {
        let r = F32x8::gather_unit(px, 0, BYTES_PER_PIXEL);
        let g = F32x8::gather_unit(px, 1, BYTES_PER_PIXEL);
        let b = F32x8::gather_unit(px, 2, BYTES_PER_PIXEL);
        // mix = clamp(0.3·r + 0.59·g + 0.11·b), left-associated like
        // the scalar formula.
        let mix = F32x8::splat(LUMA[0])
            .mul(r)
            .add(F32x8::splat(LUMA[1]).mul(g))
            .add(F32x8::splat(LUMA[2]).mul(b))
            .clamp01();
        let inv = F32x8::splat(1.0).sub(mix);
        for c in 0..3 {
            F32x8::splat(S1[c])
                .mul(inv)
                .add(F32x8::splat(S2[c]).mul(mix))
                .clamp01()
                .scatter_unit(px, c, BYTES_PER_PIXEL);
        }
    }
    sepia_bytes(blocks.into_remainder());
}

/// Backend dispatch for one row (or any pixel-aligned byte run).
#[inline]
fn sepia_row(bytes: &mut [u8], backend: KernelBackend) {
    match backend {
        KernelBackend::Scalar => sepia_bytes(bytes),
        KernelBackend::Simd => sepia_bytes_lanes(bytes),
    }
}

impl ImageFilter for Sepia {
    fn name(&self) -> &'static str {
        "sepia"
    }

    fn apply(&self, img: &mut Image, _ctx: &FrameCtx) {
        sepia_bytes(img.as_bytes_mut());
    }

    fn apply_chunked(&self, img: &mut Image, _ctx: &FrameCtx, workers: usize) {
        par_row_chunks(img, workers, |_, rows| sepia_bytes(rows));
    }

    fn apply_vectored(
        &self,
        img: &mut Image,
        _ctx: &FrameCtx,
        backend: KernelBackend,
        workers: usize,
    ) {
        par_row_chunks(img, workers, |_, rows| sepia_row(rows, backend));
    }

    fn work_units(&self, img: &Image, _ctx: &FrameCtx) -> f64 {
        // Reference weight: 1 unit per pixel.
        img.pixel_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn black_maps_to_s1() {
        let [r, g, b] = sepia_pixel(0.0, 0.0, 0.0);
        assert!((r - S1[0]).abs() < 1e-6);
        assert!((g - S1[1]).abs() < 1e-6);
        assert!((b - S1[2]).abs() < 1e-6);
    }

    #[test]
    fn white_maps_to_s2() {
        let [r, g, b] = sepia_pixel(1.0, 1.0, 1.0);
        assert!((r - S2[0]).abs() < 1e-6);
        assert!((g - S2[1]).abs() < 1e-6);
        assert!((b - S2[2]).abs() < 1e-6);
    }

    #[test]
    fn output_is_interpolation_between_tones() {
        // For any input, each channel lies between S1 and S2.
        for (r, g, b) in [(0.3, 0.9, 0.1), (0.99, 0.0, 0.5), (0.5, 0.5, 0.5)] {
            let out = sepia_pixel(r, g, b);
            for c in 0..3 {
                assert!(out[c] >= S1[c] - 1e-6 && out[c] <= S2[c] + 1e-6);
            }
        }
    }

    #[test]
    fn result_is_brownish() {
        // Sepia always orders channels r >= g >= b.
        for (r, g, b) in [(0.1, 0.8, 0.3), (0.9, 0.9, 0.9), (0.0, 0.0, 1.0)] {
            let [or, og, ob] = sepia_pixel(r, g, b);
            assert!(or >= og && og >= ob, "({or},{og},{ob}) not sepia-ordered");
        }
    }

    #[test]
    fn apply_preserves_alpha_and_dimensions() {
        let mut img = Image::new(6, 4);
        img.set(2, 2, [200, 100, 50, 77]);
        let ctx = FrameCtx::whole_frame(0, 0, 6, 4);
        Sepia.apply(&mut img, &ctx);
        assert_eq!(img.get(2, 2)[3], 77, "alpha untouched");
        assert_eq!(img.width(), 6);
        assert_eq!(img.height(), 4);
    }

    #[test]
    fn lane_kernel_is_bit_identical_to_scalar() {
        // Widths straddling the 8-pixel block size: full blocks only,
        // block + remainder, and a single pixel.
        for n_px in [1usize, 7, 8, 9, 16, 23, 64, 257] {
            let mut scalar: Vec<u8> = (0..n_px * BYTES_PER_PIXEL)
                .map(|i| (i.wrapping_mul(37) ^ (i >> 3)) as u8)
                .collect();
            let mut lanes = scalar.clone();
            sepia_bytes(&mut scalar);
            sepia_bytes_lanes(&mut lanes);
            assert_eq!(scalar, lanes, "diverged at {n_px} pixels");
        }
    }

    #[test]
    fn idempotent_on_extremes() {
        // Pure black input becomes S1; applying again keeps the values in
        // the sepia gamut (regression guard for clamping errors).
        let mut img = Image::new(2, 2);
        let ctx = FrameCtx::whole_frame(0, 0, 2, 2);
        Sepia.apply(&mut img, &ctx);
        let first = img.clone();
        Sepia.apply(&mut img, &ctx);
        // Not exactly equal (sepia isn't idempotent) but still valid pixels.
        assert_eq!(img.width(), first.width());
        for y in 0..2 {
            for x in 0..2 {
                let [r, g, b, _] = img.get(x, y);
                assert!(r >= g && g >= b);
            }
        }
    }
}
