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
//!
//! Two kernels compute it, bit-identical on every input: `sepia_bytes`
//! applies the formula pixel by pixel (the reference, and
//! [`KernelBackend::Scalar`]); `sepia_bytes_blocks`
//! ([`KernelBackend::Simd`]) evaluates it once per run of uniform 8-pixel
//! blocks of one colour, which is most of a flat-shaded render, and in
//! vector lanes on every other block.

use crate::backend::KernelBackend;
use crate::chunk::par_row_chunks;
use crate::filter::{FrameCtx, ImageFilter};
use crate::image::{from_unit, to_unit, Image, BYTES_PER_PIXEL};
use crate::uniform::{per_uniform_block, BLOCK_PIXELS};

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

/// `LUMA[c] * to_unit(v)` for every channel byte: the three products of
/// `mix`, evaluated at compile time by the same two IEEE operations
/// [`sepia_pixel`] performs at run time.
static LUMA_PRODUCTS: [[f32; 256]; 3] = {
    let mut table = [[0.0f32; 256]; 3];
    let mut c = 0;
    while c < 3 {
        let mut v = 0;
        while v < 256 {
            table[c][v] = LUMA[c] * to_unit(v as u8);
            v += 1;
        }
        c += 1;
    }
    table
};

/// [`from_unit`] without `round` (a libm call on baseline x86-64) and
/// without the saturating cast, neither of which vectorises. `x` lies in
/// [0, 255], so `x + 2^23` is 2^23 plus `x` rounded to the nearest
/// integer, ties to even, and that integer is the sum's low mantissa
/// bits; `round` sends ties away from zero instead, which differs exactly
/// where `x` sits half above the (even) integer it was rounded to.
#[inline(always)]
fn quantize(v: f32) -> u32 {
    const TWO_POW_23: f32 = 8_388_608.0;
    let x = v.clamp(0.0, 1.0) * 255.0;
    let shifted = x + TWO_POW_23;
    let nearest_even = shifted - TWO_POW_23;
    (shifted.to_bits() & 0x1FF) + u32::from(x - nearest_even == 0.5)
}

/// The vectorized kernel, bit-identical to [`sepia_bytes`] on every
/// input. It walks the bytes in 8-pixel blocks through
/// [`per_uniform_block`]: a block of one RGB (most of a flat-shaded
/// render) takes its colour from one [`sepia_bytes`] evaluation, shared
/// with every following block of the same RGB; any other block runs
/// [`sepia_block`]; the `< 8`-pixel tail runs the scalar loop.
///
/// Computing the three `mix` products in lanes instead of reading them
/// from [`LUMA_PRODUCTS`] measured no faster (DESIGN.md §15): the mixed
/// block is bound by its instruction count, so the saving is in not
/// repeating it.
fn sepia_bytes_blocks(bytes: &mut [u8]) {
    let tail = per_uniform_block(bytes, sepia_rgb, sepia_block);
    sepia_bytes(tail);
}

/// One RGB (the low 24 bits of a little-endian pixel word) through the
/// reference loop.
fn sepia_rgb(key: u32) -> u32 {
    let mut px = key.to_le_bytes();
    sepia_bytes(&mut px);
    u32::from_le_bytes(px)
}

/// Eight pixels of any colours, bit-identical to [`sepia_bytes`]: per
/// pixel the same three products (from [`LUMA_PRODUCTS`]) summed left to
/// right, the same clamps, the same six multiplies and three adds, then
/// [`quantize`]. The pixels are computed into a plain array and written
/// back as whole little-endian words (alpha carried through), a shape the
/// compiler turns into vector arithmetic with only the table loads left
/// scalar.
#[inline(always)]
fn sepia_block(block: &mut [u8]) {
    let mut words = [0u32; BLOCK_PIXELS];
    for (px, word) in block.chunks_exact(BYTES_PER_PIXEL).zip(&mut words) {
        let mix = (LUMA_PRODUCTS[0][px[0] as usize]
            + LUMA_PRODUCTS[1][px[1] as usize]
            + LUMA_PRODUCTS[2][px[2] as usize])
            .clamp(0.0, 1.0);
        let tone = |c: usize| quantize((S1[c] * (1.0 - mix) + S2[c] * mix).clamp(0.0, 1.0));
        *word = tone(0) | tone(1) << 8 | tone(2) << 16 | u32::from(px[3]) << 24;
    }
    for (px, word) in block.chunks_exact_mut(BYTES_PER_PIXEL).zip(words) {
        px.copy_from_slice(&word.to_le_bytes());
    }
}

/// Backend dispatch for one row (or any pixel-aligned byte run).
#[inline]
fn sepia_row(bytes: &mut [u8], backend: KernelBackend) {
    match backend {
        KernelBackend::Scalar => sepia_bytes(bytes),
        KernelBackend::Simd => sepia_bytes_blocks(bytes),
    }
}

impl ImageFilter for Sepia {
    fn name(&self) -> &'static str {
        "sepia"
    }

    fn apply(&self, img: &mut Image, _ctx: &FrameCtx) {
        sepia_bytes(img.as_bytes_mut());
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

    fn work_units(&self, ctx: &FrameCtx) -> f64 {
        // Reference weight: 1 unit per pixel.
        ctx.pixel_count() as f64
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
        // Every width around the 8-pixel block size - pure tail, full
        // blocks only, blocks + each tail length - and two long rows.
        for n_px in (1usize..=40).chain([64, 257]) {
            let mut scalar: Vec<u8> = (0..n_px * BYTES_PER_PIXEL)
                .map(|i| (i.wrapping_mul(37) ^ (i >> 3)) as u8)
                .collect();
            let mut blocks = scalar.clone();
            sepia_bytes(&mut scalar);
            sepia_bytes_blocks(&mut blocks);
            assert_eq!(scalar, blocks, "diverged at {n_px} pixels");
        }
    }

    #[test]
    fn vector_kernel_equals_scalar_on_every_rgb() {
        // All 2^24 colours, one red plane (256 x 256 pixels) at a time:
        // first one pixel per colour, then each colour filling one aligned
        // 8-pixel block with a different alpha in every pixel, against the
        // scalar plane's results expanded the same way. The planes are
        // dealt out over the host's cores.
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        std::thread::scope(|s| {
            for first in 0..threads {
                s.spawn(move || {
                    let mut plane = vec![0u8; 256 * 256 * BYTES_PER_PIXEL];
                    let mut uniform = vec![0u8; plane.len() * BLOCK_PIXELS];
                    let mut want = uniform.clone();
                    for r in (first..256).step_by(threads) {
                        every_rgb_of_red_plane(r as u8, &mut plane, &mut uniform, &mut want);
                    }
                });
            }
        });
    }

    fn every_rgb_of_red_plane(r: u8, plane: &mut [u8], uniform: &mut [u8], want: &mut [u8]) {
        for (gb, px) in plane.chunks_exact_mut(BYTES_PER_PIXEL).enumerate() {
            px.copy_from_slice(&[r, (gb >> 8) as u8, gb as u8, 77]);
        }
        let mut scalar = plane.to_vec();
        sepia_bytes(&mut scalar);
        sepia_bytes_blocks(plane);
        assert!(scalar == plane, "diverged in red plane {r}");

        // Block `gb` holds colour `gb` of the plane eight times over, its
        // pixels' alphas all different and xor the block's index. A block
        // is written as two 16-byte halves of four pixel words, which keeps
        // the expansion cheap in an unoptimised build.
        let (lo, hi) = (
            0x7600_0000_5500_0000_3400_0000_1000_0000u128,
            0xF700_0000_D600_0000_B500_0000_9300_0000u128,
        );
        let four = |word: u32| u128::from(word) * 0x0000_0001_0000_0001_0000_0001_0000_0001;
        for gb in 0..256 * 256 {
            let tag = four((gb as u32) << 24);
            let colour = four(u32::from_le_bytes([r, (gb >> 8) as u8, gb as u8, 0]));
            let out = &scalar[4 * gb..];
            let sepia = four(u32::from_le_bytes([out[0], out[1], out[2], 0]));
            let at = 32 * gb;
            uniform[at..at + 16].copy_from_slice(&(colour | lo ^ tag).to_le_bytes());
            uniform[at + 16..at + 32].copy_from_slice(&(colour | hi ^ tag).to_le_bytes());
            want[at..at + 16].copy_from_slice(&(sepia | lo ^ tag).to_le_bytes());
            want[at + 16..at + 32].copy_from_slice(&(sepia | hi ^ tag).to_le_bytes());
        }
        sepia_bytes_blocks(uniform);
        assert!(uniform == want, "uniform block diverged in red plane {r}");
    }

    #[test]
    fn quantize_equals_from_unit_around_every_tie() {
        // The only inputs where ties-to-even and ties-away disagree are
        // the 255 half-way points (k + 0.5) / 255; walk 4096 floats to
        // either side of each, then every seventh float of [0, 1.125]
        // (past the upper clamp).
        let check = |bits: u32| {
            let v = f32::from_bits(bits);
            assert_eq!(quantize(v), u32::from(from_unit(v)), "at {v:e} ({bits:#x})");
        };
        for k in 0..=254u32 {
            let tie = ((k as f32 + 0.5) / 255.0).to_bits();
            (tie - 4096..=tie + 4096).for_each(check);
        }
        (0..=1.125f32.to_bits()).step_by(7).for_each(check);
    }

    #[test]
    fn luma_table_is_the_run_time_product() {
        for c in 0..3 {
            for v in 0..=255u8 {
                let at_run_time = std::hint::black_box(LUMA[c]) * to_unit(std::hint::black_box(v));
                assert_eq!(
                    LUMA_PRODUCTS[c][v as usize].to_bits(),
                    at_run_time.to_bits(),
                    "channel {c}, byte {v}"
                );
            }
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
