//! Flicker stage (FS): vary each frame's overall brightness.
//!
//! "We choose a random number in the interval [−1/10, 1/10]. This value is
//! added to all pixels' RGB values and clamped to the [0, 1] interval"
//! (§IV). Viewed as a sequence, the random per-frame offsets read as the
//! flicker of an old projector. The offset is a *frame* property: every
//! strip of a frame must shift by the same amount, so it comes from the
//! deterministic per-frame RNG.

use crate::backend::KernelBackend;
use crate::filter::{FrameCtx, ImageFilter};
use crate::frame_rng::{draw_between, frame_rng};
use crate::image::{from_unit, to_unit, Image, BYTES_PER_PIXEL};
use crate::uniform::per_uniform_block;

/// Flicker filter parameters.
#[derive(Debug, Clone, Copy)]
pub struct Flicker {
    /// Maximum absolute brightness offset (the paper uses 1/10).
    pub amplitude: f32,
}

impl Default for Flicker {
    fn default() -> Self {
        Flicker { amplitude: 0.1 }
    }
}

impl Flicker {
    /// The frame's brightness offset in [−|amplitude|, +|amplitude|]; a
    /// NaN amplitude gives 0.
    pub fn offset(&self, ctx: &FrameCtx) -> f32 {
        let mut rng = frame_rng(ctx.run_seed, ctx.frame_id.wrapping_add(0x5F1C_7E11));
        draw_between(&mut rng, -self.amplitude, self.amplitude)
    }
}

/// The shared kernel: add the frame's brightness offset to every RGB byte.
fn shift_bytes(bytes: &mut [u8], d: f32) {
    for px in bytes.chunks_exact_mut(BYTES_PER_PIXEL) {
        for c in px.iter_mut().take(3) {
            *c = from_unit(to_unit(*c) + d);
        }
    }
}

/// The vectorized kernel's strength reduction: the offset is one value
/// per frame and a channel byte has only 256 states, so the whole
/// float path `from_unit(to_unit(c) + d)` collapses into a 256-entry
/// table built once per frame with the *scalar* formula — the per-pixel
/// work becomes three table loads, bit-identical to [`shift_bytes`] by
/// construction.
fn shift_lut(d: f32) -> [u8; 256] {
    let mut lut = [0u8; 256];
    for (c, out) in lut.iter_mut().enumerate() {
        *out = from_unit(to_unit(c as u8) + d);
    }
    lut
}

/// Apply a prebuilt per-frame shift table to every RGB byte.
fn shift_bytes_lut(bytes: &mut [u8], lut: &[u8; 256]) {
    for px in bytes.chunks_exact_mut(BYTES_PER_PIXEL) {
        px[0] = lut[px[0] as usize];
        px[1] = lut[px[1] as usize];
        px[2] = lut[px[2] as usize];
    }
}

/// The vectorized kernel: [`shift_bytes_lut`] once per uniform 8-pixel
/// block (see [`per_uniform_block`]), on every pixel of any other block
/// and of the `< 8`-pixel tail.
fn shift_bytes_blocks(bytes: &mut [u8], lut: &[u8; 256]) {
    let rgb = |key: u32| {
        let mut px = key.to_le_bytes();
        shift_bytes_lut(&mut px, lut);
        u32::from_le_bytes(px)
    };
    let tail = per_uniform_block(bytes, rgb, |block| shift_bytes_lut(block, lut));
    shift_bytes_lut(tail, lut);
}

impl ImageFilter for Flicker {
    fn name(&self) -> &'static str {
        "flicker"
    }

    fn apply(&self, img: &mut Image, ctx: &FrameCtx) {
        let d = self.offset(ctx);
        shift_bytes(img.as_bytes_mut(), d);
    }

    fn apply_vectored(
        &self,
        img: &mut Image,
        ctx: &FrameCtx,
        backend: KernelBackend,
        _workers: usize,
    ) {
        let d = self.offset(ctx);
        match backend {
            KernelBackend::Scalar => shift_bytes(img.as_bytes_mut(), d),
            KernelBackend::Simd => shift_bytes_blocks(img.as_bytes_mut(), &shift_lut(d)),
        }
    }

    fn work_units(&self, ctx: &FrameCtx) -> f64 {
        // "Each pixel is accessed in sequential order but with a minor
        // operation" — lighter than sepia.
        ctx.pixel_count() as f64 * 0.55
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::StripInfo;
    use rand::Rng;

    fn ctx(frame: u64) -> FrameCtx {
        FrameCtx::whole_frame(frame, 7, 16, 16)
    }

    #[test]
    fn negative_amplitude_draws_as_its_magnitude() {
        let (neg, pos) = (Flicker { amplitude: -0.1 }, Flicker::default());
        for frame in 0..64 {
            assert_eq!(
                neg.offset(&ctx(frame)).to_bits(),
                pos.offset(&ctx(frame)).to_bits()
            );
        }
    }

    #[test]
    fn nan_amplitude_gives_no_offset() {
        let f = Flicker {
            amplitude: f32::NAN,
        };
        for frame in 0..64 {
            assert_eq!(f.offset(&ctx(frame)), 0.0);
        }
        let mut img = Image::new(3, 2);
        img.set(1, 1, [10, 200, 30, 40]);
        let before = img.clone();
        f.apply(&mut img, &ctx(5));
        assert_eq!(img, before);
    }

    #[test]
    fn offset_is_in_range_and_deterministic() {
        let f = Flicker::default();
        for frame in 0..200 {
            let d = f.offset(&ctx(frame));
            assert!((-0.1..=0.1).contains(&d), "offset {d} out of range");
            assert_eq!(d, f.offset(&ctx(frame)));
        }
    }

    #[test]
    fn offsets_vary_across_frames() {
        let f = Flicker::default();
        let offsets: Vec<f32> = (0..32).map(|fr| f.offset(&ctx(fr))).collect();
        let first = offsets[0];
        assert!(offsets.iter().any(|&d| (d - first).abs() > 1e-4));
    }

    #[test]
    fn clamps_at_both_ends() {
        let f = Flicker { amplitude: 0.5 };
        // Find a frame with a clearly positive offset.
        let frame = (0..200)
            .find(|&fr| f.offset(&ctx(fr)) > 0.2)
            .expect("no positive offset found");
        let mut img = Image::new(2, 1);
        img.set(0, 0, [250, 250, 250, 255]);
        img.set(1, 0, [0, 0, 0, 255]);
        f.apply(&mut img, &ctx(frame));
        assert_eq!(img.get(0, 0)[0], 255, "bright pixel clamps to white");
        assert!(img.get(1, 0)[0] > 0, "dark pixel lifted");
    }

    #[test]
    fn strip_and_whole_frame_agree() {
        let f = Flicker::default();
        let whole = f.offset(&ctx(9));
        let strip_ctx = FrameCtx {
            frame_id: 9,
            run_seed: 7,
            strip: StripInfo {
                index: 1,
                count: 3,
                y0: 5,
                height: 5,
                full_height: 16,
            },
            full_width: 16,
        };
        assert_eq!(f.offset(&strip_ctx), whole);
    }

    #[test]
    fn alpha_untouched() {
        let f = Flicker::default();
        let mut img = Image::new(1, 1);
        img.set(0, 0, [10, 20, 30, 99]);
        f.apply(&mut img, &ctx(0));
        assert_eq!(img.get(0, 0)[3], 99);
    }

    #[test]
    fn lut_kernel_is_bit_identical_to_scalar() {
        // Every byte state × a spread of offsets, including clamping
        // extremes and an offset landing exactly on a rounding boundary.
        for d in [-0.1f32, -0.05, -0.001, 0.0, 0.001, 0.05, 0.1, 0.5, -0.5] {
            let lut = shift_lut(d);
            let mut scalar: Vec<u8> = (0..=255u16)
                .flat_map(|c| [c as u8, c as u8, c as u8, 200])
                .collect();
            let mut fast = scalar.clone();
            shift_bytes(&mut scalar, d);
            shift_bytes_lut(&mut fast, &lut);
            assert_eq!(scalar, fast, "diverged at offset {d}");
        }
    }

    #[test]
    fn flicker_differs_from_scratch_stream() {
        // Both stages draw from frame RNGs; the streams must be decoupled
        // (different domains) so adding a stage doesn't shift the other's
        // randomness.
        let f = Flicker { amplitude: 1.0 };
        let d = f.offset(&ctx(4));
        let mut rng = frame_rng(7, 4);
        let raw: f32 = rng.gen_range(-1.0..=1.0);
        assert_ne!(d, raw, "flicker must use its own RNG domain");
    }
}
