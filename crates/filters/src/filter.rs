//! The filter-stage abstraction shared by all image-manipulating stages.

use crate::backend::KernelBackend;
use crate::image::{Image, StripInfo};

/// Per-frame context a filter sees: which frame this is, the run's random
/// seed, the strip's position inside the full frame and the full frame
/// geometry (filters like scratch pick x-coordinates over the *full* width
/// so that independently processed strips stay consistent).
#[derive(Debug, Clone, Copy)]
pub struct FrameCtx {
    pub frame_id: u64,
    pub run_seed: u64,
    pub strip: StripInfo,
    pub full_width: u32,
}

impl FrameCtx {
    /// Pixels in the strip: its rows span the full width.
    pub fn pixel_count(&self) -> u64 {
        self.full_width as u64 * self.strip.height as u64
    }

    /// Context for a whole frame processed as a single strip.
    pub fn whole_frame(frame_id: u64, run_seed: u64, width: u32, height: u32) -> FrameCtx {
        FrameCtx {
            frame_id,
            run_seed,
            strip: StripInfo {
                index: 0,
                count: 1,
                y0: 0,
                height,
                full_height: height,
            },
            full_width: width,
        }
    }
}

/// An image filter stage of the macro pipeline.
pub trait ImageFilter: Send + Sync {
    /// Short stage name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Transform the strip in place.
    fn apply(&self, img: &mut Image, ctx: &FrameCtx);

    /// Transform the strip in place with an explicit kernel backend (see
    /// [`KernelBackend`]), on the calling thread: a stage is one
    /// sequential process on its own core. Implementations MUST be
    /// bit-identical to [`ImageFilter::apply`] for every backend — the
    /// backend changes instruction selection, never pixels. `workers` is
    /// unused; it stays because the standalone benchmark crate passes
    /// it. The default runs `apply`, which is what the copy and paint
    /// stages (scratch, swap) need.
    fn apply_vectored(
        &self,
        img: &mut Image,
        ctx: &FrameCtx,
        backend: KernelBackend,
        workers: usize,
    ) {
        let _ = (backend, workers);
        self.apply(img, ctx);
    }

    /// CPU work in abstract *work units* (≈ per-pixel inner-loop weight,
    /// normalised so sepia ≡ 1.0 per pixel) of one application to the
    /// strip `ctx` describes. The calibrated cost model in `scc-core`
    /// turns this into P54C cycles. Work depends on the strip's geometry
    /// and the frame's random plan, never on pixel values, so it is priced
    /// without an image — a timing-only run has none.
    fn work_units(&self, ctx: &FrameCtx) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_frame_ctx_covers_image() {
        let ctx = FrameCtx::whole_frame(3, 9, 64, 48);
        assert_eq!(ctx.strip.y0, 0);
        assert_eq!(ctx.strip.height, 48);
        assert_eq!(ctx.strip.count, 1);
        assert_eq!(ctx.full_width, 64);
        assert_eq!(ctx.pixel_count(), 64 * 48);
    }
}
