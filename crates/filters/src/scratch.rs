//! Scratch stage (ScS): vertical scratches in randomly chosen columns.
//!
//! "When this filter begins, two random numbers are chosen: one for the
//! number of scratches and another one for scratch color. Next, for each
//! scratch, an x-coordinate is randomly chosen. On each of these positions
//! the vertical pixels are replaced by the previously chosen color" (§IV).
//!
//! The randomness is drawn from the per-frame RNG over the *full* image
//! width, so strips processed by independent pipelines produce one
//! continuous scratch line — exactly what a single-pipeline run would
//! paint.

use crate::filter::{FrameCtx, ImageFilter};
use crate::frame_rng::frame_rng;
use crate::image::Image;

/// Scratch filter parameters.
#[derive(Debug, Clone, Copy)]
pub struct Scratch {
    /// Maximum number of scratches per frame (inclusive).
    pub max_scratches: u32,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch { max_scratches: 8 }
    }
}

/// The per-frame scratch plan, derivable by any stage from the frame id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScratchPlan {
    pub color: [u8; 3],
    pub columns: Vec<u32>,
}

impl Scratch {
    /// Compute the frame's scratch plan (count, colour, x positions).
    pub fn plan(&self, ctx: &FrameCtx) -> ScratchPlan {
        let mut rng = frame_rng(ctx.run_seed, ctx.frame_id);
        let count = rng.gen_range(0..=self.max_scratches);
        // A light gray scratch tone, like emulsion damage.
        let shade: u8 = rng.gen_range(180..=255);
        // A frame with no columns has nowhere to scratch.
        let count = if ctx.full_width == 0 { 0 } else { count };
        let columns = (0..count)
            .map(|_| rng.gen_range(0..ctx.full_width))
            .collect();
        ScratchPlan {
            color: [shade, shade, shade],
            columns,
        }
    }
}

impl ImageFilter for Scratch {
    fn name(&self) -> &'static str {
        "scratch"
    }

    fn apply(&self, img: &mut Image, ctx: &FrameCtx) {
        let plan = self.plan(ctx);
        for &x in &plan.columns {
            if x >= img.width() {
                continue;
            }
            for y in 0..img.height() {
                let a = img.get(x, y)[3];
                img.set(x, y, [plan.color[0], plan.color[1], plan.color[2], a]);
            }
        }
    }

    fn work_units(&self, ctx: &FrameCtx) -> f64 {
        // Only the scratch columns are touched: work is rows × columns,
        // tiny compared to the per-pixel filters (hence the cheapest stage
        // in Figure 8).
        let plan = self.plan(ctx);
        (ctx.strip.height as u64 * plan.columns.len() as u64) as f64 * 1.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::StripInfo;

    fn ctx(frame: u64, w: u32, h: u32) -> FrameCtx {
        FrameCtx::whole_frame(frame, 99, w, h)
    }

    #[test]
    fn plan_is_deterministic_per_frame() {
        let s = Scratch::default();
        let c = ctx(5, 100, 50);
        assert_eq!(s.plan(&c), s.plan(&c));
        // A different frame yields a different plan (overwhelmingly).
        let other = s.plan(&ctx(6, 100, 50));
        assert!(s.plan(&c) != other || other.columns.is_empty());
    }

    #[test]
    fn scratches_paint_full_columns() {
        let s = Scratch { max_scratches: 8 };
        // Find a frame that actually has scratches.
        for frame in 0..32 {
            let c = ctx(frame, 64, 32);
            let plan = s.plan(&c);
            if plan.columns.is_empty() {
                continue;
            }
            let mut img = Image::new(64, 32);
            s.apply(&mut img, &c);
            let x = plan.columns[0];
            for y in 0..32 {
                assert_eq!(&img.get(x, y)[..3], &plan.color);
            }
            return;
        }
        panic!("no frame with scratches in 32 tries — RNG broken?");
    }

    #[test]
    fn untouched_columns_stay_black() {
        let s = Scratch { max_scratches: 2 };
        let c = ctx(3, 64, 16);
        let plan = s.plan(&c);
        let mut img = Image::new(64, 16);
        s.apply(&mut img, &c);
        for x in 0..64 {
            if plan.columns.contains(&x) {
                continue;
            }
            for y in 0..16 {
                assert_eq!(img.get(x, y), [0, 0, 0, 255]);
            }
        }
    }

    #[test]
    fn strips_see_the_same_plan() {
        // The plan must depend on the frame, not the strip.
        let s = Scratch::default();
        let whole = s.plan(&ctx(11, 128, 64));
        let strip_ctx = FrameCtx {
            frame_id: 11,
            run_seed: 99,
            strip: StripInfo {
                index: 2,
                count: 4,
                y0: 32,
                height: 16,
                full_height: 64,
            },
            full_width: 128,
        };
        assert_eq!(s.plan(&strip_ctx), whole);
    }

    #[test]
    fn columns_beyond_strip_width_ignored_gracefully() {
        // Full width 100 but a hypothetical narrower buffer: no panic.
        let s = Scratch { max_scratches: 8 };
        let mut c = ctx(1, 100, 10);
        c.full_width = 100;
        let mut img = Image::new(10, 10); // narrower than full_width
        s.apply(&mut img, &c);
    }

    #[test]
    fn work_scales_with_scratch_count() {
        let s = Scratch { max_scratches: 8 };
        // Find two frames with different scratch counts.
        let mut works: Vec<f64> = (0..64).map(|f| s.work_units(&ctx(f, 64, 64))).collect();
        works.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(works[0] < works[works.len() - 1]);
    }

    #[test]
    fn zero_max_means_never_scratches() {
        let s = Scratch { max_scratches: 0 };
        for frame in 0..16 {
            assert!(s.plan(&ctx(frame, 32, 32)).columns.is_empty());
        }
    }

    #[test]
    fn a_frame_without_width_has_no_scratches() {
        let s = Scratch::default();
        for frame in 0..8 {
            let c = FrameCtx::whole_frame(frame, 1, 0, 16);
            let plan = s.plan(&c);
            assert!(plan.columns.is_empty());
            // The count and then the shade are still drawn.
            let mut rng = frame_rng(1, frame);
            rng.gen_range(0..=s.max_scratches);
            assert_eq!(plan.color[0], rng.gen_range(180..=255));
            let mut img = Image::new(4, 4);
            s.apply(&mut img, &c);
            assert_eq!(img, Image::new(4, 4));
        }
    }
}
