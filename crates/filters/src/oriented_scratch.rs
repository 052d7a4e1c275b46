//! Extension from §IV: "Our filter provides only vertical scratches but
//! the system can be easily extended to allow scratches of arbitrary
//! orientation and length." This stage implements that extension:
//! scratches are line segments with a random position, angle and length,
//! drawn with a DDA walk in *full-frame* coordinates, so independently
//! processed strips still compose into continuous scratch lines.

use crate::filter::{FrameCtx, ImageFilter};
use crate::frame_rng::{draw_between, frame_rng};
use crate::image::Image;
use rand::Rng;

/// One scratch segment in full-frame pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub x0: f32,
    pub y0: f32,
    pub x1: f32,
    pub y1: f32,
}

/// Scratches with arbitrary orientation and length.
#[derive(Debug, Clone, Copy)]
pub struct OrientedScratch {
    /// Maximum scratches per frame (inclusive).
    pub max_scratches: u32,
    /// Maximum deviation from vertical, radians (π/2 allows any angle).
    pub max_tilt: f32,
    /// Scratch length range as a fraction of the frame height.
    pub length_range: (f32, f32),
}

impl Default for OrientedScratch {
    fn default() -> Self {
        OrientedScratch {
            max_scratches: 6,
            max_tilt: 0.35,
            length_range: (0.25, 1.0),
        }
    }
}

/// Per-frame plan: colour plus segments.
#[derive(Debug, Clone, PartialEq)]
pub struct OrientedPlan {
    pub color: [u8; 3],
    pub segments: Vec<Segment>,
}

impl OrientedScratch {
    /// Derive the frame's scratch segments from the per-frame RNG
    /// (domain-separated from the classic scratch filter). A negative
    /// `max_tilt` counts as its magnitude, `length_range` is taken in
    /// either order, and a NaN in either counts as 0.
    pub fn plan(&self, ctx: &FrameCtx) -> OrientedPlan {
        let mut rng = frame_rng(ctx.run_seed, ctx.frame_id.wrapping_add(0x0511_E17E));
        let count = rng.gen_range(0..=self.max_scratches);
        let shade: u8 = rng.gen_range(170..=255);
        let w = ctx.full_width as f32;
        let h = ctx.strip.full_height as f32;
        let segments = (0..count)
            .map(|_| {
                let cx = rng.gen_range(0.0..w);
                let cy = rng.gen_range(0.0..h);
                let tilt = draw_between(&mut rng, -self.max_tilt, self.max_tilt);
                let (shortest, longest) = self.length_range;
                let len = draw_between(&mut rng, shortest, longest) * h;
                // Angle measured from vertical.
                let (dx, dy) = (tilt.sin(), tilt.cos());
                Segment {
                    x0: cx - dx * len * 0.5,
                    y0: cy - dy * len * 0.5,
                    x1: cx + dx * len * 0.5,
                    y1: cy + dy * len * 0.5,
                }
            })
            .collect();
        OrientedPlan {
            color: [shade, shade, shade],
            segments,
        }
    }
}

impl ImageFilter for OrientedScratch {
    fn name(&self) -> &'static str {
        "oriented-scratch"
    }

    fn apply(&self, img: &mut Image, ctx: &FrameCtx) {
        let plan = self.plan(ctx);
        let y_off = ctx.strip.y0 as f32;
        for seg in &plan.segments {
            // DDA at sub-pixel steps in full-frame space; paint pixels
            // that land inside this strip.
            let dx = seg.x1 - seg.x0;
            let dy = seg.y1 - seg.y0;
            let steps = dx.abs().max(dy.abs()).ceil().max(1.0) as u32;
            for i in 0..=steps {
                let t = i as f32 / steps as f32;
                let x = seg.x0 + dx * t;
                let y = seg.y0 + dy * t - y_off;
                if x < 0.0 || y < 0.0 {
                    continue;
                }
                let (xi, yi) = (x as u32, y as u32);
                if xi < img.width() && yi < img.height() {
                    let a = img.get(xi, yi)[3];
                    img.set(xi, yi, [plan.color[0], plan.color[1], plan.color[2], a]);
                }
            }
        }
    }

    fn work_units(&self, ctx: &FrameCtx) -> f64 {
        // Work ∝ total segment length clipped to the strip, ~1.5 units per
        // touched pixel like the vertical scratch.
        let plan = self.plan(ctx);
        let total: f32 = plan
            .segments
            .iter()
            .map(|s| ((s.x1 - s.x0).powi(2) + (s.y1 - s.y0).powi(2)).sqrt())
            .sum();
        let strip_share = ctx.strip.height as f64 / ctx.strip.full_height as f64;
        total as f64 * strip_share * 1.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::StripInfo;

    fn ctx(frame: u64, w: u32, h: u32) -> FrameCtx {
        FrameCtx::whole_frame(frame, 31, w, h)
    }

    fn frame_with_scratches(s: &OrientedScratch, w: u32, h: u32) -> (u64, OrientedPlan) {
        for f in 0..64 {
            let plan = s.plan(&ctx(f, w, h));
            if !plan.segments.is_empty() {
                return (f, plan);
            }
        }
        panic!("no scratches in 64 frames");
    }

    #[test]
    fn plan_is_deterministic_and_strip_independent() {
        let s = OrientedScratch::default();
        let whole = s.plan(&ctx(9, 64, 64));
        let strip_ctx = FrameCtx {
            frame_id: 9,
            run_seed: 31,
            strip: StripInfo {
                index: 1,
                count: 4,
                y0: 16,
                height: 16,
                full_height: 64,
            },
            full_width: 64,
        };
        assert_eq!(s.plan(&strip_ctx), whole);
    }

    #[test]
    fn segments_respect_parameters() {
        let s = OrientedScratch {
            max_scratches: 8,
            max_tilt: 0.2,
            length_range: (0.3, 0.6),
        };
        let (_, plan) = frame_with_scratches(&s, 100, 100);
        for seg in &plan.segments {
            let dx = seg.x1 - seg.x0;
            let dy = seg.y1 - seg.y0;
            let len = (dx * dx + dy * dy).sqrt();
            assert!((29.0..=61.0).contains(&len), "length {len}");
            // Tilt from vertical stays within max_tilt.
            let tilt = (dx / dy).atan().abs();
            assert!(tilt <= 0.21, "tilt {tilt}");
        }
    }

    #[test]
    fn strips_compose_to_whole_frame() {
        // The defining property of the extension: per-strip application
        // equals whole-frame application.
        let s = OrientedScratch::default();
        let (frame, _) = frame_with_scratches(&s, 48, 48);
        let mut whole = Image::new(48, 48);
        s.apply(&mut whole, &ctx(frame, 48, 48));

        let base = Image::new(48, 48);
        for n in [2u32, 3, 4] {
            let mut strips = base.split_strips(n);
            for (info, strip) in &mut strips {
                let c = FrameCtx {
                    frame_id: frame,
                    run_seed: 31,
                    strip: *info,
                    full_width: 48,
                };
                s.apply(strip, &c);
            }
            assert_eq!(Image::assemble(&strips), whole, "n={n}");
        }
    }

    #[test]
    fn scratches_paint_something() {
        let s = OrientedScratch::default();
        let (frame, plan) = frame_with_scratches(&s, 64, 64);
        let mut img = Image::new(64, 64);
        s.apply(&mut img, &ctx(frame, 64, 64));
        let mut painted = 0;
        for y in 0..64 {
            for x in 0..64 {
                if img.get(x, y)[0] == plan.color[0] && img.get(x, y)[0] > 0 {
                    painted += 1;
                }
            }
        }
        assert!(painted > 4, "only {painted} scratch pixels");
    }

    /// `s` and `t` draw the same plan for each of 64 frames of a 64x64 film.
    fn same_plans(s: OrientedScratch, t: OrientedScratch) {
        for f in 0..64 {
            assert_eq!(
                s.plan(&ctx(f, 64, 64)),
                t.plan(&ctx(f, 64, 64)),
                "frame {f}"
            );
        }
    }

    #[test]
    fn negative_tilt_draws_as_its_magnitude() {
        let s = OrientedScratch::default();
        same_plans(
            OrientedScratch {
                max_tilt: -s.max_tilt,
                ..s
            },
            s,
        );
    }

    #[test]
    fn nan_tilt_draws_vertical_scratches() {
        let s = OrientedScratch::default();
        same_plans(
            OrientedScratch {
                max_tilt: f32::NAN,
                ..s
            },
            OrientedScratch { max_tilt: 0.0, ..s },
        );
    }

    #[test]
    fn reversed_length_range_draws_as_ordered() {
        let s = OrientedScratch::default();
        same_plans(
            OrientedScratch {
                length_range: (s.length_range.1, s.length_range.0),
                ..s
            },
            s,
        );
    }

    #[test]
    fn zero_max_never_scratches() {
        let s = OrientedScratch {
            max_scratches: 0,
            ..Default::default()
        };
        for f in 0..8 {
            assert!(s.plan(&ctx(f, 32, 32)).segments.is_empty());
        }
    }

    #[test]
    fn work_scales_with_strip_share() {
        let s = OrientedScratch::default();
        let (frame, _) = frame_with_scratches(&s, 64, 64);
        let whole_work = s.work_units(&ctx(frame, 64, 64));
        let strip_ctx = FrameCtx {
            frame_id: frame,
            run_seed: 31,
            strip: StripInfo {
                index: 0,
                count: 4,
                y0: 0,
                height: 16,
                full_height: 64,
            },
            full_width: 64,
        };
        let strip_work = s.work_units(&strip_ctx);
        assert!((strip_work - whole_work / 4.0).abs() < 1e-6);
    }
}
