//! Swap stage (SwS): vertical mirror via row exchange.
//!
//! The visualisation client expects vertically mirrored frames; the stage
//! flips the strip upside-down by swapping row `i` with row
//! `lines_in_strip − 1 − i` through an intermediate line buffer (§IV). The
//! paper notes the stage exists partly to introduce a different (strided,
//! two-ended) memory access pattern into the pipeline.

use crate::filter::{FrameCtx, ImageFilter};
use crate::image::Image;

/// The vertical-swap (mirror) filter.
#[derive(Debug, Clone, Copy, Default)]
pub struct VSwap;

/// Where a strip lands in the assembled frame after the swap stage: since
/// each strip is mirrored *locally*, the transfer stage must also mirror
/// the strip order for the full frame to come out globally flipped.
pub fn mirrored_info(info: crate::image::StripInfo) -> crate::image::StripInfo {
    crate::image::StripInfo {
        index: info.index,
        count: info.count,
        y0: info.full_height - info.y0 - info.height,
        height: info.height,
        full_height: info.full_height,
    }
}

impl ImageFilter for VSwap {
    fn name(&self) -> &'static str {
        "swap"
    }

    fn apply(&self, img: &mut Image, _ctx: &FrameCtx) {
        let h = img.height();
        let w = img.width() as usize * 4;
        // Intermediate buffer, exactly as the paper describes.
        let mut tmp = vec![0u8; w];
        for i in 0..h / 2 {
            let j = h - 1 - i;
            tmp.copy_from_slice(img.row(i));
            let (lo, hi) = {
                // Two disjoint row copies; do them via split to satisfy
                // the borrow checker without extra allocation.
                let data = img.as_bytes_mut();
                let (a, b) = data.split_at_mut(j as usize * w);
                (&mut a[i as usize * w..i as usize * w + w], &mut b[..w])
            };
            lo.copy_from_slice(hi);
            hi.copy_from_slice(&tmp);
        }
    }

    fn work_units(&self, ctx: &FrameCtx) -> f64 {
        // Three row copies per swapped pair ≈ 1.5 touches per pixel, but
        // each touch is a plain copy (no arithmetic): weight it below
        // sepia.
        ctx.pixel_count() as f64 * 0.45
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FrameCtx {
        FrameCtx::whole_frame(0, 0, 4, 4)
    }

    fn numbered(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, [y as u8, x as u8, 0, 255]);
            }
        }
        img
    }

    #[test]
    fn flips_rows() {
        let mut img = numbered(3, 5);
        VSwap.apply(&mut img, &ctx());
        for y in 0..5 {
            for x in 0..3 {
                assert_eq!(img.get(x, y), [(4 - y) as u8, x as u8, 0, 255]);
            }
        }
    }

    #[test]
    fn involution() {
        let orig = numbered(7, 6);
        let mut img = orig.clone();
        VSwap.apply(&mut img, &ctx());
        assert_ne!(img, orig, "flip must change a non-symmetric image");
        VSwap.apply(&mut img, &ctx());
        assert_eq!(img, orig, "double flip is the identity");
    }

    #[test]
    fn odd_height_middle_row_unchanged() {
        let mut img = numbered(4, 5);
        let middle_before: Vec<u8> = img.row(2).to_vec();
        VSwap.apply(&mut img, &ctx());
        assert_eq!(img.row(2), &middle_before[..]);
    }

    #[test]
    fn single_row_is_identity() {
        let orig = numbered(6, 1);
        let mut img = orig.clone();
        VSwap.apply(&mut img, &ctx());
        assert_eq!(img, orig);
    }

    #[test]
    fn work_is_linear_in_pixels() {
        let small = FrameCtx::whole_frame(0, 0, 10, 10);
        let large = FrameCtx::whole_frame(0, 0, 20, 20);
        assert!((VSwap.work_units(&large) / VSwap.work_units(&small) - 4.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod mirror_tests {
    use super::*;
    use crate::filter::{FrameCtx, ImageFilter};
    use crate::image::{Image, StripInfo};

    #[test]
    fn mirrored_info_reverses_strip_order() {
        let info = StripInfo {
            index: 0,
            count: 4,
            y0: 0,
            height: 25,
            full_height: 100,
        };
        let m = mirrored_info(info);
        assert_eq!(m.y0, 75);
        assert_eq!(mirrored_info(m).y0, 0, "mirror is an involution");
    }

    #[test]
    fn per_strip_swap_plus_mirrored_assembly_equals_global_flip() {
        // The paper's data path: each strip flipped locally, then the
        // transfer stage places strips at mirrored positions.
        let mut img = Image::new(6, 12);
        for y in 0..12 {
            for x in 0..6 {
                img.set(x, y, [y as u8 * 10, x as u8, 0, 255]);
            }
        }
        // Global flip reference.
        let mut global = img.clone();
        VSwap.apply(&mut global, &FrameCtx::whole_frame(0, 0, 6, 12));

        for n in [1u32, 2, 3, 4] {
            let mut strips = img.split_strips(n);
            for (info, strip) in &mut strips {
                let ctx = FrameCtx {
                    frame_id: 0,
                    run_seed: 0,
                    strip: *info,
                    full_width: 6,
                };
                VSwap.apply(strip, &ctx);
                *info = mirrored_info(*info);
            }
            assert_eq!(Image::assemble(&strips), global, "n={n}");
        }
    }
}
