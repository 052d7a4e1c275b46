//! `ImageFilter::work_units` is priced from the strip geometry in
//! `FrameCtx`. Until the probe-plane change it took the strip's image and
//! read the same two numbers (pixel count, height) off it; the formulas of
//! that version are written out below and evaluated on a real image of the
//! strip's shape, so any drift between "the image's size" and "the size
//! `ctx` states" — which would move every virtual-time total — fails here.

use scc_filters::{
    standard_chain, FrameCtx, Image, ImageFilter, OrientedScratch, Scratch, StripInfo,
};

/// `work_units(img, ctx)` as it was computed from the image.
fn priced_from_image(filter: &dyn ImageFilter, img: &Image, ctx: &FrameCtx) -> f64 {
    let px = img.pixel_count() as f64;
    match filter.name() {
        "sepia" => px,
        "blur" => px * 9.0 * 0.45,
        "flicker" => px * 0.55,
        "swap" => px * 0.45,
        "scratch" => {
            let columns = Scratch::default().plan(ctx).columns.len() as u64;
            (img.height() as u64 * columns) as f64 * 1.5
        }
        "oriented-scratch" => {
            let total: f32 = OrientedScratch::default()
                .plan(ctx)
                .segments
                .iter()
                .map(|s| ((s.x1 - s.x0).powi(2) + (s.y1 - s.y0).powi(2)).sqrt())
                .sum();
            total as f64 * (img.height() as f64 / ctx.strip.full_height as f64) * 1.5
        }
        other => panic!("no reference formula for {other}"),
    }
}

#[test]
fn geometry_priced_work_equals_the_image_priced_value() {
    let mut filters = standard_chain();
    filters.push(Box::new(OrientedScratch::default()));
    assert_eq!(filters.len(), 6);
    let mut nonzero = vec![false; filters.len()];
    for (width, height) in [(400u32, 400u32), (120, 90), (33, 7)] {
        for count in [1u32, 2, 3, 5, 7] {
            for (index, (y0, h)) in Image::strip_bounds(height, count).into_iter().enumerate() {
                // Only the geometry matters, and a blank image has it.
                let img = Image::new(width, h);
                for frame_id in 0..50 {
                    let ctx = FrameCtx {
                        frame_id,
                        run_seed: 0x51CC_F11F,
                        strip: StripInfo {
                            index: index as u32,
                            count,
                            y0,
                            height: h,
                            full_height: height,
                        },
                        full_width: width,
                    };
                    assert_eq!(ctx.pixel_count(), img.pixel_count());
                    for (filter, nonzero) in filters.iter().zip(&mut nonzero) {
                        let got = filter.work_units(&ctx);
                        let want = priced_from_image(filter.as_ref(), &img, &ctx);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{} frame {frame_id} strip {index}/{count} of {width}x{height}: \
                             {got} != {want}",
                            filter.name()
                        );
                        *nonzero |= got > 0.0;
                    }
                }
            }
        }
    }
    // The two scratch filters draw nothing on some frames, never on all.
    assert!(nonzero.iter().all(|&n| n), "{nonzero:?}");
}
