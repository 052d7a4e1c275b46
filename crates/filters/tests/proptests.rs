//! Property-based tests of the filter stages and strip decomposition.

use proptest::prelude::*;
use scc_filters::{
    fnv1a_fold, fnv1a_fold_lanes, sepia::sepia_pixel, standard_chain, vswap, Blur, Flicker,
    FrameCtx, Image, ImageFilter, KernelBackend, Scratch, Sepia, StripInfo, VSwap,
};

/// An arbitrary small image with arbitrary pixels.
fn arb_image(max_w: u32, max_h: u32) -> impl Strategy<Value = Image> {
    (1..=max_w, 1..=max_h).prop_flat_map(|(w, h)| {
        prop::collection::vec(any::<u8>(), (w * h * 4) as usize)
            .prop_map(move |data| Image::from_raw(w, h, data))
    })
}

/// An image filled the way a flat-shaded render fills one: runs of 1..=40
/// pixels with one RGB each (from a four-colour palette half the time, so
/// a colour comes back after other runs) and alpha varying inside a run.
fn arb_run_image(max_w: u32, max_h: u32) -> impl Strategy<Value = Image> {
    (1..=max_w, 1..=max_h).prop_flat_map(|(w, h)| {
        let n = (w * h) as usize;
        let rgb = prop_oneof![any::<u32>(), 0u32..4];
        (
            prop::collection::vec((1usize..=40, rgb), 1..=n),
            prop::collection::vec(any::<u8>(), n),
        )
            .prop_map(move |(runs, alpha)| {
                let rgbs = runs
                    .iter()
                    .flat_map(|&(len, rgb)| std::iter::repeat_n(rgb, len))
                    .cycle();
                let data = rgbs
                    .zip(alpha)
                    .flat_map(|(rgb, a)| (rgb & 0x00FF_FFFF | u32::from(a) << 24).to_le_bytes())
                    .collect();
                Image::from_raw(w, h, data)
            })
    })
}

/// `fnv1a_fold_lanes::<N>` over the first `N` lanes of `lanes` and
/// states of `starts`, next to `N` separate `fnv1a_fold`s.
fn lanes_and_folds<const N: usize>(starts: &[u64], lanes: &[&[u8]]) -> ([u64; N], [u64; N]) {
    let folds = std::array::from_fn(|k| fnv1a_fold(starts[k], lanes[k]));
    let h = fnv1a_fold_lanes(
        std::array::from_fn(|k| starts[k]),
        std::array::from_fn(|k| lanes[k]),
    );
    (h, folds)
}

fn whole(img: &Image, frame: u64, seed: u64) -> FrameCtx {
    FrameCtx::whole_frame(frame, seed, img.width(), img.height())
}

proptest! {
    #[test]
    fn sepia_output_always_channel_ordered(r in 0f32..=1.0, g in 0f32..=1.0, b in 0f32..=1.0) {
        let [or, og, ob] = sepia_pixel(r, g, b);
        prop_assert!(or >= og && og >= ob, "not sepia-toned: ({or},{og},{ob})");
        prop_assert!((0.0..=1.0).contains(&or));
        prop_assert!((0.0..=1.0).contains(&ob));
    }

    #[test]
    fn sepia_is_monotone_in_luminance(
        a in 0f32..=1.0, b in 0f32..=1.0
    ) {
        // Brighter grey input -> brighter sepia output, channel-wise.
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let out_lo = sepia_pixel(lo, lo, lo);
        let out_hi = sepia_pixel(hi, hi, hi);
        for c in 0..3 {
            prop_assert!(out_hi[c] >= out_lo[c] - 1e-6);
        }
    }

    #[test]
    fn swap_is_an_involution(img in arb_image(16, 16)) {
        let ctx = whole(&img, 0, 0);
        let mut twice = img.clone();
        VSwap.apply(&mut twice, &ctx);
        VSwap.apply(&mut twice, &ctx);
        prop_assert_eq!(twice, img);
    }

    #[test]
    fn blur_stays_within_input_range(img in arb_image(12, 12)) {
        // Box blur output channels stay within the min/max of the input.
        let (mut lo, mut hi) = ([255u8; 3], [0u8; 3]);
        for y in 0..img.height() {
            for x in 0..img.width() {
                let p = img.get(x, y);
                for c in 0..3 {
                    lo[c] = lo[c].min(p[c]);
                    hi[c] = hi[c].max(p[c]);
                }
            }
        }
        let mut blurred = img.clone();
        Blur::default().apply(&mut blurred, &whole(&img, 0, 0));
        for y in 0..img.height() {
            for x in 0..img.width() {
                let p = blurred.get(x, y);
                for c in 0..3 {
                    prop_assert!(p[c] >= lo[c] && p[c] <= hi[c]);
                }
            }
        }
    }

    #[test]
    fn flicker_shifts_every_pixel_uniformly(
        img in arb_image(10, 10),
        frame in 0u64..50,
        seed in any::<u64>(),
    ) {
        let f = Flicker::default();
        let ctx = whole(&img, frame, seed);
        let offset = f.offset(&ctx);
        let mut out = img.clone();
        f.apply(&mut out, &ctx);
        let d8 = (offset * 255.0).round();
        for y in 0..img.height() {
            for x in 0..img.width() {
                let a = img.get(x, y);
                let b = out.get(x, y);
                for c in 0..3 {
                    let expect = (a[c] as f32 + d8).clamp(0.0, 255.0);
                    // Allow 1 quantisation step of slack.
                    prop_assert!((b[c] as f32 - expect).abs() <= 1.0);
                }
                prop_assert_eq!(a[3], b[3], "alpha changed");
            }
        }
    }

    #[test]
    fn fnv1a_lanes_equal_separate_folds(
        len_bytes in (0usize..=257).prop_flat_map(|len| {
            (Just(len), prop::collection::vec(any::<u8>(), len * 8))
        }),
        starts in prop::collection::vec(any::<u64>(), 8),
    ) {
        let (len, bytes) = len_bytes;
        let lanes: Vec<&[u8]> = (0..8).map(|k| &bytes[k * len..(k + 1) * len]).collect();
        let (h, folds) = lanes_and_folds::<1>(&starts, &lanes);
        prop_assert_eq!(h, folds);
        let (h, folds) = lanes_and_folds::<2>(&starts, &lanes);
        prop_assert_eq!(h, folds);
        let (h, folds) = lanes_and_folds::<4>(&starts, &lanes);
        prop_assert_eq!(h, folds);
        let (h, folds) = lanes_and_folds::<8>(&starts, &lanes);
        prop_assert_eq!(h, folds);
    }

    #[test]
    fn split_assemble_identity(img in arb_image(16, 16), n in 1u32..8) {
        let n = n.min(img.height());
        let strips = img.split_strips(n);
        prop_assert_eq!(Image::assemble(&strips), img);
    }

    #[test]
    fn strip_processing_equals_whole_frame_for_pixelwise_filters(
        img in arb_image(16, 16),
        n in 1u32..6,
        frame in 0u64..20,
        seed in any::<u64>(),
    ) {
        let n = n.min(img.height());
        let filters: Vec<Box<dyn ImageFilter>> = vec![
            Box::new(Sepia),
            Box::new(Scratch::default()),
            Box::new(Flicker::default()),
        ];
        // Whole frame.
        let mut reference = img.clone();
        let ctx = whole(&img, frame, seed);
        for f in &filters {
            f.apply(&mut reference, &ctx);
        }
        // Strips.
        let mut strips = img.split_strips(n);
        for (info, strip) in &mut strips {
            let ctx = FrameCtx {
                frame_id: frame,
                run_seed: seed,
                strip: *info,
                full_width: img.width(),
            };
            for f in &filters {
                f.apply(strip, &ctx);
            }
        }
        prop_assert_eq!(Image::assemble(&strips), reference);
    }

    #[test]
    fn per_strip_swap_with_mirrored_assembly_is_global_flip(
        img in arb_image(12, 12),
        n in 1u32..6,
    ) {
        let n = n.min(img.height());
        let mut reference = img.clone();
        VSwap.apply(&mut reference, &whole(&img, 0, 0));
        let mut strips = img.split_strips(n);
        for (info, strip) in &mut strips {
            let ctx = FrameCtx {
                frame_id: 0,
                run_seed: 0,
                strip: *info,
                full_width: img.width(),
            };
            VSwap.apply(strip, &ctx);
            *info = vswap::mirrored_info(*info);
        }
        prop_assert_eq!(Image::assemble(&strips), reference);
    }

    #[test]
    fn scratch_plan_independent_of_strip(
        frame in 0u64..100,
        seed in any::<u64>(),
        y0 in 0u32..64,
    ) {
        let s = Scratch::default();
        let whole_ctx = FrameCtx::whole_frame(frame, seed, 128, 128);
        let strip_ctx = FrameCtx {
            frame_id: frame,
            run_seed: seed,
            strip: StripInfo {
                index: 1,
                count: 2,
                y0,
                height: 64,
                full_height: 128,
            },
            full_width: 128,
        };
        prop_assert_eq!(s.plan(&whole_ctx), s.plan(&strip_ctx));
    }

    /// Each backend's vectored kernel equals the sequential `apply`, per
    /// stage, for every stage of the chain (blur's stencil included), on
    /// any strip of any frame: the backend choice never changes a byte.
    #[test]
    fn vectored_equals_apply_per_stage(
        stage in 0usize..5,
        img in arb_image(47, 23),
        n in 1u32..5,
        strip_index in 0u32..4,
        frame in 0u64..1000,
        seed in any::<u64>(),
    ) {
        let n = n.min(img.height());
        let (info, strip) = img.split_strips(n).swap_remove((strip_index % n) as usize);
        let ctx = FrameCtx {
            frame_id: frame,
            run_seed: seed,
            strip: info,
            full_width: img.width(),
        };
        let filter = &standard_chain()[stage];
        let mut want = strip.clone();
        filter.apply(&mut want, &ctx);
        for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
            let mut got = strip.clone();
            filter.apply_vectored(&mut got, &ctx, backend, 1);
            prop_assert_eq!(
                &got, &want,
                "{} strip {}/{} {:?}", filter.name(), info.index, n, backend
            );
        }
    }

    /// Blur's vectored kernel equals the scalar gather byte for byte,
    /// alpha included, at every radius either side of the r = 7 edge of
    /// the vectored envelope, on images shorter and narrower than the
    /// window as well as wider.
    #[test]
    fn blur_vectored_equals_scalar_gather(
        radius in 0u32..=9,
        img in arb_image(47, 47),
    ) {
        let blur = Blur { radius };
        let ctx = whole(&img, 0, 0);
        let mut want = img.clone();
        blur.apply(&mut want, &ctx);
        let mut got = img;
        blur.apply_vectored(&mut got, &ctx, KernelBackend::Simd, 1);
        prop_assert_eq!(got, want, "r={}", radius);
    }

    /// The pointwise stages' vectored kernels equal `apply` byte for byte
    /// on flat-shaded input: runs straddle 8-pixel block edges, row ends
    /// and the strip's `< 8`-pixel tail, and a run's colour comes back
    /// after other runs.
    #[test]
    fn pointwise_vectored_equals_apply_on_flat_runs(
        img in arb_run_image(70, 24),
        frame in 0u64..1000,
        seed in any::<u64>(),
    ) {
        let ctx = whole(&img, frame, seed);
        let filters: [&dyn ImageFilter; 2] = [&Sepia, &Flicker::default()];
        for filter in filters {
            let mut want = img.clone();
            filter.apply(&mut want, &ctx);
            let mut got = img.clone();
            filter.apply_vectored(&mut got, &ctx, KernelBackend::Simd, 1);
            prop_assert_eq!(got, want, "{} {}x{}", filter.name(), img.width(), img.height());
        }
    }

    #[test]
    fn work_units_are_finite_and_nonnegative(
        img in arb_image(12, 12),
        frame in 0u64..20,
    ) {
        let ctx = whole(&img, frame, 5);
        let filters: Vec<Box<dyn ImageFilter>> = vec![
            Box::new(Sepia),
            Box::new(Blur::default()),
            Box::new(Scratch::default()),
            Box::new(Flicker::default()),
            Box::new(VSwap),
        ];
        for f in &filters {
            let w = f.work_units(&ctx);
            prop_assert!(w.is_finite() && w >= 0.0, "{}: {w}", f.name());
        }
    }
}
