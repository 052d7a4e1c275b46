//! Kernel speed gates: each filter's `Simd` arm against its own `Scalar`
//! arm on one 400×200 strip, measured in one process so that host noise
//! moves both sides alike. Absolute times move by up to 2× between runs
//! on a shared host; these ratios move by well under that.
//!
//! Scratch and swap have no vectorised arm, so they are timed against a
//! same-size `copy_from_slice` instead (the ratio is copy time over
//! filter time).
//!
//! Release only; `#[ignore]`d in the default run:
//!
//! ```text
//! cargo test --release -p scc-filters --test speed_gate -- --ignored --nocapture
//! ```

use scc_filters::{standard_chain, FrameCtx, Image, ImageFilter, KernelBackend, SplitMix};
use std::time::Instant;

const W: u32 = 400;
const H: u32 = 200;
/// Calls per side; the best of them counts.
const CALLS: usize = 41;

/// Per kernel, the floor its ratio must reach: about half the lowest
/// ratio of ten runs on unmodified code (EXPERIMENTS.md, "Filter kernel
/// speed gates"). Blur's sits at 0.6 of it, so that the in-place kernel
/// inlined into its caller (about half as fast, 12.5-12.7x) fails.
const FLOORS: [(&str, f64); 5] = [
    ("sepia", 2.2),
    ("blur", 15.0),
    ("scratch", 12.0),
    ("flicker", 6.0),
    ("swap", 0.6),
];

fn strip() -> Image {
    let mut rng = SplitMix::new(7);
    let data = (0..W * H * 4).map(|_| rng.next_u64() as u8).collect();
    Image::from_raw(W, H, data)
}

/// Best-of-`CALLS` seconds of `a` and of `b`, their calls interleaved;
/// each call starts from a fresh copy of `src` (the copy is not timed).
fn best_pair(
    src: &Image,
    mut a: impl FnMut(&mut Image),
    mut b: impl FnMut(&mut Image),
) -> (f64, f64) {
    let mut img = src.clone();
    let mut time = |f: &mut dyn FnMut(&mut Image)| {
        img.as_bytes_mut().copy_from_slice(src.as_bytes());
        let t0 = Instant::now();
        f(&mut img);
        t0.elapsed().as_secs_f64()
    };
    let (mut ta, mut tb) = (f64::MAX, f64::MAX);
    for _ in 0..CALLS {
        ta = ta.min(time(&mut a));
        tb = tb.min(time(&mut b));
    }
    (ta, tb)
}

fn ratio(filter: &dyn ImageFilter, src: &Image) -> f64 {
    let ctx = FrameCtx::whole_frame(3, 11, W, H);
    let run = |backend| move |img: &mut Image| filter.apply_vectored(img, &ctx, backend, 1);
    match filter.name() {
        "scratch" | "swap" => {
            let mut dst = vec![0u8; src.as_bytes().len()];
            let copy = |img: &mut Image| dst.copy_from_slice(img.as_bytes());
            let (copy, simd) = best_pair(src, copy, run(KernelBackend::Simd));
            copy / simd
        }
        _ => {
            let (scalar, simd) =
                best_pair(src, run(KernelBackend::Scalar), run(KernelBackend::Simd));
            scalar / simd
        }
    }
}

#[test]
#[ignore = "release-only timing gate"]
fn simd_kernels_keep_their_lead_over_scalar() {
    let src = strip();
    let mut slow = Vec::new();
    for filter in standard_chain() {
        let name = filter.name();
        let floor = FLOORS
            .iter()
            .find(|(n, _)| *n == name)
            .expect("a floor per filter")
            .1;
        let r = ratio(filter.as_ref(), &src);
        println!("{name}: {r:.2}x (floor {floor}x)");
        if r < floor {
            slow.push(format!("{name} {r:.2}x < {floor}x"));
        }
    }
    assert!(slow.is_empty(), "kernels under their floor: {slow:?}");
}
