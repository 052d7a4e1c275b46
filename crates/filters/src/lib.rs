//! # scc-filters — the silent-film image filter stages
//!
//! The five image-manipulating stages of the paper's macro pipeline
//! (§IV), implemented exactly as described:
//!
//! * [`sepia::Sepia`] — colour shift with the paper's `S1`/`S2`/`mix`
//!   formula;
//! * [`blur::Blur`] — neighbourhood-average blur through a second buffer
//!   (the most expensive filter stage);
//! * [`scratch::Scratch`] — random vertical scratch columns;
//! * [`flicker::Flicker`] — per-frame brightness offset in [−0.1, 0.1];
//! * [`vswap::VSwap`] — vertical mirror via row swaps.
//!
//! Plus the [`image::Image`] RGBA8 buffer, its sort-first horizontal
//! strip decomposition, the deterministic per-frame RNG that keeps
//! independently processed strips consistent with a single-pipeline run,
//! and the [`fanout`] helper that spreads a batch of independent jobs
//! over host threads. A filter stage itself runs its kernel on the
//! calling thread; [`fanout`] is the crate's one place that spawns.

#![forbid(unsafe_code)]

pub mod backend;
pub mod blur;
pub mod fanout;
pub mod filter;
pub mod flicker;
pub mod frame_rng;
pub mod image;
pub mod oriented_scratch;
pub mod scratch;
pub mod sepia;
mod uniform;
pub mod vswap;

pub use backend::KernelBackend;
pub use blur::Blur;
pub use fanout::{burst, fan_out};
pub use filter::{FrameCtx, ImageFilter};
pub use flicker::Flicker;
pub use frame_rng::{
    fnv1a, fnv1a_fold, fnv1a_fold_lanes, splitmix64, SplitMix, FNV_OFFSET, FNV_PRIME,
};
pub use image::{Image, StripInfo, BYTES_PER_PIXEL};
pub use oriented_scratch::OrientedScratch;
pub use scratch::Scratch;
pub use sepia::Sepia;
pub use vswap::VSwap;

/// The paper's filter chain in pipeline order (sepia → blur → scratch →
/// flicker → swap), with default parameters.
pub fn standard_chain() -> Vec<Box<dyn ImageFilter>> {
    vec![
        Box::new(Sepia),
        Box::new(Blur::default()),
        Box::new(Scratch::default()),
        Box::new(Flicker::default()),
        Box::new(VSwap),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_chain_order_matches_paper() {
        let names: Vec<&str> = standard_chain().iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["sepia", "blur", "scratch", "flicker", "swap"]);
    }

    #[test]
    fn chain_applied_to_strips_equals_whole_frame() {
        // The core consistency property of the sort-first decomposition:
        // processing strips independently and reassembling gives the same
        // image as processing the full frame — for every stage that is
        // strictly per-pixel or per-column (blur is excluded here; its
        // strip seams are part of the paper's data path, see scc-core
        // tests for the strip-reference comparison).
        let mut img = Image::new(32, 24);
        for y in 0..24 {
            for x in 0..32 {
                img.set(x, y, [(x * 8) as u8, (y * 10) as u8, 77, 255]);
            }
        }
        let seed = 1234;
        let frame = 17;
        let filters: Vec<Box<dyn ImageFilter>> = vec![
            Box::new(Sepia),
            Box::new(Scratch::default()),
            Box::new(Flicker::default()),
        ];

        // Whole-frame reference.
        let mut whole = img.clone();
        let wctx = FrameCtx::whole_frame(frame, seed, 32, 24);
        for f in &filters {
            f.apply(&mut whole, &wctx);
        }

        // Strip-parallel version.
        let mut strips = img.split_strips(3);
        for (info, strip) in &mut strips {
            let ctx = FrameCtx {
                frame_id: frame,
                run_seed: seed,
                strip: *info,
                full_width: 32,
            };
            for f in &filters {
                f.apply(strip, &ctx);
            }
        }
        assert_eq!(Image::assemble(&strips), whole);
    }

    #[test]
    fn vectored_kernels_match_sequential_bit_exactly() {
        // The backend invariant: `apply_vectored` must equal `apply`
        // for every filter and backend — the backend is an
        // instruction-selection knob, never a pixels knob.
        let mut img = Image::new(41, 23);
        for y in 0..23 {
            for x in 0..41 {
                img.set(x, y, [(x * 11) as u8, (y * 5) as u8, (x * y) as u8, 255]);
            }
        }
        for frame in [0u64, 9] {
            let ctx = FrameCtx::whole_frame(frame, 4242, 41, 23);
            for f in standard_chain() {
                let mut seq = img.clone();
                f.apply(&mut seq, &ctx);
                for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
                    let mut vec = img.clone();
                    f.apply_vectored(&mut vec, &ctx, backend, 1);
                    assert_eq!(
                        vec,
                        seq,
                        "{} diverged at {backend:?} frame={frame}",
                        f.name()
                    );
                }
            }
        }
    }
}
