//! Frame checksums: the visualisation client's content address.
//!
//! The paper's client runs on the MCPC, receives final frames over UDP
//! and displays each "until a new image arrives" (§IV). Every film
//! comparison in this repository — runner against runner, runner against
//! the sequential reference, a healed run against a clean one — compares
//! [`frame_checksum`]s. The silent-film effect itself (visible flicker,
//! detectable scratch columns, no stalled frame) is checked by this
//! module's tests.

use scc_filters::{fnv1a, Image};

/// FNV-1a, for cheap content-addressing of frames.
pub fn frame_checksum(img: &Image) -> u64 {
    fnv1a(img.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_frames;
    use crate::spec::{Fidelity, RunConfig};
    use scc_filters::{FrameCtx, ImageFilter, Scratch};
    use scc_render::{CityConfig, Scene};
    use std::sync::Arc;

    /// Mean luminance of a frame in [0, 1] (Rec.601 weights, like the
    /// sepia mix formula).
    fn mean_luminance(img: &Image) -> f64 {
        let mut acc = 0.0f64;
        for px in img.as_bytes().chunks_exact(4) {
            acc += 0.3 * px[0] as f64 + 0.59 * px[1] as f64 + 0.11 * px[2] as f64;
        }
        acc / (img.pixel_count() as f64 * 255.0)
    }

    /// Columns whose pixels are all one bright grey — the signature of
    /// the vertical scratch filter.
    fn detect_scratch_columns(img: &Image) -> Vec<u32> {
        let grey = |p: [u8; 4]| p[0] >= 150 && p[0] == p[1] && p[1] == p[2];
        (0..img.width())
            .filter(|&x| {
                let first = img.get(x, 0);
                grey(first) && (1..img.height()).all(|y| img.get(x, y)[..3] == first[..3])
            })
            .collect()
    }

    #[test]
    fn checksum_distinguishes_frames() {
        let a = Image::new(8, 8);
        let mut b = Image::new(8, 8);
        b.set(3, 3, [1, 2, 3, 255]);
        assert_ne!(frame_checksum(&a), frame_checksum(&b));
        assert_eq!(frame_checksum(&a), frame_checksum(&a.clone()));
    }

    #[test]
    fn luminance_of_known_images() {
        let mut img = Image::new(4, 4);
        assert_eq!(mean_luminance(&img), 0.0);
        img.fill([255, 255, 255, 255]);
        assert!((mean_luminance(&img) - 1.0).abs() < 1e-9);
        img.fill([255, 0, 0, 255]);
        assert!((mean_luminance(&img) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn detects_scratch_columns_painted_by_the_filter() {
        let s = Scratch { max_scratches: 6 };
        for frame in 0..32 {
            let ctx = FrameCtx::whole_frame(frame, 5, 64, 48);
            let plan = s.plan(&ctx);
            if plan.columns.is_empty() {
                continue;
            }
            let mut img = Image::new(64, 48);
            s.apply(&mut img, &ctx);
            let detected = detect_scratch_columns(&img);
            for c in &plan.columns {
                assert!(detected.contains(c), "column {c} not detected");
            }
            return;
        }
        panic!("no scratched frame found");
    }

    #[test]
    fn walkthrough_frames_flicker_and_never_stall() {
        let cfg = RunConfig {
            pipelines: 2,
            width: 64,
            height: 64,
            frames: 16,
            fidelity: Fidelity::Full,
            ..RunConfig::default()
        };
        let scene = Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 3,
        }));
        let frames = reference_frames(&cfg, scene);
        let luminance: Vec<f64> = frames.iter().map(mean_luminance).collect();
        let max = luminance.iter().copied().fold(f64::MIN, f64::max);
        let min = luminance.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            max - min > 0.005,
            "flicker amplitude {:.4} too small — filter not visible",
            max - min
        );
        let sums: Vec<u64> = frames.iter().map(frame_checksum).collect();
        assert_eq!(sums.len(), 16);
        assert!(
            sums.windows(2).all(|w| w[0] != w[1]),
            "stalled frames detected"
        );
        // All checksums distinct (walkthrough + randomised filters).
        let mut distinct = sums.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 16);
    }
}
