//! Visualisation client.
//!
//! The paper's client runs on the MCPC, receives final frames over UDP
//! and displays each "until a new image arrives" (§IV). This module is
//! the analysis-side equivalent: it ingests the frames a runner delivered
//! and verifies/characterises the silent-film effect — per-frame
//! checksums, the brightness series (the visible flicker), scratch-column
//! detection, and delivery statistics.

use scc_filters::{fnv1a, Image};

/// FNV-1a, for cheap content-addressing of frames.
pub fn frame_checksum(img: &Image) -> u64 {
    fnv1a(img.as_bytes())
}

/// Mean luminance of a frame in [0, 1] (Rec.601 weights, like the sepia
/// mix formula).
pub fn mean_luminance(img: &Image) -> f64 {
    let mut acc = 0.0f64;
    for px in img.as_bytes().chunks_exact(4) {
        acc += 0.3 * px[0] as f64 + 0.59 * px[1] as f64 + 0.11 * px[2] as f64;
    }
    acc / (img.pixel_count() as f64 * 255.0)
}

/// Columns whose pixels are (almost) uniformly a single bright shade —
/// the signature of the vertical scratch filter. Returns column indices.
pub fn detect_scratch_columns(img: &Image) -> Vec<u32> {
    let mut out = Vec::new();
    for x in 0..img.width() {
        let first = img.get(x, 0);
        if first[0] < 150 || first[0] != first[1] || first[1] != first[2] {
            continue;
        }
        let uniform = (1..img.height()).all(|y| {
            let p = img.get(x, y);
            p[0] == first[0] && p[1] == first[1] && p[2] == first[2]
        });
        if uniform {
            out.push(x);
        }
    }
    out
}

/// Per-run delivery report.
#[derive(Debug, Clone)]
pub struct VizReport {
    pub frames: usize,
    pub checksums: Vec<u64>,
    /// Mean luminance per frame — the flicker series.
    pub luminance: Vec<f64>,
    /// Scratch columns detected per frame.
    pub scratch_columns: Vec<Vec<u32>>,
    /// Number of consecutive duplicate frames (a stalled pipeline would
    /// show these; a healthy walkthrough has none).
    pub duplicates: usize,
}

/// The client: feed it frames in display order.
#[derive(Debug, Default)]
pub struct VizClient {
    checksums: Vec<u64>,
    luminance: Vec<f64>,
    scratch_columns: Vec<Vec<u32>>,
    duplicates: usize,
}

impl VizClient {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn display(&mut self, img: &Image) {
        let sum = frame_checksum(img);
        if self.checksums.last() == Some(&sum) {
            self.duplicates += 1;
        }
        self.checksums.push(sum);
        self.luminance.push(mean_luminance(img));
        self.scratch_columns.push(detect_scratch_columns(img));
    }

    pub fn ingest_all<'a>(&mut self, frames: impl IntoIterator<Item = &'a Image>) {
        for f in frames {
            self.display(f);
        }
    }

    /// Peak-to-peak amplitude of the luminance (flicker) series.
    pub fn flicker_amplitude(&self) -> f64 {
        let max = self.luminance.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.luminance.iter().cloned().fold(f64::MAX, f64::min);
        if self.luminance.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    pub fn report(self) -> VizReport {
        VizReport {
            frames: self.checksums.len(),
            checksums: self.checksums,
            luminance: self.luminance,
            scratch_columns: self.scratch_columns,
            duplicates: self.duplicates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_frames;
    use crate::spec::{Fidelity, RunConfig};
    use scc_filters::{FrameCtx, ImageFilter, Scratch};
    use scc_render::{CityConfig, Scene};
    use std::sync::Arc;

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
        let mut client = VizClient::new();
        client.ingest_all(&frames);
        assert!(
            client.flicker_amplitude() > 0.005,
            "flicker amplitude {:.4} too small — filter not visible",
            client.flicker_amplitude()
        );
        let report = client.report();
        assert_eq!(report.frames, 16);
        assert_eq!(report.duplicates, 0, "stalled frames detected");
        // All checksums distinct (walkthrough + randomised filters).
        let mut sums = report.checksums.clone();
        sums.sort_unstable();
        sums.dedup();
        assert_eq!(sums.len(), 16);
    }
}
