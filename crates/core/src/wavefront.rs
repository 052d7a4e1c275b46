//! Irregular wavefront propagation — morphological reconstruction of a
//! seeded marker under a mask grid (after Gomes & Teodoro's wavefront
//! studies on hybrid many-core machines).
//!
//! The film pipeline's per-strip work is near-constant, which makes it a
//! friendly workload for a closed-loop DVFS governor: the bottleneck
//! never moves. Morphological reconstruction is the opposite: work per
//! propagation wave is the size of the active frontier, which grows from
//! a handful of seed cells, floods outward, splits around mask barriers
//! and drains away — queue-driven, data-dependent load. Each wave becomes
//! one pipeline item of the 3-stage ingest → expand → commit chain in
//! [`crate::generic`], so stage load varies item by item and the governor
//! has to find a *different* frequency split than the film's.
//!
//! Everything here is a pure function of `(WavefrontSpec, seed)`: the
//! grids come from a xorshift64 generator, propagation order is fixed,
//! and [`WavefrontTrace::digest`] fingerprints the reconstructed grid.
//! Both virtual-time backends therefore see the identical wave profile,
//! and any output drift — across backends, power plans, or code changes —
//! trips the digest gate of the `BENCH_dvfs.json` sweep and the
//! differential fuzzer.

use crate::spec::WavefrontSpec;
use scc_filters::fnv1a;

/// The wave profile and output fingerprint of one reconstruction.
#[derive(Debug, Clone)]
pub struct WavefrontTrace {
    /// Frontier size (cells updated) per propagation wave; one pipeline
    /// item per entry.
    pub waves: Vec<u64>,
    /// Total cell updates across all waves.
    pub total_updates: u64,
    /// FNV-1a fingerprint of the reconstructed marker grid — the output
    /// the drift gates compare.
    pub digest: u64,
}

impl WavefrontTrace {
    /// Largest single-wave frontier.
    pub fn peak_frontier(&self) -> u64 {
        self.waves.iter().copied().max().unwrap_or(0)
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Run the reconstruction: seed the marker, then repeatedly dilate it
/// under the mask until the frontier drains (or `max_waves` caps it).
///
/// Grayscale reconstruction by dilation: a frontier cell pushes
/// `min(marker[cell], mask[neighbor])` into each 4-neighbor and the
/// neighbor joins the next wave when its marker value grew. Values only
/// travel downhill through the mask, so ridges split the flood and
/// low-mask basins stop it — the source of the irregular frontier sizes.
pub fn propagate(spec: &WavefrontSpec, seed: u64) -> WavefrontTrace {
    let w = spec.width as usize;
    let h = spec.height as usize;
    let cells = w * h;
    // Fold the geometry into the stream so unequal grids with equal run
    // seeds cannot collide; the xor keeps an all-zero state impossible.
    let mut rng = seed
        ^ ((spec.width as u64) << 40)
        ^ ((spec.height as u64) << 20)
        ^ (spec.seeds as u64)
        ^ 0x9e37_79b9_7f4a_7c15;

    // Mask heights in 64..=255: everywhere passable, never flat.
    let mut mask = vec![0u8; cells];
    for cell in mask.iter_mut() {
        *cell = 64 + (xorshift(&mut rng) % 192) as u8;
    }

    let mut marker = vec![0u8; cells];
    let mut frontier: Vec<usize> = Vec::new();
    for _ in 0..spec.seeds {
        let idx = (xorshift(&mut rng) % cells as u64) as usize;
        if marker[idx] == 0 {
            frontier.push(idx);
        }
        marker[idx] = mask[idx];
    }
    frontier.sort_unstable();
    frontier.dedup();

    let mut waves: Vec<u64> = Vec::new();
    let mut total_updates = 0u64;
    let mut queued = vec![false; cells];
    while !frontier.is_empty() {
        if spec.max_waves != 0 && waves.len() == spec.max_waves as usize {
            break;
        }
        waves.push(frontier.len() as u64);
        total_updates += frontier.len() as u64;
        let mut next: Vec<usize> = Vec::new();
        for &c in &frontier {
            let x = c % w;
            let y = c / w;
            let v = marker[c];
            let mut push = |n: usize, next: &mut Vec<usize>| {
                let cand = v.min(mask[n]);
                if cand > marker[n] {
                    marker[n] = cand;
                    if !queued[n] {
                        queued[n] = true;
                        next.push(n);
                    }
                }
            };
            if x > 0 {
                push(c - 1, &mut next);
            }
            if x + 1 < w {
                push(c + 1, &mut next);
            }
            if y > 0 {
                push(c - w, &mut next);
            }
            if y + 1 < h {
                push(c + w, &mut next);
            }
        }
        for &n in &next {
            queued[n] = false;
        }
        frontier = next;
    }

    WavefrontTrace {
        waves,
        total_updates,
        digest: fnv1a(&marker),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(width: u32, height: u32, seeds: u32, max_waves: u32) -> WavefrontSpec {
        WavefrontSpec {
            width,
            height,
            seeds,
            max_waves,
        }
    }

    #[test]
    fn propagation_is_deterministic() {
        let a = propagate(&WavefrontSpec::default(), 7);
        let b = propagate(&WavefrontSpec::default(), 7);
        assert_eq!(a.waves, b.waves);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.total_updates, b.total_updates);
    }

    #[test]
    fn seed_moves_the_profile_and_the_digest() {
        let a = propagate(&WavefrontSpec::default(), 7);
        let b = propagate(&WavefrontSpec::default(), 8);
        assert_ne!(a.digest, b.digest, "different runs must not collide");
        assert_ne!(a.waves, b.waves);
    }

    #[test]
    fn frontier_is_irregular_not_constant() {
        let t = propagate(&WavefrontSpec::default(), 0x51CC_F11F);
        assert!(t.waves.len() >= 16, "only {} waves", t.waves.len());
        // The flood grows from a handful of seeds to a wide frontier and
        // back down — the irregularity the film workload never shows.
        assert!(t.peak_frontier() >= 8 * t.waves[0].max(1));
        let min = t.waves.iter().copied().min().unwrap();
        assert!(t.peak_frontier() >= 4 * min.max(1));
    }

    #[test]
    fn propagation_terminates_and_covers_the_grid() {
        // Unbounded waves drain: monotone cell values bound the updates.
        let t = propagate(&spec(32, 32, 2, 0), 3);
        assert!(!t.waves.is_empty());
        assert!(t.total_updates >= 32 * 32 / 2, "flood should spread");
    }

    #[test]
    fn max_waves_caps_the_item_count() {
        let full = propagate(&spec(64, 64, 2, 0), 11);
        let capped = propagate(&spec(64, 64, 2, 5), 11);
        assert_eq!(capped.waves.len(), 5);
        assert_eq!(&full.waves[..5], &capped.waves[..]);
        assert!(capped.total_updates < full.total_updates);
        assert_ne!(capped.digest, full.digest, "truncated flood differs");
    }
}
