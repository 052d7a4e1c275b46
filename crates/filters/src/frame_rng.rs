//! Deterministic per-frame randomness.
//!
//! The scratch and flicker stages draw random numbers (§IV). For the
//! parallel decomposition to be *consistent* — a scratch must stay one
//! continuous vertical line across all strips, and every strip of a frame
//! must flicker by the same amount — all pipelines must see the same
//! random values for the same frame. We derive one RNG per `(seed, frame)`
//! pair with SplitMix64, so any stage on any core can regenerate the
//! frame's randomness without communication, and whole runs are exactly
//! reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 step — a tiny, well-distributed 64-bit mixer.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The FNV-1a 64 offset basis, the state of an empty hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64 prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a 64 over `bytes`: the one content hash of the workspace (frame
/// checksums, cache keys, golden digests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Continue the FNV-1a state `h` over `bytes`.
pub fn fnv1a_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Continue `N` FNV-1a states, lane `k`'s state over `lanes[k]`: exactly
/// `N` calls of [`fnv1a_fold`], in one loop. One FNV-1a is a serial chain
/// of multiplies; interleaving `N` independent chains lets the core
/// overlap them. Panics unless every lane has the same length.
pub fn fnv1a_fold_lanes<const N: usize>(h: [u64; N], lanes: [&[u8]; N]) -> [u64; N] {
    let len = lanes.first().map_or(0, |l| l.len());
    assert!(
        lanes.iter().all(|l| l.len() == len),
        "fnv1a lanes of unequal length"
    );
    // Cut to `len` so the byte reads need no bounds check.
    let lanes = lanes.map(|l| &l[..len]);
    (0..len).fold(h, |h, i| {
        std::array::from_fn(|k| (h[k] ^ lanes[k][i] as u64).wrapping_mul(FNV_PRIME))
    })
}

/// A reproducible RNG for one frame of one run.
pub fn frame_rng(run_seed: u64, frame_id: u64) -> StdRng {
    let mixed = splitmix64(run_seed ^ splitmix64(frame_id));
    StdRng::seed_from_u64(mixed)
}

/// A uniform draw from the closed interval between `a` and `b`, taken in
/// either order, with a NaN bound read as 0. The bounds come from public
/// filter parameters, and `gen_range` panics on an empty or NaN range;
/// whenever `a <= b` this is exactly `rng.gen_range(a..=b)`.
pub(crate) fn draw_between(rng: &mut impl Rng, a: f32, b: f32) -> f32 {
    let [a, b] = [a, b].map(|v| if v.is_nan() { 0.0 } else { v });
    if a <= b {
        rng.gen_range(a..=b)
    } else {
        rng.gen_range(b..=a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_stream() {
        let a: Vec<u32> = frame_rng(42, 7)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = frame_rng(42, 7)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_frames_different_streams() {
        let a: u64 = frame_rng(42, 1).gen();
        let b: u64 = frame_rng(42, 2).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_different_streams() {
        let a: u64 = frame_rng(1, 0).gen();
        let b: u64 = frame_rng(2, 0).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn one_lane_gives_the_known_answers() {
        // The FNV-1a 64 test vectors.
        for (input, want) in [
            ("", 0xcbf2_9ce4_8422_2325),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            assert_eq!(fnv1a(input.as_bytes()), want, "{input:?}");
            assert_eq!(fnv1a_fold_lanes([FNV_OFFSET], [input.as_bytes()]), [want]);
        }
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn lanes_of_unequal_length_panic() {
        fnv1a_fold_lanes([FNV_OFFSET; 2], [b"ab".as_slice(), b"abc"]);
    }

    #[test]
    fn splitmix_is_not_identity_and_spreads_lsbs() {
        // Consecutive inputs should produce wildly different outputs.
        let x = splitmix64(0);
        let y = splitmix64(1);
        assert_ne!(x, y);
        assert!((x ^ y).count_ones() > 10);
    }
}
