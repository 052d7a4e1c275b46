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

use std::ops::Bound::{Excluded, Included};
use std::ops::RangeBounds;

/// SplitMix64's increment, the 64-bit golden ratio.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 step — a tiny, well-distributed 64-bit mixer.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 stream: each draw is [`splitmix64`] of the state, then
/// the state steps by the increment. The one seeded generator of the
/// workspace (per-frame filter randomness, the city layout, the fuzzer,
/// the task runtime's victim picks).
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// The stream starting at `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let x = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        x
    }

    /// A fair coin: the top bit of the next draw.
    pub fn coin(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// A uniform draw from `lo..hi` or `lo..=hi`: an integer is `lo` plus
    /// the next draw modulo the span, a float `lo` plus the span times a
    /// 24-bit (`f32`) or 53-bit (`f64`) unit fraction. One element type
    /// `T` for both shapes, so a literal range's type unifies with the
    /// drawn value's before literal fallback (`gen_range(90..200) as u8`
    /// draws an `i32`). Panics on an empty, NaN or unbounded range.
    pub fn gen_range<T: Uniform>(&mut self, range: impl RangeBounds<T>) -> T {
        let (lo, hi, inclusive) = match (range.start_bound(), range.end_bound()) {
            (Included(&lo), Excluded(&hi)) if lo < hi => (lo, hi, false),
            (Included(&lo), Included(&hi)) if lo <= hi => (lo, hi, true),
            _ => panic!("cannot sample empty or unbounded range"),
        };
        T::from_draw(lo, hi, inclusive, self.next_u64())
    }
}

/// A type [`SplitMix::gen_range`] draws.
pub trait Uniform: Copy + PartialOrd {
    /// The value in the non-empty range `lo..hi` (or `lo..=hi`) that the
    /// 64-bit draw `x` selects.
    fn from_draw(lo: Self, hi: Self, inclusive: bool, x: u64) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn from_draw(lo: $t, hi: $t, inclusive: bool, x: u64) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + inclusive as u128;
                (lo as i128 + (x as u128 % span) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u32, u64, usize, i32);

macro_rules! uniform_float {
    ($($t:ty => $bits:expr),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn from_draw(lo: $t, hi: $t, inclusive: bool, x: u64) -> $t {
                // An inclusive range divides by 2^bits - 1, so a draw of
                // all ones reaches `hi`; a half-open draw that rounds onto
                // `hi` is `lo`.
                let unit = (x >> (64 - $bits)) as $t / ((1u64 << $bits) - inclusive as u64) as $t;
                let v = lo + (hi - lo) * unit;
                if inclusive || v < hi {
                    v.clamp(lo, hi)
                } else {
                    lo
                }
            }
        }
    )*};
}
uniform_float!(f32 => 24, f64 => 53);

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
pub fn frame_rng(run_seed: u64, frame_id: u64) -> SplitMix {
    SplitMix::new(splitmix64(run_seed ^ splitmix64(frame_id)))
}

/// A uniform draw from the closed interval between `a` and `b`, taken in
/// either order, with a NaN bound read as 0. The bounds come from public
/// filter parameters, and `gen_range` panics on an empty or NaN range;
/// whenever `a <= b` this is exactly `rng.gen_range(a..=b)`.
pub(crate) fn draw_between(rng: &mut SplitMix, a: f32, b: f32) -> f32 {
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
        let draws = |mut rng: SplitMix| [(); 8].map(|_| rng.next_u64());
        let a = draws(frame_rng(42, 7));
        assert_eq!(a, draws(frame_rng(42, 7)));
        assert!(a.iter().any(|&x| x != a[0]), "the stream should vary");
    }

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (SplitMix::new(7), SplitMix::new(7));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn each_draw_is_splitmix64_of_the_state() {
        let mut rng = SplitMix::new(99);
        assert_eq!(rng.next_u64(), splitmix64(99));
        assert_eq!(rng.next_u64(), splitmix64(99u64.wrapping_add(GAMMA)));
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = SplitMix::new(1);
        for _ in 0..1000 {
            assert!((3..17).contains(&rng.gen_range(3u32..17)));
            assert!((-1.0..=1.0).contains(&rng.gen_range(-1.0f32..=1.0)));
            assert!((-40.0..-2.0).contains(&rng.gen_range(-40f32..-2.0)));
            let _: u8 = rng.gen_range(0u8..=255);
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample empty")]
    fn an_empty_range_panics() {
        SplitMix::new(1).gen_range(5u32..5);
    }

    #[test]
    #[should_panic(expected = "cannot sample empty")]
    fn a_nan_range_panics() {
        SplitMix::new(1).gen_range(0.0f32..=f32::NAN);
    }

    #[test]
    fn different_frames_different_streams() {
        let a = frame_rng(42, 1).next_u64();
        let b = frame_rng(42, 2).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_different_streams() {
        let a = frame_rng(1, 0).next_u64();
        let b = frame_rng(2, 0).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn draws_are_pinned() {
        // Every (type, range shape) the workspace draws, 64 seeds x 64
        // rounds, folded into one FNV-1a. Recorded before the stream's
        // implementation changed; it never moves.
        let mut h = FNV_OFFSET;
        for seed in 0..64u64 {
            let mut rng = frame_rng(seed, seed.wrapping_mul(0x51) ^ 3);
            for _ in 0..64 {
                let mut b = vec![rng.gen_range(0u8..=255), rng.gen_range(180u8..=255)];
                b.push(rng.gen_range(12u8..24));
                b.push(rng.gen_range(90..200) as u8);
                b.extend(rng.gen_range(3u32..17).to_le_bytes());
                b.extend(rng.gen_range(0u32..400).to_le_bytes());
                b.extend(rng.gen_range(0u32..=8).to_le_bytes());
                b.extend(rng.gen_range(1u32..=4).to_le_bytes());
                b.extend(rng.gen_range(2u64..=5).to_le_bytes());
                b.extend(rng.gen_range(0u64..=u64::MAX).to_le_bytes());
                b.extend(rng.gen_range(0usize..3).to_le_bytes());
                b.extend(rng.gen_range(90i32..200).to_le_bytes());
                b.extend(rng.gen_range(-50i32..-3).to_le_bytes());
                b.extend(rng.gen_range(0.0f32..400.0).to_bits().to_le_bytes());
                b.extend(rng.gen_range(-40.0f32..-2.0).to_bits().to_le_bytes());
                b.extend(rng.gen_range(-1.0f32..=1.0).to_bits().to_le_bytes());
                b.extend(rng.gen_range(0.5f32..=0.5).to_bits().to_le_bytes());
                b.extend((rng.gen_range(0.25..0.45) * 3.0f32).to_bits().to_le_bytes());
                b.extend(draw_between(&mut rng, 0.35, -0.35).to_bits().to_le_bytes());
                b.extend(rng.gen_range(0.25f64..0.45).to_bits().to_le_bytes());
                b.extend(rng.gen_range(0.0f64..1.0).to_bits().to_le_bytes());
                b.extend(rng.next_u64().to_le_bytes());
                b.push(rng.coin() as u8);
                h = fnv1a_fold(h, &b);
            }
        }
        assert_eq!(h, 0xdb6d_de1a_877e_66a0);
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
