//! CRC-32 (IEEE 802.3) payload checksums.
//!
//! The real RCCE moves payloads through MPB windows and DRAM partitions
//! with no end-to-end integrity check; the fault-tolerant protocol in
//! [`crate::comm`] adds one so injected corruption (see
//! `scc_sim::fault`) is detected rather than silently propagated into
//! frames. The native runner's frame codec checksums every strip twice
//! per hop (once on encode, once on decode), twelve hops per frame, over
//! 320 KB-1.9 MB strips, so this kernel's throughput is the hop codec's
//! throughput.
//!
//! One function, [`crc32`], and two kernels behind it. Both are the same
//! polynomial division (reflected `0xEDB88320`, init and final XOR
//! `0xFFFFFFFF`, i.e. CRC-32/ISO-HDLC) regrouped, so every value is
//! bit-for-bit what the byte-at-a-time loop returns and no wire format
//! depends on which one ran; the tests keep that loop as the oracle and
//! run every sweep over `crc32` and over the portable kernel directly.
//!
//! # Carry-less-multiply folding (x86-64 with `pclmulqdq`)
//!
//! A message is a polynomial over GF(2) and its CRC is the remainder
//! modulo `P`. For any split `M = A·x^n + B`, `M mod P = (A · (x^n mod
//! P) + B) mod P`: a 128-bit chunk `A` that still has `n` bits to travel
//! can be replaced by two 64x64 carry-less products with the constants
//! `x^(n+32) mod P` and `x^(n-32) mod P`, XORed into the chunk `n` bits
//! further on (Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ", Intel 2009). The kernel keeps four
//! independent 128-bit accumulators, each folding 512 bits ahead (`K1`,
//! `K2`), so one 64-byte block costs eight multiplies with no dependency
//! between the four lanes; the accumulators are then folded into one
//! 128 bits apart (`K3`, `K4`), 128 bits are reduced to 64 and 64 to 32
//! (`K5`), and a Barrett reduction (`POLY`, `MU = x^64 div P`) takes the
//! last 64 bits to the 32-bit register. That register and the < 64-byte
//! tail go to the sliced kernel below, which also serves every message
//! under 64 bytes (heartbeats, steal legs) and every other target. The
//! constants are re-derived from the polynomial by
//! `folding_constants_derive_from_the_polynomial`.
//!
//! The choice is made per call from `is_x86_feature_detected!` (std
//! caches the CPUID read), not by a feature, flag or knob. The folded
//! kernel is a safe `#[target_feature(enable = "pclmulqdq")]` function
//! that reads its input through `u64::from_le_bytes`; calling it from
//! [`crc32`], which is compiled without the feature, is the workspace's
//! one `unsafe` block, and the crate denies `unsafe_code` everywhere
//! else.
//!
//! # Slicing-by-16 (portable)
//!
//! The textbook kernel folds one input byte per step:
//! `crc = (crc >> 8) ^ T0[(crc ^ byte) & 0xFF]` — a serial chain of one
//! dependent table load per byte. CRC is linear over GF(2), so the effect
//! of a byte that still has `k` more bytes to travel through the register
//! can be tabulated ahead of time: `Tk[b]` is `T0[b]` pushed through `k`
//! further zero bytes (`Tk[b] = (Tk-1[b] >> 8) ^ T0[Tk-1[b] & 0xFF]`).
//! With sixteen such tables a 16-byte block folds in one step: XOR the
//! register into the block's first little-endian word, look each of the
//! sixteen bytes up in the table for its distance from the block's end
//! (first byte in `T15`, last in `T0`), and XOR the sixteen results. The
//! loads are independent of each other, so the CPU overlaps them; only the
//! final XOR tree sits on the block-to-block dependency chain. The
//! one-table loop finishes the <16-byte tail. Words are assembled with
//! `u32::from_le_bytes`, so the result depends on neither buffer
//! alignment nor host endianness. The tables are `const`-built (16 KiB,
//! L1-resident).
//!
//! Measured on the 2-CPU benchmark container (`rcce.crc32.mb_per_s`,
//! `benchmark/`, one strip's wire bytes): 397-415 MB/s byte-at-a-time,
//! 1 900-2 200 MB/s sliced, 21 000-23 500 MB/s folded.

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// Fold one little-endian word whose last byte sits `tail` bytes before
/// the end of its 16-byte block.
#[inline(always)]
fn fold_word(word: u32, tail: usize) -> u32 {
    TABLES[tail + 3][(word & 0xFF) as usize]
        ^ TABLES[tail + 2][((word >> 8) & 0xFF) as usize]
        ^ TABLES[tail + 1][((word >> 16) & 0xFF) as usize]
        ^ TABLES[tail][(word >> 24) as usize]
}

/// The portable kernel: push `data` through the raw register `crc` (no
/// init, no final XOR), sixteen bytes per step.
fn sliced(mut crc: u32, data: &[u8]) -> u32 {
    let word = |block: &[u8], at: usize| {
        u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
    };
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        crc = fold_word(word(block, 0) ^ crc, 12)
            ^ fold_word(word(block, 4), 8)
            ^ fold_word(word(block, 8), 4)
            ^ fold_word(word(block, 12), 0);
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(target_arch = "x86_64")]
mod folded {
    use std::arch::x86_64::*;

    /// Bytes per folding step: four 128-bit accumulators.
    pub const BLOCK: usize = 64;

    // For the reflected CRC-32 a constant is `x^n mod P` in the
    // register's bit order, shifted left once (the carry-less product of
    // two reflected operands comes out one bit low).
    /// `x^(512+32) mod P`: low half of an accumulator, one block ahead.
    pub const K1: i64 = 0x1_5444_2bd4;
    /// `x^(512-32) mod P`: high half of an accumulator, one block ahead.
    pub const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32) mod P`: low half, one accumulator ahead.
    pub const K3: i64 = 0x1_7519_97d0;
    /// `x^(128-32) mod P`: high half, one accumulator ahead.
    pub const K4: i64 = 0x0_ccaa_009e;
    /// `x^64 mod P`: the 96 -> 64 bit step.
    pub const K5: i64 = 0x1_63cd_6124;
    /// `P` itself, 33 bits, reflected.
    pub const POLY: i64 = 0x1_DB71_0641;
    /// `x^64 div P`, 33 bits, reflected: Barrett's quotient estimate.
    pub const MU: i64 = 0x1_F701_1641;

    /// Push `data`'s whole 64-byte blocks through the raw register `crc`
    /// and hand back the register with the bytes past the last whole block.
    #[target_feature(enable = "pclmulqdq")]
    pub fn fold_blocks(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        // Compiles to one unaligned 16-byte load.
        let lane = |block: &[u8], at: usize| {
            let half =
                |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("8 bytes"));
            _mm_set_epi64x(half(at + 8), half(at))
        };
        // `acc` moved ahead by the distance `k` encodes, plus what is there.
        let fold = |acc: __m128i, k: __m128i, ahead: __m128i| {
            let low = _mm_clmulepi64_si128(acc, k, 0x00);
            let high = _mm_clmulepi64_si128(acc, k, 0x11);
            _mm_xor_si128(_mm_xor_si128(low, high), ahead)
        };
        let mut blocks = data.chunks_exact(BLOCK);
        let Some(first) = blocks.next() else {
            return (crc, data);
        };
        let mut x0 = _mm_xor_si128(lane(first, 0), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = lane(first, 16);
        let mut x2 = lane(first, 32);
        let mut x3 = lane(first, 48);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            x0 = fold(x0, k1k2, lane(block, 0));
            x1 = fold(x1, k1k2, lane(block, 16));
            x2 = fold(x2, k1k2, lane(block, 32));
            x3 = fold(x3, k1k2, lane(block, 48));
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let x = fold(x0, k3k4, x1);
        let x = fold(x, k3k4, x2);
        let x = fold(x, k3k4, x3);
        // 128 -> 96 -> 64 bits.
        let low32 = _mm_set_epi32(0, !0, 0, !0);
        let x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
        let x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        );
        // Barrett: 64 -> 32 bits.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
        let crc = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t), 4)) as u32;
        (crc, blocks.remainder())
    }
}

/// CRC-32/ISO-HDLC of `data` (the common "crc32" with init and final
/// XOR of `0xFFFFFFFF`).
#[allow(unsafe_code)]
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= folded::BLOCK && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `fold_blocks` is a safe function whose only requirement
        // is a CPU that executes `pclmulqdq`, which the condition above
        // has just detected.
        let (crc, tail) = unsafe { folded::fold_blocks(0xFFFF_FFFF, data) };
        return !sliced(crc, tail);
    }
    !sliced(0xFFFF_FFFF, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The kernel this module shipped before slicing: one table, one byte
    /// per step. Kept as the oracle both kernels are checked against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// The portable kernel called directly, whatever the host detects:
    /// on a `pclmulqdq` machine [`crc32`] only sends it tails.
    fn crc32_portable(data: &[u8]) -> u32 {
        !sliced(0xFFFF_FFFF, data)
    }

    #[test]
    fn known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Seeded byte pattern (splitmix64, low byte of each draw).
    fn pattern(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// Values recorded from the one-table byte-at-a-time kernel; lengths
    /// straddle every 16-byte boundary case plus one film strip's wire
    /// size (400x200 RGBA + 32-byte header). The second group was
    /// recorded from the sliced kernel and straddles every 64-byte
    /// boundary case up to three blocks, plus 64 blocks + 63 bytes and
    /// 1 MiB + 37.
    #[test]
    fn pinned_values() {
        let data = pattern(0x5CC_C2C, (1 << 20) + 37);
        let got: Vec<(usize, u32)> = [
            0,
            1,
            15,
            16,
            17,
            31,
            32,
            33,
            255,
            4096,
            320_032,
            63,
            64,
            65,
            127,
            128,
            129,
            191,
            192,
            193,
            4159,
            (1 << 20) + 37,
        ]
        .iter()
        .map(|&n| (n, crc32(&data[..n])))
        .collect();
        for &(n, crc) in &got {
            assert_eq!(crc32_portable(&data[..n]), crc, "portable kernel, len {n}");
        }
        let want = [
            (0, 0x0000_0000),
            (1, 0x10D5_102A),
            (15, 0xB109_F1D9),
            (16, 0x93B7_9C1C),
            (17, 0x149D_81A3),
            (31, 0x9F16_39C6),
            (32, 0x9D42_0BE6),
            (33, 0xA92E_8628),
            (255, 0xD107_1A8F),
            (4096, 0xEF7E_DEAF),
            (320_032, 0x6D31_A440),
            (63, 0x0465_E51D),
            (64, 0x1E0A_FDFD),
            (65, 0x48A3_56C6),
            (127, 0xAD05_AD75),
            (128, 0x2E16_625C),
            (129, 0x8CF2_00E1),
            (191, 0x836E_A30B),
            (192, 0xC75B_AC67),
            (193, 0x2FA7_4D5B),
            (4159, 0x7AA0_17C8),
            ((1 << 20) + 37, 0x6EA7_5784),
        ];
        assert_eq!(got, want);
    }

    /// Every length 0..=1100 at every start offset 0..16 of one buffer:
    /// unaligned heads, every tail length, zero to sixty-eight whole
    /// 16-byte blocks (seventeen 64-byte ones) — through `crc32`, which
    /// folds wherever the host can, and through the portable kernel.
    #[test]
    fn sliced_matches_bytewise_at_every_offset_and_length() {
        let data = pattern(0xC0DE_C0DE, 16 + 1100);
        for offset in 0..16 {
            for len in 0..=1100 {
                let window = &data[offset..offset + len];
                let want = crc32_bytewise(window);
                assert_eq!(crc32(window), want, "offset {offset}, len {len}");
                assert_eq!(
                    crc32_portable(window),
                    want,
                    "portable kernel, offset {offset}, len {len}"
                );
            }
        }
    }

    /// K1..K5, P and mu recomputed from `0xEDB88320` one bit at a time.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_derive_from_the_polynomial() {
        use super::folded::{K1, K2, K3, K4, K5, MU, POLY};
        const REFLECTED: u32 = 0xEDB8_8320;
        // `x^n mod P` in the register's bit order (bit 31 is x^0): start
        // from 1 and multiply by x, n times.
        let x_pow_mod_p = |n: u32| {
            (0..n).fold(0x8000_0000u32, |v, _| {
                if v & 1 != 0 {
                    (v >> 1) ^ REFLECTED
                } else {
                    v >> 1
                }
            })
        };
        let k = |n: u32| i64::from(x_pow_mod_p(n)) << 1;
        assert_eq!(K1, k(4 * 128 + 32));
        assert_eq!(K2, k(4 * 128 - 32));
        assert_eq!(K3, k(128 + 32));
        assert_eq!(K4, k(128 - 32));
        assert_eq!(K5, k(64));
        assert_eq!(POLY, i64::from(REFLECTED) << 1 | 1);
        // `x^64 div P` by long division with P in the usual bit order
        // (bit n is x^n), then reflected over its 33 bits.
        let p = u128::from(REFLECTED.reverse_bits()) | 1 << 32;
        assert_eq!(p, 0x1_04C1_1DB7);
        let (mut rem, mut quotient) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if rem >> bit & 1 != 0 {
                rem ^= p << (bit - 32);
                quotient |= 1 << (bit - 32);
            }
        }
        assert_eq!(MU as u64, quotient.reverse_bits() >> 31);
    }

    proptest! {
        /// The value is a function of the bytes alone: the same bytes
        /// (up to 8 KiB, 128 folded blocks) read in place at an arbitrary
        /// start address and from a fresh allocation agree with each
        /// other and with the oracle, through both kernels.
        #[test]
        fn value_does_not_depend_on_buffer_alignment(
            bytes in prop::collection::vec(any::<u8>(), 0..=8192),
            split in any::<usize>(),
        ) {
            let split = split % (bytes.len() + 1);
            let in_place = &bytes[split..];
            let moved = in_place.to_vec();
            prop_assert_eq!(crc32(in_place), crc32(&moved));
            prop_assert_eq!(crc32(in_place), crc32_bytewise(in_place));
            prop_assert_eq!(crc32_portable(in_place), crc32_bytewise(in_place));
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = vec![0xA5u8; 4096];
        let base = crc32(&data);
        for byte in [0usize, 1, 100, 4095] {
            for bit in 0..8 {
                let mut mutated = data.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(crc32(&mutated), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
