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
//! # Slicing-by-16
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
//! one-table loop finishes the <16-byte tail.
//!
//! It is the same polynomial division (reflected `0xEDB88320`, init and
//! final XOR `0xFFFFFFFF`, i.e. CRC-32/ISO-HDLC) regrouped, so every value
//! is bit-for-bit what the byte-at-a-time kernel returned and no wire
//! format changes; the tests keep that kernel as the oracle. Words are
//! assembled with `u32::from_le_bytes`, so the result depends on neither
//! buffer alignment nor host endianness. The tables are `const`-built
//! (16 KiB, L1-resident).
//!
//! Measured on the 2-CPU benchmark container over one 400x200 strip's
//! wire bytes (`rcce.crc32.mb_per_s`, `benchmark/`): 397-415 MB/s
//! byte-at-a-time, 2063-2204 MB/s sliced.

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

/// CRC-32/ISO-HDLC of `data` (the common "crc32" with init and final
/// XOR of `0xFFFFFFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let word = |block: &[u8], at: usize| {
        u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
    };
    let mut crc = 0xFFFF_FFFFu32;
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
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The kernel this module shipped before slicing: one table, one byte
    /// per step. Kept as the oracle the sliced kernel is checked against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
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
    /// 16-byte blocks (seventeen 64-byte ones).
    #[test]
    fn sliced_matches_bytewise_at_every_offset_and_length() {
        let data = pattern(0xC0DE_C0DE, 16 + 1100);
        for offset in 0..16 {
            for len in 0..=1100 {
                let window = &data[offset..offset + len];
                assert_eq!(
                    crc32(window),
                    crc32_bytewise(window),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    proptest! {
        /// The value is a function of the bytes alone: the same bytes read
        /// in place at an arbitrary start address and from a fresh
        /// allocation agree with each other and with the oracle.
        #[test]
        fn value_does_not_depend_on_buffer_alignment(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
            split in any::<usize>(),
        ) {
            let split = split % (bytes.len() + 1);
            let in_place = &bytes[split..];
            let moved = in_place.to_vec();
            prop_assert_eq!(crc32(in_place), crc32(&moved));
            prop_assert_eq!(crc32(in_place), crc32_bytewise(in_place));
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
