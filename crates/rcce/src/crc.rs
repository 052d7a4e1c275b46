//! CRC-32 (IEEE 802.3) payload checksums.
//!
//! The real RCCE moves payloads through MPB windows and DRAM partitions
//! with no end-to-end integrity check; the fault-tolerant protocol in
//! [`crate::comm`] adds one so injected corruption (see
//! `scc_sim::fault`) is detected rather than silently propagated into
//! frames. Table-driven, reflected polynomial `0xEDB88320`, byte-at-a-time
//! — plenty for kilobyte strips at native-runner rates.

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// CRC-32/ISO-HDLC of `data` (the common "crc32" with init and final
/// XOR of `0xFFFFFFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        let idx = ((crc ^ byte as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// size (400x200 RGBA + 32-byte header).
    #[test]
    fn pinned_values() {
        let data = pattern(0x5CC_C2C, 320_032);
        let got: Vec<(usize, u32)> = [0, 1, 15, 16, 17, 31, 32, 33, 255, 4096, 320_032]
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
        ];
        assert_eq!(got, want);
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
