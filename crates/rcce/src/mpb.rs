//! Message Passing Buffer (MPB) model.
//!
//! Each SCC tile contributes 16 KiB of on-die SRAM (8 KiB per core) that
//! RCCE uses as its transfer window: a `send` of more than one window's
//! worth of payload is broken into chunks, each round-tripping a
//! flag-handshake with the receiver. The chunk count is the multiplier on
//! the per-message software overhead, and is the reason large frames are
//! "divided into multiple sub-images and sent one after another" (§VI-A).

/// MPB geometry and protocol constants.
#[derive(Debug, Clone, Copy)]
pub struct MpbConfig {
    /// Usable payload bytes per core's MPB window.
    pub window_bytes: u64,
    /// Bytes reserved per chunk for flags/headers.
    pub header_bytes: u64,
}

impl Default for MpbConfig {
    fn default() -> Self {
        MpbConfig {
            window_bytes: 8 * 1024,
            header_bytes: 32,
        }
    }
}

impl MpbConfig {
    /// Payload capacity of one chunk.
    pub fn payload_per_chunk(&self) -> u64 {
        self.window_bytes - self.header_bytes
    }

    /// Number of chunks needed to move `bytes` of payload.
    pub fn chunks(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1 // a zero-byte message still performs one handshake
        } else {
            bytes.div_ceil(self.payload_per_chunk())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_scc() {
        let m = MpbConfig::default();
        assert_eq!(m.window_bytes, 8192);
        assert_eq!(m.payload_per_chunk(), 8160);
    }

    #[test]
    fn chunk_counts() {
        let m = MpbConfig {
            window_bytes: 1024,
            header_bytes: 24,
        };
        assert_eq!(m.chunks(0), 1);
        assert_eq!(m.chunks(1), 1);
        assert_eq!(m.chunks(1000), 1);
        assert_eq!(m.chunks(1001), 2);
        assert_eq!(m.chunks(10_000), 10);
    }

    #[test]
    fn strip_sized_frames_need_many_chunks() {
        // A 640×512 RGBA frame strip (1/7th) is ~187 KiB -> dozens of
        // chunks through an 8 KiB window.
        let m = MpbConfig::default();
        let strip = 640 * 74 * 4;
        assert!(m.chunks(strip) >= 23);
    }
}
