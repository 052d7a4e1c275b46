//! The cache model for the P54C cores.
//!
//! [`StreamModel`] is an analytic model for the streaming access patterns
//! of the filter stages (touch every byte once or twice per frame). For
//! reuse distances beyond the cache size every line misses, independent
//! of the data-set size — exactly why the paper observes *no* jump when
//! tiles exceed the 256 KiB L2 (§VI-A, Figure 12). The platform books
//! every stage's memory traffic through it.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheGeometry {
    /// The per-core 256 KiB L2 (32-byte lines, 4-way).
    pub const fn scc_l2() -> Self {
        CacheGeometry {
            capacity: 256 * 1024,
            line: 32,
            ways: 4,
        }
    }
}

/// Analytic miss model for streaming stage workloads.
#[derive(Debug, Clone, Copy)]
pub struct StreamModel {
    pub geo: CacheGeometry,
}

impl StreamModel {
    pub fn new(geo: CacheGeometry) -> Self {
        StreamModel { geo }
    }

    /// Bytes that must be fetched from memory when streaming over a
    /// `working_set`-byte buffer that was last touched a full frame ago.
    ///
    /// If the buffer fits in the cache it stays resident between frames and
    /// only compulsory (first-frame) misses occur — amortised to zero here.
    /// Otherwise every line is a miss: the whole buffer moves over the NoC,
    /// regardless of how much bigger than the cache it is. This is the flat
    /// "no jump" behaviour of Figure 12.
    pub fn bytes_from_memory(&self, working_set: u64) -> u64 {
        if working_set <= self.geo.capacity {
            0
        } else {
            // Round up to whole lines.
            working_set.div_ceil(self.geo.line) * self.geo.line
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scc_geometries() {
        let l2 = CacheGeometry::scc_l2();
        assert_eq!((l2.capacity, l2.line, l2.ways), (256 * 1024, 32, 4));
    }

    #[test]
    fn stream_model_flat_beyond_capacity() {
        let m = StreamModel::new(CacheGeometry::scc_l2());
        assert_eq!(m.bytes_from_memory(100 * 1024), 0, "fits in 256 KiB L2");
        let just_over = 257 * 1024;
        let far_over = 4 * 1024 * 1024;
        // Per-byte cost identical once over capacity: all bytes fetched.
        assert_eq!(m.bytes_from_memory(just_over), just_over);
        assert_eq!(m.bytes_from_memory(far_over), far_over);
    }
}
