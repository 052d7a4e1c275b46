//! Recycled frame/strip buffer pool.
//!
//! A strip of the native film lives in one buffer from the source thread
//! that fills it to the transfer stage that assembles it: every hop seals
//! and decodes that same allocation. The pool closes the loop — transfer
//! releases a frame's strips, the source's next acquire finds them — on a
//! bounded free list independent of geometry (a `Vec` is re-sized to what
//! the next acquire needs). A timing-only run allocates no image at all.
//!
//! Invariants (property-tested in `tests/pool_props.rs`):
//!
//! * **No aliasing** — an acquired [`Image`] owns its buffer exclusively;
//!   the pool never hands the same live allocation to two callers.
//! * **Geometry, not contents** — [`BufferPool::acquire_stale`] promises
//!   the geometry only, and its caller, a source thread rendering into
//!   it, overwrites every pixel itself. Pooled and unpooled runs therefore
//!   produce identical output.
//! * **Room for a trailer** — every buffer handed out has the hop codec's
//!   36 bytes of spare capacity, so sealing it never reallocates.
//! * **Bounded** — at most `max_free` buffers are retained; extra
//!   releases simply drop their allocation.

use crate::runner::native::FRAME_TRAILER;
use scc_filters::{Image, BYTES_PER_PIXEL};
use std::sync::{Arc, Mutex};

/// Every critical section is a push, a pop or a stats copy, none of
/// which can panic, so the pool's lock is never poisoned.
const POISONED: &str = "no buffer pool critical section panics";

/// Counters describing how much reuse a pool achieved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires served from the free list.
    pub recycled: u64,
    /// Acquires that had to allocate.
    pub fresh: u64,
    /// Buffers returned to the free list.
    pub returned: u64,
    /// Buffers dropped because the free list was full (or the pool
    /// disabled).
    pub dropped: u64,
}

struct Inner {
    free: Vec<Vec<u8>>,
    max_free: usize,
    stats: PoolStats,
}

/// A shared, thread-safe pool of recycled image allocations. Cloning is
/// cheap and shares the free list; a disabled pool (the `buffer_pool:
/// false` knob) allocates fresh on every acquire and drops every release,
/// so both modes run the exact same calling code.
#[derive(Clone)]
pub struct BufferPool {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl BufferPool {
    /// Default free-list bound: comfortably covers every in-flight buffer
    /// of a 9-pipeline run (p strips × window 2 per hop) without letting
    /// an unbalanced producer hoard memory.
    pub const DEFAULT_MAX_FREE: usize = 64;

    /// A pool retaining at most `max_free` released buffers.
    pub fn new(max_free: usize) -> BufferPool {
        BufferPool {
            inner: Some(Arc::new(Mutex::new(Inner {
                free: Vec::new(),
                max_free,
                stats: PoolStats::default(),
            }))),
        }
    }

    /// A pass-through pool: every acquire allocates, every release drops.
    pub fn disabled() -> BufferPool {
        BufferPool { inner: None }
    }

    /// Build from the spec knob.
    pub fn from_enabled(enabled: bool) -> BufferPool {
        if enabled {
            BufferPool::new(Self::DEFAULT_MAX_FREE)
        } else {
            BufferPool::disabled()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A buffer with room for `len` bytes and a hop trailer; a recycled
    /// one keeps the length and contents its last holder left.
    fn take_buffer(&self, len: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        if let Some(inner) = &self.inner {
            let mut inner = inner.lock().expect(POISONED);
            match inner.free.pop() {
                Some(recycled) => {
                    inner.stats.recycled += 1;
                    buf = recycled;
                }
                None => inner.stats.fresh += 1,
            }
        }
        buf.reserve_exact((len + FRAME_TRAILER).saturating_sub(buf.len()));
        buf
    }

    /// An image of this geometry for a caller that overwrites every pixel:
    /// the contents are unspecified (a recycled buffer keeps its old ones).
    pub fn acquire_stale(&self, width: u32, height: u32) -> Image {
        let len = width as usize * height as usize * BYTES_PER_PIXEL;
        let mut data = self.take_buffer(len);
        data.resize(len, 0);
        Image::from_raw(width, height, data)
    }

    /// Return an image's allocation to the free list (dropped if the list
    /// is full or the pool disabled).
    pub fn release(&self, img: Image) {
        let buf = img.into_raw();
        if let Some(inner) = &self.inner {
            let mut inner = inner.lock().expect(POISONED);
            if inner.free.len() < inner.max_free {
                inner.stats.returned += 1;
                inner.free.push(buf);
                return;
            }
            inner.stats.dropped += 1;
        }
    }

    /// Snapshot of the reuse counters (all zero for a disabled pool).
    pub fn stats(&self) -> PoolStats {
        match &self.inner {
            Some(inner) => inner.lock().expect(POISONED).stats,
            None => PoolStats::default(),
        }
    }

    /// Buffers currently sitting on the free list.
    pub fn free_len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().expect(POISONED).free.len(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycling_works_across_geometries() {
        let pool = BufferPool::new(8);
        let mut big = pool.acquire_stale(16, 16);
        big.fill([200, 100, 50, 25]);
        let home = big.as_bytes().as_ptr();
        pool.release(big);
        let small = pool.acquire_stale(2, 3);
        assert_eq!((small.width(), small.height()), (2, 3));
        assert_eq!(small.as_bytes().len(), 2 * 3 * BYTES_PER_PIXEL);
        assert_eq!(
            small.as_bytes().as_ptr(),
            home,
            "shrinking keeps the allocation"
        );
        assert_eq!(pool.stats().recycled, 1);
        pool.release(small);
        let large = pool.acquire_stale(20, 20);
        assert_eq!(large.as_bytes().len(), 20 * 20 * BYTES_PER_PIXEL);
        assert_eq!(pool.stats().recycled, 2);
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufferPool::new(2);
        for _ in 0..5 {
            pool.release(Image::new(4, 4));
        }
        assert_eq!(pool.free_len(), 2);
        let s = pool.stats();
        assert_eq!(s.returned, 2);
        assert_eq!(s.dropped, 3);
    }

    #[test]
    fn disabled_pool_is_transparent() {
        let pool = BufferPool::disabled();
        assert!(!pool.is_enabled());
        let img = pool.acquire_stale(3, 3);
        assert_eq!(img.as_bytes().len(), 3 * 3 * BYTES_PER_PIXEL);
        pool.release(img);
        assert_eq!(pool.free_len(), 0);
        assert_eq!(pool.stats(), PoolStats::default());
        assert!(BufferPool::from_enabled(true).is_enabled());
        assert!(!BufferPool::from_enabled(false).is_enabled());
    }

    #[test]
    fn clones_share_the_free_list() {
        let a = BufferPool::new(8);
        let b = a.clone();
        b.release(Image::new(4, 4));
        assert_eq!(a.free_len(), 1);
        let _ = a.acquire_stale(4, 4);
        assert_eq!(b.stats().recycled, 1);
    }
}
