//! Property tests for the buffer pool, the hop codec's two encoders and
//! the row-chunk decomposition — the pieces of host machinery that must
//! be *invisible* to the pipeline's output. The pool may never hand out
//! an aliased live buffer, and every buffer it hands out has the geometry
//! asked for and room for a hop trailer (its pixels are the renderer's to
//! overwrite, which the render tests check); sealing a frame's own buffer
//! writes the bytes copying it would; `chunk_rows` must tile any strip
//! exactly.

use proptest::prelude::*;
use scc_core::pool::BufferPool;
use scc_core::runner::native::{decode_frame_checked, encode_frame, encode_frame_owned};
use scc_core::Frame;
use scc_filters::{chunk_rows, Image, StripInfo, BYTES_PER_PIXEL};
use std::collections::HashSet;

/// What the hop codec appends to a strip's pixels.
const FRAME_TRAILER: usize = 36;

fn arb_geometry() -> impl Strategy<Value = (u32, u32)> {
    (1u32..20, 1u32..20)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Live buffers never alias: however acquires and releases interleave,
    /// every image currently held owns a distinct allocation.
    #[test]
    fn live_buffers_never_alias(
        geoms in prop::collection::vec(arb_geometry(), 2..10),
        release_every in 2usize..5,
        max_free in 1usize..8,
    ) {
        let pool = BufferPool::new(max_free);
        let mut live: Vec<Image> = Vec::new();
        for (i, &(w, h)) in geoms.iter().enumerate() {
            live.push(pool.acquire_stale(w, h));
            if i % release_every == release_every - 1 {
                let img = live.remove(0);
                pool.release(img);
            }
            let ptrs: HashSet<*const u8> =
                live.iter().map(|img| img.as_bytes().as_ptr()).collect();
            prop_assert_eq!(
                ptrs.len(),
                live.len(),
                "two live images share an allocation"
            );
        }
    }

    /// `acquire_stale` promises geometry only — and, like every acquire,
    /// a buffer nobody else holds with room for a hop trailer, whether it
    /// is fresh or was released at another size.
    #[test]
    fn stale_buffers_never_alias_and_have_room_for_a_trailer(
        geoms in prop::collection::vec(arb_geometry(), 2..10),
        release_every in 2usize..5,
        max_free in 0usize..8,
    ) {
        for pool in [BufferPool::new(max_free), BufferPool::disabled()] {
            let mut live: Vec<Image> = Vec::new();
            for (i, &(w, h)) in geoms.iter().enumerate() {
                let img = pool.acquire_stale(w, h);
                prop_assert_eq!((img.width(), img.height()), (w, h));
                let raw = img.into_raw();
                prop_assert_eq!(raw.len(), w as usize * h as usize * BYTES_PER_PIXEL);
                prop_assert!(raw.capacity() >= raw.len() + FRAME_TRAILER, "no room for a trailer");
                live.push(Image::from_raw(w, h, raw));
                if i % release_every == release_every - 1 {
                    let mut img = live.remove(0);
                    img.fill([0xAB; 4]);
                    pool.release(img);
                }
                let ptrs: HashSet<*const u8> =
                    live.iter().map(|img| img.as_bytes().as_ptr()).collect();
                prop_assert_eq!(ptrs.len(), live.len(), "two live images share an allocation");
            }
        }
    }

    /// The consuming encoder seals the frame's own buffer, the borrowing
    /// one a copy: the same bytes on the wire, `pixels + 36` of them, and
    /// either decodes back to the frame.
    #[test]
    fn owned_and_borrowed_encoders_write_the_same_bytes(
        width in 1u32..=67,
        height in 1u32..=9,
        id in any::<u64>(),
        y0 in 0u32..1000,
        seed in any::<u8>(),
    ) {
        let len = width as usize * height as usize * BYTES_PER_PIXEL;
        let pixels: Vec<u8> = (0..len)
            .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
            .collect();
        let frame = Frame {
            id,
            strip: StripInfo { index: 1, count: 3, y0, height, full_height: y0 + 2 * height },
            full_width: width,
            image: Some(Image::from_raw(width, height, pixels)),
        };
        let borrowed = encode_frame(&frame);
        let owned = encode_frame_owned(frame.clone());
        prop_assert_eq!(borrowed.len(), len + FRAME_TRAILER);
        prop_assert_eq!(&borrowed, &owned);
        let back = decode_frame_checked(owned, 0).expect("clean decode");
        prop_assert_eq!((back.id, back.strip, back.full_width), (frame.id, frame.strip, frame.full_width));
        prop_assert_eq!(back.image, frame.image);
    }

    /// Stats accounting holds for any interleaving: every acquire is
    /// recycled or fresh, every release is returned or dropped, and the
    /// free list never exceeds its bound.
    #[test]
    fn pool_accounting_is_conservative(
        geoms in prop::collection::vec(arb_geometry(), 1..16),
        max_free in 0usize..6,
    ) {
        let pool = BufferPool::new(max_free);
        let mut acquires = 0u64;
        let mut releases = 0u64;
        for &(w, h) in &geoms {
            let a = pool.acquire_stale(w, h);
            let b = pool.acquire_stale(w, h);
            acquires += 2;
            pool.release(a);
            releases += 1;
            prop_assert!(pool.free_len() <= max_free, "free list over bound");
            pool.release(b);
            releases += 1;
            prop_assert!(pool.free_len() <= max_free, "free list over bound");
        }
        let s = pool.stats();
        prop_assert_eq!(s.recycled + s.fresh, acquires);
        prop_assert_eq!(s.returned + s.dropped, releases);
        prop_assert_eq!(s.returned as usize - pool.free_len(), s.recycled as usize,
            "returned buffers either sit free or were recycled");
    }

    /// A disabled pool is transparent for any usage pattern.
    #[test]
    fn disabled_pool_is_always_transparent(
        geoms in prop::collection::vec(arb_geometry(), 1..8),
    ) {
        let pool = BufferPool::disabled();
        for &(w, h) in &geoms {
            let img = pool.acquire_stale(w, h);
            prop_assert_eq!((img.width(), img.height()), (w, h));
            prop_assert_eq!(img.as_bytes().len(), w as usize * h as usize * BYTES_PER_PIXEL);
            pool.release(img);
            prop_assert_eq!(pool.free_len(), 0);
        }
        prop_assert_eq!(pool.stats(), scc_core::PoolStats::default());
    }

    /// `chunk_rows` tiles `0..rows` exactly for any (rows, workers):
    /// contiguous, non-empty, near-equal chunks, never more than
    /// `workers` of them.
    #[test]
    fn chunk_rows_tiles_any_strip(rows in 0u32..500, workers in 0usize..24) {
        let chunks = chunk_rows(rows, workers);
        if rows == 0 {
            prop_assert!(chunks.is_empty());
        } else {
            prop_assert_eq!(
                chunks.len() as u32,
                (workers.max(1) as u32).min(rows),
                "chunk count"
            );
            let mut y = 0u32;
            let mut min_h = u32::MAX;
            let mut max_h = 0u32;
            for &(y0, h) in &chunks {
                prop_assert_eq!(y0, y, "chunks out of order or overlapping");
                prop_assert!(h > 0, "empty chunk");
                min_h = min_h.min(h);
                max_h = max_h.max(h);
                y += h;
            }
            prop_assert_eq!(y, rows, "chunks do not cover the strip");
            prop_assert!(max_h - min_h <= 1, "chunks not near-equal");
        }
    }
}
