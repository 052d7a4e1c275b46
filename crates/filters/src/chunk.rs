//! Row-chunk decomposition for data-parallel filter kernels.
//!
//! A pipeline stage owns one strip at a time; when spare cores exist the
//! heavy per-pixel kernels can split the strip into disjoint horizontal
//! row chunks and process them on a scoped worker pool, while the stage
//! keeps its place in the macro pipeline. Two rules keep the parallel
//! path bit-identical to the sequential one (DESIGN.md §10):
//!
//! 1. a chunked kernel must be a pure per-row function of (pixel data,
//!    absolute row position, strip geometry, frame randomness) — no
//!    accumulation across rows;
//! 2. all randomness must be keyed by `(run_seed, frame_id)` and drawn
//!    *before* the fan-out — never dependent on the order in which rows
//!    happen to be processed (`frame_rng` already provides this).
//!
//! Filters whose access pattern cannot be row-partitioned (none of the
//! standard chain) simply keep the sequential default. Scratch *could*
//! be chunked but touches so few pixels that the fan-out overhead would
//! dominate; it stays sequential by choice.

use crate::image::{Image, BYTES_PER_PIXEL};
use std::thread;

/// Split `rows` rows into at most `workers` contiguous chunks of
/// near-equal height (earlier chunks take the remainder rows). The
/// returned `(first_row, row_count)` pairs tile `0..rows` exactly; fewer
/// chunks come back when there are fewer rows than workers.
pub fn chunk_rows(rows: u32, workers: usize) -> Vec<(u32, u32)> {
    // Clamp before narrowing: a worker count past `u32::MAX` must not
    // wrap to zero chunks.
    let n = workers.clamp(1, rows.max(1) as usize) as u32;
    if rows == 0 {
        return Vec::new();
    }
    let base = rows / n;
    let extra = rows % n;
    let mut out = Vec::with_capacity(n as usize);
    let mut y = 0;
    for i in 0..n {
        let h = base + u32::from(i < extra);
        out.push((y, h));
        y += h;
    }
    debug_assert_eq!(y, rows);
    out
}

/// Run `kernel(first_row, rows_bytes)` over disjoint row chunks of
/// `img`, using up to `workers` OS threads. `workers <= 1` (or a
/// single-chunk decomposition) runs inline on the caller's thread. The
/// chunk boundaries are a pure function of the geometry, so any kernel
/// obeying the module rules produces bit-identical pixels at every
/// worker count.
pub fn par_row_chunks<F>(img: &mut Image, workers: usize, kernel: F)
where
    F: Fn(u32, &mut [u8]) + Sync,
{
    let row_bytes = img.width() as usize * BYTES_PER_PIXEL;
    let chunks = chunk_rows(img.height(), workers);
    let mut slices: Vec<(u32, &mut [u8])> = Vec::with_capacity(chunks.len());
    let mut rest = img.as_bytes_mut();
    for &(y0, h) in &chunks {
        let (head, tail) = rest.split_at_mut(h as usize * row_bytes);
        slices.push((y0, head));
        rest = tail;
    }
    if slices.len() <= 1 || workers <= 1 {
        for (y0, rows) in slices {
            kernel(y0, rows);
        }
    } else {
        thread::scope(|s| {
            let kernel = &kernel;
            let mut iter = slices.into_iter();
            // Run the first chunk on the caller's thread; it doubles as
            // one of the workers instead of idling in join.
            let (y0, rows) = iter.next().expect("at least one chunk");
            for (cy0, crows) in iter {
                s.spawn(move || kernel(cy0, crows));
            }
            kernel(y0, rows);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_tile_rows_exactly() {
        for rows in [1u32, 2, 7, 64, 481] {
            for workers in [1usize, 2, 3, 4, 9, 100, 1 << 32, (1 << 32) + 1] {
                let chunks = chunk_rows(rows, workers);
                assert!(chunks.len() <= workers.max(1));
                assert!(chunks.len() as u32 <= rows);
                let mut y = 0;
                for (y0, h) in &chunks {
                    assert_eq!(*y0, y, "rows={rows} workers={workers}");
                    assert!(*h > 0);
                    y += h;
                }
                assert_eq!(y, rows);
                let min = chunks.iter().map(|(_, h)| *h).min().unwrap();
                let max = chunks.iter().map(|(_, h)| *h).max().unwrap();
                assert!(max - min <= 1, "uneven chunks for {rows}/{workers}");
            }
        }
    }

    #[test]
    fn zero_rows_yield_no_chunks() {
        assert!(chunk_rows(0, 4).is_empty());
    }

    #[test]
    fn parallel_kernel_sees_every_row_once() {
        let mut img = Image::new(5, 23);
        for workers in [1usize, 2, 4, 16] {
            img.fill([0, 0, 0, 255]);
            par_row_chunks(&mut img, workers, |y0, rows| {
                for (dy, row) in rows.chunks_exact_mut(5 * BYTES_PER_PIXEL).enumerate() {
                    let y = y0 + dy as u32;
                    for px in row.chunks_exact_mut(BYTES_PER_PIXEL) {
                        px[0] = px[0].wrapping_add(1); // counts visits
                        px[1] = y as u8; // records absolute row
                    }
                }
            });
            for y in 0..23 {
                for x in 0..5 {
                    let p = img.get(x, y);
                    assert_eq!(p[0], 1, "row {y} visited {} times", p[0]);
                    assert_eq!(p[1], y as u8, "row {y} saw wrong offset");
                }
            }
        }
    }

    #[test]
    fn worker_counts_agree_bit_exactly() {
        // A kernel obeying the purity rules must give the same pixels for
        // any worker count.
        let run = |workers: usize| {
            let mut img = Image::new(7, 31);
            par_row_chunks(&mut img, workers, |y0, rows| {
                for (dy, row) in rows.chunks_exact_mut(7 * BYTES_PER_PIXEL).enumerate() {
                    let y = y0 + dy as u32;
                    for (x, px) in row.chunks_exact_mut(BYTES_PER_PIXEL).enumerate() {
                        px[0] = (x as u32 * 31 + y * 7) as u8;
                        px[2] = (x as u32 ^ y) as u8;
                    }
                }
            });
            img
        };
        let seq = run(1);
        for workers in [2usize, 3, 8] {
            assert_eq!(run(workers), seq, "workers={workers} diverged");
        }
    }
}
