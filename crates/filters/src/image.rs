//! RGBA image buffer and the sort-first strip decomposition.
//!
//! The renderer's framebuffer stores four bytes per pixel (§IV, render
//! stage). Parallelisation splits the image into horizontal strips that the
//! pipelines process autonomously (§II); [`Image::split_strips`] and
//! [`Image::assemble`] implement exactly that decomposition and its inverse.

/// Bytes per pixel (RGBA8, matching the paper's 4-byte framebuffer).
pub const BYTES_PER_PIXEL: usize = 4;

/// An owned RGBA8 image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

/// Location of a strip within the full frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripInfo {
    /// Index of this strip (0 = top).
    pub index: u32,
    /// Total number of strips the frame was divided into.
    pub count: u32,
    /// First row of the strip in full-image coordinates.
    pub y0: u32,
    /// Rows in this strip.
    pub height: u32,
    /// Full image height (for reassembly checks).
    pub full_height: u32,
}

impl Image {
    /// A black, fully opaque image.
    pub fn new(width: u32, height: u32) -> Image {
        assert!(width > 0 && height > 0, "degenerate image {width}x{height}");
        let mut data = vec![0u8; width as usize * height as usize * BYTES_PER_PIXEL];
        for px in data.chunks_exact_mut(BYTES_PER_PIXEL) {
            px[3] = 255;
        }
        Image {
            width,
            height,
            data,
        }
    }

    /// Build from raw RGBA bytes (length must match).
    pub fn from_raw(width: u32, height: u32, data: Vec<u8>) -> Image {
        assert_eq!(
            data.len(),
            width as usize * height as usize * BYTES_PER_PIXEL,
            "raw buffer size mismatch"
        );
        Image {
            width,
            height,
            data,
        }
    }

    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    pub fn pixel_count(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Size of the pixel payload in bytes.
    #[inline]
    pub fn byte_len(&self) -> u64 {
        self.data.len() as u64
    }

    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Consume the image and recover its raw RGBA buffer (for allocation
    /// recycling — see `scc-core`'s buffer pool).
    pub fn into_raw(self) -> Vec<u8> {
        self.data
    }

    #[inline]
    fn offset(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize * self.width as usize + x as usize) * BYTES_PER_PIXEL
    }

    /// RGBA of the pixel at (x, y).
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> [u8; 4] {
        let o = self.offset(x, y);
        [
            self.data[o],
            self.data[o + 1],
            self.data[o + 2],
            self.data[o + 3],
        ]
    }

    #[inline]
    pub fn set(&mut self, x: u32, y: u32, rgba: [u8; 4]) {
        let o = self.offset(x, y);
        self.data[o..o + 4].copy_from_slice(&rgba);
    }

    /// One row as a byte slice.
    pub fn row(&self, y: u32) -> &[u8] {
        let o = self.offset(0, y);
        &self.data[o..o + self.width as usize * BYTES_PER_PIXEL]
    }

    /// Fill the whole image with one colour.
    pub fn fill(&mut self, rgba: [u8; 4]) {
        for px in self.data.chunks_exact_mut(BYTES_PER_PIXEL) {
            px.copy_from_slice(&rgba);
        }
    }

    /// Row extents of the `count` horizontal strips of a `height`-row frame:
    /// heights differ by at most one row, top strips get the extra rows.
    pub fn strip_bounds(height: u32, count: u32) -> Vec<(u32, u32)> {
        assert!(count > 0, "zero strips");
        assert!(
            count <= height,
            "more strips ({count}) than rows ({height})"
        );
        let base = height / count;
        let extra = height % count;
        let mut bounds = Vec::with_capacity(count as usize);
        let mut y = 0;
        for i in 0..count {
            let h = base + u32::from(i < extra);
            bounds.push((y, h));
            y += h;
        }
        debug_assert_eq!(y, height);
        bounds
    }

    /// Split into `count` horizontal strips (sort-first decomposition).
    pub fn split_strips(&self, count: u32) -> Vec<(StripInfo, Image)> {
        Image::strip_bounds(self.height, count)
            .into_iter()
            .enumerate()
            .map(|(i, (y0, h))| {
                let info = StripInfo {
                    index: i as u32,
                    count,
                    y0,
                    height: h,
                    full_height: self.height,
                };
                let start = self.offset(0, y0);
                let len = h as usize * self.width as usize * BYTES_PER_PIXEL;
                let img = Image::from_raw(self.width, h, self.data[start..start + len].to_vec());
                (info, img)
            })
            .collect()
    }

    /// The strips' images in `y0` order (any order in), checked to tile
    /// one frame: each starts on the row the one above it ends on, the
    /// last ends on the last row. Reading them in turn reads the frame's
    /// bytes without assembling it.
    pub fn tiled<'a>(strips: impl IntoIterator<Item = &'a (StripInfo, Image)>) -> Vec<&'a Image> {
        let mut order: Vec<&(StripInfo, Image)> = strips.into_iter().collect();
        assert!(!order.is_empty(), "no strips to assemble");
        let (full_height, width) = (order[0].0.full_height, order[0].1.width());
        assert_eq!(order.len() as u32, order[0].0.count, "missing strips");
        order.sort_by_key(|(info, _)| info.y0);
        let mut placed = 0;
        for (info, img) in &order {
            assert_eq!(info.full_height, full_height, "inconsistent strip set");
            assert_eq!(img.width(), width, "strip width mismatch");
            assert_eq!(img.height(), info.height, "strip height mismatch");
            assert_eq!(info.y0, placed, "strips do not tile the frame");
            placed += info.height;
        }
        assert_eq!(placed, full_height, "strips do not tile the frame");
        order.into_iter().map(|(_, img)| img).collect()
    }

    /// Stack images of one width top to bottom into one.
    pub fn vstack(rows: &[&Image]) -> Image {
        assert!(!rows.is_empty(), "no images to stack");
        let width = rows[0].width;
        let height = rows.iter().map(|img| img.height).sum();
        let mut data = Vec::with_capacity(width as usize * height as usize * BYTES_PER_PIXEL);
        for img in rows {
            assert_eq!(img.width, width, "stacked width mismatch");
            data.extend_from_slice(&img.data);
        }
        Image::from_raw(width, height, data)
    }

    /// Reassemble strips produced by [`Image::split_strips`] (any order).
    pub fn assemble(strips: &[(StripInfo, Image)]) -> Image {
        Image::vstack(&Image::tiled(strips))
    }
}

/// Convert one channel to the [0, 1] float range the filter formulas use.
#[inline]
pub const fn to_unit(c: u8) -> f32 {
    c as f32 / 255.0
}

/// Convert back from [0, 1] with clamping (the paper's `clamp`).
#[inline]
pub fn from_unit(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(
                    x,
                    y,
                    [(x % 256) as u8, (y % 256) as u8, ((x + y) % 256) as u8, 255],
                );
            }
        }
        img
    }

    #[test]
    fn new_image_is_black_opaque() {
        let img = Image::new(4, 3);
        assert_eq!(img.get(0, 0), [0, 0, 0, 255]);
        assert_eq!(img.byte_len(), 4 * 3 * 4);
        assert_eq!(img.pixel_count(), 12);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = Image::new(8, 8);
        img.set(3, 5, [1, 2, 3, 4]);
        assert_eq!(img.get(3, 5), [1, 2, 3, 4]);
        assert_eq!(img.get(5, 3), [0, 0, 0, 255]);
    }

    #[test]
    fn strip_bounds_tile_exactly() {
        for h in [1u32, 7, 100, 512] {
            for n in 1..=h.min(9) {
                let b = Image::strip_bounds(h, n);
                assert_eq!(b.len(), n as usize);
                let mut y = 0;
                for (y0, sh) in &b {
                    assert_eq!(*y0, y);
                    assert!(*sh > 0);
                    y += sh;
                }
                assert_eq!(y, h);
                let min = b.iter().map(|(_, h)| *h).min().unwrap();
                let max = b.iter().map(|(_, h)| *h).max().unwrap();
                assert!(max - min <= 1, "uneven split for h={h} n={n}");
            }
        }
    }

    #[test]
    fn split_assemble_identity() {
        let img = gradient(17, 23);
        for n in [1u32, 2, 3, 5, 7] {
            let strips = img.split_strips(n);
            assert_eq!(Image::assemble(&strips), img);
        }
    }

    #[test]
    fn assemble_any_order() {
        let img = gradient(9, 12);
        let mut strips = img.split_strips(4);
        strips.reverse();
        assert_eq!(Image::assemble(&strips), img);
    }

    /// Pinned before `assemble` changed how it builds the frame: every
    /// strip count of a 7x11 gradient, one row a strip included, with the
    /// strips handed over in a shuffled order.
    #[test]
    fn assemble_of_shuffled_strips_is_the_frame() {
        let img = gradient(7, 11);
        let orders: [&[usize]; 4] = [
            &[0],
            &[1, 0],
            &[1, 2, 0],
            &[4, 9, 0, 7, 2, 10, 5, 1, 8, 3, 6],
        ];
        for order in orders {
            let strips = img.split_strips(order.len() as u32);
            let shuffled: Vec<_> = order.iter().map(|&i| strips[i].clone()).collect();
            assert_eq!(Image::assemble(&shuffled), img, "{} strips", order.len());
        }
    }

    #[test]
    fn tiled_reads_the_frame_in_row_order() {
        let img = gradient(5, 11);
        let mut strips = img.split_strips(3);
        strips.swap(0, 2);
        let rows = Image::tiled(&strips);
        let bytes: Vec<u8> = rows.iter().flat_map(|r| r.as_bytes()).copied().collect();
        assert_eq!(bytes, img.as_bytes());
        assert_eq!(Image::vstack(&rows), img);
    }

    #[test]
    fn rows_are_contiguous() {
        let img = gradient(5, 4);
        let row = img.row(2);
        assert_eq!(row.len(), 5 * 4);
        assert_eq!(&row[0..4], &img.get(0, 2));
    }

    #[test]
    fn unit_conversion_clamps() {
        assert_eq!(from_unit(-0.5), 0);
        assert_eq!(from_unit(0.0), 0);
        assert_eq!(from_unit(1.0), 255);
        assert_eq!(from_unit(2.0), 255);
        assert_eq!(to_unit(255), 1.0);
        assert_eq!(to_unit(0), 0.0);
        // Roundtrip within one quantisation step.
        for c in [0u8, 1, 127, 254, 255] {
            assert_eq!(from_unit(to_unit(c)), c);
        }
    }

    #[test]
    #[should_panic(expected = "more strips")]
    fn too_many_strips_panics() {
        Image::strip_bounds(4, 5);
    }

    #[test]
    #[should_panic(expected = "strips do not tile")]
    fn assemble_rejects_missing_rows() {
        let img = gradient(4, 8);
        let mut strips = img.split_strips(2);
        // Lie about the strip count so the length check passes but
        // coverage fails.
        strips.remove(1);
        strips[0].0.count = 1;
        strips[0].0.full_height = 8;
        Image::assemble(&strips);
    }

    /// Two strips at the same `y0` whose heights add up to the frame's
    /// used to pass the height sum and leave the rows below unwritten.
    #[test]
    #[should_panic(expected = "strips do not tile")]
    fn assemble_rejects_overlapping_strips() {
        let mut strips = gradient(4, 8).split_strips(2);
        strips[1].0.y0 = 0;
        Image::assemble(&strips);
    }

    #[test]
    #[should_panic(expected = "strips do not tile")]
    fn assemble_rejects_a_gap() {
        let mut strips = gradient(4, 9).split_strips(3);
        // Rows 0..3, 4..7 and 6..9: the heights still sum to nine.
        strips[1].0.y0 = 4;
        Image::assemble(&strips);
    }

    #[test]
    fn into_raw_roundtrips_through_from_raw() {
        let img = gradient(6, 5);
        let copy = img.clone();
        let raw = img.into_raw();
        assert_eq!(raw.len(), 6 * 5 * BYTES_PER_PIXEL);
        assert_eq!(Image::from_raw(6, 5, raw), copy);
    }

    #[test]
    fn fill_sets_every_pixel() {
        let mut img = Image::new(3, 3);
        img.fill([9, 8, 7, 6]);
        for y in 0..3 {
            for x in 0..3 {
                assert_eq!(img.get(x, y), [9, 8, 7, 6]);
            }
        }
    }
}
