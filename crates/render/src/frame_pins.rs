//! Pinned full-frame renders: what [`Renderer::render_strip_into`] draws
//! for whole walkthrough frames, recorded before the render stage learnt
//! to fill row bands side by side.
//!
//! Each pinned frame has two parts, at three geometries: the standard
//! city at 400×400 (`film_native`), the ground-only city at 800×608
//! (`film_native_flat`) and the standard city at 64×64 (the serving
//! size).
//! - One FNV-1a hash over its image bytes and z-buffer bits: what the
//!   frame looks like. It is kept untouched.
//! - Its four [`RasterStats`] fields: how much work drew it. A change to
//!   how the fill decides which pixels to test may re-record these, in its
//!   own commit, saying why.
//!
//! The frames are walkthrough frames 0–23 (the benchmark's film) plus
//! every 50th. The debug tests check a subset that fits tier-1's budget;
//! the release run (`--ignored`) checks them all.

use crate::camera::Walkthrough;
use crate::raster::{FrameSetup, RasterStats};
use crate::renderer::Renderer;
use crate::scene::{CityConfig, Scene};
use scc_filters::Image;
use std::sync::Arc;

/// A frame size over one scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Geometry {
    pub name: &'static str,
    pub width: u32,
    pub height: u32,
    /// Buildings per side of the city (`CityConfig::side`).
    pub side: u32,
}

/// The three pinned geometries. Four buildings a side all fall inside the
/// central plaza the city generator keeps empty: only the two ground
/// triangles remain.
pub(crate) const GEOMETRIES: [Geometry; 3] = [
    Geometry {
        name: "city 400x400",
        width: 400,
        height: 400,
        side: 24,
    },
    Geometry {
        name: "flat 800x608",
        width: 800,
        height: 608,
        side: 4,
    },
    Geometry {
        name: "city 64x64",
        width: 64,
        height: 64,
        side: 24,
    },
];

impl Geometry {
    pub fn renderer(&self) -> Renderer {
        Renderer::new(Arc::new(Scene::city(CityConfig {
            side: self.side,
            ..CityConfig::default()
        })))
    }

    pub fn walkthrough(&self) -> Walkthrough {
        Walkthrough::standard(self.width as f32 / self.height as f32)
    }
}

/// Walkthrough frames 0–23, then every 50th.
pub(crate) const PINNED_FRAMES: [u64; 31] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 50, 100,
    150, 200, 250, 300, 350,
];

/// FNV-1a 64 over one frame's pixels: image bytes, then z-buffer bits
/// (little-endian).
pub(crate) fn pixel_hash(img: &Image, zbuf: &[f32]) -> u64 {
    let bytes = img
        .as_bytes()
        .iter()
        .copied()
        .chain(zbuf.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The four raster counters, in declaration order.
pub(crate) fn counters(s: &RasterStats) -> [u64; 4] {
    [
        s.triangles_in,
        s.triangles_filled,
        s.pixels_covered,
        s.pixels_written,
    ]
}

/// `frame`'s full-frame render at `g`: its pixel hash and its counters.
fn full_frame(g: &Geometry, r: &Renderer, frame: u64) -> (u64, [u64; 4]) {
    let cam = g.walkthrough().camera(frame);
    let mut img = Image::new(g.width, g.height);
    let (mut zbuf, mut setup) = (Vec::new(), FrameSetup::default());
    let stats = r.render_strip_into(&cam, g.height, 0, &mut img, &mut zbuf, &mut setup);
    (pixel_hash(&img, &zbuf), counters(&stats.raster))
}

/// `PIXEL_PINS[g][i]`: the [`pixel_hash`] of [`PINNED_FRAMES`]`[i]` at
/// [`GEOMETRIES`]`[g]`.
#[rustfmt::skip]
const PIXEL_PINS: [[u64; 31]; 3] = [
    // city 400x400
    [
        0xa8ab2147603ea9a1, 0xd67108f0dd29a9ad, 0xeb2ad95012922e2e,
        0x354e6f1434d4b032, 0xc6676ae836ec9cef, 0x1837fc36b436df64,
        0xf7e62052c8116aa2, 0x65a03756ad63cbd3, 0x2cfd7ebb51e0254a,
        0x8fb520dff8173d18, 0x51c454bc516b326d, 0x1c411e12ee0dcd0a,
        0xe6826af3bb22b939, 0x1aa1befdd85ce353, 0x812d3542f6e1f053,
        0x979049df877362d2, 0x291c3938308f1547, 0x23f92c79c74c3709,
        0xaea60d3fee4f854b, 0x28ef03b8f0a348b4, 0xfbfa54acd3be5c79,
        0x2657de0af97c0ced, 0x4d4104f828581905, 0x3f303d7474009066,
        0x320e490971cf67c3, 0xdba7c0774bdb5daf, 0x4d5730ab63367923,
        0xb6093f1cf83cb1b4, 0x781bd253d221899c, 0xb3316470ae9670ae,
        0x8df4631c384893d6,
    ],
    // flat 800x608
    [
        0x2699c7ad78e308e8, 0xc8f74808a9d49238, 0xd07d30ac76d16436,
        0xb7f63c84d0088313, 0x5b4883ee18641b3b, 0xf847119eb7fbc57c,
        0xc12d0b09f1f2eea7, 0xd8e13ad1803e8914, 0xa09fa3214a069869,
        0xf69bfcb285f00e1d, 0xfa4ee89da3842d45, 0xd806f7f0c02d4250,
        0x96629f7584e76d06, 0xc708e103f1e41cfd, 0xd52d5b7a06ad66c9,
        0x500ee500edb0f554, 0x57f51b593783fb92, 0xf70ac6038c05858a,
        0x78bf43ca8151e6a8, 0x1e392b52eebb3618, 0x7deb4d7a23c957d4,
        0x211e7ab506828e02, 0xc7bbedb360578b15, 0xe3ba30141c12abb7,
        0x2a839bf8126f7feb, 0x3650ea6b78ed5eb9, 0x7d7f614e36c021c4,
        0x9bd9673748fd030f, 0xf957f41d7a1c41d1, 0xa25964e48bf37e2c,
        0x9f676b0205b45879,
    ],
    // city 64x64
    [
        0x0baab965c8fec463, 0x0fb2cad5bb9e6ba9, 0xf5d589fb1fba7f27,
        0x54da7cedaa50ff0e, 0xd3ac1d1747e01938, 0x85ee44de633e933d,
        0x9a3d5c484deff8f6, 0x727a17a39a1a1bdc, 0xa84e8877017ce7c6,
        0x560bde8e8f08b0b8, 0x418d3baef4e3429d, 0xef1a2aabf48bccdf,
        0x9d5f96f7f9f359df, 0x6bf988ae155aee96, 0xfcd6df5a32a92448,
        0x04ec1a78016a1756, 0x1ff4eb7989c882d2, 0xf9e19805a7ecc88a,
        0x4ce2d131daae1a36, 0xa8489b7784a33625, 0xc54fc1443f344280,
        0x3e16455688ab38a5, 0x643dd7838752a61a, 0x1696e483a390b49b,
        0x10cde3e0f6538b69, 0xdda6d5b26f3bb1a1, 0x094648b7c0345e4d,
        0x8b536842a1a3bba1, 0x6bc5ee5a518fe4d5, 0x9c04088977485f80,
        0x62d3cc7df03c2db8,
    ],
];

/// `COUNTER_PINS[g][i]`: the [`counters`] of [`PINNED_FRAMES`]`[i]` at
/// [`GEOMETRIES`]`[g]`.
#[rustfmt::skip]
const COUNTER_PINS: [[[u64; 4]; 31]; 3] = [
    // city 400x400
    [
        [5500, 1991, 392854, 141186], [5500, 1974, 218704, 169548],
        [5500, 1978, 176753, 171166], [5506, 1984, 163717, 160203],
        [5480, 1976, 160037, 160000], [5480, 1973, 160000, 160000],
        [5480, 1980, 163280, 160000], [5500, 1989, 169012, 160000],
        [5500, 1995, 176726, 160000], [5500, 1977, 185199, 160000],
        [5500, 1973, 194785, 160000], [5500, 1984, 160000, 160000],
        [5500, 1956, 379503, 145179], [5500, 1951, 441935, 144777],
        [5528, 1957, 397614, 148372], [5522, 1954, 415854, 154804],
        [5522, 1941, 211143, 211143], [5620, 1943, 193915, 193915],
        [5620, 1933, 175028, 175028], [5604, 1933, 160000, 160000],
        [5604, 1930, 160000, 160000], [5604, 1910, 298824, 154620],
        [5604, 1912, 372787, 158497], [5604, 1896, 354833, 164251],
        [5576, 1940, 204686, 156054], [5560, 1995, 388298, 127131],
        [5536, 1938, 202462, 156838], [5488, 1982, 400800, 138306],
        [5500, 1933, 184843, 150384], [5494, 1964, 532218, 145087],
        [5524, 1939, 164213, 154123],
    ],
    // flat 800x608
    [
        [2, 2, 25273, 25273], [2, 2, 25806, 25806],
        [2, 2, 26361, 26361], [2, 2, 26923, 26923],
        [2, 2, 27486, 27486], [2, 2, 28062, 28062],
        [2, 2, 28647, 28647], [2, 2, 29223, 29223],
        [2, 2, 29805, 29805], [2, 2, 30390, 30390],
        [2, 2, 30983, 30983], [2, 2, 31554, 31554],
        [2, 2, 32141, 32141], [2, 2, 32722, 32722],
        [2, 2, 33298, 33298], [2, 2, 33869, 33869],
        [2, 2, 34434, 34434], [2, 2, 35009, 35009],
        [2, 2, 35557, 35557], [2, 2, 36082, 36082],
        [2, 2, 36606, 36606], [2, 2, 37151, 37151],
        [2, 2, 37732, 37732], [2, 2, 38239, 38239],
        [2, 2, 43304, 43304], [2, 2, 15049, 15049],
        [2, 2, 43304, 43304], [2, 2, 25273, 25273],
        [2, 2, 24766, 24766], [2, 2, 34500, 34500],
        [2, 2, 24766, 24766],
    ],
    // city 64x64
    [
        [5500, 2006, 11439, 3612], [5500, 1998, 6879, 4367],
        [5500, 1984, 4516, 4382], [5506, 1992, 4178, 4102],
        [5480, 1996, 4097, 4096], [5480, 2000, 4096, 4096],
        [5480, 1988, 4198, 4096], [5500, 1989, 4324, 4096],
        [5500, 1995, 4530, 4096], [5500, 2003, 4737, 4096],
        [5500, 2001, 5009, 4096], [5500, 1988, 4096, 4096],
        [5500, 1978, 14960, 3696], [5500, 1984, 11690, 3711],
        [5528, 1963, 13316, 3756], [5522, 1975, 12164, 3982],
        [5522, 1964, 5399, 5399], [5620, 1959, 4969, 4969],
        [5620, 1955, 4480, 4480], [5604, 1950, 4096, 4096],
        [5604, 1944, 4096, 4096], [5604, 1930, 8245, 3963],
        [5604, 1934, 10714, 4074], [5604, 1930, 10223, 4184],
        [5576, 1950, 5250, 3993], [5560, 2006, 13935, 3254],
        [5536, 1954, 5190, 4016], [5488, 2001, 10818, 3538],
        [5500, 1957, 6206, 3848], [5494, 1972, 13896, 3717],
        [5524, 1972, 7313, 3941],
    ],
];

/// Check `frames` (indices into [`PINNED_FRAMES`]) of every geometry: the
/// pixel hashes, and the counters too if `with_counters`.
fn check(frames: &[usize], with_counters: bool) {
    let mut wrong = Vec::new();
    for (g, (pixels, counts)) in GEOMETRIES.iter().zip(PIXEL_PINS.iter().zip(&COUNTER_PINS)) {
        let r = g.renderer();
        for &i in frames {
            let frame = PINNED_FRAMES[i];
            let (hash, got) = full_frame(g, &r, frame);
            if hash != pixels[i] {
                wrong.push(format!(
                    "{} frame {frame}: pixels {hash:#018x}, pinned {:#018x}",
                    g.name, pixels[i]
                ));
            }
            if with_counters && got != counts[i] {
                wrong.push(format!(
                    "{} frame {frame}: counters {got:?}, pinned {:?}",
                    g.name, counts[i]
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Four frames of each geometry: the film's first and last, one from its
/// middle and one from the far side of the walkthrough.
const TIER_ONE: [usize; 4] = [0, 11, 23, 28];

#[test]
fn full_frame_renders_are_pinned() {
    check(&TIER_ONE, false);
}

#[test]
fn full_frame_raster_counters_are_pinned() {
    check(&TIER_ONE, true);
}

#[test]
#[ignore = "every pinned frame; run in release"]
fn every_pinned_full_frame_render_is_pinned() {
    check(&(0..PINNED_FRAMES.len()).collect::<Vec<_>>(), true);
}
