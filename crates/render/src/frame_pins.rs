//! Pinned full-frame renders: what [`Renderer::render_strip_into`] draws
//! for whole walkthrough frames, recorded before the render stage learnt
//! to fill row bands side by side and kept untouched since.
//!
//! Each pinned frame is one FNV-1a hash over its image bytes, its
//! z-buffer bits and all four [`RasterStats`] fields, at three
//! geometries: the standard city at 400×400 (`film_native`), the
//! ground-only city at 800×608 (`film_native_flat`) and the standard city
//! at 64×64 (the serving size). The frames are walkthrough frames 0–23
//! (the benchmark's film) plus every 50th. The debug test checks a subset
//! that fits tier-1's budget; the release run (`--ignored`) checks them
//! all.

use crate::camera::Walkthrough;
use crate::raster::RasterStats;
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

/// FNV-1a 64 over one frame: image bytes, z-buffer bits (little-endian)
/// and the four raster counters (little-endian, in declaration order).
pub(crate) fn frame_hash(img: &Image, zbuf: &[f32], s: &RasterStats) -> u64 {
    let counters = [
        s.triangles_in,
        s.triangles_filled,
        s.pixels_covered,
        s.pixels_written,
    ];
    let bytes = img
        .as_bytes()
        .iter()
        .copied()
        .chain(zbuf.iter().flat_map(|v| v.to_bits().to_le_bytes()))
        .chain(counters.iter().flat_map(|c| c.to_le_bytes()));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `frame`'s full-frame render at `g`, hashed.
fn full_frame_hash(g: &Geometry, r: &Renderer, frame: u64) -> u64 {
    let cam = g.walkthrough().camera(frame);
    let mut img = Image::new(g.width, g.height);
    let mut zbuf = Vec::new();
    let stats = r.render_strip_into(&cam, g.height, 0, &mut img, &mut zbuf);
    frame_hash(&img, &zbuf, &stats.raster)
}

/// `PINS[g][i]`: the hash of [`PINNED_FRAMES`]`[i]` at [`GEOMETRIES`]`[g]`.
#[rustfmt::skip]
const PINS: [[u64; 31]; 3] = [
    // city 400x400
    [
        0xf878ef3070701a9e, 0x5b8e085f6655faae, 0x38d9b150f5b7f494,
        0x6990ccc056c1568c, 0x1f45592dfd14aff2, 0x938daf724cfdc112,
        0xeaf0427b535e5b00, 0xe40f6fea1f78697e, 0xf15737ff2622202c,
        0xc73080870cbc38eb, 0x4bf2560ac1b50a8e, 0x5d5960ea680936bd,
        0x1672a2c448ae47db, 0xca35be0ce41f7250, 0xfef60fc1304b1ce7,
        0xb7f95866fc26d123, 0x344eba54677218aa, 0x9f3c91146c203dba,
        0xf78ae07b29ad083d, 0xe417725a855d4553, 0xec60e219a965fc52,
        0xca5a9f154a67f48f, 0xc2562437ae6f1190, 0x152cd61dbfb4e640,
        0xf791042913fdb96a, 0x0c5c2568b4865841, 0xa5e4bdc86987f761,
        0xf326f3b21fa98f36, 0xb6753e61e8d5a43b, 0x786d598715dab4be,
        0x27528bb0b5e212e2,
    ],
    // flat 800x608
    [
        0x9620297d4722f00c, 0xbe480000816c10c0, 0x809eb52d34b9ede2,
        0x2becb79904995403, 0x11bb57ff8ba5ddbf, 0x636b91d8f84ab9e8,
        0xf56df51e8ab42843, 0xd17c8285cd435d38, 0xbdecc21915523ce9,
        0x269840024c41eb9d, 0xccb0feb5e41130c5, 0x3b5346acb1bafcb4,
        0x768d4f76a211ddf2, 0xe17a091bc156db61, 0x81ad230175a47179,
        0x401ce03153d0b794, 0xdc12385f2948cd12, 0xd98c9f766b87eb9a,
        0x3427f974d1d0dddc, 0x53b339b2979ab090, 0x533fd8ad2f298c6c,
        0x69accb72f49f75e2, 0x1a1369d2e2920fb5, 0x5bbd1cbf25890297,
        0x4b03eb359bc6ae1b, 0x7b1a857517b0f365, 0xbe98993f54c539d4,
        0xfa86663185a44e23, 0xada2fd6e0ade3fd1, 0x6f7cbc082e35ba84,
        0x8834c5447a1f39f9,
    ],
    // city 64x64
    [
        0x4ac5bc3721b6ec96, 0x60590ba0499fc685, 0x52b3d01f76e972f9,
        0x4f374eb759f37e67, 0x6ef236de4e354d33, 0x133fb91fcc8cccca,
        0xe7724e1f72a1249c, 0x9389ac0e7a600af3, 0x902fdea69612f492,
        0xfbd5e46e91e13875, 0xc226f26a543cc30b, 0xb3144e387476f9ec,
        0x6410168244d81f6d, 0x3d06cb835f670fb3, 0x4dd6608369888c25,
        0x842c6c912da1ef5a, 0x2aa935d58280652b, 0x3c1246e6c44a9a6a,
        0x85844cde364cb545, 0x3404e7ea4ab1f9f5, 0xf007d95e1372a50a,
        0xd1ca062a365ad6e3, 0xac67a51617ef4172, 0xff0bc6e9b97fe8f9,
        0x7665133d0237c9c5, 0xbb6ce1f2184cfc19, 0xb1e9e99e5dfde29d,
        0xf0adcbe170b56857, 0x6c6944bc0d957de1, 0xff88ac66baf38fea,
        0x83ad48ed54b972ed,
    ],
];

/// Check `frames` (indices into [`PINNED_FRAMES`]) of every geometry.
fn check(frames: &[usize]) {
    let mut wrong = Vec::new();
    for (g, pins) in GEOMETRIES.iter().zip(PINS) {
        let r = g.renderer();
        for &i in frames {
            let got = full_frame_hash(g, &r, PINNED_FRAMES[i]);
            if got != pins[i] {
                wrong.push(format!(
                    "{} frame {}: {got:#018x}, pinned {:#018x}",
                    g.name, PINNED_FRAMES[i], pins[i]
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Four frames of each geometry: the film's first and last, one from its
/// middle and one from the far side of the walkthrough.
#[test]
fn full_frame_renders_are_pinned() {
    check(&[0, 11, 23, 28]);
}

#[test]
#[ignore = "every pinned frame; run in release"]
fn every_pinned_full_frame_render_is_pinned() {
    check(&(0..PINNED_FRAMES.len()).collect::<Vec<_>>());
}
