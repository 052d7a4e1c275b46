//! Pinned rasteriser behaviour, recorded from the bounding-box walk before
//! the span-bounded kernel replaced it and kept untouched since.
//!
//! Every case pins all four [`RasterStats`] fields, an FNV-1a hash of the
//! image bytes, an FNV-1a hash of the z-buffer bits and the
//! [`estimate_coverage`] value for the same input — the coverage numbers
//! feed `CostModel`, so every virtual-time golden moves if they drift.
//! The cases are shared with the oracle tests in `raster.rs`, which check
//! the span bound row by row over exactly these inputs. The serving-size
//! cases were recorded later, from the triangle set-up as it stood before
//! its clip-space reject and truncating box bounds.

use crate::camera::Walkthrough;
use crate::frustum::Frustum;
use crate::math::{vec3, Mat4};
use crate::mesh::Triangle;
use crate::raster::{estimate_coverage, new_zbuf, rasterize};
use crate::renderer::Renderer;
use crate::scene::{CityConfig, Scene};
use scc_filters::Image;
use std::sync::Arc;

/// One rasteriser input: `indices` of `tris` through `mvp` onto `w`×`h`.
pub(crate) struct Case {
    pub name: String,
    pub tris: Arc<Vec<Triangle>>,
    pub indices: Vec<u32>,
    pub mvp: Mat4,
    pub w: u32,
    pub h: u32,
}

/// What a case must keep producing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    triangles_in: u64,
    triangles_filled: u64,
    pixels_covered: u64,
    pixels_written: u64,
    image: u64,
    zbuf: u64,
    coverage: u64,
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn observe(c: &Case) -> Pin {
    let mut img = Image::new(c.w, c.h);
    let mut z = new_zbuf(c.w, c.h);
    let s = rasterize(&c.tris, &c.indices, &c.mvp, &mut img, &mut z);
    Pin {
        triangles_in: s.triangles_in,
        triangles_filled: s.triangles_filled,
        pixels_covered: s.pixels_covered,
        pixels_written: s.pixels_written,
        image: fnv1a(img.as_bytes().iter().copied()),
        zbuf: fnv1a(z.iter().flat_map(|v| v.to_bits().to_le_bytes())),
        coverage: estimate_coverage(&c.tris, &c.indices, &c.mvp, c.w, c.h),
    }
}

/// (frame, pipelines, strip) of the standard city at 400×400; pipelines 1
/// is the full frame.
const CITY_STRIPS: [(u64, u32, u32); 8] = [
    (0, 1, 0),
    (133, 1, 0),
    (266, 1, 0),
    (57, 2, 1),
    (200, 3, 0),
    (200, 3, 2),
    (311, 7, 3),
    (399, 7, 6),
];

const CITY_SIDE: u32 = 400;

fn city_renderer() -> Renderer {
    Renderer::new(Arc::new(Scene::city(CityConfig::default())))
}

/// One strip of the standard city as the render stage feeds the
/// rasteriser: strip view-projection, octree cull order.
fn city_case(
    renderer: &Renderer,
    tris: &Arc<Vec<Triangle>>,
    name: String,
    frame: u64,
    (w, full_h): (u32, u32),
    (pipelines, strip): (u32, u32),
) -> Case {
    let (y0, h) = Image::strip_bounds(full_h, pipelines)[strip as usize];
    let mvp = Walkthrough::standard(w as f32 / full_h as f32)
        .camera(frame)
        .strip_view_projection(full_h, y0, h);
    let mut indices = Vec::new();
    renderer
        .octree()
        .cull(&Frustum::from_matrix(&mvp), &mut indices);
    Case {
        name,
        tris: Arc::clone(tris),
        indices,
        mvp,
        w,
        h,
    }
}

/// The standard-city cases at 400×400.
pub(crate) fn city_cases() -> Vec<Case> {
    let renderer = city_renderer();
    let tris = Arc::new(renderer.scene().triangles.clone());
    CITY_STRIPS
        .iter()
        .map(|&(frame, pipelines, strip)| {
            let name = format!("city f{frame} p{pipelines} s{strip}");
            let side = (CITY_SIDE, CITY_SIDE);
            city_case(&renderer, &tris, name, frame, side, (pipelines, strip))
        })
        .collect()
}

/// (frame, width, full height, pipelines, strip) of the standard city at
/// the sizes `scc-serve` renders: small frames, where per-triangle set-up
/// outweighs the fill.
const SERVING_STRIPS: [(u64, u32, u32, u32, u32); 5] = [
    (0, 64, 64, 1, 0),
    (133, 64, 64, 1, 0),
    (266, 64, 64, 1, 0),
    (57, 64, 64, 2, 1),
    (200, 32, 24, 1, 0),
];

/// The standard city at the serving sizes.
pub(crate) fn serving_cases() -> Vec<Case> {
    let renderer = city_renderer();
    let tris = Arc::new(renderer.scene().triangles.clone());
    SERVING_STRIPS
        .iter()
        .map(|&(frame, w, full_h, pipelines, strip)| {
            let name = format!("city {w}x{full_h} f{frame} p{pipelines} s{strip}");
            city_case(
                &renderer,
                &tris,
                name,
                frame,
                (w, full_h),
                (pipelines, strip),
            )
        })
        .collect()
}

fn hand(name: &str, tris: Vec<Triangle>, mvp: Mat4, w: u32, h: u32) -> Case {
    Case {
        name: name.to_string(),
        indices: (0..tris.len() as u32).collect(),
        tris: Arc::new(tris),
        mvp,
        w,
        h,
    }
}

/// Hand-built corner cases. Identity MVP passes NDC through (w = 1).
pub(crate) fn hand_cases() -> Vec<Case> {
    let id = Mat4::IDENTITY;
    let proj = Mat4::perspective(1.0, 1.0, 0.5, 50.0);
    vec![
        // 380 px long, 4 px tall at its thick end.
        hand(
            "sliver",
            vec![Triangle::new(
                vec3(-0.95, -0.5, 0.2),
                vec3(0.95, 0.52, 0.2),
                vec3(0.95, 0.5, 0.2),
                [200, 40, 40],
            )],
            id,
            400,
            400,
        ),
        // A needle thinner than a pixel: most rows it crosses cover nothing.
        hand(
            "needle",
            vec![Triangle::new(
                vec3(-0.9, -0.9, 0.1),
                vec3(0.9, 0.9, 0.1),
                vec3(0.9, 0.897, 0.1),
                [40, 200, 40],
            )],
            id,
            401,
            97,
        ),
        // Top edge rises 1e-5 NDC over the width: an edge slope of ~1e5
        // pixels per row.
        hand(
            "near-horizontal edge",
            vec![Triangle::new(
                vec3(-0.8, 0.3, 0.4),
                vec3(0.8, 0.30001, 0.4),
                vec3(0.1, -0.7, 0.4),
                [40, 40, 200],
            )],
            id,
            400,
            400,
        ),
        // Edges exactly on a row / a column of pixel centres' grid lines.
        hand(
            "axis-aligned edges",
            vec![
                Triangle::new(
                    vec3(-0.5, 0.5, 0.3),
                    vec3(0.5, 0.5, 0.3),
                    vec3(-0.5, -0.5, 0.3),
                    [220, 220, 30],
                ),
                Triangle::new(
                    vec3(0.5, 0.5, 0.3),
                    vec3(0.5, -0.5, 0.3),
                    vec3(-0.5, -0.5, 0.3),
                    [30, 220, 220],
                ),
            ],
            id,
            64,
            48,
        ),
        hand(
            "wholly off-screen",
            vec![
                Triangle::new(
                    vec3(1.5, -0.2, 0.5),
                    vec3(2.5, 0.1, 0.5),
                    vec3(1.7, 0.9, 0.5),
                    [255; 3],
                ),
                Triangle::new(
                    vec3(-0.4, 1.01, 0.5),
                    vec3(0.6, 1.3, 0.5),
                    vec3(0.1, 2.0, 0.5),
                    [255; 3],
                ),
                Triangle::new(
                    vec3(100.0, 0.0, -10.0),
                    vec3(101.0, 0.0, -10.0),
                    vec3(100.0, 1.0, -10.0),
                    [255; 3],
                ),
            ],
            id,
            61,
            47,
        ),
        hand(
            "box clipped on all four sides",
            vec![Triangle::new(
                vec3(-7.0, -5.0, 0.6),
                vec3(9.0, -4.0, 0.6),
                vec3(0.5, 11.0, 0.2),
                [90, 160, 230],
            )],
            id,
            57,
            39,
        ),
        // The shared diagonal runs through pixel centres, where the edge
        // function is exactly 0 and both triangles claim the pixel.
        hand(
            "edge through pixel centres",
            vec![
                Triangle::new(
                    vec3(-1.0, -1.0, 0.5),
                    vec3(1.0, -1.0, 0.5),
                    vec3(1.0, 1.0, 0.5),
                    [240, 120, 0],
                ),
                Triangle::new(
                    vec3(-1.0, -1.0, 0.5),
                    vec3(1.0, 1.0, 0.5),
                    vec3(-1.0, 1.0, 0.5),
                    [0, 120, 240],
                ),
            ],
            id,
            32,
            32,
        ),
        // Both in the plane z = 0, so depth is exactly 0.0 at every shared
        // pixel: `z < zbuf` is strict and the first submitted triangle
        // keeps the overlap.
        hand(
            "coplanar depth tie",
            vec![
                Triangle::new(
                    vec3(-0.8, -0.8, 0.0),
                    vec3(0.8, -0.8, 0.0),
                    vec3(0.0, 0.9, 0.0),
                    [250, 10, 10],
                ),
                Triangle::new(
                    vec3(-0.8, 0.8, 0.0),
                    vec3(0.0, -0.9, 0.0),
                    vec3(0.8, 0.8, 0.0),
                    [10, 10, 250],
                ),
            ],
            id,
            73,
            73,
        ),
        // One vertex at w = 1.2e-4, just past the 1e-4 near reject: its
        // screen coordinates are ~1e6 px.
        hand(
            "w just above the near reject",
            vec![
                Triangle::new(
                    vec3(-0.5, 0.3, -1.2e-4),
                    vec3(2.0, -1.0, -5.0),
                    vec3(-1.0, -2.0, -5.0),
                    [180, 120, 60],
                ),
                Triangle::new(
                    vec3(0.4, -0.2, -1.5e-4),
                    vec3(-2.0, 1.5, -4.0),
                    vec3(1.0, 2.5, -6.0),
                    [60, 120, 180],
                ),
                // w = 0.9e-4: rejected.
                Triangle::new(
                    vec3(0.1, 0.1, -0.9e-4),
                    vec3(2.0, -1.0, -5.0),
                    vec3(-1.0, -2.0, -5.0),
                    [1, 2, 3],
                ),
            ],
            proj,
            400,
            399,
        ),
    ]
}

#[test]
fn hand_built_cases_are_pinned() {
    check(&hand_cases(), &HAND_PINS);
}

#[test]
fn standard_city_strips_are_pinned() {
    check(&city_cases(), &CITY_PINS);
}

#[test]
fn serving_size_city_strips_are_pinned() {
    check(&serving_cases(), &SERVING_PINS);
}

fn check(cases: &[Case], pins: &[Pin]) {
    assert_eq!(cases.len(), pins.len());
    let got: Vec<Pin> = cases.iter().map(observe).collect();
    // On drift, print every observed pin in the form the tables use.
    let table: String = got
        .iter()
        .map(|p| {
            format!(
                "    pin({}, {}, {}, {}, {:#018x}, {:#018x}, {}),\n",
                p.triangles_in,
                p.triangles_filled,
                p.pixels_covered,
                p.pixels_written,
                p.image,
                p.zbuf,
                p.coverage
            )
        })
        .collect();
    for ((c, got), want) in cases.iter().zip(&got).zip(pins) {
        assert_eq!(got, want, "`{}` drifted; observed:\n{table}", c.name);
    }
}

/// The off-screen and depth-tie cases must mean what their names say.
#[test]
fn hand_built_cases_exercise_what_they_claim() {
    let cases = hand_cases();
    let by_name = |n: &str| observe(cases.iter().find(|c| c.name == n).expect("case exists"));
    // The second triangle's box grazes row 0 after `floor`/`ceil`, so it
    // is walked and covers nothing; the other two never reach the walk.
    let off = by_name("wholly off-screen");
    assert_eq!((off.triangles_filled, off.pixels_covered), (1, 0));
    let clipped = by_name("box clipped on all four sides");
    assert_eq!(clipped.pixels_written, 57 * 39, "covers the whole viewport");
    let near = by_name("w just above the near reject");
    assert_eq!((near.triangles_in, near.triangles_filled), (3, 2));
    assert!(near.pixels_covered > 0);
    let needle = by_name("needle");
    assert!(needle.pixels_covered > 0 && needle.pixels_covered < 97);

    // Depth tie: the overlap keeps the first triangle's colour in either
    // submission order.
    let tie = cases
        .iter()
        .find(|c| c.name == "coplanar depth tie")
        .expect("case exists");
    let centre_red = |indices: &[u32]| {
        let mut img = Image::new(tie.w, tie.h);
        let mut z = new_zbuf(tie.w, tie.h);
        rasterize(&tie.tris, indices, &tie.mvp, &mut img, &mut z);
        img.get(36, 36)[0]
    };
    assert!(
        centre_red(&[0, 1]) > 100,
        "first submitted (red) wins the tie"
    );
    assert!(
        centre_red(&[1, 0]) < 100,
        "first submitted (blue) wins the tie"
    );
}

/// `render_strip` adds the sky gradient under the same fill: pin the
/// finished strip too.
#[test]
fn standard_city_render_strip_hashes_are_pinned() {
    let renderer = city_renderer();
    let walk = Walkthrough::standard(1.0);
    let got: Vec<u64> = CITY_STRIPS
        .iter()
        .map(|&(frame, pipelines, strip)| {
            let (y0, h) = Image::strip_bounds(CITY_SIDE, pipelines)[strip as usize];
            let (img, _) = renderer.render_strip(&walk.camera(frame), CITY_SIDE, CITY_SIDE, y0, h);
            fnv1a(img.as_bytes().iter().copied())
        })
        .collect();
    assert_eq!(got, STRIP_HASHES, "observed: {got:#x?}");
}

const fn pin(
    triangles_in: u64,
    triangles_filled: u64,
    pixels_covered: u64,
    pixels_written: u64,
    image: u64,
    zbuf: u64,
    coverage: u64,
) -> Pin {
    Pin {
        triangles_in,
        triangles_filled,
        pixels_covered,
        pixels_written,
        image,
        zbuf,
        coverage,
    }
}

const HAND_PINS: [Pin; 9] = [
    pin(1, 1, 759, 759, 0x4d1ef8939a632b53, 0x83c39fe78cd539e1, 768),
    pin(1, 1, 27, 27, 0xa60713e074262d1c, 0x03fb65fe93f5702a, 32),
    pin(
        1,
        1,
        32000,
        32000,
        0xb3966b7d0a2e8725,
        0x627091ad1da280df,
        32000,
    ),
    pin(2, 2, 768, 768, 0x725c34d2c601b8e5, 0x35be4df8d62a9ea6, 768),
    pin(3, 1, 0, 0, 0x2e59aeeb3b1ff788, 0x5068e38082661288, 0),
    pin(
        1,
        1,
        2223,
        2223,
        0xc1e4cf798e83eb30,
        0x9dc21b385534a8bc,
        2016,
    ),
    pin(
        2,
        2,
        1056,
        1024,
        0x047f8cdb0e7e66a5,
        0xcabae34748b6c325,
        1152,
    ),
    pin(
        2,
        2,
        3656,
        2651,
        0x9e444609ffce4d27,
        0xa8911bd418ab5235,
        3456,
    ),
    pin(
        3,
        2,
        84118,
        84118,
        0xfdd44b1415a0ee08,
        0x87d3e925d19750e3,
        83568,
    ),
];

#[rustfmt::skip]
const CITY_PINS: [Pin; 8] = [
    pin(5500, 1991, 1270214, 773335, 0x31bca107293d5d2c, 0x562ad01f713460b0, 1266304),
    pin(5550, 1888, 1390508, 506766, 0x13915ef0101a8125, 0x6415150e4b2af327, 1391040),
    pin(5470, 1952, 1173245, 155936, 0xf50791aaf7135d19, 0x0f9dd0cf0a95ecbb, 1174416),
    pin(4642, 256, 267534, 194367, 0x87880a3dd0a1704e, 0x53cf59508c63214a, 267648),
    pin(4894, 360, 309894, 58888, 0x04cb99eb9be54d8a, 0x08140b7928cdf5b7, 303872),
    pin(4118, 51, 90982, 42581, 0xaa6b665e1eda9380, 0xa2bcc2a09acc5385, 90144),
    pin(4882, 1158, 192610, 32471, 0xfccb3a2b18e1f486, 0x1de5d4aa0cf7f226, 188512),
    pin(4058, 11, 31070, 15535, 0x09c804313fcda753, 0x31697aa09ae1ccd9, 30528),
];

#[rustfmt::skip]
const SERVING_PINS: [Pin; 5] = [
    pin(5500, 2006, 32738, 19917, 0xa3ffac3949d390e7, 0x77a09db3c682e63e, 32864),
    pin(5550, 1908, 35834, 13023, 0x3925266184360325, 0x87127ca4cdbb87f0, 36608),
    pin(5470, 1960, 30037, 4007, 0xa80bbe81fc72e3e5, 0xe38354ca78530b22, 30864),
    pin(4642, 538, 6842, 4973, 0xa08c501274860c85, 0xa474a6c582b451a1, 6912),
    pin(5664, 2404, 6062, 956, 0x4b8d72ea2a627063, 0x317a75b62b7cb726, 5568),
];

const STRIP_HASHES: [u64; 8] = [
    0x90a1_6d0f_7ded_5414,
    0x1391_5ef0_101a_8125,
    0x5add_79b6_b2a0_5101,
    0x7b5b_5324_2fd8_0d00,
    0xb048_5d05_aaac_6230,
    0x248f_003a_cfc3_8261,
    0xfccb_3a2b_18e1_f486,
    0x0768_c36c_57b9_5997,
];
