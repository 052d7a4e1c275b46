//! Golden-image regression tests: pixel-exact FNV-1a hashes of every
//! filter's output on a fixed, seeded frame — asserted for the sequential
//! `apply` and for both kernel backends at every lane width.
//!
//! These constants pin the filters' numerics. If a hash changes, either a
//! kernel's arithmetic changed (a correctness regression — fix the code)
//! or the filter's definition deliberately changed (re-derive the
//! constants with `UPDATE_GOLDEN=1 cargo test -p scc-bench --test
//! filter_golden -- --nocapture` and paste the printed table).

use scc_filters::{standard_chain, FrameCtx, Image, KernelBackend, StripInfo};

const W: u32 = 64;
const H: u32 = 48;
const FRAME_ID: u64 = 7;
const RUN_SEED: u64 = 0xD00D_FEED;

/// FNV-1a 64 over raw RGBA bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        acc ^= b as u64;
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

/// The fixed input frame: a deterministic integer pattern (no renderer
/// involvement, so these hashes only depend on scc-filters).
fn test_frame() -> Image {
    let mut img = Image::new(W, H);
    for y in 0..H {
        for x in 0..W {
            let v = (x as u64)
                .wrapping_mul(31)
                .wrapping_add((y as u64).wrapping_mul(97));
            img.set(
                x,
                y,
                [
                    (v % 251) as u8,
                    ((v >> 3) % 241) as u8,
                    ((v >> 5) % 239) as u8,
                    255,
                ],
            );
        }
    }
    img
}

fn ctx() -> FrameCtx {
    FrameCtx::whole_frame(FRAME_ID, RUN_SEED, W, H)
}

/// A strip context mid-frame, exercising the y0 ≠ 0 path of every filter.
fn strip_ctx(strip_h: u32) -> FrameCtx {
    FrameCtx {
        frame_id: FRAME_ID,
        run_seed: RUN_SEED,
        strip: StripInfo {
            index: 1,
            count: 3,
            y0: strip_h,
            height: strip_h,
            full_height: H,
        },
        full_width: W,
    }
}

/// Expected (input hash, per-filter whole-frame hash, per-filter
/// mid-strip hash) — derived once at development time.
const GOLDEN_INPUT: u64 = 0x43d4f411e7f8d080;
const GOLDEN: &[(&str, u64, u64)] = &[
    ("sepia", 0x0fe38cdcd0977f21, 0xa2ce33851347b0b2),
    ("blur", 0x0e40509a44d82f51, 0x9495fd524e280629),
    ("scratch", 0xad98b6512c691945, 0x9b83e0806e6f91b2),
    ("flicker", 0x1da42e708cc6184a, 0xb3f354b1dde3d9e3),
    ("swap", 0xf5a02019de719b6c, 0x899bc70806841b77),
];

fn compute_table() -> Vec<(&'static str, u64, u64)> {
    let strip_h = H / 3;
    let strip_input = {
        let full = test_frame();
        let strips = full.split_strips(3);
        strips[1].1.clone()
    };
    standard_chain()
        .iter()
        .map(|f| {
            let mut whole = test_frame();
            f.apply(&mut whole, &ctx());
            let mut strip = strip_input.clone();
            f.apply(&mut strip, &strip_ctx(strip_h));
            (f.name(), fnv1a(whole.as_bytes()), fnv1a(strip.as_bytes()))
        })
        .collect()
}

#[test]
fn golden_hashes_sequential() {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!(
            "const GOLDEN_INPUT: u64 = {:#018x};",
            fnv1a(test_frame().as_bytes())
        );
        println!("const GOLDEN: &[(&str, u64, u64)] = &[");
        for (name, whole, strip) in compute_table() {
            println!("    (\"{name}\", {whole:#018x}, {strip:#018x}),");
        }
        println!("];");
        return;
    }
    assert_eq!(
        fnv1a(test_frame().as_bytes()),
        GOLDEN_INPUT,
        "the fixed input frame itself drifted"
    );
    let actual = compute_table();
    assert_eq!(actual.len(), GOLDEN.len());
    for ((name, whole, strip), &(gname, gwhole, gstrip)) in actual.iter().zip(GOLDEN) {
        assert_eq!(*name, gname, "filter order changed");
        assert_eq!(
            *whole, gwhole,
            "{name} whole-frame output drifted: got {whole:#018x}"
        );
        assert_eq!(
            *strip, gstrip,
            "{name} mid-strip output drifted: got {strip:#018x}"
        );
    }
}

/// Pinned hashes for the vectorized kernel paths at the widths that
/// exercise every lane-handling branch of the SIMD backend:
/// 64 px = 8 full 8-lane blocks, 37 px = 4 blocks + a 5-px scalar
/// remainder, 1 px = pure-remainder rows. Height 11 keeps an odd
/// middle row under swap. Each row is (width, [per-filter hash; 5]);
/// every hash must come out of BOTH backends — bit-identity across
/// kernels is the acceptance bar, so one constant per cell pins all
/// paths at once.
const LANE_H: u32 = 11;
const GOLDEN_LANES: &[(u32, [u64; 5])] = &[
    (
        64,
        [
            0x1ff14d1f6e7411c8,
            0x8c9220b72c21ab71,
            0xc41eb2065e42a002,
            0xe612eddbd6bacace,
            0xad8509df7b3191ba,
        ],
    ),
    (
        37,
        [
            0xba61e72bbc1a2a03,
            0x3f9a73d2f79bfeb1,
            0x7b8af74eb0b6be5a,
            0xa3ef4f3ad66a2a99,
            0xf9660124d50bfd9d,
        ],
    ),
    (
        1,
        [
            0xafbbd686d134d1ba,
            0xeed0de1471632322,
            0x8d84855ef557660c,
            0x66880e8bc8a31b63,
            0x4076d87a93096243,
        ],
    ),
];

fn lane_frame(w: u32) -> Image {
    let mut img = Image::new(w, LANE_H);
    for y in 0..LANE_H {
        for x in 0..w {
            let v = (x as u64)
                .wrapping_mul(53)
                .wrapping_add((y as u64).wrapping_mul(131));
            img.set(
                x,
                y,
                [
                    (v % 251) as u8,
                    ((v >> 2) % 247) as u8,
                    ((v >> 4) % 239) as u8,
                    255,
                ],
            );
        }
    }
    img
}

fn lane_table() -> Vec<(u32, [u64; 5])> {
    GOLDEN_LANES
        .iter()
        .map(|&(w, _)| {
            let ctx = FrameCtx::whole_frame(FRAME_ID, RUN_SEED, w, LANE_H);
            let per_filter: Vec<u64> = standard_chain()
                .iter()
                .map(|f| {
                    let mut img = lane_frame(w);
                    f.apply_vectored(&mut img, &ctx, KernelBackend::Scalar, 1);
                    fnv1a(img.as_bytes())
                })
                .collect();
            (w, per_filter.try_into().expect("5 filters"))
        })
        .collect()
}

#[test]
fn golden_hashes_lane_widths() {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!("const GOLDEN_LANES: &[(u32, [u64; 5])] = &[");
        for (w, filters) in lane_table() {
            println!("    (");
            println!("        {w},");
            println!("        [");
            for h in filters {
                println!("            {h:#018x},");
            }
            println!("        ],");
            println!("    ),");
        }
        println!("];");
        return;
    }
    // The pinned table itself comes from the scalar path; both backends
    // must land on the same bytes.
    for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
        for &(w, ref filters) in GOLDEN_LANES {
            let ctx = FrameCtx::whole_frame(FRAME_ID, RUN_SEED, w, LANE_H);
            for (f, &want) in standard_chain().iter().zip(filters.iter()) {
                let mut img = lane_frame(w);
                f.apply_vectored(&mut img, &ctx, backend, 1);
                assert_eq!(
                    fnv1a(img.as_bytes()),
                    want,
                    "{} w={w} {backend:?} drifted",
                    f.name()
                );
            }
        }
    }
}

#[test]
fn golden_hashes_are_distinct() {
    // Sanity on the harness itself: each filter does something, and does
    // something different from the others (hash collisions aside).
    let mut all: Vec<u64> = GOLDEN.iter().map(|&(_, w, _)| w).collect();
    all.push(GOLDEN_INPUT);
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), GOLDEN.len() + 1, "two stages hash identically");
}
