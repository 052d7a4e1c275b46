//! Using the crates as a library, outside the fixed paper pipeline:
//! load a scene from Wavefront OBJ text, render a short walkthrough and
//! grade it with a *custom* filter chain — including the paper's proposed
//! extension, scratches of arbitrary orientation and length (§IV: "the
//! system can be easily extended to allow scratches of arbitrary
//! orientation and length").
//!
//! ```sh
//! cargo run --release -p scc-core --example custom_film [out_dir]
//! ```

use scc_filters::{Blur, Flicker, FrameCtx, Image, ImageFilter, OrientedScratch, Sepia};
use scc_render::{Renderer, Scene, Walkthrough};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Generate OBJ text for a small "monument valley": a ground plane and a
/// ring of simple ziggurats. (Stands in for a user-supplied model.)
fn monument_obj() -> String {
    let mut obj =
        String::from("o ground\nv -60 0 -60\nv 60 0 -60\nv 60 0 60\nv -60 0 60\nf 1 2 3 4\n");
    let mut v = 4; // vertices emitted so far
    for k in 0..8 {
        let ang = k as f32 * std::f32::consts::TAU / 8.0;
        let (cx, cz) = (28.0 * ang.cos(), 28.0 * ang.sin());
        let _ = writeln!(obj, "o ziggurat{k}");
        // Three stacked, shrinking boxes.
        let mut y = 0.0f32;
        for (half, h) in [(5.0, 6.0), (3.5, 5.0), (2.0, 7.0)] {
            let (x0, x1) = (cx - half, cx + half);
            let (z0, z1) = (cz - half, cz + half);
            let (y0, y1) = (y, y + h);
            for (x, yy, z) in [
                (x0, y0, z0),
                (x1, y0, z0),
                (x1, y1, z0),
                (x0, y1, z0),
                (x0, y0, z1),
                (x1, y0, z1),
                (x1, y1, z1),
                (x0, y1, z1),
            ] {
                let _ = writeln!(obj, "v {x} {yy} {z}");
            }
            // Quads referencing the 8 vertices just pushed.
            for q in [
                [1, 2, 3, 4],
                [5, 8, 7, 6],
                [1, 5, 6, 2],
                [4, 3, 7, 8],
                [1, 4, 8, 5],
                [2, 6, 7, 3],
            ] {
                let _ = writeln!(obj, "f {} {} {} {}", v + q[0], v + q[1], v + q[2], v + q[3]);
            }
            v += 8;
            y = y1;
        }
    }
    obj
}

fn write_ppm(img: &Image, path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "P6\n{} {}\n255", img.width(), img.height())?;
    let mut buf = Vec::with_capacity(img.pixel_count() as usize * 3);
    for px in img.as_bytes().chunks_exact(4) {
        buf.extend_from_slice(&px[..3]);
    }
    f.write_all(&buf)
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/custom_film".into());
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let scene = Scene::from_obj(&monument_obj()).expect("valid OBJ");
    println!("loaded {} triangles from OBJ", scene.triangle_count());
    let renderer = Renderer::new(Arc::new(scene));
    let walkthrough = Walkthrough::standard(320.0 / 240.0);

    // A custom grade: sepia, heavier blur, tilted scratches, flicker.
    let chain: Vec<Box<dyn ImageFilter>> = vec![
        Box::new(Sepia),
        Box::new(Blur::new(2)),
        Box::new(OrientedScratch {
            max_scratches: 5,
            max_tilt: 0.5,
            length_range: (0.3, 0.9),
        }),
        Box::new(Flicker { amplitude: 0.08 }),
    ];

    for frame in (0..32u64).step_by(8) {
        let cam = walkthrough.camera(frame * 12);
        let (mut img, stats) = renderer.render_full(&cam, 320, 240);
        let ctx = FrameCtx::whole_frame(frame, 1925, 320, 240);
        for f in &chain {
            f.apply(&mut img, &ctx);
        }
        let path = Path::new(&out_dir).join(format!("frame_{frame:02}.ppm"));
        write_ppm(&img, &path).expect("write frame");
        println!(
            "frame {frame}: {} triangles set up, {} pixels -> {}",
            stats.raster.triangles_filled,
            stats.raster.pixels_written,
            path.display()
        );
    }
    println!(
        "\ncustom chain: {}",
        chain
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
}
