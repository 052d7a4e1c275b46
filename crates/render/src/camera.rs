//! Camera and the deterministic 400-frame walkthrough path.
//!
//! "In our tests, we perform a virtual walkthrough through a 3D model. The
//! complete walkthrough consists of 400 individual frames" (§V). The path
//! orbits through the procedural city at street level with gentle height
//! and gaze variation, so successive frames see different object subsets —
//! keeping the frustum-culling workload frame-dependent like the paper's.

use crate::math::{vec3, Mat4, Vec3};

/// Number of frames in the paper's walkthrough.
pub const WALKTHROUGH_FRAMES: u64 = 400;

/// A pinhole camera.
#[derive(Debug, Clone, Copy)]
pub struct Camera {
    pub eye: Vec3,
    pub target: Vec3,
    pub up: Vec3,
    /// Vertical field of view, radians.
    pub fovy: f32,
    pub aspect: f32,
    pub near: f32,
    pub far: f32,
}

impl Camera {
    pub fn view(&self) -> Mat4 {
        Mat4::look_at(self.eye, self.target, self.up)
    }

    pub fn projection(&self) -> Mat4 {
        Mat4::perspective(self.fovy, self.aspect, self.near, self.far)
    }

    /// Full-screen view-projection matrix.
    pub fn view_projection(&self) -> Mat4 {
        self.projection().mul_mat(&self.view())
    }

    /// View-projection for a horizontal strip of the image.
    ///
    /// `strip_y0..strip_y0+strip_h` are image rows (0 = top); the band is
    /// mapped to the asymmetric frustum covering exactly those rows, which
    /// is the "additional computation to adjust the viewing frustum of the
    /// camera" of the sort-first configuration (§VI-A).
    pub fn strip_view_projection(&self, full_height: u32, strip_y0: u32, strip_h: u32) -> Mat4 {
        let strip_end = strip_y0
            .checked_add(strip_h)
            .filter(|&end| end <= full_height)
            .expect("strip beyond image");
        // Image row 0 is the top => NDC y = +1.
        let y_hi = 1.0 - 2.0 * strip_y0 as f32 / full_height as f32;
        let y_lo = 1.0 - 2.0 * strip_end as f32 / full_height as f32;
        let band = Mat4::perspective_band(self.fovy, self.aspect, self.near, self.far, y_lo, y_hi);
        band.mul_mat(&self.view())
    }
}

/// The scripted city walkthrough.
#[derive(Debug, Clone, Copy)]
pub struct Walkthrough {
    pub frames: u64,
    /// Radius of the camera orbit (should be inside the city).
    pub radius: f32,
    pub aspect: f32,
}

impl Walkthrough {
    pub fn standard(aspect: f32) -> Walkthrough {
        Walkthrough {
            frames: WALKTHROUGH_FRAMES,
            radius: 40.0,
            aspect,
        }
    }

    /// Camera pose for `frame` (0-based, wraps around the loop).
    pub fn camera(&self, frame: u64) -> Camera {
        let t = (frame % self.frames) as f32 / self.frames as f32;
        let ang = t * std::f32::consts::TAU;
        // Street-level orbit with gentle bobbing.
        let eye = vec3(
            self.radius * ang.cos(),
            3.0 + (ang * 3.0).sin() * 1.2,
            self.radius * ang.sin(),
        );
        // Look ahead along the orbit, drifting toward the centre.
        let ahead = ang + 0.35;
        let target = vec3(
            self.radius * 0.55 * ahead.cos(),
            2.5 + (ang * 2.0).cos(),
            self.radius * 0.55 * ahead.sin(),
        );
        Camera {
            eye,
            target,
            up: Vec3::Y,
            fovy: 1.05, // ~60°
            aspect: self.aspect,
            near: 0.5,
            far: 220.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poses_are_deterministic() {
        let w = Walkthrough::standard(1.25);
        let a = w.camera(123);
        let b = w.camera(123);
        assert_eq!(a.eye, b.eye);
        assert_eq!(a.target, b.target);
    }

    #[test]
    fn path_wraps() {
        let w = Walkthrough::standard(1.0);
        assert_eq!(w.camera(0).eye, w.camera(400).eye);
    }

    #[test]
    fn consecutive_frames_move_smoothly() {
        let w = Walkthrough::standard(1.0);
        for f in 0..399 {
            let step = (w.camera(f + 1).eye - w.camera(f).eye).length();
            assert!(step < 2.0, "camera jumps {step} at frame {f}");
            assert!(step > 0.0, "camera frozen at frame {f}");
        }
    }

    #[test]
    fn camera_never_looks_at_itself() {
        let w = Walkthrough::standard(1.0);
        for f in (0..400).step_by(7) {
            let c = w.camera(f);
            assert!((c.target - c.eye).length() > 1.0);
        }
    }

    #[test]
    fn strip_bands_tile_the_screen() {
        let cam = Walkthrough::standard(1.0).camera(5);
        let full = cam.view_projection();
        // A point visible in the full projection must fall in exactly the
        // band whose rows contain its NDC y.
        let p = vec3(5.0, 2.0, 5.0);
        let ndc = full.transform_point(p);
        if ndc.w > 0.0 {
            let ndc = ndc.project();
            if ndc.x.abs() <= 1.0 && ndc.y.abs() <= 1.0 && ndc.z.abs() <= 1.0 {
                let h = 400u32;
                let strips = 4u32;
                let mut hits = 0;
                for s in 0..strips {
                    let y0 = s * h / strips;
                    let m = cam.strip_view_projection(h, y0, h / strips);
                    let q = m.transform_point(p).project();
                    if q.y.abs() <= 1.0 + 1e-4 {
                        hits += 1;
                    }
                }
                assert!(hits >= 1, "visible point not covered by any strip");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strip beyond image")]
    fn strip_bounds_checked() {
        let cam = Walkthrough::standard(1.0).camera(0);
        cam.strip_view_projection(100, 90, 20);
    }

    /// `u32::MAX + 2` wraps to 1 in a release build, which the old
    /// `y0 + h <= full_height` guard let through.
    #[test]
    #[should_panic(expected = "strip beyond image")]
    fn strip_bounds_check_does_not_wrap() {
        let cam = Walkthrough::standard(1.0).camera(0);
        cam.strip_view_projection(100, u32::MAX, 2);
    }
}
