//! Triangle meshes and axis-aligned bounding boxes.

use crate::math::{vec3, Vec3};

/// A flat-shaded triangle: three CCW vertices and a base colour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    pub v: [Vec3; 3],
    pub color: [u8; 3],
}

impl Triangle {
    pub fn new(a: Vec3, b: Vec3, c: Vec3, color: [u8; 3]) -> Triangle {
        Triangle {
            v: [a, b, c],
            color,
        }
    }

    /// Geometric (unnormalised) normal; length is twice the area.
    pub fn normal_raw(&self) -> Vec3 {
        (self.v[1] - self.v[0]).cross(self.v[2] - self.v[0])
    }

    pub fn centroid(&self) -> Vec3 {
        (self.v[0] + self.v[1] + self.v[2]) / 3.0
    }

    pub fn aabb(&self) -> Aabb {
        Aabb {
            min: self.v[0].min(self.v[1]).min(self.v[2]),
            max: self.v[0].max(self.v[1]).max(self.v[2]),
        }
    }
}

/// Axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// The empty box (inverted bounds; union identity).
    pub const EMPTY: Aabb = Aabb {
        min: vec3(f32::INFINITY, f32::INFINITY, f32::INFINITY),
        max: vec3(f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY),
    };

    pub fn new(min: Vec3, max: Vec3) -> Aabb {
        Aabb { min, max }
    }

    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    pub fn union(&self, o: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(o.min),
            max: self.max.max(o.max),
        }
    }

    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    pub fn contains_box(&self, o: &Aabb) -> bool {
        !o.is_empty() && self.contains(o.min) && self.contains(o.max)
    }

    pub fn intersects(&self, o: &Aabb) -> bool {
        !self.is_empty()
            && !o.is_empty()
            && self.min.x <= o.max.x
            && self.max.x >= o.min.x
            && self.min.y <= o.max.y
            && self.max.y >= o.min.y
            && self.min.z <= o.max.z
            && self.max.z >= o.min.z
    }

    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// The eight corner points.
    pub fn corners(&self) -> [Vec3; 8] {
        let (lo, hi) = (self.min, self.max);
        [
            vec3(lo.x, lo.y, lo.z),
            vec3(hi.x, lo.y, lo.z),
            vec3(lo.x, hi.y, lo.z),
            vec3(hi.x, hi.y, lo.z),
            vec3(lo.x, lo.y, hi.z),
            vec3(hi.x, lo.y, hi.z),
            vec3(lo.x, hi.y, hi.z),
            vec3(hi.x, hi.y, hi.z),
        ]
    }

    /// The child box of octant `i` (bit 0 = +x, bit 1 = +y, bit 2 = +z).
    pub fn octant(&self, i: usize) -> Aabb {
        let c = self.center();
        let mut min = self.min;
        let mut max = c;
        if i & 1 != 0 {
            min.x = c.x;
            max.x = self.max.x;
        }
        if i & 2 != 0 {
            min.y = c.y;
            max.y = self.max.y;
        }
        if i & 4 != 0 {
            min.z = c.z;
            max.z = self.max.z;
        }
        Aabb { min, max }
    }
}

/// Push the 12 triangles of an axis-aligned box (building block of the
/// procedural city).
pub fn push_box(out: &mut Vec<Triangle>, b: &Aabb, color: [u8; 3]) {
    let c = b.corners();
    // Each face as two triangles, outward-facing CCW winding.
    let quads: [[usize; 4]; 6] = [
        [0, 2, 3, 1], // -z
        [4, 5, 7, 6], // +z
        [0, 1, 5, 4], // -y
        [2, 6, 7, 3], // +y
        [0, 4, 6, 2], // -x
        [1, 3, 7, 5], // +x
    ];
    for q in quads {
        out.push(Triangle::new(c[q[0]], c[q[1]], c[q[2]], color));
        out.push(Triangle::new(c[q[0]], c[q[2]], c[q[3]], color));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_normal_and_centroid() {
        let t = Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y, [255, 0, 0]);
        assert_eq!(t.normal_raw(), Vec3::Z);
        let c = t.centroid();
        assert!((c.x - 1.0 / 3.0).abs() < 1e-6);
        assert!((c.y - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn triangle_aabb_bounds_vertices() {
        let t = Triangle::new(
            vec3(1.0, 5.0, -2.0),
            vec3(-1.0, 0.0, 3.0),
            vec3(2.0, 2.0, 2.0),
            [0; 3],
        );
        let b = t.aabb();
        for v in t.v {
            assert!(b.contains(v));
        }
        assert_eq!(b.min, vec3(-1.0, 0.0, -2.0));
        assert_eq!(b.max, vec3(2.0, 5.0, 3.0));
    }

    #[test]
    fn empty_box_is_union_identity() {
        let b = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(1.0, 1.0, 1.0));
        assert!(Aabb::EMPTY.is_empty());
        assert_eq!(Aabb::EMPTY.union(&b), b);
        assert!(!Aabb::EMPTY.intersects(&b));
    }

    #[test]
    fn intersection_tests() {
        let a = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(2.0, 2.0, 2.0));
        let b = Aabb::new(vec3(1.0, 1.0, 1.0), vec3(3.0, 3.0, 3.0));
        let c = Aabb::new(vec3(5.0, 5.0, 5.0), vec3(6.0, 6.0, 6.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching faces count as intersecting.
        let d = Aabb::new(vec3(2.0, 0.0, 0.0), vec3(3.0, 1.0, 1.0));
        assert!(a.intersects(&d));
    }

    #[test]
    fn octants_tile_the_box() {
        let b = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(2.0, 4.0, 8.0));
        let mut vol = 0.0;
        for i in 0..8 {
            let o = b.octant(i);
            let e = o.max - o.min;
            vol += e.x * e.y * e.z;
            assert!(b.contains_box(&o));
        }
        assert!((vol - 2.0 * 4.0 * 8.0).abs() < 1e-4);
        // Octant 0 is the low corner, octant 7 the high corner.
        assert_eq!(b.octant(0).min, b.min);
        assert_eq!(b.octant(7).max, b.max);
    }

    #[test]
    fn box_mesh_has_12_consistent_triangles() {
        let b = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(1.0, 2.0, 3.0));
        let mut tris = Vec::new();
        push_box(&mut tris, &b, [10, 20, 30]);
        assert_eq!(tris.len(), 12);
        // Total surface area = 2(wh + wd + hd) = 2(2 + 3 + 6) = 22.
        let area: f32 = tris.iter().map(|t| t.normal_raw().length() / 2.0).sum();
        assert!((area - 22.0).abs() < 1e-4);
        // All triangles inside the box bounds.
        for t in &tris {
            assert!(b.contains_box(&t.aabb()));
        }
        // Outward winding: normals point away from the centre.
        for t in &tris {
            let n = t.normal_raw();
            let dir = t.centroid() - b.center();
            assert!(n.dot(dir) > 0.0, "inward-facing triangle");
        }
    }
}
