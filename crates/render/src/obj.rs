//! Minimal Wavefront OBJ loader.
//!
//! The paper's walkthrough uses an externally authored New York model
//! ("NYC Model by Mehdi M.", Figure 1). The bundled procedural city is
//! the default substitute, but this loader lets a real model be used:
//! `v` and `f` statements are supported (with `v/vt/vn` face syntax,
//! negative indices, and fan triangulation of polygons), plus `o`/`g`
//! object grouping which drives a deterministic per-object colour so
//! untextured models still render readably.

use crate::math::{vec3, Vec3};
use crate::mesh::Triangle;
use crate::scene::Scene;
use std::fmt;

/// Errors from OBJ parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjError {
    /// A malformed or non-finite numeric literal at the given line
    /// (1-based).
    BadNumber { line: usize },
    /// A vertex index out of range or zero.
    BadIndex { line: usize },
    /// A face with fewer than 3 vertices.
    DegenerateFace { line: usize },
}

impl fmt::Display for ObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjError::BadNumber { line } => write!(f, "malformed number on line {line}"),
            ObjError::BadIndex { line } => write!(f, "bad vertex index on line {line}"),
            ObjError::DegenerateFace { line } => write!(f, "face with <3 vertices on line {line}"),
        }
    }
}

impl std::error::Error for ObjError {}

/// Deterministic colour for an object name (FNV-mixed pastel).
fn object_color(name: &str) -> [u8; 3] {
    let mut h: u32 = 0x811c_9dc5;
    for b in name.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    [
        120 + (h & 0x7f) as u8,
        120 + ((h >> 8) & 0x7f) as u8,
        120 + ((h >> 16) & 0x7f) as u8,
    ]
}

/// Parse OBJ text into triangles.
pub fn parse_obj(text: &str) -> Result<Vec<Triangle>, ObjError> {
    let mut vertices: Vec<Vec3> = Vec::new();
    let mut tris: Vec<Triangle> = Vec::new();
    let mut color = object_color("default");

    for (ln, raw) in text.lines().enumerate() {
        let line_no = ln + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("v") => {
                let mut coord = [0.0f32; 3];
                for c in &mut coord {
                    let tok = parts.next().ok_or(ObjError::BadNumber { line: line_no })?;
                    // `parse` accepts "nan", "inf" and overflows to infinity;
                    // none of them is a position the octree or rasteriser
                    // can use.
                    *c = tok
                        .parse()
                        .ok()
                        .filter(|v: &f32| v.is_finite())
                        .ok_or(ObjError::BadNumber { line: line_no })?;
                }
                vertices.push(vec3(coord[0], coord[1], coord[2]));
            }
            Some("f") => {
                let mut idx: Vec<usize> = Vec::new();
                for tok in parts {
                    // "7", "7/1", "7/1/3", "7//3" — the leading field is
                    // the vertex index; negative counts from the end.
                    let first = tok.split('/').next().unwrap_or("");
                    let i: i64 = first
                        .parse()
                        .map_err(|_| ObjError::BadNumber { line: line_no })?;
                    let resolved = if i > 0 {
                        (i - 1) as usize
                    } else if i < 0 {
                        let n = vertices.len() as i64 + i;
                        if n < 0 {
                            return Err(ObjError::BadIndex { line: line_no });
                        }
                        n as usize
                    } else {
                        return Err(ObjError::BadIndex { line: line_no });
                    };
                    if resolved >= vertices.len() {
                        return Err(ObjError::BadIndex { line: line_no });
                    }
                    idx.push(resolved);
                }
                if idx.len() < 3 {
                    return Err(ObjError::DegenerateFace { line: line_no });
                }
                // Fan triangulation.
                for k in 1..idx.len() - 1 {
                    tris.push(Triangle::new(
                        vertices[idx[0]],
                        vertices[idx[k]],
                        vertices[idx[k + 1]],
                        color,
                    ));
                }
            }
            Some("o") | Some("g") | Some("usemtl") => {
                let name = parts.next().unwrap_or("anon");
                color = object_color(name);
            }
            // vt, vn, mtllib, s, ... — ignored.
            _ => {}
        }
    }
    Ok(tris)
}

impl Scene {
    /// Build a scene from OBJ text.
    pub fn from_obj(text: &str) -> Result<Scene, ObjError> {
        Ok(Scene::from_triangles(parse_obj(text)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CUBE: &str = r#"
# a unit cube
o cube
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 2 3 4
f 5 8 7 6
f 1 5 6 2
f 4 3 7 8
f 1 4 8 5
f 2 6 7 3
"#;

    #[test]
    fn cube_parses_to_twelve_triangles() {
        let tris = parse_obj(CUBE).unwrap();
        assert_eq!(tris.len(), 12, "6 quads fan into 12 triangles");
        let area: f32 = tris.iter().map(|t| t.normal_raw().length() / 2.0).sum();
        assert!((area - 6.0).abs() < 1e-4, "unit cube area {area}");
    }

    #[test]
    fn face_variants_and_negative_indices() {
        let text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2//2 -1\n";
        let tris = parse_obj(text).unwrap();
        assert_eq!(tris.len(), 1);
        assert_eq!(tris[0].v[2], vec3(0.0, 1.0, 0.0));
    }

    #[test]
    fn comments_and_unknown_statements_ignored() {
        let text =
            "mtllib x.mtl\nvt 0 0\nvn 0 0 1\n# hi\nv 0 0 0\nv 1 0 0\nv 0 1 0\ns off\nf 1 2 3\n";
        assert_eq!(parse_obj(text).unwrap().len(), 1);
    }

    #[test]
    fn errors_are_located() {
        assert_eq!(
            parse_obj("v 0 0 zero\n"),
            Err(ObjError::BadNumber { line: 1 })
        );
        assert_eq!(
            parse_obj("v 0 0 0\nf 1 2 9\n"),
            Err(ObjError::BadIndex { line: 2 })
        );
        assert_eq!(
            parse_obj("v 0 0 0\nv 1 0 0\nf 1 2\n"),
            Err(ObjError::DegenerateFace { line: 3 })
        );
        assert_eq!(
            parse_obj("v 0 0 0\nf 0 0 0\n"),
            Err(ObjError::BadIndex { line: 2 })
        );
    }

    #[test]
    fn non_finite_vertices_are_rejected() {
        for bad in ["nan", "NaN", "inf", "-inf", "infinity", "1e39"] {
            let text = format!("v 0 0 0\nv {bad} 1 0\n");
            assert_eq!(
                parse_obj(&text),
                Err(ObjError::BadNumber { line: 2 }),
                "`{bad}` must not become a vertex"
            );
        }
        assert!(parse_obj("v 3e38 -3e38 1e-45\n").is_ok());
    }

    #[test]
    fn objects_get_distinct_deterministic_colors() {
        let text = "o a\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\no b\nf 1 2 3\n";
        let tris = parse_obj(text).unwrap();
        assert_ne!(tris[0].color, tris[1].color);
        let again = parse_obj(text).unwrap();
        assert_eq!(tris[0].color, again[0].color);
    }

    #[test]
    fn scene_from_obj_has_bounds_and_renders() {
        use crate::camera::Camera;
        use crate::math::Vec3;
        use crate::renderer::Renderer;
        use std::sync::Arc;
        let scene = Scene::from_obj(CUBE).unwrap();
        assert_eq!(scene.triangle_count(), 12);
        assert!(scene.bounds.contains(vec3(0.5, 0.5, 0.5)));
        let r = Renderer::new(Arc::new(scene));
        let cam = Camera {
            eye: vec3(3.0, 2.0, 3.0),
            target: vec3(0.5, 0.5, 0.5),
            up: Vec3::Y,
            fovy: 1.0,
            aspect: 1.0,
            near: 0.1,
            far: 50.0,
        };
        let (_, stats) = r.render_full(&cam, 64, 64);
        assert!(stats.raster.pixels_written > 50, "cube should be visible");
    }
}
