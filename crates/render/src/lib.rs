//! # scc-render — software 3D renderer substrate
//!
//! From-scratch replacement for the os-mesa renderer + NYC CAD model the
//! paper uses (§IV–V): linear algebra ([`math`]), triangle meshes
//! ([`mesh`]), an [`octree`] with frustum culling ([`frustum`]), a
//! z-buffered rasteriser ([`raster`]), a deterministic procedural city
//! ([`scene`]) and the 400-frame walkthrough [`camera`] path. The
//! [`renderer::Renderer`] renders horizontal image strips for the
//! sort-first parallel decomposition, reporting workload statistics
//! (octree nodes visited, triangles set up, pixels tested and written).
//! The render-stage cost model in `scc-core` prices the cull's statistics
//! and an analytic coverage estimate, not the fill's counters.

#![forbid(unsafe_code)]

pub mod camera;
#[cfg(test)]
mod frame_pins;
pub mod frustum;
pub mod math;
pub mod mesh;
pub mod obj;
pub mod octree;
mod probe;
pub mod raster;
#[cfg(test)]
mod raster_pins;
pub mod renderer;
pub mod scene;

pub use camera::{Camera, Walkthrough, WALKTHROUGH_FRAMES};
pub use frustum::{Containment, Frustum};
pub use math::{Mat4, Vec3};
pub use mesh::{Aabb, Triangle};
pub use obj::{parse_obj, ObjError};
pub use octree::{CullStats, Octree, OctreeConfig};
pub use raster::{FrameSetup, RasterStats};
pub use renderer::{RenderStats, Renderer, BAND_ROWS};
pub use scene::{CityConfig, ManhattanConfig, Scene};
