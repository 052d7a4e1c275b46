//! Physical layout of the SCC: 48 P54C cores on 24 tiles arranged in a
//! 6×4 mesh, with four DDR3 memory controllers attached at the corners.
//!
//! Geometry follows the SCC External Architecture Specification: two cores
//! share a tile and its router; tiles are indexed row-major with tile 0 at
//! the bottom-left, x growing east (0..6) and y growing north (0..4). Each
//! quadrant of the die is served by the memory controller on its corner,
//! which is the default private-memory mapping used by sccKit.

use std::fmt;

/// Mesh width in tiles.
pub const MESH_W: u8 = 6;
/// Mesh height in tiles.
pub const MESH_H: u8 = 4;
/// Number of tiles (routers).
pub const NUM_TILES: u8 = MESH_W * MESH_H;
/// Cores per tile.
pub const CORES_PER_TILE: u8 = 2;
/// Total cores on the die.
pub const NUM_CORES: u8 = NUM_TILES * CORES_PER_TILE;
/// Number of memory controllers.
pub const NUM_MCS: u8 = 4;

/// One of the 48 cores, numbered 0..48 in SCC order (core `2t` and `2t+1`
/// live on tile `t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(u8);

/// One of the 24 tiles / mesh routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(u8);

/// One of the four memory controllers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct McId(u8);

impl CoreId {
    /// Create a core id, panicking if out of range.
    pub fn new(id: u8) -> CoreId {
        assert!(id < NUM_CORES, "core id {id} out of range (0..{NUM_CORES})");
        CoreId(id)
    }

    pub fn try_new(id: u8) -> Option<CoreId> {
        (id < NUM_CORES).then_some(CoreId(id))
    }

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    pub fn raw(self) -> u8 {
        self.0
    }

    /// The tile this core lives on.
    #[inline]
    pub fn tile(self) -> TileId {
        TileId(self.0 / CORES_PER_TILE)
    }

    /// Which of the two per-tile slots the core occupies (0 or 1).
    #[inline]
    pub fn slot(self) -> u8 {
        self.0 % CORES_PER_TILE
    }

    /// All cores in SCC order.
    pub fn all() -> impl Iterator<Item = CoreId> {
        (0..NUM_CORES).map(CoreId)
    }
}

impl TileId {
    pub fn new(id: u8) -> TileId {
        assert!(id < NUM_TILES, "tile id {id} out of range (0..{NUM_TILES})");
        TileId(id)
    }

    pub fn from_xy(x: u8, y: u8) -> TileId {
        assert!(x < MESH_W && y < MESH_H, "tile ({x},{y}) off the mesh");
        TileId(y * MESH_W + x)
    }

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    pub fn raw(self) -> u8 {
        self.0
    }

    #[inline]
    pub fn x(self) -> u8 {
        self.0 % MESH_W
    }

    #[inline]
    pub fn y(self) -> u8 {
        self.0 / MESH_W
    }

    /// The two cores on this tile.
    pub fn cores(self) -> [CoreId; 2] {
        [
            CoreId(self.0 * CORES_PER_TILE),
            CoreId(self.0 * CORES_PER_TILE + 1),
        ]
    }

    /// The memory controller serving this tile's private memory
    /// (quadrant mapping: nearest corner).
    pub fn memory_controller(self) -> McId {
        let east = self.x() >= MESH_W / 2;
        let north = self.y() >= MESH_H / 2;
        McId((east as u8) | ((north as u8) << 1))
    }

    /// Manhattan distance between two tiles — the hop count of an XY route.
    pub fn hops_to(self, other: TileId) -> u8 {
        self.x().abs_diff(other.x()) + self.y().abs_diff(other.y())
    }

    pub fn all() -> impl Iterator<Item = TileId> {
        (0..NUM_TILES).map(TileId)
    }
}

impl McId {
    pub fn new(id: u8) -> McId {
        assert!(id < NUM_MCS, "mc id {id} out of range (0..{NUM_MCS})");
        McId(id)
    }

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The mesh tile this controller's router port is attached to
    /// (the corner of its quadrant).
    pub fn attach_tile(self) -> TileId {
        let x = if self.0 & 1 == 0 { 0 } else { MESH_W - 1 };
        let y = if self.0 & 2 == 0 { 0 } else { MESH_H - 1 };
        TileId::from_xy(x, y)
    }

    pub fn all() -> impl Iterator<Item = McId> {
        (0..NUM_MCS).map(McId)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tile({},{})", self.x(), self.y())
    }
}

impl fmt::Display for McId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mc{}", self.0)
    }
}

/// A directed mesh link between two adjacent routers, identified by the
/// source tile and direction of travel. Used as an index into the NoC's
/// link-state tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    pub from: TileId,
    pub dir: Direction,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    East,
    West,
    North,
    South,
}

impl Link {
    /// The tile this link leads to.
    pub fn to(self) -> TileId {
        let (x, y) = (self.from.x(), self.from.y());
        match self.dir {
            Direction::East => TileId::from_xy(x + 1, y),
            Direction::West => TileId::from_xy(x - 1, y),
            Direction::North => TileId::from_xy(x, y + 1),
            Direction::South => TileId::from_xy(x, y - 1),
        }
    }

    /// A dense index for table storage: 4 links per tile.
    pub fn dense_index(self) -> usize {
        self.from.index() * 4
            + match self.dir {
                Direction::East => 0,
                Direction::West => 1,
                Direction::North => 2,
                Direction::South => 3,
            }
    }

    /// Number of distinct dense link indices.
    pub const DENSE_COUNT: usize = NUM_TILES as usize * 4;
}

/// The links of one XY route, in order, held inline: the longest route on
/// the mesh crosses `MESH_W - 1 + MESH_H - 1` links. Derefs to `[Link]`.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    links: [Link; Route::MAX_HOPS],
    len: u8,
}

impl Route {
    /// Links on the longest route: corner to opposite corner.
    const MAX_HOPS: usize = (MESH_W - 1 + MESH_H - 1) as usize;

    /// The XY (dimension-ordered) route between two tiles: first travel
    /// along x, then along y. Deadlock-free and deterministic, matching
    /// the SCC's mesh routing.
    pub fn xy(from: TileId, to: TileId) -> Route {
        let mut route = Route {
            links: [Link {
                from,
                dir: Direction::East,
            }; Route::MAX_HOPS],
            len: 0,
        };
        let (mut x, mut y) = (from.x(), from.y());
        while x != to.x() {
            let (dir, next) = if to.x() > x {
                (Direction::East, x + 1)
            } else {
                (Direction::West, x - 1)
            };
            route.push(TileId::from_xy(x, y), dir);
            x = next;
        }
        while y != to.y() {
            let (dir, next) = if to.y() > y {
                (Direction::North, y + 1)
            } else {
                (Direction::South, y - 1)
            };
            route.push(TileId::from_xy(x, y), dir);
            y = next;
        }
        route
    }

    fn push(&mut self, from: TileId, dir: Direction) {
        self.links[self.len as usize] = Link { from, dir };
        self.len += 1;
    }
}

impl std::ops::Deref for Route {
    type Target = [Link];

    fn deref(&self) -> &[Link] {
        &self.links[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a Route {
    type Item = &'a Link;
    type IntoIter = std::slice::Iter<'a, Link>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// [`Route::xy`]: the links traversed from `from` to `to`, in order.
pub fn xy_route(from: TileId, to: TileId) -> Route {
    Route::xy(from, to)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(NUM_TILES, 24);
        assert_eq!(NUM_CORES, 48);
        assert_eq!(CoreId::all().count(), 48);
        assert_eq!(TileId::all().count(), 24);
    }

    #[test]
    fn core_tile_mapping() {
        assert_eq!(CoreId::new(0).tile(), TileId::new(0));
        assert_eq!(CoreId::new(1).tile(), TileId::new(0));
        assert_eq!(CoreId::new(2).tile(), TileId::new(1));
        assert_eq!(CoreId::new(47).tile(), TileId::new(23));
        assert_eq!(CoreId::new(5).slot(), 1);
        assert_eq!(CoreId::new(4).slot(), 0);
    }

    #[test]
    fn tile_xy_roundtrip() {
        for t in TileId::all() {
            assert_eq!(TileId::from_xy(t.x(), t.y()), t);
        }
        assert_eq!(TileId::new(0).x(), 0);
        assert_eq!(TileId::new(23).x(), 5);
        assert_eq!(TileId::new(23).y(), 3);
    }

    #[test]
    fn quadrant_memory_controllers() {
        // Bottom-left quadrant -> mc0 at (0,0)
        assert_eq!(TileId::from_xy(0, 0).memory_controller(), McId::new(0));
        assert_eq!(TileId::from_xy(2, 1).memory_controller(), McId::new(0));
        // Bottom-right -> mc1 at (5,0)
        assert_eq!(TileId::from_xy(3, 0).memory_controller(), McId::new(1));
        assert_eq!(TileId::from_xy(5, 1).memory_controller(), McId::new(1));
        // Top-left -> mc2 at (0,3)
        assert_eq!(TileId::from_xy(0, 2).memory_controller(), McId::new(2));
        // Top-right -> mc3 at (5,3)
        assert_eq!(TileId::from_xy(5, 3).memory_controller(), McId::new(3));
        // Each quadrant has exactly 6 tiles.
        for mc in McId::all() {
            let n = TileId::all()
                .filter(|t| t.memory_controller() == mc)
                .count();
            assert_eq!(n, 6, "{mc} serves {n} tiles");
        }
    }

    #[test]
    fn mc_attach_tiles_are_corners() {
        assert_eq!(McId::new(0).attach_tile(), TileId::from_xy(0, 0));
        assert_eq!(McId::new(1).attach_tile(), TileId::from_xy(5, 0));
        assert_eq!(McId::new(2).attach_tile(), TileId::from_xy(0, 3));
        assert_eq!(McId::new(3).attach_tile(), TileId::from_xy(5, 3));
        // A controller's attach tile is inside the quadrant it serves.
        for mc in McId::all() {
            assert_eq!(mc.attach_tile().memory_controller(), mc);
        }
    }

    #[test]
    fn xy_route_lengths_and_continuity() {
        let a = TileId::from_xy(1, 1);
        let b = TileId::from_xy(4, 3);
        let route = xy_route(a, b);
        assert_eq!(route.len() as u8, a.hops_to(b));
        // Route is continuous and x-first.
        let mut cur = a;
        for link in &route {
            assert_eq!(link.from, cur);
            cur = link.to();
        }
        assert_eq!(cur, b);
        assert!(matches!(route[0].dir, Direction::East));
    }

    /// The walk `xy_route` was before it returned an inline [`Route`]:
    /// one `Vec` push per hop.
    fn vec_route(from: TileId, to: TileId) -> Vec<Link> {
        let mut links = Vec::with_capacity(from.hops_to(to) as usize);
        let mut x = from.x();
        let mut y = from.y();
        while x != to.x() {
            let dir = if to.x() > x {
                Direction::East
            } else {
                Direction::West
            };
            links.push(Link {
                from: TileId::from_xy(x, y),
                dir,
            });
            x = if to.x() > x { x + 1 } else { x - 1 };
        }
        while y != to.y() {
            let dir = if to.y() > y {
                Direction::North
            } else {
                Direction::South
            };
            links.push(Link {
                from: TileId::from_xy(x, y),
                dir,
            });
            y = if to.y() > y { y + 1 } else { y - 1 };
        }
        links
    }

    #[test]
    fn route_matches_the_vec_walk_for_every_tile_pair() {
        let mut longest = 0;
        for a in TileId::all() {
            for b in TileId::all() {
                let route = Route::xy(a, b);
                assert_eq!(*route, *vec_route(a, b), "{a} -> {b}");
                longest = longest.max(route.len());
            }
        }
        assert_eq!(longest, Route::MAX_HOPS);
    }

    #[test]
    fn xy_route_self_is_empty() {
        let t = TileId::from_xy(3, 2);
        assert!(xy_route(t, t).is_empty());
    }

    #[test]
    fn link_dense_indices_unique() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for t in TileId::all() {
            for dir in [
                Direction::East,
                Direction::West,
                Direction::North,
                Direction::South,
            ] {
                let l = Link { from: t, dir };
                assert!(l.dense_index() < Link::DENSE_COUNT);
                assert!(seen.insert(l.dense_index()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_id_bounds() {
        CoreId::new(48);
    }
}
