//! Frequency / voltage scaling model.
//!
//! On the SCC, frequency is settable per tile while voltage is supplied per
//! 2×2-tile *island* (six islands of eight cores). Raising one core's
//! frequency therefore drags its whole island to the higher voltage — the
//! exact inefficiency the paper runs into in §VI-D ("more cores consume a
//! higher amount of energy than necessary", Figure 18).

use crate::topology::{CoreId, TileId, MESH_H, MESH_W, NUM_TILES};

/// Supported core frequencies (MHz). The RCCE API exposes steps between
/// 400 and 1198 MHz; the paper uses exactly these three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FreqMHz {
    F400,
    F533,
    F800,
}

impl FreqMHz {
    pub const fn mhz(self) -> u32 {
        match self {
            FreqMHz::F400 => 400,
            FreqMHz::F533 => 533,
            FreqMHz::F800 => 800,
        }
    }

    pub const fn hz(self) -> u64 {
        self.mhz() as u64 * 1_000_000
    }

    /// Minimum supply voltage required to run at this frequency (volts),
    /// per the paper: 0.7 V up to 400 MHz, 1.1 V for 533 MHz, 1.3 V for
    /// 800 MHz.
    pub const fn required_volts(self) -> f64 {
        match self {
            FreqMHz::F400 => 0.7,
            FreqMHz::F533 => 1.1,
            FreqMHz::F800 => 1.3,
        }
    }

    pub fn all() -> [FreqMHz; 3] {
        [FreqMHz::F400, FreqMHz::F533, FreqMHz::F800]
    }
}

/// One of the six 2×2-tile voltage islands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IslandId(u8);

/// Islands per row / column of the island grid.
pub const ISLAND_W: u8 = MESH_W / 2;
pub const ISLAND_H: u8 = MESH_H / 2;
pub const NUM_ISLANDS: u8 = ISLAND_W * ISLAND_H;

impl IslandId {
    pub fn new(id: u8) -> IslandId {
        assert!(id < NUM_ISLANDS, "island id {id} out of range");
        IslandId(id)
    }

    pub fn of_tile(tile: TileId) -> IslandId {
        IslandId((tile.y() / 2) * ISLAND_W + tile.x() / 2)
    }

    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The four tiles of this island.
    pub fn tiles(self) -> [TileId; 4] {
        let bx = (self.0 % ISLAND_W) * 2;
        let by = (self.0 / ISLAND_W) * 2;
        [
            TileId::from_xy(bx, by),
            TileId::from_xy(bx + 1, by),
            TileId::from_xy(bx, by + 1),
            TileId::from_xy(bx + 1, by + 1),
        ]
    }

    pub fn all() -> impl Iterator<Item = IslandId> {
        (0..NUM_ISLANDS).map(IslandId)
    }
}

/// The chip-wide DVFS state: one frequency per tile, voltages derived per
/// island as the minimum that supports the island's fastest tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DvfsState {
    tile_freq: [FreqMHz; NUM_TILES as usize],
}

impl Default for DvfsState {
    /// The paper's default operating point: everything at 533 MHz / 1.1 V.
    fn default() -> Self {
        DvfsState {
            tile_freq: [FreqMHz::F533; NUM_TILES as usize],
        }
    }
}

impl DvfsState {
    pub fn uniform(freq: FreqMHz) -> Self {
        DvfsState {
            tile_freq: [freq; NUM_TILES as usize],
        }
    }

    pub fn set_tile(&mut self, tile: TileId, freq: FreqMHz) {
        self.tile_freq[tile.index()] = freq;
    }

    /// Set the frequency of the tile hosting `core` (both of its cores are
    /// affected — tiles share a clock).
    pub fn set_core_tile(&mut self, core: CoreId, freq: FreqMHz) {
        self.set_tile(core.tile(), freq);
    }

    pub fn tile_freq(&self, tile: TileId) -> FreqMHz {
        self.tile_freq[tile.index()]
    }

    pub fn core_freq(&self, core: CoreId) -> FreqMHz {
        self.tile_freq(core.tile())
    }

    /// Supply voltage of an island: the requirement of its fastest tile.
    pub fn island_volts(&self, island: IslandId) -> f64 {
        island
            .tiles()
            .iter()
            .map(|t| self.tile_freq(*t).required_volts())
            .fold(0.0, f64::max)
    }

    pub fn core_volts(&self, core: CoreId) -> f64 {
        self.island_volts(IslandId::of_tile(core.tile()))
    }

    /// Cores that pay a raised voltage without having asked for the higher
    /// frequency — the collateral the paper complains about.
    pub fn collateral_cores(&self) -> Vec<CoreId> {
        CoreId::all()
            .filter(|c| {
                let v = self.core_volts(*c);
                v > self.core_freq(*c).required_volts() + 1e-9
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_voltage_pairs() {
        assert_eq!(FreqMHz::F400.required_volts(), 0.7);
        assert_eq!(FreqMHz::F533.required_volts(), 1.1);
        assert_eq!(FreqMHz::F800.required_volts(), 1.3);
        assert_eq!(FreqMHz::F533.hz(), 533_000_000);
    }

    #[test]
    fn island_partition_covers_die_exactly() {
        use std::collections::HashSet;
        assert_eq!(NUM_ISLANDS, 6);
        let mut seen = HashSet::new();
        for isl in IslandId::all() {
            for t in isl.tiles() {
                assert_eq!(IslandId::of_tile(t), isl);
                assert!(seen.insert(t), "{t} in two islands");
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn default_is_533_everywhere() {
        let d = DvfsState::default();
        for c in CoreId::all() {
            assert_eq!(d.core_freq(c), FreqMHz::F533);
            assert!((d.core_volts(c) - 1.1).abs() < 1e-12);
        }
        assert!(d.collateral_cores().is_empty());
    }

    #[test]
    fn raising_one_tile_raises_the_whole_island() {
        let mut d = DvfsState::default();
        let blur_tile = TileId::from_xy(2, 1);
        d.set_tile(blur_tile, FreqMHz::F800);
        let isl = IslandId::of_tile(blur_tile);
        assert!((d.island_volts(isl) - 1.3).abs() < 1e-12);
        // The island's three other tiles pay 1.3 V at 533 MHz.
        let collateral = d.collateral_cores();
        assert_eq!(collateral.len(), 6, "3 collateral tiles x 2 cores");
        for c in &collateral {
            assert_eq!(d.core_freq(*c), FreqMHz::F533);
            assert!((d.core_volts(*c) - 1.3).abs() < 1e-12);
        }
    }

    #[test]
    fn lowering_an_island_drops_voltage() {
        let mut d = DvfsState::default();
        let isl = IslandId::new(0);
        for t in isl.tiles() {
            d.set_tile(t, FreqMHz::F400);
        }
        assert!((d.island_volts(isl) - 0.7).abs() < 1e-12);
        // Other islands unaffected.
        assert!((d.island_volts(IslandId::new(1)) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn mixed_island_uses_max_requirement() {
        let mut d = DvfsState::uniform(FreqMHz::F400);
        let isl = IslandId::new(3);
        d.set_tile(isl.tiles()[0], FreqMHz::F800);
        assert!((d.island_volts(isl) - 1.3).abs() < 1e-12);
        d.set_tile(isl.tiles()[0], FreqMHz::F533);
        assert!((d.island_volts(isl) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn set_core_tile_affects_sibling() {
        let mut d = DvfsState::default();
        let c = CoreId::new(10);
        d.set_core_tile(c, FreqMHz::F800);
        let sibling = CoreId::new(11);
        assert_eq!(d.core_freq(sibling), FreqMHz::F800, "tiles share a clock");
    }
}
