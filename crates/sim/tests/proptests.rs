//! Property-based tests for the platform substrate.

use proptest::prelude::*;
use scc_sim::bucket::BucketedResource;
use scc_sim::dvfs::{DvfsState, FreqMHz, IslandId};
use scc_sim::topology::{xy_route, CoreId, TileId, MESH_H, MESH_W};
use scc_sim::SimTime;

fn arb_tile() -> impl Strategy<Value = TileId> {
    (0..MESH_W as u32, 0..MESH_H as u32).prop_map(|(x, y)| TileId::from_xy(x as u8, y as u8))
}

fn arb_freq() -> impl Strategy<Value = FreqMHz> {
    prop_oneof![
        Just(FreqMHz::F400),
        Just(FreqMHz::F533),
        Just(FreqMHz::F800)
    ]
}

proptest! {
    #[test]
    fn xy_routes_are_minimal_and_continuous(a in arb_tile(), b in arb_tile()) {
        let route = xy_route(a, b);
        prop_assert_eq!(route.len() as u8, a.hops_to(b));
        let mut cur = a;
        for link in &route {
            prop_assert_eq!(link.from, cur);
            cur = link.to();
        }
        prop_assert_eq!(cur, b);
    }

    #[test]
    fn xy_routes_turn_at_most_once(a in arb_tile(), b in arb_tile()) {
        // Dimension-ordered routing: all x-movement precedes y-movement.
        let route = xy_route(a, b);
        let mut seen_vertical = false;
        for link in &route {
            let vertical = link.from.x() == link.to().x();
            if seen_vertical {
                prop_assert!(vertical, "x-hop after y-hop breaks XY order");
            }
            seen_vertical |= vertical;
        }
    }

    #[test]
    fn bucket_bookings_never_finish_early(
        jobs in prop::collection::vec((0u64..100, 1u64..50, 0u64..5_000_000), 1..60),
        near_end in any::<bool>(),
    ) {
        // Near the end, starts fall within five buckets of `u64::MAX` ps,
        // where a booking that cannot finish completes at `SimTime::MAX`.
        let mut res = BucketedResource::new(SimTime::from_ms(1));
        let mut total = SimTime::ZERO;
        for (start_ms, service_ms, before_end_ns) in jobs {
            let start = if near_end {
                SimTime::MAX - SimTime::from_ns(before_end_ns)
            } else {
                SimTime::from_ms(start_ms)
            };
            let service = SimTime::from_ms(service_ms);
            let booking = res.book(start, service);
            prop_assert!(booking.completion >= start + service);
            prop_assert_eq!(booking.wait, booking.completion - (start + service));
            total += service;
        }
        prop_assert_eq!(res.total_busy(), total);
    }

    #[test]
    fn bucket_capacity_is_conserved(
        n in 1usize..30,
        service_us in 1u64..900,
    ) {
        // n identical overlapping jobs at t=0: the last completion must be
        // at least n * service (capacity 1) and the first exactly service.
        let mut res = BucketedResource::new(SimTime::from_ms(1));
        let service = SimTime::from_us(service_us);
        let completions: Vec<SimTime> = (0..n)
            .map(|_| res.book(SimTime::ZERO, service).completion)
            .collect();
        prop_assert_eq!(completions[0], service);
        prop_assert!(*completions.last().unwrap() >= service * n as u64);
    }

    #[test]
    fn island_voltage_is_max_of_members(
        settings in prop::collection::vec((0u8..24, arb_freq()), 0..24)
    ) {
        let mut dvfs = DvfsState::default();
        for (tile, freq) in &settings {
            dvfs.set_tile(TileId::new(*tile), *freq);
        }
        for island in IslandId::all() {
            let expect = island
                .tiles()
                .iter()
                .map(|t| dvfs.tile_freq(*t).required_volts())
                .fold(0.0, f64::max);
            prop_assert_eq!(dvfs.island_volts(island), expect);
        }
        // Collateral cores are exactly those whose own requirement is
        // below their island's supply.
        for c in dvfs.collateral_cores() {
            prop_assert!(dvfs.core_volts(c) > dvfs.core_freq(c).required_volts());
        }
    }

    #[test]
    fn chip_power_monotone_in_busy_set(
        busy_bits in prop::collection::vec(any::<bool>(), 48),
        extra in 0usize..48,
    ) {
        use scc_sim::power::PowerConfig;
        let cfg = PowerConfig::default();
        let dvfs = DvfsState::default();
        let mut busy = [false; 48];
        for (i, b) in busy_bits.iter().enumerate() {
            busy[i] = *b;
        }
        let p1 = cfg.chip_power(&dvfs, &busy);
        let mut more = busy;
        more[extra] = true;
        let p2 = cfg.chip_power(&dvfs, &more);
        prop_assert!(p2 >= p1 - 1e-12, "adding a busy core reduced power");
    }

    #[test]
    fn quadrant_mc_is_nearest_corner(tile in arb_tile()) {
        let mc = tile.memory_controller();
        let my_dist = tile.hops_to(mc.attach_tile());
        for other in scc_sim::McId::all() {
            prop_assert!(
                my_dist <= tile.hops_to(other.attach_tile()),
                "{} should be served by its nearest corner", tile
            );
        }
    }

    #[test]
    fn core_tile_inverse(core_id in 0u8..48) {
        let core = CoreId::new(core_id);
        let tile = core.tile();
        prop_assert!(tile.cores().contains(&core));
    }
}
