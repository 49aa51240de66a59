//! Property tests on the bus fabric: no segment-slot is ever double-booked,
//! delivery latency is exactly `distance × hop_latency`, and a rejected
//! reservation leaves no residue.

use proptest::prelude::*;
use rcmc_core::bus::BusFabric;
use rcmc_core::{CoreConfig, Topology};

fn cfg(n_clusters: usize, hop: u32, topology: Topology) -> CoreConfig {
    CoreConfig {
        n_clusters,
        hop_latency: hop,
        topology,
        regs_int: 64,
        regs_fp: 64,
        ..CoreConfig::default()
    }
}

/// External booking model: (absolute_cycle, segment) pairs must be unique.
#[derive(Default)]
struct Ledger {
    booked: std::collections::HashSet<(u64, usize)>,
}

impl Ledger {
    /// Record a granted path; panics on double booking.
    fn record(&mut self, now: u64, n: usize, hop: u32, from: usize, dist: u32) {
        let mut c = from;
        for j in 0..dist {
            let seg = c; // forward bus: segment leaving cluster c
            let t = now + (j * hop) as u64;
            assert!(
                self.booked.insert((t, seg)),
                "segment {seg} double-booked at cycle {t}"
            );
            c = (c + 1) % n;
        }
    }
}

proptest! {
    #[test]
    fn no_segment_slot_double_booking(
        reqs in prop::collection::vec((0usize..8, 1u32..8, prop::bool::ANY), 1..400),
        hop in 1u32..3,
    ) {
        let n = 8;
        let c = cfg(n, hop, Topology::Ring);
        let mut fabric = BusFabric::new(&c);
        let mut ledger = Ledger::default();
        let mut now = 0u64;
        for (from, dist, advance) in reqs {
            if let Some(delay) = fabric.buses[0].try_reserve(from, dist) {
                prop_assert_eq!(delay, dist * hop, "delay must be dist*hop");
                ledger.record(now, n, hop, from, dist);
            }
            if advance {
                fabric.tick();
                now += 1;
            }
        }
    }

    #[test]
    fn rejected_reservation_leaves_no_residue(
        from in 0usize..8,
        dist in 1u32..8,
    ) {
        let c = cfg(8, 1, Topology::Ring);
        let mut fabric = BusFabric::new(&c);
        // Block one mid-path segment by reserving a short hop from there.
        let mid = (from + (dist as usize - 1) / 2 + if dist > 1 {1} else {0}) % 8;
        if mid != from {
            // Occupy segment `mid` at offset 0.
            prop_assume!(fabric.buses[0].try_reserve(mid, 1).is_some());
        }
        let first_try = fabric.buses[0].try_reserve(from, dist);
        if first_try.is_none() {
            // The failed attempt must not have reserved anything: after the
            // conflicting slot expires, the same request succeeds.
            fabric.tick();
            prop_assert!(
                fabric.buses[0].try_reserve(from, dist).is_some(),
                "residue left by a rejected reservation"
            );
        }
    }

    #[test]
    fn conv_backward_bus_mirrors_forward(from in 0usize..8, dist in 1u32..8) {
        let c = cfg(8, 1, Topology::Conv);
        let mut two = BusFabric::new(&CoreConfig { n_buses: 2, ..c });
        // Forward and backward buses are independent: reserving the full
        // forward path never blocks the backward one.
        prop_assert!(two.buses[0].try_reserve(from, dist).is_some());
        prop_assert!(two.buses[1].try_reserve(from, dist).is_some());
    }

    #[test]
    fn saturation_and_drain(hop in 1u32..3) {
        // Fill the bus with wrap-around messages until rejection, then tick
        // until everything drains; afterwards every cluster can inject
        // again (one-hop messages from distinct clusters share no segment).
        let n = 8;
        let c = cfg(n, hop, Topology::Ring);
        let mut fabric = BusFabric::new(&c);
        let mut granted = 0;
        for from in 0..n {
            if fabric.buses[0].try_reserve(from, (n - 1) as u32).is_some() {
                granted += 1;
            }
        }
        prop_assert!(granted >= 1);
        for _ in 0..(n as u32 * hop + 2) {
            fabric.tick();
        }
        for from in 0..n {
            prop_assert!(fabric.buses[0].try_reserve(from, 1).is_some());
        }
    }
}
