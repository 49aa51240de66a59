//! Golden pins for the `copy_release: on_read` ablation.
//!
//! Under [`CopyRelease::OnLastRead`] a non-home register copy is freed as
//! soon as its last dispatched reader (an instruction or a communication)
//! has issued, so the core keeps per-(value, cluster) reader counts. Under
//! the default policy nothing reads those counts and the core does not
//! keep them at all. These pins hold every counter of the on-read runs
//! fixed, so gating the accounting on the policy cannot change what the
//! ablation simulates.
//!
//! The rows were captured with MODEL_VERSION 5, before reader accounting
//! was gated on the policy. If a row moves, the timing model changed.

use rcmc_core::{CopyRelease, Core, Topology};
use rcmc_sim::config::make;
use rcmc_sim::runner::{cached_trace_via, Budget};

const BENCHES: [&str; 3] = ["gzip", "swim", "galgel"];

/// `Debug` rendering of the full measurement-window `Stats` for
/// `(topology, bench)` on an 8-cluster, 2-wide, 1-bus machine.
const PINS: &[(Topology, &str, &str)] = &[
    (Topology::Ring, "gzip", "Stats { cycles: 10209, committed: 4003, committed_fp: 0, committed_loads: 706, committed_stores: 0, committed_branches: 712, dispatched_per_cluster: [436, 591, 434, 557, 484, 528, 502, 526], comms_created: 1202, comms_issued: 1200, comm_distance: 2119, comm_bus_wait: 681, nready: 68, branches_seen: 720, branch_misses: 130, stalls: StallBreakdown { iq_full: 6, regs_full: 134, comm_full: 0, rob_full: 0, lsq_full: 0, store_buf_full: 0 }, issued_int: 4057, issued_fp: 0, store_forwards: 0, l1d_accesses: 716, l1d_misses: 400, l1i_misses: 0, l2_misses: 316 }"),
    (Topology::Ring, "swim", "Stats { cycles: 9158, committed: 4000, committed_fp: 1222, committed_loads: 1224, committed_stores: 306, committed_branches: 309, dispatched_per_cluster: [464, 609, 497, 504, 507, 488, 467, 464], comms_created: 286, comms_issued: 285, comm_distance: 609, comm_bus_wait: 170, nready: 308, branches_seen: 309, branch_misses: 4, stalls: StallBreakdown { iq_full: 0, regs_full: 1749, comm_full: 0, rob_full: 7109, lsq_full: 0, store_buf_full: 0 }, issued_int: 2775, issued_fp: 1222, store_forwards: 0, l1d_accesses: 1530, l1d_misses: 180, l1i_misses: 1, l2_misses: 91 }"),
    (Topology::Ring, "galgel", "Stats { cycles: 1170, committed: 4002, committed_fp: 1396, committed_loads: 1313, committed_stores: 12, committed_branches: 176, dispatched_per_cluster: [497, 510, 443, 451, 528, 525, 515, 500], comms_created: 1630, comms_issued: 1638, comm_distance: 3458, comm_bus_wait: 3227, nready: 545, branches_seen: 175, branch_misses: 12, stalls: StallBreakdown { iq_full: 0, regs_full: 551, comm_full: 0, rob_full: 59, lsq_full: 0, store_buf_full: 0 }, issued_int: 2591, issued_fp: 1400, store_forwards: 0, l1d_accesses: 1349, l1d_misses: 171, l1i_misses: 0, l2_misses: 57 }"),
    (Topology::Conv, "gzip", "Stats { cycles: 11995, committed: 4004, committed_fp: 0, committed_loads: 707, committed_stores: 0, committed_branches: 712, dispatched_per_cluster: [777, 2753, 349, 177, 2, 0, 0, 0], comms_created: 692, comms_issued: 692, comm_distance: 2056, comm_bus_wait: 794, nready: 736, branches_seen: 720, branch_misses: 130, stalls: StallBreakdown { iq_full: 1407, regs_full: 1386, comm_full: 0, rob_full: 0, lsq_full: 0, store_buf_full: 0 }, issued_int: 4057, issued_fp: 0, store_forwards: 0, l1d_accesses: 716, l1d_misses: 400, l1i_misses: 0, l2_misses: 316 }"),
    (Topology::Conv, "swim", "Stats { cycles: 10051, committed: 4000, committed_fp: 1222, committed_loads: 1224, committed_stores: 306, committed_branches: 309, dispatched_per_cluster: [1974, 162, 335, 573, 370, 303, 215, 154], comms_created: 1061, comms_issued: 1035, comm_distance: 3634, comm_bus_wait: 797, nready: 457, branches_seen: 316, branch_misses: 4, stalls: StallBreakdown { iq_full: 2008, regs_full: 7080, comm_full: 98, rob_full: 562, lsq_full: 0, store_buf_full: 0 }, issued_int: 2834, issued_fp: 1221, store_forwards: 0, l1d_accesses: 1530, l1d_misses: 180, l1i_misses: 1, l2_misses: 91 }"),
    (Topology::Conv, "galgel", "Stats { cycles: 2004, committed: 4001, committed_fp: 1396, committed_loads: 1313, committed_stores: 12, committed_branches: 176, dispatched_per_cluster: [347, 833, 604, 578, 682, 346, 303, 301], comms_created: 1735, comms_issued: 1780, comm_distance: 7086, comm_bus_wait: 4548, nready: 299, branches_seen: 174, branch_misses: 12, stalls: StallBreakdown { iq_full: 169, regs_full: 565, comm_full: 843, rob_full: 0, lsq_full: 0, store_buf_full: 0 }, issued_int: 2646, issued_fp: 1411, store_forwards: 0, l1d_accesses: 1354, l1d_misses: 171, l1i_misses: 0, l2_misses: 57 }"),
    (Topology::Crossbar, "gzip", "Stats { cycles: 10222, committed: 4003, committed_fp: 0, committed_loads: 706, committed_stores: 0, committed_branches: 712, dispatched_per_cluster: [674, 800, 561, 485, 442, 353, 340, 403], comms_created: 1639, comms_issued: 1635, comm_distance: 1635, comm_bus_wait: 1520, nready: 101, branches_seen: 720, branch_misses: 130, stalls: StallBreakdown { iq_full: 7, regs_full: 175, comm_full: 0, rob_full: 0, lsq_full: 0, store_buf_full: 0 }, issued_int: 4057, issued_fp: 0, store_forwards: 0, l1d_accesses: 716, l1d_misses: 400, l1i_misses: 0, l2_misses: 316 }"),
    (Topology::Crossbar, "swim", "Stats { cycles: 9749, committed: 4000, committed_fp: 1222, committed_loads: 1224, committed_stores: 306, committed_branches: 309, dispatched_per_cluster: [532, 549, 541, 533, 428, 432, 457, 518], comms_created: 1840, comms_issued: 1826, comm_distance: 1826, comm_bus_wait: 1237, nready: 499, branches_seen: 308, branch_misses: 4, stalls: StallBreakdown { iq_full: 8, regs_full: 3916, comm_full: 3540, rob_full: 1851, lsq_full: 0, store_buf_full: 0 }, issued_int: 2763, issued_fp: 1222, store_forwards: 0, l1d_accesses: 1530, l1d_misses: 180, l1i_misses: 1, l2_misses: 91 }"),
    (Topology::Crossbar, "galgel", "Stats { cycles: 1228, committed: 3998, committed_fp: 1395, committed_loads: 1312, committed_stores: 12, committed_branches: 176, dispatched_per_cluster: [546, 579, 468, 502, 531, 437, 500, 492], comms_created: 2416, comms_issued: 2402, comm_distance: 2402, comm_bus_wait: 3137, nready: 303, branches_seen: 177, branch_misses: 12, stalls: StallBreakdown { iq_full: 2, regs_full: 396, comm_full: 326, rob_full: 0, lsq_full: 0, store_buf_full: 0 }, issued_int: 2617, issued_fp: 1405, store_forwards: 0, l1d_accesses: 1348, l1d_misses: 171, l1i_misses: 0, l2_misses: 57 }"),
];

#[test]
fn on_read_release_matches_pinned_stats() {
    let budget = Budget {
        warmup: 1_000,
        measure: 4_000,
    };
    let mut seen = 0;
    for topology in [Topology::Ring, Topology::Conv, Topology::Crossbar] {
        for bench in BENCHES {
            let mut cfg = make(topology, 8, 2, 1);
            cfg.core.copy_release = CopyRelease::OnLastRead;
            // In memory only: this suite leaves the default trace store alone.
            let trace = cached_trace_via(bench, budget.trace_len(), None);
            let mut core = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
            let got = format!("{:?}", core.run_with_warmup(budget.warmup, budget.measure));
            let pin = PINS
                .iter()
                .find(|(t, b, _)| *t == topology && *b == bench)
                .map(|(_, _, s)| *s);
            assert_eq!(pin, Some(got.as_str()), "{} × {bench}", cfg.name);
            seen += 1;
        }
    }
    assert_eq!(seen, PINS.len(), "every pin is exercised");
}
