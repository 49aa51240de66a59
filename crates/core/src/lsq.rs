//! Load/store queue with conservative disambiguation and store→load
//! forwarding.
//!
//! Model (identical for both architectures; the D-cache is centralized and
//! equidistant from all clusters, §3.3):
//!
//! * loads/stores compute their address on an integer ALU in their cluster,
//!   then spend 1 cycle in transit to the LSQ/D-cache;
//! * a load may access memory once every **older** store's address is known;
//! * if the youngest older store with a matching (8-byte) address has its
//!   data, the load forwards from it in 1 cycle instead of accessing the
//!   cache;
//! * stores write the cache when they drain from the committed-store buffer.
//!
//! Layout: entries live in a slab addressed by [`LsqId`] (ROB entries hold
//! these ids), and two age-ordered index lists keep the per-cycle work
//! proportional to the loads actually waiting rather than to the slab:
//!
//! * `stores` — every live store, oldest first. Stores are allocated in
//!   program order and released at commit, also in program order, so they
//!   push at the back and leave from the front. The first listed store
//!   whose address is unknown is the disambiguation barrier; `known` counts
//!   the stores in front of it.
//! * `waiting` — loads whose address is known but which have not started,
//!   sorted by `seq`. A load enters in [`Lsq::load_addr_known`] and leaves
//!   exactly when it starts.
//!
//! [`Lsq::start_loads_into`], [`Lsq::would_start_any`] and
//! [`Lsq::next_arrival_after`] share one eligibility walk (the waiting
//! loads older than the barrier) and one per-load start decision, so the
//! read-only probes cannot drift from the mutating stage.

use std::collections::VecDeque;

/// Slab index of an LSQ entry.
pub type LsqId = u32;

/// Sentinel for "no LSQ entry".
pub const NO_LSQ: LsqId = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Entry {
    live: bool,
    is_store: bool,
    /// Program-order sequence (dispatch order).
    seq: u64,
    rob: u32,
    addr: u64,
    addr_known: bool,
    /// Stores: data operand read (stores issue with both operands ready, so
    /// this is set together with `addr_known`).
    data_ready: bool,
    /// Loads: cycle at which the request is present at the LSQ.
    arrival: u64,
}

/// What a started load will do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadKind {
    /// Forwarded from an in-flight store (no cache port used).
    Forward,
    /// Cache access (consumes a D-cache port; latency decided by the cache).
    Cache,
}

/// A load that started this cycle.
#[derive(Clone, Copy, Debug)]
pub struct StartedLoad {
    /// LSQ slab id.
    pub id: LsqId,
    /// ROB index of the load.
    pub rob: u32,
    /// Effective address.
    pub addr: u64,
    /// Forward or cache access.
    pub kind: LoadKind,
}

/// The queue.
pub struct Lsq {
    slab: Vec<Entry>,
    free: Vec<LsqId>,
    live: usize,
    capacity: usize,
    transfer: u64,
    /// Live stores, oldest first.
    stores: VecDeque<LsqId>,
    /// Leading `stores` whose address is known; `stores[known]`, if any,
    /// is the barrier.
    known: usize,
    /// `(seq, id)` of the loads in the waiting phase, oldest first.
    waiting: Vec<(u64, LsqId)>,
}

impl Lsq {
    /// `capacity` entries; `transfer` = one-way cluster↔LSQ latency.
    pub fn new(capacity: usize, transfer: u64) -> Self {
        Lsq {
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            live: 0,
            capacity,
            transfer,
            stores: VecDeque::with_capacity(capacity),
            known: 0,
            waiting: Vec::with_capacity(capacity),
        }
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Space for one more?
    pub fn has_space(&self) -> bool {
        self.live < self.capacity
    }

    /// Allocate an entry at dispatch (program order = `seq`, increasing
    /// across calls).
    pub fn alloc(&mut self, is_store: bool, rob: u32, seq: u64) -> LsqId {
        assert!(self.has_space(), "LSQ overflow");
        self.live += 1;
        let e = Entry {
            live: true,
            is_store,
            seq,
            rob,
            addr: 0,
            addr_known: false,
            data_ready: false,
            arrival: 0,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slab[id as usize] = e;
                id
            }
            None => {
                self.slab.push(e);
                (self.slab.len() - 1) as LsqId
            }
        };
        if is_store {
            debug_assert!(self
                .stores
                .back()
                .is_none_or(|&s| self.slab[s as usize].seq < seq));
            self.stores.push_back(id);
        }
        id
    }

    /// Load AGU completed at `now`: address becomes known; the request
    /// reaches the LSQ after the transfer latency.
    pub fn load_addr_known(&mut self, id: LsqId, addr: u64, now: u64) {
        let e = &mut self.slab[id as usize];
        debug_assert!(e.live && !e.is_store && !e.addr_known);
        e.addr = addr;
        e.addr_known = true;
        e.arrival = now + self.transfer;
        let seq = e.seq;
        let at = self.waiting.partition_point(|&(s, _)| s < seq);
        self.waiting.insert(at, (seq, id));
    }

    /// Store issued (address + data read) at `now`.
    pub fn store_ready(&mut self, id: LsqId, addr: u64) {
        let e = &mut self.slab[id as usize];
        debug_assert!(e.live && e.is_store);
        e.addr = addr;
        e.addr_known = true;
        e.data_ready = true;
        self.advance_known();
    }

    /// Release an entry (load completion / store commit).
    pub fn release(&mut self, id: LsqId) {
        let e = &mut self.slab[id as usize];
        debug_assert!(e.live);
        e.live = false;
        if e.is_store {
            // Stores commit oldest first, and only once issued.
            debug_assert!(self.stores.front() == Some(&id) && self.known > 0);
            self.stores.pop_front();
            self.known -= 1;
        } else {
            debug_assert!(
                self.waiting.binary_search(&(e.seq, id)).is_err(),
                "load released before it started"
            );
        }
        self.live -= 1;
        self.free.push(id);
    }

    /// Extend `known` over stores whose address has become known.
    fn advance_known(&mut self) {
        while let Some(&s) = self.stores.get(self.known) {
            if !self.slab[s as usize].addr_known {
                break;
            }
            self.known += 1;
        }
    }

    /// Attempt to start waiting loads at `now`, oldest first, using at most
    /// `ports` cache ports (forwards are port-free). Returns the loads that
    /// started; the caller schedules their completions and decrements its
    /// port budget by the number of `Cache` kinds.
    pub fn start_loads(&mut self, now: u64, ports: u32) -> Vec<StartedLoad> {
        let mut out = Vec::new();
        self.start_loads_into(now, ports, &mut out);
        out
    }

    /// Allocation-free variant of [`Lsq::start_loads`]; appends to `started`.
    ///
    /// Walks the eligible prefix of `waiting` in age order, handing ports
    /// to cache accesses oldest first, and compacts the loads that started
    /// out of the list in place.
    pub fn start_loads_into(&mut self, now: u64, ports: u32, started: &mut Vec<StartedLoad>) {
        let mut ports_left = ports;
        let eligible = self.eligible().len();
        let mut kept = 0;
        for at in 0..eligible {
            let (seq, id) = self.waiting[at];
            match self.start_kind(id, now, ports_left) {
                Some(kind) => {
                    ports_left -= (kind == LoadKind::Cache) as u32;
                    let e = &self.slab[id as usize];
                    started.push(StartedLoad {
                        id,
                        rob: e.rob,
                        addr: e.addr,
                        kind,
                    });
                }
                None => {
                    self.waiting[kept] = (seq, id);
                    kept += 1;
                }
            }
        }
        self.waiting.drain(kept..eligible);
    }

    /// The waiting loads older than the barrier (the oldest store with an
    /// unknown address — the conservative disambiguation rule), oldest
    /// first. Every younger load is blocked.
    fn eligible(&self) -> &[(u64, LsqId)] {
        let barrier = self
            .stores
            .get(self.known)
            .map_or(u64::MAX, |&s| self.slab[s as usize].seq);
        &self.waiting[..self.waiting.partition_point(|&(seq, _)| seq < barrier)]
    }

    /// How the eligible load `id` starts at `now` with `ports` cache ports
    /// left, or `None` while it must wait (in transit, no port, or its
    /// forwarding store's data not ready).
    fn start_kind(&self, id: LsqId, now: u64, ports: u32) -> Option<LoadKind> {
        let e = &self.slab[id as usize];
        if e.arrival > now {
            return None;
        }
        // Every store older than an eligible load precedes the barrier, so
        // its address is known; the youngest one with a matching address
        // forwards.
        let older = self
            .stores
            .partition_point(|&s| self.slab[s as usize].seq < e.seq);
        match self
            .stores
            .range(..older)
            .rev()
            .find(|&&s| self.slab[s as usize].addr == e.addr)
        {
            Some(&s) => self.slab[s as usize]
                .data_ready
                .then_some(LoadKind::Forward),
            None => (ports > 0).then_some(LoadKind::Cache),
        }
    }

    /// Would [`Lsq::start_loads_into`]`(now, ports, ..)` start at least one
    /// load? Read-only probe over the same eligibility walk, used by the
    /// event-driven loop to decide whether the upcoming cycle is dead.
    ///
    /// Port-order detail: forwards are port-free, and if any cache-eligible
    /// unblocked load exists the oldest one gets a port whenever `ports > 0`
    /// — so existence doesn't depend on the seq-ordered port hand-out.
    /// A forward-blocked load needs no wake-up here: its store's data
    /// arrival is a `StoreReady` event, which wakes the core anyway.
    pub fn would_start_any(&self, now: u64, ports: u32) -> bool {
        self.eligible()
            .iter()
            .any(|&(_, id)| self.start_kind(id, now, ports).is_some())
    }

    /// Earliest in-transit arrival strictly after `now` among loads not
    /// blocked by the disambiguation barrier, or `None`. Barrier-blocked
    /// loads are deliberately excluded: the barrier only lifts when the
    /// blocking store issues, which is a `StoreReady` event the event-driven
    /// loop already wakes on.
    pub fn next_arrival_after(&self, now: u64) -> Option<u64> {
        self.eligible()
            .iter()
            .map(|&(_, id)| self.slab[id as usize].arrival)
            .filter(|&t| t > now)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn load_waits_for_older_store_address() {
        let mut l = Lsq::new(8, 1);
        let st = l.alloc(true, 0, 10);
        let ld = l.alloc(false, 1, 11);
        l.load_addr_known(ld, 0x100, 0);
        // Store address unknown: the load must not start.
        assert!(l.start_loads(5, 4).is_empty());
        l.store_ready(st, 0x200);
        // Different address: load goes to the cache.
        let s = l.start_loads(5, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].kind, LoadKind::Cache);
    }

    #[test]
    fn forwarding_from_matching_store() {
        let mut l = Lsq::new(8, 1);
        let st = l.alloc(true, 0, 10);
        let ld = l.alloc(false, 1, 11);
        l.store_ready(st, 0x100);
        l.load_addr_known(ld, 0x100, 0);
        let s = l.start_loads(5, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].kind, LoadKind::Forward);
    }

    #[test]
    fn forwards_from_youngest_matching_store() {
        let mut l = Lsq::new(8, 1);
        let st1 = l.alloc(true, 0, 10);
        let st2 = l.alloc(true, 1, 12);
        let ld = l.alloc(false, 2, 13);
        l.store_ready(st1, 0x100);
        l.store_ready(st2, 0x100);
        l.load_addr_known(ld, 0x100, 0);
        let s = l.start_loads(3, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].kind, LoadKind::Forward);
        let _ = (st1, st2);
    }

    #[test]
    fn younger_stores_do_not_block() {
        let mut l = Lsq::new(8, 1);
        let ld = l.alloc(false, 0, 10);
        let _st = l.alloc(true, 1, 11); // younger, address unknown
        l.load_addr_known(ld, 0x80, 0);
        let s = l.start_loads(4, 4);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn transfer_latency_delays_arrival() {
        let mut l = Lsq::new(8, 1);
        let ld = l.alloc(false, 0, 1);
        l.load_addr_known(ld, 0x40, 10); // arrives at 11
        assert!(l.start_loads(10, 4).is_empty());
        assert_eq!(l.start_loads(11, 4).len(), 1);
    }

    #[test]
    fn port_budget_limits_cache_loads() {
        let mut l = Lsq::new(16, 0);
        for k in 0..6 {
            let id = l.alloc(false, k, k as u64);
            l.load_addr_known(id, 0x1000 + 8 * k as u64, 0);
        }
        let s = l.start_loads(0, 4);
        assert_eq!(s.len(), 4, "only 4 D-cache ports");
        let s2 = l.start_loads(1, 4);
        assert_eq!(s2.len(), 2, "remaining loads start next cycle");
    }

    #[test]
    fn oldest_load_wins_ports() {
        let mut l = Lsq::new(8, 0);
        let young = l.alloc(false, 1, 20);
        let old = l.alloc(false, 0, 5);
        l.load_addr_known(young, 0x8, 0);
        l.load_addr_known(old, 0x10, 0);
        let s = l.start_loads(0, 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].id, old);
    }

    #[test]
    fn capacity_and_release() {
        let mut l = Lsq::new(2, 1);
        let a = l.alloc(false, 0, 0);
        let _b = l.alloc(true, 1, 1);
        assert!(!l.has_space());
        l.release(a);
        assert!(l.has_space());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn would_start_any_mirrors_start_loads() {
        // Every eligibility rule, probed read-only before the mutating call.
        let mut l = Lsq::new(8, 1);
        assert!(!l.would_start_any(0, 4), "empty queue");
        let st = l.alloc(true, 0, 10);
        let ld = l.alloc(false, 1, 11);
        l.load_addr_known(ld, 0x100, 0); // arrives at 1
        assert!(!l.would_start_any(0, 4), "still in transit");
        assert!(!l.would_start_any(5, 4), "blocked by unknown store address");
        l.store_ready(st, 0x200);
        assert!(l.would_start_any(5, 4), "barrier lifted, cache access");
        assert!(!l.would_start_any(5, 0), "no ports, no cache access");
        // A matching store makes it a port-free forward.
        let mut l2 = Lsq::new(8, 0);
        let st2 = l2.alloc(true, 0, 1);
        let ld2 = l2.alloc(false, 1, 2);
        l2.store_ready(st2, 0x40);
        l2.load_addr_known(ld2, 0x40, 0);
        assert!(l2.would_start_any(0, 0), "forwards need no port");
        let mut out = Vec::new();
        l2.start_loads_into(0, 0, &mut out);
        assert_eq!(out.len(), 1);
        assert!(!l2.would_start_any(1, 4), "started load must not re-report");
    }

    #[test]
    fn next_arrival_skips_barrier_blocked_loads() {
        let mut l = Lsq::new(8, 5);
        assert_eq!(l.next_arrival_after(0), None);
        let _st = l.alloc(true, 0, 10); // address unknown: barrier at seq 10
        let ld_blocked = l.alloc(false, 1, 11);
        l.load_addr_known(ld_blocked, 0x8, 0); // arrives at 5, but blocked
        assert_eq!(
            l.next_arrival_after(0),
            None,
            "barrier-blocked arrivals must not wake the core"
        );
        let mut l2 = Lsq::new(8, 5);
        let a = l2.alloc(false, 0, 1);
        let b = l2.alloc(false, 1, 2);
        l2.load_addr_known(a, 0x8, 10); // arrives 15
        l2.load_addr_known(b, 0x10, 3); // arrives 8
        assert_eq!(l2.next_arrival_after(4), Some(8), "earliest future arrival");
        assert_eq!(l2.next_arrival_after(8), Some(15), "strictly-after filter");
        assert_eq!(l2.next_arrival_after(20), None);
    }

    #[test]
    fn forward_blocked_until_store_data_ready() {
        // A store whose address is known via... in our model address+data
        // become known together, so an addr-matching store always forwards.
        // Verify the load starts exactly once (no double start).
        let mut l = Lsq::new(8, 0);
        let st = l.alloc(true, 0, 1);
        let ld = l.alloc(false, 1, 2);
        l.store_ready(st, 0x100);
        l.load_addr_known(ld, 0x100, 0);
        assert_eq!(l.start_loads(0, 4).len(), 1);
        assert!(
            l.start_loads(1, 4).is_empty(),
            "started load must not restart"
        );
    }

    /// Reference model: the scan-based queue the indexed one replaced. It
    /// rescans the whole slab for the barrier, the candidates and each
    /// candidate's forwarding store; the differential test below holds the
    /// indexed queue to its outputs.
    mod reference {
        use super::super::{LoadKind, LsqId, StartedLoad};

        #[derive(Clone, Copy, Debug, PartialEq)]
        enum LoadPhase {
            WaitAddr,
            Waiting,
            Started,
        }

        #[derive(Clone, Copy, Debug)]
        struct Entry {
            live: bool,
            is_store: bool,
            seq: u64,
            rob: u32,
            addr: u64,
            addr_known: bool,
            data_ready: bool,
            phase: LoadPhase,
            arrival: u64,
        }

        pub struct ScanLsq {
            slab: Vec<Entry>,
            free: Vec<LsqId>,
            live: usize,
            capacity: usize,
            transfer: u64,
        }

        impl ScanLsq {
            pub fn new(capacity: usize, transfer: u64) -> Self {
                ScanLsq {
                    slab: Vec::new(),
                    free: Vec::new(),
                    live: 0,
                    capacity,
                    transfer,
                }
            }

            pub fn len(&self) -> usize {
                self.live
            }

            pub fn has_space(&self) -> bool {
                self.live < self.capacity
            }

            pub fn alloc(&mut self, is_store: bool, rob: u32, seq: u64) -> LsqId {
                assert!(self.has_space(), "LSQ overflow");
                self.live += 1;
                let e = Entry {
                    live: true,
                    is_store,
                    seq,
                    rob,
                    addr: 0,
                    addr_known: false,
                    data_ready: false,
                    phase: LoadPhase::WaitAddr,
                    arrival: 0,
                };
                match self.free.pop() {
                    Some(id) => {
                        self.slab[id as usize] = e;
                        id
                    }
                    None => {
                        self.slab.push(e);
                        (self.slab.len() - 1) as LsqId
                    }
                }
            }

            pub fn load_addr_known(&mut self, id: LsqId, addr: u64, now: u64) {
                let e = &mut self.slab[id as usize];
                e.addr = addr;
                e.addr_known = true;
                e.phase = LoadPhase::Waiting;
                e.arrival = now + self.transfer;
            }

            pub fn store_ready(&mut self, id: LsqId, addr: u64) {
                let e = &mut self.slab[id as usize];
                e.addr = addr;
                e.addr_known = true;
                e.data_ready = true;
            }

            pub fn release(&mut self, id: LsqId) {
                self.slab[id as usize].live = false;
                self.live -= 1;
                self.free.push(id);
            }

            fn unknown_barrier(&self) -> u64 {
                let unknown = self
                    .slab
                    .iter()
                    .filter(|s| s.live && s.is_store && !s.addr_known);
                unknown.map(|s| s.seq).min().unwrap_or(u64::MAX)
            }

            fn waiting_unblocked(&self, i: usize, barrier: u64) -> bool {
                let e = &self.slab[i];
                e.live && !e.is_store && e.phase == LoadPhase::Waiting && e.seq < barrier
            }

            /// Slab index of the youngest live store older than load `i`
            /// with the same address.
            fn forward_from(&self, i: usize) -> Option<usize> {
                let (seq, addr) = (self.slab[i].seq, self.slab[i].addr);
                let mut found: Option<usize> = None;
                let mut best_seq = 0u64;
                for (j, s) in self.slab.iter().enumerate() {
                    if s.live && s.is_store && s.seq < seq && s.addr == addr && s.seq >= best_seq {
                        best_seq = s.seq;
                        found = Some(j);
                    }
                }
                found
            }

            pub fn start_loads_into(&mut self, now: u64, ports: u32, out: &mut Vec<StartedLoad>) {
                let barrier = self.unknown_barrier();
                let mut cands: Vec<usize> = (0..self.slab.len())
                    .filter(|&i| self.waiting_unblocked(i, barrier) && self.slab[i].arrival <= now)
                    .collect();
                cands.sort_unstable_by_key(|&i| self.slab[i].seq);
                let mut ports_left = ports;
                for i in cands {
                    let kind = match self.forward_from(i) {
                        Some(j) if self.slab[j].data_ready => LoadKind::Forward,
                        Some(_) => continue,
                        None if ports_left == 0 => continue,
                        None => {
                            ports_left -= 1;
                            LoadKind::Cache
                        }
                    };
                    self.slab[i].phase = LoadPhase::Started;
                    let (rob, addr) = (self.slab[i].rob, self.slab[i].addr);
                    out.push(StartedLoad {
                        id: i as LsqId,
                        rob,
                        addr,
                        kind,
                    });
                }
            }

            pub fn would_start_any(&self, now: u64, ports: u32) -> bool {
                let barrier = self.unknown_barrier();
                (0..self.slab.len()).any(|i| {
                    self.waiting_unblocked(i, barrier)
                        && self.slab[i].arrival <= now
                        && match self.forward_from(i) {
                            Some(j) => self.slab[j].data_ready,
                            None => ports > 0,
                        }
                })
            }

            pub fn next_arrival_after(&self, now: u64) -> Option<u64> {
                let barrier = self.unknown_barrier();
                (0..self.slab.len())
                    .filter(|&i| self.waiting_unblocked(i, barrier) && self.slab[i].arrival > now)
                    .map(|i| self.slab[i].arrival)
                    .min()
            }
        }
    }

    /// One live entry as the differential driver tracks it.
    #[derive(Clone, Copy, PartialEq)]
    enum Tracked {
        Store { issued: bool },
        Load { addr_known: bool, started: bool },
    }

    fn started_tuples(v: &[StartedLoad]) -> Vec<(LsqId, u32, u64, LoadKind)> {
        v.iter().map(|s| (s.id, s.rob, s.addr, s.kind)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random alloc / address / issue / release / start sequences,
        /// probing both queues after every step: identical ids, started
        /// loads (order, kind, port use), probes and occupancy.
        #[test]
        fn indexed_lsq_matches_scan_reference(
            ops in prop::collection::vec((0u8..6, 0u8..=255, 0u8..=255), 1..400),
            capacity in 4usize..24,
            transfer in 0u64..3,
        ) {
            let mut fast = Lsq::new(capacity, transfer);
            let mut slow = reference::ScanLsq::new(capacity, transfer);
            // Live entries in program order; stores commit from the front.
            let mut live: Vec<(LsqId, Tracked)> = Vec::new();
            let (mut now, mut seq, mut rob) = (0u64, 0u64, 0u32);
            // A four-address pool makes forwarding common.
            let addr_of = |b: u8| 0x100 + 8 * (b % 4) as u64;
            for (op, a, b) in ops {
                match op {
                    0 if fast.has_space() => {
                        seq += 1 + (b % 3) as u64;
                        rob += 1;
                        let is_store = a % 2 == 0;
                        let id = fast.alloc(is_store, rob, seq);
                        prop_assert_eq!(id, slow.alloc(is_store, rob, seq), "slab ids diverged");
                        let t = if is_store {
                            Tracked::Store { issued: false }
                        } else {
                            Tracked::Load { addr_known: false, started: false }
                        };
                        live.push((id, t));
                    }
                    1 | 2 => {
                        // Loads compute addresses and stores issue out of order.
                        let want_store = op == 2;
                        let pending: Vec<usize> = (0..live.len())
                            .filter(|&k| match live[k].1 {
                                Tracked::Store { issued } => want_store && !issued,
                                Tracked::Load { addr_known, .. } => !want_store && !addr_known,
                            })
                            .collect();
                        if pending.is_empty() {
                            continue;
                        }
                        let k = pending[a as usize % pending.len()];
                        let id = live[k].0;
                        if want_store {
                            fast.store_ready(id, addr_of(b));
                            slow.store_ready(id, addr_of(b));
                            live[k].1 = Tracked::Store { issued: true };
                        } else {
                            fast.load_addr_known(id, addr_of(b), now);
                            slow.load_addr_known(id, addr_of(b), now);
                            live[k].1 = Tracked::Load { addr_known: true, started: false };
                        }
                    }
                    3 => {
                        // Commit the oldest store once it has issued, or
                        // complete any started load, as the core does.
                        let k = if a % 2 == 0 {
                            live.iter()
                                .position(|e| matches!(e.1, Tracked::Store { .. }))
                                .filter(|&k| live[k].1 == Tracked::Store { issued: true })
                        } else {
                            let done: Vec<usize> = (0..live.len())
                                .filter(|&k| matches!(live[k].1, Tracked::Load { started: true, .. }))
                                .collect();
                            (!done.is_empty()).then(|| done[b as usize % done.len()])
                        };
                        if let Some(k) = k {
                            let (id, _) = live.remove(k);
                            fast.release(id);
                            slow.release(id);
                        }
                    }
                    4 => {
                        let ports = (b % 5) as u32;
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        fast.start_loads_into(now, ports, &mut got);
                        slow.start_loads_into(now, ports, &mut want);
                        prop_assert_eq!(started_tuples(&got), started_tuples(&want));
                        for s in &got {
                            let k = live.iter().position(|e| e.0 == s.id).unwrap();
                            live[k].1 = Tracked::Load { addr_known: true, started: true };
                        }
                    }
                    _ => now += (a % 4) as u64,
                }
                prop_assert_eq!(fast.len(), slow.len());
                for ports in 0..3 {
                    prop_assert_eq!(
                        fast.would_start_any(now, ports),
                        slow.would_start_any(now, ports),
                        "would_start_any({}, {})", now, ports
                    );
                }
                prop_assert_eq!(fast.next_arrival_after(now), slow.next_arrival_after(now));
            }
        }
    }
}
