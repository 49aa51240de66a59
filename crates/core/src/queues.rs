//! Per-cluster issue queues and communication queues.
//!
//! Wakeup is modelled as a tag broadcast: when a value becomes ready in a
//! cluster, every queue entry in that cluster waiting on it clears the
//! matching source. Selection is oldest-first among ready entries, as in the
//! paper's baseline.
//!
//! The issue queue is built so that neither operation costs more than the
//! entries it touches:
//!
//! * **Stable slots, age-ordered list.** An entry keeps its storage slot
//!   from dispatch until it issues. A separate list holds the occupied slots
//!   oldest first; dispatch appends, so push order is age order. Selection
//!   is one pass down that list that issues in place and closes the gaps
//!   behind it, and it stops once every ready entry has been offered.
//! * **Intrusive waiter chains.** Each value id heads a singly linked chain
//!   of the `(slot, operand)` pairs that wait on it: one `u32` head per
//!   value id and one link word per operand of each slot. A broadcast walks
//!   and empties exactly one chain. Only waiting entries are ever linked,
//!   and a waiting entry never issues, so no removal has to unlink anything.
//! * **Maintained counts.** Ready entries are counted in total and per
//!   functional-unit kind as they become ready and issue, so the
//!   select-skip test and NREADY sampling never scan entries.

use rcmc_isa::InsnClass;

use crate::value::ValueId;

/// One issue-queue entry (an in-flight, not-yet-issued instruction).
#[derive(Clone, Copy, Debug)]
pub struct IqEntry {
    /// Global dispatch sequence number (age ordering).
    pub seq: u64,
    /// ROB index.
    pub rob: u32,
    /// Index into the dynamic trace (for execution metadata).
    pub trace_idx: u32,
    /// Behavioural class (selects FU and latency).
    pub class: InsnClass,
    /// Source values still being waited on (`None` = slot unused/ready).
    pub waits: [Option<ValueId>; 2],
    /// Values read by this instruction (for OnLastRead reader accounting).
    pub reads: [Option<ValueId>; 2],
}

impl IqEntry {
    /// Ready to issue?
    #[inline]
    pub fn ready(&self) -> bool {
        self.waits[0].is_none() && self.waits[1].is_none()
    }
}

/// End of a waiter chain.
const NIL: u32 = u32::MAX;

/// A bounded, age-ordered issue queue (see the module docs).
pub struct IssueQueue {
    /// Entry storage. An entry keeps its slot from push until it issues.
    slots: Vec<IqEntry>,
    /// Occupied slots, oldest first.
    order: Vec<u32>,
    /// Vacated slots, reused before `slots` grows.
    free: Vec<u32>,
    capacity: usize,
    /// Ready entries currently in the queue.
    n_ready: usize,
    /// Ready entries per functional-unit kind, in [`fu_index`] order.
    ready_fu: [usize; 4],
    /// First waiter-chain node of each value id (`NIL`: nobody waits). Node
    /// `2 * slot + operand` stands for that operand of that slot.
    head: Vec<u32>,
    /// The node after each node in its chain.
    next: Vec<u32>,
}

impl IssueQueue {
    /// Queue with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        IssueQueue {
            slots: Vec::with_capacity(capacity),
            order: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            capacity,
            n_ready: 0,
            ready_fu: [0; 4],
            head: Vec::new(),
            next: Vec::with_capacity(2 * capacity),
        }
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Room for one more?
    pub fn has_space(&self) -> bool {
        self.order.len() < self.capacity
    }

    /// Entries oldest first.
    #[cfg(test)]
    pub fn entries(&self) -> impl Iterator<Item = &IqEntry> + '_ {
        self.order.iter().map(|&s| &self.slots[s as usize])
    }

    /// An entry of `class` became ready.
    #[inline]
    fn add_ready(&mut self, class: InsnClass) {
        self.n_ready += 1;
        if let Some(kind) = class.fu() {
            self.ready_fu[fu_index(kind)] += 1;
        }
    }

    /// A ready entry of `class` issued.
    #[inline]
    fn remove_ready(&mut self, class: InsnClass) {
        self.n_ready -= 1;
        if let Some(kind) = class.fu() {
            self.ready_fu[fu_index(kind)] -= 1;
        }
    }

    /// Insert at dispatch, as the youngest entry. Panics if full (caller
    /// checks `has_space`).
    pub fn push(&mut self, e: IqEntry) {
        assert!(self.has_space(), "issue queue overflow");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = e;
                slot
            }
            None => {
                self.slots.push(e);
                self.next.extend([NIL, NIL]);
                (self.slots.len() - 1) as u32
            }
        };
        for (operand, v) in e.waits.into_iter().enumerate() {
            let Some(v) = v else { continue };
            let v = v as usize;
            if v >= self.head.len() {
                self.head.resize(v + 1, NIL);
            }
            let node = 2 * slot + operand as u32;
            self.next[node as usize] = self.head[v];
            self.head[v] = node;
        }
        if e.ready() {
            self.add_ready(e.class);
        }
        self.order.push(slot);
    }

    /// Tag broadcast: value `v` became ready in this cluster. Walks and
    /// empties `v`'s waiter chain, touching only the entries that wait on it.
    pub fn wakeup(&mut self, v: ValueId) {
        let Some(head) = self.head.get_mut(v as usize) else {
            return;
        };
        let mut node = std::mem::replace(head, NIL);
        while node != NIL {
            let (slot, operand) = ((node / 2) as usize, (node % 2) as usize);
            let e = &mut self.slots[slot];
            debug_assert_eq!(e.waits[operand], Some(v), "stale waiter-chain node");
            e.waits[operand] = None;
            if e.ready() {
                let class = e.class;
                self.add_ready(class);
            }
            node = self.next[node as usize];
        }
    }

    /// Number of ready entries (NREADY accounting / selection fast path).
    #[inline]
    pub fn ready_count(&self) -> usize {
        self.n_ready
    }

    /// Add the ready entries per functional-unit kind to `out` (NREADY
    /// sampling). `out` is indexed by [`rcmc_isa::FuKind`] order:
    /// IntAlu, IntMulDiv, FpAlu, FpMulDiv.
    pub fn ready_by_fu(&self, out: &mut [usize; 4]) {
        for (o, k) in out.iter_mut().zip(self.ready_fu) {
            *o += k;
        }
    }

    /// Oldest-first selection, in place. Offers each ready entry, oldest
    /// first, to `start`, until `width` entries have issued or every ready
    /// entry has been offered. `start` returns true when the entry issues
    /// (its functional unit accepted it); issued entries leave the queue and
    /// the rest keep their age order. Returns the number issued.
    pub fn select(&mut self, width: usize, mut start: impl FnMut(&IqEntry) -> bool) -> usize {
        let (mut issued, mut offered) = (0, 0);
        let n_ready = self.n_ready;
        let (mut read, mut write) = (0, 0);
        while issued < width && offered < n_ready {
            let slot = self.order[read];
            read += 1;
            let e = &self.slots[slot as usize];
            if e.ready() {
                offered += 1;
                if start(e) {
                    issued += 1;
                    let class = e.class;
                    self.remove_ready(class);
                    self.free.push(slot);
                    continue;
                }
            }
            self.order[write] = slot;
            write += 1;
        }
        if write < read {
            self.order.copy_within(read.., write);
            self.order.truncate(self.order.len() - (read - write));
        }
        issued
    }
}

/// Dense index for [`rcmc_isa::FuKind`] (NREADY sampling).
#[inline]
pub fn fu_index(kind: rcmc_isa::FuKind) -> usize {
    match kind {
        rcmc_isa::FuKind::IntAlu => 0,
        rcmc_isa::FuKind::IntMulDiv => 1,
        rcmc_isa::FuKind::FpAlu => 2,
        rcmc_isa::FuKind::FpMulDiv => 3,
    }
}

/// One pending communication: copy `value` from `from` to `to`.
#[derive(Clone, Copy, Debug)]
pub struct CommOp {
    /// Age (dispatch sequence of the consumer that required it).
    pub seq: u64,
    /// Value to transport.
    pub value: ValueId,
    /// Source cluster (where a copy lives).
    pub from: u8,
    /// Destination cluster (consumer side, copy pre-allocated).
    pub to: u8,
    /// Value is ready at `from`?
    pub ready: bool,
    /// Cycle at which it became ready (bus-contention accounting).
    pub ready_cycle: u64,
}

/// Per-cluster communication queue (a small issue queue for [`CommOp`]s).
pub struct CommQueue {
    entries: Vec<CommOp>,
    capacity: usize,
    /// Ready comms currently queued (maintained, never scanned).
    n_ready: usize,
}

impl CommQueue {
    /// Queue with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        CommQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
            n_ready: 0,
        }
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Room for `n` more entries?
    pub fn has_space_for(&self, n: usize) -> bool {
        self.entries.len() + n <= self.capacity
    }

    /// Insert at dispatch.
    pub fn push(&mut self, op: CommOp) {
        assert!(self.has_space_for(1), "comm queue overflow");
        self.n_ready += usize::from(op.ready);
        self.entries.push(op);
    }

    /// The value became ready in this cluster: wake matching comms.
    pub fn wakeup(&mut self, v: ValueId, cycle: u64) {
        for e in &mut self.entries {
            if e.value == v && !e.ready {
                e.ready = true;
                e.ready_cycle = cycle;
                self.n_ready += 1;
            }
        }
    }

    /// Ready comms in age order.
    pub fn ready_ordered(&self) -> Vec<usize> {
        let mut idx = Vec::new();
        self.ready_into(&mut idx);
        idx
    }

    /// Allocation-free variant of [`CommQueue::ready_ordered`].
    pub fn ready_into(&self, out: &mut Vec<usize>) {
        out.clear();
        if self.n_ready == 0 {
            return;
        }
        out.extend((0..self.entries.len()).filter(|&i| self.entries[i].ready));
        debug_assert_eq!(out.len(), self.n_ready, "comm ready count out of sync");
        out.sort_unstable_by_key(|&i| self.entries[i].seq);
    }

    /// Ready comms queued (selection fast path).
    #[inline]
    pub fn ready_count(&self) -> usize {
        self.n_ready
    }

    /// Access.
    pub fn get(&self, i: usize) -> &CommOp {
        &self.entries[i]
    }

    /// Remove after bus grant.
    pub fn remove(&mut self, i: usize) -> CommOp {
        let op = self.entries.swap_remove(i);
        self.n_ready -= usize::from(op.ready);
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(seq: u64, waits: [Option<ValueId>; 2]) -> IqEntry {
        IqEntry {
            seq,
            rob: 0,
            trace_idx: 0,
            class: InsnClass::IntAlu,
            waits,
            reads: [None, None],
        }
    }

    #[test]
    fn wakeup_clears_matching_sources() {
        let mut q = IssueQueue::new(4);
        q.push(entry(0, [Some(7), Some(9)]));
        q.push(entry(1, [Some(9), None]));
        q.wakeup(9);
        let ready: Vec<bool> = q.entries().map(IqEntry::ready).collect();
        assert_eq!(ready, [false, true]);
        q.wakeup(7);
        assert!(q.entries().all(IqEntry::ready));
    }

    #[test]
    fn wakeup_clears_both_slots_same_value() {
        let mut q = IssueQueue::new(4);
        q.push(entry(0, [Some(5), Some(5)]));
        q.wakeup(5);
        assert_eq!(q.ready_count(), 1, "one entry, counted once");
        assert!(q.entries().all(IqEntry::ready));
    }

    /// Issue `width` entries the FU accepts, returning their `seq`s.
    fn select_seqs(q: &mut IssueQueue, width: usize) -> Vec<u64> {
        let mut seqs = Vec::new();
        q.select(width, |e| {
            seqs.push(e.seq);
            true
        });
        seqs
    }

    #[test]
    fn select_issues_oldest_first() {
        let mut q = IssueQueue::new(8);
        q.push(entry(2, [Some(1), None]));
        q.push(entry(5, [None, None]));
        q.push(entry(9, [None, None]));
        q.push(entry(11, [None, None]));
        q.wakeup(1);
        assert_eq!(select_seqs(&mut q, 2), [2, 5]);
        assert_eq!(select_seqs(&mut q, 8), [9, 11]);
    }

    #[test]
    fn capacity_enforced() {
        let mut q = IssueQueue::new(2);
        q.push(entry(0, [None, None]));
        assert!(q.has_space());
        q.push(entry(1, [None, None]));
        assert!(!q.has_space());
    }

    #[test]
    fn select_drains_issued_entries_and_keeps_denied_ones() {
        let mut q = IssueQueue::new(8);
        for s in 0..5 {
            q.push(entry(s, [None, None]));
        }
        // The FU turns down the odd entries; they stay, in age order.
        assert_eq!(q.select(8, |e| e.seq % 2 == 0), 3);
        assert_eq!(q.len(), 2);
        assert_eq!(q.ready_count(), 2);
        assert_eq!(select_seqs(&mut q, 8), [1, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn wakeup_finds_entries_after_older_ones_issue() {
        // Waiter chains name stable slots: issuing older entries must not
        // disturb them, a freed slot must be reusable, and a consumed
        // broadcast must be inert.
        let mut q = IssueQueue::new(8);
        q.push(entry(0, [None, None])); // ready
        q.push(entry(1, [Some(7), None]));
        q.push(entry(2, [None, None])); // ready
        q.push(entry(3, [Some(7), Some(8)]));
        assert_eq!(select_seqs(&mut q, 8), [0, 2]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.ready_count(), 0);
        q.push(entry(4, [Some(8), None])); // reuses a freed slot
        q.wakeup(7);
        assert_eq!(q.ready_count(), 1, "seq 1 ready; seq 3 still waits on 8");
        q.wakeup(7); // consumed broadcast: nothing left registered
        assert_eq!(q.ready_count(), 1);
        q.wakeup(8);
        assert_eq!(q.ready_count(), 3);
        assert_eq!(select_seqs(&mut q, 8), [1, 3, 4]);
    }

    #[test]
    fn ready_by_fu_counts_kinds() {
        let mut q = IssueQueue::new(8);
        q.push(entry(0, [None, None])); // IntAlu
        q.push(IqEntry {
            class: InsnClass::IntMul,
            ..entry(1, [None, None])
        });
        q.push(IqEntry {
            class: InsnClass::IntMul,
            ..entry(2, [Some(9), None])
        }); // not ready
        let mut counts = [0usize; 4];
        q.ready_by_fu(&mut counts);
        assert_eq!(counts, [1, 1, 0, 0]);
    }

    #[test]
    fn comm_queue_wakeup_records_cycle() {
        let mut q = CommQueue::new(4);
        q.push(CommOp {
            seq: 0,
            value: 3,
            from: 1,
            to: 2,
            ready: false,
            ready_cycle: 0,
        });
        q.push(CommOp {
            seq: 1,
            value: 4,
            from: 1,
            to: 3,
            ready: false,
            ready_cycle: 0,
        });
        q.wakeup(3, 42);
        let r = q.ready_ordered();
        assert_eq!(r.len(), 1);
        assert_eq!(q.get(r[0]).ready_cycle, 42);
        // Waking again must not refresh the cycle.
        q.wakeup(3, 50);
        assert_eq!(q.get(r[0]).ready_cycle, 42);
    }

    #[test]
    fn issue_queue_ready_count_is_maintained() {
        let mut q = IssueQueue::new(8);
        assert_eq!(q.ready_count(), 0);
        q.push(entry(0, [Some(3), None]));
        assert_eq!(q.ready_count(), 0);
        q.push(entry(1, [None, None]));
        assert_eq!(q.ready_count(), 1);
        q.wakeup(3);
        assert_eq!(q.ready_count(), 2);
        q.wakeup(3); // idempotent: nothing newly ready
        assert_eq!(q.ready_count(), 2);
        assert_eq!(select_seqs(&mut q, 1), [0]);
        assert_eq!(q.ready_count(), 1);
        // The maintained count always matches a fresh scan.
        assert_eq!(q.ready_count(), q.entries().filter(|e| e.ready()).count());
    }

    #[test]
    fn comm_queue_ready_count_is_maintained() {
        let mut q = CommQueue::new(4);
        q.push(CommOp {
            seq: 0,
            value: 3,
            from: 0,
            to: 1,
            ready: true,
            ready_cycle: 0,
        });
        q.push(CommOp {
            seq: 1,
            value: 4,
            from: 0,
            to: 2,
            ready: false,
            ready_cycle: 0,
        });
        assert_eq!(q.ready_count(), 1);
        q.wakeup(4, 9);
        assert_eq!(q.ready_count(), 2);
        q.remove(0);
        assert_eq!(q.ready_count(), 1);
        assert_eq!(q.ready_count(), q.ready_ordered().len());
    }

    #[test]
    fn comm_queue_space_accounting() {
        let mut q = CommQueue::new(2);
        assert!(q.has_space_for(2));
        assert!(!q.has_space_for(3));
        q.push(CommOp {
            seq: 0,
            value: 1,
            from: 0,
            to: 1,
            ready: true,
            ready_cycle: 0,
        });
        assert!(q.has_space_for(1));
        assert!(!q.has_space_for(2));
    }

    /// Reference model: the wait-list queue the slot-and-chain one
    /// replaced. Entries live in a dense `Vec` moved by `swap_remove`,
    /// selection collects the ready indices and sorts them by `seq`, and
    /// each value id owns a `Vec` of waiting entry indices that removals
    /// repoint. The differential test below holds the production queue to
    /// its outputs.
    mod reference {
        use super::super::{fu_index, IqEntry};
        use crate::value::ValueId;

        pub struct IssueQueue {
            entries: Vec<IqEntry>,
            capacity: usize,
            n_ready: usize,
            waiters: Vec<Vec<u32>>,
        }

        impl IssueQueue {
            pub fn new(capacity: usize) -> Self {
                IssueQueue {
                    entries: Vec::with_capacity(capacity),
                    capacity,
                    n_ready: 0,
                    waiters: Vec::new(),
                }
            }

            pub fn len(&self) -> usize {
                self.entries.len()
            }

            pub fn has_space(&self) -> bool {
                self.entries.len() < self.capacity
            }

            pub fn push(&mut self, e: IqEntry) {
                assert!(self.has_space(), "issue queue overflow");
                self.n_ready += usize::from(e.ready());
                let idx = self.entries.len() as u32;
                for v in e.waits.into_iter().flatten() {
                    let slot = v as usize;
                    if slot >= self.waiters.len() {
                        self.waiters.resize_with(slot + 1, Vec::new);
                    }
                    self.waiters[slot].push(idx);
                }
                self.entries.push(e);
            }

            pub fn wakeup(&mut self, v: ValueId) {
                let Some(list) = self.waiters.get_mut(v as usize) else {
                    return;
                };
                let list = std::mem::take(list);
                for &idx in &list {
                    let e = &mut self.entries[idx as usize];
                    let was_ready = e.ready();
                    for w in &mut e.waits {
                        if *w == Some(v) {
                            *w = None;
                        }
                    }
                    self.n_ready += usize::from(!was_ready && e.ready());
                }
            }

            pub fn ready_into(&self, out: &mut Vec<usize>) {
                out.clear();
                out.extend((0..self.entries.len()).filter(|&i| self.entries[i].ready()));
                out.sort_unstable_by_key(|&i| self.entries[i].seq);
            }

            pub fn ready_count(&self) -> usize {
                self.n_ready
            }

            pub fn ready_by_fu(&self, out: &mut [usize; 4]) {
                for e in self.entries.iter().filter(|e| e.ready()) {
                    if let Some(kind) = e.class.fu() {
                        out[fu_index(kind)] += 1;
                    }
                }
            }

            pub fn get(&self, i: usize) -> &IqEntry {
                &self.entries[i]
            }

            pub fn remove_many(&mut self, idx: &mut Vec<usize>) {
                idx.sort_unstable_by(|a, b| b.cmp(a));
                for i in idx.drain(..) {
                    self.n_ready -= usize::from(self.entries[i].ready());
                    self.entries.swap_remove(i);
                    if i < self.entries.len() {
                        let old = self.entries.len() as u32;
                        let waits = self.entries[i].waits;
                        for v in waits.into_iter().flatten() {
                            for slot in &mut self.waiters[v as usize] {
                                if *slot == old {
                                    *slot = i as u32;
                                }
                            }
                        }
                    }
                }
            }

            /// The pipeline's former selection loop over `ready_into`.
            pub fn select(&mut self, width: usize, mut start: impl FnMut(&IqEntry) -> bool) {
                let mut ready = Vec::new();
                self.ready_into(&mut ready);
                let mut issued = Vec::new();
                for idx in ready {
                    if issued.len() == width {
                        break;
                    }
                    if start(self.get(idx)) {
                        issued.push(idx);
                    }
                }
                self.remove_many(&mut issued);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random push / wakeup / select sequences with random FU denials,
        /// checking both queues after every step: the same `seq`s issue in
        /// the same order, and occupancy, ready count and per-FU ready
        /// counts agree.
        #[test]
        fn issue_queue_matches_wait_list_reference(
            ops in prop::collection::vec((0u8..5, 0u32..=u32::MAX), 1..400),
            capacity in 1usize..24,
            width in 1usize..5,
        ) {
            const CLASSES: [InsnClass; 7] = [
                InsnClass::IntAlu,
                InsnClass::IntMul,
                InsnClass::FpAlu,
                InsnClass::FpMul,
                InsnClass::Load,
                InsnClass::Store,
                InsnClass::Branch,
            ];
            let mut fast = IssueQueue::new(capacity);
            let mut slow = reference::IssueQueue::new(capacity);
            // Six live value ids, spread out so the chain heads grow.
            let value = |bits: u32| (bits % 6) * 37;
            let mut seq = 0u64;
            for (op, arg) in ops {
                match op {
                    0 | 1 => {
                        prop_assert_eq!(fast.has_space(), slow.has_space());
                        if !fast.has_space() {
                            continue;
                        }
                        seq += 1;
                        let wait = |on: u32, bits: u32| (on != 0).then(|| value(bits));
                        let e = IqEntry {
                            class: CLASSES[(arg >> 12) as usize % CLASSES.len()],
                            ..entry(seq, [wait(arg & 1, arg >> 2), wait(arg & 2, arg >> 6)])
                        };
                        fast.push(e);
                        slow.push(e);
                    }
                    2 | 3 => {
                        fast.wakeup(value(arg));
                        slow.wakeup(value(arg));
                    }
                    _ => {
                        // Free units per FU kind this cycle (0 denies the
                        // whole kind), as `FuSet::try_issue` would grant.
                        let units = |k: usize| (arg >> (3 * k)) % 3;
                        let start = |mut free: [u32; 4]| {
                            move |e: &IqEntry| {
                                let k = fu_index(e.class.fu().unwrap());
                                let ok = free[k] > 0;
                                free[k] = free[k].saturating_sub(1);
                                ok
                            }
                        };
                        let free = [units(0), units(1), units(2), units(3)];
                        let (mut fast_seqs, mut slow_seqs) = (Vec::new(), Vec::new());
                        let mut fast_start = start(free);
                        let n = fast.select(width, |e| {
                            let ok = fast_start(e);
                            if ok {
                                fast_seqs.push(e.seq);
                            }
                            ok
                        });
                        let mut slow_start = start(free);
                        slow.select(width, |e| {
                            let ok = slow_start(e);
                            if ok {
                                slow_seqs.push(e.seq);
                            }
                            ok
                        });
                        prop_assert_eq!(&fast_seqs, &slow_seqs, "issued seqs diverged");
                        prop_assert_eq!(n, fast_seqs.len());
                    }
                }
                prop_assert_eq!(fast.len(), slow.len());
                prop_assert_eq!(fast.ready_count(), slow.ready_count());
                let (mut fast_fu, mut slow_fu) = ([0; 4], [0; 4]);
                fast.ready_by_fu(&mut fast_fu);
                slow.ready_by_fu(&mut slow_fu);
                prop_assert_eq!(fast_fu, slow_fu);
            }
        }
    }
}
