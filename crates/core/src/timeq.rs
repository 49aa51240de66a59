//! A fixed-horizon time queue (timing wheel) for pipeline events.
//!
//! The pipeline schedules every future state change — value wakeups, comm
//! arrivals, FU completions, load returns — a bounded number of cycles ahead
//! (the horizon is [`crate::config::EVENT_WHEEL`], validated against every
//! latency in `CoreConfig::validate`). That bound makes a circular buffer of
//! per-cycle buckets the right structure: O(1) insert, O(1) drain of the
//! current cycle, and — the reason this is its own module — a cheap *scan*
//! for the next pending event, which is what lets the event-driven run loop
//! fast-forward over provably dead cycles.
//!
//! The scan reads an occupancy bitmap (one bit per bucket, set while the
//! bucket holds events), not the buckets: finding the next event costs
//! `horizon / 64` word tests, eight at the pipeline's 512-cycle horizon.
//! The bitmap works for any horizon; bits past the last bucket stay clear.
//!
//! Invariant: events are always scheduled strictly in the future
//! (`delay > 0`). A same-cycle wakeup would be invisible to a tick that has
//! already drained its bucket, so `schedule` rejects it in debug builds.

/// Circular bucket array indexed by absolute cycle modulo the horizon.
#[derive(Debug)]
pub struct TimeQueue<E> {
    slots: Vec<Vec<E>>,
    /// Bit `i % 64` of word `i / 64` is set iff `slots[i]` is non-empty.
    occupied: Vec<u64>,
    pending: usize,
}

impl<E> TimeQueue<E> {
    /// A queue able to hold events up to `horizon - 1` cycles ahead.
    pub fn new(horizon: usize) -> Self {
        assert!(horizon >= 2, "time queue needs a horizon of at least 2");
        let mut slots = Vec::with_capacity(horizon);
        slots.resize_with(horizon, Vec::new);
        TimeQueue {
            slots,
            occupied: vec![0; horizon.div_ceil(64)],
            pending: 0,
        }
    }

    /// Maximum schedulable delay is `horizon() - 1`.
    pub fn horizon(&self) -> usize {
        self.slots.len()
    }

    /// Number of events currently scheduled.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedule `ev` to fire `delay` cycles after `now`.
    ///
    /// `delay` must be in `1..horizon`: zero-delay events would be missed by
    /// the current cycle's drain, and longer delays would alias onto an
    /// earlier bucket.
    pub fn schedule(&mut self, now: u64, delay: u64, ev: E) {
        debug_assert!(
            delay > 0 && (delay as usize) < self.horizon(),
            "event delay {} outside 1..{}",
            delay,
            self.horizon()
        );
        let slot = ((now + delay) as usize) % self.horizon();
        self.slots[slot].push(ev);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.pending += 1;
    }

    /// Swap the bucket due at `now` into `buf` (which must be empty).
    ///
    /// The swap keeps both vectors' capacity alive, so a caller draining
    /// through a scratch buffer allocates nothing in steady state: the
    /// emptied scratch goes back in as the bucket.
    pub fn swap_due(&mut self, now: u64, buf: &mut Vec<E>) {
        debug_assert!(buf.is_empty(), "swap_due target must be empty");
        let slot = (now as usize) % self.horizon();
        std::mem::swap(&mut self.slots[slot], buf);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        self.pending -= buf.len();
    }

    /// Offset in cycles from `now` to the earliest pending event, or `None`
    /// when the queue is empty. `Some(0)` means the bucket due at `now`
    /// itself has not been drained yet.
    pub fn next_due_offset(&self, now: u64) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        let h = self.horizon();
        let base = (now as usize) % h;
        // Buckets `base..h` first, then wrap round to `0..base`. The first
        // word's high bits are tested first; when the walk comes back to
        // it, they are known to be clear, so the whole word can be read.
        let words = self.occupied.len();
        let mut w = base / 64;
        let mut bits = self.occupied[w] & (u64::MAX << (base % 64));
        while bits == 0 {
            w = if w + 1 == words { 0 } else { w + 1 };
            bits = self.occupied[w];
        }
        let slot = w * 64 + bits.trailing_zeros() as usize;
        Some(((slot + h - base) % h) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference answer: test every bucket from `now` on, one by one.
    fn linear_next_due(q: &TimeQueue<u32>, now: u64) -> Option<u64> {
        if q.is_empty() {
            return None;
        }
        let h = q.horizon();
        let base = (now as usize) % h;
        (0..h as u64).find(|&d| !q.slots[(base + d as usize) % h].is_empty())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random schedule / drain / skip sequences at word-aligned and
        /// ragged horizons: the bitmap scan answers every probe, from every
        /// bucket offset, exactly as the linear scan does.
        #[test]
        fn next_due_offset_matches_linear_scan(
            ops in prop::collection::vec((0u8..4, 0u16..=u16::MAX), 1..300),
            horizon_pick in 0usize..4,
            start in 0u64..1_000,
        ) {
            let h = [4usize, 64, 100, 512][horizon_pick];
            let mut q: TimeQueue<u32> = TimeQueue::new(h);
            let mut now = start;
            let mut buf = Vec::new();
            for (i, (op, arg)) in ops.into_iter().enumerate() {
                match op {
                    // Schedule one event anywhere inside the horizon.
                    0 | 1 => q.schedule(now, 1 + arg as u64 % (h as u64 - 1), i as u32),
                    // Tick: drain the current bucket, then step one cycle.
                    2 => {
                        q.swap_due(now, &mut buf);
                        buf.clear();
                        now += 1;
                    }
                    // Fast-forward to the next due bucket and drain it.
                    _ => {
                        if let Some(d) = q.next_due_offset(now) {
                            now += d;
                            q.swap_due(now, &mut buf);
                            prop_assert!(!buf.is_empty(), "skip landed on an empty bucket");
                            buf.clear();
                        }
                    }
                }
                let probe = now + arg as u64 % h as u64;
                for t in [now, probe] {
                    prop_assert_eq!(q.next_due_offset(t), linear_next_due(&q, t), "h={} t={}", h, t);
                }
            }
        }
    }

    #[test]
    fn schedule_and_drain_round_trip() {
        let mut q: TimeQueue<u32> = TimeQueue::new(8);
        assert!(q.is_empty());
        q.schedule(100, 1, 11);
        q.schedule(100, 3, 33);
        q.schedule(100, 3, 34);
        assert_eq!(q.len(), 3);

        let mut buf = Vec::new();
        q.swap_due(101, &mut buf);
        assert_eq!(buf, vec![11]);
        buf.clear();
        q.swap_due(102, &mut buf);
        assert!(buf.is_empty());
        q.swap_due(103, &mut buf);
        assert_eq!(buf, vec![33, 34]);
        assert!(q.is_empty());
    }

    #[test]
    fn next_due_offset_scans_forward() {
        let mut q: TimeQueue<&str> = TimeQueue::new(16);
        assert_eq!(q.next_due_offset(40), None);
        q.schedule(40, 5, "a");
        q.schedule(40, 9, "b");
        assert_eq!(q.next_due_offset(40), Some(5));
        assert_eq!(q.next_due_offset(43), Some(2));
        let mut buf = Vec::new();
        q.swap_due(45, &mut buf);
        assert_eq!(buf, vec!["a"]);
        assert_eq!(q.next_due_offset(45), Some(4));
    }

    #[test]
    fn offset_zero_means_undrained_current_bucket() {
        let mut q: TimeQueue<u8> = TimeQueue::new(4);
        q.schedule(7, 1, 1);
        assert_eq!(q.next_due_offset(8), Some(0));
    }

    #[test]
    fn wraps_around_the_horizon() {
        let mut q: TimeQueue<u8> = TimeQueue::new(4);
        // now = 2, delay = 3 lands on slot (2 + 3) % 4 = 1.
        q.schedule(2, 3, 9);
        assert_eq!(q.next_due_offset(3), Some(2));
        let mut buf = Vec::new();
        q.swap_due(5, &mut buf);
        assert_eq!(buf, vec![9]);
    }

    #[test]
    #[should_panic(expected = "event delay")]
    #[cfg(debug_assertions)]
    fn zero_delay_is_rejected() {
        let mut q: TimeQueue<u8> = TimeQueue::new(4);
        q.schedule(0, 0, 1);
    }
}
