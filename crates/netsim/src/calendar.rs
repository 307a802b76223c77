//! Calendar (bucket) queue for the future event list.
//!
//! A classic discrete-event simulator alternative to the binary heap
//! ([Brown 1988]): pending events are hashed by firing time into an array of
//! fixed-width time buckets, so in the steady state `schedule` is an O(1)
//! push into a small `Vec` and `pop` scans forward from the current bucket —
//! amortised O(1) against the heap's O(log n) sift per operation, and with
//! far better cache behaviour (bucket entries are contiguous).
//!
//! # Design
//!
//! * **Bucket width** starts at one MAC backoff slot — the granularity at
//!   which steady-state MAC attempts and transmission ends land (see
//!   [`CalendarQueue::width_for_mac`]) — and **self-tunes** from there:
//!   every few thousand pops the queue halves the width when buckets run
//!   dense (the min-scan cost shows up) or doubles it when pops mostly walk
//!   empty buckets.  The event-time distribution changes with node count and
//!   workload, so no fixed width suits every run.
//! * **Sliding year**: the bucket array covers the absolute-bucket window
//!   `[cursor, cursor + nbuckets)`.  Events beyond the window — far-future
//!   mobility waypoints, TCP retransmission timers, the end-of-run `Stop` —
//!   go to an **overflow ladder** (a small binary heap).  Whenever the cursor
//!   advances, every overflow event that now falls inside the window is
//!   migrated into its bucket, so the FIFO tie-break order stays global.
//! * **Resizing**: when occupancy exceeds `2 × nbuckets` the bucket array
//!   doubles (events are re-hashed; the overflow ladder is re-examined
//!   against the wider window).  Bucket-array growths and width re-tunes are
//!   both counted as "resizes" for the perf report.
//!
//! # Ordering contract
//!
//! Pops are **exactly** the order the binary-heap queue produces: ascending
//! `(time, seq)`.  Two events with equal timestamps always hash to the same
//! bucket (same time ⇒ same absolute bucket), and within a bucket the pop
//! scans for the minimal `(time, seq)` pair, so the FIFO tie-break of the
//! sequence number is preserved.  Events in the overflow ladder are always
//! strictly later than every bucketed event (their absolute bucket lies past
//! the window), so the two stores never compete for the same timestamp.
//! `crates/netsim/tests/queue_equivalence.rs` asserts trace identity against
//! the heap on full simulation runs.
//!
//! [Brown 1988]: R. Brown, "Calendar queues: a fast O(1) priority queue
//! implementation for the simulation event set problem", CACM 31(10).

use crate::event::ScheduledEvent;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Default number of buckets (power of two; grows by doubling).
const INITIAL_BUCKETS: usize = 1024;

/// Hard cap on the bucket array (2^20 buckets ≈ 8 MiB of `Vec` headers) —
/// beyond this the queue degrades gracefully to larger per-bucket scans.
const MAX_BUCKETS: usize = 1 << 20;

/// Resize when occupancy exceeds this many events per bucket on average.
const RESIZE_LOAD: usize = 2;

/// Pops between width-adaptation checks.
const ADAPT_WINDOW: u64 = 4096;

/// Narrow the buckets when the mean per-pop bucket scan exceeds this.
const ADAPT_SCAN_HIGH: f64 = 3.0;

/// Widen the buckets when the mean per-pop empty-bucket walk exceeds this.
const ADAPT_SKIP_HIGH: f64 = 24.0;

/// Bounds on the adaptive bucket width, seconds.
const MIN_WIDTH: f64 = 1e-7;
const MAX_WIDTH: f64 = 1.0;

/// A calendar queue over [`ScheduledEvent`]s.
///
/// See the module docs for the design; [`crate::event::EventQueue`] wraps
/// this behind the [`crate::config::EventQueueKind`] selector.
#[derive(Debug)]
pub struct CalendarQueue {
    /// `buckets[b % nbuckets]` holds the events of absolute bucket `b` for
    /// every `b` in the sliding window `[cursor, cursor + nbuckets)`.
    buckets: Vec<Vec<ScheduledEvent>>,
    /// Power-of-two bucket count (`mask = nbuckets - 1`).
    nbuckets: usize,
    /// Seconds of simulated time per bucket.
    width: f64,
    /// Absolute bucket number of the earliest non-retired bucket.
    cursor: u64,
    /// Events currently stored in `buckets`.
    bucketed: usize,
    /// Far-future events (absolute bucket ≥ `cursor + nbuckets`).  Pops
    /// earliest-first thanks to [`ScheduledEvent`]'s inverted `Ord`.
    overflow: BinaryHeap<ScheduledEvent>,
    /// Times the bucket array was grown or the width re-tuned.
    resizes: u64,
    /// Time of the last popped event (resume point for width re-tunes).
    last_pop: SimTime,
    /// Entries examined by the min-scan since the last adaptation check.
    pop_scans: u64,
    /// Empty buckets walked past since the last adaptation check.
    pop_skips: u64,
    /// Pops since the last adaptation check.
    pops_since_adapt: u64,
}

impl CalendarQueue {
    /// A calendar queue with the given bucket width in seconds.
    ///
    /// # Panics
    /// Panics if `width` is not positive and finite.
    pub fn new(width: f64) -> Self {
        assert!(
            width > 0.0 && width.is_finite(),
            "calendar bucket width must be positive and finite, got {width}"
        );
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            nbuckets: INITIAL_BUCKETS,
            width,
            cursor: 0,
            bucketed: 0,
            overflow: BinaryHeap::new(),
            resizes: 0,
            last_pop: SimTime::ZERO,
            pop_scans: 0,
            pop_skips: 0,
            pops_since_adapt: 0,
        }
    }

    /// The initial bucket width, in seconds, for a MAC configuration: one
    /// backoff slot.  Steady-state MAC attempts and transmission ends land at
    /// slot/DIFS granularity, so this keeps nearby buckets at O(1) occupancy
    /// at moderate event densities; from there the queue **self-tunes**: it
    /// halves the width when pops scan overfull buckets (denser event
    /// streams at larger node counts) and doubles it when pops mostly walk
    /// empty buckets (sparse streams).
    pub fn width_for_mac(mac: &crate::config::MacConfig) -> f64 {
        mac.slot_time.as_secs().clamp(MIN_WIDTH, MAX_WIDTH)
    }

    /// Absolute bucket number of an event time.
    #[inline]
    fn abs_bucket(&self, time: SimTime) -> u64 {
        (time.as_secs() / self.width) as u64
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times the bucket array was grown.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Insert an event (the caller assigns `seq`).
    pub fn push(&mut self, ev: ScheduledEvent) {
        let ab = self.abs_bucket(ev.time).max(self.cursor);
        if ab >= self.cursor + self.nbuckets as u64 {
            self.overflow.push(ev);
            return;
        }
        let idx = (ab as usize) & (self.nbuckets - 1);
        self.buckets[idx].push(ev);
        self.bucketed += 1;
        if self.bucketed > RESIZE_LOAD * self.nbuckets && self.nbuckets < MAX_BUCKETS {
            self.grow();
        }
    }

    /// Remove and return the earliest pending event (ascending `(time, seq)`).
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        if self.bucketed == 0 {
            // Jump the calendar straight to the overflow ladder's head.
            let ev = self.overflow.pop()?;
            self.advance_to(self.abs_bucket(ev.time));
            self.last_pop = ev.time;
            return Some(ev);
        }
        // Some bucket in the window is non-empty, and buckets earlier in the
        // window hold strictly earlier times, so the first non-empty bucket
        // contains the global minimum.
        for step in 0..self.nbuckets as u64 {
            let b = self.cursor + step;
            let idx = (b as usize) & (self.nbuckets - 1);
            if self.buckets[idx].is_empty() {
                continue;
            }
            self.pop_scans += self.buckets[idx].len() as u64;
            self.pop_skips += step;
            self.pops_since_adapt += 1;
            let min = Self::bucket_min(&self.buckets[idx]);
            let ev = self.buckets[idx].swap_remove(min);
            self.bucketed -= 1;
            if step > 0 {
                self.advance_to(b);
            }
            self.last_pop = ev.time;
            if self.pops_since_adapt >= ADAPT_WINDOW {
                self.maybe_adapt_width();
            }
            return Some(ev);
        }
        unreachable!("bucketed > 0 but every bucket in the window is empty");
    }

    /// Re-tune the bucket width to the observed event density.
    ///
    /// The event-time distribution is workload-dependent (MAC contention at
    /// micro-second granularity, timers at seconds) and scales with the node
    /// count, so no fixed width suits every run: overfull buckets make the
    /// per-pop min-scan linear, while mostly-empty buckets waste the walk
    /// between occupied ones.  Every [`ADAPT_WINDOW`] pops the queue halves
    /// the width if buckets run dense and doubles it if pops mostly skip
    /// empty buckets; events are re-hashed (counted in
    /// [`CalendarQueue::resizes`]).  Pop order is unaffected — the ordering
    /// contract holds for any width.
    fn maybe_adapt_width(&mut self) {
        let pops = self.pops_since_adapt.max(1) as f64;
        let mean_scan = self.pop_scans as f64 / pops;
        let mean_skip = self.pop_skips as f64 / pops;
        self.pop_scans = 0;
        self.pop_skips = 0;
        self.pops_since_adapt = 0;
        if mean_scan > ADAPT_SCAN_HIGH && self.width > MIN_WIDTH {
            // Narrowing halves the time each bucket covers; double the
            // bucket count in step so the window's covered time-span stays
            // put — otherwise repeated narrowing shrinks the window below
            // the MAC airtime horizon and every TxEnd thrashes through the
            // overflow ladder.
            let new_n = (self.nbuckets * 2).min(MAX_BUCKETS);
            self.rebuild((self.width / 2.0).max(MIN_WIDTH), new_n);
        } else if mean_skip > ADAPT_SKIP_HIGH && self.width < MAX_WIDTH {
            self.rebuild((self.width * 2.0).min(MAX_WIDTH), self.nbuckets);
        }
    }

    /// Re-hash every pending event under a new bucket width / bucket count.
    fn rebuild(&mut self, new_width: f64, new_nbuckets: usize) {
        self.resizes += 1;
        let mut drained: Vec<ScheduledEvent> = Vec::with_capacity(self.len());
        for bucket in &mut self.buckets {
            drained.append(bucket);
        }
        drained.extend(std::mem::take(&mut self.overflow));
        if new_nbuckets != self.nbuckets {
            self.buckets = (0..new_nbuckets).map(|_| Vec::new()).collect();
            self.nbuckets = new_nbuckets;
        }
        self.bucketed = 0;
        self.width = new_width;
        self.cursor = self.abs_bucket(self.last_pop);
        for ev in drained {
            self.push_rehash(ev);
        }
    }

    /// Push without load-factor checks (used while re-hashing).
    fn push_rehash(&mut self, ev: ScheduledEvent) {
        let ab = self.abs_bucket(ev.time).max(self.cursor);
        if ab >= self.cursor + self.nbuckets as u64 {
            self.overflow.push(ev);
            return;
        }
        let idx = (ab as usize) & (self.nbuckets - 1);
        self.buckets[idx].push(ev);
        self.bucketed += 1;
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        if self.bucketed > 0 {
            for step in 0..self.nbuckets as u64 {
                let idx = ((self.cursor + step) as usize) & (self.nbuckets - 1);
                if !self.buckets[idx].is_empty() {
                    let min = Self::bucket_min(&self.buckets[idx]);
                    best = Some(self.buckets[idx][min].time);
                    break;
                }
            }
        }
        match (best, self.overflow.peek()) {
            (Some(b), Some(o)) => Some(b.min(o.time)),
            (Some(b), None) => Some(b),
            (None, Some(o)) => Some(o.time),
            (None, None) => None,
        }
    }

    /// Index of the minimal `(time, seq)` entry of a non-empty bucket.
    #[inline]
    fn bucket_min(bucket: &[ScheduledEvent]) -> usize {
        let mut min = 0;
        for (i, ev) in bucket.iter().enumerate().skip(1) {
            let best = &bucket[min];
            if (ev.time, ev.seq) < (best.time, best.seq) {
                min = i;
            }
        }
        min
    }

    /// Slide the window forward to `new_cursor` and migrate every overflow
    /// event that now falls inside it, so bucketed and overflowed events at
    /// the same future timestamp can never be popped out of seq order.
    fn advance_to(&mut self, new_cursor: u64) {
        debug_assert!(new_cursor >= self.cursor, "calendar cursor went backwards");
        self.cursor = new_cursor;
        self.migrate_overflow();
    }

    /// Move overflow events inside the current window into their buckets.
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor + self.nbuckets as u64;
        while let Some(head) = self.overflow.peek() {
            if self.abs_bucket(head.time) >= horizon {
                break;
            }
            let ev = self.overflow.pop().expect("peeked");
            let ab = self.abs_bucket(ev.time).max(self.cursor);
            let idx = (ab as usize) & (self.nbuckets - 1);
            self.buckets[idx].push(ev);
            self.bucketed += 1;
        }
    }

    /// Double the bucket array and re-hash every bucketed event; the wider
    /// window may also absorb overflow events.
    fn grow(&mut self) {
        self.resizes += 1;
        let new_n = (self.nbuckets * 2).min(MAX_BUCKETS);
        let mut drained: Vec<ScheduledEvent> = Vec::with_capacity(self.bucketed);
        for bucket in &mut self.buckets {
            drained.append(bucket);
        }
        self.buckets = (0..new_n).map(|_| Vec::new()).collect();
        self.nbuckets = new_n;
        self.bucketed = 0;
        for ev in drained {
            let ab = self.abs_bucket(ev.time).max(self.cursor);
            debug_assert!(ab < self.cursor + self.nbuckets as u64);
            let idx = (ab as usize) & (self.nbuckets - 1);
            self.buckets[idx].push(ev);
            self.bucketed += 1;
        }
        self.migrate_overflow();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn ev(time: f64, seq: u64) -> ScheduledEvent {
        ScheduledEvent {
            time: SimTime::from_secs(time),
            seq,
            event: Event::Stop,
        }
    }

    fn drain(q: &mut CalendarQueue) -> Vec<(f64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.as_secs(), e.seq))
            .collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new(0.25);
        for (t, s) in [(3.0, 0), (1.0, 1), (2.0, 2), (1.0, 3), (2.0, 4)] {
            q.push(ev(t, s));
        }
        assert_eq!(
            drain(&mut q),
            vec![(1.0, 1), (1.0, 3), (2.0, 2), (2.0, 4), (3.0, 0)]
        );
    }

    #[test]
    fn far_future_events_go_through_the_overflow_ladder() {
        let mut q = CalendarQueue::new(1e-4); // window = 1024 * 0.1 ms ≈ 0.1 s
        q.push(ev(500.0, 0)); // far future: overflow
        q.push(ev(0.01, 1));
        q.push(ev(250.0, 2)); // also overflow
        assert_eq!(q.len(), 3);
        assert_eq!(drain(&mut q), vec![(0.01, 1), (250.0, 2), (500.0, 0)]);
    }

    #[test]
    fn overflow_migration_preserves_fifo_against_fresh_pushes() {
        let mut q = CalendarQueue::new(1e-3);
        // Event A lands far outside the initial window -> overflow.
        q.push(ev(100.0, 0));
        q.push(ev(0.5, 1));
        assert_eq!(q.pop().unwrap().seq, 1);
        // Jumping the cursor to the overflow head migrates it; a same-time
        // push with a later seq must pop after it.
        q.push(ev(100.0, 2));
        assert_eq!(drain(&mut q), vec![(100.0, 0), (100.0, 2)]);
    }

    #[test]
    fn interleaved_push_pop_matches_a_reference_sort() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let mut q = CalendarQueue::new(7e-4);
        let mut reference: Vec<(f64, u64)> = Vec::new();
        let mut popped: Vec<(f64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut now = 0.0f64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.6) || q.is_empty() {
                // Schedule ahead of `now`, sometimes far ahead, with repeats.
                let dt = if rng.gen_bool(0.1) {
                    rng.gen_range(1.0..50.0)
                } else {
                    rng.gen_range(0.0..0.01)
                };
                let t = now + dt;
                q.push(ev(t, seq));
                reference.push((t, seq));
                seq += 1;
            } else {
                let e = q.pop().unwrap();
                now = e.time.as_secs();
                popped.push((e.time.as_secs(), e.seq));
            }
        }
        popped.extend(std::iter::from_fn(|| q.pop()).map(|e| (e.time.as_secs(), e.seq)));
        reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(popped, reference);
    }

    #[test]
    fn equal_timestamp_storm_pops_in_seq_order() {
        let mut q = CalendarQueue::new(3.6e-4);
        for s in 0..1_000u64 {
            q.push(ev(5.0, s));
        }
        let order = drain(&mut q);
        assert_eq!(order.len(), 1_000);
        assert!(order.windows(2).all(|w| w[0].1 + 1 == w[1].1));
    }

    #[test]
    fn grows_under_load_and_keeps_order() {
        let mut q = CalendarQueue::new(1e-3);
        // Far more events than 2 * INITIAL_BUCKETS forces at least one grow.
        let n = 5_000u64;
        for s in 0..n {
            q.push(ev((s % 97) as f64 * 0.01, s));
        }
        assert!(q.resizes() > 0, "load factor must trigger a resize");
        let order = drain(&mut q);
        assert_eq!(order.len(), n as usize);
        assert!(order
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn width_for_mac_tracks_contention_timescale() {
        let mac = crate::config::MacConfig::default();
        let w = CalendarQueue::width_for_mac(&mac);
        // One 802.11b backoff slot (20 µs) — the granularity MAC events land
        // at; the adaptive re-tuning takes it from there.
        assert!((w - 2e-5).abs() < 1e-12, "got {w}");
    }

    #[test]
    fn dense_streams_narrow_the_width_adaptively() {
        // Far more same-bucket events than the scan threshold tolerates:
        // a dense burst must trigger at least one width-narrowing rebuild
        // while preserving exact (time, seq) order.
        let mut q = CalendarQueue::new(1e-3);
        let mut seq = 0u64;
        let mut popped = Vec::new();
        for round in 0..40u64 {
            for i in 0..1_500u64 {
                // ~1500 events spread over one original bucket width.
                let t = round as f64 * 1e-3 + (i as f64) * 6e-7;
                q.push(ev(t, seq));
                seq += 1;
            }
            for _ in 0..1_500 {
                popped.push(q.pop().expect("pushed above"));
            }
        }
        assert!(q.resizes() > 0, "dense stream must re-tune the width");
        assert!(popped
            .windows(2)
            .all(|w| (w[0].time, w[0].seq) < (w[1].time, w[1].seq)));
    }

    #[test]
    fn peek_time_reports_the_global_minimum() {
        let mut q = CalendarQueue::new(1e-3);
        assert!(q.peek_time().is_none());
        q.push(ev(300.0, 0)); // overflow
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(300.0)));
        q.push(ev(0.002, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(0.002)));
    }
}
