//! A generic discrete-event queue.
//!
//! Events are ordered by their scheduled [`SimTime`]; events scheduled for
//! the same instant pop in insertion (FIFO) order, which keeps simulations
//! deterministic regardless of queue internals.
//!
//! The default [`EventQueue`] is an index-bucketed *calendar queue*: a
//! time-wheel of `2^k`-microsecond buckets covering a sliding window, with a
//! min-heap overflow level for events beyond the window and a (rare) sorted
//! "past" level for events scheduled before the wheel origin. Amortised cost
//! is O(1) per operation when event times are spread across the window, and
//! the pop order is exactly the `(time, insertion seq)` minimum — the same
//! total order the previous binary-heap implementation produced.
//!
//! [`BinaryHeapEventQueue`] is that previous implementation, retained as the
//! reference model for differential tests.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within an
        // instant, the first-inserted) event is at the top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pre-calendar binary-heap queue, kept as a reference implementation.
///
/// Differential tests pin [`EventQueue`]'s pop order (including same-instant
/// FIFO ties) against this model on randomized schedules.
pub struct BinaryHeapEventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for BinaryHeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapEventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        BinaryHeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at instant `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// The instant of the next event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Remove and return the next `(time, event)` pair.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Remove and return the next event only if it fires at or before `t`.
    pub fn pop_until(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.next_time()? <= t {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Cheap always-on instrumentation for [`EventQueue`].
///
/// Four `u64` increments on the schedule/pop/rotate paths — too cheap to
/// gate — that the observability layer reads out after a run. `rotations`
/// counts wheel-window advances and `overflow_migrations` the events
/// redistributed from the overflow heap into the wheel by those rotations:
/// together they say how well the bucket width fits the workload's event
/// horizon (many migrations per rotation = healthy batching; rotations
/// with few migrations = the wheel is spinning through empty windows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events ever popped (`pop` and `pop_until` alike).
    pub popped: u64,
    /// Wheel-window advances (`EventQueue::rotate` calls that moved it).
    pub rotations: u64,
    /// Events migrated overflow → wheel by rotations.
    pub overflow_migrations: u64,
}

/// Number of wheel buckets (power of two).
const WHEEL_BUCKETS: usize = 256;
/// Default bucket width exponent: 2^13 µs ≈ 8.2 ms per bucket, so the wheel
/// window spans ~2.1 s — comfortably covering a micro-batch interval's worth
/// of in-flight events while keeping far-future cuts in the overflow level.
const DEFAULT_TICK_SHIFT: u32 = 13;

/// An event beyond the wheel window, min-ordered by `(at_us, seq)` on a
/// max-`BinaryHeap` via the inverted comparison.
struct Far<E> {
    at_us: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at_us == other.at_us && self.seq == other.seq
    }
}
impl<E> Eq for Far<E> {}
impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at_us
            .cmp(&self.at_us)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with stable FIFO tie-breaking, implemented as
/// an index-bucketed calendar queue (time-wheel + heap overflow).
pub struct EventQueue<E> {
    /// Wheel buckets. Bucket `i` holds events with
    /// `start_us + i*tick <= at_us < start_us + (i+1)*tick`, unordered;
    /// pops select the `(at, seq)` minimum by linear scan.
    wheel: Vec<Vec<(u64, u64, E)>>,
    /// Events at or beyond the wheel window: a min-heap on `(at, seq)`, so
    /// far-future schedules cost O(log n) instead of a sorted-`Vec` insert's
    /// O(n) memmove.
    overflow: BinaryHeap<Far<E>>,
    /// Events scheduled before `start_us` (possible only by scheduling in
    /// the "past" after the wheel advanced), sorted descending likewise.
    past: Vec<(u64, u64, E)>,
    /// Inclusive lower bound of the wheel window, in µs, tick-aligned.
    start_us: u64,
    /// First wheel bucket that may be non-empty (cursor hint).
    cur: usize,
    /// log2 of the bucket width in µs.
    tick_shift: u32,
    len: usize,
    next_seq: u64,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the default bucket width.
    pub fn new() -> Self {
        Self::with_tick_shift(DEFAULT_TICK_SHIFT)
    }

    /// An empty queue whose wheel buckets span `2^tick_shift` µs each.
    pub fn with_tick_shift(tick_shift: u32) -> Self {
        assert!(tick_shift < 40, "bucket width out of range");
        EventQueue {
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            past: Vec::new(),
            start_us: 0,
            cur: 0,
            tick_shift,
            len: 0,
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// Lifetime operation counters (survive [`EventQueue::clear`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    #[inline]
    fn window_us(&self) -> u64 {
        (WHEEL_BUCKETS as u64) << self.tick_shift
    }

    /// Schedule `event` to fire at instant `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at_us = at.as_micros();
        self.len += 1;
        self.stats.scheduled += 1;
        if at_us < self.start_us {
            let key = (at_us, seq);
            let pos = self.past.partition_point(|&(a, s, _)| (a, s) > key);
            self.past.insert(pos, (at_us, seq, event));
        } else if at_us - self.start_us < self.window_us() {
            let idx = ((at_us - self.start_us) >> self.tick_shift) as usize;
            self.wheel[idx].push((at_us, seq, event));
            if idx < self.cur {
                self.cur = idx;
            }
        } else {
            self.overflow.push(Far { at_us, seq, event });
        }
    }

    /// Index within `self.wheel[self.cur..]`-style search of the first
    /// non-empty bucket, advancing the cursor past drained buckets.
    fn advance_to_nonempty(&mut self) -> Option<usize> {
        while self.cur < WHEEL_BUCKETS {
            if !self.wheel[self.cur].is_empty() {
                return Some(self.cur);
            }
            self.cur += 1;
        }
        None
    }

    /// Rotate the wheel forward so it covers the window starting at the
    /// earliest overflow event, then redistribute overflow entries that now
    /// fall inside it. Requires the wheel and `past` to be empty.
    fn rotate(&mut self) {
        let Some(first) = self.overflow.peek() else {
            return;
        };
        self.stats.rotations += 1;
        self.start_us = (first.at_us >> self.tick_shift) << self.tick_shift;
        self.cur = 0;
        let window = self.window_us();
        // Pull every overflow event that now lands inside the window. The
        // heap pops them min-first, so the wheel fills in one pass.
        while let Some(f) = self.overflow.peek() {
            if f.at_us - self.start_us >= window {
                break;
            }
            let Far { at_us, seq, event } = self.overflow.pop().expect("peeked");
            let idx = ((at_us - self.start_us) >> self.tick_shift) as usize;
            self.wheel[idx].push((at_us, seq, event));
            self.stats.overflow_migrations += 1;
        }
    }

    /// Position of the `(at, seq)` minimum within bucket `idx`.
    fn bucket_min(&self, idx: usize) -> usize {
        let bucket = &self.wheel[idx];
        let mut best = 0;
        for i in 1..bucket.len() {
            let (a, s, _) = bucket[i];
            let (ba, bs, _) = bucket[best];
            if (a, s) < (ba, bs) {
                best = i;
            }
        }
        best
    }

    /// The instant of the next event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        if let Some(&(a, _, _)) = self.past.last() {
            return Some(SimTime::from_micros(a));
        }
        let mut cur = self.cur;
        while cur < WHEEL_BUCKETS {
            if !self.wheel[cur].is_empty() {
                let bucket = &self.wheel[cur];
                let mut best = bucket[0].0;
                for &(a, _, _) in &bucket[1..] {
                    if a < best {
                        best = a;
                    }
                }
                return Some(SimTime::from_micros(best));
            }
            cur += 1;
        }
        self.overflow.peek().map(|f| SimTime::from_micros(f.at_us))
    }

    /// Remove and return the next `(time, event)` pair.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if let Some((a, _, event)) = self.past.pop() {
            self.len -= 1;
            self.stats.popped += 1;
            return Some((SimTime::from_micros(a), event));
        }
        loop {
            if let Some(idx) = self.advance_to_nonempty() {
                let min = self.bucket_min(idx);
                let (a, _, event) = self.wheel[idx].swap_remove(min);
                self.len -= 1;
                self.stats.popped += 1;
                return Some((SimTime::from_micros(a), event));
            }
            // Wheel drained: pull the next window out of the overflow level.
            debug_assert!(!self.overflow.is_empty());
            self.rotate();
        }
    }

    /// Remove and return the next event only if it fires at or before `t`.
    ///
    /// Single-pass: the wheel walk that finds the minimum also pops it,
    /// instead of scanning once for `next_time` and again for `pop`.
    pub fn pop_until(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let t_us = t.as_micros();
        if let Some(&(a, _, _)) = self.past.last() {
            if a > t_us {
                return None;
            }
            let (a, _, event) = self.past.pop().expect("checked non-empty");
            self.len -= 1;
            self.stats.popped += 1;
            return Some((SimTime::from_micros(a), event));
        }
        loop {
            if let Some(idx) = self.advance_to_nonempty() {
                let min = self.bucket_min(idx);
                if self.wheel[idx][min].0 > t_us {
                    return None;
                }
                let (a, _, event) = self.wheel[idx].swap_remove(min);
                self.len -= 1;
                self.stats.popped += 1;
                return Some((SimTime::from_micros(a), event));
            }
            debug_assert!(!self.overflow.is_empty());
            if self.overflow.peek().map(|f| f.at_us > t_us).unwrap_or(true) {
                return None;
            }
            self.rotate();
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        for bucket in &mut self.wheel {
            bucket.clear();
        }
        self.overflow.clear();
        self.past.clear();
        self.len = 0;
        self.cur = 0;
        self.start_us = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        assert_eq!(
            q.pop_until(SimTime::from_millis(15)),
            Some((SimTime::from_millis(10), 1))
        );
        assert_eq!(q.pop_until(SimTime::from_millis(15)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 10);
        q.schedule(SimTime::from_millis(40), 40);
        assert_eq!(q.pop().unwrap().1, 10);
        q.schedule(SimTime::from_millis(20), 20);
        q.schedule(SimTime::from_millis(30), 30);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![20, 30, 40]);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn stats_track_schedules_pops_and_rotations() {
        let mut q = EventQueue::with_tick_shift(4); // 4096 µs window
        assert_eq!(q.stats(), QueueStats::default());
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_secs_f64(1.0), 2); // beyond the window
        q.schedule(SimTime::from_secs_f64(1.0), 3);
        assert_eq!(q.stats().scheduled, 3);
        assert_eq!(q.stats().popped, 0);
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!(s.popped, 3);
        // Draining past the window forced exactly one rotation, which
        // migrated both far events into the wheel.
        assert_eq!(s.rotations, 1);
        assert_eq!(s.overflow_migrations, 2);
        // Stats are lifetime counters: clear() keeps them.
        q.schedule(SimTime::ZERO, 4);
        q.clear();
        assert_eq!(q.stats().scheduled, 4);
    }

    #[test]
    fn far_future_events_cross_the_overflow_level() {
        let mut q = EventQueue::with_tick_shift(4);
        // Window is 256 * 16 µs = 4096 µs; spread events far beyond it.
        q.schedule(SimTime::from_secs_f64(100.0), "late");
        q.schedule(SimTime::from_micros(50), "early");
        q.schedule(SimTime::from_secs_f64(10.0), "mid");
        q.schedule(SimTime::from_secs_f64(10.0), "mid2");
        assert_eq!(q.next_time(), Some(SimTime::from_micros(50)));
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "mid2");
        // Scheduling in the past after the wheel rotated still pops first.
        q.schedule(SimTime::from_micros(60), "past");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.is_empty());
    }

    /// Events pinned to both sides of the wheel-window boundary: the last
    /// in-window microsecond stays on the wheel, the first out-of-window
    /// microsecond goes to overflow, and rotation stitches them back into
    /// one globally time-ordered stream with the expected rotation count.
    #[test]
    fn rotation_at_the_window_boundary_keeps_time_order() {
        let shift = 3u32; // 8 µs buckets → 2048 µs window
        let window = 256u64 << shift;
        let mut q = EventQueue::with_tick_shift(shift);
        for at in [window - 1, window, window + 1, 3 * window, 0, window / 2] {
            q.schedule(SimTime::from_micros(at), at);
        }
        // Nothing rotates at schedule time.
        assert_eq!(q.stats().rotations, 0);
        let mut popped = Vec::new();
        while let Some((t, e)) = q.pop() {
            assert_eq!(t.as_micros(), e, "event popped at the wrong instant");
            popped.push(e);
        }
        assert_eq!(
            popped,
            vec![0, window / 2, window - 1, window, window + 1, 3 * window]
        );
        // One rotation into [window, 2·window) picking up two events, one
        // into [3·window, 4·window) picking up the last.
        assert_eq!(q.stats().rotations, 2);
        assert_eq!(q.stats().overflow_migrations, 3);
    }

    /// FIFO tie-breaking survives the overflow → wheel migration: two
    /// events at the same out-of-window instant keep schedule order.
    #[test]
    fn rotation_preserves_fifo_ties() {
        let mut q = EventQueue::new();
        let far = SimTime::from_micros((256u64 << DEFAULT_TICK_SHIFT) + 5);
        q.schedule(far, "a");
        q.schedule(far, "b");
        q.schedule(SimTime::from_micros(1), "now");
        assert_eq!(q.pop().unwrap().1, "now");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    /// `pop_until` at the boundary: a cutoff just before the overflow
    /// head must not rotate (the wheel window stays put), while a cutoff
    /// at the head's instant rotates and returns it.
    #[test]
    fn pop_until_rotates_only_when_the_cutoff_reaches_overflow() {
        let shift = 3u32;
        let window = 256u64 << shift;
        let mut q = EventQueue::with_tick_shift(shift);
        q.schedule(SimTime::from_micros(window + 8), "far");
        assert_eq!(q.pop_until(SimTime::from_micros(window + 7)), None);
        assert_eq!(q.stats().rotations, 0, "cutoff short of overflow rotated");
        let (t, e) = q.pop_until(SimTime::from_micros(window + 8)).unwrap();
        assert_eq!((t.as_micros(), e), (window + 8, "far"));
        assert_eq!(q.stats().rotations, 1);
        assert!(q.is_empty());
    }
}
