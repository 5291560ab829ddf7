//! The central event queue of the discrete-event simulation.
//!
//! Events are totally ordered by `(time, sequence)`: two events scheduled
//! for the same instant pop in the order they were pushed. That stability is
//! what makes every simulation in this workspace deterministic and therefore
//! testable — identical inputs produce identical virtual-time results.
//!
//! [`EventQueue`] is a monotone radix heap on `time` (Ahuja, Mehlhorn, Orlin
//! & Tarjan, JACM 1990). A sequential simulation never pops below its last
//! pop, which is exactly the access pattern a radix heap is built for: an
//! entry only ever moves to lower buckets, so a pop costs amortised O(1)
//! moves instead of a `log n` sift through the whole pending set. Pushes
//! below the last pop stay legal and exact (see [`EventQueue::push`]).
//! One type serves the cluster's queue and every per-PE uGNI mailbox, MSGQ
//! and CQ queue.

use crate::time::Time;
use std::collections::VecDeque;

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    event: E,
}

/// Monotone radix heap with exact `(time, push order)` FIFO ordering.
///
/// Invariants, with `last` the anchor (the time of the latest refill, or
/// of the latest push into an empty queue or below `last`):
///
/// * every pending entry has `time >= last`;
/// * bucket 0 (`due`) holds exactly the entries with `time == last`;
/// * bucket `i + 1` (`buckets[i]`) holds the entries whose highest bit
///   differing from `last` is bit `i`; bit `i` of `occ` says it is
///   non-empty;
/// * entries with equal times are in push order within their bucket.
///
/// Equal times always share a bucket, because the bucket is a function of
/// the time and `last`. Every move (a refill or a re-anchor) carries a
/// whole equal-time group, in order, into buckets that hold no entry of
/// that time, and a push appends the newest entry. So FIFO order needs no
/// sequence numbers and no sort: bucket 0 pops in push order.
///
/// An empty queue owns no heap memory; a bucket allocates on first use and
/// then keeps its allocation, so retained memory follows the pending set.
#[derive(Debug)]
pub struct EventQueue<E> {
    due: VecDeque<Entry<E>>,
    /// Grown on demand up to the highest bucket used, so small queues with
    /// near-together times never allocate the high buckets.
    buckets: Vec<Vec<Entry<E>>>,
    occ: u64,
    last: Time,
    len: usize,
    peak_len: usize,
    pushed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue. Allocates nothing.
    pub fn new() -> Self {
        Self {
            due: VecDeque::new(),
            buckets: Vec::new(),
            occ: 0,
            last: 0,
            len: 0,
            peak_len: 0,
            pushed: 0,
        }
    }

    /// File `entry` (with `entry.time >= last`) under its bucket.
    #[inline]
    fn place(&mut self, entry: Entry<E>) {
        debug_assert!(entry.time >= self.last);
        let diff = entry.time ^ self.last;
        if diff == 0 {
            self.due.push_back(entry);
            return;
        }
        let i = (Time::BITS - 1 - diff.leading_zeros()) as usize;
        if i >= self.buckets.len() {
            self.buckets.resize_with(i + 1, Vec::new);
        }
        self.buckets[i].push(entry);
        self.occ |= 1 << i;
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// A push into an empty queue anchors the queue at `time`. A push below
    /// the anchor while the queue is non-empty (a straggler) re-anchors the
    /// whole queue at `time`: every pending entry is later, so the bucket
    /// invariant holds again after re-placing them, at O(len) cost.
    #[inline]
    pub fn push(&mut self, time: Time, event: E) {
        if self.len == 0 {
            self.last = time;
        } else if time < self.last {
            self.reanchor(time);
        }
        self.pushed += 1;
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        self.place(Entry { time, event });
    }

    /// Collects the entries container by container, so each equal-time
    /// group keeps its order, and re-places them under the new anchor.
    #[cold]
    fn reanchor(&mut self, time: Time) {
        let mut all: Vec<Entry<E>> = self.due.drain(..).collect();
        for b in &mut self.buckets {
            all.append(b);
        }
        self.occ = 0;
        self.last = time;
        for e in all {
            self.place(e);
        }
    }

    /// Make bucket 0 hold the earliest pending time: anchor at the minimum
    /// of the lowest non-empty bucket and re-place that bucket, whose
    /// entries all land strictly lower (the new anchor shares every bit
    /// above `i` with them) and, bucket `i` being the lowest non-empty one,
    /// in empty buckets. Returns false when the queue is empty.
    fn refill(&mut self) -> bool {
        if !self.due.is_empty() {
            return true;
        }
        if self.occ == 0 {
            return false;
        }
        let i = self.occ.trailing_zeros() as usize;
        self.occ &= !(1 << i);
        // Re-place through the drained vector and hand it back: the bucket
        // keeps its allocation for the next time it fills.
        let mut drained = std::mem::take(&mut self.buckets[i]);
        self.last = drained.iter().map(|e| e.time).min().unwrap_or(self.last);
        for e in drained.drain(..) {
            self.place(e);
        }
        self.buckets[i] = drained;
        true
    }

    /// Remove and return the earliest event, or `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if !self.refill() {
            return None;
        }
        let e = self.due.pop_front()?;
        self.len -= 1;
        Some((e.time, e.event))
    }

    /// Remove and return the earliest event only if it is due, i.e. its
    /// time is `<= now`. One bucket refill at most, where a
    /// [`peek_time`](Self::peek_time) then [`pop`](Self::pop) pair would
    /// scan the lowest bucket and then refill from it.
    #[inline]
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        if !self.refill() || self.last > now {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the earliest pending event. Scans the lowest non-empty
    /// bucket when bucket 0 is empty.
    pub fn peek_time(&self) -> Option<Time> {
        if !self.due.is_empty() {
            return Some(self.last);
        }
        if self.occ == 0 {
            return None;
        }
        let i = self.occ.trailing_zeros() as usize;
        self.buckets[i].iter().map(|e| e.time).min()
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of simultaneously pending events seen so far.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.due.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.occ = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn drain<E>(q: &mut EventQueue<E>) -> Vec<(Time, E)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn new_allocates_nothing() {
        let q: EventQueue<u64> = EventQueue::new();
        assert_eq!(q.due.capacity(), 0);
        assert_eq!(q.buckets.capacity(), 0);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(5, ());
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn bookkeeping_counters() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.pop();
        q.push(3, ());
        assert_eq!(q.total_pushed(), 3);
        assert_eq!(q.peak_len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // peak and pushed survive clear
        assert_eq!(q.peak_len(), 2);
        assert_eq!(q.total_pushed(), 3);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(100, 100u64);
        q.push(50, 50);
        assert_eq!(q.pop(), Some((50, 50)));
        q.push(75, 75);
        q.push(25, 25);
        assert_eq!(q.pop(), Some((25, 25)));
        assert_eq!(q.pop(), Some((75, 75)));
        assert_eq!(q.pop(), Some((100, 100)));
    }

    #[test]
    fn ties_land_in_bucket0_after_replacement() {
        // Same-time ties interleaved across three far-apart times: each
        // group reaches bucket 0 through one or more re-placements, out
        // of push order, and must still pop FIFO.
        let mut q = EventQueue::new();
        let (near, mid, far) = (3, (5 << 10) + 17, 640 << 10);
        q.push(0, 0);
        for i in 0..4 {
            q.push(far, 300 + i);
            q.push(mid, 200 + i);
            q.push(near, 100 + i);
        }
        assert_eq!(q.pop(), Some((0, 0)));
        let want: Vec<(Time, i32)> = (0..4)
            .map(|i| (near, 100 + i))
            .chain((0..4).map(|i| (mid, 200 + i)))
            .chain((0..4).map(|i| (far, 300 + i)))
            .collect();
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn straggler_below_last_reanchors() {
        // A pop far out moves the anchor; a push below it while other
        // entries are pending must still pop first, and the rest keep
        // their order, ties included.
        let mut q = EventQueue::new();
        q.push(200_005, "a");
        q.push(202_049, "b");
        q.push(202_049, "b2");
        q.push(448_000, "c");
        assert_eq!(q.pop(), Some((200_005, "a")));
        q.push(1, "early");
        q.push(202_049, "b3");
        assert_eq!(
            drain(&mut q),
            vec![
                (1, "early"),
                (202_049, "b"),
                (202_049, "b2"),
                (202_049, "b3"),
                (448_000, "c")
            ]
        );
    }

    #[test]
    fn push_into_emptied_queue_after_far_pop() {
        let mut q = EventQueue::new();
        q.push(1 << 40, "far");
        assert_eq!(q.pop(), Some((1 << 40, "far")));
        q.push(7, "a");
        q.push(7, "b");
        q.push(6, "c");
        assert_eq!(drain(&mut q), vec![(6, "c"), (7, "a"), (7, "b")]);
    }

    #[test]
    fn times_with_bit_63_set() {
        let hi = 1u64 << 63;
        let mut q = EventQueue::new();
        q.push(Time::MAX, 3);
        q.push(hi + 1, 2);
        q.push(hi, 1);
        q.push(5, 0);
        q.push(hi + 1, 22);
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(
            drain(&mut q),
            vec![(5, 0), (hi, 1), (hi + 1, 2), (hi + 1, 22), (Time::MAX, 3)]
        );
    }

    #[test]
    fn peek_reaches_every_bucket() {
        let mut q = EventQueue::new();
        q.push(0, ());
        q.pop();
        q.push(128 << 10, ());
        assert_eq!(q.peek_time(), Some(128 << 10));
        q.push((3 << 10) + 7, ());
        assert_eq!(q.peek_time(), Some((3 << 10) + 7));
        q.push(12, ());
        assert_eq!(q.peek_time(), Some(12));
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.pop_due(10), Some((10, "a")));
        assert_eq!(q.pop_due(19), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(Time::MAX), Some((20, "b")));
        assert_eq!(q.pop_due(Time::MAX), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::drain;
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Reference model: a map keyed by `(time, push order)`.
    #[derive(Default)]
    struct Model<E> {
        map: BTreeMap<(Time, u64), E>,
        seq: u64,
    }

    impl<E> Model<E> {
        fn push(&mut self, t: Time, e: E) {
            self.map.insert((t, self.seq), e);
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(Time, E)> {
            self.map.pop_first().map(|((t, _), e)| (t, e))
        }
        fn peek_time(&self) -> Option<Time> {
            self.map.keys().next().map(|k| k.0)
        }
    }

    proptest! {
        /// Whatever we push, pops come out sorted by time, and same-time
        /// events preserve push order.
        #[test]
        fn pop_order_is_stable_sort(times in proptest::collection::vec(0u64..1000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i);
            }
            let out = drain(&mut q);
            prop_assert_eq!(out.len(), times.len());
            for w in out.windows(2) {
                let (t0, i0) = w[0];
                let (t1, i1) = w[1];
                prop_assert!(t0 <= t1);
                if t0 == t1 {
                    prop_assert!(i0 < i1, "FIFO violated for equal times");
                }
            }
        }

        /// len() always equals pushes minus pops.
        #[test]
        fn len_is_consistent(ops in proptest::collection::vec(proptest::option::of(0u64..100), 0..300)) {
            let mut q = EventQueue::new();
            let mut expect = 0usize;
            for op in ops {
                match op {
                    Some(t) => { q.push(t, ()); expect += 1; }
                    None => {
                        let popped = q.pop().is_some();
                        prop_assert_eq!(popped, expect > 0);
                        if popped { expect -= 1; }
                    }
                }
                prop_assert_eq!(q.len(), expect);
            }
        }

        /// The queue matches the reference model step for step on
        /// interleaved traces: pushes relative to the clock (the
        /// simulator's pattern, near ones dense with ties), absolute-time
        /// stragglers, times with bit 63 set, pops and due-pops.
        #[test]
        fn matches_reference_model(
            ops in proptest::collection::vec((0u64..200_000, 0u8..6), 0..400)
        ) {
            let mut q = EventQueue::new();
            let mut m = Model::default();
            let mut clock = 0u64;
            for (id, (dt, kind)) in ops.into_iter().enumerate() {
                let popped = match kind {
                    0 => { q.push(clock + dt, id); m.push(clock + dt, id); None }
                    1 => { q.push(clock + dt % 16, id); m.push(clock + dt % 16, id); None }
                    2 => { q.push(dt, id); m.push(dt, id); None }
                    3 => { q.push((1 << 63) | dt, id); m.push((1 << 63) | dt, id); None }
                    4 => {
                        let x = q.pop();
                        prop_assert_eq!(x, m.pop(), "pop diverged");
                        x
                    }
                    _ => {
                        let now = clock + dt / 4;
                        let x = q.pop_due(now);
                        let due = m.peek_time().is_some_and(|t| t <= now);
                        prop_assert_eq!(x, if due { m.pop() } else { None }, "pop_due diverged");
                        x
                    }
                };
                if let Some((t, _)) = popped.filter(|(t, _)| t >> 63 == 0) {
                    clock = clock.max(t);
                }
                prop_assert_eq!(q.len(), m.map.len());
                prop_assert_eq!(q.peek_time(), m.peek_time());
            }
            prop_assert_eq!(drain(&mut q), std::iter::from_fn(|| m.pop()).collect::<Vec<_>>());
        }
    }
}
