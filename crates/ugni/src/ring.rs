//! The NIC-side queues: SMSG mailboxes, MSGQs and CQs.
//!
//! Each holds the entries of a few in-flight transactions: a mailbox at
//! most its credit window per inbound connection, a CQ its owner's
//! outstanding posts. Entries arrive nearly in time order, so a sorted
//! ring with the insert point found from the back costs O(1) per push in
//! the common case, and the earliest entry is always the front.

use sim_core::Time;
use std::collections::VecDeque;

/// Entries ordered by `(time, push order)`.
pub(crate) struct TimeRing<E> {
    q: VecDeque<(Time, E)>,
}

impl<E> Default for TimeRing<E> {
    fn default() -> Self {
        Self { q: VecDeque::new() }
    }
}

impl<E> TimeRing<E> {
    /// Insert after the last entry whose time is `<= time`, so equal times
    /// keep push order.
    pub(crate) fn push(&mut self, time: Time, e: E) {
        let mut at = self.q.len();
        while at > 0 && self.q[at - 1].0 > time {
            at -= 1;
        }
        self.q.insert(at, (time, e));
    }

    /// Remove the earliest entry if its time is `<= now`.
    pub(crate) fn pop_due(&mut self, now: Time) -> Option<(Time, E)> {
        if self.q.front()?.0 > now {
            return None;
        }
        self.q.pop_front()
    }

    /// Time of the earliest entry.
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.q.front().map(|&(t, _)| t)
    }

    pub(crate) fn len(&self) -> usize {
        self.q.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut r = TimeRing::default();
        for i in 0..5 {
            r.push(7, i);
        }
        r.push(3, 9);
        assert_eq!(r.peek_time(), Some(3));
        let got: Vec<_> = std::iter::from_fn(|| r.pop_due(7)).collect();
        assert_eq!(got, [(3, 9), (7, 0), (7, 1), (7, 2), (7, 3), (7, 4)]);
    }

    #[test]
    fn pop_due_leaves_future_entries() {
        let mut r = TimeRing::default();
        r.push(10, 'a');
        assert_eq!(r.pop_due(9), None);
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop_due(10), Some((10, 'a')));
        assert_eq!(r.peek_time(), None);
    }

    /// One step of the model check: push at an offset from the current
    /// front (negative offsets land below it, like a CQ resync re-insert
    /// at `max(t, now)` or an out-of-order arrival), or drain what is due
    /// at an arbitrary `now`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(i64),
        PopDue(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        (any::<bool>(), 0u64..64, any::<bool>()).prop_map(|(push, x, below)| {
            if push {
                // Small offsets make equal-time ties common.
                let off = (x % 8) as i64;
                Op::Push(if below { -off } else { off })
            } else {
                Op::PopDue(x)
            }
        })
    }

    proptest! {
        #[test]
        fn ring_matches_time_seq_model(ops in proptest::collection::vec(op(), 1..300)) {
            let mut ring: TimeRing<u32> = TimeRing::default();
            let mut model: BTreeMap<(Time, u64), u32> = BTreeMap::new();
            let mut seq = 0u64;
            let mut clock: Time = 1_000;
            for op in ops {
                match op {
                    Op::Push(off) => {
                        let base = ring.peek_time().unwrap_or(clock);
                        let t = base.saturating_add_signed(off);
                        ring.push(t, seq as u32);
                        model.insert((t, seq), seq as u32);
                        seq += 1;
                    }
                    Op::PopDue(adv) => {
                        let now = clock + adv;
                        clock = now.saturating_sub(8);
                        loop {
                            let want = match model.first_key_value() {
                                Some((&(t, s), _)) if t <= now => model.remove(&(t, s)).map(|v| (t, v)),
                                _ => None,
                            };
                            let got = ring.pop_due(now);
                            prop_assert_eq!(got, want);
                            if got.is_none() {
                                break;
                            }
                        }
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.peek_time(), model.keys().next().map(|k| k.0));
            }
        }
    }
}
