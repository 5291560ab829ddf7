//! The app message format and the receiver-side checks.
//!
//! Every app message is a 16-byte header chained onto a body:
//!
//! ```text
//! [seq u32][stamp u64][check u32] body...
//! ```
//!
//! `seq` is the per-pair sequence number, `stamp` the sender's virtual
//! time at the send, and `check` a seeded hash binding the source and
//! destination PEs, `seq`, `stamp` and the body length, so a message that
//! arrives at the wrong PE, from the wrong PE, or with a damaged header
//! fails it. The body is a zero-copy slice of one seeded buffer built
//! once per workload (at a seeded offset per message), and the receiver
//! compares it against that buffer: in full up to [`FULL_CHECK`] bytes,
//! and as three 64-byte windows (head, tail, one seeded middle window)
//! above, so verifying a 1 MiB body does not swamp the layers being
//! measured.
//!
//! The header is read through `Bytes::slice`, never by dereferencing the
//! whole payload: dereferencing a chained `Bytes` flattens it (a copy).

use crate::gen::mix;
use bytes::Bytes;
use charm_rt::msg::PeId;
use std::cell::RefCell;

pub const HDR: usize = 16;

/// Bodies up to this length are compared byte for byte.
pub const FULL_CHECK: usize = 4096;

const WINDOW: usize = 64;

/// The seeded inputs every message is built from and checked against.
#[derive(Debug, Clone)]
pub struct Common {
    pub tag: u64,
    pub master: Bytes,
}

impl Common {
    /// `body_cap` is the largest body any message of the workload carries.
    pub fn new(rng: &mut crate::gen::Rng, body_cap: usize) -> Self {
        let tag = rng.next_u64();
        let master = Bytes::from(crate::gen::body_bytes(rng, body_cap + body_cap / 16 + 64));
        Common { tag, master }
    }

    fn check(&self, src: PeId, dst: PeId, seq: u32, stamp: u64, len: usize) -> u32 {
        let a = mix(self.tag ^ ((src as u64) << 32 | dst as u64));
        let b = mix(a ^ ((seq as u64) << 32 | len as u64));
        (mix(b ^ stamp) >> 32) as u32
    }

    fn body_off(&self, src: PeId, dst: PeId, seq: u32, len: usize) -> usize {
        let room = self.master.len() - len;
        let h = mix(self.tag.rotate_left(17) ^ ((src as u64) << 32 | dst as u64) ^ (seq as u64));
        (h % (room as u64 + 1)) as usize & !7
    }

    /// Build the message `src -> dst` number `seq` with a `len`-byte body.
    pub fn make(&self, src: PeId, dst: PeId, seq: u32, stamp: u64, len: usize) -> Bytes {
        let mut h = Vec::with_capacity(HDR);
        h.extend_from_slice(&seq.to_le_bytes());
        h.extend_from_slice(&stamp.to_le_bytes());
        h.extend_from_slice(&self.check(src, dst, seq, stamp, len).to_le_bytes());
        let off = self.body_off(src, dst, seq, len);
        Bytes::chained(Bytes::from(h), self.master.slice(off..off + len))
    }

    /// Verify a received payload; returns `(seq, stamp, body_len)`.
    pub fn open(&self, src: PeId, dst: PeId, payload: &Bytes) -> Option<(u32, u64, usize)> {
        if payload.len() < HDR {
            return None;
        }
        let h = payload.slice(..HDR);
        let seq = u32::from_le_bytes(h[0..4].try_into().ok()?);
        let stamp = u64::from_le_bytes(h[4..12].try_into().ok()?);
        let check = u32::from_le_bytes(h[12..16].try_into().ok()?);
        let len = payload.len() - HDR;
        if check != self.check(src, dst, seq, stamp, len) || len + 8 > self.master.len() {
            return None;
        }
        if len > 0 {
            let body = payload.slice(HDR..);
            let off = self.body_off(src, dst, seq, len);
            let want = self.master.slice(off..off + len);
            let intact = if len <= FULL_CHECK {
                body[..] == want[..]
            } else {
                let mid = (mix(seq as u64 ^ self.tag) % (len - WINDOW) as u64) as usize;
                [0, mid, len - WINDOW]
                    .iter()
                    .all(|&a| body.slice(a..a + WINDOW)[..] == want.slice(a..a + WINDOW)[..])
            };
            if !intact {
                return None;
            }
        }
        Some((seq, stamp, len))
    }
}

/// What the app observed in one simulation: sends, exactly-once
/// receipts (a bitmap over the workload's message ids), failures, and
/// one virtual latency sample per received message.
#[derive(Debug, Default)]
pub struct Tally {
    pub sent: u64,
    /// Sends that went through the AM aggregation path.
    pub sent_aggregated: u64,
    pub received: u64,
    pub duplicates: u64,
    pub corrupt: u64,
    pub expected: u64,
    seen: Vec<u64>,
    /// Virtual one-way latency (receiver `now` minus sender stamp), ns,
    /// in receipt order. Preallocated to the expected receipt count.
    pub lat: Vec<u64>,
}

impl Tally {
    /// Messages not delivered exactly once with an intact body.
    pub fn failures(&self) -> u64 {
        self.duplicates + self.corrupt + self.expected.saturating_sub(self.received)
    }
}

thread_local! {
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

/// Start a simulation expecting `expected` messages with ids below
/// `id_space`. Reuses the previous simulation's buffers when they are
/// large enough, so the hot path never grows them.
pub fn begin(expected: u64, id_space: u64) {
    TALLY.with(|t| {
        let mut t = t.borrow_mut();
        let lat = std::mem::take(&mut t.lat);
        let seen = std::mem::take(&mut t.seen);
        *t = Tally {
            expected,
            lat,
            seen,
            ..Tally::default()
        };
        t.lat.clear();
        t.lat.reserve(expected as usize);
        t.seen.clear();
        t.seen.resize(id_space.div_ceil(64) as usize, 0);
    });
}

/// End a simulation: hand back its tally.
pub fn end() -> Tally {
    TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Return a finished tally's buffers for reuse by the next [`begin`].
pub fn recycle(old: Tally) {
    TALLY.with(|t| {
        let mut t = t.borrow_mut();
        if t.lat.capacity() < old.lat.capacity() {
            t.lat = old.lat;
        }
        if t.seen.capacity() < old.seen.capacity() {
            t.seen = old.seen;
        }
    });
}

pub fn sent(aggregated: bool) {
    TALLY.with(|t| {
        let mut t = t.borrow_mut();
        t.sent += 1;
        t.sent_aggregated += aggregated as u64;
    });
}

/// Record the receipt of message `id` sent at virtual time `stamp`;
/// false when it is a duplicate (or its id is out of range).
pub fn received(id: u64, stamp: u64, now: u64) -> bool {
    TALLY.with(|t| {
        let mut t = t.borrow_mut();
        let (w, bit) = ((id / 64) as usize, 1u64 << (id % 64));
        match t.seen.get(w) {
            Some(word) if word & bit != 0 => t.duplicates += 1,
            Some(_) => {
                t.seen[w] |= bit;
                t.received += 1;
                t.lat.push(now.saturating_sub(stamp));
                return true;
            }
            None => t.corrupt += 1,
        }
        false
    })
}

/// Record a message that failed its checks.
pub fn corrupt() {
    TALLY.with(|t| t.borrow_mut().corrupt += 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn round_trip_small_and_large() {
        let c = Common::new(&mut Rng::new(3), 1 << 20);
        for len in [0, 1, 500, 4096, 70_000, 1 << 20] {
            let m = c.make(4, 9, 7, 1234, len);
            assert_eq!(m.len(), HDR + len);
            assert_eq!(c.open(4, 9, &m), Some((7, 1234, len)));
            assert_eq!(c.open(5, 9, &m), None, "wrong source must fail");
            assert_eq!(c.open(4, 8, &m), None, "wrong destination must fail");
        }
    }

    #[test]
    fn damaged_bodies_fail() {
        let c = Common::new(&mut Rng::new(5), 1 << 16);
        for len in [100, 60_000] {
            let m = c.make(1, 2, 3, 4, len);
            let mut v = m.to_vec();
            let last = v.len() - 1;
            v[last] ^= 1;
            assert_eq!(c.open(1, 2, &Bytes::from(v)), None);
        }
    }
}
