//! Host-speed calibration.
//!
//! On a shared host the same simulation can take 1.5× longer in one
//! minute than in the next: other tenants contend for the shared cache,
//! memory bandwidth and clock, and nothing in this process can stop
//! that. What it can do is measure it. A fixed calibration kernel — a
//! binary-heap event loop that reads a table a few MiB large, builds a
//! message buffer and updates a hash map per event: the shape of a
//! discrete-event simulator's hot loop, and no code of the stack under
//! test — is timed between every two repetitions, for a tenth of the
//! repetition's time ([`calibrate`]). A repetition's host times are then
//! scaled by [`NOMINAL_S`] over the mean of the kernel times just before
//! and just after it ([`scale`]): they read as seconds on a host where
//! the kernel takes [`NOMINAL_S`], and a change to the stack moves them
//! while a change in the host's speed mostly does not.
//!
//! The kernel does exactly the same work on every run (the table is
//! read-only; heap, buffers and map start from the same state), so its
//! time varies only with the host.

use crate::gen::mix;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Kernel time on the reference host, seconds: the median kernel time of
/// a 2-vCPU Xeon VM (2 MiB L2 per core, shared L3) at its usual speed.
pub const NOMINAL_S: f64 = 0.035;

/// Table entries: 4 MiB, past the private L2 and into the shared cache.
const TABLE: usize = 1 << 19;
/// Pending events held in the heap.
const PENDING: u32 = 1 << 16;
/// Events popped and pushed per kernel run.
const STEPS: u32 = 1 << 16;
/// Message buffers alive at once.
const SLOTS: usize = 4096;
/// Keys in the hash map.
const KEYS: u64 = 1 << 16;

/// The calibration kernel and its state.
pub struct Calibrator {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    body: Vec<u8>,
    slots: Vec<Vec<u8>>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Calibrator {
            table: (0..TABLE as u64).map(mix).collect(),
            heap: BinaryHeap::with_capacity(PENDING as usize + 1),
            body: (0..2048u32).map(|i| i as u8).collect(),
            slots: vec![Vec::new(); SLOTS],
            map: HashMap::default(),
        };
        c.run();
        c
    }

    /// Run the kernel once; its host time in seconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        self.run();
        t.elapsed().as_secs_f64()
    }

    /// Pop an event, read the table, build a message buffer, count it in
    /// the hash map, schedule the next event; `STEPS` times.
    fn run(&mut self) {
        let n = TABLE as u64;
        self.heap.clear();
        self.map.clear();
        self.slots.iter_mut().for_each(Vec::clear);
        self.heap
            .extend((0..PENDING).map(|i| Reverse((self.table[i as usize] % 1024, i))));
        for _ in 0..STEPS {
            let Reverse((now, i)) = self.heap.pop().expect("the heap never empties");
            let v = self.table[((self.table[i as usize] ^ now) % n) as usize];
            let len = 16 + (v >> 32) as usize % (self.body.len() - 16);
            self.slots[v as usize % SLOTS] = self.body[..len].to_vec();
            *self.map.entry((v >> 16) % KEYS).or_insert(0) += 1;
            if v & 1 == 0 {
                self.map.remove(&((v >> 17) % KEYS));
            }
            self.heap
                .push(Reverse((now + 1 + v % 1024, (v % n) as u32)));
        }
        std::hint::black_box(self.map.len());
    }
}

/// Time the kernel right after a repetition that took `rep_s` host
/// seconds: as many runs as fill a tenth of that, at least one. Returns
/// their median, seconds.
pub fn calibrate(cal: &mut Calibrator, rep_s: f64) -> f64 {
    let mut v = vec![cal.measure()];
    while v.iter().sum::<f64>() < 0.1 * rep_s {
        v.push(cal.measure());
    }
    crate::report::median(v)
}

/// Factor that turns host times measured between kernel times `before`
/// and `after` into reference-host times.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_and_scale_is_inverse_speed() {
        let mut c = Calibrator::new();
        assert!(c.measure() > 0.0);
        assert_eq!(scale(NOMINAL_S, NOMINAL_S), 1.0);
        assert_eq!(scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
    }
}
