//! Double-run bit-identity at the `Cluster` level, fault-free.
//!
//! The chaos suite already proves replay under an active fault plan; this
//! file is the determinism backstop for the *normal* paths the lint pass
//! guards — in particular the registration-cache invalidation walk in
//! `gemini-net::reg`, which iterates its key set (a `BTreeMap`, enforced
//! by `lint-pass`: a `HashMap` there would reshuffle deregistration order
//! between runs and shift every downstream virtual timestamp).

use charm_apps::jacobi2d::{run_jacobi, JacobiConfig};
use charm_apps::pingpong::{charm_bandwidth, charm_one_way};
use charm_apps::LayerKind;
use proptest::prelude::*;
use sim_core::EventQueue;
use std::collections::BTreeMap;

fn layers() -> Vec<LayerKind> {
    vec![LayerKind::ugni(), LayerKind::mpi()]
}

#[test]
fn mixed_size_pingpong_replays_bit_for_bit() {
    // Sizes straddle the eager/rendezvous switch, so both the SMSG path
    // and the registration cache (acquire + invalidate on free) run.
    for layer in layers() {
        for &(bytes, persistent) in &[
            (64usize, false),
            (8192, false),
            (65536, false),
            (65536, true),
        ] {
            let a = charm_one_way(&layer, 1, bytes, 50, persistent);
            let b = charm_one_way(&layer, 1, bytes, 50, persistent);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} pingpong ({bytes}B, persistent={persistent}) diverged across runs",
                layer.name()
            );
        }
    }
}

#[test]
fn bandwidth_window_replays_bit_for_bit() {
    // Windowed rendezvous traffic churns many concurrent registrations,
    // the workload most sensitive to map-iteration order.
    for layer in layers() {
        let a = charm_bandwidth(&layer, 65536, 8, 20);
        let b = charm_bandwidth(&layer, 65536, 8, 20);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{} bandwidth run diverged across runs",
            layer.name()
        );
    }
}

/// Reference model of the event queue: a map keyed by `(time, push
/// order)`, which is the `(time, seq)` FIFO contract by construction.
#[derive(Default)]
struct Model {
    map: BTreeMap<(u64, u64), u32>,
    seq: u64,
}

impl Model {
    fn push(&mut self, t: u64, id: u32) {
        self.map.insert((t, self.seq), id);
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(u64, u32)> {
        self.map.pop_first().map(|((t, _), id)| (t, id))
    }
    fn peek_time(&self) -> Option<u64> {
        self.map.keys().next().map(|k| k.0)
    }
}

/// The event queue must pop the exact sequence the reference model pops —
/// this is the engine-level guarantee behind every pinned virtual time in
/// this file. A deterministic trace shaped like real simulator traffic:
/// bursts of same-time events (scheduler cascades), short hops (protocol
/// charges), long timer jumps (retry horizons) and absolute-time
/// stragglers below the clock (late CQ and mailbox inserts).
#[test]
fn event_queue_matches_reference_model_on_simulator_shaped_trace() {
    let mut model = Model::default();
    let mut q = EventQueue::new();
    let mut clock: u64 = 0;
    let mut id: u32 = 0;
    let mut state: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        // xorshift64*: deterministic, no external RNG needed here.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut push = |t: u64, model: &mut Model, q: &mut EventQueue<u32>| {
        model.push(t, id);
        q.push(t, id);
        id += 1;
    };
    for round in 0..2000 {
        let r = next();
        match r % 11 {
            // Same-time cascade: several events at one instant must pop
            // in push order.
            0 => {
                for _ in 0..(r / 11 % 5 + 2) {
                    push(clock, &mut model, &mut q);
                }
            }
            // Short protocol hop.
            1..=5 => push(clock + r % 2048, &mut model, &mut q),
            // Long timer: far beyond the near horizon.
            6 => push(clock + 100_000 + r % 1_000_000, &mut model, &mut q),
            // Straggler: an absolute time at or below the clock.
            7 => push(r % (clock + 1), &mut model, &mut q),
            // Pop and advance the clock.
            _ => {
                let a = model.pop();
                assert_eq!(q.pop(), a, "pop diverged at round {round}");
                if let Some((t, _)) = a {
                    clock = clock.max(t);
                }
            }
        }
        assert_eq!(q.len(), model.map.len());
        assert_eq!(q.peek_time(), model.peek_time());
    }
    loop {
        let a = model.pop();
        assert_eq!(q.pop(), a, "drain diverged");
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    /// Random (time, seq) interleavings: the event queue pops a
    /// FIFO-stable sort regardless of push pattern, and agrees with the
    /// reference model at every step.
    #[test]
    fn event_queue_pops_fifo_stable(
        ops in proptest::collection::vec(
            proptest::option::of(0u64..500_000), 0..300)
    ) {
        let mut model = Model::default();
        let mut q = EventQueue::new();
        let mut id = 0u32;
        for op in ops {
            match op {
                Some(t) => {
                    model.push(t, id);
                    q.push(t, id);
                    id += 1;
                }
                None => {
                    prop_assert_eq!(q.pop(), model.pop());
                }
            }
        }
        // Final drain (no more pushes): what comes out must be a
        // FIFO-stable sort — times never decrease, ties in push order.
        let mut drained: Vec<(u64, u32)> = Vec::new();
        while let Some(b) = q.pop() {
            prop_assert_eq!(model.pop(), Some(b));
            drained.push(b);
        }
        prop_assert_eq!(model.pop(), None);
        for w in drained.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at t={}", w[0].0);
            }
        }
    }
}

/// The wallclock harness's pinned virtual end times hold: engine fast-path
/// work (queue, zero-copy wire buffers, trace buffering) must never move
/// virtual time. Runs the quick suite, same as the CI wallclock job.
#[test]
fn wallclock_quick_suite_virtual_times_match_pins() {
    let suite = charm_bench::wallclock_suite(&charm_bench::Effort::quick());
    let drifted = suite.drifted();
    assert!(
        drifted.is_empty(),
        "virtual-time drift: {:?}",
        drifted
            .iter()
            .map(|r| format!(
                "{}/{}: {} != pinned {:?}",
                r.name, r.layer, r.virtual_end_ns, r.pinned_end_ns
            ))
            .collect::<Vec<_>>()
    );
}

#[test]
fn jacobi_replays_bit_for_bit_without_faults() {
    let cfg = JacobiConfig {
        n: 20,
        blocks: 4,
        iters: 10,
    };
    for layer in layers() {
        let a = run_jacobi(&layer, 8, 4, &cfg);
        let b = run_jacobi(&layer, 8, 4, &cfg);
        assert_eq!(
            (a.time_ns, a.residual.to_bits(), a.iterations_run),
            (b.time_ns, b.residual.to_bits(), b.iterations_run),
            "{} jacobi diverged across runs",
            layer.name()
        );
        assert_eq!(a.grid, b.grid, "{} grids diverged", layer.name());
    }
}
