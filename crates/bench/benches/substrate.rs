//! Criterion benches of the simulator's hot substrate paths: the event
//! queue, the memory pool, torus routing, and raw fabric operations.
//! These measure the *simulator's* real wall-clock performance (the
//! figure-level results are virtual-time and live in `src/bin/`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gemini_net::{Fabric, GeminiParams, Mechanism, RdmaOp, RegTable, Torus};
use mempool::MemPool;
use sim_core::EventQueue;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1024u64 {
                q.push((i * 7919) % 4096, i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    // Hold model at Hopper density: ~10^5 pending events with 64-byte
    // payloads. A hold pops the earliest event and schedules it again
    // 0-4 us later, so the pending set keeps its size. The queue is warmed
    // to steady state untimed; one iteration is 1024 holds.
    c.bench_function("event_queue_hold_100k_64b", |b| {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % 4096
        };
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.push(step(), [i; 8]);
        }
        let mut hold = |q: &mut EventQueue<[u64; 8]>| {
            let (t, v) = q.pop().expect("hold queue never empties");
            q.push(t + step(), v);
            v[0]
        };
        for _ in 0..100_000 {
            hold(&mut q);
        }
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc = acc.wrapping_add(hold(&mut q));
            }
            black_box(acc)
        })
    });
}

fn bench_mempool(c: &mut Criterion) {
    let params = GeminiParams::hopper();
    c.bench_function("mempool_alloc_free_steady", |b| {
        let mut reg = RegTable::new();
        let mut pool = MemPool::new(1 << 40);
        // Warm the size class.
        let (blk, _) = pool.alloc(&params, &mut reg, 16 * 1024);
        pool.free(&params, &mut reg, blk);
        b.iter(|| {
            let (blk, cost) = pool.alloc(&params, &mut reg, 16 * 1024);
            let f = pool.free(&params, &mut reg, blk);
            black_box(cost + f)
        })
    });
}

fn bench_routing(c: &mut Criterion) {
    let t = Torus::new((17, 8, 24));
    c.bench_function("torus_route_far_pair", |b| {
        b.iter(|| black_box(t.route(black_box(0), black_box(3263))))
    });
    c.bench_function("torus_hops_sweep_256", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for n in 0..256 {
                acc += t.hops(0, n);
            }
            black_box(acc)
        })
    });
}

fn bench_fabric(c: &mut Criterion) {
    c.bench_function("fabric_smsg_send", |b| {
        let mut f = Fabric::new(GeminiParams::test_small(), 8);
        let mut t = 0;
        b.iter(|| {
            t += 10_000;
            black_box(f.smsg_send(t, 0, 1, (0, 1), 64).unwrap())
        })
    });
    c.bench_function("fabric_rdma_bte_get", |b| {
        let mut f = Fabric::new(GeminiParams::test_small(), 8);
        let mut t = 0;
        b.iter(|| {
            t += 100_000;
            black_box(f.rdma(t, 1, 0, 65_536, Mechanism::Bte, RdmaOp::Get))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets =
    bench_event_queue,
    bench_mempool,
    bench_routing,
    bench_fabric
);
criterion_main!(benches);
