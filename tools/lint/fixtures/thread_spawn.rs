// Fixture for the `thread-outside-parallel` rule: ad-hoc concurrency in
// a simulation crate. Never compiled.

pub fn run_async(&mut self) {
    let h = std::thread::spawn(|| poll_loop()); // FIRES: spawn in a sim crate
    self.workers.push(h);
}

pub struct Shared {
    inner: Mutex<State>,       // FIRES: lock in a sim crate
    seq: AtomicU64,            // FIRES: atomic in a sim crate
    gate: Barrier,             // FIRES
}

pub fn notify(&self) {
    let (tx, rx) = mpsc::channel(); // FIRES
    tx.send(()).ok();
    let _ = rx;
}

pub struct Stats {
    // A counter that never feeds back into virtual time.
    hits: AtomicU64, // thread-ok: host-side profiling only, not simulated state
}

pub fn spin_barrier_name_is_bounded(sb: SpinBarrier) {
    // `SpinBarrier` is one identifier: the `Barrier` pattern must not
    // match inside it (left boundary check).
    let _ = sb;
}

pub fn barrier_stats_name_is_bounded(bs: BarrierStats, ch: mpscish) {
    // Right boundaries too: `Barrier` must not fire inside
    // `BarrierStats`, nor `mpsc` inside `mpscish`.
    let _ = (bs, ch);
}
