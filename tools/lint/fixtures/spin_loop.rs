// Fixture for the busy-wait arm of `thread-outside-parallel`:
// hand-rolled spinning in a simulation crate.
// Never compiled.

pub fn poll_until_ready(&self) {
    while !self.ready() {
        std::hint::spin_loop(); // FIRES: busy-wait in a sim crate
    }
}

pub fn be_polite(&self) {
    thread::yield_now(); // FIRES: scheduler yield in a sim crate
}

pub fn backoff(&self) {
    core::hint::spin_loop(); // FIRES: core path too
}

pub fn metered_wait(&self) {
    std::hint::spin_loop(); // thread-ok: bounded probe in the host harness
}

pub fn spin_loop_names_are_bounded(s: spin_loops, y: yield_nowish) {
    // Whole-identifier boundaries: the patterns must not fire inside
    // longer identifiers (nor in this fn's own name).
    let _ = (s, y);
}
