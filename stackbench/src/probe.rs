//! Outside-in host timing at three layer boundaries.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into the stack: the handler closures it registers (`app`), the
//! `am_send` and Converse `send` calls those closures make (`am`,
//! `core.send`), and every [`MachineLayer`] entry point through the
//! [`Timed`] wrapper (`lrts`). Each span adds its duration to a
//! per-boundary total; self times are derived from the totals (a layer's
//! span minus the spans nested inside it). The simulation runs on one
//! thread, so the totals are plain thread-local cells.
//!
//! With the probe off, [`span`] calls straight through: an untraced run
//! does no clock reads at all.

use bytes::Bytes;
use charm_rt::cluster::MachineCtx;
use charm_rt::lrts::{MachineLayer, PersistentHandle};
use charm_rt::msg::PeId;
use std::any::Any;
use std::cell::Cell;
use std::time::Instant;

/// Benchmark handler closures.
pub const APP: usize = 0;
/// `PeCtx::am_send` calls made by those closures.
pub const AM: usize = 1;
/// `PeCtx::send` / `send_persistent` / `create_persistent` calls made by
/// those closures (Converse work, booked to `core`).
pub const SEND: usize = 2;

/// Machine-layer entry points, per layer: `LRTS + 5 * layer + op`.
const LRTS: usize = 3;
pub const INIT: usize = 0;
pub const SYNC_SEND: usize = 1;
pub const ON_EVENT: usize = 2;
pub const PERSISTENT: usize = 3;
pub const NODE_FAULT: usize = 4;
const OPS: usize = 5;

pub const SPANS: usize = LRTS + 2 * OPS;

/// Index of machine-layer operation `op` of layer `layer` (0 = uGNI,
/// 1 = MPI).
pub const fn lrts(layer: usize, op: usize) -> usize {
    LRTS + layer * OPS + op
}

struct Probe {
    on: Cell<bool>,
    calls: [Cell<u64>; SPANS],
    ns: [Cell<u64>; SPANS],
}

thread_local! {
    static PROBE: Probe = const {
        Probe {
            on: Cell::new(false),
            calls: [const { Cell::new(0) }; SPANS],
            ns: [const { Cell::new(0) }; SPANS],
        }
    };
}

/// Per-boundary call counts and summed span durations.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub calls: [u64; SPANS],
    pub ns: [u64; SPANS],
}

impl Totals {
    /// Summed duration of every machine-layer span (all layers, all ops).
    pub fn lrts_ns(&self) -> u64 {
        self.ns[LRTS..].iter().sum()
    }
}

/// Turn timing on or off and zero the totals.
pub fn reset(on: bool) {
    PROBE.with(|p| {
        p.on.set(on);
        for i in 0..SPANS {
            p.calls[i].set(0);
            p.ns[i].set(0);
        }
    });
}

pub fn totals() -> Totals {
    PROBE.with(|p| Totals {
        calls: std::array::from_fn(|i| p.calls[i].get()),
        ns: std::array::from_fn(|i| p.ns[i].get()),
    })
}

/// Run `f` inside span `idx` (a plain call when the probe is off).
#[inline]
pub fn span<R>(idx: usize, f: impl FnOnce() -> R) -> R {
    let on = PROBE.with(|p| p.on.get());
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let d = t0.elapsed().as_nanos() as u64;
    PROBE.with(|p| {
        p.calls[idx].set(p.calls[idx].get() + 1);
        p.ns[idx].set(p.ns[idx].get() + d);
    });
    r
}

/// A delegating machine layer that times every entry point of the layer
/// it wraps. It forwards *every* trait method, the defaulted ones too:
/// leaving one out would silently swap in the trait default
/// (`send_persistent` rerouted to `sync_send`, `lookahead` of 1,
/// `create_persistent` and `node_fault` as no-ops) and change the
/// program under measurement. `as_any` forwards as well, so
/// `Cluster::layer_mut::<UgniLayer>()` still downcasts to the inner layer.
pub struct Timed {
    inner: Box<dyn MachineLayer>,
    layer: usize,
}

impl Timed {
    /// Wrap `inner`, booking its spans to layer index `layer`.
    pub fn new(inner: Box<dyn MachineLayer>, layer: usize) -> Self {
        Timed { inner, layer }
    }
}

impl MachineLayer for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }

    fn init(&mut self, ctx: &mut MachineCtx) {
        span(lrts(self.layer, INIT), || self.inner.init(ctx))
    }

    fn sync_send(&mut self, ctx: &mut MachineCtx, src_pe: PeId, dst_pe: PeId, msg: Bytes) {
        span(lrts(self.layer, SYNC_SEND), || {
            self.inner.sync_send(ctx, src_pe, dst_pe, msg)
        })
    }

    fn on_event(&mut self, ctx: &mut MachineCtx, pe: PeId, ev: Box<dyn Any + Send>) {
        span(lrts(self.layer, ON_EVENT), || {
            self.inner.on_event(ctx, pe, ev)
        })
    }

    fn lookahead(&self) -> sim_core::Time {
        self.inner.lookahead()
    }

    fn create_persistent(
        &mut self,
        ctx: &mut MachineCtx,
        src_pe: PeId,
        dst_pe: PeId,
        max_bytes: u64,
        handle: PersistentHandle,
    ) {
        span(lrts(self.layer, PERSISTENT), || {
            self.inner
                .create_persistent(ctx, src_pe, dst_pe, max_bytes, handle)
        })
    }

    fn send_persistent(
        &mut self,
        ctx: &mut MachineCtx,
        handle: PersistentHandle,
        src_pe: PeId,
        dst_pe: PeId,
        msg: Bytes,
    ) {
        span(lrts(self.layer, PERSISTENT), || {
            self.inner.send_persistent(ctx, handle, src_pe, dst_pe, msg)
        })
    }

    fn node_fault(&mut self, ctx: &mut MachineCtx, node: gemini_net::NodeId) {
        span(lrts(self.layer, NODE_FAULT), || {
            self.inner.node_fault(ctx, node)
        })
    }
}
