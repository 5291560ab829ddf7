//! The sequential discrete-event driver binding Converse schedulers,
//! a machine layer, and the simulated fabric into one runnable job.
//!
//! Execution model (DESIGN.md §3): every PE owns a Converse scheduler — a
//! FIFO of delivered envelopes. Handlers are real Rust closures executed at
//! their virtual start time; they account for computation with
//! [`PeCtx::charge`] and their sends are timestamped at the PE-local
//! virtual time at which they were issued. A PE processes one message at a
//! time (`busy_until`); machine-layer progress for a PE is deferred while
//! that PE is busy, which is exactly how a non-SMP Charm++ process only
//! advances the network between handler executions — the mechanism behind
//! the paper's Fig. 10 and Fig. 12 observations.

use crate::charm::{CharmPe, CharmRegistry};
use crate::ft::{FtCore, FtSnapshot};
use crate::lrts::{MachineLayer, PersistentHandle};
use crate::msg::{Envelope, HandlerId, PeId};
use crate::pe_table::PeTable;
use crate::qd::{QdPe, QdState};
use crate::trace::{Kind, Trace};
use bytes::Bytes;
use gemini_net::NodeId;
use sim_core::{DetRng, EventQueue, Time};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterCfg {
    pub num_pes: u32,
    pub cores_per_node: u32,
    /// Converse scheduler cost per executed handler (dequeue + dispatch).
    pub sched_overhead: Time,
    /// Converse-level cost of issuing one send (envelope setup), excluding
    /// everything the machine layer charges.
    pub send_overhead: Time,
    /// Timeline bucket width for Fig.-12-style profiles (None = totals only).
    pub trace_bucket: Option<Time>,
    /// Safety valve for runaway simulations.
    pub max_events: u64,
    /// Seed for all per-PE deterministic RNGs.
    pub seed: u64,
    /// Chaos knob: the fault plan active in the machine layer's fabric (the
    /// inert default injects nothing). Kept here so drivers and reports can
    /// see at the cluster level whether a run was a chaos run.
    pub fault: gemini_net::FaultPlan,
    /// Host threads for [`Cluster::run`]. The only accepted value is 1:
    /// the simulator has one sequential engine (DESIGN.md §10), and
    /// [`Cluster::new`] panics on anything else. Kept so configurations
    /// that spell it out still build.
    pub threads: u32,
}

impl ClusterCfg {
    pub fn new(num_pes: u32, cores_per_node: u32) -> Self {
        ClusterCfg {
            num_pes,
            cores_per_node,
            sched_overhead: 200,
            send_overhead: 100,
            trace_bucket: None,
            max_events: 2_000_000_000,
            seed: 0xC0FFEE,
            fault: gemini_net::FaultPlan::default(),
            threads: 1,
        }
    }

    pub fn num_nodes(&self) -> u32 {
        self.num_pes.div_ceil(self.cores_per_node)
    }
}

/// Commands from application handlers to the machine layer, executed at
/// the PE-local virtual time they were issued (this keeps all fabric calls
/// globally time-ordered).
pub enum Cmd {
    Send {
        dst: PeId,
        msg: Bytes,
    },
    CreatePersistent {
        dst: PeId,
        max_bytes: u64,
        handle: PersistentHandle,
    },
    SendPersistent {
        handle: PersistentHandle,
        dst: PeId,
        msg: Bytes,
    },
}

/// Simulation events.
pub enum Event {
    /// Let the PE's Converse scheduler run one message.
    PeRun(PeId),
    /// Hand an encoded envelope to a PE's scheduler queue.
    Deliver(PeId, Bytes),
    /// Machine-layer-specific event, processed when the PE is free.
    Machine(PeId, Box<dyn Any + Send>),
    /// Machine-layer event processed at its exact time even if the PE is
    /// busy (protocol continuations whose CPU cost was already charged).
    MachineNow(PeId, Box<dyn Any + Send>),
    /// Drain a PE's parked machine events now that it may be free.
    ParkedWake(PeId),
    /// Application command issued from a handler on `PeId`.
    Cmd(PeId, Cmd),
    /// A node goes down (`up = false`, volatile state lost) or a fresh
    /// incarnation boots (`up = true`). Scheduled from the fault plan's
    /// crash windows at cluster construction.
    NodeLife(NodeId, bool),
    /// Enact crash recovery for a declared-dead node (scheduled by the
    /// failure detector; waits for the node's restart when one is coming).
    FtRecover(NodeId),
}

pub(crate) struct PeState {
    /// Prioritized Converse scheduler queue: (priority, seq) ordering,
    /// FIFO within a priority (Charm++'s prioritized execution).
    pub(crate) queue: std::collections::BinaryHeap<std::cmp::Reverse<PrioEnv>>,
    queue_seq: u64,
    pub(crate) busy_until: Time,
    pub(crate) run_scheduled: bool,
    /// Machine events deferred while this PE was busy, drained by a single
    /// ParkedWake event (re-queueing each one individually is quadratic
    /// under load).
    parked: VecDeque<Box<dyn Any + Send>>,
    parked_wake: bool,
    pub(crate) user: Box<dyn Any + Send>,
    rng: DetRng,
    pub(crate) charm: CharmPe,
    /// Typed-AM per-PE state: destination coalescing buffers + host-side
    /// buffer recyclers (am.rs).
    pub(crate) am: crate::am::AmPe,
    qd: QdPe,
    /// Per-PE persistent-channel handle counter. Handles are namespaced by
    /// PE (`pe << 32 | local`) so a handle's value depends only on its own
    /// PE's history.
    next_persistent: u64,
    /// This PE's own latest checkpoint (survivors roll back to it).
    pub(crate) ft_local: Option<Arc<FtSnapshot>>,
    /// Buddy copies this PE holds for remote PEs (keyed by owner PE;
    /// BTreeMap so recovery scans are deterministic).
    pub(crate) ft_buddy: std::collections::BTreeMap<PeId, Arc<FtSnapshot>>,
}

impl PeState {
    /// A pristine per-PE state. This must stay a *pure* function of
    /// `(seed, pe)`: the flyweight table (pe_table.rs) materializes states
    /// lazily, and lazy-vs-eager construction is only unobservable while
    /// a fresh state depends on nothing but its coordinates.
    pub(crate) fn fresh(seed: u64, pe: u64) -> Self {
        PeState {
            queue: std::collections::BinaryHeap::new(),
            queue_seq: 0,
            busy_until: 0,
            run_scheduled: false,
            parked: VecDeque::new(),
            parked_wake: false,
            user: Box::new(()),
            rng: DetRng::derive(seed, pe),
            charm: CharmPe::default(),
            am: crate::am::AmPe::default(),
            qd: QdPe::default(),
            next_persistent: 0,
            ft_local: None,
            ft_buddy: std::collections::BTreeMap::new(),
        }
    }

    #[cfg(test)]
    pub(crate) fn rng_mut(&mut self) -> &mut DetRng {
        &mut self.rng
    }
}

/// Queue entry ordered by (priority, arrival sequence).
pub(crate) struct PrioEnv {
    prio: u16,
    seq: u64,
    pub(crate) env: Envelope,
}

impl PartialEq for PrioEnv {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio && self.seq == other.seq
    }
}
impl Eq for PrioEnv {}
impl PartialOrd for PrioEnv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PrioEnv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.prio, self.seq).cmp(&(other.prio, other.seq))
    }
}

/// Aggregate run statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClusterStats {
    pub events: u64,
    /// Event-type breakdown: [PeRun, Deliver, Machine, MachineNow, Cmd]
    /// (NodeLife/FtRecover count under the Machine bucket).
    pub event_kinds: [u64; 5],
    pub handlers_run: u64,
    pub msgs_sent: u64,
    pub msgs_delivered: u64,
    pub bytes_sent: u64,
    /// Messages / bytes that actually crossed the machine layer (excludes
    /// Converse self-send loopback).
    pub net_msgs: u64,
    pub net_bytes: u64,
    /// Events discarded because their target node was inside a crash
    /// window (its cores and NIC were dead).
    pub ft_dead_drops: u64,
    /// Messages discarded because they were sent in a pre-recovery
    /// membership epoch (rollback-replay exactly-once).
    pub ft_stale_drops: u64,
    /// Typed AMs that were appended to a destination coalescing buffer
    /// (constituents, not envelopes — am.rs).
    pub am_agg_sent: u64,
    /// Batch envelopes flushed by the AM aggregation engine.
    pub am_batches: u64,
}

/// Result of [`Cluster::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time of the last processed event.
    pub end_time: Time,
    pub stats: ClusterStats,
    pub stopped_early: bool,
}

/// A complete simulated job.
pub struct Cluster {
    /// Shared immutable configuration: one copy behind an `Arc`, no
    /// matter how many PEs or report handles look at it.
    pub cfg: Arc<ClusterCfg>,
    now: Time,
    pub(crate) events: EventQueue<Event>,
    pub(crate) pes: PeTable,
    layer: Option<Box<dyn MachineLayer>>,
    #[allow(clippy::type_complexity)]
    handlers: Vec<Arc<dyn Fn(&mut PeCtx, Envelope) + Send + Sync>>,
    pub(crate) charm: CharmRegistry,
    /// Typed-AM dispatch table + aggregation policy (am.rs).
    pub(crate) am: crate::am::AmRegistry,
    pub(crate) trace: Trace,
    stats: ClusterStats,
    stopped: bool,
    /// Handlers whose traffic is excluded from quiescence counting and
    /// from the membership-epoch gate (QD's control messages and the FT
    /// control plane — heartbeats and detector ticks are epoch-agnostic).
    pub(crate) system_handlers: std::collections::HashSet<u16>,
    qd: Option<QdState>,
    /// Per-node liveness under the fault plan's crash windows: a down
    /// node's events are discarded at dispatch (its cores are dead).
    pub(crate) node_down: Vec<bool>,
    /// True when any crash-window machinery is armed (crash windows in the
    /// plan or the FT subsystem installed): gates the per-event liveness
    /// and epoch checks so crash-free runs pay nothing.
    pub(crate) crash_gate: bool,
    /// Fault-tolerance subsystem state (heartbeat failure detector + buddy
    /// checkpointing), installed by [`Cluster::enable_ft`].
    pub(crate) ft: Option<FtCore>,
    /// Host-side recycler for handler outbox vectors: the scheduler runs
    /// one handler per `PeRun`, and a malloc/free pair per handler is the
    /// single hottest host allocation at scale. Purely a host-memory
    /// optimization — virtual time never observes it.
    outbox_pool: mempool::ObjPool<Vec<(Time, Event)>>,
}

impl Cluster {
    pub fn new(cfg: ClusterCfg, layer: Box<dyn MachineLayer>) -> Self {
        assert!(
            cfg.threads == 1,
            "ClusterCfg::threads = {}: the parallel engine was removed; \
             the simulator runs sequentially and only threads = 1 is accepted",
            cfg.threads
        );
        if let Err(e) = cfg.fault.validate() {
            panic!("invalid fault plan: {e}");
        }
        let trace = Trace::new(cfg.num_pes, cfg.trace_bucket);
        // Per-PE state is a lazily materialized flyweight: nothing is
        // allocated here, PEs spring into (deterministic) existence on
        // first touch (pe_table.rs).
        let pes = PeTable::new(cfg.num_pes, cfg.seed);
        let node_down = vec![false; cfg.num_nodes() as usize];
        let crash_gate = cfg.fault.has_node_crash();
        let mut c = Cluster {
            cfg: Arc::new(cfg),
            now: 0,
            events: EventQueue::new(),
            pes,
            layer: Some(layer),
            handlers: Vec::new(),
            charm: CharmRegistry::default(),
            am: crate::am::AmRegistry::default(),
            trace,
            stats: ClusterStats::default(),
            stopped: false,
            system_handlers: std::collections::HashSet::new(),
            qd: None,
            node_down,
            crash_gate,
            ft: None,
            outbox_pool: mempool::ObjPool::new(4),
        };
        // Handler 0 is reserved for the Charm dispatch (arrays, broadcast,
        // reductions — see charm.rs).
        let h = c.register_handler(crate::charm::dispatch);
        debug_assert_eq!(h, crate::charm::CHARM_HANDLER);
        // Schedule the plan's crash windows as first-class events.
        for w in c.cfg.fault.node_crash.clone() {
            assert!(
                w.node < c.cfg.num_nodes(),
                "crash window names node {} but the job has {} nodes",
                w.node,
                c.cfg.num_nodes()
            );
            c.events.push(w.at_ns, Event::NodeLife(w.node, false));
            if let Some(r) = w.restart_at() {
                c.events.push(r, Event::NodeLife(w.node, true));
            }
        }
        // Give the machine layer its LrtsInit call at t=0.
        let mut layer = c.layer.take().expect("layer");
        {
            let mut ctx = MachineCtx {
                now: 0,
                cfg: &c.cfg,
                pes: &mut c.pes,
                events: &mut c.events,
                trace: &mut c.trace,
                stats: &mut c.stats,
            };
            layer.init(&mut ctx);
        }
        c.layer = Some(layer);
        c
    }

    /// Register a Converse handler; returns its id. Handlers are
    /// `Send + Sync` so a whole `Cluster` can move to, or be built on,
    /// any host thread.
    pub fn register_handler(
        &mut self,
        f: impl Fn(&mut PeCtx, Envelope) + Send + Sync + 'static,
    ) -> HandlerId {
        self.handlers.push(Arc::new(f));
        HandlerId(self.handlers.len() as u16 - 1)
    }

    /// Install per-PE user state. Inherently eager — it materializes
    /// every PE. Whole-machine apps do exactly that anyway; sparse
    /// jobs at huge PE counts should install state from handlers instead.
    pub fn init_user<T: Send + 'static>(&mut self, mut f: impl FnMut(PeId) -> T) {
        for pe in 0..self.cfg.num_pes {
            self.pes.get_mut(pe as usize).user = Box::new(f(pe));
        }
    }

    /// Read back per-PE user state after a run.
    pub fn user<T: 'static>(&self, pe: PeId) -> &T {
        self.pes
            .get(pe as usize)
            .user
            .downcast_ref()
            .expect("user state type mismatch")
    }

    pub fn user_mut<T: 'static>(&mut self, pe: PeId) -> &mut T {
        self.pes
            .get_mut(pe as usize)
            .user
            .downcast_mut()
            .expect("user state type mismatch")
    }

    /// Install quiescence detection state (see [`crate::qd::register`]).
    pub(crate) fn install_qd(&mut self, st: QdState, system: &[HandlerId]) {
        self.qd = Some(st);
        for h in system {
            self.system_handlers.insert(h.0);
        }
    }

    /// Seed the job with an initial message (like a mainchare entry).
    pub fn inject(&mut self, at: Time, dst: PeId, handler: HandlerId, payload: Bytes) {
        let env = Envelope::new(dst, dst, handler, payload);
        // Balance the quiescence ledger: an injection is an external send.
        if !self.system_handlers.contains(&handler.0) {
            self.pes.get_mut(dst as usize).qd.sent += 1;
        }
        self.events.push(at, Event::Deliver(dst, env.encode()));
    }

    /// Direct access to the machine layer (e.g. to read its stats after a
    /// run).
    pub fn layer_mut<T: 'static>(&mut self) -> &mut T {
        self.layer
            .as_mut()
            .expect("layer")
            .as_any()
            .downcast_mut()
            .expect("layer type mismatch")
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enable the per-PE Projections-style segment log (see
    /// [`Trace::export_log`]); call before `run`.
    pub fn enable_trace_log(&mut self) {
        self.trace.enable_log();
    }

    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Pages of per-PE driver state currently materialized (memory
    /// diagnostics; see pe_table.rs and DESIGN.md §13). A sparse job on a
    /// huge machine should report far fewer than [`Self::total_pe_pages`].
    pub fn materialized_pe_pages(&self) -> usize {
        self.pes.materialized_pages()
    }

    /// Page count a fully dense machine would materialize — the
    /// denominator for [`Self::materialized_pe_pages`].
    pub fn total_pe_pages(&self) -> usize {
        (self.cfg.num_pes as usize).div_ceil(crate::pe_table::PE_PAGE_LEN)
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn node_of(&self, pe: PeId) -> NodeId {
        pe / self.cfg.cores_per_node
    }

    /// Run until the event queue drains, a handler calls [`PeCtx::stop`],
    /// or `max_events` is hit.
    pub fn run(&mut self) -> RunReport {
        if self.ft.is_some() {
            assert!(
                self.qd.is_none(),
                "fault tolerance and quiescence detection cannot be combined \
                 (QD's global ledger has no rollback story)"
            );
            self.ft_bootstrap();
        } else {
            assert!(
                !self
                    .cfg
                    .fault
                    .node_crash
                    .iter()
                    .any(|w| w.restart_after_ns.is_some()),
                "a restart window without fault tolerance rejoins an empty node: \
                 call enable_ft() or drop restart_after_ns"
            );
        }
        self.run_seq()
    }

    /// The event loop: pop the earliest event, [`Self::dispatch`] it.
    fn run_seq(&mut self) -> RunReport {
        while !self.stopped {
            if self.stats.events >= self.cfg.max_events {
                panic!(
                    "simulation exceeded max_events={} at t={}",
                    self.cfg.max_events, self.now
                );
            }
            let Some((t, ev)) = self.events.pop() else {
                break;
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.stats.events += 1;
            self.stats.event_kinds[match &ev {
                Event::PeRun(_) => 0,
                Event::Deliver(..) => 1,
                Event::Machine(..) | Event::ParkedWake(_) => 2,
                Event::MachineNow(..) => 3,
                Event::Cmd(..) => 4,
                Event::NodeLife(..) | Event::FtRecover(_) => 2,
            }] += 1;
            self.dispatch(t, ev);
            // Handlers queue FT work (checkpoints, failure declarations)
            // instead of mutating global state mid-event; enact it here so
            // every snapshot/restore sees a consistent cluster.
            if self.ft.is_some() {
                self.ft_pump(t);
            }
        }
        RunReport {
            end_time: self.now,
            stats: self.stats.clone(),
            stopped_early: self.stopped,
        }
    }

    /// Is `pe`'s node currently inside a crash window? (Cheap gate first:
    /// crash-free runs never index the liveness table.)
    fn pe_node_down(&self, pe: PeId) -> bool {
        self.crash_gate && self.node_down[(pe / self.cfg.cores_per_node) as usize]
    }

    fn dispatch(&mut self, t: Time, ev: Event) {
        match ev {
            Event::PeRun(pe) => {
                if self.pe_node_down(pe) {
                    self.stats.ft_dead_drops += 1;
                    return;
                }
                self.pe_run(t, pe)
            }
            Event::Deliver(pe, bytes) => {
                let env = Envelope::decode(&bytes);
                debug_assert_eq!(env.dst_pe, pe);
                if self.crash_gate {
                    if self.node_down[(pe / self.cfg.cores_per_node) as usize] {
                        // The destination's cores are dead: the message is
                        // lost with the node (rollback-replay regenerates
                        // it in the next epoch).
                        self.stats.ft_dead_drops += 1;
                        return;
                    }
                    let cur = self.ft.as_ref().map_or(0, |f| f.epoch);
                    if env.epoch < cur && !self.system_handlers.contains(&env.handler.0) {
                        // Sent before the last recovery rolled the
                        // membership epoch: the replay already (or will)
                        // re-send it, so delivering this copy would break
                        // exactly-once.
                        self.stats.ft_stale_drops += 1;
                        return;
                    }
                }
                self.stats.msgs_delivered += 1;
                self.trace.count_msg(pe);
                let st = self.pes.get_mut(pe as usize);
                if !self.system_handlers.contains(&env.handler.0) {
                    st.qd.delivered += 1;
                }
                let seq = st.queue_seq;
                st.queue_seq += 1;
                st.queue.push(std::cmp::Reverse(PrioEnv {
                    prio: env.priority,
                    seq,
                    env,
                }));
                if !st.run_scheduled {
                    st.run_scheduled = true;
                    let at = t.max(st.busy_until);
                    self.events.push(at, Event::PeRun(pe));
                }
            }
            Event::Machine(pe, mev) => {
                if self.pe_node_down(pe) {
                    // Dead NIC: the progress engine on this node is gone.
                    self.stats.ft_dead_drops += 1;
                    return;
                }
                let st = self.pes.get_mut(pe as usize);
                if st.busy_until > t {
                    // Progress only happens when the PE is free: park the
                    // event and arm a single wake at the busy horizon.
                    st.parked.push_back(mev);
                    if !st.parked_wake {
                        st.parked_wake = true;
                        let at = st.busy_until;
                        self.events.push(at, Event::ParkedWake(pe));
                    }
                    return;
                }
                self.with_layer(t, |layer, ctx| layer.on_event(ctx, pe, mev));
            }
            Event::MachineNow(pe, mev) => {
                if self.pe_node_down(pe) {
                    self.stats.ft_dead_drops += 1;
                    return;
                }
                self.with_layer(t, |layer, ctx| layer.on_event(ctx, pe, mev));
            }
            Event::ParkedWake(pe) => {
                if self.pe_node_down(pe) {
                    self.stats.ft_dead_drops += 1;
                    return;
                }
                self.pes.get_mut(pe as usize).parked_wake = false;
                loop {
                    let st = self.pes.get_mut(pe as usize);
                    if st.parked.is_empty() {
                        break;
                    }
                    if st.busy_until > t {
                        if !st.parked_wake {
                            st.parked_wake = true;
                            let at = st.busy_until;
                            self.events.push(at, Event::ParkedWake(pe));
                        }
                        break;
                    }
                    let mev = st.parked.pop_front().unwrap();
                    self.with_layer(t, |layer, ctx| layer.on_event(ctx, pe, mev));
                }
            }
            Event::Cmd(pe, cmd) => {
                if self.pe_node_down(pe) {
                    // A command issued by a PE that has since crashed; its
                    // send dies with the node. (Commands from live PEs to
                    // dead destinations still reach the layer — the fabric
                    // surfaces NodeDown and the retry machinery reacts.)
                    self.stats.ft_dead_drops += 1;
                    return;
                }
                self.with_layer(t, |layer, ctx| match cmd {
                    Cmd::Send { dst, msg } => layer.sync_send(ctx, pe, dst, msg),
                    Cmd::CreatePersistent {
                        dst,
                        max_bytes,
                        handle,
                    } => layer.create_persistent(ctx, pe, dst, max_bytes, handle),
                    Cmd::SendPersistent { handle, dst, msg } => {
                        layer.send_persistent(ctx, handle, pe, dst, msg)
                    }
                });
            }
            Event::NodeLife(node, up) => self.node_life(t, node, up),
            Event::FtRecover(node) => self.ft_recover(t, node),
        }
    }

    /// Enact a crash-window edge: take the node's volatile state down, or
    /// record its fresh (empty) incarnation.
    fn node_life(&mut self, t: Time, node: NodeId, up: bool) {
        if !up {
            self.node_down[node as usize] = true;
            // The machine layer loses the node's NIC state too (armed
            // polls, backlogs): without this the layer would keep
            // coalescing onto progress events that were dropped with the
            // node, wedging its connections after a restart.
            self.with_layer(t, |layer, ctx| layer.node_fault(ctx, node));
            let lo = node * self.cfg.cores_per_node;
            let hi = (lo + self.cfg.cores_per_node).min(self.cfg.num_pes);
            for pe in lo..hi {
                let st = self.pes.get_mut(pe as usize);
                // Volatile state is lost with the node. Scheduler queues,
                // parked machine events, user state, chare elements, and
                // even the node's own checkpoint copies (they live in its
                // memory) — only the buddy copies on other nodes survive.
                st.queue.clear();
                st.run_scheduled = false;
                st.parked.clear();
                st.parked_wake = false;
                st.user = Box::new(());
                st.charm.wipe();
                st.am.wipe();
                st.ft_local = None;
                st.ft_buddy.clear();
            }
            return;
        }
        match &mut self.ft {
            Some(ft) => {
                // Stay gated (node_down remains true) until recovery
                // restores the PEs from their buddy checkpoints: the empty
                // incarnation must not consume application messages.
                ft.restarted.insert(node);
            }
            None => {
                // Without FT a restart would rejoin an empty node; run()
                // rejects such plans up front, so this is unreachable in
                // practice but harmless: the node simply reports back up.
                self.node_down[node as usize] = false;
            }
        }
    }

    pub(crate) fn with_layer(
        &mut self,
        t: Time,
        f: impl FnOnce(&mut dyn MachineLayer, &mut MachineCtx),
    ) {
        // panic-ok: reentrancy guard — with_layer never nests
        let mut layer = self.layer.take().expect("machine layer reentrancy");
        {
            let mut ctx = MachineCtx {
                now: t,
                cfg: &self.cfg,
                pes: &mut self.pes,
                events: &mut self.events,
                trace: &mut self.trace,
                stats: &mut self.stats,
            };
            f(layer.as_mut(), &mut ctx);
        }
        self.layer = Some(layer);
    }

    fn pe_run(&mut self, t: Time, pe: PeId) {
        let st = self.pes.get_mut(pe as usize);
        if st.busy_until > t {
            // Still finishing earlier work (overhead charges can extend it).
            // A busy wakeup does no work; it is excluded from the event
            // count because how many occur depends on queue scheduling
            // internals (how often busy_until moved after the wakeup was
            // scheduled), not on the simulated job.
            self.stats.events -= 1;
            self.stats.event_kinds[0] -= 1;
            self.events.push(st.busy_until, Event::PeRun(pe));
            return;
        }
        let Some(std::cmp::Reverse(PrioEnv { env, .. })) = st.queue.pop() else {
            st.run_scheduled = false;
            return;
        };
        let handler = self
            .handlers
            .get(env.handler.0 as usize)
            .unwrap_or_else(|| panic!("unregistered handler {:?}", env.handler))
            .clone();

        let mut outbox = self.outbox_pool.get();
        let mut stop = false;
        let epoch = self.ft.as_ref().map_or(0, |f| f.epoch);
        let (charged_app, charged_ovh) = {
            let st = self.pes.get_mut(pe as usize);
            let mut ctx = PeCtx {
                pe,
                start: t,
                charged_app: 0,
                charged_ovh: 0,
                cfg: &self.cfg,
                user: &mut st.user,
                rng: &mut st.rng,
                charm_pe: &mut st.charm,
                charm_reg: &self.charm,
                am_pe: &mut st.am,
                am_reg: &self.am,
                outbox: &mut outbox,
                stop: &mut stop,
                next_persistent: &mut st.next_persistent,
                stats: &mut self.stats,
                qd_pe: &mut st.qd,
                qd_global: &mut self.qd,
                system_handlers: &self.system_handlers,
                ft_global: &mut self.ft,
                epoch,
            };
            handler(&mut ctx, env);
            (ctx.charged_app, ctx.charged_ovh)
        };
        self.stats.handlers_run += 1;

        let total = charged_app + charged_ovh + self.cfg.sched_overhead;
        self.trace.record(pe, t, charged_app, Kind::Busy);
        self.trace.record(
            pe,
            t + charged_app,
            charged_ovh + self.cfg.sched_overhead,
            Kind::Overhead,
        );

        for (at, ev) in outbox.drain(..) {
            self.events.push(at, ev);
        }
        self.outbox_pool.put(outbox);
        if stop {
            self.stopped = true;
        }

        let st = self.pes.get_mut(pe as usize);
        st.busy_until = t + total;
        if st.queue.is_empty() {
            st.run_scheduled = false;
        } else {
            self.events.push(st.busy_until, Event::PeRun(pe));
        }
    }
}

/// What a machine layer sees of the cluster.
pub struct MachineCtx<'a> {
    now: Time,
    cfg: &'a ClusterCfg,
    pes: &'a mut PeTable,
    events: &'a mut EventQueue<Event>,
    trace: &'a mut Trace,
    stats: &'a mut ClusterStats,
}

impl MachineCtx<'_> {
    pub fn now(&self) -> Time {
        self.now
    }

    fn push_event(&mut self, at: Time, ev: Event) {
        debug_assert!(at >= self.now);
        self.events.push(at, ev);
    }

    pub fn num_pes(&self) -> u32 {
        self.cfg.num_pes
    }

    pub fn cores_per_node(&self) -> u32 {
        self.cfg.cores_per_node
    }

    pub fn num_nodes(&self) -> u32 {
        self.cfg.num_nodes()
    }

    pub fn node_of(&self, pe: PeId) -> NodeId {
        pe / self.cfg.cores_per_node
    }

    /// When the PE will next be free (>= now when busy).
    pub fn pe_free_at(&mut self, pe: PeId) -> Time {
        self.pes.get_mut(pe as usize).busy_until
    }

    /// Hand a fully received, decoded-ready message to a PE's scheduler,
    /// effective immediately.
    pub fn deliver_now(&mut self, pe: PeId, msg: Bytes) {
        self.push_event(self.now, Event::Deliver(pe, msg));
    }

    /// Deliver at a future instant (e.g. after a modeled copy completes).
    pub fn deliver_at(&mut self, at: Time, pe: PeId, msg: Bytes) {
        self.push_event(at, Event::Deliver(pe, msg));
    }

    /// Schedule a machine-layer event for `pe` at `at` (delivered when the
    /// PE is free — use for progress-engine work like draining mailboxes).
    pub fn schedule(&mut self, at: Time, pe: PeId, ev: Box<dyn Any + Send>) {
        self.push_event(at, Event::Machine(pe, ev));
    }

    /// Schedule a machine-layer event that fires at `at` even if the PE is
    /// then busy. Use for protocol continuations (e.g. "buffer prepared,
    /// ship the control message") whose CPU cost was already charged —
    /// deferring those would serialize independent transfers behind
    /// unrelated work.
    pub fn schedule_nodefer(&mut self, at: Time, pe: PeId, ev: Box<dyn Any + Send>) {
        self.push_event(at, Event::MachineNow(pe, ev));
    }

    /// Charge `ns` of protocol-processing time to `pe`, starting no earlier
    /// than now. Extends the PE's busy window and records overhead.
    pub fn charge_overhead(&mut self, pe: PeId, ns: Time) {
        if ns == 0 {
            return;
        }
        let now = self.now;
        let st = self.pes.get_mut(pe as usize);
        let start = st.busy_until.max(now);
        st.busy_until = start + ns;
        self.trace.record(pe, start, ns, Kind::Overhead);
    }

    /// Charge `ns` of fault-recovery time to `pe` (retries, CQ resyncs,
    /// registration fallbacks). Same busy-window semantics as
    /// [`MachineCtx::charge_overhead`], accounted separately in the trace.
    pub fn charge_recovery(&mut self, pe: PeId, ns: Time) {
        if ns == 0 {
            return;
        }
        let now = self.now;
        let st = self.pes.get_mut(pe as usize);
        let start = st.busy_until.max(now);
        st.busy_until = start + ns;
        self.trace.record(pe, start, ns, Kind::Recovery);
    }

    /// Count a message the machine layer actually put on the wire.
    pub fn count_send(&mut self, bytes: u64) {
        self.stats.net_msgs += 1;
        self.stats.net_bytes += bytes;
    }
}

/// What an application handler sees: the Converse/Charm API.
pub struct PeCtx<'a> {
    pe: PeId,
    start: Time,
    charged_app: Time,
    pub(crate) charged_ovh: Time,
    pub(crate) cfg: &'a ClusterCfg,
    user: &'a mut Box<dyn Any + Send>,
    rng: &'a mut DetRng,
    pub(crate) charm_pe: &'a mut CharmPe,
    pub(crate) charm_reg: &'a CharmRegistry,
    /// Typed-AM per-PE state (coalescing buffers + recyclers — am.rs).
    pub(crate) am_pe: &'a mut crate::am::AmPe,
    pub(crate) am_reg: &'a crate::am::AmRegistry,
    pub(crate) outbox: &'a mut Vec<(Time, Event)>,
    stop: &'a mut bool,
    next_persistent: &'a mut u64,
    pub(crate) stats: &'a mut ClusterStats,
    pub(crate) qd_pe: &'a mut QdPe,
    qd_global: &'a mut Option<QdState>,
    system_handlers: &'a std::collections::HashSet<u16>,
    /// FT subsystem state (None when FT is off).
    ft_global: &'a mut Option<FtCore>,
    /// Membership epoch stamped on every send from this handler.
    epoch: u32,
}

impl PeCtx<'_> {
    pub fn pe(&self) -> PeId {
        self.pe
    }

    pub fn num_pes(&self) -> u32 {
        self.cfg.num_pes
    }

    pub fn node(&self) -> NodeId {
        self.pe / self.cfg.cores_per_node
    }

    pub fn cores_per_node(&self) -> u32 {
        self.cfg.cores_per_node
    }

    /// Current PE-local virtual time (start of handler + charged work).
    pub fn now(&self) -> Time {
        self.start + self.charged_app + self.charged_ovh
    }

    /// Account for `ns` of application computation.
    pub fn charge(&mut self, ns: Time) {
        self.charged_app += ns;
    }

    /// Per-PE deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Typed access to this PE's user state.
    pub fn user<T: 'static>(&mut self) -> &mut T {
        self.user.downcast_mut().expect("user state type mismatch")
    }

    /// Asynchronous send: the message leaves at the current PE-local time.
    /// Self-sends short-circuit the machine layer (Converse loopback).
    pub fn send(&mut self, dst: PeId, handler: HandlerId, payload: Bytes) {
        self.charged_ovh += self.cfg.send_overhead;
        if !self.system_handlers.contains(&handler.0) {
            self.qd_pe.sent += 1;
        }
        let at = self.now();
        let env = Envelope::new(self.pe, dst, handler, payload).with_epoch(self.epoch);
        let bytes = env.encode();
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        if dst == self.pe {
            self.outbox.push((at, Event::Deliver(dst, bytes)));
        } else {
            self.outbox
                .push((at, Event::Cmd(self.pe, Cmd::Send { dst, msg: bytes })));
        }
    }

    /// Like [`PeCtx::send`] with an explicit scheduling priority: smaller
    /// values are executed first at the destination (Charm++'s prioritized
    /// messages). Network transit is unaffected — priority orders the
    /// destination's scheduler queue.
    pub fn send_prio(&mut self, dst: PeId, handler: HandlerId, payload: Bytes, priority: u16) {
        self.charged_ovh += self.cfg.send_overhead;
        if !self.system_handlers.contains(&handler.0) {
            self.qd_pe.sent += 1;
        }
        let at = self.now();
        let env = Envelope::new(self.pe, dst, handler, payload)
            .with_priority(priority)
            .with_epoch(self.epoch);
        let bytes = env.encode();
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        if dst == self.pe {
            self.outbox.push((at, Event::Deliver(dst, bytes)));
        } else {
            self.outbox
                .push((at, Event::Cmd(self.pe, Cmd::Send { dst, msg: bytes })));
        }
    }

    /// Deferred send (timer): like [`PeCtx::send`] but leaving after
    /// `delay` ns of additional virtual time.
    pub fn send_after(&mut self, delay: Time, dst: PeId, handler: HandlerId, payload: Bytes) {
        self.send_after_prio(delay, dst, handler, payload, crate::msg::DEFAULT_PRIO)
    }

    /// [`PeCtx::send_after`] with an explicit scheduling priority. The FT
    /// heartbeat chains use priority 0: a timer that queues behind a
    /// saturated PE's application backlog drifts by the backlog depth,
    /// which would turn scheduler pressure into false failure suspicions.
    pub fn send_after_prio(
        &mut self,
        delay: Time,
        dst: PeId,
        handler: HandlerId,
        payload: Bytes,
        priority: u16,
    ) {
        if !self.system_handlers.contains(&handler.0) {
            self.qd_pe.sent += 1;
        }
        let at = self.now() + delay;
        let env = Envelope::new(self.pe, dst, handler, payload)
            .with_priority(priority)
            .with_epoch(self.epoch);
        let bytes = env.encode();
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        if dst == self.pe {
            self.outbox.push((at, Event::Deliver(dst, bytes)));
        } else {
            self.outbox
                .push((at, Event::Cmd(self.pe, Cmd::Send { dst, msg: bytes })));
        }
    }

    /// `LrtsCreatePersistent`: set up a persistent channel to `dst` able to
    /// carry up to `max_bytes` messages. Returns immediately; the machine
    /// layer binds the handle when the command reaches it (sends issued
    /// after this call on this PE are ordered behind the creation).
    pub fn create_persistent(&mut self, dst: PeId, max_bytes: u64) -> PersistentHandle {
        // Handles are per-PE namespaced so the value does not depend on the
        // global interleaving of create calls.
        let handle = PersistentHandle(((self.pe as u64) << 32) | *self.next_persistent);
        *self.next_persistent += 1;
        let at = self.now();
        self.outbox.push((
            at,
            Event::Cmd(
                self.pe,
                Cmd::CreatePersistent {
                    dst,
                    max_bytes,
                    handle,
                },
            ),
        ));
        handle
    }

    /// `LrtsSendPersistentMsg`.
    pub fn send_persistent(
        &mut self,
        handle: PersistentHandle,
        dst: PeId,
        h: HandlerId,
        payload: Bytes,
    ) {
        self.charged_ovh += self.cfg.send_overhead;
        if !self.system_handlers.contains(&h.0) {
            self.qd_pe.sent += 1;
        }
        let at = self.now();
        let env = Envelope::new(self.pe, dst, h, payload).with_epoch(self.epoch);
        let bytes = env.encode();
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        self.outbox.push((
            at,
            Event::Cmd(
                self.pe,
                Cmd::SendPersistent {
                    handle,
                    dst,
                    msg: bytes,
                },
            ),
        ));
    }

    /// Halt the whole simulation after this handler returns.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// This PE's quiescence counters `(sent, delivered)`, excluding system
    /// traffic.
    pub fn qd_counters(&self) -> (u64, u64) {
        (self.qd_pe.sent, self.qd_pe.delivered)
    }

    /// The global QD coordinator state (panics when QD is not installed;
    /// only the QD handlers call this).
    pub fn qd_state(&mut self) -> &mut QdState {
        self.qd_global
            .as_mut()
            .expect("quiescence detection not installed")
    }

    /// The fault-tolerance core state (panics when FT is not enabled; only
    /// the FT system handlers call this).
    pub(crate) fn ft_state(&mut self) -> &mut FtCore {
        self.ft_global
            .as_mut()
            .expect("fault tolerance not enabled")
    }

    /// The current membership epoch (0 when fault tolerance is off).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Request a checkpoint if the configured cadence has elapsed since the
    /// last one. Apps call this from a quiescent point (e.g. a reduction
    /// client); the snapshot itself is taken by the driver between events,
    /// after this handler returns. Returns whether a checkpoint was queued.
    /// No-op (false) when fault tolerance is off, so apps can call it
    /// unconditionally.
    pub fn ft_maybe_checkpoint(&mut self) -> bool {
        let now = self.now();
        let Some(ft) = self.ft_global.as_mut() else {
            return false;
        };
        if now < ft.last_ckpt.saturating_add(ft.cfg.ckpt_period) {
            return false;
        }
        ft.last_ckpt = now;
        ft.pending.push(crate::ft::FtAction::Checkpoint);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal::IdealLayer;
    use crate::msg::wire;

    fn cluster(pes: u32) -> Cluster {
        Cluster::new(ClusterCfg::new(pes, 4), Box::new(IdealLayer::new(1000)))
    }

    #[test]
    fn ping_pong_round_trip_times() {
        let mut c = cluster(2);
        // Bounce between PE 0 and PE 1, decrementing; stop at 0.
        let h = c.register_handler(|ctx, env| {
            let n = wire::unpack_u64(&env.payload, 0);
            if n == 0 {
                ctx.stop();
            } else {
                ctx.send(1 - ctx.pe(), env.handler, wire::pack_u64s(&[n - 1]));
            }
        });
        c.inject(0, 0, h, wire::pack_u64s(&[4]));
        let r = c.run();
        assert!(r.stopped_early);
        // 4 network traversals at 1000ns each plus overheads.
        assert!(r.end_time >= 4_000, "end {}", r.end_time);
        assert_eq!(r.stats.msgs_delivered, 5); // inject + 4 hops
        assert_eq!(r.stats.handlers_run, 5);
    }

    #[test]
    fn self_send_skips_machine_layer() {
        let mut c = cluster(1);
        let h = c.register_handler(|ctx, env| {
            let n = wire::unpack_u64(&env.payload, 0);
            if n > 0 {
                ctx.send(ctx.pe(), env.handler, wire::pack_u64s(&[n - 1]));
            }
        });
        c.inject(0, 0, h, wire::pack_u64s(&[3]));
        let r = c.run();
        assert_eq!(r.stats.handlers_run, 4);
        // No network latency: should finish in a few hundred ns of overhead.
        assert!(r.end_time < 3_000, "self sends must not touch the network");
    }

    #[test]
    fn charge_advances_virtual_time() {
        let mut c = cluster(1);
        let h = c.register_handler(|ctx, _| {
            assert_eq!(ctx.now(), 0);
            ctx.charge(5_000);
            assert_eq!(ctx.now(), 5_000);
        });
        c.inject(0, 0, h, Bytes::new());
        c.run();
        assert_eq!(c.trace().total_busy(), 5_000);
    }

    #[test]
    fn busy_pe_serializes_handlers() {
        let mut c = cluster(2);
        let h = c.register_handler(|ctx, _| ctx.charge(10_000));
        // Two messages land at the same PE at t=0.
        c.inject(0, 1, h, Bytes::new());
        c.inject(0, 1, h, Bytes::new());
        c.run();
        // Second handler cannot start before the first's 10us finishes.
        assert!(
            c.trace().end_time() >= 20_000,
            "end {}",
            c.trace().end_time()
        );
        assert_eq!(c.trace().total_busy(), 20_000);
    }

    #[test]
    fn user_state_round_trips() {
        let mut c = cluster(3);
        c.init_user(|pe| pe as u64 * 100);
        let h = c.register_handler(|ctx, _| {
            *ctx.user::<u64>() += 1;
        });
        for pe in 0..3 {
            c.inject(0, pe, h, Bytes::new());
        }
        c.run();
        assert_eq!(*c.user::<u64>(0), 1);
        assert_eq!(*c.user::<u64>(2), 201);
    }

    #[test]
    fn send_after_delays_delivery() {
        let mut c = cluster(1);
        let h2 = c.register_handler(|ctx, _| ctx.stop());
        let h1 = c.register_handler(move |ctx, _| {
            ctx.send_after(50_000, ctx.pe(), h2, Bytes::new());
        });
        c.inject(0, 0, h1, Bytes::new());
        let r = c.run();
        assert!(r.end_time >= 50_000);
    }

    #[test]
    #[should_panic(expected = "parallel engine was removed")]
    fn more_than_one_thread_is_rejected() {
        let mut cfg = ClusterCfg::new(8, 4);
        cfg.threads = 2;
        Cluster::new(cfg, Box::new(IdealLayer::new(1000)));
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            let mut c = cluster(4);
            let h = c.register_handler(|ctx, env| {
                let n = wire::unpack_u64(&env.payload, 0);
                if n > 0 {
                    let dst = ctx.rng().below(4) as u32;
                    ctx.send(dst, env.handler, wire::pack_u64s(&[n - 1]));
                }
            });
            c.inject(0, 0, h, wire::pack_u64s(&[64]));
            c.run().end_time
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "unregistered handler")]
    fn unknown_handler_panics() {
        let mut c = cluster(1);
        c.inject(0, 0, HandlerId(40), Bytes::new());
        c.run();
    }

    #[test]
    fn priorities_order_the_scheduler_queue() {
        let mut c = cluster(1);
        c.init_user(|_| Vec::<u16>::new());
        let record = c.register_handler(|ctx, env| {
            let p = env.priority;
            ctx.user::<Vec<u16>>().push(p);
        });
        let kick = c.register_handler(move |ctx, _| {
            // Self-sends with a spread of priorities, issued in one burst:
            // a busy charge ensures they all queue before any runs.
            ctx.charge(50_000);
            ctx.send_prio(0, record, Bytes::new(), 900);
            ctx.send_prio(0, record, Bytes::new(), 5);
            ctx.send_prio(0, record, Bytes::new(), 100);
            ctx.send_prio(0, record, Bytes::new(), 5); // FIFO within 5
        });
        c.inject(0, 0, kick, Bytes::new());
        c.run();
        assert_eq!(c.user::<Vec<u16>>(0), &vec![5, 5, 100, 900]);
    }

    #[test]
    fn trace_records_overhead() {
        let mut c = cluster(2);
        let h = c.register_handler(|ctx, env| {
            if ctx.pe() == 0 {
                ctx.send(1, env.handler, Bytes::new());
            }
        });
        c.inject(0, 0, h, Bytes::new());
        c.run();
        assert!(c.trace().total_overhead() > 0);
        assert_eq!(c.stats().msgs_sent, 1);
    }
}
