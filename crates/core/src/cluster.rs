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
use crate::trace::{Kind, Trace, TraceOp};
use bytes::Bytes;
use gemini_net::NodeId;
use sim_core::parallel::{partition_ranges, run_pool, EvKey, KeyedQueue};
use sim_core::{DetRng, EventQueue, Time};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// Default for [`ClusterCfg::threads`] (see [`set_default_threads`]).
    static DEFAULT_THREADS: std::cell::Cell<u32> = const { std::cell::Cell::new(1) };
    /// Default for [`ClusterCfg::batch_windows`] (see
    /// [`set_default_batch_windows`]).
    static DEFAULT_BATCH_WINDOWS: std::cell::Cell<u32> = const { std::cell::Cell::new(4) };
    /// Default for [`ClusterCfg::handoff_min_events`] (see
    /// [`set_default_handoff_min_events`]).
    static DEFAULT_HANDOFF_MIN: std::cell::Cell<u32> = const { std::cell::Cell::new(16) };
    /// Barrier-wait nanoseconds accumulated by parallel runs on this
    /// thread since the last [`take_sync_overhead_ns`].
    static SYNC_OVERHEAD: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Set the worker count newly built [`ClusterCfg`]s default to (clamped to
/// at least 1). Thread-local, so harnesses running independent simulations
/// on a thread pool don't race: each harness thread configures its own
/// default and every app built on it inherits `--threads` with zero churn.
///
/// Requests beyond `std::thread::available_parallelism()` are capped to it
/// (with a one-line stderr warning, printed once per process): on a small
/// box, oversubscribed workers fight the scheduler at every window barrier
/// and parallel runs regress instead of winning. Set the
/// `CHARM_FORCE_THREADS` environment variable (any value) — or call
/// [`set_default_threads_forced`] — to bypass the cap, e.g. for
/// determinism suites that must exercise the parallel engine regardless
/// of host size.
pub fn set_default_threads(n: u32) {
    let n = n.max(1);
    if std::env::var_os("CHARM_FORCE_THREADS").is_some() {
        DEFAULT_THREADS.with(|c| c.set(n));
        return;
    }
    let hw = std::thread::available_parallelism()
        .map(|p| p.get() as u32)
        .unwrap_or(1);
    if n > hw {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "charm-rt: capping threads {n} -> {hw} (available_parallelism); \
                 set CHARM_FORCE_THREADS=1 to override"
            );
        });
        DEFAULT_THREADS.with(|c| c.set(hw));
    } else {
        DEFAULT_THREADS.with(|c| c.set(n));
    }
}

/// [`set_default_threads`] without the `available_parallelism()` cap.
/// For harnesses that must drive the parallel engine at an exact worker
/// count — the differential/proptest suites and the wallclock sweep pin
/// virtual results (and meter sync overhead) at thread counts the host
/// may not physically have.
pub fn set_default_threads_forced(n: u32) {
    DEFAULT_THREADS.with(|c| c.set(n.max(1)));
}

/// The current thread's default for [`ClusterCfg::threads`].
pub fn default_threads() -> u32 {
    DEFAULT_THREADS.with(|c| c.get())
}

/// Set the window-batch depth newly built [`ClusterCfg`]s default to
/// (clamped to at least 1). See [`ClusterCfg::batch_windows`].
pub fn set_default_batch_windows(k: u32) {
    DEFAULT_BATCH_WINDOWS.with(|c| c.set(k.max(1)));
}

/// The current thread's default for [`ClusterCfg::batch_windows`].
pub fn default_batch_windows() -> u32 {
    DEFAULT_BATCH_WINDOWS.with(|c| c.get())
}

/// Set the hand-off work floor newly built [`ClusterCfg`]s default to.
/// See [`ClusterCfg::handoff_min_events`]; 0 hands off every eligible
/// window (the determinism suites use this to keep the worker path fully
/// exercised on tiny configurations).
pub fn set_default_handoff_min_events(n: u32) {
    DEFAULT_HANDOFF_MIN.with(|c| c.set(n));
}

/// The current thread's default for [`ClusterCfg::handoff_min_events`].
pub fn default_handoff_min_events() -> u32 {
    DEFAULT_HANDOFF_MIN.with(|c| c.get())
}

/// Drain this thread's accumulated parallel-sync overhead meter: the
/// nanoseconds runs since the last call spent waiting at pool barriers
/// (as opposed to executing events). Always 0 for sequential runs.
pub fn take_sync_overhead_ns() -> u64 {
    SYNC_OVERHEAD.with(|c| c.replace(0))
}

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
    /// Worker threads for [`Cluster::run`]: 1 = sequential engine, N > 1 =
    /// conservative parallel execution over node partitions (bit-identical
    /// results — see DESIGN.md §10). Defaults to [`default_threads`].
    pub threads: u32,
    /// Consecutive lookahead windows a worker may execute per barrier
    /// crossing (≥ 1). Workers publish a per-partition frontier once per
    /// window and bound themselves by the other partitions' frontiers
    /// plus the lookahead, so deeper batches amortize the barrier without
    /// changing any virtual timestamp (DESIGN.md §10). Defaults to
    /// [`default_batch_windows`].
    pub batch_windows: u32,
    /// Minimum events queued across the window's ready partitions before
    /// the driver wakes the worker pool; smaller windows execute inline
    /// on the driver thread in the same canonical order (bit-identical,
    /// just cheaper than a barrier round-trip for a handful of events).
    /// Defaults to [`default_handoff_min_events`].
    pub handoff_min_events: u32,
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
            threads: default_threads(),
            batch_windows: default_batch_windows(),
            handoff_min_events: default_handoff_min_events(),
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
    /// PE (`pe << 32 | local`) so allocation is identical no matter which
    /// thread executes the PE in parallel mode.
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
    /// matter how many PEs, workers, or report handles look at it.
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
    /// Recycles the parallel driver's per-partition `ExecOut` scratch
    /// buffers (trace/cmd/outbox vectors) across `run_parallel` calls.
    /// Host-memory only — virtual time never observes it.
    exec_pool: mempool::ObjPool<ExecOut>,
}

impl Cluster {
    pub fn new(cfg: ClusterCfg, layer: Box<dyn MachineLayer>) -> Self {
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
            exec_pool: mempool::ObjPool::new(16),
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
                back: McBack::Seq {
                    pes: &mut c.pes,
                    events: &mut c.events,
                },
                trace: &mut c.trace,
                stats: &mut c.stats,
            };
            layer.init(&mut ctx);
        }
        c.layer = Some(layer);
        c
    }

    /// Register a Converse handler; returns its id. Handlers must be
    /// `Send + Sync` because parallel runs execute them from worker
    /// threads (shared immutably, one PE at a time).
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
    /// or `max_events` is hit. With `cfg.threads > 1` this dispatches to
    /// [`Cluster::run_parallel`]; results are bit-identical either way.
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
        if self.cfg.threads > 1 {
            self.run_parallel(self.cfg.threads)
        } else {
            self.run_seq()
        }
    }

    /// The sequential engine (`threads = 1` degenerate case).
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
                back: McBack::Seq {
                    pes: &mut self.pes,
                    events: &mut self.events,
                },
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
            // count because how many occur depends on engine scheduling
            // internals (how often busy_until moved after the wakeup was
            // scheduled), and the count must stay engine-invariant.
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

    /// Conservative parallel execution over node partitions (DESIGN.md §10).
    ///
    /// The cluster's nodes are split into `threads` contiguous partitions,
    /// each owning its PEs' state and a keyed event queue. Execution
    /// alternates a serial phase (main thread, canonical global order:
    /// machine-layer events, command execution, ties) with bounded parallel
    /// windows in which workers run PE-local events with
    /// `t < min(next layer event, frontier + lookahead)`. Side effects that
    /// touch shared accounting (trace, stats) are buffered per event and
    /// replayed in canonical key order at the window barrier, so every
    /// virtual timestamp, trace charge, RNG draw and statistic is
    /// bit-identical to [`Cluster::run`] with `threads = 1`.
    ///
    /// Falls back to the sequential engine when parallelism cannot help or
    /// is unsupported: `threads <= 1`, fewer than two nodes, quiescence
    /// detection installed (QD shares one global ledger), or node-crash
    /// chaos (crash enactment and checkpoint/recovery mutate PE state
    /// across every partition at one instant, which the windowed engine
    /// cannot interleave — forcing serial keeps crash runs bit-identical
    /// at any thread count).
    pub fn run_parallel(&mut self, threads: u32) -> RunReport {
        if threads <= 1
            || self.qd.is_some()
            || self.cfg.num_nodes() < 2
            || self.ft.is_some()
            || self.cfg.fault.has_node_crash()
            // A streaming trace sink writes records in global execution
            // order as they happen; the windowed engine replays trace
            // effects per partition (order-equivalent for every other
            // consumer, not for a byte stream).
            || self.trace.has_sink()
        {
            return self.run_seq();
        }
        let nparts = threads.min(self.cfg.num_nodes());
        let num_pes = self.cfg.num_pes;
        let cores = self.cfg.cores_per_node;

        // Contiguous node blocks; a node's PEs never split across partitions
        // (intra-node traffic must stay partition-local — the lookahead
        // bound only covers cross-node latency).
        let node_ranges = partition_ranges(self.cfg.num_nodes(), nparts);
        let mut pe_part = vec![0u32; num_pes as usize];
        let mut parts: Vec<PartData> = Vec::with_capacity(node_ranges.len());
        // The parallel engine owns PE state densely per partition:
        // materialize everything (whole-machine parallel runs touch every
        // PE anyway) and take the dense vector.
        let mut all_pes = self.pes.take_dense().into_iter();
        for (i, r) in node_ranges.iter().enumerate() {
            let lo = (r.start * cores).min(num_pes);
            let hi = (r.end * cores).min(num_pes);
            for pe in lo..hi {
                pe_part[pe as usize] = i as u32;
            }
            parts.push(PartData {
                idx: i as u32,
                base_pe: lo,
                pes: all_pes.by_ref().take((hi - lo) as usize).collect(),
                q: KeyedQueue::new(),
                epoch: 0,
                fx: Vec::new(),
                origins: Vec::new(),
                trace_ops: Vec::new(),
                cmds: Vec::new(),
                scratch: self.exec_pool.get(),
            });
        }
        debug_assert!(all_pes.next().is_none());

        // Split the pending queue in pop order: `(time, seq)` pop order IS
        // the canonical order, so assigning ascending flat ordinals here
        // seeds the keyed queues with the exact sequential tie-break.
        let mut serial: KeyedQueue<Event> = KeyedQueue::new();
        let mut ord = 0u64;
        while let Some((t, ev)) = self.events.pop() {
            let key = EvKey::flat(t, ord);
            ord += 1;
            match &ev {
                Event::PeRun(pe) | Event::Deliver(pe, _) => {
                    parts[pe_part[*pe as usize] as usize].q.push(key, ev)
                }
                _ => serial.push(key, ev),
            }
        }

        let lookahead = self.layer.as_ref().expect("layer").lookahead().max(1);
        let ctl = BatchCtl {
            halt: AtomicU64::new(u64::MAX),
            frontiers: (0..nparts).map(|_| AtomicU64::new(u64::MAX)).collect(),
            lookahead,
            batch_windows: self.cfg.batch_windows.max(1),
        };
        let (parts, sync_ns, serial, stop_leftovers, end_now, end_stopped) = {
            let Cluster {
                cfg,
                layer,
                handlers,
                charm,
                am,
                trace,
                stats,
                system_handlers,
                ..
            } = &mut *self;
            let env = ExecEnv {
                cfg,
                handlers,
                charm_reg: charm,
                am_reg: am,
                system_handlers,
            };
            let mut driver = ParDriver {
                cfg,
                handlers,
                charm_reg: charm,
                am_reg: am,
                system_handlers,
                layer,
                trace,
                stats,
                pe_part: &pe_part,
                serial,
                ord,
                now: 0,
                stopped: false,
                lookahead,
                ctl: &ctl,
                scratch: ExecOut::default(),
                leftovers: Vec::new(),
            };
            let (parts, sync_ns) = run_pool(
                parts,
                nparts as usize,
                |part, t_s| phase_run(part, t_s, &env, &ctl),
                |parts| driver.step(parts),
            );
            (
                parts,
                sync_ns,
                driver.serial,
                driver.leftovers,
                driver.now,
                driver.stopped,
            )
        };

        SYNC_OVERHEAD.with(|c| c.set(c.get().saturating_add(sync_ns)));
        self.now = end_now;
        self.stopped = end_stopped;
        // Reassemble PE state (partitions are contiguous and in order) and
        // put any still-pending events back on the sequential queue in
        // canonical order, mirroring the state `run_seq` leaves on an early
        // stop. At most one source is non-empty: a stop found *inside a
        // window* drains every queue into `stop_leftovers` (already in
        // canonical order); a stop on the serial frontier leaves flat-keyed
        // queues, where the plain key sort is the canonical order.
        let mut serial = serial;
        let mut leftover_evs: Vec<(EvKey, Event)> = serial.drain_sorted();
        let mut pes = Vec::with_capacity(num_pes as usize);
        for mut p in parts {
            leftover_evs.extend(p.q.drain_sorted());
            pes.append(&mut p.pes);
            self.exec_pool.put(std::mem::take(&mut p.scratch));
        }
        leftover_evs.sort_by_key(|e| e.0);
        for (k, ev) in leftover_evs {
            self.events.push(k.t, ev);
        }
        for (t, ev) in stop_leftovers {
            self.events.push(t, ev);
        }
        self.pes.restore_dense(pes);

        RunReport {
            end_time: self.now,
            stats: self.stats.clone(),
            stopped_early: self.stopped,
        }
    }
}

/// Event-storage backend behind a [`MachineCtx`]: the sequential engine's
/// single queue, or the parallel driver's partitioned queues. Layers never
/// see the difference — pushes route by event class (PE-local `PeRun`/
/// `Deliver` to the owning partition, layer events to the serial queue)
/// with main-thread `Flat` ordinals, so the canonical event order is the
/// sequential `(time, push-seq)` order in both modes.
pub(crate) enum McBack<'a> {
    Seq {
        pes: &'a mut PeTable,
        events: &'a mut EventQueue<Event>,
    },
    Par {
        parts: &'a mut [PartData],
        pe_part: &'a [u32],
        serial: &'a mut KeyedQueue<Event>,
        ord: &'a mut u64,
        /// Partition of the PE whose `Cmd` is executing, when one is: its
        /// cross-partition pushes must respect the lookahead bound (see
        /// the debug assert in `push_par`). `None` for machine events,
        /// whose pushes are ordered by the serial phase unconditionally.
        cur_part: Option<u32>,
        lookahead: Time,
    },
}

/// What a machine layer sees of the cluster.
pub struct MachineCtx<'a> {
    now: Time,
    cfg: &'a ClusterCfg,
    back: McBack<'a>,
    trace: &'a mut Trace,
    stats: &'a mut ClusterStats,
}

impl MachineCtx<'_> {
    pub fn now(&self) -> Time {
        self.now
    }

    fn pe_state_mut(&mut self, pe: PeId) -> &mut PeState {
        match &mut self.back {
            McBack::Seq { pes, .. } => pes.get_mut(pe as usize),
            McBack::Par { parts, pe_part, .. } => {
                let p = &mut parts[pe_part[pe as usize] as usize];
                let base = p.base_pe;
                &mut p.pes[(pe - base) as usize]
            }
        }
    }

    /// Route one event push through the active backend.
    // serial-only: mutates shared queues
    fn push_event(&mut self, at: Time, ev: Event) {
        debug_assert!(at >= self.now);
        match &mut self.back {
            McBack::Seq { events, .. } => events.push(at, ev),
            McBack::Par {
                parts,
                pe_part,
                serial,
                ord,
                cur_part,
                lookahead,
            } => {
                let key = EvKey::flat(at, **ord);
                **ord += 1;
                let target = match &ev {
                    Event::PeRun(pe) | Event::Deliver(pe, _) => Some(*pe),
                    Event::Machine(pe, _) | Event::MachineNow(pe, _) | Event::ParkedWake(pe) => {
                        // Serial-queue events, but still subject to the
                        // lookahead contract when pushed from a Cmd.
                        if let Some(cp) = cur_part {
                            if pe_part[*pe as usize] != *cp {
                                debug_assert!(
                                    at >= self.now + *lookahead,
                                    "cross-partition machine event at {} violates lookahead {} (now {})",
                                    at,
                                    lookahead,
                                    self.now
                                );
                            }
                        }
                        None
                    }
                    Event::Cmd(..) => None,
                    // Node-crash plans force the sequential engine, so
                    // these never reach the parallel backend.
                    Event::NodeLife(..) | Event::FtRecover(_) => {
                        // run_parallel forces the serial engine whenever the
                        // fault plan schedules crashes. panic-ok: see above.
                        unreachable!("crash events in the parallel backend")
                    }
                };
                match target {
                    Some(pe) => {
                        let tp = pe_part[pe as usize];
                        if let Some(cp) = cur_part {
                            if tp != *cp {
                                debug_assert!(
                                    at >= self.now + *lookahead,
                                    "cross-partition delivery at {} violates lookahead {} (now {})",
                                    at,
                                    lookahead,
                                    self.now
                                );
                            }
                        }
                        parts[tp as usize].q.push(key, ev);
                    }
                    None => serial.push(key, ev),
                }
            }
        }
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
        self.pe_state_mut(pe).busy_until
    }

    /// Hand a fully received, decoded-ready message to a PE's scheduler,
    /// effective immediately.
    // serial-only: applies an effect
    pub fn deliver_now(&mut self, pe: PeId, msg: Bytes) {
        self.push_event(self.now, Event::Deliver(pe, msg));
    }

    /// Deliver at a future instant (e.g. after a modeled copy completes).
    // serial-only: applies an effect
    pub fn deliver_at(&mut self, at: Time, pe: PeId, msg: Bytes) {
        self.push_event(at, Event::Deliver(pe, msg));
    }

    /// Schedule a machine-layer event for `pe` at `at` (delivered when the
    /// PE is free — use for progress-engine work like draining mailboxes).
    // serial-only: applies an effect
    pub fn schedule(&mut self, at: Time, pe: PeId, ev: Box<dyn Any + Send>) {
        self.push_event(at, Event::Machine(pe, ev));
    }

    /// Schedule a machine-layer event that fires at `at` even if the PE is
    /// then busy. Use for protocol continuations (e.g. "buffer prepared,
    /// ship the control message") whose CPU cost was already charged —
    /// deferring those would serialize independent transfers behind
    /// unrelated work.
    // serial-only: applies an effect
    pub fn schedule_nodefer(&mut self, at: Time, pe: PeId, ev: Box<dyn Any + Send>) {
        self.push_event(at, Event::MachineNow(pe, ev));
    }

    /// Charge `ns` of protocol-processing time to `pe`, starting no earlier
    /// than now. Extends the PE's busy window and records overhead.
    // serial-only: writes trace + busy windows
    pub fn charge_overhead(&mut self, pe: PeId, ns: Time) {
        if ns == 0 {
            return;
        }
        let now = self.now;
        let st = self.pe_state_mut(pe);
        let start = st.busy_until.max(now);
        st.busy_until = start + ns;
        self.trace.record(pe, start, ns, Kind::Overhead);
    }

    /// Charge `ns` of fault-recovery time to `pe` (retries, CQ resyncs,
    /// registration fallbacks). Same busy-window semantics as
    /// [`MachineCtx::charge_overhead`], accounted separately in the trace.
    // serial-only: writes trace + busy windows
    pub fn charge_recovery(&mut self, pe: PeId, ns: Time) {
        if ns == 0 {
            return;
        }
        let now = self.now;
        let st = self.pe_state_mut(pe);
        let start = st.busy_until.max(now);
        st.busy_until = start + ns;
        self.trace.record(pe, start, ns, Kind::Recovery);
    }

    /// Count a message the machine layer actually put on the wire.
    // serial-only: writes shared stats
    pub fn count_send(&mut self, bytes: u64) {
        self.stats.net_msgs += 1;
        self.stats.net_bytes += bytes;
    }
}

impl ClusterStats {
    /// Accumulate a buffered per-event delta (all counters are sums).
    fn add(&mut self, o: &ClusterStats) {
        self.events += o.events;
        for i in 0..self.event_kinds.len() {
            self.event_kinds[i] += o.event_kinds[i];
        }
        self.handlers_run += o.handlers_run;
        self.msgs_sent += o.msgs_sent;
        self.msgs_delivered += o.msgs_delivered;
        self.bytes_sent += o.bytes_sent;
        self.net_msgs += o.net_msgs;
        self.net_bytes += o.net_bytes;
        self.ft_dead_drops += o.ft_dead_drops;
        self.ft_stale_drops += o.ft_stale_drops;
        self.am_agg_sent += o.am_agg_sent;
        self.am_batches += o.am_batches;
    }
}

/// Shared read-only context needed to execute a PE-local event, usable
/// from worker threads (everything in here is `Sync`).
struct ExecEnv<'a> {
    cfg: &'a ClusterCfg,
    #[allow(clippy::type_complexity)]
    handlers: &'a [Arc<dyn Fn(&mut PeCtx, Envelope) + Send + Sync>],
    charm_reg: &'a CharmRegistry,
    am_reg: &'a crate::am::AmRegistry,
    system_handlers: &'a std::collections::HashSet<u16>,
}

/// Buffered side effects of one event execution: everything that touches
/// state outside the owning partition. Replayed in canonical key order.
#[derive(Default)]
struct ExecOut {
    stats: ClusterStats,
    trace: Vec<TraceOp>,
    cmds: Vec<(EvKey, Event)>,
    stop: bool,
    /// Recycled handler outbox (the worker's counterpart of the
    /// sequential engine's pooled outbox): drained after every handler,
    /// so only the allocation survives between events.
    outbox: Vec<(Time, Event)>,
}

impl ExecOut {
    fn clear(&mut self) {
        self.stats = ClusterStats::default();
        self.trace.clear();
        self.cmds.clear();
        self.stop = false;
        self.outbox.clear();
    }
}

impl mempool::Reset for ExecOut {
    fn reset(&mut self) {
        self.clear();
    }
}

/// One executed event's buffered effects, in partition execution (= key)
/// order. The trace ops live in a per-partition stream (`trace_ops`);
/// `trace_n` is this record's run length in it.
struct FxRec {
    key: EvKey,
    stats: ClusterStats,
    trace_n: u32,
    stop: bool,
}

/// Per-partition state owned by one worker during a parallel window batch.
pub(crate) struct PartData {
    /// This partition's index (= its slot in the driver's `parts` /
    /// frontier arrays).
    idx: u32,
    base_pe: u32,
    pes: Vec<PeState>,
    q: KeyedQueue<Event>,
    /// Global push-ordinal watermark at the start of the current phase:
    /// in-phase keys mint partition-local ordinals `epoch + i`.
    epoch: u64,
    fx: Vec<FxRec>,
    /// Push-origin log for the current phase: `origins[k.ord - epoch]` is
    /// the index (into `fx`) of the event whose execution pushed the
    /// in-phase key `k`. `canon_cmp` uses it to order in-phase keys of
    /// different partitions by their parents.
    origins: Vec<u32>,
    trace_ops: Vec<TraceOp>,
    cmds: Vec<(EvKey, Event)>,
    scratch: ExecOut,
}

/// Execute one PE-local event (`PeRun` or `Deliver`) exactly as the
/// sequential engine's `dispatch`/`pe_run` would, with effects buffered
/// into `out` and pushes keyed by `mk_key(at)` — called once per push, in
/// push order, so the key minter's internal counter reproduces the
/// sequential engine's push sequence.
///
/// Mirrors `Cluster::dispatch` (Deliver arm) and `Cluster::pe_run` — keep
/// the two in sync; the differential tests in `tests/` compare them
/// bit for bit. (The sequential path stays separate so `threads = 1` pays
/// none of the buffering cost.)
#[allow(clippy::too_many_arguments)] // mirrors dispatch()'s full PE context
fn exec_local_event(
    env: &ExecEnv,
    pes: &mut [PeState],
    base_pe: u32,
    q: &mut KeyedQueue<Event>,
    t: Time,
    ev: Event,
    mut mk_key: impl FnMut(Time) -> EvKey,
    out: &mut ExecOut,
) {
    out.clear();
    match ev {
        Event::Deliver(pe, bytes) => {
            out.stats.events += 1;
            out.stats.event_kinds[1] += 1;
            let menv = Envelope::decode(&bytes);
            debug_assert_eq!(menv.dst_pe, pe);
            out.stats.msgs_delivered += 1;
            out.trace.push(TraceOp::CountMsg(pe));
            let st = &mut pes[(pe - base_pe) as usize];
            if !env.system_handlers.contains(&menv.handler.0) {
                st.qd.delivered += 1;
            }
            let seq = st.queue_seq;
            st.queue_seq += 1;
            st.queue.push(std::cmp::Reverse(PrioEnv {
                prio: menv.priority,
                seq,
                env: menv,
            }));
            if !st.run_scheduled {
                st.run_scheduled = true;
                let at = t.max(st.busy_until);
                q.push(mk_key(at), Event::PeRun(pe));
            }
        }
        Event::PeRun(pe) => {
            let sti = (pe - base_pe) as usize;
            if pes[sti].busy_until > t {
                // Busy wakeup: uncounted, mirroring `pe_run` — the event
                // count must not depend on which engine ran the PE.
                let at = pes[sti].busy_until;
                q.push(mk_key(at), Event::PeRun(pe));
                return;
            }
            out.stats.events += 1;
            out.stats.event_kinds[0] += 1;
            let Some(std::cmp::Reverse(PrioEnv { env: menv, .. })) = pes[sti].queue.pop() else {
                pes[sti].run_scheduled = false;
                return;
            };
            let handler = env
                .handlers
                .get(menv.handler.0 as usize)
                .unwrap_or_else(|| panic!("unregistered handler {:?}", menv.handler))
                .clone();

            let mut outbox = std::mem::take(&mut out.outbox);
            let mut stop = false;
            // QD and FT both force the sequential engine; handlers here
            // never touch either.
            let mut no_qd: Option<QdState> = None;
            let mut no_ft: Option<FtCore> = None;
            let (charged_app, charged_ovh) = {
                let st = &mut pes[sti];
                let mut ctx = PeCtx {
                    pe,
                    start: t,
                    charged_app: 0,
                    charged_ovh: 0,
                    cfg: env.cfg,
                    user: &mut st.user,
                    rng: &mut st.rng,
                    charm_pe: &mut st.charm,
                    charm_reg: env.charm_reg,
                    am_pe: &mut st.am,
                    am_reg: env.am_reg,
                    outbox: &mut outbox,
                    stop: &mut stop,
                    next_persistent: &mut st.next_persistent,
                    stats: &mut out.stats,
                    qd_pe: &mut st.qd,
                    qd_global: &mut no_qd,
                    system_handlers: env.system_handlers,
                    ft_global: &mut no_ft,
                    epoch: 0,
                };
                handler(&mut ctx, menv);
                (ctx.charged_app, ctx.charged_ovh)
            };
            out.stats.handlers_run += 1;

            let total = charged_app + charged_ovh + env.cfg.sched_overhead;
            out.trace
                .push(TraceOp::Record(pe, t, charged_app, Kind::Busy));
            out.trace.push(TraceOp::Record(
                pe,
                t + charged_app,
                charged_ovh + env.cfg.sched_overhead,
                Kind::Overhead,
            ));

            for (at, ev) in outbox.drain(..) {
                let key = mk_key(at);
                match &ev {
                    // Handler Delivers are self-send loopback: always this PE.
                    Event::Deliver(..) => q.push(key, ev),
                    Event::Cmd(..) => out.cmds.push((key, ev)),
                    _ => unreachable!("handlers only emit Deliver/Cmd"),
                }
            }
            out.outbox = outbox;
            out.stop = stop;

            let st = &mut pes[sti];
            st.busy_until = t + total;
            if st.queue.is_empty() {
                st.run_scheduled = false;
            } else {
                q.push(mk_key(st.busy_until), Event::PeRun(pe));
            }
        }
        _ => unreachable!("partition queues hold only PeRun/Deliver"),
    }
}

/// Upper bound on events one partition executes per parallel window
/// batch, so the `max_events` safety valve is checked (on the main
/// thread) with bounded overshoot.
const PHASE_CAP: usize = 4096;

/// Shared control state of one parallel window batch. Workers only ever
/// exchange monotone time bounds through it: `halt` shrinks (fetch_min),
/// each partition's frontier grows (one release-store per window) — a
/// stale read is always the *smaller* value, which is conservative, so no
/// ordering decision can race. worker-ok: see above.
struct BatchCtl {
    /// Global early-stop bound (DESIGN.md §10): a worker that executes a
    /// stop or emits a `CreatePersistent` command publishes its timestamp
    /// so every partition halts there.
    halt: AtomicU64,
    /// Per-partition progress frontier: a lower bound on any event the
    /// partition has yet to execute *and* on any cross-partition push its
    /// pending commands may cause (commands execute serially later, and
    /// their deliveries land at least `lookahead` after the command).
    frontiers: Vec<AtomicU64>,
    lookahead: Time,
    /// Max consecutive windows per barrier crossing ([`ClusterCfg::batch_windows`]).
    batch_windows: u32,
}

/// One partition's parallel window batch: run PE-local events in
/// canonical key order while `t` stays below every bound the partition
/// must respect — the serial-class horizon `t_s`, its own first pending
/// command, the global halt, and every *other* partition's published
/// frontier plus the lookahead. After each window it publishes its own
/// new frontier and, if any other frontier moved, starts the next window
/// without a barrier crossing — up to `batch_windows` windows per phase.
/// Stopping early for any reason is always safe: unprocessed events
/// simply stay queued for the next serial phase.
fn phase_run(part: &mut PartData, t_s: Time, env: &ExecEnv, ctl: &BatchCtl) {
    let me = part.idx as usize;
    let epoch = part.epoch;
    // First Cmd this partition emits bounds it: the command executes later
    // (serially, in canonical order) and may extend the issuing PE's busy
    // window, so events at or after its timestamp must wait.
    let mut bound = t_s;
    let mut executed = 0usize;
    let mut scratch = std::mem::take(&mut part.scratch);
    for _window in 0..ctl.batch_windows.max(1) {
        let mut lim = bound.min(ctl.halt.load(Ordering::Relaxed));
        for (i, f) in ctl.frontiers.iter().enumerate() {
            if i != me {
                lim = lim.min(f.load(Ordering::Acquire).saturating_add(ctl.lookahead));
            }
        }
        let mut progressed = false;
        while executed < PHASE_CAP {
            let Some(t) = part.q.peek_time() else { break };
            if t >= lim {
                break;
            }
            let (key, ev) = part.q.pop().expect("peeked");
            let fx_idx = part.fx.len() as u32;
            {
                let PartData {
                    base_pe,
                    pes,
                    q,
                    origins,
                    ..
                } = &mut *part;
                exec_local_event(
                    env,
                    pes,
                    *base_pe,
                    q,
                    t,
                    ev,
                    |at| {
                        let k = EvKey {
                            t: at,
                            ord: epoch + origins.len() as u64,
                        };
                        origins.push(fx_idx);
                        k
                    },
                    &mut scratch,
                );
            }
            for (k, ev) in scratch.cmds.drain(..) {
                bound = bound.min(k.t);
                if matches!(&ev, Event::Cmd(_, Cmd::CreatePersistent { .. })) {
                    // Persistent-channel setup charges the *remote* PE when
                    // it executes; halt every partition at its timestamp so
                    // that charge sees sequential busy state (DESIGN.md §10).
                    ctl.halt.fetch_min(k.t, Ordering::Relaxed);
                }
                part.cmds.push((k, ev));
            }
            if scratch.stop {
                ctl.halt.fetch_min(t, Ordering::Relaxed);
            }
            part.fx.push(FxRec {
                key,
                stats: scratch.stats.clone(),
                trace_n: scratch.trace.len() as u32,
                stop: scratch.stop,
            });
            part.trace_ops.append(&mut scratch.trace);
            progressed = true;
            executed += 1;
        }
        // Publish how far this partition has provably advanced: its next
        // pending event and its first pending command both lower-bound
        // everything it can still cause. Monotone across windows (event
        // times are non-decreasing and new commands carry times at or
        // after the event that emitted them), so a peer acting on the old
        // value is merely conservative.
        let f = part.q.peek_time().unwrap_or(u64::MAX).min(bound);
        ctl.frontiers[me].store(f, Ordering::Release);
        if !progressed || executed >= PHASE_CAP {
            break;
        }
    }
    part.scratch = scratch;
}

/// Compare two phase keys in canonical (sequential push) order. `epoch`
/// is the phase's shared ordinal watermark; `pa`/`pb` name the partition
/// each key lives in (any value is fine for pre-phase keys — their order
/// is decided without touching partition state; [`SER`] marks keys from
/// the serial queue, which never holds in-phase keys).
///
/// Time dominates. At equal times: two pre-phase keys (`ord < epoch`)
/// compare by their global ordinals; a pre-phase key precedes any
/// in-phase key (everything pushed during the phase was pushed after it);
/// two in-phase keys of the same partition compare by local ordinal
/// (partition execution order is canonical order); two in-phase keys of
/// different partitions are ordered by their *parents* — the events whose
/// execution pushed them, recorded in the partitions' `origins` logs —
/// because the sequential engine would have numbered their pushes in
/// parent execution order. Parent chains ground in pre-phase keys, so the
/// recursion terminates.
fn canon_cmp(
    parts: &[PartData],
    epoch: u64,
    pa: usize,
    ka: EvKey,
    pb: usize,
    kb: EvKey,
) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match ka.t.cmp(&kb.t) {
        Ordering::Equal => {}
        o => return o,
    }
    match (ka.ord < epoch, kb.ord < epoch) {
        (true, true) => ka.ord.cmp(&kb.ord),
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => {
            if pa == pb {
                return ka.ord.cmp(&kb.ord);
            }
            let fa = parts[pa].origins[(ka.ord - epoch) as usize] as usize;
            let fb = parts[pb].origins[(kb.ord - epoch) as usize] as usize;
            let pka = parts[pa].fx[fa].key;
            let pkb = parts[pb].fx[fb].key;
            // Distinct parents (they live in different partitions), so the
            // recursive comparison decides; the ordinal tiebreak is for
            // form only.
            canon_cmp(parts, epoch, pa, pka, pb, pkb).then(ka.ord.cmp(&kb.ord))
        }
    }
}

/// Partition marker for serial-queue keys in [`canon_cmp`]/[`ckey_cmp`]:
/// the serial queue only ever holds pre-phase (flat) keys, whose order
/// never consults partition state.
const SER: usize = usize::MAX;

/// A classified key during the stop drain ([`ParDriver::finish_stop`]):
/// `phase` keys were minted before or during the interrupted phase and
/// compare by [`canon_cmp`]; fresh keys (`phase == false`) are flat
/// ordinals minted *by the drain itself* from the driver's global counter
/// — numerically overlapping the in-phase range, so the class must be
/// tracked structurally.
#[derive(Clone, Copy)]
struct CKey {
    phase: bool,
    part: usize,
    k: EvKey,
}

/// Canonical order over classified keys: within a class, the class's own
/// order; across classes at equal times, phase keys first (everything the
/// drain pushes was pushed after every pre-existing event at that time —
/// the same root-before-descendant rule the sequential engine's push
/// counter encodes).
fn ckey_cmp(parts: &[PartData], epoch: u64, a: CKey, b: CKey) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.phase, b.phase) {
        (true, true) => canon_cmp(parts, epoch, a.part, a.k, b.part, b.k),
        (false, false) => a.k.cmp(&b.k),
        (true, false) => a.k.t.cmp(&b.k.t).then(Ordering::Less),
        (false, true) => a.k.t.cmp(&b.k.t).then(Ordering::Greater),
    }
}

/// Main-thread half of the parallel driver: harvests window output,
/// executes the canonical serial frontier (machine layer, commands, ties),
/// and decides the next window.
struct ParDriver<'a> {
    cfg: &'a ClusterCfg,
    #[allow(clippy::type_complexity)]
    handlers: &'a [Arc<dyn Fn(&mut PeCtx, Envelope) + Send + Sync>],
    charm_reg: &'a CharmRegistry,
    am_reg: &'a crate::am::AmRegistry,
    system_handlers: &'a std::collections::HashSet<u16>,
    layer: &'a mut Option<Box<dyn MachineLayer>>,
    trace: &'a mut Trace,
    stats: &'a mut ClusterStats,
    pe_part: &'a [u32],
    serial: KeyedQueue<Event>,
    ord: u64,
    now: Time,
    stopped: bool,
    lookahead: Time,
    ctl: &'a BatchCtl,
    scratch: ExecOut,
    /// Events still pending when a stop found inside a window ended the
    /// run, in canonical order (`finish_stop` fills this; the queues are
    /// empty afterwards). `run_parallel` pushes them back on the
    /// sequential queue at teardown.
    leftovers: Vec<(Time, Event)>,
}

impl ParDriver<'_> {
    fn pe_mut<'p>(&self, parts: &'p mut [PartData], pe: PeId) -> &'p mut PeState {
        let p = &mut parts[self.pe_part[pe as usize] as usize];
        let base = p.base_pe;
        &mut p.pes[(pe - base) as usize]
    }

    /// The serial phase. Returns `Some(p_end)` to run a parallel window
    /// with that bound, `None` when the run is complete.
    fn step(&mut self, parts: &mut [PartData]) -> Option<Time> {
        // ---- harvest the previous window batch ----
        if parts.iter().any(|p| !p.fx.is_empty()) {
            let epoch = parts.first().map_or(0, |p| p.epoch);
            // Canonical-min stop across partitions. Within a partition the
            // fx stream is in canonical order, so its first stop record is
            // its earliest; cross-partition ties need the full comparison.
            let mut stop: Option<(usize, EvKey)> = None;
            for (i, p) in parts.iter().enumerate() {
                if let Some(f) = p.fx.iter().find(|f| f.stop) {
                    stop = match stop {
                        Some((bi, bk))
                            if canon_cmp(parts, epoch, bi, bk, i, f.key)
                                != std::cmp::Ordering::Greater =>
                        {
                            Some((bi, bk))
                        }
                        _ => Some((i, f.key)),
                    };
                }
            }
            if let Some((pstar, kstar)) = stop {
                self.finish_stop(parts, pstar, kstar);
                return None;
            }
            self.replay_fx(parts);
            self.flatten(parts);
        }

        // ---- canonical serial frontier ----
        loop {
            if self.stats.events >= self.cfg.max_events {
                panic!(
                    "simulation exceeded max_events={} at t={}",
                    self.cfg.max_events, self.now
                );
            }
            let t_s = self.serial.peek_time().unwrap_or(u64::MAX);
            let t_l = parts
                .iter()
                .filter_map(|p| p.q.peek_time())
                .min()
                .unwrap_or(u64::MAX);
            if t_s == u64::MAX && t_l == u64::MAX {
                return None; // drained
            }
            if t_l < t_s {
                let p_end = t_s.min(t_l.saturating_add(self.lookahead));
                let mut ready = 0usize;
                let mut queued = 0usize;
                for p in parts.iter() {
                    if p.q.peek_time().is_some_and(|t| t < p_end) {
                        ready += 1;
                        // Queue length is an upper bound on the events this
                        // partition can execute in the batch — cheap, and
                        // good enough to decide whether waking the pool can
                        // possibly pay for the barrier crossing.
                        queued += p.q.len();
                    }
                }
                if ready >= 2 && queued >= self.cfg.handoff_min_events as usize {
                    // Hand off: at least two partitions have work strictly
                    // inside the first window. Workers bound themselves by
                    // the serial horizon and each other's frontiers
                    // (seeded here with the queue heads — exactly the
                    // `t_l` this p_end was computed from), batching up to
                    // `batch_windows` windows before the next barrier.
                    self.ctl.halt.store(u64::MAX, Ordering::Relaxed);
                    for (i, p) in parts.iter_mut().enumerate() {
                        p.epoch = self.ord;
                        self.ctl.frontiers[i]
                            .store(p.q.peek_time().unwrap_or(u64::MAX), Ordering::Relaxed);
                    }
                    return Some(t_s);
                }
                // Single-partition or under-threshold window: run the
                // canonical min inline (cheaper than a barrier round-trip
                // for a handful of events).
                let pi = self.min_part(parts).expect("partition head exists");
                let (key, ev) = parts[pi].q.pop().expect("peeked");
                // `now` is the furthest virtual time reached (harvested
                // window effects may already sit past a pending command's
                // timestamp, so it is a running max, not a monotone clock).
                self.now = self.now.max(key.t);
                self.exec_inline(&mut parts[pi], key.t, ev);
            } else {
                // Serial head is at or before every partition head; the
                // canonical min is decided by full key comparison (time
                // ties between a layer event and a PE event are real).
                let part_min = self.min_part(parts);
                let serial_first = match (self.serial.peek_key(), part_min) {
                    (Some(sk), Some(pi)) => sk < parts[pi].q.peek_key().expect("head"),
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => unreachable!("checked above"),
                };
                if serial_first {
                    let (key, ev) = self.serial.pop().expect("peeked");
                    self.now = self.now.max(key.t);
                    self.exec_serial(parts, key.t, ev);
                } else {
                    let pi = part_min.expect("partition head exists");
                    let (key, ev) = parts[pi].q.pop().expect("peeked");
                    self.now = self.now.max(key.t);
                    self.exec_inline(&mut parts[pi], key.t, ev);
                }
            }
            if self.stopped {
                return None;
            }
        }
    }

    /// Index of the partition holding the smallest queue head key.
    fn min_part(&self, parts: &[PartData]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, p) in parts.iter().enumerate() {
            if let Some(k) = p.q.peek_key() {
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        if k < parts[b].q.peek_key().expect("head") {
                            best = Some(i);
                        }
                    }
                }
            }
        }
        best
    }

    /// Execute a PE-local event on the main thread with immediate effect
    /// application and `Flat` push ordinals — exactly the sequential
    /// semantics.
    fn exec_inline(&mut self, part: &mut PartData, t: Time, ev: Event) {
        let env = ExecEnv {
            cfg: self.cfg,
            handlers: self.handlers,
            charm_reg: self.charm_reg,
            am_reg: self.am_reg,
            system_handlers: self.system_handlers,
        };
        let mut ord = self.ord;
        let mut scratch = std::mem::take(&mut self.scratch);
        {
            let PartData {
                base_pe, pes, q, ..
            } = &mut *part;
            exec_local_event(
                &env,
                pes,
                *base_pe,
                q,
                t,
                ev,
                |at| {
                    let k = EvKey::flat(at, ord);
                    ord += 1;
                    k
                },
                &mut scratch,
            );
        }
        self.ord = ord;
        self.stats.add(&scratch.stats);
        for op in &scratch.trace {
            self.trace.apply(op);
        }
        for (k, ev) in scratch.cmds.drain(..) {
            self.serial.push(k, ev);
        }
        if scratch.stop {
            self.stopped = true;
        }
        self.scratch = scratch;
    }

    /// Execute a serial-class event (machine layer, command, parked wake)
    /// — the parallel-mode mirror of `Cluster::dispatch`'s layer arms.
    fn exec_serial(&mut self, parts: &mut [PartData], t: Time, ev: Event) {
        self.stats.events += 1;
        self.stats.event_kinds[match &ev {
            Event::PeRun(_) => 0,
            Event::Deliver(..) => 1,
            Event::Machine(..) | Event::ParkedWake(_) => 2,
            Event::MachineNow(..) => 3,
            Event::Cmd(..) => 4,
            Event::NodeLife(..) | Event::FtRecover(_) => 2,
        }] += 1;
        match ev {
            Event::Machine(pe, mev) => {
                let st = self.pe_mut(parts, pe);
                if st.busy_until > t {
                    st.parked.push_back(mev);
                    if !st.parked_wake {
                        st.parked_wake = true;
                        let at = st.busy_until;
                        let k = EvKey::flat(at, self.ord);
                        self.ord += 1;
                        self.serial.push(k, Event::ParkedWake(pe));
                    }
                    return;
                }
                self.with_layer(parts, t, None, |layer, ctx| layer.on_event(ctx, pe, mev));
            }
            Event::MachineNow(pe, mev) => {
                self.with_layer(parts, t, None, |layer, ctx| layer.on_event(ctx, pe, mev));
            }
            Event::ParkedWake(pe) => {
                self.pe_mut(parts, pe).parked_wake = false;
                loop {
                    let st = self.pe_mut(parts, pe);
                    if st.parked.is_empty() {
                        break;
                    }
                    if st.busy_until > t {
                        if !st.parked_wake {
                            st.parked_wake = true;
                            let at = st.busy_until;
                            let k = EvKey::flat(at, self.ord);
                            self.ord += 1;
                            self.serial.push(k, Event::ParkedWake(pe));
                        }
                        break;
                    }
                    let mev = st.parked.pop_front().expect("non-empty");
                    self.with_layer(parts, t, None, |layer, ctx| layer.on_event(ctx, pe, mev));
                }
            }
            Event::Cmd(pe, cmd) => {
                let cur = Some(self.pe_part[pe as usize]);
                self.with_layer(parts, t, cur, |layer, ctx| match cmd {
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
            Event::PeRun(_) | Event::Deliver(..) => {
                unreachable!("PE-local events live in partition queues")
            }
            Event::NodeLife(..) | Event::FtRecover(_) => {
                unreachable!("node-crash plans force the sequential engine")
            }
        }
    }

    fn with_layer(
        &mut self,
        parts: &mut [PartData],
        t: Time,
        cur_part: Option<u32>,
        f: impl FnOnce(&mut dyn MachineLayer, &mut MachineCtx),
    ) {
        // panic-ok: reentrancy guard — with_layer never nests
        let mut layer = self.layer.take().expect("machine layer reentrancy");
        {
            let mut ctx = MachineCtx {
                now: t,
                cfg: self.cfg,
                back: McBack::Par {
                    parts,
                    pe_part: self.pe_part,
                    serial: &mut self.serial,
                    ord: &mut self.ord,
                    cur_part,
                    lookahead: self.lookahead,
                },
                trace: &mut *self.trace,
                stats: &mut *self.stats,
            };
            f(layer.as_mut(), &mut ctx);
        }
        *self.layer = Some(layer);
    }

    /// Apply buffered window effects. Every destination is either
    /// per-partition-order sensitive at most per PE (the trace: per-PE
    /// accumulators, per-PE pending segments, and a log that consumers
    /// stable-sort by `(pe, start)`) or commutative (stats sums, the `now`
    /// running max), so replaying each partition's stream sequentially is
    /// observation-equivalent to the canonical k-way merge — without the
    /// per-record comparisons. (The one global-order consumer, a streaming
    /// trace sink, forces the sequential engine in `run_parallel`.)
    ///
    /// Leaves `fx`/`origins` in place: `flatten` still needs them to order
    /// surviving in-phase keys.
    fn replay_fx(&mut self, parts: &mut [PartData]) {
        for p in parts.iter() {
            for rec in &p.fx {
                self.stats.add(&rec.stats);
            }
            for op in &p.trace_ops {
                self.trace.apply(op);
            }
            if let Some(rec) = p.fx.last() {
                // Partition streams are time-sorted: the last record holds
                // the partition's furthest virtual time.
                self.now = self.now.max(rec.key.t);
            }
        }
    }

    /// Re-key every pending event (including buffered commands) with fresh
    /// flat ordinals in canonical order, so in-phase keys — meaningless
    /// without this phase's `origins`/`fx` logs — never outlive their
    /// phase. Clears the phase logs afterwards.
    fn flatten(&mut self, parts: &mut [PartData]) {
        let epoch = parts.first().map_or(0, |p| p.epoch);
        let mut all: Vec<(usize, EvKey, Event)> = Vec::new();
        for (k, ev) in self.serial.drain_sorted() {
            all.push((SER, k, ev));
        }
        for (i, p) in parts.iter_mut().enumerate() {
            for (k, ev) in p.q.drain_sorted() {
                all.push((i, k, ev));
            }
            for (k, ev) in p.cmds.drain(..) {
                all.push((i, k, ev));
            }
        }
        all.sort_by(|a, b| canon_cmp(parts, epoch, a.0, a.1, b.0, b.1).then_with(|| a.0.cmp(&b.0)));
        for (_, k, ev) in all {
            let nk = EvKey::flat(k.t, self.ord);
            self.ord += 1;
            match &ev {
                Event::PeRun(pe) | Event::Deliver(pe, _) => {
                    parts[self.pe_part[*pe as usize] as usize].q.push(nk, ev)
                }
                _ => self.serial.push(nk, ev),
            }
        }
        for p in parts.iter_mut() {
            p.fx.clear();
            p.origins.clear();
            p.trace_ops.clear();
        }
    }

    /// A window batch discovered a stop; `kstar` (in partition `pstar`) is
    /// its canonical key. Events canonically after it are dead (the
    /// sequential engine never reaches them — their buffered effects are
    /// discarded, and unexecuted ones become post-run leftovers only if
    /// the sequential engine would also have left them queued); events
    /// before it that other partitions had not yet processed (windows may
    /// end early on Cmd bounds, frontiers or the event cap) are executed
    /// here, interleaved with the buffered effect replay in one canonical
    /// key-ordered pass.
    fn finish_stop(&mut self, parts: &mut [PartData], pstar: usize, kstar: EvKey) {
        use std::cmp::Ordering as O;
        let epoch = parts.first().map_or(0, |p| p.epoch);
        // Unexecuted phase work (partition queues + buffered commands):
        // keep what lies canonically below the stop, in canonical order.
        // Draining the queues up front also means that from here on the
        // partition heaps only ever hold *fresh* flat keys pushed by the
        // drain itself, whose plain heap order is exact.
        let mut pending: Vec<(usize, EvKey, Event)> = Vec::new();
        for (i, p) in parts.iter_mut().enumerate() {
            for (k, ev) in p.q.drain_sorted() {
                pending.push((i, k, ev));
            }
            for (k, ev) in p.cmds.drain(..) {
                pending.push((i, k, ev));
            }
        }
        pending.retain(|(pi, k, _)| canon_cmp(parts, epoch, *pi, *k, pstar, kstar) == O::Less);
        pending.sort_by(|a, b| {
            canon_cmp(parts, epoch, a.0, a.1, b.0, b.1).then_with(|| a.0.cmp(&b.0))
        });
        let mut pending = pending.into_iter().peekable();

        enum Pick {
            Fx(usize),
            Pend,
            Serial,
            PartQ(usize),
        }
        let kstar_ck = CKey {
            phase: true,
            part: pstar,
            k: kstar,
        };
        let n = parts.len();
        let mut fi = vec![0usize; n];
        let mut ti = vec![0usize; n];
        let mut early = false;
        loop {
            // Discard effect records canonically past the stop (executed
            // too far; the partition state they mutated is unobservable —
            // the run ends at the stop). Streams are canonically sorted,
            // so these form a suffix.
            for i in 0..n {
                while fi[i] < parts[i].fx.len() {
                    let k = parts[i].fx[fi[i]].key;
                    if canon_cmp(parts, epoch, i, k, pstar, kstar) == O::Greater {
                        ti[i] += parts[i].fx[fi[i]].trace_n as usize;
                        fi[i] += 1;
                    } else {
                        break;
                    }
                }
            }
            // Canonical-min candidate across the four sources.
            let mut best: Option<(CKey, Pick)> = None;
            for i in 0..n {
                if fi[i] < parts[i].fx.len() {
                    let c = CKey {
                        phase: true,
                        part: i,
                        k: parts[i].fx[fi[i]].key,
                    };
                    if best
                        .as_ref()
                        .is_none_or(|(b, _)| ckey_cmp(parts, epoch, c, *b) == O::Less)
                    {
                        best = Some((c, Pick::Fx(i)));
                    }
                }
            }
            if let Some((pi, k, _)) = pending.peek() {
                let c = CKey {
                    phase: true,
                    part: *pi,
                    k: *k,
                };
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| ckey_cmp(parts, epoch, c, *b) == O::Less)
                {
                    best = Some((c, Pick::Pend));
                }
            }
            if let Some(k) = self.serial.peek_key() {
                let c = CKey {
                    phase: k.ord < epoch,
                    part: SER,
                    k: *k,
                };
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| ckey_cmp(parts, epoch, c, *b) == O::Less)
                {
                    best = Some((c, Pick::Serial));
                }
            }
            for i in 0..n {
                if let Some(k) = parts[i].q.peek_key() {
                    let c = CKey {
                        phase: false,
                        part: i,
                        k: *k,
                    };
                    if best
                        .as_ref()
                        .is_none_or(|(b, _)| ckey_cmp(parts, epoch, c, *b) == O::Less)
                    {
                        best = Some((c, Pick::PartQ(i)));
                    }
                }
            }
            let Some((ck, pick)) = best else { break };
            if ckey_cmp(parts, epoch, ck, kstar_ck) == O::Greater {
                // Nothing before the stop remains (while the stop's own
                // effect record is unapplied it bounds every pick, so this
                // cannot skip it). What's left stays queued as leftovers.
                break;
            }
            match pick {
                Pick::Fx(b) => {
                    let rec = &parts[b].fx[fi[b]];
                    self.now = self.now.max(rec.key.t);
                    self.stats.add(&rec.stats);
                    for k in 0..rec.trace_n as usize {
                        self.trace.apply(&parts[b].trace_ops[ti[b] + k]);
                    }
                    ti[b] += rec.trace_n as usize;
                    let stop_here = rec.stop;
                    fi[b] += 1;
                    if stop_here {
                        break; // kstar itself: the run ends here.
                    }
                }
                Pick::Pend => {
                    let (_, k, ev) = pending.next().expect("peeked");
                    self.now = self.now.max(k.t);
                    match &ev {
                        Event::PeRun(pe) | Event::Deliver(pe, _) => {
                            let pi = self.pe_part[*pe as usize] as usize;
                            self.exec_inline(&mut parts[pi], k.t, ev);
                        }
                        _ => self.exec_serial(parts, k.t, ev),
                    }
                }
                Pick::Serial => {
                    let (k, ev) = self.serial.pop().expect("peeked");
                    self.now = self.now.max(k.t);
                    self.exec_serial(parts, k.t, ev);
                }
                Pick::PartQ(i) => {
                    let (k, ev) = parts[i].q.pop().expect("peeked");
                    self.now = self.now.max(k.t);
                    self.exec_inline(&mut parts[i], k.t, ev);
                }
            }
            if self.stopped {
                // An earlier event also stopped: it wins outright.
                early = true;
                break;
            }
        }
        if !early {
            self.now = self.now.max(kstar.t);
            self.stopped = true;
        }
        // Everything still queued mirrors what the sequential engine
        // leaves behind on an early stop; hand it to the teardown in
        // canonical order (the keys die with this phase's logs).
        let mut left: Vec<(CKey, Event)> = Vec::new();
        for (pi, k, ev) in pending {
            left.push((
                CKey {
                    phase: true,
                    part: pi,
                    k,
                },
                ev,
            ));
        }
        for (k, ev) in self.serial.drain_sorted() {
            left.push((
                CKey {
                    phase: k.ord < epoch,
                    part: SER,
                    k,
                },
                ev,
            ));
        }
        for (i, p) in parts.iter_mut().enumerate() {
            for (k, ev) in p.q.drain_sorted() {
                left.push((
                    CKey {
                        phase: false,
                        part: i,
                        k,
                    },
                    ev,
                ));
            }
        }
        left.sort_by(|a, b| ckey_cmp(parts, epoch, a.0, b.0).then_with(|| a.0.part.cmp(&b.0.part)));
        self.leftovers = left.into_iter().map(|(c, ev)| (c.k.t, ev)).collect();
        for p in parts.iter_mut() {
            p.fx.clear();
            p.origins.clear();
            p.trace_ops.clear();
        }
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
    /// FT subsystem state (None when FT is off — FT forces the sequential
    /// engine, so parallel execution always sees None here).
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
        // global interleaving of create calls (identical in run and
        // run_parallel).
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

    /// Random fan-out traffic over 4 nodes, run at a given thread count.
    /// Returns everything the parallel engine must reproduce bit for bit.
    fn fanout_run(threads: u32, stop_at: Option<u64>) -> (RunReport, Time, Time, u64, String) {
        let mut cfg = ClusterCfg::new(16, 4);
        cfg.threads = threads;
        let mut c = Cluster::new(cfg, Box::new(IdealLayer::new(1000)));
        c.enable_trace_log();
        let h = c.register_handler(move |ctx, env| {
            let n = wire::unpack_u64(&env.payload, 0);
            ctx.charge(300 + (n % 7) * 40);
            if stop_at == Some(n) {
                ctx.stop();
                return;
            }
            if n > 0 {
                let dst = ctx.rng().below(16) as u32;
                ctx.send(dst, env.handler, wire::pack_u64s(&[n - 1]));
                if n.is_multiple_of(3) {
                    let dst2 = ctx.rng().below(16) as u32;
                    ctx.send(dst2, env.handler, wire::pack_u64s(&[n / 2]));
                }
            }
        });
        for pe in 0..16 {
            c.inject(0, pe, h, wire::pack_u64s(&[24 + pe as u64]));
        }
        let r = c.run();
        (
            r,
            c.trace().total_busy(),
            c.trace().total_overhead(),
            c.trace().total_msgs(),
            c.trace().export_log(),
        )
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = fanout_run(1, None);
        for threads in [2, 4, 8] {
            let par = fanout_run(threads, None);
            assert_eq!(seq.0.end_time, par.0.end_time, "threads={threads}");
            assert_eq!(seq.0.stats, par.0.stats, "threads={threads}");
            assert_eq!(seq.1, par.1, "busy, threads={threads}");
            assert_eq!(seq.2, par.2, "overhead, threads={threads}");
            assert_eq!(seq.3, par.3, "msgs, threads={threads}");
            assert_eq!(seq.4, par.4, "trace log, threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_sequential_with_stop() {
        let seq = fanout_run(1, Some(5));
        assert!(seq.0.stopped_early);
        for threads in [2, 4] {
            let par = fanout_run(threads, Some(5));
            assert_eq!(seq.0.end_time, par.0.end_time, "threads={threads}");
            assert_eq!(seq.0.stats, par.0.stats, "threads={threads}");
            assert_eq!(seq.4, par.4, "trace log, threads={threads}");
        }
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
