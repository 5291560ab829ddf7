//! The uGNI machine layer (paper §III-C and §IV).
//!
//! Protocols implemented here, mapped to the paper:
//!
//! * **Small messages** (≤ SMSG limit): `GNI_SmsgSendWTag` with per-
//!   connection credits; the receiver drains its mailbox from the progress
//!   engine and hands copies to Converse (§III-C).
//! * **Large messages**: the GET-based rendezvous of Fig. 5 — the sender
//!   registers its buffer and ships a small `INIT_TAG` control message with
//!   the memory handle; the receiver allocates + registers a landing
//!   buffer, posts an FMA or BTE **GET** (by size), and on completion sends
//!   `ACK_TAG` back so the sender can free. Cost without the pool is
//!   exactly the paper's Equation 1.
//! * **Memory pool** (§IV-B): message buffers come from a pre-registered
//!   pool, removing `T_malloc + T_register` from both sides.
//! * **Persistent messages** (§IV-A, Fig. 7a): a pre-registered receive
//!   buffer lets the sender **PUT** directly and follow with one
//!   `PERSISTENT_TAG` notification — `T_cost = T_rdma + T_smsg`.
//! * **Intra-node pxshm** (§IV-C): double- or single-copy shared-memory
//!   delivery that bypasses the NIC entirely.

use crate::config::{IntraNode, SmallPath, UgniConfig};
use bytes::{BufMut, Bytes, BytesMut};
use charm_rt::cluster::MachineCtx;
use charm_rt::lrts::{MachineLayer, PersistentHandle};
use charm_rt::msg::PeId;
use gemini_net::{Addr, MemHandle, RdmaOp};
use mempool::{Block, MemPool};
use sim_core::{LazyVec, Time};
use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use ugni::{CqEvent, CqHandle, EpHandle, Gni, GniError, GniResult, PostDescriptor, SmsgSendOk};

// With the `verify` feature every uGNI call goes through the CheckedGni
// contract verifier; signatures are identical, so only the stored type
// changes. CheckedGni derefs to Gni for the read-only surface.
#[cfg(not(feature = "verify"))]
use ugni::Gni as LGni;
#[cfg(feature = "verify")]
use ugni_verify::CheckedGni as LGni;

const TAG_SMALL: u8 = 0;
const TAG_INIT: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_PERSIST: u8 = 3;

/// First retry delay after a fabric transaction error, virtual ns.
const RETRY_BACKOFF0: Time = 1_000;
/// Exponential backoff cap.
const RETRY_BACKOFF_MAX: Time = 65_536;

fn next_backoff(b: Time) -> Time {
    if b == 0 {
        RETRY_BACKOFF0
    } else {
        (b * 2).min(RETRY_BACKOFF_MAX)
    }
}

/// Bytes of the per-message sequence header prepended on the small path
/// when a fault plan is active (receiver-side duplicate suppression).
const SEQ_HDR: usize = 8;

/// Machine-layer event payloads (driven through `MachineCtx::schedule`).
enum Ev {
    /// Drain this PE's SMSG mailbox.
    PollSmsg,
    /// Drain this node's shared MSGQ (the event's PE does the software
    /// demultiplexing for its node).
    PollMsgq,
    /// Drain this PE's transaction CQ.
    PollCq,
    /// Credits may have freed on the connection to `peer`: retry queued
    /// sends.
    Retry { peer: PeId },
    /// Sender-side buffer prepared; ship the rendezvous INIT control
    /// message (fires after T_malloc+T_register / pool alloc).
    StartRendezvous { xid: u64 },
    /// Receiver-side landing buffer ready; post the GET.
    PostGet { xid: u64 },
    /// A persistent PUT completed locally; notify the receiver.
    PersistPutDone { xid: u64 },
    /// A persistent PUT failed in the fabric; post it again (chaos mode).
    RepostPut { xid: u64 },
    /// A pxshm message becomes visible to the receiver.
    ShmArrive { data: Bytes, copy_out: bool },
}

/// A buffer obtained either from the pool or via malloc+register.
enum Buf {
    Pooled(Block),
    Direct { addr: Addr, handle: MemHandle },
}

impl Buf {
    fn addr(&self) -> Addr {
        match self {
            Buf::Pooled(b) => b.addr,
            Buf::Direct { addr, .. } => *addr,
        }
    }

    fn handle(&self) -> MemHandle {
        match self {
            Buf::Pooled(b) => b.handle,
            Buf::Direct { handle, .. } => *handle,
        }
    }
}

struct PendingSend {
    src_pe: PeId,
    dst_pe: PeId,
    buf: Buf,
    bytes: u64,
}

struct PendingRecv {
    dst_pe: PeId,
    src_pe: PeId,
    buf: Buf,
    bytes: u64,
    remote_handle: MemHandle,
    remote_addr: Addr,
    /// Current retry backoff; nonzero once the GET has faulted.
    backoff: Time,
}

/// An in-flight persistent PUT being tracked for fabric-error recovery
/// (chaos mode only; fault-free runs use the direct `PersistPutDone` path).
struct PendingPut {
    handle: PersistentHandle,
    src_pe: PeId,
    dst_pe: PeId,
    bytes: u64,
    backoff: Time,
}

/// Small/control messages parked behind exhausted credits or a faulted
/// transaction on one connection, FIFO, with a single armed retry timer.
#[derive(Default)]
struct ConnBacklog {
    q: VecDeque<(u8, Bytes)>,
    armed: bool,
    /// Current transaction-error backoff (0 = healthy connection).
    backoff: Time,
}

struct PersistChan {
    src_pe: PeId,
    dst_pe: PeId,
    max_bytes: u64,
    /// Pre-registered receive buffer on the destination (paper Fig. 7a).
    remote: Buf,
    /// Pre-registered send buffer on the source.
    local: Buf,
}

#[derive(Debug, Default, Clone)]
pub struct UgniStats {
    pub small_msgs: u64,
    pub rendezvous_msgs: u64,
    pub persistent_msgs: u64,
    pub shm_msgs: u64,
    pub credit_retries: u64,
    pub bytes: u64,
    /// SMP mode: protocol CPU time absorbed by the per-node comm threads
    /// instead of worker PEs.
    pub comm_thread_ns: Time,
    /// Small-path sends that failed in the fabric and were re-sent.
    pub send_faults: u64,
    /// FMA/BTE transactions that failed and were re-posted.
    pub rdma_faults: u64,
    /// CQ overruns recovered via resync.
    pub cq_resyncs: u64,
    /// Direct-path registrations that hit NIC resource exhaustion and fell
    /// back to the pre-registered pool.
    pub reg_fallbacks: u64,
    /// Duplicate small-path messages suppressed by the receiver (resends
    /// after a corrupted-completion delivery).
    pub dup_drops: u64,
    /// Sends and re-posts abandoned because the peer's node is inside a
    /// crash window it never leaves (retrying forever would wedge the
    /// connection; the FT layer above re-drives delivery after recovery).
    pub dead_peer_drops: u64,
    /// Total CPU time charged as fault recovery.
    pub recovery_ns: Time,
}

/// Materialization grain for per-PE poll state (24 B per PE here; a
/// sparse job touching scattered PEs should not pay 24 KiB pages).
const POLL_PAGE: usize = 64;

/// The machine layer object.
pub struct UgniLayer {
    cfg: UgniConfig,
    gni: Option<LGni>,
    /// One transaction CQ per PE, created on the PE's first traffic (a
    /// whole-machine job at Hopper scale must not allocate 150k+ CQs up
    /// front when a run touches a fraction of them; handles are opaque,
    /// so first-touch creation order is unobservable).
    cqs: BTreeMap<PeId, CqHandle>,
    /// Lazily created endpoints per (src_pe, dst_pe).
    eps: HashMap<(PeId, PeId), EpHandle>,
    /// One message pool per PE (per process, as in non-SMP Charm++),
    /// created on first allocation from the PE's fixed address window.
    pools: BTreeMap<PeId, MemPool>,
    /// Per-connection send backlog (credit exhaustion + fabric faults).
    backlog: HashMap<(PeId, PeId), ConnBacklog>,
    sends: HashMap<u64, PendingSend>,
    recvs: HashMap<u64, PendingRecv>,
    persists: HashMap<PersistentHandle, PersistChan>,
    /// In-flight persistent payloads keyed by xid.
    persist_data: HashMap<u64, (Bytes, PeId)>,
    /// Persistent PUTs awaiting a CQ completion (chaos mode only).
    persist_pending: HashMap<u64, PendingPut>,
    /// True when the configured fault plan can inject anything. All
    /// recovery bookkeeping that would perturb timing (sequence headers,
    /// CQ-reaped PUT completions) is gated on this so fault-free runs stay
    /// bit-identical to the pre-chaos code.
    chaos: bool,
    /// Next small-path sequence number per connection (chaos mode).
    seq_tx: HashMap<(PeId, PeId), u64>,
    /// Sequence numbers already delivered per connection (chaos mode).
    seq_seen: HashMap<(PeId, PeId), HashSet<u64>>,
    /// SMP mode: per-node comm-thread availability.
    comm_busy: Vec<Time>,
    /// Earliest armed poll event per PE (coalescing: one in-flight
    /// PollSmsg/PollMsgq/PollCq each; u64::MAX = none armed). Paged lazily
    /// at a small grain ([`POLL_PAGE`]): the disarmed state IS the
    /// default, so idle PEs cost nothing, and sparse jobs touching
    /// scattered PEs materialize little around each.
    poll_armed: LazyVec<[Time; 3], POLL_PAGE>,
    next_xid: u64,
    pub stats: UgniStats,
}

impl UgniLayer {
    pub fn new(cfg: UgniConfig) -> Self {
        let chaos = cfg.params.fault.is_active();
        UgniLayer {
            cfg,
            gni: None,
            cqs: BTreeMap::new(),
            eps: HashMap::new(),
            pools: BTreeMap::new(),
            backlog: HashMap::new(),
            sends: HashMap::new(),
            recvs: HashMap::new(),
            persists: HashMap::new(),
            persist_data: HashMap::new(),
            persist_pending: HashMap::new(),
            chaos,
            seq_tx: HashMap::new(),
            seq_seen: HashMap::new(),
            comm_busy: Vec::new(),
            poll_armed: LazyVec::new(0, [Time::MAX; 3]),
            next_xid: 0,
            stats: UgniStats::default(),
        }
    }

    /// Charge `ns` of protocol processing for `pe`'s traffic. In non-SMP
    /// mode this is worker-PE overhead (the progress engine runs inside
    /// the process); in SMP mode the per-node comm thread absorbs it.
    /// Returns the time at which the processing completes.
    fn charge_comm(&mut self, ctx: &mut MachineCtx, pe: PeId, ns: Time) -> Time {
        if !self.cfg.smp {
            ctx.charge_overhead(pe, ns);
            return ctx.pe_free_at(pe).max(ctx.now());
        }
        let node = ctx.node_of(pe) as usize;
        let start = self.comm_busy[node].max(ctx.now());
        self.comm_busy[node] = start + ns;
        self.stats.comm_thread_ns += ns;
        start + ns
    }

    /// Like [`UgniLayer::charge_comm`] but accounted as fault recovery:
    /// retries, CQ resyncs, and registration fallbacks land in the trace's
    /// recovery category instead of ordinary overhead.
    fn charge_rec(&mut self, ctx: &mut MachineCtx, pe: PeId, ns: Time) -> Time {
        self.stats.recovery_ns += ns;
        if !self.cfg.smp {
            ctx.charge_recovery(pe, ns);
            return ctx.pe_free_at(pe).max(ctx.now());
        }
        let node = ctx.node_of(pe) as usize;
        let start = self.comm_busy[node].max(ctx.now());
        self.comm_busy[node] = start + ns;
        self.stats.comm_thread_ns += ns;
        start + ns
    }

    /// Schedule a progress poll for `pe`'s traffic, coalescing with any
    /// already-armed poll of the same kind (the drain loops process every
    /// ready message, so one in-flight poll per PE suffices — without
    /// this, deferred duplicate polls pile up quadratically on busy PEs).
    /// In SMP mode the comm thread polls regardless of worker business.
    fn schedule_poll(&mut self, ctx: &mut MachineCtx, at: Time, pe: PeId, ev: Ev) {
        let at = at.max(ctx.now());
        let kind = match ev {
            Ev::PollSmsg => 0,
            Ev::PollMsgq => 1,
            Ev::PollCq => 2,
            // panic-ok: callers pass poll events only — a misuse is a code bug
            _ => unreachable!("schedule_poll on a non-poll event"),
        };
        if at >= self.poll_armed.get(pe as usize)[kind] {
            return; // the armed poll will see this message too
        }
        self.poll_armed.get_mut(pe as usize)[kind] = at;
        if self.cfg.smp {
            ctx.schedule_nodefer(at, pe, Box::new(ev));
        } else {
            ctx.schedule(at, pe, Box::new(ev));
        }
    }

    /// Mark a poll kind as disarmed (called on drain entry). Skips the
    /// write when already disarmed so cold pages stay unmaterialized.
    fn disarm(&mut self, pe: PeId, kind: usize) {
        if self.poll_armed.get(pe as usize)[kind] != Time::MAX {
            self.poll_armed.get_mut(pe as usize)[kind] = Time::MAX;
        }
    }

    /// Base of `pe`'s fixed mempool address window. Purely a function of
    /// the PE id, so a lazily created pool is identical to an eager one.
    /// Windows are 2^40 bytes starting at 2^62: large enough for any
    /// pool's simulated slabs, clear of the per-node bump windows at
    /// `(node + 1) << 44`, and — unlike a wider spacing — overflow-free
    /// up to 4M PEs (`2^62 + 2^22 * 2^40 < 2^63`).
    fn pool_base(pe: PeId) -> u64 {
        (1u64 << 62) + ((pe as u64) << 40)
    }

    /// The PE's transaction CQ, created on first touch.
    fn cq(&mut self, pe: PeId) -> CqHandle {
        if let Some(&cq) = self.cqs.get(&pe) {
            return cq;
        }
        let cq = self.gni_mut().cq_create();
        self.cqs.insert(pe, cq);
        cq
    }

    pub fn gni(&self) -> &Gni {
        self.gni.as_ref().expect("layer not initialized")
    }

    /// Contract-verifier findings for this layer's uGNI instance.
    /// `Some` only when built with the `verify` feature.
    #[cfg(feature = "verify")]
    pub fn contract_report(&self) -> Option<ugni_verify::ContractReport> {
        self.gni.as_ref().map(|g| g.report())
    }

    #[cfg(not(feature = "verify"))]
    pub fn contract_report(&self) -> Option<ugni_verify::ContractReport> {
        None
    }

    fn gni_mut(&mut self) -> &mut LGni {
        // panic-ok: init() runs before any traffic; absence is a harness bug
        self.gni.as_mut().expect("layer not initialized")
    }

    fn ep(&mut self, ctx: &MachineCtx, src_pe: PeId, dst_pe: PeId) -> EpHandle {
        if let Some(&ep) = self.eps.get(&(src_pe, dst_pe)) {
            return ep;
        }
        let cq = self.cq(src_pe);
        let (sn, dn) = (ctx.node_of(src_pe), ctx.node_of(dst_pe));
        let ep = self
            .gni_mut()
            .ep_create_inst(sn, src_pe, dn, dst_pe, cq)
            // panic-ok: CQ handles and node ids are fixed at init
            .expect("ep bind: CQ and nodes fixed at init");
        self.eps.insert((src_pe, dst_pe), ep);
        ep
    }

    /// Allocate a message buffer on `pe`'s node: pool or malloc+register.
    /// Returns the buffer and the CPU cost.
    fn alloc_buf(&mut self, ctx: &MachineCtx, pe: PeId, bytes: u64) -> (Buf, Time) {
        let node = ctx.node_of(pe);
        let params = &self.cfg.params;
        if self.cfg.use_mempool {
            let gni = self.gni.as_mut().expect("init");
            let reg = gni.fabric_mut().reg_table(node);
            let pool = self
                .pools
                .entry(pe)
                .or_insert_with(|| MemPool::new(Self::pool_base(pe)));
            let (block, cost) = pool.alloc(params, reg, bytes);
            (Buf::Pooled(block), cost)
        } else {
            let gni = self.gni.as_mut().expect("init");
            let addr = gni.alloc_addr(node).expect("node within job");
            let malloc = params.malloc_cost(bytes);
            match gni.mem_register(node, addr, bytes) {
                Ok((handle, reg_cost)) => (Buf::Direct { addr, handle }, malloc + reg_cost),
                Err(_) => {
                    // Transient NIC memory-descriptor exhaustion
                    // (GNI_RC_ERROR_RESOURCE): fall back to the
                    // pre-registered pool so the transfer still proceeds.
                    self.stats.reg_fallbacks += 1;
                    let reg = gni.fabric_mut().reg_table(node);
                    let pool = self
                        .pools
                        .entry(pe)
                        .or_insert_with(|| MemPool::new(Self::pool_base(pe)));
                    let (block, cost) = pool.alloc(params, reg, bytes);
                    (Buf::Pooled(block), malloc + cost)
                }
            }
        }
    }

    /// Free a message buffer; returns the CPU cost (deregister+free for the
    /// direct path, a pool push for the pooled path).
    fn free_buf(&mut self, ctx: &MachineCtx, pe: PeId, buf: Buf) -> Time {
        let node = ctx.node_of(pe);
        let params = &self.cfg.params;
        match buf {
            Buf::Pooled(block) => {
                let gni = self.gni.as_mut().expect("init");
                gni.mem_clear(node, block.addr);
                let reg = gni.fabric_mut().reg_table(node);
                self.pools
                    .entry(pe)
                    .or_insert_with(|| MemPool::new(Self::pool_base(pe)))
                    .free(params, reg, block)
            }
            Buf::Direct { addr, handle } => {
                let gni = self.gni.as_mut().expect("init");
                gni.mem_clear(node, addr);
                // A stale handle is a bookkeeping bug, not a fabric fault:
                // charge nothing extra and keep going.
                gni.mem_deregister(node, handle).unwrap_or(0) + params.malloc_base
            }
        }
    }

    /// Queue-or-send a tagged SMSG on a connection, preserving FIFO order
    /// behind any credit backlog. `earliest` is when this message's own
    /// preparation is done (a burst of rendezvous preps must not make each
    /// control message wait for the *sum* of all preps).
    fn smsg(
        &mut self,
        ctx: &mut MachineCtx,
        src_pe: PeId,
        dst_pe: PeId,
        tag: u8,
        data: Bytes,
        earliest: Time,
    ) {
        // Chaos mode: frame every small-path message with a per-connection
        // sequence number so the receiver can suppress the duplicates that
        // corrupted-completion resends produce (exactly-once delivery).
        let data = if self.chaos {
            let ctr = self.seq_tx.entry((src_pe, dst_pe)).or_default();
            let seq = *ctr;
            *ctr += 1;
            let mut b = BytesMut::with_capacity(SEQ_HDR + data.len());
            b.put_u64(seq);
            b.put_slice(&data);
            b.freeze()
        } else {
            data
        };
        let key = (src_pe, dst_pe);
        if self.backlog.get(&key).is_some_and(|b| !b.q.is_empty()) {
            self.backlog.get_mut(&key).unwrap().q.push_back((tag, data));
            return;
        }
        self.try_smsg(ctx, src_pe, dst_pe, tag, data, earliest);
    }

    /// Attempt one SMSG (or MSGQ message, by configuration); on credit
    /// exhaustion or a fabric fault, park it and arm a retry timer.
    fn try_smsg(
        &mut self,
        ctx: &mut MachineCtx,
        src_pe: PeId,
        dst_pe: PeId,
        tag: u8,
        data: Bytes,
        earliest: Time,
    ) {
        let ep = self.ep(ctx, src_pe, dst_pe);
        let now = earliest.max(ctx.now());
        let use_msgq = self.cfg.small_path == SmallPath::Msgq;
        let res = if use_msgq {
            self.gni_mut().msgq_send_w_tag(now, ep, tag, data.clone())
        } else {
            self.gni_mut().smsg_send_w_tag(now, ep, tag, data.clone())
        };
        self.smsg_result(ctx, src_pe, dst_pe, tag, data, now, use_msgq, res, false);
    }

    /// Park a small-path message on its connection backlog (front for
    /// in-order retries, back for fresh sends) and make sure exactly one
    /// retry timer is armed for the connection.
    #[allow(clippy::too_many_arguments)]
    fn park_and_arm(
        &mut self,
        ctx: &mut MachineCtx,
        src_pe: PeId,
        peer: PeId,
        tag: u8,
        data: Bytes,
        at: Time,
        front: bool,
    ) {
        let e = self.backlog.entry((src_pe, peer)).or_default();
        if front {
            e.q.push_front((tag, data));
        } else {
            e.q.push_back((tag, data));
        }
        if !e.armed {
            e.armed = true;
            // Retries interleave with other machine-layer work (the
            // progress engine runs between protocol steps), so they must
            // not defer behind long overhead windows.
            ctx.schedule_nodefer(at, src_pe, Box::new(Ev::Retry { peer }));
        }
    }

    /// Shared outcome handling for every small-path send attempt (fresh
    /// sends and backlog retries, SMSG and MSGQ). Returns true when the
    /// message went out.
    #[allow(clippy::too_many_arguments)]
    fn smsg_result(
        &mut self,
        ctx: &mut MachineCtx,
        src_pe: PeId,
        dst_pe: PeId,
        tag: u8,
        data: Bytes,
        now: Time,
        use_msgq: bool,
        res: GniResult<SmsgSendOk>,
        front: bool,
    ) -> bool {
        match res {
            Ok(ok) => {
                self.charge_comm(ctx, src_pe, ok.cpu);
                let ev: Ev = if use_msgq { Ev::PollMsgq } else { Ev::PollSmsg };
                self.schedule_poll(ctx, ok.deliver_at, dst_pe, ev);
                if let Some(b) = self.backlog.get_mut(&(src_pe, dst_pe)) {
                    b.backoff = 0;
                }
                true
            }
            Err(GniError::NoCredits { retry_at }) => {
                self.stats.credit_retries += 1;
                let at = retry_at.max(now + 1);
                self.park_and_arm(ctx, src_pe, dst_pe, tag, data, at, front);
                false
            }
            Err(GniError::TransactionError {
                cpu,
                error_at,
                delivered_at,
                ..
            }) => {
                // The fabric lost or corrupted the message. The send CPU
                // was burned either way; if the payload landed anyway
                // (corrupted completion) wake the receiver so it drains —
                // the re-send becomes a duplicate its dedup filter drops.
                self.stats.send_faults += 1;
                self.charge_rec(ctx, src_pe, cpu);
                if let Some(t) = delivered_at {
                    let ev: Ev = if use_msgq { Ev::PollMsgq } else { Ev::PollSmsg };
                    self.schedule_poll(ctx, t, dst_pe, ev);
                }
                let backoff = {
                    let e = self.backlog.entry((src_pe, dst_pe)).or_default();
                    e.backoff = next_backoff(e.backoff);
                    e.backoff
                };
                let at = error_at.max(now) + backoff;
                if self
                    .cfg
                    .params
                    .fault
                    .node_dead_forever(ctx.node_of(dst_pe), at)
                {
                    // The peer is gone and never coming back: retrying
                    // forever would wedge the connection. Give up; with FT
                    // enabled the rollback-replay path regenerates the
                    // message for whichever PE adopts the destination.
                    self.stats.dead_peer_drops += 1;
                    return false;
                }
                self.park_and_arm(ctx, src_pe, dst_pe, tag, data, at, front);
                false
            }
            // panic-ok: non-credit smsg errors are protocol bugs, not faults
            Err(e) => panic!("small-path send failed: {e:?}"),
        }
    }

    fn conn_retry(&mut self, ctx: &mut MachineCtx, src_pe: PeId, peer: PeId) {
        if let Some(b) = self.backlog.get_mut(&(src_pe, peer)) {
            b.armed = false;
        }
        loop {
            let Some(b) = self.backlog.get_mut(&(src_pe, peer)) else {
                return;
            };
            let Some((tag, data)) = b.q.pop_front() else {
                return;
            };
            let ep = self.ep(ctx, src_pe, peer);
            let now = ctx.pe_free_at(src_pe).max(ctx.now());
            let use_msgq = self.cfg.small_path == SmallPath::Msgq;
            let res = if use_msgq {
                self.gni_mut().msgq_send_w_tag(now, ep, tag, data.clone())
            } else {
                self.gni_mut().smsg_send_w_tag(now, ep, tag, data.clone())
            };
            if !self.smsg_result(ctx, src_pe, peer, tag, data, now, use_msgq, res, true) {
                return;
            }
        }
    }

    fn rendezvous_start(&mut self, ctx: &mut MachineCtx, xid: u64) {
        let (src_pe, dst_pe, bytes, addr, handle) = {
            let p = self.sends.get(&xid).expect("unknown rendezvous xid");
            (p.src_pe, p.dst_pe, p.bytes, p.buf.addr(), p.buf.handle())
        };
        // INIT_TAG control message: xid, size, memory handle + address of
        // the sender buffer (paper Fig. 5).
        let mut b = BytesMut::with_capacity(33);
        b.put_u8(TAG_INIT);
        b.put_u64(xid);
        b.put_u64(bytes);
        b.put_u64(handle.0);
        b.put_u64(addr.0);
        // The SR event fires exactly when this message's buffer prep is
        // done, so the control message departs now.
        let at = ctx.now();
        self.smsg(ctx, src_pe, dst_pe, TAG_INIT, b.freeze(), at);
    }

    fn handle_init(&mut self, ctx: &mut MachineCtx, dst_pe: PeId, src_pe: PeId, ctrl: &Bytes) {
        let xid = u64::from_be_bytes(ctrl[1..9].try_into().unwrap());
        let bytes = u64::from_be_bytes(ctrl[9..17].try_into().unwrap());
        let handle = MemHandle(u64::from_be_bytes(ctrl[17..25].try_into().unwrap()));
        let addr = Addr(u64::from_be_bytes(ctrl[25..33].try_into().unwrap()));
        // Allocate the landing buffer (T_malloc + T_register, or the pool).
        let (buf, cost) = self.alloc_buf(ctx, dst_pe, bytes);
        let ready = self.charge_comm(ctx, dst_pe, cost);
        self.recvs.insert(
            xid,
            PendingRecv {
                dst_pe,
                src_pe,
                buf,
                bytes,
                remote_handle: handle,
                remote_addr: addr,
                backoff: 0,
            },
        );
        // Post the GET once the buffer is ready (after the charge).
        let at = if self.cfg.smp {
            ready.max(ctx.now())
        } else {
            ctx.pe_free_at(dst_pe).max(ctx.now())
        };
        ctx.schedule_nodefer(at, dst_pe, Box::new(Ev::PostGet { xid }));
    }

    fn post_get(&mut self, ctx: &mut MachineCtx, xid: u64) {
        let (dst_pe, src_pe, bytes, local_mem, local_addr, remote_mem, remote_addr, backoff) = {
            let r = self.recvs.get(&xid).expect("unknown recv xid");
            (
                r.dst_pe,
                r.src_pe,
                r.bytes,
                r.buf.handle(),
                r.buf.addr(),
                r.remote_handle,
                r.remote_addr,
                r.backoff,
            )
        };
        let ep = self.ep(ctx, dst_pe, src_pe);
        let now = ctx.pe_free_at(dst_pe).max(ctx.now());
        let desc = PostDescriptor {
            op: RdmaOp::Get,
            local_mem,
            local_addr,
            remote_mem,
            remote_addr,
            bytes,
            data: None,
            user_id: xid,
        };
        let use_fma = bytes <= self.cfg.fma_bte_threshold && bytes <= self.cfg.params.fma_max_bytes;
        let ok = if use_fma {
            self.gni_mut().post_fma(now, ep, desc)
        } else {
            self.gni_mut().post_rdma(now, ep, desc)
        }
        .expect("rendezvous GET rejected");
        if backoff > 0 {
            // This is a re-post after a fabric fault: the CPU is recovery
            // work, not steady-state protocol overhead.
            self.charge_rec(ctx, dst_pe, ok.cpu);
        } else {
            self.charge_comm(ctx, dst_pe, ok.cpu);
        }
        self.schedule_poll(ctx, ok.local_cq_at, dst_pe, Ev::PollCq);
    }

    fn drain_cq(&mut self, ctx: &mut MachineCtx, pe: PeId) {
        self.disarm(pe, 2);
        let cq = self.cq(pe);
        loop {
            let now = ctx.now();
            let poll_cost = self.gni().cq_poll_cost();
            match self.gni_mut().cq_get_event(cq, now) {
                Ok(CqEvent::PostDone { user_id, op, data }) => {
                    self.charge_comm(ctx, pe, poll_cost);
                    match op {
                        RdmaOp::Get => self.get_done(ctx, user_id, data),
                        // Persistent PUT completions are normally consumed
                        // by the PersistPutDone event and this is a no-op;
                        // under chaos the pending table is authoritative
                        // because the PUT may have been re-posted.
                        RdmaOp::Put => self.put_done(ctx, pe, user_id),
                    }
                }
                Ok(CqEvent::SmsgRx { .. }) => {
                    // SMSG arrivals are drained via PollSmsg.
                }
                Ok(CqEvent::PostError { user_id, op, .. }) => {
                    self.stats.rdma_faults += 1;
                    self.charge_rec(ctx, pe, poll_cost);
                    self.repost_after_error(ctx, pe, user_id, op);
                }
                Err(GniError::NotDone) => {
                    self.charge_comm(ctx, pe, poll_cost);
                    if let Some(t) = self.gni().cq_next_ready(cq) {
                        self.schedule_poll(ctx, t, pe, Ev::PollCq);
                    }
                    return;
                }
                Err(GniError::CqOverrun) => {
                    // The CQ dropped completions. Resync: audit outstanding
                    // transactions, recover the lost events, keep draining.
                    let (cost, _n) = self
                        .gni_mut()
                        .cq_resync(cq, now)
                        .expect("cq resync on a healthy queue");
                    self.stats.cq_resyncs += 1;
                    self.charge_rec(ctx, pe, cost);
                }
                Err(e) => panic!("cq poll failed: {e:?}"),
            }
        }
    }

    /// A fabric-failed FMA/BTE transaction: schedule a re-post with capped
    /// exponential backoff in virtual time.
    fn repost_after_error(&mut self, ctx: &mut MachineCtx, pe: PeId, xid: u64, op: RdmaOp) {
        // A fault for a transfer no longer tracked (already completed or
        // cancelled) is stale; recovery absorbs it rather than aborting.
        match op {
            RdmaOp::Get => {
                let Some(r) = self.recvs.get_mut(&xid) else {
                    return;
                };
                r.backoff = next_backoff(r.backoff);
                let at = ctx.now() + r.backoff;
                // The GET pulls from the sender's memory: a sender node
                // that is down for good can never serve it. Abandon the
                // transfer instead of re-posting forever.
                let peer = r.src_pe;
                if self
                    .cfg
                    .params
                    .fault
                    .node_dead_forever(ctx.node_of(peer), at)
                {
                    self.stats.dead_peer_drops += 1;
                    self.recvs.remove(&xid);
                    return;
                }
                ctx.schedule_nodefer(at, pe, Box::new(Ev::PostGet { xid }));
            }
            RdmaOp::Put => {
                let Some(p) = self.persist_pending.get_mut(&xid) else {
                    return;
                };
                p.backoff = next_backoff(p.backoff);
                let at = ctx.now() + p.backoff;
                let peer = p.dst_pe;
                if self
                    .cfg
                    .params
                    .fault
                    .node_dead_forever(ctx.node_of(peer), at)
                {
                    self.stats.dead_peer_drops += 1;
                    self.persist_pending.remove(&xid);
                    self.persist_data.remove(&xid);
                    return;
                }
                ctx.schedule_nodefer(at, pe, Box::new(Ev::RepostPut { xid }));
            }
        }
    }

    /// A persistent PUT completed on the CQ. No-op in fault-free runs (the
    /// direct PersistPutDone event already notified); in chaos mode this is
    /// where the receiver-side notification is finally sent.
    fn put_done(&mut self, ctx: &mut MachineCtx, pe: PeId, xid: u64) {
        if self.persist_pending.remove(&xid).is_none() {
            return;
        }
        let dst_pe = self
            .persist_data
            .get(&xid)
            .expect("persist PUT done without data")
            .1;
        let mut b = BytesMut::with_capacity(9);
        b.put_u8(TAG_PERSIST);
        b.put_u64(xid);
        let at = ctx.now();
        self.smsg(ctx, pe, dst_pe, TAG_PERSIST, b.freeze(), at);
    }

    /// Re-post a fabric-failed persistent PUT (chaos mode). The payload is
    /// still held in `persist_data`, the channel buffers are permanent, so
    /// the descriptor can be rebuilt exactly.
    fn repost_put(&mut self, ctx: &mut MachineCtx, xid: u64) {
        // Stale re-post (transfer completed meanwhile): absorb, don't abort.
        let Some((handle, src_pe, dst_pe, bytes)) = self
            .persist_pending
            .get(&xid)
            .map(|p| (p.handle, p.src_pe, p.dst_pe, p.bytes))
        else {
            return;
        };
        let Some((local_mem, local_addr, remote_mem, remote_addr)) =
            self.persists.get(&handle).map(|chan| {
                (
                    chan.local.handle(),
                    chan.local.addr(),
                    chan.remote.handle(),
                    chan.remote.addr(),
                )
            })
        else {
            return;
        };
        let Some(data) = self.persist_data.get(&xid).map(|d| d.0.clone()) else {
            return;
        };
        let ep = self.ep(ctx, src_pe, dst_pe);
        let desc = PostDescriptor {
            op: RdmaOp::Put,
            local_mem,
            local_addr,
            remote_mem,
            remote_addr,
            bytes,
            data: Some(data),
            user_id: xid,
        };
        let now = ctx.now();
        let use_fma = bytes <= self.cfg.fma_bte_threshold && bytes <= self.cfg.params.fma_max_bytes;
        let ok = match if use_fma {
            self.gni_mut().post_fma(now, ep, desc)
        } else {
            self.gni_mut().post_rdma(now, ep, desc)
        } {
            Ok(ok) => ok,
            Err(_) => {
                // The NIC rejected the re-post (e.g. transiently invalid
                // handle); back off and try again instead of panicking.
                let backoff = {
                    let Some(p) = self.persist_pending.get_mut(&xid) else {
                        return;
                    };
                    p.backoff = next_backoff(p.backoff);
                    p.backoff
                };
                self.stats.rdma_faults += 1;
                ctx.schedule_nodefer(now + backoff, src_pe, Box::new(Ev::RepostPut { xid }));
                return;
            }
        };
        self.charge_rec(ctx, src_pe, ok.cpu);
        self.schedule_poll(ctx, ok.local_cq_at, src_pe, Ev::PollCq);
    }

    fn get_done(&mut self, ctx: &mut MachineCtx, xid: u64, data: Option<Bytes>) {
        let r = self.recvs.remove(&xid).expect("GET done for unknown xid");
        let data = data.expect("GET completed without data — sender buffer missing");
        debug_assert_eq!(data.len() as u64, r.bytes);
        // ACK so the sender can free (paper Fig. 5).
        let mut b = BytesMut::with_capacity(9);
        b.put_u8(TAG_ACK);
        b.put_u64(xid);
        let at = ctx.pe_free_at(r.dst_pe).max(ctx.now());
        self.smsg(ctx, r.dst_pe, r.src_pe, TAG_ACK, b.freeze(), at);
        // Hand the buffer to Converse (no copy — the runtime owns it).
        ctx.deliver_now(r.dst_pe, data);
        // The app consumes the message; return the landing buffer.
        let cost = self.free_buf(ctx, r.dst_pe, r.buf);
        self.charge_comm(ctx, r.dst_pe, cost);
    }

    fn handle_ack(&mut self, ctx: &mut MachineCtx, ctrl: &Bytes) {
        let xid = u64::from_be_bytes(ctrl[1..9].try_into().unwrap());
        let p = self.sends.remove(&xid).expect("ACK for unknown xid");
        let cost = self.free_buf(ctx, p.src_pe, p.buf);
        self.charge_comm(ctx, p.src_pe, cost);
    }

    fn drain_msgq(&mut self, ctx: &mut MachineCtx, pe: PeId) {
        self.disarm(pe, 1);
        let node = ctx.node_of(pe);
        loop {
            let now = ctx.now();
            match self.gni_mut().msgq_get_next_w_tag(node, now) {
                Ok((rx, dst_inst)) => {
                    // The drainer (worker or comm thread) pays the
                    // demultiplex cost; the message belongs to `dst_inst`.
                    self.charge_comm(ctx, pe, rx.cpu);
                    self.process_small(ctx, dst_inst, rx);
                }
                Err(GniError::NotDone) => {
                    // Coalescing: suppressed polls mean pending future
                    // arrivals need a fresh wake-up.
                    if let Some(t) = self.gni().msgq_next_arrival(node) {
                        self.schedule_poll(ctx, t, pe, Ev::PollMsgq);
                    }
                    return;
                }
                Err(e) => panic!("msgq drain failed: {e:?}"),
            }
        }
    }

    fn drain_smsg(&mut self, ctx: &mut MachineCtx, pe: PeId) {
        self.disarm(pe, 0);
        let node = ctx.node_of(pe);
        loop {
            let now = ctx.now();
            match self.gni_mut().smsg_get_next_w_tag(node, pe, now) {
                Ok(rx) => {
                    self.charge_comm(ctx, pe, rx.cpu);
                    self.process_small(ctx, pe, rx);
                }
                Err(GniError::NotDone) => {
                    if let Some(t) = self.gni().smsg_next_arrival(node, pe) {
                        self.schedule_poll(ctx, t, pe, Ev::PollSmsg);
                    }
                    return;
                }
                Err(e) => panic!("smsg drain failed: {e:?}"),
            }
        }
    }

    /// Handle one received small-path message addressed to `pe`.
    fn process_small(&mut self, ctx: &mut MachineCtx, pe: PeId, rx: ugni::SmsgRecv) {
        // Chaos mode: strip the sequence header and drop duplicates (a
        // corrupted completion delivers the payload AND makes the sender
        // re-send — dedup restores exactly-once delivery).
        let data = if self.chaos {
            let seq = u64::from_be_bytes(rx.data[..SEQ_HDR].try_into().unwrap());
            if !self.seq_seen.entry((rx.from, pe)).or_default().insert(seq) {
                self.stats.dup_drops += 1;
                return;
            }
            rx.data.slice(SEQ_HDR..)
        } else {
            rx.data.clone()
        };
        match rx.tag {
            TAG_SMALL => {
                // Copy out of the mailbox into a runtime buffer. Small
                // buffers are never registered: the pool path pays a
                // free-list hit, the direct path a plain malloc.
                let len = data.len() as u64;
                let cost = if self.cfg.use_mempool {
                    let params = &self.cfg.params;
                    let node = ctx.node_of(pe);
                    let gni = self.gni.as_mut().expect("init");
                    let reg = gni.fabric_mut().reg_table(node);
                    let pool = self
                        .pools
                        .entry(pe)
                        .or_insert_with(|| MemPool::new(Self::pool_base(pe)));
                    let (b, c1) = pool.alloc(params, reg, len);
                    let c2 = pool.free(params, reg, b);
                    c1 + c2
                } else {
                    self.cfg.params.malloc_cost(len) + self.cfg.params.malloc_base
                };
                let done = self.charge_comm(ctx, pe, cost);
                ctx.deliver_at(done.max(ctx.now()), pe, data);
            }
            TAG_INIT => {
                let from = rx.from;
                self.handle_init(ctx, pe, from, &data);
            }
            TAG_ACK => self.handle_ack(ctx, &data),
            TAG_PERSIST => {
                let xid = u64::from_be_bytes(data[1..9].try_into().unwrap());
                let (data, dst_pe) = self
                    .persist_data
                    .remove(&xid)
                    .expect("persistent notify without data");
                debug_assert_eq!(dst_pe, pe);
                ctx.deliver_at(ctx.now(), pe, data);
            }
            t => panic!("unknown small-path tag {t}"),
        }
    }

    fn send_shm(&mut self, ctx: &mut MachineCtx, src_pe: PeId, dst_pe: PeId, msg: Bytes) {
        self.stats.shm_msgs += 1;
        let params = &self.cfg.params;
        let copy = params.memcpy_cost(msg.len() as u64);
        // Sender: lock/allocate a region in the shared segment + copy in.
        ctx.charge_overhead(src_pe, self.cfg.shm_overhead + copy);
        let copy_out = self.cfg.intranode == IntraNode::PxshmDoubleCopy;
        let at = ctx.now() + self.cfg.shm_overhead + copy + self.cfg.shm_notice;
        ctx.schedule(
            at,
            dst_pe,
            Box::new(Ev::ShmArrive {
                data: msg,
                copy_out,
            }),
        );
    }
}

impl MachineLayer for UgniLayer {
    fn name(&self) -> &'static str {
        "uGNI"
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn lookahead(&self) -> Time {
        self.cfg.params.conservative_lookahead()
    }

    fn init(&mut self, ctx: &mut MachineCtx) {
        // Per-PE structures (CQs, mempools, arming state) are created
        // lazily on first touch: init stays O(nodes), not O(PEs), so a
        // Hopper-scale machine costs nothing for the PEs a run never uses.
        let gni = LGni::new(self.cfg.params.clone(), ctx.num_nodes());
        self.comm_busy = vec![0; ctx.num_nodes() as usize];
        self.poll_armed = LazyVec::new(ctx.num_pes() as usize, [Time::MAX; 3]);
        self.gni = Some(gni);
    }

    fn sync_send(&mut self, ctx: &mut MachineCtx, src_pe: PeId, dst_pe: PeId, msg: Bytes) {
        debug_assert_ne!(src_pe, dst_pe, "self-sends bypass the machine layer");
        self.stats.bytes += msg.len() as u64;
        ctx.count_send(msg.len() as u64);

        let same_node = ctx.node_of(src_pe) == ctx.node_of(dst_pe);
        if same_node && self.cfg.smp {
            // SMP: workers share the address space — pass the pointer.
            self.stats.shm_msgs += 1;
            ctx.charge_overhead(src_pe, self.cfg.smp_handoff);
            ctx.deliver_at(ctx.now() + self.cfg.smp_handoff, dst_pe, msg);
            return;
        }
        if same_node && self.cfg.intranode != IntraNode::NetworkLoopback {
            self.send_shm(ctx, src_pe, dst_pe, msg);
            return;
        }
        if self.cfg.smp {
            // Worker hands the message to the node's comm thread.
            ctx.charge_overhead(src_pe, self.cfg.smp_handoff);
        }

        // Chaos mode frames small messages with a sequence header; keep
        // the framed message within the mailbox limit.
        let mut limit = self.gni().smsg_limit() as usize;
        if self.chaos {
            limit = limit.saturating_sub(SEQ_HDR);
        }
        if msg.len() <= limit {
            self.stats.small_msgs += 1;
            let at = ctx.pe_free_at(src_pe).max(ctx.now());
            self.smsg(ctx, src_pe, dst_pe, TAG_SMALL, msg, at);
            return;
        }

        // Large path: GET-based rendezvous (paper Fig. 5).
        self.stats.rendezvous_msgs += 1;
        let bytes = msg.len() as u64;
        let (buf, cost) = self.alloc_buf(ctx, src_pe, bytes);
        // The message content moves into the registered send buffer.
        let node = ctx.node_of(src_pe);
        self.gni_mut().mem_write(node, buf.addr(), msg);
        let xid = self.next_xid;
        self.next_xid += 1;
        self.sends.insert(
            xid,
            PendingSend {
                src_pe,
                dst_pe,
                buf,
                bytes,
            },
        );
        let ready = self.charge_comm(ctx, src_pe, cost);
        // Control message departs once the buffer is prepared (exactly
        // then: the preparation cost was just charged).
        let at = if self.cfg.smp {
            ready.max(ctx.now())
        } else {
            ctx.pe_free_at(src_pe).max(ctx.now())
        };
        ctx.schedule_nodefer(at, src_pe, Box::new(Ev::StartRendezvous { xid }));
    }

    fn on_event(&mut self, ctx: &mut MachineCtx, pe: PeId, ev: Box<dyn Any + Send>) {
        let ev = *ev.downcast::<Ev>().expect("foreign machine event");
        match ev {
            Ev::PollSmsg => self.drain_smsg(ctx, pe),
            Ev::PollMsgq => self.drain_msgq(ctx, pe),
            Ev::PollCq => self.drain_cq(ctx, pe),
            Ev::Retry { peer } => self.conn_retry(ctx, pe, peer),
            Ev::StartRendezvous { xid } => self.rendezvous_start(ctx, xid),
            Ev::PostGet { xid } => self.post_get(ctx, xid),
            Ev::RepostPut { xid } => self.repost_put(ctx, xid),
            Ev::PersistPutDone { xid } => {
                let dst_pe = self
                    .persist_data
                    .get(&xid)
                    .expect("persist PUT done without data")
                    .1;
                let mut b = BytesMut::with_capacity(9);
                b.put_u8(TAG_PERSIST);
                b.put_u64(xid);
                let at = ctx.now();
                self.smsg(ctx, pe, dst_pe, TAG_PERSIST, b.freeze(), at);
            }
            Ev::ShmArrive { data, copy_out } => {
                let mut cost = self.cfg.shm_overhead;
                if copy_out {
                    cost += self.cfg.params.memcpy_cost(data.len() as u64);
                }
                ctx.charge_overhead(pe, cost);
                ctx.deliver_now(pe, data);
            }
        }
    }

    fn create_persistent(
        &mut self,
        ctx: &mut MachineCtx,
        src_pe: PeId,
        dst_pe: PeId,
        max_bytes: u64,
        handle: PersistentHandle,
    ) {
        // Both sides' persistent buffers, registered once. (The set-up
        // handshake cost is charged here; steady-state sends never pay it.)
        let (remote, rcost) = self.alloc_buf(ctx, dst_pe, max_bytes);
        ctx.charge_overhead(dst_pe, rcost);
        let (local, lcost) = self.alloc_buf(ctx, src_pe, max_bytes);
        ctx.charge_overhead(src_pe, lcost + self.cfg.params.smsg_send_cpu);
        self.persists.insert(
            handle,
            PersistChan {
                src_pe,
                dst_pe,
                max_bytes,
                remote,
                local,
            },
        );
    }

    fn send_persistent(
        &mut self,
        ctx: &mut MachineCtx,
        handle: PersistentHandle,
        src_pe: PeId,
        dst_pe: PeId,
        msg: Bytes,
    ) {
        let Some(chan) = self.persists.get(&handle) else {
            // No channel: fall back to the ordinary path.
            self.sync_send(ctx, src_pe, dst_pe, msg);
            return;
        };
        assert!(msg.len() as u64 <= chan.max_bytes, "persistent overflow");
        assert_eq!((chan.src_pe, chan.dst_pe), (src_pe, dst_pe));
        let bytes = msg.len() as u64;
        let local_mem = chan.local.handle();
        let local_addr = chan.local.addr();
        let remote_mem = chan.remote.handle();
        let remote_addr = chan.remote.addr();
        self.stats.persistent_msgs += 1;
        self.stats.bytes += bytes;
        ctx.count_send(bytes);

        let xid = self.next_xid;
        self.next_xid += 1;
        self.persist_data.insert(xid, (msg.clone(), dst_pe));

        // "the sender can directly put its message data into the
        // persistent buffer" — no malloc, no registration, no control
        // message (paper §IV-A).
        let ep = self.ep(ctx, src_pe, dst_pe);
        let desc = PostDescriptor {
            op: RdmaOp::Put,
            local_mem,
            local_addr,
            remote_mem,
            remote_addr,
            bytes,
            data: Some(msg),
            user_id: xid,
        };
        let now = ctx.now();
        let use_fma = bytes <= self.cfg.fma_bte_threshold && bytes <= self.cfg.params.fma_max_bytes;
        let ok = if use_fma {
            self.gni_mut().post_fma(now, ep, desc)
        } else {
            self.gni_mut().post_rdma(now, ep, desc)
        }
        .expect("persistent PUT rejected");
        self.charge_comm(ctx, src_pe, ok.cpu);
        if self.chaos {
            // Reap the completion from the CQ so a PostError can trigger a
            // re-post; the fault-free direct event would wrongly notify
            // the receiver of a PUT that never landed.
            self.persist_pending.insert(
                xid,
                PendingPut {
                    handle,
                    src_pe,
                    dst_pe,
                    bytes,
                    backoff: 0,
                },
            );
            self.schedule_poll(ctx, ok.local_cq_at, src_pe, Ev::PollCq);
        } else {
            ctx.schedule_nodefer(ok.local_cq_at, src_pe, Box::new(Ev::PersistPutDone { xid }));
        }
    }

    fn node_fault(&mut self, ctx: &mut MachineCtx, node: gemini_net::NodeId) {
        // The node's NIC died with its memory. Armed polls point at
        // progress events the runtime will drop for the dead PEs; left
        // set, they would suppress every poll the node's fresh
        // incarnation needs, wedging its connections forever.
        for pe in 0..ctx.num_pes() {
            if ctx.node_of(pe) == node && self.poll_armed.get(pe as usize) != [Time::MAX; 3] {
                *self.poll_armed.get_mut(pe as usize) = [Time::MAX; 3];
            }
        }
        // Outbound backlogs and half-open transactions rooted on the dead
        // PEs die too (their retry timers are dropped with the node, so
        // keeping the entries would strand armed-but-dead connections).
        // Peers' transactions TOWARD the node stay: the fabric surfaces
        // NodeDown errors and their retry machinery reacts.
        let cores = ctx.cores_per_node();
        self.backlog.retain(|(src, _), _| src / cores != node);
        self.sends.retain(|_, p| p.src_pe / cores != node);
        self.recvs.retain(|_, r| r.dst_pe / cores != node);
        let dead_puts: Vec<u64> = self
            .persist_pending
            .iter()
            .filter(|(_, p)| p.src_pe / cores == node)
            .map(|(xid, _)| *xid)
            .collect();
        for xid in dead_puts {
            self.persist_pending.remove(&xid);
            self.persist_data.remove(&xid);
        }
    }
}
