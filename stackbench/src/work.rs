//! The three workloads: seeded plans, cluster set-up, and the closed-loop
//! handlers that drive the stack through its public API only.
//!
//! Every workload is a closed loop: a PE sends its next round only after
//! all replies to its previous round have arrived, so a slower stack gets
//! less load instead of a growing backlog.

use crate::gen::{self, Rng};
use crate::msg::{self, Common, Tally};
use crate::probe::{self, Timed, Totals};
use bytes::Bytes;
use charm_rt::prelude::*;
use lrts_mpi::MpiLayer;
use lrts_ugni::{UgniConfig, UgniLayer};
use mpi_sim::MpiConfig;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The paper's Hopper node shape.
const CORES_PER_NODE: u32 = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HopperDense,
    FineAm,
    BulkPairs,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HopperDense, Workload::FineAm, Workload::BulkPairs];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HopperDense => "hopper_dense",
            Workload::FineAm => "fine_am",
            Workload::BulkPairs => "bulk_pairs",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The machine layers one repetition runs, in order.
    pub fn layers(self) -> &'static [Lrts] {
        match self {
            Workload::BulkPairs => &[Lrts::Ugni, Lrts::Mpi],
            _ => &[Lrts::Ugni],
        }
    }
}

/// Full size for measurement; small for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lrts {
    Ugni = 0,
    Mpi = 1,
}

impl Lrts {
    pub fn name(self) -> &'static str {
        match self {
            Lrts::Ugni => "ugni",
            Lrts::Mpi => "mpi",
        }
    }

    fn make(self) -> Box<dyn MachineLayer> {
        match self {
            Lrts::Ugni => Box::new(UgniLayer::new(UgniConfig::optimized())),
            Lrts::Mpi => Box::new(MpiLayer::new(MpiConfig::default())),
        }
    }
}

/// How the machine layer is attached to the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mount {
    /// The layer itself: what the end-to-end runs measure.
    Bare,
    /// Behind the [`Timed`] wrapper with the probe off.
    Wrapped,
    /// Behind the wrapper with every span timed.
    Traced,
}

/// A workload's generated inputs.
pub struct Inputs {
    pub workload: Workload,
    plan: Plan,
}

enum Plan {
    Hopper(Arc<Hopper>),
    Fine(Arc<Fine>),
    Bulk(Arc<Bulk>),
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, size: Size) -> Self {
        let mut rng = Rng::new(seed ^ (workload as u64) << 56);
        let full = size == Size::Full;
        let plan = match workload {
            Workload::HopperDense => {
                let (nodes, k) = if full { (1024, 2) } else { (4, 3) };
                Plan::Hopper(Arc::new(Hopper::generate(&mut rng, nodes, k, 4)))
            }
            Workload::FineAm => {
                let (nodes, k, msgs, rounds) = if full { (10, 4, 32, 8) } else { (2, 2, 16, 3) };
                Plan::Fine(Arc::new(Fine::generate(&mut rng, nodes, k, msgs, rounds)))
            }
            Workload::BulkPairs => {
                let (nodes, pairs, n) = if full { (16, 64, 160) } else { (4, 8, 16) };
                Plan::Bulk(Arc::new(Bulk::generate(&mut rng, nodes, pairs, n)))
            }
        };
        Inputs { workload, plan }
    }

    /// App messages one simulation sends (and must deliver exactly once).
    pub fn expected(&self) -> u64 {
        match &self.plan {
            Plan::Hopper(p) => p.id_space(),
            Plan::Fine(p) => p.id_space(),
            Plan::Bulk(p) => p.expected(),
        }
    }

    fn id_space(&self) -> u64 {
        match &self.plan {
            Plan::Hopper(p) => p.id_space(),
            Plan::Fine(p) => p.id_space(),
            Plan::Bulk(p) => p.id_space(),
        }
    }

    /// How many 16-byte AMs one aggregation batch holds (fine_am only).
    pub fn am_slots_per_batch(&self) -> Option<f64> {
        match &self.plan {
            Plan::Fine(_) => Some(((AM_BATCH - 1) / (AM_SUBHDR + msg::HDR)) as f64),
            _ => None,
        }
    }
}

/// Per-PE closed-loop state.
#[derive(Default)]
struct Loop {
    round: u32,
    pending: u32,
}

/// `k` seeded neighbors per PE, mostly on other nodes.
///
/// Neighbor slot `j` sends every PE to node `node + d[j]` (`d` = 0 for
/// the one on-node slot in four, then +1, −1, +2, −2 for the others: the
/// traffic crosses the network without paying long routes), at core
/// `τ(τ⁻¹(core) + s[j])`, with a seeded core permutation `τ` per node and
/// seeded distinct shifts `s[j]` in `1..24`. Each slot is a bijection on
/// the PEs, so every PE has exactly `k` distinct neighbors and is the
/// neighbor of exactly `k`: the seed moves traffic around without making
/// some PEs busier than others, which keeps makespans steady across
/// seeds.
fn neighbors(rng: &mut Rng, pes: u32, k: u32) -> Vec<PeId> {
    let nodes = pes / CORES_PER_NODE;
    assert!(k >= 1 && k - k / 4 <= 4 && k < CORES_PER_NODE, "k = {k}");
    let far = [1i64, -1, 2, -2];
    let mut shifts: Vec<u32> = (1..CORES_PER_NODE).collect();
    rng.shuffle(&mut shifts);
    let slots: Vec<(i64, u32)> = (0..k as usize)
        .map(|j| {
            let d = if j < (k / 4) as usize {
                0
            } else {
                far[j - (k / 4) as usize]
            };
            (d, shifts[j])
        })
        .collect();
    let taus: Vec<Vec<u32>> = (0..nodes)
        .map(|_| {
            let mut t: Vec<u32> = (0..CORES_PER_NODE).collect();
            rng.shuffle(&mut t);
            t
        })
        .collect();
    let mut out = Vec::with_capacity((pes * k) as usize);
    for pe in 0..pes {
        let (node, core) = (pe / CORES_PER_NODE, pe % CORES_PER_NODE);
        let tau = &taus[node as usize];
        let rank = tau.iter().position(|&c| c == core).expect("permutation") as u32;
        for &(d, s) in &slots {
            let other = (node as i64 + d).rem_euclid(nodes as i64) as u32;
            out.push(other * CORES_PER_NODE + tau[((rank + s) % CORES_PER_NODE) as usize]);
        }
    }
    out
}

/// Position of `n` in `pe`'s neighbor list.
fn slot(nbrs: &[PeId], k: u32, pe: PeId, n: PeId) -> Option<u64> {
    let s = (pe * k) as usize;
    nbrs.get(s..s + k as usize)?
        .iter()
        .position(|&x| x == n)
        .map(|j| j as u64)
}

/// `hopper_dense`: every PE of a Hopper-shaped machine exchanges small
/// plain sends with `k` seeded neighbors for a few rounds.
struct Hopper {
    com: Common,
    pes: u32,
    k: u32,
    rounds: u32,
    nbrs: Vec<PeId>,
    /// Body length per (PE, neighbor slot); header included, a message
    /// is at most 512 B.
    lens: Vec<u32>,
}

/// Virtual compute charged per received hopper_dense request.
const HOPPER_WORK_NS: u64 = 500;

impl Hopper {
    fn generate(rng: &mut Rng, nodes: u32, k: u32, rounds: u32) -> Self {
        let pes = nodes * CORES_PER_NODE;
        let max = 512 - msg::HDR as u64;
        let com = Common::new(rng, max as usize);
        let nbrs = neighbors(rng, pes, k);
        let lens = gen::stratified(rng, (pes * k) as usize, 0, max, false);
        Hopper {
            com,
            pes,
            k,
            rounds,
            nbrs,
            lens,
        }
    }

    fn id_space(&self) -> u64 {
        self.pes as u64 * self.k as u64 * self.rounds as u64 * 2
    }

    /// Message id: request (`dir` 0) or reply (`dir` 1) of round `seq`
    /// between requester `pe` and its neighbor `j`.
    fn id(&self, pe: PeId, j: u64, seq: u32, dir: u64) -> u64 {
        ((pe as u64 * self.k as u64 + j) * self.rounds as u64 + seq as u64) * 2 + dir
    }

    fn send_round(&self, ctx: &mut PeCtx, req: HandlerId) {
        let me = ctx.pe();
        let round = {
            let st = ctx.user::<Loop>();
            st.pending = self.k;
            st.round
        };
        for j in 0..self.k as usize {
            let i = me as usize * self.k as usize + j;
            let m = self
                .com
                .make(me, self.nbrs[i], round, ctx.now(), self.lens[i] as usize);
            probe::span(probe::SEND, || ctx.send(self.nbrs[i], req, m));
            msg::sent(false);
        }
    }

    fn install(self: &Arc<Self>, c: &mut Cluster) -> u64 {
        let ids: Arc<OnceLock<(HandlerId, HandlerId)>> = Arc::new(OnceLock::new());
        let (p, h) = (self.clone(), ids.clone());
        let req = c.register_handler(move |ctx, env| {
            probe::span(probe::APP, || {
                let (me, src) = (ctx.pe(), env.src_pe);
                let (Some((seq, stamp, len)), Some(j)) = (
                    p.com.open(src, me, &env.payload),
                    slot(&p.nbrs, p.k, src, me),
                ) else {
                    return msg::corrupt();
                };
                msg::received(p.id(src, j, seq, 0), stamp, ctx.now());
                ctx.charge(HOPPER_WORK_NS);
                let reply = p.com.make(me, src, seq, ctx.now(), len);
                let rep = h.get().expect("handlers registered").1;
                probe::span(probe::SEND, || ctx.send(src, rep, reply));
                msg::sent(false);
            })
        });
        let (p, h) = (self.clone(), ids.clone());
        let rep = c.register_handler(move |ctx, env| {
            probe::span(probe::APP, || {
                let (me, src) = (ctx.pe(), env.src_pe);
                let (Some((seq, stamp, _)), Some(j)) = (
                    p.com.open(src, me, &env.payload),
                    slot(&p.nbrs, p.k, me, src),
                ) else {
                    return msg::corrupt();
                };
                if !msg::received(p.id(me, j, seq, 1), stamp, ctx.now()) {
                    return;
                }
                let st = ctx.user::<Loop>();
                st.pending -= 1;
                if st.pending == 0 {
                    st.round += 1;
                    if st.round < p.rounds {
                        p.send_round(ctx, h.get().expect("handlers registered").0);
                    }
                }
            })
        });
        ids.set((req, rep)).expect("set once");
        let p = self.clone();
        let kick =
            c.register_handler(move |ctx, _| probe::span(probe::APP, || p.send_round(ctx, req)));
        c.init_user(|_| Loop::default());
        for pe in 0..self.pes {
            c.inject(0, pe, kick, Bytes::new());
        }
        self.pes as u64
    }
}

/// AM aggregation settings of `fine_am` (the SMSG frame and a tight
/// flush bound, as the fine-grained kNeighbor figure uses).
const AM_BATCH: usize = 1024;
const AM_SUBHDR: usize = 8;
const AM_FLUSH_NS: u64 = 1_000;
/// Virtual compute charged per received fine_am data AM.
const FINE_WORK_NS: u64 = 100;

/// `fine_am`: a few hundred PEs send many 16-byte typed AMs per neighbor
/// per round with aggregation on; each is acked by a 16-byte AM. A seeded
/// one in 32 data AMs carries a 2–4 KiB body and takes the direct path.
struct Fine {
    com: Common,
    pes: u32,
    k: u32,
    msgs: u32,
    rounds: u32,
    nbrs: Vec<PeId>,
    /// Body length per (PE, neighbor slot, round, message): 0 for the
    /// 16-byte AMs.
    lens: Vec<u32>,
}

impl Fine {
    fn generate(rng: &mut Rng, nodes: u32, k: u32, msgs: u32, rounds: u32) -> Self {
        let pes = nodes * CORES_PER_NODE;
        let com = Common::new(rng, 4096);
        let nbrs = neighbors(rng, pes, k);
        // Exactly one AM in 32 of every PE's round is big: which ones is
        // seeded, how many is not (no PE gets more direct-path work).
        let per_round = (k * msgs) as usize;
        let n = per_round * (pes * rounds) as usize;
        let nbig = per_round / 32 * (pes * rounds) as usize;
        let mut big_lens = gen::stratified(rng, nbig, 2048, 4096, false).into_iter();
        let mut lens = vec![0u32; n];
        for pe in 0..pes as usize {
            for round in 0..rounds as usize {
                let big = gen::choose(rng, per_round, per_round / 32);
                for (i, _) in big.iter().enumerate().filter(|(_, &b)| b) {
                    let (j, m) = (i / msgs as usize, i % msgs as usize);
                    let at = ((pe * k as usize + j) * rounds as usize + round) * msgs as usize + m;
                    lens[at] = big_lens.next().expect("one size per big AM");
                }
            }
        }
        Fine {
            com,
            pes,
            k,
            msgs,
            rounds,
            nbrs,
            lens,
        }
    }

    fn per_pair(&self) -> u64 {
        self.rounds as u64 * self.msgs as u64
    }

    fn id_space(&self) -> u64 {
        self.pes as u64 * self.k as u64 * self.per_pair() * 2
    }

    fn id(&self, pe: PeId, j: u64, seq: u32, dir: u64) -> u64 {
        ((pe as u64 * self.k as u64 + j) * self.per_pair() + seq as u64) * 2 + dir
    }

    fn send_round(&self, ctx: &mut PeCtx, data: AmId) {
        let me = ctx.pe();
        let round = {
            let st = ctx.user::<Loop>();
            st.pending = self.k * self.msgs;
            st.round
        };
        for j in 0..self.k as u64 {
            let dst = self.nbrs[(me as u64 * self.k as u64 + j) as usize];
            for i in 0..self.msgs {
                let seq = round * self.msgs + i;
                let len = self.lens[(self.id(me, j, seq, 0) / 2) as usize] as usize;
                let m = self.com.make(me, dst, seq, ctx.now(), len);
                probe::span(probe::AM, || ctx.am_send(dst, data, m));
                msg::sent(1 + AM_SUBHDR + msg::HDR + len <= AM_BATCH);
            }
        }
    }

    fn install(self: &Arc<Self>, c: &mut Cluster) -> u64 {
        c.am_config(AmConfig {
            aggregation: true,
            max_batch_bytes: AM_BATCH,
            flush_delay_ns: AM_FLUSH_NS,
            ..AmConfig::default()
        });
        let ids: Arc<OnceLock<(AmId, AmId)>> = Arc::new(OnceLock::new());
        let (p, h) = (self.clone(), ids.clone());
        let data = c.register_am::<Bytes>(move |ctx, src, payload| {
            probe::span(probe::APP, || {
                let me = ctx.pe();
                let (Some((seq, stamp, _)), Some(j)) =
                    (p.com.open(src, me, &payload), slot(&p.nbrs, p.k, src, me))
                else {
                    return msg::corrupt();
                };
                msg::received(p.id(src, j, seq, 0), stamp, ctx.now());
                ctx.charge(FINE_WORK_NS);
                let ack = p.com.make(me, src, seq, ctx.now(), 0);
                let ack_am = h.get().expect("AMs registered").1;
                probe::span(probe::AM, || ctx.am_send(src, ack_am, ack));
                msg::sent(true);
            })
        });
        let (p, h) = (self.clone(), ids.clone());
        let ack = c.register_am::<Bytes>(move |ctx, src, payload| {
            probe::span(probe::APP, || {
                let me = ctx.pe();
                let (Some((seq, stamp, _)), Some(j)) =
                    (p.com.open(src, me, &payload), slot(&p.nbrs, p.k, me, src))
                else {
                    return msg::corrupt();
                };
                if !msg::received(p.id(me, j, seq, 1), stamp, ctx.now()) {
                    return;
                }
                let st = ctx.user::<Loop>();
                st.pending -= 1;
                if st.pending == 0 {
                    st.round += 1;
                    if st.round < p.rounds {
                        p.send_round(ctx, h.get().expect("AMs registered").0);
                    }
                }
            })
        });
        ids.set((data, ack)).expect("set once");
        let p = self.clone();
        let kick =
            c.register_handler(move |ctx, _| probe::span(probe::APP, || p.send_round(ctx, data)));
        c.init_user(|_| Loop::default());
        for pe in 0..self.pes {
            c.inject(0, pe, kick, Bytes::new());
        }
        self.pes as u64
    }
}

/// One `bulk_pairs` pair: `a` drives, `b` answers.
struct Pair {
    a: PeId,
    b: PeId,
    /// Stream windows of [`STREAM_WINDOW`] messages (acked once per
    /// window) instead of ping-pong.
    stream: bool,
    /// Use persistent channels (paper §IV-A) for the data messages.
    persistent: bool,
    /// Index of the pair's first message size in [`Bulk::lens`].
    base: u32,
    n: u32,
}

const STREAM_WINDOW: u32 = 8;

/// `bulk_pairs`: seeded PE pairs, half within a node and half across
/// nodes, ping-pong or stream log-uniform sizes from 1 KiB to 1 MiB.
struct Bulk {
    com: Common,
    pes: u32,
    pairs: Vec<Pair>,
    /// Pair index per PE (`u32::MAX`: not in a pair).
    pair_of: Vec<u32>,
    lens: Vec<u32>,
    max_len: u32,
}

/// Per-PE state of a pair endpoint.
#[derive(Default)]
struct Endpoint {
    /// Stream: messages of the current window received so far.
    got: u32,
    chan: Option<PersistentHandle>,
}

impl Bulk {
    fn generate(rng: &mut Rng, nodes: u32, npairs: u32, n: u32) -> Self {
        let pes = nodes * CORES_PER_NODE;
        let (lo, hi) = (1024u64, 1u64 << 20);
        let com = Common::new(rng, hi as usize);
        // Placement is balanced too: intra-node pairs go round-robin over
        // the nodes, and inter-node pairs link each node to the next one
        // in node order, then (once every node has one) to the previous
        // one, and so on, starting in a seeded direction. Every node hosts
        // the same number of pair endpoints and every inter-node pair is
        // one node apart, so no seed piles several pairs onto one route.
        // The seed picks the cores, the direction and the message order.
        let mut free: Vec<Vec<PeId>> = (0..nodes)
            .map(|node| {
                let mut v: Vec<PeId> = (0..CORES_PER_NODE)
                    .map(|c| node * CORES_PER_NODE + c)
                    .collect();
                rng.shuffle(&mut v);
                v
            })
            .collect();
        let first_step = if rng.below(2) == 0 {
            1
        } else {
            nodes as usize - 1
        };
        let intra = |i: usize| i.is_multiple_of(2);
        let stream = |i: usize| (i / 2) % 2 == 1;
        let persistent = |i: usize| (i / 4).is_multiple_of(4);
        let (mut n_intra, mut n_inter) = (0, 0);
        let mut pair_of = vec![u32::MAX; pes as usize];
        let mut pairs = Vec::with_capacity(npairs as usize);
        for i in 0..npairs as usize {
            let (na, nb) = if intra(i) {
                n_intra += 1;
                let x = (n_intra - 1) % nodes as usize;
                (x, x)
            } else {
                n_inter += 1;
                let x = (n_inter - 1) % nodes as usize;
                let step = if ((n_inter - 1) / nodes as usize).is_multiple_of(2) {
                    first_step
                } else {
                    nodes as usize - first_step
                };
                (x, (x + step) % nodes as usize)
            };
            let a = free[na].pop().expect("free core");
            let b = free[nb].pop().expect("free core");
            pair_of[a as usize] = i as u32;
            pair_of[b as usize] = i as u32;
            pairs.push(Pair {
                a,
                b,
                stream: stream(i),
                persistent: persistent(i),
                base: i as u32 * n,
                n,
            });
        }
        // Sizes are stratified twice over: one seeded draw per sub-band of
        // each of STREAM_WINDOW equal-probability bands of the log-uniform
        // range. Every pair sends that same set of sizes in its own seeded
        // order, arranged so each window of STREAM_WINDOW messages holds
        // one size from every band. All pairs then move the same bytes and
        // every window carries about the same bytes, so neither the
        // slowest pair nor how long a message queues behind its
        // window-mates hinges on the seed.
        let w = STREAM_WINDOW as usize;
        assert_eq!(n as usize % w, 0, "pairs send whole windows");
        let windows = n as usize / w;
        let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
        let table: Vec<Vec<u32>> = (0..w)
            .map(|b| {
                (0..windows)
                    .map(|sub| {
                        let q = (b as f64 + (sub as f64 + rng.unit()) / windows as f64) / w as f64;
                        ((llo + q * (lhi - llo)).exp() as u64).clamp(lo, hi) as u32
                    })
                    .collect()
            })
            .collect();
        let mut lens = Vec::with_capacity((npairs * n) as usize);
        for _ in 0..npairs {
            let sub: Vec<Vec<usize>> = (0..w)
                .map(|_| {
                    let mut v: Vec<usize> = (0..windows).collect();
                    rng.shuffle(&mut v);
                    v
                })
                .collect();
            for win in 0..windows {
                let mut bands: Vec<usize> = (0..w).collect();
                rng.shuffle(&mut bands);
                lens.extend(bands.into_iter().map(|b| table[b][sub[b][win]]));
            }
        }
        let max_len = lens.iter().copied().max().unwrap_or(0);
        Bulk {
            com,
            pes,
            pairs,
            pair_of,
            lens,
            max_len,
        }
    }

    fn id_space(&self) -> u64 {
        self.lens.len() as u64 * 2
    }

    fn expected(&self) -> u64 {
        self.pairs
            .iter()
            .map(|p| {
                if p.stream {
                    (p.n + p.n.div_ceil(STREAM_WINDOW)) as u64
                } else {
                    2 * p.n as u64
                }
            })
            .sum()
    }

    fn pair(&self, pe: PeId) -> Option<&Pair> {
        self.pairs.get(*self.pair_of.get(pe as usize)? as usize)
    }

    /// Send data message `seq` of `pair` from `me` to `dst`, on the
    /// endpoint's persistent channel when it has one.
    fn send_data(&self, ctx: &mut PeCtx, data: HandlerId, pair: &Pair, dst: PeId, seq: u32) {
        let me = ctx.pe();
        let len = self.lens[(pair.base + seq) as usize] as usize;
        let m = self.com.make(me, dst, seq, ctx.now(), len);
        let chan = ctx.user::<Endpoint>().chan;
        probe::span(probe::SEND, || match chan {
            Some(ch) => ctx.send_persistent(ch, dst, data, m),
            None => ctx.send(dst, data, m),
        });
        msg::sent(false);
    }

    fn send_window(&self, ctx: &mut PeCtx, data: HandlerId, pair: &Pair, w: u32) {
        let lo = w * STREAM_WINDOW;
        for seq in lo..(lo + STREAM_WINDOW).min(pair.n) {
            self.send_data(ctx, data, pair, pair.b, seq);
        }
    }

    /// Open a persistent channel from this endpoint to `dst`.
    fn open_channel(&self, ctx: &mut PeCtx, dst: PeId) {
        let max = self.max_len as u64 + (msg::HDR + charm_rt::msg::HEADER_BYTES) as u64;
        let ch = probe::span(probe::SEND, || ctx.create_persistent(dst, max));
        ctx.user::<Endpoint>().chan = Some(ch);
    }

    fn install(self: &Arc<Self>, c: &mut Cluster) -> u64 {
        let ids: Arc<OnceLock<(HandlerId, HandlerId)>> = Arc::new(OnceLock::new());
        let (p, h) = (self.clone(), ids.clone());
        let data = c.register_handler(move |ctx, env| {
            probe::span(probe::APP, || {
                let (me, src) = (ctx.pe(), env.src_pe);
                let (Some((seq, stamp, len)), Some(pair)) =
                    (p.com.open(src, me, &env.payload), p.pair(me))
                else {
                    return msg::corrupt();
                };
                let at_b = me == pair.b;
                if src != if at_b { pair.a } else { pair.b } || seq >= pair.n {
                    return msg::corrupt();
                }
                let id = (pair.base + seq) as u64 * 2 + !at_b as u64;
                if !msg::received(id, stamp, ctx.now()) {
                    return;
                }
                // The app consumes the body at 16 B/ns.
                ctx.charge(len as u64 / 16);
                let (data, ack) = *h.get().expect("handlers registered");
                match (pair.stream, at_b) {
                    (false, true) => {
                        if pair.persistent && ctx.user::<Endpoint>().chan.is_none() {
                            p.open_channel(ctx, src);
                        }
                        p.send_data(ctx, data, pair, src, seq);
                    }
                    (false, false) => {
                        if seq + 1 < pair.n {
                            p.send_data(ctx, data, pair, pair.b, seq + 1);
                        }
                    }
                    (true, true) => {
                        let w = seq / STREAM_WINDOW;
                        let in_window = (pair.n - w * STREAM_WINDOW).min(STREAM_WINDOW);
                        let ep = ctx.user::<Endpoint>();
                        ep.got += 1;
                        if ep.got == in_window {
                            ep.got = 0;
                            let m = p.com.make(me, src, w, ctx.now(), 0);
                            probe::span(probe::SEND, || ctx.send(src, ack, m));
                            msg::sent(false);
                        }
                    }
                    (true, false) => msg::corrupt(),
                }
            })
        });
        let (p, h) = (self.clone(), ids.clone());
        let ack = c.register_handler(move |ctx, env| {
            probe::span(probe::APP, || {
                let (me, src) = (ctx.pe(), env.src_pe);
                let (Some((w, stamp, _)), Some(pair)) =
                    (p.com.open(src, me, &env.payload), p.pair(me))
                else {
                    return msg::corrupt();
                };
                if me != pair.a || src != pair.b || !pair.stream || w >= pair.n {
                    return msg::corrupt();
                }
                if !msg::received((pair.base + w) as u64 * 2 + 1, stamp, ctx.now()) {
                    return;
                }
                if (w + 1) * STREAM_WINDOW < pair.n {
                    let data = h.get().expect("handlers registered").0;
                    p.send_window(ctx, data, pair, w + 1);
                }
            })
        });
        ids.set((data, ack)).expect("set once");
        let p = self.clone();
        let kick = c.register_handler(move |ctx, _| {
            probe::span(probe::APP, || {
                let Some(pair) = p.pair(ctx.pe()) else {
                    return msg::corrupt();
                };
                if pair.persistent {
                    p.open_channel(ctx, pair.b);
                }
                if pair.stream {
                    p.send_window(ctx, data, pair, 0);
                } else {
                    p.send_data(ctx, data, pair, pair.b, 0);
                }
            })
        });
        c.init_user(|_| Endpoint::default());
        for pair in &self.pairs {
            c.inject(0, pair.a, kick, Bytes::new());
        }
        self.pairs.len() as u64
    }
}

/// Layer-specific counters read after a run from the layers' public stats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerStats {
    pub ugni_small: u64,
    pub ugni_rendezvous: u64,
    pub ugni_persistent: u64,
    pub ugni_shm: u64,
    pub ugni_credit_retries: u64,
    pub fabric_smsg_sends: u64,
    pub fabric_fma: u64,
    pub fabric_bte: u64,
    pub fabric_rdma_bytes: u64,
    pub fabric_credit_stalls: u64,
    pub mpi_eager: u64,
    pub mpi_rndv: u64,
    pub mpi_udreg_hits: u64,
    pub mpi_udreg_misses: u64,
    pub mpi_blocking_recv_ns: u64,
    pub mpi_iprobe_calls: u64,
}

impl LayerStats {
    fn read(c: &mut Cluster, lrts: Lrts) -> Self {
        match lrts {
            Lrts::Ugni => {
                let l = c.layer_mut::<UgniLayer>();
                let (u, f) = (&l.stats, &l.gni().fabric().stats);
                LayerStats {
                    ugni_small: u.small_msgs,
                    ugni_rendezvous: u.rendezvous_msgs,
                    ugni_persistent: u.persistent_msgs,
                    ugni_shm: u.shm_msgs,
                    ugni_credit_retries: u.credit_retries,
                    fabric_smsg_sends: f.smsg_sends,
                    fabric_fma: f.fma_transactions,
                    fabric_bte: f.bte_transactions,
                    fabric_rdma_bytes: f.rdma_bytes,
                    fabric_credit_stalls: f.credit_stalls,
                    ..LayerStats::default()
                }
            }
            Lrts::Mpi => {
                let l = c.layer_mut::<MpiLayer>();
                let m = &l.mpi().stats;
                LayerStats {
                    mpi_eager: m.eager_msgs,
                    mpi_rndv: m.rndv_msgs,
                    mpi_udreg_hits: m.udreg_hits,
                    mpi_udreg_misses: m.udreg_misses,
                    mpi_blocking_recv_ns: m.blocking_recv_ns,
                    mpi_iprobe_calls: l.stats.iprobe_calls,
                    ..LayerStats::default()
                }
            }
        }
    }
}

/// One simulation of a workload on one machine layer.
pub struct Sim {
    pub lrts: Lrts,
    /// Host ns to build the cluster: layer construction and `LrtsInit`,
    /// AM configuration, handler registration, `init_user`, injection.
    pub setup_ns: u64,
    /// Host ns inside `Cluster::run`.
    pub run_ns: u64,
    pub injected: u64,
    pub report: RunReport,
    pub layer: LayerStats,
    /// Virtual (busy, overhead, idle) fractions over the run.
    pub util: (f64, f64, f64),
    pub tally: Tally,
    /// Span totals (all zero unless the mount was [`Mount::Traced`]).
    pub spans: Totals,
}

/// Everything a simulation produces in virtual time: equal keys mean the
/// program did the same thing.
#[derive(Debug, PartialEq, Eq)]
pub struct VirtKey {
    end_time: u64,
    stopped_early: bool,
    stats: ClusterStats,
    layer: LayerStats,
    util: [u64; 3],
    sent: u64,
    received: u64,
    failures: u64,
    lat_hash: u64,
}

impl Sim {
    pub fn virt_key(&self) -> VirtKey {
        VirtKey {
            end_time: self.report.end_time,
            stopped_early: self.report.stopped_early,
            stats: self.report.stats.clone(),
            layer: self.layer.clone(),
            util: [self.util.0, self.util.1, self.util.2].map(f64::to_bits),
            sent: self.tally.sent,
            received: self.tally.received,
            failures: self.tally.failures(),
            lat_hash: self
                .tally
                .lat
                .iter()
                .fold(self.tally.lat.len() as u64, |h, &l| gen::mix(h ^ l)),
        }
    }

    /// Cross-check the app's own tally against the runtime's counters;
    /// returns the first disagreement.
    pub fn cross_check(&self, aggregated: bool) -> Result<(), String> {
        let (t, s) = (&self.tally, &self.report.stats);
        let fail = |what: &str| {
            Err(format!(
                "{}: {what}: tally {t:?}, stats {s:?}",
                self.lrts.name()
            ))
        };
        if t.received != t.sent || t.received != t.expected {
            return fail("app receipts differ from app sends");
        }
        if s.msgs_delivered != s.msgs_sent + self.injected {
            return fail("runtime delivered a different number than it sent");
        }
        if !aggregated {
            if s.msgs_sent != t.sent || s.am_agg_sent != 0 {
                return fail("runtime sends differ from app sends");
            }
        } else if s.am_agg_sent != t.sent_aggregated
            || s.msgs_delivered < self.injected + s.am_batches + (t.sent - t.sent_aggregated)
        {
            return fail("AM constituents differ from app sends");
        }
        Ok(())
    }
}

/// Build the cluster, run it to completion, and collect every counter.
pub fn simulate(inp: &Inputs, lrts: Lrts, mount: Mount) -> Sim {
    msg::begin(inp.expected(), inp.id_space());
    probe::reset(mount == Mount::Traced);

    let t0 = Instant::now();
    let layer = match mount {
        Mount::Bare => lrts.make(),
        Mount::Wrapped | Mount::Traced => Box::new(Timed::new(lrts.make(), lrts as usize)),
    };
    let cfg = match &inp.plan {
        Plan::Hopper(p) => ClusterCfg::new(p.pes, CORES_PER_NODE),
        Plan::Fine(p) => ClusterCfg::new(p.pes, CORES_PER_NODE),
        Plan::Bulk(p) => ClusterCfg::new(p.pes, CORES_PER_NODE),
    };
    let mut c = Cluster::new(ClusterCfg { threads: 1, ..cfg }, layer);
    let injected = match &inp.plan {
        Plan::Hopper(p) => p.install(&mut c),
        Plan::Fine(p) => p.install(&mut c),
        Plan::Bulk(p) => p.install(&mut c),
    };
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let report = c.run();
    let run_ns = t1.elapsed().as_nanos() as u64;

    let spans = probe::totals();
    probe::reset(false);
    let tally = msg::end();
    let layer = LayerStats::read(&mut c, lrts);
    let util = c.trace().utilization(None);
    Sim {
        lrts,
        setup_ns,
        run_ns,
        injected,
        report,
        layer,
        util,
        tally,
        spans,
    }
}
