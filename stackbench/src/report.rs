//! From repetitions to metrics.
//!
//! One repetition runs a workload once on each of its machine layers
//! (one simulation for `hopper_dense` and `fine_am`, uGNI then MPI for
//! `bulk_pairs`). Host times are medians over repetitions; virtual
//! metrics and counts are identical in every repetition (the binary
//! checks that) and are read from one.

use crate::probe::{self, Totals};
use crate::work::{Inputs, Lrts, Sim};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smoothed percentile of a sorted sample: the mean of the samples whose
/// rank lies within half a percentile point of `q`. With ≥10⁴ samples
/// that is a mean over ≥100 of them, so nanosecond quantization does not
/// make two seeds read identically and one outlier cannot move it.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let lo = (((q - 0.005) * n as f64).floor().max(0.0) as usize).min(n - 1);
    let hi = (((q + 0.005) * n as f64).ceil() as usize).clamp(lo + 1, n);
    sorted[lo..hi].iter().sum::<u64>() as f64 / (hi - lo) as f64
}

fn p50_p99(mut lat: Vec<u64>) -> (f64, f64) {
    lat.sort_unstable();
    (percentile(&lat, 0.50), percentile(&lat, 0.99))
}

/// Virtual-time results and app counts of one repetition.
pub struct Virt {
    /// Simulated makespan, summed over the repetition's simulations.
    pub end_us: f64,
    pub lat_p50_ns: f64,
    pub lat_p99_ns: f64,
    pub samples: usize,
    /// `(p50, p99)` per machine layer that ran.
    pub layer_lat: [Option<(f64, f64)>; 2],
    pub attempted: u64,
    pub failed: u64,
    pub received: u64,
}

impl Virt {
    pub fn of(rep: &[Sim]) -> Self {
        let mut all = Vec::new();
        let mut layer_lat = [None, None];
        for s in rep {
            all.extend_from_slice(&s.tally.lat);
            layer_lat[s.lrts as usize] = Some(p50_p99(s.tally.lat.clone()));
        }
        let samples = all.len();
        let (p50, p99) = p50_p99(all);
        Virt {
            end_us: rep.iter().map(|s| s.report.end_time as f64).sum::<f64>() / 1e3,
            lat_p50_ns: p50,
            lat_p99_ns: p99,
            samples,
            layer_lat,
            attempted: rep.iter().map(|s| s.tally.sent).sum(),
            failed: rep.iter().map(|s| s.tally.failures()).sum(),
            received: rep.iter().map(|s| s.tally.received).sum(),
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Host times of one repetition, per simulation.
#[derive(Clone)]
pub struct Times {
    pub sims: Vec<(u64, u64, Totals)>,
    /// Factor from this repetition's measured host times to
    /// reference-host times ([`crate::speed::scale`]).
    pub scale: f64,
}

impl Times {
    pub fn of(rep: &[Sim], scale: f64) -> Self {
        Times {
            sims: rep
                .iter()
                .map(|s| (s.setup_ns, s.run_ns, s.spans.clone()))
                .collect(),
            scale,
        }
    }

    /// Set-up time, reference-host seconds.
    pub fn setup_s(&self) -> f64 {
        self.sims.iter().map(|s| s.0).sum::<u64>() as f64 / 1e9 * self.scale
    }

    /// `Cluster::run` time, reference-host seconds.
    pub fn wall_s(&self) -> f64 {
        self.raw_wall_s() * self.scale
    }

    /// `Cluster::run` time as measured, host seconds.
    pub fn raw_wall_s(&self) -> f64 {
        self.sims.iter().map(|s| s.1).sum::<u64>() as f64 / 1e9
    }
}

/// VmHWM of this process, MB (one workload per process, so the meter
/// holds this workload alone; read it before the calibration kernel
/// allocates its table).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics, from untraced repetitions.
pub fn end_to_end(virt: &Virt, reps: &[Times], peak_rss_mb: f64) -> Vec<Metric> {
    let wall = median(reps.iter().map(Times::wall_s).collect());
    vec![
        m("wall_s", wall, "s"),
        m(
            "msgs_per_s",
            median(
                reps.iter()
                    .map(|r| virt.received as f64 / r.wall_s())
                    .collect(),
            ),
            "1/s",
        ),
        m(
            "setup_s",
            median(reps.iter().map(Times::setup_s).collect()),
            "s",
        ),
        m("peak_rss_mb", peak_rss_mb, "MB"),
        m("virt_end_us", virt.end_us, "us"),
        m("virt_lat_p50_ns", virt.lat_p50_ns, "ns"),
        m("virt_lat_p99_ns", virt.lat_p99_ns, "ns"),
    ]
}

/// Per-layer reference-host nanoseconds of one traced repetition, by
/// metric name.
fn host_split(t: &Times) -> Vec<(String, f64)> {
    let (mut setup, mut run, mut init, mut lrts) = (0, 0, 0, 0);
    let (mut app, mut am, mut send) = (0, 0, 0);
    let mut per_op = [[0u64; 3]; 2];
    for (s, r, sp) in &t.sims {
        setup += s;
        run += r;
        app += sp.ns[probe::APP];
        am += sp.ns[probe::AM];
        send += sp.ns[probe::SEND];
        lrts += sp.lrts_ns();
        for (l, ops) in per_op.iter_mut().enumerate() {
            init += sp.ns[probe::lrts(l, probe::INIT)];
            for (k, op) in [probe::SYNC_SEND, probe::ON_EVENT, probe::PERSISTENT]
                .into_iter()
                .enumerate()
            {
                ops[k] += sp.ns[probe::lrts(l, op)];
            }
        }
    }
    let run_lrts = lrts - init;
    // Converse sends made from app closures are core work: they are
    // subtracted from the app's self time and stay in core's.
    let core_run = run as i64 - app as i64 + send as i64 - run_lrts as i64;
    let mut out = vec![
        ("core.run.self_ns".to_string(), core_run as f64),
        ("core.setup.self_ns".into(), (setup - init) as f64),
        ("core.send.self_ns".into(), send as f64),
        ("lrts.init.self_ns".into(), init as f64),
        ("am.send.self_ns".into(), am as f64),
        ("app.handler.self_ns".into(), (app - am - send) as f64),
    ];
    for l in [Lrts::Ugni, Lrts::Mpi] {
        for (k, op) in ["sync_send", "on_event", "persistent"].iter().enumerate() {
            out.push((
                format!("lrts.{}.{op}.self_ns", l.name()),
                per_op[l as usize][k] as f64,
            ));
        }
    }
    for x in &mut out {
        x.1 *= t.scale;
    }
    out
}

/// Median over traced repetitions of one [`host_split`] entry.
fn median_ns(traced: &[Times], name: &str) -> f64 {
    median(
        traced
            .iter()
            .map(|t| {
                host_split(t)
                    .into_iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |x| x.1)
            })
            .collect(),
    )
}

/// The per-layer metrics: host times from traced repetitions (medians),
/// counts from the reference repetition.
pub fn per_layer(
    inp: &Inputs,
    rep: &[Sim],
    virt: &Virt,
    traced: &[Times],
    untraced: &[Times],
    cold_run_s: f64,
) -> Vec<Metric> {
    let ns = |name: &str| median_ns(traced, name);
    let sum = |f: &dyn Fn(&Sim) -> u64| rep.iter().map(f).sum::<u64>() as f64;
    let calls = |idx: usize| traced[0].sims.iter().map(|s| s.2.calls[idx]).sum::<u64>() as f64;
    let events = sum(&|s| s.report.stats.events);

    let mut out = vec![
        m("core.run.self_ns", ns("core.run.self_ns"), "ns"),
        m(
            "core.ns_per_event",
            ns("core.run.self_ns") / events.max(1.0),
            "ns/event",
        ),
        m("core.events", events, "count"),
    ];
    for (k, kind) in ["pe_run", "deliver", "machine", "machine_now", "cmd"]
        .iter()
        .enumerate()
    {
        out.push(m(
            format!("core.events.{kind}"),
            sum(&|s| s.report.stats.event_kinds[k]),
            "count",
        ));
    }
    out.push(m("core.setup.self_ns", ns("core.setup.self_ns"), "ns"));
    out.push(m("core.send.calls", calls(probe::SEND), "count"));
    out.push(m("core.send.self_ns", ns("core.send.self_ns"), "ns"));
    out.push(m("lrts.init.self_ns", ns("lrts.init.self_ns"), "ns"));
    for l in [Lrts::Ugni, Lrts::Mpi] {
        for (op, idx) in [
            ("sync_send", probe::SYNC_SEND),
            ("on_event", probe::ON_EVENT),
            ("persistent", probe::PERSISTENT),
        ] {
            let name = format!("lrts.{}.{op}", l.name());
            out.push(m(
                format!("{name}.calls"),
                calls(probe::lrts(l as usize, idx)),
                "count",
            ));
            out.push(m(
                format!("{name}.self_ns"),
                ns(&format!("{name}.self_ns")),
                "ns",
            ));
        }
    }

    let agg = sum(&|s| s.report.stats.am_agg_sent);
    let batches = sum(&|s| s.report.stats.am_batches);
    let fill = match inp.am_slots_per_batch() {
        Some(slots) if batches > 0.0 => agg / batches / slots,
        _ => 0.0,
    };
    out.extend([
        m("am.send.calls", calls(probe::AM), "count"),
        m("am.send.self_ns", ns("am.send.self_ns"), "ns"),
        m("am.agg_sent", agg, "count"),
        m("am.batches", batches, "count"),
        m("am.batch_fill", fill, "ratio"),
    ]);

    let l = |f: &dyn Fn(&crate::work::LayerStats) -> u64| sum(&|s| f(&s.layer));
    let (hits, misses) = (l(&|x| x.mpi_udreg_hits), l(&|x| x.mpi_udreg_misses));
    out.extend([
        m("ugni.small_msgs", l(&|x| x.ugni_small), "count"),
        m("ugni.rendezvous_msgs", l(&|x| x.ugni_rendezvous), "count"),
        m("ugni.persistent_msgs", l(&|x| x.ugni_persistent), "count"),
        m("ugni.shm_msgs", l(&|x| x.ugni_shm), "count"),
        m(
            "ugni.credit_retries",
            l(&|x| x.ugni_credit_retries),
            "count",
        ),
        m("fabric.smsg_sends", l(&|x| x.fabric_smsg_sends), "count"),
        m("fabric.fma_transactions", l(&|x| x.fabric_fma), "count"),
        m("fabric.bte_transactions", l(&|x| x.fabric_bte), "count"),
        m("fabric.rdma_bytes", l(&|x| x.fabric_rdma_bytes), "bytes"),
        m(
            "fabric.credit_stalls",
            l(&|x| x.fabric_credit_stalls),
            "count",
        ),
        m("mpi.eager_msgs", l(&|x| x.mpi_eager), "count"),
        m("mpi.rndv_msgs", l(&|x| x.mpi_rndv), "count"),
        m(
            "mpi.udreg_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        m("mpi.blocking_recv_ns", l(&|x| x.mpi_blocking_recv_ns), "ns"),
        m("mpi.iprobe_calls", l(&|x| x.mpi_iprobe_calls), "count"),
    ]);
    for lr in [Lrts::Ugni, Lrts::Mpi] {
        let (p50, p99) = virt.layer_lat[lr as usize].unwrap_or((0.0, 0.0));
        out.push(m(format!("lrts.{}.virt_lat_p50_ns", lr.name()), p50, "ns"));
        out.push(m(format!("lrts.{}.virt_lat_p99_ns", lr.name()), p99, "ns"));
    }
    let util = |f: &dyn Fn(&Sim) -> f64| rep.iter().map(f).sum::<f64>() / rep.len() as f64;
    out.extend([
        m("virt.busy_frac", util(&|s| s.util.0), "ratio"),
        m("virt.overhead_frac", util(&|s| s.util.1), "ratio"),
        m("virt.idle_frac", util(&|s| s.util.2), "ratio"),
    ]);

    let traced_wall = median(traced.iter().map(Times::wall_s).collect());
    let bare_wall = median(untraced.iter().map(Times::wall_s).collect());
    let all = || traced.iter().chain(untraced);
    out.extend([
        m("app.handler.calls", calls(probe::APP), "count"),
        m("app.handler.self_ns", ns("app.handler.self_ns"), "ns"),
        m("app.msgs", virt.received as f64, "count"),
        m(
            "bench.trace_overhead_frac",
            traced_wall / bare_wall - 1.0,
            "ratio",
        ),
        m("bench.cold_run_s", cold_run_s, "s"),
        m(
            "bench.raw_wall_s",
            median(untraced.iter().map(Times::raw_wall_s).collect()),
            "s",
        ),
        m(
            "bench.host_speed",
            median(all().map(|t| t.scale).collect()),
            "ratio",
        ),
    ]);
    out
}

/// Shares of traced host time per layer, for the human-readable summary:
/// `(core, lrts, am, app)` as fractions of `Cluster::run` time.
pub fn run_shares(traced: &[Times]) -> [(&'static str, f64); 4] {
    let split = |name: &str| median_ns(traced, name);
    let run = median(traced.iter().map(|t| t.wall_s() * 1e9).collect());
    let lrts = ["ugni", "mpi"]
        .iter()
        .flat_map(|l| {
            ["sync_send", "on_event", "persistent"].map(|op| format!("lrts.{l}.{op}.self_ns"))
        })
        .map(|n| split(&n))
        .sum::<f64>();
    [
        ("core", split("core.run.self_ns") / run),
        ("lrts", lrts / run),
        ("am", split("am.send.self_ns") / run),
        ("app", split("app.handler.self_ns") / run),
    ]
}

/// The result line: one JSON object.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothed_percentile_averages_a_window() {
        let v: Vec<u64> = (0..1000).collect();
        assert!((percentile(&v, 0.5) - 499.5).abs() < 1.0);
        assert!((percentile(&v, 0.99) - 989.5).abs() < 1.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
    }

    #[test]
    fn json_line_shape() {
        let s = json(true, 3, 0, &[m("wall_s", 1.5, "s")]);
        assert_eq!(
            s,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
