//! `stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload's inputs from the seed, runs it, checks every
//! message, and prints the metrics: a readable table, then one JSON
//! object as the last line of standard output.
//!
//! * `--trace 0`: one traced warm-up simulation (its virtual results are
//!   the reference), then untraced repetitions on the bare machine layer
//!   for `--seconds`; prints the end-to-end metrics.
//! * `--trace 1`: one cold untraced simulation (`bench.cold_run_s`, and
//!   the reference), then alternating traced and untraced repetitions for
//!   `--seconds`; prints the per-layer metrics.
//!
//! Every repetition must reproduce the reference's virtual results and
//! counts exactly; any difference is a hard error (exit code 2).
//!
//! A calibration kernel runs between every two repetitions; host times
//! are reported at the reference host speed (see [`stackbench::speed`]).

use stackbench::msg;
use stackbench::report::{self, Times, Virt};
use stackbench::speed::{self, Calibrator};
use stackbench::work::{simulate, Inputs, Mount, Sim, Size, VirtKey, Workload};
use std::time::{Duration, Instant};

/// Timed repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    let num = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or(format!("missing {flag}"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = num(get("--seed"), "--seed")?;
    let seconds = num(get("--seconds"), "--seconds")?;
    let trace = match num(get("--trace"), "--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One repetition: the workload on each of its machine layers.
fn rep(inp: &Inputs, mount: Mount) -> Vec<Sim> {
    inp.workload
        .layers()
        .iter()
        .map(|&l| simulate(inp, l, mount))
        .collect()
}

fn keys(r: &[Sim]) -> Vec<VirtKey> {
    r.iter().map(Sim::virt_key).collect()
}

/// Check a repetition against the reference, keep its host times, and
/// hand its buffers back for reuse.
fn settle(r: Vec<Sim>, reference: &[VirtKey], what: &str, scale: f64) -> Result<Times, String> {
    if keys(&r) != reference {
        return Err(format!(
            "{what} repetition diverged from the reference in virtual time or counts:\n  \
             got {:?}\n  want {:?}",
            keys(&r),
            reference
        ));
    }
    let t = Times::of(&r, scale);
    for s in r {
        msg::recycle(s.tally);
    }
    Ok(t)
}

fn run(a: &Args) -> Result<(), String> {
    let inp = Inputs::generate(a.workload, a.seed, Size::Full);
    let budget = Duration::from_secs(a.seconds);

    // The first simulation in the process is the reference every timed
    // repetition must reproduce.
    let first = Instant::now();
    let reference = rep(&inp, if a.trace { Mount::Bare } else { Mount::Traced });
    let peak_rss_mb = report::peak_rss_mb();
    let cold = Times::of(&reference, 1.0).raw_wall_s();
    let mut cal = Calibrator::new();
    let mut before = speed::calibrate(&mut cal, cold);
    let cold_run_s = cold * speed::scale(before, before);
    let ref_keys = keys(&reference);
    let virt = Virt::of(&reference);
    let mut correct = virt.failed == 0;
    for s in &reference {
        if let Err(e) = s.cross_check(a.workload == Workload::FineAm) {
            eprintln!("stackbench: {e}");
            correct = false;
        }
    }
    let ends: Vec<String> = reference
        .iter()
        .map(|s| format!("{} {} ns", s.lrts.name(), s.report.end_time))
        .collect();
    eprintln!(
        "{} seed {}: reference simulation {:.3} s, {} messages, {} latency samples, makespan {}",
        a.workload.name(),
        a.seed,
        first.elapsed().as_secs_f64(),
        virt.attempted,
        virt.samples,
        ends.join(", ")
    );

    // Each repetition is scaled by the kernel times on either side of it.
    let mut timed = |mount: Mount, what: &str| {
        let t = Instant::now();
        let r = rep(&inp, mount);
        let after = speed::calibrate(&mut cal, t.elapsed().as_secs_f64());
        let t = settle(r, &ref_keys, what, speed::scale(before, after));
        before = after;
        t
    };
    let (mut traced, mut bare) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while bare.len() < MIN_REPS || t0.elapsed() < budget {
        if a.trace {
            traced.push(timed(Mount::Traced, "traced")?);
        }
        bare.push(timed(Mount::Bare, "untraced")?);
    }

    let walls: Vec<String> = bare
        .iter()
        .map(|t| format!("{:.1}/{:.3}", t.raw_wall_s() * 1e3, t.scale))
        .collect();
    eprintln!(
        "untraced repetition wall ms/host speed: {}",
        walls.join(" ")
    );

    let metrics = if a.trace {
        let shares = report::run_shares(&traced);
        let split: Vec<String> = shares
            .iter()
            .map(|(n, f)| format!("{n} {:.1}%", f * 100.0))
            .collect();
        println!("host share of Cluster::run (traced): {}", split.join(", "));
        report::per_layer(&inp, &reference, &virt, &traced, &bare, cold_run_s)
    } else {
        report::end_to_end(&virt, &bare, peak_rss_mb)
    };
    println!(
        "{} seed {}: {} repetitions in {:.1} s; fail_frac {} ({} of {} messages)",
        a.workload.name(),
        a.seed,
        bare.len() + traced.len(),
        t0.elapsed().as_secs_f64(),
        virt.fail_frac(),
        virt.failed,
        virt.attempted
    );
    for x in &metrics {
        println!("  {:<34} {:>20.6} {}", x.name, x.value, x.unit);
    }
    println!(
        "{}",
        report::json(correct, virt.attempted, virt.failed, &metrics)
    );
    Ok(())
}

fn main() {
    let code = match parse().and_then(|a| run(&a)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("stackbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
