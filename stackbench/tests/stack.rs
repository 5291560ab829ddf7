//! The benchmark's own checks, at the small size: the timing wrapper
//! changes nothing, the seed alone decides the traffic, and every
//! message arrives exactly once.

use charm_rt::lrts::MachineLayer;
use lrts_mpi::MpiLayer;
use lrts_ugni::{UgniConfig, UgniLayer};
use mpi_sim::MpiConfig;
use stackbench::probe::Timed;
use stackbench::report::{self, Times, Virt};
use stackbench::work::{simulate, Inputs, Mount, Sim, Size, Workload};

fn rep(inp: &Inputs, mount: Mount) -> Vec<Sim> {
    inp.workload
        .layers()
        .iter()
        .map(|&l| simulate(inp, l, mount))
        .collect()
}

fn names(m: &[report::Metric]) -> Vec<String> {
    m.iter().map(|x| x.name.clone()).collect()
}

#[test]
fn traced_untraced_and_bare_runs_are_identical() {
    for w in Workload::ALL {
        let inp = Inputs::generate(w, 11, Size::Small);
        let bare = rep(&inp, Mount::Bare);
        for mount in [Mount::Wrapped, Mount::Traced] {
            let other = rep(&inp, mount);
            for (a, b) in bare.iter().zip(&other) {
                assert_eq!(a.virt_key(), b.virt_key(), "{} {mount:?}", w.name());
            }
        }
        for s in &bare {
            assert_eq!(s.tally.failures(), 0, "{}", w.name());
            s.cross_check(w == Workload::FineAm).expect("counts agree");
        }
    }
}

#[test]
fn wrapper_keeps_the_persistent_path_and_lookahead() {
    let inp = Inputs::generate(Workload::BulkPairs, 5, Size::Small);
    let traced = simulate(&inp, stackbench::work::Lrts::Ugni, Mount::Traced);
    assert!(
        traced.layer.ugni_persistent > 0,
        "persistent sends must reach uGNI's persistent path through the wrapper"
    );
    let bare: Box<dyn MachineLayer> = Box::new(UgniLayer::new(UgniConfig::optimized()));
    let wrapped = Timed::new(Box::new(UgniLayer::new(UgniConfig::optimized())), 0);
    assert_eq!(wrapped.lookahead(), bare.lookahead());
    assert!(wrapped.lookahead() > 1);
    let mut wrapped = Timed::new(Box::new(MpiLayer::new(MpiConfig::default())), 1);
    assert!(wrapped.as_any().downcast_mut::<MpiLayer>().is_some());
}

#[test]
fn traced_runs_time_every_boundary() {
    let inp = Inputs::generate(Workload::FineAm, 3, Size::Small);
    let traced = rep(&inp, Mount::Traced);
    let t = &traced[0].spans;
    assert!(t.calls[stackbench::probe::APP] > 0 && t.calls[stackbench::probe::AM] > 0);
    assert!(t.lrts_ns() > 0);
    let untraced = rep(&inp, Mount::Wrapped);
    assert_eq!(untraced[0].spans.ns.iter().sum::<u64>(), 0);
}

#[test]
fn one_seed_repeats_and_another_changes_only_the_traffic() {
    for w in Workload::ALL {
        let a = rep(&Inputs::generate(w, 21, Size::Small), Mount::Bare);
        let b = rep(&Inputs::generate(w, 21, Size::Small), Mount::Bare);
        let c = rep(&Inputs::generate(w, 22, Size::Small), Mount::Bare);
        let keys = |r: &[Sim]| r.iter().map(Sim::virt_key).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b), "{}: same seed", w.name());
        assert_ne!(keys(&a), keys(&c), "{}: another seed", w.name());

        let metric_names = |r: &[Sim]| {
            let inp = Inputs::generate(w, 0, Size::Small);
            let (v, t) = (Virt::of(r), vec![Times::of(r, 1.0)]);
            let mut n = names(&report::end_to_end(&v, &t, 1.0));
            n.extend(names(&report::per_layer(&inp, r, &v, &t, &t, 1.0)));
            n
        };
        let traced_a = rep(&Inputs::generate(w, 21, Size::Small), Mount::Traced);
        let traced_c = rep(&Inputs::generate(w, 22, Size::Small), Mount::Traced);
        assert_eq!(metric_names(&traced_a), metric_names(&traced_c));
    }
}
