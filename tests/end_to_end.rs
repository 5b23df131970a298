//! End-to-end shape assertions: the qualitative results of Figures 6
//! and 7 must hold when the whole pipeline runs at reduced scale.

use lams::core::{Experiment, PolicyKind};
use lams::mpsoc::MachineConfig;
use lams::procgraph::ProcessId;
use lams::workloads::{suite, Scale, Workload};

fn machine() -> MachineConfig {
    MachineConfig::paper_default()
}

#[test]
fn every_policy_completes_every_suite_app() {
    for app in suite::all(Scale::Tiny) {
        let n = app.num_processes();
        let exp = Experiment::isolated(&app, machine());
        for &kind in PolicyKind::ALL {
            let r = exp.run(kind).expect("simulation succeeds");
            assert_eq!(r.processes.len(), n, "{kind} lost processes");
            assert!(r.makespan_cycles > 0);
            // Every process finished after it started.
            assert!(r.processes.values().all(|e| e.finish >= e.start));
        }
    }
}

const SCALES: [Scale; 5] = [
    Scale::Tiny,
    Scale::Small,
    Scale::Paper,
    Scale::Large,
    Scale::Huge,
];

#[test]
fn figure6_shape_ls_beats_rs_in_aggregate() {
    // The paper's Figure 6 claim: locality-aware scheduling is (much)
    // better than random/round-robin in isolation. Per app LS never
    // loses to RS (MxM ties from Small up), and across the suite it
    // beats both RS and RRS, at every scale.
    for scale in SCALES {
        let mut rs = 0u64;
        let mut rrs = 0u64;
        let mut ls = 0u64;
        for app in suite::all(scale) {
            let exp = Experiment::isolated(&app, machine());
            let r = exp
                .run_all(&[
                    PolicyKind::Random,
                    PolicyKind::RoundRobin,
                    PolicyKind::Locality,
                ])
                .expect("simulation succeeds");
            rs += r.cycles(PolicyKind::Random);
            rrs += r.cycles(PolicyKind::RoundRobin);
            ls += r.cycles(PolicyKind::Locality);
            assert!(
                r.cycles(PolicyKind::Locality) <= r.cycles(PolicyKind::Random),
                "{} at {scale}: LS {} vs RS {}",
                app.name,
                r.cycles(PolicyKind::Locality),
                r.cycles(PolicyKind::Random)
            );
        }
        assert!(ls < rs, "suite at {scale}: LS ({ls}) must beat RS ({rs})");
        assert!(
            ls < rrs,
            "suite at {scale}: LS ({ls}) must beat RRS ({rrs})"
        );
    }
}

#[test]
fn figure6_shape_lsm_never_loses_to_ls() {
    for scale in SCALES {
        for app in suite::all(scale) {
            let exp = Experiment::isolated(&app, machine());
            let ls = exp.run(PolicyKind::Locality).expect("runs");
            let lsm = exp.run(PolicyKind::LocalityMap).expect("runs");
            assert!(
                lsm.makespan_cycles <= ls.makespan_cycles,
                "{} at {scale}: LSM {} worse than LS {}",
                app.name,
                lsm.makespan_cycles,
                ls.makespan_cycles
            );
        }
    }
}

#[test]
fn figure7_shape_concurrent_mixes() {
    // Completion time grows with |T|; LS beats RS at high pressure;
    // LSM never loses to LS. (Small |T| values to keep the test fast.)
    let mut prev_ls = 0u64;
    for t in [1usize, 2, 3] {
        let mix = suite::mix(t, Scale::Small);
        let r = Experiment::concurrent(&mix, machine())
            .run_all(PolicyKind::ALL)
            .expect("simulation succeeds");
        let ls = r.cycles(PolicyKind::Locality);
        assert!(ls > prev_ls, "|T|={t}: completion must grow with load");
        prev_ls = ls;
        assert!(
            r.cycles(PolicyKind::LocalityMap) <= ls,
            "|T|={t}: LSM worse than LS"
        );
        if t >= 2 {
            // The LS/LSM advantage over RS materializes under pressure.
            assert!(
                r.cycles(PolicyKind::LocalityMap) < r.cycles(PolicyKind::Random),
                "|T|={t}: LSM not better than RS"
            );
        }
    }
}

#[test]
fn dependences_respected_under_all_policies() {
    let w = Workload::concurrent(suite::mix(2, Scale::Tiny)).unwrap();
    let exp = Experiment::for_workload(w.clone(), machine());
    for &kind in PolicyKind::ALL {
        let r = exp.run(kind).expect("runs");
        for p in w.process_ids() {
            for s in w.epg().succs(p).unwrap() {
                assert!(
                    r.processes[&s].start >= r.processes[&p].finish,
                    "{kind}: {s} started before {p} finished"
                );
            }
        }
    }
}

#[test]
fn results_are_reproducible() {
    let app = suite::usonic(Scale::Tiny);
    let exp = Experiment::isolated(&app, machine());
    for &kind in PolicyKind::ALL {
        let a = exp.run(kind).expect("runs");
        let b = exp.run(kind).expect("runs");
        assert_eq!(a.makespan_cycles, b.makespan_cycles, "{kind}");
        assert_eq!(a.core_sequences, b.core_sequences, "{kind}");
    }
}

#[test]
fn ls_chains_producer_consumer_on_same_core() {
    // Track's per-tracker pipelines should land on single cores under LS.
    let app = suite::track(Scale::Tiny);
    let w = Workload::single(app.clone()).unwrap();
    let exp = Experiment::isolated(&app, machine());
    let r = exp.run(PolicyKind::Locality).expect("runs");
    // For each tracker k: match_k (id 4+k) must run on the same core as
    // predict_k (id k) — they share the PRED[k] block.
    let mut chained = 0;
    for k in 0..4u32 {
        let predict = ProcessId::new(k);
        let matcher = ProcessId::new(4 + k);
        if r.processes[&predict].core == r.processes[&matcher].core {
            chained += 1;
        }
    }
    assert!(
        chained >= 3,
        "LS chained only {chained}/4 tracker pipelines: {:?}",
        r.core_sequences
    );
    let _ = w;
}
