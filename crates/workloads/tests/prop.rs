//! Property tests: randomly generated applications must always compile
//! into consistent workloads — the reference op stream of
//! `support/scalar.rs`, footprints and sharing all agree.

use std::collections::BTreeSet;

use proptest::prelude::*;

use lams_layout::Layout;
use lams_mpsoc::TraceOp;
use lams_procgraph::ProcessId;
use lams_workloads::{synthetic_app, SyntheticConfig, Workload};

#[path = "support/scalar.rs"]
mod scalar;

fn arb_config() -> impl Strategy<Value = SyntheticConfig> {
    (0u64..256, 1usize..4, 1usize..6, 8i64..24, 0i64..4).prop_map(
        |(seed, stages, pps, dim, halo)| SyntheticConfig {
            seed,
            stages,
            procs_per_stage: pps,
            dim,
            max_halo: halo,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn synthetic_apps_always_build(cfg in arb_config()) {
        let app = synthetic_app(cfg);
        app.validate().expect("generated app validates");
        let w = Workload::single(app).expect("generated app builds");
        prop_assert_eq!(w.num_processes(), cfg.stages.max(1) * cfg.procs_per_stage.max(1));
        // EPG is a DAG covering every process.
        prop_assert_eq!(w.epg().topo_order().len(), w.num_processes());
    }

    #[test]
    fn trace_footprint_equals_data_set(cfg in arb_config()) {
        let app = synthetic_app(cfg);
        let w = Workload::single(app.clone()).expect("builds");
        let layout = Layout::linear(w.arrays());
        let streams = scalar::op_streams(&[app], &layout);
        for p in w.process_ids().take(4) {
            let traced: BTreeSet<u64> = streams[p.as_usize()]
                .iter()
                .filter_map(|op| match *op {
                    TraceOp::Access { addr, .. } => Some(addr),
                    TraceOp::Compute(_) => None,
                })
                .collect();
            let predicted: BTreeSet<u64> = w
                .data_set(p)
                .iter()
                .flat_map(|(&arr, elems)| {
                    elems.iter().map(move |e| (arr, e))
                })
                .map(|(arr, e)| layout.addr(arr, e))
                .collect();
            prop_assert_eq!(&traced, &predicted, "process {}", p);
        }
    }

    #[test]
    fn trace_length_is_declared_length(cfg in arb_config()) {
        let app = synthetic_app(cfg);
        let w = Workload::single(app.clone()).expect("builds");
        let streams = scalar::op_streams(&[app], &Layout::linear(w.arrays()));
        prop_assert_eq!(streams.len(), w.num_processes());
        for p in w.process_ids() {
            prop_assert_eq!(streams[p.as_usize()].len() as u64, w.trace_len(p));
        }
    }

    #[test]
    fn sharing_is_symmetric_and_bounded(cfg in arb_config()) {
        let app = synthetic_app(cfg);
        let w = Workload::single(app).expect("builds");
        let ids: Vec<ProcessId> = w.process_ids().collect();
        for &p in ids.iter().take(4) {
            for &q in ids.iter().take(4) {
                let spq = w.data_set(p).shared_len(w.data_set(q));
                let sqp = w.data_set(q).shared_len(w.data_set(p));
                prop_assert_eq!(spq, sqp);
                prop_assert!(spq <= w.data_set(p).total_len());
                if p == q {
                    prop_assert_eq!(spq, w.data_set(p).total_len());
                }
            }
        }
    }
}
