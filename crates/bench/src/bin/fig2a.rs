//! Regenerates **Figure 2** of the paper from the Figure 1 running
//! example:
//!
//! * (a) the inter-process sharing matrix of Prog1 — exact values,
//! * (b)/(c) good vs poor 4-core mappings, compared by the quantity the
//!   figure illustrates: how much data successively-scheduled processes
//!   share on each core.
//!
//! A note on timing: Prog1 sweeps 3000 rows (~12 KB of distinct cache
//! lines) per process in a single pass, so on Table 2's 8 KB cache *no*
//! mapping realizes the shared lines as hits — the fragment illustrates
//! the analysis, while the Table 1 suite carries the timing experiments
//! (Figures 6 and 7).
//!
//! ```text
//! cargo run --release -p lams-bench --bin fig2a
//! ```

use lams_bench::{emit, Figure};
use lams_core::{Experiment, PolicyKind, SharingMatrix};
use lams_mpsoc::MachineConfig;
use lams_procgraph::ProcessId;
use lams_workloads::{prog1, Scale, Workload};

fn chained_sharing(m: &SharingMatrix, mapping: &[Vec<ProcessId>]) -> u64 {
    mapping
        .iter()
        .flat_map(|seq| seq.windows(2).map(|w| m.get(w[0], w[1])))
        .sum()
}

fn print_mapping(label: &str, mapping: &[Vec<ProcessId>], m: &SharingMatrix) {
    emit(label);
    for (c, seq) in mapping.iter().enumerate() {
        let names: Vec<String> = seq.iter().map(|p| p.to_string()).collect();
        emit!("  core {c}: {}", names.join(" then "));
    }
    emit!(
        "  data shared between successive processes on the same core: {} elements",
        chained_sharing(m, mapping)
    );
}

fn main() {
    Figure::read("fig2a", &[], Scale::Small);
    let app = prog1();
    let w = Workload::single(app.clone()).expect("valid app");
    let m = SharingMatrix::from_workload(&w);

    emit!("Figure 2(a) reproduction — data sharings between the processes of Prog1");
    emit!("(cell (k, p) = |DS_k ∩ DS_p|, elements)");
    emit(&m);

    // Figure 2(b): the locality-aware scheduler's own choice on 4 cores.
    let machine = MachineConfig::paper_default().with_cores(4);
    let ls = Experiment::isolated(&app, machine)
        .run(PolicyKind::Locality)
        .expect("runs");
    print_mapping(
        "Figure 2(b): mapping chosen by the locality-aware scheduler (4 cores):",
        &ls.placement(),
        &m,
    );

    // The paper's own (b): T1 = {0,2,4,6}, T2 = {3,1,5,7} pairing each
    // core's processes two apart... actually pairing for 2000-sharing.
    let pid = ProcessId::new;
    let paper_good = vec![
        vec![pid(0), pid(1)],
        vec![pid(2), pid(3)],
        vec![pid(4), pid(5)],
        vec![pid(6), pid(7)],
    ];
    print_mapping(
        "Paper-style good mapping (adjacent pairs):",
        &paper_good,
        &m,
    );

    // Figure 2(c): a poor mapping — distant processes share nothing.
    let poor = vec![
        vec![pid(0), pid(4)],
        vec![pid(1), pid(5)],
        vec![pid(2), pid(6)],
        vec![pid(3), pid(7)],
    ];
    print_mapping("Figure 2(c): poor mapping (distant pairs):", &poor, &m);
}
