//! Ablation study (A1) of the design choices the paper leaves open:
//!
//! * LS *initial-round thinning* on/off — the Figure 3 initialization
//!   that spreads mutually-sharing candidates across cores,
//! * sharing-matrix granularity: elements (the paper) vs cache lines,
//! * the LSM data mapping with the paper's fixed mean threshold vs the
//!   harness's validated threshold ladder.
//!
//! ```text
//! cargo run --release -p lams-bench --bin ablation -- \
//!     [--scale tiny|small|paper|large|huge] [--tasks 4] [--threads N]
//! ```
//!
//! The flags are read through [`Figure`]. The thinning and line-sharing
//! variants are not [`PolicyKind`]s, so they are a bench-only list fanned
//! through the figure's [`lams_core::SweepRunner`]; the LSM rows and the
//! baselines run the base scenario's experiment, one after another
//! (an LSM candidate ladder is an in-order loop). Output is
//! bit-identical for any `--threads N`.

use lams_bench::{csv_table, emit, Figure};
use lams_core::{execute, LocalityPolicy, PolicyKind, RunResult, SharingMatrix};
use lams_layout::Layout;
use lams_workloads::{suite, Scale, Workload};

fn main() {
    let fig = Figure::read("ablation", &["scale", "tasks", "threads"], Scale::Small);
    // It prints the conflict misses: ask for the miss split.
    let machine = fig.machine();
    let workload = Workload::concurrent(suite::mix(fig.tasks, fig.scale)).expect("valid mix");
    let layout = Layout::linear(workload.arrays());

    fig.header(format_args!(
        "Ablation — |T|={}, scale {}, {machine}",
        fig.tasks, fig.scale
    ));

    // A1a (thinning on/off) and A1b (sharing granularity) use custom
    // policy constructions; declared as labelled variants and fanned
    // through the runner.
    let sharing = SharingMatrix::from_workload(&workload);
    let line_sharing = SharingMatrix::from_workload_lines(&workload, &layout, 32);
    // (thinning, matrix): thinning on the element matrix is both A1a's
    // "on" and A1b's "elements", so it runs once and prints twice.
    let variants: [(bool, &SharingMatrix); 3] =
        [(true, &sharing), (false, &sharing), (true, &line_sharing)];
    let eval = |(thinning, matrix): (bool, &SharingMatrix)| -> RunResult {
        let mut p = LocalityPolicy::new(matrix.clone(), machine.num_cores);
        if !thinning {
            p = p.without_initial_thinning();
        }
        execute(&workload, &layout, &mut p, machine).expect("runs")
    };
    let results = fig.runner.run(variants.len(), |i| eval(variants[i]));
    let row = |label: &str, r: &RunResult| {
        let c = &r.machine.cache;
        format!(
            "{label},{},{},{}",
            r.makespan_cycles, c.misses, c.conflict_misses
        )
    };
    let mut rows = vec![
        row("ls_with_thinning", &results[0]),
        row("ls_no_thinning", &results[1]),
        row("ls_element_sharing", &results[0]),
        row("ls_line_sharing", &results[2]),
    ];

    // A1c: LSM threshold policy — the paper's fixed mean vs the ladder.
    // The fixed-mean run needs the ladder's conflict matrix first, so
    // these two run one after the other.
    let exp = fig.base().experiment(workload.clone(), machine);
    let (ladder, art) = exp.run_lsm().expect("runs");
    rows.push(row("lsm_ladder", &ladder));
    let mean = art.conflicts.mean_all_pairs();
    let (fixed_run, _) = exp
        .clone()
        .with_relayout_threshold(mean)
        .run_lsm()
        .expect("runs");
    rows.push(row("lsm_fixed_mean", &fixed_run));
    // Baselines for reference.
    for kind in [PolicyKind::Random, PolicyKind::Locality] {
        rows.push(row(
            &format!("baseline_{kind}"),
            &exp.run(kind).expect("runs"),
        ));
    }

    emit(csv_table("variant,cycles,misses,conflict_misses", &rows));
}
