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
//! The policy-variant grid fans through a [`SweepRunner`] (the custom
//! policies are not [`PolicyKind`]s, so they use the runner's generic
//! indexed fan-out rather than a [`lams_core::ScenarioMatrix`]); the LSM
//! rows run their candidate ladders on the same runner via
//! [`Experiment::with_runner`]. Output is bit-identical for any
//! `--threads N`.

use lams_bench::{csv_table, flag};
use lams_core::{
    execute, Experiment, LocalityPolicy, PolicyKind, RunResult, SharingMatrix, SweepRunner,
};
use lams_layout::Layout;
use lams_mpsoc::MachineConfig;
use lams_workloads::{suite, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = flag(&args, "--scale").unwrap_or_default();
    let tasks = flag(&args, "--tasks").unwrap_or(4).clamp(1, 6);
    let runner = SweepRunner::new(flag(&args, "--threads").unwrap_or(1));
    // It prints the conflict misses: ask for the miss split.
    let machine = MachineConfig::paper_default().with_explain(true);
    let workload = Workload::concurrent(suite::mix(tasks, scale)).expect("valid mix");
    let layout = Layout::linear(workload.arrays());

    println!(
        "Ablation — |T|={tasks}, scale {scale}, {machine}, {} thread(s)",
        runner.threads()
    );

    // A1a (thinning on/off) and A1b (sharing granularity) use custom
    // policy constructions; declared as labelled variants and fanned
    // through the runner.
    let sharing = SharingMatrix::from_workload(&workload);
    let line_sharing = SharingMatrix::from_workload_lines(&workload, &layout, 32);
    type Variant<'a> = (&'a str, bool, &'a SharingMatrix);
    let variants: [Variant<'_>; 4] = [
        ("ls_with_thinning", true, &sharing),
        ("ls_no_thinning", false, &sharing),
        ("ls_element_sharing", true, &sharing),
        ("ls_line_sharing", true, &line_sharing),
    ];
    let eval = |&(_, thinning, matrix): &Variant<'_>| -> RunResult {
        let mut p = LocalityPolicy::new(matrix.clone(), machine.num_cores);
        if !thinning {
            p = p.without_initial_thinning();
        }
        execute(&workload, &layout, &mut p, machine).expect("runs")
    };
    let results = runner.run(variants.len(), |i| eval(&variants[i]));

    let mut rows = Vec::new();
    for ((label, _, _), r) in variants.iter().zip(&results) {
        rows.push(format!(
            "{label},{},{},{}",
            r.makespan_cycles, r.machine.cache.misses, r.machine.cache.conflict_misses
        ));
    }

    // A1c: LSM threshold policy — the paper's fixed mean vs the ladder.
    // The fixed-mean run needs the ladder's conflict matrix first, so
    // these two stay sequential; their candidate ladders fan internally.
    let exp = Experiment::for_workload(workload.clone(), machine).with_runner(runner);
    let (ladder, art) = exp.run_lsm().expect("runs");
    rows.push(format!(
        "lsm_ladder,{},{},{}",
        ladder.makespan_cycles, ladder.machine.cache.misses, ladder.machine.cache.conflict_misses
    ));
    let mean = art.conflicts.mean_all_pairs();
    let (fixed_run, _) = exp
        .clone()
        .with_relayout_threshold(mean)
        .run_lsm()
        .expect("runs");
    rows.push(format!(
        "lsm_fixed_mean,{},{},{}",
        fixed_run.makespan_cycles,
        fixed_run.machine.cache.misses,
        fixed_run.machine.cache.conflict_misses
    ));
    // Baselines for reference.
    for kind in [PolicyKind::Random, PolicyKind::Locality] {
        let r = exp.run(kind).expect("runs");
        rows.push(format!(
            "baseline_{},{},{},{}",
            kind, r.makespan_cycles, r.machine.cache.misses, r.machine.cache.conflict_misses
        ));
    }

    println!(
        "{}",
        csv_table("variant,cycles,misses,conflict_misses", &rows)
    );
}
