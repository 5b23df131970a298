//! Regenerates **Figure 6** of the paper: execution times of the six
//! applications scheduled *in isolation* under RS, RRS, LS and LSM.
//!
//! ```text
//! cargo run --release -p lams-bench --bin fig6 -- \
//!     [--scale tiny|small|paper|large|huge] [--threads N] \
//!     [--bus fcfs:OCC|windowed:OCC:WINDOW] \
//!     [--arrivals poisson|burst|diurnal:LOAD:SEED[:QCAP]]
//! ```
//!
//! The figure is declared as a [`ScenarioMatrix`] (one group per
//! application, one job per policy) and executed on a [`SweepRunner`];
//! `--threads N` fans the 24 jobs across N workers with bit-identical
//! output. Defaults to the `large` sweep scale now that the engine and
//! the runner make it cheap.
//!
//! Prints a CSV block (one row per application x policy) followed by an
//! ASCII bar chart shaped like the paper's figure.

use lams_bench::{bar_chart, csv_table, flag};
use lams_core::{
    ArrivalConfig, ArtifactCache, Experiment, PolicyKind, ScenarioMatrix, SweepRunner,
};
use lams_mpsoc::MachineConfig;
use lams_workloads::{suite, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = flag(&args, "--scale").unwrap_or(Scale::Large);
    let runner = SweepRunner::new(flag(&args, "--threads").unwrap_or(1));
    // It prints the conflict misses: ask for the miss split.
    let mut machine = MachineConfig::paper_default().with_explain(true);
    if let Some(bus) = flag(&args, "--bus") {
        machine = machine.with_bus(bus);
    }
    let arrivals: Option<ArrivalConfig> = flag(&args, "--arrivals");

    println!(
        "Figure 6 reproduction — isolated execution, scale {scale}, {machine}, {} thread(s)",
        runner.threads()
    );
    // Open-system axis: the marker line only appears when the flag is
    // given, so batch output stays byte-identical.
    if let Some(a) = arrivals {
        println!("arrivals {a}");
    }

    let apps = suite::all(scale);
    let labels: Vec<&str> = suite::NAMES.to_vec();
    let mut matrix = ScenarioMatrix::new();
    for app in &apps {
        let mut exp = Experiment::isolated(app, machine);
        if let Some(a) = arrivals {
            exp = exp.with_arrivals(a);
        }
        matrix.push_all(&app.name, &exp, PolicyKind::ALL);
    }
    // One artifact memo across the whole matrix: jobs sharing a
    // workload reuse compiled traces and the LS pilot. CI asserts the
    // `memo` line below reports a nonzero hit count on the Tiny smoke
    // run.
    let memo = ArtifactCache::shared();
    let reports = matrix
        .run_with_memo(&runner, &memo)
        .expect("simulation succeeds");
    // One report per app: a duplicated group label would merge reports
    // and silently misalign the rows below.
    assert_eq!(reports.len(), apps.len(), "app names must be unique");
    // Stderr, not stdout: hit/miss counts depend on how concurrent
    // workers raced on cold slots, and stdout must stay byte-identical
    // for any --threads N.
    eprintln!("memo {}", memo.stats());

    let mut rows = Vec::new();
    let mut series: Vec<(&str, Vec<f64>)> = PolicyKind::ALL
        .iter()
        .map(|k| (k.abbrev(), Vec::new()))
        .collect();
    for report in &reports {
        for (si, &kind) in PolicyKind::ALL.iter().enumerate() {
            let o = report.outcome(kind).expect("ran");
            series[si].1.push(o.result.seconds);
            let c = &o.result.machine.cache;
            rows.push(format!(
                "{},{},{},{:.6},{:.3},{},{},{}",
                report.workload(),
                kind,
                o.result.makespan_cycles,
                o.result.seconds,
                c.hit_rate() * 100.0,
                c.misses,
                c.conflict_misses,
                o.remapped_arrays,
            ));
        }
    }

    println!(
        "{}",
        csv_table(
            "app,policy,cycles,seconds,hit_rate_pct,misses,conflict_misses,remapped",
            &rows
        )
    );
    println!(
        "{}",
        bar_chart(
            "Figure 6: execution time, applications in isolation",
            &labels,
            &series,
            "s"
        )
    );
}
