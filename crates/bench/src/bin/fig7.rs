//! Regenerates **Figure 7** of the paper: overall completion times of
//! *concurrent* application mixes `|T| = 1..6` under RS, RRS, LS, LSM.
//!
//! `|T| = t` runs the first `t` Table 1 applications concurrently
//! (Med-Im04; +MxM; +Radar; …), exactly the paper's cumulative setup.
//!
//! ```text
//! cargo run --release -p lams-bench --bin fig7 -- \
//!     [--scale tiny|small|paper|large|huge] [--threads N] \
//!     [--bus fcfs:OCC|windowed:OCC:WINDOW] \
//!     [--arrivals poisson|burst|diurnal:LOAD:SEED[:QCAP]]
//! ```
//!
//! The six mixes × four policies are declared as a [`ScenarioMatrix`]
//! and executed on a [`SweepRunner`]; `--threads N` fans the jobs across
//! N workers with bit-identical output. Defaults to the `large` sweep
//! scale.

use lams_bench::{bar_chart, csv_table, flag};
use lams_core::{ArrivalConfig, Experiment, PolicyKind, ScenarioMatrix, SweepRunner};
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
        "Figure 7 reproduction — concurrent execution, scale {scale}, {machine}, {} thread(s)",
        runner.threads()
    );
    // Open-system axis: the marker line only appears when the flag is
    // given, so batch output stays byte-identical.
    if let Some(a) = arrivals {
        println!("arrivals {a}");
    }

    let labels = ["|T|=1", "|T|=2", "|T|=3", "|T|=4", "|T|=5", "|T|=6"];
    let mut matrix = ScenarioMatrix::new();
    for t in 1..=6usize {
        let mix = suite::mix(t, scale);
        let mut exp = Experiment::concurrent(&mix, machine);
        if let Some(a) = arrivals {
            exp = exp.with_arrivals(a);
        }
        matrix.push_all(labels[t - 1], &exp, PolicyKind::ALL);
    }
    let reports = matrix.run(&runner).expect("simulation succeeds");
    // One report per |T| point: a duplicated group label would merge
    // reports and silently misalign the rows below.
    assert_eq!(reports.len(), labels.len(), "mix labels must be unique");

    let mut rows = Vec::new();
    let mut series: Vec<(&str, Vec<f64>)> = PolicyKind::ALL
        .iter()
        .map(|k| (k.abbrev(), Vec::new()))
        .collect();
    for (t, report) in (1..=6usize).zip(&reports) {
        for (si, &kind) in PolicyKind::ALL.iter().enumerate() {
            let o = report.outcome(kind).expect("ran");
            series[si].1.push(o.result.seconds);
            let c = &o.result.machine.cache;
            rows.push(format!(
                "{t},{},{},{:.6},{:.3},{},{},{}",
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
            "num_tasks,policy,cycles,seconds,hit_rate_pct,misses,conflict_misses,remapped",
            &rows
        )
    );
    println!(
        "{}",
        bar_chart(
            "Figure 7: completion time, concurrent application mixes",
            &labels,
            &series,
            "s"
        )
    );
}
