//! Whole-benchmark modes for people: every workload and both passes,
//! each in a child process of its own so that set-up time and peak
//! memory are per workload, and the repeatability check.

use std::process::Command;

use crate::measure::Args;
use crate::metrics::{END_TO_END, SIMULATED};
use crate::WORKLOADS;

/// What a child run printed as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    /// The `correct` field.
    pub correct: bool,
    /// `(name, value, unit)` per metric, in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

/// Reads a result line written by `RunOutput::to_json_line` (this
/// harness's own fixed format, not general JSON).
pub fn parse_result_line(line: &str) -> Option<ChildResult> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut metrics = Vec::new();
    for entry in body.split("\"}") {
        let Some((name, rest)) = entry.rsplit_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.rsplit_once('"')?.1;
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
    }
    Some(ChildResult { correct, metrics })
}

/// Runs one workload pass in a child process, echoing its `info` lines.
fn child(workload: &str, args: Args, trace: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("info ")) {
        println!("  {line}");
    }
    parse_result_line(stdout.lines().last()?)
}

fn print_metrics(result: &ChildResult, skip_zero: bool) {
    for (name, value, unit) in &result.metrics {
        if !(skip_zero && *value == 0.0) {
            println!("  {name:<34} {value:>18.6} {unit}");
        }
    }
}

/// Runs all six workloads, both passes, and prints every metric by name
/// and unit. Per-layer metrics of layers a workload leaves idle read 0
/// and are not listed.
pub fn run_all(args: Args) -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let pass = if trace { "traced" } else { "untraced" };
            println!("== {workload} ({pass} pass)");
            match child(workload, args, trace) {
                Some(result) => {
                    print_metrics(&result, trace);
                    println!("  correct={}", result.correct);
                    ok &= result.correct;
                }
                None => {
                    println!("  the child printed no result");
                    ok = false;
                }
            }
        }
    }
    ok
}

/// How much worse `second` is than `first`, as a share of `first`.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        first - second
    } else {
        second - first
    };
    delta / first.abs()
}

/// Runs the untraced set twice back to back, under one seed, and fails
/// if any end-to-end metric of the second set is worse than the first
/// by more than its bound, or differs at all for a simulated metric.
pub fn repeat_check(args: Args) -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        println!("== {workload}");
        let (Some(first), Some(second)) =
            (child(workload, args, false), child(workload, args, false))
        else {
            println!("  a child printed no result");
            ok = false;
            continue;
        };
        ok &= first.correct && second.correct;
        for m in END_TO_END {
            let value = |r: &ChildResult| {
                r.metrics
                    .iter()
                    .find(|(name, _, _)| name == m.name)
                    .map(|&(_, v, _)| v)
            };
            let (Some(a), Some(b)) = (value(&first), value(&second)) else {
                println!("  {:<22} missing", m.name);
                ok = false;
                continue;
            };
            let holds = if SIMULATED.contains(&m.name) {
                a == b
            } else {
                worsening(a, b, m.higher_is_better) <= m.bound
            };
            println!(
                "  {:<22} {a:>16.6} {b:>16.6} {:>+8.2}% (bound {}%) {}",
                m.name,
                100.0 * (b - a) / a.abs(),
                100.0 * m.bound,
                if holds { "ok" } else { "FAIL" }
            );
            ok &= holds;
        }
    }
    ok
}
