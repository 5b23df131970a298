//! `trace_tool` — record, replay, inspect and summarize `.ltr` traces.
//!
//! Subcommands:
//!
//! * `record  --app NAME|--mix N [--scale S] [--out FILE]` — compile a
//!   suite workload's traces into the trace IR and write an `.ltr`
//!   bundle (default `trace.ltr`).
//! * `replay  FILE [--policy rs|rrs|ls] [--cores N] [--seed N]
//!   [--quantum N]` — read a bundle and run it through the scheduling
//!   engine, printing a deterministic report.
//! * `run     --app NAME|--mix N [--scale S] [--policy ...] …` — the
//!   same simulation driven directly from the workload (no file); its
//!   report is byte-identical to `record` + `replay` of the same
//!   scenario, which CI diffs.
//! * `inspect FILE [--proc I] [--limit N]` — dump a program's decoded
//!   ops in the `R 0x… / W 0x… / C n` text form of `TraceOp`'s
//!   `Display`.
//! * `stats   FILE` — per-process op counts, the blocks of one pass and
//!   the pass count, and the IR's compression ratio: decoded ops per
//!   stored block.
//!
//! # Error handling
//!
//! Every subcommand returns `Result`: malformed flags and unknown names
//! are *usage* errors (exit 2, with the usage text), while I/O,
//! truncated/corrupt bundles and engine failures are *runtime* errors
//! (exit 1) — always a contextful one-line message on stderr, never a
//! panic backtrace.

use std::fmt::Display;
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;

use lams_core::{execute, execute_bundle, Policy, PolicyKind, RunResult, SharingMatrix};
use lams_layout::Layout;
use lams_mpsoc::MachineConfig;
use lams_trace::TraceBundle;
use lams_workloads::{suite, Scale, Workload};

use lams_bench::{flag_value, try_flag};

/// A failed subcommand: usage errors reprint the usage text and exit 2,
/// runtime errors exit 1. Both print `error: <context>` on stderr.
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    fn runtime(msg: impl Into<String>) -> Self {
        CliError::Runtime(msg.into())
    }
}

type CliResult<T> = Result<T, CliError>;

const USAGE: &str = "usage: trace_tool <record|replay|run|inspect|stats> ...\n\
                     \n\
                     record  --app NAME|--mix N [--scale S] [--out FILE]\n\
                     replay  FILE [--policy rs|rrs|ls] [--cores N] [--seed N] [--quantum N]\n\
                     run     --app NAME|--mix N [--scale S] [--policy rs|rrs|ls] [--cores N] [--seed N] [--quantum N]\n\
                     inspect FILE [--proc I] [--limit N]\n\
                     stats   FILE";

/// `--name VALUE` parsed as a `T`: the default when absent, a usage
/// error when present but malformed (a typo must not silently run the
/// default).
fn parsed_flag<T: FromStr>(args: &[String], name: &str, default: T) -> CliResult<T>
where
    T::Err: Display,
{
    Ok(try_flag(args, name)
        .map_err(CliError::usage)?
        .unwrap_or(default))
}

/// The workload named by `--app`/`--mix` at `--scale`.
fn workload_from_args(args: &[String]) -> CliResult<Workload> {
    let scale = parsed_flag(args, "--scale", Scale::Small)?;
    if let Some(name) = flag_value(args, "--app") {
        let app = suite::by_name(name, scale)
            .ok_or_else(|| CliError::usage(format!("unknown --app '{name}'")))?;
        return Workload::single(app)
            .map_err(|e| CliError::runtime(format!("building workload '{name}': {e}")));
    }
    if let Some(t) = try_flag::<usize>(args, "--mix").map_err(CliError::usage)? {
        if !(1..=suite::NAMES.len()).contains(&t) {
            return Err(CliError::usage(format!(
                "--mix must be in 1..={}, got {t}",
                suite::NAMES.len()
            )));
        }
        return Workload::concurrent(suite::mix(t, scale))
            .map_err(|e| CliError::runtime(format!("building mix |T|={t}: {e}")));
    }
    Err(CliError::usage("need --app NAME or --mix N"))
}

fn machine_from_args(args: &[String]) -> CliResult<MachineConfig> {
    let cores = parsed_flag(args, "--cores", 8usize)?;
    if cores == 0 {
        return Err(CliError::usage("--cores must be at least 1"));
    }
    // The report prints the miss split: ask for it.
    Ok(MachineConfig::paper_default()
        .with_cores(cores)
        .with_explain(true))
}

/// Builds the requested policy; `sharing` supplies LS's matrix (from
/// the workload when running directly, from the bundle when replaying —
/// identical for recorded bundles, see `SharingMatrix::from_bundle`).
/// LSM is refused: a trace has no symbolic arrays to re-layout.
fn policy_from_args(
    args: &[String],
    sharing: impl FnOnce() -> SharingMatrix,
) -> CliResult<Box<dyn Policy>> {
    let cores = parsed_flag(args, "--cores", 8usize)?.max(1);
    let seed = parsed_flag(args, "--seed", 12_345u64)?;
    let quantum = parsed_flag(args, "--quantum", 50_000u64)?;
    let name = flag_value(args, "--policy").unwrap_or("ls");
    match name.parse::<PolicyKind>() {
        Ok(kind) if kind != PolicyKind::LocalityMap => {
            Ok(kind.scheduler(seed, quantum, cores, || Arc::new(sharing())))
        }
        _ => Err(CliError::usage(format!(
            "unknown --policy '{name}' (expected rs|rrs|ls)"
        ))),
    }
}

/// Deterministic report shared by `run` and `replay` — CI diffs these
/// byte-for-byte, so it must not mention where the traces came from.
fn print_report(name: &str, policy: &str, machine: &MachineConfig, r: &RunResult) {
    println!("workload {name}");
    println!("policy   {policy} on {} cores", machine.num_cores);
    println!("makespan {} cycles ({:.6} s)", r.makespan_cycles, r.seconds);
    println!(
        "cache    hits {} misses {} (cold {} capacity {} conflict {})",
        r.machine.cache.hits,
        r.machine.cache.misses,
        r.machine.cache.cold_misses,
        r.machine.cache.capacity_misses,
        r.machine.cache.conflict_misses
    );
    println!("busy     {} cycles", r.machine.total_busy_cycles);
    for (c, seq) in r.core_sequences.iter().enumerate() {
        let seq: Vec<String> = seq.iter().map(|p| p.to_string()).collect();
        println!("core {c}: {}", seq.join(" "));
    }
    for (pid, e) in &r.processes {
        println!(
            "proc {pid}: core {} start {} finish {} dispatches {}",
            e.core, e.start, e.finish, e.dispatches
        );
    }
}

fn read_bundle(path: &str) -> CliResult<TraceBundle> {
    TraceBundle::read_file(path).map_err(|e| CliError::runtime(format!("reading {path}: {e}")))
}

/// First positional (non-flag) argument: the bundle path of
/// `replay`/`inspect`/`stats`.
fn path_arg<'a>(args: &'a [String], cmd: &str) -> CliResult<&'a str> {
    args.first()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::usage(format!("{cmd} needs a FILE argument")))
}

fn cmd_record(rest: &[String]) -> CliResult<()> {
    let w = workload_from_args(rest)?;
    let layout = Layout::linear(w.arrays());
    let out = flag_value(rest, "--out").unwrap_or("trace.ltr");
    let bundle = w.record(&layout);
    let bytes = bundle.to_bytes();
    std::fs::write(out, &bytes).map_err(|e| CliError::runtime(format!("writing {out}: {e}")))?;
    eprintln!(
        "recorded {}: {} processes, {} edges, {} ops -> {} bytes ({:.2} bits/op)",
        out,
        bundle.records.len(),
        bundle.edges.len(),
        bundle.total_ops(),
        bytes.len(),
        bytes.len() as f64 * 8.0 / bundle.total_ops().max(1) as f64
    );
    Ok(())
}

fn cmd_replay(rest: &[String]) -> CliResult<()> {
    let path = path_arg(rest, "replay")?;
    let bundle = read_bundle(path)?;
    let machine = machine_from_args(rest)?;
    let mut policy = policy_from_args(rest, || SharingMatrix::from_bundle(&bundle))?;
    let r = execute_bundle(&bundle, policy.as_mut(), machine)
        .map_err(|e| CliError::runtime(format!("replaying {path}: {e}")))?;
    print_report(&bundle.name, policy.name(), &machine, &r);
    Ok(())
}

fn cmd_run(rest: &[String]) -> CliResult<()> {
    let w = workload_from_args(rest)?;
    let layout = Layout::linear(w.arrays());
    let machine = machine_from_args(rest)?;
    let mut policy = policy_from_args(rest, || SharingMatrix::from_workload(&w))?;
    let r = execute(&w, &layout, policy.as_mut(), machine)
        .map_err(|e| CliError::runtime(format!("simulating {}: {e}", w.name())))?;
    print_report(w.name(), policy.name(), &machine, &r);
    Ok(())
}

fn cmd_inspect(rest: &[String]) -> CliResult<()> {
    let path = path_arg(rest, "inspect")?;
    let bundle = read_bundle(path)?;
    let limit: u64 = parsed_flag(rest, "--limit", 64u64)?;
    let only: Option<usize> = try_flag(rest, "--proc").map_err(CliError::usage)?;
    if let Some(p) = only {
        if p >= bundle.records.len() {
            return Err(CliError::runtime(format!(
                "{path} has {} processes, --proc {p} is out of range",
                bundle.records.len()
            )));
        }
    }
    for (i, rec) in bundle.records.iter().enumerate() {
        if only.is_some_and(|p| p != i) {
            continue;
        }
        println!(
            "# proc {i} {} ({} ops, {} blocks x {} passes)",
            rec.name,
            rec.program.len_ops(),
            rec.program.blocks().len(),
            rec.program.passes()
        );
        for op in rec.program.iter().take(limit as usize) {
            println!("{op}");
        }
        if rec.program.len_ops() > limit {
            println!("# ... {} more ops", rec.program.len_ops() - limit);
        }
    }
    Ok(())
}

fn cmd_stats(rest: &[String]) -> CliResult<()> {
    let path = path_arg(rest, "stats")?;
    let bundle = read_bundle(path)?;
    println!(
        "bundle {} ({} processes, {} edges, {} ops)",
        bundle.name,
        bundle.records.len(),
        bundle.edges.len(),
        bundle.total_ops()
    );
    for (i, rec) in bundle.records.iter().enumerate() {
        let s = rec.program.stats();
        println!(
            "proc {i} {}: ops {} (accesses {} writes {} compute_cycles {}), {} blocks x {} passes, {:.1}x compression",
            rec.name,
            rec.program.len_ops(),
            s.accesses,
            s.writes,
            s.compute_cycles,
            rec.program.blocks().len(),
            rec.program.passes(),
            rec.program.len_ops() as f64 / rec.program.blocks().len().max(1) as f64
        );
    }
    Ok(())
}

fn dispatch(args: &[String]) -> CliResult<()> {
    let Some(cmd) = args.first().map(String::as_str) else {
        return Err(CliError::usage("missing subcommand"));
    };
    let rest = &args[1..];
    match cmd {
        "record" => cmd_record(rest),
        "replay" => cmd_replay(rest),
        "run" => cmd_run(rest),
        "inspect" => cmd_inspect(rest),
        "stats" => cmd_stats(rest),
        _ => Err(CliError::usage(format!("unknown subcommand '{cmd}'"))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => {}
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            exit(2);
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            exit(1);
        }
    }
}
