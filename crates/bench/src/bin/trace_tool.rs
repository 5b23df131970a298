//! `trace_tool` — record, replay, inspect and summarize `.ltr` traces.
//!
//! Subcommands:
//!
//! * `record  --app NAME|--mix N [--scale S] [--out FILE]` — compile a
//!   suite workload's traces into the trace IR and write an `.ltr`
//!   bundle (default `trace.ltr`).
//! * `run     --app NAME|--mix N [--scale S] [SCENARIO]` and
//!   `replay  FILE [SCENARIO]` — simulate one [`Scenario`]: a suite
//!   workload compiled on the spot, or a recorded bundle. Both print
//!   the same deterministic report, and `run` is byte-identical to
//!   `record` + `replay` of the same scenario, which CI diffs.
//!   `SCENARIO` is any of `--policy rs|rrs|ls`, `--cores N`,
//!   `--cache SIZE:ASSOC:LINE`, `--quantum CYCLES`, `--seed N`,
//!   `--bus SPEC`, `--deadline CYCLES` and `--arrivals SPEC`: the keys
//!   of a `lams-serve` request line, with the same meaning and the same
//!   checks, read by the same reader ([`Fields::from_flags`]). A flag
//!   outside its subcommand's keys, one without a value, a repeated
//!   flag and a positional argument other than FILE are usage errors:
//!   a typo never runs the defaults.
//!   `trace_tool` defaults to `--scale small --policy ls --seed 12345
//!   --quantum 50000` and asks for the miss split, which its report
//!   prints.
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
//! panic backtrace. Output goes through [`emit()`], so a closed stdout
//! (`| head -1`) ends the tool quietly with status 0.

use std::process::exit;

use lams_core::{
    ArtifactCache, Error, FieldError, Fields, Loaded, PolicyKind, RunResult, Scenario,
};
use lams_layout::Layout;
use lams_mpsoc::MachineConfig;
use lams_trace::TraceBundle;

use lams_bench::{emit, flag_error};

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
                     replay  FILE [SCENARIO]\n\
                     run     --app NAME|--mix N [--scale S] [SCENARIO]\n\
                     inspect FILE [--proc I] [--limit N]\n\
                     stats   FILE\n\
                     \n\
                     SCENARIO: [--policy rs|rrs|ls] [--cores N] [--cache SIZE:ASSOC:LINE]\n\
                     \x20         [--quantum CYCLES] [--seed N] [--deadline CYCLES]\n\
                     \x20         [--bus fcfs:OCC|windowed:OCC:WIN]\n\
                     \x20         [--arrivals poisson|burst|diurnal:LOAD:SEED[:QCAP]]\n\
                     defaults: --scale small --policy ls --seed 12345 --quantum 50000\n\
                     Each flag is given at most once; FILE is the only positional.";

/// Renders a refused flag of verb `cmd` as a usage error.
fn usage(cmd: &str) -> impl Fn(FieldError) -> CliError + Copy + '_ {
    move |e| CliError::usage(flag_error(cmd, e))
}

/// The FILE a verb takes first, when one is there, and the flags after
/// it.
fn split_file(args: &[String]) -> (Option<&str>, &[String]) {
    match args.split_first() {
        Some((file, rest)) if !file.starts_with("--") => (Some(file), rest),
        _ => (None, args),
    }
}

fn need_file<'a>(cmd: &str, file: Option<&'a str>) -> CliResult<&'a str> {
    file.ok_or_else(|| CliError::usage(format!("{cmd} needs a FILE argument")))
}

/// The scenario `cmd`'s arguments name, with `record`'s `--out`. The
/// flags are the keys of [`Scenario::KEYS`] but `file`, which `replay`
/// takes as its first argument; `trace_tool`'s own defaults fill the
/// keys they leave out.
fn scenario_from_args<'a>(cmd: &str, args: &'a [String]) -> CliResult<(Scenario, Option<&'a str>)> {
    let (file, args) = match cmd {
        "replay" => split_file(args),
        _ => (None, args),
    };
    let mut known: Vec<&str> = Scenario::KEYS
        .into_iter()
        .filter(|&k| k != "file")
        .collect();
    if cmd == "record" {
        known.push("out");
    }
    let mut fields = Fields::from_flags(args, &known).map_err(usage(cmd))?;
    let out = fields.take("out");
    match file {
        Some(path) => fields.set("file", path),
        None if cmd == "replay" => return Err(CliError::usage("replay needs a FILE argument")),
        None if !fields.contains("scale") => fields.set("scale", "small"),
        None => {}
    }
    for (key, value) in [("policy", "ls"), ("seed", "12345"), ("quantum", "50000")] {
        if !fields.contains(key) {
            fields.set(key, value);
        }
    }
    let scenario = Scenario::from_fields(&mut fields, file.is_some()).map_err(usage(cmd))?;
    fields.finish().map_err(usage(cmd))?;
    Ok((scenario, out))
}

/// A scenario that failed to load or run: an unknown `--app` is a
/// usage error, the rest are runtime errors naming the scenario.
fn run_error(cmd: &str, scenario: &Scenario, e: Error) -> CliError {
    match e {
        Error::UnknownApp(name) => CliError::usage(format!("unknown --app '{name}'")),
        e => CliError::runtime(format!("{cmd} {scenario}: {e}")),
    }
}

/// Deterministic report shared by `run` and `replay` — CI diffs these
/// byte-for-byte, so it must not mention where the traces came from.
fn print_report(name: &str, policy: &str, machine: &MachineConfig, r: &RunResult) {
    emit!("workload {name}");
    emit!("policy   {policy} on {} cores", machine.num_cores);
    emit!("makespan {} cycles ({:.6} s)", r.makespan_cycles, r.seconds);
    emit!(
        "cache    hits {} misses {} (cold {} capacity {} conflict {})",
        r.machine.cache.hits,
        r.machine.cache.misses,
        r.machine.cache.cold_misses,
        r.machine.cache.capacity_misses,
        r.machine.cache.conflict_misses
    );
    emit!("busy     {} cycles", r.machine.total_busy_cycles);
    for (c, seq) in r.core_sequences.iter().enumerate() {
        let seq: Vec<String> = seq.iter().map(|p| p.to_string()).collect();
        emit!("core {c}: {}", seq.join(" "));
    }
    for (pid, e) in &r.processes {
        emit!(
            "proc {pid}: core {} start {} finish {} dispatches {}",
            e.core,
            e.start,
            e.finish,
            e.dispatches
        );
    }
}

fn read_bundle(path: &str) -> CliResult<TraceBundle> {
    TraceBundle::read_file(path).map_err(|e| CliError::runtime(format!("reading {path}: {e}")))
}

fn cmd_record(rest: &[String]) -> CliResult<()> {
    let (scenario, out) = scenario_from_args("record", rest)?;
    let loaded = scenario.source.load();
    let Loaded::Workload(w) = loaded.map_err(|e| run_error("record", &scenario, e))? else {
        return Err(CliError::usage("record needs --app NAME or --mix N"));
    };
    let layout = Layout::linear(w.arrays());
    let out = out.unwrap_or("trace.ltr");
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

/// `run` and `replay`: one scenario, one report.
fn cmd_simulate(cmd: &str, rest: &[String]) -> CliResult<()> {
    let (scenario, _) = scenario_from_args(cmd, rest)?;
    // A bundle cannot run LSM, and `run` must print what `replay` of
    // its recording prints.
    if scenario.policy == PolicyKind::LocalityMap {
        return Err(CliError::usage(
            "unknown --policy 'lsm' (expected rs|rrs|ls)",
        ));
    }
    // The report prints the miss split: ask for it.
    let machine = scenario.machine().with_explain(true);
    let (name, r) = scenario
        .run(machine, &ArtifactCache::disabled())
        .map_err(|e| run_error(cmd, &scenario, e))?;
    print_report(&name, scenario.policy.abbrev(), &machine, &r);
    Ok(())
}

fn cmd_inspect(rest: &[String]) -> CliResult<()> {
    let (file, rest) = split_file(rest);
    let path = need_file("inspect", file)?;
    let mut fields = Fields::from_flags(rest, &["proc", "limit"]).map_err(usage("inspect"))?;
    let bundle = read_bundle(path)?;
    let limit: u64 = fields
        .parsed("limit")
        .map_err(usage("inspect"))?
        .unwrap_or(64);
    let only: Option<usize> = fields.parsed("proc").map_err(usage("inspect"))?;
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
        emit!(
            "# proc {i} {} ({} ops, {} blocks x {} passes)",
            rec.name,
            rec.program.len_ops(),
            rec.program.blocks().len(),
            rec.program.passes()
        );
        for op in rec.program.iter().take(limit as usize) {
            emit(op);
        }
        if rec.program.len_ops() > limit {
            emit!("# ... {} more ops", rec.program.len_ops() - limit);
        }
    }
    Ok(())
}

fn cmd_stats(rest: &[String]) -> CliResult<()> {
    let (file, rest) = split_file(rest);
    let path = need_file("stats", file)?;
    Fields::from_flags(rest, &[]).map_err(usage("stats"))?;
    let bundle = read_bundle(path)?;
    emit!(
        "bundle {} ({} processes, {} edges, {} ops)",
        bundle.name,
        bundle.records.len(),
        bundle.edges.len(),
        bundle.total_ops()
    );
    for (i, rec) in bundle.records.iter().enumerate() {
        let s = rec.program.stats();
        emit!(
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
        "replay" | "run" => cmd_simulate(cmd, rest),
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
