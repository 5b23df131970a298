//! `lams-benchmark`: runs one workload of the repo benchmark, or all of
//! them. See `README.md` beside the manifest.

use std::process::ExitCode;

use lams_benchmark::measure::{self, Args};
use lams_benchmark::report;

const USAGE: &str = "usage: lams-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--repeat-check]
  with --workload: runs that workload once and prints its result as the last line
  without:         runs all six workloads, both passes, each in a child process";

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (|| -> Result<(Option<String>, Args, bool), String> {
        let num = |flag: &str, default: u64| match value(&argv, flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid {flag} '{v}'")),
        };
        let args = Args {
            seed: num("--seed", 1)?,
            seconds: num("--seconds", 10)?,
            trace: match num("--trace", 0)? {
                0 => false,
                1 => true,
                other => return Err(format!("invalid --trace '{other}'")),
            },
        };
        let workload = value(&argv, "--workload").map(str::to_string);
        if let Some(w) = &workload {
            if !lams_benchmark::WORKLOADS.contains(&w.as_str()) {
                return Err(format!("unknown workload '{w}'"));
            }
        }
        Ok((workload, args, argv.iter().any(|a| a == "--repeat-check")))
    })();
    let (workload, args, repeat_check) = match parsed {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match workload {
        Some(w) => {
            let result = measure::run(&w, args);
            println!("{}", result.to_json_line());
            result.correct
        }
        None if repeat_check => report::repeat_check(args),
        None => report::run_all(args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
