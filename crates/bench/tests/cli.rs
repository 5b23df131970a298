//! Command-line handling of the harness binaries: a malformed flag
//! value or an unknown flag must exit 2 before any simulation runs,
//! never fall back to a default and run another configuration; a closed
//! stdout ends a binary quietly; and a figure row is the scenario
//! `trace_tool run` reproduces.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs binary `bin` with `args` and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_flag_values_exit_2() {
    let cases: [(&str, &[&str]); 10] = [
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--scale", "tiny", "--tasks", "x"],
        ),
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--scale", "tiny", "--bus", "fcfs"],
        ),
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["--scale", "tiny", "--threads", "x"],
        ),
        (env!("CARGO_BIN_EXE_fig6"), &["--scale", "smal"]),
        (
            env!("CARGO_BIN_EXE_fig7"),
            &["--scale", "tiny", "--arrivals", "poisson:0.8"],
        ),
        (
            env!("CARGO_BIN_EXE_ablation"),
            &["--scale", "tiny", "--tasks", "-1"],
        ),
        (env!("CARGO_BIN_EXE_table1"), &["--scale", "x"]),
        (env!("CARGO_BIN_EXE_table2"), &["--threads", "x"]),
        (
            env!("CARGO_BIN_EXE_trace_tool"),
            &["run", "--app", "shape", "--scale", "x"],
        ),
        // The bus axis doubles the occupancy.
        (
            env!("CARGO_BIN_EXE_sweep"),
            &[
                "--scale",
                "tiny",
                "--bus",
                "windowed:9223372036854775808:256",
            ],
        ),
    ];
    for (bin, args) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: bad --"),
            "{bin} {args:?}: {stderr}"
        );
    }
    // A mix size the suite cannot fill names its flag and bound, as the
    // wire refuses `mix=0` and `mix=7`.
    let out_of_range: [(&str, &[&str], &str); 2] = [
        (
            env!("CARGO_BIN_EXE_ablation"),
            &["--scale", "tiny", "--tasks", "0"],
            "error: --tasks must be at least 1\n",
        ),
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--scale", "tiny", "--tasks", "7"],
            "error: --tasks must be at most 6\n",
        ),
    ];
    for (bin, args, want) in out_of_range {
        let (code, stderr) = run(bin, args);
        assert_eq!((code, stderr.as_str()), (Some(2), want), "{bin} {args:?}");
    }
}

#[test]
fn every_binary_refuses_a_flag_it_does_not_read() {
    let cases: [(&str, &[&str], &str); 25] = [
        (
            env!("CARGO_BIN_EXE_fig2a"),
            &["--scale", "tiny"],
            "fig2a takes no --scale",
        ),
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["--quantun", "5"],
            "fig6 takes no --quantun",
        ),
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["--scale", "tiny", "--tasks", "2"],
            "fig6 takes no --tasks",
        ),
        (
            env!("CARGO_BIN_EXE_fig7"),
            &["--scal", "tiny"],
            "fig7 takes no --scal",
        ),
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--scale", "tiny", "--cache", "4096:2:32"],
            "sweep takes no --cache",
        ),
        (
            env!("CARGO_BIN_EXE_ablation"),
            &["--scale", "tiny", "--bus", "fcfs:20"],
            "ablation takes no --bus",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--scale", "tiny", "--tasks", "2"],
            "table1 takes no --tasks",
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--scale", "tiny"],
            "table2 takes no --scale",
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--threads", "2", "--help"],
            "table2 takes no --help",
        ),
        // `fig2a` reads no flag, so a repeated one is refused by name.
        (
            env!("CARGO_BIN_EXE_fig2a"),
            &["--threads", "1", "--threads", "1"],
            "fig2a takes no --threads",
        ),
        (
            env!("CARGO_BIN_EXE_fig2a"),
            &["tiny"],
            "fig2a takes no argument 'tiny'",
        ),
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["--scale", "tiny", "--scale", "small"],
            "--scale is given twice",
        ),
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["tiny", "--scale", "tiny"],
            "fig6 takes no argument 'tiny'",
        ),
        (
            env!("CARGO_BIN_EXE_fig7"),
            &["--scale", "tiny", "--threads", "1", "--threads", "2"],
            "--threads is given twice",
        ),
        (
            env!("CARGO_BIN_EXE_fig7"),
            &["--scale", "tiny", "small"],
            "fig7 takes no argument 'small'",
        ),
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--scale", "tiny", "--tasks", "2", "--tasks", "3"],
            "--tasks is given twice",
        ),
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--scale", "tiny", "--", "2"],
            "sweep takes no --",
        ),
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--scale", "tiny", "-tasks", "2"],
            "sweep takes no argument '-tasks'",
        ),
        (
            env!("CARGO_BIN_EXE_ablation"),
            &["--scale", "tiny", "--scale", "tiny"],
            "--scale is given twice",
        ),
        (
            env!("CARGO_BIN_EXE_ablation"),
            &["--scale", "tiny", "4"],
            "ablation takes no argument '4'",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--scale", "tiny", "--scale", "small"],
            "--scale is given twice",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["small"],
            "table1 takes no argument 'small'",
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--threads", "1", "--threads", "4"],
            "--threads is given twice",
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["bogus"],
            "table2 takes no argument 'bogus'",
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--threads", "2", "bogus"],
            "table2 takes no argument 'bogus'",
        ),
    ];
    for (bin, args, msg) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert_eq!(stderr, format!("error: {msg}\n"), "{bin} {args:?}");
    }
}

#[test]
fn a_closed_stdout_ends_a_binary_quietly() {
    let bundle = std::env::temp_dir().join(format!("lams_cli_test_{}.ltr", std::process::id()));
    let bundle = bundle.to_str().expect("UTF-8 temp path");
    // Small Shape decodes to about 150 KB of ops, more than a pipe holds.
    report(&[
        "record", "--app", "shape", "--scale", "small", "--out", bundle,
    ]);
    let cases: [(&str, &[&str]); 3] = [
        (
            env!("CARGO_BIN_EXE_trace_tool"),
            &["inspect", bundle, "--limit", "100000"],
        ),
        (env!("CARGO_BIN_EXE_fig6"), &["--scale", "tiny"]),
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--scale", "tiny", "--tasks", "2"],
        ),
    ];
    for (bin, args) in cases {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut first = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut first)
            .expect("one line");
        assert!(!first.is_empty(), "{bin} {args:?} printed nothing");
        // The reader is dropped here: the rest of the output meets a
        // closed pipe.
        let out = child.wait_with_output().expect("binary ends");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
    std::fs::remove_file(bundle).ok();
}

#[test]
fn a_flag_without_a_value_exits_2() {
    let cases: [(&str, &[&str], &str); 4] = [
        (env!("CARGO_BIN_EXE_fig6"), &["--scale"], "--scale"),
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--threads", "--scale", "tiny"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_trace_tool"),
            &["run", "--app", "shape", "--scale", "tiny", "--quantum"],
            "--quantum",
        ),
        (
            env!("CARGO_BIN_EXE_trace_tool"),
            &["record", "--app", "shape", "--scale", "tiny", "--out"],
            "--out",
        ),
    ];
    for (bin, args, flag) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        let msg = format!("error: {flag} needs a value\n");
        assert!(stderr.starts_with(&msg), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn trace_tool_refuses_a_flag_its_verb_does_not_read() {
    for (args, msg) in [
        (
            &["run", "--app", "shape", "--scale", "tiny", "--quantun", "5"][..],
            "error: run takes no --quantun\n",
        ),
        (
            &["replay", "absent.ltr", "--policy", "rs", "--seeed", "3"],
            "error: replay takes no --seeed\n",
        ),
        (
            &["run", "--app", "shape", "--scale", "tiny", "--out", "t.ltr"],
            "error: run takes no --out\n",
        ),
        (
            &["stats", "absent.ltr", "--limit", "3"],
            "error: stats takes no --limit\n",
        ),
        (
            &[
                "record", "--app", "shape", "--scale", "tiny", "--app", "track",
            ],
            "error: --app is given twice\n",
        ),
        (
            &["record", "t.ltr", "--app", "shape", "--scale", "tiny"],
            "error: record takes no argument 't.ltr'\n",
        ),
        (
            &[
                "run",
                "--app",
                "shape",
                "--scale",
                "tiny",
                "--quantum",
                "1000",
                "--quantum",
                "5",
            ],
            "error: --quantum is given twice\n",
        ),
        (
            &["run", "--app", "shape", "tiny", "--scale", "tiny"],
            "error: run takes no argument 'tiny'\n",
        ),
        (
            &["replay", "absent.ltr", "--policy", "rs", "--policy", "ls"],
            "error: --policy is given twice\n",
        ),
        (
            &["replay", "a.ltr", "b.ltr"],
            "error: replay takes no argument 'b.ltr'\n",
        ),
        (
            &["inspect", "absent.ltr", "--limit", "1", "--limit", "2"],
            "error: --limit is given twice\n",
        ),
        (
            &["inspect", "a.ltr", "--proc", "0", "b.ltr"],
            "error: inspect takes no argument 'b.ltr'\n",
        ),
        (
            &["stats", "absent.ltr", "--proc", "0", "--proc", "0"],
            "error: stats takes no --proc\n",
        ),
        (
            &["stats", "a.ltr", "b.ltr"],
            "error: stats takes no argument 'b.ltr'\n",
        ),
    ] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_trace_tool"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(msg), "{args:?}: {stderr}");
    }
}

#[test]
fn trace_tool_refuses_lsm() {
    let args = [
        "run", "--app", "shape", "--scale", "tiny", "--policy", "lsm",
    ];
    let (code, stderr) = run(env!("CARGO_BIN_EXE_trace_tool"), &args);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: unknown --policy 'lsm' (expected rs|rrs|ls)\n"),
        "{stderr}"
    );
}

#[test]
fn trace_tool_refuses_the_counts_the_wire_refuses() {
    for (flag, value, msg) in [
        ("--quantum", "0", "error: --quantum must be at least 1\n"),
        ("--cores", "1025", "error: --cores must be at most 1024\n"),
    ] {
        let args = [
            "run", "--app", "shape", "--scale", "tiny", "--policy", "rrs", flag, value,
        ];
        let (code, stderr) = run(env!("CARGO_BIN_EXE_trace_tool"), &args);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.starts_with(msg), "{flag} {value}: {stderr}");
    }
}

/// `trace_tool`'s report under `args`.
fn report(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(args)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{args:?}");
    String::from_utf8(out.stdout).expect("UTF-8 report")
}

#[test]
fn trace_tool_keeps_its_own_seed_and_quantum() {
    // RS reads the seed; RRS at Tiny finishes every process inside
    // either quantum, so the quantum is checked at Small.
    for (scale, policy, key, own, wire) in [
        ("tiny", "rs", "--seed", "12345", "0"),
        ("small", "rrs", "--quantum", "50000", "10000"),
    ] {
        let base = [
            "run", "--app", "shape", "--scale", scale, "--policy", policy,
        ];
        let with = |v: &'static str| report(&[&base[..], &[key, v]].concat());
        let default = report(&base);
        assert_eq!(default, with(own), "{policy} {key}");
        assert_ne!(default, with(wire), "{policy} {key}");
    }
}

/// `(cycles, misses)` of the sweep row under `label` for `policy`.
fn sweep_row(sweep: &str, label: &str, policy: &str) -> (u64, u64) {
    let mut rows = sweep.lines().skip_while(|l| *l != label).skip(1);
    let row = rows
        .find(|r| r.split(',').nth(4) == Some(policy))
        .unwrap_or_else(|| panic!("no {policy} row under {label}"));
    let cols: Vec<&str> = row.split(',').collect();
    (cols[5].parse().unwrap(), cols[6].parse().unwrap())
}

/// `(makespan, misses)` of a `trace_tool` report.
fn report_numbers(report: &str) -> (u64, u64) {
    let word_after = |prefix: &str, word: &str| -> u64 {
        let line = report.lines().find(|l| l.starts_with(prefix)).unwrap();
        let mut words = line.split_whitespace();
        words.find(|w| *w == word).unwrap();
        words.next().unwrap().parse().unwrap()
    };
    (
        word_after("makespan", "makespan"),
        word_after("cache", "misses"),
    )
}

#[test]
fn sweep_rows_replay_as_scenarios() {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--scale", "tiny", "--tasks", "2"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let sweep = String::from_utf8(out.stdout).expect("UTF-8 sweep");
    // Each point is the sweep's base scenario, `mix=2 scale=tiny` at
    // seed 0 and the 10,000-cycle quantum, with one key set.
    for (label, policy, key, value) in [
        ("# cache size 4 KB", "LS", "--cache", "4096:2:32"),
        ("# cores 4", "LS", "--cores", "4"),
        ("# quantum 1000", "RRS", "--quantum", "1000"),
    ] {
        let lower = policy.to_ascii_lowercase();
        let mut args = vec![
            "run", "--mix", "2", "--scale", "tiny", "--policy", &lower, "--seed", "0", key, value,
        ];
        if key != "--quantum" {
            args.extend(["--quantum", "10000"]);
        }
        assert_eq!(
            report_numbers(&report(&args)),
            sweep_row(&sweep, label, policy),
            "{label} {policy}"
        );
    }
}

#[test]
fn a_failing_group_is_an_error_line_not_a_panic() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_fig6"),
        &["--scale", "tiny", "--bus", "fcfs:18446744073709551615"],
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with(
            "error: app=Med-Im04 scale=tiny policy=ls bus=fcfs:18446744073709551615: machine: "
        ),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn sweep_bus_rows_replay_as_scenarios() {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--scale", "tiny", "--tasks", "2", "--bus", "fcfs:21"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let sweep = String::from_utf8(out.stdout).expect("UTF-8 sweep");
    // The axis halves (rounding down), keeps and doubles the occupancy.
    for occ in ["10", "21", "42"] {
        let bus = format!("fcfs:{occ}");
        let scenario = ["run", "--mix", "2", "--scale", "tiny", "--policy", "ls"];
        let knobs = ["--seed", "0", "--quantum", "10000", "--bus", &bus];
        let label = format!("# bus occupancy {occ}");
        assert_eq!(
            report_numbers(&report(&[&scenario[..], &knobs].concat())),
            sweep_row(&sweep, &label, "LS"),
            "{label}"
        );
    }
}
