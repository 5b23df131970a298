//! Command-line handling of the harness binaries: a malformed flag
//! value must exit 2 before any simulation runs, never fall back to a
//! default and run another configuration.

use std::process::Command;

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
        (env!("CARGO_BIN_EXE_diag"), &["--scale", "x"]),
        (
            env!("CARGO_BIN_EXE_trace_tool"),
            &["run", "--app", "shape", "--scale", "x"],
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
