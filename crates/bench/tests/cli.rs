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
