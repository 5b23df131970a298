//! Command-line handling of the `lams_serve` binary: a command line it
//! cannot act on must print the usage text and exit 2, never start a
//! daemon configured differently from what was asked for.

use std::process::{Command, Stdio};

/// Runs the daemon with `args` on an empty stdin and returns its exit
/// code and stderr. (A command line that *is* accepted serves stdin to
/// EOF and exits 0, so a regression cannot hang the test.)
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lams_serve"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("lams_serve runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flags_are_rejected_with_usage() {
    for args in [&["--cache-capcity", "64"][..], &["--workers", "2", "stray"]] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: lams_serve"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_flag_missing_its_value_is_rejected_with_usage() {
    for args in [&["--cache-capacity"][..], &["--workers", "2", "--tcp"]] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("needs a value"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: lams_serve"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_valid_command_line_serves_stdin_to_eof() {
    let (code, stderr) = run(&["--workers", "1", "--cache-capacity", "4"]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn a_repeated_flag_is_rejected_with_usage() {
    let (code, stderr) = run(&["--workers", "1", "--workers", "4"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: --workers is given twice\nusage: lams_serve"),
        "{stderr}"
    );
}

#[test]
fn faults_read_one_grammar() {
    for spec in ["seed:1", "bogus:1"] {
        let (code, stderr) = run(&["--faults", spec]);
        assert_eq!(code, Some(2), "{spec}: {stderr}");
        assert!(stderr.contains("invalid --faults"), "{spec}: {stderr}");
    }
    let (code, stderr) = run(&["--faults", "seed:7:16"]);
    assert_eq!(code, Some(0), "{stderr}");
}
