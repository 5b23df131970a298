//! How the harness binaries report a command line they cannot act on.
//!
//! Every binary reads its arguments through
//! [`lams_core::Fields::from_flags`], the wire's strict reader in
//! `--key value` spelling, and every flag value parses through its
//! type's `FromStr`. A malformed value, an unknown, repeated or
//! valueless flag and a stray positional are each an error, never a
//! silent default: a typo must not run another configuration.

use std::fmt::Display;

use lams_core::FieldError;

/// Renders `e`, met reading binary or verb `cmd`'s flags, in `--`
/// spelling: `bad --scale 'smal': …`, `fig7 takes no --scal`,
/// `--cores needs a value`, `--quantum must be at least 1`.
pub fn flag_error(cmd: &str, e: FieldError) -> String {
    match e {
        // Every key but the source has a default.
        FieldError::Missing(_) => "need --app NAME or --mix N".to_string(),
        FieldError::Malformed { key, value, reason } => {
            format!("bad --{key} '{value}': {reason}")
        }
        FieldError::Unknown(key) => format!("{cmd} takes no --{key}"),
        FieldError::Bare(tok) => format!("{cmd} takes no argument '{tok}'"),
        FieldError::Empty(key) => format!("--{key} needs a value"),
        FieldError::Duplicate(key) => format!("--{key} is given twice"),
        FieldError::Conflict(a, b) => format!("--{a} and --{b} exclude each other"),
        e => format!("--{e}"),
    }
}

/// Prints `error: {e}` and exits with `code`: 2 for a command line the
/// binary cannot act on, 1 for a run that failed.
pub fn exit_with(code: i32, e: impl Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lams_core::{ArrivalConfig, ArrivalShape, Fields, Scenario};
    use lams_mpsoc::BusConfig;
    use lams_workloads::Scale;
    use std::str::FromStr;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// `--key VALUE` read as a `T` the way a binary reads it.
    fn flag<T: FromStr>(args: &[&str], key: &'static str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let args = argv(args);
        let mut fields = Fields::from_flags(&args, &[key]).map_err(|e| flag_error("bin", e))?;
        fields.parsed(key).map_err(|e| flag_error("bin", e))
    }

    /// What binary `cmd` says about `args` read as a scenario.
    fn scenario_error(cmd: &str, args: &[&str]) -> String {
        let args = argv(args);
        let e = Fields::from_flags(&args, &Scenario::KEYS)
            .and_then(|mut f| Scenario::from_fields(&mut f, false))
            .unwrap_err();
        flag_error(cmd, e)
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(flag(&["--scale", "tiny"], "scale"), Ok(Some(Scale::Tiny)));
        assert_eq!(flag(&["--scale", "SMALL"], "scale"), Ok(Some(Scale::Small)));
        assert_eq!(flag::<Scale>(&[], "scale"), Ok(None));
        assert_eq!(
            flag::<Scale>(&["--scale", "smal"], "scale"),
            Err(
                "bad --scale 'smal': unknown scale 'smal' (expected tiny|small|paper|large|huge)"
                    .into()
            )
        );
    }

    #[test]
    fn threads_flag() {
        // The binaries pass the count to `SweepRunner::new`, which
        // clamps 0 to 1.
        assert_eq!(flag(&["--threads", "4"], "threads"), Ok(Some(4usize)));
        assert_eq!(flag::<usize>(&[], "threads"), Ok(None));
        assert!(flag::<usize>(&["--threads", "-1"], "threads").is_err());
    }

    #[test]
    fn usize_flag() {
        assert_eq!(flag(&["--cores", "4"], "cores"), Ok(Some(4usize)));
        // A malformed count is an error, not the default.
        assert_eq!(
            flag::<usize>(&["--cores", "x"], "cores"),
            Err("bad --cores 'x': invalid digit found in string".into())
        );
        assert_eq!(
            scenario_error(
                "run",
                &[
                    "--mix",
                    "2",
                    "--scale",
                    "tiny",
                    "--policy",
                    "rrs",
                    "--quantum",
                    "0"
                ]
            ),
            "--quantum must be at least 1"
        );
    }

    #[test]
    fn arrivals_flag() {
        assert_eq!(flag::<ArrivalConfig>(&[], "arrivals"), Ok(None));
        assert_eq!(
            flag(&["--arrivals", "poisson:0.8:42"], "arrivals"),
            Ok(Some(ArrivalConfig::poisson(800, 42)))
        );
        assert_eq!(
            flag(&["--arrivals", "burst:1.5:7:128"], "arrivals"),
            Ok(Some(
                ArrivalConfig::poisson(1500, 7)
                    .with_shape(ArrivalShape::Burst)
                    .with_queue_capacity(128)
            ))
        );
        for bad in ["poisson:0.8", "gauss:0.8:1"] {
            assert!(flag::<ArrivalConfig>(&["--arrivals", bad], "arrivals").is_err());
        }
    }

    #[test]
    fn a_flag_without_a_value_is_an_error() {
        for args in [&["--cores"][..], &["--cores", "--scale", "tiny"]] {
            assert_eq!(
                scenario_error("run", args),
                "--cores needs a value",
                "{args:?}"
            );
        }
        // A negative number is a value, not a flag.
        assert!(flag::<usize>(&["--tasks", "-1"], "tasks")
            .unwrap_err()
            .starts_with("bad --tasks '-1'"));
        // Nor is a repeated or positional argument read.
        assert_eq!(
            scenario_error("run", &["--app", "shape", "--app", "shape"]),
            "--app is given twice"
        );
        assert_eq!(
            scenario_error("fig6", &["tiny", "--scale", "tiny"]),
            "fig6 takes no argument 'tiny'"
        );
        assert_eq!(
            scenario_error("run", &["--scale", "tiny"]),
            "need --app NAME or --mix N"
        );
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        assert_eq!(
            scenario_error("fig7", &["--scal", "tiny"]),
            "fig7 takes no --scal"
        );
        assert_eq!(
            scenario_error("run", &["--app", "x", "--mix", "2", "--scale", "tiny"]),
            "--app and --mix exclude each other"
        );
        // A negative value is not a flag.
        assert_eq!(
            flag(&["--threads", "-1"], "threads").map(|_: Option<i64>| ()),
            Ok(())
        );
    }

    #[test]
    fn bus_flag() {
        assert_eq!(flag::<BusConfig>(&[], "bus"), Ok(None));
        assert_eq!(
            flag(&["--bus", "fcfs:20"], "bus"),
            Ok(Some(BusConfig::fcfs(20)))
        );
        assert_eq!(
            flag(&["--bus", "windowed:20:256"], "bus"),
            Ok(Some(BusConfig::windowed(20, 256)))
        );
        assert!(flag::<BusConfig>(&["--bus", "fcfs"], "bus")
            .unwrap_err()
            .starts_with("bad --bus 'fcfs': "));
    }
}
