//! Minimal command-line parsing for the harness binaries (no external
//! dependencies needed for `--scale`-style flags).
//!
//! Every flag value parses through its type's `FromStr`: `--scale`
//! through [`lams_workloads::Scale`], `--bus` through
//! [`lams_mpsoc::BusConfig`], `--arrivals` through
//! [`lams_core::ArrivalConfig`], counts through `usize`. A malformed
//! value is an error, never a silent default — a typo must not run
//! another configuration.

use std::fmt::Display;
use std::str::FromStr;

/// The raw VALUE of `--name VALUE`; `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// Returns `NAME needs a value` when the flag is the last argument or
/// is followed by another `--flag`.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{name} needs a value")),
    }
}

/// `--name VALUE` parsed as a `T`: `Ok(None)` when the flag is absent,
/// and an error naming the flag and the value when the value does not
/// parse.
///
/// # Errors
///
/// Returns `bad NAME 'VALUE': REASON`, with `T`'s parse error as the
/// reason, or `NAME needs a value` (see [`flag_value`]).
pub fn try_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let Some(v) = flag_value(args, name)? else {
        return Ok(None);
    };
    v.parse()
        .map(Some)
        .map_err(|e| format!("bad {name} '{v}': {e}"))
}

/// [`try_flag`] for the figure binaries: `None` when the flag is absent;
/// a malformed value prints the error and exits with status 2.
pub fn flag<T: FromStr>(args: &[String], name: &str) -> Option<T>
where
    T::Err: Display,
{
    try_flag(args, name).unwrap_or_else(|e| usage_error(e))
}

/// Prints `error: {e}` and exits with status 2.
pub(crate) fn usage_error(e: String) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// Refuses a `--flag` whose name is not in `known`: a typo such as
/// `--quantun 5` must not run the defaults.
///
/// # Errors
///
/// Returns `CMD takes no --NAME` for the first unknown flag.
pub fn refuse_unknown_flags(cmd: &str, args: &[String], known: &[&str]) -> Result<(), String> {
    let mut names = args.iter().filter_map(|a| a.strip_prefix("--"));
    match names.find(|name| !known.contains(name)) {
        Some(name) => Err(format!("{cmd} takes no --{name}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lams_core::{ArrivalConfig, ArrivalShape};
    use lams_mpsoc::BusConfig;
    use lams_workloads::Scale;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(
            flag(&argv(&["--scale", "tiny"]), "--scale"),
            Some(Scale::Tiny)
        );
        assert_eq!(
            flag(&argv(&["--scale", "SMALL"]), "--scale"),
            Some(Scale::Small)
        );
        assert_eq!(flag::<Scale>(&argv(&[]), "--scale"), None);
        assert_eq!(
            try_flag::<Scale>(&argv(&["--scale", "smal"]), "--scale"),
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
        assert_eq!(flag(&argv(&["--threads", "4"]), "--threads"), Some(4usize));
        assert_eq!(flag::<usize>(&argv(&[]), "--threads"), None);
        assert!(try_flag::<usize>(&argv(&["--threads", "-1"]), "--threads").is_err());
    }

    #[test]
    fn usize_flag() {
        assert_eq!(flag(&argv(&["--cores", "4"]), "--cores"), Some(4usize));
        assert_eq!(flag::<usize>(&argv(&[]), "--cores"), None);
        // A malformed count is an error, not the default.
        assert_eq!(
            try_flag::<usize>(&argv(&["--cores", "x"]), "--cores"),
            Err("bad --cores 'x': invalid digit found in string".into())
        );
    }

    #[test]
    fn arrivals_flag() {
        assert_eq!(flag::<ArrivalConfig>(&argv(&[]), "--arrivals"), None);
        assert_eq!(
            flag(&argv(&["--arrivals", "poisson:0.8:42"]), "--arrivals"),
            Some(ArrivalConfig::poisson(800, 42))
        );
        assert_eq!(
            flag(&argv(&["--arrivals", "burst:1.5:7:128"]), "--arrivals"),
            Some(
                ArrivalConfig::poisson(1500, 7)
                    .with_shape(ArrivalShape::Burst)
                    .with_queue_capacity(128)
            )
        );
        for bad in ["poisson:0.8", "gauss:0.8:1"] {
            assert!(try_flag::<ArrivalConfig>(&argv(&["--arrivals", bad]), "--arrivals").is_err());
        }
    }

    #[test]
    fn a_flag_without_a_value_is_an_error() {
        for args in [&["--cores"][..], &["--cores", "--scale", "tiny"]] {
            assert_eq!(
                try_flag::<usize>(&argv(args), "--cores"),
                Err("--cores needs a value".into())
            );
        }
        // A negative number is a value, not a flag.
        assert_eq!(
            flag_value(&argv(&["--tasks", "-1"]), "--tasks"),
            Ok(Some("-1"))
        );
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        let known = ["scale", "threads"];
        assert_eq!(
            refuse_unknown_flags(
                "fig7",
                &argv(&["--scale", "tiny", "--threads", "2"]),
                &known
            ),
            Ok(())
        );
        assert_eq!(
            refuse_unknown_flags("fig7", &argv(&["--scal", "tiny"]), &known),
            Err("fig7 takes no --scal".into())
        );
        // A negative value is not a flag.
        assert_eq!(
            refuse_unknown_flags("sweep", &argv(&["--threads", "-1"]), &known),
            Ok(())
        );
    }

    #[test]
    fn bus_flag() {
        assert_eq!(flag::<BusConfig>(&argv(&[]), "--bus"), None);
        assert_eq!(
            flag(&argv(&["--bus", "fcfs:20"]), "--bus"),
            Some(BusConfig::fcfs(20))
        );
        assert_eq!(
            flag(&argv(&["--bus", "windowed:20:256"]), "--bus"),
            Some(BusConfig::windowed(20, 256))
        );
        assert!(try_flag::<BusConfig>(&argv(&["--bus", "fcfs"]), "--bus").is_err());
    }
}
