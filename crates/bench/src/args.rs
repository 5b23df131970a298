//! Minimal command-line parsing for the harness binaries (no external
//! dependencies needed for `--scale`-style flags).

use lams_core::ArrivalConfig;
use lams_mpsoc::BusConfig;
use lams_workloads::Scale;

/// Extracts `--scale tiny|small|paper|large|huge` from raw args
/// (default `small`). Exits with an error on unrecognized values — a
/// typo must not silently run at another scale.
pub fn parse_scale(args: &[String]) -> Scale {
    parse_scale_or(args, Scale::Small)
}

/// Like [`parse_scale`], with an explicit default for binaries whose
/// natural size is not `small` (the sweep-oriented figures default to
/// `large`). The default applies only when `--scale` is absent.
pub fn parse_scale_or(args: &[String], default: Scale) -> Scale {
    match flag_value(args, "--scale") {
        None => default,
        Some(v) => scale_from_str(v).unwrap_or_else(|| {
            eprintln!("error: unknown --scale '{v}' (expected tiny|small|paper|large|huge)");
            std::process::exit(2);
        }),
    }
}

/// Parses one scale name (case-insensitive); `None` for unknown names.
pub fn scale_from_str(v: &str) -> Option<Scale> {
    match v.to_ascii_lowercase().as_str() {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "paper" => Some(Scale::Paper),
        "large" => Some(Scale::Large),
        "huge" => Some(Scale::Huge),
        _ => None,
    }
}

/// Extracts the optional `--bus` contention axis:
///
/// * absent → `None` (the paper's fixed-latency memory),
/// * `--bus fcfs:OCC` → FCFS arbitration, `OCC` cycles per transfer,
/// * `--bus windowed:OCC:WINDOW` → time-windowed arbitration granting
///   at `WINDOW`-cycle epoch boundaries.
///
/// Exits with an error on malformed values — a typo must not silently
/// run the uncontended machine.
pub fn parse_bus(args: &[String]) -> Option<BusConfig> {
    let v = flag_value(args, "--bus")?;
    Some(v.parse().unwrap_or_else(|_| {
        eprintln!("error: unknown --bus '{v}' (expected fcfs:OCC or windowed:OCC:WINDOW)");
        std::process::exit(2);
    }))
}

/// Extracts the optional `--arrivals` open-system axis:
///
/// * absent → `None` (the paper's batch semantics: every process
///   present at cycle 0),
/// * `--arrivals SHAPE:LOAD:SEED[:QCAP]` with `SHAPE` one of
///   `poisson|burst|diurnal` → processes are admitted by a seeded
///   deterministic arrival stream at offered load `LOAD` (e.g. `0.8`),
///   optionally shedding typed once the ready queue exceeds `QCAP`.
///
/// Exits with an error on malformed values — a typo must not silently
/// run the closed-system batch.
pub fn parse_arrivals(args: &[String]) -> Option<ArrivalConfig> {
    let v = flag_value(args, "--arrivals")?;
    Some(ArrivalConfig::parse(v).unwrap_or_else(|e| {
        eprintln!("error: bad --arrivals '{v}': {e}");
        std::process::exit(2);
    }))
}

/// Extracts `--threads N` (default 1, clamped to at least 1) — the
/// worker count for [`lams_core::SweepRunner`].
pub fn parse_threads(args: &[String]) -> usize {
    parse_usize_flag(args, "--threads", 1).max(1)
}

/// Extracts `--name value` as a usize, with a default.
pub fn parse_usize_flag(args: &[String], name: &str, default: usize) -> usize {
    flag_value(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale(&argv(&["--scale", "tiny"])), Scale::Tiny);
        assert_eq!(parse_scale(&argv(&["--scale", "paper"])), Scale::Paper);
        assert_eq!(parse_scale(&argv(&["--scale", "SMALL"])), Scale::Small);
        assert_eq!(parse_scale(&argv(&["--scale", "large"])), Scale::Large);
        assert_eq!(parse_scale(&argv(&["--scale", "huge"])), Scale::Huge);
        assert_eq!(parse_scale(&argv(&[])), Scale::Small);
        // Explicit defaults win only when the flag is absent.
        assert_eq!(parse_scale_or(&argv(&[]), Scale::Large), Scale::Large);
        assert_eq!(
            parse_scale_or(&argv(&["--scale", "small"]), Scale::Large),
            Scale::Small
        );
        // Unknown names are rejected (parse_scale_or exits; the
        // fallible core is testable directly).
        assert_eq!(scale_from_str("smal"), None);
        assert_eq!(scale_from_str("HUGE"), Some(Scale::Huge));
    }

    #[test]
    fn threads_flag() {
        assert_eq!(parse_threads(&argv(&["--threads", "4"])), 4);
        assert_eq!(parse_threads(&argv(&["--threads", "0"])), 1);
        assert_eq!(parse_threads(&argv(&[])), 1);
    }

    #[test]
    fn usize_flag() {
        assert_eq!(parse_usize_flag(&argv(&["--cores", "4"]), "--cores", 8), 4);
        assert_eq!(parse_usize_flag(&argv(&[]), "--cores", 8), 8);
        assert_eq!(parse_usize_flag(&argv(&["--cores", "x"]), "--cores", 8), 8);
    }

    #[test]
    fn arrivals_flag() {
        assert_eq!(parse_arrivals(&argv(&[])), None);
        assert_eq!(
            parse_arrivals(&argv(&["--arrivals", "poisson:0.8:42"])),
            Some(ArrivalConfig::poisson(800, 42))
        );
        assert_eq!(
            parse_arrivals(&argv(&["--arrivals", "burst:1.5:7:128"])),
            Some(
                ArrivalConfig::poisson(1500, 7)
                    .with_shape(lams_core::ArrivalShape::Burst)
                    .with_queue_capacity(128)
            )
        );
        // Malformed specs are rejected (parse_arrivals exits; the
        // fallible core is testable directly).
        assert!(ArrivalConfig::parse("poisson:0.8").is_err());
        assert!(ArrivalConfig::parse("gauss:0.8:1").is_err());
    }

    #[test]
    fn bus_flag() {
        assert_eq!(parse_bus(&argv(&[])), None);
        assert_eq!(
            parse_bus(&argv(&["--bus", "fcfs:20"])),
            Some(BusConfig::fcfs(20))
        );
        assert_eq!(
            parse_bus(&argv(&["--bus", "windowed:20:256"])),
            Some(BusConfig::windowed(20, 256))
        );
        // Malformed specs exit; the parser itself (`BusConfig`'s
        // `FromStr`) is tested beside its type in `lams_mpsoc`.
    }
}
