//! What the host says about this process: CPU time, peak memory, cores.

use std::fs;

/// Kernel clock ticks per second. `/proc/self/stat` counts in
/// `USER_HZ`, which Linux fixes at 100 on every architecture it
/// exports the file on.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far, threads that
/// have already exited included.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = after.split_ascii_whitespace().collect();
    // `after` starts at field 3, so utime (14) and stime (15) sit at
    // offsets 11 and 12.
    let ticks: f64 = [11, 12]
        .iter()
        .map(|&i| fields[i].parse::<f64>().expect("tick count"))
        .sum();
    ticks / USER_HZ
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Cores the host grants this process.
pub fn cpus_available() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
