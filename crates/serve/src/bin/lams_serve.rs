//! The `lams_serve` daemon binary.
//!
//! ```text
//! lams_serve [--tcp ADDR] [--workers N] [--queue N]
//!            [--cache-capacity N] [--deadline CYCLES]
//!            [--faults SPEC|seed:SEED:JOBS]
//! ```
//!
//! Without `--tcp`, requests are read from stdin and answered on
//! stdout (one line each; see `docs/service-protocol.md`), which is
//! the mode the CI smoke test drives with a heredoc. With `--tcp
//! ADDR` (e.g. `127.0.0.1:0`), the bound address is printed on stdout
//! as `listening addr=HOST:PORT` and connections are served until a
//! `shutdown` request arrives.
//!
//! Every flag takes a value. An unknown flag or a flag without its
//! value prints the usage text and exits 2: a mistyped
//! `--cache-capcity 64` must not silently start an unbounded daemon.

// Panic policy: the request path never unwinds (docs/invariants.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use lams_serve::{serve_stdio, FaultPlan, ServerConfig, TcpServer};

const USAGE: &str = "usage: lams_serve [--tcp ADDR] [--workers N] [--queue N]
                  [--cache-capacity N] [--deadline CYCLES]
                  [--faults SPEC|seed:SEED:JOBS]";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_faults(spec: &str) -> FaultPlan {
    if let Some(rest) = spec.strip_prefix("seed:") {
        let mut parts = rest.split(':');
        let seed = parts.next().and_then(|s| s.parse().ok());
        let jobs = parts.next().and_then(|s| s.parse().ok());
        match (seed, jobs, parts.next()) {
            (Some(seed), Some(jobs), None) => return FaultPlan::seeded(seed, jobs),
            _ => die(&format!(
                "invalid --faults '{spec}' (expected seed:SEED:JOBS)"
            )),
        }
    }
    FaultPlan::parse(spec).unwrap_or_else(|| {
        die(&format!(
            "invalid --faults '{spec}' (expected panic:SEQ,stall:SEQ:MS,… or seed:SEED:JOBS)"
        ))
    })
}

/// A command line the daemon cannot act on: says why, prints the
/// usage text and exits 2.
fn usage(msg: &str) -> ! {
    die(&format!("{msg}\n{USAGE}"));
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| die(&format!("invalid {flag} '{v}'")))
}

fn main() {
    let mut config = ServerConfig::default();
    let mut tcp = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--tcp" => tcp = Some(value()),
            "--workers" => config.workers = number(&flag, &value()),
            "--queue" => config.queue_depth = number(&flag, &value()),
            "--cache-capacity" => config.cache_capacity = Some(number(&flag, &value())),
            "--deadline" => config.default_deadline = Some(number(&flag, &value())),
            "--faults" => config.fault_plan = parse_faults(&value()),
            _ => usage(&format!("unknown flag '{flag}'")),
        }
    }

    match tcp.as_deref() {
        Some(addr) => {
            let server = TcpServer::bind(addr, config)
                .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
            let bound = server
                .local_addr()
                .unwrap_or_else(|e| die(&format!("cannot resolve bound address: {e}")));
            println!("listening addr={bound}");
            if let Err(e) = server.run() {
                die(&format!("accept loop failed: {e}"));
            }
        }
        None => {
            if let Err(e) = serve_stdio(config) {
                die(&format!("stdio serve failed: {e}"));
            }
        }
    }
}
