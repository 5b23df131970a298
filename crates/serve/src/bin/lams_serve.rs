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
//! Every flag takes one value, once, read like a request line's keys
//! ([`lams_core::Fields::from_flags`]). Anything else prints the usage
//! text and exits 2: `--cache-capcity 64` never starts a daemon.

// Panic policy: the request path never unwinds (docs/invariants.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use lams_core::{FieldError, Fields};
use lams_serve::{serve_stdio, FaultPlan, ServerConfig, TcpServer};

const USAGE: &str = "usage: lams_serve [--tcp ADDR] [--workers N] [--queue N]
                  [--cache-capacity N] [--deadline CYCLES]
                  [--faults SPEC|seed:SEED:JOBS]";
const FLAGS: &[&str] = &[
    "tcp",
    "workers",
    "queue",
    "cache-capacity",
    "deadline",
    "faults",
];

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// `--key`'s value parsed as a `T`, if it was given; a malformed
/// value exits 2.
fn parsed<T: std::str::FromStr>(fields: &mut Fields<'_>, key: &str) -> Option<T> {
    let v = fields.take(key)?;
    let bad = || die(&format!("invalid --{key} '{v}'"));
    Some(v.parse().unwrap_or_else(|_| bad()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A command line the daemon cannot act on: say why, print the
    // usage text and exit 2.
    let mut fields = Fields::from_flags(&args, FLAGS).unwrap_or_else(|e| {
        let why = match e {
            FieldError::Empty(key) => format!("--{key} needs a value"),
            FieldError::Duplicate(key) => format!("--{key} is given twice"),
            FieldError::Unknown(key) => format!("unknown flag '--{key}'"),
            FieldError::Bare(tok) => format!("unknown flag '{tok}'"),
            e => e.to_string(),
        };
        die(&format!("{why}\n{USAGE}"))
    });
    let (defaults, faults) = (ServerConfig::default(), fields.take("faults"));
    let config = ServerConfig {
        workers: parsed(&mut fields, "workers").unwrap_or(defaults.workers),
        queue_depth: parsed(&mut fields, "queue").unwrap_or(defaults.queue_depth),
        cache_capacity: parsed(&mut fields, "cache-capacity"),
        default_deadline: parsed(&mut fields, "deadline"),
        fault_plan: faults.map_or_else(FaultPlan::none, |spec| {
            FaultPlan::parse(spec).unwrap_or_else(|| {
                die(&format!(
                    "invalid --faults '{spec}' (expected panic:SEQ,stall:SEQ:MS,… or seed:SEED:JOBS)"
                ))
            })
        }),
        ..defaults
    };

    match fields.take("tcp") {
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
