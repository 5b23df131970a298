//! The `lams-serve` wire protocol: one request per line, one response
//! per line, `key=value` fields — greppable, scriptable from a shell
//! heredoc, and implementable without any serialization dependency.
//!
//! # Requests
//!
//! The first token is the verb; the rest are `key=value` pairs (order
//! free, duplicates rejected, unknown keys rejected — a typo must not
//! silently run a different scenario):
//!
//! ```text
//! ping [id=X]
//! stats [id=X]
//! shutdown [id=X]
//! run id=X app=NAME scale=SCALE policy=rs|rrs|ls|lsm
//!     [cores=N] [quantum=CYCLES] [seed=N]
//!     [bus=fcfs:OCC|windowed:OCC:WINDOW] [deadline=CYCLES]
//!     [arrivals=poisson|burst|diurnal:LOAD:SEED[:QCAP]]
//! replay id=X file=PATH policy=rs|rrs|ls
//!     [cores=N] [quantum=CYCLES] [seed=N] [deadline=CYCLES]
//! ```
//!
//! Blank lines and lines starting with `#` are ignored. `cores` and
//! `quantum` must be at least 1; `cores` at most 1024.
//!
//! # Responses
//!
//! ```text
//! ok id=X key=value ...
//! err id=X code=CODE msg=free text to end of line
//! ```
//!
//! `msg` is always the **last** field of an error line; everything
//! after `msg=` is the message. Error codes are the closed set
//! [`ErrorCode`]; a malformed request never kills the daemon — it earns
//! `err ... code=bad_request` and the connection lives on.

use std::fmt;

use lams_core::{ArrivalConfig, Error as CoreError, PolicyKind};
use lams_mpsoc::BusConfig;
use lams_workloads::Scale;

/// Longest accepted request line, in bytes (terminator excluded).
/// Longer lines are answered with [`ErrorCode::Oversized`] and skipped
/// without buffering them whole — a line-length attack costs the
/// server one fixed-size buffer, not memory proportional to the line.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Most `cores` a request may ask for: 128× the paper's 8-core machine.
/// A machine allocates ≈ 24 KB of cache model per core, so an unbounded
/// count lets one request line exhaust memory — an abort, which the
/// pool's `catch_unwind` cannot isolate.
const MAX_CORES: usize = 1024;

/// The placeholder request id used in responses when the request was
/// too malformed (or too long) to carry one.
pub const NO_ID: &str = "-";

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Echoed request id.
        id: String,
    },
    /// Cache and service counters.
    Stats {
        /// Echoed request id.
        id: String,
    },
    /// Graceful drain: finish queued jobs, then stop.
    Shutdown {
        /// Echoed request id.
        id: String,
    },
    /// Simulate a suite scenario.
    Run(RunRequest),
    /// Replay a recorded `.ltr` trace bundle from disk.
    Replay(ReplayRequest),
}

/// A `run` request: one scheduling scenario against the suite.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Echoed request id.
    pub id: String,
    /// Suite application name (`lams_workloads::suite::by_name`).
    pub app: String,
    /// Problem scale.
    pub scale: Scale,
    /// Scheduling policy under test.
    pub policy: PolicyKind,
    /// Core-count override (paper default when absent).
    pub cores: Option<usize>,
    /// RRS preemption-quantum override, in cycles.
    pub quantum: Option<u64>,
    /// RS seed override.
    pub seed: Option<u64>,
    /// Optional bus-contention model.
    pub bus: Option<BusConfig>,
    /// Per-request simulated-cycle budget; the server's default applies
    /// when absent.
    pub deadline: Option<u64>,
    /// Optional open-system arrival stream
    /// (`SHAPE:LOAD:SEED[:QCAP]`, e.g. `poisson:0.8:42`); batch
    /// semantics when absent.
    pub arrivals: Option<ArrivalConfig>,
}

/// A `replay` request: re-run a recorded `.ltr` bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRequest {
    /// Echoed request id.
    pub id: String,
    /// Path of the `.ltr` file on the server's filesystem.
    pub file: String,
    /// Scheduling policy (`lsm` is rejected: a replayed bundle carries
    /// no symbolic arrays to re-layout).
    pub policy: PolicyKind,
    /// Core-count override (paper default when absent).
    pub cores: Option<usize>,
    /// RRS preemption-quantum override, in cycles.
    pub quantum: Option<u64>,
    /// RS seed override.
    pub seed: Option<u64>,
    /// Per-request simulated-cycle budget; the server's default applies
    /// when absent.
    pub deadline: Option<u64>,
}

/// The closed set of machine-readable error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unparseable or semantically invalid request.
    BadRequest,
    /// Request line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// Admission queue full; retry later.
    Busy,
    /// Server is draining; no new work accepted.
    ShuttingDown,
    /// The run exceeded its simulated-cycle budget.
    DeadlineExceeded,
    /// An open-system run's bounded ready queue overflowed (offered
    /// load exceeded service capacity past `QCAP`).
    QueueSaturated,
    /// The job panicked; the worker survived.
    JobPanicked,
    /// The policy stalled the engine (contract violation).
    EngineStalled,
    /// The `.ltr` bundle failed to decode.
    BadTrace,
    /// Anything else (I/O, simulator internals).
    Internal,
}

impl ErrorCode {
    /// Wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Busy => "busy",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::QueueSaturated => "queue_saturated",
            ErrorCode::JobPanicked => "job_panicked",
            ErrorCode::EngineStalled => "engine_stalled",
            ErrorCode::BadTrace => "bad_trace",
            ErrorCode::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A response line, ready to serialize with `Display`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success, with a flat payload of `key=value` fields.
    Ok {
        /// Echoed request id.
        id: String,
        /// Payload fields, in emission order. Values must be
        /// whitespace-free (enforced by [`Response::ok`]).
        fields: Vec<(&'static str, String)>,
    },
    /// Failure, with a machine-readable code and a human message.
    Err {
        /// Echoed request id ([`NO_ID`] when unknown).
        id: String,
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable message (single line).
        msg: String,
    },
}

impl Response {
    /// A success response. Panics (in debug builds) if a field value
    /// contains whitespace, which would corrupt the line grammar.
    pub fn ok(id: &str, fields: Vec<(&'static str, String)>) -> Self {
        debug_assert!(
            fields
                .iter()
                .all(|(_, v)| !v.chars().any(char::is_whitespace)),
            "ok-field values must be whitespace-free"
        );
        Response::Ok {
            id: id.to_string(),
            fields,
        }
    }

    /// An error response; newlines in `msg` are flattened to keep the
    /// line protocol intact.
    pub fn err(id: &str, code: ErrorCode, msg: impl fmt::Display) -> Self {
        Response::Err {
            id: id.to_string(),
            code,
            msg: msg.to_string().replace(['\n', '\r'], " "),
        }
    }

    /// Maps a core error onto the wire (deadline/panic/stall get their
    /// own codes so clients can react without parsing messages).
    pub fn from_core_error(id: &str, e: &CoreError) -> Self {
        let code = match e {
            CoreError::DeadlineExceeded { .. } => ErrorCode::DeadlineExceeded,
            CoreError::QueueSaturated { .. } => ErrorCode::QueueSaturated,
            CoreError::JobPanicked { .. } => ErrorCode::JobPanicked,
            CoreError::EngineStalled { .. } => ErrorCode::EngineStalled,
            CoreError::Workload(_) | CoreError::Graph(_) => ErrorCode::BadRequest,
            _ => ErrorCode::Internal,
        };
        Response::err(id, code, e)
    }

    /// The request id this response answers.
    pub fn id(&self) -> &str {
        match self {
            Response::Ok { id, .. } | Response::Err { id, .. } => id,
        }
    }

    /// Whether this is an `ok` response.
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok { .. })
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Ok { id, fields } => {
                write!(f, "ok id={id}")?;
                for (k, v) in fields {
                    write!(f, " {k}={v}")?;
                }
                Ok(())
            }
            Response::Err { id, code, msg } => {
                write!(f, "err id={id} code={code} msg={msg}")
            }
        }
    }
}

/// A protocol-level parse failure (always maps to
/// [`ErrorCode::BadRequest`], with the offending request's id when one
/// was readable).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Request id, when the line carried a parseable `id=` field.
    pub id: String,
    /// What was wrong.
    pub msg: String,
}

impl ParseError {
    fn new(id: &str, msg: impl Into<String>) -> Self {
        ParseError {
            id: id.to_string(),
            msg: msg.into(),
        }
    }

    /// The `err` response for this failure.
    pub fn response(&self) -> Response {
        Response::err(&self.id, ErrorCode::BadRequest, &self.msg)
    }
}

/// Key/value pairs with strict single-use consumption: every key must
/// be recognized and used exactly once.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str, bool)>,
    id: String,
}

impl<'a> Fields<'a> {
    fn parse(tokens: &[&'a str]) -> Result<Fields<'a>, ParseError> {
        let mut pairs: Vec<(&str, &str, bool)> = Vec::with_capacity(tokens.len());
        for tok in tokens {
            let Some((k, v)) = tok.split_once('=') else {
                return Err(ParseError::new(
                    NO_ID,
                    format!("bare token '{tok}' (expected key=value)"),
                ));
            };
            if k.is_empty() || v.is_empty() {
                return Err(ParseError::new(
                    NO_ID,
                    format!("empty key or value in '{tok}'"),
                ));
            }
            if pairs.iter().any(|&(pk, _, _)| pk == k) {
                return Err(ParseError::new(NO_ID, format!("duplicate key '{k}'")));
            }
            pairs.push((k, v, false));
        }
        let id = pairs
            .iter()
            .find(|&&(k, _, _)| k == "id")
            .map_or(NO_ID, |&(_, v, _)| v)
            .to_string();
        Ok(Fields { pairs, id })
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        self.pairs.iter_mut().find(|(k, _, _)| *k == key).map(|p| {
            p.2 = true;
            p.1
        })
    }

    fn require(&mut self, key: &str) -> Result<&'a str, ParseError> {
        let id = self.id.clone();
        self.take(key)
            .ok_or_else(|| ParseError::new(&id, format!("missing required key '{key}'")))
    }

    /// A required name (`scale`, `policy`) parsed through its type's
    /// `FromStr`.
    fn require_known<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, ParseError> {
        let v = self.require(key)?;
        v.parse()
            .map_err(|_| ParseError::new(&self.id, format!("unknown {key} '{v}'")))
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, ParseError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ParseError::new(&self.id, format!("invalid {key} '{v}'"))),
        }
    }

    /// A count that must be at least 1 (`cores`, `quantum`): zero is
    /// well-formed text but no machine or time slice, and would reach
    /// an assertion inside the simulator instead of an error.
    fn take_positive<T>(&mut self, key: &str) -> Result<Option<T>, ParseError>
    where
        T: std::str::FromStr + Default + PartialEq,
    {
        match self.take_parsed(key)? {
            Some(v) if v == T::default() => Err(ParseError::new(
                &self.id,
                format!("{key} must be at least 1"),
            )),
            v => Ok(v),
        }
    }

    /// `cores`: at least 1, at most [`MAX_CORES`].
    fn take_cores(&mut self) -> Result<Option<usize>, ParseError> {
        match self.take_positive("cores")? {
            Some(n) if n > MAX_CORES => Err(ParseError::new(
                &self.id,
                format!("cores must be at most {MAX_CORES}"),
            )),
            v => Ok(v),
        }
    }

    fn finish(self) -> Result<(), ParseError> {
        match self.pairs.iter().find(|&&(k, _, used)| !used && k != "id") {
            Some(&(k, _, _)) => Err(ParseError::new(&self.id, format!("unknown key '{k}'"))),
            None => Ok(()),
        }
    }
}

impl Request {
    /// Parses one request line (already stripped of its terminator).
    /// Returns `Ok(None)` for blank and `#`-comment lines.
    pub fn parse(line: &str) -> Result<Option<Request>, ParseError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut tokens = line.split_ascii_whitespace();
        // The line is non-empty after trimming, so a first token exists;
        // treat the impossible case as a blank line rather than panic.
        let Some(verb) = tokens.next() else {
            return Ok(None);
        };
        let rest: Vec<&str> = tokens.collect();
        let mut fields = Fields::parse(&rest)?;
        let id = fields.id.clone();
        let req = match verb {
            "ping" => Request::Ping { id },
            "stats" => Request::Stats { id },
            "shutdown" => Request::Shutdown { id },
            "run" => {
                let app = fields.require("app")?.to_string();
                let scale = fields.require_known("scale")?;
                let policy = fields.require_known("policy")?;
                let bus = match fields.take("bus") {
                    None => None,
                    Some(v) => Some(
                        v.parse()
                            .map_err(|_| ParseError::new(&id, format!("invalid bus '{v}'")))?,
                    ),
                };
                let arrivals = match fields.take("arrivals") {
                    None => None,
                    Some(v) => Some(v.parse::<ArrivalConfig>().map_err(|e| {
                        ParseError::new(&id, format!("invalid arrivals '{v}': {e}"))
                    })?),
                };
                Request::Run(RunRequest {
                    id,
                    app,
                    scale,
                    policy,
                    cores: fields.take_cores()?,
                    quantum: fields.take_positive("quantum")?,
                    seed: fields.take_parsed("seed")?,
                    bus,
                    deadline: fields.take_parsed("deadline")?,
                    arrivals,
                })
            }
            "replay" => {
                let file = fields.require("file")?.to_string();
                let policy = fields.require_known("policy")?;
                if policy == PolicyKind::LocalityMap {
                    return Err(ParseError::new(
                        &id,
                        "policy lsm cannot replay: a bundle has no symbolic arrays to re-layout",
                    ));
                }
                Request::Replay(ReplayRequest {
                    id,
                    file,
                    policy,
                    cores: fields.take_cores()?,
                    quantum: fields.take_positive("quantum")?,
                    seed: fields.take_parsed("seed")?,
                    deadline: fields.take_parsed("deadline")?,
                })
            }
            other => {
                return Err(ParseError::new(
                    &id,
                    format!("unknown verb '{other}' (expected ping|stats|shutdown|run|replay)"),
                ))
            }
        };
        fields.finish()?;
        Ok(Some(req))
    }

    /// The request's id ([`NO_ID`] placeholder never appears here for
    /// well-formed requests that carried one).
    pub fn id(&self) -> &str {
        match self {
            Request::Ping { id } | Request::Stats { id } | Request::Shutdown { id } => id,
            Request::Run(r) => &r.id,
            Request::Replay(r) => &r.id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        assert_eq!(Request::parse("").unwrap(), None);
        assert_eq!(Request::parse("   ").unwrap(), None);
        assert_eq!(Request::parse("# a comment").unwrap(), None);
    }

    #[test]
    fn run_requests_parse_fully() {
        let r = Request::parse(
            "run id=7 app=shape scale=tiny policy=ls cores=4 quantum=500 seed=9 bus=fcfs:20 deadline=100000 arrivals=poisson:0.8:42:64",
        )
        .unwrap()
        .unwrap();
        let Request::Run(r) = r else {
            panic!("not a run")
        };
        assert_eq!(r.id, "7");
        assert_eq!(r.app, "shape");
        assert_eq!(r.scale, Scale::Tiny);
        assert_eq!(r.policy, PolicyKind::Locality);
        assert_eq!(r.cores, Some(4));
        assert_eq!(r.quantum, Some(500));
        assert_eq!(r.seed, Some(9));
        assert_eq!(r.bus, Some(BusConfig::fcfs(20)));
        assert_eq!(r.deadline, Some(100_000));
        assert_eq!(
            r.arrivals,
            Some(ArrivalConfig::poisson(800, 42).with_queue_capacity(64))
        );
    }

    #[test]
    fn minimal_run_and_control_verbs() {
        assert!(matches!(
            Request::parse("run id=1 app=track scale=small policy=rs").unwrap(),
            Some(Request::Run(_))
        ));
        assert!(matches!(
            Request::parse("ping id=p").unwrap(),
            Some(Request::Ping { .. })
        ));
        assert!(matches!(
            Request::parse("stats").unwrap(),
            Some(Request::Stats { .. })
        ));
        assert!(matches!(
            Request::parse("shutdown id=bye").unwrap(),
            Some(Request::Shutdown { .. })
        ));
    }

    #[test]
    fn malformed_requests_carry_the_id_when_readable() {
        let e = Request::parse("run id=42 app=shape scale=tiny policy=xx").unwrap_err();
        assert_eq!(e.id, "42");
        assert!(e.msg.contains("unknown policy"));
        let e = Request::parse("run id=8 app=shape scale=tiny policy=rs bus=windowed:20:0")
            .unwrap_err();
        assert_eq!(
            (e.id.as_str(), e.msg.as_str()),
            ("8", "invalid bus 'windowed:20:0'")
        );
        let e = Request::parse("warp id=9").unwrap_err();
        assert_eq!(e.id, "9");
        assert!(e.msg.contains("unknown verb"));
        // No id at all → placeholder.
        let e = Request::parse("nonsense").unwrap_err();
        assert_eq!(e.id, NO_ID);
    }

    #[test]
    fn unknown_names_answer_byte_identical_lines() {
        for (line, want) in [
            (
                "run id=3 app=shape scale=x policy=ls",
                "err id=3 code=bad_request msg=unknown scale 'x'",
            ),
            (
                "run id=4 app=shape scale=tiny policy=x",
                "err id=4 code=bad_request msg=unknown policy 'x'",
            ),
            (
                "replay id=5 file=t.ltr policy=x",
                "err id=5 code=bad_request msg=unknown policy 'x'",
            ),
        ] {
            let e = Request::parse(line).unwrap_err();
            assert_eq!(e.response().to_string(), want);
        }
        // Names parse in any case.
        let Some(Request::Run(r)) = Request::parse("run app=shape scale=TINY policy=Lsm").unwrap()
        else {
            panic!("a run request");
        };
        assert_eq!((r.scale, r.policy), (Scale::Tiny, PolicyKind::LocalityMap));
    }

    #[test]
    fn strictness_rejects_typos() {
        // Unknown key.
        let e = Request::parse("run id=1 app=shape scale=tiny policy=rs corse=4").unwrap_err();
        assert!(e.msg.contains("unknown key 'corse'"), "{}", e.msg);
        // Duplicate key.
        let e = Request::parse("run id=1 id=2 app=shape scale=tiny policy=rs").unwrap_err();
        assert!(e.msg.contains("duplicate key"), "{}", e.msg);
        // Missing required key.
        let e = Request::parse("run id=1 scale=tiny policy=rs").unwrap_err();
        assert!(e.msg.contains("missing required key 'app'"), "{}", e.msg);
        // Non-numeric numeric field.
        let e = Request::parse("run id=1 app=shape scale=tiny policy=rs cores=four").unwrap_err();
        assert!(e.msg.contains("invalid cores"), "{}", e.msg);
        // Bare token.
        let e = Request::parse("run id=1 app=shape scale=tiny policy=rs fast").unwrap_err();
        assert!(e.msg.contains("bare token"), "{}", e.msg);
        // lsm replay is rejected up front.
        let e = Request::parse("replay id=1 file=x.ltr policy=lsm").unwrap_err();
        assert!(e.msg.contains("cannot replay"), "{}", e.msg);
        // Malformed arrival streams are typed bad_request, not panics.
        for bad in [
            "arrivals=poisson",
            "arrivals=poisson:0.8",
            "arrivals=gauss:0.8:1",
            "arrivals=poisson:-1:1",
            "arrivals=poisson:0.8:1:0x10",
            "arrivals=poisson:0.8:1:2:3",
        ] {
            let e = Request::parse(&format!("run id=1 app=shape scale=tiny policy=rs {bad}"))
                .unwrap_err();
            assert!(e.msg.contains("invalid arrivals"), "{bad}: {}", e.msg);
        }
    }

    #[test]
    fn zero_cores_and_zero_quantum_are_bad_requests() {
        // Both would otherwise reach the simulator: `quantum=0` trips
        // `RoundRobinPolicy::new`'s assert inside a pool worker.
        for verb in [
            "run id=1 app=shape scale=tiny policy=rrs",
            "replay id=1 file=x.ltr policy=rrs",
        ] {
            for key in ["cores", "quantum"] {
                let e = Request::parse(&format!("{verb} {key}=0")).unwrap_err();
                assert_eq!(e.id, "1");
                assert_eq!(e.msg, format!("{key} must be at least 1"));
                assert!(Request::parse(&format!("{verb} {key}=1")).is_ok());
            }
        }
    }

    #[test]
    fn cores_above_the_cap_are_bad_requests() {
        for verb in [
            "run id=1 app=shape scale=tiny policy=ls",
            "replay id=1 file=x.ltr policy=ls",
        ] {
            assert!(Request::parse(&format!("{verb} cores={MAX_CORES}")).is_ok());
            for over in [MAX_CORES + 1, usize::MAX] {
                let e = Request::parse(&format!("{verb} cores={over}")).unwrap_err();
                assert_eq!(e.id, "1");
                assert_eq!(e.msg, format!("cores must be at most {MAX_CORES}"));
            }
        }
    }

    #[test]
    fn responses_serialize_one_line() {
        let ok = Response::ok("3", vec![("makespan", "120".into()), ("hits", "4".into())]);
        assert_eq!(ok.to_string(), "ok id=3 makespan=120 hits=4");
        let err = Response::err("9", ErrorCode::Busy, "queue full (depth 16)");
        assert_eq!(
            err.to_string(),
            "err id=9 code=busy msg=queue full (depth 16)"
        );
        // Newlines cannot break the framing.
        let err = Response::err(NO_ID, ErrorCode::Internal, "two\nlines");
        assert_eq!(err.to_string(), "err id=- code=internal msg=two lines");
    }
}
