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
//! run    id=X (app=NAME | mix=N) scale=SCALE SCENARIO
//! replay id=X file=PATH SCENARIO
//!
//! SCENARIO = policy=rs|rrs|ls|lsm [cores=N] [quantum=CYCLES] [seed=N]
//!            [bus=fcfs:OCC|windowed:OCC:WINDOW] [deadline=CYCLES]
//!            [arrivals=poisson|burst|diurnal:LOAD:SEED[:QCAP]]
//! ```
//!
//! The verb names the source; every other key means the same on both
//! verbs. Everything after the id is one [`Scenario`] (its `FromStr`
//! and `Display`): `cores` 1..=1024, `quantum` at least 1, `mix`
//! 1..=6, and no `lsm` on a `replay`. Blank lines and lines starting
//! with `#` are ignored.
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

use lams_core::{Error as CoreError, Fields, Scenario};

/// Longest accepted request line, in bytes (terminator excluded).
/// Longer lines are answered with [`ErrorCode::Oversized`] and skipped
/// without buffering them whole — a line-length attack costs the
/// server one fixed-size buffer, not memory proportional to the line.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

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
    /// Simulate suite applications (`app` or `mix`).
    Run(ScenarioRequest),
    /// Replay a recorded `.ltr` trace bundle from disk (`file`).
    Replay(ScenarioRequest),
}

/// A `run` or `replay` request: one scenario, answered under its id.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRequest {
    /// Echoed request id.
    pub id: String,
    /// What to simulate; its `deadline`, when absent, is the server's.
    pub scenario: Scenario,
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
            CoreError::Trace(e) => return Response::err(id, ErrorCode::BadTrace, e),
            CoreError::Workload(_)
            | CoreError::Graph(_)
            | CoreError::UnknownApp(_)
            | CoreError::Unreadable { .. } => ErrorCode::BadRequest,
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
        let mut fields =
            Fields::parse(tokens).map_err(|e| ParseError::new(NO_ID, e.to_string()))?;
        let id = fields.take("id").unwrap_or(NO_ID).to_string();
        let req = match verb {
            "ping" => Request::Ping { id },
            "stats" => Request::Stats { id },
            "shutdown" => Request::Shutdown { id },
            "run" | "replay" => match Scenario::from_fields(&mut fields, verb == "replay") {
                Ok(scenario) if verb == "run" => Request::Run(ScenarioRequest { id, scenario }),
                Ok(scenario) => Request::Replay(ScenarioRequest { id, scenario }),
                Err(e) => return Err(ParseError::new(&id, e.to_string())),
            },
            other => {
                return Err(ParseError::new(
                    &id,
                    format!("unknown verb '{other}' (expected ping|stats|shutdown|run|replay)"),
                ))
            }
        };
        fields
            .finish()
            .map_err(|e| ParseError::new(req.id(), e.to_string()))?;
        Ok(Some(req))
    }

    /// The request's id ([`NO_ID`] placeholder never appears here for
    /// well-formed requests that carried one).
    pub fn id(&self) -> &str {
        match self {
            Request::Ping { id } | Request::Stats { id } | Request::Shutdown { id } => id,
            Request::Run(r) | Request::Replay(r) => &r.id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lams_core::{ArrivalConfig, PolicyKind, Source};
    use lams_mpsoc::BusConfig;
    use lams_workloads::Scale;

    const MAX_CORES: usize = Scenario::MAX_CORES;

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
        let Source::App { name, scale } = &r.scenario.source else {
            panic!("not an app source")
        };
        assert_eq!(name, "shape");
        assert_eq!(*scale, Scale::Tiny);
        assert_eq!(r.scenario.policy, PolicyKind::Locality);
        assert_eq!(r.scenario.cores, Some(4));
        assert_eq!(r.scenario.quantum, Some(500));
        assert_eq!(r.scenario.seed, Some(9));
        assert_eq!(r.scenario.bus, Some(BusConfig::fcfs(20)));
        assert_eq!(r.scenario.deadline, Some(100_000));
        assert_eq!(
            r.scenario.arrivals,
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
        let Source::App { scale, .. } = r.scenario.source else {
            panic!("not an app source")
        };
        assert_eq!(
            (scale, r.scenario.policy),
            (Scale::Tiny, PolicyKind::LocalityMap)
        );
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
