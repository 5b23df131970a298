//! The transport contract of `lams-serve`: every response reaches the
//! stream as one whole line in one `write`, and an accepted TCP
//! connection answers a small request without waiting on a kernel
//! timer. A response handed over in fragments costs a syscall and a
//! segment per fragment, and on a socket the second fragment waits out
//! the peer's delayed ACK (≈ 40 ms on Linux) under Nagle.

#![expect(
    clippy::disallowed_types,
    reason = "the one host-clock read in the workspace: a socket round trip is host time by definition, and no simulated result depends on it"
)]

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use lams_serve::{Exit, ServerConfig, Service, TcpServer, MAX_LINE_BYTES};

/// Records the buffer of every `write` call it receives.
#[derive(Default)]
struct RecordingWriter {
    writes: Vec<Vec<u8>>,
}

impl Write for RecordingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_response_is_one_write_of_one_whole_line() {
    let input = format!(
        "ping id=1\n\
         run id=2 app=shape scale=tiny policy=ls\n\
         run id=3 app=shape scale=tiny policy=warp9\n\
         run id=4 app={} scale=tiny policy=rs\n\
         stats id=5\n\
         shutdown id=6\n",
        "x".repeat(MAX_LINE_BYTES * 2)
    );
    let service = Service::new(ServerConfig::default());
    let mut out = RecordingWriter::default();
    let exit = service
        .serve(&mut BufReader::new(input.as_bytes()), &mut out)
        .expect("in-memory serve cannot fail on I/O");
    service.drain();
    assert_eq!(exit, Exit::Shutdown);

    let lines: Vec<&str> = out
        .writes
        .iter()
        .map(|w| std::str::from_utf8(w).expect("responses are UTF-8"))
        .collect();
    assert_eq!(lines.len(), 6, "one write per response: {lines:?}");
    for (line, prefix) in lines.iter().zip([
        "ok id=1 pong=1",
        "ok id=2 app=shape policy=ls makespan=",
        "err id=3 code=bad_request msg=",
        "err id=- code=oversized msg=",
        "ok id=5 hits=",
        "ok id=6 draining=1",
    ]) {
        assert!(line.starts_with(prefix), "{line:?} should start {prefix:?}");
        assert_eq!(
            line.find('\n'),
            Some(line.len() - 1),
            "a write is exactly one terminated line: {line:?}"
        );
    }
}

#[test]
fn a_loopback_round_trip_does_not_wait_out_a_delayed_ack() {
    let server = TcpServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let handle = server.spawn().expect("spawn");
    // A well-behaved client: no Nagle on its side, one write per
    // request, so any stall it sees is the server's.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| -> (String, Duration) {
        let start = Instant::now();
        writer.write_all(line.as_bytes()).expect("write");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        (response, start.elapsed())
    };

    let mut round_trips: Vec<Duration> = (0..21)
        .map(|i| {
            let (response, took) = ask(&format!("ping id={i}\n"));
            assert_eq!(response, format!("ok id={i} pong=1\n"));
            took
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    // Half the delayed-ACK timer: a fragmented response reads ≈ 44 ms
    // here, a whole-line one well under 1 ms.
    assert!(
        median < Duration::from_millis(20),
        "median ping round trip {median:?}; sorted: {round_trips:?}"
    );

    assert_eq!(ask("shutdown id=bye\n").0, "ok id=bye draining=1\n");
    handle.wait().expect("accept loop exits cleanly");
}
