//! Self-time arithmetic on a hand-built span tree.

use lams_benchmark::spans::{Recorder, Span};

fn span(
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    replayed: bool,
) -> Span {
    Span {
        name,
        job: 0,
        start_ns,
        end_ns,
        parent,
        replayed,
    }
}

/// request 0..100
/// ├─ execute 10..40          (real, inside the parent)
/// │   ├─ build 100..110      (replayed after the root closed)
/// │   └─ engine 110..125     (replayed)
/// └─ format 125..130         (replayed)
fn tree() -> Recorder {
    Recorder::from_spans(vec![
        span("request", 0, 100, None, false),
        span("execute", 10, 40, Some(0), false),
        span("build", 100, 110, Some(1), true),
        span("engine", 110, 125, Some(1), true),
        span("format", 125, 130, Some(0), true),
    ])
}

#[test]
fn self_time_is_the_span_minus_its_children() {
    let rec = tree();
    // request: 100 - execute 30 - format 5; execute: 30 - 10 - 15.
    assert_eq!(rec.self_times_ns(), [65, 5, 10, 15, 5]);
}

#[test]
fn self_times_add_up_to_the_roots() {
    let rec = tree();
    assert_eq!(rec.self_times_ns().iter().sum::<u64>(), 100);
    assert_eq!(rec.coverage(), 1.0);
}

#[test]
fn a_replayed_child_that_outlasts_its_parent_floors_at_zero() {
    let mut spans = tree().spans().to_vec();
    // The engine replay now takes 40 ns against an execute span of 30.
    spans[3].end_ns = 150;
    let rec = Recorder::from_spans(spans);
    assert_eq!(rec.self_times_ns()[1], 0);
    // The overshoot shows as coverage above one.
    assert_eq!(rec.coverage(), 1.2);
}

#[test]
fn totals_are_by_name() {
    let rec = tree();
    assert_eq!(rec.total_s("execute"), 30e-9);
    assert_eq!(rec.self_s("execute"), 5e-9);
    assert_eq!(rec.total_s("absent"), 0.0);
}

#[test]
fn recorded_spans_nest_and_replays_follow() {
    let mut rec = Recorder::new();
    let (root, inner) = rec.span("outer", 3, None, |rec, me| {
        rec.span("inner", 3, Some(me), |_, _| ()).0
    });
    let (replay, ()) = rec.replay("again", 3, inner, || ());
    let s = rec.spans();
    assert_eq!(s[inner].parent, Some(root));
    assert!(s[root].start_ns <= s[inner].start_ns && s[inner].end_ns <= s[root].end_ns);
    assert!(s[replay].replayed && s[replay].start_ns >= s[root].end_ns);
    assert!(rec.to_json().contains("\"name\": \"again\""));
}
