//! The inputs are a function of `--seed` alone.

use lams_benchmark::{jobs, requests};

type Seeded<T> = (&'static str, fn(u64) -> T);

const LISTS: [Seeded<jobs::JobList>; 4] = [
    ("grid_batch", jobs::grid_batch),
    ("lsm_ladder", jobs::lsm_ladder),
    ("bus_contended", jobs::bus_contended),
    ("open_arrivals", jobs::open_arrivals),
];

const SETS: [Seeded<Vec<requests::Scenario>>; 2] = [
    ("serve_closed", requests::serve_closed),
    ("serve_pipelined", requests::serve_pipelined),
];

#[test]
fn same_seed_gives_a_byte_identical_job_list() {
    for (name, list) in LISTS {
        assert_eq!(list(7).to_text(), list(7).to_text(), "{name}");
    }
}

#[test]
fn another_seed_changes_the_job_list() {
    for (name, list) in LISTS {
        assert_ne!(list(7).to_text(), list(8).to_text(), "{name}");
    }
}

#[test]
fn job_lists_have_the_documented_sizes() {
    let sizes: Vec<usize> = LISTS.iter().map(|(_, list)| list(1).len()).collect();
    assert_eq!(sizes, [33, 32, 66, 48]);
}

#[test]
fn same_seed_gives_a_byte_identical_request_stream() {
    for (name, set) in SETS {
        let stream = |seed| requests::stream_text(&set(seed), seed, 3, "ltr");
        assert_eq!(stream(7), stream(7), "{name}");
    }
}

#[test]
fn another_seed_changes_the_request_stream() {
    for (name, set) in SETS {
        let stream = |seed| requests::stream_text(&set(seed), seed, 3, "ltr");
        assert_ne!(stream(7), stream(8), "{name}");
    }
}

#[test]
fn every_round_asks_every_scenario_once_in_its_own_order() {
    let n = requests::serve_pipelined(1).len();
    assert_eq!(n, 96);
    let first = requests::round_order(1, 0, n);
    let second = requests::round_order(1, 1, n);
    assert_ne!(first, second);
    for order in [first, second] {
        let mut sorted = order;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}

#[test]
fn one_request_in_eight_is_a_replay() {
    let set = requests::serve_pipelined(1);
    let replays = set
        .iter()
        .filter(|s| matches!(s, requests::Scenario::Replay { .. }))
        .count();
    assert_eq!(replays * 8, set.len());
}

#[test]
fn generated_request_lines_parse() {
    for (name, set) in SETS {
        for line in requests::stream_text(&set(3), 3, 1, "ltr").lines() {
            assert!(
                matches!(lams_serve::Request::parse(line), Ok(Some(_))),
                "{name}: {line}"
            );
        }
    }
}
