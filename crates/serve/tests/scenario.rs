//! One [`Scenario`] value behind both verbs: every scenario prints as
//! the wire line it parses from. (That a `replay` of a recorded bundle
//! answers what a `run` of its workload answers is the scenario
//! generator's check, `tests/scenarios.rs`.)

use lams_core::{ArrivalConfig, ArrivalShape, ArtifactCache, PolicyKind, Scenario, Source};
use lams_mpsoc::{BusConfig, CacheConfig};
use lams_serve::{execute_work, Request, Work};
use lams_workloads::Scale;
use proptest::prelude::*;

const SCALES: [Scale; 5] = [
    Scale::Tiny,
    Scale::Small,
    Scale::Paper,
    Scale::Large,
    Scale::Huge,
];

/// Names a `run` line may carry: suite names in any case, and one the
/// suite lacks (the lookup happens when the scenario runs).
const APPS: [&str; 5] = ["shape", "Med-Im04", "MXM", "usonic", "nonesuch"];

/// Paths a `replay` line may carry, one with an `=` in it.
const FILES: [&str; 3] = ["t.ltr", "/tmp/lams/shape_tiny.ltr", "dir/a=b.ltr"];

/// A scenario from independent draws over every axis. `pick` selects
/// the source kind, the name, the scale and the policy; `on` which
/// knobs are present; `cache` the log2 of the line size, the ways and
/// the sets, which it fits under the bound on `cores ×` lines.
fn scenario(
    pick: (usize, usize, usize, usize, usize),
    on: u8,
    counts: (usize, u64, u64, u64),
    bus: (usize, u64, u64),
    arrivals: (usize, u64, u64, u64),
    cache: (u32, u32, u32),
) -> Scenario {
    let (kind, name, tasks, scale, policy) = pick;
    let scale = SCALES[scale % SCALES.len()];
    let (source, policies) = match kind % 3 {
        0 => (
            Source::App {
                name: APPS[name % APPS.len()].to_string(),
                scale,
            },
            PolicyKind::ALL,
        ),
        1 => (Source::Mix { tasks, scale }, PolicyKind::ALL),
        // A bundle has no symbolic arrays: no LSM.
        _ => (
            Source::File(FILES[name % FILES.len()].to_string()),
            &PolicyKind::ALL[..3],
        ),
    };
    let (cores, quantum, seed, deadline) = counts;
    let (bus_kind, occupancy, window) = bus;
    let (shape, load_milli, arrival_seed, cap) = arrivals;
    let shapes = [
        ArrivalShape::Poisson,
        ArrivalShape::Burst,
        ArrivalShape::Diurnal,
    ];
    let arrival = ArrivalConfig::poisson(load_milli, arrival_seed).with_shape(shapes[shape % 3]);
    let bit = |b: u8| on & (1 << b) != 0;
    let cores = bit(0).then_some(cores);
    // The most lines per core the bound leaves, as a power of two.
    let most = Scenario::MAX_CORES * 256 / cores.unwrap_or(8);
    let (line, ways, sets) = cache;
    let sets = sets.min(most.ilog2() - ways);
    let cache = CacheConfig::new(1 << (line + ways + sets), 1 << ways, 1 << line).unwrap();
    Scenario {
        source,
        policy: policies[policy % policies.len()],
        cores,
        quantum: bit(1).then_some(quantum),
        seed: bit(2).then_some(seed),
        bus: match bus_kind % 3 {
            0 => None,
            1 => Some(BusConfig::fcfs(occupancy)),
            _ => Some(BusConfig::windowed(occupancy, window)),
        },
        cache: bit(6).then_some(cache),
        deadline: bit(3).then_some(deadline),
        arrivals: bit(4).then(|| match bit(5) {
            true => arrival.with_queue_capacity(cap),
            false => arrival,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn every_scenario_prints_the_line_it_parses_from(
        pick in (0usize..3, 0usize..64, 1usize..=6, 0usize..5, 0usize..4),
        on in 0u8..128,
        counts in (1usize..=Scenario::MAX_CORES, 1u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        bus in (0usize..3, 0u64..=u64::MAX, 1u64..=u64::MAX),
        arrivals in (0usize..3, 1u64..=1_000_000, 0u64..=u64::MAX, 0u64..=u64::MAX),
        cache in (0u32..=7, 0u32..=3, 0u32..=17),
    ) {
        let s = scenario(pick, on, counts, bus, arrivals, cache);
        let line = s.to_string();
        prop_assert_eq!(line.parse::<Scenario>(), Ok(s.clone()));
        // The wire reads the same value from the same keys.
        let verb = match s.source {
            Source::File(_) => "replay",
            _ => "run",
        };
        let request = Request::parse(&format!("{verb} id=p {line}")).map(|r| r.map(|r| scenario_of(&r)));
        prop_assert_eq!(request, Ok(Some(Some(s))));
    }
}

fn scenario_of(request: &Request) -> Option<Scenario> {
    match request {
        Request::Run(r) | Request::Replay(r) => Some(r.scenario.clone()),
        _ => None,
    }
}

/// The request line a parsed `run`/`replay` request prints as.
fn reprint(request: &Request) -> String {
    match request {
        Request::Run(r) => format!("run id={} {}", r.id, r.scenario),
        Request::Replay(r) => format!("replay id={} {}", r.id, r.scenario),
        other => panic!("not a scenario request: {other:?}"),
    }
}

#[test]
fn hand_written_request_lines_round_trip() {
    // The `run`/`replay` lines of `tests/service.rs` and of CI's daemon
    // smoke, placeholders filled in.
    let accepted = [
        "replay id=bad file=/tmp/lams_serve_test_1_bad.ltr policy=rs",
        "replay id=big file=/tmp/big.ltr policy=rs",
        "replay id=big2 file=/tmp/big.ltr policy=rrs deadline=1000000",
        "replay id=gone file=/tmp/does-not-exist.ltr policy=rs",
        "replay id=ok file=/tmp/lams_serve_test_1.ltr policy=rs",
        "replay id=12 file=service_smoke.ltr policy=ls bus=fcfs:20",
        "run id=1 app=shape scale=tiny policy=ls",
        "run id=1 app=shape scale=tiny policy=ls deadline=100000000",
        "run id=1 app=track scale=tiny policy=lsm",
        "run id=1 app=xxxxxxxx scale=tiny policy=rs",
        "run id=5 app=shape scale=tiny policy=rrs quantum=1 cores=1",
        "run id=6 app=nonesuch scale=tiny policy=rs",
        "run id=7 app=track scale=tiny policy=rs",
        "run id=3-2 app=usonic scale=tiny policy=ls",
        "run id=13 mix=2 scale=tiny policy=ls",
        "run id=14 mix=2 scale=tiny policy=ls cache=4096:1:32",
        "run id=15 app=shape scale=tiny policy=rs cache=8192:2:32 cores=1024",
    ];
    for line in accepted {
        let request = Request::parse(line).unwrap().unwrap();
        let printed = reprint(&request);
        assert_eq!(Request::parse(&printed).unwrap(), Some(request), "{line}");
    }
    let refused = [
        (
            "replay id=3 file=unread.ltr policy=rrs quantum=0",
            "quantum must be at least 1",
        ),
        (
            "replay id=4 file=unread.ltr policy=rrs cores=0",
            "cores must be at least 1",
        ),
        (
            "run id=1 app=shape scale=tiny policy=rrs quantum=0",
            "quantum must be at least 1",
        ),
        (
            "run id=2 app=shape scale=tiny policy=rrs cores=0",
            "cores must be at least 1",
        ),
        (
            "run id=4 app=shape scale=tiny policy=warp9",
            "unknown policy 'warp9'",
        ),
        (
            "run id=11 app=shape scale=tiny policy=ls cores=1000000",
            "cores must be at most 1024",
        ),
        (
            "run id=14 app=shape scale=tiny policy=ls cache=4096:2",
            "invalid cache '4096:2': invalid configuration: cache spec '4096:2' is not SIZE:ASSOC:LINE",
        ),
        (
            "run id=15 app=shape scale=tiny policy=ls cache=4096:3:32",
            "invalid cache '4096:3:32': invalid configuration: associativity 3 is not a power of two",
        ),
        (
            "run id=16 app=shape scale=tiny policy=ls cache=16384:2:32 cores=1024",
            "cores * cache lines must be at most 262144",
        ),
    ];
    for (line, msg) in refused {
        assert_eq!(Request::parse(line).unwrap_err().msg, msg, "{line}");
    }
}

fn work(line: &str) -> Work {
    match Request::parse(line).unwrap() {
        Some(Request::Run(r)) => Work::Run(r),
        Some(Request::Replay(r)) => Work::Replay(r),
        other => panic!("{line}: {other:?}"),
    }
}

#[test]
fn a_mix_answers_its_applications_names() {
    let response = execute_work(
        &work("run id=m mix=2 scale=tiny policy=ls"),
        None,
        &ArtifactCache::shared(),
    );
    assert!(
        response
            .to_string()
            .starts_with("ok id=m app=Med-Im04+MxM policy=ls makespan="),
        "{response}"
    );
}
