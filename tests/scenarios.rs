//! One generator of runnable scenarios, one check: every path that turns
//! a [`Scenario`] into a makespan must answer what the naive oracle
//! (`crates/core/tests/support/oracle.rs`) answers on the scenario's
//! applications and layout — for LSM, the layout its own `run_lsm`
//! artifacts name — or fail with the same typed error. The paths are
//! [`Scenario::run`] on a fresh memo and again warm, and on every memo
//! mode after and before its twins (deadline dropped, arrivals dropped,
//! miss split flipped); [`ScenarioMatrix::run`] at one thread and
//! several; `.ltr` replay; and the daemon's `run`/`replay` line.
//!
//! Case `N` is drawn from `SplitMix64::new(N)`; a failing case prints
//! the daemon line that reproduces it (its `.ltr` file is kept).
//! Release draws Tiny and Small suite sources; debug a Tiny sample.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use lams_core::{
    ArrivalConfig, ArrivalShape, ArtifactCache, EngineConfig, Error, EvictionPolicy, Experiment,
    PolicyKind, RunResult, Scenario, ScenarioMatrix, SharingMatrix, Source, SweepRunner,
    DEFAULT_QUANTUM,
};
use lams_layout::Layout;
use lams_mpsoc::{BusConfig, CacheConfig, SplitMix64};
use lams_serve::{execute_work, Request, Response, Work};
use lams_trace::TraceBundle;
use lams_workloads::{suite, synthetic_app, AppSpec, Scale, SyntheticConfig, Workload};

#[path = "../crates/core/tests/support/oracle.rs"]
mod oracle;

use oracle::Observed;

/// Whether the full draw runs: in release. A debug build takes a sample.
const FULL: bool = !cfg!(debug_assertions);

/// What a run answers, projected onto what the oracle computes.
type Answer = Result<Observed, Error>;

#[test]
fn every_path_answers_what_the_oracle_answers() {
    let dir = std::env::temp_dir().join(format!("lams_scenarios_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    for id in 0..if FULL { 256 } else { 8 } {
        let case = Case::draw(id, &dir);
        let (s, layout, remapped) = case.resolve();
        if catch_unwind(AssertUnwindSafe(|| case.check(&s, &layout, remapped))).is_err() {
            panic!("case {id} failed; reproduce it with\n{}", case.line(&s));
        }
        if let Some(path) = &case.recorded {
            std::fs::remove_file(path).expect("the case's bundle");
        }
    }
    std::fs::remove_dir(&dir).expect("an emptied scratch directory");
}

/// Draws from one splitmix64 stream.
struct Draw(SplitMix64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize].clone()
    }
}

/// The memo a path runs on.
#[derive(Debug, Clone, Copy)]
enum Memo {
    Shared,
    Bounded(usize),
    Disabled,
}

impl Memo {
    const ALL: [Memo; 5] = {
        use Memo::*;
        [Shared, Bounded(0), Bounded(1), Bounded(3), Disabled]
    };

    fn make(self) -> Arc<ArtifactCache> {
        match self {
            Memo::Shared => ArtifactCache::shared(),
            Memo::Bounded(n) => Arc::new(ArtifactCache::bounded(n, EvictionPolicy::default())),
            Memo::Disabled => ArtifactCache::disabled(),
        }
    }

    /// The memo's books: a bounded memo never holds more than its
    /// capacity, each resident or evicted entry was a counted miss, and
    /// capacity 0 stores nothing; a disabled memo never hits.
    fn audit(self, memo: &ArtifactCache) {
        let stats = memo.stats();
        let (resident, evicted) = (stats.occupancy_entries, stats.evictions);
        if let Memo::Bounded(cap) = self {
            assert_eq!(stats.capacity_entries, Some(cap as u64), "{stats}");
            assert!(resident <= cap as u64, "{stats}");
            assert!(resident + evicted <= stats.misses(), "{stats}");
        }
        if matches!(self, Memo::Bounded(0) | Memo::Disabled) {
            assert_eq!((stats.hits(), resident, evicted), (0, 0, 0), "{stats}");
        }
    }
}

/// One drawn case.
struct Case {
    id: u64,
    /// The scenario, its deadline not yet set.
    scenario: Scenario,
    /// The deadline as `(percent, short)`: `short` cycles below `percent`
    /// % of where the unbudgeted run ends (its makespan, or the cycle its
    /// queue saturates).
    budget: Option<(u64, u64)>,
    explain: bool,
    /// The oracle's inputs: `workload` is `Workload::concurrent(apps)`.
    apps: Vec<AppSpec>,
    workload: Workload,
    /// A synthetic case's source, or the suite workload recorded for
    /// replay (not under LSM).
    recorded: Option<PathBuf>,
    /// The matrix's and the daemon's memo, the matrix's worker count
    /// and sibling application.
    memo: Memo,
    threads: usize,
    sibling: usize,
}

impl Case {
    fn draw(id: u64, dir: &Path) -> Case {
        let mut d = Draw(SplitMix64::new(id));
        let scales = &[Scale::Tiny, Scale::Small][..if FULL { 2 } else { 1 }];
        let path = dir.join(format!("case{id}.ltr"));
        let (source, apps) = match d.below(3) {
            0 => {
                let (name, scale) = (d.pick(&suite::NAMES), d.pick(scales));
                let app = suite::by_name(name, scale).expect("a suite name");
                let name = name.to_string();
                (Source::App { name, scale }, vec![app])
            }
            1 => {
                let (tasks, scale) = (d.range(1, 3) as usize, Scale::Tiny);
                (Source::Mix { tasks, scale }, suite::mix(tasks, scale))
            }
            _ => {
                let app = synthetic_app(SyntheticConfig {
                    seed: d.below(64),
                    stages: d.range(1, 3) as usize,
                    procs_per_stage: d.range(1, 4) as usize,
                    dim: 16,
                    max_halo: d.below(3) as i64,
                });
                let app = oracle::repeat_passes(&app, d.range(1, 6) as i64);
                (Source::File(path.display().to_string()), vec![app])
            }
        };
        let workload = Workload::concurrent(apps.clone()).expect("valid applications");
        // No LSM on a file: a bundle has no symbolic arrays.
        let file = matches!(source, Source::File(_));
        let policy = d.pick(&PolicyKind::ALL[..if file { 3 } else { 4 }]);
        let (kb, ways) = (d.pick(&[2, 4, 8, 16, 32]), d.pick(&[1, 2, 4]));
        let cache = CacheConfig::new(kb * 1024, ways, 32).expect("a valid geometry");
        let occupancy = d.pick(&[9, 20, 75]);
        let bus = match d.below(3) {
            0 => None,
            1 => Some(BusConfig::fcfs(occupancy)),
            _ => Some(BusConfig::windowed(occupancy, d.pick(&[1, 4, 64, 1000]))),
        };
        let cores = Some(d.range(1, 8) as usize);
        let quantum = d.pick(&[None, Some(97), Some(300), Some(2_000), Some(20_000)]);
        let seed = d.below(1000);
        let seed = d.pick(&[None, Some(seed)]);
        let shapes = [
            ArrivalShape::Poisson,
            ArrivalShape::Burst,
            ArrivalShape::Diurnal,
        ];
        let arrivals = ArrivalConfig {
            queue_capacity: d.pick(&[None, Some(2), Some(64)]),
            ..ArrivalConfig::poisson(d.pick(&[400, 900, 3_000]), d.below(1000))
                .with_shape(d.pick(&shapes))
        };
        let arrivals = d.pick(&[None, Some(arrivals)]);
        let budget = match d.below(6) {
            0..=2 => None,
            3 => Some((100, 0)),
            4 => Some((100, 1)),
            _ => Some((d.range(1, 99), 0)),
        };
        let recorded = (policy != PolicyKind::LocalityMap).then(|| {
            record(&workload, &path);
            path
        });
        Case {
            id,
            scenario: Scenario {
                source,
                policy,
                cores,
                quantum,
                seed,
                bus,
                cache: Some(cache),
                deadline: None,
                arrivals,
            },
            budget,
            explain: d.below(2) == 1,
            apps,
            workload,
            recorded,
            memo: d.pick(&Memo::ALL),
            threads: d.range(2, 4) as usize,
            sibling: d.below(suite::NAMES.len() as u64) as usize,
        }
    }

    /// The scenario with its deadline set, the layout its policy runs
    /// on, and the arrays LSM remaps.
    fn resolve(&self) -> (Scenario, Layout, usize) {
        let base = &self.scenario;
        let arrays = self.workload.arrays();
        let mut layout = (Layout::linear(arrays), 0);
        if base.policy == PolicyKind::LocalityMap {
            // The ladder runs on the batch schedule.
            let batch = Scenario {
                arrivals: None,
                ..base.clone()
            };
            let exp = batch.experiment(self.workload.clone(), batch.machine());
            let (_, art) = exp.run_lsm().expect("an unbudgeted batch LSM run");
            if !art.assignment.is_empty() {
                let cache = base.machine().cache;
                let remapped = Layout::remapped(arrays, &cache, &art.assignment);
                layout = (remapped, art.assignment.len());
            }
        }
        let end = match self.oracle(&layout.0, base, base.policy) {
            Ok(o) => o.machine.makespan_cycles,
            Err(Error::QueueSaturated { at_cycle, .. }) => at_cycle,
            Err(e) => panic!("unbudgeted oracle run failed: {e}"),
        };
        let deadline = self
            .budget
            .map(|(percent, short)| (end * percent / 100).saturating_sub(short));
        let s = Scenario {
            deadline,
            ..base.clone()
        };
        (s, layout.0, layout.1)
    }

    /// The daemon line that runs `s`.
    fn line(&self, s: &Scenario) -> String {
        let verb = match s.source {
            Source::File(_) => "replay",
            _ => "run",
        };
        format!("{verb} id={} {s}", self.id)
    }

    /// The oracle's answer for `s` under `kind` on `layout`, with the
    /// miss split on.
    fn oracle(&self, layout: &Layout, s: &Scenario, kind: PolicyKind) -> Answer {
        let machine = s.machine().with_explain(true);
        let mut cfg = EngineConfig::from(machine);
        cfg.max_cycles = s.deadline;
        cfg.arrivals = s.arrivals;
        let sharing = || Arc::new(SharingMatrix::from_workload(&self.workload));
        let quantum = s.quantum.unwrap_or(DEFAULT_QUANTUM);
        let mut policy = kind.scheduler(s.seed.unwrap_or(0), quantum, machine.num_cores, sharing);
        oracle::simulate(&self.apps, &self.workload, layout, policy.as_mut(), cfg)
    }

    /// What every path must answer for `s`, the miss split on.
    fn expect(&self, layout: &Layout, s: &Scenario) -> Answer {
        let want = self.oracle(layout, s, s.policy);
        if s.policy != PolicyKind::LocalityMap || s.deadline.is_none() {
            return want;
        }
        // Under a budget, LSM's ladder runs before its reported run, on
        // the batch schedule: its pilot (LS on the linear layout) can
        // overrun first, with the pilot's error, and so can a candidate
        // layout the ladder names to no caller, with a deadline of that
        // budget.
        let batch = Scenario {
            arrivals: None,
            ..s.clone()
        };
        let linear = Layout::linear(self.workload.arrays());
        self.oracle(&linear, &batch, PolicyKind::Locality)?;
        let cold = observe(&run(s, true, &ArtifactCache::disabled()));
        match &cold {
            Err(Error::DeadlineExceeded {
                budget_cycles,
                elapsed_cycles,
            }) if cold != want => {
                assert_eq!(Some(*budget_cycles), s.deadline);
                assert!(elapsed_cycles > budget_cycles, "{cold:?}");
                cold
            }
            _ => {
                assert_eq!(cold, want, "a cold LSM run");
                want
            }
        }
    }

    fn check(&self, s: &Scenario, layout: &Layout, remapped: usize) {
        let explain = self.explain;
        let answer = self.expect(layout, s);
        // The scenario and its twins, each with its answer.
        let twin = |deadline, arrivals| Scenario {
            deadline,
            arrivals,
            ..s.clone()
        };
        let variants = [
            ("scenario", s.clone(), explain),
            ("without deadline", twin(None, s.arrivals), explain),
            ("without arrivals", twin(s.deadline, None), explain),
            ("explain flipped", s.clone(), !explain),
        ]
        .map(|(name, v, explain)| {
            let want = if v == *s {
                answer.clone()
            } else {
                self.expect(layout, &v)
            };
            (name, v, explain, want.map(|o| project(o, explain)))
        });
        let want = &variants[0].3;

        // A fresh shared memo, then the same memo warm.
        let memo = ArtifactCache::shared();
        let cold = run(s, explain, &memo);
        assert_eq!(observe(&cold), *want, "fresh shared memo");
        let before = memo.stats();
        assert_eq!(observe(&run(s, explain, &memo)), *want, "warm shared memo");
        let after = memo.stats();
        let suite_source = !matches!(s.source, Source::File(_));
        if suite_source && want.is_ok() {
            let reused = after.misses() == before.misses() && after.hits() > before.hits();
            assert!(reused, "a warm run recomputed or never hit: {after}");
        }

        // Every memo, the scenario after its twins and before them.
        for mode in Memo::ALL {
            for after in [true, false] {
                let memo = mode.make();
                let mut order = [0, 1, 2, 3];
                if after {
                    order.rotate_left(1);
                }
                for (name, v, explain, want) in order.map(|i| &variants[i]) {
                    let got = observe(&run(v, *explain, &memo));
                    assert_eq!(
                        got, *want,
                        "{name} on {mode:?}, scenario after twins: {after}"
                    );
                    mode.audit(&memo);
                }
            }
        }

        self.matrix(s, want, remapped);

        // `.ltr` replay of the recorded suite workload.
        if let Some(path) = self.recorded.as_ref().filter(|_| suite_source) {
            let replay = Scenario {
                source: Source::File(path.display().to_string()),
                ..s.clone()
            };
            let got = observe(&run(&replay, explain, &ArtifactCache::shared()));
            assert_eq!(got, *want, "replay of the recorded workload");
            self.daemon(&self.line(&replay), &cold);
        }
        self.daemon(&self.line(s), &cold);
    }

    /// [`ScenarioMatrix::run`] at one thread and at several: the
    /// scenario's group and a sibling group of another weight, the
    /// lighter pushed first so the longest-first queue reorders them.
    fn matrix(&self, s: &Scenario, want: &Answer, remapped: usize) {
        let machine = s.machine().with_explain(self.explain);
        let case = s.experiment(self.workload.clone(), machine);
        let weight = |exp: &Experiment, kind| {
            let mut m = ScenarioMatrix::new();
            m.push("", exp.clone(), kind);
            m.jobs()[0].weight()
        };
        let n = suite::NAMES.len();
        let sibling = (0..n)
            .map(|i| suite::all(Scale::Tiny).swap_remove((self.sibling + i) % n))
            .map(|app| Experiment::isolated(&app, machine))
            .find(|exp| weight(exp, PolicyKind::Random) != weight(&case, s.policy))
            .expect("a sibling of another weight");
        let at = usize::from(weight(&sibling, PolicyKind::Random) < weight(&case, s.policy));
        let mut siblings = Vec::new();
        for runner in [SweepRunner::sequential(), SweepRunner::new(self.threads)] {
            let memo = self.memo.make();
            let groups = [
                ("case", case.clone(), &[s.policy][..]),
                (
                    "sibling",
                    sibling.clone(),
                    &[PolicyKind::Random, PolicyKind::Locality][..],
                ),
            ];
            let mut m = ScenarioMatrix::new();
            for (label, exp, kinds) in [at, 1 - at].map(|i| &groups[i]) {
                m.push_all(*label, &exp.clone().with_memo(Arc::clone(&memo)), kinds);
            }
            let threads = runner.threads();
            match m.run(&runner) {
                Ok(reports) => {
                    let outcome = &reports[at].outcomes()[0];
                    let got = Ok(oracle::observe(&outcome.result));
                    assert_eq!(got, *want, "matrix at {threads} threads on {:?}", self.memo);
                    assert_eq!(outcome.remapped_arrays, remapped, "remapped arrays");
                    siblings.push(format!("{:?}", reports[1 - at]));
                }
                Err((label, e)) => assert_eq!((label, Err(e)), ("case", want.clone())),
            }
            self.memo.audit(&memo);
            let used = memo.stats().misses() > 0 || matches!(self.memo, Memo::Disabled);
            assert!(
                used,
                "the matrix looked nothing up in its experiments' memo"
            );
        }
        if let [one, many] = &siblings[..] {
            assert_eq!(one, many, "the sibling group at {} threads", self.threads);
        }
    }

    /// The daemon's answer to `line` against the library's `reference`
    /// (which the caller held to the oracle): the counts, and the five
    /// arrival fields of an open-system run; or the error's response.
    fn daemon(&self, line: &str, reference: &Result<RunResult, Error>) {
        let work = match Request::parse(line) {
            Ok(Some(Request::Run(r))) => Work::Run(r),
            Ok(Some(Request::Replay(r))) => Work::Replay(r),
            other => panic!("{line}: {other:?}"),
        };
        let memo = self.memo.make();
        let response = execute_work(&work, None, &memo);
        self.memo.audit(&memo);
        match (&response, reference) {
            (Response::Ok { fields, .. }, Ok(r)) => {
                let got: Vec<_> = fields
                    .iter()
                    .filter(|(k, _)| !["app", "policy"].contains(k))
                    .cloned()
                    .collect();
                assert_eq!(got, answer(r), "{line}");
            }
            (_, Err(e)) => {
                let want = Response::from_core_error(&self.id.to_string(), e);
                assert_eq!(response, want, "{line}");
            }
            _ => panic!("{line}: {response}"),
        }
        // The executor is reusable in process: on the same memo the
        // line answers the same again, a `run` now from the memo.
        let hits = memo.stats().hits();
        assert_eq!(execute_work(&work, None, &memo), response, "{line} again");
        self.memo.audit(&memo);
        let served = matches!((&work, self.memo), (Work::Run(_), Memo::Shared));
        if served && response.is_ok() {
            assert!(memo.stats().hits() > hits, "{line} again: {}", memo.stats());
        }
    }
}

/// Runs `s` on its machine, the miss split set to `explain`.
fn run(s: &Scenario, explain: bool, memo: &Arc<ArtifactCache>) -> Result<RunResult, Error> {
    s.run(s.machine().with_explain(explain), memo)
        .map(|(_, r)| r)
}

fn observe(r: &Result<RunResult, Error>) -> Answer {
    r.as_ref().map(oracle::observe).map_err(Clone::clone)
}

/// `o` as a machine explaining its misses or not reports it: a plain
/// machine reads 0 for the 3C split.
fn project(mut o: Observed, explain: bool) -> Observed {
    if !explain {
        let c = &mut o.machine.cache;
        (c.cold_misses, c.capacity_misses, c.conflict_misses) = (0, 0, 0);
    }
    o
}

/// The fields a daemon `ok` line answers a run with, past its name and
/// policy.
fn answer(r: &RunResult) -> Vec<(&'static str, String)> {
    let c = &r.machine.cache;
    let counts = [
        r.makespan_cycles,
        c.hits,
        c.misses,
        r.processes.len() as u64,
    ];
    let mut fields: Vec<_> = ["makespan", "cache_hits", "cache_misses", "processes"]
        .into_iter()
        .zip(counts)
        .collect();
    if let Some(m) = &r.arrivals {
        fields.extend([
            ("arrived", m.completed as u64),
            ("queue_peak", m.queue_depth_peak as u64),
            ("sojourn_p50", m.sojourn.p50),
            ("sojourn_p99", m.sojourn.p99),
            ("queueing_p99", m.queueing.p99),
        ]);
    }
    fields
        .into_iter()
        .map(|(k, v)| (k, v.to_string()))
        .collect()
}

/// Records `w` on its linear layout to `path`, as `trace_tool record`
/// does; the bytes decode to the bundle, op for op.
fn record(w: &Workload, path: &Path) {
    let bundle = w.record(&Layout::linear(w.arrays()));
    let bytes = bundle.to_bytes();
    let decoded = TraceBundle::from_bytes(&bytes).expect("a recorded bundle decodes");
    assert_eq!(decoded.total_ops(), w.total_trace_ops(), "recorded ops");
    assert_eq!(decoded, bundle);
    std::fs::write(path, bytes).expect("a writable scratch directory");
}
