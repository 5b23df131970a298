//! The figure binaries' one path: read the flags, run `(label,
//! Scenario)` groups under every policy, print. A group is the
//! [`Scenario`] a `lams-serve` `run` line and `trace_tool run` parse to,
//! so every figure row is the run that line reproduces.

use std::fmt::Display;

use lams_core::{
    ArtifactCache, ComparisonReport, Fields, Loaded, PolicyKind, Scenario, ScenarioMatrix, Source,
    SweepRunner,
};
use lams_mpsoc::MachineConfig;
use lams_workloads::Scale;

use crate::args::usage_error;
use crate::{bar_chart, csv_table, emit, flag, refuse_unknown_flags};

/// The flags of one figure or table binary, read once.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Problem scale (`--scale`).
    pub scale: Scale,
    /// Applications in the mix (`--tasks`, clamped to `1..=6`; 4).
    pub tasks: usize,
    /// The runner `--threads N` asks for.
    pub runner: SweepRunner,
    /// `mix=TASKS scale=SCALE` with `--bus` and `--arrivals`: what every
    /// group varies. Its policy is a placeholder; groups run them all.
    pub base: Scenario,
}

impl Figure {
    /// Reads the flags of binary `cmd`, which reads those in `known`
    /// (of `scale`, `tasks`, `threads`, `bus` and `arrivals`) and
    /// defaults to `scale`. An unknown flag or a malformed value prints
    /// the error and exits with status 2.
    pub fn read(cmd: &str, known: &[&str], scale: Scale) -> Figure {
        let args: Vec<String> = std::env::args().skip(1).collect();
        refuse_unknown_flags(cmd, &args, known).unwrap_or_else(|e| usage_error(e));
        let scale = flag(&args, "--scale").unwrap_or(scale);
        let tasks = flag(&args, "--tasks").unwrap_or(4).clamp(1, 6);
        let runner = SweepRunner::new(flag(&args, "--threads").unwrap_or(1));
        let line = format!("mix={tasks} scale={scale} policy=ls");
        let mut base: Scenario = line.parse().expect("a valid scenario");
        (base.bus, base.arrivals) = (flag(&args, "--bus"), flag(&args, "--arrivals"));
        Figure {
            scale,
            tasks,
            runner,
            base,
        }
    }

    /// The base scenario's machine, with the miss split the figures print.
    pub fn machine(&self) -> MachineConfig {
        self.base.machine().with_explain(true)
    }

    /// The base scenario with `key=value` set, read as the wire reads
    /// it; panics where the wire would refuse.
    pub fn with(&self, key: &str, value: impl Display) -> Scenario {
        let (line, value) = (self.base.to_string(), value.to_string());
        let mut fields = Fields::parse(line.split_ascii_whitespace()).expect("printed line");
        fields.set(key, &value);
        let s = Scenario::from_fields(&mut fields, false).and_then(|s| fields.finish().map(|()| s));
        s.unwrap_or_else(|e| panic!("{line} {key}={value}: {e}"))
    }

    /// Prints `title`, the thread count, and the `arrivals` marker when
    /// `--arrivals` was given (so batch output stays as it was).
    pub fn header(&self, title: impl Display) {
        emit!("{title}, {} thread(s)", self.runner.threads());
        if let Some(a) = self.base.arrivals {
            emit!("arrivals {a}");
        }
    }

    /// Runs every group under [`PolicyKind::ALL`] on one shared memo, so
    /// groups sharing a workload reuse its traces and LS pilot (CI checks
    /// that fig6's Tiny memo line reports hits): one report per group, in
    /// order. The memo line goes to stderr, as its counts depend on how
    /// workers raced; stdout is identical for any `--threads N`. Panics when a run fails or labels repeat (their
    /// reports would merge and misalign every later row).
    pub fn run(&self, groups: &[(String, Scenario)]) -> Vec<ComparisonReport> {
        let (memo, mut matrix) = (ArtifactCache::shared(), ScenarioMatrix::new());
        for (label, s) in groups {
            let Ok(Loaded::Workload(w)) = s.source.load() else {
                panic!("{s}: not a suite workload");
            };
            let exp = s.experiment(w, s.machine().with_explain(true));
            matrix.push_all(label, &exp, PolicyKind::ALL);
        }
        let reports = matrix
            .run_with_memo(&self.runner, &memo)
            .expect("simulation succeeds");
        assert_eq!(reports.len(), groups.len(), "group labels must be unique");
        eprintln!("memo {}", memo.stats());
        reports
    }

    /// Runs and prints Figure 6 or 7: a CSV row per group and policy, led
    /// by the app name or mix size under column `key`, then a bar chart
    /// of seconds with one bar group per label.
    pub fn bars(&self, key: &str, title: &str, groups: &[(String, Scenario)]) {
        let mut rows = Vec::new();
        let mut series: Vec<_> = PolicyKind::ALL
            .iter()
            .map(|k| (k.abbrev(), vec![]))
            .collect();
        for ((_, s), report) in groups.iter().zip(self.run(groups)) {
            let lead = match &s.source {
                Source::App { name, .. } | Source::File(name) => name.clone(),
                Source::Mix { tasks, .. } => tasks.to_string(),
            };
            for (si, &kind) in PolicyKind::ALL.iter().enumerate() {
                let o = report.outcome(kind).expect("ran");
                let c = &o.result.machine.cache;
                series[si].1.push(o.result.seconds);
                rows.push(format!(
                    "{lead},{kind},{},{:.6},{:.3},{},{},{}",
                    o.result.makespan_cycles,
                    o.result.seconds,
                    c.hit_rate() * 100.0,
                    c.misses,
                    c.conflict_misses,
                    o.remapped_arrays,
                ));
            }
        }
        let columns = "policy,cycles,seconds,hit_rate_pct,misses,conflict_misses,remapped";
        emit(csv_table(&format!("{key},{columns}"), &rows));
        let labels: Vec<&str> = groups.iter().map(|(label, _)| label.as_str()).collect();
        emit(bar_chart(title, &labels, &series, "s"));
    }
}
