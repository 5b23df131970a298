//! The figure binaries' one path: read the flags, run `(label,
//! Scenario)` groups under every policy, print. A group is the
//! [`Scenario`] a `lams-serve` `run` line and `trace_tool run` parse to,
//! so every figure row is the run that line reproduces.

use std::fmt::Display;
use std::sync::Arc;

use lams_core::{
    in_range, ArtifactCache, ComparisonReport, Fields, Loaded, Parsed, PolicyKind, Scenario,
    ScenarioMatrix, Source, SweepRunner,
};
use lams_mpsoc::MachineConfig;
use lams_workloads::{suite, Scale};

use crate::{bar_chart, csv_table, emit, exit_with, flag_error};

/// The flags of one figure or table binary, read once.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Problem scale (`--scale`).
    pub scale: Scale,
    /// Applications in the mix (`--tasks`, `1..=6`; 4).
    pub tasks: usize,
    /// The runner `--threads N` asks for.
    pub runner: SweepRunner,
    /// The flags as read, `--scale`, `--tasks` and `--threads` taken
    /// and a placeholder policy set: what every scenario of the figure
    /// lays its keys over.
    fields: Fields<'static>,
}

impl Figure {
    /// Reads the flags of binary `cmd`, which reads those in `known`
    /// (of `scale`, `tasks`, `threads`, `bus` and `arrivals`) and
    /// defaults to `scale`. An unknown, repeated or valueless flag, a
    /// stray positional, a malformed value or a `--tasks` outside
    /// `1..=6` prints the error and exits with status 2.
    pub fn read(cmd: &str, known: &[&str], scale: Scale) -> Figure {
        // Every scenario of the run borrows from the arguments.
        let args = Vec::leak(std::env::args().skip(1).collect());
        let read = || -> Parsed<Figure> {
            let mut fields = Fields::from_flags(args, known)?;
            let scale = fields.parsed("scale")?.unwrap_or(scale);
            let tasks: usize = fields.parsed("tasks")?.unwrap_or(4);
            in_range("tasks", tasks as u64, 1, suite::NAMES.len() as u64)?;
            let threads = fields.parsed("threads")?.unwrap_or(1);
            // A placeholder: groups run every policy.
            fields.set("policy", "ls");
            let fig = Figure {
                scale,
                tasks,
                runner: SweepRunner::new(threads),
                fields,
            };
            fig.scenario(None).map(|_| fig)
        };
        read().unwrap_or_else(|e| exit_with(2, flag_error(cmd, e)))
    }

    /// `mix=TASKS scale=SCALE` with `--bus` and `--arrivals`: what every
    /// group varies. Its policy is a placeholder; groups run them all.
    pub fn base(&self) -> Scenario {
        self.scenario(None).expect("read checked it")
    }

    /// The base scenario's machine, with the miss split the figures print.
    pub fn machine(&self) -> MachineConfig {
        self.base().machine().with_explain(true)
    }

    /// The base scenario with `key=value` set, read as the wire reads
    /// it; panics where the wire would refuse.
    pub fn with(&self, key: &str, value: impl Display) -> Scenario {
        let value = value.to_string();
        self.scenario(Some((key, &value)))
            .unwrap_or_else(|e| panic!("{} {key}={value}: {e}", self.base()))
    }

    /// The flags as a scenario at `mix=TASKS scale=SCALE`, with `set`'s
    /// `key=value` laid over them.
    fn scenario(&self, set: Option<(&str, &str)>) -> Parsed<Scenario> {
        let (mix, scale) = (self.tasks.to_string(), self.scale.to_string());
        let mut fields = self.fields.clone();
        fields.set("mix", &mix);
        fields.set("scale", &scale);
        if let Some((key, value)) = set {
            fields.set(key, value);
        }
        let s = Scenario::from_fields(&mut fields, false)?;
        fields.finish().map(|()| s)
    }

    /// Prints `title`, the thread count, and the `arrivals` marker when
    /// `--arrivals` was given (so batch output stays as it was).
    pub fn header(&self, title: impl Display) {
        emit!("{title}, {} thread(s)", self.runner.threads());
        if let Some(a) = self.base().arrivals {
            emit!("arrivals {a}");
        }
    }

    /// Runs every group under [`PolicyKind::ALL`], every group's
    /// experiment on one shared memo, so groups sharing a workload reuse
    /// its traces and LS pilot (CI checks
    /// that fig6's Tiny memo line reports hits): one report per group, in
    /// order. The memo line goes to stderr, as its counts depend on how
    /// workers raced; stdout is identical for any `--threads N`. Panics
    /// when labels repeat (their reports would merge and misalign every
    /// later row).
    ///
    /// # Errors
    ///
    /// `SCENARIO: ERROR` for the first group that fails to load or run.
    pub fn run(&self, groups: &[(String, Scenario)]) -> Result<Vec<ComparisonReport>, String> {
        let (memo, mut matrix) = (ArtifactCache::shared(), ScenarioMatrix::new());
        for (label, s) in groups {
            let Loaded::Workload(w) = s.source.load().map_err(|e| format!("{s}: {e}"))? else {
                panic!("{s}: not a suite workload");
            };
            let exp = s.experiment(w, s.machine().with_explain(true));
            matrix.push_all(label, &exp.with_memo(Arc::clone(&memo)), PolicyKind::ALL);
        }
        let reports = matrix.run(&self.runner).map_err(|(label, e)| {
            let (_, s) = groups.iter().find(|(l, _)| l == label).expect("a group");
            format!("{s}: {e}")
        })?;
        assert_eq!(reports.len(), groups.len(), "group labels must be unique");
        eprintln!("memo {}", memo.stats());
        Ok(reports)
    }

    /// Runs and prints Figure 6 or 7: a CSV row per group and policy, led
    /// by the app name or mix size under column `key`, then a bar chart
    /// of seconds with one bar group per label. A group that fails
    /// prints [`Figure::run`]'s error and exits with status 1.
    pub fn bars(&self, key: &str, title: &str, groups: &[(String, Scenario)]) {
        let mut rows = Vec::new();
        let mut series: Vec<_> = PolicyKind::ALL
            .iter()
            .map(|k| (k.abbrev(), vec![]))
            .collect();
        let reports = self.run(groups).unwrap_or_else(|e| exit_with(1, e));
        for ((_, s), report) in groups.iter().zip(reports) {
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
