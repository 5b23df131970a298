//! The paper's experimental harness: isolated and concurrent runs under
//! the four schedulers, including the LSM data-mapping phase.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use lams_layout::{
    relayout_pass, AdjacentArrays, ArrayId, ConflictMatrix, Layout, RemapAssignment,
};
use lams_mpsoc::MachineConfig;
use lams_presburger::IndexSet;
use lams_procgraph::ProcessId;
use lams_workloads::{AppSpec, Workload};

use crate::arrivals::ArrivalConfig;
use crate::memo::ArtifactCache;
use crate::report::ComparisonReport;
use crate::round_robin::DEFAULT_QUANTUM;
use crate::{
    execute_cached, EngineConfig, Error, PolicyKind, Result, RunResult, ScenarioMatrix,
    SharingMatrix, SweepRunner,
};

/// What the LSM data-mapping phase decided (kept for inspection).
#[derive(Debug, Clone)]
pub struct LsmArtifacts {
    /// The conflict matrix the Figure 5 pass consumed.
    pub conflicts: ConflictMatrix,
    /// The schedule-derived adjacency relation.
    pub adjacency: AdjacentArrays,
    /// The chosen half-page assignment.
    pub assignment: RemapAssignment,
}

/// One experiment: a workload, a machine, and knobs shared across
/// policies (RRS quantum, RS seed). Mirrors the paper's Section 4 setup.
///
/// LSM is orchestrated as in the paper: scheduling is locality-aware
/// *and* the arrays are re-layouted before execution. The harness (1)
/// runs LS once on the plain linear layout (the *pilot*), (2) derives
/// the "successively scheduled on the same core" relation from that
/// schedule, (3) runs the Figure 5 conflict pass to pick half-page
/// assignments, and (4) re-runs LS on each remapped layout. The paper's
/// rule is one such pass: the full adjacency at the mean conflict
/// count. The harness walks a ladder around it — the full adjacency,
/// same-process pairs only, then each application's own arrays, each at
/// the mean × 1, 4, 16, 64 and 256 — and reports the first layout with
/// the strictly smallest makespan when it is no worse than the pilot's,
/// else the pilot.
#[derive(Debug, Clone)]
pub struct Experiment {
    workload: Workload,
    machine: MachineConfig,
    quantum: u64,
    seed: u64,
    relayout_threshold: Option<f64>,
    deadline_cycles: Option<u64>,
    arrivals: Option<ArrivalConfig>,
    memo: Arc<ArtifactCache>,
}

impl Experiment {
    /// An isolated-application experiment (one bar group of Figure 6).
    ///
    /// # Panics
    ///
    /// Panics when the application spec fails validation (suite apps
    /// never do); use [`Experiment::for_workload`] with
    /// [`Workload::single`] for fallible construction.
    pub fn isolated(app: &AppSpec, machine: MachineConfig) -> Self {
        let w = Workload::single(app.clone()).expect("valid application spec");
        Experiment::for_workload(w, machine)
    }

    /// A concurrent-mix experiment (one `|T|` point of Figure 7).
    ///
    /// # Panics
    ///
    /// Panics when any application spec fails validation.
    pub fn concurrent(apps: &[AppSpec], machine: MachineConfig) -> Self {
        let w = Workload::concurrent(apps.to_vec()).expect("valid application specs");
        Experiment::for_workload(w, machine)
    }

    /// Wraps an already-built workload.
    pub fn for_workload(workload: Workload, machine: MachineConfig) -> Self {
        Experiment {
            workload,
            machine,
            quantum: DEFAULT_QUANTUM,
            seed: 0,
            relayout_threshold: None,
            deadline_cycles: None,
            arrivals: None,
            memo: ArtifactCache::shared(),
        }
    }

    /// Overrides the RRS preemption quantum (cycles).
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        self.quantum = quantum;
        self
    }

    /// Overrides the RS random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the thresholds `T` of LSM's Figure 5 ladder with `t`
    /// alone, on every adjacency of the ladder. By default the ladder
    /// tries five: the mean conflict count across all array pairs (the
    /// paper's `T`) × 1, 4, 16, 64 and 256.
    pub fn with_relayout_threshold(mut self, t: f64) -> Self {
        self.relayout_threshold = Some(t);
        self
    }

    /// Caps every engine run at `budget` **simulated** cycles
    /// ([`EngineConfig::with_deadline_cycles`]): a run whose global
    /// clock would pass the budget fails with
    /// [`Error::DeadlineExceeded`](crate::Error::DeadlineExceeded)
    /// instead of running on. Deterministic — a scenario either always
    /// fits or never does — and runs that fit are bit-identical to
    /// unbudgeted ones, so `lams-serve` uses this to bound worst-case
    /// request cost without perturbing results. An LSM budget also
    /// bounds its pilot, whose overrun is the run's error; a candidate
    /// layout that would overrun is skipped, since it cannot beat a
    /// pilot that fitted.
    pub fn with_deadline_cycles(mut self, budget: u64) -> Self {
        self.deadline_cycles = Some(budget);
        self
    }

    /// Runs the workload as an *open system*: processes are admitted by
    /// the deterministic arrival stream `arrivals` generates
    /// ([`ArrivalPlan`](crate::ArrivalPlan)) instead of all being
    /// present at cycle 0, and the engine result carries steady-state
    /// queueing metrics
    /// ([`RunResult::arrivals`](crate::RunResult::arrivals)). For LSM,
    /// the data-mapping ladder still runs on the batch schedule (the
    /// layout decision is compile-time); only the final reported run
    /// replays the chosen layout under the arrival stream.
    pub fn with_arrivals(mut self, arrivals: ArrivalConfig) -> Self {
        self.arrivals = Some(arrivals);
        self
    }

    /// Overrides the artifact memo ([`ArtifactCache`]) this experiment
    /// fills and consults — the one memo every run of it uses, inside a
    /// sweep ([`ScenarioMatrix::run`]) too. Fresh by default; clones of
    /// an experiment share its memo (the `Arc` is cloned, not the
    /// cache), so a sweep shares one memo across its jobs by giving it
    /// to every experiment it pushes. Any memo — shared, fresh or
    /// [`ArtifactCache::disabled`] — yields bit-identical results; a
    /// warmer one just gets them sooner.
    pub fn with_memo(mut self, memo: Arc<ArtifactCache>) -> Self {
        self.memo = memo;
        self
    }

    /// The artifact memo this experiment fills and consults.
    pub fn memo(&self) -> &Arc<ArtifactCache> {
        &self.memo
    }

    /// The workload under experiment.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The machine configuration under experiment.
    pub fn machine(&self) -> MachineConfig {
        self.machine
    }

    /// Runs one scheduling strategy and returns the engine result.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn run(&self, kind: PolicyKind) -> Result<RunResult> {
        if kind == PolicyKind::LocalityMap {
            return Ok(self.run_lsm()?.0);
        }
        let sharing = || Arc::new(SharingMatrix::from_workload(&self.workload));
        let linear = Layout::linear(self.workload.arrays());
        let result = self.run_on(kind, &linear, self.arrivals, &sharing)?;
        Ok(Arc::unwrap_or_clone(result))
    }

    /// One run of `kind` on `layout` under `arrivals` and this
    /// experiment's budget; `sharing` supplies the matrix LS schedules
    /// by. A batch LS or LSM run is served from the memo's LS-result
    /// slot ([`ArtifactCache::ls_result`]): LS has no quantum and no
    /// seed, so the plain LS run, LSM's pilot and every candidate whose
    /// effective per-process layouts match share one simulation. An
    /// open-system run also depends on its arrival plan, so it never
    /// touches the slot.
    ///
    /// The budget is outside the slot key, so a hit may hold a run that
    /// overruns it. An LS hit (the plain run or LSM's pilot) is then
    /// re-run, which fails with exactly the cold run's error. An LSM
    /// candidate's hit is returned as served and never re-simulated: it
    /// cannot beat a pilot that fitted.
    fn run_on(
        &self,
        kind: PolicyKind,
        layout: &Layout,
        arrivals: Option<ArrivalConfig>,
        sharing: &impl Fn() -> Arc<SharingMatrix>,
    ) -> Result<Arc<RunResult>> {
        let run = || {
            let mut cfg = EngineConfig::from(self.machine);
            cfg.max_cycles = self.deadline_cycles;
            cfg.arrivals = arrivals;
            let cores = self.machine.num_cores;
            let mut policy = kind.scheduler(self.seed, self.quantum, cores, sharing);
            execute_cached(&self.workload, layout, policy.as_mut(), cfg, &self.memo)
        };
        if arrivals.is_some() || !matches!(kind, PolicyKind::Locality | PolicyKind::LocalityMap) {
            return run().map(Arc::new);
        }
        let served = self
            .memo
            .ls_result(&self.workload, &self.machine, layout, run)?;
        match self.deadline_cycles {
            Some(budget) if kind == PolicyKind::Locality && served.makespan_cycles > budget => {
                run().map(Arc::new)
            }
            _ => Ok(served),
        }
    }

    /// Runs LSM and additionally returns the data-mapping artifacts.
    ///
    /// The pilot and the ladder run on the batch schedule (the layout
    /// decision is compile-time), served from this experiment's memo,
    /// so the ladder pays only for the simulations of *new* layouts.
    /// They share one sharing matrix, built when the first of them
    /// needs it and dropped when the run returns.
    ///
    /// # Errors
    ///
    /// Propagates engine and layout errors, and the pilot's overrun of
    /// the budget; a candidate's overrun only skips that candidate.
    pub fn run_lsm(&self) -> Result<(RunResult, LsmArtifacts)> {
        let matrix = OnceCell::new();
        let sharing = || {
            let build = || Arc::new(SharingMatrix::from_workload(&self.workload));
            Arc::clone(matrix.get_or_init(build))
        };
        let w = &self.workload;
        let cache = self.machine.cache;
        let linear = Layout::linear(w.arrays());
        let pilot = self.run_on(PolicyKind::Locality, &linear, None, &sharing)?;

        // Half-page fit guard: the Figure 4 transform confines an array to
        // half of the cache sets, which only helps when the slices
        // processes actually touch *fit* in half the cache — otherwise the
        // remap trades conflict misses for guaranteed self-thrash. Arrays
        // with a per-process footprint over `cache_size / 2` are therefore
        // never re-layouted. (An engineering guard the paper leaves
        // implicit.)
        let fits: Vec<bool> = w
            .arrays()
            .iter()
            .map(|(id, decl)| {
                w.process_ids()
                    .filter_map(|p| w.data_set(p).get(&id))
                    .all(|s| s.len() * decl.elem_bytes() <= cache.size_bytes / 2)
            })
            .collect();
        let elig: BTreeMap<ProcessId, Vec<ArrayId>> = w
            .process_ids()
            .map(|p| {
                (
                    p,
                    w.arrays_of(p)
                        .into_iter()
                        .filter(|a| fits[a.as_usize()])
                        .collect(),
                )
            })
            .collect();

        // Figure 5's adjacency over the eligible arrays: the arrays of one
        // process (`same`), and also those of processes the pilot ran
        // successively on one core (`full`, the paper's condition).
        let within = |procs: &mut dyn Iterator<Item = ProcessId>| {
            let mut adj = AdjacentArrays::new();
            procs.for_each(|p| adj.insert_within(&elig[&p]));
            adj
        };
        let same = within(&mut w.process_ids());
        let successive = || {
            let pairs = pilot.core_sequences.iter().flat_map(|seq| seq.windows(2));
            pairs.map(|pair| (pair[0], pair[1]))
        };
        let mut full = same.clone();
        successive().for_each(|(p, q)| full.insert_across(&elig[&p], &elig[&q]));

        // Conflicts at the paper's granularity: between the eligible
        // footprints of adjacent process pairs (each process with itself,
        // then each successive pair), in colliding cache-set line pairs.
        let empty = IndexSet::new();
        let mut hists = BTreeMap::new();
        for (&p, arrays) in &elig {
            for &a in arrays {
                let elems = w.data_set(p).get(&a).unwrap_or(&empty);
                hists.insert((p, a), linear.set_histogram(a, elems, &cache)?);
            }
        }
        let mut conflicts = ConflictMatrix::new(w.arrays().len());
        for (p, q) in w.process_ids().map(|p| (p, p)).chain(successive()) {
            for &x in &elig[&p] {
                for &y in elig[&q].iter().filter(|&&y| y != x) {
                    let (hx, hy) = (&hists[&(p, x)], &hists[&(q, y)]);
                    conflicts.add(x, y, hx.iter().zip(hy).map(|(&a, &b)| a * b).sum());
                }
            }
        }

        // The ladder. The paper fixes `T` at the mean conflict count, but
        // the matrix measures collision *potential*, so one threshold can
        // over-remap a layout that is already benign. The harness also
        // tries coarser cuts that move only the hottest pairs, the purely
        // compile-time adjacency, and each application's own mapping (no
        // cross-application coordination), and keeps the best; when none
        // helps, LSM is LS, as the paper observes for low-conflict cases.
        let mean = conflicts.mean_all_pairs();
        let thresholds = match self.relayout_threshold {
            Some(t) => vec![t],
            None => [1.0, 4.0, 16.0, 64.0, 256.0].map(|k| mean * k).to_vec(),
        };
        let per_app: Vec<AdjacentArrays> = w
            .tasks()
            .iter()
            .map(|task| within(&mut task.processes()))
            .filter(|adj| !adj.is_empty())
            .collect();
        let ladder: Vec<(&AdjacentArrays, f64)> = [&full, &same]
            .into_iter()
            .chain(&per_app)
            .flat_map(|adj| thresholds.iter().map(move |&t| (adj, t)))
            .collect();

        // Walk it in order, each distinct non-empty assignment once (an
        // empty one is the pilot), keeping the first strictly smallest
        // makespan; it wins over the pilot unless the pilot is faster.
        let mut tried = Vec::new();
        let mut best: Option<(Arc<RunResult>, RemapAssignment, Layout)> = None;
        for (adj, t) in ladder {
            let assignment = relayout_pass(&conflicts, adj, Some(t));
            if assignment.is_empty() || tried.contains(&assignment) {
                continue;
            }
            tried.push(assignment.clone());
            let remapped = Layout::remapped(w.arrays(), &cache, &assignment);
            let result = match self.run_on(PolicyKind::LocalityMap, &remapped, None, &sharing) {
                Err(Error::DeadlineExceeded { .. }) => continue,
                result => result?,
            };
            if best
                .as_ref()
                .is_none_or(|(b, ..)| result.makespan_cycles < b.makespan_cycles)
            {
                best = Some((result, assignment, remapped));
            }
        }
        let (result, assignment, layout) = match best {
            Some(b) if b.0.makespan_cycles <= pilot.makespan_cycles => b,
            _ => (pilot, RemapAssignment::new(), linear),
        };
        let result = match self.arrivals {
            None => result,
            arrivals => self.run_on(PolicyKind::LocalityMap, &layout, arrivals, &sharing)?,
        };
        let artifacts = LsmArtifacts {
            conflicts,
            adjacency: full,
            assignment,
        };
        Ok((Arc::unwrap_or_clone(result), artifacts))
    }

    /// Runs several strategies and collects a comparison report.
    ///
    /// Delegates to a one-group [`ScenarioMatrix`] run sequentially: the
    /// report is the policies' [`Experiment::run`]s, one after another.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn run_all(&self, kinds: &[PolicyKind]) -> Result<ComparisonReport> {
        if kinds.is_empty() {
            return Ok(ComparisonReport::new(
                self.workload.name().to_owned(),
                self.machine,
                Vec::new(),
            ));
        }
        let mut matrix = ScenarioMatrix::new();
        matrix.push_all(self.workload.name(), self, kinds);
        let reports = matrix.run(&SweepRunner::sequential());
        let mut reports = reports.map_err(|(_, e)| e)?;
        Ok(reports
            .pop()
            .expect("single-group matrix yields one report"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lams_workloads::{suite, Scale};

    fn machine4() -> MachineConfig {
        MachineConfig::paper_default().with_cores(4)
    }

    #[test]
    fn isolated_runs_all_policies() {
        let app = suite::shape(Scale::Tiny);
        let report = Experiment::isolated(&app, machine4())
            .run_all(PolicyKind::ALL)
            .unwrap();
        for &k in PolicyKind::ALL {
            assert!(report.cycles(k) > 0, "{k} did not run");
        }
    }

    #[test]
    fn lsm_produces_artifacts() {
        let apps = vec![suite::shape(Scale::Tiny), suite::track(Scale::Tiny)];
        let exp = Experiment::concurrent(&apps, machine4()).with_relayout_threshold(0.0);
        let (result, art) = exp.run_lsm().unwrap();
        assert!(result.makespan_cycles > 0);
        assert!(!art.adjacency.is_empty());
        // With threshold 0 and real conflicts, something gets remapped.
        assert!(!art.assignment.is_empty());
        assert!(art.conflicts.len() >= 10);
    }

    #[test]
    fn locality_not_slower_than_random_on_tiny_suite() {
        // The aggregate Figure 6 claim at Tiny scale: LS beats (or at
        // worst matches) RS across the suite.
        let mut ls_total = 0u64;
        let mut rs_total = 0u64;
        for app in suite::all(Scale::Tiny) {
            let exp = Experiment::isolated(&app, MachineConfig::paper_default());
            ls_total += exp.run(PolicyKind::Locality).unwrap().makespan_cycles;
            rs_total += exp.run(PolicyKind::Random).unwrap().makespan_cycles;
        }
        assert!(
            ls_total <= rs_total,
            "LS ({ls_total}) slower than RS ({rs_total}) across the suite"
        );
    }

    #[test]
    fn quantum_and_seed_knobs_change_runs() {
        let app = suite::shape(Scale::Tiny);
        let base = Experiment::isolated(&app, machine4());
        let r1 = base.run(PolicyKind::RoundRobin).unwrap();
        let r2 = base
            .clone()
            .with_quantum(1_000)
            .run(PolicyKind::RoundRobin)
            .unwrap();
        assert_ne!(r1.makespan_cycles, r2.makespan_cycles);
        let s1 = base.run(PolicyKind::Random).unwrap();
        let s2 = base.clone().with_seed(99).run(PolicyKind::Random).unwrap();
        // Different seeds almost surely give different schedules; allow
        // equality of makespans but demand different core sequences.
        assert!(s1.core_sequences != s2.core_sequences || s1.makespan_cycles != s2.makespan_cycles);
    }
}
