//! Compiling [`AppSpec`]s into a runnable [`Workload`].

use std::fmt;

use lams_layout::{ArrayId, ArrayTable, Layout};
use lams_presburger::{AffineMap, DataSet};
use lams_procgraph::{EpgBuilder, ProcessGraph, ProcessId, Task, TaskId};

use crate::spec::Linear;
use crate::{AccessKind, AppSpec, Result};

/// A process's access with global array ids and the subscript map
/// linearized against the array extents (coefficients aligned with the
/// iteration dimensions).
#[derive(Debug, Clone)]
pub(crate) struct ResolvedAccess {
    pub(crate) array: ArrayId,
    pub(crate) coeffs: Vec<i64>,
    pub(crate) constant: i64,
    pub(crate) write: bool,
}

/// Everything the engine needs to know about one process.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedProcess {
    pub(crate) name: String,
    pub(crate) task: TaskId,
    pub(crate) bbox: Vec<(i64, i64)>,
    pub(crate) accesses: Vec<ResolvedAccess>,
    pub(crate) compute: u64,
    pub(crate) data_set: DataSet<ArrayId>,
    pub(crate) num_iters: u64,
}

impl ResolvedProcess {
    /// Feeds `h` exactly what trace compilation reads
    /// from the process: all of [`Workload::process_fingerprint`] and
    /// the per-process middle of [`Workload::fingerprint`].
    #[deny(unused_variables)]
    fn write_trace_inputs(&self, h: &mut lams_mpsoc::FingerprintHasher) {
        // No `..`, here or on the accesses: a new field fails the build
        // until it is hashed or named `_` with its reason
        // (docs/invariants.md).
        let ResolvedProcess {
            // Labels, not trace inputs: `Workload::fingerprint` hashes
            // the name and the task partition itself.
            name: _,
            task: _,
            bbox,
            accesses,
            compute,
            // Derived from `bbox` and `accesses`; `Workload::fingerprint`
            // hashes it as the sharing matrix's raw material.
            data_set: _,
            num_iters,
        } = self;
        h.write_len(bbox.len());
        for &(lo, hi) in bbox {
            h.write_i64(lo);
            h.write_i64(hi);
        }
        // The old is-a-box flag: keeps every memo key and the suite pin.
        h.write_bool(true);
        h.write_len(accesses.len());
        for a in accesses {
            let ResolvedAccess {
                array,
                coeffs,
                constant,
                write,
            } = a;
            h.write_u32(array.index());
            h.write_len(coeffs.len());
            for &c in coeffs {
                h.write_i64(c);
            }
            h.write_i64(*constant);
            h.write_bool(*write);
        }
        h.write_u64(*compute);
        h.write_u64(*num_iters);
    }
}

/// Summary information about one process of a workload.
///
/// Returned by [`Workload::process`]; useful for reports and debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessHandle {
    /// The process's global id.
    pub id: ProcessId,
    /// Its task.
    pub task: TaskId,
    /// Human-readable name (`"app.stage.k"`).
    pub name: String,
    /// Iterations in its loop nest.
    pub num_iters: u64,
    /// Memory accesses per iteration.
    pub accesses_per_iter: usize,
}

/// One or more applications compiled into global process/array id space:
/// the unit the scheduling engine runs.
///
/// Use [`Workload::single`] for the paper's isolated experiments
/// (Figure 6) and [`Workload::concurrent`] for the multi-application
/// mixes (Figure 7).
#[derive(Debug, Clone)]
pub struct Workload {
    name: String,
    arrays: ArrayTable,
    epg: ProcessGraph,
    tasks: Vec<Task>,
    procs: Vec<ResolvedProcess>,
    /// Lazily computed content fingerprint (see
    /// [`Workload::fingerprint`]). Cloning a workload clones the cached
    /// value — content is immutable after construction, so it stays
    /// valid.
    fp: std::sync::OnceLock<lams_mpsoc::Fingerprint>,
    /// Lazily computed per-process content fingerprints (index =
    /// process id; see [`Workload::process_fingerprint`]).
    proc_fps: std::sync::OnceLock<Vec<lams_mpsoc::Fingerprint>>,
}

impl Workload {
    /// Compiles a single application.
    ///
    /// # Errors
    ///
    /// Propagates validation and footprint-computation failures.
    pub fn single(app: AppSpec) -> Result<Self> {
        Workload::concurrent(vec![app])
    }

    /// Compiles several applications for concurrent execution. Arrays
    /// and processes receive globally unique ids; there are no
    /// inter-application dependences or shared arrays (matching the
    /// paper's workload construction).
    ///
    /// # Errors
    ///
    /// Propagates validation and footprint-computation failures.
    pub fn concurrent(apps: Vec<AppSpec>) -> Result<Self> {
        let mut arrays = ArrayTable::new();
        let mut builder = EpgBuilder::new();
        let mut tasks = Vec::new();
        let mut procs: Vec<ResolvedProcess> = Vec::new();
        let mut names = Vec::new();

        for (ti, app) in apps.into_iter().enumerate() {
            let mut linear = app.resolve()?.into_iter();
            let AppSpec {
                name,
                arrays: app_arrays,
                processes,
                deps,
                ..
            } = app;
            let array_off = arrays.merge(&app_arrays);
            // Real loaders place each application's data segment on a page
            // boundary; that systematic cross-application alignment is the
            // conflict source the paper's data re-layout targets.
            if !app_arrays.is_empty() {
                arrays.set_align(lams_layout::ArrayId::new(array_off), 4096);
            }
            let task = Task::with_base(
                TaskId::new(ti as u32),
                name.clone(),
                ProcessId::new(procs.len() as u32),
                processes.len() as u32,
            );
            names.push(name);
            builder.add_task(&task)?;
            for (from, to) in deps {
                builder.add_edge(task.process(from as u32), task.process(to as u32))?;
            }

            for p in processes {
                let num_iters = p.space.count()?;
                let mut accesses = Vec::with_capacity(p.accesses.len());
                let mut data_set = DataSet::new();
                for a in &p.accesses {
                    let Linear {
                        coeffs,
                        constant,
                        unbound,
                    } = linear.next().expect("one linear form per access");
                    let global = ArrayId::new(array_off + a.array.index());
                    // Exact element footprint, in closed form over the box.
                    let img = if unbound {
                        // The symbolic route names the stray variable in
                        // its error (or finds that it cancels out).
                        let decl = app_arrays.get(a.array).expect("validated");
                        let lin = a.map.linearized(decl.extents())?;
                        p.space.image_1d(&AffineMap::new(vec![lin]))?
                    } else {
                        p.space.linear_image(&coeffs, constant)?
                    };
                    data_set.insert(global, img);
                    accesses.push(ResolvedAccess {
                        array: global,
                        coeffs,
                        constant,
                        write: matches!(a.kind, AccessKind::Write),
                    });
                }
                procs.push(ResolvedProcess {
                    name: p.name,
                    task: task.id(),
                    bbox: p.space.bounds().to_vec(),
                    accesses,
                    compute: p.compute_cycles_per_iter,
                    data_set,
                    num_iters,
                });
            }
            tasks.push(task);
        }

        Ok(Workload {
            name: names.join("+"),
            arrays,
            epg: builder.build()?,
            tasks,
            procs,
            fp: std::sync::OnceLock::new(),
            proc_fps: std::sync::OnceLock::new(),
        })
    }

    /// Content fingerprint: a 128-bit structural hash over everything
    /// that determines the workload's simulated behaviour — arrays,
    /// dependence edges, task structure and every process's iteration
    /// space, accesses, compute cost and exact data footprint. Two
    /// independently built workloads with identical content fingerprint
    /// equal; any structural difference changes the fingerprint (with
    /// overwhelming probability — the key is 128 bits wide).
    ///
    /// Used as the memo key for workload-derived artifacts (compiled
    /// trace program sets, Locality pilot runs) in
    /// `lams_core::memo::ArtifactCache`. Computed once per workload and
    /// cached.
    #[deny(unused_variables)]
    pub fn fingerprint(&self) -> lams_mpsoc::Fingerprint {
        // No `..`: a new field fails the build here until it is hashed
        // or named `_` with its reason (docs/invariants.md).
        let Workload {
            name,
            arrays,
            epg,
            tasks,
            procs,
            fp,
            // Memo cache of derived fingerprints, not content: a pure
            // function of the fields hashed below.
            proc_fps: _,
        } = self;
        *fp.get_or_init(|| {
            let mut h = lams_mpsoc::FingerprintHasher::new("lams.workload");
            h.write_str(name);
            // Arrays: id order is the table order, so position encodes id.
            h.write_len(arrays.len());
            for (_, decl) in arrays.iter() {
                h.write_str(decl.name());
                h.write_len(decl.extents().len());
                for &e in decl.extents() {
                    h.write_i64(e);
                }
                h.write_u64(decl.elem_bytes());
                h.write_u64(decl.align());
            }
            // Task structure (process partition into applications).
            h.write_len(tasks.len());
            for task in tasks {
                h.write_len(task.len() as usize);
                for p in task.processes() {
                    h.write_u32(p.index());
                }
            }
            // Dependence edges, in (from, to) order.
            h.write_len(procs.len());
            for p in self.process_ids() {
                for s in epg.succs(p).expect("process in graph") {
                    h.write_u32(p.index());
                    h.write_u32(s.index());
                }
                h.write_u32(u32::MAX); // per-process edge terminator
            }
            // Processes: name, then everything trace compilation reads.
            for r in procs {
                h.write_str(&r.name);
                r.write_trace_inputs(&mut h);
                // Exact footprints (the sharing matrix's raw material).
                h.write_len(r.data_set.arrays().count());
                for (&arr, elems) in r.data_set.iter() {
                    h.write_u32(arr.index());
                    h.write_len(elems.intervals().len());
                    for iv in elems.intervals() {
                        h.write_i64(iv.start);
                        h.write_i64(iv.end);
                    }
                }
            }
            h.finish()
        })
    }

    /// Content fingerprint of one process: a structural hash over
    /// exactly what trace compilation reads from the
    /// process — iteration space (its box), accesses (global array id,
    /// linearized coefficients, constant, read/write), compute cost and
    /// iteration count. Deliberately excludes the process name, its
    /// task and the dependence edges: none of them influence the
    /// compiled [`lams_trace::Program`], so two structurally identical
    /// processes of *different* workloads key to the same per-process
    /// memo slot — the cross-candidate (and cross-workload) reuse
    /// delta-keyed memoization is built on. Paired with
    /// [`Layout::restricted_fingerprint`] over
    /// [`Workload::arrays_of`]`(p)`, equal key pairs imply
    /// byte-identical compiled programs. Computed once per workload and
    /// cached.
    ///
    /// # Panics
    ///
    /// Panics when `p` is out of range.
    pub fn process_fingerprint(&self, p: ProcessId) -> lams_mpsoc::Fingerprint {
        self.proc_fps.get_or_init(|| {
            self.procs
                .iter()
                .map(|r| {
                    let mut h = lams_mpsoc::FingerprintHasher::new("lams.process");
                    r.write_trace_inputs(&mut h);
                    h.finish()
                })
                .collect()
        })[p.as_usize()]
    }

    /// The **delta key** of `(self, layout)`: a hash over every
    /// process's [`Layout::restricted_fingerprint`] (in process order)
    /// against its touched-array set. Two layouts with equal delta keys
    /// compile every process to a byte-identical program — the whole
    /// engine input is identical — so the delta key is a sound memo key
    /// for layout-derived *results*, not just compiled programs, and it
    /// deliberately ignores layout differences on arrays no process
    /// touches (remapping those is unobservable). O(processes ×
    /// touched arrays); the per-process restriction reuses the cached
    /// footprint array sets.
    pub fn delta_fingerprint(&self, layout: &Layout) -> lams_mpsoc::Fingerprint {
        let mut h = lams_mpsoc::FingerprintHasher::new("lams.delta");
        h.write_len(self.procs.len());
        for p in self.process_ids() {
            h.write_fingerprint(layout.restricted_fingerprint(&self.arrays_of(p)));
        }
        h.finish()
    }

    /// The workload's name (application names joined with `+`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processes across all applications.
    pub fn num_processes(&self) -> usize {
        self.procs.len()
    }

    /// All process ids, ascending.
    pub fn process_ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.procs.len() as u32).map(ProcessId::new)
    }

    /// The merged array table.
    pub fn arrays(&self) -> &ArrayTable {
        &self.arrays
    }

    /// The extended process graph (intra-task dependences; inter-task
    /// edges can be added by callers that need them).
    pub fn epg(&self) -> &ProcessGraph {
        &self.epg
    }

    /// The tasks, in application order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    fn resolved(&self, p: ProcessId) -> &ResolvedProcess {
        &self.procs[p.as_usize()]
    }

    /// Summary info for a process.
    ///
    /// # Panics
    ///
    /// Panics when `p` is out of range.
    pub fn process(&self, p: ProcessId) -> ProcessHandle {
        let r = self.resolved(p);
        ProcessHandle {
            id: p,
            task: r.task,
            name: r.name.clone(),
            num_iters: r.num_iters,
            accesses_per_iter: r.accesses.len(),
        }
    }

    /// The exact element-granularity data set (footprint) of a process,
    /// keyed by global array id — the paper's `DS` set.
    ///
    /// # Panics
    ///
    /// Panics when `p` is out of range.
    pub fn data_set(&self, p: ProcessId) -> &DataSet<ArrayId> {
        &self.resolved(p).data_set
    }

    /// The arrays a process touches.
    ///
    /// # Panics
    ///
    /// Panics when `p` is out of range.
    pub fn arrays_of(&self, p: ProcessId) -> Vec<ArrayId> {
        self.resolved(p).data_set.arrays().copied().collect()
    }

    /// Total trace operations a process will emit
    /// (`iterations × (accesses + 1)`).
    ///
    /// # Panics
    ///
    /// Panics when `p` is out of range.
    pub fn trace_len(&self, p: ProcessId) -> u64 {
        let r = self.resolved(p);
        r.num_iters * (r.accesses.len() as u64 + 1)
    }

    /// Total trace ops across all processes — the up-front job weight
    /// the sweep scheduler's longest-job-first ordering uses.
    pub fn total_trace_ops(&self) -> u64 {
        self.process_ids().map(|p| self.trace_len(p)).sum()
    }

    /// Compiles the process's trace into the trace IR against
    /// `layout`: the box lowers analytically, with runs split at
    /// half-page chunk crossings for remapped arrays. The program
    /// decodes to the op stream `docs/trace-format.md` defines —
    /// [`Self::trace_len`] ops, each iteration point's accesses in
    /// program order and then its `Compute` op.
    ///
    /// # Panics
    ///
    /// Panics when `p` is out of range.
    pub fn compile_trace(&self, p: ProcessId, layout: &Layout) -> lams_trace::Program {
        crate::compile::compile(self.resolved(p), layout)
    }

    /// Compiles every process's trace (index = process id) — the form
    /// the engine executes. Returned behind `Arc` so callers
    /// (notably `lams_core::memo::ArtifactCache`) can share one compiled
    /// set across engine runs and sweep jobs without copying.
    pub fn compile_traces(&self, layout: &Layout) -> std::sync::Arc<[lams_trace::Program]> {
        self.process_ids()
            .map(|p| self.compile_trace(p, layout))
            .collect()
    }

    /// Records the workload as a [`lams_trace::TraceBundle`]: every
    /// process's compiled trace plus the dependence edges — everything
    /// needed to replay it (`.ltr` record/replay) through the full
    /// policy stack without the workload's symbolic description.
    pub fn record(&self, layout: &Layout) -> lams_trace::TraceBundle {
        let records = self
            .process_ids()
            .map(|p| lams_trace::TraceRecord {
                name: self.resolved(p).name.clone(),
                program: self.compile_trace(p, layout),
            })
            .collect();
        let mut edges = Vec::new();
        for p in self.process_ids() {
            for s in self.epg.succs(p).expect("process in graph") {
                edges.push((p.index(), s.index()));
            }
        }
        lams_trace::TraceBundle {
            name: self.name.clone(),
            records,
            edges,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Workload {} ({} processes, {} arrays)",
            self.name,
            self.procs.len(),
            self.arrays.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{suite, synthetic_app, AccessSpec, ProcessSpec, Scale, SyntheticConfig};
    use lams_layout::ArrayDecl;
    use lams_presburger::{AffineExpr, IterSpace};

    fn demo_app(name: &str) -> AppSpec {
        let mut arrays = ArrayTable::new();
        let a = arrays.push(ArrayDecl::new("A", vec![64], 4));
        let b = arrays.push(ArrayDecl::new("B", vec![64], 4));
        let mk = |nm: &str, arr, lo, hi| ProcessSpec {
            name: nm.to_string(),
            space: IterSpace::builder().dim_range("i", lo, hi).build().unwrap(),
            accesses: vec![
                AccessSpec::read(arr, AffineMap::new(vec![AffineExpr::var("i")])),
                AccessSpec::write(b, AffineMap::new(vec![AffineExpr::var("i")])),
            ],
            compute_cycles_per_iter: 1,
        };
        AppSpec {
            name: name.into(),
            description: "demo".into(),
            arrays,
            processes: vec![mk("p0", a, 0, 32), mk("p1", a, 16, 48)],
            deps: vec![(0, 1)],
        }
    }

    #[test]
    fn single_builds_epg_and_footprints() {
        let w = Workload::single(demo_app("d")).unwrap();
        assert_eq!(w.num_processes(), 2);
        assert_eq!(w.epg().num_edges(), 1);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        // p0 reads A[0..32), p1 reads A[16..48): share 16 elements of A
        // and 48... B overlap: p0 writes B[0..32), p1 B[16..48) -> 16.
        assert_eq!(w.data_set(p0).shared_len(w.data_set(p1)), 32);
        assert_eq!(w.arrays_of(p0).len(), 2);
        assert_eq!(w.trace_len(p0), 32 * 3);
        assert_eq!(w.process(p1).name, "p1");
    }

    #[test]
    fn a_process_with_no_dimensions_is_refused() {
        // A rank-0 space would count one iteration that its trace never
        // emits, and LS would schedule by data the process never touches.
        let build = || -> Result<Workload> {
            let mut app = demo_app("d");
            app.processes[0].space = IterSpace::builder().build()?;
            Workload::single(app)
        };
        assert!(matches!(
            build(),
            Err(crate::Error::Presburger(
                lams_presburger::Error::MalformedSpace(_)
            ))
        ));
    }

    #[test]
    fn a_map_naming_an_undeclared_variable_is_refused() {
        // `i + 10*k` over `0 <= i < 4`: `k` has no value, not 0.
        let mut app = demo_app("d");
        app.processes[0].accesses[0].map =
            AffineMap::new(vec![AffineExpr::var("i") + AffineExpr::term("k", 10)]);
        let unbound = crate::Error::Presburger(lams_presburger::Error::UnboundVariable("k".into()));
        assert_eq!(Workload::single(app.clone()).unwrap_err(), unbound);
        // An empty box touches nothing, yet `k` still has no value.
        app.processes[0].space = IterSpace::builder().dim_range("i", 4, 0).build().unwrap();
        assert_eq!(Workload::single(app).unwrap_err(), unbound);
    }

    #[test]
    fn a_stray_variable_that_cancels_out_is_harmless() {
        // `C[i + k][-k]` on a 64 x 1 array folds to `i`: `k` leaves the
        // linear index, and the footprint is that of `C[i][0]`.
        let footprint = |map: AffineMap| {
            let mut app = demo_app("d");
            let c = app.arrays.push(ArrayDecl::new("C", vec![64, 1], 4));
            app.processes[0].accesses[0] = AccessSpec::read(c, map);
            let w = Workload::single(app).unwrap();
            w.data_set(ProcessId::new(0)).get(&c).cloned()
        };
        let stray = footprint(AffineMap::new(vec![
            AffineExpr::var("i") + AffineExpr::var("k"),
            AffineExpr::term("k", -1),
        ]));
        let plain = footprint(AffineMap::new(vec![
            AffineExpr::var("i"),
            AffineExpr::constant(0),
        ]));
        assert_eq!(stray, plain);
        assert_eq!(plain.map(|s| s.len()), Some(32));
    }

    /// Every access of every suite app at every scale, and of seeded
    /// synthetic apps, resolves to what the symbolic route gives:
    /// linearise the map, look each dimension's coefficient up by name,
    /// and take the image of the linearised map.
    #[test]
    fn resolution_matches_the_symbolic_route() {
        let scales = [
            Scale::Tiny,
            Scale::Small,
            Scale::Paper,
            Scale::Large,
            Scale::Huge,
        ];
        let synthetic = (0..24u64).map(|seed| {
            synthetic_app(SyntheticConfig {
                seed,
                stages: 1 + seed as usize % 3,
                procs_per_stage: 1 + seed as usize % 5,
                dim: 8 + 2 * seed as i64,
                max_halo: seed as i64 % 4,
            })
        });
        for app in scales.into_iter().flat_map(suite::all).chain(synthetic) {
            let w = Workload::single(app.clone()).unwrap();
            assert_eq!(w.procs.len(), app.processes.len());
            for (r, p) in w.procs.iter().zip(&app.processes) {
                let mut data_set = DataSet::new();
                for (ra, a) in r.accesses.iter().zip(&p.accesses) {
                    let extents = app.arrays.get(a.array).unwrap().extents();
                    let lin = a.map.linearized(extents).unwrap();
                    let coeffs: Vec<i64> = p.space.dims().iter().map(|d| lin.coeff(d)).collect();
                    assert_eq!(ra.coeffs, coeffs, "{}", p.name);
                    assert_eq!(ra.constant, lin.constant_part(), "{}", p.name);
                    let image = p.space.image_1d(&AffineMap::new(vec![lin])).unwrap();
                    data_set.insert(ra.array, image);
                }
                assert_eq!(r.bbox, p.space.bounding_box().unwrap(), "{}", p.name);
                assert_eq!(r.data_set, data_set, "{}", p.name);
            }
        }
    }

    #[test]
    fn an_out_of_bounds_subscript_is_refused() {
        // p1 writes `B[i+17]` over `16 <= i < 48`: B[64] does not exist,
        // yet its data set would count it and its trace would address it.
        let mut app = demo_app("d");
        app.processes[1].accesses[1].map =
            AffineMap::new(vec![AffineExpr::var("i") + AffineExpr::constant(17)]);
        let refused = |app: AppSpec| {
            matches!(
                Workload::single(app),
                Err(crate::Error::SubscriptOutOfBounds {
                    process: 1,
                    array: 1,
                    lo: 33,
                    hi: 64,
                    extent: 64,
                    ..
                })
            )
        };
        assert!(refused(app.clone()));
        // The whole app is validated before any footprint: p1's bounds
        // fail first, though p0 names a variable that is not a dimension.
        app.processes[0].accesses[0].map =
            AffineMap::new(vec![AffineExpr::var("i") + AffineExpr::term("k", 10)]);
        assert!(refused(app));
    }

    #[test]
    fn concurrent_apps_share_nothing() {
        let w = Workload::concurrent(vec![demo_app("x"), demo_app("y")]).unwrap();
        assert_eq!(w.num_processes(), 4);
        assert_eq!(w.arrays().len(), 4);
        assert_eq!(w.tasks().len(), 2);
        let (x0, y0) = (ProcessId::new(0), ProcessId::new(2));
        // Same shapes, different arrays: zero sharing across apps.
        assert_eq!(w.data_set(x0).shared_len(w.data_set(y0)), 0);
        assert_eq!(w.name(), "x+y");
        // Dependences stay within tasks.
        assert_eq!(w.epg().num_edges(), 2);
        assert_eq!(w.epg().task_of(y0), Some(TaskId::new(1)));
    }

    #[test]
    fn process_and_delta_fingerprints_track_content() {
        let w = Workload::single(demo_app("d")).unwrap();
        let w2 = Workload::single(demo_app("d")).unwrap();
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        // Independently built identical workloads agree per process;
        // structurally different processes (different ranges) split.
        assert_eq!(w.process_fingerprint(p0), w2.process_fingerprint(p0));
        assert_ne!(w.process_fingerprint(p0), w.process_fingerprint(p1));
        // The process fingerprint is name-blind: the same structure
        // under another application name keys identically (cross-
        // workload program reuse), while the workload fingerprint —
        // which names the report — still splits.
        let other = Workload::single(demo_app("e")).unwrap();
        assert_eq!(w.process_fingerprint(p0), other.process_fingerprint(p0));
        assert_ne!(w.fingerprint(), other.fingerprint());

        let layout = Layout::linear(w.arrays());
        assert_eq!(w.delta_fingerprint(&layout), w2.delta_fingerprint(&layout));
        // Remapping an array some process touches changes the delta key.
        let mut asg = lams_layout::RemapAssignment::new();
        asg.assign(ArrayId::new(0), lams_layout::HalfPage::Lower);
        let remapped =
            Layout::remapped(w.arrays(), &lams_mpsoc::CacheConfig::paper_default(), &asg);
        assert_ne!(w.delta_fingerprint(&layout), w.delta_fingerprint(&remapped));
    }
}
