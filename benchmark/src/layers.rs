//! Re-runs of single layers on the inputs a parent span just consumed.
//!
//! The parent reached these layers through its own call chain, where
//! the harness cannot put a timer yet. Each function here calls the
//! layer's public entry point directly on the same inputs and records
//! the call as a replayed child, so the parent's self time is what is
//! left after the layers below it are accounted for.

use std::hint::black_box;
use std::sync::Arc;

use lams_core::{Experiment, LsmArtifacts, SharingMatrix};
use lams_layout::Layout;
use lams_mpsoc::{Machine, MachineConfig, TraceSource};
use lams_presburger::AffineMap;
use lams_procgraph::{EpgBuilder, ProcessId, Task, TaskId};
use lams_trace::{Cursor, Program};
use lams_workloads::{AppSpec, Workload};

use crate::spans::{Recorder, SpanId};

/// Exact work counts taken at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Presburger footprints (one per array access of a process spec).
    pub footprints: u64,
    /// Dependence edges inserted into process graphs.
    pub edges: u64,
    /// Trace ops in compiled program sets.
    pub compiled_ops: u64,
    /// Trace ops decoded by cursor drains.
    pub decoded_ops: u64,
    /// Trace ops executed by machine replays.
    pub exec_ops: u64,
    /// Arrays the chosen LSM mappings assigned to a half page.
    pub remapped_arrays: u64,
}

/// What `Workload::concurrent` spends below itself: the exact
/// footprints (`presburger`) and the process graph (`procgraph`).
pub fn replay_build(
    rec: &mut Recorder,
    job: usize,
    parent: SpanId,
    apps: &[AppSpec],
    counts: &mut Counts,
) {
    rec.replay("presburger.footprint", job, parent, || {
        for app in apps {
            for p in &app.processes {
                black_box(p.space.bounding_box().expect("bounded space"));
                black_box(p.space.count().expect("countable space"));
                for a in &p.accesses {
                    let decl = app.arrays.get(a.array).expect("validated spec");
                    let lin = a.map.linearized(decl.extents()).expect("affine access");
                    black_box(
                        p.space
                            .image_1d(&AffineMap::new(vec![lin]))
                            .expect("exact footprint"),
                    );
                    counts.footprints += 1;
                }
            }
        }
    });
    rec.replay("procgraph.epg_build", job, parent, || {
        let mut builder = EpgBuilder::new();
        let mut base = 0u32;
        for (ti, app) in apps.iter().enumerate() {
            let n = app.processes.len() as u32;
            let task = Task::with_base(
                TaskId::new(ti as u32),
                app.name.clone(),
                ProcessId::new(base),
                n,
            );
            builder.add_task(&task).expect("fresh task");
            for &(from, to) in &app.deps {
                builder
                    .add_edge(task.process(from as u32), task.process(to as u32))
                    .expect("valid dependence");
            }
            base += n;
        }
        let graph = builder.build().expect("acyclic graph");
        counts.edges += graph.num_edges() as u64;
        black_box(graph);
    });
}

/// What a cold program lookup spends: `compile_traces`. Returns the
/// programs so later replays of the same group can reuse them.
pub fn replay_compile(
    rec: &mut Recorder,
    job: usize,
    parent: SpanId,
    workload: &Workload,
    counts: &mut Counts,
) -> Arc<[Program]> {
    let layout = Layout::linear(workload.arrays());
    let (_, programs) = rec.replay("workloads.compile", job, parent, || {
        workload.compile_traces(&layout)
    });
    counts.compiled_ops += programs.iter().map(Program::len_ops).sum::<u64>();
    programs
}

/// What a machine replay spends in the trace layer: every program's
/// cursor drained segment by segment through the `TraceSource` face the
/// machine consumes.
fn replay_decode(
    rec: &mut Recorder,
    job: usize,
    parent: SpanId,
    programs: &[Program],
    counts: &mut Counts,
) {
    rec.replay("trace.decode", job, parent, || {
        for prog in programs {
            let mut cursor = Cursor::new(prog);
            while let Some(segment) = cursor.peek_segment() {
                let ops = segment.ops(cursor.lanes().len());
                cursor.advance(black_box(ops));
                counts.decoded_ops += ops;
            }
        }
    });
}

/// What an engine run spends in `mpsoc` and, below it, in `trace`:
/// every program runs to completion on core `pid % cores` of a fresh
/// machine, with no scheduling in between.
pub fn replay_machine(
    rec: &mut Recorder,
    job: usize,
    parent: SpanId,
    config: MachineConfig,
    programs: &[Program],
    counts: &mut Counts,
) {
    let (exec, ()) = rec.replay("mpsoc.exec", job, parent, || {
        let mut machine = Machine::new(config);
        let cores = machine.num_cores();
        for (i, prog) in programs.iter().enumerate() {
            let core = i % cores;
            let mut cursor = Cursor::new(prog);
            loop {
                let out = machine
                    .exec_source_until(core, &mut cursor, u64::MAX)
                    .expect("core in range");
                counts.exec_ops += out.ops;
                if out.parked.is_some() {
                    // Alone on the bus: the boundary is trivially the
                    // minimum pending position.
                    counts.exec_ops += machine
                        .complete_bus_access(core)
                        .expect("an access is parked")
                        .ops;
                } else if out.exhausted {
                    break;
                }
            }
        }
        black_box(machine.makespan());
    });
    replay_decode(rec, job, exec, programs, counts);
}

/// `SharingMatrix::from_workload`, which a cold LS or LSM run pays once
/// per workload.
pub fn replay_sharing(rec: &mut Recorder, job: usize, parent: SpanId, workload: &Workload) {
    rec.replay("core.sharing", job, parent, || {
        black_box(SharingMatrix::from_workload(workload));
    });
}

/// What an LSM run spends in `layout`: the per-(process, array) set
/// histograms and the Figure 5 pass over the conflict matrix it built.
pub fn replay_lsm_layout(
    rec: &mut Recorder,
    job: usize,
    parent: SpanId,
    exp: &Experiment,
    artifacts: &LsmArtifacts,
    threshold: Option<f64>,
) {
    let (workload, cache) = (exp.workload(), exp.machine().cache);
    let linear = Layout::linear(workload.arrays());
    rec.replay("layout.histogram", job, parent, || {
        for p in workload.process_ids() {
            for (array, elems) in workload.data_set(p).iter() {
                black_box(
                    linear
                        .set_histogram(*array, elems, &cache)
                        .expect("declared array"),
                );
            }
        }
    });
    rec.replay("layout.relayout", job, parent, || {
        black_box(lams_layout::relayout_pass(
            &artifacts.conflicts,
            &artifacts.adjacency,
            threshold,
        ));
    });
}
