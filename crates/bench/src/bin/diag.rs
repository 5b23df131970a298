//! Diagnostic: per-core schedules and idle accounting for one app under
//! RS and LS. Development aid, not a paper artifact.

use lams_bench::flag;
use lams_core::{Experiment, PolicyKind};
use lams_mpsoc::MachineConfig;
use lams_workloads::{suite, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = flag(&args, "--scale").unwrap_or_default();
    let name: String = flag(&args, "--app").unwrap_or_else(|| "Usonic".into());
    let app = suite::by_name(&name, scale).expect("known app");
    let w = Workload::single(app.clone()).unwrap();
    let machine = MachineConfig::paper_default();
    let exp = Experiment::isolated(&app, machine);

    for kind in [PolicyKind::Random, PolicyKind::Locality] {
        let r = exp.run(kind).unwrap();
        println!(
            "== {kind}: makespan {} busy {} (util {:.1}%)",
            r.makespan_cycles,
            r.machine.total_busy_cycles,
            100.0 * r.machine.total_busy_cycles as f64
                / (r.makespan_cycles * machine.num_cores as u64) as f64
        );
        for (c, seq) in r.core_sequences.iter().enumerate() {
            let names: Vec<String> = seq
                .iter()
                .map(|&p| {
                    let h = w.process(p);
                    let e = &r.processes[&p];
                    format!("{}[{}-{}]", h.name, e.start, e.finish)
                })
                .collect();
            println!("  core{c}: {}", names.join(" "));
        }
    }
}
