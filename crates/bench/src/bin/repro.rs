//! Regenerates `REPRO.md`, the reproduction's evidence in one document:
//! Table 1 (the suite), Table 2 (the machine), Figure 2 (Prog1's sharing
//! matrix and three mappings) and Figures 6–7 (RS, RRS, LS and LSM
//! makespans for every Table 1 app and mixes 2–6 at every scale), closed
//! by a count, per scale, of the groups where each ordering holds.
//!
//! ```text
//! cargo run --release -p lams-bench --bin repro > REPRO.md
//! ```
//!
//! It reads no flag. Every figure group is a [`lams_core::Scenario`] run
//! bus-free on Table 2's machine through [`Figure::run`], so each
//! makespan is the `cycles` column of `fig6`/`fig7 --scale S`. Nothing
//! printed depends on the host, so CI regenerates the file and compares
//! it byte for byte with the checked-in one.

use lams_bench::{emit, exit_with, Figure};
use lams_core::{
    ComparisonReport, Experiment, Policy as _, PolicyKind, RoundRobinPolicy, Scenario,
    SharingMatrix, Source,
};
use lams_mpsoc::{EnergyModel, MachineConfig};
use lams_procgraph::ProcessId;
use lams_workloads::{prog1, suite, Scale, Workload};
use Scale::{Huge, Large, Paper, Small, Tiny};

const SCALES: [Scale; 5] = [Tiny, Small, Paper, Large, Huge];

/// Whether an ordering holds on a group's `[RS, RRS, LS, LSM]` cycles.
type Holds = fn(&[u64; 4]) -> bool;

/// Table 1's row for every suite app at `scale`.
fn table1(scale: Scale) -> Vec<String> {
    let rows = suite::all(scale).into_iter().map(|app| {
        let w = Workload::single(app.clone()).expect("valid suite app");
        let m = SharingMatrix::from_workload(&w);
        let pairs = w
            .process_ids()
            .flat_map(|p| w.process_ids().map(move |q| (p, q)));
        let sharing = pairs.filter(|&(p, q)| p < q && m.get(p, q) > 0).count();
        let (n, epg) = (w.num_processes(), w.epg());
        let (arrays, edges, levels) = (w.arrays().len(), epg.num_edges(), epg.levels().len());
        let share = 100.0 * sharing as f64 / (n * (n - 1) / 2) as f64;
        let (name, desc) = (&app.name, &app.description);
        format!("| {name} | {desc} | {n} | {arrays} | {edges} | {levels} | {share:.1}% |")
    });
    rows.collect()
}

/// The groups of Figures 6–7 at `scale`, each `base` with its source:
/// every Table 1 app alone, then mixes 2–6 (mix 1 is Med-Im04 alone).
fn groups(base: &Scenario, scale: Scale) -> Vec<(String, Scenario)> {
    let apps = suite::NAMES.map(|name| (name.to_string(), name.to_string()));
    let apps = apps.map(|(label, name)| (label, Source::App { name, scale }));
    let mixes = (2..=6).map(|tasks| (format!("mix-{tasks}"), Source::Mix { tasks, scale }));
    let with = |(label, source)| {
        let mut scenario = base.clone();
        scenario.source = source;
        (label, scenario)
    };
    apps.into_iter().chain(mixes).map(with).collect()
}

/// `n` with a comma between each group of three digits.
fn thousands(n: u64) -> String {
    match n {
        0..1000 => n.to_string(),
        _ => format!("{},{:03}", thousands(n / 1000), n % 1000),
    }
}

/// A Markdown table's header row, `cells` joined by ` | `, and its rule.
fn header(cells: &str) {
    let rule = "---|".repeat(cells.split(" | ").count());
    emit!("| {cells} |\n|{rule}");
}

fn main() {
    let fig = Figure::read("repro", &[], Small);
    emit!("Generated by `cargo run --release -p lams-bench --bin repro > REPRO.md`; do not edit.");
    emit!("\n# Kandemir & Chen, DATE 2005, reproduced\n");
    emit!("Causes of every ordering that fails are in `docs/reproduction.md`.");

    emit!("\n## Table 1: the applications\n");
    let rows = table1(Tiny);
    for scale in SCALES {
        assert_eq!(table1(scale), rows, "Table 1 differs at scale {scale}");
    }
    header("app | description | procs | arrays | edges | levels | sharing");
    rows.iter().for_each(emit);
    emit!("\nThe rows are the same at every scale.");
    emit!("Paper: process counts vary between 9 and 37 across the suite.");

    let m = MachineConfig::paper_default();
    let e = EnergyModel::embedded_default();
    let (cores, hit, miss) = (m.num_cores, m.hit_latency, m.miss_latency);
    let (c, mhz) = (&m.cache, m.clock_hz / 1_000_000);
    let (kb, ways, line) = (c.size_bytes / 1024, c.associativity, c.line_bytes);
    let (sets, page) = (c.num_sets(), c.page_bytes());
    let (on, off) = (e.cache_access_nj, e.offchip_access_nj);
    let quantum = RoundRobinPolicy::default().quantum().unwrap_or(0);
    let us = quantum * 1_000_000 / m.clock_hz;
    emit!(
        "
## Table 2: the simulation parameters

| parameter | value | source |
|---|---|---|
| Number of processors | {cores} | Table 2 |
| Data cache per processor | {kb}KB, {ways}-way | Table 2 |
| Cache access latency | {hit} cycles | Table 2 |
| Off-chip memory access latency | {miss} cycles | Table 2 |
| Processor speed | {mhz} MHz | Table 2 |
| Cache line size | {line} B | not stated in the paper |
| Cache sets | {sets} | size / (line × associativity) |
| Cache page | {page} B | size / associativity (footnote 1) |
| Access energy (on-chip / off-chip) | {on:.2} nJ / {off:.2} nJ | not stated in the paper |
| RRS preemption quantum | {quantum} cycles ({us} us) | not stated in the paper |"
    );

    emit!("\n## Figure 2: data sharing between the processes of Prog1\n");
    emit!("(a) Cell (k, p) is |DS_k ∩ DS_p|, in elements.\n");
    let app = prog1();
    let sharing = SharingMatrix::from_workload(&Workload::single(app.clone()).expect("valid app"));
    emit!("```text\n{sharing}```\n");
    emit!("(b) and (c): data shared by successive processes on each of 4 cores.\n");
    let ls = Experiment::isolated(&app, m.with_cores(4)).run(PolicyKind::Locality);
    let pid = ProcessId::new;
    let adjacent = (0..4).map(|c| vec![pid(2 * c), pid(2 * c + 1)]).collect();
    let distant = (0..4).map(|c| vec![pid(c), pid(c + 4)]).collect();
    header("mapping | core 0 | core 1 | core 2 | core 3 | shared elements");
    for (label, mapping) in [
        ("(b) chosen by LS", ls.expect("runs").placement()),
        ("paper-style good: adjacent pairs", adjacent),
        ("(c) poor: distant pairs", distant),
    ] {
        let pairs = mapping.iter().flat_map(|seq| seq.windows(2));
        let shared: u64 = pairs.map(|w| sharing.get(w[0], w[1])).sum();
        let then = |seq: &Vec<ProcessId>| seq.iter().map(ToString::to_string).collect::<Vec<_>>();
        let cores: Vec<String> = mapping.iter().map(|seq| then(seq).join(" then ")).collect();
        emit!("| {label} | {} | {shared} |", cores.join(" | "));
    }
    emit!("\nProg1 sweeps about 12 KB of lines per process in one pass, so on the 8 KB cache no mapping turns the shared lines into hits: the suite carries the timing.");

    // Each group's cycles per scale, in `PolicyKind::ALL` order: RS, RRS, LS, LSM.
    let base = fig.base();
    let cycles: [Vec<[u64; 4]>; 5] = SCALES.map(|scale| {
        let groups = groups(&base, scale);
        let reports = fig.run(&groups).unwrap_or_else(|e| exit_with(1, e));
        let of = |r: &ComparisonReport| std::array::from_fn(|i| r.cycles(PolicyKind::ALL[i]));
        reports.iter().map(of).collect()
    });
    let (labels, _): (Vec<_>, Vec<_>) = groups(&base, Tiny).into_iter().unzip();
    let scales = SCALES.map(|s| s.to_string()).join(" | ");
    let row = |lead: &str, cell: &dyn Fn(&[[u64; 4]]) -> String| {
        emit!(
            "| {lead} | {} |",
            cycles.each_ref().map(|c| cell(c)).join(" | ")
        );
    };

    emit!("\n## Figures 6–7: makespans in cycles, RS / RRS / LS / LSM\n");
    emit!("Bus-free, on Table 2's machine; mix-t runs the first t apps together.\n");
    header(&format!("group | {scales}"));
    for (g, label) in labels.iter().enumerate() {
        row(label, &|c| c[g].map(thousands).join(" / "));
    }

    emit!("\n## The orderings, per scale\n");
    emit!("The paper's claims: LS beats RS and RRS, and LSM improves on LS. Each cell counts the groups where the ordering holds and names those where it fails.\n");
    let orderings: [(&str, Holds); 5] = [
        ("LS ≤ RS", |c| c[2] <= c[0]),
        ("LS ≤ RRS", |c| c[2] <= c[1]),
        ("RRS ≤ RS", |c| c[1] <= c[0]),
        ("LSM ≤ LS", |c| c[3] <= c[2]),
        ("LSM < LS", |c| c[3] < c[2]),
    ];
    header(&format!("ordering | {scales}"));
    let n = labels.len();
    for (ordering, holds) in orderings {
        row(ordering, &|c| {
            let fails: Vec<&str> = (0..n)
                .filter(|&g| !holds(&c[g]))
                .map(|g| labels[g].as_str())
                .collect();
            match fails.len() {
                0 => format!("{n} of {n}"),
                f => format!("{} of {n}; fails: {}", n - f, fails.join(", ")),
            }
        });
    }
}
