//! `BENCHMARK.json` and the harness declare the same benchmark.

use lams_benchmark::measure::{Metric, RunOutput};
use lams_benchmark::metrics::{Decl, END_TO_END, PER_LAYER};
use lams_benchmark::report::{parse_result_line, worsening};
use lams_benchmark::WORKLOADS;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root")
}

fn section<'a>(json: &'a str, key: &str, next: &str) -> &'a str {
    let from = json.find(&format!("\"{key}\"")).expect("section present");
    let to = json[from..]
        .find(&format!("\"{next}\""))
        .map_or(json.len(), |i| from + i);
    &json[from..to]
}

fn better(decl: &Decl) -> &'static str {
    if decl.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

#[test]
fn end_to_end_metrics_match_with_their_bounds() {
    let json = benchmark_json();
    let part = section(&json, "end_to_end", "per_layer");
    for d in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            d.name,
            d.unit,
            better(&d),
            d.bound
        );
        assert!(part.contains(&entry), "missing {entry}");
    }
    assert_eq!(part.matches("\"name\"").count(), END_TO_END.len());
}

#[test]
fn per_layer_metrics_match() {
    let json = benchmark_json();
    let part = section(&json, "per_layer", "\u{0}");
    for d in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name,
            d.unit,
            better(&d)
        );
        assert!(part.contains(&entry), "missing {entry}");
    }
    assert_eq!(part.matches("\"name\"").count(), PER_LAYER.len());
}

#[test]
fn workloads_match() {
    let json = benchmark_json();
    let part = section(&json, "workloads", "end_to_end");
    for w in WORKLOADS {
        assert!(
            part.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    assert_eq!(part.matches("\"name\"").count(), WORKLOADS.len());
}

#[test]
fn names_are_unique_and_within_the_contract() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .chain(WORKLOADS)
        .collect();
    for name in &names {
        assert!(name.len() <= 64);
        assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        assert!(name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total);
    assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
}

#[test]
fn the_result_line_reads_back() {
    let out = RunOutput {
        correct: true,
        attempted: 495,
        failed: 0,
        metrics: vec![
            Metric {
                name: "wall_s",
                value: 0.333154604,
                unit: "s",
            },
            Metric {
                name: "ls_gain_pct",
                value: 33.842370424023876,
                unit: "%",
            },
        ],
    };
    let line = out.to_json_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 495, \"failed\": 0, \"metrics\": {")
    );
    let back = parse_result_line(&line).unwrap();
    assert!(back.correct);
    assert_eq!(
        back.metrics,
        [
            ("wall_s".to_string(), 0.333154604, "s".to_string()),
            (
                "ls_gain_pct".to_string(),
                33.842370424023876,
                "%".to_string()
            ),
        ]
    );
}

#[test]
fn worsening_follows_the_metric_direction() {
    assert_eq!(worsening(10.0, 11.0, false), 0.1);
    assert_eq!(worsening(10.0, 9.0, false), -0.1);
    assert_eq!(worsening(10.0, 9.0, true), 0.1);
}
