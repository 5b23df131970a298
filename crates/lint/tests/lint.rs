//! Fixture-based end-to-end tests for `lams-lint`: each pass has a
//! violation fixture pinned to exact file/line findings and a clean
//! mirror, plus the pragma-misuse cases and a scan of the real
//! workspace (which must stay lint-clean — the same invariant CI
//! enforces with `cargo run -p lams-lint`).

use std::path::PathBuf;

use lams_lint::passes;
use lams_lint::{Finding, Severity, Workspace};

fn fixture_root(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(sub)
}

fn run_on(sub: &str) -> Vec<Finding> {
    let ws = Workspace::load(&[fixture_root(sub)]).expect("fixture tree loads");
    passes::run_all(&ws)
}

/// Asserts exactly one finding of `pass` anchored at `file_suffix`
/// line `line`, and returns it.
fn expect_at<'a>(findings: &'a [Finding], pass: &str, file_suffix: &str, line: u32) -> &'a Finding {
    let matches: Vec<&Finding> = findings
        .iter()
        .filter(|f| {
            f.pass == pass && f.line == line && f.file.to_string_lossy().ends_with(file_suffix)
        })
        .collect();
    assert_eq!(
        matches.len(),
        1,
        "wanted exactly one {pass} finding at {file_suffix}:{line}, findings were:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    matches[0]
}

#[test]
fn violation_fixtures_are_flagged_at_exact_lines() {
    let f = run_on("violations");

    // fingerprint-coverage: the uncovered field's declaration line.
    let fp = expect_at(&f, "fingerprint-coverage", "mpsoc/src/config_fp.rs", 5);
    assert!(fp.message.contains("burst_len"), "{fp}");

    // lock-order: the stripe acquire that reaches the tracker, plus the
    // unregistered receiver.
    let lo = expect_at(&f, "lock-order", "core/src/memo_order.rs", 12);
    assert!(lo.message.contains("via call to `note`"), "{lo}");
    let un = expect_at(&f, "lock-order", "core/src/memo_order.rs", 18);
    assert!(un.message.contains("`mystery`"), "{un}");

    // determinism: clock, thread identity, unordered iteration.
    expect_at(&f, "determinism", "core/src/clock.rs", 5);
    expect_at(&f, "determinism", "core/src/clock.rs", 10);
    expect_at(&f, "determinism", "core/src/clock.rs", 15);

    // panic-policy: unwrap, expect, panic!, unreachable!.
    for line in [4, 5, 7, 9] {
        expect_at(&f, "panic-policy", "serve/src/handler.rs", line);
    }

    // pragma misuse: unknown pass name and missing reason, both errors.
    let bad_pass = expect_at(&f, "pragma", "core/src/pragmas.rs", 3);
    assert!(
        bad_pass.message.contains("unknown pass 'no-such-pass'"),
        "{bad_pass}"
    );
    let no_reason = expect_at(&f, "pragma", "core/src/pragmas.rs", 6);
    assert!(no_reason.message.contains("reason"), "{no_reason}");

    assert!(f.iter().all(|x| x.severity == Severity::Error));
    assert_eq!(f.len(), 12, "unexpected extra findings:\n{f:#?}");
}

#[test]
fn clean_fixtures_produce_no_findings() {
    let f = run_on("clean");
    assert!(f.is_empty(), "clean tree should be clean, got:\n{f:#?}");
}

#[test]
fn clean_tree_counts_its_suppression() {
    let ws = Workspace::load(&[fixture_root("clean")]).expect("fixture tree loads");
    let suppressions: usize = ws.files.iter().map(|f| f.suppressions.len()).sum();
    assert_eq!(
        suppressions, 1,
        "the clean clock fixture carries one pragma"
    );
}

#[test]
fn deleting_a_fingerprint_field_write_fails_the_clean_fixture() {
    // The clean fixture minus the `burst_len` write is exactly the
    // violation fixture — guard the pair against drifting apart.
    let clean =
        std::fs::read_to_string(fixture_root("clean").join("crates/mpsoc/src/config_fp.rs"))
            .expect("clean fixture readable");
    let broken = clean.replace(" ^ u64::from(b.burst_len)", "").replace(
        "every `BusConfig` field reaches",
        "one `BusConfig` field misses",
    );
    assert_ne!(clean, broken, "the transformation must remove the write");
    let violation =
        std::fs::read_to_string(fixture_root("violations").join("crates/mpsoc/src/config_fp.rs"))
            .expect("violation fixture readable");
    assert_eq!(
        broken.replace(
            "Clean fixture: one `BusConfig` field misses the fingerprint",
            "Violation fixture: `burst_len` is never fed into the fingerprint"
        ),
        violation,
        "violation fixture must equal clean fixture minus the field write"
    );
}

#[test]
fn the_real_workspace_is_lint_clean() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let roots: Vec<PathBuf> = ["crates", "src", "tests"]
        .iter()
        .map(|d| repo.join(d))
        .filter(|p| p.is_dir())
        .collect();
    assert!(!roots.is_empty(), "workspace layout changed?");
    let ws = Workspace::load(&roots).expect("workspace scans");
    assert!(
        ws.files.len() > 50,
        "scan looks truncated: {} files",
        ws.files.len()
    );
    let findings = passes::run_all(&ws);
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean (fix or pragma with a reason):\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
