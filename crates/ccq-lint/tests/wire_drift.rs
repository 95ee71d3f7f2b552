//! Cross-file wire-drift tests: the metrics exposition lints clean when
//! its halves agree, fires a two-location diagnostic when they drift, and
//! stays quiet when one half is missing.

use ccq_lint::{check_wire, Finding, WireRole, WireSource};
use std::fs;
use std::path::Path;

fn load(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/wire")
        .join(name);
    fs::read_to_string(&path).unwrap()
}

/// Fixture sources masquerade as the real wire files.
const METRICS_RS: &str = "crates/core/src/metrics.rs";
const GOLDEN_TXT: &str = "crates/core/tests/golden/metrics.txt";

fn rules(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn golden_families_backed_by_registrations_are_clean() {
    let metrics = load("metrics_clean.rs");
    let golden = load("golden_clean.txt");
    let f = check_wire(&[
        WireSource {
            role: WireRole::Metrics,
            path: METRICS_RS,
            src: &metrics,
        },
        WireSource {
            role: WireRole::GoldenMetrics,
            path: GOLDEN_TXT,
            src: &golden,
        },
    ]);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn unregistered_golden_family_fires_at_the_type_line() {
    let metrics = load("metrics_clean.rs");
    let golden = load("golden_fire.txt");
    let f = check_wire(&[
        WireSource {
            role: WireRole::Metrics,
            path: METRICS_RS,
            src: &metrics,
        },
        WireSource {
            role: WireRole::GoldenMetrics,
            path: GOLDEN_TXT,
            src: &golden,
        },
    ]);
    assert_eq!(rules(&f), ["wire-drift"], "{f:#?}");
    assert_eq!(f[0].path, GOLDEN_TXT, "{f:#?}");
    assert_eq!(f[0].line, 3, "{f:#?}");
    assert!(f[0].message.contains("\"ccq_steps_total\""), "{f:#?}");
    assert_eq!(
        f[0].related.as_ref().map(|r| r.path.as_str()),
        Some(METRICS_RS),
        "{f:#?}"
    );
    // Display renders both locations for editor navigation.
    assert!(
        f[0].to_string()
            .contains("(counterpart: crates/core/src/metrics.rs:"),
        "{}",
        f[0]
    );
}

#[test]
fn missing_counterpart_skips_the_format() {
    // With only the golden half present there is nothing to drift
    // against, so an unregistered family stays quiet rather than
    // spraying false orphans. This is what lets the pass run on partial
    // trees.
    let golden = load("golden_fire.txt");
    let f = check_wire(&[WireSource {
        role: WireRole::GoldenMetrics,
        path: GOLDEN_TXT,
        src: &golden,
    }]);
    assert!(f.is_empty(), "{f:#?}");
}
