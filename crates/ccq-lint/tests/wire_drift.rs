//! Cross-file wire-drift tests: each hand-paired format lints clean when
//! its halves agree, fires a two-location diagnostic when they drift, is
//! waivable at the orphaned site, and flags the waiver itself once it
//! stops suppressing anything.

use ccq_lint::{check_wire, Finding, WireRole, WireSource};
use std::fs;
use std::path::Path;

fn load(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/wire")
        .join(name);
    fs::read_to_string(&path).unwrap()
}

/// Fixture sources masquerade as the real wire files: wire-drift
/// waivers are only valid at those paths, exactly as in production.
const METRICS_RS: &str = "crates/core/src/metrics.rs";
const GOLDEN_TXT: &str = "crates/core/tests/golden/metrics.txt";
const RUN_STATE_RS: &str = "crates/core/src/run_state.rs";
const PACK_FORMAT_RS: &str = "crates/infer/src/format.rs";

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

#[test]
fn run_state_tags_used_on_both_sides_are_clean() {
    let rs = load("run_state_clean.rs");
    let f = check_wire(&[WireSource {
        role: WireRole::RunState,
        path: RUN_STATE_RS,
        src: &rs,
    }]);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn tag_pushed_but_never_matched_fires_at_its_definition() {
    let rs = load("run_state_fire.rs");
    let f = check_wire(&[WireSource {
        role: WireRole::RunState,
        path: RUN_STATE_RS,
        src: &rs,
    }]);
    assert_eq!(rules(&f), ["wire-drift"], "{f:#?}");
    assert!(f[0].message.contains("CCQRUNS"), "{f:#?}");
    assert!(f[0].message.contains("TAG_ZERO"), "{f:#?}");
    assert!(f[0].message.contains("used on 1 side(s)"), "{f:#?}");
    assert!(f[0].related.is_some(), "{f:#?}");
}

#[test]
fn waived_reserved_tag_is_clean() {
    // `TAG_ZERO` is written but never matched; the standalone waiver
    // records the intent, and because it suppresses a live finding it
    // is not stale either.
    let rs = load("run_state_waived.rs");
    let f = check_wire(&[WireSource {
        role: WireRole::RunState,
        path: RUN_STATE_RS,
        src: &rs,
    }]);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn stale_wire_drift_waiver_is_flagged() {
    let rs = load("run_state_stale.rs");
    let f = check_wire(&[WireSource {
        role: WireRole::RunState,
        path: RUN_STATE_RS,
        src: &rs,
    }]);
    assert_eq!(rules(&f), ["stale-waiver"], "{f:#?}");
    assert_eq!(f[0].path, RUN_STATE_RS, "{f:#?}");
    assert!(f[0].message.contains("wire-drift"), "{f:#?}");
}

#[test]
fn pack_format_tags_used_on_both_sides_are_clean() {
    let rs = load("pack_format_clean.rs");
    let f = check_wire(&[WireSource {
        role: WireRole::PackFormat,
        path: PACK_FORMAT_RS,
        src: &rs,
    }]);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn pack_tag_written_but_never_expected_fires_at_its_definition() {
    let rs = load("pack_format_fire.rs");
    let f = check_wire(&[WireSource {
        role: WireRole::PackFormat,
        path: PACK_FORMAT_RS,
        src: &rs,
    }]);
    assert_eq!(rules(&f), ["wire-drift"], "{f:#?}");
    assert!(f[0].message.contains("CCQPACK"), "{f:#?}");
    assert!(f[0].message.contains("TAG_STATE"), "{f:#?}");
    assert!(f[0].message.contains("used on 1 side(s)"), "{f:#?}");
    assert!(f[0].related.is_some(), "{f:#?}");
}

#[test]
fn run_state_and_pack_tags_do_not_cross_pollinate() {
    // A tag used on both sides of CCQPACK must not count toward a
    // CCQRUNS tag of the same name, and vice versa: the two formats'
    // facts are collected in separate pools.
    let run_state = load("run_state_fire.rs");
    let pack = load("pack_format_clean.rs");
    let f = check_wire(&[
        WireSource {
            role: WireRole::RunState,
            path: RUN_STATE_RS,
            src: &run_state,
        },
        WireSource {
            role: WireRole::PackFormat,
            path: PACK_FORMAT_RS,
            src: &pack,
        },
    ]);
    assert_eq!(rules(&f), ["wire-drift"], "{f:#?}");
    assert_eq!(f[0].path, RUN_STATE_RS, "{f:#?}");
    assert!(f[0].message.contains("CCQRUNS"), "{f:#?}");
}
