//! Fixture-driven tests: each rule family fires, each rule family is
//! waivable, reason-less waivers are rejected, and the lexer never
//! matches inside strings or comments.

use ccq_lint::{check_file, FileCtx, FileKind, Finding};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Lints a fixture as if it were library code of the protected `ccq`
/// crate declaring the features `default` and `fault-inject`, so the
/// fixtures can show declared features passing.
fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = fs::read_to_string(&path).unwrap();
    let features: BTreeSet<String> = ["default", "fault-inject"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let ctx = FileCtx {
        path: format!("crates/core/src/{name}"),
        crate_name: "ccq",
        kind: FileKind::LibrarySrc,
        features: &features,
    };
    check_file(&ctx, &src)
}

fn rules(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn determinism_fires() {
    let f = lint_fixture("determinism_fire.rs");
    // `HashMap` three times (use, return type, constructor),
    // `Instant::now`, and `SystemTime` twice (use + associated const).
    assert_eq!(rules(&f), ["determinism"; 6], "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("Instant::now")));
    assert!(f.iter().any(|x| x.message.contains("wall-clock")));
}

#[test]
fn determinism_waived() {
    let f = lint_fixture("determinism_waived.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn wall_clock_outside_the_waived_clock_module_fires() {
    // A `WallClock` clone in ordinary library code does not inherit the
    // waiver `clock.rs` carries: the raw `Instant::now` still fires.
    let f = lint_fixture("determinism_clock_fire.rs");
    assert_eq!(rules(&f), ["determinism"], "{f:#?}");
    assert!(f[0].message.contains("Instant::now"), "{f:#?}");
}

#[test]
fn wall_clock_with_the_clock_module_waiver_is_clean() {
    let f = lint_fixture("determinism_clock_waived.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn panic_surface_fires() {
    let f = lint_fixture("panic_fire.rs");
    // unwrap, expect, panic!, unreachable!, todo!, unimplemented!.
    assert_eq!(rules(&f), ["panic-surface"; 6], "{f:#?}");
}

#[test]
fn panic_surface_waived_standalone_and_trailing() {
    let f = lint_fixture("panic_waived.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn no_unsafe_fires_even_in_tests() {
    let f = lint_fixture("unsafe_fire.rs");
    assert_eq!(rules(&f), ["no-unsafe"; 2], "{f:#?}");
}

#[test]
fn no_unsafe_waived() {
    let f = lint_fixture("unsafe_waived.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn float_eq_fires() {
    let f = lint_fixture("float_eq_fire.rs");
    // `x == 0.0`, `1.5 != x`, `x == -2.5e3`.
    assert_eq!(rules(&f), ["float-eq"; 3], "{f:#?}");
}

#[test]
fn float_eq_waived() {
    let f = lint_fixture("float_eq_waived.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn feature_hygiene_fires_for_undeclared_features() {
    let f = lint_fixture("feature_fire.rs");
    assert_eq!(rules(&f), ["feature-hygiene"; 3], "{f:#?}");
    for phantom in ["phantom", "also-phantom", "third-phantom"] {
        assert!(
            f.iter()
                .any(|x| x.message.contains(&format!("\"{phantom}\""))),
            "missing {phantom}: {f:#?}"
        );
    }
}

#[test]
fn feature_hygiene_accepts_declared_and_waived() {
    let f = lint_fixture("feature_waived.rs");
    assert!(f.is_empty(), "{f:#?}");
}

/// Lints a fixture as if it were the activation-cache module of the
/// protected `ccq-nn` crate.
fn lint_cache_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = fs::read_to_string(&path).unwrap();
    let features = BTreeSet::new();
    let ctx = FileCtx {
        path: format!("crates/nn/src/{name}"),
        crate_name: "ccq-nn",
        kind: FileKind::LibrarySrc,
        features: &features,
    };
    check_file(&ctx, &src)
}

#[test]
fn cache_idiom_is_clean() {
    // The incremental-evaluation cache layer must stay free of banned
    // nondeterminism: generation counters instead of wall-clock
    // invalidation, ordered containers, typed errors. This fixture
    // mirrors `crates/nn/src/cache.rs` and must lint clean under the
    // same protected-crate rules that cover the real module.
    let f = lint_cache_fixture("cache_clean.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn nondeterministic_cache_fires() {
    // The anti-pattern the rules exist to catch: a HashMap-backed cache
    // invalidated by `Instant::now()`. Three `HashMap` mentions plus the
    // wall-clock read.
    let f = lint_cache_fixture("cache_fire.rs");
    assert_eq!(rules(&f), ["determinism"; 4], "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("iteration order")));
    assert!(f.iter().any(|x| x.message.contains("Instant::now")));
}

#[test]
fn searcher_idiom_is_clean() {
    // The pluggable-searcher surface must stay deterministic: dense
    // slot-indexed state, logical round counters, typed errors, and a
    // declared-feature gate. This fixture mirrors the idiom of
    // `crates/core/src/searcher.rs` and must lint clean under the same
    // protected-crate rules that cover the real module.
    let f = lint_fixture("searcher_clean.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn nondeterministic_searcher_fires() {
    // The anti-pattern the searcher rules exist to catch: HashMap-keyed
    // expert scores (tie-breaks follow iteration order), a wall-clock
    // probe budget, and a variant gated on an undeclared feature. Three
    // `HashMap` mentions, one `Instant::now`, one phantom feature.
    let f = lint_fixture("searcher_fire.rs");
    assert_eq!(
        rules(&f),
        [
            "determinism",
            "determinism",
            "determinism",
            "determinism",
            "feature-hygiene",
        ],
        "{f:#?}"
    );
    assert!(f.iter().any(|x| x.message.contains("iteration order")));
    assert!(f.iter().any(|x| x.message.contains("Instant::now")));
    assert!(f
        .iter()
        .any(|x| x.message.contains("\"experimental-searchers\"")));
}

#[test]
fn waiver_without_reason_is_rejected_and_covers_nothing() {
    let f = lint_fixture("waiver_no_reason.rs");
    let waiver_diags: Vec<_> = f.iter().filter(|x| x.rule == "waiver").collect();
    let panics: Vec<_> = f.iter().filter(|x| x.rule == "panic-surface").collect();
    // Two reason-less waivers + one unknown-rule waiver…
    assert_eq!(waiver_diags.len(), 3, "{f:#?}");
    assert!(waiver_diags
        .iter()
        .any(|x| x.message.contains("unknown rule")));
    // …and the unwraps they failed to cover still fire.
    assert_eq!(panics.len(), 2, "{f:#?}");
}

#[test]
fn nothing_fires_inside_strings_or_comments() {
    let f = lint_fixture("strings_comments.rs");
    assert!(f.is_empty(), "{f:#?}");
}

/// Lints a fixture as if it lived in the serve job spool, where the
/// durability rules apply.
fn lint_serve_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = fs::read_to_string(&path).unwrap();
    let features: BTreeSet<String> = ["default"].iter().map(|s| s.to_string()).collect();
    let ctx = FileCtx {
        path: format!("crates/serve/src/{name}"),
        crate_name: "ccq-serve",
        kind: FileKind::LibrarySrc,
        features: &features,
    };
    check_file(&ctx, &src)
}

/// Lints a fixture as if it were a bench harness binary, where
/// file-level waivers are legal.
fn lint_bench_bin_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = fs::read_to_string(&path).unwrap();
    let features: BTreeSet<String> = ["default"].iter().map(|s| s.to_string()).collect();
    let ctx = FileCtx {
        path: format!("crates/bench/src/bin/{name}"),
        crate_name: "ccq-bench",
        kind: FileKind::BinSrc,
        features: &features,
    };
    check_file(&ctx, &src)
}

#[test]
fn durability_fires_on_bare_create_and_unsynced_rename() {
    let f = lint_serve_fixture("durability_fire.rs");
    // `File::create` on the final path, and a `rename` with no
    // `sync_all` earlier in the same function.
    assert_eq!(rules(&f), ["durability"; 2], "{f:#?}");
    assert!(
        f.iter().any(|x| x.message.contains("File::create")),
        "{f:#?}"
    );
    assert!(f.iter().any(|x| x.message.contains("sync_all")), "{f:#?}");
}

#[test]
fn durability_tmp_fsync_rename_idiom_is_clean() {
    let f = lint_serve_fixture("durability_clean.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn durability_waived_rename_is_clean_and_waiver_is_live() {
    // The waiver both suppresses the rename finding and is counted as
    // used, so no stale-waiver diagnostic appears either.
    let f = lint_serve_fixture("durability_waived.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn concurrency_fires_on_locks_pools_and_raw_spawns() {
    let f = lint_fixture("concurrency_fire.rs");
    // `Mutex` twice (import + field), `ThreadPoolBuilder`, and
    // `std::thread::spawn`.
    assert_eq!(rules(&f), ["concurrency"; 4], "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("Mutex")), "{f:#?}");
    assert!(
        f.iter()
            .any(|x| x.message.contains("thread-pool construction")),
        "{f:#?}"
    );
}

#[test]
fn concurrency_scoped_threads_are_clean() {
    let f = lint_fixture("concurrency_clean.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn concurrency_waived_serial_pool_is_clean() {
    let f = lint_fixture("concurrency_waived.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn stale_waivers_fire_at_the_waiver_site() {
    let f = lint_bench_bin_fixture("stale_waiver_fire.rs");
    // The file-level determinism waiver (line 1) and the line waiver
    // over `compute()` (line 8) suppress nothing; the trailing waiver
    // on the unwrap line is live, so the unwrap itself stays quiet.
    assert_eq!(rules(&f), ["stale-waiver"; 2], "{f:#?}");
    assert_eq!(f[0].line, 1, "{f:#?}");
    assert_eq!(f[1].line, 8, "{f:#?}");
    assert!(f.iter().all(|x| x.message.contains("suppresses nothing")));
}

#[test]
fn diagnostics_carry_file_line_col() {
    let f = lint_fixture("panic_fire.rs");
    let first = f.first().unwrap().to_string();
    // `file:line:col: rule: message`, greppable and editor-clickable.
    assert!(
        first.starts_with("crates/core/src/panic_fire.rs:4:"),
        "{first}"
    );
    assert!(first.contains(": panic-surface: "), "{first}");
}
