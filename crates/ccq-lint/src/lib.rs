//! `ccq-lint` — a dependency-free source-level lint pass for the CCQ
//! workspace.
//!
//! CCQ's headline guarantees are behavioral: bit-identical runs at any
//! thread count, interrupted + resumed ≡ uninterrupted, and golden-digest
//! equivalence across engine refactors. Those invariants are easy to
//! break silently — one `HashMap` in the Hedge update, one
//! `Instant::now()` in a descent decision, one bare `unwrap()` in the
//! autosave path.
//! This crate makes them machine-checked on every commit:
//!
//! | rule | scope | forbids |
//! |------|-------|---------|
//! | `determinism` | library code of [`rules::PROTECTED_CRATES`] | `HashMap`/`HashSet`, `Instant::now`, `SystemTime` |
//! | `panic-surface` | library code of [`rules::PROTECTED_CRATES`], `examples/`, ccq-bench bins | `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | `no-unsafe` | everywhere | `unsafe` |
//! | `float-eq` | library code, all crates | `==`/`!=` against a float literal |
//! | `feature-hygiene` | everywhere | `feature = "…"` strings not declared in the crate's `Cargo.toml` |
//! | `durability` | [`rules::DURABILITY_PATHS`] (the codec's durable-file pair) + `crates/serve/src/**` | `rename` without a same-function `sync_all`; `File::create` on a final path |
//! | `concurrency` | library code outside [`rules::SANCTIONED_POOL_PATHS`] | `ThreadPoolBuilder`, `std::thread::spawn`; `Mutex`/`RwLock` in [`rules::LOCK_FREE_CRATES`] |
//! | `stale-waiver` | every waiver | waivers that suppress nothing |
//!
//! Test code (`tests/`, `#[cfg(test)]` items, `#[test]` fns) is exempt
//! from `determinism`, `panic-surface`, `float-eq`, and `durability`.
//! Intentional violations carry `// ccq-lint: allow(rule) — reason`
//! waivers (or `allow-file` in non-library files); the reason is
//! mandatory, and a waiver that stops suppressing anything becomes a
//! `stale-waiver` finding. See [`rules`] for details and `DESIGN.md`
//! §10/§16 for the policy.
//!
//! Run it with `cargo run -q -p ccq-lint` from anywhere in the
//! workspace; it exits non-zero when anything fires. `--format json`
//! emits machine-readable diagnostics on stdout (archived as
//! `results/lint.json` by `run_suite.sh`), `--list-rules` and
//! `--explain <rule>` document the rule set.

pub mod lexer;
pub mod manifest;
pub mod rules;

pub use rules::{check_file, rule_info, FileCtx, FileKind, Finding, RuleInfo, RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints every first-party crate of the workspace rooted at `root` (the
/// root package plus each `crates/*` member). `vendor/` (third-party
/// stand-ins) and directories named `fixtures` or `target` are skipped.
///
/// # Errors
///
/// Propagates I/O failures reading directories or files; individual
/// crates without a `Cargo.toml` are skipped silently.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut crate_dirs = vec![root.to_path_buf()];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        crate_dirs.extend(members);
    }
    let mut findings = Vec::new();
    for dir in crate_dirs {
        let Ok(toml) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let m = manifest::parse(&toml);
        for (sub, kind) in [
            ("src", FileKind::LibrarySrc),
            ("tests", FileKind::TestSrc),
            ("examples", FileKind::ExampleSrc),
            ("benches", FileKind::BenchSrc),
        ] {
            let sub_dir = dir.join(sub);
            if !sub_dir.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            collect_rs_files(&sub_dir, &mut files)?;
            for file in files {
                let kind = if kind == FileKind::LibrarySrc && under_bin(&file, &sub_dir) {
                    FileKind::BinSrc
                } else {
                    kind
                };
                let src = fs::read_to_string(&file)?;
                let ctx = FileCtx {
                    path: display_path(&file, root),
                    crate_name: &m.name,
                    kind,
                    features: &m.features,
                };
                findings.extend(check_file(&ctx, &src));
            }
        }
    }
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(findings)
}

/// Renders findings as the stable machine-readable diagnostics document
/// archived by CI. Byte-stable for a given finding list: fixed field
/// order, one finding per line, sorted input preserved verbatim.
pub fn render_json(findings: &[Finding]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"version\": 1,\n");
    s.push_str(&format!("  \"count\": {},\n", findings.len()));
    if findings.is_empty() {
        s.push_str("  \"findings\": []\n}\n");
        return s;
    }
    s.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}}}",
            json_str(&f.path),
            f.line,
            f.col,
            json_str(f.rule),
            json_str(&f.message),
        ));
        if i + 1 < findings.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

/// JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Recursively collects `.rs` files in sorted order, skipping `fixtures`
/// and `target` directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "fixtures" && name != "target" {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether `file` sits under `<src>/bin/`.
fn under_bin(file: &Path, src_dir: &Path) -> bool {
    file.strip_prefix(src_dir)
        .ok()
        .and_then(|rel| rel.components().next())
        .is_some_and(|c| c.as_os_str() == "bin")
}

/// `file` relative to the workspace root, with `/` separators.
fn display_path(file: &Path, root: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`; falls back to `start` itself.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        if let Ok(toml) = fs::read_to_string(dir.join("Cargo.toml")) {
            if toml.lines().any(|l| l.trim() == "[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}
