//! The rule engine: scopes, patterns, waivers, and diagnostics.
//!
//! Every rule works on the token stream produced by [`crate::lexer`], so
//! nothing fires inside comments or string/char literals. Findings are
//! reported as `file:line:col: rule-name: message` and any finding makes
//! the lint exit non-zero.
//!
//! # Waivers
//!
//! A violation that is *intentional* carries an inline waiver:
//!
//! ```text
//! // ccq-lint: allow(rule-name) — reason
//! ```
//!
//! The reason is mandatory. A trailing waiver covers its own line; a
//! standalone waiver comment covers the next line of code. Binary,
//! example, test, and bench files may instead waive a rule for the whole
//! file with `ccq-lint: allow-file(rule-name) — reason`; library code
//! must waive line by line.
//!
//! A waiver that suppresses nothing is itself a finding
//! (`stale-waiver`), so waivers cannot outlive the violation they were
//! written for.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;
use std::fmt;

/// Every waivable rule the engine knows, in reporting order.
/// `waiver` and `stale-waiver` diagnostics are never waivable and are
/// deliberately absent.
pub const RULE_NAMES: [&str; 8] = [
    "determinism",
    "panic-surface",
    "no-unsafe",
    "float-eq",
    "feature-hygiene",
    "durability",
    "concurrency",
    "wire-drift",
];

/// Crates whose library code must stay deterministic and panic-free:
/// these sit under the descent loop, the autosave path, or the golden
/// digests, where a stray `unwrap()` or `HashMap` breaks the
/// reproducibility guarantees of PRs 1–3.
pub const PROTECTED_CRATES: [&str; 6] = [
    "ccq",
    "ccq-tensor",
    "ccq-nn",
    "ccq-quant",
    "ccq-serve",
    "ccq-infer",
];

/// Crates whose library hot paths must stay lock-free: descent state is
/// partitioned per `ccq_tensor::par` piece, never shared behind a lock. The serve
/// daemon (supervisor state) is deliberately not on this list.
pub const LOCK_FREE_CRATES: [&str; 5] = ["ccq", "ccq-tensor", "ccq-nn", "ccq-quant", "ccq-infer"];

/// The only modules allowed to construct thread pools or touch raw
/// threading primitives; everything else goes through them.
pub const SANCTIONED_POOL_PATHS: [&str; 1] = ["crates/tensor/src/par.rs"];

/// The one writer of crash-durable binary state: the codec's
/// tmp + fsync + rename pair, used by CCQCKPT, CCQRUNS and CCQPACK. The
/// `durability` rule family applies here and to the serve job spool.
pub const DURABILITY_PATHS: [&str; 1] = ["crates/tensor/src/codec.rs"];

/// Static metadata for `--list-rules` / `--explain` and the DESIGN.md
/// rule table.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule name as written in diagnostics and waivers.
    pub name: &'static str,
    /// Where the rule is in force.
    pub scope: &'static str,
    /// Why the rule exists.
    pub rationale: &'static str,
    /// When (if ever) a waiver is acceptable.
    pub waiver_policy: &'static str,
}

/// One entry per diagnostic the engine can emit, including the two
/// meta-diagnostics (`waiver`, `stale-waiver`) that police the waivers
/// themselves.
pub const RULES: [RuleInfo; 10] = [
    RuleInfo {
        name: "determinism",
        scope: "library code of the protected crates (ccq, ccq-tensor, ccq-nn, ccq-quant, ccq-serve, ccq-infer), outside tests",
        rationale: "HashMap/HashSet iteration order, Instant::now, and SystemTime vary run-to-run and break bit-identical descents, golden digests, and replay==live",
        waiver_policy: "line waiver with the invariant that restores determinism (e.g. keys drained through a sorted view)",
    },
    RuleInfo {
        name: "panic-surface",
        scope: "library code of the protected crates, plus examples/ and ccq-bench bins, outside tests",
        rationale: "a stray unwrap in the descent or autosave path turns a recoverable I/O error into a lost run; library code returns typed errors",
        waiver_policy: "line waiver stating why the invariant holds; demo/bench files may use a file-level waiver when aborting is the intended UX",
    },
    RuleInfo {
        name: "no-unsafe",
        scope: "everywhere, including tests",
        rationale: "the whole stack is safe Rust; one unsafe block would invalidate that blanket claim",
        waiver_policy: "line waiver; expected never to be used",
    },
    RuleInfo {
        name: "float-eq",
        scope: "library code of all crates, outside tests",
        rationale: "== / != against a float literal is almost always a tolerance bug in quantization math",
        waiver_policy: "line waiver naming the exact sentinel value being compared",
    },
    RuleInfo {
        name: "feature-hygiene",
        scope: "everywhere, including tests",
        rationale: "cfg(feature = …) strings not declared in the crate's Cargo.toml silently compile to dead code",
        waiver_policy: "line waiver, normally only while a feature gate lands ahead of its feature",
    },
    RuleInfo {
        name: "durability",
        scope: "crates/tensor/src/codec.rs (the durable-file pair behind every binary format) and crates/serve/src/**, outside tests",
        rationale: "a rename not preceded by fsync, or a File::create on the final path, loses acknowledged state on power cut; the only sanctioned pattern is tmp + fsync + rename",
        waiver_policy: "line waiver explaining why the data is already durable (e.g. renaming a file fsynced by its writer)",
    },
    RuleInfo {
        name: "concurrency",
        scope: "library code outside crates/tensor/src/par.rs, outside tests; the Mutex/RwLock ban covers the lock-free crates (ccq, ccq-tensor, ccq-nn, ccq-quant, ccq-infer)",
        rationale: "ad-hoc pools and raw std::thread::spawn bypass ccq_tensor::par's deterministic structural split; locks in descent hot paths serialize what chunking already partitions",
        waiver_policy: "line waiver; none in the tree: ccq_tensor::par::with_threads is the one pool constructor",
    },
    RuleInfo {
        name: "wire-drift",
        scope: "cross-file: golden metrics.txt families vs metrics.rs registrations (the JSONL, probe-cache and job-spec records and the CCQRUNS/CCQPACK tags are each declared once for writer and reader and need no check)",
        rationale: "a golden family nothing registers is a rename that outlived the code, which golden re-blessing can hide",
        waiver_policy: "never waivable: findings sit in the golden text, which carries no waivers; register the metric or re-bless the golden",
    },
    RuleInfo {
        name: "waiver",
        scope: "every ccq-lint waiver comment",
        rationale: "a waiver without a reason, naming an unknown rule, or file-level in library code is a policy violation in itself",
        waiver_policy: "never waivable; fix the waiver",
    },
    RuleInfo {
        name: "stale-waiver",
        scope: "every ccq-lint waiver comment",
        rationale: "a waiver that suppresses nothing is dead policy: it documents a violation that no longer exists and will silently hide a future one",
        waiver_policy: "never waivable; delete the waiver",
    },
];

/// Looks up the metadata for one rule name.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// How a file participates in its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` excluding `src/bin` — the library proper.
    LibrarySrc,
    /// `src/bin/**` — binary entry points.
    BinSrc,
    /// `tests/**` — integration tests.
    TestSrc,
    /// `examples/**`.
    ExampleSrc,
    /// `benches/**`.
    BenchSrc,
}

/// Everything the rules need to know about the file being checked.
#[derive(Debug, Clone)]
pub struct FileCtx<'a> {
    /// Workspace-relative path used in diagnostics.
    pub path: String,
    /// The owning crate's `package.name`.
    pub crate_name: &'a str,
    /// Where the file lives in the crate.
    pub kind: FileKind,
    /// Features the owning crate declares (see [`crate::manifest`]).
    pub features: &'a BTreeSet<String>,
}

/// The other half of a cross-file diagnostic: where the counterpart
/// format lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Related {
    /// Workspace-relative path of the counterpart.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The rule that fired: one of [`RULE_NAMES`], or `waiver` /
    /// `stale-waiver` for waiver-policy diagnostics (which are
    /// themselves never waivable).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// For cross-file rules, the counterpart location.
    pub related: Option<Related>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.message
        )?;
        if let Some(r) = &self.related {
            write!(f, " (counterpart: {}:{}:{})", r.path, r.line, r.col)?;
        }
        Ok(())
    }
}

/// What a waiver covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Covers {
    /// One line of code.
    Line(u32),
    /// The whole file (`allow-file`, non-library files only).
    File,
}

/// A parsed `// ccq-lint: allow(...)` / `allow-file(...)` directive.
#[derive(Debug)]
struct Waiver {
    rules: Vec<String>,
    covers: Covers,
    /// Where the directive itself sits (for stale-waiver reporting).
    line: u32,
    col: u32,
}

impl Waiver {
    fn suppresses(&self, rule: &str, line: u32) -> bool {
        let here = match self.covers {
            Covers::Line(l) => l == line,
            Covers::File => true,
        };
        here && self.rules.iter().any(|r| r == rule)
    }
}

/// Checks one source file against every rule in scope for it.
pub fn check_file(ctx: &FileCtx<'_>, src: &str) -> Vec<Finding> {
    let toks = lex(src);
    let in_test = test_mask(&toks);
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let (waivers, mut findings) = collect_waivers(ctx, &toks);

    let mut raw = Vec::new();
    for (p, &i) in code.iter().enumerate() {
        let t = &toks[i];
        let next = code.get(p + 1).map(|&j| &toks[j]);
        let next2 = code.get(p + 2).map(|&j| &toks[j]);
        let prev = p.checked_sub(1).map(|q| &toks[code[q]]);
        scan_token(ctx, t, prev, next, next2, in_test[i], &mut raw);
    }
    durability_pass(ctx, &toks, &code, &in_test, &mut raw);

    // Keep only findings no waiver covers, and remember which waivers
    // earned their keep.
    let mut used = vec![false; waivers.len()];
    for f in raw {
        let mut suppressed = false;
        for (wi, w) in waivers.iter().enumerate() {
            if w.suppresses(f.rule, f.line) {
                used[wi] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }
    // A waiver that suppressed nothing is dead policy.
    for (wi, w) in waivers.iter().enumerate() {
        if used[wi] {
            continue;
        }
        findings.push(Finding {
            path: ctx.path.clone(),
            line: w.line,
            col: w.col,
            rule: "stale-waiver",
            message: format!(
                "waiver for {} suppresses nothing; delete it",
                w.rules
                    .iter()
                    .map(|r| format!("`{r}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            related: None,
        });
    }
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// Whether the `durability` family polices this path.
fn durability_in_scope(path: &str) -> bool {
    DURABILITY_PATHS.contains(&path) || path.starts_with("crates/serve/src/")
}

/// Whether `rule` is in force at this point of this file.
fn rule_applies(rule: &str, ctx: &FileCtx<'_>, in_test: bool) -> bool {
    match rule {
        // `unsafe` and phantom features are banned even in tests.
        "no-unsafe" | "feature-hygiene" => true,
        // Test code may unwrap, probe wall clocks, and hash freely.
        "determinism" => {
            ctx.kind == FileKind::LibrarySrc
                && PROTECTED_CRATES.contains(&ctx.crate_name)
                && !in_test
        }
        // Examples and bench harnesses face users too: their panics are
        // either waived as intended UX or converted to typed errors.
        "panic-surface" => {
            !in_test
                && ((ctx.kind == FileKind::LibrarySrc
                    && PROTECTED_CRATES.contains(&ctx.crate_name))
                    || ctx.kind == FileKind::ExampleSrc
                    || (ctx.kind == FileKind::BinSrc && ctx.crate_name == "ccq-bench"))
        }
        "float-eq" => ctx.kind == FileKind::LibrarySrc && !in_test,
        "durability" => {
            durability_in_scope(&ctx.path)
                && matches!(ctx.kind, FileKind::LibrarySrc | FileKind::BinSrc)
                && !in_test
        }
        "concurrency" => {
            ctx.kind == FileKind::LibrarySrc
                && !in_test
                && !SANCTIONED_POOL_PATHS.contains(&ctx.path.as_str())
        }
        _ => false,
    }
}

/// Runs every windowed pattern against one token (with a two-token
/// lookahead and one-token lookbehind).
fn scan_token(
    ctx: &FileCtx<'_>,
    t: &Tok,
    prev: Option<&Tok>,
    next: Option<&Tok>,
    next2: Option<&Tok>,
    in_test: bool,
    out: &mut Vec<Finding>,
) {
    let mut emit = |rule: &'static str, message: String| {
        if rule_applies(rule, ctx, in_test) {
            out.push(Finding {
                path: ctx.path.clone(),
                line: t.line,
                col: t.col,
                rule,
                message,
                related: None,
            });
        }
    };

    match t.kind {
        TokKind::Ident => match t.text.as_str() {
            "unsafe" => emit(
                "no-unsafe",
                "`unsafe` is forbidden workspace-wide; the whole stack is safe Rust".into(),
            ),
            "HashMap" | "HashSet" => emit(
                "determinism",
                format!(
                    "`{}` iteration order varies run-to-run; use BTreeMap/BTreeSet or a Vec",
                    t.text
                ),
            ),
            "SystemTime" => emit(
                "determinism",
                "wall-clock reads in library code break bit-reproducible descents".into(),
            ),
            "Instant" if next.is_some_and(|n| n.is_punct("::")) && next2.is_some_and(|n| n.is_ident("now")) => {
                emit(
                    "determinism",
                    "`Instant::now()` in library code breaks bit-reproducible descents".into(),
                )
            }
            "unwrap" | "expect"
                if prev.is_some_and(|p| p.is_punct(".")) && next.is_some_and(|n| n.is_punct("(")) =>
            {
                emit(
                    "panic-surface",
                    format!(
                        "`.{}()` in library code; return a typed error (CcqError/NnError/...) or waive with the invariant",
                        t.text
                    ),
                )
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if next.is_some_and(|n| n.is_punct("!")) =>
            {
                emit(
                    "panic-surface",
                    format!("`{}!` in library code; return a typed error instead", t.text),
                )
            }
            "feature"
                if next.is_some_and(|n| n.is_punct("="))
                    && next2.is_some_and(|n| n.kind == TokKind::Str) =>
            {
                let name = &next2.map(|n| n.text.clone()).unwrap_or_default();
                if !ctx.features.contains(name) {
                    emit(
                        "feature-hygiene",
                        format!(
                            "feature \"{name}\" is not declared in {}'s Cargo.toml [features]",
                            ctx.crate_name
                        ),
                    )
                }
            }
            "ThreadPoolBuilder" => emit(
                "concurrency",
                "thread-pool construction outside crates/tensor/src/par.rs; route work through \
                 ccq_tensor::par::with_threads"
                    .into(),
            ),
            "thread"
                if next.is_some_and(|n| n.is_punct("::"))
                    && next2.is_some_and(|n| n.is_ident("spawn")) =>
            {
                emit(
                    "concurrency",
                    "`std::thread::spawn` bypasses the deterministic chunking of \
                     ccq_tensor::par; route work through it (scoped threads via `thread::scope` \
                     are fine)"
                        .into(),
                )
            }
            "Mutex" | "RwLock" if LOCK_FREE_CRATES.contains(&ctx.crate_name) => emit(
                "concurrency",
                format!(
                    "`{}` in hot-path crate `{}`; descent state is partitioned per chunk and must \
                     stay lock-free",
                    t.text, ctx.crate_name
                ),
            ),
            _ => {}
        },
        TokKind::Punct if t.text == "==" || t.text == "!=" => {
            let lit_next = next.is_some_and(Tok::is_float)
                || (next.is_some_and(|n| n.is_punct("-")) && next2.is_some_and(Tok::is_float));
            if prev.is_some_and(Tok::is_float) || lit_next {
                emit(
                    "float-eq",
                    format!(
                        "float-literal comparison with `{}`; use a tolerance, or waive if the value is an exact sentinel",
                        t.text
                    ),
                )
            }
        }
        _ => {}
    }
}

/// The durability family needs more context than a token window: a
/// `rename` must see a `sync_all` earlier in the *same function*, and a
/// `File::create` must target a tmp sibling, never the final path.
fn durability_pass(
    ctx: &FileCtx<'_>,
    toks: &[Tok],
    code: &[usize],
    in_test: &[bool],
    out: &mut Vec<Finding>,
) {
    if !rule_applies("durability", ctx, false) {
        return;
    }
    let scopes = fn_scope_ids(toks, code);
    for p in 0..code.len() {
        let i = code[p];
        if in_test[i] {
            continue;
        }
        let t = &toks[i];
        let next_open = code.get(p + 1).is_some_and(|&j| toks[j].is_punct("("));
        if t.is_ident("rename") && next_open {
            let synced = (0..p).any(|q| {
                scopes[q] == scopes[p] && !in_test[code[q]] && toks[code[q]].is_ident("sync_all")
            });
            if !synced {
                out.push(Finding {
                    path: ctx.path.clone(),
                    line: t.line,
                    col: t.col,
                    rule: "durability",
                    message: "`rename` with no preceding `sync_all` in the same function; \
                              durable writes go tmp + fsync + rename"
                        .into(),
                    related: None,
                });
            }
        }
        if t.is_ident("create")
            && p >= 2
            && toks[code[p - 1]].is_punct("::")
            && toks[code[p - 2]].is_ident("File")
            && next_open
        {
            // Walk the argument list looking for a tmp-named binding.
            let mut depth = 0usize;
            let mut tmp_arg = false;
            for &j in &code[p + 1..] {
                let a = &toks[j];
                if a.is_punct("(") {
                    depth += 1;
                } else if a.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if a.kind == TokKind::Ident && a.text.to_ascii_lowercase().contains("tmp") {
                    tmp_arg = true;
                }
            }
            if !tmp_arg {
                out.push(Finding {
                    path: ctx.path.clone(),
                    line: t.line,
                    col: t.col,
                    rule: "durability",
                    message: "`File::create` on a final path; create a tmp sibling, fsync it, \
                              then rename into place"
                        .into(),
                    related: None,
                });
            }
        }
    }
}

/// For each code position, an id for the innermost enclosing `fn` item
/// (the code index of its `fn` keyword), or `usize::MAX` at top level.
/// Closures do not open a new scope; nested `fn` items do.
fn fn_scope_ids(toks: &[Tok], code: &[usize]) -> Vec<usize> {
    let mut ids = vec![usize::MAX; code.len()];
    let mut depth = 0usize;
    let mut pending: Option<usize> = None;
    // (fn id, brace depth of its body)
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for p in 0..code.len() {
        let t = &toks[code[p]];
        if t.is_punct("{") {
            depth += 1;
            if let Some(fp) = pending.take() {
                stack.push((fp, depth));
            }
        } else if t.is_punct("}") {
            if stack.last().is_some_and(|&(_, d)| d == depth) {
                stack.pop();
            }
            depth = depth.saturating_sub(1);
        } else if t.is_ident("fn") {
            pending = Some(p);
        } else if t.is_punct(";") && depth == stack.last().map_or(0, |&(_, d)| d) {
            // `fn name(...);` — a declaration without a body.
            pending = None;
        }
        ids[p] = stack.last().map_or(usize::MAX, |&(id, _)| id);
    }
    ids
}

/// Extracts waiver directives from comment tokens. Returns the parsed
/// waivers plus diagnostics for malformed ones (missing reason, unknown
/// rule, file-level in library code, naming `wire-drift`); those
/// diagnostics are not themselves waivable.
fn collect_waivers(ctx: &FileCtx<'_>, toks: &[Tok]) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        let text = t.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = text.strip_prefix("ccq-lint:") else {
            continue;
        };
        let mut bad = |message: String| {
            findings.push(Finding {
                path: ctx.path.clone(),
                line: t.line,
                col: t.col,
                rule: "waiver",
                message,
                related: None,
            });
        };
        let rest = rest.trim_start();
        let (file_wide, rest) = match rest.strip_prefix("allow-file(") {
            Some(r) => (true, r),
            None => match rest.strip_prefix("allow(") {
                Some(r) => (false, r),
                None => {
                    bad("malformed waiver; expected `ccq-lint: allow(rule-name) — reason` or `allow-file(...)`".into());
                    continue;
                }
            },
        };
        let Some((inside, reason)) = rest.split_once(')') else {
            bad("malformed waiver; expected `ccq-lint: allow(rule-name) — reason`".into());
            continue;
        };
        let rules: Vec<String> = inside
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let mut ok = !rules.is_empty();
        for r in &rules {
            if !RULE_NAMES.contains(&r.as_str()) {
                bad(format!("waiver names unknown rule `{r}`"));
                ok = false;
            }
        }
        if rules.iter().any(|r| r == "wire-drift") {
            bad("wire-drift findings sit in the golden metrics text and cannot be waived".into());
            ok = false;
        }
        if file_wide && ctx.kind == FileKind::LibrarySrc {
            bad("file-level waivers are not allowed in library code; waive specific lines".into());
            ok = false;
        }
        let reason = reason.trim_matches([' ', '\t', '-', '—', '–', ':']);
        if reason.is_empty() {
            bad("waiver requires a non-empty reason after the rule list".into());
            ok = false;
        }
        if !ok {
            continue;
        }
        let covers = if file_wide {
            Covers::File
        } else {
            // A standalone comment covers the next code line; a trailing
            // comment covers its own line.
            let standalone = !toks[..i]
                .iter()
                .rev()
                .take_while(|p| p.line == t.line)
                .any(|p| p.kind != TokKind::Comment);
            if standalone {
                match toks[i + 1..].iter().find(|n| n.kind != TokKind::Comment) {
                    Some(n) => Covers::Line(n.line),
                    None => continue,
                }
            } else {
                Covers::Line(t.line)
            }
        };
        waivers.push(Waiver {
            rules,
            covers,
            line: t.line,
            col: t.col,
        });
    }
    (waivers, findings)
}

/// Marks every token that belongs to test-only code: the bodies of
/// `#[cfg(test)]` items and `#[test]` functions (an inner
/// `#![cfg(test)]` marks the whole file).
pub(crate) fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let mut p = 0usize;
    while p < code.len() {
        if !toks[code[p]].is_punct("#") {
            p += 1;
            continue;
        }
        let mut q = p + 1;
        let inner = code.get(q).is_some_and(|&i| toks[i].is_punct("!"));
        if inner {
            q += 1;
        }
        if !code.get(q).is_some_and(|&i| toks[i].is_punct("[")) {
            p += 1;
            continue;
        }
        let (attr, after) = attr_tokens(toks, &code, q);
        if attr != ["cfg", "(", "test", ")"] && attr != ["test"] {
            p = after;
            continue;
        }
        if inner {
            mask.iter_mut().for_each(|m| *m = true);
            return mask;
        }
        // Skip any further attributes on the same item.
        let mut m = after;
        while code.get(m).is_some_and(|&i| toks[i].is_punct("#"))
            && code.get(m + 1).is_some_and(|&i| toks[i].is_punct("["))
        {
            m = attr_tokens(toks, &code, m + 1).1;
        }
        // The item extends to its closing brace, or to `;` for
        // brace-less items (`#[cfg(test)] use …;`).
        let end = item_end(toks, &code, m);
        for &i in &code[p..end.min(code.len())] {
            mask[i] = true;
        }
        p = end;
    }
    mask
}

/// With `code[open]` on a `[`, returns the attribute's identifier/punct
/// text (exclusive of the outer brackets) and the code index just past
/// the matching `]`.
fn attr_tokens<'t>(toks: &'t [Tok], code: &[usize], open: usize) -> (Vec<&'t str>, usize) {
    let mut depth = 0usize;
    let mut out = Vec::new();
    let mut q = open;
    while q < code.len() {
        let t = &toks[code[q]];
        if t.is_punct("[") {
            depth += 1;
            if depth > 1 {
                out.push("[");
            }
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return (out, q + 1);
            }
            out.push("]");
        } else {
            out.push(t.text.as_str());
        }
        q += 1;
    }
    (out, q)
}

/// Finds the code index one past the end of the item starting at
/// `code[start]`: past the matching `}` of its first brace, or past a
/// top-level `;`, whichever comes first.
fn item_end(toks: &[Tok], code: &[usize], start: usize) -> usize {
    let mut depth = 0usize;
    let mut q = start;
    while q < code.len() {
        let t = &toks[code[q]];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return q + 1;
            }
        } else if t.is_punct(";") && depth == 0 {
            return q + 1;
        }
        q += 1;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx(features: &BTreeSet<String>) -> FileCtx<'_> {
        FileCtx {
            path: "crates/core/src/x.rs".into(),
            crate_name: "ccq",
            kind: FileKind::LibrarySrc,
            features,
        }
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let feats = BTreeSet::new();
        let ctx = lib_ctx(&feats);
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\n";
        assert!(check_file(&ctx, src).is_empty());
        let src = "fn a() { x.unwrap(); }";
        assert_eq!(check_file(&ctx, src).len(), 1);
    }

    #[test]
    fn unprotected_crate_may_unwrap_but_not_unsafe() {
        let feats = BTreeSet::new();
        let mut ctx = lib_ctx(&feats);
        ctx.crate_name = "ccq-data";
        assert!(check_file(&ctx, "fn a() { x.unwrap(); }").is_empty());
        let f = check_file(&ctx, "unsafe fn a() {}");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-unsafe");
    }

    #[test]
    fn waiver_scope_is_one_line() {
        let feats = BTreeSet::new();
        let ctx = lib_ctx(&feats);
        let src = "\
// ccq-lint: allow(panic-surface) — invariant holds by construction
fn a() { x.unwrap(); }
fn b() { y.unwrap(); }
";
        let f = check_file(&ctx, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn display_format_is_grep_friendly() {
        let feats = BTreeSet::new();
        let ctx = lib_ctx(&feats);
        let f = &check_file(&ctx, "fn a() { panic!(\"x\") }")[0];
        assert_eq!(
            f.to_string(),
            "crates/core/src/x.rs:1:10: panic-surface: `panic!` in library code; return a typed error instead"
        );
    }

    #[test]
    fn stale_waiver_is_reported_at_the_waiver() {
        let feats = BTreeSet::new();
        let ctx = lib_ctx(&feats);
        let src = "\
// ccq-lint: allow(panic-surface) — nothing panics here any more
fn a() { let x = 1; }
";
        let f = check_file(&ctx, src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "stale-waiver");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("`panic-surface`"), "{}", f[0].message);
    }

    #[test]
    fn multi_rule_waiver_is_live_if_any_rule_suppresses() {
        let feats = BTreeSet::new();
        let ctx = lib_ctx(&feats);
        let src = "\
// ccq-lint: allow(panic-surface, determinism) — unwrap is checked above
fn a() { x.unwrap(); }
";
        assert!(check_file(&ctx, src).is_empty());
    }

    #[test]
    fn file_level_waiver_is_rejected_in_library_code() {
        let feats = BTreeSet::new();
        let ctx = lib_ctx(&feats);
        let src = "// ccq-lint: allow-file(panic-surface) — blanket\nfn a() { x.unwrap(); }\n";
        let f = check_file(&ctx, src);
        assert!(f.iter().any(|x| x.rule == "waiver"), "{f:#?}");
        assert!(f.iter().any(|x| x.rule == "panic-surface"), "{f:#?}");
    }

    #[test]
    fn file_level_waiver_covers_a_bin_file() {
        let feats = BTreeSet::new();
        let mut ctx = lib_ctx(&feats);
        ctx.crate_name = "ccq-bench";
        ctx.kind = FileKind::BinSrc;
        ctx.path = "crates/bench/src/bin/x.rs".into();
        let src = "\
// ccq-lint: allow-file(panic-surface) — bench harness aborts on setup failure
fn a() { x.unwrap(); }
fn b() { y.expect(\"setup\"); }
";
        assert!(check_file(&ctx, src).is_empty());
    }

    #[test]
    fn durability_rename_needs_sync_all_in_same_fn() {
        let feats = BTreeSet::new();
        let mut ctx = lib_ctx(&feats);
        ctx.crate_name = "ccq-serve";
        ctx.path = "crates/serve/src/spool.rs".into();
        let fire = "fn mv() { fs::rename(&a, &b); }";
        let f = check_file(&ctx, fire);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "durability");
        let clean = "fn mv() { f.sync_all(); fs::rename(&tmp, &b); }";
        assert!(check_file(&ctx, clean).is_empty());
        // sync_all in a *different* function does not count.
        let other = "fn a() { f.sync_all(); }\nfn mv() { fs::rename(&a, &b); }";
        assert_eq!(check_file(&ctx, other).len(), 1);
    }

    #[test]
    fn durability_file_create_must_target_tmp() {
        let feats = BTreeSet::new();
        let mut ctx = lib_ctx(&feats);
        ctx.path = "crates/tensor/src/codec.rs".into();
        let fire = "fn w() { let f = fs::File::create(path); }";
        let f = check_file(&ctx, fire);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "durability");
        assert!(check_file(&ctx, "fn w() { let f = fs::File::create(&tmp); }").is_empty());
        // Out of the durability scope, File::create is fine.
        let mut free = ctx.clone();
        free.path = "crates/core/src/engine.rs".into();
        assert!(check_file(&free, fire).is_empty());
    }

    #[test]
    fn concurrency_bans_pools_locks_and_raw_spawn() {
        let feats = BTreeSet::new();
        let ctx = lib_ctx(&feats);
        let f = check_file(&ctx, "fn a() { pool::ThreadPoolBuilder::new(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "concurrency");
        let f = check_file(&ctx, "fn a() { std::thread::spawn(|| {}); }");
        assert_eq!(f.len(), 1, "{f:#?}");
        let f = check_file(&ctx, "use std::sync::Mutex;");
        assert_eq!(f.len(), 1);
        // Scoped threads and their spawns stay legal.
        assert!(check_file(
            &ctx,
            "fn a() { std::thread::scope(|s| { s.spawn(|| {}); }); }"
        )
        .is_empty());
        // The serve daemon may hold its supervisor state behind a Mutex.
        let mut serve = ctx.clone();
        serve.crate_name = "ccq-serve";
        serve.path = "crates/serve/src/daemon.rs".into();
        assert!(check_file(&serve, "use std::sync::Mutex;").is_empty());
        // The sanctioned pool module is exempt wholesale.
        let mut par = ctx.clone();
        par.crate_name = "ccq-tensor";
        par.path = "crates/tensor/src/par.rs".into();
        assert!(check_file(&par, "fn a() { pool::ThreadPoolBuilder::new(); }").is_empty());
    }

    #[test]
    fn wire_drift_waivers_are_malformed() {
        let feats = BTreeSet::new();
        let mut ctx = lib_ctx(&feats);
        ctx.path = "crates/core/src/metrics.rs".into();
        let alone = "// ccq-lint: allow(wire-drift) — reserved family\nfn a() {}\n";
        let f = check_file(&ctx, alone);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "waiver", "{f:#?}");
    }

    #[test]
    fn fn_scopes_track_nesting_and_declarations() {
        let toks = lex("fn outer() { fn inner() { a(); } b(); }\nfn decl();\nfn last() { c(); }");
        let code: Vec<usize> = (0..toks.len())
            .filter(|&i| toks[i].kind != TokKind::Comment)
            .collect();
        let ids = fn_scope_ids(&toks, &code);
        let at = |name: &str| {
            (0..code.len())
                .find(|&p| toks[code[p]].is_ident(name))
                .unwrap()
        };
        assert_ne!(ids[at("a")], ids[at("b")], "inner fn is its own scope");
        assert_ne!(ids[at("b")], ids[at("c")]);
        assert_ne!(ids[at("b")], usize::MAX);
    }
}
