//! Cross-file wire-format fact extraction and drift checking.
//!
//! The JSONL events, the probe-cache sidecar, the `ccq-job v1` spec and
//! the binary formats' tags (CCQRUNS, CCQPACK) cannot drift: each is
//! declared once for both its writer and its reader. The one pair left
//! to check is the metrics exposition: names registered through
//! `inc`/`set_gauge`/`observe` in `metrics.rs` back the `# TYPE`
//! families in the golden `metrics.txt`.
//!
//! This module harvests those facts and reports a golden family with no
//! registration as a `wire-drift` finding carrying both locations: the
//! orphaned family's own, and the registrations' anchor. Findings sit in
//! the golden text, which carries no waivers.
//!
//! Test code (`#[cfg(test)]` regions) contributes no facts.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{test_mask, Finding, Related};
use std::collections::BTreeSet;

/// Which half of the metrics wire format a source file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRole {
    /// `metrics.rs`: registers metric names.
    Metrics,
    /// The golden `metrics.txt` exposition (plain text, not Rust).
    GoldenMetrics,
}

/// One source fed to [`check_wire`].
#[derive(Debug, Clone, Copy)]
pub struct WireSource<'a> {
    /// Which half of which format this file holds.
    pub role: WireRole,
    /// Workspace-relative path used in diagnostics.
    pub path: &'a str,
    /// The file's content.
    pub src: &'a str,
}

/// One harvested string fact.
#[derive(Debug, Clone)]
struct Fact {
    key: String,
    path: String,
    line: u32,
    col: u32,
}

impl Fact {
    fn related(&self) -> Related {
        Related {
            path: self.path.clone(),
            line: self.line,
            col: self.col,
        }
    }
}

/// A lexed Rust wire file with its comment-free token index and test
/// mask, shared by the per-role extractors.
struct RsFile<'a> {
    path: &'a str,
    toks: Vec<Tok>,
    code: Vec<usize>,
    in_test: Vec<bool>,
}

impl<'a> RsFile<'a> {
    fn new(path: &'a str, src: &str) -> Self {
        let toks = lex(src);
        let in_test = test_mask(&toks);
        let code = (0..toks.len())
            .filter(|&i| toks[i].kind != TokKind::Comment)
            .collect();
        Self {
            path,
            toks,
            code,
            in_test,
        }
    }

    fn fact(&self, t: &Tok, key: &str) -> Fact {
        Fact {
            key: key.to_string(),
            path: self.path.to_string(),
            line: t.line,
            col: t.col,
        }
    }
}

/// Cross-checks the metrics exposition when both halves are present;
/// with only one half there is nothing to drift against.
pub fn check_wire(sources: &[WireSource<'_>]) -> Vec<Finding> {
    let mut metric_reg: Vec<Fact> = Vec::new();
    let mut golden_fam: Vec<Fact> = Vec::new();
    for s in sources {
        match s.role {
            WireRole::Metrics => metric_reg.extend(metric_reg_facts(&RsFile::new(s.path, s.src))),
            WireRole::GoldenMetrics => golden_fam.extend(golden_families(s.path, s.src)),
        }
    }
    let has = |role| sources.iter().any(|s| s.role == role);
    let mut findings = Vec::new();
    if has(WireRole::Metrics) && has(WireRole::GoldenMetrics) {
        // One direction only: a registered name missing from the golden
        // just means that run never touched it; a golden family with no
        // registration is a rename that outlived the code.
        drift(
            &golden_fam,
            &metric_reg,
            "golden metric family",
            "has no inc/set_gauge/observe registration in metrics.rs",
            &mut findings,
        );
    }
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    findings
}

/// Every key in `a` with no counterpart in `b` becomes one finding at
/// its first occurrence, pointing at `b`'s anchor (the counterpart
/// side's first fact) as the second location.
fn drift(a: &[Fact], b: &[Fact], what: &str, how: &str, out: &mut Vec<Finding>) {
    let b_keys: BTreeSet<&str> = b.iter().map(|f| f.key.as_str()).collect();
    let mut seen = BTreeSet::new();
    for f in a {
        if b_keys.contains(f.key.as_str()) || !seen.insert(f.key.as_str()) {
            continue;
        }
        out.push(Finding {
            path: f.path.clone(),
            line: f.line,
            col: f.col,
            rule: "wire-drift",
            message: format!("{what} \"{}\" {how}", f.key),
            related: b.first().map(Fact::related),
        });
    }
}

/// Harvests registered metric names: the first string argument of
/// `inc(` / `set_gauge(` / `observe(` when it starts with `ccq_`.
fn metric_reg_facts(f: &RsFile<'_>) -> Vec<Fact> {
    let mut out = Vec::new();
    for p in 0..f.code.len() {
        let i = f.code[p];
        if f.in_test[i] {
            continue;
        }
        let t = &f.toks[i];
        if !(t.is_ident("inc") || t.is_ident("set_gauge") || t.is_ident("observe")) {
            continue;
        }
        let open = f.code.get(p + 1).map(|&j| &f.toks[j]);
        let arg = f.code.get(p + 2).map(|&j| &f.toks[j]);
        if let (Some(open), Some(arg)) = (open, arg) {
            if open.is_punct("(") && arg.is_str() && arg.text.starts_with("ccq_") {
                out.push(f.fact(arg, &arg.text));
            }
        }
    }
    out
}

/// Harvests `# TYPE <family> <kind>` lines from the golden metrics
/// exposition.
fn golden_families(path: &str, src: &str) -> Vec<Fact> {
    let mut out = Vec::new();
    for (n, line) in src.lines().enumerate() {
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        let Some(fam) = rest.split_whitespace().next() else {
            continue;
        };
        out.push(Fact {
            key: fam.to_string(),
            path: path.to_string(),
            line: (n + 1) as u32,
            col: 1,
        });
    }
    out
}
