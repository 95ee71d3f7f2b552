//! Cross-file wire-format fact extraction and drift checking.
//!
//! The text records — JSONL events, the probe-cache sidecar and the
//! `ccq-job v1` spec — cannot drift: each has one field list that both
//! its writer and its reader walk. The formats left here still pair two
//! halves by hand:
//!
//! * the metrics exposition — names registered through
//!   `inc`/`set_gauge`/`observe` in `metrics.rs` back the `# TYPE`
//!   families in the golden `metrics.txt`;
//! * the CCQRUNS v2 run state — `TAG_*` section tags in `run_state.rs`
//!   must be pushed by the writer *and* matched by the reader;
//! * the CCQPACK v1 deployable artifact — `TAG_*` section tags in
//!   `crates/infer/src/format.rs`, same writer/reader pairing rule.
//!
//! This module harvests those facts from the token stream and reports a
//! golden family with no registration, or a section tag used on fewer
//! than two sides, as a `wire-drift` finding carrying both locations:
//! the orphaned fact's own, and the counterpart side's anchor.
//!
//! Test code (`#[cfg(test)]` regions) contributes no facts: round-trip
//! tests name tags freely without being part of the wire format.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{collect_waivers, test_mask, FileCtx, FileKind, Finding, Related, Waiver};
use std::collections::{BTreeMap, BTreeSet};

/// Which half of which wire format a source file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRole {
    /// `metrics.rs`: registers metric names.
    Metrics,
    /// The golden `metrics.txt` exposition (plain text, not Rust).
    GoldenMetrics,
    /// `run_state.rs`: CCQRUNS section tags.
    RunState,
    /// `crates/infer/src/format.rs`: CCQPACK section tags.
    PackFormat,
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

/// Cross-checks every wire format for which both halves are present.
/// Findings are waivable at the orphaned fact's line with a standalone
/// `// ccq-lint: allow(wire-drift) — reason`; a wire-drift waiver that
/// suppresses nothing is reported stale from here (the per-file pass
/// defers to this one for those).
pub fn check_wire(sources: &[WireSource<'_>]) -> Vec<Finding> {
    let mut metric_reg: Vec<Fact> = Vec::new();
    let mut golden_fam: Vec<Fact> = Vec::new();
    let mut tag_defs: Vec<Fact> = Vec::new();
    let mut tag_uses: Vec<Fact> = Vec::new();
    let mut pack_tag_defs: Vec<Fact> = Vec::new();
    let mut pack_tag_uses: Vec<Fact> = Vec::new();
    let mut have: BTreeSet<&'static str> = BTreeSet::new();
    // (path, toks) of each Rust source, for waiver handling.
    let mut rs_waivers: Vec<(String, Vec<Waiver>)> = Vec::new();

    for s in sources {
        if s.role == WireRole::GoldenMetrics {
            have.insert("golden");
            golden_fam.extend(golden_families(s.path, s.src));
            continue;
        }
        let f = RsFile::new(s.path, s.src);
        rs_waivers.push((s.path.to_string(), wire_waivers(s.path, &f.toks)));
        match s.role {
            WireRole::Metrics => {
                have.insert("metrics");
                metric_reg.extend(metric_reg_facts(&f));
            }
            WireRole::GoldenMetrics => unreachable!(),
            WireRole::RunState => {
                have.insert("run-state");
                let (defs, uses) = tag_facts(&f);
                tag_defs.extend(defs);
                tag_uses.extend(uses);
            }
            WireRole::PackFormat => {
                have.insert("pack-format");
                let (defs, uses) = tag_facts(&f);
                pack_tag_defs.extend(defs);
                pack_tag_uses.extend(uses);
            }
        }
    }

    let mut raw = Vec::new();
    if have.contains("metrics") && have.contains("golden") {
        // One direction only: a registered name missing from the golden
        // just means that run never touched it; a golden family with no
        // registration is a rename that outlived the code.
        drift(
            &golden_fam,
            &metric_reg,
            "golden metric family",
            "has no inc/set_gauge/observe registration in metrics.rs",
            &mut raw,
        );
    }
    if have.contains("run-state") {
        tag_drift("CCQRUNS", &tag_defs, &tag_uses, &mut raw);
    }
    if have.contains("pack-format") {
        tag_drift("CCQPACK", &pack_tag_defs, &pack_tag_uses, &mut raw);
    }

    // Apply wire-drift waivers and flag the stale ones.
    let mut findings = Vec::new();
    let mut used: Vec<Vec<bool>> = rs_waivers
        .iter()
        .map(|(_, ws)| vec![false; ws.len()])
        .collect();
    for f in raw {
        let mut suppressed = false;
        for (fi, (path, ws)) in rs_waivers.iter().enumerate() {
            if *path != f.path {
                continue;
            }
            for (wi, w) in ws.iter().enumerate() {
                if w.suppresses("wire-drift", f.line) {
                    used[fi][wi] = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }
    for (fi, (path, ws)) in rs_waivers.iter().enumerate() {
        for (wi, w) in ws.iter().enumerate() {
            if !used[fi][wi] {
                findings.push(Finding {
                    path: path.clone(),
                    line: w.line,
                    col: w.col,
                    rule: "stale-waiver",
                    message: "waiver for `wire-drift` suppresses nothing; delete it".into(),
                    related: None,
                });
            }
        }
    }
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    findings
}

/// The waivers of one wire file that name `wire-drift` (the per-file
/// pass validates shape and rejects mixed-rule wire waivers, so only
/// well-formed standalone ones survive to here).
fn wire_waivers(path: &str, toks: &[Tok]) -> Vec<Waiver> {
    let features = BTreeSet::new();
    let ctx = FileCtx {
        path: path.to_string(),
        crate_name: "ccq",
        kind: FileKind::LibrarySrc,
        features: &features,
    };
    let (waivers, _) = collect_waivers(&ctx, toks);
    waivers
        .into_iter()
        .filter(|w| w.rules.iter().any(|r| r == "wire-drift"))
        .collect()
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

/// A section tag of a tag-framed format (CCQRUNS, CCQPACK) is healthy
/// only if it appears on both sides of the format: at least two
/// non-definition, non-test uses (writer push and reader match arm).
fn tag_drift(format: &str, defs: &[Fact], uses: &[Fact], out: &mut Vec<Finding>) {
    for d in defs {
        let mut sites = uses.iter().filter(|u| u.key == d.key);
        let (first, second) = (sites.next(), sites.next());
        if second.is_some() {
            continue;
        }
        out.push(Finding {
            path: d.path.clone(),
            line: d.line,
            col: d.col,
            rule: "wire-drift",
            message: format!(
                "{format} section tag {} is used on {} side(s); the writer must push it and the \
                 reader must match it",
                d.key,
                u8::from(first.is_some()),
            ),
            related: first.map(Fact::related),
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

/// Harvests section-tag definitions (`const TAG_X`) and their non-test,
/// non-definition uses from a tag-framed format file (CCQRUNS run
/// state, CCQPACK artifact).
fn tag_facts(f: &RsFile<'_>) -> (Vec<Fact>, Vec<Fact>) {
    let mut defs = Vec::new();
    let mut uses = Vec::new();
    let mut def_sites: BTreeMap<(u32, u32), ()> = BTreeMap::new();
    for p in 0..f.code.len() {
        let i = f.code[p];
        if f.in_test[i] {
            continue;
        }
        let t = &f.toks[i];
        if t.is_ident("const")
            && f.code.get(p + 1).is_some_and(|&j| {
                f.toks[j].kind == TokKind::Ident && f.toks[j].text.starts_with("TAG_")
            })
        {
            let d = &f.toks[f.code[p + 1]];
            defs.push(f.fact(d, &d.text));
            def_sites.insert((d.line, d.col), ());
        }
    }
    for p in 0..f.code.len() {
        let i = f.code[p];
        if f.in_test[i] {
            continue;
        }
        let t = &f.toks[i];
        if t.kind == TokKind::Ident
            && t.text.starts_with("TAG_")
            && !def_sites.contains_key(&(t.line, t.col))
        {
            uses.push(f.fact(t, &t.text));
        }
    }
    (defs, uses)
}
