//! Replay a recorded descent: parse a [`JsonlSink`](crate::JsonlSink)
//! trace back into [`DescentEvent`]s and render run summaries from it.
//!
//! The JSONL format is CCQ's own (one object per line, see
//! [`crate::event::event_json`]); the parser here is its exact inverse,
//! walking the same per-kind field list as the writer:
//! floats were written in shortest round-trip form, so
//! `parse_events(jsonl)` reproduces the original event stream
//! bit-for-bit (non-finite floats were serialized as `null` and come
//! back as NaN). That makes offline analysis equivalent to live
//! observation: feeding a replayed stream into a
//! [`MetricsSink`](crate::MetricsSink) with the same
//! [`ManualClock`](crate::ManualClock) produces a byte-identical
//! exposition — the golden-trace suite enforces exactly this.
//!
//! [`render_run_summary`] is the human-readable view the `ccq-report`
//! binary prints: headline numbers plus a per-step schedule table, all
//! fixed-precision so the bytes are stable.

use crate::event::{kind_str, DescentEvent, StepRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fmt::{self};

/// A failure parsing or decoding a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line of the offending JSONL record (0 = not line-bound).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.message)
        } else {
            write!(f, "trace: {}", self.message)
        }
    }
}

impl std::error::Error for ReplayError {}

/// Parses a full JSONL event log (one JSON object per non-empty line)
/// back into the event stream that produced it.
///
/// # Errors
///
/// Returns a [`ReplayError`] naming the first malformed line: invalid
/// JSON, an unknown `event` kind, or a missing/mistyped field.
pub fn parse_events(jsonl: &str) -> Result<Vec<DescentEvent>, ReplayError> {
    let mut events = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_event_line(line).map_err(|message| ReplayError {
            line: i + 1,
            message,
        })?);
    }
    Ok(events)
}

/// Parses one JSONL line into its [`DescentEvent`].
///
/// # Errors
///
/// Returns the parse/decode failure message (not line-bound — the caller
/// knows the line number).
pub fn parse_event_line(line: &str) -> Result<DescentEvent, String> {
    crate::wire::read_event(line)
}

/// A malformed final line a lenient parse tolerated — the signature a
/// live-tailed or crashed-writer log leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruncatedTail {
    /// 1-based line number of the malformed tail.
    pub line: usize,
    /// Bytes in the malformed tail.
    pub bytes: usize,
    /// Why the tail failed to parse.
    pub message: String,
}

/// The outcome of [`parse_events_lenient`]: every event from a complete
/// line, plus the truncated tail when one was dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct LenientParse {
    /// Events decoded from complete lines.
    pub events: Vec<DescentEvent>,
    /// The dropped final line, when the log ended mid-record.
    pub truncated_tail: Option<TruncatedTail>,
}

/// [`parse_events`] tolerating a truncated *final* line: a writer killed
/// mid-append (or a reader racing it) tears only the last record, so a
/// malformed final line is reported as a [`TruncatedTail`] rather than an
/// error while the complete prefix still decodes.
///
/// # Errors
///
/// Returns a [`ReplayError`] for a malformed line anywhere *before* the
/// final one — that is corruption, not truncation.
pub fn parse_events_lenient(jsonl: &str) -> Result<LenientParse, ReplayError> {
    let lines: Vec<(usize, &str)> = jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut events = Vec::with_capacity(lines.len());
    let last = lines.len();
    for (k, &(i, line)) in lines.iter().enumerate() {
        match parse_event_line(line) {
            Ok(ev) => events.push(ev),
            Err(message) if k + 1 == last => {
                return Ok(LenientParse {
                    events,
                    truncated_tail: Some(TruncatedTail {
                        line: i + 1,
                        bytes: line.len(),
                        message,
                    }),
                })
            }
            Err(message) => {
                return Err(ReplayError {
                    line: i + 1,
                    message,
                })
            }
        }
    }
    Ok(LenientParse {
        events,
        truncated_tail: None,
    })
}

/// Renders a run's [`crate::ProbeCacheStats`] as one JSON object — the
/// sidecar `ccq-report --probe-cache` reads back. Keys are emitted in a
/// fixed order and the depth histogram is a `skipped → count` object
/// with ascending keys, so identical stats render byte-identically.
pub fn render_probe_cache_stats(stats: &crate::ProbeCacheStats) -> String {
    crate::wire::write_probe_cache(stats)
}

/// Parses a probe-cache sidecar written by
/// [`render_probe_cache_stats`] back into the stats, bit-for-bit.
///
/// # Errors
///
/// Returns a [`ReplayError`] (never line-bound — the sidecar is one
/// object) on malformed JSON or a missing/mistyped field, including a
/// histogram count that is not a non-negative integer.
pub fn parse_probe_cache_stats(json: &str) -> Result<crate::ProbeCacheStats, ReplayError> {
    crate::wire::read_probe_cache(json).map_err(|message| ReplayError { line: 0, message })
}

/// Renders a replayed event stream as the human-readable run summary
/// the `ccq-report` binary prints: headline accuracy/compression
/// numbers, event counts, and the per-step schedule table. Output is
/// fixed-precision and byte-stable for a fixed stream.
pub fn render_run_summary(events: &[DescentEvent]) -> String {
    let mut baseline: Option<f32> = None;
    let mut init_acc: Option<f32> = None;
    let mut finished: Option<(f32, f64, String)> = None;
    let mut steps: Vec<&StepRecord> = Vec::new();
    let mut probe_rounds = 0usize;
    let mut probes = 0usize;
    let mut recovery_epochs = 0usize;
    let mut rollbacks = 0usize;
    let mut autosaves = 0usize;
    for ev in events {
        match ev {
            DescentEvent::Baseline { accuracy, .. } => baseline = Some(*accuracy),
            DescentEvent::InitQuantize { accuracy, .. } => init_acc = Some(*accuracy),
            DescentEvent::ProbeRound { probes: p, .. } => {
                probe_rounds += 1;
                probes += p.len();
            }
            DescentEvent::RecoveryEpoch { .. } => recovery_epochs += 1,
            DescentEvent::GuardRollback { .. } => rollbacks += 1,
            DescentEvent::StepCompleted { record } => steps.push(record),
            DescentEvent::Autosave { .. } => autosaves += 1,
            DescentEvent::Finished {
                final_accuracy,
                final_compression,
                bit_pattern,
                ..
            } => finished = Some((*final_accuracy, *final_compression, bit_pattern.clone())),
            DescentEvent::PhaseStarted { .. } | DescentEvent::QuantizeDecision { .. } => {}
        }
    }

    let mut out = String::new();
    out.push_str("CCQ run summary\n===============\n");
    let pct = |v: f32| format!("{:.2}%", 100.0 * v);
    match baseline {
        Some(b) => {
            let _ = writeln!(out, "baseline accuracy     {}", pct(b));
        }
        None => out.push_str("baseline accuracy     (not recorded)\n"),
    }
    if let Some(a) = init_acc {
        let _ = writeln!(out, "after ladder-top init {}", pct(a));
    }
    match &finished {
        Some((acc, comp, pattern)) => {
            let _ = writeln!(out, "final accuracy        {}", pct(*acc));
            if let Some(b) = baseline {
                let _ = writeln!(out, "degradation           {:.2} pts", 100.0 * (b - acc));
            }
            let _ = writeln!(out, "final compression     {comp:.2}x");
            let _ = writeln!(out, "bit pattern           {pattern}");
        }
        None => out.push_str("final accuracy        (run did not finish)\n"),
    }
    let _ = writeln!(out, "quantize steps        {}", steps.len());
    let _ = writeln!(
        out,
        "probe rounds          {probe_rounds} ({probes} probes)"
    );
    let _ = writeln!(out, "recovery epochs       {recovery_epochs}");
    let _ = writeln!(out, "guard rollbacks       {rollbacks}");
    let _ = writeln!(out, "autosaves             {autosaves}");

    if !steps.is_empty() {
        out.push('\n');
        let _ = writeln!(
            out,
            "{:>4}  {:>5}  {:<8}  {:<14}  {:>4} {:>4}  {:>8}  {:>10}  {:>6}  {:>11}",
            "step",
            "layer",
            "kind",
            "label",
            "from",
            "to",
            "valley%",
            "recovered%",
            "epochs",
            "compression"
        );
        for r in steps {
            let kind = kind_str(r.kind);
            let _ = writeln!(
                out,
                "{:>4}  {:>5}  {:<8}  {:<14}  {:>4} {:>4}  {:>8.2}  {:>10.2}  {:>6}  {:>10.2}x",
                r.step,
                r.layer,
                kind,
                r.label,
                r.from_bits.to_string(),
                r.to_bits.to_string(),
                100.0 * r.accuracy_after_quant,
                100.0 * r.accuracy_after_recovery,
                r.recovery_epochs,
                r.compression
            );
        }
    }
    out
}

/// Renders a per-searcher decision summary from a replayed event
/// stream: how many quantize decisions each searcher made, with the
/// destination-rung distribution of those decisions. Deterministic
/// ordering (searchers and rungs sorted lexically); the empty string
/// when the stream carries no quantize decisions.
pub fn render_searcher_summary(events: &[DescentEvent]) -> String {
    let mut by_searcher: BTreeMap<&str, BTreeMap<String, usize>> = BTreeMap::new();
    for ev in events {
        if let DescentEvent::QuantizeDecision {
            searcher, to_bits, ..
        } = ev
        {
            *by_searcher
                .entry(searcher.as_str())
                .or_default()
                .entry(to_bits.to_string())
                .or_insert(0) += 1;
        }
    }
    if by_searcher.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str("searcher decisions\n==================\n");
    for (name, rungs) in &by_searcher {
        let total: usize = rungs.values().sum();
        let dist = rungs
            .iter()
            .map(|(to, n)| format!("{to}:{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(out, "{name:<10} {total:>4} decisions  ({dist})");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::event_json;
    use crate::{ExpertKind, Phase, ProbeRecord};
    use ccq_quant::BitWidth;

    /// One event of every kind, with the inputs a writer most easily
    /// gets wrong: a label that needs escaping, a NaN ξ and ±inf floats,
    /// both arms of `quarantined_slot`, and the zero-bit `0b` rung.
    fn sample_events() -> Vec<DescentEvent> {
        let hostile = "fc,2 \"odd\"\n\t\\ \u{1} é".to_string();
        vec![
            DescentEvent::PhaseStarted {
                phase: Phase::Compete,
                step: 1,
            },
            DescentEvent::Baseline {
                accuracy: 0.953_125,
                lr: 0.02,
            },
            DescentEvent::InitQuantize {
                accuracy: 0.9,
                lr: f32::INFINITY,
            },
            DescentEvent::ProbeRound {
                step: 1,
                round: 2,
                probes: vec![
                    ProbeRecord {
                        round: 2,
                        layer: 0,
                        kind: ExpertKind::Weights,
                        val_loss: f32::NAN,
                    },
                    ProbeRecord {
                        round: 2,
                        layer: 1,
                        kind: ExpertKind::Activations,
                        val_loss: 0.718_281_8,
                    },
                ],
                pi: vec![1.0, 0.587_342_1, f32::NEG_INFINITY],
            },
            DescentEvent::QuantizeDecision {
                step: 1,
                epoch: 3,
                layer: 2,
                kind: ExpertKind::Layer,
                label: hostile.clone(),
                from_bits: BitWidth::of(2),
                to_bits: BitWidth::ZERO,
                probabilities: vec![0.25, 0.75],
                valley_accuracy: 0.701_2,
                lr: 0.02,
                searcher: "zero-bit".into(),
            },
            DescentEvent::RecoveryEpoch {
                step: 1,
                epoch: 4,
                train_loss: 1e-7,
                val_accuracy: 0.875,
                lr: 0.01,
            },
            DescentEvent::GuardRollback {
                step: 1,
                attempt: 1,
                discarded_trace_points: 3,
                quarantined_slot: None,
            },
            DescentEvent::GuardRollback {
                step: 1,
                attempt: 2,
                discarded_trace_points: 0,
                quarantined_slot: Some(4),
            },
            DescentEvent::StepCompleted {
                record: StepRecord {
                    step: 1,
                    layer: 2,
                    kind: ExpertKind::Layer,
                    label: hostile,
                    from_bits: BitWidth::FP32,
                    to_bits: BitWidth::of(8),
                    accuracy_before: 0.9,
                    accuracy_after_quant: 0.701_2,
                    accuracy_after_recovery: 0.89,
                    recovery_epochs: 2,
                    compression: 7.84,
                    lambda: 0.3,
                },
            },
            DescentEvent::Autosave {
                next_step: 2,
                path: "spool/running/job \"a\".ccqruns".into(),
            },
            DescentEvent::Finished {
                baseline_accuracy: 0.95,
                final_accuracy: 0.92,
                final_compression: f64::NAN,
                bit_pattern: "8b-4b-0b".into(),
            },
        ]
    }

    /// Compares `got` with its blessed file under `tests/golden/`, or
    /// re-blesses the file when `CCQ_BLESS` is set. The goldens pin the
    /// wire bytes, so a renamed or reordered key fails here.
    fn check_golden(name: &str, got: &str) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        if std::env::var("CCQ_BLESS").is_ok() {
            std::fs::write(&path, got).expect("bless golden");
            return;
        }
        let want = std::fs::read_to_string(&path).expect("golden file");
        assert_eq!(got, want, "{name} drifted from the golden");
    }

    #[test]
    fn every_event_kind_writes_the_blessed_jsonl_bytes() {
        let jsonl: String = sample_events()
            .iter()
            .map(|e| event_json(e) + "\n")
            .collect();
        check_golden("events.jsonl", &jsonl);
        // The reader inverts the writer on exactly these bytes.
        let back = parse_events(&jsonl).expect("golden events parse");
        let again: String = back.iter().map(|e| event_json(e) + "\n").collect();
        assert_eq!(again, jsonl, "parse then write is a fixed point");
    }

    #[test]
    fn parse_reports_the_failing_line() {
        let err = parse_events("{\"event\":\"baseline\",\"accuracy\":1,\"lr\":1}\nnot json\n")
            .expect_err("bad line");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unknown_event_kinds_are_rejected() {
        let err = parse_events("{\"event\":\"warp_drive\"}\n").expect_err("unknown kind");
        assert!(err.message.contains("warp_drive"));
    }

    #[test]
    fn lenient_parse_drops_only_a_torn_final_line() {
        // Compare streams by their canonical JSON (NaN-carrying events
        // are not reflexively equal under PartialEq).
        let canon = |evs: &[DescentEvent]| evs.iter().map(event_json).collect::<Vec<_>>();
        let events = sample_events();
        let jsonl: String = events.iter().map(|e| event_json(e) + "\n").collect();

        // A clean log parses with no tail.
        let clean = parse_events_lenient(&jsonl).expect("clean log");
        assert_eq!(canon(&clean.events), canon(&events));
        assert!(clean.truncated_tail.is_none());

        // Tear the final line mid-record: the prefix survives, the tail
        // is reported, and the strict parser rejects the same bytes.
        let torn = &jsonl[..jsonl.len() - 7];
        let parsed = parse_events_lenient(torn).expect("torn tail tolerated");
        assert_eq!(canon(&parsed.events), canon(&events[..events.len() - 1]));
        let tail = parsed.truncated_tail.expect("tail reported");
        assert_eq!(tail.line, events.len());
        assert!(tail.bytes > 0);
        assert!(parse_events(torn).is_err(), "strict parser must reject");

        // A malformed line *before* the end is corruption, not
        // truncation: both parsers reject it at the same line.
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines[1] = "{\"event\": \"basel";
        let corrupt = lines.join("\n");
        let err = parse_events_lenient(&corrupt).expect_err("mid-log corruption");
        assert_eq!(err.line, 2);
        assert_eq!(parse_events(&corrupt).expect_err("strict").line, 2);
    }

    #[test]
    fn summary_counts_match_the_stream() {
        let s = render_run_summary(&sample_events());
        assert!(s.contains("baseline accuracy     95.31%"));
        assert!(s.contains("probe rounds          1 (2 probes)"));
        assert!(s.contains("guard rollbacks       2"));
        assert!(s.contains("final compression     NaNx"));
    }

    #[test]
    fn legacy_quantize_lines_without_searcher_parse_as_hedge() {
        let line = "{\"event\":\"quantize\",\"step\":1,\"epoch\":3,\"layer\":2,\
                    \"kind\":\"layer\",\"label\":\"fc2\",\"from_bits\":\"8b\",\
                    \"to_bits\":\"4b\",\"valley_accuracy\":0.7,\"lr\":0.02,\
                    \"probabilities\":[0.25,0.75]}";
        let ev = parse_event_line(line).expect("legacy line");
        let DescentEvent::QuantizeDecision { searcher, .. } = ev else {
            panic!("expected a quantize decision");
        };
        assert_eq!(searcher, "hedge");
    }

    #[test]
    fn mistyped_searcher_is_an_error_not_hedge() {
        let line = "{\"event\":\"quantize\",\"step\":1,\"epoch\":3,\"layer\":2,\
                    \"kind\":\"layer\",\"label\":\"fc2\",\"from_bits\":\"8b\",\
                    \"to_bits\":\"4b\",\"valley_accuracy\":0.7,\"lr\":0.02,\
                    \"probabilities\":[0.25,0.75],\"searcher\":7}";
        let err = parse_event_line(line).expect_err("numeric searcher");
        assert!(err.contains("searcher"), "{err}");
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let line = "[".repeat(200_000);
        let err = parse_events(&line).expect_err("hostile nesting");
        assert_eq!(err.line, 1);
        assert!(err.message.contains("nesting"), "{err}");
        let err = parse_probe_cache_stats(&"{\"a\":".repeat(1000)).expect_err("deep");
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn searcher_summary_groups_decisions_deterministically() {
        let mut events = sample_events();
        if let DescentEvent::QuantizeDecision { searcher, .. } = &mut events[4] {
            *searcher = "releq".into();
        }
        events.push(events[4].clone());
        if let DescentEvent::QuantizeDecision {
            searcher, to_bits, ..
        } = &mut events[11]
        {
            *searcher = "zero-bit".into();
            *to_bits = BitWidth::ZERO;
        }
        let s = render_searcher_summary(&events);
        assert!(s.starts_with("searcher decisions\n"), "{s}");
        assert!(s.contains("releq"), "{s}");
        assert!(s.contains("zero-bit"), "{s}");
        assert!(s.contains("0b:1"), "{s}");
        assert_eq!(s, render_searcher_summary(&events), "byte-stable");
        assert_eq!(render_searcher_summary(&[]), "");
    }

    #[test]
    fn probe_cache_stats_round_trip_through_the_sidecar() {
        let mut stats = crate::ProbeCacheStats {
            hits: 34,
            misses: 2,
            segments_run: 100,
            segments_total: 180,
            depth_hist: BTreeMap::new(),
        };
        stats.depth_hist.insert(0, 2);
        stats.depth_hist.insert(3, 20);
        stats.depth_hist.insert(17, 14);
        let json = render_probe_cache_stats(&stats);
        check_golden("probe_cache.json", &json);
        let back = parse_probe_cache_stats(&json).expect("round trip");
        assert_eq!(back, stats);
        // Render is deterministic (byte-stable for goldens and diffs).
        assert_eq!(json, render_probe_cache_stats(&back));
        // Malformed sidecars are rejected, not misread.
        assert!(parse_probe_cache_stats("{\"hits\": -1}").is_err());
        // Histogram counts pass the same non-negative-integer check.
        for bad in ["-1.5", "2.5", "-3", "\"4\""] {
            let sidecar = json.replace("\"3\": 20", &format!("\"3\": {bad}"));
            let err = parse_probe_cache_stats(&sidecar).expect_err(bad);
            assert!(err.message.contains("depth_hist"), "{err}");
        }
        assert!(parse_probe_cache_stats("{}").is_err());
        assert!(parse_probe_cache_stats(&format!("{json} trailing")).is_err());
    }
}
