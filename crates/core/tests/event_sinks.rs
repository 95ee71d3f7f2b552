//! Sink coverage: a [`TraceBuffer`] must emit CSV bytes identical to the
//! legacy `CcqReport::trace_csv`/`schedule_csv` and fold the event stream
//! back into the report's vectors exactly, [`JsonlSink`] lines must round-trip
//! through a JSON parser, and the single-stepped [`ccq::DescentEngine`]
//! must walk the documented phase sequence.

use ccq::event::event_json;
use ccq::{
    CcqConfig, CcqReport, CcqRunner, DescentEvent, EventSink, ExpertKind, FanoutSink, JsonlSink,
    LambdaSchedule, NullSink, Phase, ProbeRecord, RecoveryMode, StartPoint, StepOutcome,
    StepRecord, TraceBuffer,
};
use ccq_data::{gaussian_blobs, BlobsConfig};
use ccq_models::mlp;
use ccq_nn::train::Batch;
use ccq_nn::{Network, Sgd};
use ccq_quant::{BitLadder, BitWidth, PolicyKind};
use ccq_tensor::{rng, Rng64};
use std::collections::BTreeMap;

fn setup() -> (Network, Vec<Batch>, Vec<Batch>) {
    let ds = gaussian_blobs(&BlobsConfig {
        classes: 4,
        dim: 8,
        samples_per_class: 64,
        std: 0.35,
        seed: 11,
    });
    let (train, val) = ds.split_at(192);
    let (train_b, val_b) = (train.batches(16), val.batches(32));
    let mut net = mlp(&[8, 16, 16, 4], PolicyKind::Pact, 5);
    let mut opt = Sgd::new(0.05).momentum(0.9);
    let mut r = rng(2);
    for _ in 0..15 {
        let _ = ccq_nn::train::train_epoch(&mut net, &train_b, &mut opt, &mut r).unwrap();
    }
    (net, train_b, val_b)
}

fn fast_config() -> CcqConfig {
    CcqConfig {
        ladder: BitLadder::new(&[8, 4]).unwrap(),
        probe_rounds: 3,
        recovery: RecoveryMode::Manual { epochs: 2 },
        lr: 0.02,
        max_steps: 20,
        lambda: LambdaSchedule::constant(0.3),
        ..Default::default()
    }
}

fn run_with_all_sinks() -> (CcqReport, TraceBuffer, String) {
    let (mut net, train, val) = setup();
    let mut runner = CcqRunner::new(fast_config());
    let mut provider = move |_: &mut Rng64| train.clone();
    let mut buf = TraceBuffer::new();
    let mut jsonl = JsonlSink::new(Vec::new());
    let report = {
        let mut fan = FanoutSink::new().with(&mut buf).with(&mut jsonl);
        assert_eq!(fan.len(), 2);
        runner.run(&mut net, &mut provider, &val, &mut fan).unwrap()
    };
    assert!(jsonl.io_error().is_none());
    let lines = String::from_utf8(jsonl.into_inner()).unwrap();
    (report, buf, lines)
}

#[test]
fn trace_buffer_csv_is_byte_identical_to_the_legacy_report_emitters() {
    let (report, buf, _) = run_with_all_sinks();
    assert_eq!(buf.trace_csv(), report.trace_csv());
    assert_eq!(buf.schedule_csv(), report.schedule_csv());
    // And the raw buffer reproduces the report's vectors bit-for-bit.
    assert_eq!(buf.trace(), &report.trace[..]);
    assert_eq!(buf.steps(), &report.steps[..]);
}

#[test]
fn jsonl_stream_round_trips_and_matches_the_report() {
    let (report, _, lines) = run_with_all_sinks();
    let events: Vec<Json> = lines
        .lines()
        .map(|l| {
            let (v, rest) = Json::parse(l).unwrap_or_else(|e| panic!("bad JSONL line: {e}\n{l}"));
            assert!(rest.trim().is_empty(), "trailing garbage after object");
            v
        })
        .collect();
    assert!(!events.is_empty());

    let kind = |v: &Json| v.get("event").unwrap().as_str().unwrap().to_string();
    // The engine narrates every phase boundary before running it, so the
    // stream opens with the InitQuantize span, then its payload events.
    assert_eq!(kind(&events[0]), "phase_started");
    assert_eq!(
        events[0].get("phase").unwrap().as_str().unwrap(),
        "init_quantize"
    );
    assert_eq!(kind(&events[1]), "baseline");
    assert_eq!(kind(&events[2]), "init_quantize");
    assert_eq!(kind(events.last().unwrap()), "finished");

    // Per-step events mirror the report's schedule exactly.
    let steps: Vec<&Json> = events.iter().filter(|e| kind(e) == "step").collect();
    assert_eq!(steps.len(), report.steps.len());
    for (ev, rec) in steps.iter().zip(&report.steps) {
        assert_eq!(ev.get("step").unwrap().as_f64().unwrap(), rec.step as f64);
        assert_eq!(ev.get("layer").unwrap().as_f64().unwrap(), rec.layer as f64);
        assert_eq!(
            ev.get("accuracy_after_recovery").unwrap().as_f64().unwrap() as f32,
            rec.accuracy_after_recovery,
            "floats survive the round trip exactly"
        );
        assert_eq!(
            ev.get("label").unwrap().as_str().unwrap(),
            rec.label.as_str()
        );
    }

    // Probe rounds carry per-expert losses ξ and π of matching arity.
    let probe = events.iter().find(|e| kind(e) == "probe_round").unwrap();
    let probes = probe.get("probes").unwrap().as_array().unwrap();
    let pi = probe.get("pi").unwrap().as_array().unwrap();
    assert!(!probes.is_empty());
    assert!(pi.len() >= probes.len(), "π covers every probed slot");

    let fin = events.last().unwrap();
    assert_eq!(
        fin.get("final_compression").unwrap().as_f64().unwrap(),
        report.final_compression
    );
    assert_eq!(
        fin.get("bit_pattern").unwrap().as_str().unwrap(),
        report.bit_pattern()
    );
}

#[test]
fn non_finite_floats_serialize_as_null() {
    let ev = DescentEvent::Baseline {
        accuracy: f32::INFINITY,
        lr: 0.02,
    };
    let (v, _) = Json::parse(&event_json(&ev)).unwrap();
    assert!(matches!(v.get("accuracy"), Some(Json::Null)));
}

/// A step record with a label no naive emitter survives: a comma, a
/// quoted alias, and a trailing newline.
fn hostile_step() -> StepRecord {
    StepRecord {
        step: 1,
        layer: 0,
        kind: ExpertKind::Layer,
        label: "fc,0 \"input\"\n".to_string(),
        from_bits: BitWidth::of(8),
        to_bits: BitWidth::of(4),
        accuracy_before: 0.95,
        accuracy_after_quant: 0.80,
        accuracy_after_recovery: 0.93,
        recovery_epochs: 2,
        compression: 4.0,
        lambda: 0.3,
    }
}

#[test]
fn schedule_csv_quotes_hostile_labels_rfc4180_style() {
    let mut csv = TraceBuffer::new();
    csv.on_event(&DescentEvent::StepCompleted {
        record: hostile_step(),
    });
    let rendered = csv.schedule_csv();
    // The whole field is quoted, embedded quotes doubled, and the comma
    // and newline stay inside the quoted field instead of splitting it.
    assert!(
        rendered.contains("\"fc,0 \"\"input\"\"\n\""),
        "label not escaped: {rendered:?}"
    );
    // The data row still carries exactly 12 top-level columns once the
    // quoted field is honoured.
    let body = rendered.split_once('\n').unwrap().1;
    let mut cols = 1;
    let mut in_quotes = false;
    for c in body.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => cols += 1,
            _ => {}
        }
    }
    assert_eq!(cols, 12, "row split by an unescaped comma: {body:?}");
    // Ordinary labels keep the historical unquoted bytes.
    let mut plain = hostile_step();
    plain.label = "conv1".to_string();
    let mut csv = TraceBuffer::new();
    csv.on_event(&DescentEvent::StepCompleted { record: plain });
    assert!(csv.schedule_csv().contains(",conv1,"));
}

#[test]
fn jsonl_escapes_hostile_labels_and_non_finite_xi() {
    let ev = DescentEvent::QuantizeDecision {
        step: 1,
        epoch: 2,
        layer: 0,
        kind: ExpertKind::Layer,
        label: "fc,0 \"input\"\n".to_string(),
        from_bits: BitWidth::of(8),
        to_bits: BitWidth::of(4),
        probabilities: vec![0.5, 0.5],
        valley_accuracy: 0.8,
        lr: 0.02,
        searcher: "hedge".to_string(),
    };
    let line = event_json(&ev);
    let (v, rest) = Json::parse(&line).unwrap();
    assert!(rest.trim().is_empty(), "label broke out of the object");
    assert_eq!(
        v.get("label").unwrap().as_str().unwrap(),
        "fc,0 \"input\"\n"
    );

    let probe = DescentEvent::ProbeRound {
        step: 1,
        round: 0,
        probes: vec![ProbeRecord {
            round: 0,
            layer: 0,
            kind: ExpertKind::Layer,
            val_loss: f32::NAN,
        }],
        pi: vec![f32::INFINITY, 0.25],
    };
    let (v, _) = Json::parse(&event_json(&probe)).unwrap();
    let probes = v.get("probes").unwrap().as_array().unwrap();
    assert!(matches!(probes[0].get("val_loss"), Some(Json::Null)));
    let pi = v.get("pi").unwrap().as_array().unwrap();
    assert!(matches!(pi[0], Json::Null));
    assert_eq!(pi[1].as_f64().unwrap(), 0.25);
}

#[test]
fn stepped_engine_walks_the_documented_phase_sequence() {
    let (mut net, train, val) = setup();
    let mut runner = CcqRunner::new(fast_config());
    let mut provider = move |_: &mut Rng64| train.clone();
    let mut sink = NullSink;
    let mut engine = runner
        .engine(&mut net, &mut provider, &val, &mut sink, StartPoint::Fresh)
        .unwrap();
    assert_eq!(engine.phase(), Phase::InitQuantize);
    let mut phases = Vec::new();
    while let StepOutcome::Advanced { ran, next } = engine.step().unwrap() {
        phases.push(ran);
        assert_eq!(engine.phase(), next);
    }
    assert_eq!(phases[0], Phase::InitQuantize);
    assert_eq!(phases[1], Phase::Checkpoint);
    // Every full quantization step is Compete → Quantize → Recover →
    // Checkpoint; the run ends on a Compete (all asleep) or Checkpoint.
    for w in phases[1..].chunks(4) {
        if w.len() == 4 {
            assert_eq!(w[1], Phase::Compete);
            assert_eq!(w[2], Phase::Quantize);
            assert_eq!(w[3], Phase::Recover);
        }
    }
    assert_eq!(engine.phase(), Phase::Done);
    let report = engine.into_report().unwrap();
    assert_eq!(report.steps.len(), 3);
}

// ---------------------------------------------------------------------
// A minimal JSON parser, enough to round-trip JsonlSink output.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    fn parse(s: &str) -> Result<(Json, &str), String> {
        let s = s.trim_start();
        let mut chars = s.chars();
        match chars.next().ok_or("unexpected end of input")? {
            'n' => s
                .strip_prefix("null")
                .map(|r| (Json::Null, r))
                .ok_or_else(|| "bad literal".into()),
            't' => s
                .strip_prefix("true")
                .map(|r| (Json::Bool(true), r))
                .ok_or_else(|| "bad literal".into()),
            'f' => s
                .strip_prefix("false")
                .map(|r| (Json::Bool(false), r))
                .ok_or_else(|| "bad literal".into()),
            '"' => Self::parse_string(&s[1..]).map(|(v, r)| (Json::Str(v), r)),
            '[' => {
                let mut rest = s[1..].trim_start();
                let mut items = Vec::new();
                if let Some(r) = rest.strip_prefix(']') {
                    return Ok((Json::Array(items), r));
                }
                loop {
                    let (v, r) = Self::parse(rest)?;
                    items.push(v);
                    rest = r.trim_start();
                    if let Some(r) = rest.strip_prefix(',') {
                        rest = r.trim_start();
                    } else if let Some(r) = rest.strip_prefix(']') {
                        return Ok((Json::Array(items), r));
                    } else {
                        return Err(format!("expected , or ] at {rest:.10}"));
                    }
                }
            }
            '{' => {
                let mut rest = s[1..].trim_start();
                let mut map = BTreeMap::new();
                if let Some(r) = rest.strip_prefix('}') {
                    return Ok((Json::Object(map), r));
                }
                loop {
                    let r = rest
                        .strip_prefix('"')
                        .ok_or_else(|| format!("expected key at {rest:.10}"))?;
                    let (key, r) = Self::parse_string(r)?;
                    let r = r
                        .trim_start()
                        .strip_prefix(':')
                        .ok_or_else(|| "expected :".to_string())?;
                    let (v, r) = Self::parse(r)?;
                    map.insert(key, v);
                    rest = r.trim_start();
                    if let Some(r) = rest.strip_prefix(',') {
                        rest = r.trim_start();
                    } else if let Some(r) = rest.strip_prefix('}') {
                        return Ok((Json::Object(map), r));
                    } else {
                        return Err(format!("expected , or }} at {rest:.10}"));
                    }
                }
            }
            c if c == '-' || c.is_ascii_digit() => {
                let end = s
                    .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .unwrap_or(s.len());
                let num: f64 = s[..end].parse().map_err(|e| format!("bad number: {e}"))?;
                Ok((Json::Num(num), &s[end..]))
            }
            c => Err(format!("unexpected character {c:?}")),
        }
    }

    /// Parses a string body (the opening quote already consumed).
    fn parse_string(s: &str) -> Result<(String, &str), String> {
        let mut out = String::new();
        let mut chars = s.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((out, &s[i + 1..])),
                '\\' => match chars.next().ok_or("truncated escape")?.1 {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                            code = code * 16 + h.to_digit(16).ok_or("bad hex digit")?;
                        }
                        out.push(char::from_u32(code).ok_or("bad code point")?);
                    }
                    e => return Err(format!("unknown escape \\{e}")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
}
