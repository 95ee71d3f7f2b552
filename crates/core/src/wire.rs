//! The JSON wire format of the [`JsonlSink`](crate::JsonlSink) event log
//! and the probe-cache sidecar.
//!
//! Each record is declared once, as a table of `field: "key"` rows:
//! `wire_events!` for the ten [`DescentEvent`] kinds and `wire_record!`
//! for the plain structs. Both the writer and the reader are generated
//! from that one table, so a key is spelled in one place and a field
//! added to a row is written and read back with no second edit. Keys are
//! written out rather than derived from field names, so renaming a Rust
//! field cannot silently change the format.
//!
//! The writer appends straight into the output string. Floats print in
//! Rust's shortest round-trip form and non-finite floats become `null`
//! (read back as NaN), so a parsed stream reproduces the written one
//! bit-for-bit.

use crate::event::{kind_str, phase_str, DescentEvent, StepRecord};
use crate::{ExpertKind, Phase, ProbeCacheStats, ProbeRecord, SearcherKind};
use ccq_quant::BitWidth;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::path::PathBuf;

/// The member naming an event's kind.
const KIND_KEY: &str = "event";

/// Deepest array/object nesting the reader accepts. Events nest three
/// deep (line object → `probes` array → probe object); the cap turns a
/// hostile line of brackets into an error instead of a stack overflow.
const MAX_DEPTH: usize = 8;

/// Generates `write_event` and `read_event_as` from one row per event
/// kind: `Variant "kind" { field: "key", … }`. A `field: ..` row
/// flattens a [`Record`]'s members into the event object, and
/// `or <expr>` gives a key that older streams may lack its default.
macro_rules! wire_events {
    ($($var:ident $kind:literal { $($f:ident: $key:tt $(or $default:expr)?),* $(,)? })*) => {
        /// Appends one event as a single-line JSON object (no newline).
        pub(crate) fn write_event(ev: &DescentEvent, out: &mut String) {
            write_object(out, false, |w| match ev {
                $(DescentEvent::$var { $($f),* } => {
                    w.kind($kind);
                    $(write_member!(w, $f, $key);)*
                })*
            });
        }

        /// Reads the members of an event of the given kind.
        fn read_event_as(kind: &str, r: &Reader<'_>) -> Result<DescentEvent, String> {
            match kind {
                $($kind => Ok(DescentEvent::$var {
                    $($f: read_member!(r, $key $(, $default)?)),*
                }),)*
                other => Err(format!("unknown event kind \"{other}\"")),
            }
        }
    };
}

macro_rules! write_member {
    ($w:ident, $x:expr, ..) => {
        Record::write_members($x, $w)
    };
    ($w:ident, $x:expr, $key:literal) => {
        $w.field($key, $x)
    };
}

macro_rules! read_member {
    ($r:ident, ..) => {
        Record::read_members($r)?
    };
    ($r:ident, $key:literal) => {
        $r.get($key)?
    };
    ($r:ident, $key:literal, $default:expr) => {
        $r.get_or($key, || $default)?
    };
}

wire_events! {
    PhaseStarted "phase_started" { phase: "phase", step: "step" }
    Baseline "baseline" { accuracy: "accuracy", lr: "lr" }
    InitQuantize "init_quantize" { accuracy: "accuracy", lr: "lr" }
    ProbeRound "probe_round" { step: "step", round: "round", probes: "probes", pi: "pi" }
    QuantizeDecision "quantize" {
        step: "step", epoch: "epoch", layer: "layer", kind: "kind", label: "label",
        from_bits: "from_bits", to_bits: "to_bits", valley_accuracy: "valley_accuracy",
        lr: "lr", probabilities: "probabilities",
        // Streams written before the searcher abstraction carry no
        // searcher; only Hedge existed then.
        searcher: "searcher" or SearcherKind::Hedge.as_str().to_string(),
    }
    RecoveryEpoch "recovery_epoch" {
        step: "step", epoch: "epoch", train_loss: "train_loss", val_accuracy: "val_accuracy",
        lr: "lr",
    }
    GuardRollback "guard_rollback" {
        step: "step", attempt: "attempt", discarded_trace_points: "discarded_trace_points",
        quarantined_slot: "quarantined_slot",
    }
    StepCompleted "step" { record: .. }
    Autosave "autosave" { next_step: "next_step", path: "path" }
    Finished "finished" {
        baseline_accuracy: "baseline_accuracy", final_accuracy: "final_accuracy",
        final_compression: "final_compression", bit_pattern: "bit_pattern",
    }
}

/// A struct whose fields are members of a JSON object.
trait Record: Sized {
    fn write_members(&self, w: &mut Writer<'_>);
    fn read_members(r: &Reader<'_>) -> Result<Self, String>;
}

/// Implements [`Record`] from one `Struct { field: "key", … }` table.
macro_rules! wire_record {
    ($ty:ident { $($f:ident: $key:literal),* $(,)? }) => {
        impl Record for $ty {
            fn write_members(&self, w: &mut Writer<'_>) {
                $(w.field($key, &self.$f);)*
            }
            fn read_members(r: &Reader<'_>) -> Result<Self, String> {
                Ok($ty { $($f: r.get($key)?),* })
            }
        }
    };
}

wire_record! {
    StepRecord {
        step: "step", layer: "layer", kind: "kind", label: "label", from_bits: "from_bits",
        to_bits: "to_bits", accuracy_before: "accuracy_before",
        accuracy_after_quant: "accuracy_after_quant",
        accuracy_after_recovery: "accuracy_after_recovery", recovery_epochs: "recovery_epochs",
        compression: "compression", lambda: "lambda",
    }
}
wire_record! { ProbeRecord { round: "round", layer: "layer", kind: "kind", val_loss: "val_loss" } }
wire_record! {
    ProbeCacheStats {
        hits: "hits", misses: "misses", segments_run: "segments_run",
        segments_total: "segments_total", depth_hist: "depth_hist",
    }
}

/// Reads one JSONL line back into its event.
pub(crate) fn read_event(line: &str) -> Result<DescentEvent, String> {
    let doc = parse_document(line)?;
    let r = Reader::new(&doc)?;
    read_event_as(&r.get::<String>(KIND_KEY)?, &r)
}

/// Renders the probe-cache sidecar: one spaced JSON object and a newline.
pub(crate) fn write_probe_cache(stats: &ProbeCacheStats) -> String {
    let mut s = String::new();
    write_object(&mut s, true, |w| stats.write_members(w));
    s.push('\n');
    s
}

/// Reads a probe-cache sidecar back.
pub(crate) fn read_probe_cache(json: &str) -> Result<ProbeCacheStats, String> {
    Record::read_members(&Reader::new(&parse_document(json)?)?)
}

// ---------------------------------------------------------------------
// Writing and reading members.
// ---------------------------------------------------------------------

/// Appends one JSON object's members to a string.
struct Writer<'a> {
    out: &'a mut String,
    /// `", "` and `": "` between members (the sidecar) rather than `","`
    /// and `":"` (events).
    spaced: bool,
    first: bool,
}

/// Writes `{…}` around whatever `body` writes.
fn write_object(out: &mut String, spaced: bool, body: impl FnOnce(&mut Writer<'_>)) {
    out.push('{');
    let mut w = Writer {
        out,
        spaced,
        first: true,
    };
    body(&mut w);
    w.out.push('}');
}

impl Writer<'_> {
    fn sep(&self) -> &'static str {
        if self.spaced {
            ", "
        } else {
            ","
        }
    }

    fn member(&mut self, key: impl fmt::Display) {
        if !self.first {
            self.out.push_str(self.sep());
        }
        self.first = false;
        let colon = if self.spaced { ": " } else { ":" };
        let _ = write!(self.out, "\"{key}\"{colon}");
    }

    fn kind(&mut self, name: &str) {
        self.member(KIND_KEY);
        write_str(name, self.out);
    }

    fn field<T: Wire>(&mut self, key: &str, x: &T) {
        self.member(key);
        x.write(self);
    }
}

/// Reads members out of one parsed JSON object; unknown members are
/// ignored.
struct Reader<'a>(&'a BTreeMap<String, Json>);

impl<'a> Reader<'a> {
    fn new(v: &'a Json) -> Result<Self, String> {
        match v {
            Json::Object(members) => Ok(Reader(members)),
            _ => Err("expected a JSON object".into()),
        }
    }

    fn get<T: Wire>(&self, key: &str) -> Result<T, String> {
        let v = self
            .0
            .get(key)
            .ok_or_else(|| format!("missing field \"{key}\""))?;
        T::read(v).map_err(|what| format!("field \"{key}\" {what}"))
    }

    /// Like [`Reader::get`], but an absent key takes `default()`.
    fn get_or<T: Wire>(&self, key: &str, default: impl FnOnce() -> T) -> Result<T, String> {
        if self.0.contains_key(key) {
            self.get(key)
        } else {
            Ok(default())
        }
    }
}

// ---------------------------------------------------------------------
// Field value types.
// ---------------------------------------------------------------------

/// A value that can fill a field of a wire record.
trait Wire: Sized {
    /// Appends the value's JSON spelling.
    fn write(&self, w: &mut Writer<'_>);
    /// Reads the value back; the error says what the JSON is not (the
    /// reader prefixes the field name).
    fn read(v: &Json) -> Result<Self, String>;
}

fn count(v: &Json) -> Result<f64, String> {
    match v {
        Json::Num(x) if *x >= 0.0 && x.fract().abs() < f64::EPSILON => Ok(*x),
        _ => Err("is not a non-negative integer".into()),
    }
}

/// A number, or `null` for the NaN a non-finite float was written as.
fn float(v: &Json) -> Result<f64, String> {
    match v {
        Json::Num(x) => Ok(*x),
        Json::Null => Ok(f64::NAN),
        _ => Err("is not a number".into()),
    }
}

fn text(v: &Json) -> Result<&str, String> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err("is not a string".into()),
    }
}

macro_rules! wire_numbers {
    ($read:ident: $($t:ty),*) => {$(
        impl Wire for $t {
            fn write(&self, w: &mut Writer<'_>) {
                if self.is_finite() {
                    let _ = write!(w.out, "{self}");
                } else {
                    w.out.push_str("null");
                }
            }
            fn read(v: &Json) -> Result<Self, String> {
                $read(v).map(|x| x as $t)
            }
        }
    )*};
}
wire_numbers!(float: f32, f64);

macro_rules! wire_counts {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn write(&self, w: &mut Writer<'_>) {
                let _ = write!(w.out, "{self}");
            }
            fn read(v: &Json) -> Result<Self, String> {
                count(v).map(|x| x as $t)
            }
        }
    )*};
}
wire_counts!(usize, u64);

impl Wire for String {
    fn write(&self, w: &mut Writer<'_>) {
        write_str(self, w.out);
    }
    fn read(v: &Json) -> Result<Self, String> {
        text(v).map(str::to_string)
    }
}

impl Wire for PathBuf {
    fn write(&self, w: &mut Writer<'_>) {
        write_str(&self.to_string_lossy(), w.out);
    }
    fn read(v: &Json) -> Result<Self, String> {
        text(v).map(PathBuf::from)
    }
}

/// Implements [`Wire`] for enums spelled as one of a closed set of
/// words: `Type: spelling_fn [Variant, …]`.
macro_rules! wire_words {
    ($($ty:ident: $spell:ident [$($var:ident),*]),*) => {$(
        impl Wire for $ty {
            fn write(&self, w: &mut Writer<'_>) {
                write_str($spell(*self), w.out);
            }
            fn read(v: &Json) -> Result<Self, String> {
                let s = text(v)?;
                [$($ty::$var),*]
                    .into_iter()
                    .find(|&x| $spell(x) == s)
                    .ok_or_else(|| format!("has unknown value \"{s}\""))
            }
        }
    )*};
}
wire_words! {
    Phase: phase_str [InitQuantize, Compete, Quantize, Recover, Checkpoint, Done],
    ExpertKind: kind_str [Layer, Weights, Activations]
}

impl Wire for BitWidth {
    fn write(&self, w: &mut Writer<'_>) {
        let _ = write!(w.out, "\"{self}\"");
    }
    fn read(v: &Json) -> Result<Self, String> {
        parse_bits(text(v)?)
    }
}

/// Inverse of [`BitWidth`]'s `Display`: `"fp"` or `"<n>b"` — including
/// the zero-bit searcher's `"0b"` pruning rung.
fn parse_bits(s: &str) -> Result<BitWidth, String> {
    if s == "fp" {
        return Ok(BitWidth::FP32);
    }
    let bad = || format!("is not a bit width: \"{s}\" (expected \"fp\" or \"<0..=32>b\")");
    let digits = s.strip_suffix('b').ok_or_else(bad)?;
    let n: u32 = digits.parse().map_err(|_| bad())?;
    BitWidth::new_allowing_zero(n).map_err(|_| bad())
}

impl<T: Wire> Wire for Option<T> {
    fn write(&self, w: &mut Writer<'_>) {
        match self {
            Some(x) => x.write(w),
            None => w.out.push_str("null"),
        }
    }
    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, w: &mut Writer<'_>) {
        w.out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                w.out.push_str(w.sep());
            }
            x.write(w);
        }
        w.out.push(']');
    }
    fn read(v: &Json) -> Result<Self, String> {
        let Json::Array(items) = v else {
            return Err("is not an array".into());
        };
        items
            .iter()
            .map(|x| T::read(x).map_err(|e| format!("holds an element that {e}")))
            .collect()
    }
}

impl Wire for ProbeRecord {
    fn write(&self, w: &mut Writer<'_>) {
        write_object(w.out, w.spaced, |w| self.write_members(w));
    }
    fn read(v: &Json) -> Result<Self, String> {
        Self::read_members(&Reader::new(v)?)
    }
}

/// The sidecar's depth histogram: `{"<skipped>": <count>, …}`.
impl Wire for BTreeMap<usize, u64> {
    fn write(&self, w: &mut Writer<'_>) {
        write_object(w.out, w.spaced, |w| {
            for (skipped, count) in self {
                w.member(skipped);
                count.write(w);
            }
        });
    }
    fn read(v: &Json) -> Result<Self, String> {
        let Json::Object(members) = v else {
            return Err("is not an object".into());
        };
        members
            .iter()
            .map(|(key, count)| {
                let skipped = key
                    .parse()
                    .map_err(|_| format!("has key \"{key}\" that is not an integer"))?;
                let count = u64::read(count).map_err(|e| format!("[\"{key}\"] {e}"))?;
                Ok((skipped, count))
            })
            .collect()
    }
}

/// JSON string literal with `"`, `\`, and control characters escaped.
fn write_str(raw: &str, out: &mut String) {
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// A minimal JSON reader.
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

/// Parses exactly one JSON value (surrounding whitespace allowed).
fn parse_document(s: &str) -> Result<Json, String> {
    let (value, rest) = Json::parse(s, 0)?;
    if !rest.trim().is_empty() {
        return Err("trailing bytes after JSON object".into());
    }
    Ok(value)
}

impl Json {
    /// Parses one JSON value off the front of `s`, returning the rest;
    /// `depth` counts the arrays and objects already open around it.
    fn parse(s: &str, depth: usize) -> Result<(Json, &str), String> {
        let s = s.trim_start();
        let first = s.chars().next().ok_or("unexpected end of input")?;
        if matches!(first, '[' | '{') && depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        match first {
            'n' | 't' | 'f' => [
                ("null", Json::Null),
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
            ]
            .into_iter()
            .find_map(|(word, v)| s.strip_prefix(word).map(|r| (v, r)))
            .ok_or_else(|| "bad literal".into()),
            '"' => Self::parse_string(s),
            '[' => {
                let mut rest = &s[1..];
                let mut items = Vec::new();
                if let Some(r) = rest.trim_start().strip_prefix(']') {
                    return Ok((Json::Array(items), r));
                }
                loop {
                    let (v, r) = Self::parse(rest, depth + 1)?;
                    items.push(v);
                    let r = r.trim_start();
                    if let Some(r) = r.strip_prefix(',') {
                        rest = r;
                    } else if let Some(r) = r.strip_prefix(']') {
                        return Ok((Json::Array(items), r));
                    } else {
                        return Err("expected ',' or ']' in array".into());
                    }
                }
            }
            '{' => {
                let mut rest = &s[1..];
                let mut map = BTreeMap::new();
                if let Some(r) = rest.trim_start().strip_prefix('}') {
                    return Ok((Json::Object(map), r));
                }
                loop {
                    let (key, r) = Self::parse_string(rest.trim_start())?;
                    let Json::Str(key) = key else {
                        return Err("object key must be a string".into());
                    };
                    let r = r
                        .trim_start()
                        .strip_prefix(':')
                        .ok_or("expected ':' after object key")?;
                    let (v, r) = Self::parse(r, depth + 1)?;
                    map.insert(key, v);
                    let r = r.trim_start();
                    if let Some(r) = r.strip_prefix(',') {
                        rest = r;
                    } else if let Some(r) = r.strip_prefix('}') {
                        return Ok((Json::Object(map), r));
                    } else {
                        return Err("expected ',' or '}' in object".into());
                    }
                }
            }
            c if c == '-' || c.is_ascii_digit() => {
                let end = s
                    .char_indices()
                    .find(|(_, c)| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .map(|(i, _)| i)
                    .unwrap_or(s.len());
                let (num, rest) = s.split_at(end);
                let x: f64 = num.parse().map_err(|_| format!("bad number \"{num}\""))?;
                Ok((Json::Num(x), rest))
            }
            c => Err(format!("unexpected character '{c}'")),
        }
    }

    fn parse_string(s: &str) -> Result<(Json, &str), String> {
        let body = s.strip_prefix('"').ok_or("expected string")?;
        let mut out = String::new();
        let mut chars = body.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((Json::Str(out), &body[i + 1..])),
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = chars
                                .next()
                                .and_then(|(_, h)| h.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("bad escape sequence".into()),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_widths_round_trip_fp_and_sized() {
        assert_eq!(parse_bits("fp").expect("fp"), BitWidth::FP32);
        assert_eq!(parse_bits("4b").expect("4b"), BitWidth::of(4));
        // The zero-bit searcher's pruning rung is a legal stored width.
        assert_eq!(parse_bits("0b").expect("0b"), BitWidth::ZERO);
        assert!(parse_bits("33b").is_err());
        assert!(parse_bits("4").is_err());
    }

    #[test]
    fn nesting_up_to_the_cap_parses_and_beyond_it_errors() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_document(&nest(MAX_DEPTH)).is_ok());
        let err = parse_document(&nest(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.contains("nesting"), "{err}");
    }
}
