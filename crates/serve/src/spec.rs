//! The job wire format: a deterministic, human-editable `key = value`
//! text file describing everything a worker needs to run one CCQ
//! quantization job from scratch — architecture, policy, data recipe,
//! pre-training budget, ladder, and descent budget.
//!
//! The format round-trips exactly: one field list names every key with
//! its default and spelling, [`JobSpec::render`] walks it to emit keys in
//! a fixed order with shortest round-trip floats, and [`JobSpec::parse`]
//! walks it as the strict inverse (unknown keys, duplicates, and missing
//! required keys are errors). Two byte-identical spec files therefore describe
//! bit-identical runs — the foundation of the daemon's restart-resume
//! contract.

use crate::error::{Result, ServeError};
use ccq::{CcqConfig, GuardPolicy, LambdaSchedule, RecoveryMode, SearcherKind};
use ccq_data::{gaussian_blobs, BlobsConfig};
use ccq_models::mlp;
use ccq_nn::train::Batch;
use ccq_nn::Network;
use ccq_quant::{BitLadder, PolicyKind};
use std::fmt::{self, Write as _};
use std::str::FromStr;

const HEADER: &str = "ccq-job v1";

/// A fully-specified quantization job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job id: unique within a queue, used as the artifact file stem.
    pub name: String,
    /// MLP layer dims, input to classes (the only architecture the
    /// daemon currently serves).
    pub mlp_dims: Vec<usize>,
    /// Quantization policy for every layer.
    pub policy: PolicyKind,
    /// Weight-init seed for the model.
    pub model_seed: u64,
    /// Gaussian-blobs data recipe.
    pub data: BlobsConfig,
    /// Train/validation split point (first `split` samples train).
    pub split: usize,
    /// Full-precision pre-training epochs before quantization starts.
    pub pretrain_epochs: usize,
    /// Pre-training learning rate.
    pub pretrain_lr: f32,
    /// Pre-training SGD momentum.
    pub pretrain_momentum: f32,
    /// Pre-training shuffle/augment seed.
    pub pretrain_seed: u64,
    /// Minibatch size for both pre-training and recovery.
    pub batch_size: usize,
    /// CCQ master seed.
    pub seed: u64,
    /// Hedge learning rate γ.
    pub gamma: f32,
    /// Compete-phase search strategy (hedge, zero-bit, releq, one-shot).
    pub searcher: SearcherKind,
    /// Bit ladder, top to floor.
    pub ladder: Vec<u32>,
    /// Competition rounds per step (0 = the default two).
    pub probe_rounds: usize,
    /// Validation batches per probe (0 = all).
    pub probe_val_batches: usize,
    /// Constant λ override; `None` keeps the default decaying schedule.
    pub lambda: Option<f32>,
    /// Recovery mode for the collaboration stage.
    pub recovery: RecoveryMode,
    /// Divergence guard policy.
    pub guard: GuardPolicy,
    /// Recovery fine-tuning learning rate.
    pub lr: f32,
    /// Safety cap on quantization steps.
    pub max_steps: usize,
    /// Stop once this compression ratio is reached.
    pub target_compression: Option<f64>,
}

impl JobSpec {
    /// A small, fast demo job — the `ccq-serve demo-spec` payload and
    /// the smoke-gate workload. `variant` perturbs the seeds and ladder
    /// so two demo jobs exercise distinct trajectories.
    pub fn demo(name: &str, variant: u64) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            mlp_dims: vec![8, 16, 16, 4],
            policy: PolicyKind::Pact,
            model_seed: 5 + variant,
            data: BlobsConfig {
                classes: 4,
                dim: 8,
                samples_per_class: 64,
                std: 0.4,
                seed: 20 + variant,
            },
            split: 192,
            pretrain_epochs: 15,
            pretrain_lr: 0.05,
            pretrain_momentum: 0.9,
            pretrain_seed: 2 + variant,
            batch_size: 16,
            seed: 5 + variant,
            gamma: 0.5,
            searcher: SearcherKind::Hedge,
            ladder: if variant.is_multiple_of(2) {
                vec![8, 4]
            } else {
                vec![8, 4, 2]
            },
            probe_rounds: 3,
            probe_val_batches: 0,
            lambda: Some(0.3),
            recovery: RecoveryMode::Manual { epochs: 2 },
            guard: GuardPolicy::Quarantine { max_retries: 2 },
            lr: 0.02,
            max_steps: 6,
            target_compression: None,
        }
    }

    /// The spec's one field list, in canonical key order. [`JobSpec::render`]
    /// and [`JobSpec::parse`] both walk it, so each key is spelled once.
    /// A `None` default marks a required key.
    #[rustfmt::skip]
    fn fields(&mut self, v: &mut impl Visitor) {
        v.field("name", &mut self.name, None, Plain);
        v.field("model", &mut self.mlp_dims, None, MLP);
        v.field("policy", &mut self.policy, None, Policy);
        v.field("model_seed", &mut self.model_seed, Some(0), Plain);
        v.field("data", &mut self.data, None, Blobs);
        v.field("data_std", &mut self.data.std, Some(0.4), Plain);
        v.field("data_seed", &mut self.data.seed, Some(0), Plain);
        let total = self.data.classes.saturating_mul(self.data.samples_per_class);
        v.field("split", &mut self.split, Some(total.saturating_mul(3) / 4), Plain);
        v.field("pretrain_epochs", &mut self.pretrain_epochs, Some(10), Plain);
        v.field("pretrain_lr", &mut self.pretrain_lr, Some(0.05), Plain);
        v.field("pretrain_momentum", &mut self.pretrain_momentum, Some(0.9), Plain);
        v.field("pretrain_seed", &mut self.pretrain_seed, Some(0), Plain);
        v.field("batch_size", &mut self.batch_size, Some(16), Plain);
        v.field("seed", &mut self.seed, Some(0), Plain);
        v.field("gamma", &mut self.gamma, Some(0.5), Plain);
        v.field("searcher", &mut self.searcher, Some(SearcherKind::Hedge), Searcher);
        v.field("ladder", &mut self.ladder, None, LADDER);
        v.field("probe_rounds", &mut self.probe_rounds, Some(0), Plain);
        v.field("probe_val_batches", &mut self.probe_val_batches, Some(0), Plain);
        v.field("lambda", &mut self.lambda, Some(None), OrWord("default"));
        v.field("recovery", &mut self.recovery, None, Recovery);
        v.field("guard", &mut self.guard, Some(GuardPolicy::default()), Guard);
        v.field("lr", &mut self.lr, Some(0.02), Plain);
        v.field("max_steps", &mut self.max_steps, Some(500), Plain);
        v.field("target_compression", &mut self.target_compression, Some(None), OrWord("none"));
    }

    /// Renders the spec in the canonical key order. `parse(render(s))`
    /// reproduces `s` exactly.
    pub fn render(&self) -> String {
        let mut out = format!("{HEADER}\n");
        // The field list takes `&mut` so the parser can fill it; render
        // walks a copy.
        self.clone().fields(&mut Render(&mut out));
        out
    }

    /// Parses a spec file rendered by [`JobSpec::render`] (or written by
    /// hand in the same `key = value` format).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Spec`] naming the offending line for a bad
    /// header, an unknown or duplicate key, a malformed value, or a
    /// missing required key.
    pub fn parse(text: &str) -> Result<JobSpec> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == HEADER => {}
            other => {
                return Err(ServeError::Spec(format!(
                    "expected header \"{HEADER}\", found {other:?}"
                )))
            }
        }
        let mut p = Parse {
            lines: Vec::new(),
            err: None,
        };
        for (i, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let n = i + 2;
            let Some((k, v)) = line.split_once('=') else {
                return Err(ServeError::Spec(format!(
                    "line {n}: expected \"key = value\", found {line:?}"
                )));
            };
            let k = k.trim();
            if p.lines.iter().any(|l| l.key == k) {
                return Err(ServeError::Spec(format!("line {n}: duplicate key {k:?}")));
            }
            p.lines.push(Line {
                key: k.to_string(),
                value: v.trim().to_string(),
                n,
                taken: false,
            });
        }
        // Any complete spec will do as the blank: the field list
        // overwrites every field, from its line or from its default.
        let mut spec = JobSpec::demo("", 0);
        spec.fields(&mut p);
        if let Some(e) = p.err {
            return Err(e);
        }
        if let Some(l) = p.lines.iter().find(|l| !l.taken) {
            return Err(ServeError::Spec(format!(
                "line {}: unknown key {:?}",
                l.n, l.key
            )));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the cross-field invariants a worker relies on.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Spec`] on an inconsistent spec.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: String| Err(ServeError::Spec(msg));
        let name_char = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
        if self.name.is_empty() || !self.name.chars().all(name_char) {
            return bad(format!(
                "name {:?} must be non-empty [A-Za-z0-9_-]",
                self.name
            ));
        }
        if self.mlp_dims.len() < 2 {
            return bad("model needs at least input and output dims".into());
        }
        if self.mlp_dims[0] != self.data.dim {
            return bad(format!(
                "model input dim {} != data dim {}",
                self.mlp_dims[0], self.data.dim
            ));
        }
        if *self.mlp_dims.last().unwrap_or(&0) != self.data.classes {
            return bad(format!(
                "model output dim {} != data classes {}",
                self.mlp_dims.last().unwrap_or(&0),
                self.data.classes
            ));
        }
        let total = self
            .data
            .classes
            .saturating_mul(self.data.samples_per_class);
        if self.split == 0 || self.split >= total {
            return bad(format!(
                "split {} must be in 1..{total} (total samples)",
                self.split
            ));
        }
        if self.batch_size == 0 {
            return bad("batch_size must be >= 1".into());
        }
        if self.ladder.is_empty() {
            return bad("ladder must have at least one rung".into());
        }
        Ok(())
    }

    /// The [`CcqConfig`] this job runs under. The caller sets
    /// `autosave` to the job's spool path before building an engine.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Spec`] for a ladder the quantizer rejects.
    pub fn to_config(&self) -> Result<CcqConfig> {
        let ladder =
            BitLadder::new(&self.ladder).map_err(|e| ServeError::Spec(format!("ladder: {e}")))?;
        Ok(CcqConfig {
            ladder,
            gamma: self.gamma,
            searcher: self.searcher,
            probe_rounds: self.probe_rounds,
            probe_val_batches: self.probe_val_batches,
            lambda: match self.lambda {
                Some(l) => LambdaSchedule::constant(l),
                None => LambdaSchedule::default(),
            },
            recovery: self.recovery,
            lr: self.lr,
            max_steps: self.max_steps,
            target_compression: self.target_compression,
            batch_size: self.batch_size,
            seed: self.seed,
            guard: self.guard,
            ..CcqConfig::default()
        })
    }

    /// Builds the job's network at its init weights (pre-training is the
    /// worker's job — resume paths skip it).
    pub fn build_net(&self) -> Network {
        mlp(&self.mlp_dims, self.policy, self.model_seed)
    }

    /// Materializes the train/validation batches, deterministically.
    pub fn build_batches(&self) -> (Vec<Batch>, Vec<Batch>) {
        let (train, val) = gaussian_blobs(&self.data).split_at(self.split);
        (
            train.batches(self.batch_size),
            val.batches(self.batch_size.max(32)),
        )
    }
}

/// One side of the spec's field list: [`Render`] writes `key = value`
/// lines, [`Parse`] fills a spec from them.
trait Visitor {
    /// Visits one key; `default` is what an absent key means, `None`
    /// for a required key.
    fn field<T>(&mut self, key: &str, value: &mut T, default: Option<T>, codec: impl Codec<T>);
}

/// How one value is spelled after `key = `.
trait Codec<T> {
    fn render(&self, x: &T, out: &mut String);
    /// Reads `s` back; the error says what `s` should have been.
    fn parse(&self, s: &str) -> Parsed<T>;
}

type Parsed<T> = std::result::Result<T, String>;

struct Render<'a>(&'a mut String);

impl Visitor for Render<'_> {
    fn field<T>(&mut self, key: &str, value: &mut T, _: Option<T>, codec: impl Codec<T>) {
        self.0.push_str(key);
        self.0.push_str(" = ");
        codec.render(value, self.0);
        self.0.push('\n');
    }
}

/// One `key = value` line of a spec being parsed.
struct Line {
    key: String,
    value: String,
    /// 1-based line number, for diagnostics.
    n: usize,
    /// Whether a field consumed it; leftovers are unknown keys.
    taken: bool,
}

struct Parse {
    lines: Vec<Line>,
    /// The first failure; later fields are skipped.
    err: Option<ServeError>,
}

impl Visitor for Parse {
    fn field<T>(&mut self, key: &str, value: &mut T, default: Option<T>, codec: impl Codec<T>) {
        if self.err.is_some() {
            return;
        }
        let parsed = match (self.lines.iter_mut().find(|l| l.key == key), default) {
            (Some(l), _) => {
                l.taken = true;
                let at = |why| format!("line {}: {key} = {}: {why}", l.n, l.value);
                codec.parse(&l.value).map_err(at)
            }
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("missing required key {key:?}")),
        };
        match parsed {
            Ok(v) => *value = v,
            Err(e) => self.err = Some(ServeError::Spec(e)),
        }
    }
}

/// A `Display`/`FromStr` value as itself.
struct Plain;

impl<T: FromStr + fmt::Display> Codec<T> for Plain {
    fn render(&self, x: &T, out: &mut String) {
        let _ = write!(out, "{x}");
    }
    fn parse(&self, s: &str) -> Parsed<T> {
        s.parse().map_err(|_| "not a valid value".to_string())
    }
}

/// An optional number whose absence is spelled as a word.
struct OrWord(&'static str);

impl<T: FromStr + fmt::Display> Codec<Option<T>> for OrWord {
    fn render(&self, x: &Option<T>, out: &mut String) {
        match x {
            Some(x) => Plain.render(x, out),
            None => out.push_str(self.0),
        }
    }
    fn parse(&self, s: &str) -> Parsed<Option<T>> {
        if s == self.0 {
            return Ok(None);
        }
        let want = || format!("expected a number or {:?}", self.0);
        s.parse().map(Some).map_err(|_| want())
    }
}

/// A list of numbers behind a prefix, e.g. `mlp:8x16x4`.
struct List {
    prefix: &'static str,
    sep: char,
}

const MLP: List = List {
    prefix: "mlp:",
    sep: 'x',
};
const LADDER: List = List {
    prefix: "",
    sep: ',',
};

impl<T: FromStr + fmt::Display> Codec<Vec<T>> for List {
    fn render(&self, xs: &Vec<T>, out: &mut String) {
        out.push_str(self.prefix);
        for (i, x) in xs.iter().enumerate() {
            if i > 0 {
                out.push(self.sep);
            }
            let _ = write!(out, "{x}");
        }
    }
    fn parse(&self, s: &str) -> Parsed<Vec<T>> {
        let want = || format!("expected {}<n>{}<n>{}…", self.prefix, self.sep, self.sep);
        let items = s.strip_prefix(self.prefix).ok_or_else(want)?;
        items
            .split(self.sep)
            .map(|x| x.trim().parse().map_err(|_| want()))
            .collect()
    }
}

/// The Gaussian-blobs shape, `blobs:<classes>x<dim>x<per_class>`. The
/// recipe's std and seed are keys of their own, visited right after, so
/// the parsed shape leaves them zero.
struct Blobs;

const BLOBS: List = List {
    prefix: "blobs:",
    sep: 'x',
};

impl Codec<BlobsConfig> for Blobs {
    fn render(&self, d: &BlobsConfig, out: &mut String) {
        BLOBS.render(&vec![d.classes, d.dim, d.samples_per_class], out);
    }
    fn parse(&self, s: &str) -> Parsed<BlobsConfig> {
        let dims: Vec<usize> = BLOBS.parse(s)?;
        let [classes, dim, samples_per_class] = dims[..] else {
            return Err("expected blobs:<classes>x<dim>x<per_class>".into());
        };
        Ok(BlobsConfig {
            classes,
            dim,
            samples_per_class,
            std: 0.0,
            seed: 0,
        })
    }
}

struct Policy;

fn policy_word(p: PolicyKind) -> &'static str {
    match p {
        PolicyKind::Dorefa => "dorefa",
        PolicyKind::Wrpn => "wrpn",
        PolicyKind::Pact => "pact",
        PolicyKind::Sawb => "sawb",
        PolicyKind::UniformAffine => "uniform_affine",
        PolicyKind::MaxAbs => "maxabs",
        PolicyKind::Aciq => "aciq",
        PolicyKind::Lsq => "lsq",
    }
}

impl Codec<PolicyKind> for Policy {
    fn render(&self, p: &PolicyKind, out: &mut String) {
        out.push_str(policy_word(*p));
    }
    fn parse(&self, s: &str) -> Parsed<PolicyKind> {
        PolicyKind::ALL
            .into_iter()
            .find(|p| policy_word(*p) == s)
            .ok_or_else(|| format!("unknown policy {s:?}"))
    }
}

struct Searcher;

impl Codec<SearcherKind> for Searcher {
    fn render(&self, k: &SearcherKind, out: &mut String) {
        out.push_str(k.as_str());
    }
    fn parse(&self, s: &str) -> Parsed<SearcherKind> {
        SearcherKind::parse(s).map_err(|e| e.to_string())
    }
}

struct Recovery;

impl Codec<RecoveryMode> for Recovery {
    fn render(&self, r: &RecoveryMode, out: &mut String) {
        let _ = match r {
            RecoveryMode::Manual { epochs } => write!(out, "manual:{epochs}"),
            RecoveryMode::Adaptive {
                tolerance,
                max_epochs,
            } => write!(out, "adaptive:{tolerance}:{max_epochs}"),
        };
    }
    fn parse(&self, s: &str) -> Parsed<RecoveryMode> {
        let bad = || "expected manual:<epochs> or adaptive:<tolerance>:<max_epochs>".to_string();
        let parts: Vec<&str> = s.split(':').collect();
        Ok(match parts.as_slice() {
            ["manual", e] => RecoveryMode::Manual {
                epochs: e.parse().map_err(|_| bad())?,
            },
            ["adaptive", t, m] => RecoveryMode::Adaptive {
                tolerance: t.parse().map_err(|_| bad())?,
                max_epochs: m.parse().map_err(|_| bad())?,
            },
            _ => return Err(bad()),
        })
    }
}

struct Guard;

impl Codec<GuardPolicy> for Guard {
    fn render(&self, g: &GuardPolicy, out: &mut String) {
        let _ = match g {
            GuardPolicy::Off => write!(out, "off"),
            GuardPolicy::RollbackRetry {
                max_retries,
                lr_factor,
            } => write!(out, "rollback:{max_retries}:{lr_factor}"),
            GuardPolicy::Quarantine { max_retries } => write!(out, "quarantine:{max_retries}"),
        };
    }
    fn parse(&self, s: &str) -> Parsed<GuardPolicy> {
        let bad =
            || "expected off, rollback:<retries>:<lr_factor>, or quarantine:<retries>".to_string();
        let parts: Vec<&str> = s.split(':').collect();
        Ok(match parts.as_slice() {
            ["off"] => GuardPolicy::Off,
            ["rollback", r, f] => GuardPolicy::RollbackRetry {
                max_retries: r.parse().map_err(|_| bad())?,
                lr_factor: f.parse().map_err(|_| bad())?,
            },
            ["quarantine", r] => GuardPolicy::Quarantine {
                max_retries: r.parse().map_err(|_| bad())?,
            },
            _ => return Err(bad()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The demo specs, plus one that takes the other arm of every
    /// optional or multi-form key.
    fn specs() -> Vec<(&'static str, JobSpec)> {
        let mut alt = JobSpec::demo("alt", 2);
        alt.searcher = SearcherKind::ReleqRl;
        alt.lambda = None;
        alt.recovery = RecoveryMode::Adaptive {
            tolerance: 0.005,
            max_epochs: 4,
        };
        alt.guard = GuardPolicy::RollbackRetry {
            max_retries: 3,
            lr_factor: 0.5,
        };
        alt.target_compression = Some(10.0);
        vec![
            ("demo_spec_0.txt", JobSpec::demo("demo-0", 0)),
            ("demo_spec_1.txt", JobSpec::demo("demo-1", 1)),
            ("alt_spec.txt", alt),
        ]
    }

    /// Each spec renders the bytes blessed under `tests/golden/` (set
    /// `CCQ_BLESS` to re-bless after an intentional format change), so a
    /// renamed, reordered or reformatted key fails here; and parsing
    /// those bytes gives the spec back.
    #[test]
    fn render_writes_the_blessed_bytes_and_parse_inverts_it() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        for (file, spec) in specs() {
            let text = spec.render();
            if std::env::var("CCQ_BLESS").is_ok() {
                std::fs::write(dir.join(file), &text).expect("bless golden");
            }
            let want = std::fs::read_to_string(dir.join(file)).expect("golden file");
            assert_eq!(text, want, "{file} drifted from the golden");
            let back = JobSpec::parse(&text).expect("canonical render parses");
            assert_eq!(back, spec);
            assert_eq!(back.render(), text, "render is a fixed point");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        let spec = JobSpec::demo("ok", 0);
        let text = spec.render();
        assert!(JobSpec::parse("not a header\n").is_err());
        assert!(JobSpec::parse(&text.replace("policy = pact", "policy = magic")).is_err());
        assert!(JobSpec::parse(&format!("{text}bogus_key = 1\n")).is_err());
        assert!(
            JobSpec::parse(&format!("{text}name = twice\n")).is_err(),
            "duplicate key"
        );
        assert!(
            JobSpec::parse(&text.replace("model = mlp:8x16x16x4", "model = mlp:9x16x16x4"))
                .is_err(),
            "input dim must match data dim"
        );
        assert!(JobSpec::parse(&text.replace("ladder = 8,4", "ladder = ")).is_err());
        assert!(JobSpec::parse(&text.replace("split = 192", "split = 0")).is_err());
    }

    #[test]
    fn defaults_fill_optional_keys() {
        let minimal = "ccq-job v1\nname = tiny\nmodel = mlp:8x4\npolicy = pact\n\
                       data = blobs:4x8x32\nladder = 8,4\nrecovery = manual:1\n";
        let spec = JobSpec::parse(minimal).expect("minimal spec");
        assert_eq!(spec.split, 96, "3/4 of 128 samples");
        assert_eq!(spec.guard, GuardPolicy::default());
        assert_eq!(spec.searcher, SearcherKind::Hedge, "missing key -> hedge");
        assert!(spec.lambda.is_none());
        assert!(spec.target_compression.is_none());
        let cfg = spec.to_config().expect("config");
        cfg.validate().expect("valid ccq config");
    }

    #[test]
    fn searcher_key_round_trips_every_kind() {
        for (word, kind) in [
            ("hedge", SearcherKind::Hedge),
            ("zero-bit", SearcherKind::ZeroBit),
            ("releq", SearcherKind::ReleqRl),
            ("one-shot", SearcherKind::OneShot),
        ] {
            let mut spec = JobSpec::demo("s", 0);
            spec.searcher = kind;
            let text = spec.render();
            assert!(text.contains(&format!("searcher = {word}\n")));
            let back = JobSpec::parse(&text).expect("searcher spec parses");
            assert_eq!(back.searcher, kind);
            assert_eq!(back.to_config().expect("config").searcher, kind);
        }
        let bad = JobSpec::demo("s", 0)
            .render()
            .replace("searcher = hedge", "searcher = oracle");
        let err = JobSpec::parse(&bad).expect_err("unknown searcher rejected");
        assert!(err.to_string().contains("oracle"), "{err}");
    }

    #[test]
    fn unknown_key_error_names_the_line() {
        // Fixture with the stray key pinned mid-file: header is line 1,
        // so `mystery_knob` below sits on line 5.
        let fixture = "ccq-job v1\n\
                       name = tiny\n\
                       model = mlp:8x4\n\
                       policy = pact\n\
                       mystery_knob = 7\n\
                       data = blobs:4x8x32\n\
                       ladder = 8,4\n\
                       recovery = manual:1\n";
        let err = JobSpec::parse(fixture).expect_err("unknown key rejected");
        let msg = err.to_string();
        assert!(
            msg.contains("line 5: unknown key \"mystery_knob\""),
            "diagnostic must cite the source line: {msg}"
        );
    }

    #[test]
    fn demo_specs_differ_across_variants() {
        let a = JobSpec::demo("a", 0);
        let b = JobSpec::demo("b", 1);
        assert_ne!(a.ladder, b.ladder);
        assert_ne!(a.seed, b.seed);
    }
}
