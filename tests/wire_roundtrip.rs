//! The hand-rolled text records round-trip: for generated descent events
//! of every kind, probe-cache sidecars and job specs, reading what was
//! written gives back the original value. Floats compare bitwise, except
//! that a non-finite event float is written as `null` and reads back as
//! NaN. Labels and paths are drawn from characters a JSON writer must
//! escape.

use ccq::event::event_json;
use ccq::{
    parse_events, parse_probe_cache_stats, render_probe_cache_stats, DescentEvent, ExpertKind,
    GuardPolicy, Phase, ProbeCacheStats, ProbeRecord, RecoveryMode, SearcherKind, StepRecord,
};
use ccq_data::BlobsConfig;
use ccq_quant::{BitWidth, PolicyKind};
use ccq_serve::JobSpec;
use proptest::prelude::*;

/// A SplitMix64 stream that builds whole records from one seed. With
/// `read_back` set it yields what the event reader should return
/// instead: the same stream, with every non-finite float as NaN.
struct Gen {
    state: u64,
    read_back: bool,
}

impl Gen {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A count, small or up to 2^53 (JSON numbers are f64).
    fn n(&mut self) -> usize {
        let bits = self.pick(&[3, 17, 53]);
        (self.next() >> (64 - bits)) as usize
    }

    fn f64(&mut self) -> f64 {
        let x = match self.below(4) {
            0 => self.pick(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]),
            1 => self.below(1000) as f64 / 8.0,
            _ => f64::from_bits(self.next()),
        };
        if self.read_back && !x.is_finite() {
            f64::NAN
        } else {
            x
        }
    }

    fn f32(&mut self) -> f32 {
        let x = match self.below(4) {
            0 => self.pick(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0]),
            1 => self.below(1000) as f32 / 8.0,
            _ => f32::from_bits(self.next() as u32),
        };
        if self.read_back && !x.is_finite() {
            f32::NAN
        } else {
            x
        }
    }

    fn f32s(&mut self) -> Vec<f32> {
        (0..self.below(6)).map(|_| self.f32()).collect()
    }

    fn text(&mut self) -> String {
        let pool = "aZ0 ,:\"\\/\n\r\t\u{0}\u{1}\u{1f}\u{7f}é→\u{2028}😀{}[]";
        let pool: Vec<char> = pool.chars().collect();
        (0..self.below(12)).map(|_| self.pick(&pool)).collect()
    }

    fn bits(&mut self) -> BitWidth {
        BitWidth::new_allowing_zero(self.below(33) as u32).expect("0..=32 bits")
    }

    fn kind(&mut self) -> ExpertKind {
        self.pick(&[
            ExpertKind::Layer,
            ExpertKind::Weights,
            ExpertKind::Activations,
        ])
    }

    fn some<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        (self.below(2) == 0).then(|| f(self))
    }

    /// One event of every kind, one per line.
    #[rustfmt::skip]
    fn events(&mut self) -> Vec<DescentEvent> {
        use Phase::*;
        let phase = self.pick(&[InitQuantize, Compete, Quantize, Recover, Checkpoint, Done]);
        let probes = (0..self.below(4))
            .map(|_| ProbeRecord { round: self.n(), layer: self.n(), kind: self.kind(), val_loss: self.f32() })
            .collect();
        vec![
            DescentEvent::PhaseStarted { phase, step: self.n() },
            DescentEvent::Baseline { accuracy: self.f32(), lr: self.f32() },
            DescentEvent::InitQuantize { accuracy: self.f32(), lr: self.f32() },
            DescentEvent::ProbeRound { step: self.n(), round: self.n(), probes, pi: self.f32s() },
            DescentEvent::QuantizeDecision {
                step: self.n(), epoch: self.n(), layer: self.n(), kind: self.kind(),
                label: self.text(), from_bits: self.bits(), to_bits: self.bits(),
                probabilities: self.f32s(), valley_accuracy: self.f32(), lr: self.f32(),
                searcher: self.text(),
            },
            DescentEvent::RecoveryEpoch {
                step: self.n(), epoch: self.n(), train_loss: self.f32(), val_accuracy: self.f32(),
                lr: self.f32(),
            },
            DescentEvent::GuardRollback {
                step: self.n(), attempt: self.n(), discarded_trace_points: self.n(),
                quarantined_slot: self.some(Self::n),
            },
            DescentEvent::StepCompleted { record: StepRecord {
                step: self.n(), layer: self.n(), kind: self.kind(), label: self.text(),
                from_bits: self.bits(), to_bits: self.bits(), accuracy_before: self.f32(),
                accuracy_after_quant: self.f32(), accuracy_after_recovery: self.f32(),
                recovery_epochs: self.n(), compression: self.f64(), lambda: self.f32(),
            } },
            DescentEvent::Autosave { next_step: self.n(), path: self.text().into() },
            DescentEvent::Finished {
                baseline_accuracy: self.f32(), final_accuracy: self.f32(),
                final_compression: self.f64(), bit_pattern: self.text(),
            },
        ]
    }

    fn probe_cache(&mut self) -> ProbeCacheStats {
        let mut hist = || (self.n(), self.n() as u64);
        ProbeCacheStats {
            hits: hist().1,
            misses: hist().1,
            segments_run: hist().1,
            segments_total: hist().1,
            depth_hist: (0..4).map(|_| hist()).collect(),
        }
    }

    /// A spec that passes [`JobSpec::validate`]; every other field is
    /// arbitrary. Spec floats keep their non-finite values: `inf` and
    /// `NaN` are spelled as such.
    #[rustfmt::skip]
    fn spec(&mut self) -> JobSpec {
        let data = BlobsConfig {
            classes: 1 + self.below(50) as usize, dim: 1 + self.below(1000) as usize,
            samples_per_class: 2 + self.below(1000) as usize, std: self.f32(), seed: self.next(),
        };
        let mut mlp_dims = vec![data.dim];
        mlp_dims.extend((0..self.below(3)).map(|_| self.n()));
        mlp_dims.push(data.classes);
        let total = (data.classes * data.samples_per_class) as u64;
        JobSpec {
            name: (0..1 + self.below(12)).map(|_| self.pick(&['a', 'Z', '7', '-', '_'])).collect(),
            mlp_dims, policy: self.pick(&PolicyKind::ALL), model_seed: self.next(),
            split: 1 + self.below(total - 1) as usize, data,
            pretrain_epochs: self.n(), pretrain_lr: self.f32(), pretrain_momentum: self.f32(),
            pretrain_seed: self.next(), batch_size: 1 + self.n(), seed: self.next(),
            gamma: self.f32(),
            searcher: self.pick(&[SearcherKind::Hedge, SearcherKind::ZeroBit, SearcherKind::ReleqRl, SearcherKind::OneShot]),
            ladder: (0..1 + self.below(5)).map(|_| self.next() as u32).collect(),
            probe_rounds: self.n(), probe_val_batches: self.n(), lambda: self.some(Self::f32),
            recovery: match self.below(2) {
                0 => RecoveryMode::Manual { epochs: self.n() },
                _ => RecoveryMode::Adaptive { tolerance: self.f32(), max_epochs: self.n() },
            },
            guard: match self.below(3) {
                0 => GuardPolicy::Off,
                1 => GuardPolicy::RollbackRetry { max_retries: self.n(), lr_factor: self.f32() },
                _ => GuardPolicy::Quarantine { max_retries: self.n() },
            },
            lr: self.f32(), max_steps: self.n(), target_compression: self.some(Self::f64),
        }
    }
}

fn gen(seed: u64, read_back: bool) -> Gen {
    Gen {
        state: seed,
        read_back,
    }
}

/// Debug output distinguishes every finite float bit pattern (including
/// -0.0) and prints every NaN alike, which is exactly the equality the
/// formats promise.
fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn events_of_every_kind_read_back_as_written(seed in 0u64..u64::MAX) {
        let jsonl: String = gen(seed, false).events().iter().map(|e| event_json(e) + "\n").collect();
        let back = parse_events(&jsonl).map_err(|e| TestCaseError::fail(format!("{e}\n{jsonl}")))?;
        let want = gen(seed, true).events();
        prop_assert_eq!(back.len(), want.len());
        for (got, want) in back.iter().zip(&want) {
            prop_assert!(same(got, want), "{:?}\n!= {:?}", got, want);
        }
        let again: String = back.iter().map(|e| event_json(e) + "\n").collect();
        prop_assert_eq!(again, jsonl);
    }

    #[test]
    fn probe_cache_sidecars_read_back_as_written(seed in 0u64..u64::MAX) {
        let stats = gen(seed, false).probe_cache();
        let back = parse_probe_cache_stats(&render_probe_cache_stats(&stats));
        prop_assert_eq!(back, Ok(stats));
    }

    #[test]
    fn job_specs_read_back_as_written(seed in 0u64..u64::MAX) {
        let spec = gen(seed, false).spec();
        let text = spec.render();
        let back = JobSpec::parse(&text).map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        prop_assert!(same(&back, &spec), "{:?}\n!= {:?}", back, spec);
        prop_assert_eq!(back.render(), text);
    }
}
