//! Competitive-Collaborative Quantization (CCQ).
//!
//! Reproduction of *"Learning to Quantize Deep Neural Networks: A
//! Competitive-Collaborative Approach"* (Khan, Kamani, Mahdavi, Narayanan —
//! DAC 2020). CCQ is an accuracy-driven, policy-agnostic framework that
//! learns a **mixed-precision** bit assignment for every layer of a network
//! by alternating two stages:
//!
//! 1. **[`Competition`]** — every layer is an expert in an online-learning
//!    (Hedge) game. Probes hypothetically lower one layer's precision a
//!    rung on the [`ccq_quant::BitLadder`] and measure validation loss; the
//!    multiplicative-weights distribution then picks the layer that hurts
//!    accuracy least (blended with a size-proportional term, Eq. 7 — see
//!    [`LambdaSchedule`]). Layers at the bottom rung become *sleeping
//!    experts*.
//! 2. **[`Collaboration`]** — the whole network fine-tunes with
//!    quantization-aware training until accuracy recovers, either for a
//!    fixed budget ([`RecoveryMode::Manual`]) or until a threshold
//!    ([`RecoveryMode::Adaptive`]), optionally with the paper's hybrid
//!    plateau/cosine-restart learning rate.
//!
//! [`CcqRunner`] orchestrates the full loop and records the learning curve
//! (Fig. 2), the quantization schedule, and the compression trajectory.
//! The [`baselines`] module implements the paper's comparison points:
//! one-shot quantization (Table I) and a HAWQ-style Hessian-trace proxy
//! (Table II).
//!
//! # Example
//!
//! ```no_run
//! use ccq::{CcqConfig, CcqRunner, NullSink};
//! use ccq_data::{synth_cifar, Augment, SynthCifarConfig};
//! use ccq_models::{resnet20, ModelConfig};
//!
//! let data = synth_cifar(&SynthCifarConfig::default());
//! let (train, val) = data.split_at(512);
//! let mut net = resnet20(&ModelConfig::default());
//! let mut runner = CcqRunner::new(CcqConfig::default());
//! let batch = runner.config().batch_size;
//! let mut provider = |r: &mut _| train.augmented_batches(batch, &Augment::standard(), r);
//! let report = runner.run(&mut net, &mut provider, &val.batches(batch), &mut NullSink)?;
//! println!("compression {:.1}x at {:.1}% accuracy",
//!          report.final_compression, 100.0 * report.final_accuracy);
//! # Ok::<(), ccq::CcqError>(())
//! ```

pub mod baselines;
mod clock;
mod competition;
mod engine;
mod error;
pub mod event;
pub mod fault;
mod guard;
mod lambda;
mod metrics;
mod profiles;
mod recovery;
mod replay;
mod run_state;
mod runner;
mod searcher;
mod wire;

pub use clock::{Clock, ManualClock, WallClock};
pub use competition::{
    Competition, CompetitionOutcome, ExpertGranularity, ExpertKind, ProbeCacheStats, ProbeObserver,
    ProbeRecord, ProbeRegime,
};
pub use engine::{DescentEngine, DriveOutcome, Phase, RunControl, StartPoint, StepOutcome};
pub use error::CcqError;
pub use event::{
    CsvSink, DescentEvent, EventSink, FanoutSink, JsonlSink, NullSink, StepRecord, TraceBuffer,
    TraceEvent, TracePoint,
};
pub use fault::FaultPlan;
pub use guard::GuardPolicy;
pub use lambda::LambdaSchedule;
pub use metrics::{
    Histogram, MetricsRegistry, MetricsSink, DROP_BUCKETS, EPOCH_BUCKETS, LOSS_BUCKETS,
    SEGMENT_SKIP_BUCKETS, XI_BUCKETS,
};
pub use profiles::layer_profiles;
pub use recovery::{Collaboration, EpochHook, RecoveryMode, RecoveryRecord};
pub use replay::{
    parse_event_line, parse_events, parse_events_lenient, parse_probe_cache_stats,
    render_probe_cache_stats, render_run_summary, render_searcher_summary, LenientParse,
    ReplayError, TruncatedTail,
};
pub use run_state::RunState;
pub use runner::{CcqConfig, CcqReport, CcqRunner};
pub use searcher::{
    HedgeSearcher, OneShotSearcher, ReleqSearcher, Searcher, SearcherKind, SearcherState,
    ZeroBitSearcher,
};

/// Crate-wide result alias. See [`CcqError`] for the error cases.
pub type Result<T> = std::result::Result<T, CcqError>;
