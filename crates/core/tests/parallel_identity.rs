//! Serial/parallel bit-identity for the competition stage: a full
//! competition run — every probe record, the Hedge weights, the blended
//! distribution, and the drawn winner — must be byte-for-byte identical at
//! any thread count. The round-robin regime evaluates a round's probes on
//! worker clones, then replays the π updates in slot order, so nothing
//! about the outcome may depend on scheduling.

use ccq::{Competition, ExpertGranularity, LambdaSchedule, ProbeRegime};
use ccq_data::{gaussian_blobs, BlobsConfig};
use ccq_models::mlp;
use ccq_nn::train::Batch;
use ccq_nn::Network;
use ccq_quant::{BitLadder, PolicyKind};
use ccq_tensor::par::with_threads;
use ccq_tensor::rng;

fn setup() -> (Network, Vec<Batch>) {
    let net = mlp(&[8, 16, 16, 4], PolicyKind::Pact, 3);
    let val = gaussian_blobs(&BlobsConfig::default()).batches(32);
    (net, val)
}

/// Runs `steps` competition steps on a fresh clone of the setup under a
/// fixed thread count and returns everything observable: probe records,
/// winners, final probabilities, and π.
fn run_competition(threads: usize, comp: Competition, steps: usize) -> (Vec<String>, Vec<f32>) {
    with_threads(threads, || {
        let (mut net, val) = setup();
        let mut comp = comp;
        let ladder = BitLadder::paper_default();
        let lambda = LambdaSchedule::constant(0.2);
        let mut r = rng(17);
        let mut trace = Vec::new();
        for step in 0..steps {
            let out = comp
                .run(
                    &mut net,
                    &ladder,
                    None,
                    &lambda,
                    step,
                    &val,
                    &mut r,
                    &[],
                    None,
                )
                .expect("competition runs");
            match out {
                Some(o) => {
                    for p in &o.probes {
                        trace.push(format!(
                            "{}:{}:{:?}:{:08x}",
                            p.round,
                            p.layer,
                            p.kind,
                            p.val_loss.to_bits()
                        ));
                    }
                    trace.push(format!(
                        "winner {}:{:?} {:?}->{:?} p={:?}",
                        o.winner,
                        o.winner_kind,
                        o.from_bits,
                        o.to_bits,
                        o.probabilities
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>()
                    ));
                }
                None => trace.push("done".into()),
            }
        }
        (trace, comp.expert_weights().to_vec())
    })
}

#[test]
fn round_robin_probes_are_thread_invariant() {
    let comp = Competition::new(0.5, 3);
    let (trace1, pi1) = run_competition(1, comp.clone(), 3);
    for threads in [2usize, 4, 8] {
        let (trace, pi) = run_competition(threads, comp.clone(), 3);
        assert_eq!(trace1, trace, "probe trace differs at {threads} threads");
        assert_eq!(
            pi1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            pi.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "Hedge weights differ at {threads} threads"
        );
    }
}

#[test]
fn split_granularity_probes_are_thread_invariant() {
    let comp = Competition::new(0.8, 2).granularity(ExpertGranularity::WeightAct);
    let (trace1, pi1) = run_competition(1, comp.clone(), 2);
    for threads in [2usize, 4, 8] {
        let (trace, pi) = run_competition(threads, comp.clone(), 2);
        assert_eq!(trace1, trace, "probe trace differs at {threads} threads");
        assert_eq!(pi1, pi, "Hedge weights differ at {threads} threads");
    }
}

#[test]
fn sampled_regime_is_thread_invariant() {
    // The sampled regime stays sequential (each draw depends on the
    // previous update), but its probe evaluations still run the parallel
    // evaluate — results must not move.
    let comp = Competition::new(0.5, 5).regime(ProbeRegime::Sampled);
    let (trace1, pi1) = run_competition(1, comp.clone(), 2);
    for threads in [2usize, 4] {
        let (trace, pi) = run_competition(threads, comp.clone(), 2);
        assert_eq!(trace1, trace, "probe trace differs at {threads} threads");
        assert_eq!(pi1, pi, "Hedge weights differ at {threads} threads");
    }
}
