//! Batched training and evaluation helpers.

use crate::cache::ActivationCache;
use crate::loss::{accuracy, cross_entropy};
use crate::{Mode, Network, Result, Sgd};
use ccq_tensor::{par, Rng64, Tensor};
use rand::seq::SliceRandom;

/// Minimum batches *per worker* before [`evaluate`] dispatches batches
/// to cloned networks: below this, the clone + thread hand-off overhead
/// outweighs the work (small validation sets were measurably *slower*
/// parallel than serial).
const PAR_MIN_BATCHES_PER_WORKER: usize = 4;

/// One minibatch: stacked inputs plus class labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Stacked inputs; first dimension is the batch.
    pub images: Tensor,
    /// Class index per sample.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Creates a batch, validating that the label count matches the batch
    /// dimension.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::InvalidConfig`] on a count mismatch.
    pub fn new(images: Tensor, labels: Vec<usize>) -> Result<Self> {
        if images.rank() == 0 || images.shape()[0] != labels.len() {
            return Err(crate::NnError::InvalidConfig(format!(
                "batch of {:?} images with {} labels",
                images.shape(),
                labels.len()
            )));
        }
        Ok(Batch { images, labels })
    }

    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Aggregate metrics over a dataset split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f32,
}

/// Evaluates the network in [`Mode::Eval`] over a set of batches.
///
/// This is the "cheap feed-forward on a small validation set" that CCQ's
/// competition stage runs for every probe.
///
/// Batches are split into contiguous chunks evaluated concurrently on
/// cloned network states; per-batch metrics are then reduced in batch
/// order with one serial `f64` chain, so the result is bit-identical to
/// the serial path at any thread count.
///
/// # Errors
///
/// Propagates layer errors.
pub fn evaluate(net: &mut Network, batches: &[Batch]) -> Result<EvalResult> {
    let per_batch = eval_batches(net, batches)?;
    Ok(reduce_metrics(&per_batch, batches))
}

/// Incremental evaluation: re-runs the network only from top-level
/// `segment` on, feeding each batch's cached boundary activation from
/// `cache` instead of running the upstream segments at all. Per-batch
/// metrics go through the exact same reduction as [`evaluate`], so for
/// a valid cache the result is **bit-identical** to a full evaluation —
/// this is what turns a competition probe from a full forward into a
/// partial one.
///
/// `segment` is a segment index of the network the cache was filled
/// from; `segment_base` is the index of `net`'s first segment within
/// that network (0 when `net` *is* the original, the tail offset when
/// `net` is a [`Network::clone_tail`] probe worker).
///
/// # Errors
///
/// [`crate::NnError::StaleCache`] when the network mutated since the
/// cache was filled, [`crate::NnError::InvalidConfig`] when the batch
/// set or segment indices don't match the cache geometry (including an
/// upstream quant-spec change on the full network), and layer errors
/// from the partial forwards.
pub fn evaluate_from(
    net: &mut Network,
    segment: usize,
    segment_base: usize,
    cache: &ActivationCache,
    batches: &[Batch],
) -> Result<EvalResult> {
    cache.check_current(net, batches)?;
    if segment < segment_base || segment > cache.segments() {
        return Err(crate::NnError::InvalidConfig(format!(
            "evaluate_from segment {segment} outside [{segment_base}, {}]",
            cache.segments()
        )));
    }
    if segment_base == 0 {
        cache.validate_prefix(net, segment)?;
    }
    let mut per_batch = Vec::with_capacity(batches.len());
    for (b, batch) in batches.iter().enumerate() {
        let logits = if segment == 0 {
            net.forward(&batch.images, Mode::Eval)?
        } else {
            net.forward_from(segment - segment_base, cache.input(segment, b))?
        };
        let (loss, _) = cross_entropy(&logits, &batch.labels)?;
        per_batch.push((loss, accuracy(&logits, &batch.labels)));
    }
    Ok(reduce_metrics(&per_batch, batches))
}

/// Per-batch `(mean loss, accuracy)` for one minibatch.
fn eval_batch(net: &mut Network, batch: &Batch) -> Result<(f32, f32)> {
    let logits = net.forward(&batch.images, Mode::Eval)?;
    let (loss, _) = cross_entropy(&logits, &batch.labels)?;
    Ok((loss, accuracy(&logits, &batch.labels)))
}

fn eval_batches_serial(net: &mut Network, batches: &[Batch]) -> Result<Vec<(f32, f32)>> {
    batches.iter().map(|b| eval_batch(net, b)).collect()
}

/// Splits the batches over worker clones, keeping chunk 0 on the original
/// network (so its MAC counters warm up exactly as in a serial run) and
/// flattening per-chunk results in batch order.
fn eval_batches(net: &mut Network, batches: &[Batch]) -> Result<Vec<(f32, f32)>> {
    let threads = par::num_threads();
    if threads <= 1 || batches.len() < PAR_MIN_BATCHES_PER_WORKER * threads {
        return eval_batches_serial(net, batches);
    }
    let chunks = batches.chunks(batches.len().div_ceil(threads));
    let mut clones: Vec<Network> = (1..chunks.len()).map(|_| net.clone()).collect();
    let pieces: Vec<_> = std::iter::once(net)
        .chain(clones.iter_mut())
        .zip(chunks)
        .collect();
    let mut per_batch = Vec::with_capacity(batches.len());
    for r in par::map_pieces(pieces, |_, (net, chunk)| eval_batches_serial(net, chunk)) {
        per_batch.extend(r?);
    }
    Ok(per_batch)
}

/// The seed's exact reduction: weighted `f64` sums accumulated in batch
/// order, divided once at the end.
fn reduce_metrics(per_batch: &[(f32, f32)], batches: &[Batch]) -> EvalResult {
    let mut total_loss = 0.0f64;
    let mut total_correct = 0.0f64;
    let mut total = 0usize;
    for ((loss, acc), batch) in per_batch.iter().zip(batches) {
        total_loss += f64::from(*loss) * batch.len() as f64;
        total_correct += f64::from(*acc) * batch.len() as f64;
        total += batch.len();
    }
    if total == 0 {
        return EvalResult {
            loss: 0.0,
            accuracy: 0.0,
        };
    }
    EvalResult {
        loss: (total_loss / total as f64) as f32,
        accuracy: (total_correct / total as f64) as f32,
    }
}

/// Runs one epoch of SGD over shuffled batches; returns the mean training
/// loss.
///
/// # Errors
///
/// Propagates layer errors.
pub fn train_epoch(
    net: &mut Network,
    batches: &[Batch],
    opt: &mut Sgd,
    rng: &mut Rng64,
) -> Result<f32> {
    let mut order: Vec<usize> = (0..batches.len()).collect();
    order.shuffle(rng);
    let mut total_loss = 0.0f64;
    let mut total = 0usize;
    for &i in &order {
        let batch = &batches[i];
        let logits = net.forward(&batch.images, Mode::Train)?;
        let (loss, grad) = cross_entropy(&logits, &batch.labels)?;
        net.backward(&grad)?;
        opt.step(net);
        total_loss += f64::from(loss) * batch.len() as f64;
        total += batch.len();
    }
    if total == 0 {
        return Ok(0.0);
    }
    Ok((total_loss / total as f64) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{QLinear, Relu, Sequential};
    use ccq_quant::{PolicyKind, QuantSpec};
    use ccq_tensor::{rng, Init};

    /// Two linearly separable 2-D blobs.
    fn blob_batches(n_batches: usize, seed: u64) -> Vec<Batch> {
        let mut r = rng(seed);
        (0..n_batches)
            .map(|_| {
                let mut data = Vec::new();
                let mut labels = Vec::new();
                for i in 0..16 {
                    let label = i % 2;
                    let center = if label == 0 { -1.0 } else { 1.0 };
                    let noise = Init::Normal {
                        mean: 0.0,
                        std: 0.3,
                    }
                    .sample(&[2], &mut r);
                    data.push(center + noise.as_slice()[0]);
                    data.push(center + noise.as_slice()[1]);
                    labels.push(label);
                }
                Batch::new(Tensor::from_vec(data, &[16, 2]).unwrap(), labels).unwrap()
            })
            .collect()
    }

    fn mlp(seed: u64) -> Network {
        let mut r = rng(seed);
        let spec = QuantSpec::full_precision(PolicyKind::MaxAbs);
        Network::new(Sequential::new(vec![
            Box::new(QLinear::new("fc1", 2, 8, spec, &mut r)),
            Box::new(Relu::new()),
            Box::new(QLinear::new("fc2", 8, 2, spec, &mut r)),
        ]))
    }

    #[test]
    fn batch_validates_label_count() {
        assert!(Batch::new(Tensor::zeros(&[2, 3]), vec![0]).is_err());
        assert!(Batch::new(Tensor::zeros(&[2, 3]), vec![0, 1]).is_ok());
    }

    #[test]
    fn training_learns_separable_blobs() {
        let mut net = mlp(3);
        let train = blob_batches(8, 10);
        let val = blob_batches(2, 99);
        let before = evaluate(&mut net, &val).unwrap();
        let mut opt = Sgd::new(0.1).momentum(0.9);
        let mut r = rng(7);
        for _ in 0..20 {
            let _ = train_epoch(&mut net, &train, &mut opt, &mut r).unwrap();
        }
        let after = evaluate(&mut net, &val).unwrap();
        assert!(
            after.accuracy > 0.9,
            "expected >90% on separable blobs, got {} (before {})",
            after.accuracy,
            before.accuracy
        );
        assert!(after.loss < before.loss);
    }

    #[test]
    fn evaluate_on_empty_is_zero() {
        let mut net = mlp(0);
        let r = evaluate(&mut net, &[]).unwrap();
        assert_eq!(r.loss, 0.0);
        assert_eq!(r.accuracy, 0.0);
    }

    #[test]
    fn train_epoch_returns_finite_loss() {
        let mut net = mlp(1);
        let batches = blob_batches(2, 5);
        let mut opt = Sgd::new(0.05);
        let mut r = rng(2);
        let loss = train_epoch(&mut net, &batches, &mut opt, &mut r).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
    }
}
