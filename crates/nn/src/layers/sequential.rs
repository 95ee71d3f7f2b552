//! Sequential layer composition.

use crate::layer::{Layer, Mode, PackedExec, QuantHandle, StateTag};
use crate::{Param, Result};
use ccq_tensor::Tensor;

/// Runs child layers in order; backward runs them in reverse.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    name: String,
}

impl Sequential {
    /// Creates a sequential container.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential {
            layers,
            name: "sequential".into(),
        }
    }

    /// Creates a named sequential container.
    pub fn named(name: impl Into<String>, layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential {
            layers,
            name: name.into(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of direct children.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no children.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the forward pass starting at child `start` (clamped to the
    /// child count), feeding `x` as that child's input.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_from(&mut self, start: usize, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut cur = x.clone();
        for layer in self.layers.iter_mut().skip(start) {
            cur = layer.forward(&cur, mode)?;
        }
        Ok(cur)
    }

    /// Runs the forward pass, calling `record(i, out)` with child `i`'s
    /// output as soon as it is produced.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_recording(
        &mut self,
        x: &Tensor,
        mode: Mode,
        record: &mut dyn FnMut(usize, &Tensor),
    ) -> Result<Tensor> {
        let mut cur = x.clone();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            cur = layer.forward(&cur, mode)?;
            record(i, &cur);
        }
        Ok(cur)
    }

    /// Clones the children `[start, len())` into a new container
    /// (clamped to the child count).
    pub fn clone_tail(&self, start: usize) -> Sequential {
        Sequential {
            layers: self.layers.iter().skip(start).cloned().collect(),
            name: self.name.clone(),
        }
    }

    /// Number of quantizable layers inside each child, in order.
    pub fn child_quant_counts(&mut self) -> Vec<usize> {
        self.layers
            .iter_mut()
            .map(|layer| {
                let mut n = 0;
                layer.visit_quant(&mut |_| n += 1);
                n
            })
            .collect()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("name", &self.name)
            .field("layers", &names)
            .finish()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, mode)?;
        }
        Ok(cur)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur)?;
        }
        Ok(cur)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(QuantHandle<'_>)) {
        for layer in &mut self.layers {
            layer.visit_quant(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(StateTag, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_state(f);
        }
    }

    fn forward_packed(&mut self, x: &Tensor, exec: PackedExec) -> Result<Tensor> {
        let mut layers = self.layers.iter_mut();
        let mut cur = match layers.next() {
            Some(first) => first.forward_packed(x, exec)?,
            None => return Ok(x.clone()),
        };
        for layer in layers {
            cur = layer.forward_packed_owned(cur, exec)?;
        }
        Ok(cur)
    }

    /// Hands `x` to the first layer too, which frees its buffer as soon
    /// as that layer has run.
    fn forward_packed_owned(&mut self, x: Tensor, exec: PackedExec) -> Result<Tensor> {
        let mut cur = x;
        for layer in &mut self.layers {
            cur = layer.forward_packed_owned(cur, exec)?;
        }
        Ok(cur)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Relu;

    #[test]
    fn empty_sequential_is_identity() {
        let mut s = Sequential::new(vec![]);
        let x = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        assert_eq!(s.forward(&x, Mode::Eval).unwrap(), x);
        assert!(s.is_empty());
    }

    #[test]
    fn chains_layers_in_order() {
        let mut s = Sequential::new(vec![Box::new(Relu::new()), Box::new(Relu::new())]);
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        let y = s.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0]);
        let dx = s.backward(&Tensor::ones(&[2])).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 1.0]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn debug_lists_children() {
        let s = Sequential::named("body", vec![Box::new(Relu::new())]);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("body") && dbg.contains("relu"));
    }
}
