//! Bit-width and bit-ladder types.

use crate::{QuantError, Result};
use std::fmt;

/// A weight/activation bit precision in `1..=32`.
///
/// `BitWidth::FP32` (32 bits) conventionally means *no quantization*: every
/// quantizer in this crate treats 32-bit operands as full precision and
/// passes them through unchanged.
///
/// # Example
///
/// ```
/// use ccq_quant::BitWidth;
///
/// let b = BitWidth::new(4)?;
/// assert_eq!(b.bits(), 4);
/// assert_eq!(b.levels(), 16);
/// assert!(!b.is_full_precision());
/// assert!(BitWidth::FP32.is_full_precision());
/// # Ok::<(), ccq_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitWidth(u8);

impl BitWidth {
    /// Full precision (32-bit float, not quantized).
    pub const FP32: BitWidth = BitWidth(32);
    /// Eight bits — the customary starting rung of the CCQ ladder.
    pub const B8: BitWidth = BitWidth(8);
    /// Two bits — the customary bottom rung.
    pub const B2: BitWidth = BitWidth(2);
    /// Zero bits: the layer is *pruned*. Weights and activations read as
    /// zero, gradients are masked, and the layer contributes no bits to
    /// the model size — the Bayesian-Bits view that channel pruning is
    /// just the rung below the lowest quantized precision.
    pub const ZERO: BitWidth = BitWidth(0);

    /// Creates a bit width.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBitWidth`] outside `1..=32`. The 0-bit
    /// pruning rung is deliberately excluded here so ordinary ladders and
    /// parsers keep rejecting it; use [`BitWidth::new_allowing_zero`] on
    /// paths that opt into the pruning regime.
    pub fn new(bits: u32) -> Result<Self> {
        if (1..=32).contains(&bits) {
            Ok(BitWidth(bits as u8))
        } else {
            Err(QuantError::InvalidBitWidth(bits))
        }
    }

    /// Creates a bit width, additionally accepting the 0-bit pruning rung.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBitWidth`] outside `0..=32`.
    pub fn new_allowing_zero(bits: u32) -> Result<Self> {
        if bits <= 32 {
            Ok(BitWidth(bits as u8))
        } else {
            Err(QuantError::InvalidBitWidth(bits))
        }
    }

    /// Creates a bit width, panicking when out of range.
    ///
    /// # Panics
    ///
    /// Panics outside `1..=32`. Prefer [`BitWidth::new`] in user-facing code.
    pub fn of(bits: u32) -> Self {
        // ccq-lint: allow(panic-surface) — documented panicking constructor; BitWidth::new is the fallible twin
        BitWidth::new(bits).expect("bit width in 1..=32")
    }

    /// The number of bits.
    pub fn bits(&self) -> u32 {
        u32::from(self.0)
    }

    /// Number of representable levels, saturating at `u32::MAX` for 32 bits.
    pub fn levels(&self) -> u32 {
        if self.0 >= 32 {
            u32::MAX
        } else {
            1u32 << self.0
        }
    }

    /// Whether this width means "leave values in full precision".
    pub fn is_full_precision(&self) -> bool {
        self.0 == 32
    }

    /// Whether this width is the 0-bit pruning rung.
    pub fn is_pruned(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for BitWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_full_precision() {
            write!(f, "fp")
        } else {
            write!(f, "{}b", self.0)
        }
    }
}

/// A strictly-descending ladder of bit precisions, e.g. `8 → 6 → 4 → 3 → 2`.
///
/// CCQ lowers one layer one *rung* at a time; the ladder defines the rungs
/// (`K` levels `N(0) > … > N(K-1)` in the paper's notation).
///
/// # Example
///
/// ```
/// use ccq_quant::{BitLadder, BitWidth};
///
/// let ladder = BitLadder::new(&[8, 6, 4, 3, 2])?;
/// assert_eq!(ladder.next_below(BitWidth::of(6)), Some(BitWidth::of(4)));
/// assert_eq!(ladder.next_below(BitWidth::of(2)), None); // bottom rung
/// # Ok::<(), ccq_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitLadder {
    rungs: Vec<BitWidth>,
}

impl BitLadder {
    /// Builds a ladder from a descending list of bit counts.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidLadder`] when the list is empty or not
    /// strictly descending, or [`QuantError::InvalidBitWidth`] for an
    /// out-of-range entry.
    pub fn new(bits: &[u32]) -> Result<Self> {
        if bits.is_empty() {
            return Err(QuantError::InvalidLadder("ladder must not be empty".into()));
        }
        let mut rungs = Vec::with_capacity(bits.len());
        for &b in bits {
            rungs.push(BitWidth::new(b)?);
        }
        if !rungs.windows(2).all(|w| w[0] > w[1]) {
            return Err(QuantError::InvalidLadder(format!(
                "rungs must be strictly descending, got {bits:?}"
            )));
        }
        Ok(BitLadder { rungs })
    }

    /// The paper's default ladder: 8 → 6 → 4 → 3 → 2.
    pub fn paper_default() -> Self {
        // ccq-lint: allow(panic-surface) — static strictly-descending literal always satisfies BitLadder::new
        BitLadder::new(&[8, 6, 4, 3, 2]).expect("static ladder is valid")
    }

    /// This ladder extended with the 0-bit pruning rung below its floor:
    /// `8 → 4 → 2` becomes `8 → 4 → 2 → 0b`, so a layer can compete its
    /// way past the lowest quantized precision into *pruned*. Idempotent
    /// when the ladder already ends at zero.
    pub fn with_zero_rung(&self) -> Self {
        let mut rungs = self.rungs.clone();
        if rungs.last() != Some(&BitWidth::ZERO) {
            rungs.push(BitWidth::ZERO);
        }
        BitLadder { rungs }
    }

    /// The rungs, highest precision first.
    pub fn rungs(&self) -> &[BitWidth] {
        &self.rungs
    }

    /// Number of rungs (`K` in the paper).
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Whether the ladder has no rungs (never true for a constructed ladder).
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// The top (highest-precision) rung, `N(0)`.
    pub fn top(&self) -> BitWidth {
        self.rungs[0]
    }

    /// The bottom (lowest-precision) rung, `N(K-1)`.
    pub fn floor(&self) -> BitWidth {
        // ccq-lint: allow(panic-surface) — BitLadder::new rejects empty rung lists
        *self.rungs.last().expect("ladder non-empty")
    }

    /// The rung index of a bit width, if it is on the ladder.
    pub fn level_of(&self, bits: BitWidth) -> Option<usize> {
        self.rungs.iter().position(|&r| r == bits)
    }

    /// The next rung below `bits`, or `None` when `bits` is the bottom rung
    /// (a *sleeping expert* in CCQ's competition).
    ///
    /// A width above the top rung (e.g. `fp`) descends to the top rung.
    pub fn next_below(&self, bits: BitWidth) -> Option<BitWidth> {
        if bits > self.top() {
            return Some(self.top());
        }
        match self.level_of(bits) {
            Some(i) if i + 1 < self.rungs.len() => Some(self.rungs[i + 1]),
            Some(_) => None,
            // Off-ladder width: descend to the first rung strictly below it.
            None => self.rungs.iter().copied().find(|&r| r < bits),
        }
    }
}

impl fmt::Display for BitLadder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.rungs.iter().map(|r| r.to_string()).collect();
        write!(f, "{}", parts.join("→"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_width_range_is_enforced() {
        assert!(BitWidth::new(0).is_err());
        assert!(BitWidth::new(33).is_err());
        assert!(BitWidth::new(1).is_ok());
        assert!(BitWidth::new(32).is_ok());
    }

    #[test]
    fn zero_bit_rung_is_opt_in() {
        assert_eq!(BitWidth::new_allowing_zero(0).unwrap(), BitWidth::ZERO);
        assert!(BitWidth::new_allowing_zero(33).is_err());
        assert!(BitWidth::ZERO.is_pruned());
        assert!(!BitWidth::B2.is_pruned());
        assert_eq!(BitWidth::ZERO.to_string(), "0b");
    }

    #[test]
    fn with_zero_rung_extends_below_the_floor() {
        let l = BitLadder::new(&[8, 4, 2]).unwrap().with_zero_rung();
        assert_eq!(l.floor(), BitWidth::ZERO);
        assert_eq!(l.next_below(BitWidth::of(2)), Some(BitWidth::ZERO));
        assert_eq!(l.next_below(BitWidth::ZERO), None);
        // Idempotent: applying it twice adds no second rung.
        assert_eq!(l.with_zero_rung().len(), l.len());
    }

    #[test]
    fn levels_and_fp() {
        assert_eq!(BitWidth::of(3).levels(), 8);
        assert_eq!(BitWidth::FP32.levels(), u32::MAX);
        assert!(BitWidth::FP32.is_full_precision());
        assert!(!BitWidth::B8.is_full_precision());
    }

    #[test]
    fn display_format() {
        assert_eq!(BitWidth::of(4).to_string(), "4b");
        assert_eq!(BitWidth::FP32.to_string(), "fp");
        assert_eq!(BitLadder::paper_default().to_string(), "8b→6b→4b→3b→2b");
    }

    #[test]
    fn ladder_requires_strict_descent() {
        assert!(BitLadder::new(&[8, 8, 4]).is_err());
        assert!(BitLadder::new(&[4, 8]).is_err());
        assert!(BitLadder::new(&[]).is_err());
        assert!(BitLadder::new(&[8, 4, 2]).is_ok());
    }

    #[test]
    fn next_below_walks_the_ladder() {
        let l = BitLadder::paper_default();
        assert_eq!(l.next_below(BitWidth::of(8)), Some(BitWidth::of(6)));
        assert_eq!(l.next_below(BitWidth::of(3)), Some(BitWidth::of(2)));
        assert_eq!(l.next_below(BitWidth::of(2)), None);
    }

    #[test]
    fn next_below_from_fp_enters_at_top() {
        let l = BitLadder::paper_default();
        assert_eq!(l.next_below(BitWidth::FP32), Some(BitWidth::of(8)));
    }

    #[test]
    fn next_below_off_ladder_descends() {
        let l = BitLadder::new(&[8, 4, 2]).unwrap();
        assert_eq!(l.next_below(BitWidth::of(6)), Some(BitWidth::of(4)));
        assert_eq!(l.next_below(BitWidth::of(1)), None);
    }

    #[test]
    fn level_of_top_and_floor() {
        let l = BitLadder::paper_default();
        assert_eq!(l.level_of(l.top()), Some(0));
        assert_eq!(l.level_of(l.floor()), Some(l.len() - 1));
        assert_eq!(l.level_of(BitWidth::of(7)), None);
    }

    #[test]
    fn ordering_follows_bits() {
        assert!(BitWidth::of(8) > BitWidth::of(2));
        assert!(BitWidth::FP32 > BitWidth::of(8));
    }
}
