//! The searcher idiom as `crates/core/src/searcher.rs` actually writes
//! it: slot-indexed `Vec` state (no hash containers), logical step
//! counters instead of wall-clock budgets, typed errors instead of
//! unwraps, and tie-breaks by explicit slot order so the same spec
//! always makes the same decision.

pub struct SearchError(pub String);

pub struct MiniSearcher {
    /// Policy mass per expert slot, dense and slot-indexed.
    weights: Vec<f32>,
    /// Probe rounds taken so far — the only "clock" a searcher sees.
    rounds: u64,
}

impl MiniSearcher {
    pub fn new(slots: usize) -> Self {
        MiniSearcher {
            weights: vec![1.0; slots],
            rounds: 0,
        }
    }

    pub fn restore(&mut self, weights: Vec<f32>, expected_slots: usize) -> Result<(), SearchError> {
        if weights.len() != expected_slots {
            return Err(SearchError(format!(
                "saved state has {} slots, expected {expected_slots}",
                weights.len()
            )));
        }
        self.weights = weights;
        Ok(())
    }

    pub fn pick(&mut self) -> Option<usize> {
        self.rounds += 1;
        // Deterministic argmax: strict inequality keeps the lowest slot
        // on ties, independent of container iteration order.
        let mut best: Option<(usize, f32)> = None;
        for (slot, &w) in self.weights.iter().enumerate() {
            if best.is_none_or(|(_, bw)| w > bw) {
                best = Some((slot, w));
            }
        }
        best.map(|(slot, _)| slot)
    }

    #[cfg(feature = "fault-inject")]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}
