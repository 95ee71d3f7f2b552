//! Per-MAC energy and iso-throughput network power.

use ccq_quant::BitWidth;

/// Calibration constants at 45 nm (Horowitz, ISSCC 2014), in picojoules.
const MULT8_PJ_45NM: f64 = 0.2;
const ADD8_PJ_45NM: f64 = 0.03;
const FP32_MULT_PJ_45NM: f64 = 3.7;
const FP32_ADD_PJ_45NM: f64 = 0.9;

/// Analytic MAC energy model for a given technology node.
///
/// Integer multiply energy scales with the operand-width product
/// (`b_w · b_a / 64` relative to the 8×8 calibration point); integer add
/// energy scales linearly with the accumulator width (`(b_w + b_a) / 16`
/// relative to the 8+8 point). Full-precision operands use the measured
/// fp32 multiply+add energy. Energy scales quadratically with feature size
/// between nodes (dominant dynamic-energy term `C·V²` with both capacitance
/// and voltage shrinking roughly linearly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacEnergyModel {
    node_nm: f64,
}

impl MacEnergyModel {
    /// The paper's 32 nm node.
    pub fn node_32nm() -> Self {
        MacEnergyModel { node_nm: 32.0 }
    }

    /// An arbitrary node (calibration point is 45 nm).
    ///
    /// # Panics
    ///
    /// Panics when `node_nm` is not positive.
    pub fn at_node(node_nm: f64) -> Self {
        assert!(node_nm > 0.0, "node size must be positive");
        MacEnergyModel { node_nm }
    }

    /// The technology node in nanometres.
    pub fn node_nm(&self) -> f64 {
        self.node_nm
    }

    fn node_factor(&self) -> f64 {
        (self.node_nm / 45.0).powi(2)
    }

    /// Energy of one multiply-accumulate in picojoules, for the given
    /// weight/activation operand widths. A 32-bit operand on either side
    /// selects the floating-point unit (the paper's "full precision").
    pub fn energy_pj(&self, weight_bits: BitWidth, act_bits: BitWidth) -> f64 {
        let f = self.node_factor();
        if weight_bits.is_full_precision() || act_bits.is_full_precision() {
            return f * (FP32_MULT_PJ_45NM + FP32_ADD_PJ_45NM);
        }
        let (bw, ba) = (f64::from(weight_bits.bits()), f64::from(act_bits.bits()));
        let mult = MULT8_PJ_45NM * (bw * ba) / 64.0;
        let add = ADD8_PJ_45NM * (bw + ba) / 16.0;
        f * (mult + add)
    }

    /// Power in milliwatts of a unit sustaining `macs_per_s` MACs at this
    /// energy point.
    pub fn power_mw(&self, weight_bits: BitWidth, act_bits: BitWidth, macs_per_s: f64) -> f64 {
        // pJ × 1/s = pW; 1e-9 converts pW → mW.
        self.energy_pj(weight_bits, act_bits) * macs_per_s * 1e-9
    }
}

impl Default for MacEnergyModel {
    fn default() -> Self {
        MacEnergyModel::node_32nm()
    }
}

/// Static description of one network layer for hardware analysis.
///
/// Build these from `ccq_nn::Network::quant_layer_info` (the umbrella crate
/// shows the one-line mapping) or by hand for paper-scale networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerProfile {
    /// Layer label.
    pub label: String,
    /// Number of weight scalars.
    pub weight_count: usize,
    /// Per-sample MAC count.
    pub macs: u64,
    /// Weight operand width.
    pub weight_bits: BitWidth,
    /// Activation operand width.
    pub act_bits: BitWidth,
}

/// Per-layer slice of a [`PowerReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPower {
    /// Layer label.
    pub label: String,
    /// Share of network MACs assigned to this layer.
    pub macs: u64,
    /// Power in milliwatts at the report's throughput.
    pub power_mw: f64,
}

/// Iso-throughput power breakdown of a network (the Fig. 5 quantity).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Per-layer power, in layer order.
    pub layers: Vec<LayerPower>,
    /// Total power in milliwatts.
    pub total_mw: f64,
    /// Power of the first and last layers combined.
    pub first_last_mw: f64,
    /// Power of every interior layer combined.
    pub middle_mw: f64,
}

/// Computes the iso-throughput power of a network: every layer's MACs are
/// executed at a rate that sustains `samples_per_s` inferences per second,
/// so `layer_rate = layer_macs × samples_per_s`.
///
/// This matches the paper's iso-throughput framing: a network with
/// expensive (full-precision) first/last layers pays their full per-MAC
/// energy at the same inference rate.
pub fn network_power(
    model: &MacEnergyModel,
    profiles: &[LayerProfile],
    samples_per_s: f64,
) -> PowerReport {
    let mut layers = Vec::with_capacity(profiles.len());
    let mut total = 0.0f64;
    for p in profiles {
        let rate = p.macs as f64 * samples_per_s;
        let mw = model.power_mw(p.weight_bits, p.act_bits, rate);
        total += mw;
        layers.push(LayerPower {
            label: p.label.clone(),
            macs: p.macs,
            power_mw: mw,
        });
    }
    let first_last = match layers.len() {
        0 => 0.0,
        1 => layers[0].power_mw,
        n => layers[0].power_mw + layers[n - 1].power_mw,
    };
    PowerReport {
        total_mw: total,
        first_last_mw: first_last,
        middle_mw: total - first_last,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(label: &str, macs: u64, wb: u32, ab: u32) -> LayerProfile {
        LayerProfile {
            label: label.into(),
            weight_count: 100,
            macs,
            weight_bits: if wb == 32 {
                BitWidth::FP32
            } else {
                BitWidth::of(wb)
            },
            act_bits: if ab == 32 {
                BitWidth::FP32
            } else {
                BitWidth::of(ab)
            },
        }
    }

    #[test]
    fn fp32_mac_matches_calibration() {
        let m = MacEnergyModel::at_node(45.0);
        let e = m.energy_pj(BitWidth::FP32, BitWidth::FP32);
        assert!((e - 4.6).abs() < 1e-9);
    }

    #[test]
    fn int8_mac_matches_calibration() {
        let m = MacEnergyModel::at_node(45.0);
        let e = m.energy_pj(BitWidth::of(8), BitWidth::of(8));
        assert!((e - 0.23).abs() < 1e-9, "0.2 mult + 0.03 add, got {e}");
    }

    #[test]
    fn node_scaling_is_quadratic() {
        let e45 = MacEnergyModel::at_node(45.0).energy_pj(BitWidth::of(8), BitWidth::of(8));
        let e32 = MacEnergyModel::node_32nm().energy_pj(BitWidth::of(8), BitWidth::of(8));
        let ratio = e32 / e45;
        assert!((ratio - (32.0f64 / 45.0).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn energy_is_monotone_in_bits() {
        let m = MacEnergyModel::node_32nm();
        let mut last = 0.0;
        for bits in [1u32, 2, 3, 4, 6, 8, 16] {
            let e = m.energy_pj(BitWidth::of(bits), BitWidth::of(bits));
            assert!(e > last, "bits={bits}");
            last = e;
        }
        assert!(m.energy_pj(BitWidth::FP32, BitWidth::FP32) > last);
    }

    #[test]
    fn mixed_fp_operand_uses_fp_unit() {
        let m = MacEnergyModel::node_32nm();
        assert_eq!(
            m.energy_pj(BitWidth::FP32, BitWidth::of(4)),
            m.energy_pj(BitWidth::FP32, BitWidth::FP32)
        );
    }

    #[test]
    fn fp_vs_2bit_gap_is_order_of_magnitude() {
        // The paper reports 4–56× power gaps for fp first/last layers.
        let m = MacEnergyModel::node_32nm();
        let gap = m.energy_pj(BitWidth::FP32, BitWidth::FP32)
            / m.energy_pj(BitWidth::of(2), BitWidth::of(2));
        assert!(gap > 50.0, "fp/2-bit energy gap was only {gap:.1}×");
    }

    #[test]
    fn network_power_splits_first_last() {
        let m = MacEnergyModel::node_32nm();
        let profiles = vec![
            profile("first", 1000, 32, 32),
            profile("mid", 100_000, 2, 2),
            profile("last", 1000, 32, 32),
        ];
        let report = network_power(&m, &profiles, 1e6);
        assert_eq!(report.layers.len(), 3);
        assert!((report.first_last_mw + report.middle_mw - report.total_mw).abs() < 1e-9);
        // Even with 100× fewer MACs, fp first/last out-consume the middle —
        // the paper's headline observation.
        assert!(report.first_last_mw > report.middle_mw / 2.0);
    }

    #[test]
    fn power_scales_linearly_with_throughput() {
        let m = MacEnergyModel::node_32nm();
        let profiles = vec![profile("l", 5000, 4, 4)];
        let p1 = network_power(&m, &profiles, 1e6).total_mw;
        let p2 = network_power(&m, &profiles, 2e6).total_mw;
        assert!((p2 / p1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_network_has_zero_power() {
        let report = network_power(&MacEnergyModel::node_32nm(), &[], 1e6);
        assert_eq!(report.total_mw, 0.0);
        assert_eq!(report.first_last_mw, 0.0);
    }
}
