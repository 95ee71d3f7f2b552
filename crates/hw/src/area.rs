//! MAC area and per-inference energy estimates.
//!
//! Companion to the power model: the same operand-width scaling arguments
//! give silicon area (an array multiplier is `O(b_w · b_a)` full adders)
//! and energy-per-inference (energy/MAC × MACs). Calibrated to the same
//! 45 nm reference points and scaled quadratically with feature size.

use crate::{LayerProfile, MacEnergyModel};
use ccq_quant::BitWidth;

/// Area of an 8×8 integer MAC at 45 nm, in µm² (array multiplier plus
/// accumulator; representative synthesis figure).
const MAC8_UM2_45NM: f64 = 400.0;
/// Area of an fp32 fused MAC at 45 nm, in µm².
const FP32_MAC_UM2_45NM: f64 = 8000.0;

/// Silicon area of one MAC unit in µm² for the given operand widths at
/// the model's node. Integer multipliers scale with the width product;
/// the accumulator adds a linear term.
pub fn mac_area_um2(model: &MacEnergyModel, weight_bits: BitWidth, act_bits: BitWidth) -> f64 {
    let f = (model.node_nm() / 45.0).powi(2);
    if weight_bits.is_full_precision() || act_bits.is_full_precision() {
        return f * FP32_MAC_UM2_45NM;
    }
    let (bw, ba) = (f64::from(weight_bits.bits()), f64::from(act_bits.bits()));
    // 80% multiplier array (∝ bw·ba), 20% accumulator (∝ bw+ba).
    f * MAC8_UM2_45NM * (0.8 * (bw * ba) / 64.0 + 0.2 * (bw + ba) / 16.0)
}

/// Energy and area accounting for one inference of a network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceReport {
    /// Total MACs per inference.
    pub total_macs: u64,
    /// Energy per inference in nanojoules.
    pub energy_nj: f64,
    /// Area of one dedicated MAC per layer (spatial accelerator floor) in
    /// mm².
    pub mac_area_mm2: f64,
}

/// Computes per-inference energy and a one-MAC-per-layer area floor.
///
/// # Example
///
/// ```
/// use ccq_hw::{inference_report, LayerProfile, MacEnergyModel};
/// use ccq_quant::BitWidth;
///
/// let layers = vec![LayerProfile {
///     label: "conv".into(),
///     weight_count: 100,
///     macs: 1_000_000,
///     weight_bits: BitWidth::of(4),
///     act_bits: BitWidth::of(4),
/// }];
/// let r = inference_report(&MacEnergyModel::node_32nm(), &layers);
/// assert_eq!(r.total_macs, 1_000_000);
/// assert!(r.energy_nj > 0.0);
/// ```
pub fn inference_report(model: &MacEnergyModel, profiles: &[LayerProfile]) -> InferenceReport {
    let mut total_macs = 0u64;
    let mut energy_pj = 0.0f64;
    let mut area_um2 = 0.0f64;
    for p in profiles {
        total_macs += p.macs;
        energy_pj += model.energy_pj(p.weight_bits, p.act_bits) * p.macs as f64;
        area_um2 += mac_area_um2(model, p.weight_bits, p.act_bits);
    }
    InferenceReport {
        total_macs,
        energy_nj: energy_pj * 1e-3,
        mac_area_mm2: area_um2 * 1e-6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(macs: u64, bits: u32) -> LayerProfile {
        LayerProfile {
            label: "l".into(),
            weight_count: 10,
            macs,
            weight_bits: if bits == 32 {
                BitWidth::FP32
            } else {
                BitWidth::of(bits)
            },
            act_bits: if bits == 32 {
                BitWidth::FP32
            } else {
                BitWidth::of(bits)
            },
        }
    }

    #[test]
    fn area_is_monotone_in_bits() {
        let m = MacEnergyModel::node_32nm();
        let mut last = 0.0;
        for bits in [2u32, 4, 8, 16] {
            let a = mac_area_um2(&m, BitWidth::of(bits), BitWidth::of(bits));
            assert!(a > last, "bits={bits}");
            last = a;
        }
        assert!(mac_area_um2(&m, BitWidth::FP32, BitWidth::FP32) > last);
    }

    #[test]
    fn area_scales_quadratically_with_node() {
        let a45 = mac_area_um2(
            &MacEnergyModel::at_node(45.0),
            BitWidth::of(8),
            BitWidth::of(8),
        );
        let a16 = mac_area_um2(
            &MacEnergyModel::at_node(16.0),
            BitWidth::of(8),
            BitWidth::of(8),
        );
        let expected = (16.0f64 / 45.0).powi(2);
        assert!((a16 / a45 - expected).abs() < 1e-9);
    }

    #[test]
    fn eight_bit_mac_matches_calibration_point() {
        let a = mac_area_um2(
            &MacEnergyModel::at_node(45.0),
            BitWidth::of(8),
            BitWidth::of(8),
        );
        assert!((a - MAC8_UM2_45NM).abs() < 1e-9);
    }

    #[test]
    fn energy_per_inference_sums_layers() {
        let m = MacEnergyModel::node_32nm();
        let r = inference_report(&m, &[profile(1000, 4), profile(500, 8)]);
        assert_eq!(r.total_macs, 1500);
        let manual = (m.energy_pj(BitWidth::of(4), BitWidth::of(4)) * 1000.0
            + m.energy_pj(BitWidth::of(8), BitWidth::of(8)) * 500.0)
            * 1e-3;
        assert!((r.energy_nj - manual).abs() < 1e-12);
    }

    #[test]
    fn quantized_network_wins_on_both_axes() {
        let m = MacEnergyModel::node_32nm();
        let fp = inference_report(&m, &[profile(1_000_000, 32)]);
        let q4 = inference_report(&m, &[profile(1_000_000, 4)]);
        assert!(fp.energy_nj / q4.energy_nj > 20.0);
        assert!(fp.mac_area_mm2 / q4.mac_area_mm2 > 10.0);
    }

    #[test]
    fn empty_network_is_zero() {
        let r = inference_report(&MacEnergyModel::node_32nm(), &[]);
        assert_eq!(r.total_macs, 0);
        assert_eq!(r.energy_nj, 0.0);
    }
}
