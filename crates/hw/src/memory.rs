//! Weight-memory access energy.
//!
//! Compute is only half of the paper's efficiency story: model compression
//! (Table II's column) matters because *fetching* weights costs energy —
//! far more than computing with them when they come from DRAM (Horowitz,
//! ISSCC 2014: a 32-bit DRAM access ≈ 640 pJ at 45 nm vs 3.7 pJ for an
//! fp32 multiply). This module prices one full weight fetch per inference
//! at the mixed-precision widths, from either DRAM or on-chip SRAM.

use crate::{LayerProfile, MacEnergyModel};

/// Where the weights live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// Off-chip DRAM (≈ 20 pJ/bit at the 45 nm calibration point).
    Dram,
    /// Large on-chip SRAM (≈ 0.16 pJ/bit — the 8 KB cache point scaled).
    Sram,
}

impl MemoryKind {
    /// Energy per bit fetched, in picojoules, at 45 nm.
    fn pj_per_bit_45nm(&self) -> f64 {
        match self {
            // 640 pJ / 32 bits.
            MemoryKind::Dram => 20.0,
            // 5 pJ / 32 bits (8 KB SRAM).
            MemoryKind::Sram => 0.15625,
        }
    }
}

/// Weight-fetch energy accounting for one inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchReport {
    /// Total weight bits fetched per inference.
    pub bits: u64,
    /// Fetch energy in nanojoules per inference.
    pub energy_nj: f64,
}

/// Prices one full fetch of every layer's weights at its current width.
///
/// DRAM energy scales only weakly with the node (I/O dominated), but for
/// simplicity the same quadratic node factor as the MAC model is applied —
/// the quantity of interest, the *ratio between precisions*, is
/// node-independent.
///
/// # Example
///
/// ```
/// use ccq_hw::{weight_fetch_energy, LayerProfile, MacEnergyModel, MemoryKind};
/// use ccq_quant::BitWidth;
///
/// let fp = vec![LayerProfile {
///     label: "l".into(), weight_count: 1000, macs: 0,
///     weight_bits: BitWidth::FP32, act_bits: BitWidth::FP32,
/// }];
/// let q4 = vec![LayerProfile { weight_bits: BitWidth::of(4), ..fp[0].clone() }];
/// let m = MacEnergyModel::node_32nm();
/// let r_fp = weight_fetch_energy(&m, &fp, MemoryKind::Dram);
/// let r_q4 = weight_fetch_energy(&m, &q4, MemoryKind::Dram);
/// assert!((r_fp.energy_nj / r_q4.energy_nj - 8.0).abs() < 1e-9);
/// ```
pub fn weight_fetch_energy(
    model: &MacEnergyModel,
    profiles: &[LayerProfile],
    memory: MemoryKind,
) -> FetchReport {
    let node_factor = (model.node_nm() / 45.0).powi(2);
    let mut bits = 0u64;
    for p in profiles {
        bits += p.weight_count as u64 * u64::from(p.weight_bits.bits());
    }
    let energy_pj = bits as f64 * memory.pj_per_bit_45nm() * node_factor;
    FetchReport {
        bits,
        energy_nj: energy_pj * 1e-3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_quant::BitWidth;

    fn profile(count: usize, bits: u32) -> LayerProfile {
        LayerProfile {
            label: "l".into(),
            weight_count: count,
            macs: 0,
            weight_bits: if bits == 32 {
                BitWidth::FP32
            } else {
                BitWidth::of(bits)
            },
            act_bits: BitWidth::of(8),
        }
    }

    #[test]
    fn fetch_energy_scales_with_bits() {
        let m = MacEnergyModel::node_32nm();
        let fp = weight_fetch_energy(&m, &[profile(1000, 32)], MemoryKind::Dram);
        let q4 = weight_fetch_energy(&m, &[profile(1000, 4)], MemoryKind::Dram);
        assert_eq!(fp.bits, 32_000);
        assert_eq!(q4.bits, 4_000);
        assert!((fp.energy_nj / q4.energy_nj - 8.0).abs() < 1e-9);
    }

    #[test]
    fn dram_is_orders_of_magnitude_above_sram() {
        let m = MacEnergyModel::node_32nm();
        let p = [profile(1000, 8)];
        let dram = weight_fetch_energy(&m, &p, MemoryKind::Dram);
        let sram = weight_fetch_energy(&m, &p, MemoryKind::Sram);
        assert!(dram.energy_nj / sram.energy_nj > 100.0);
    }

    #[test]
    fn dram_fetch_dwarfs_mac_energy() {
        // The architectural argument for compression: fetching an fp32
        // weight from DRAM costs >100x computing with it.
        let m = MacEnergyModel::at_node(45.0);
        let fetch_per_weight =
            weight_fetch_energy(&m, &[profile(1, 32)], MemoryKind::Dram).energy_nj * 1e3;
        let mac = m.energy_pj(BitWidth::FP32, BitWidth::FP32);
        assert!(
            fetch_per_weight / mac > 100.0,
            "{fetch_per_weight} vs {mac}"
        );
    }

    #[test]
    fn mixed_precision_sums_per_layer() {
        let m = MacEnergyModel::node_32nm();
        let r = weight_fetch_energy(&m, &[profile(100, 8), profile(100, 2)], MemoryKind::Sram);
        assert_eq!(r.bits, 1000);
    }

    #[test]
    fn empty_network_is_zero() {
        let r = weight_fetch_energy(&MacEnergyModel::node_32nm(), &[], MemoryKind::Dram);
        assert_eq!(r.bits, 0);
        assert_eq!(r.energy_nj, 0.0);
    }
}
