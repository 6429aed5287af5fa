//! Analog conductance variation (a beyond-the-paper robustness study).
//!
//! The paper assumes ideal cells; real ReRAM conductances deviate from
//! their programmed levels (device-to-device and cycle-to-cycle
//! variation, cf. the variation-tolerant tuning of \[19\]). This module
//! models **bounded multiplicative variation**: every cell's effective
//! level is `level · (1 + δ)` with `|δ| ≤ max_relative`, drawn
//! deterministically per cell from a seed, and the ADC rounds each analog
//! sum to the nearest integer.
//!
//! Because the deviation is bounded, the dot-product error is bounded too
//! ([`VariationModel::dot_error_bound`]), so a *guard-banded* PIM bound
//! stays provably correct: inflate the measured dot product by the
//! envelope before applying Theorem 1 (`lb_pim_ed_guarded` in
//! `simpim-core`). Accuracy is preserved; only pruning power is lost.
//!
//! Part of the unit-level test oracle ([`crate::crossbar`]), compiled only
//! under test: the noisy pipeline is checked against this envelope there.
#![cfg(test)]

/// Bounded multiplicative cell variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VariationModel {
    /// Maximum relative deviation of a cell's conductance (e.g. 0.05 for
    /// ±5%).
    max_relative: f64,
    /// Seed of the deterministic per-cell noise.
    seed: u64,
}

impl VariationModel {
    /// A new bounded-variation model.
    pub(crate) fn new(max_relative: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&max_relative),
            "relative variation must be in [0,1)"
        );
        Self { max_relative, seed }
    }

    /// Deterministic per-cell deviation `δ ∈ [−max_relative, +max_relative]`
    /// (splitmix64 of the cell coordinates).
    pub(crate) fn delta(&self, row: usize, col: usize) -> f64 {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + row as u64))
            .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(1 + col as u64));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (2.0 * unit - 1.0) * self.max_relative
    }

    /// Worst-case absolute error of a dot product whose true value is
    /// `dot_true`, including ADC rounding: each of the `cycles × slices`
    /// per-bitline sums rounds by ≤ ½ and is shifted by `2^shift`, which
    /// telescopes to at most `2^(total_bits)` — callers pass the
    /// precomputed `rounding` term from the pipeline geometry.
    pub(crate) fn dot_error_bound(&self, dot_true: u128, rounding: f64) -> f64 {
        self.max_relative * dot_true as f64 + rounding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_bounded_and_deterministic() {
        let v = VariationModel::new(0.05, 42);
        for row in 0..64 {
            for col in 0..64 {
                let d = v.delta(row, col);
                assert!(d.abs() <= 0.05, "delta {d} out of range");
                assert_eq!(d, v.delta(row, col), "must be deterministic");
            }
        }
        // Different seeds give different noise fields.
        let w = VariationModel::new(0.05, 43);
        assert_ne!(v.delta(3, 7), w.delta(3, 7));
    }

    #[test]
    fn deltas_are_roughly_centered() {
        let v = VariationModel::new(0.1, 7);
        let mean: f64 = (0..1000).map(|i| v.delta(i, i * 31)).sum::<f64>() / 1000.0;
        assert!(mean.abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn error_bound_scales_with_magnitude() {
        let v = VariationModel::new(0.05, 1);
        assert!(v.dot_error_bound(1000, 2.0) >= 50.0);
        assert!(v.dot_error_bound(0, 2.0) == 2.0);
    }

    #[test]
    #[should_panic(expected = "relative variation")]
    fn rejects_unbounded_variation() {
        VariationModel::new(1.5, 0);
    }
}
