//! The systematic framework of Section III-B: given profiling results for
//! an algorithm, decide whether PIM offloading is worthwhile.
//!
//! The recipe: profile the algorithm by function (Section IV-B), check the
//! bottleneck function is PIM-aware (Section V-A), estimate the oracle gain
//! `T_PIM-oracle = T_total − Σ_{f ∈ F} T_f` (Eq. 2), and offload only when
//! the potential speedup justifies it — the paper's Elkan-PIM result shows
//! a case where it barely does (bound updates, not ED, dominate Elkan).

use simpim_similarity::Measure;

use crate::decompose::is_pim_aware;

/// Eq. 2: the theoretical optimum when every offloadable function costs
/// zero. A lower bound on any PIM implementation's runtime.
pub fn pim_oracle_ns(total_ns: f64, offloadable_ns: f64) -> f64 {
    (total_ns - offloadable_ns).max(0.0)
}

/// The framework's verdict for one algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadDecision {
    /// Whether offloading is recommended.
    pub offload: bool,
    /// `T_total / T_PIM-oracle` — the ceiling on achievable speedup.
    pub oracle_speedup: f64,
    /// Fraction of total time spent in offloadable functions.
    pub bottleneck_fraction: f64,
}

/// Applies the Section III-B decision: the bottleneck function must be
/// PIM-aware, and the oracle speedup must reach `min_speedup`.
///
/// # Panics
/// Panics when `offloadable_ns > total_ns` (inconsistent profile).
pub fn decide(
    measure: Measure,
    total_ns: f64,
    offloadable_ns: f64,
    min_speedup: f64,
) -> OffloadDecision {
    assert!(
        offloadable_ns <= total_ns + 1e-9,
        "offloadable time cannot exceed total time"
    );
    let oracle = pim_oracle_ns(total_ns, offloadable_ns);
    let oracle_speedup = if oracle > 0.0 {
        total_ns / oracle
    } else {
        f64::INFINITY
    };
    let bottleneck_fraction = if total_ns > 0.0 {
        offloadable_ns / total_ns
    } else {
        0.0
    };
    OffloadDecision {
        offload: is_pim_aware(measure) && oracle_speedup >= min_speedup,
        oracle_speedup,
        bottleneck_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_residual_time() {
        assert_eq!(pim_oracle_ns(100.0, 80.0), 20.0);
        assert_eq!(pim_oracle_ns(100.0, 120.0), 0.0);
    }

    #[test]
    fn standard_knn_style_profile_offloads() {
        // Fig. 7: PIM-oracle 183.9× faster than No-PIM for Standard kNN.
        let d = decide(Measure::EuclideanSq, 183.9, 182.9, 2.0);
        assert!(d.offload);
        assert!(d.oracle_speedup > 100.0);
        assert!(d.bottleneck_fraction > 0.99);
    }

    #[test]
    fn elkan_style_profile_declines() {
        // Elkan: ED is not dominant (bound updates are), oracle ≈ 2.2×.
        // With a 3× bar the framework declines — "Elkan-PIM illustrates an
        // example that PIM might be not considered to be exploited".
        let d = decide(Measure::EuclideanSq, 100.0, 100.0 - 100.0 / 2.2, 3.0);
        assert!(!d.offload);
        assert!((d.oracle_speedup - 2.2).abs() < 0.01);
    }

    #[test]
    fn fully_offloadable_profile_is_infinite() {
        let d = decide(Measure::Cosine, 50.0, 50.0, 2.0);
        assert!(d.offload);
        assert!(d.oracle_speedup.is_infinite());
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn inconsistent_profile_panics() {
        decide(Measure::EuclideanSq, 10.0, 20.0, 1.0);
    }
}
