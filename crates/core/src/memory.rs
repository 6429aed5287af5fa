//! PIM memory management (Section V-C, Theorem 4).
//!
//! The PIM array holds only `C` crossbars (2 GB by default) while datasets
//! are larger, and ReRAM's limited write endurance rules out re-programming
//! crossbars per batch. The paper's answer: compress each vector to the
//! **largest** dimensionality `s` whose crossbar cost fits the budget:
//!
//! ```text
//! maximize s   subject to   n_data ≤ C                (s ≤ m)
//!                           n_data + n_gather ≤ C     (s > m)
//! ```
//!
//! with `n_data`/`n_gather` as in `simpim-reram::gather` (Eq. 12).
//! Compression uses the segment statistics of Fig. 10, so `s` must divide
//! the original dimensionality for the segmented bounds to apply.

use crate::error::CoreError;
use simpim_reram::gather::dataset_crossbar_cost;
use simpim_reram::{CrossbarCost, PimConfig};

/// Outcome of Theorem 4's optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryPlan {
    /// Chosen compressed dimensionality `s` (per region).
    pub s: usize,
    /// `true` when `s = d` — the dataset fits uncompressed.
    pub uncompressed: bool,
    /// Crossbar cost of **one** region at dimensionality `s`.
    pub cost_per_region: CrossbarCost,
    /// Number of regions programmed per object (1 for `LB_PIM-ED` floors,
    /// 2 for `LB_PIM-FNN`'s µ/σ pair, 2 for HD's code/complement pair).
    pub regions: usize,
}

impl MemoryPlan {
    /// Total crossbars consumed by all regions.
    pub fn total_crossbars(&self) -> usize {
        self.cost_per_region.total() * self.regions
    }
}

/// Divisors of `d` in increasing order.
fn divisors(d: usize) -> Vec<usize> {
    let mut divs = Vec::new();
    let mut i = 1usize;
    while i * i <= d {
        if d.is_multiple_of(i) {
            divs.push(i);
            if i != d / i {
                divs.push(d / i);
            }
        }
        i += 1;
    }
    divs.sort_unstable();
    divs
}

/// Theorem 4: choose the maximum `s` (a divisor of `d`, so segment
/// compression is well-defined) such that `regions` programmed copies of an
/// `n × s` matrix with `operand_bits`-wide operands fit `cfg.num_crossbars`.
///
/// Returns [`CoreError::CannotFit`] when even `s = 1` exceeds the budget.
pub fn choose_dimensionality(
    n: usize,
    d: usize,
    regions: usize,
    operand_bits: u32,
    cfg: &PimConfig,
) -> Result<MemoryPlan, CoreError> {
    assert!(regions > 0, "at least one region required");
    let budget = cfg.num_crossbars;
    let mut best: Option<MemoryPlan> = None;
    for s in divisors(d) {
        let cost = dataset_crossbar_cost(n, s, operand_bits, &cfg.crossbar)?;
        if cost.total() * regions <= budget {
            best = Some(MemoryPlan {
                s,
                uncompressed: s == d,
                cost_per_region: cost,
                regions,
            });
        } else {
            // Costs are monotone in s: once a divisor overflows, all
            // larger ones do too.
            break;
        }
    }
    best.ok_or(CoreError::CannotFit {
        n,
        crossbars: budget,
    })
}

/// Which prepared-function shape a resident euclidean plan resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidentShapeChoice {
    /// The dataset fits uncompressed: `LB_PIM-ED` over one floors region.
    Uncompressed,
    /// Compressed with room for the µ/σ pair: `LB_PIM-FNN` (two regions).
    MuSigma,
    /// So tight even the pair at `s = 1` overflows: mean-only `LB_PIM-SM`.
    MeanOnly,
}

/// The executor's resident-euclidean plan dispatch, shared by
/// [`crate::executor::PimExecutor::begin_euclidean_resident`] and the
/// fleet placement planner so both always agree on the shape a
/// given `(capacity, d, budget)` resolves to: uncompressed `LB_PIM-ED`
/// when it fits, else the two-region `LB_PIM-FNN` pair, else mean-only
/// `LB_PIM-SM` on the single-region plan.
pub fn resident_plan(
    capacity: usize,
    d: usize,
    buffer_factor: usize,
    operand_bits: u32,
    cfg: &PimConfig,
) -> Result<(MemoryPlan, ResidentShapeChoice), CoreError> {
    let plan = choose_dimensionality(capacity, d, buffer_factor, operand_bits, cfg)?;
    if plan.uncompressed {
        return Ok((plan, ResidentShapeChoice::Uncompressed));
    }
    match choose_dimensionality(capacity, d, 2 * buffer_factor, operand_bits, cfg) {
        Ok(pair) => Ok((pair, ResidentShapeChoice::MuSigma)),
        Err(CoreError::CannotFit { .. }) => Ok((plan, ResidentShapeChoice::MeanOnly)),
        Err(e) => Err(e),
    }
}

/// Compresses a normalized vector to `s` dimensions by segment means
/// (Fig. 10's reduction, used when a plain floor-vector region must
/// shrink). `s` must divide `vector.len()`.
pub fn compress_by_segment_means(vector: &[f64], s: usize) -> Vec<f64> {
    assert!(s > 0 && vector.len().is_multiple_of(s), "s must divide d");
    let l = vector.len() / s;
    vector
        .chunks_exact(l)
        .map(|seg| seg.iter().sum::<f64>() / l as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_reram::CrossbarConfig;

    fn cfg(crossbars: usize) -> PimConfig {
        PimConfig {
            num_crossbars: crossbars,
            ..Default::default()
        }
    }

    #[test]
    fn full_dimensionality_when_budget_allows() {
        // 1000 × 420 × 20-bit on the default 131072-crossbar array: tiny.
        let plan = choose_dimensionality(1000, 420, 1, 20, &cfg(131_072)).unwrap();
        assert_eq!(plan.s, 420);
        assert!(plan.uncompressed);
    }

    #[test]
    fn compression_kicks_in_under_pressure() {
        // Shrink the budget until 420 dims no longer fit.
        let full = choose_dimensionality(100_000, 420, 1, 20, &cfg(131_072)).unwrap();
        assert_eq!(full.s, 420);
        let squeezed = choose_dimensionality(100_000, 420, 1, 20, &cfg(2_000)).unwrap();
        assert!(squeezed.s < 420);
        assert!(!squeezed.uncompressed);
        assert!(420 % squeezed.s == 0, "s must divide d");
        assert!(squeezed.total_crossbars() <= 2_000);
        // Maximality: the next larger divisor must overflow.
        let next = divisors(420).into_iter().find(|&x| x > squeezed.s).unwrap();
        let next_cost = dataset_crossbar_cost(100_000, next, 20, &cfg(2_000).crossbar).unwrap();
        assert!(next_cost.total() > 2_000);
    }

    #[test]
    fn regions_multiply_the_footprint() {
        let one = choose_dimensionality(100_000, 420, 1, 20, &cfg(3_000)).unwrap();
        let two = choose_dimensionality(100_000, 420, 2, 20, &cfg(3_000)).unwrap();
        assert!(two.s <= one.s);
        assert!(two.total_crossbars() <= 3_000);
        assert_eq!(two.regions, 2);
    }

    #[test]
    fn cannot_fit_is_reported() {
        let err = choose_dimensionality(10_000_000, 420, 2, 32, &cfg(1)).unwrap_err();
        assert!(matches!(err, CoreError::CannotFit { .. }));
    }

    #[test]
    fn paper_msd_setting_gives_s_105() {
        // MSD: N = 992 272, d = 420, 32-bit operands ("32-bit integers on
        // crossbars", Section VI-B), LB_PIM-FNN's µ/σ pair double-buffered
        // → 4 programmed copies on the 2 GB / 131 072-crossbar array.
        // Theorem 4 then reproduces the paper's reported s = 105 = d/4.
        let plan = choose_dimensionality(992_272, 420, 4, 32, &cfg(131_072)).unwrap();
        assert_eq!(plan.s, 105, "expected the paper's s = 105 for MSD");
    }

    #[test]
    fn paper_imagenet_setting_gives_s_50() {
        // ImageNet: N = 2 340 173, d = 150, same configuration → the
        // paper's reported s = 50 = d/3.
        let plan = choose_dimensionality(2_340_173, 150, 4, 32, &cfg(131_072)).unwrap();
        assert_eq!(plan.s, 50, "expected the paper's s = 50 for ImageNet");
    }

    #[test]
    fn divisors_are_sorted_and_complete() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(7), vec![1, 7]);
    }

    #[test]
    fn segment_mean_compression() {
        let v = [1.0, 3.0, 5.0, 7.0, 9.0, 11.0];
        assert_eq!(compress_by_segment_means(&v, 3), vec![2.0, 6.0, 10.0]);
        assert_eq!(compress_by_segment_means(&v, 6), v.to_vec());
        assert_eq!(compress_by_segment_means(&v, 1), vec![6.0]);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn compression_requires_divisibility() {
        compress_by_segment_means(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn non_default_crossbar_geometry() {
        let mut c = cfg(4_096);
        c.crossbar = CrossbarConfig {
            size: 128,
            ..Default::default()
        };
        let plan = choose_dimensionality(50_000, 960, 2, 20, &c).unwrap();
        assert!(plan.s >= 1);
        assert!(plan.total_crossbars() <= 4_096);
    }
}
