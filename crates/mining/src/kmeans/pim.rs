//! `LB_PIM-ED` assistance for the k-means assign step.
//!
//! The dataset's floor vectors stay programmed on the crossbars across all
//! iterations (no re-programming — Section V-C's endurance constraint);
//! each iteration the *centers* are the queries: one dot-product batch per
//! center yields `LB_PIM-ED(pᵢ, c)` for every point at `3·b` bits of host
//! traffic per pair, shrinking the assign step's transfer from `N·k·d·b`
//! to `N·k·3·b` (Section VI-D).
//!
//! Every algorithm consults [`PimAssist::lb_dist`] immediately before an
//! exact ED it is about to compute; a bound at or above the current
//! threshold skips the computation losslessly.

use simpim_core::{CoreError, PimExecutor};
use simpim_simkit::OpCounters;

use crate::report::RunReport;

/// Per-iteration PIM lower bounds for all (point, center) pairs.
pub struct PimAssist<'a> {
    executor: &'a mut PimExecutor,
    /// `lb_sq[c * n + i]` — lower bound on the **squared** distance.
    lb_sq: Vec<f64>,
    n: usize,
}

impl<'a> PimAssist<'a> {
    /// Wraps a prepared executor (`prepare_euclidean` over the clustering
    /// dataset).
    pub fn new(executor: &'a mut PimExecutor) -> Self {
        Self {
            executor,
            lb_sq: Vec::new(),
            n: 0,
        }
    }

    /// Recomputes the bound matrix for the current centers: one PIM batch
    /// per center. PIM latency lands in `report.pim`; the host-side `G`
    /// combination is charged per batch.
    pub fn refresh(
        &mut self,
        centers: &[Vec<f64>],
        report: &mut RunReport,
    ) -> Result<(), CoreError> {
        self.lb_sq.clear();
        let mut g_counters = OpCounters::new();
        for center in centers {
            // Centers are convex combinations of normalized points, hence
            // themselves in [0, 1]^d; clamp defensively against rounding.
            let clamped: Vec<f64> = center.iter().map(|&v| v.clamp(0.0, 1.0)).collect();
            let batch = self.executor.lb_ed_batch(&clamped)?;
            report.pim.add(&batch.timing);
            self.n = batch.values.len();
            batch.charge_g(&mut g_counters);
            self.lb_sq.extend_from_slice(&batch.values);
        }
        report
            .profile
            .record(&format!("G({})", self.executor.bound_name()), g_counters);
        Ok(())
    }

    /// Lower bound on the **squared** distance between point `i` and the
    /// `c`-th center of the last refresh.
    #[inline]
    pub fn lb_sq(&self, i: usize, c: usize) -> f64 {
        debug_assert!(i < self.n, "refresh() before querying bounds");
        self.lb_sq[c * self.n + i]
    }

    /// Lower bound on the plain Euclidean distance (monotone square root).
    #[inline]
    pub fn lb_dist(&self, i: usize, c: usize) -> f64 {
        self.lb_sq(i, c).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Architecture;
    use simpim_core::executor::ExecutorConfig;
    use simpim_datasets::{generate, SyntheticConfig};
    use simpim_reram::{CrossbarConfig, PimConfig};
    use simpim_similarity::measures::euclidean_sq;
    use simpim_similarity::NormalizedDataset;

    #[test]
    fn bounds_hold_for_all_pairs() {
        let ds = generate(&SyntheticConfig {
            n: 60,
            d: 16,
            clusters: 3,
            cluster_std: 0.05,
            stat_uniformity: 0.0,
            seed: 9,
        });
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let cfg = ExecutorConfig {
            pim: PimConfig {
                crossbar: CrossbarConfig {
                    size: 32,
                    adc_bits: 11,
                    ..Default::default()
                },
                num_crossbars: 50_000,
                ..Default::default()
            },
            alpha: 1e6,
            operand_bits: 32,
            double_buffer: false,
            parallel_regions: true,
            faults: None,
            scrub_interval: 0,
        };
        let mut exec = PimExecutor::prepare_euclidean(cfg, &nds).unwrap();
        let mut assist = PimAssist::new(&mut exec);
        let centers = vec![vec![0.3; 16], vec![0.7; 16], vec![0.5; 16]];
        let mut report = RunReport::new(Architecture::ReRamPim);
        assist.refresh(&centers, &mut report).unwrap();
        for (c, center) in centers.iter().enumerate() {
            for i in 0..60 {
                let exact = euclidean_sq(ds.row(i), center);
                assert!(assist.lb_sq(i, c) <= exact + 1e-9, "i={i} c={c}");
                assert!(assist.lb_dist(i, c) <= exact.sqrt() + 1e-9);
            }
        }
        assert!(report.pim.total_ns() > 0.0);
        assert!(report.profile.get("G(LB_PIM-ED)").is_some());
    }
}
