//! Distance-based outlier detection — one of the similarity-based mining
//! tasks the paper's Section II-C targets ("distance-based outlier
//! detection, etc").
//!
//! Definition (Ramaswamy-style): the top-`m` objects by *outlier score*,
//! the squared distance to their `k`-th nearest neighbor. The classic
//! accelerated algorithm (ORCA) processes objects with a global cutoff
//! `c` — the `m`-th best score so far — and abandons an object as soon as
//! its running `k`-NN distance drops below `c`.
//!
//! The PIM variant adds `LB_PIM` filtering inside each object's neighbor
//! scan: candidates whose bound exceeds the object's current `k`-th
//! distance cannot shrink it and are skipped without an exact ED — the
//! same lossless filter-and-refinement as kNN, so results are identical
//! to the baseline.

use simpim_core::{CoreError, PimExecutor};
use simpim_similarity::{measures, Dataset};
use simpim_simkit::OpCounters;

use crate::knn::TopK;
use crate::report::{Architecture, RunReport};

/// Result of an outlier search: the top-`m` `(object, score)` pairs,
/// highest score first, plus instrumentation.
#[derive(Debug, Clone)]
pub struct OutlierResult {
    /// `(object index, squared k-NN distance)`, strongest outlier first.
    pub outliers: Vec<(usize, f64)>,
    /// Function profile + PIM timing.
    pub report: RunReport,
}

impl OutlierResult {
    /// The outlier indices only.
    pub fn indices(&self) -> Vec<usize> {
        self.outliers.iter().map(|&(i, _)| i).collect()
    }
}

/// Exhaustive baseline: every object's exact `k`-NN distance (O(N²·d)).
pub fn outliers_standard(dataset: &Dataset, k: usize, m: usize) -> OutlierResult {
    assert!(k >= 1 && k < dataset.len(), "k must be in 1..N");
    assert!(m >= 1 && m <= dataset.len(), "m must be in 1..=N");
    let mut report = RunReport::new(Architecture::ConventionalDram);
    let mut ed = OpCounters::new();
    let mut other = OpCounters::new();
    let d = dataset.dim() as u64;

    let mut top = TopK::new(m, false); // larger score = stronger outlier
    for (i, row) in dataset.rows().enumerate() {
        let mut knn = TopK::new(k, true);
        for (j, cand) in dataset.rows().enumerate() {
            if i == j {
                continue;
            }
            ed.euclidean_kernel(d, d * 8);
            other.prune_test();
            knn.offer(j, measures::euclidean_sq(row, cand));
        }
        let score = knn.threshold();
        other.prune_test();
        top.offer(i, score);
    }
    report.profile.record("ED", ed);
    report.profile.record("other", other);
    OutlierResult {
        outliers: top.into_sorted(),
        report,
    }
}

/// ORCA-style cutoff pruning with `LB_PIM` candidate filtering: the PIM
/// bound batch for object `i` orders and prunes its neighbor scan, and the
/// global cutoff abandons inliers early. Returns exactly the
/// [`outliers_standard`] result.
pub fn outliers_pim(
    executor: &mut PimExecutor,
    dataset: &Dataset,
    k: usize,
    m: usize,
) -> Result<OutlierResult, CoreError> {
    assert!(k >= 1 && k < dataset.len(), "k must be in 1..N");
    assert!(m >= 1 && m <= dataset.len(), "m must be in 1..=N");
    let mut report = RunReport::new(Architecture::ReRamPim);
    let mut ed = OpCounters::new();
    let mut g_counters = OpCounters::new();
    let mut other = OpCounters::new();
    let d = dataset.dim() as u64;
    let n = dataset.len();

    let mut top = TopK::new(m, false);
    let mut bound_name = String::new();
    for (i, row) in dataset.rows().enumerate() {
        // One PIM batch per object: LB_PIM(i, ·) for every candidate.
        let batch = executor.lb_ed_batch(row)?;
        bound_name = executor.bound_name();
        report.pim.add(&batch.timing);
        batch.charge_g(&mut g_counters);

        // Ascending-bound neighbor scan with two prunes: per-candidate
        // (bound ≥ current k-th) and per-object (k-th < global cutoff `c`
        // once the k-NN pool is full ⇒ i cannot be a top-m outlier).
        let mut order: Vec<(f64, usize)> = batch
            .values
            .iter()
            .copied()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(j, v)| (v, j))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        other.cmp += (n as f64 * (n as f64).log2().max(1.0)) as u64;

        let cutoff = if top.threshold().is_finite() {
            top.threshold()
        } else {
            f64::NEG_INFINITY
        };
        let mut knn = TopK::new(k, true);
        let mut pruned_as_inlier = false;
        for &(lb, j) in &order {
            other.prune_test();
            if knn.prunable(lb) {
                break; // sorted bounds: k-NN distance is final
            }
            ed.euclidean_kernel(d, d * 8);
            ed.random_fetches += 1;
            knn.offer(j, measures::euclidean_sq(row, dataset.row(j)));
            other.prune_test();
            if knn.threshold() < cutoff {
                pruned_as_inlier = true; // score can only shrink further
                break;
            }
        }
        if !pruned_as_inlier {
            other.prune_test();
            top.offer(i, knn.threshold());
        }
    }
    report
        .profile
        .record(&format!("G({bound_name})"), g_counters);
    report.profile.record("ED", ed);
    report.profile.record("other", other);
    Ok(OutlierResult {
        outliers: top.into_sorted(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_core::executor::ExecutorConfig;
    use simpim_datasets::{generate, SyntheticConfig};
    use simpim_similarity::NormalizedDataset;

    /// Clustered data plus a few planted outliers far from every cluster.
    fn data_with_outliers() -> (Dataset, Vec<usize>) {
        let mut ds = generate(&SyntheticConfig {
            n: 200,
            d: 16,
            clusters: 4,
            cluster_std: 0.02,
            stat_uniformity: 0.0,
            seed: 88,
        });
        let planted = vec![ds.len(), ds.len() + 1, ds.len() + 2];
        ds.push(&[0.999; 16]).unwrap();
        ds.push(&[0.001; 16]).unwrap();
        let mut alt = [0.999; 16];
        for v in alt.iter_mut().step_by(2) {
            *v = 0.001;
        }
        ds.push(&alt).unwrap();
        (ds, planted)
    }

    #[test]
    fn standard_finds_planted_outliers() {
        let (ds, planted) = data_with_outliers();
        let res = outliers_standard(&ds, 5, 3);
        let mut found = res.indices();
        found.sort_unstable();
        assert_eq!(found, planted);
        assert!(res.outliers[0].1 > res.outliers[2].1);
    }

    #[test]
    fn pim_matches_standard_exactly() {
        let (ds, _) = data_with_outliers();
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds).unwrap();
        for (k, m) in [(3usize, 3usize), (5, 5), (10, 8)] {
            let truth = outliers_standard(&ds, k, m);
            let got = outliers_pim(&mut exec, &ds, k, m).unwrap();
            assert_eq!(got.indices(), truth.indices(), "k={k} m={m}");
            for (a, b) in truth.outliers.iter().zip(&got.outliers) {
                assert!((a.1 - b.1).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pim_computes_far_fewer_exact_distances() {
        let (ds, _) = data_with_outliers();
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds).unwrap();
        let base = outliers_standard(&ds, 5, 3);
        let pim = outliers_pim(&mut exec, &ds, 5, 3).unwrap();
        let b = base.report.profile.get("ED").unwrap().counters.mul;
        let p = pim.report.profile.get("ED").unwrap().counters.mul;
        assert!(
            p * 4 < b,
            "bounds + cutoff must prune most of O(N²): {p} vs {b}"
        );
        assert!(pim.report.pim.total_ns() > 0.0);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn rejects_degenerate_k() {
        let (ds, _) = data_with_outliers();
        outliers_standard(&ds, ds.len(), 1);
    }
}
