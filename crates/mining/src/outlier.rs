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

use simpim_core::PimExecutor;
use simpim_similarity::Dataset;

use crate::anchors::{check, Anchors};
use crate::error::MiningError;
use crate::knn::TopK;
use crate::report::RunReport;

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
///
/// # Errors
/// [`MiningError::InvalidArgument`] when `k` is outside `1..N` or `m`
/// outside `1..=N`.
pub fn outliers_standard(
    dataset: &Dataset,
    k: usize,
    m: usize,
) -> Result<OutlierResult, MiningError> {
    outliers(dataset, k, m, None)
}

/// ORCA-style cutoff pruning with `LB_PIM` candidate filtering: the PIM
/// bound batch for object `i` orders and prunes its neighbor scan, and the
/// global cutoff abandons inliers early. Returns exactly the
/// [`outliers_standard`] result.
///
/// # Errors
/// As [`outliers_standard`], before anything runs on the crossbars;
/// [`MiningError::Core`] when a bound pass fails.
pub fn outliers_pim(
    executor: &mut PimExecutor,
    dataset: &Dataset,
    k: usize,
    m: usize,
) -> Result<OutlierResult, MiningError> {
    outliers(dataset, k, m, Some(executor))
}

/// The body of both fronts. Per object, the baseline offers every other
/// object's exact distance to its `k`-NN pool; PIM walks them by
/// ascending bound with two prunes: per candidate (bound beyond the
/// current `k`-th ⇒ the `k`-NN distance is final) and per object (`k`-th
/// below the cutoff once the top-`m` pool is full ⇒ not a top-`m`
/// outlier).
fn outliers(
    dataset: &Dataset,
    k: usize,
    m: usize,
    exec: Option<&mut PimExecutor>,
) -> Result<OutlierResult, MiningError> {
    let n = dataset.len();
    check((1..n).contains(&k), || {
        format!("k must be in 1..{n}, got {k}")
    })?;
    check((1..=n).contains(&m), || {
        format!("m must be in 1..={n}, got {m}")
    })?;
    let mut a = Anchors::new(dataset, exec);
    let mut top = TopK::new(m, false); // larger score = stronger outlier
    a.each(n, |t, i, bounds| {
        let row = dataset.row(i);
        let cutoff = bounds.map_or(f64::NEG_INFINITY, |_| top.threshold());
        let mut knn = TopK::new(k, true);
        for (lb, j) in t.walk_order(bounds, n, |j| j != i) {
            if bounds.is_some() {
                t.other.prune_test();
                if knn.prunable(lb) {
                    break; // sorted bounds: k-NN distance is final
                }
            }
            knn.offer(j, t.distance(row, dataset.row(j)));
            t.other.prune_test();
            if knn.threshold() < cutoff {
                return; // an inlier: its score can only shrink further
            }
        }
        t.other.prune_test();
        top.offer(i, knn.threshold());
    })?;
    Ok(OutlierResult {
        outliers: top.into_sorted(),
        report: a.finish(),
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
        let res = outliers_standard(&ds, 5, 3).unwrap();
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
            let truth = outliers_standard(&ds, k, m).unwrap();
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
        let base = outliers_standard(&ds, 5, 3).unwrap();
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
    fn rejects_degenerate_k() {
        let (ds, _) = data_with_outliers();
        let err = outliers_standard(&ds, ds.len(), 1).unwrap_err();
        assert!(
            matches!(&err, MiningError::InvalidArgument { what } if what.contains("k must be")),
            "{err}"
        );
    }
}
