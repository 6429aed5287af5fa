//! DBSCAN — density-based clustering, another Section II-C target task
//! ("the algorithms of partitioning/density-based clustering").
//!
//! DBSCAN's hot loop is the ε-range query: all objects within distance ε
//! of a seed. On the baseline that is a full scan per expansion step; with
//! PIM, `LB_PIM(p, ·) > ε²` disqualifies a candidate without the exact
//! distance — range queries are the easiest case for lossless bound
//! filtering because the threshold is fixed.
//!
//! Both variants expand clusters in identical seed order, so labelings
//! (including the order-dependent border-point assignments) are identical.
//! The range queries go through the anchor driver one anchor at a time:
//! the expansion picks its next anchor from the last answer, so fetching
//! bounds ahead would either change which cluster claims a border point
//! first or hold every neighbor list in memory.

use simpim_core::PimExecutor;
use simpim_similarity::Dataset;

use crate::anchors::{check, Anchors};
use crate::error::MiningError;
use crate::report::RunReport;

/// Cluster assignment of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbscanLabel {
    /// Not density-reachable from any core point.
    Noise,
    /// Member of the given cluster.
    Cluster(usize),
}

/// Result of a DBSCAN run.
#[derive(Debug, Clone)]
pub struct DbscanResult {
    /// Per-object labels.
    pub labels: Vec<DbscanLabel>,
    /// Number of clusters found.
    pub clusters: usize,
    /// Function profile + PIM timing.
    pub report: RunReport,
}

impl DbscanResult {
    /// Number of noise objects.
    pub fn noise_count(&self) -> usize {
        self.labels
            .iter()
            .filter(|l| matches!(l, DbscanLabel::Noise))
            .count()
    }
}

/// The ε-neighborhood of anchor `i` (indices, including `i` itself). On
/// PIM, exact distances only for candidates whose `LB_PIM` does not
/// already exceed ε².
fn range_query(a: &mut Anchors<'_>, i: usize, eps_sq: f64) -> Result<Vec<usize>, MiningError> {
    let bounds = a.one(i)?;
    let (data, t) = (a.data, &mut a.tally);
    let mut out = Vec::new();
    for (j, cand) in data.rows().enumerate() {
        if let Some(b) = &bounds {
            t.other.prune_test();
            if b[j] > eps_sq {
                continue; // provably outside the ε-ball
            }
        }
        let dist = t.distance(data.row(i), cand);
        t.other.prune_test();
        if dist <= eps_sq {
            out.push(j);
        }
    }
    Ok(out)
}

/// Runs DBSCAN. Pass a prepared executor for the PIM variant; `None` runs
/// the full-scan baseline. `eps` is in the *unsquared* distance domain.
///
/// # Errors
/// [`MiningError::InvalidArgument`] when `eps` is not positive and finite
/// or `min_pts` is 0, before anything runs on the crossbars;
/// [`MiningError::Core`] when a bound pass fails.
pub fn dbscan(
    dataset: &Dataset,
    eps: f64,
    min_pts: usize,
    pim: Option<&mut PimExecutor>,
) -> Result<DbscanResult, MiningError> {
    use DbscanLabel::{Cluster, Noise};
    check(eps > 0.0 && eps.is_finite(), || {
        format!("eps must be positive and finite, got {eps}")
    })?;
    check(min_pts >= 1, || "min_pts must be at least 1".to_string())?;
    let mut a = Anchors::new(dataset, pim);
    let eps_sq = eps * eps;
    // `None` until the object is visited.
    let mut label: Vec<Option<DbscanLabel>> = vec![None; dataset.len()];
    let mut clusters = 0usize;

    for i in 0..dataset.len() {
        if label[i].is_some() {
            continue;
        }
        let neighbors = range_query(&mut a, i, eps_sq)?;
        if neighbors.len() < min_pts {
            label[i] = Some(Noise);
            continue;
        }
        // New cluster: BFS over density-reachable points.
        let cid = Some(Cluster(clusters));
        clusters += 1;
        label[i] = cid;
        let mut queue: Vec<usize> = neighbors.into_iter().filter(|&j| j != i).collect();
        while let Some(j) = queue.pop() {
            match label[j] {
                Some(Cluster(_)) => {}
                Some(Noise) => label[j] = cid, // border point
                None => {
                    label[j] = cid;
                    let reach = range_query(&mut a, j, eps_sq)?;
                    if reach.len() >= min_pts {
                        let open = |x: &usize| !matches!(label[*x], Some(Cluster(_)));
                        queue.extend(reach.into_iter().filter(open));
                    }
                }
            }
        }
    }

    Ok(DbscanResult {
        labels: label.into_iter().map(|l| l.unwrap_or(Noise)).collect(),
        clusters,
        report: a.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_core::executor::ExecutorConfig;
    use simpim_datasets::{generate, SyntheticConfig};
    use simpim_similarity::NormalizedDataset;

    fn data() -> Dataset {
        let mut ds = generate(&SyntheticConfig {
            n: 180,
            d: 16,
            clusters: 3,
            cluster_std: 0.015,
            stat_uniformity: 0.0,
            seed: 99,
        });
        // Two isolated noise points.
        ds.push(&[0.999; 16]).unwrap();
        ds.push(&[0.001; 16]).unwrap();
        ds
    }

    #[test]
    fn recovers_clusters_and_noise() {
        let ds = data();
        let res = dbscan(&ds, 0.25, 4, None).unwrap();
        assert_eq!(res.clusters, 3, "three dense clusters");
        assert!(res.noise_count() >= 2, "planted noise detected");
        assert_eq!(res.labels.len(), ds.len());
        assert_eq!(res.labels[ds.len() - 1], DbscanLabel::Noise);
        assert_eq!(res.labels[ds.len() - 2], DbscanLabel::Noise);
    }

    #[test]
    fn pim_labeling_is_identical() {
        let ds = data();
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds).unwrap();
        let base = dbscan(&ds, 0.25, 4, None).unwrap();
        let pim = dbscan(&ds, 0.25, 4, Some(&mut exec)).unwrap();
        assert_eq!(base.labels, pim.labels);
        assert_eq!(base.clusters, pim.clusters);
        assert!(pim.report.pim.total_ns() > 0.0);
    }

    #[test]
    fn pim_prunes_range_queries() {
        let ds = data();
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds).unwrap();
        let base = dbscan(&ds, 0.25, 4, None).unwrap();
        let pim = dbscan(&ds, 0.25, 4, Some(&mut exec)).unwrap();
        let b = base.report.profile.get("ED").unwrap().counters.mul;
        let p = pim.report.profile.get("ED").unwrap().counters.mul;
        assert!(p * 2 < b, "range queries must be bound-pruned: {p} vs {b}");
    }

    #[test]
    fn everything_is_noise_at_tiny_eps() {
        let ds = data();
        let res = dbscan(&ds, 1e-6, 3, None).unwrap();
        assert_eq!(res.clusters, 0);
        assert_eq!(res.noise_count(), ds.len());
    }

    #[test]
    fn one_cluster_at_huge_eps() {
        let ds = data();
        let res = dbscan(&ds, 10.0, 3, None).unwrap();
        assert_eq!(res.clusters, 1);
        assert_eq!(res.noise_count(), 0);
    }
}
