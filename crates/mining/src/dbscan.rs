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

use simpim_core::{CoreError, PimExecutor};
use simpim_similarity::{measures, Dataset};
use simpim_simkit::OpCounters;

use crate::report::{Architecture, RunReport};

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

/// The ε-neighborhood of `center` (indices, including `center` itself).
fn range_query_scan(
    dataset: &Dataset,
    center: usize,
    eps_sq: f64,
    ed: &mut OpCounters,
    other: &mut OpCounters,
) -> Vec<usize> {
    let d = dataset.dim() as u64;
    let row = dataset.row(center);
    let mut out = Vec::new();
    for (j, cand) in dataset.rows().enumerate() {
        ed.euclidean_kernel(d, d * 8);
        other.prune_test();
        if measures::euclidean_sq(row, cand) <= eps_sq {
            out.push(j);
        }
    }
    out
}

/// PIM-filtered ε-neighborhood: exact distances only for candidates whose
/// `LB_PIM` does not already exceed ε².
fn range_query_pim(
    executor: &mut PimExecutor,
    dataset: &Dataset,
    center: usize,
    eps_sq: f64,
    report: &mut RunReport,
    ed: &mut OpCounters,
    other: &mut OpCounters,
) -> Result<Vec<usize>, CoreError> {
    let d = dataset.dim() as u64;
    let row = dataset.row(center);
    let batch = executor.lb_ed_batch(row)?;
    report.pim.add(&batch.timing);
    let mut g = OpCounters::new();
    batch.charge_g(&mut g);
    report
        .profile
        .record(&format!("G({})", executor.bound_name()), g);

    let mut out = Vec::new();
    for (j, &lb) in batch.values.iter().enumerate() {
        other.prune_test();
        if lb > eps_sq {
            continue; // provably outside the ε-ball
        }
        ed.euclidean_kernel(d, d * 8);
        ed.random_fetches += 1;
        other.prune_test();
        if measures::euclidean_sq(row, dataset.row(j)) <= eps_sq {
            out.push(j);
        }
    }
    Ok(out)
}

/// Runs DBSCAN. Pass a prepared executor for the PIM variant; `None` runs
/// the full-scan baseline. `eps` is in the *unsquared* distance domain.
pub fn dbscan(
    dataset: &Dataset,
    eps: f64,
    min_pts: usize,
    mut pim: Option<&mut PimExecutor>,
) -> Result<DbscanResult, CoreError> {
    assert!(eps > 0.0, "eps must be positive");
    assert!(min_pts >= 1, "min_pts must be at least 1");
    let arch = if pim.is_some() {
        Architecture::ReRamPim
    } else {
        Architecture::ConventionalDram
    };
    let mut report = RunReport::new(arch);
    let mut ed = OpCounters::new();
    let mut other = OpCounters::new();
    let eps_sq = eps * eps;
    let n = dataset.len();

    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;
    let mut label = vec![UNVISITED; n];
    let mut clusters = 0usize;

    for i in 0..n {
        if label[i] != UNVISITED {
            continue;
        }
        let neighbors = match pim.as_deref_mut() {
            Some(exec) => {
                range_query_pim(exec, dataset, i, eps_sq, &mut report, &mut ed, &mut other)?
            }
            None => range_query_scan(dataset, i, eps_sq, &mut ed, &mut other),
        };
        if neighbors.len() < min_pts {
            label[i] = NOISE;
            continue;
        }
        // New cluster: BFS over density-reachable points.
        let cid = clusters;
        clusters += 1;
        label[i] = cid;
        let mut queue: Vec<usize> = neighbors.into_iter().filter(|&j| j != i).collect();
        while let Some(j) = queue.pop() {
            if label[j] == NOISE {
                label[j] = cid; // border point
                continue;
            }
            if label[j] != UNVISITED {
                continue;
            }
            label[j] = cid;
            let reach = match pim.as_deref_mut() {
                Some(exec) => {
                    range_query_pim(exec, dataset, j, eps_sq, &mut report, &mut ed, &mut other)?
                }
                None => range_query_scan(dataset, j, eps_sq, &mut ed, &mut other),
            };
            if reach.len() >= min_pts {
                queue.extend(
                    reach
                        .into_iter()
                        .filter(|&x| label[x] == UNVISITED || label[x] == NOISE),
                );
            }
        }
    }

    report.profile.record("ED", ed);
    report.profile.record("other", other);
    let labels = label
        .into_iter()
        .map(|l| {
            if l == NOISE || l == UNVISITED {
                DbscanLabel::Noise
            } else {
                DbscanLabel::Cluster(l)
            }
        })
        .collect();
    Ok(DbscanResult {
        labels,
        clusters,
        report,
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
