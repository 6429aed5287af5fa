//! `Standard` kNN: exhaustive linear scan (the paper's baseline of
//! baselines). Exact by construction; its profile is dominated by the
//! exact-measure function, which is why Fig. 7 shows the largest PIM-oracle
//! gap for it.

use simpim_similarity::{Dataset, Measure};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::knn::{check_args, exact_eval, KnnResult, TopK};
use crate::report::{Architecture, RunReport};

/// Scans the whole dataset, returning the exact k nearest under `measure`
/// (`EuclideanSq`, `Cosine` or `Pearson`).
///
/// # Errors
/// [`MiningError::UnsupportedMeasure`] for `Measure::Hamming` — binary
/// codes use [`crate::knn::hamming`] instead.
/// [`MiningError::InvalidArgument`] when `k` is zero or exceeds the dataset
/// size, or when the query dimensionality mismatches.
pub fn knn_standard(
    dataset: &Dataset,
    query: &[f64],
    k: usize,
    measure: Measure,
) -> Result<KnnResult, MiningError> {
    check_args(k, dataset.len(), query.len(), dataset.dim())?;
    let mut report = RunReport::new(Architecture::ConventionalDram);
    let mut top = TopK::new(k, measure.smaller_is_closer());
    let _span = simpim_obs::span!(
        "mining.knn.standard",
        k = k as u64,
        n = dataset.len() as u64
    );

    let mut measure_counters = OpCounters::new();
    let mut other = OpCounters::new();
    for (i, row) in dataset.rows().enumerate() {
        let v = exact_eval(measure, row, query, &mut measure_counters)?;
        other.prune_test();
        top.offer(i, v);
    }
    report.profile.record(measure.name(), measure_counters);
    report.profile.record("other", other);
    Ok(KnnResult {
        neighbors: top.into_sorted(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_similarity::measures::euclidean_sq;

    fn dataset() -> Dataset {
        Dataset::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.1, 0.1],
            vec![0.5, 0.5],
            vec![0.9, 0.9],
        ])
        .unwrap()
    }

    #[test]
    fn finds_exact_neighbors() {
        let ds = dataset();
        let res = knn_standard(&ds, &[0.05, 0.05], 2, Measure::EuclideanSq).unwrap();
        assert_eq!(res.indices(), vec![0, 2]);
        assert!((res.neighbors[0].1 - euclidean_sq(ds.row(0), &[0.05, 0.05])).abs() < 1e-12);
    }

    #[test]
    fn similarity_measures_reverse_order() {
        let ds = Dataset::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.7, 0.7]]).unwrap();
        let res = knn_standard(&ds, &[1.0, 0.1], 1, Measure::Cosine).unwrap();
        assert_eq!(res.indices(), vec![0]);
    }

    #[test]
    fn profile_is_measure_dominated() {
        let ds = dataset();
        let res = knn_standard(&ds, &[0.0, 0.0], 1, Measure::EuclideanSq).unwrap();
        let params = simpim_simkit::HostParams::default();
        let (name, frac) = res.report.profile.bottleneck(&params).unwrap();
        assert_eq!(name, "ED");
        assert!(frac > 0.5);
        assert_eq!(
            res.report.pim.total_ns(),
            0.0,
            "baseline must not touch PIM"
        );
    }

    #[test]
    fn k_equals_n_returns_everything() {
        let ds = dataset();
        let res = knn_standard(&ds, &[0.0, 0.0], 5, Measure::EuclideanSq).unwrap();
        assert_eq!(res.neighbors.len(), 5);
        assert_eq!(res.neighbors[0].0, 0);
        assert_eq!(res.neighbors[4].0, 1);
    }

    #[test]
    fn zero_k_rejected() {
        let err = knn_standard(&dataset(), &[0.0, 0.0], 0, Measure::EuclideanSq).unwrap_err();
        assert!(
            matches!(&err, MiningError::InvalidArgument { what } if what.contains("k must be")),
            "{err:?}"
        );
    }

    #[test]
    fn hamming_on_floats_is_a_typed_error() {
        let err = knn_standard(&dataset(), &[0.0, 0.0], 1, Measure::Hamming).unwrap_err();
        assert!(matches!(
            err,
            MiningError::UnsupportedMeasure {
                measure: Measure::Hamming
            }
        ));
    }
}
