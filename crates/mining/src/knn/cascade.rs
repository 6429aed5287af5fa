//! The shared filter-and-refinement kNN engine.
//!
//! 1. **Warm-up**: evaluate the first `k` objects exactly to seed the
//!    candidate pool and its pruning threshold `τ`.
//! 2. **Filtering**: apply the cascade's bounds in order; an object whose
//!    bound proves it cannot beat `τ` is dropped. `τ` only tightens over
//!    time, so every prune is safe (filter-and-refinement, Section II-C).
//! 3. **Refinement**: evaluate survivors exactly (random fetches — they
//!    are scattered in memory), updating the pool and `τ` as it shrinks.
//!
//! Instantiated with the right cascade this engine *is* OST / SM / FNN
//! (see [`crate::knn::algorithms`]), and with a PIM bound batch spliced in
//! front it is the `-PIM` variant ([`crate::knn::pim`]).

use simpim_bounds::BoundCascade;
use simpim_similarity::{Dataset, Measure};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::knn::{
    charge_stage, check_args, check_direction, exact_eval, flush_bound, walk, KnnResult, LazyOrder,
    TopK,
};
use crate::report::{Architecture, RunReport};

/// Runs filter-and-refinement kNN with `cascade` over `dataset`. The
/// cascade direction must match the measure (lower bounds for distances,
/// upper bounds for similarities); results are exact.
///
/// # Errors
/// [`MiningError::UnsupportedMeasure`] for `Measure::Hamming` — binary
/// codes use [`crate::knn::hamming`] instead.
/// [`MiningError::InvalidArgument`] when `k` is outside `1..=N`, the query
/// dimensionality mismatches, or the cascade bounds the wrong way.
pub fn knn_cascade(
    dataset: &Dataset,
    cascade: &BoundCascade,
    query: &[f64],
    k: usize,
    measure: Measure,
) -> Result<KnnResult, MiningError> {
    let n = dataset.len();
    check_args(k, n, query.len(), dataset.dim())?;
    check_direction(cascade, measure)?;

    let mut report = RunReport::new(Architecture::ConventionalDram);
    let mut other = OpCounters::new();
    let mut query_span = simpim_obs::span!("mining.knn.cascade", k = k as u64, n = n as u64);

    if cascade.is_empty() {
        // Degenerate cascade: plain linear scan.
        let mut top = TopK::new(k, measure.smaller_is_closer());
        let mut exact_counters = OpCounters::new();
        for i in 0..n {
            let v = exact_eval(measure, dataset.row(i), query, &mut exact_counters)?;
            other.prune_test();
            top.offer(i, v);
        }
        simpim_obs::metrics::histogram_record("simpim.mining.knn.refinements", n as u64);
        query_span.record("refined", n as f64);
        report.profile.record(measure.name(), exact_counters);
        report.profile.record("other", other);
        return Ok(KnnResult {
            neighbors: top.into_sorted(),
            report,
        });
    }

    let prepared = cascade.prepare(query);
    let stages: Vec<&dyn simpim_bounds::BoundStage> = cascade.stages().collect();

    // First stage over every object, then best-bound-first refinement: the
    // pruning threshold tightens fastest this way, and once the sorted
    // first-stage bound crosses it, *every* remaining candidate is pruned.
    let filter_span = simpim_obs::span!("mining.knn.filter", stage = 0u64);
    let mut first_counters = OpCounters::new();
    charge_stage(&stages[0].eval_cost(), n as u64, &mut first_counters);
    let order = LazyOrder::new(
        (0..n).map(|i| (prepared[0].bound(i), i)).collect(),
        measure.smaller_is_closer(),
        |i| i,
        &mut other,
    );
    report.profile.record(&stages[0].name(), first_counters);
    drop(filter_span);

    let refine_span = simpim_obs::span!("mining.knn.refine");
    let walked = walk(
        order,
        &prepared[1..],
        |i| dataset.row(i),
        |i| i,
        query,
        k,
        measure,
    )?;
    drop(refine_span);
    other.add(&walked.other);

    flush_bound(
        &stages[0].name(),
        n as u64,
        walked.first_pruned,
        stages[0].transfer_bytes_per_object(),
    );
    walked.record_stages(&stages[1..], &mut report);
    simpim_obs::metrics::histogram_record("simpim.mining.knn.refinements", walked.refined);
    simpim_obs::metrics::histogram_record(
        "simpim.mining.knn.candidates",
        (n as u64).saturating_sub(walked.first_pruned),
    );
    report.profile.record(measure.name(), walked.exact);
    report.profile.record("other", other);
    query_span.record("refined", walked.refined as f64);
    query_span.record("ops", report.profile.total_counters().total_ops() as f64);
    Ok(KnnResult {
        neighbors: walked.neighbors,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::standard::knn_standard;
    use simpim_bounds::{FnnBound, OstBound, PartBound, SmBound};
    use simpim_datasets::{generate, sample_queries, SyntheticConfig};

    fn workload() -> (Dataset, Vec<Vec<f64>>) {
        let ds = generate(&SyntheticConfig {
            n: 300,
            d: 64,
            clusters: 6,
            cluster_std: 0.04,
            stat_uniformity: 0.0,
            seed: 21,
        });
        let qs = sample_queries(&ds, 5, 0.02, 77);
        (ds, qs)
    }

    #[test]
    fn every_ed_cascade_matches_linear_scan() {
        let (ds, qs) = workload();
        let cascades: Vec<(&str, BoundCascade)> = vec![
            (
                "OST",
                BoundCascade::new(vec![Box::new(OstBound::build(&ds, 16).unwrap())]),
            ),
            (
                "SM",
                BoundCascade::new(vec![Box::new(SmBound::build(&ds, 8).unwrap())]),
            ),
            (
                "FNN",
                BoundCascade::new(vec![
                    Box::new(FnnBound::build(&ds, 1).unwrap()),
                    Box::new(FnnBound::build(&ds, 4).unwrap()),
                    Box::new(FnnBound::build(&ds, 16).unwrap()),
                ]),
            ),
            ("empty", BoundCascade::empty()),
        ];
        for q in &qs {
            let truth = knn_standard(&ds, q, 10, Measure::EuclideanSq).unwrap();
            for (name, cascade) in &cascades {
                let got = knn_cascade(&ds, cascade, q, 10, Measure::EuclideanSq).unwrap();
                assert_eq!(got.indices(), truth.indices(), "{name} must be exact");
            }
        }
    }

    #[test]
    fn similarity_cascade_matches_scan() {
        let (ds, qs) = workload();
        for (measure, target) in [
            (Measure::Cosine, simpim_bounds::part::PartTarget::Cosine),
            (Measure::Pearson, simpim_bounds::part::PartTarget::Pearson),
        ] {
            let cascade =
                BoundCascade::new(vec![Box::new(PartBound::build(&ds, 16, target).unwrap())]);
            for q in &qs {
                let truth = knn_standard(&ds, q, 10, measure).unwrap();
                let got = knn_cascade(&ds, &cascade, q, 10, measure).unwrap();
                assert_eq!(got.indices(), truth.indices(), "{measure:?}");
            }
        }
    }

    #[test]
    fn filtering_reduces_exact_evaluations() {
        let (ds, qs) = workload();
        let cascade = BoundCascade::new(vec![Box::new(FnnBound::build(&ds, 16).unwrap())]);
        let scan = knn_standard(&ds, &qs[0], 10, Measure::EuclideanSq).unwrap();
        let filtered = knn_cascade(&ds, &cascade, &qs[0], 10, Measure::EuclideanSq).unwrap();
        let scan_ed = scan.report.profile.get("ED").unwrap().counters.mul;
        let filt_ed = filtered.report.profile.get("ED").unwrap().counters.mul;
        assert!(
            filt_ed < scan_ed / 2,
            "cascade must prune most exact work: {filt_ed} vs {scan_ed}"
        );
        assert!(filtered.report.profile.get("LB_FNN^16").is_some());
    }

    #[test]
    fn direction_mismatch_rejected() {
        let (ds, qs) = workload();
        let cascade = BoundCascade::new(vec![Box::new(
            PartBound::build(&ds, 8, simpim_bounds::part::PartTarget::Cosine).unwrap(),
        )]);
        let err = knn_cascade(&ds, &cascade, &qs[0], 5, Measure::EuclideanSq).unwrap_err();
        assert!(
            matches!(&err, MiningError::InvalidArgument { what } if what.contains("direction")),
            "{err:?}"
        );
    }
}
