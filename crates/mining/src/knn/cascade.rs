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

use simpim_bounds::{BoundCascade, BoundDirection};
use simpim_similarity::{Dataset, Measure};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::knn::{exact_eval, KnnResult, LazyOrder, TopK};
use crate::report::{Architecture, RunReport};

/// Converts a bound stage's per-object [`simpim_bounds::EvalCost`] into
/// counters for `objects` evaluations.
pub(crate) fn charge_stage(
    cost: &simpim_bounds::EvalCost,
    objects: u64,
    counters: &mut OpCounters,
) {
    counters.arith += cost.arith * objects;
    counters.mul += cost.mul * objects;
    counters.div += cost.div * objects;
    counters.sqrt += cost.sqrt * objects;
    counters.stream(cost.bytes * objects);
}

/// Runs filter-and-refinement kNN with `cascade` over `dataset`. The
/// cascade direction must match the measure (lower bounds for distances,
/// upper bounds for similarities); results are exact.
///
/// # Errors
/// [`MiningError::UnsupportedMeasure`] for `Measure::Hamming` — binary
/// codes use [`crate::knn::hamming`] instead.
pub fn knn_cascade(
    dataset: &Dataset,
    cascade: &BoundCascade,
    query: &[f64],
    k: usize,
    measure: Measure,
) -> Result<KnnResult, MiningError> {
    assert!(k >= 1 && k <= dataset.len(), "k must be in 1..=N");
    assert_eq!(query.len(), dataset.dim(), "query dimensionality mismatch");
    if let Some(dir) = cascade.direction() {
        let expected = if measure.smaller_is_closer() {
            BoundDirection::LowerBoundsDistance
        } else {
            BoundDirection::UpperBoundsSimilarity
        };
        assert_eq!(dir, expected, "cascade direction must match the measure");
    }

    let mut report = RunReport::new(Architecture::ConventionalDram);
    let mut top = TopK::new(k, measure.smaller_is_closer());
    let mut other = OpCounters::new();
    let mut exact_counters = OpCounters::new();
    let n = dataset.len();
    let mut query_span = simpim_obs::span!("mining.knn.cascade", k = k as u64, n = n as u64);

    if cascade.is_empty() {
        // Degenerate cascade: plain linear scan.
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
    let mut order = LazyOrder::new(
        (0..n).map(|i| (prepared[0].bound(i), i)).collect(),
        measure.smaller_is_closer(),
        |i| i,
        &mut other,
    );
    report.profile.record(&stages[0].name(), first_counters);
    drop(filter_span);

    // Parallel chunked refinement (see DESIGN.md §10). Chunk boundaries
    // come from `refine_chunk_schedule(n, k)` — a pure function of the
    // workload, never the thread count — and each chunk prunes against a
    // τ snapshot taken at its start. A stale (weaker) τ can only let extra
    // candidates through to exact evaluation, never drop a true neighbor,
    // and because workers return results merged in candidate order the
    // pool update sequence is identical at any `SIMPIM_THREADS`.
    let refine_span = simpim_obs::span!("mining.knn.refine");
    let mut stage_evals = vec![0u64; stages.len()];
    let mut stage_pruned = vec![0u64; stages.len()];
    let mut refined = 0u64;
    'walk: for chunk in crate::knn::refine_chunk_schedule(n, k) {
        other.prune_test();
        let start = chunk.start;
        let cands = order.chunk(chunk);
        if top.prunable(cands[0].0) {
            // Sorted first-stage bound: this chunk and everything after
            // is prunable too.
            stage_pruned[0] += (n - start) as u64;
            break 'walk;
        }
        let snap = &top.clone();
        let prepared = &prepared;
        let chunks = simpim_par::map_chunks(cands.len(), crate::knn::REFINE_TASK, |r| {
            let mut refined = Vec::new();
            let mut exact = OpCounters::new();
            let mut other = OpCounters::new();
            let mut evals = vec![0u64; prepared.len()];
            let mut pruned = vec![0u64; prepared.len()];
            'cand: for &(bound1, i) in &cands[r] {
                other.prune_test();
                if snap.prunable(bound1) {
                    pruned[0] += 1;
                    continue 'cand;
                }
                for (si, prep) in prepared.iter().enumerate().skip(1) {
                    evals[si] += 1;
                    other.prune_test();
                    if snap.prunable(prep.bound(i)) {
                        pruned[si] += 1;
                        continue 'cand;
                    }
                }
                exact.random_fetches += 1;
                match exact_eval(measure, dataset.row(i), query, &mut exact) {
                    Ok(v) => refined.push((i, v)),
                    Err(e) => return Err(e),
                }
            }
            Ok((refined, exact, other, evals, pruned))
        });
        for res in chunks {
            let (hits, exact, task_other, evals, pruned) = res?;
            exact_counters.add(&exact);
            other.add(&task_other);
            for (si, (e, p)) in evals.iter().zip(&pruned).enumerate() {
                stage_evals[si] += e;
                stage_pruned[si] += p;
            }
            refined += hits.len() as u64;
            for (i, v) in hits {
                other.prune_test();
                top.offer(i, v);
            }
        }
    }
    drop(refine_span);
    for (si, stage) in stages.iter().enumerate().skip(1) {
        let mut c = OpCounters::new();
        charge_stage(&stage.eval_cost(), stage_evals[si], &mut c);
        report.profile.record(&stage.name(), c);
    }

    // Flush per-bound pruning observations (one registry touch per stage
    // per query, not per object): these counters are what
    // `simpim_core::Planner::candidates_from_metrics` consumes as the
    // measured pruning ratios of Eq. 13.
    for (si, stage) in stages.iter().enumerate() {
        let seen = if si == 0 { n as u64 } else { stage_evals[si] };
        let name = stage.name();
        simpim_obs::metrics::counter_add(&format!("simpim.bounds.{name}.seen"), seen);
        simpim_obs::metrics::counter_add(&format!("simpim.bounds.{name}.pruned"), stage_pruned[si]);
        simpim_obs::metrics::gauge_set(
            &format!("simpim.bounds.{name}.transfer_bytes"),
            stage.transfer_bytes_per_object() as f64,
        );
    }
    simpim_obs::metrics::histogram_record("simpim.mining.knn.refinements", refined);
    simpim_obs::metrics::histogram_record(
        "simpim.mining.knn.candidates",
        (n as u64).saturating_sub(stage_pruned[0]),
    );
    report.profile.record(measure.name(), exact_counters);
    report.profile.record("other", other);
    query_span.record("refined", refined as f64);
    query_span.record("ops", report.profile.total_counters().total_ops() as f64);
    Ok(KnnResult {
        neighbors: top.into_sorted(),
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
    #[should_panic(expected = "direction")]
    fn direction_mismatch_rejected() {
        let (ds, qs) = workload();
        let cascade = BoundCascade::new(vec![Box::new(
            PartBound::build(&ds, 8, simpim_bounds::part::PartTarget::Cosine).unwrap(),
        )]);
        let _ = knn_cascade(&ds, &cascade, &qs[0], 5, Measure::EuclideanSq);
    }
}
