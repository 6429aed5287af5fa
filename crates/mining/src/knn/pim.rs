//! PIM-optimized kNN (Section VI-C).
//!
//! The PIM-aware bound batch replaces the algorithm's bottleneck bound:
//! the crossbars produce `LB_PIM-ED` / `LB_PIM-FNN^s` (or `UB_PIM-CS` /
//! `UB_PIM-PCC`) for *every* object in one shot, the host evaluates the
//! O(1) combination `G` per object (3·b bits of traffic, Fig. 8), and
//! surviving candidates refine exactly on the host. Any *retained*
//! original bounds (FNN-PIM keeps its finer levels; FNN-PIM-optimize drops
//! them per the Section V-D plan) run between the PIM filter and the
//! refinement. Results are identical to the baselines — the bounds are
//! provably correct (Theorems 1–2).
//!
//! For Hamming distance the PIM result *is* the exact distance (Table 4),
//! so there is no refinement at all; the host merely selects the k
//! smallest of `N` 64-bit results (Fig. 14's "loading two dot-product
//! results ≈ 64 bits per object").

use simpim_bounds::{BoundCascade, BoundStage};
use simpim_core::executor::BoundBatch;
use simpim_core::PimExecutor;
use simpim_similarity::{BinaryDataset, BinaryVecRef, Dataset, Measure};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::knn::{check_args, check_direction, flush_bound, walk, KnnResult, LazyOrder, TopK};
use crate::report::{Architecture, RunReport};

/// PIM-accelerated kNN under squared ED: PIM bound filter → retained
/// original bounds → exact refinement. `executor` must have been prepared
/// (`prepare_euclidean` / `prepare_fnn`) over exactly `dataset`'s rows.
///
/// # Errors
/// [`MiningError::InvalidArgument`] when `k` is outside `1..=N`, the query
/// dimensionality mismatches, or `retained` holds similarity bounds.
pub fn knn_pim_ed(
    executor: &mut PimExecutor,
    dataset: &Dataset,
    retained: &BoundCascade,
    query: &[f64],
    k: usize,
) -> Result<KnnResult, MiningError> {
    let n = dataset.len();
    check_args(k, n, query.len(), dataset.dim())?;
    check_direction(retained, Measure::EuclideanSq)?;
    let mut query_span = simpim_obs::span!("mining.knn.pim", k = k as u64, n = n as u64);
    // PIM bound batch over the whole dataset (one shot on the crossbars).
    let batch = executor.lb_ed_batch(query)?;
    let bound = executor.bound_name();
    let (result, refined) = refine_batch(
        &bound,
        &batch,
        dataset,
        retained,
        query,
        k,
        Measure::EuclideanSq,
    )?;
    query_span.record("refined", refined as f64);
    Ok(result)
}

/// PIM-accelerated kNN under cosine / Pearson similarity: `UB_PIM` filter
/// then exact refinement. `executor` must be prepared with
/// `prepare_similarity` on the matching target.
///
/// # Errors
/// [`MiningError::InvalidArgument`] when `k` is outside `1..=N`, the query
/// dimensionality mismatches, or `measure` is not a similarity.
pub fn knn_pim_sim(
    executor: &mut PimExecutor,
    dataset: &Dataset,
    query: &[f64],
    k: usize,
    measure: Measure,
) -> Result<KnnResult, MiningError> {
    let n = dataset.len();
    check_args(k, n, query.len(), dataset.dim())?;
    if !matches!(measure, Measure::Cosine | Measure::Pearson) {
        return Err(MiningError::InvalidArgument {
            what: format!("the similarity path covers CS/PCC, not {}", measure.name()),
        });
    }
    let mut query_span = simpim_obs::span!("mining.knn.pim_sim", k = k as u64, n = n as u64);
    let batch = executor.ub_sim_batch(query)?;
    let bound = executor.bound_name();
    // Highest upper bound first: the similarity mirror of the ED walk,
    // with no retained stages.
    let retained = BoundCascade::empty();
    let (result, refined) = refine_batch(&bound, &batch, dataset, &retained, query, k, measure)?;
    query_span.record("refined", refined as f64);
    Ok(result)
}

/// What both float fronts do with their PIM batch: book its timing and
/// the host-side `G`, walk the candidates best-bound-first through the
/// `retained` bounds to exact refinement, and flush the per-bound pruning
/// observations — the PIM bound included, under the same `simpim.bounds.*`
/// names the cascade engine uses, so `CandidateBound::from_metrics` sees
/// PIM plans too. Returns the result and the refinement count.
fn refine_batch(
    bound: &str,
    batch: &BoundBatch,
    dataset: &Dataset,
    retained: &BoundCascade,
    query: &[f64],
    k: usize,
    measure: Measure,
) -> Result<(KnnResult, u64), MiningError> {
    let n = dataset.len();
    if batch.values.len() != n {
        return Err(MiningError::InvalidArgument {
            what: format!(
                "the executor holds {} objects, the dataset {n}",
                batch.values.len()
            ),
        });
    }
    let mut report = RunReport::new(Architecture::ReRamPim);
    report.pim.add(&batch.timing);
    let mut g_counters = OpCounters::new();
    batch.charge_g(&mut g_counters);
    report.profile.record(&format!("G({bound})"), g_counters);

    let mut other = OpCounters::new();
    let order = LazyOrder::new(
        batch.values.iter().copied().zip(0..).collect(),
        measure.smaller_is_closer(),
        |i| i,
        &mut other,
    );
    let walked = walk(
        order,
        &retained.prepare(query),
        |i| dataset.row(i),
        |i| i,
        query,
        k,
        measure,
    )?;
    other.add(&walked.other);

    let stages: Vec<&dyn BoundStage> = retained.stages().collect();
    walked.record_stages(&stages, &mut report);
    flush_bound(
        bound,
        n as u64,
        walked.first_pruned,
        batch.host_bytes_per_object,
    );
    simpim_obs::metrics::histogram_record("simpim.mining.knn.refinements", walked.refined);
    report.profile.record(measure.name(), walked.exact);
    report.profile.record("other", other);
    let result = KnnResult {
        neighbors: walked.neighbors,
        report,
    };
    Ok((result, walked.refined))
}

/// PIM kNN on binary codes: Hamming distances computed exactly on the
/// crossbars; the host only selects the k smallest.
///
/// # Errors
/// [`MiningError::InvalidArgument`] when `k` is outside `1..=N` or the
/// query code width mismatches.
pub fn knn_pim_hamming(
    executor: &mut PimExecutor,
    codes: &BinaryDataset,
    query: &BinaryVecRef<'_>,
    k: usize,
) -> Result<KnnResult, MiningError> {
    check_args(k, codes.len(), query.bits(), codes.bits())?;

    let mut report = RunReport::new(Architecture::ReRamPim);
    let _span = simpim_obs::span!(
        "mining.knn.pim_hamming",
        k = k as u64,
        n = codes.len() as u64
    );
    let batch = executor.hd_batch(query)?;
    report.pim.add(&batch.timing);

    // Host: read the two dot-product results per object (64 bits total,
    // Fig. 14) and keep the top-k.
    let mut g_counters = OpCounters::new();
    g_counters.stream(batch.values.len() as u64 * 8);
    g_counters.arith += 2 * batch.values.len() as u64;
    let mut other = OpCounters::new();
    let mut top = TopK::new(k, true);
    for (i, &v) in batch.values.iter().enumerate() {
        other.prune_test();
        top.offer(i, v);
    }
    report.profile.record("G(HD_PIM)", g_counters);
    report.profile.record("other", other);
    Ok(KnnResult {
        neighbors: top.into_sorted(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::algorithms::fnn_cascade;
    use crate::knn::hamming::knn_hamming;
    use crate::knn::standard::knn_standard;
    use simpim_core::executor::{ExecutorConfig, SimTarget};
    use simpim_datasets::{generate, lsh_codes, sample_queries, SyntheticConfig};
    use simpim_reram::{CrossbarConfig, PimConfig};
    use simpim_similarity::NormalizedDataset;

    fn exec_cfg(crossbars: usize) -> ExecutorConfig {
        ExecutorConfig {
            pim: PimConfig {
                crossbar: CrossbarConfig {
                    size: 64,
                    adc_bits: 12,
                    ..Default::default()
                },
                num_crossbars: crossbars,
                ..Default::default()
            },
            alpha: 1e6,
            operand_bits: 32,
            double_buffer: false,
            parallel_regions: true,
            faults: None,
            scrub_interval: 0,
        }
    }

    fn workload() -> (Dataset, Vec<Vec<f64>>) {
        let ds = generate(&SyntheticConfig {
            n: 250,
            d: 64,
            clusters: 5,
            cluster_std: 0.04,
            stat_uniformity: 0.0,
            seed: 33,
        });
        let qs = sample_queries(&ds, 4, 0.02, 5);
        (ds, qs)
    }

    #[test]
    fn standard_pim_matches_standard() {
        let (ds, qs) = workload();
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let mut exec = PimExecutor::prepare_euclidean(exec_cfg(100_000), &nds).unwrap();
        for q in &qs {
            let truth = knn_standard(&ds, q, 10, Measure::EuclideanSq).unwrap();
            let got = knn_pim_ed(&mut exec, &ds, &BoundCascade::empty(), q, 10).unwrap();
            assert_eq!(got.indices(), truth.indices());
            assert!(got.report.pim.total_ns() > 0.0);
        }
    }

    #[test]
    fn fnn_pim_with_retained_bounds_matches() {
        let (ds, qs) = workload();
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let mut exec = PimExecutor::prepare_fnn(exec_cfg(100_000), &nds, 16).unwrap();
        let retained = fnn_cascade(&ds).unwrap();
        for q in &qs {
            let truth = knn_standard(&ds, q, 10, Measure::EuclideanSq).unwrap();
            let got = knn_pim_ed(&mut exec, &ds, &retained, q, 10).unwrap();
            assert_eq!(got.indices(), truth.indices());
        }
    }

    #[test]
    fn pim_filter_prunes_most_refinement() {
        let (ds, qs) = workload();
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let mut exec = PimExecutor::prepare_euclidean(exec_cfg(100_000), &nds).unwrap();
        let got = knn_pim_ed(&mut exec, &ds, &BoundCascade::empty(), &qs[0], 10).unwrap();
        let refined = got
            .report
            .profile
            .get("ED")
            .unwrap()
            .counters
            .random_fetches;
        assert!(
            refined < 60,
            "PIM bound should prune most of 240 candidates: {refined}"
        );
    }

    #[test]
    fn similarity_pim_matches_standard() {
        let (ds, qs) = workload();
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        for (measure, target) in [
            (Measure::Cosine, SimTarget::Cosine),
            (Measure::Pearson, SimTarget::Pearson),
        ] {
            let mut exec =
                PimExecutor::prepare_similarity(exec_cfg(100_000), &nds, target).unwrap();
            for q in &qs {
                let truth = knn_standard(&ds, q, 10, measure).unwrap();
                let got = knn_pim_sim(&mut exec, &ds, q, 10, measure).unwrap();
                assert_eq!(got.indices(), truth.indices(), "{measure:?}");
            }
        }
    }

    #[test]
    fn hamming_pim_matches_host_scan() {
        let (ds, _) = workload();
        let codes = lsh_codes(&ds, 128, 9);
        let mut exec = PimExecutor::prepare_hamming(exec_cfg(100_000), &codes).unwrap();
        for qi in [0usize, 7, 100] {
            let q = codes.row(qi);
            let truth = knn_hamming(&codes, &q, 10).unwrap();
            let got = knn_pim_hamming(&mut exec, &codes, &q, 10).unwrap();
            assert_eq!(got.indices(), truth.indices());
            // PIM HD needs no refinement: no ED/HD function on the host.
            assert!(got.report.profile.get("HD").is_none());
        }
    }
}
