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

use simpim_bounds::{BoundCascade, BoundDirection};
use simpim_core::PimExecutor;
use simpim_similarity::{BinaryDataset, BinaryVecRef, Dataset, Measure};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::knn::cascade::charge_stage;
use crate::knn::{exact_eval, KnnResult, LazyOrder, TopK};
use crate::report::{Architecture, RunReport};

/// Charges the host-side cost of combining one PIM batch: per object, the
/// Φ/dot reads plus the O(1) arithmetic of `G`.
fn charge_g(objects: u64, bytes_per_object: u64, counters: &mut OpCounters) {
    counters.stream(objects * bytes_per_object);
    counters.arith += 4 * objects;
    counters.mul += 2 * objects;
}

/// PIM-accelerated kNN under squared ED: PIM bound filter → retained
/// original bounds → exact refinement. `executor` must have been prepared
/// (`prepare_euclidean` / `prepare_fnn`) over exactly `dataset`'s rows.
pub fn knn_pim_ed(
    executor: &mut PimExecutor,
    dataset: &Dataset,
    retained: &BoundCascade,
    query: &[f64],
    k: usize,
) -> Result<KnnResult, MiningError> {
    assert!(k >= 1 && k <= dataset.len(), "k must be in 1..=N");
    assert_eq!(query.len(), dataset.dim(), "query dimensionality mismatch");
    if let Some(dir) = retained.direction() {
        assert_eq!(
            dir,
            BoundDirection::LowerBoundsDistance,
            "retained bounds must be ED lower bounds"
        );
    }

    let mut report = RunReport::new(Architecture::ReRamPim);
    let mut top = TopK::new(k, true);
    let mut other = OpCounters::new();
    let mut exact_counters = OpCounters::new();
    let n = dataset.len();
    let mut query_span = simpim_obs::span!("mining.knn.pim", k = k as u64, n = n as u64);

    // PIM bound batch over the whole dataset (one shot on the crossbars).
    let batch = executor.lb_ed_batch(query)?;
    report.pim.add(&batch.timing);
    let mut g_counters = OpCounters::new();
    charge_g(n as u64, batch.host_bytes_per_object, &mut g_counters);
    report
        .profile
        .record(&format!("G({})", executor.bound_name()), g_counters);

    // Best-bound-first refinement (see `knn::cascade` for the rationale).
    let mut order = LazyOrder::new(
        batch.values.iter().copied().zip(0..).collect(),
        true,
        |i| i,
        &mut other,
    );

    let prepared: Vec<_> = retained.stages().map(|s| s.prepare(query)).collect();
    let stage_list: Vec<&dyn simpim_bounds::BoundStage> = retained.stages().collect();
    let mut stage_evals = vec![0u64; stage_list.len()];
    let mut stage_pruned = vec![0u64; stage_list.len()];
    let mut pim_pruned = 0u64;
    let mut refined = 0u64;

    // Parallel chunked refinement against per-chunk τ snapshots; chunk
    // boundaries and merge order are thread-count independent (see
    // `knn::cascade` and DESIGN.md §10).
    'walk: for chunk in crate::knn::refine_chunk_schedule(n, k) {
        other.prune_test();
        let start = chunk.start;
        let cands = order.chunk(chunk);
        if top.prunable(cands[0].0) {
            // Sorted PIM bounds: this chunk and the rest are pruned too.
            pim_pruned += (n - start) as u64;
            break 'walk;
        }
        let snap = &top.clone();
        let prepared = &prepared;
        let chunks = simpim_par::map_chunks(cands.len(), crate::knn::REFINE_TASK, |r| {
            let mut hits = Vec::new();
            let mut exact = OpCounters::new();
            let mut other = OpCounters::new();
            let mut evals = vec![0u64; prepared.len()];
            let mut pruned = vec![0u64; prepared.len()];
            let mut pim_pruned = 0u64;
            'cand: for &(lb, i) in &cands[r] {
                other.prune_test();
                if snap.prunable(lb) {
                    pim_pruned += 1;
                    continue 'cand;
                }
                for (si, prep) in prepared.iter().enumerate() {
                    evals[si] += 1;
                    other.prune_test();
                    if snap.prunable(prep.bound(i)) {
                        pruned[si] += 1;
                        continue 'cand;
                    }
                }
                exact.random_fetches += 1;
                match exact_eval(Measure::EuclideanSq, dataset.row(i), query, &mut exact) {
                    Ok(v) => hits.push((i, v)),
                    Err(e) => return Err(e),
                }
            }
            Ok((hits, exact, other, evals, pruned, pim_pruned))
        });
        for res in chunks {
            let (hits, exact, task_other, evals, pruned, task_pim_pruned) = res?;
            exact_counters.add(&exact);
            other.add(&task_other);
            pim_pruned += task_pim_pruned;
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
    for (si, stage) in stage_list.iter().enumerate() {
        let mut c = OpCounters::new();
        charge_stage(&stage.eval_cost(), stage_evals[si], &mut c);
        report.profile.record(&stage.name(), c);
    }

    // Per-bound pruning observations, the PIM bound included — the same
    // `simpim.bounds.*` names the cascade engine flushes, so
    // `CandidateBound::from_metrics` sees PIM plans too.
    let bound = executor.bound_name();
    simpim_obs::metrics::counter_add(&format!("simpim.bounds.{bound}.seen"), n as u64);
    simpim_obs::metrics::counter_add(&format!("simpim.bounds.{bound}.pruned"), pim_pruned);
    simpim_obs::metrics::gauge_set(
        &format!("simpim.bounds.{bound}.transfer_bytes"),
        batch.host_bytes_per_object as f64,
    );
    for (si, stage) in stage_list.iter().enumerate() {
        let name = stage.name();
        simpim_obs::metrics::counter_add(&format!("simpim.bounds.{name}.seen"), stage_evals[si]);
        simpim_obs::metrics::counter_add(&format!("simpim.bounds.{name}.pruned"), stage_pruned[si]);
        simpim_obs::metrics::gauge_set(
            &format!("simpim.bounds.{name}.transfer_bytes"),
            stage.transfer_bytes_per_object() as f64,
        );
    }
    simpim_obs::metrics::histogram_record("simpim.mining.knn.refinements", refined);

    report.profile.record("ED", exact_counters);
    report.profile.record("other", other);
    query_span.record("refined", refined as f64);
    Ok(KnnResult {
        neighbors: top.into_sorted(),
        report,
    })
}

/// PIM-accelerated kNN under cosine / Pearson similarity: `UB_PIM` filter
/// then exact refinement. `executor` must be prepared with
/// `prepare_similarity` on the matching target.
pub fn knn_pim_sim(
    executor: &mut PimExecutor,
    dataset: &Dataset,
    query: &[f64],
    k: usize,
    measure: Measure,
) -> Result<KnnResult, MiningError> {
    assert!(k >= 1 && k <= dataset.len(), "k must be in 1..=N");
    assert!(
        matches!(measure, Measure::Cosine | Measure::Pearson),
        "similarity path covers CS/PCC"
    );

    let mut report = RunReport::new(Architecture::ReRamPim);
    let mut top = TopK::new(k, false);
    let mut other = OpCounters::new();
    let mut exact_counters = OpCounters::new();
    let n = dataset.len();
    let mut query_span = simpim_obs::span!("mining.knn.pim_sim", k = k as u64, n = n as u64);

    let batch = executor.ub_sim_batch(query)?;
    report.pim.add(&batch.timing);
    let mut g_counters = OpCounters::new();
    charge_g(n as u64, batch.host_bytes_per_object, &mut g_counters);
    report
        .profile
        .record(&format!("G({})", executor.bound_name()), g_counters);

    // Highest upper bound first: the similarity mirror of best-first
    // refinement.
    let mut order = LazyOrder::new(
        batch.values.iter().copied().zip(0..).collect(),
        false,
        |i| i,
        &mut other,
    );

    // Same chunked parallel walk as the ED path, minus retained stages.
    let mut pruned = 0u64;
    let mut refined = 0u64;
    'walk: for chunk in crate::knn::refine_chunk_schedule(n, k) {
        other.prune_test();
        let start = chunk.start;
        let cands = order.chunk(chunk);
        if top.prunable(cands[0].0) {
            // Sorted descending: this chunk and the rest cannot qualify.
            pruned += (n - start) as u64;
            break 'walk;
        }
        let snap = &top.clone();
        let chunks = simpim_par::map_chunks(cands.len(), crate::knn::REFINE_TASK, |r| {
            let mut hits = Vec::new();
            let mut exact = OpCounters::new();
            let mut other = OpCounters::new();
            let mut pruned = 0u64;
            for &(ub, i) in &cands[r] {
                other.prune_test();
                if snap.prunable(ub) {
                    pruned += 1;
                    continue;
                }
                exact.random_fetches += 1;
                match exact_eval(measure, dataset.row(i), query, &mut exact) {
                    Ok(v) => hits.push((i, v)),
                    Err(e) => return Err(e),
                }
            }
            Ok((hits, exact, other, pruned))
        });
        for res in chunks {
            let (hits, exact, task_other, task_pruned) = res?;
            exact_counters.add(&exact);
            other.add(&task_other);
            pruned += task_pruned;
            refined += hits.len() as u64;
            for (i, v) in hits {
                other.prune_test();
                top.offer(i, v);
            }
        }
    }

    let bound = executor.bound_name();
    simpim_obs::metrics::counter_add(&format!("simpim.bounds.{bound}.seen"), n as u64);
    simpim_obs::metrics::counter_add(&format!("simpim.bounds.{bound}.pruned"), pruned);
    simpim_obs::metrics::gauge_set(
        &format!("simpim.bounds.{bound}.transfer_bytes"),
        batch.host_bytes_per_object as f64,
    );
    simpim_obs::metrics::histogram_record("simpim.mining.knn.refinements", refined);

    report.profile.record(measure.name(), exact_counters);
    report.profile.record("other", other);
    query_span.record("refined", refined as f64);
    Ok(KnnResult {
        neighbors: top.into_sorted(),
        report,
    })
}

/// PIM kNN on binary codes: Hamming distances computed exactly on the
/// crossbars; the host only selects the k smallest.
pub fn knn_pim_hamming(
    executor: &mut PimExecutor,
    codes: &BinaryDataset,
    query: &BinaryVecRef<'_>,
    k: usize,
) -> Result<KnnResult, MiningError> {
    assert!(k >= 1 && k <= codes.len(), "k must be in 1..=N");

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
            let truth = knn_hamming(&codes, &q, 10);
            let got = knn_pim_hamming(&mut exec, &codes, &q, 10).unwrap();
            assert_eq!(got.indices(), truth.indices());
            // PIM HD needs no refinement: no ED/HD function on the host.
            assert!(got.report.profile.get("HD").is_none());
        }
    }
}
