//! Cross-crate integration: every kNN algorithm — classic and
//! PIM-optimized — must return exactly the same neighbors as the linear
//! scan, on every measure.

use simpim::core::executor::{ExecutorConfig, PimExecutor, SimTarget};
use simpim::datasets::{generate, lsh_codes, sample_queries, SyntheticConfig};
use simpim::mining::knn::algorithms::{fnn_cascade, ost_cascade, part_cascade, sm_cascade};
use simpim::mining::knn::cascade::knn_cascade;
use simpim::mining::knn::hamming::knn_hamming;
use simpim::mining::knn::pim::{knn_pim_ed, knn_pim_hamming, knn_pim_sim};
use simpim::mining::knn::standard::knn_standard;
use simpim::similarity::{Dataset, Measure, NormalizedDataset};
use simpim_bounds::BoundCascade;

fn workload(seed: u64) -> (Dataset, Vec<Vec<f64>>) {
    let ds = generate(&SyntheticConfig {
        n: 800,
        d: 128,
        clusters: 8,
        cluster_std: 0.05,
        stat_uniformity: 0.2,
        seed,
    });
    let queries = sample_queries(&ds, 6, 0.02, seed ^ 0xFF);
    (ds, queries)
}

fn exec_cfg() -> ExecutorConfig {
    ExecutorConfig::default()
}

#[test]
fn classic_cascades_are_exact_on_ed() {
    let (ds, queries) = workload(1);
    let cascades = [
        ("OST", ost_cascade(&ds).unwrap()),
        ("SM", sm_cascade(&ds).unwrap()),
        ("FNN", fnn_cascade(&ds).unwrap()),
    ];
    for (k, q) in [(1usize, &queries[0]), (10, &queries[1]), (100, &queries[2])] {
        let truth = knn_standard(&ds, q, k, Measure::EuclideanSq).unwrap();
        for (name, cascade) in &cascades {
            let got = knn_cascade(&ds, cascade, q, k, Measure::EuclideanSq).unwrap();
            assert_eq!(got.indices(), truth.indices(), "{name} k={k}");
        }
    }
}

#[test]
fn pim_variants_are_exact_on_ed() {
    let (ds, queries) = workload(2);
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    let mut std_exec = PimExecutor::prepare_euclidean(exec_cfg(), &nds).unwrap();
    let mut fnn_exec = PimExecutor::prepare_fnn(exec_cfg(), &nds, 32).unwrap();
    let retained = fnn_cascade(&ds).unwrap();
    for q in &queries {
        let truth = knn_standard(&ds, q, 10, Measure::EuclideanSq).unwrap();
        let std_pim = knn_pim_ed(&mut std_exec, &ds, &BoundCascade::empty(), q, 10).unwrap();
        let fnn_pim = knn_pim_ed(&mut fnn_exec, &ds, &retained, q, 10).unwrap();
        assert_eq!(std_pim.indices(), truth.indices(), "Standard-PIM");
        assert_eq!(fnn_pim.indices(), truth.indices(), "FNN-PIM");
    }
}

#[test]
fn similarity_search_is_exact_for_cs_and_pcc() {
    let (ds, queries) = workload(3);
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    for (measure, target) in [
        (Measure::Cosine, SimTarget::Cosine),
        (Measure::Pearson, SimTarget::Pearson),
    ] {
        let cascade = part_cascade(&ds, measure).unwrap();
        let mut exec = PimExecutor::prepare_similarity(exec_cfg(), &nds, target).unwrap();
        for q in &queries {
            let truth = knn_standard(&ds, q, 10, measure).unwrap();
            let classic = knn_cascade(&ds, &cascade, q, 10, measure).unwrap();
            let pim = knn_pim_sim(&mut exec, &ds, q, 10, measure).unwrap();
            assert_eq!(classic.indices(), truth.indices(), "{measure:?} classic");
            assert_eq!(pim.indices(), truth.indices(), "{measure:?} PIM");
        }
    }
}

#[test]
fn hamming_pim_is_exact_across_code_widths() {
    let (ds, _) = workload(4);
    for bits in [128usize, 256, 512] {
        let codes = lsh_codes(&ds, bits, 17);
        let mut exec = PimExecutor::prepare_hamming(exec_cfg(), &codes).unwrap();
        for qi in [0usize, 31, 419] {
            let q = codes.row(qi);
            let truth = knn_hamming(&codes, &q, 10).unwrap();
            let pim = knn_pim_hamming(&mut exec, &codes, &q, 10).unwrap();
            assert_eq!(pim.indices(), truth.indices(), "bits={bits} qi={qi}");
        }
    }
}

#[test]
fn pim_queries_never_wear_the_crossbars() {
    let (ds, queries) = workload(5);
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    let mut exec = PimExecutor::prepare_euclidean(exec_cfg(), &nds).unwrap();
    let wear = exec.bank().pim().total_cell_writes();
    for q in &queries {
        knn_pim_ed(&mut exec, &ds, &BoundCascade::empty(), q, 5).unwrap();
    }
    assert_eq!(
        exec.bank().pim().total_cell_writes(),
        wear,
        "online stage must not re-program crossbars (endurance, Section V-C)"
    );
}

#[test]
fn pim_moves_less_data_than_baseline() {
    let (ds, queries) = workload(6);
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    let mut exec = PimExecutor::prepare_euclidean(exec_cfg(), &nds).unwrap();
    let q = &queries[0];
    let base = knn_standard(&ds, q, 10, Measure::EuclideanSq).unwrap();
    let pim = knn_pim_ed(&mut exec, &ds, &BoundCascade::empty(), q, 10).unwrap();
    let base_bytes = base.report.profile.total_counters().bytes_streamed;
    let pim_bytes = pim.report.profile.total_counters().bytes_streamed;
    assert!(
        pim_bytes * 5 < base_bytes,
        "PIM must slash host transfer: {pim_bytes} vs {base_bytes}"
    );
}
