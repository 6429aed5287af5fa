//! Criterion micro-benches for the bound kernels vs exact distances: how
//! much host-side arithmetic a bound evaluation actually saves, per
//! object, at MSD-like dimensionality.

use criterion::{criterion_group, criterion_main, Criterion};
use simpim_bounds::{BoundStage, FnnBound, OstBound, SmBound};
use simpim_core::stage::PimStage;
use simpim_datasets::{generate, SyntheticConfig};
use simpim_similarity::{measures, NormalizedDataset};
use std::hint::black_box;

fn bound_evaluation(c: &mut Criterion) {
    let ds = generate(&SyntheticConfig {
        n: 4_000,
        d: 420,
        clusters: 16,
        cluster_std: 0.05,
        stat_uniformity: 0.05,
        seed: 5,
    });
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    let query: Vec<f64> = ds.row(0).to_vec();

    let mut group = c.benchmark_group("bounds/per_4k_objects");
    group.bench_function("exact_ED", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for row in ds.rows() {
                acc += measures::euclidean_sq(row, black_box(&query));
            }
            acc
        })
    });

    let ost = OstBound::build(&ds, 210).unwrap();
    let sm = SmBound::build(&ds, 105).unwrap();
    let fnn = FnnBound::build(&ds, 105).unwrap();
    let pim = PimStage::fnn(&nds, 105, 1e6).unwrap();
    let stages: Vec<(&str, &dyn BoundStage)> = vec![
        ("LB_OST", &ost),
        ("LB_SM", &sm),
        ("LB_FNN", &fnn),
        ("LB_PIM-FNN(host)", &pim),
    ];
    for (name, stage) in stages {
        group.bench_function(name, |b| {
            let prep = stage.prepare(&query);
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..ds.len() {
                    acc += prep.bound(black_box(i));
                }
                acc
            })
        });
    }
    group.finish();
}

fn quantization(c: &mut Criterion) {
    let ds = generate(&SyntheticConfig {
        n: 1,
        d: 420,
        clusters: 1,
        cluster_std: 0.05,
        stat_uniformity: 0.0,
        seed: 6,
    });
    let q = simpim_similarity::Quantizer::identity(1e6).unwrap();
    let row: Vec<f64> = ds.row(0).to_vec();
    c.bench_function("bounds/quantize_vec_420d", |b| {
        b.iter(|| q.quantize_vec(black_box(&row)).unwrap())
    });
    c.bench_function("bounds/fnn_quant_105seg", |b| {
        b.iter(|| simpim_core::pim_bounds::FnnQuant::compute(black_box(&row), 105, 1e6).unwrap())
    });
}

criterion_group!(benches, bound_evaluation, quantization);
criterion_main!(benches);
