//! Reference-implementation cross-checks: every optimized search must
//! agree with an independently written naive implementation (not just
//! with each other).

use proptest::prelude::*;
use simpim::datasets::{generate, lsh_codes, SyntheticConfig};
use simpim::mining::knn::hamming::knn_hamming;
use simpim::mining::knn::standard::knn_standard;
use simpim::mining::outlier::outliers_standard;
use simpim::similarity::{measures, Dataset, Measure};

/// Naive reference: full sort of all (value, index) pairs.
fn naive_knn(ds: &Dataset, q: &[f64], k: usize, measure: Measure) -> Vec<usize> {
    let mut all: Vec<(f64, usize)> = ds
        .rows()
        .enumerate()
        .map(|(i, row)| {
            let v = measures::evaluate(measure, row, q).expect("float measure");
            (v, i)
        })
        .collect();
    all.sort_by(|a, b| {
        let ord = a.0.partial_cmp(&b.0).unwrap();
        let ord = if measure.smaller_is_closer() {
            ord
        } else {
            ord.reverse()
        };
        ord.then(a.1.cmp(&b.1))
    });
    all.into_iter().take(k).map(|(_, i)| i).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn knn_standard_matches_full_sort(seed in 0u64..500, k in 1usize..=15) {
        let ds = generate(&SyntheticConfig {
            n: 90, d: 12, clusters: 3, cluster_std: 0.08, stat_uniformity: 0.2, seed,
        });
        let q: Vec<f64> = ds.row((seed % 90) as usize).to_vec();
        for measure in [Measure::EuclideanSq, Measure::Cosine, Measure::Pearson] {
            let fast = knn_standard(&ds, &q, k, measure).unwrap();
            prop_assert_eq!(fast.indices(), naive_knn(&ds, &q, k, measure), "{:?}", measure);
        }
    }

    #[test]
    fn hamming_knn_matches_full_sort(seed in 0u64..200, bits in prop::sample::select(vec![64usize, 128, 192])) {
        let base = generate(&SyntheticConfig {
            n: 70, d: 16, clusters: 3, cluster_std: 0.05, stat_uniformity: 0.0, seed,
        });
        let codes = lsh_codes(&base, bits, seed);
        let qi = (seed % 70) as usize;
        let fast = knn_hamming(&codes, &codes.row(qi), 7).unwrap();
        let mut all: Vec<(u32, usize)> = (0..codes.len())
            .map(|j| (codes.row(qi).hamming(&codes.row(j)), j))
            .collect();
        all.sort_by_key(|&(d, i)| (d, i));
        let naive: Vec<usize> = all.into_iter().take(7).map(|(_, i)| i).collect();
        prop_assert_eq!(fast.indices(), naive);
    }

    #[test]
    fn outlier_scores_match_naive(seed in 0u64..200) {
        let ds = generate(&SyntheticConfig {
            n: 60, d: 8, clusters: 2, cluster_std: 0.05, stat_uniformity: 0.0, seed,
        });
        let k = 4;
        let res = outliers_standard(&ds, k, 5);
        // Naive: each object's k-th NN distance via full sort.
        let mut scores: Vec<(f64, usize)> = (0..ds.len())
            .map(|i| {
                let mut dists: Vec<f64> = (0..ds.len())
                    .filter(|&j| j != i)
                    .map(|j| measures::euclidean_sq(ds.row(i), ds.row(j)))
                    .collect();
                dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
                (dists[k - 1], i)
            })
            .collect();
        scores.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let naive: Vec<usize> = scores.into_iter().take(5).map(|(_, i)| i).collect();
        prop_assert_eq!(res.indices(), naive);
    }
}

#[test]
fn kmeans_inertia_never_increases_across_iterations() {
    // Lloyd's monotone-descent property, checked by re-running with
    // growing iteration caps.
    use simpim::mining::kmeans::lloyd::kmeans_lloyd;
    use simpim::mining::kmeans::KmeansConfig;
    let ds = generate(&SyntheticConfig {
        n: 200,
        d: 16,
        clusters: 4,
        cluster_std: 0.05,
        stat_uniformity: 0.0,
        seed: 9,
    });
    let mut prev = f64::INFINITY;
    for iters in 1..8 {
        let res = kmeans_lloyd(
            &ds,
            &KmeansConfig {
                k: 4,
                max_iters: iters,
                seed: 3,
            },
            None,
        )
        .unwrap();
        assert!(
            res.inertia <= prev + 1e-9,
            "inertia rose at {iters}: {} > {prev}",
            res.inertia
        );
        prev = res.inertia;
    }
}
