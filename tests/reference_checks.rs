//! Reference-implementation cross-checks: every optimized search must
//! agree with an independently written naive implementation (not just
//! with each other).

use proptest::prelude::*;
use simpim::core::executor::{ExecutorConfig, PimExecutor};
use simpim::datasets::timeseries::{generate_series, SeriesConfig};
use simpim::datasets::{generate, lsh_codes, SyntheticConfig};
use simpim::mining::dbscan::{dbscan, DbscanLabel};
use simpim::mining::knn::hamming::knn_hamming;
use simpim::mining::knn::standard::knn_standard;
use simpim::mining::motif::{discord_pim, discord_standard, motif_pim, motif_standard};
use simpim::mining::outlier::{outliers_pim, outliers_standard};
use simpim::mining::RunReport;
use simpim::reram::FaultConfig;
use simpim::similarity::{measures, Dataset, Measure, NormalizedDataset};

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
        let res = outliers_standard(&ds, k, 5).unwrap();
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

/// FNV-1a over the observable fields of an offline-task run.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Each profile function's counters and calls, and the PIM timing bits.
    fn report(&mut self, r: &RunReport) {
        for name in r.profile.names() {
            let rec = r.profile.get(name).unwrap();
            let c = rec.counters;
            self.eat(name.as_bytes());
            for v in [
                c.arith,
                c.mul,
                c.div,
                c.sqrt,
                c.cmp,
                c.branch,
                c.bytes_streamed,
                c.random_fetches,
                c.bytes_written,
                rec.calls,
            ] {
                self.u64(v);
            }
        }
        let t = &r.pim;
        for v in [t.data_pass_ns, t.gather_ns, t.bus_ns, t.buffer_ns] {
            self.f64(v);
        }
        self.u64(t.buffer_waves);
    }
}

#[test]
fn offline_tasks_are_pinned() {
    // Every answer and every report field of DBSCAN, outliers, motif and
    // discord: as baseline, on a clean PIM executor, and on a faulty one
    // whose scrub (every 3 passes) falls inside a batch of anchors. The
    // constant was recorded while each task still fetched its bounds one
    // anchor at a time; any change to what a run computes or charges
    // moves it.
    const PINNED: u64 = 0x4128_ef14_8474_5fc3;
    let faulty = ExecutorConfig {
        faults: Some(FaultConfig {
            stuck_low_rate: 0.01,
            stuck_high_rate: 0.01,
            adc_glitch_rate: 0.01,
            seed: 0x0FF1,
            ..Default::default()
        }),
        scrub_interval: 3,
        ..Default::default()
    };
    let archs = [
        ("host", None),
        ("pim", Some(ExecutorConfig::default())),
        ("faulty", Some(faulty)),
    ];
    let ds = generate(&SyntheticConfig {
        n: 150,
        d: 16,
        clusters: 3,
        cluster_std: 0.02,
        stat_uniformity: 0.0,
        seed: 99,
    });
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    let exec = |cfg| PimExecutor::prepare_euclidean(cfg, &nds).unwrap();
    let series = generate_series(&SeriesConfig {
        len: 400,
        pattern_len: 32,
        noise: 0.02,
        seed: 0xABCD,
    })
    .values;

    let mut all = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |what: String, h: Fnv| {
        eprintln!("{what}: {:016x}", h.0);
        all = (all ^ h.0).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (arch, cfg) in archs {
        for eps in [1e-6, 0.25, 10.0] {
            for min_pts in [1usize, 4] {
                let mut e = cfg.map(exec);
                let r = dbscan(&ds, eps, min_pts, e.as_mut()).unwrap();
                let mut h = Fnv::new();
                for l in &r.labels {
                    h.u64(match l {
                        DbscanLabel::Noise => u64::MAX,
                        DbscanLabel::Cluster(c) => *c as u64,
                    });
                }
                h.u64(r.clusters as u64);
                h.report(&r.report);
                fold(format!("dbscan-{arch} eps={eps} min_pts={min_pts}"), h);
            }
        }
        for (k, m) in [(1usize, 1usize), (4, 5), (10, 8)] {
            let r = match cfg {
                None => outliers_standard(&ds, k, m).unwrap(),
                Some(c) => outliers_pim(&mut exec(c), &ds, k, m).unwrap(),
            };
            let mut h = Fnv::new();
            for &(i, score) in &r.outliers {
                h.u64(i as u64);
                h.f64(score);
            }
            h.report(&r.report);
            fold(format!("outliers-{arch} k={k} m={m}"), h);
        }
        for w in [8usize, 32] {
            let r = match cfg {
                None => motif_standard(&series, w).unwrap(),
                Some(c) => motif_pim(&series, w, c).unwrap(),
            };
            let mut h = Fnv::new();
            h.u64(r.pair.0 as u64);
            h.u64(r.pair.1 as u64);
            h.f64(r.distance);
            h.report(&r.report);
            fold(format!("motif-{arch} w={w}"), h);

            let r = match cfg {
                None => discord_standard(&series, w).unwrap(),
                Some(c) => discord_pim(&series, w, c).unwrap(),
            };
            let mut h = Fnv::new();
            h.u64(r.position as u64);
            h.f64(r.score);
            h.report(&r.report);
            fold(format!("discord-{arch} w={w}"), h);
        }
    }
    assert_eq!(all, PINNED, "got {all:#018x}; per-run hashes above");
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
