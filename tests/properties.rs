//! Property-based tests over the whole stack (proptest): the correctness
//! invariants listed in DESIGN.md §5.

use proptest::prelude::*;
use simpim::core::pim_bounds::{
    error_bound_ed, host_floor_dot, lb_pim_ed, lb_pim_fnn, quantize_for_dot, quantize_for_ed,
    ub_pim_cs, ub_pim_pcc, FnnQuant,
};
use simpim::reram::{AccWidth, CrossbarConfig, PimArray, PimConfig, Read};
use simpim::similarity::measures::{cosine, euclidean_sq, pearson};
use simpim::similarity::{Quantizer, SegmentStats};

fn unit_vec(max_d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..=1.0, 1..=max_d)
}

fn unit_vec_pair(max_d: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1..=max_d).prop_flat_map(|d| {
        (
            prop::collection::vec(0.0f64..=1.0, d),
            prop::collection::vec(0.0f64..=1.0, d),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Invariant 1: Theorem 1 bound + Theorem 3 error envelope.
    #[test]
    fn lb_pim_ed_is_valid_and_tight((p, q) in unit_vec_pair(48), alpha_exp in 1u32..=6) {
        let alpha = 10f64.powi(alpha_exp as i32);
        let quant = Quantizer::identity(alpha).unwrap();
        let pq = quantize_for_ed(&quant, &p).unwrap();
        let qq = quantize_for_ed(&quant, &q).unwrap();
        let dot = host_floor_dot(&pq.floors, &qq.floors);
        let lb = lb_pim_ed(pq.phi, qq.phi, dot, p.len(), alpha);
        let ed = euclidean_sq(&p, &q);
        prop_assert!(lb <= ed + 1e-9);
        prop_assert!(ed - lb <= error_bound_ed(p.len(), alpha) + 1e-9);
    }

    // Invariant 2: LB_PIM-FNN ≤ LB_FNN ≤ ED.
    #[test]
    fn fnn_bound_chain_holds(
        seed in prop::collection::vec(0.0f64..=1.0, 24),
        seed_q in prop::collection::vec(0.0f64..=1.0, 24),
        d_prime in prop::sample::select(vec![1usize, 2, 3, 4, 6, 8, 12, 24]),
    ) {
        let alpha = 1e5;
        let (p, q) = (seed, seed_q);
        let fp = FnnQuant::compute(&p, d_prime, alpha).unwrap();
        let fq = FnnQuant::compute(&q, d_prime, alpha).unwrap();
        let dm = host_floor_dot(&fp.mu_floors, &fq.mu_floors);
        let dsg = host_floor_dot(&fp.sigma_floors, &fq.sigma_floors);
        let l = 24 / d_prime;
        let lb_pim = lb_pim_fnn(fp.phi, fq.phi, dm, dsg, d_prime, l, alpha);
        let sp = SegmentStats::compute(&p, d_prime).unwrap();
        let sq = SegmentStats::compute(&q, d_prime).unwrap();
        let lb_fnn: f64 = (0..d_prime)
            .map(|i| {
                let a = sp.means[i] - sq.means[i];
                let b = sp.stds[i] - sq.stds[i];
                l as f64 * (a * a + b * b)
            })
            .sum();
        prop_assert!(lb_pim <= lb_fnn + 1e-9);
        prop_assert!(lb_fnn <= euclidean_sq(&p, &q) + 1e-9);
    }

    // Invariant 3: CS/PCC upper bounds.
    #[test]
    fn similarity_upper_bounds_hold((p, q) in unit_vec_pair(48)) {
        let quant = Quantizer::identity(1e5).unwrap();
        let pq = quantize_for_dot(&quant, &p).unwrap();
        let qq = quantize_for_dot(&quant, &q).unwrap();
        let dot = host_floor_dot(&pq.floors, &qq.floors);
        prop_assert!(ub_pim_cs(&pq, &qq, dot, p.len()) >= cosine(&p, &q) - 1e-9);
        prop_assert!(ub_pim_pcc(&pq, &qq, dot, p.len()) >= pearson(&p, &q) - 1e-9);
    }

    // Invariant 7: quantization stays in range and under-approximates.
    #[test]
    fn quantization_is_monotone_and_bounded(v in unit_vec(64), alpha_exp in 1u32..=6) {
        let alpha = 10f64.powi(alpha_exp as i32);
        let quant = Quantizer::identity(alpha).unwrap();
        let qv = quant.quantize_vec(&v).unwrap();
        for (&f, &x) in qv.floors.iter().zip(&v) {
            prop_assert!(f64::from(f) <= x * alpha + 1e-9);
            prop_assert!(f64::from(f) >= x * alpha - 1.0);
            prop_assert!(f <= alpha as u32);
        }
    }

    // Invariant 4 (array level): PimArray matches the exact dot product
    // including gather trees and accumulator wrapping. Its unit-level half
    // and the strict-vs-fast agreement run in simpim-reram's unit tests
    // (`crossbar_pipeline_is_exact`, `strict_and_fast_paths_agree`), where
    // the bit-sliced oracle is compiled.
    #[test]
    fn pim_array_matches_exact_dot(
        rows in prop::collection::vec(prop::collection::vec(0u32..1024, 12), 1..=6),
        query in prop::collection::vec(0u32..1024, 12),
    ) {
        check_pim_array_dot(&rows, &query);
    }
}

/// Programs `rows` (12-dim, 10-bit operands) and checks one pass of
/// `query` and a shared read of it with its reverse against the exact
/// dot products.
fn check_pim_array_dot(rows: &[Vec<u32>], query: &[u32]) {
    let cfg = PimConfig {
        // 10-bit operands span 5 cells; an 8-wide crossbar forces the
        // 12-dim vectors through a 2-chunk gather tree.
        crossbar: CrossbarConfig {
            size: 8,
            cell_bits: 2,
            dac_bits: 2,
            adc_bits: 10,
            ..Default::default()
        },
        num_crossbars: 4096,
        ..Default::default()
    };
    let mut pim = PimArray::new(cfg).unwrap();
    let n = rows.len();
    let flat: Vec<u32> = rows.iter().flatten().copied().collect();
    let rep = pim.program_region(&flat, n, 12, 10).unwrap();
    let exact = |query: &[u32]| -> Vec<u64> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .zip(query)
                    .map(|(&a, &b)| u64::from(a) * u64::from(b))
                    .sum()
            })
            .collect()
    };
    let (vals, _) = pim.dot_batch(rep.region, query, AccWidth::U64).unwrap();
    assert_eq!(vals, exact(query));
    let reversed: Vec<u32> = query.iter().rev().copied().collect();
    let passes = [(rep.region, query), (rep.region, &reversed[..])];
    let shared = pim.read(&passes, AccWidth::U64, Read::Fine).unwrap();
    assert_eq!(shared[0].values, exact(query));
    assert_eq!(shared[1].values, exact(&reversed));
}

/// The one case the property above ever failed on, kept as a plain test:
/// all-zero rows and query — a region whose widest programmed operand has
/// no set bit, read alone and shared.
#[test]
fn pim_array_matches_exact_dot_on_an_all_zero_region() {
    check_pim_array_dot(&[vec![0; 12]], &[0; 12]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Invariant 5: cascade kNN equals linear scan on arbitrary clustered
    // data (heavier: fewer cases).
    #[test]
    fn cascade_knn_always_matches_scan(seed in 0u64..1000, k in 1usize..=20) {
        use simpim::datasets::{generate, sample_queries, SyntheticConfig};
        use simpim::mining::knn::algorithms::fnn_cascade;
        use simpim::mining::knn::cascade::knn_cascade;
        use simpim::mining::knn::standard::knn_standard;
        use simpim::similarity::Measure;
        let ds = generate(&SyntheticConfig {
            n: 120,
            d: 16,
            clusters: 3,
            cluster_std: 0.06,
            stat_uniformity: 0.3,
            seed,
        });
        let q = &sample_queries(&ds, 1, 0.05, seed)[0];
        let cascade = fnn_cascade(&ds).unwrap();
        let truth = knn_standard(&ds, q, k, Measure::EuclideanSq).unwrap();
        let got = knn_cascade(&ds, &cascade, q, k, Measure::EuclideanSq).unwrap();
        prop_assert_eq!(got.indices(), truth.indices());
    }

    // Invariant 6: Theorem 4's choice always fits and is maximal.
    #[test]
    fn theorem4_choice_fits_and_is_maximal(
        n in 1usize..200_000,
        d in prop::sample::select(vec![90usize, 128, 150, 420, 500, 960]),
        budget in 64usize..=8192,
    ) {
        use simpim::core::choose_dimensionality;
        use simpim::reram::gather::dataset_crossbar_cost;
        let cfg = PimConfig { num_crossbars: budget, ..Default::default() };
        match choose_dimensionality(n, d, 2, 32, &cfg) {
            Ok(plan) => {
                prop_assert!(plan.total_crossbars() <= budget);
                prop_assert_eq!(d % plan.s, 0);
                // Maximality: the next divisor must overflow.
                if let Some(next) = (plan.s + 1..=d).find(|s| d % s == 0) {
                    let c = dataset_crossbar_cost(n, next, 32, &cfg.crossbar).unwrap();
                    prop_assert!(c.total() * 2 > budget);
                }
            }
            Err(_) => {
                // Even s = 1 must genuinely overflow.
                let c = dataset_crossbar_cost(n, 1, 32, &cfg.crossbar).unwrap();
                prop_assert!(c.total() * 2 > budget);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Invariant 9 (fault tolerance): injected crossbar faults — stuck-at
    // cells, dead bitlines without spare capacity, and write-endurance
    // wear-out — never change what the miners return. Guard-banded bounds
    // stay valid, dead objects are quarantined and refined exactly on the
    // host, and worn crossbars are remapped at the next scrub; kNN top-k
    // and k-means assignments are bit-identical to the fault-free run.
    #[test]
    fn faulty_pim_mining_matches_fault_free(seed in 0u64..1000) {
        use simpim::core::executor::{ExecutorConfig, PimExecutor};
        use simpim::datasets::{generate, sample_queries, SyntheticConfig};
        use simpim::mining::kmeans::lloyd::kmeans_lloyd;
        use simpim::mining::kmeans::pim::PimAssist;
        use simpim::mining::kmeans::KmeansConfig;
        use simpim::mining::knn::pim::knn_pim_ed;
        use simpim::mining::knn::standard::knn_standard;
        use simpim::reram::FaultConfig;
        use simpim::similarity::{Measure, NormalizedDataset};
        use simpim_bounds::BoundCascade;

        let ds = generate(&SyntheticConfig {
            n: 96,
            d: 32,
            clusters: 4,
            cluster_std: 0.05,
            stat_uniformity: 0.0,
            seed,
        });
        let queries = sample_queries(&ds, 2, 0.02, seed ^ 0xA5);
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let k = 5;
        let km_cfg = KmeansConfig { k: 3, max_iters: 4, seed: 1 };

        // Fault-free references.
        let reference: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| knn_standard(&ds, q, k, Measure::EuclideanSq).unwrap().indices())
            .collect();
        let km_base = kmeans_lloyd(&ds, &km_cfg, None).unwrap();
        let clean = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds).unwrap();
        let budget = clean.report().crossbars_used;

        // Scenario 1 — stuck-at cells: isolated corrupted cells drift the
        // measured dots; the executor widens the bounds by the Theorem-3
        // style guard band and stays exact.
        let stuck = ExecutorConfig {
            faults: Some(FaultConfig {
                stuck_low_rate: 0.01,
                stuck_high_rate: 0.01,
                seed: seed ^ 0x57,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut exec = PimExecutor::prepare_euclidean(stuck, &nds).unwrap();
        for (q, want) in queries.iter().zip(&reference) {
            let got = knn_pim_ed(&mut exec, &ds, &BoundCascade::empty(), q, k).unwrap();
            prop_assert_eq!(&got.indices(), want, "stuck-at kNN diverged");
        }
        {
            let mut assist = PimAssist::new(&mut exec);
            let km = kmeans_lloyd(&ds, &km_cfg, Some(&mut assist)).unwrap();
            prop_assert_eq!(&km.assignments, &km_base.assignments, "stuck-at k-means diverged");
        }
        let fc = *exec.fault_counters();
        prop_assert!(fc.faults_detected > 0, "stuck-at must inject faults: {:?}", fc);
        prop_assert!(
            fc.guarded_bounds + fc.fallback_refinements > 0,
            "drifted objects must take the guarded or fallback path: {:?}", fc
        );

        // Scenario 2 — dead bitlines with zero spare capacity: the dead
        // objects cannot be remapped, so they are quarantined and every
        // batch recovers them by exact host-side refinement.
        let mut dead = ExecutorConfig {
            faults: Some(FaultConfig {
                dead_bitline_rate: 0.15,
                seed: seed ^ 0xD1ED,
                ..Default::default()
            }),
            ..Default::default()
        };
        dead.pim.num_crossbars = budget;
        let mut exec = PimExecutor::prepare_euclidean(dead, &nds).unwrap();
        for (q, want) in queries.iter().zip(&reference) {
            let got = knn_pim_ed(&mut exec, &ds, &BoundCascade::empty(), q, k).unwrap();
            prop_assert_eq!(&got.indices(), want, "dead-bitline kNN diverged");
        }
        {
            let mut assist = PimAssist::new(&mut exec);
            let km = kmeans_lloyd(&ds, &km_cfg, Some(&mut assist)).unwrap();
            prop_assert_eq!(&km.assignments, &km_base.assignments, "dead-bitline k-means diverged");
        }
        let fc = *exec.fault_counters();
        prop_assert!(fc.quarantined_rows > 0, "no spares: must quarantine: {:?}", fc);
        prop_assert!(fc.fallback_refinements > 0, "quarantined rows need host fallback: {:?}", fc);

        // Scenario 3 — write-endurance wear-out: the array ages past its
        // endurance limit between batches; the periodic scrub detects the
        // worn (dead) crossbars and remaps them onto fresh spares.
        let worn = ExecutorConfig {
            faults: Some(FaultConfig {
                endurance_limit: 5,
                seed: seed ^ 0xEA2,
                ..Default::default()
            }),
            scrub_interval: 1,
            ..Default::default()
        };
        let mut exec = PimExecutor::prepare_euclidean(worn, &nds).unwrap();
        exec.bank_mut().pim_mut().age_crossbars(10);
        for (q, want) in queries.iter().zip(&reference) {
            let got = knn_pim_ed(&mut exec, &ds, &BoundCascade::empty(), q, k).unwrap();
            prop_assert_eq!(&got.indices(), want, "wear-out kNN diverged");
        }
        {
            let mut assist = PimAssist::new(&mut exec);
            let km = kmeans_lloyd(&ds, &km_cfg, Some(&mut assist)).unwrap();
            prop_assert_eq!(&km.assignments, &km_base.assignments, "wear-out k-means diverged");
        }
        let fc = *exec.fault_counters();
        prop_assert!(
            fc.remapped_crossbars > 0,
            "worn crossbars must be remapped onto fresh spares: {:?}", fc
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Invariant 9: streamed materialization is block-size invariant. Every
    // dataset source yields the exact same rows whether pulled in one
    // block or many — the contract that lets `serve` program banks
    // block-by-block (bounded peak RSS) without changing a single answer.
    #[test]
    fn synth_streaming_is_block_size_invariant(
        seed in 0u64..500,
        n in 1usize..70,
        block in prop::sample::select(vec![1usize, 7, usize::MAX]),
    ) {
        use simpim::datasets::{DatasetSource, SynthSource, SyntheticConfig};
        let cfg = SyntheticConfig { n, d: 6, clusters: 3, cluster_std: 0.07, stat_uniformity: 0.4, seed };
        let one_shot = SynthSource::new(cfg).materialize();
        let mut src = SynthSource::new(cfg);
        let mut streamed = Vec::new();
        while src.position() < src.total() {
            let got = src.next_block(block.min(n), &mut streamed);
            prop_assert!(got > 0, "source drained early at {}", src.position());
        }
        let flat: Vec<f64> = (0..one_shot.len()).flat_map(|i| one_shot.row(i).to_vec()).collect();
        prop_assert_eq!(streamed, flat);
    }

    // Invariant 9 for sliding time-series windows.
    #[test]
    fn timeseries_streaming_is_block_size_invariant(
        seed in 0u64..500,
        block in prop::sample::select(vec![1usize, 7, usize::MAX]),
    ) {
        use simpim::datasets::{DatasetSource, TimeseriesWindowSource};
        use simpim::datasets::timeseries::SeriesConfig;
        let cfg = SeriesConfig { len: 90, pattern_len: 8, noise: 0.02, seed };
        let one_shot = TimeseriesWindowSource::new(&cfg, 8).materialize();
        let mut src = TimeseriesWindowSource::new(&cfg, 8);
        let mut buf = Vec::new();
        let mut streamed = simpim::similarity::Dataset::with_dim(8).unwrap();
        while src.position() < src.total() {
            buf.clear();
            prop_assert!(src.next_block(block.min(src.total()), &mut buf) > 0);
            for row in buf.chunks_exact(8) { streamed.push(row).unwrap(); }
        }
        prop_assert_eq!(streamed, one_shot);
    }

    // Invariant 9 for LSH binary codes.
    #[test]
    fn lsh_code_streaming_is_block_size_invariant(
        seed in 0u64..500,
        n in 1usize..70,
        block in prop::sample::select(vec![1usize, 7, usize::MAX]),
    ) {
        use simpim::datasets::{LshCodeSource, SynthSource, SyntheticConfig};
        use simpim::similarity::BinaryDataset;
        let cfg = SyntheticConfig { n, d: 6, clusters: 3, cluster_std: 0.07, stat_uniformity: 0.4, seed };
        let one_shot = LshCodeSource::new(SynthSource::new(cfg), 32, seed ^ 0x15).materialize();
        let mut src = LshCodeSource::new(SynthSource::new(cfg), 32, seed ^ 0x15);
        let mut streamed = BinaryDataset::with_bits(32).unwrap();
        while src.position() < src.total() {
            prop_assert!(src.next_codes(block.min(n), &mut streamed) > 0);
        }
        prop_assert_eq!(streamed, one_shot);
    }

    // Invariant 10: mid-stream resume. Skipping to any row and reading on
    // reproduces exactly the suffix a fresh full read yields, and a reset
    // source replays the identical stream — what re-replication relies on
    // to program a replacement bank without a host-side dataset snapshot.
    #[test]
    fn mid_stream_resume_reproduces_rows(
        seed in 0u64..500,
        n in 2usize..70,
        frac in 0.0f64..1.0,
    ) {
        use simpim::datasets::{DatasetSource, SynthSource, SyntheticConfig};
        let cfg = SyntheticConfig { n, d: 5, clusters: 2, cluster_std: 0.05, stat_uniformity: 0.6, seed };
        let full = SynthSource::new(cfg).materialize();
        let k = ((n as f64 * frac) as usize).min(n - 1);
        let mut src = SynthSource::new(cfg);
        src.skip(k);
        prop_assert_eq!(src.position(), k);
        let mut suffix = Vec::new();
        while src.position() < src.total() {
            prop_assert!(src.next_block(3, &mut suffix) > 0);
        }
        let want: Vec<f64> = (k..n).flat_map(|i| full.row(i).to_vec()).collect();
        prop_assert_eq!(&suffix, &want);
        // And a reset replays the whole stream bit-identically.
        src.reset();
        prop_assert_eq!(src.position(), 0);
        prop_assert_eq!(src.materialize(), full);
    }
}
