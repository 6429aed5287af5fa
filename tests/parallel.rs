//! Determinism tests for the `simpim-par` execution layer (DESIGN.md §10):
//! every parallelized path — the kNN refinement walks, all four k-means
//! assign steps, the PIM dot-product batches — must return bit-identical
//! results (values *and* instrumentation counters) for `SIMPIM_THREADS`
//! in {1, 2, 8}, with the packed word-wide MAC kernel agreeing with the
//! scalar reference, and with injected crossbar faults in the loop.
//!
//! The last four tests pin what the persistent pool under `join_all` owes
//! its callers beyond determinism: nested and concurrent dispatches
//! complete, a job's panic reaches the caller and spares the pool, and a
//! helper's spans are drainable when `join_all` returns.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use simpim::core::executor::{ExecutorConfig, PimExecutor};
use simpim::datasets::{generate, sample_queries, SyntheticConfig};
use simpim::mining::kmeans::drake::kmeans_drake;
use simpim::mining::kmeans::elkan::kmeans_elkan;
use simpim::mining::kmeans::lloyd::kmeans_lloyd;
use simpim::mining::kmeans::yinyang::kmeans_yinyang;
use simpim::mining::kmeans::{KmeansConfig, KmeansResult};
use simpim::mining::knn::algorithms::fnn_cascade;
use simpim::mining::knn::cascade::knn_cascade;
use simpim::mining::knn::pim::knn_pim_ed;
use simpim::mining::knn::KnnResult;
use simpim::par;
use simpim::reram::{CrossbarConfig, FaultConfig, PimConfig};
use simpim::similarity::{Dataset, Measure, NormalizedDataset};
use simpim_bounds::BoundCascade;

/// The thread override in `simpim-par` is process-global; serialize the
/// tests that flip it so each one observes the counts it requested.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const THREADS: [usize; 3] = [1, 2, 8];

/// Neighbor lists compared down to the float bit pattern.
fn bits(neighbors: &[(usize, f64)]) -> Vec<(usize, u64)> {
    neighbors.iter().map(|&(i, v)| (i, v.to_bits())).collect()
}

fn workload(seed: u64) -> (Dataset, Vec<f64>) {
    let ds = generate(&SyntheticConfig {
        n: 140,
        d: 24,
        clusters: 4,
        cluster_std: 0.05,
        stat_uniformity: 0.2,
        seed,
    });
    let q = sample_queries(&ds, 1, 0.03, seed ^ 0x3C).remove(0);
    (ds, q)
}

fn small_exec_cfg(faults: Option<FaultConfig>) -> ExecutorConfig {
    ExecutorConfig {
        pim: PimConfig {
            crossbar: CrossbarConfig {
                size: 16,
                adc_bits: 12,
                ..Default::default()
            },
            num_crossbars: 8192,
            ..Default::default()
        },
        alpha: 1e6,
        operand_bits: 32,
        double_buffer: false,
        parallel_regions: true,
        faults,
        scrub_interval: 0,
    }
}

/// Asserts two kNN runs are indistinguishable: same neighbors to the bit,
/// same operation counters (the counter equality is the sharp check — a
/// thread-count-dependent chunk schedule would change prune/eval counts
/// long before it changed the top-k).
fn assert_same_knn(a: &KnnResult, b: &KnnResult, what: &str) {
    assert_eq!(bits(&a.neighbors), bits(&b.neighbors), "{what}: neighbors");
    assert_eq!(
        a.report.profile.total_counters(),
        b.report.profile.total_counters(),
        "{what}: counters"
    );
}

fn assert_same_kmeans(a: &KmeansResult, b: &KmeansResult, what: &str) {
    assert_eq!(a.assignments, b.assignments, "{what}: assignments");
    assert_eq!(
        a.inertia.to_bits(),
        b.inertia.to_bits(),
        "{what}: inertia bits"
    );
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(
        a.report.profile.total_counters(),
        b.report.profile.total_counters(),
        "{what}: counters"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cascade_knn_bit_identical_across_thread_counts(seed in 0u64..1000, k in 1usize..=15) {
        let _g = lock();
        let (ds, q) = workload(seed);
        let cascade = fnn_cascade(&ds).unwrap();
        let runs: Vec<KnnResult> = THREADS
            .iter()
            .map(|&t| {
                par::with_threads(t, || {
                    knn_cascade(&ds, &cascade, &q, k, Measure::EuclideanSq).unwrap()
                })
            })
            .collect();
        assert_same_knn(&runs[0], &runs[1], "threads 1 vs 2");
        assert_same_knn(&runs[0], &runs[2], "threads 1 vs 8");
    }

    #[test]
    fn kmeans_bit_identical_across_thread_counts(seed in 0u64..1000, k in 2usize..=8) {
        let _g = lock();
        let (ds, _) = workload(seed);
        let cfg = KmeansConfig { k, max_iters: 12, seed: 7 };
        type Algo = fn(&Dataset, &KmeansConfig) -> KmeansResult;
        let algos: [(&str, Algo); 4] = [
            ("lloyd", |d, c| kmeans_lloyd(d, c, None).unwrap()),
            ("elkan", |d, c| kmeans_elkan(d, c, None).unwrap()),
            ("drake", |d, c| kmeans_drake(d, c, None).unwrap()),
            ("yinyang", |d, c| kmeans_yinyang(d, c, None).unwrap()),
        ];
        for (name, algo) in algos {
            let runs: Vec<KmeansResult> = THREADS
                .iter()
                .map(|&t| par::with_threads(t, || algo(&ds, &cfg)))
                .collect();
            assert_same_kmeans(&runs[0], &runs[1], &format!("{name} threads 1 vs 2"));
            assert_same_kmeans(&runs[0], &runs[2], &format!("{name} threads 1 vs 8"));
        }
    }

    #[test]
    fn faulty_pim_knn_bit_identical_across_thread_counts(seed in 0u64..300, k in 1usize..=10) {
        let _g = lock();
        let (ds, q) = workload(seed);
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let faults = Some(FaultConfig {
            stuck_low_rate: 0.01,
            stuck_high_rate: 0.01,
            seed: seed ^ 0x57,
            ..Default::default()
        });
        // A fresh executor per thread count: fault injection and scrub
        // state are part of the executor, and the comparison must cover
        // the guarded/fallback paths end to end.
        let runs: Vec<KnnResult> = THREADS
            .iter()
            .map(|&t| {
                par::with_threads(t, || {
                    let mut exec =
                        PimExecutor::prepare_euclidean(small_exec_cfg(faults), &nds).unwrap();
                    knn_pim_ed(&mut exec, &ds, &BoundCascade::empty(), &q, k).unwrap()
                })
            })
            .collect();
        assert_same_knn(&runs[0], &runs[1], "faulty threads 1 vs 2");
        assert_same_knn(&runs[0], &runs[2], "faulty threads 1 vs 8");
    }

    #[test]
    fn packed_mac_matches_scalar_at_any_thread_count(
        n in 1usize..6,
        s in prop::sample::select(vec![3usize, 4, 8, 12, 24]),
        seed in 0u64..1000,
    ) {
        use simpim::reram::{AccWidth, PimArray};
        let _g = lock();
        let cfg = PimConfig {
            crossbar: CrossbarConfig {
                size: 8,
                cell_bits: 2,
                dac_bits: 2,
                adc_bits: 12,
                ..Default::default()
            },
            num_crossbars: 4096,
            ..Default::default()
        };
        let data: Vec<u32> = (0..n * s).map(|i| ((i as u64 * 31 + seed * 7) % 16) as u32).collect();
        let query: Vec<u32> = (0..s).map(|i| ((i as u64 * 13 + seed * 3) % 16) as u32).collect();
        let mut pim = PimArray::new(cfg).unwrap();
        let rep = pim.program_region(&data, n, s, 4).unwrap();
        // The strict path runs the packed word-wide MAC kernel on
        // materialized crossbars; the fast path is the scalar host
        // reference. Both must agree, and the fast path must return the
        // same bits at every thread count.
        let strict = pim.dot_batch_strict(rep.region, &query, AccWidth::U64).unwrap();
        let per_threads: Vec<Vec<u64>> = THREADS
            .iter()
            .map(|&t| par::with_threads(t, || {
                pim.dot_batch(rep.region, &query, AccWidth::U64).unwrap().0
            }))
            .collect();
        prop_assert_eq!(&per_threads[0], &strict);
        prop_assert_eq!(&per_threads[0], &per_threads[1]);
        prop_assert_eq!(&per_threads[0], &per_threads[2]);
    }
}

fn squares(n: usize) -> Vec<par::Job<'static, usize>> {
    (0..n)
        .map(|i| Box::new(move || i * i) as par::Job<'_, usize>)
        .collect()
}

#[test]
fn nested_dispatch_completes() {
    let _g = lock();
    let sums = par::with_threads(2, || {
        par::join_all(
            (0..4usize)
                .map(|i| {
                    Box::new(move || par::join_all(squares(8 + i)).iter().sum::<usize>())
                        as par::Job<'_, usize>
                })
                .collect(),
        )
    });
    let want: Vec<usize> = (0..4)
        .map(|i| (0..8 + i).map(|j| j * j).sum::<usize>())
        .collect();
    assert_eq!(sums, want);
}

#[test]
fn concurrent_dispatchers_each_get_their_own_results_in_order() {
    let _g = lock();
    let go = std::sync::Barrier::new(4);
    par::with_threads(2, || {
        std::thread::scope(|s| {
            for t in 0..4usize {
                let go = &go;
                s.spawn(move || {
                    go.wait();
                    for round in 0..200usize {
                        let tag = t * 1_000_000 + round * 100;
                        let got = par::join_all(
                            (0..16usize)
                                .map(|i| Box::new(move || tag + i) as par::Job<'_, usize>)
                                .collect(),
                        );
                        assert_eq!(got, (tag..tag + 16).collect::<Vec<_>>());
                    }
                });
            }
        });
    });
}

#[test]
fn a_panicking_job_reaches_the_caller_and_spares_the_pool() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let _g = lock();
    let ran = AtomicUsize::new(0);
    let caught = par::with_threads(2, || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par::join_all(
                (0..6usize)
                    .map(|i| {
                        let ran = &ran;
                        Box::new(move || {
                            if i == 3 {
                                std::panic::panic_any("job 3 failed");
                            }
                            ran.fetch_add(1, Ordering::Relaxed);
                        }) as par::Job<'_, ()>
                    })
                    .collect(),
            )
        }))
    });
    let payload = caught.expect_err("the job's panic is re-raised");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 3 failed"));
    assert_eq!(ran.into_inner(), 5, "the other jobs still ran");
    for threads in THREADS {
        let got = par::with_threads(threads, || par::join_all(squares(50)));
        assert_eq!(got, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }
}

#[test]
fn a_helpers_spans_are_drainable_when_join_all_returns() {
    use simpim::obs::trace;
    let _g = lock();
    trace::enable(1024);
    // Both jobs must be running to pass the barrier, so one of them is on
    // a helper, whose journal is not the caller's.
    let both = std::sync::Barrier::new(2);
    par::with_threads(2, || {
        par::join_all(
            (0..2)
                .map(|_| {
                    let both = &both;
                    Box::new(move || {
                        let _span = trace::open_span("par.test.job", &[]);
                        both.wait();
                    }) as par::Job<'_, ()>
                })
                .collect(),
        )
    });
    let spans = trace::drain_all();
    trace::disable();
    let jobs = spans.iter().filter(|r| r.name == "par.test.job").count();
    assert_eq!(jobs, 2, "the caller's span and the helper's span");
}
