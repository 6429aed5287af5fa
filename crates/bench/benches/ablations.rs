//! Ablation benches for the design choices DESIGN.md calls out. These are
//! model-quality studies (printed once per run) wrapped in Criterion so
//! `cargo bench` exercises them; the interesting output is the printed
//! tables, not the wall times.
//!
//! * **α sweep** — Theorem 3: bound tightness / pruning vs α.
//! * **crossbar geometry** — Theorem 4's `s` and the modeled batch latency
//!   across m × h configurations.
//! * **gather tree vs host aggregation** — what the all-ones gather tree
//!   buys over shipping partials to the CPU.
//! * **planner** — exhaustive 2^L vs greedy plan quality.

use criterion::{criterion_group, criterion_main, Criterion};
use simpim_bounds::BoundStage;
use simpim_core::executor::{ExecutorConfig, PimExecutor};
use simpim_core::planner::{CandidateBound, Planner};
use simpim_core::stage::PimStage;
use simpim_core::{choose_dimensionality, PruningProfile};
use simpim_datasets::{generate, sample_queries, SyntheticConfig};
use simpim_reram::{CrossbarConfig, PimConfig};
use simpim_similarity::{Measure, NormalizedDataset};
use std::hint::black_box;
use std::sync::Once;

static PRINT_ONCE: Once = Once::new();

fn workload() -> (simpim_similarity::Dataset, Vec<Vec<f64>>) {
    let ds = generate(&SyntheticConfig {
        n: 3_000,
        d: 420,
        clusters: 16,
        cluster_std: 0.05,
        stat_uniformity: 0.05,
        seed: 9,
    });
    let qs = sample_queries(&ds, 3, 0.02, 10);
    (ds, qs)
}

fn ablation_tables() {
    let (ds, qs) = workload();
    let nds = NormalizedDataset::assert_normalized(ds.clone());

    // α sweep (Theorem 3).
    println!("\n--- ablation: α sweep (LB_PIM-FNN^105, MSD-shaped) ---");
    println!(
        "{:>10} {:>12} {:>12}",
        "alpha", "error bound", "prune ratio"
    );
    for alpha in [1e1, 1e2, 1e3, 1e4, 1e6] {
        let stage = PimStage::fnn(&nds, 105, alpha).unwrap();
        let r = PruningProfile::measure(&[&stage], &ds, &qs, 10, Measure::EuclideanSq).unwrap()[0];
        println!(
            "{:>10.0} {:>12.4} {:>11.1}%",
            alpha,
            simpim_core::pim_bounds::error_bound_fnn(ds.dim(), alpha),
            r * 100.0
        );
    }

    // Crossbar geometry (Theorem 4 + batch latency).
    println!("\n--- ablation: crossbar geometry (N=3000, d=420, b=32, C=1311) ---");
    println!(
        "{:>6} {:>4} {:>8} {:>12} {:>14}",
        "m", "h", "s", "crossbars", "batch ns"
    );
    for (m, h) in [
        (64usize, 2u32),
        (128, 2),
        (256, 2),
        (512, 2),
        (256, 1),
        (256, 4),
    ] {
        let cfg = PimConfig {
            crossbar: CrossbarConfig {
                size: m,
                cell_bits: h,
                // Covers the worst-case column sum m·(2^h − 1)·(2^2 − 1).
                adc_bits: h + 2 + (m as f64).log2().ceil() as u32,
                ..Default::default()
            },
            num_crossbars: 1311,
            ..Default::default()
        };
        match choose_dimensionality(3_000, 420, 4, 32, &cfg) {
            Ok(plan) => {
                let exec_cfg = ExecutorConfig {
                    pim: cfg,
                    ..Default::default()
                };
                match PimExecutor::prepare_fnn(exec_cfg, &nds, plan.s) {
                    Ok(mut exec) => {
                        let batch = exec.lb_ed_batch(&qs[0]).unwrap();
                        println!(
                            "{:>6} {:>4} {:>8} {:>12} {:>14.0}",
                            m,
                            h,
                            plan.s,
                            plan.total_crossbars(),
                            batch.timing.total_ns()
                        );
                    }
                    Err(e) => println!("{m:>6} {h:>4} {:>8} (executor: {e})", plan.s),
                }
            }
            Err(_) => println!("{m:>6} {h:>4}   does not fit"),
        }
    }

    // Gather tree vs host aggregation (Trevi-like d ≫ m).
    println!("\n--- ablation: gather tree vs host aggregation (d=4096, m=256) ---");
    let wide = generate(&SyntheticConfig {
        n: 500,
        d: 4096,
        clusters: 8,
        cluster_std: 0.05,
        stat_uniformity: 0.1,
        seed: 11,
    });
    let wide_nds = NormalizedDataset::assert_normalized(wide.clone());
    let cfg = ExecutorConfig::default();
    let mut exec = PimExecutor::prepare_euclidean(cfg, &wide_nds).unwrap();
    let q: Vec<f64> = wide.row(0).to_vec();
    let batch = exec.lb_ed_batch(&q).unwrap();
    let chunks = 4096usize.div_ceil(256);
    // Host aggregation would ship `chunks` partials per object instead of 1.
    let host_extra_bytes = (wide.len() * (chunks - 1) * 8) as u64;
    let host_extra_ns = simpim_bench::params().stream_time_ns(host_extra_bytes);
    println!(
        "gather tree : {:>10.0} ns PIM-side (gather {:.0} ns)",
        batch.timing.total_ns(),
        batch.timing.gather_ns
    );
    println!(
        "host aggregation alternative: +{:.0} ns of extra host transfer ({} partials/object)",
        host_extra_ns, chunks
    );

    // Mean-only LB_PIM-SM^{2s} vs µ/σ LB_PIM-FNN^{s}: equal crossbar
    // budget (SM needs one region, FNN two) — which prunes better?
    println!("\n--- ablation: SM^2s (1 region) vs FNN^s (2 regions), equal budget ---");
    println!(
        "{:>18} {:>12} {:>14}",
        "bound", "prune ratio", "bytes/object"
    );
    for (name, ratio, bytes) in [
        {
            let st = PimStage::sm(&nds, 210, 1e6).unwrap();
            let r = PruningProfile::measure(&[&st], &ds, &qs, 10, Measure::EuclideanSq).unwrap()[0];
            ("LB_PIM-SM^210", r, st.transfer_bytes_per_object())
        },
        {
            let st = PimStage::fnn(&nds, 105, 1e6).unwrap();
            let r = PruningProfile::measure(&[&st], &ds, &qs, 10, Measure::EuclideanSq).unwrap()[0];
            ("LB_PIM-FNN^105", r, st.transfer_bytes_per_object())
        },
    ] {
        println!("{name:>18} {:>11.1}% {bytes:>14}", ratio * 100.0);
    }

    // Parallel vs serial region execution, and serial-sum vs pipelined
    // end-to-end accounting.
    println!("\n--- ablation: region parallelism & CPU/PIM pipelining ---");
    {
        use simpim_mining::knn::pim::knn_pim_ed;
        use simpim_mining::knn::standard::knn_standard;
        let params = simpim_bench::params();
        for parallel in [true, false] {
            let cfg = ExecutorConfig {
                pim: PimConfig {
                    num_crossbars: 1311,
                    ..Default::default()
                },
                parallel_regions: parallel,
                ..Default::default()
            };
            // Force the two-region µ/σ bound so region parallelism has
            // something to overlap.
            let mut exec = PimExecutor::prepare_fnn(cfg, &nds, 105).unwrap();
            let res = knn_pim_ed(
                &mut exec,
                &ds,
                &simpim_bounds::BoundCascade::empty(),
                &qs[0],
                10,
            )
            .unwrap();
            println!(
                "regions {}: PIM {:.0} ns | serial-sum {:.0} ns | pipelined {:.0} ns",
                if parallel { "parallel" } else { "serial  " },
                res.report.pim.total_ns(),
                res.report.total_ns(&params),
                res.report.total_ns_pipelined(&params),
            );
        }
        let base = knn_standard(&ds, &qs[0], 10, simpim_similarity::Measure::EuclideanSq).unwrap();
        println!("baseline Standard: {:.0} ns", base.report.total_ns(&params));
    }

    // Planner: exhaustive vs greedy.
    println!("\n--- ablation: plan enumeration, exhaustive 2^L vs greedy ---");
    let planner = Planner {
        refine_bytes_per_object: 420 * 8,
        n: 1_000_000,
    };
    let cands = vec![
        CandidateBound {
            name: "LB_FNN^6".into(),
            transfer_bytes: 96,
            pruning_ratio: 0.55,
            is_pim: false,
        },
        CandidateBound {
            name: "LB_FNN^28".into(),
            transfer_bytes: 448,
            pruning_ratio: 0.95,
            is_pim: false,
        },
        CandidateBound {
            name: "LB_FNN^105".into(),
            transfer_bytes: 1680,
            pruning_ratio: 0.985,
            is_pim: false,
        },
        CandidateBound {
            name: "LB_PIM-FNN^105".into(),
            transfer_bytes: 24,
            pruning_ratio: 0.98,
            is_pim: true,
        },
    ];
    let best = planner.best_plan(&cands);
    // Greedy: add bounds in cost order while they improve.
    let mut greedy: Vec<usize> = Vec::new();
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by_key(|&i| cands[i].transfer_bytes);
    for i in order {
        let mut trial = greedy.clone();
        trial.push(i);
        if planner.plan_cost(&cands, &trial) < planner.plan_cost(&cands, &greedy) {
            greedy = trial;
        }
    }
    println!(
        "exhaustive: {:?} → {:.2} MB",
        best.names,
        best.estimated_bytes / 1e6
    );
    println!(
        "greedy    : {:?} → {:.2} MB",
        greedy
            .iter()
            .map(|&i| cands[i].name.clone())
            .collect::<Vec<_>>(),
        planner.plan_cost(&cands, &greedy) / 1e6
    );
}

fn ablations(c: &mut Criterion) {
    PRINT_ONCE.call_once(ablation_tables);
    // Keep a measurable kernel so Criterion has something to time.
    let (ds, qs) = workload();
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    let stage = PimStage::fnn(&nds, 105, 1e6).unwrap();
    c.bench_function("ablations/pim_fnn_host_eval_3k", |b| {
        let prep = stage.prepare(&qs[0]);
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..ds.len() {
                acc += prep.bound(black_box(i));
            }
            acc
        })
    });
}

criterion_group!(benches, ablations);
criterion_main!(benches);
