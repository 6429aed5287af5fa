//! Fig. 16 — execution time with execution-plan optimization (Section V-D).
//!
//! Compares, on the MSD-shaped workload (k = 10):
//! * `FNN` — the three-level baseline cascade,
//! * `FNN-PIM` — first level replaced by `LB_PIM-FNN^s`, other levels
//!   retained (the default of Section VI-C),
//! * `FNN-PIM-optimize` — the Eq. 13 planner's choice (the paper's
//!   measured outcome: drop all original bounds, keep only the PIM bound),
//! * `FNN-PIM-oracle` — Eq. 2's lower bound.

use simpim_bench::{
    fmt_ms, fmt_x, load, ms, params, prepare_executor, print_table, run_knn_baseline, run_knn_pim,
    KnnAlgo,
};
use simpim_bounds::{BoundCascade, BoundStage, FnnBound};
use simpim_core::planner::Planner;
use simpim_core::stage::PimStage;
use simpim_datasets::PaperDataset;
use simpim_mining::knn::pim::knn_pim_ed;
use simpim_mining::{Architecture, RunReport};
use simpim_profiling::oracle_report;
use simpim_similarity::{Measure, NormalizedDataset};

fn main() {
    let mut run = simpim_bench::BenchRun::start("fig16_plan");
    let w = load(PaperDataset::Msd);
    run.set_dataset(&w.dataset.spec());
    let nds = NormalizedDataset::assert_normalized(w.data.clone());
    let p = params();
    let k = 10;

    // Baseline FNN and the default FNN-PIM.
    let base = run_knn_baseline(KnnAlgo::Fnn, &w, k);
    let mut exec = prepare_executor(&w.data).expect("fits");
    let s = match exec.prepared() {
        simpim_core::executor::PreparedFunction::Fnn { d_prime, .. } => *d_prime,
        _ => w.data.dim(),
    };
    let pim_default = run_knn_pim(KnnAlgo::Fnn, &mut exec, &w, k).expect("prepared");

    // Plan optimization: candidates = FNN levels + the PIM bound at s.
    let levels = simpim_mining::knn::algorithms::fnn_levels(w.data.dim());
    let classic: Vec<FnnBound> = levels
        .iter()
        .map(|&l| FnnBound::build(&w.data, l).expect("divisor"))
        .collect();
    let pim_stage = PimStage::fnn(&nds, s, 1e6).expect("divisor");
    let mut stages: Vec<&dyn BoundStage> = classic.iter().map(|b| b as &dyn BoundStage).collect();
    stages.push(&pim_stage);
    let planner = Planner {
        refine_bytes_per_object: w.data.dim() as u64 * 8,
        n: w.data.len(),
    };
    let plan = planner
        .best_plan_measured(&stages, &w.data, &w.queries, k, Measure::EuclideanSq)
        .expect("valid planner inputs");
    println!(
        "planner's choice: {:?} ({:.2} MB/query estimated)",
        plan.names,
        plan.estimated_bytes / 1e6
    );

    // Execute the optimized plan: retained = the chosen classic bounds
    // (the PIM stage runs on the crossbars regardless of its position).
    let retained_stages: Vec<Box<dyn BoundStage>> = plan
        .stages
        .iter()
        .filter(|&&i| i < classic.len())
        .map(|&i| Box::new(classic[i].clone()) as Box<dyn BoundStage>)
        .collect();
    let retained = BoundCascade::new(retained_stages);
    let mut optimized = RunReport::new(Architecture::ReRamPim);
    for q in &w.queries {
        let res = knn_pim_ed(&mut exec, &w.data, &retained, q, k).expect("prepared");
        optimized.merge(&res.report);
    }

    // Oracle.
    let offload = KnnAlgo::Fnn.offloadable(&w.data);
    let refs: Vec<&str> = offload.iter().map(String::as_str).collect();
    let oracle = oracle_report(&base.profile, &p, &refs);

    run.record_report("fnn/base", &base);
    run.record_report("fnn/pim_default", &pim_default);
    run.record_report("fnn/pim_optimized", &optimized);
    run.push_extra(
        "plan",
        simpim_obs::Json::Arr(
            plan.names
                .iter()
                .map(|s| simpim_obs::Json::Str(s.clone()))
                .collect(),
        ),
    );
    let base_ms = ms(&base);
    let rows = vec![
        vec!["FNN".into(), fmt_ms(base_ms), "-".into()],
        vec![
            "FNN-PIM".into(),
            fmt_ms(ms(&pim_default)),
            fmt_x(base_ms / ms(&pim_default)),
        ],
        vec![
            "FNN-PIM-optimize".into(),
            fmt_ms(ms(&optimized)),
            fmt_x(base_ms / ms(&optimized)),
        ],
        vec![
            "FNN-PIM-oracle".into(),
            fmt_ms(oracle.oracle_ns / 1e6),
            fmt_x(base_ms / (oracle.oracle_ns / 1e6)),
        ],
    ];
    print_table(
        &format!(
            "Fig. 16: execution-plan optimization (MSD-shaped, N={}, k=10, s={s})",
            w.data.len()
        ),
        &["variant", "time (ms)", "vs FNN"],
        &rows,
    );
    assert!(
        ms(&optimized) <= ms(&pim_default) * 1.05,
        "optimized plan must not regress"
    );
    println!("paper: the planner drops all original bounds (keep only");
    println!("       LB_PIM-FNN^105); FNN-PIM-optimize approaches FNN-PIM-oracle");
    run.finish();
}
