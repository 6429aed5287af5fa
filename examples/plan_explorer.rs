//! Execution-plan optimization walkthrough (Section V-D).
//!
//! ```text
//! cargo run --release --example plan_explorer
//! ```
//!
//! Builds the FNN bound cascade plus the PIM-aware bound over one dataset,
//! measures every bound's pruning ratio offline (the Fig. 15 measurement),
//! then enumerates the 2^L candidate plans with both cost models — Eq. 13's
//! independence assumption and the measured-conditional search — and prints
//! the winning pipelines.

use simpim::core::planner::{CandidateBound, Planner, PruningProfile};
use simpim::core::stage::PimStage;
use simpim::datasets::{generate, sample_queries, SyntheticConfig};
use simpim::mining::knn::algorithms::fnn_levels;
use simpim::similarity::{Measure, NormalizedDataset};
use simpim_bounds::{BoundStage, FnnBound};

fn main() {
    let data = generate(&SyntheticConfig {
        n: 6_000,
        d: 420, // MSD-shaped
        clusters: 24,
        cluster_std: 0.05,
        stat_uniformity: 0.05,
        seed: 77,
    });
    let nds = NormalizedDataset::assert_normalized(data.clone());
    let queries = sample_queries(&data, 6, 0.02, 3);
    let k = 10;

    // Candidate set: the FNN levels (Fig. 12a) + LB_PIM-FNN at the
    // Theorem-4 maximal segmentation (105 for d = 420).
    let levels = fnn_levels(data.dim());
    println!("FNN levels for d = {}: {levels:?}", data.dim());
    let classic: Vec<FnnBound> = levels
        .iter()
        .map(|&s| FnnBound::build(&data, s).expect("divisor"))
        .collect();
    let pim = PimStage::fnn(&nds, 105, 1e6).expect("divisor");

    let mut stages: Vec<&dyn BoundStage> = classic.iter().map(|b| b as &dyn BoundStage).collect();
    stages.push(&pim);

    // Fig. 15: per-bound pruning ratio and transfer cost.
    let ratios = PruningProfile::measure(&stages, &data, &queries, k, Measure::EuclideanSq)
        .expect("matching bound directions");
    println!("\n{:<18} {:>10} {:>12}", "bound", "Pr(B)", "bytes/object");
    for (s, r) in stages.iter().zip(&ratios) {
        println!(
            "{:<18} {:>9.1}% {:>12}",
            s.name(),
            r * 100.0,
            s.transfer_bytes_per_object()
        );
    }

    let planner = Planner {
        refine_bytes_per_object: data.dim() as u64 * 8,
        n: data.len(),
    };

    // Eq. 13 with independent ratios.
    let candidates: Vec<CandidateBound> = stages
        .iter()
        .zip(&ratios)
        .map(|(s, &r)| CandidateBound {
            name: s.name(),
            transfer_bytes: s.transfer_bytes_per_object(),
            pruning_ratio: r,
            is_pim: s.name().contains("PIM"),
        })
        .collect();
    let independent = planner.best_plan(&candidates);
    println!(
        "\nEq. 13 (independent ratios) plan: {:?}",
        independent.names
    );
    println!(
        "  estimated transfer: {:.2} MB/query",
        independent.estimated_bytes / 1e6
    );

    // Measured-conditional search (what reproduces Fig. 16's outcome).
    let measured = planner
        .best_plan_measured(&stages, &data, &queries, k, Measure::EuclideanSq)
        .expect("valid planner inputs");
    println!("measured-conditional plan:        {:?}", measured.names);
    println!(
        "  estimated transfer: {:.2} MB/query",
        measured.estimated_bytes / 1e6
    );

    // Reference points.
    let all: Vec<usize> = (0..stages.len()).collect();
    println!(
        "\nfull cascade would cost {:.2} MB/query (Eq. 13)",
        planner.plan_cost(&candidates, &all) / 1e6
    );
    println!(
        "no bounds (pure scan) costs {:.2} MB/query",
        planner.plan_cost(&candidates, &[]) / 1e6
    );
}
