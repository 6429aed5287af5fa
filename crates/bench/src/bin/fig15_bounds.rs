//! Fig. 15 — pruning ratio and data-transfer cost of the candidate bounds
//! (MSD, α = 10⁶, k = 10).
//!
//! Compares the FNN cascade levels (`LB_FNN^{6,28,105}` at d = 420) with
//! `LB_PIM-FNN^105`. Paper: the PIM bound prunes more than `LB_FNN^{6,105}`
//! and slightly less than `LB_FNN^28`… (in the paper's notation
//! `LB_PIM-FNN^105` is stronger than `LB_FNN^{7}` and `LB_FNN^{105}`'s
//! *cheap* levels while costing only 3·b bits), and at α = 10⁶ it is tight
//! enough to prune ~99% of objects.

use simpim_bench::{load, print_table};
use simpim_bounds::{BoundStage, FnnBound};
use simpim_core::planner::PruningProfile;
use simpim_core::stage::PimStage;
use simpim_datasets::PaperDataset;
use simpim_mining::knn::algorithms::fnn_levels;
use simpim_similarity::{Measure, NormalizedDataset};

fn main() {
    let mut run = simpim_bench::BenchRun::start("fig15_bounds");
    let w = load(PaperDataset::Msd);
    run.set_dataset(&w.dataset.spec());
    let nds = NormalizedDataset::assert_normalized(w.data.clone());
    let levels = fnn_levels(w.data.dim());
    let top = *levels.last().expect("at least one level");

    let classic: Vec<FnnBound> = levels
        .iter()
        .map(|&s| FnnBound::build(&w.data, s).expect("divisor"))
        .collect();
    let pim = PimStage::fnn(&nds, top, 1e6).expect("divisor");

    let mut stages: Vec<&dyn BoundStage> = classic.iter().map(|b| b as &dyn BoundStage).collect();
    stages.push(&pim);

    let ratios = PruningProfile::measure(&stages, &w.data, &w.queries, 10, Measure::EuclideanSq)
        .expect("matching bound directions");

    let n = w.data.len() as u64;
    for (s, &r) in stages.iter().zip(&ratios) {
        run.note_stage(
            &format!("prune/{}", s.name()),
            0,
            1,
            (r * n as f64) as u64,
            s.transfer_bytes_per_object() * n,
        );
        run.push_extra(&format!("ratio/{}", s.name()), simpim_obs::Json::Num(r));
    }
    let rows: Vec<Vec<String>> = stages
        .iter()
        .zip(&ratios)
        .map(|(s, &r)| {
            vec![
                s.name(),
                format!("{:.1}%", r * 100.0),
                format!("{}", s.transfer_bytes_per_object()),
                format!("{:.2}", (s.transfer_bytes_per_object() * n) as f64 / 1e6),
            ]
        })
        .collect();
    print_table(
        &format!("Fig. 15: pruning ratio & transfer cost (MSD-shaped, N={n}, α=1e6)"),
        &["bound", "prune ratio", "bytes/object", "total MB"],
        &rows,
    );
    println!("paper: LB_PIM-FNN^105 prunes ~99%, stronger than LB_FNN^7 and");
    println!("       LB_FNN^105, slightly weaker than LB_FNN^28 — at 3·b bits of");
    println!("       transfer instead of d'/64..d'/4 values per object");

    // α sweep: Theorem 3 in action (the Fig. 15 caption's α = 1e6 choice).
    let mut rows = Vec::new();
    for alpha in [1e1, 1e2, 1e3, 1e4, 1e6] {
        let stage = PimStage::fnn(&nds, top, alpha).expect("divisor");
        let r = PruningProfile::measure(&[&stage], &w.data, &w.queries, 10, Measure::EuclideanSq)
            .expect("matching bound directions")[0];
        rows.push(vec![format!("{alpha:.0}"), format!("{:.1}%", r * 100.0)]);
    }
    print_table(
        "Fig. 15 (supplement): pruning ratio vs α",
        &["alpha", "prune ratio"],
        &rows,
    );
    run.finish();
}
