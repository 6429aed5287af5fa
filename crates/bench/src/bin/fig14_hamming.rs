//! Fig. 14 — kNN on binary vector data (Hamming distance).
//!
//! LSH codes of 128 / 256 / 512 / 1024 bits learned from the GIST-shaped
//! dataset; k = 10. PIM computes HD *exactly* (two dot products per code),
//! so the host only reads 64 bits per object — a win only when the code is
//! wide. Paper: PIM does not help much at 128 bits and the speedup grows
//! with dimensionality.

use simpim_bench::{fmt_ms, fmt_x, ms, print_table, scaled_executor_config, BenchRun, MIN_N};
use simpim_core::executor::PimExecutor;
use simpim_datasets::spec::env_scale;
use simpim_datasets::{generate, lsh_codes, PaperDataset, SyntheticConfig};
use simpim_mining::knn::hamming::knn_hamming;
use simpim_mining::knn::pim::knn_pim_hamming;
use simpim_mining::{Architecture, RunReport};
use simpim_profiling::oracle_report;

fn main() {
    // Fig. 14's codes are learned from GIST descriptors; mirror that.
    let spec = PaperDataset::Gist.spec();
    let n = spec.scaled_n(env_scale(), MIN_N);
    let base_data = generate(&SyntheticConfig::from_spec(&spec, n));
    let p = simpim_bench::params();
    let mut run = BenchRun::start("fig14_hamming");
    run.set_dataset(&spec);

    let mut rows = Vec::new();
    for bits in [128usize, 256, 512, 1024] {
        let codes = lsh_codes(&base_data, bits, 0x51AA ^ bits as u64);
        let mut exec =
            PimExecutor::prepare_hamming(scaled_executor_config(), &codes).expect("codes fit");
        let query_idx = [1usize, n / 3, (2 * n) / 3];

        let mut base = RunReport::new(Architecture::ConventionalDram);
        let mut pim = RunReport::new(Architecture::ReRamPim);
        for &qi in &query_idx {
            let q = codes.row(qi);
            let b = knn_hamming(&codes, &q, 10).expect("k within N");
            let g = knn_pim_hamming(&mut exec, &codes, &q, 10).expect("prepared");
            assert_eq!(b.indices(), g.indices(), "PIM HD must be exact");
            base.merge(&b.report);
            pim.merge(&g.report);
        }
        run.record_report(&format!("hd{bits}/base"), &base);
        run.record_report(&format!("hd{bits}/pim"), &pim);
        let oracle = oracle_report(&base.profile, &p, &["HD"]);
        rows.push(vec![
            format!("{bits}"),
            fmt_ms(ms(&base)),
            fmt_ms(ms(&pim)),
            fmt_ms(oracle.oracle_ns / 1e6),
            fmt_x(ms(&base) / ms(&pim)),
        ]);
    }
    print_table(
        &format!("Fig. 14: kNN on binary codes (N={n}, k=10, HD)"),
        &[
            "bits",
            "Standard (ms)",
            "Standard-PIM (ms)",
            "oracle (ms)",
            "speedup",
        ],
        &rows,
    );
    println!("paper: little gain at 128 bits; speedup grows with code width");
    run.finish();
}
