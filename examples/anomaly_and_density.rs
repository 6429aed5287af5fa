//! Beyond kNN and k-means: the other similarity-based mining tasks of
//! Section II-C — distance-based outlier detection and density-based
//! clustering — accelerated by the same PIM bounds.
//!
//! ```text
//! cargo run --release --example anomaly_and_density
//! ```

use simpim::core::executor::{ExecutorConfig, PimExecutor};
use simpim::datasets::{generate, SyntheticConfig};
use simpim::mining::dbscan::{dbscan, DbscanLabel};
use simpim::mining::outlier::{outliers_pim, outliers_standard};
use simpim::similarity::NormalizedDataset;
use simpim::simkit::HostParams;

fn main() {
    // Clustered data with planted anomalies.
    let mut data = generate(&SyntheticConfig {
        n: 3_000,
        d: 64,
        clusters: 5,
        cluster_std: 0.02,
        stat_uniformity: 0.0,
        seed: 314,
    });
    let planted = [data.len(), data.len() + 1];
    data.push(&[0.99; 64]).unwrap();
    data.push(&[0.01; 64]).unwrap();
    let params = HostParams::default();

    let nds = NormalizedDataset::assert_normalized(data.clone());
    let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds).expect("fits");

    // --- Outlier detection: top-5 by 10-NN distance. ---
    let base = outliers_standard(&data, 10, 5).expect("valid k and m");
    let pim = outliers_pim(&mut exec, &data, 10, 5).expect("prepared");
    assert_eq!(base.indices(), pim.indices(), "PIM outliers must be exact");
    println!("top-5 outliers (index, score): {:?}", pim.outliers);
    for p in planted {
        assert!(pim.indices().contains(&p), "planted anomaly {p} found");
    }
    println!(
        "outlier detection: baseline {:.1} ms → PIM {:.1} ms ({:.1}x)",
        base.report.total_ms(&params),
        pim.report.total_ms(&params),
        base.report.total_ms(&params) / pim.report.total_ms(&params)
    );

    // --- DBSCAN: ε-range queries bound-filtered on PIM. ---
    let base = dbscan(&data, 0.22, 5, None).expect("baseline");
    let pim = dbscan(&data, 0.22, 5, Some(&mut exec)).expect("prepared");
    assert_eq!(base.labels, pim.labels, "PIM labeling must be exact");
    println!(
        "\nDBSCAN: {} clusters, {} noise points",
        pim.clusters,
        pim.noise_count()
    );
    for p in planted {
        assert_eq!(
            pim.labels[p],
            DbscanLabel::Noise,
            "anomaly {p} labeled noise"
        );
    }
    println!(
        "density clustering: baseline {:.1} ms → PIM {:.1} ms ({:.1}x)",
        base.report.total_ms(&params),
        pim.report.total_ms(&params),
        base.report.total_ms(&params) / pim.report.total_ms(&params)
    );
}
