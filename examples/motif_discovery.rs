//! Time-series motif discovery and discord detection with PIM — the
//! paper's introduction cites both as core similarity-based mining tasks.
//!
//! ```text
//! cargo run --release --example motif_discovery
//! ```

use simpim::core::executor::ExecutorConfig;
use simpim::datasets::timeseries::{generate_series, SeriesConfig};
use simpim::mining::motif::{discord_pim, discord_standard, motif_pim, motif_standard};
use simpim::simkit::HostParams;

fn main() {
    let cfg = SeriesConfig {
        len: 3_000,
        pattern_len: 64,
        noise: 0.02,
        seed: 0x600D,
    };
    let s = generate_series(&cfg);
    let w = cfg.pattern_len;
    let params = HostParams::default();
    println!(
        "series: {} points; planted motif at {:?}, discord at {}",
        s.values.len(),
        s.motif_positions,
        s.discord_position
    );

    let base = motif_standard(&s.values, w).expect("a window pair");
    let pim = motif_pim(&s.values, w, ExecutorConfig::default()).expect("fits");
    assert_eq!(base.pair, pim.pair, "PIM motif must be exact");
    println!(
        "\nmotif: windows {:?} at distance {:.4}",
        pim.pair, pim.distance
    );
    println!(
        "  baseline {:.1} ms → PIM {:.1} ms ({:.1}x)",
        base.report.total_ms(&params),
        pim.report.total_ms(&params),
        base.report.total_ms(&params) / pim.report.total_ms(&params)
    );

    let base = discord_standard(&s.values, w).expect("a window pair");
    let pim = discord_pim(&s.values, w, ExecutorConfig::default()).expect("fits");
    assert_eq!(base.position, pim.position, "PIM discord must be exact");
    println!(
        "\ndiscord: window {} with 1-NN distance {:.4}",
        pim.position, pim.score
    );
    println!(
        "  baseline {:.1} ms → PIM {:.1} ms ({:.1}x)",
        base.report.total_ms(&params),
        pim.report.total_ms(&params),
        base.report.total_ms(&params) / pim.report.total_ms(&params)
    );
}
