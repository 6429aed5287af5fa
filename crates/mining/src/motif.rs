//! Time-series motif discovery and discord (anomaly) detection — the
//! remaining mining tasks of the paper's introduction (Mueen \[3\]).
//!
//! A length-`w` sliding window turns the series into `n − w + 1`
//! overlapping `w`-dimensional vectors; the **motif** is the closest
//! non-trivial pair of windows, the **discord** the window with the
//! largest non-trivial nearest-neighbor distance. Both are pure
//! similarity-search problems, so the PIM bound batch filters them the
//! same lossless way as kNN: candidates whose `LB_PIM` already exceeds the
//! running best need no exact distance.
//!
//! Trivial matches (overlapping windows) are excluded within `w/2`
//! positions, the standard exclusion zone.

use simpim_core::executor::{ExecutorConfig, PimExecutor};
use simpim_core::CoreError;
use simpim_similarity::{measures, Dataset, NormalizedDataset};
use simpim_simkit::OpCounters;

use crate::report::{Architecture, RunReport};

/// The closest non-trivial window pair.
#[derive(Debug, Clone)]
pub struct MotifResult {
    /// Start offsets of the pair, smaller first.
    pub pair: (usize, usize),
    /// Their squared distance.
    pub distance: f64,
    /// Instrumentation.
    pub report: RunReport,
}

/// The most anomalous window.
#[derive(Debug, Clone)]
pub struct DiscordResult {
    /// Start offset of the discord window.
    pub position: usize,
    /// Its non-trivial nearest-neighbor squared distance.
    pub score: f64,
    /// Instrumentation.
    pub report: RunReport,
}

/// Materializes the sliding-window dataset of a series.
pub fn window_dataset(series: &[f64], w: usize) -> Dataset {
    assert!(w >= 1 && w <= series.len(), "window must fit the series");
    let n = series.len() - w + 1;
    let mut ds = Dataset::with_dim(w).expect("w >= 1");
    for i in 0..n {
        ds.push(&series[i..i + w]).expect("window width fixed");
    }
    ds
}

fn exclusion(w: usize) -> usize {
    (w / 2).max(1)
}

/// Exhaustive motif search: O(n²) window pairs.
pub fn motif_standard(series: &[f64], w: usize) -> MotifResult {
    let ds = window_dataset(series, w);
    let excl = exclusion(w);
    let mut report = RunReport::new(Architecture::ConventionalDram);
    let mut ed = OpCounters::new();
    let mut other = OpCounters::new();
    let d = w as u64;

    let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
    for i in 0..ds.len() {
        for j in (i + excl)..ds.len() {
            ed.euclidean_kernel(d, d * 8);
            other.prune_test();
            let dist = measures::euclidean_sq(ds.row(i), ds.row(j));
            if dist < best.2 {
                best = (i, j, dist);
            }
        }
    }
    report.profile.record("ED", ed);
    report.profile.record("other", other);
    MotifResult {
        pair: (best.0, best.1),
        distance: best.2,
        report,
    }
}

/// PIM-filtered motif search: per anchor window, one `LB_PIM` batch orders
/// and prunes the candidate scan against the running best distance.
/// Returns exactly the [`motif_standard`] pair.
pub fn motif_pim(series: &[f64], w: usize, cfg: ExecutorConfig) -> Result<MotifResult, CoreError> {
    let ds = window_dataset(series, w);
    let nds = NormalizedDataset::assert_normalized_ref(&ds);
    let mut exec = PimExecutor::prepare_euclidean(cfg, nds)?;
    let excl = exclusion(w);
    let mut report = RunReport::new(Architecture::ReRamPim);
    let mut ed = OpCounters::new();
    let mut g = OpCounters::new();
    let mut other = OpCounters::new();
    let d = w as u64;
    let n = ds.len();

    let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
    let mut bound_name = String::new();
    for i in 0..n {
        let batch = exec.lb_ed_batch(ds.row(i))?;
        bound_name = exec.bound_name();
        report.pim.add(&batch.timing);
        batch.charge_g(&mut g);
        for (j, &lb) in batch.values.iter().enumerate().skip(i + excl) {
            other.prune_test();
            if lb >= best.2 {
                continue; // cannot beat the running motif
            }
            ed.euclidean_kernel(d, d * 8);
            ed.random_fetches += 1;
            let dist = measures::euclidean_sq(ds.row(i), ds.row(j));
            other.prune_test();
            if dist < best.2 {
                best = (i, j, dist);
            }
        }
    }
    report.profile.record(&format!("G({bound_name})"), g);
    report.profile.record("ED", ed);
    report.profile.record("other", other);
    Ok(MotifResult {
        pair: (best.0, best.1),
        distance: best.2,
        report,
    })
}

/// Exhaustive discord search: each window's non-trivial 1-NN distance,
/// maximized.
pub fn discord_standard(series: &[f64], w: usize) -> DiscordResult {
    let ds = window_dataset(series, w);
    let excl = exclusion(w);
    let mut report = RunReport::new(Architecture::ConventionalDram);
    let mut ed = OpCounters::new();
    let mut other = OpCounters::new();
    let d = w as u64;

    let mut best = (usize::MAX, f64::NEG_INFINITY);
    for i in 0..ds.len() {
        let mut nn = f64::INFINITY;
        for j in 0..ds.len() {
            if i.abs_diff(j) < excl {
                continue;
            }
            ed.euclidean_kernel(d, d * 8);
            other.prune_test();
            nn = nn.min(measures::euclidean_sq(ds.row(i), ds.row(j)));
        }
        other.prune_test();
        if nn > best.1 {
            best = (i, nn);
        }
    }
    report.profile.record("ED", ed);
    report.profile.record("other", other);
    DiscordResult {
        position: best.0,
        score: best.1,
        report,
    }
}

/// PIM-filtered discord search with the ORCA-style cutoff: a window whose
/// running 1-NN distance drops below the best discord score so far is
/// abandoned; within a window's scan, sorted `LB_PIM` values finalize the
/// 1-NN early. Returns exactly the [`discord_standard`] result.
pub fn discord_pim(
    series: &[f64],
    w: usize,
    cfg: ExecutorConfig,
) -> Result<DiscordResult, CoreError> {
    let ds = window_dataset(series, w);
    let nds = NormalizedDataset::assert_normalized_ref(&ds);
    let mut exec = PimExecutor::prepare_euclidean(cfg, nds)?;
    let excl = exclusion(w);
    let mut report = RunReport::new(Architecture::ReRamPim);
    let mut ed = OpCounters::new();
    let mut g = OpCounters::new();
    let mut other = OpCounters::new();
    let d = w as u64;
    let n = ds.len();

    let mut best = (usize::MAX, f64::NEG_INFINITY);
    let mut bound_name = String::new();
    for i in 0..n {
        let batch = exec.lb_ed_batch(ds.row(i))?;
        bound_name = exec.bound_name();
        report.pim.add(&batch.timing);
        batch.charge_g(&mut g);

        let mut order: Vec<(f64, usize)> = batch
            .values
            .iter()
            .copied()
            .enumerate()
            .filter(|&(j, _)| i.abs_diff(j) >= excl)
            .map(|(j, v)| (v, j))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        other.cmp += (n as f64 * (n as f64).log2().max(1.0)) as u64;

        let mut nn = f64::INFINITY;
        let mut abandoned = false;
        for &(lb, j) in &order {
            other.prune_test();
            if lb >= nn {
                break; // sorted: the 1-NN distance is final
            }
            ed.euclidean_kernel(d, d * 8);
            ed.random_fetches += 1;
            nn = nn.min(measures::euclidean_sq(ds.row(i), ds.row(j)));
            other.prune_test();
            if nn <= best.1 {
                abandoned = true; // cannot be the discord any more
                break;
            }
        }
        if !abandoned && nn > best.1 {
            best = (i, nn);
        }
    }
    report.profile.record(&format!("G({bound_name})"), g);
    report.profile.record("ED", ed);
    report.profile.record("other", other);
    Ok(DiscordResult {
        position: best.0,
        score: best.1,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_datasets::timeseries::{generate_series, SeriesConfig};

    fn planted() -> (simpim_datasets::timeseries::PlantedSeries, usize) {
        let cfg = SeriesConfig {
            len: 800,
            pattern_len: 32,
            noise: 0.02,
            seed: 0xABCD,
        };
        (generate_series(&cfg), cfg.pattern_len)
    }

    #[test]
    fn finds_the_planted_motif() {
        let (s, w) = planted();
        let res = motif_standard(&s.values, w);
        let (a, b) = s.motif_positions;
        // The discovered pair must point at the planted occurrences
        // (within a couple of positions — neighboring windows overlap the
        // pattern almost completely).
        assert!(
            res.pair.0.abs_diff(a) <= 2,
            "pair {:?} vs planted ({a},{b})",
            res.pair
        );
        assert!(res.pair.1.abs_diff(b) <= 2);
        assert!(res.distance < 0.05);
    }

    #[test]
    fn finds_the_planted_discord() {
        let (s, w) = planted();
        let res = discord_standard(&s.values, w);
        assert!(
            res.position.abs_diff(s.discord_position) <= w,
            "discord at {} vs planted {}",
            res.position,
            s.discord_position
        );
        assert!(
            res.score > 1.0,
            "discord must be far from everything: {}",
            res.score
        );
    }

    #[test]
    fn pim_motif_matches_standard() {
        let (s, w) = planted();
        let base = motif_standard(&s.values, w);
        let pim = motif_pim(&s.values, w, ExecutorConfig::default()).unwrap();
        assert_eq!(pim.pair, base.pair);
        assert!((pim.distance - base.distance).abs() < 1e-12);
        assert!(pim.report.pim.total_ns() > 0.0);
    }

    #[test]
    fn pim_discord_matches_standard() {
        let (s, w) = planted();
        let base = discord_standard(&s.values, w);
        let pim = discord_pim(&s.values, w, ExecutorConfig::default()).unwrap();
        assert_eq!(pim.position, base.position);
        assert!((pim.score - base.score).abs() < 1e-12);
    }

    #[test]
    fn pim_prunes_most_pairwise_work() {
        let (s, w) = planted();
        let base = motif_standard(&s.values, w);
        let pim = motif_pim(&s.values, w, ExecutorConfig::default()).unwrap();
        let b = base.report.profile.get("ED").unwrap().counters.mul;
        let p = pim.report.profile.get("ED").unwrap().counters.mul;
        assert!(p * 4 < b, "motif scan must be bound-pruned: {p} vs {b}");
    }

    #[test]
    fn window_dataset_shape() {
        let ds = window_dataset(&[0.1, 0.2, 0.3, 0.4, 0.5], 3);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.row(2), &[0.3, 0.4, 0.5]);
    }
}
