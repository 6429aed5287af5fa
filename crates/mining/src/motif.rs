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
use simpim_similarity::{Dataset, NormalizedDataset};

use crate::anchors::{check, Anchors};
use crate::error::MiningError;
use crate::report::RunReport;

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
///
/// # Errors
/// [`MiningError::InvalidArgument`] when `w` is outside
/// `1..=series.len()`.
pub fn window_dataset(series: &[f64], w: usize) -> Result<Dataset, MiningError> {
    let len = series.len();
    check((1..=len).contains(&w), || {
        format!("window must be in 1..={len}, got {w}")
    })?;
    let mut ds = Dataset::with_dim(w).expect("w >= 1");
    for window in series.windows(w) {
        ds.push(window).expect("window width fixed");
    }
    Ok(ds)
}

/// The windows of a series, their exclusion zone and, on PIM, the
/// executor prepared over them — once the series is known to hold at
/// least one non-trivial pair.
fn windows(
    series: &[f64],
    w: usize,
    cfg: Option<ExecutorConfig>,
) -> Result<(Dataset, usize, Option<PimExecutor>), MiningError> {
    let ds = window_dataset(series, w)?;
    let excl = (w / 2).max(1);
    check(ds.len() > excl, || {
        format!(
            "a series of {} points has no two windows of {w} at least {excl} apart",
            series.len()
        )
    })?;
    let nds = NormalizedDataset::assert_normalized_ref(&ds);
    let exec = cfg
        .map(|c| PimExecutor::prepare_euclidean(c, nds))
        .transpose()?;
    Ok((ds, excl, exec))
}

/// Exhaustive motif search: O(n²) window pairs.
///
/// # Errors
/// [`MiningError::InvalidArgument`] when `w` is outside `1..=len` or the
/// series holds no non-trivial window pair.
pub fn motif_standard(series: &[f64], w: usize) -> Result<MotifResult, MiningError> {
    motif(series, w, None)
}

/// PIM-filtered motif search: per anchor window, its `LB_PIM` batch
/// prunes the candidate scan against the running best distance. Returns
/// exactly the [`motif_standard`] pair.
///
/// # Errors
/// As [`motif_standard`], before any executor is prepared;
/// [`MiningError::Core`] when the windows do not fit `cfg` or a bound
/// pass fails.
pub fn motif_pim(
    series: &[f64],
    w: usize,
    cfg: ExecutorConfig,
) -> Result<MotifResult, MiningError> {
    motif(series, w, Some(cfg))
}

/// The body of both motif fronts: per anchor window, every later window
/// outside its exclusion zone, compared exactly unless its bound cannot
/// beat the running best.
fn motif(
    series: &[f64],
    w: usize,
    cfg: Option<ExecutorConfig>,
) -> Result<MotifResult, MiningError> {
    let (ds, excl, mut exec) = windows(series, w, cfg)?;
    let n = ds.len();
    let mut a = Anchors::new(&ds, exec.as_mut());
    let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
    a.each(n, |t, i, bounds| {
        for j in (i + excl)..n {
            if let Some(b) = bounds {
                t.other.prune_test();
                if b[j] >= best.2 {
                    continue; // cannot beat the running motif
                }
            }
            let dist = t.distance(ds.row(i), ds.row(j));
            t.other.prune_test();
            if dist < best.2 {
                best = (i, j, dist);
            }
        }
    })?;
    Ok(MotifResult {
        pair: (best.0, best.1),
        distance: best.2,
        report: a.finish(),
    })
}

/// Exhaustive discord search: each window's non-trivial 1-NN distance,
/// maximized.
///
/// # Errors
/// As [`motif_standard`].
pub fn discord_standard(series: &[f64], w: usize) -> Result<DiscordResult, MiningError> {
    discord(series, w, None)
}

/// PIM-filtered discord search with the ORCA-style cutoff: a window whose
/// running 1-NN distance drops below the best discord score so far is
/// abandoned; within a window's scan, sorted `LB_PIM` values finalize the
/// 1-NN early. Returns exactly the [`discord_standard`] result.
///
/// # Errors
/// As [`motif_pim`].
pub fn discord_pim(
    series: &[f64],
    w: usize,
    cfg: ExecutorConfig,
) -> Result<DiscordResult, MiningError> {
    discord(series, w, Some(cfg))
}

/// The body of both discord fronts: per anchor window, its 1-NN distance
/// over the windows outside its exclusion zone — on the baseline from all
/// of them, on PIM walked by ascending bound and abandoned at the cutoff.
fn discord(
    series: &[f64],
    w: usize,
    cfg: Option<ExecutorConfig>,
) -> Result<DiscordResult, MiningError> {
    let (ds, excl, mut exec) = windows(series, w, cfg)?;
    let n = ds.len();
    let mut a = Anchors::new(&ds, exec.as_mut());
    let mut best = (usize::MAX, f64::NEG_INFINITY);
    a.each(n, |t, i, bounds| {
        let cutoff = bounds.map_or(f64::NEG_INFINITY, |_| best.1);
        let mut nn = f64::INFINITY;
        for (lb, j) in t.walk_order(bounds, n, |j| i.abs_diff(j) >= excl) {
            if bounds.is_some() {
                t.other.prune_test();
                if lb >= nn {
                    break; // sorted: the 1-NN distance is final
                }
            }
            nn = nn.min(t.distance(ds.row(i), ds.row(j)));
            t.other.prune_test();
            if nn <= cutoff {
                return; // cannot be the discord any more
            }
        }
        if bounds.is_none() {
            // The baseline's comparison below; on PIM the walk's cutoff
            // test has already made it.
            t.other.prune_test();
        }
        if nn > best.1 {
            best = (i, nn);
        }
    })?;
    Ok(DiscordResult {
        position: best.0,
        score: best.1,
        report: a.finish(),
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
        let res = motif_standard(&s.values, w).unwrap();
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
        let res = discord_standard(&s.values, w).unwrap();
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
        let base = motif_standard(&s.values, w).unwrap();
        let pim = motif_pim(&s.values, w, ExecutorConfig::default()).unwrap();
        assert_eq!(pim.pair, base.pair);
        assert!((pim.distance - base.distance).abs() < 1e-12);
        assert!(pim.report.pim.total_ns() > 0.0);
    }

    #[test]
    fn pim_discord_matches_standard() {
        let (s, w) = planted();
        let base = discord_standard(&s.values, w).unwrap();
        let pim = discord_pim(&s.values, w, ExecutorConfig::default()).unwrap();
        assert_eq!(pim.position, base.position);
        assert!((pim.score - base.score).abs() < 1e-12);
    }

    #[test]
    fn pim_prunes_most_pairwise_work() {
        let (s, w) = planted();
        let base = motif_standard(&s.values, w).unwrap();
        let pim = motif_pim(&s.values, w, ExecutorConfig::default()).unwrap();
        let b = base.report.profile.get("ED").unwrap().counters.mul;
        let p = pim.report.profile.get("ED").unwrap().counters.mul;
        assert!(p * 4 < b, "motif scan must be bound-pruned: {p} vs {b}");
    }

    #[test]
    fn window_dataset_shape() {
        let ds = window_dataset(&[0.1, 0.2, 0.3, 0.4, 0.5], 3).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.row(2), &[0.3, 0.4, 0.5]);
    }
}
