//! The anchor driver under the pairwise offline tasks ([`crate::dbscan`],
//! [`crate::outlier`], [`crate::motif`]): each task visits anchor rows
//! and scans the other rows for each, and on PIM every scan is filtered
//! by the anchor's `LB_PIM-ED` bound batch.
//!
//! The driver owns what the tasks share: the [`Architecture`] and the
//! [`RunReport`], the `ED`, `G(<bound>)` and `other` counters, and the
//! bound batches. Those are fetched `CHUNK` anchors per
//! `lb_ed_batch_multi` call — one host read of the region per chunk —
//! while the modeled device still serves the anchors one after the
//! other, so the report equals that of one `lb_ed_batch` per anchor.

use std::ops::Range;

use simpim_core::PimExecutor;
use simpim_similarity::{measures, Dataset};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::report::{Architecture, RunReport};

/// Anchors per bound fetch: a constant, never derived from the thread
/// count, so the fetches are the same at any `SIMPIM_THREADS`.
const CHUNK: usize = 64;

/// The counters a task body charges.
#[derive(Default)]
pub(crate) struct Tally {
    /// Exact distances.
    pub(crate) ed: OpCounters,
    /// Prune tests, sorts and the rest.
    pub(crate) other: OpCounters,
    pim: bool,
}

impl Tally {
    /// The exact squared ED of two rows, charged as one distance kernel
    /// (plus a random fetch on PIM, where a bound picked the row).
    pub(crate) fn distance(&mut self, a: &[f64], b: &[f64]) -> f64 {
        let d = a.len() as u64;
        self.ed.euclidean_kernel(d, d * 8);
        self.ed.random_fetches += u64::from(self.pim);
        measures::euclidean_sq(a, b)
    }

    /// One anchor's candidates as `(bound, row)`, the rows of `0..n` that
    /// `keep`: in index order on the baseline; on PIM by ascending bound,
    /// ties by index — ORCA's sorted walk, charged the `n·log₂n`
    /// comparisons of a sort over the whole dataset.
    pub(crate) fn walk_order(
        &mut self,
        bounds: Option<&[f64]>,
        n: usize,
        keep: impl Fn(usize) -> bool,
    ) -> Vec<(f64, usize)> {
        let bound = |j: usize| bounds.map_or(0.0, |b| b[j]);
        let mut order: Vec<_> = (0..n).filter(|&j| keep(j)).map(|j| (bound(j), j)).collect();
        if bounds.is_some() {
            order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            self.other.cmp += (n as f64 * (n as f64).log2().max(1.0)) as u64;
        }
        order
    }
}

/// One run of a pairwise task over `data`, on PIM when it has an executor.
pub(crate) struct Anchors<'a> {
    pub(crate) data: &'a Dataset,
    exec: Option<&'a mut PimExecutor>,
    report: RunReport,
    /// `G` charged since it was last booked in the profile.
    g: Option<OpCounters>,
    pub(crate) tally: Tally,
}

impl<'a> Anchors<'a> {
    pub(crate) fn new(data: &'a Dataset, exec: Option<&'a mut PimExecutor>) -> Self {
        let arch = match exec {
            Some(_) => Architecture::ReRamPim,
            None => Architecture::ConventionalDram,
        };
        Self {
            data,
            tally: Tally {
                pim: exec.is_some(),
                ..Default::default()
            },
            exec,
            report: RunReport::new(arch),
            g: None,
        }
    }

    /// The bounds of `anchors` from one `lb_ed_batch_multi` (`None` on
    /// the baseline), each batch's timing added and `G` charged in
    /// anchor order.
    fn fetch(&mut self, anchors: Range<usize>) -> Result<Option<Vec<Vec<f64>>>, MiningError> {
        let data = self.data;
        let Some(exec) = self.exec.as_deref_mut() else {
            return Ok(None);
        };
        let rows: Vec<&[f64]> = anchors.map(|i| data.row(i)).collect();
        let batches = exec.lb_ed_batch_multi(&rows, simpim_obs::TraceCtx::NONE)?;
        let g = self.g.get_or_insert_with(OpCounters::new);
        let values = batches.into_iter().map(|b| {
            self.report.pim.add(&b.timing);
            b.charge_g(g);
            b.values
        });
        Ok(Some(values.collect()))
    }

    /// The bounds of anchor `i` alone, its `G` booked as one call: for a
    /// task whose next anchor depends on this anchor's answer.
    pub(crate) fn one(&mut self, i: usize) -> Result<Option<Vec<f64>>, MiningError> {
        let bounds = self.fetch(i..i + 1)?;
        self.book_g();
        Ok(bounds.map(|mut b| b.remove(0)))
    }

    /// Calls `body(tally, i, bounds)` for every anchor `i` in `0..n` in
    /// order, the bounds fetched `CHUNK` anchors at a time.
    pub(crate) fn each(
        &mut self,
        n: usize,
        mut body: impl FnMut(&mut Tally, usize, Option<&[f64]>),
    ) -> Result<(), MiningError> {
        for start in (0..n).step_by(CHUNK) {
            let end = n.min(start + CHUNK);
            let bounds = self.fetch(start..end)?;
            for i in start..end {
                body(
                    &mut self.tally,
                    i,
                    bounds.as_ref().map(|b| &b[i - start][..]),
                );
            }
        }
        Ok(())
    }

    fn book_g(&mut self) {
        if let (Some(g), Some(exec)) = (self.g.take(), &self.exec) {
            let name = format!("G({})", exec.bound_name());
            self.report.profile.record(&name, g);
        }
    }

    /// The run's report: `G` (if charged since it was last booked), `ED`
    /// and `other`, booked as one call each.
    pub(crate) fn finish(mut self) -> RunReport {
        self.book_g();
        self.report.profile.record("ED", self.tally.ed);
        self.report.profile.record("other", self.tally.other);
        self.report
    }
}

/// `Err(InvalidArgument)` saying `what` unless `ok`.
pub(crate) fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), MiningError> {
    if ok {
        Ok(())
    } else {
        Err(MiningError::InvalidArgument { what: what() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::dbscan;
    use crate::motif::{discord_pim, discord_standard, motif_pim, motif_standard, window_dataset};
    use crate::outlier::{outliers_pim, outliers_standard};
    use simpim_core::executor::ExecutorConfig;
    use simpim_datasets::{generate, SyntheticConfig};
    use simpim_similarity::NormalizedDataset;

    /// A bad `eps`, `min_pts`, `k`, `m`, window or series is an
    /// `InvalidArgument` naming the problem at every entry point of the
    /// pairwise tasks — never a panic, and nothing runs on the crossbars
    /// first.
    #[test]
    fn bad_arguments_are_typed_errors_at_every_entry_point() {
        let ds = generate(&SyntheticConfig {
            n: 20,
            d: 8,
            clusters: 2,
            cluster_std: 0.05,
            stat_uniformity: 0.0,
            seed: 5,
        });
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let cfg = ExecutorConfig::default();
        let mut exec = PimExecutor::prepare_euclidean(cfg, &nds).unwrap();
        let n = ds.len();
        // Windows of 4 over five points: two windows, one apart, inside
        // each other's exclusion zone of two.
        let series = [0.1, 0.2, 0.3, 0.4, 0.5];
        type Case<'a> = (&'a str, Result<(), MiningError>, &'a str);
        let cases: Vec<Case<'_>> = vec![
            (
                "dbscan eps=0",
                dbscan(&ds, 0.0, 1, Some(&mut exec)).map(drop),
                "eps must be positive and finite, got 0",
            ),
            (
                "dbscan eps<0",
                dbscan(&ds, -1.0, 1, None).map(drop),
                "got -1",
            ),
            (
                "dbscan eps=inf",
                dbscan(&ds, f64::INFINITY, 1, Some(&mut exec)).map(drop),
                "got inf",
            ),
            (
                "dbscan eps=NaN",
                dbscan(&ds, f64::NAN, 1, None).map(drop),
                "got NaN",
            ),
            (
                "dbscan min_pts=0",
                dbscan(&ds, 0.2, 0, Some(&mut exec)).map(drop),
                "min_pts must be at least 1",
            ),
            (
                "outliers k=0",
                outliers_pim(&mut exec, &ds, 0, 1).map(drop),
                "k must be in 1..20, got 0",
            ),
            (
                "outliers k=N",
                outliers_standard(&ds, n, 1).map(drop),
                "got 20",
            ),
            (
                "outliers m=0",
                outliers_pim(&mut exec, &ds, 1, 0).map(drop),
                "m must be in 1..=20, got 0",
            ),
            (
                "outliers m>N",
                outliers_standard(&ds, 1, n + 1).map(drop),
                "got 21",
            ),
            (
                "window w=0",
                window_dataset(&series, 0).map(drop),
                "window must be in 1..=5, got 0",
            ),
            (
                "window w>len",
                window_dataset(&series, 6).map(drop),
                "got 6",
            ),
            ("motif w>len", motif_pim(&series, 6, cfg).map(drop), "got 6"),
            (
                "motif no pair",
                motif_standard(&series, 4).map(drop),
                "no two windows",
            ),
            (
                "motif-pim no pair",
                motif_pim(&series, 4, cfg).map(drop),
                "no two windows",
            ),
            (
                "discord no pair",
                discord_standard(&series, 4).map(drop),
                "no two windows",
            ),
            (
                "discord-pim no pair",
                discord_pim(&series, 4, cfg).map(drop),
                "no two windows",
            ),
        ];
        for (case, got, expect) in cases {
            match got {
                Err(MiningError::InvalidArgument { what }) => {
                    assert!(
                        what.contains(expect),
                        "{case}: {what:?} should mention {expect:?}"
                    )
                }
                other => panic!("{case}: expected InvalidArgument, got {other:?}"),
            }
        }
        assert_eq!(
            exec.bank().dispatches(),
            0,
            "rejected before any crossbar pass"
        );
    }
}
