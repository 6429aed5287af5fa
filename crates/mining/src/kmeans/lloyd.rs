//! `Standard` k-means: Lloyd's algorithm \[48\].
//!
//! Assign each point to its nearest center (the full `N × k` distance
//! table — the transfer of `N·k·d·b` bits the paper profiles), then move
//! each center to its cluster mean; repeat until assignments stabilize.
//! Lloyd keeps no bounds, so its rule is the assign scan alone: squared
//! distances (no `sqrt` charged), and no drift to measure. When the run
//! stops at `max_iters` the centres still move once more, to the means of
//! the last assignment.
//!
//! With a [`PimAssist`], the assign step consults `LB_PIM-ED` before every
//! exact distance (`Standard-PIM`): centers are processed in index order
//! and skipped when the bound proves they cannot strictly beat the current
//! best, which preserves Lloyd's exact assignments including lowest-index
//! tie-breaking.

use simpim_similarity::{measures, Dataset};

use crate::error::MiningError;
use crate::kmeans::pim::PimAssist;
use crate::kmeans::{run, KmeansConfig, KmeansResult, Rule, Scan};

/// Lloyd's assign rule: the nearest centre by squared distance.
struct Lloyd;

impl Rule for Lloyd {
    const NAME: &'static str = "lloyd";
    const SPAN: &'static str = "mining.kmeans.lloyd.iteration";
    const BOUNDED: bool = false;
    type Point = ();

    fn point(&self) {}

    fn assign(&self, scan: &mut Scan<'_>, i: usize, a: &mut usize, _: &mut ()) {
        let row = scan.data.row(i);
        let d = row.len() as u64;
        let (mut best_c, mut best_sq) = (usize::MAX, f64::INFINITY);
        for (c, center) in scan.centers.iter().enumerate() {
            if let Some(pim) = scan.pim {
                scan.other.prune_test();
                if best_c != usize::MAX && pim.lb_sq(i, c) >= best_sq {
                    continue; // cannot strictly beat the incumbent
                }
            }
            scan.ed.euclidean_kernel(d, d * 8);
            let dist_sq = measures::euclidean_sq(row, center);
            scan.other.prune_test();
            if dist_sq < best_sq {
                (best_c, best_sq) = (c, dist_sq);
            }
        }
        *a = best_c;
    }
}

/// Runs Lloyd's algorithm; pass a [`PimAssist`] for the `-PIM` variant.
pub fn kmeans_lloyd(
    dataset: &Dataset,
    cfg: &KmeansConfig,
    pim: Option<&mut PimAssist<'_>>,
) -> Result<KmeansResult, MiningError> {
    run(dataset, cfg, pim, |_, _| Lloyd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_datasets::{generate, SyntheticConfig};

    fn data() -> Dataset {
        generate(&SyntheticConfig {
            n: 120,
            d: 8,
            clusters: 3,
            cluster_std: 0.02,
            stat_uniformity: 0.0,
            seed: 55,
        })
    }

    #[test]
    fn recovers_well_separated_clusters() {
        let ds = data();
        let res = kmeans_lloyd(
            &ds,
            &KmeansConfig {
                k: 3,
                max_iters: 30,
                seed: 1,
            },
            None,
        )
        .unwrap();
        assert!(res.iterations >= 2);
        // Points assigned to the same center must be mutually near.
        assert!(
            res.inertia / (ds.len() as f64) < 0.01,
            "inertia {}",
            res.inertia
        );
        assert_eq!(res.assignments.len(), 120);
        assert_eq!(res.centers.len(), 3);
    }

    #[test]
    fn converges_and_stops_early() {
        let ds = data();
        let res = kmeans_lloyd(
            &ds,
            &KmeansConfig {
                k: 3,
                max_iters: 100,
                seed: 1,
            },
            None,
        )
        .unwrap();
        assert!(
            res.iterations < 100,
            "well-separated data converges quickly"
        );
    }

    #[test]
    fn profile_is_ed_dominated() {
        let ds = data();
        let res = kmeans_lloyd(
            &ds,
            &KmeansConfig {
                k: 8,
                max_iters: 10,
                seed: 1,
            },
            None,
        )
        .unwrap();
        let params = simpim_simkit::HostParams::default();
        let (name, frac) = res.report.profile.bottleneck(&params).unwrap();
        assert_eq!(name, "ED");
        assert!(frac > 0.5, "ED fraction {frac} (paper: 52–96%)");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = data();
        let cfg = KmeansConfig {
            k: 4,
            max_iters: 20,
            seed: 9,
        };
        let a = kmeans_lloyd(&ds, &cfg, None).unwrap();
        let b = kmeans_lloyd(&ds, &cfg, None).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.iterations, b.iterations);
    }
}
