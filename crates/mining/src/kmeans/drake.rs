//! Drake's k-means \[31\]: adaptive distance bounds.
//!
//! Instead of Elkan's `k` lower bounds per point, Drake tracks only the
//! `b < k` next-closest centers with individual (sorted) lower bounds plus
//! one aggregate lower bound for all remaining centers. Points whose upper
//! bound undercuts every tracked bound are settled without any distance
//! computation; a violated aggregate bound forces a full rescan that
//! rebuilds the tracked set — the shared full scan, which also seeds every
//! point in the first assign step. This implementation fixes `b = ⌈k/4⌉`
//! (Drake's starting value; the original paper adapts `b` downward —
//! noted as a simplification in DESIGN.md).
//!
//! ED dominates Drake's profile consistently (unlike Elkan), which is why
//! `Drake-PIM` achieves the paper's best k-means speedup (up to 8.5×).

use simpim_similarity::Dataset;
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::kmeans::pim::PimAssist;
use crate::kmeans::{run, KmeansConfig, KmeansResult, Rule, Scan};

/// Drake's rule: `b` centres tracked per point.
struct Drake {
    b: usize,
}

/// One point's bounds: `ub` on its own centre, the `b` tracked
/// `(center, lower bound)` pairs sorted by bound, and the aggregate bound
/// for the untracked rest.
#[derive(Clone)]
struct Tracked {
    ub: f64,
    tracked: Vec<(usize, f64)>,
    lb_rest: f64,
}

/// The order of a tracked set: by bound, then by centre.
fn by_bound(x: &(usize, f64), y: &(usize, f64)) -> std::cmp::Ordering {
    x.1.total_cmp(&y.1).then(x.0.cmp(&y.0))
}

impl Rule for Drake {
    const NAME: &'static str = "drake";
    const SPAN: &'static str = "mining.kmeans.drake.iteration";
    type Point = Tracked;

    fn point(&self) -> Tracked {
        Tracked {
            ub: f64::INFINITY,
            tracked: Vec::new(),
            lb_rest: 0.0,
        }
    }

    /// The full rescan: every centre's distance or bound, the nearest
    /// assigned and the next `b` tracked.
    fn seed(&self, scan: &mut Scan<'_>, i: usize, a: &mut usize, p: &mut Tracked) {
        let k = scan.centers.len();
        let mut values = vec![0.0f64; k];
        (*a, p.ub) = scan.nearest(i, &mut values);
        let mut rest: Vec<(usize, f64)> = values
            .into_iter()
            .enumerate()
            .filter(|&(c, _)| c != *a)
            .collect();
        rest.sort_by(by_bound);
        scan.other.cmp += (k as f64 * (k as f64).log2().max(1.0)) as u64; // sort cost
        p.lb_rest = rest.get(self.b).map_or(f64::INFINITY, |&(_, v)| v);
        rest.truncate(self.b);
        p.tracked = rest;
    }

    fn assign(&self, scan: &mut Scan<'_>, i: usize, a: &mut usize, p: &mut Tracked) {
        let first_lb = p.tracked.first().map_or(p.lb_rest, |&(_, v)| v);
        scan.other.prune_test();
        if p.ub <= first_lb.min(p.lb_rest) {
            return; // settled without any distance
        }
        // Tighten the upper bound.
        p.ub = scan.dist(i, *a);
        scan.other.prune_test();
        if p.ub <= first_lb.min(p.lb_rest) {
            return;
        }
        if p.lb_rest < p.ub {
            // Aggregate bound violated: rebuild from scratch.
            self.seed(scan, i, a, p);
            return;
        }
        // Scan tracked centers in bound order.
        for t in 0..p.tracked.len() {
            let (c, lbv) = p.tracked[t];
            scan.other.prune_test();
            if lbv >= p.ub {
                break; // sorted: the rest cannot win either
            }
            if let Some(lb_pim) = scan.pim_prunes(i, c, p.ub) {
                p.tracked[t].1 = lbv.max(lb_pim);
                continue;
            }
            let dist = scan.dist(i, c);
            scan.other.prune_test();
            if dist < p.ub {
                // Swap: the old assignment joins the tracked set.
                p.tracked[t] = (*a, p.ub);
                (*a, p.ub) = (c, dist);
            } else {
                p.tracked[t].1 = dist;
            }
        }
        p.tracked.sort_by(by_bound);
    }

    fn shift(
        &self,
        drifts: &[f64],
        assign: &[usize],
        points: &mut [Tracked],
        counters: &mut OpCounters,
    ) {
        let max_drift = drifts.iter().copied().fold(0.0f64, f64::max);
        for (p, &a) in points.iter_mut().zip(assign) {
            p.ub += drifts[a];
            for (c, lbv) in &mut p.tracked {
                *lbv = (*lbv - drifts[*c]).max(0.0);
            }
            p.tracked.sort_by(by_bound);
            p.lb_rest = (p.lb_rest - max_drift).max(0.0);
        }
        let (n, b) = (points.len(), self.b);
        counters.arith += (n * (b + 2)) as u64;
        counters.stream((n * b) as u64 * 16);
        counters.write((n * b) as u64 * 8);
    }
}

/// Runs Drake's algorithm; pass a [`PimAssist`] for `Drake-PIM`.
pub fn kmeans_drake(
    dataset: &Dataset,
    cfg: &KmeansConfig,
    pim: Option<&mut PimAssist<'_>>,
) -> Result<KmeansResult, MiningError> {
    run(dataset, cfg, pim, |centers, _| {
        let k = centers.len();
        Drake {
            b: k.div_ceil(4).max(1).min(k.saturating_sub(1).max(1)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::lloyd::kmeans_lloyd;
    use simpim_datasets::{generate, SyntheticConfig};

    fn data() -> Dataset {
        generate(&SyntheticConfig {
            n: 150,
            d: 12,
            clusters: 4,
            cluster_std: 0.02,
            stat_uniformity: 0.0,
            seed: 71,
        })
    }

    #[test]
    fn matches_lloyd_exactly() {
        let ds = data();
        for k in [2usize, 5, 8] {
            let cfg = KmeansConfig {
                k,
                max_iters: 40,
                seed: 3,
            };
            let lloyd = kmeans_lloyd(&ds, &cfg, None).unwrap();
            let drake = kmeans_drake(&ds, &cfg, None).unwrap();
            assert_eq!(drake.assignments, lloyd.assignments, "k={k}");
            assert!((drake.inertia - lloyd.inertia).abs() < 1e-9);
        }
    }

    #[test]
    fn fewer_exact_distances_than_lloyd() {
        let ds = data();
        let cfg = KmeansConfig {
            k: 8,
            max_iters: 40,
            seed: 3,
        };
        let lloyd = kmeans_lloyd(&ds, &cfg, None).unwrap();
        let drake = kmeans_drake(&ds, &cfg, None).unwrap();
        let l = lloyd.report.profile.get("ED").unwrap().counters.mul;
        let d = drake.report.profile.get("ED").unwrap().counters.mul;
        assert!(d < l, "{d} !< {l}");
    }

    #[test]
    fn tracks_fewer_bounds_than_elkan_memory() {
        // Structural check: Drake's bound-update traffic is below Elkan's
        // O(N·k) because only b = ⌈k/4⌉ bounds are maintained.
        use crate::kmeans::elkan::kmeans_elkan;
        let ds = data();
        let cfg = KmeansConfig {
            k: 8,
            max_iters: 40,
            seed: 3,
        };
        let elkan = kmeans_elkan(&ds, &cfg, None).unwrap();
        let drake = kmeans_drake(&ds, &cfg, None).unwrap();
        let e = elkan
            .report
            .profile
            .get("bound update")
            .unwrap()
            .counters
            .bytes_written;
        let d = drake
            .report
            .profile
            .get("bound update")
            .unwrap()
            .counters
            .bytes_written;
        assert!(d < e, "{d} !< {e}");
    }
}
