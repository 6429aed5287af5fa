//! Yinyang k-means \[29\]: global + group filtering.
//!
//! Centers are partitioned once into `t = ⌈k/10⌉` groups (by clustering
//! the initial centers themselves); each point keeps one upper bound and
//! one lower bound **per group** instead of Elkan's per-center bounds.
//! The first assign step is the shared full scan, whose distances and
//! bounds seed the group bounds. The global filter skips a point when its
//! upper bound undercuts every group bound; surviving points only scan
//! groups whose bound is violated, and each group bound shifts by the
//! largest drift in its group. Fewer bounds mean cheaper maintenance than
//! Elkan, but on high-dimensional data the surviving exact-ED work grows
//! — exactly the gap `Yinyang-PIM` closes (up to 4.9× in the paper).
//!
//! With a [`PimAssist`], `LB_PIM-ED` guards every exact distance inside a
//! group scan; a skipped center contributes its PIM bound to the group's
//! new lower bound, which keeps the filter sound.

use simpim_similarity::{measures, Dataset};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::kmeans::pim::PimAssist;
use crate::kmeans::{run, Bounds, KmeansConfig, KmeansResult, Rule, Scan};

/// Groups the initial centers into `t` clusters with a few Lloyd passes
/// over the centers themselves (the grouping the Yinyang paper prescribes).
fn group_centers(centers: &[Vec<f64>], t: usize, counters: &mut OpCounters) -> Vec<usize> {
    let k = centers.len();
    if t >= k {
        return (0..k).collect();
    }
    let mut seeds: Vec<Vec<f64>> = (0..t).map(|g| centers[g * k / t].clone()).collect();
    let mut groups = vec![0usize; k];
    for _ in 0..4 {
        for (c, center) in centers.iter().enumerate() {
            let mut best = f64::INFINITY;
            for (g, seed) in seeds.iter().enumerate() {
                counters.euclidean_kernel(center.len() as u64, center.len() as u64 * 8);
                let dist = measures::euclidean_sq(center, seed);
                if dist < best {
                    best = dist;
                    groups[c] = g;
                }
            }
        }
        // Recompute seeds as group means.
        let d = centers[0].len();
        let mut sums = vec![vec![0.0f64; d]; t];
        let mut counts = vec![0usize; t];
        for (c, &g) in groups.iter().enumerate() {
            counts[g] += 1;
            for (s, &v) in sums[g].iter_mut().zip(&centers[c]) {
                *s += v;
            }
        }
        for g in 0..t {
            if counts[g] > 0 {
                for v in &mut sums[g] {
                    *v /= counts[g] as f64;
                }
                seeds[g] = sums[g].clone();
            }
        }
    }
    groups
}

/// The `t` groups: `group_of[c]` for every centre. A point's [`Bounds`]
/// hold `lb[g]` for the centres of group `g` other than its own.
struct Yinyang {
    t: usize,
    group_of: Vec<usize>,
}

impl Rule for Yinyang {
    const NAME: &'static str = "yinyang";
    const SPAN: &'static str = "mining.kmeans.yinyang.iteration";
    type Point = Bounds;

    fn point(&self) -> Bounds {
        Bounds {
            ub: 0.0,
            lb: vec![f64::INFINITY; self.t],
        }
    }

    fn seed(&self, scan: &mut Scan<'_>, i: usize, a: &mut usize, p: &mut Bounds) {
        let mut values = vec![0.0f64; scan.centers.len()];
        (*a, p.ub) = scan.nearest(i, &mut values);
        for (c, &v) in values.iter().enumerate() {
            if c != *a {
                let g = self.group_of[c];
                p.lb[g] = p.lb[g].min(v);
            }
        }
    }

    fn assign(&self, scan: &mut Scan<'_>, i: usize, a: &mut usize, p: &mut Bounds) {
        let min_lb = p.lb.iter().copied().fold(f64::INFINITY, f64::min);
        scan.other.prune_test();
        if p.ub <= min_lb {
            return; // global filter
        }
        p.ub = scan.dist(i, *a);
        scan.other.prune_test();
        if p.ub <= min_lb {
            return;
        }
        for g in 0..self.t {
            scan.other.prune_test();
            if p.lb[g] >= p.ub {
                continue; // group filter (bound stays valid)
            }
            let mut new_lb = f64::INFINITY;
            for c in 0..scan.centers.len() {
                if self.group_of[c] != g || c == *a {
                    continue;
                }
                if let Some(lb_pim) = scan.pim_prunes(i, c, p.ub) {
                    new_lb = new_lb.min(lb_pim);
                    continue; // PIM filter
                }
                let dist = scan.dist(i, c);
                scan.other.prune_test();
                if dist < p.ub {
                    // The displaced assignment feeds its group's bound.
                    let (old_a, old_ub) = (*a, p.ub);
                    (*a, p.ub) = (c, dist);
                    let og = self.group_of[old_a];
                    if og == g {
                        new_lb = new_lb.min(old_ub);
                    } else {
                        p.lb[og] = p.lb[og].min(old_ub);
                    }
                } else {
                    new_lb = new_lb.min(dist);
                }
            }
            p.lb[g] = new_lb;
        }
    }

    fn shift(
        &self,
        drifts: &[f64],
        assign: &[usize],
        points: &mut [Bounds],
        counters: &mut OpCounters,
    ) {
        let t = self.t;
        let mut group_drift = vec![0.0f64; t];
        for (&g, &dr) in self.group_of.iter().zip(drifts) {
            group_drift[g] = group_drift[g].max(dr);
        }
        for (p, &a) in points.iter_mut().zip(assign) {
            p.ub += drifts[a];
            for (lb, gd) in p.lb.iter_mut().zip(&group_drift) {
                *lb = (*lb - gd).max(0.0);
            }
        }
        let n = points.len();
        counters.arith += (n * (t + 1)) as u64;
        counters.stream((n * t) as u64 * 8);
        counters.write((n * t) as u64 * 8);
    }
}

/// Runs Yinyang k-means; pass a [`PimAssist`] for `Yinyang-PIM`.
pub fn kmeans_yinyang(
    dataset: &Dataset,
    cfg: &KmeansConfig,
    pim: Option<&mut PimAssist<'_>>,
) -> Result<KmeansResult, MiningError> {
    run(dataset, cfg, pim, |centers, report| {
        let t = centers.len().div_ceil(10).max(1);
        let mut grouping = OpCounters::new();
        let group_of = group_centers(centers, t, &mut grouping);
        report.profile.record("other", grouping);
        Yinyang { t, group_of }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::lloyd::kmeans_lloyd;
    use simpim_datasets::{generate, SyntheticConfig};

    fn data() -> Dataset {
        generate(&SyntheticConfig {
            n: 160,
            d: 12,
            clusters: 4,
            cluster_std: 0.02,
            stat_uniformity: 0.0,
            seed: 72,
        })
    }

    #[test]
    fn matches_lloyd_exactly() {
        let ds = data();
        for k in [3usize, 6, 12] {
            let cfg = KmeansConfig {
                k,
                max_iters: 40,
                seed: 5,
            };
            let lloyd = kmeans_lloyd(&ds, &cfg, None).unwrap();
            let yy = kmeans_yinyang(&ds, &cfg, None).unwrap();
            assert_eq!(yy.assignments, lloyd.assignments, "k={k}");
            assert!((yy.inertia - lloyd.inertia).abs() < 1e-9);
        }
    }

    #[test]
    fn fewer_exact_distances_than_lloyd() {
        let ds = data();
        let cfg = KmeansConfig {
            k: 12,
            max_iters: 40,
            seed: 5,
        };
        let lloyd = kmeans_lloyd(&ds, &cfg, None).unwrap();
        let yy = kmeans_yinyang(&ds, &cfg, None).unwrap();
        let l = lloyd.report.profile.get("ED").unwrap().counters.mul;
        let y = yy.report.profile.get("ED").unwrap().counters.mul;
        assert!(y < l, "{y} !< {l}");
    }

    #[test]
    fn lighter_bound_maintenance_than_elkan() {
        use crate::kmeans::elkan::kmeans_elkan;
        let ds = data();
        let cfg = KmeansConfig {
            k: 12,
            max_iters: 40,
            seed: 5,
        };
        let elkan = kmeans_elkan(&ds, &cfg, None).unwrap();
        let yy = kmeans_yinyang(&ds, &cfg, None).unwrap();
        let e = elkan
            .report
            .profile
            .get("bound update")
            .unwrap()
            .counters
            .bytes_written;
        let y = yy
            .report
            .profile
            .get("bound update")
            .unwrap()
            .counters
            .bytes_written;
        assert!(y < e, "t = ⌈k/10⌉ bounds vs k bounds: {y} !< {e}");
    }

    #[test]
    fn grouping_covers_all_centers() {
        let centers: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0; 4]).collect();
        let mut c = OpCounters::new();
        let groups = group_centers(&centers, 2, &mut c);
        assert_eq!(groups.len(), 20);
        assert!(groups.iter().all(|&g| g < 2));
        // Both groups used on spread-out centers.
        assert!(groups.contains(&0) && groups.contains(&1));
    }
}
