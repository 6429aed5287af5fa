//! Elkan's k-means \[30\]: the full triangle-inequality accelerator.
//!
//! Per point, Elkan maintains an upper bound `ub(i)` on the distance to
//! its assigned center and `k` lower bounds `lb(i,c)`; per center pair it
//! keeps exact distances. The filters:
//!
//! * point filter — `ub(i) ≤ ½·min_{c≠a} d(a,c)` proves the assignment;
//! * center filter — `ub(i) ≤ lb(i,c)` or `ub(i) ≤ ½·d(a,c)` skips `c`.
//!
//! The first assign step is the shared full scan, which seeds `ub` and
//! every `lb`. After each update step every bound shifts by the center
//! drift. Keeping `k` lower bounds per point makes the *bound update*
//! pass `O(N·k)` — the overhead that caps Elkan's PIM-oracle at ~2.2× in
//! the paper (Fig. 7b): ED is not always Elkan's bottleneck.
//!
//! With a [`PimAssist`], `LB_PIM-ED` is consulted right before each exact
//! distance; a skipped computation still yields a valid `lb(i,c)` (the PIM
//! bound itself), so the algorithm stays exact (`Elkan-PIM`).

use simpim_similarity::Dataset;
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::kmeans::pim::PimAssist;
use crate::kmeans::{exact_dist, run, Bounds, KmeansConfig, KmeansResult, Rule, Scan};

/// The centre-centre distances `cc` and the half separations `s(c)` of
/// the current centres. A point's [`Bounds`] hold `lb[c]` for every
/// centre `c`.
struct Elkan {
    k: usize,
    cc: Vec<f64>,
    s: Vec<f64>,
}

impl Rule for Elkan {
    const NAME: &'static str = "elkan";
    const SPAN: &'static str = "mining.kmeans.elkan.iteration";
    type Point = Bounds;

    fn point(&self) -> Bounds {
        Bounds {
            ub: 0.0,
            lb: vec![0.0; self.k],
        }
    }

    fn seed(&self, scan: &mut Scan<'_>, i: usize, a: &mut usize, p: &mut Bounds) {
        (*a, p.ub) = scan.nearest(i, &mut p.lb);
    }

    fn assign(&self, scan: &mut Scan<'_>, i: usize, a: &mut usize, p: &mut Bounds) {
        let k = self.k;
        scan.other.prune_test();
        if p.ub <= self.s[*a] {
            return; // point filter
        }
        let mut ub_stale = true;
        for c in 0..k {
            if c == *a {
                continue;
            }
            scan.other.prune_test();
            scan.other.prune_test();
            if p.ub <= p.lb[c] || p.ub <= 0.5 * self.cc[*a * k + c] {
                continue; // center filter
            }
            if ub_stale {
                p.ub = scan.dist(i, *a);
                p.lb[*a] = p.ub;
                ub_stale = false;
                scan.other.prune_test();
                scan.other.prune_test();
                if p.ub <= p.lb[c] || p.ub <= 0.5 * self.cc[*a * k + c] {
                    continue;
                }
            }
            if let Some(lb_pim) = scan.pim_prunes(i, c, p.ub) {
                p.lb[c] = p.lb[c].max(lb_pim);
                continue; // PIM filter: exact ED avoided
            }
            let dist = scan.dist(i, c);
            p.lb[c] = dist;
            scan.other.prune_test();
            if dist < p.ub {
                (*a, p.ub) = (c, dist);
            }
        }
    }

    fn shift(
        &self,
        drifts: &[f64],
        assign: &[usize],
        points: &mut [Bounds],
        counters: &mut OpCounters,
    ) {
        for (p, &a) in points.iter_mut().zip(assign) {
            p.ub += drifts[a];
            for (lb, drift) in p.lb.iter_mut().zip(drifts) {
                *lb = (*lb - drift).max(0.0);
            }
        }
        let (n, k) = (points.len(), self.k);
        counters.arith += (n * (k + 1)) as u64;
        counters.stream((n * k) as u64 * 8);
        counters.write((n * k) as u64 * 8);
    }

    fn prepare(&mut self, centers: &[Vec<f64>], counters: &mut OpCounters) {
        let k = self.k;
        self.s = vec![f64::INFINITY; k];
        for a in 0..k {
            for b in (a + 1)..k {
                let dist = exact_dist(&centers[a], &centers[b], counters);
                self.cc[a * k + b] = dist;
                self.cc[b * k + a] = dist;
                self.s[a] = self.s[a].min(dist);
                self.s[b] = self.s[b].min(dist);
            }
        }
        for v in &mut self.s {
            *v *= 0.5;
        }
    }
}

/// Runs Elkan's algorithm; pass a [`PimAssist`] for `Elkan-PIM`.
pub fn kmeans_elkan(
    dataset: &Dataset,
    cfg: &KmeansConfig,
    pim: Option<&mut PimAssist<'_>>,
) -> Result<KmeansResult, MiningError> {
    run(dataset, cfg, pim, |centers, _| Elkan {
        k: centers.len(),
        cc: vec![0.0; centers.len() * centers.len()],
        s: Vec::new(),
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
            seed: 70,
        })
    }

    #[test]
    fn matches_lloyd_exactly() {
        let ds = data();
        for k in [2usize, 4, 7] {
            let cfg = KmeansConfig {
                k,
                max_iters: 40,
                seed: 3,
            };
            let lloyd = kmeans_lloyd(&ds, &cfg, None).unwrap();
            let elkan = kmeans_elkan(&ds, &cfg, None).unwrap();
            assert_eq!(elkan.assignments, lloyd.assignments, "k={k}");
            assert!((elkan.inertia - lloyd.inertia).abs() < 1e-9);
        }
    }

    #[test]
    fn computes_fewer_exact_distances_than_lloyd() {
        let ds = data();
        let cfg = KmeansConfig {
            k: 6,
            max_iters: 40,
            seed: 3,
        };
        let lloyd = kmeans_lloyd(&ds, &cfg, None).unwrap();
        let elkan = kmeans_elkan(&ds, &cfg, None).unwrap();
        let lloyd_ed = lloyd.report.profile.get("ED").unwrap().counters.mul;
        let elkan_ed = elkan.report.profile.get("ED").unwrap().counters.mul;
        assert!(elkan_ed < lloyd_ed, "{elkan_ed} !< {lloyd_ed}");
    }

    #[test]
    fn bound_update_shows_in_profile() {
        let ds = data();
        let cfg = KmeansConfig {
            k: 6,
            max_iters: 40,
            seed: 3,
        };
        let elkan = kmeans_elkan(&ds, &cfg, None).unwrap();
        assert!(elkan.report.profile.get("bound update").is_some());
    }
}
