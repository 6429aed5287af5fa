//! k-means clustering algorithms (Section II-C, VI-D).
//!
//! All four algorithms (Lloyd / Elkan / Drake / Yinyang) are exact
//! accelerations of the same iteration: given identical initial centers
//! they produce identical assignments every iteration — an invariant the
//! integration tests enforce. Each takes an optional
//! [`pim::PimAssist`]: when present, `LB_PIM-ED` (recomputed per iteration
//! for the current centers; the *data* stays programmed, so no crossbar
//! re-programming) is consulted before every exact ED of the assign step,
//! yielding the `-PIM` variant of the paper.
//!
//! The iteration is written once, in the private function `run`: the entry
//! check, the initial centres, and per iteration the `LB_PIM-ED` refresh,
//! one chunked assign step, the centre update and each variant's bound
//! shift. Each algorithm file is a `Rule`: its per-point state, its assign
//! rule and its shift rule. Elkan, Drake and Yinyang seed from the shared
//! `Scan::nearest`; Lloyd keeps its own squared-distance scan.

pub mod drake;
pub mod elkan;
pub mod lloyd;
pub mod pim;
pub mod yinyang;

use simpim_similarity::{measures, Dataset};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::kmeans::pim::PimAssist;
use crate::report::{Architecture, RunReport};

/// Points handled per worker task in the assign steps. A fixed constant —
/// chunk boundaries must never depend on the thread count, so per-chunk
/// counters merge in the same order at any `SIMPIM_THREADS`.
const ASSIGN_CHUNK: usize = 64;

/// One algorithm's part of the iteration: the state it keeps per point
/// beside the assignment, how it assigns a point, and how its bounds
/// follow the centres.
trait Rule: Sync {
    /// The `simpim.mining.kmeans.<NAME>.*` metrics.
    const NAME: &'static str;
    /// The span of one assign step.
    const SPAN: &'static str;
    /// `false` for Lloyd, which keeps no bounds: it measures no drift, and
    /// an assign step cut off at `max_iters` still moves its centres.
    const BOUNDED: bool = true;
    /// Per-point state beside the assignment.
    type Point: Clone + Send;

    /// A point's state before the first assign step.
    fn point(&self) -> Self::Point;

    /// The first assign step, with no state to go on yet.
    fn seed(&self, scan: &mut Scan<'_>, i: usize, a: &mut usize, p: &mut Self::Point) {
        self.assign(scan, i, a, p);
    }

    /// Every later assign step: moves `a` to the nearest centre.
    fn assign(&self, scan: &mut Scan<'_>, i: usize, a: &mut usize, p: &mut Self::Point);

    /// Loosens every point's bounds by the centre drifts (`drifts[c]`,
    /// then the assignments and the points), charging the counters.
    fn shift(&self, _: &[f64], _: &[usize], _: &mut [Self::Point], _: &mut OpCounters) {}

    /// Readies the next assign step for centres that moved.
    fn prepare(&mut self, _: &[Vec<f64>], _: &mut OpCounters) {}
}

/// One point's triangle-inequality bounds (Elkan, Yinyang): `ub` on the
/// distance to its own centre, `lb` lower bounds on the others.
#[derive(Clone)]
struct Bounds {
    ub: f64,
    lb: Vec<f64>,
}

/// One chunk of an assign step: the points, the centres, the bounds of
/// the last refresh, and the counters the chunk charges (`ED` / `other`).
struct Scan<'s> {
    data: &'s Dataset,
    centers: &'s [Vec<f64>],
    pim: Option<&'s PimAssist<'s>>,
    ed: OpCounters,
    other: OpCounters,
}

impl Scan<'_> {
    /// The exact ED from point `i` to centre `c`.
    fn dist(&mut self, i: usize, c: usize) -> f64 {
        exact_dist(self.data.row(i), &self.centers[c], &mut self.ed)
    }

    /// `LB_PIM-ED(i, c)` when it proves centre `c` cannot beat `limit`, so
    /// its exact ED is skipped; `None` without PIM or when it can.
    fn pim_prunes(&mut self, i: usize, c: usize, limit: f64) -> Option<f64> {
        let pim = self.pim?;
        self.other.prune_test();
        let lb = pim.lb_dist(i, c);
        (lb >= limit).then_some(lb)
    }

    /// The full scan of point `i`: each centre in index order gets its
    /// exact ED unless `LB_PIM-ED` proves it cannot beat the best so far.
    /// `values[c]` receives that distance or bound; returns the nearest
    /// centre (lowest index on ties) and its distance.
    fn nearest(&mut self, i: usize, values: &mut [f64]) -> (usize, f64) {
        let (mut best_c, mut best) = (usize::MAX, f64::INFINITY);
        for (c, v) in values.iter_mut().enumerate() {
            if let Some(pim) = self.pim {
                self.other.prune_test();
                let lb = pim.lb_dist(i, c);
                if best_c != usize::MAX && lb >= best {
                    *v = lb;
                    continue;
                }
            }
            *v = self.dist(i, c);
            self.other.prune_test();
            if *v < best {
                (best_c, best) = (c, *v);
            }
        }
        (best_c, best)
    }
}

/// The one k-means iteration. Per iteration: `PimAssist::refresh` for the
/// current centres, one assign step over fixed `ASSIGN_CHUNK` point
/// chunks (each point owns its state, counters merge in chunk order, so
/// results are bit-identical at any thread count), then — unless nothing
/// changed or `max_iters` is reached — the centre update and the bound
/// shift, which stops the run when no centre moved.
fn run<R: Rule>(
    dataset: &Dataset,
    cfg: &KmeansConfig,
    mut pim: Option<&mut PimAssist<'_>>,
    rule: impl FnOnce(&[Vec<f64>], &mut RunReport) -> R,
) -> Result<KmeansResult, MiningError> {
    let n = dataset.len();
    if !(1..=n).contains(&cfg.k) {
        return Err(MiningError::InvalidArgument {
            what: format!("k = {} must be in 1..={n}", cfg.k),
        });
    }
    if cfg.max_iters == 0 {
        return Err(MiningError::InvalidArgument {
            what: "max_iters must be at least 1".to_string(),
        });
    }
    let mut report = RunReport::new(if pim.is_some() {
        Architecture::ReRamPim
    } else {
        Architecture::ConventionalDram
    });
    let mut centers = init_centers(dataset, cfg.k, cfg.seed);
    let mut rule = rule(&centers, &mut report);
    let mut assignments = vec![usize::MAX; n];
    let mut points = vec![rule.point(); n];

    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut span = simpim_obs::span!(R::SPAN, iter = iterations as u64);
        if let Some(assist) = pim.as_deref_mut() {
            assist.refresh(&centers, &mut report)?;
        }
        let (seeding, rule_ref, centers_ref, assist) =
            (iterations == 1, &rule, &centers, pim.as_deref());
        let jobs = assignments
            .chunks_mut(ASSIGN_CHUNK)
            .zip(points.chunks_mut(ASSIGN_CHUNK))
            .enumerate()
            .map(|(ci, (a_chunk, p_chunk))| {
                Box::new(move || {
                    let mut scan = Scan {
                        data: dataset,
                        centers: centers_ref,
                        pim: assist,
                        ed: OpCounters::new(),
                        other: OpCounters::new(),
                    };
                    let mut changed = 0u64;
                    for (j, (a, p)) in a_chunk.iter_mut().zip(p_chunk).enumerate() {
                        let (i, old) = (ci * ASSIGN_CHUNK + j, *a);
                        if seeding {
                            rule_ref.seed(&mut scan, i, a, p);
                        } else {
                            rule_ref.assign(&mut scan, i, a, p);
                        }
                        changed += u64::from(*a != old);
                    }
                    (scan.ed, scan.other, changed)
                }) as simpim_par::Job<'_, _>
            })
            .collect();
        let (mut ed, mut other, mut changed) = (OpCounters::new(), OpCounters::new(), 0);
        for (chunk_ed, chunk_other, chunk_changed) in simpim_par::join_all(jobs) {
            ed.add(&chunk_ed);
            other.add(&chunk_other);
            changed += chunk_changed;
        }
        report.profile.record("ED", ed);
        report.profile.record("other", other);
        let metric = |m: &str| format!("simpim.mining.kmeans.{}.{m}", R::NAME);
        simpim_obs::metrics::counter_add(&metric("iterations"), 1);
        simpim_obs::metrics::histogram_record(&metric("reassignments"), changed);
        span.record("reassigned", changed as f64);
        let capped = iterations == cfg.max_iters;
        if changed == 0 || (capped && R::BOUNDED) {
            break;
        }

        let mut upd = OpCounters::new();
        let next = update_centers(dataset, &assignments, &centers, &mut upd);
        report.profile.record("other", upd);
        let mut settled = false;
        if R::BOUNDED {
            let mut bounds = OpCounters::new();
            let drifts = center_drifts(&centers, &next, &mut bounds);
            settled = drifts.iter().all(|&d| d == 0.0);
            rule.shift(&drifts, &assignments, &mut points, &mut bounds);
            if !settled {
                rule.prepare(&next, &mut bounds);
            }
            report.profile.record("bound update", bounds);
        }
        centers = next;
        if settled || capped {
            break;
        }
    }

    let inertia = inertia(dataset, &centers, &assignments);
    Ok(KmeansResult {
        assignments,
        centers,
        iterations,
        inertia,
        report,
    })
}

/// Configuration shared by every k-means variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmeansConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Iteration cap (at least 1).
    pub max_iters: usize,
    /// Seed for initial-center selection (the paper fixes the same initial
    /// centers across algorithms; so do we).
    pub seed: u64,
}

impl Default for KmeansConfig {
    fn default() -> Self {
        Self {
            k: 8,
            max_iters: 50,
            seed: 0xC1u64,
        }
    }
}

/// Result of one clustering run.
#[derive(Debug, Clone)]
pub struct KmeansResult {
    /// Cluster index per object.
    pub assignments: Vec<usize>,
    /// Final centers (k × d).
    pub centers: Vec<Vec<f64>>,
    /// Assign steps executed, the seeding step included.
    pub iterations: usize,
    /// Sum of squared distances to assigned centers.
    pub inertia: f64,
    /// Function profile + PIM timing.
    pub report: RunReport,
}

/// Deterministic initial centers: `k` evenly strided rows (identical
/// across algorithms and architectures, per the paper's methodology).
pub fn init_centers(dataset: &Dataset, k: usize, seed: u64) -> Vec<Vec<f64>> {
    assert!(k >= 1 && k <= dataset.len(), "k must be in 1..=N");
    let n = dataset.len();
    let stride = (n / k).max(1);
    let offset = (seed as usize) % stride.max(1);
    (0..k)
        .map(|c| dataset.row((offset + c * stride) % n).to_vec())
        .collect()
}

/// Euclidean distance (not squared) between a point and a center, charged
/// to the `ED` convention: the kernel plus one square root.
fn exact_dist(p: &[f64], c: &[f64], counters: &mut OpCounters) -> f64 {
    let d = p.len() as u64;
    counters.euclidean_kernel(d, d * 8);
    counters.sqrt += 1;
    measures::euclidean_sq(p, c).sqrt()
}

/// The update step: new centers as assigned-point means; clusters left
/// empty keep their previous center. Charged to `other` (the update step
/// is never offloaded — it needs exact division).
fn update_centers(
    dataset: &Dataset,
    assignments: &[usize],
    old: &[Vec<f64>],
    counters: &mut OpCounters,
) -> Vec<Vec<f64>> {
    let k = old.len();
    let d = dataset.dim();
    let mut sums = vec![vec![0.0f64; d]; k];
    let mut counts = vec![0usize; k];
    for (row, &a) in dataset.rows().zip(assignments) {
        counts[a] += 1;
        for (s, &v) in sums[a].iter_mut().zip(row) {
            *s += v;
        }
    }
    counters.stream(dataset.len() as u64 * d as u64 * 8);
    counters.arith += dataset.len() as u64 * d as u64;
    counters.div += (k * d) as u64;
    counters.write((k * d) as u64 * 8);
    sums.into_iter()
        .zip(counts)
        .zip(old)
        .map(|((mut s, c), prev)| {
            if c == 0 {
                prev.clone()
            } else {
                for v in &mut s {
                    *v /= c as f64;
                }
                s
            }
        })
        .collect()
}

/// Per-center drift `δ(c) = dist(old_c, new_c)` after an update — the
/// quantity the triangle-inequality algorithms adjust their bounds by.
fn center_drifts(old: &[Vec<f64>], new: &[Vec<f64>], counters: &mut OpCounters) -> Vec<f64> {
    old.iter()
        .zip(new)
        .map(|(o, n)| exact_dist(o, n, counters))
        .collect()
}

/// Total within-cluster sum of squared distances.
pub fn inertia(dataset: &Dataset, centers: &[Vec<f64>], assignments: &[usize]) -> f64 {
    dataset
        .rows()
        .zip(assignments)
        .map(|(row, &a)| measures::euclidean_sq(row, &centers[a]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset::from_rows(&[
            vec![0.1, 0.1],
            vec![0.2, 0.1],
            vec![0.8, 0.9],
            vec![0.9, 0.8],
            vec![0.15, 0.12],
            vec![0.85, 0.88],
        ])
        .unwrap()
    }

    #[test]
    fn init_is_deterministic_and_strided() {
        let c1 = init_centers(&ds(), 3, 7);
        let c2 = init_centers(&ds(), 3, 7);
        assert_eq!(c1, c2);
        assert_eq!(c1.len(), 3);
        assert_ne!(init_centers(&ds(), 3, 8), c1);
    }

    #[test]
    fn update_takes_means_and_preserves_empty() {
        let mut c = OpCounters::new();
        let old = vec![vec![0.0, 0.0], vec![0.5, 0.5], vec![0.3, 0.3]];
        // Cluster 2 receives no points.
        let assignments = vec![0, 0, 1, 1, 0, 1];
        let new = update_centers(&ds(), &assignments, &old, &mut c);
        assert!((new[0][0] - (0.1 + 0.2 + 0.15) / 3.0).abs() < 1e-12);
        assert_eq!(new[2], old[2], "empty cluster keeps its center");
        assert!(c.div > 0);
        assert!(c.bytes_written > 0);
    }

    #[test]
    fn drift_is_center_movement() {
        let mut c = OpCounters::new();
        let old = vec![vec![0.0, 0.0]];
        let new = vec![vec![3.0, 4.0]];
        let drifts = center_drifts(&old, &new, &mut c);
        assert!((drifts[0] - 5.0).abs() < 1e-12);
        assert_eq!(c.sqrt, 1);
    }

    #[test]
    fn inertia_of_perfect_assignment_is_small() {
        let data = ds();
        let centers = vec![vec![0.15, 0.11], vec![0.85, 0.8866]];
        let assignments = vec![0, 0, 1, 1, 0, 1];
        assert!(inertia(&data, &centers, &assignments) < 0.02);
    }
}
