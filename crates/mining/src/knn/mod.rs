//! kNN classification algorithms (Section II-C, VI-C).

pub mod algorithms;
pub mod cascade;
pub mod hamming;
pub mod pim;
pub mod resident;
pub mod standard;

use std::ops::Range;

use simpim_bounds::{BoundCascade, BoundDirection, BoundStage, PreparedBound};
use simpim_similarity::{measures, Measure};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::report::RunReport;

/// Candidates handled per worker task inside one refinement chunk.
const REFINE_TASK: usize = 8;

/// The argument check of every kNN entry point that owns its whole
/// dataset: `k` in `1..=n` and a query as wide as the rows (`dim` counts
/// dimensions, or bits for binary codes). A typed error, never a panic.
pub(crate) fn check_args(
    k: usize,
    n: usize,
    query_dim: usize,
    dim: usize,
) -> Result<(), MiningError> {
    let what = if k == 0 || k > n {
        format!("k must be in 1..={n}, got {k}")
    } else if query_dim != dim {
        format!("query has {query_dim} dimensions, the data has {dim}")
    } else {
        return Ok(());
    };
    Err(MiningError::InvalidArgument { what })
}

/// Rejects a cascade whose bounds point the wrong way for `measure`:
/// lower bounds prune distances, upper bounds prune similarities.
pub(crate) fn check_direction(cascade: &BoundCascade, measure: Measure) -> Result<(), MiningError> {
    let expected = if measure.smaller_is_closer() {
        BoundDirection::LowerBoundsDistance
    } else {
        BoundDirection::UpperBoundsSimilarity
    };
    match cascade.direction() {
        Some(dir) if dir != expected => Err(MiningError::InvalidArgument {
            what: format!(
                "cascade direction {dir:?} does not match {}: expected {expected:?}",
                measure.name()
            ),
        }),
        _ => Ok(()),
    }
}

/// Deterministic chunk schedule for the parallel refinement walk, a pure
/// function of `(n, k)` — never of the thread count, so chunk boundaries
/// (and with them every τ snapshot and counter) are identical at any
/// `SIMPIM_THREADS`.
///
/// The first chunk holds the `k` best-bounded candidates (they seed the
/// pool; with an underfull pool nothing is prunable anyway), then chunks
/// grow geometrically from 16. Small early chunks keep the threshold
/// snapshots nearly as fresh as the serial walk's — staleness within a
/// chunk can only *add* exact refinements, never change the result — while
/// the geometric growth amortizes fork/join overhead over the long pruned
/// tail.
fn refine_chunk_schedule(n: usize, k: usize) -> Vec<Range<usize>> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut next = k.max(1);
    let mut grow = 16usize;
    while start < n {
        let end = (start + next).min(n);
        chunks.push(start..end);
        start = end;
        next = grow;
        grow = (grow * 2).min(4096);
    }
    chunks
}

/// The best-bound-first candidate order of a refinement walk, put in
/// order only as far as the walk gets. The walks stop at the first chunk
/// whose best bound is prunable — a few dozen candidates in when the PIM
/// bounds are tight — so sorting all `n` up front is mostly wasted.
///
/// The order is total: better bound first (`f64::total_cmp`, reversed
/// for similarities), ties by a key that is unique per candidate (row
/// index or global id). A total order has exactly one sorted sequence, so
/// the prefix produced here by selection plus an unstable sort is
/// element-for-element the prefix of the full stable sort it replaces,
/// and every walk visits the same candidates in the same order.
pub(crate) struct LazyOrder<K> {
    /// `(bound, row)` pairs; `items[..sorted]` is in final order and
    /// every later item ranks after all of them.
    items: Vec<(f64, usize)>,
    sorted: usize,
    smaller_is_closer: bool,
    tie_key: K,
}

impl<K: Fn(usize) -> usize> LazyOrder<K> {
    /// Wraps unordered `(bound, row)` candidates; `tie_key(row)` must be
    /// unique per candidate. Charges `counters.cmp` the `n·log₂n`
    /// comparisons of a full sort: the modeled filter is the paper's —
    /// sort the bounds, then walk — however little of the order the host
    /// simulation ends up materializing.
    pub(crate) fn new(
        items: Vec<(f64, usize)>,
        smaller_is_closer: bool,
        tie_key: K,
        counters: &mut OpCounters,
    ) -> Self {
        let n = items.len() as f64;
        counters.cmp += (n * n.log2().max(1.0)) as u64;
        Self {
            items,
            sorted: 0,
            smaller_is_closer,
            tie_key,
        }
    }

    /// Number of candidates.
    fn len(&self) -> usize {
        self.items.len()
    }

    /// The candidates at positions `chunk` of the full order. Chunks must
    /// be requested front to back, as [`refine_chunk_schedule`] yields
    /// them.
    fn chunk(&mut self, chunk: Range<usize>) -> &[(f64, usize)] {
        if chunk.end > self.sorted {
            // Grow the ordered prefix at least geometrically, so a walk
            // that never prunes still pays O(n log n) in total.
            let end = chunk.end.max(2 * self.sorted).min(self.items.len());
            let (smaller_is_closer, tie_key) = (self.smaller_is_closer, &self.tie_key);
            let cmp = |a: &(f64, usize), b: &(f64, usize)| {
                let by_bound = a.0.total_cmp(&b.0);
                let by_bound = if smaller_is_closer {
                    by_bound
                } else {
                    by_bound.reverse()
                };
                by_bound.then_with(|| tie_key(a.1).cmp(&tie_key(b.1)))
            };
            let tail = &mut self.items[self.sorted..];
            let need = end - self.sorted;
            if need < tail.len() {
                tail.select_nth_unstable_by(need - 1, cmp);
            }
            tail[..need].sort_unstable_by(cmp);
            self.sorted = end;
        }
        &self.items[chunk]
    }
}

/// Converts a bound stage's per-object [`simpim_bounds::EvalCost`] into
/// counters for `objects` evaluations.
pub(crate) fn charge_stage(
    cost: &simpim_bounds::EvalCost,
    objects: u64,
    counters: &mut OpCounters,
) {
    counters.arith += cost.arith * objects;
    counters.mul += cost.mul * objects;
    counters.div += cost.div * objects;
    counters.sqrt += cost.sqrt * objects;
    counters.stream(cost.bytes * objects);
}

/// What one [`walk`] found and what it cost.
pub(crate) struct Walk {
    /// `(id, measure value)` pairs, best first, at most `k`.
    pub(crate) neighbors: Vec<(usize, f64)>,
    /// Candidates the ordering bound eliminated.
    pub(crate) first_pruned: u64,
    /// `(seen, pruned)` per later stage.
    pub(crate) stages: Vec<(u64, u64)>,
    /// Candidates evaluated exactly.
    pub(crate) refined: u64,
    /// Cost of the exact evaluations (and their random fetches).
    pub(crate) exact: OpCounters,
    /// Cost of the prune tests and pool updates.
    pub(crate) other: OpCounters,
}

impl Walk {
    /// Books the later stages a walk went through: each one's evaluation
    /// cost in `report`'s profile and its pruning observations in the
    /// registry.
    pub(crate) fn record_stages(&self, stages: &[&dyn BoundStage], report: &mut RunReport) {
        for (stage, &(seen, pruned)) in stages.iter().zip(&self.stages) {
            let mut c = OpCounters::new();
            charge_stage(&stage.eval_cost(), seen, &mut c);
            report.profile.record(&stage.name(), c);
            flush_bound(
                &stage.name(),
                seen,
                pruned,
                stage.transfer_bytes_per_object(),
            );
        }
    }
}

/// Flushes one bound's pruning observations for one query — the
/// `simpim.bounds.*` counters `simpim_core::CandidateBound::from_metrics`
/// reads as the measured pruning ratios of Eq. 13. A registry touch per
/// bound per query, never per object.
pub(crate) fn flush_bound(name: &str, seen: u64, pruned: u64, transfer_bytes: u64) {
    simpim_obs::metrics::counter_add(&format!("simpim.bounds.{name}.seen"), seen);
    simpim_obs::metrics::counter_add(&format!("simpim.bounds.{name}.pruned"), pruned);
    simpim_obs::metrics::gauge_set(
        &format!("simpim.bounds.{name}.transfer_bytes"),
        transfer_bytes as f64,
    );
}

/// The best-bound-first refinement walk under every filter-and-refine
/// kNN: `order` holds the candidates by their first (ordering) bound, a
/// survivor then runs the `later` bounds in order, and what survives
/// those is evaluated exactly on `row(i)` and offered to the pool as
/// `id(i)`. Once the best remaining first bound cannot beat the pool's
/// threshold τ, everything after it is pruned wholesale.
///
/// The walk is chunked and parallel (DESIGN.md §10). Chunk boundaries
/// come from [`refine_chunk_schedule`] — a pure function of the workload,
/// never of the thread count — and each chunk prunes against a τ snapshot
/// taken at its start. A stale (weaker) τ can only let extra candidates
/// through to exact evaluation, never drop a true neighbour, and because
/// workers return results merged in candidate order the pool update
/// sequence, and with it every counter, is identical at any
/// `SIMPIM_THREADS`.
pub(crate) fn walk<'a, K: Fn(usize) -> usize>(
    mut order: LazyOrder<K>,
    later: &[Box<dyn PreparedBound + '_>],
    row: impl Fn(usize) -> &'a [f64] + Sync,
    id: impl Fn(usize) -> usize + Sync,
    query: &[f64],
    k: usize,
    measure: Measure,
) -> Result<Walk, MiningError> {
    let n = order.len();
    let mut top = TopK::new(k, measure.smaller_is_closer());
    let mut out = Walk {
        neighbors: Vec::new(),
        first_pruned: 0,
        stages: vec![(0, 0); later.len()],
        refined: 0,
        exact: OpCounters::new(),
        other: OpCounters::new(),
    };
    for chunk in refine_chunk_schedule(n, k.min(n.max(1))) {
        out.other.prune_test();
        let start = chunk.start;
        let cands = order.chunk(chunk);
        if top.prunable(cands[0].0) {
            // Sorted first bound: this chunk and everything after it is
            // prunable too.
            out.first_pruned += (n - start) as u64;
            break;
        }
        let snap = &top.clone();
        let tasks = simpim_par::map_chunks(cands.len(), REFINE_TASK, |r| {
            let mut hits = Vec::new();
            let (mut exact, mut other) = (OpCounters::new(), OpCounters::new());
            let mut first_pruned = 0u64;
            let mut stages = vec![(0u64, 0u64); later.len()];
            'cand: for &(bound, i) in &cands[r] {
                other.prune_test();
                if snap.prunable(bound) {
                    first_pruned += 1;
                    continue;
                }
                for (prepared, (seen, pruned)) in later.iter().zip(&mut stages) {
                    *seen += 1;
                    other.prune_test();
                    if snap.prunable(prepared.bound(i)) {
                        *pruned += 1;
                        continue 'cand;
                    }
                }
                exact.random_fetches += 1;
                hits.push((id(i), exact_eval(measure, row(i), query, &mut exact)?));
            }
            Ok::<_, MiningError>((hits, exact, other, first_pruned, stages))
        });
        for task in tasks {
            let (hits, exact, other, first_pruned, stages) = task?;
            out.exact.add(&exact);
            out.other.add(&other);
            out.first_pruned += first_pruned;
            for (total, (seen, pruned)) in out.stages.iter_mut().zip(stages) {
                total.0 += seen;
                total.1 += pruned;
            }
            out.refined += hits.len() as u64;
            for (id, value) in hits {
                out.other.prune_test();
                top.offer(id, value);
            }
        }
    }
    out.neighbors = top.into_sorted();
    Ok(out)
}

/// The result of one kNN query: the exact k nearest objects (best first,
/// ties broken by index) and the run's instrumentation.
#[derive(Debug, Clone)]
pub struct KnnResult {
    /// `(object index, measure value)` pairs, best first.
    pub neighbors: Vec<(usize, f64)>,
    /// Function profile + PIM timing of the query.
    pub report: RunReport,
}

impl KnnResult {
    /// The neighbor indices only.
    pub fn indices(&self) -> Vec<usize> {
        self.neighbors.iter().map(|&(i, _)| i).collect()
    }
}

/// Ordered candidate pool of size k — a simple sorted vector, which for
/// the small `k` of kNN (1–100) beats a binary heap and keeps deterministic
/// tie-breaking (by index).
#[derive(Debug, Clone)]
pub struct TopK {
    entries: Vec<(usize, f64)>, // sorted best-first
    k: usize,
    smaller_is_closer: bool,
}

impl TopK {
    /// An empty pool of capacity `k`. `smaller_is_closer` selects the
    /// direction: `true` for distances (ED, HD), `false` for similarities
    /// (CS, PCC).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, smaller_is_closer: bool) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            entries: Vec::with_capacity(k + 1),
            k,
            smaller_is_closer,
        }
    }

    fn better(&self, a: f64, ai: usize, b: f64, bi: usize) -> bool {
        if a != b {
            if self.smaller_is_closer {
                a < b
            } else {
                a > b
            }
        } else {
            ai < bi
        }
    }

    /// Offers a candidate; returns `true` when it entered the pool.
    pub fn offer(&mut self, idx: usize, value: f64) -> bool {
        if self.entries.len() == self.k {
            let (wi, wv) = *self.entries.last().expect("non-empty at k");
            if !self.better(value, idx, wv, wi) {
                return false;
            }
        }
        let pos = self
            .entries
            .partition_point(|&(ei, ev)| self.better(ev, ei, value, idx));
        self.entries.insert(pos, (idx, value));
        if self.entries.len() > self.k {
            self.entries.pop();
        }
        true
    }

    /// Current pruning threshold: the k-th best value (or the worst
    /// possible value while the pool is underfull).
    pub fn threshold(&self) -> f64 {
        if self.entries.len() < self.k {
            if self.smaller_is_closer {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        } else {
            self.entries.last().expect("non-empty").1
        }
    }

    /// `true` when a bound value proves an object cannot enter the pool.
    pub fn prunable(&self, bound: f64) -> bool {
        if self.smaller_is_closer {
            bound > self.threshold()
        } else {
            bound < self.threshold()
        }
    }

    /// The pool's `(index, value)` pairs, best first.
    pub fn into_sorted(self) -> Vec<(usize, f64)> {
        self.entries
    }
}

/// Evaluates a measure exactly and charges the per-object cost convention:
/// ED streams the candidate and runs the subtract-multiply-add kernel;
/// CS/PCC run the dot kernel plus the precomputed-statistics combination.
/// Hamming distance is defined on binary codes, not float rows, and yields
/// [`MiningError::UnsupportedMeasure`].
pub fn exact_eval(
    measure: Measure,
    p: &[f64],
    q: &[f64],
    counters: &mut OpCounters,
) -> Result<f64, MiningError> {
    let d = p.len() as u64;
    match measure {
        Measure::EuclideanSq => {
            counters.euclidean_kernel(d, d * 8);
            Ok(measures::euclidean_sq(p, q))
        }
        Measure::Cosine => {
            counters.dot_kernel(d, d * 8);
            counters.stream(8); // precomputed ‖p‖
            counters.div += 1;
            Ok(measures::cosine(p, q))
        }
        Measure::Pearson => {
            counters.dot_kernel(d, d * 8);
            counters.stream(16); // precomputed Φa(p), Φb(p)
            counters.arith += 2;
            counters.mul += 2;
            counters.div += 1;
            Ok(measures::pearson(p, q))
        }
        Measure::Hamming => Err(MiningError::UnsupportedMeasure { measure }),
    }
}

/// [`exact_eval`] for a candidate that only matters at or below `limit`:
/// a Euclidean distance is abandoned (`None`) once a partial sum is above
/// it; the similarities are evaluated in full. Charged like
/// [`exact_eval`] either way — the modeled host pays Eq. 1's whole row,
/// abandonment is the simulation's saving.
pub(crate) fn exact_eval_until(
    measure: Measure,
    p: &[f64],
    q: &[f64],
    limit: f64,
    counters: &mut OpCounters,
) -> Result<Option<f64>, MiningError> {
    if measure == Measure::EuclideanSq {
        let d = p.len() as u64;
        counters.euclidean_kernel(d, d * 8);
        Ok(measures::euclidean_sq_until(p, q, limit))
    } else {
        exact_eval(measure, p, q, counters).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_k_best_distances() {
        let mut t = TopK::new(3, true);
        for (i, v) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            t.offer(i, *v);
        }
        let out = t.into_sorted();
        assert_eq!(
            out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![1, 3, 4]
        );
    }

    #[test]
    fn topk_similarity_direction() {
        let mut t = TopK::new(2, false);
        for (i, v) in [0.1, 0.9, 0.5].iter().enumerate() {
            t.offer(i, *v);
        }
        assert_eq!(
            t.into_sorted().iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn topk_tie_breaks_by_index() {
        let mut t = TopK::new(2, true);
        t.offer(5, 1.0);
        t.offer(2, 1.0);
        t.offer(9, 1.0);
        assert_eq!(
            t.into_sorted().iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![2, 5]
        );
    }

    #[test]
    fn threshold_and_prunable() {
        let mut t = TopK::new(2, true);
        assert_eq!(t.threshold(), f64::INFINITY);
        assert!(!t.prunable(1e18));
        t.offer(0, 1.0);
        t.offer(1, 2.0);
        assert_eq!(t.threshold(), 2.0);
        assert!(t.prunable(2.5));
        assert!(!t.prunable(2.0)); // equal bound cannot prove exclusion
    }

    #[test]
    fn exact_eval_charges_costs() {
        let mut c = OpCounters::new();
        let v = exact_eval(Measure::EuclideanSq, &[0.0, 0.0], &[3.0, 4.0], &mut c).unwrap();
        assert_eq!(v, 25.0);
        assert_eq!(c.bytes_streamed, 16);
        assert_eq!(c.mul, 2);
        let mut c2 = OpCounters::new();
        exact_eval(Measure::Cosine, &[1.0, 0.0], &[1.0, 0.0], &mut c2).unwrap();
        assert_eq!(c2.div, 1);
    }

    #[test]
    fn refine_schedule_covers_every_candidate_exactly_once() {
        for (n, k) in [(0, 5), (1, 5), (7, 10), (300, 10), (5000, 1), (4097, 100)] {
            let chunks = refine_chunk_schedule(n, k);
            let mut expect = 0usize;
            for c in &chunks {
                assert_eq!(c.start, expect, "n={n} k={k}");
                assert!(c.end > c.start, "n={n} k={k}");
                expect = c.end;
            }
            assert_eq!(expect, n, "n={n} k={k}");
            if n > k {
                assert_eq!(chunks[0], 0..k, "warm-up chunk seeds the pool");
            }
        }
    }

    #[test]
    fn lazy_order_yields_the_full_sort_chunk_by_chunk() {
        // 20 000 candidates over 512 distinct bounds: long enough that
        // the ordered prefix grows by doubling, not only chunk by chunk.
        let items: Vec<(f64, usize)> = (0..20_000usize)
            .map(|i| ((i.wrapping_mul(2_654_435_761) >> 9) % 512, i))
            .map(|(b, i)| (b as f64 * 0.25, i))
            .collect();
        for smaller_is_closer in [true, false] {
            let mut sorted = items.clone();
            sorted.sort_by(|a, b| {
                let by_bound = a.0.total_cmp(&b.0);
                let by_bound = if smaller_is_closer {
                    by_bound
                } else {
                    by_bound.reverse()
                };
                by_bound.then(a.1.cmp(&b.1))
            });
            let mut c = OpCounters::new();
            let mut lazy = LazyOrder::new(items.clone(), smaller_is_closer, |i| i, &mut c);
            assert_eq!(c.cmp, (20_000f64 * 20_000f64.log2()) as u64);
            assert_eq!(lazy.len(), sorted.len());
            for chunk in refine_chunk_schedule(sorted.len(), 10) {
                assert_eq!(lazy.chunk(chunk.clone()), &sorted[chunk]);
            }
        }
    }

    /// A later stage that reads its bounds from a table.
    struct Table(Vec<f64>);

    impl PreparedBound for Table {
        fn bound(&self, i: usize) -> f64 {
            self.0[i]
        }
    }

    /// The walk all four fronts used to carry, kept as the reference: one
    /// full stable sort of the candidates up front, then the same chunk
    /// schedule, τ snapshots and counter charges, serially. The sort's
    /// `cmp` charge goes to `other`, where three of the fronts book it.
    fn reference_walk<'a>(
        mut order: Vec<(f64, usize)>,
        later: &[Box<dyn PreparedBound + '_>],
        row: impl Fn(usize) -> &'a [f64],
        id: impl Fn(usize) -> usize,
        query: &[f64],
        k: usize,
        measure: Measure,
    ) -> Walk {
        let smaller_is_closer = measure.smaller_is_closer();
        order.sort_by(|a, b| {
            let by_bound = a.0.total_cmp(&b.0);
            let by_bound = if smaller_is_closer {
                by_bound
            } else {
                by_bound.reverse()
            };
            by_bound.then(id(a.1).cmp(&id(b.1)))
        });
        let n = order.len();
        let mut top = TopK::new(k, smaller_is_closer);
        let mut out = Walk {
            neighbors: Vec::new(),
            first_pruned: 0,
            stages: vec![(0, 0); later.len()],
            refined: 0,
            exact: OpCounters::new(),
            other: OpCounters::new(),
        };
        out.other.cmp += (n as f64 * (n as f64).log2().max(1.0)) as u64;
        for chunk in refine_chunk_schedule(n, k.min(n.max(1))) {
            out.other.prune_test();
            if top.prunable(order[chunk.start].0) {
                out.first_pruned += (n - chunk.start) as u64;
                break;
            }
            let snap = top.clone();
            let mut hits = Vec::new();
            'cand: for &(bound, i) in &order[chunk] {
                out.other.prune_test();
                if snap.prunable(bound) {
                    out.first_pruned += 1;
                    continue;
                }
                for (stage, prepared) in later.iter().enumerate() {
                    out.stages[stage].0 += 1;
                    out.other.prune_test();
                    if snap.prunable(prepared.bound(i)) {
                        out.stages[stage].1 += 1;
                        continue 'cand;
                    }
                }
                out.exact.random_fetches += 1;
                let v = exact_eval(measure, row(i), query, &mut out.exact).unwrap();
                hits.push((id(i), v));
            }
            out.refined += hits.len() as u64;
            for (id, v) in hits {
                out.other.prune_test();
                top.offer(id, v);
            }
        }
        out.neighbors = top.into_sorted();
        out
    }

    fn assert_same_walk(got: &Walk, want: &Walk, what: &str) {
        assert_eq!(got.neighbors, want.neighbors, "{what}: neighbours");
        assert_eq!(got.first_pruned, want.first_pruned, "{what}: first bound");
        assert_eq!(got.stages, want.stages, "{what}: per-stage seen/pruned");
        assert_eq!(got.refined, want.refined, "{what}: refined");
        assert_eq!(got.exact, want.exact, "{what}: exact counters");
        assert_eq!(got.other, want.other, "{what}: other counters");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Ordering only the prefix the walk reaches, and walking it in
        /// parallel chunks, changes nothing a caller can see: `walk` and
        /// `refine_resident` (its front with ids, tombstones and no later
        /// stage) return the reference's neighbours, `refined`, first-bound
        /// and per-stage seen/pruned and `OpCounters` — with heavily
        /// duplicated bounds (ties fall to the id, which runs against the
        /// row index here), two later stages, tombstones, k ∈ {1, 10, n},
        /// both senses of "closer", at 1, 2 and 8 workers.
        #[test]
        fn lazy_order_walk_equals_full_sort_walk(
            cells in proptest::prop::collection::vec(
                (0u32..8, 0u32..6, 0u32..6, proptest::any::<bool>(), 0u32..12, 0u32..12),
                1..=300,
            ),
            k_choice in 0usize..3,
            smaller_is_closer in proptest::any::<bool>(),
        ) {
            use crate::knn::resident::{refine_resident, ShardView};
            use simpim_similarity::Dataset;

            let n = cells.len();
            let rows = Dataset::from_rows(
                &cells
                    .iter()
                    .map(|c| vec![0.1 + f64::from(c.1) * 0.15, 0.1 + f64::from(c.2) * 0.15])
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            let ids: Vec<usize> = (0..n).map(|i| 10_000 - i).collect();
            let live: Vec<bool> = cells.iter().map(|c| c.3).collect();
            // Eight distinct first-bound values over up to 300 rows, a
            // dozen per later stage. Not valid bounds of anything: the
            // walks must agree regardless.
            let bounds: Vec<f64> = cells.iter().map(|c| f64::from(c.0) * 0.05).collect();
            let later: Vec<Box<dyn PreparedBound>> = vec![
                Box::new(Table(cells.iter().map(|c| f64::from(c.4) * 0.04).collect())),
                Box::new(Table(cells.iter().map(|c| f64::from(c.5) * 0.04).collect())),
            ];
            let measure = if smaller_is_closer { Measure::EuclideanSq } else { Measure::Cosine };
            let k = [1, 10, n][k_choice];
            let q = [0.4, 0.7];
            let candidates = |with_tombstones: bool| -> Vec<(f64, usize)> {
                (0..n)
                    .filter(|&i| !with_tombstones || live[i])
                    .map(|i| (bounds[i], i))
                    .collect()
            };

            for threads in [1usize, 2, 8] {
                simpim_par::with_threads(threads, || {
                    let what = format!("{threads} threads");
                    // `walk` over every row with both later stages …
                    let want =
                        reference_walk(candidates(false), &later, |i| rows.row(i), |i| ids[i], &q, k, measure);
                    let mut cmp = OpCounters::new();
                    let order = LazyOrder::new(candidates(false), smaller_is_closer, |i| ids[i], &mut cmp);
                    let mut got =
                        walk(order, &later, |i| rows.row(i), |i| ids[i], &q, k, measure).unwrap();
                    got.other.add(&cmp);
                    assert_same_walk(&got, &want, &what);

                    // … and `refine_resident` over the live ones with none.
                    let want =
                        reference_walk(candidates(true), &[], |i| rows.row(i), |i| ids[i], &q, k, measure);
                    let view = ShardView { rows: &rows, ids: &ids, live: &live, bounds: &bounds };
                    let mut counters = OpCounters::new();
                    let got = refine_resident(&view, &q, k, measure, &mut counters).unwrap();
                    assert_eq!(&got.neighbors, &want.neighbors, "{what}");
                    assert_eq!(got.refined, want.refined, "{what}");
                    assert_eq!(got.pruned, want.first_pruned, "{what}");
                    let mut want_counters = want.exact;
                    want_counters.add(&want.other);
                    assert_eq!(counters, want_counters, "{what}");
                });
            }
        }
    }

    /// The three offline fronts against the same reference, on real bounds:
    /// neighbours and every profile entry a front books (the exact
    /// measure, `other` with the sort charge, each later stage's
    /// evaluations) at 1, 2 and 8 workers, ED and CS, k ∈ {1, 10, n}.
    #[test]
    fn offline_fronts_walk_like_the_reference() {
        use crate::knn::algorithms::{fnn_cascade, part_cascade};
        use crate::knn::cascade::knn_cascade;
        use crate::knn::pim::{knn_pim_ed, knn_pim_sim};
        use simpim_core::executor::{ExecutorConfig, PimExecutor, SimTarget};
        use simpim_datasets::{generate, sample_queries, SyntheticConfig};
        use simpim_similarity::NormalizedDataset;

        let ds = generate(&SyntheticConfig {
            n: 150,
            d: 64,
            clusters: 5,
            cluster_std: 0.05,
            stat_uniformity: 0.0,
            seed: 19,
        });
        let q = &sample_queries(&ds, 1, 0.02, 3)[0];
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let n = ds.len();
        let cfg = ExecutorConfig::default();

        // What a front's report must hold, given the reference walk, the
        // stages after the ordering bound and where the sort was charged.
        let check = |what: &str,
                     got: &KnnResult,
                     want: &Walk,
                     later: &[&dyn BoundStage],
                     measure: Measure| {
            assert_eq!(got.neighbors, want.neighbors, "{what}: neighbours");
            let booked = |name: &str| got.report.profile.get(name).map(|r| r.counters);
            assert_eq!(booked(measure.name()), Some(want.exact), "{what}: exact");
            assert_eq!(booked("other"), Some(want.other), "{what}: other");
            for (stage, &(seen, _)) in later.iter().zip(&want.stages) {
                let mut c = OpCounters::new();
                charge_stage(&stage.eval_cost(), seen, &mut c);
                assert_eq!(booked(&stage.name()), Some(c), "{what}: {}", stage.name());
            }
        };

        for threads in [1usize, 2, 8] {
            for k in [1, 10, n] {
                simpim_par::with_threads(threads, || {
                    let what = format!("{threads} threads, k = {k}");
                    let all =
                        |bound: &dyn Fn(usize) -> f64| (0..n).map(|i| (bound(i), i)).collect();

                    // knn_cascade, ED (three FNN levels) and CS (one stage).
                    for measure in [Measure::EuclideanSq, Measure::Cosine] {
                        let cascade = if measure == Measure::EuclideanSq {
                            fnn_cascade(&ds).unwrap()
                        } else {
                            part_cascade(&ds, measure).unwrap()
                        };
                        let prepared = cascade.prepare(q);
                        let stages: Vec<&dyn BoundStage> = cascade.stages().collect();
                        let want = reference_walk(
                            all(&|i| prepared[0].bound(i)),
                            &prepared[1..],
                            |i| ds.row(i),
                            |i| i,
                            q,
                            k,
                            measure,
                        );
                        let got = knn_cascade(&ds, &cascade, q, k, measure).unwrap();
                        check(
                            &format!("cascade {measure:?}, {what}"),
                            &got,
                            &want,
                            &stages[1..],
                            measure,
                        );
                    }

                    // knn_pim_ed with the FNN levels retained.
                    let retained = fnn_cascade(&ds).unwrap();
                    let stages: Vec<&dyn BoundStage> = retained.stages().collect();
                    let mut exec = PimExecutor::prepare_euclidean(cfg, &nds).unwrap();
                    let lbs = exec.lb_ed_batch(q).unwrap().values;
                    let want = reference_walk(
                        all(&|i| lbs[i]),
                        &retained.prepare(q),
                        |i| ds.row(i),
                        |i| i,
                        q,
                        k,
                        Measure::EuclideanSq,
                    );
                    let got = knn_pim_ed(&mut exec, &ds, &retained, q, k).unwrap();
                    check(
                        &format!("pim_ed, {what}"),
                        &got,
                        &want,
                        &stages,
                        Measure::EuclideanSq,
                    );

                    // knn_pim_sim, CS.
                    let mut exec =
                        PimExecutor::prepare_similarity(cfg, &nds, SimTarget::Cosine).unwrap();
                    let ubs = exec.ub_sim_batch(q).unwrap().values;
                    let want = reference_walk(
                        all(&|i| ubs[i]),
                        &[],
                        |i| ds.row(i),
                        |i| i,
                        q,
                        k,
                        Measure::Cosine,
                    );
                    let got = knn_pim_sim(&mut exec, &ds, q, k, Measure::Cosine).unwrap();
                    check(
                        &format!("pim_sim, {what}"),
                        &got,
                        &want,
                        &[],
                        Measure::Cosine,
                    );
                });
            }
        }
    }

    /// A bad `k`, query width, cascade direction or measure is an
    /// `InvalidArgument` naming the problem at every entry point — never a
    /// panic, and nothing runs on the crossbars first.
    #[test]
    fn bad_arguments_are_typed_errors_at_every_entry_point() {
        use crate::knn::algorithms::part_cascade;
        use crate::knn::cascade::knn_cascade;
        use crate::knn::hamming::knn_hamming;
        use crate::knn::pim::{knn_pim_ed, knn_pim_hamming, knn_pim_sim};
        use crate::knn::standard::knn_standard;
        use simpim_core::executor::{ExecutorConfig, PimExecutor, SimTarget};
        use simpim_datasets::{generate, lsh_codes, SyntheticConfig};
        use simpim_similarity::NormalizedDataset;

        let ds = generate(&SyntheticConfig {
            n: 40,
            d: 16,
            clusters: 2,
            cluster_std: 0.05,
            stat_uniformity: 0.0,
            seed: 5,
        });
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let codes = lsh_codes(&ds, 64, 9);
        let other_codes = lsh_codes(&ds, 32, 9);
        let cfg = ExecutorConfig::default();
        let mut ed = PimExecutor::prepare_euclidean(cfg, &nds).unwrap();
        let mut cs = PimExecutor::prepare_similarity(cfg, &nds, SimTarget::Cosine).unwrap();
        let mut hd = PimExecutor::prepare_hamming(cfg, &codes).unwrap();
        let none = BoundCascade::empty();
        let upper = part_cascade(&ds, Measure::Cosine).unwrap();
        let (n, q, short) = (ds.len(), ds.row(0), &ds.row(0)[..8]);
        let (code, short_code) = (codes.row(0), other_codes.row(0));

        type Case<'a> = (&'a str, Result<KnnResult, MiningError>, &'a str);
        let cases: Vec<Case<'_>> = vec![
            (
                "standard k=0",
                knn_standard(&ds, q, 0, Measure::EuclideanSq),
                "k must be in 1..=40, got 0",
            ),
            (
                "standard k>N",
                knn_standard(&ds, q, n + 1, Measure::EuclideanSq),
                "got 41",
            ),
            (
                "standard dims",
                knn_standard(&ds, short, 1, Measure::EuclideanSq),
                "query has 8 dimensions",
            ),
            (
                "cascade k=0",
                knn_cascade(&ds, &none, q, 0, Measure::EuclideanSq),
                "k must be",
            ),
            (
                "cascade k>N",
                knn_cascade(&ds, &none, q, n + 1, Measure::EuclideanSq),
                "k must be",
            ),
            (
                "cascade dims",
                knn_cascade(&ds, &none, short, 1, Measure::EuclideanSq),
                "query has 8",
            ),
            (
                "cascade direction",
                knn_cascade(&ds, &upper, q, 1, Measure::EuclideanSq),
                "direction",
            ),
            (
                "pim_ed k=0",
                knn_pim_ed(&mut ed, &ds, &none, q, 0),
                "k must be",
            ),
            (
                "pim_ed k>N",
                knn_pim_ed(&mut ed, &ds, &none, q, n + 1),
                "k must be",
            ),
            (
                "pim_ed dims",
                knn_pim_ed(&mut ed, &ds, &none, short, 1),
                "query has 8",
            ),
            (
                "pim_ed direction",
                knn_pim_ed(&mut ed, &ds, &upper, q, 1),
                "direction",
            ),
            (
                "pim_sim k=0",
                knn_pim_sim(&mut cs, &ds, q, 0, Measure::Cosine),
                "k must be",
            ),
            (
                "pim_sim k>N",
                knn_pim_sim(&mut cs, &ds, q, n + 1, Measure::Cosine),
                "k must be",
            ),
            (
                "pim_sim dims",
                knn_pim_sim(&mut cs, &ds, short, 1, Measure::Cosine),
                "query has 8",
            ),
            (
                "pim_sim measure",
                knn_pim_sim(&mut cs, &ds, q, 1, Measure::EuclideanSq),
                "CS/PCC",
            ),
            (
                "pim_hamming k=0",
                knn_pim_hamming(&mut hd, &codes, &code, 0),
                "k must be",
            ),
            (
                "pim_hamming k>N",
                knn_pim_hamming(&mut hd, &codes, &code, n + 1),
                "k must be",
            ),
            (
                "pim_hamming width",
                knn_pim_hamming(&mut hd, &codes, &short_code, 1),
                "query has 32",
            ),
            ("hamming k=0", knn_hamming(&codes, &code, 0), "k must be"),
            (
                "hamming k>N",
                knn_hamming(&codes, &code, n + 1),
                "k must be",
            ),
            (
                "hamming width",
                knn_hamming(&codes, &short_code, 1),
                "query has 32",
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
        for exec in [&ed, &cs, &hd] {
            assert_eq!(
                exec.bank().dispatches(),
                0,
                "rejected before any crossbar pass"
            );
        }
    }

    #[test]
    fn exact_eval_hamming_is_a_typed_error() {
        let mut c = OpCounters::new();
        let err = exact_eval(Measure::Hamming, &[1.0], &[1.0], &mut c).unwrap_err();
        assert_eq!(
            err,
            MiningError::UnsupportedMeasure {
                measure: Measure::Hamming
            }
        );
        assert_eq!(c.bytes_streamed, 0, "no cost charged for a rejected call");
    }
}
