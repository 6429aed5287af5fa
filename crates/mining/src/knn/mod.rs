//! kNN classification algorithms (Section II-C, VI-C).

pub mod algorithms;
pub mod cascade;
pub mod hamming;
pub mod pim;
pub mod resident;
pub mod standard;

use std::ops::Range;

use simpim_similarity::{measures, Measure};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::report::RunReport;

/// Candidates handled per worker task inside one refinement chunk.
pub(crate) const REFINE_TASK: usize = 8;

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
pub(crate) fn refine_chunk_schedule(n: usize, k: usize) -> Vec<Range<usize>> {
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
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The candidates at positions `chunk` of the full order. Chunks must
    /// be requested front to back, as [`refine_chunk_schedule`] yields
    /// them.
    pub(crate) fn chunk(&mut self, chunk: Range<usize>) -> &[(f64, usize)] {
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
