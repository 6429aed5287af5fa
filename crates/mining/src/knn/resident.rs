//! Host-side refinement over a *resident* shard (the serving path).
//!
//! The offline kNN variants own the whole dataset and return positions
//! into it. A serving shard is different in three ways: its rows carry
//! stable **global ids** (positions shift as tombstoned rows are
//! compacted), some slots are **tombstoned** (deleted but still
//! programmed on the crossbars until the next reprogram), and one query's
//! candidates are spread across **many shards** whose partial results
//! must merge into one exact top-k.
//!
//! Exactness argument: every candidate is offered to [`TopK`] under its
//! global id, and `TopK` keeps the k best with ties broken by id. The
//! k-best selection is independent of offer order, so refining shard by
//! shard (in any order, even concurrently) and merging the partial pools
//! yields bit-identical neighbors to one global scan — provided each
//! shard's bound values are valid bounds, which Theorems 1–2 guarantee
//! even under drifted crossbars (guard-banded) and dead ones (exact host
//! fallback).

use simpim_similarity::{Dataset, Measure};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use crate::knn::{exact_eval, LazyOrder, TopK};

/// One shard's candidates, as parallel columns: `rows.row(i)` is the
/// shard-local row whose stable global id is `ids[i]`, `live[i]` is
/// `false` for tombstoned slots, and `bounds[i]` is the PIM bound for it
/// (a lower bound for distance measures, an upper bound for similarity
/// measures). Pass all-zero bounds to force a full exact scan — the
/// host-fallback / delta-scan path.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    /// Shard-local rows.
    pub rows: &'a Dataset,
    /// Stable global id per row.
    pub ids: &'a [usize],
    /// `false` marks a tombstoned (deleted) slot.
    pub live: &'a [bool],
    /// PIM bound value per row.
    pub bounds: &'a [f64],
}

/// Partial result of refining one shard.
#[derive(Debug, Clone)]
pub struct ShardRefine {
    /// `(global id, measure value)` pairs, best first, at most `k`.
    pub neighbors: Vec<(usize, f64)>,
    /// Candidates evaluated exactly.
    pub refined: u64,
    /// Candidates eliminated by their bound (tombstones excluded).
    pub pruned: u64,
}

/// Refines one shard's PIM bound batch into its exact partial top-k.
///
/// The walk is best-bound-first with the planner's usual early exit:
/// once the best remaining bound cannot beat the pool's threshold, the
/// rest of the shard is pruned wholesale.
///
/// # Errors
/// [`MiningError::InvalidArgument`] when `k` is zero, a column of `view`
/// does not parallel its rows, or `query` has the wrong dimensionality.
pub fn refine_resident(
    view: &ShardView<'_>,
    query: &[f64],
    k: usize,
    measure: Measure,
    counters: &mut OpCounters,
) -> Result<ShardRefine, MiningError> {
    let ShardView {
        rows,
        ids,
        live,
        bounds,
    } = *view;
    // This runs on the serving scheduler's pool workers: a malformed
    // view must fail its batch, not panic the thread.
    let invalid = |what: String| Err(MiningError::InvalidArgument { what });
    if k == 0 {
        return invalid("k must be at least 1".into());
    }
    for (column, len) in [
        ("ids", ids.len()),
        ("live", live.len()),
        ("bounds", bounds.len()),
    ] {
        if len != rows.len() {
            return invalid(format!(
                "{column} must parallel rows: {len} entries for {} rows",
                rows.len()
            ));
        }
    }
    if query.len() != rows.dim() {
        return invalid(format!(
            "query has {} dimensions, the shard's rows have {}",
            query.len(),
            rows.dim()
        ));
    }

    let smaller_is_closer = matches!(measure, Measure::EuclideanSq | Measure::Hamming);
    let mut top = TopK::new(k, smaller_is_closer);

    // Best-bound-first over live slots; tombstones never surface.
    let mut order = LazyOrder::new(
        bounds
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| live[i])
            .map(|(i, v)| (v, i))
            .collect(),
        smaller_is_closer,
        |i| ids[i],
        counters,
    );
    let live_n = order.len();

    // Parallel chunked walk (see `knn::cascade` / DESIGN.md §10): fixed
    // chunk boundaries from `refine_chunk_schedule`, per-chunk τ
    // snapshots, offers merged in candidate order — results and counters
    // are identical at any `SIMPIM_THREADS`.
    let mut refined = 0u64;
    let mut pruned = 0u64;
    'walk: for chunk in crate::knn::refine_chunk_schedule(live_n, k.min(live_n.max(1))) {
        counters.prune_test();
        let start = chunk.start;
        let cands = order.chunk(chunk);
        if top.prunable(cands[0].0) {
            pruned += (live_n - start) as u64;
            break 'walk;
        }
        let snap = &top.clone();
        let chunks = simpim_par::map_chunks(cands.len(), crate::knn::REFINE_TASK, |r| {
            let mut hits = Vec::new();
            let mut local = OpCounters::new();
            let mut pruned = 0u64;
            for &(bound, i) in &cands[r] {
                local.prune_test();
                if snap.prunable(bound) {
                    pruned += 1;
                    continue;
                }
                local.random_fetches += 1;
                match exact_eval(measure, rows.row(i), query, &mut local) {
                    Ok(v) => hits.push((ids[i], v)),
                    Err(e) => return Err(e),
                }
            }
            Ok((hits, local, pruned))
        });
        for res in chunks {
            let (hits, local, task_pruned) = res?;
            counters.add(&local);
            pruned += task_pruned;
            refined += hits.len() as u64;
            for (id, v) in hits {
                counters.prune_test();
                top.offer(id, v);
            }
        }
    }
    Ok(ShardRefine {
        neighbors: top.into_sorted(),
        refined,
        pruned,
    })
}

/// Merges per-shard partial top-k pools into the global exact top-k.
/// Offer order does not matter: ties still break on the global id.
pub fn merge_neighbors(
    parts: &[Vec<(usize, f64)>],
    k: usize,
    smaller_is_closer: bool,
) -> Vec<(usize, f64)> {
    let mut top = TopK::new(k, smaller_is_closer);
    for part in parts {
        for &(id, v) in part {
            top.offer(id, v);
        }
    }
    top.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::standard::knn_standard;

    fn rows() -> Dataset {
        Dataset::from_rows(&[
            vec![0.1, 0.9],
            vec![0.5, 0.5],
            vec![0.9, 0.1],
            vec![0.4, 0.6],
        ])
        .unwrap()
    }

    #[test]
    fn sharded_refine_matches_global_scan() {
        let ds = rows();
        let q = [0.45, 0.55];
        let truth = knn_standard(&ds, &q, 2, Measure::EuclideanSq).unwrap();
        // Split rows 0..2 / 2..4 into two shards with zero bounds (never
        // prune → full exact scan) and merge.
        let shard_a = Dataset::from_rows(&[ds.row(0).to_vec(), ds.row(1).to_vec()]).unwrap();
        let shard_b = Dataset::from_rows(&[ds.row(2).to_vec(), ds.row(3).to_vec()]).unwrap();
        let mut c = OpCounters::new();
        let a = refine_resident(
            &ShardView {
                rows: &shard_a,
                ids: &[0, 1],
                live: &[true, true],
                bounds: &[0.0, 0.0],
            },
            &q,
            2,
            Measure::EuclideanSq,
            &mut c,
        )
        .unwrap();
        let b = refine_resident(
            &ShardView {
                rows: &shard_b,
                ids: &[2, 3],
                live: &[true, true],
                bounds: &[0.0, 0.0],
            },
            &q,
            2,
            Measure::EuclideanSq,
            &mut c,
        )
        .unwrap();
        let merged = merge_neighbors(&[a.neighbors, b.neighbors], 2, true);
        assert_eq!(merged, truth.neighbors);
    }

    /// The walk `refine_resident` replaced, kept as the reference: one
    /// full stable sort of the live candidates up front, then the same
    /// chunk schedule, τ snapshots and counter charges, serially.
    fn full_sort_walk(
        view: &ShardView<'_>,
        query: &[f64],
        k: usize,
        measure: Measure,
        counters: &mut OpCounters,
    ) -> ShardRefine {
        let smaller_is_closer = measure.smaller_is_closer();
        let mut top = TopK::new(k, smaller_is_closer);
        let mut order: Vec<(f64, usize)> = (0..view.rows.len())
            .filter(|&i| view.live[i])
            .map(|i| (view.bounds[i], i))
            .collect();
        order.sort_by(|a, b| {
            let by_bound = a.0.total_cmp(&b.0);
            let by_bound = if smaller_is_closer {
                by_bound
            } else {
                by_bound.reverse()
            };
            by_bound.then(view.ids[a.1].cmp(&view.ids[b.1]))
        });
        let n = order.len();
        counters.cmp += (n as f64 * (n as f64).log2().max(1.0)) as u64;
        let (mut refined, mut pruned) = (0u64, 0u64);
        for chunk in crate::knn::refine_chunk_schedule(n, k.min(n.max(1))) {
            counters.prune_test();
            if top.prunable(order[chunk.start].0) {
                pruned += (n - chunk.start) as u64;
                break;
            }
            let snap = top.clone();
            let mut hits = Vec::new();
            for &(bound, i) in &order[chunk] {
                counters.prune_test();
                if snap.prunable(bound) {
                    pruned += 1;
                    continue;
                }
                counters.random_fetches += 1;
                let v = exact_eval(measure, view.rows.row(i), query, counters).unwrap();
                hits.push((view.ids[i], v));
            }
            refined += hits.len() as u64;
            for (id, v) in hits {
                counters.prune_test();
                top.offer(id, v);
            }
        }
        ShardRefine {
            neighbors: top.into_sorted(),
            refined,
            pruned,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Ordering only the prefix the walk reaches changes nothing a
        /// caller can see: same neighbours, `refined`, `pruned` and
        /// `OpCounters` as the walk over a fully sorted order — with
        /// heavily duplicated bounds (ties fall to the id, which runs
        /// against the row index here), tombstones, k ∈ {1, 10, n}, both
        /// senses of "closer", at 1, 2 and 8 workers.
        #[test]
        fn lazy_order_walk_equals_full_sort_walk(
            cells in proptest::prop::collection::vec(
                (0u32..8, 0u32..6, 0u32..6, proptest::any::<bool>()),
                1..=300,
            ),
            k_choice in 0usize..3,
            smaller_is_closer in proptest::any::<bool>(),
        ) {
            let n = cells.len();
            let rows = Dataset::from_rows(
                &cells
                    .iter()
                    .map(|&(_, x, y, _)| vec![0.1 + f64::from(x) * 0.15, 0.1 + f64::from(y) * 0.15])
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            let ids: Vec<usize> = (0..n).map(|i| 10_000 - i).collect();
            let live: Vec<bool> = cells.iter().map(|c| c.3).collect();
            // Eight distinct bound values over up to 300 rows. Not valid
            // bounds of anything: the two walks must agree regardless.
            let bounds: Vec<f64> = cells.iter().map(|c| f64::from(c.0) * 0.05).collect();
            let view = ShardView { rows: &rows, ids: &ids, live: &live, bounds: &bounds };
            let measure = if smaller_is_closer { Measure::EuclideanSq } else { Measure::Cosine };
            let k = [1, 10, n][k_choice];
            let q = [0.4, 0.7];

            let mut want_counters = OpCounters::new();
            let want = full_sort_walk(&view, &q, k, measure, &mut want_counters);
            for threads in [1usize, 2, 8] {
                let mut counters = OpCounters::new();
                let got = simpim_par::with_threads(threads, || {
                    refine_resident(&view, &q, k, measure, &mut counters).unwrap()
                });
                proptest::prop_assert_eq!(&got.neighbors, &want.neighbors, "{} threads", threads);
                proptest::prop_assert_eq!(got.refined, want.refined, "{} threads", threads);
                proptest::prop_assert_eq!(got.pruned, want.pruned, "{} threads", threads);
                proptest::prop_assert_eq!(counters, want_counters, "{} threads", threads);
            }
        }
    }

    #[test]
    fn malformed_views_are_typed_errors_not_panics() {
        let ds = rows();
        let good = ShardView {
            rows: &ds,
            ids: &[0, 1, 2, 3],
            live: &[true; 4],
            bounds: &[0.0; 4],
        };
        let q = [0.5, 0.5];
        // One case per argument check, each naming what it rejects.
        let cases: [(ShardView<'_>, &[f64], usize, &str); 5] = [
            (good, &q, 0, "k must be at least 1"),
            (
                ShardView {
                    ids: &[0, 1, 2],
                    ..good
                },
                &q,
                1,
                "ids must parallel rows",
            ),
            (
                ShardView {
                    live: &[true; 5],
                    ..good
                },
                &q,
                1,
                "live must parallel rows",
            ),
            (
                ShardView {
                    bounds: &[],
                    ..good
                },
                &q,
                1,
                "bounds must parallel rows",
            ),
            (good, &[0.5], 1, "query has 1 dimensions"),
        ];
        for (view, query, k, expect) in cases {
            let mut c = OpCounters::new();
            match refine_resident(&view, query, k, Measure::EuclideanSq, &mut c) {
                Err(MiningError::InvalidArgument { what }) => {
                    assert!(what.contains(expect), "{what:?} should mention {expect:?}")
                }
                other => panic!("{expect}: expected InvalidArgument, got {other:?}"),
            }
            assert_eq!(c, OpCounters::new(), "{expect}: nothing charged");
        }
    }

    #[test]
    fn tombstones_never_surface() {
        let ds = rows();
        let q = [0.5, 0.5];
        let mut c = OpCounters::new();
        // Row 1 is the exact match but tombstoned.
        let out = refine_resident(
            &ShardView {
                rows: &ds,
                ids: &[10, 11, 12, 13],
                live: &[true, false, true, true],
                bounds: &[0.0; 4],
            },
            &q,
            4,
            Measure::EuclideanSq,
            &mut c,
        )
        .unwrap();
        assert_eq!(out.neighbors.len(), 3);
        assert!(out.neighbors.iter().all(|&(id, _)| id != 11));
    }

    #[test]
    fn valid_bounds_prune_without_changing_results() {
        let ds = rows();
        let q = [0.45, 0.55];
        let exact: Vec<f64> = (0..4)
            .map(|i| simpim_similarity::measures::euclidean_sq(ds.row(i), &q))
            .collect();
        let mut c = OpCounters::new();
        let with_bounds = refine_resident(
            &ShardView {
                rows: &ds,
                ids: &[0, 1, 2, 3],
                live: &[true; 4],
                // The tightest valid lower bound: the distance itself.
                bounds: &exact,
            },
            &q,
            1,
            Measure::EuclideanSq,
            &mut c,
        )
        .unwrap();
        let mut c2 = OpCounters::new();
        let without = refine_resident(
            &ShardView {
                rows: &ds,
                ids: &[0, 1, 2, 3],
                live: &[true; 4],
                bounds: &[0.0; 4],
            },
            &q,
            1,
            Measure::EuclideanSq,
            &mut c2,
        )
        .unwrap();
        assert_eq!(with_bounds.neighbors, without.neighbors);
        assert!(with_bounds.pruned > 0);
    }
}
