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
use crate::knn::{walk, LazyOrder, TopK};

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

    // Best-bound-first over live slots; tombstones never surface.
    let order = LazyOrder::new(
        bounds
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| live[i])
            .map(|(i, v)| (v, i))
            .collect(),
        measure.smaller_is_closer(),
        |i| ids[i],
        counters,
    );
    let walked = walk(order, &[], |i| rows.row(i), |i| ids[i], query, k, measure)?;
    counters.add(&walked.exact);
    counters.add(&walked.other);
    Ok(ShardRefine {
        neighbors: walked.neighbors,
        refined: walked.refined,
        pruned: walked.first_pruned,
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
