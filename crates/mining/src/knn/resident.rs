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
//!
//! Two refinements live here and give the same bits: [`refine_resident`]
//! walks one query's candidates best bound first; [`refine_resident_batch`]
//! refines the queries of a coalesced batch together, in one sweep of the
//! shard's rows. The serving path uses the first for a batch of one and
//! the second otherwise (DESIGN.md §16 says why both exist). The batch
//! refinement can also take the shard's host cell plane ([`push_cells`]): an exact
//! 8-bit lower bound tested between the PIM bound and the distance; and a
//! query may bring a cheap bound column with a [`Tighten`] that gives the
//! tight bound of the rows it is asked about. The refinement then owns the
//! whole seed — κ → seed → τ → tighten — asks only about the rows that
//! can seed or survive τ, and answers, counts and charges as over the
//! tight column.

use std::time::Instant;

use simpim_similarity::{Dataset, Measure};
use simpim_simkit::OpCounters;

use crate::error::MiningError;
use simpim_kern::scalar::worse;
use simpim_kern::{MULTI_QUERIES, SKIP_CHUNK};

use crate::knn::{exact_eval, exact_eval_until, walk, LazyOrder, TopK};

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
    /// Of `pruned`, the candidates the cell plane eliminated after their
    /// PIM bound let them through.
    pub plane_pruned: u64,
    /// Of `pruned`, the live candidates left at their cheap bound, never
    /// tightened ([`BatchQuery::tighten`]).
    pub cheap_pruned: u64,
}

/// Cells per unit value: a cell is `⌊256 v⌋`, 8 bits.
const CELLS: f64 = 256.0;

/// Appends the cells of `values` to `out`: `(256 v) as u8`, which floors
/// and saturates, so `1.0` lands in cell 255 with its neighbours below it,
/// and a value below 0 (above 1) in cell 0 (255). A shard's host **cell
/// plane** is its rows cut this way, `d` cells a row, row-major; the
/// batch refinement cuts its queries with the same function.
///
/// **The bound.** Whatever the finite values, a cell `P` of a row value
/// `p` and a cell `Q` of a query value `q` that differ prove
/// `|p − q| ≥ (|P − Q| − 1) / 256`: the larger cell did not saturate
/// below (it is above 0), so its value is at least its cell's floor, and
/// the smaller did not saturate above (it is below 255), so its value is
/// below the next cell's floor. Hence
/// `ED²(p, q) ≥ Σ max(|P − Q| − 1, 0)² / 2¹⁶`, an integer sum
/// ([`simpim_kern::cell_bound_multi`]) scaled exactly. The computed
/// distance keeps it too: each `(|P − Q| − 1) / 256` and its square are
/// representable, rounding is monotone, and so the computed differences,
/// squares and sums of non-negative terms never fall below the exact
/// bound's own. The bound is still deflated by a relative `(d + 8) · 2⁻⁵²`
/// — more than the `≈ d · 2⁻⁵³` any summation of `d` non-negative terms
/// can lose — so it holds however the distance kernel sums.
pub fn push_cells(values: &[f64], out: &mut Vec<u8>) {
    out.extend(values.iter().map(|&v| (v * CELLS) as u8));
}

/// A cell sum of `d` cells as a squared distance no computed distance is
/// below (see [`push_cells`]).
fn plane_bound(sum: u64, d: usize) -> f64 {
    sum as f64 / (CELLS * CELLS) * (1.0 - (d + 8) as f64 * f64::EPSILON)
}

/// The argument check of both refinements. They run on the serving
/// scheduler's pool workers: a malformed view must fail its query, not
/// panic the thread.
fn check(view: &ShardView<'_>, query: &[f64], k: usize) -> Result<(), MiningError> {
    let rows = view.rows;
    let invalid = |what: String| Err(MiningError::InvalidArgument { what });
    if k == 0 {
        return invalid("k must be at least 1".into());
    }
    for (column, len) in [
        ("ids", view.ids.len()),
        ("live", view.live.len()),
        ("bounds", view.bounds.len()),
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
    Ok(())
}

/// Best-bound-first over a checked view's live slots, ties by global id;
/// tombstones never surface.
fn live_order<'a>(
    view: &ShardView<'a>,
    measure: Measure,
    counters: &mut OpCounters,
) -> LazyOrder<impl Fn(usize) -> usize + 'a> {
    let (ids, live) = (view.ids, view.live);
    LazyOrder::new(
        view.bounds
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| live[i])
            .map(|(i, v)| (v, i))
            .collect(),
        measure.smaller_is_closer(),
        move |i| ids[i],
        counters,
    )
}

/// What [`k_best`] selects from: a whole bound column, whose chunks of
/// [`SKIP_CHUNK`] bounds it can pass over, or `(row, bound)` pairs.
trait Ranked: Sized {
    /// The first chunk of `items` from `from` on that may hold an item
    /// whose bound is not [`worse`] than `cut` (the chunk count if none).
    fn next_chunk(items: &[Self], from: usize, cut: f64, closer: bool) -> usize;
}

/// A column's `pair` gives each bound as it is.
impl Ranked for f64 {
    fn next_chunk(items: &[f64], from: usize, cut: f64, closer: bool) -> usize {
        simpim_kern::first_not_worse(items, from, cut, closer)
    }
}

/// The few pairs a seed step tightened: each chunk is read pair by pair.
impl Ranked for (usize, f64) {
    fn next_chunk(_: &[Self], from: usize, _: f64, _: bool) -> usize {
        from
    }
}

/// The rows of the `k` best live pairs of `items` (best bound first, ties
/// by the rows' `ids`: the first chunk [`LazyOrder`] would cut), `pair`
/// giving the `(row, bound)` of the item at each position, kept in one
/// pass and returned in no particular order. Once `k` pairs are kept, the
/// chunks of a column whose bounds are all worse than the last-ranked
/// pair's are passed over ([`simpim_kern::first_not_worse`]): the cut only
/// gets better as pairs are kept, so each of them would be refused alone
/// too. The order's comparisons are the caller's to charge.
fn k_best<T: Ranked>(
    view: &ShardView<'_>,
    items: &[T],
    pair: impl Fn(usize, &T) -> (usize, f64),
    k: usize,
    closer: bool,
) -> Vec<usize> {
    let (ids, live) = (view.ids, view.live);
    // Whether pair `a` ranks before pair `b`.
    let before = |a: &(usize, f64), b: &(usize, f64)| {
        let by_bound = a.1.total_cmp(&b.1);
        let by_bound = if closer { by_bound } else { by_bound.reverse() };
        by_bound.then_with(|| ids[a.0].cmp(&ids[b.0])).is_lt()
    };
    let mut best: Vec<(usize, f64)> = Vec::with_capacity(k);
    // The place in `best` of the pair that ranks last, and its bound once
    // there are `k` (NaN before: no bound is worse). Most pairs stop at one
    // comparison with that bound, as a worse one cannot rank before it.
    let (mut last, mut cut) = (0, f64::NAN);
    let mut c = 0;
    loop {
        c = T::next_chunk(items, c, cut, closer);
        let Some(chunk) = items.chunks(SKIP_CHUNK).nth(c) else {
            break;
        };
        for (at, t) in (c * SKIP_CHUNK..).zip(chunk) {
            let p = pair(at, t);
            let full = best.len() == k;
            if worse(p.1, cut, closer) || !live[p.0] || (full && !before(&p, &best[last])) {
                continue;
            }
            // Past `k`, `p` takes the last-ranked pair's place.
            best.push(p);
            if full {
                best.swap_remove(last);
            }
            if best.len() == k {
                last = (0..k).fold(0, |w, i| if before(&best[w], &best[i]) { i } else { w });
                cut = best[last].1;
            }
        }
        c += 1;
    }
    best.into_iter().map(|(i, _)| i).collect()
}

/// The rows, ascending, whose bits the masks of
/// [`simpim_kern::mask_kept`] set.
fn kept(masks: &[u64]) -> impl Iterator<Item = usize> + '_ {
    masks.iter().copied().enumerate().flat_map(|(c, mut mask)| {
        std::iter::from_fn(move || {
            let b = mask.trailing_zeros() as usize;
            mask &= mask.wrapping_sub(1);
            (b < 64).then_some(c * 64 + b)
        })
    })
}

/// One query's seed step in [`refine_resident_batch`]: its pool, its
/// seeds (ascending), and — given a [`Tighten`] — the `(row, bound)`
/// pairs it tightened, each row once.
type Seeded = (TopK, Vec<usize>, Option<Vec<(usize, f64)>>);

/// The seed step for one query over the `(row, bound)` pairs of `items`
/// (see [`k_best`]) of a checked view's live rows: the walk's first chunk
/// among them evaluated exactly into a pool.
fn seed<T: Ranked>(
    view: &ShardView<'_>,
    items: &[T],
    pair: impl Fn(usize, &T) -> (usize, f64),
    query: &[f64],
    k: usize,
    measure: Measure,
    counters: &mut OpCounters,
) -> Result<Seeded, MiningError> {
    let (rows, ids) = (view.rows, view.ids);
    let mut top = TopK::new(k, measure.smaller_is_closer());
    let mut seeds = Vec::with_capacity(k);
    for i in k_best(view, items, pair, k, measure.smaller_is_closer()) {
        counters.random_fetches += 1;
        counters.prune_test();
        top.offer(ids[i], exact_eval(measure, rows.row(i), query, counters)?);
        seeds.push(i);
    }
    seeds.sort_unstable();
    Ok((top, seeds, None))
}

/// The seed step over a cheap column (`view.bounds`) that `tighten`
/// sharpens, tightening only the rows the refinement can need (DESIGN.md
/// §9):
///
/// 1. **κ** — the `k` live rows with the best cheap bounds ([`k_best`])
///    are tightened; κ is the worst of their tightened bounds;
/// 2. every other live row whose cheap bound is not worse than κ is
///    tightened. At least `k` rows have a tightened bound no worse than
///    κ, and every row left has a cheap (so also a tight) bound worse
///    than κ: the `k` best tight bounds, ties by id, are among the rows
///    tightened;
/// 3. **τ** — [`seed`] over the tightened rows alone seeds on the rows
///    the tight column would and freezes its τ;
/// 4. every live row left whose cheap bound τ does not prune is
///    tightened. Every row left then has a cheap bound, so a tight one,
///    that τ prunes, as the sweep over the tight column would.
fn seed_tightened(
    view: &ShardView<'_>,
    tighten: Tighten<'_>,
    query: &[f64],
    k: usize,
    measure: Measure,
    counters: &mut OpCounters,
) -> Result<Seeded, MiningError> {
    let (bounds, live) = (view.bounds, view.live);
    let closer = measure.smaller_is_closer();
    // Appends the rows `rows`, beside their cheap bounds, and tightens them.
    let ask = |tightened: &mut Vec<_>, rows: &mut dyn Iterator<Item = usize>| {
        let start = tightened.len();
        tightened.extend(rows.map(|i| (i, bounds[i])));
        tighten(&mut tightened[start..])
    };
    let mut first = k_best(view, bounds, |i, &v| (i, v), k, closer);
    let mut tightened = Vec::new();
    let mut masks = vec![0u64; bounds.len().div_ceil(64)];
    ask(&mut tightened, &mut first.iter().copied())?;
    // κ, the worst of them (with no live row, nothing is left to tighten).
    let kappa = (tightened.iter().map(|&(_, v)| v))
        .reduce(|a, b| if worse(b, a, closer) { b } else { a })
        .unwrap_or_default();
    first.sort_unstable();
    let fresh = |i: usize| live[i] && first.binary_search(&i).is_err();
    simpim_kern::mask_kept(bounds, kappa, None, closer, &mut masks);
    ask(&mut tightened, &mut kept(&masks).filter(|&i| fresh(i)))?;
    let (top, seeds, _) = seed(view, &tightened, |_, &p| p, query, k, measure, counters)?;
    // A row left can only be within τ when τ is worse than κ.
    let tau = top.threshold();
    if worse(tau, kappa, closer) {
        // Rows τ does not prune (`TopK::prunable` with τ read once) and
        // worse than κ.
        simpim_kern::mask_kept(bounds, tau, Some(kappa), closer, &mut masks);
        ask(&mut tightened, &mut kept(&masks).filter(|&i| fresh(i)))?;
    }
    Ok((top, seeds, Some(tightened)))
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
    check(view, query, k)?;
    let (rows, ids) = (view.rows, view.ids);
    let order = live_order(view, measure, counters);
    let walked = walk(order, &[], |i| rows.row(i), |i| ids[i], query, k, measure)?;
    counters.add(&walked.exact);
    counters.add(&walked.other);
    Ok(ShardRefine {
        neighbors: walked.neighbors,
        refined: walked.refined,
        pruned: walked.first_pruned,
        plane_pruned: 0,
        cheap_pruned: 0,
    })
}

/// Rows per worker task of the batch sweep: a fixed block of the rows it
/// sweeps, so what a block refines never depends on the worker count, and
/// (at 960 dimensions and 8 queries) some tens of microseconds of work a task.
const SWEEP_ROWS: usize = 64;

// The sweep keeps one bit per query in a byte per group of queries.
const _: () = assert!(MULTI_QUERIES == u8::BITS as usize);

/// Tightens a cheap bound column ([`BatchQuery::tighten`]): given
/// `(row, cheap bound)` pairs, overwrites each bound with one no looser
/// that is still a valid bound for its row.
pub type Tighten<'a> = &'a (dyn Fn(&mut [(usize, f64)]) -> Result<(), MiningError> + Sync);

/// One query of a coalesced batch: its vector, its `k`, its own bound
/// column over the shard's rows (see [`ShardView::bounds`]), and what
/// tightens that column when it is cheap.
#[derive(Clone, Copy)]
pub struct BatchQuery<'a> {
    /// The query vector.
    pub query: &'a [f64],
    /// Neighbours wanted.
    pub k: usize,
    /// PIM bound value per row, for this query.
    pub bounds: &'a [f64],
    /// With `Some`, `bounds` is a cheap column and this gives the tight
    /// one of the rows it is asked about — never a tombstone, nor a row
    /// twice. The refinement answers, counts and charges as over the
    /// tight column.
    pub tighten: Option<Tighten<'a>>,
}

/// Refines a coalesced batch against one shard, reading every row once
/// for the whole batch where [`refine_resident`] per query would fetch
/// most of the shard per query, in bound order. Two steps:
///
/// * **seed** — per query, the walk's own first chunk (its `k`
///   best-bounded live rows, ties by id) is evaluated exactly into the
///   query's pool, whose threshold τ is then frozen — over a cheap column
///   with a [`BatchQuery::tighten`], after tightening only the rows that
///   can seed (see `seed_tightened`); one byte per row and group of eight
///   queries then marks the live rows whose bound τ does not prune and
///   that did not seed (of a cheap column, only rows tightened);
/// * **sweep** — the marked rows, ascending, in fixed `SWEEP_ROWS`
///   blocks on the pool: a row is compared with every query its byte
///   marks — given the shard's cell plane (`cells`, see [`push_cells`]),
///   only once the row's cell bounds for those queries (one
///   [`simpim_kern::cell_bound_multi`] call per eight) do not prune it
///   either — the Euclidean distance abandoned once it is above τ; hits
///   merge block by block.
///
/// Each answer is bit-identical to [`refine_resident`]'s: the final
/// threshold is at most τ, so every candidate whose bound could still
/// matter is evaluated; a cell bound above τ is below the row's computed
/// distance ([`push_cells`]); an abandoned distance is above τ and could
/// not have entered the pool; and [`TopK`] (ties by id) does not depend
/// on offer order. A cheap column leaves at its bound only rows the tight
/// one would neither seed on nor sweep, so answers, `refined` / `pruned`
/// and the counters are the tight column's: the seed order's `n·log₂n`
/// comparisons and one prune test per (live row, query) are charged in
/// bulk. `refined` /
/// `pruned` depend on τ alone, never on the worker count. Counters charge
/// an abandoned distance in full, as the modeled host (Eq. 1) would pay
/// it, and a cell test as `d` bytes and `d` integer MACs.
///
/// # Errors
/// Per query, what [`refine_resident`] would refuse
/// ([`MiningError::InvalidArgument`]) — the rest of the batch is still
/// answered; for the batch, [`MiningError::UnsupportedMeasure`], what a
/// [`BatchQuery::tighten`] returns, and
/// [`MiningError::InvalidArgument`] for `cells` that are not `d` a row, or
/// that come with a measure other than [`Measure::EuclideanSq`].
pub fn refine_resident_batch(
    rows: &Dataset,
    ids: &[usize],
    live: &[bool],
    cells: Option<&[u8]>,
    batch: &[BatchQuery<'_>],
    measure: Measure,
    counters: &mut OpCounters,
) -> Result<Vec<Result<ShardRefine, MiningError>>, MiningError> {
    refine_batch((rows, ids, live, cells), batch, measure, counters, None)
}

/// The wall clock, in ns, of the first two steps of a
/// [`refine_resident_batch_timed`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RefineClock {
    /// The seed step of every query.
    pub seed_ns: u64,
    /// The marking of the rows left to sweep.
    pub mark_ns: u64,
}

/// [`refine_resident_batch`], which also reads the wall clock of its seed
/// step and of its marking into `clock`: the split a profile of a batch's
/// host half takes. The serving path does not read the clock.
///
/// # Errors
/// As [`refine_resident_batch`].
#[allow(clippy::too_many_arguments)] // `refine_resident_batch`'s and the clock
pub fn refine_resident_batch_timed(
    rows: &Dataset,
    ids: &[usize],
    live: &[bool],
    cells: Option<&[u8]>,
    batch: &[BatchQuery<'_>],
    measure: Measure,
    counters: &mut OpCounters,
    clock: &mut RefineClock,
) -> Result<Vec<Result<ShardRefine, MiningError>>, MiningError> {
    refine_batch(
        (rows, ids, live, cells),
        batch,
        measure,
        counters,
        Some(clock),
    )
}

/// [`refine_resident_batch`] over a shard's rows, ids, live flags and
/// cell plane, timed into `clock` when given one.
fn refine_batch(
    (rows, ids, live, cells): (&Dataset, &[usize], &[bool], Option<&[u8]>),
    batch: &[BatchQuery<'_>],
    measure: Measure,
    counters: &mut OpCounters,
    clock: Option<&mut RefineClock>,
) -> Result<Vec<Result<ShardRefine, MiningError>>, MiningError> {
    let (n, d) = (rows.len(), rows.dim());
    if cells.is_some_and(|c| measure != Measure::EuclideanSq || c.len() != n * d) {
        let what = "a cell plane bounds squared ED, d cells a row".into();
        return Err(MiningError::InvalidArgument { what });
    }
    // Per query its seed step; its pool is only read while the sweep runs,
    // which is what freezes τ.
    let started = clock.is_some().then(Instant::now);
    let live_rows = live.iter().filter(|&&l| l).count() as u64;
    let mut seeded = Vec::with_capacity(batch.len());
    for b in batch {
        let view = ShardView {
            rows,
            ids,
            live,
            bounds: b.bounds,
        };
        if let Err(e) = check(&view, b.query, b.k) {
            seeded.push(Err(e));
            continue;
        }
        // The walk's order over every live row, as `LazyOrder` charges it,
        // and a prune test per live row, as a sweep of them all tests it.
        let sorted = live_rows as f64;
        counters.cmp += (sorted * sorted.log2().max(1.0)) as u64;
        counters.prune_tests(live_rows);
        seeded.push(Ok(match b.tighten {
            Some(tighten) => seed_tightened(&view, tighten, b.query, b.k, measure, counters)?,
            None => seed(
                &view,
                b.bounds,
                |i, &v| (i, v),
                b.query,
                b.k,
                measure,
                counters,
            )?,
        }));
    }

    let seeded_at = clock.is_some().then(Instant::now);

    // Per row a byte per group of eight queries; bit `j % 8` of byte
    // `j / 8` marks the row for query `j`.
    let groups = batch.len().div_ceil(MULTI_QUERIES);
    let mut marks = vec![0u8; n * groups];
    // `d` cells a query that passed its check (the others are never read).
    let mut query_cells = Vec::new();
    let mut masks = Vec::new();
    for (j, (b, s)) in batch.iter().zip(&seeded).enumerate() {
        if cells.is_some() {
            push_cells(if s.is_ok() { b.query } else { &[] }, &mut query_cells);
            query_cells.resize((j + 1) * d, 0);
        }
        let Ok((top, seeds, pairs)) = s else { continue };
        let (group, bit) = (j / MULTI_QUERIES, 1 << (j % MULTI_QUERIES));
        let mut mark = |i: usize| {
            if live[i] {
                marks[i * groups + group] |= bit;
            }
        };
        match pairs {
            Some(pairs) => (pairs.iter())
                .filter(|&&(_, bound)| !top.prunable(bound))
                .for_each(|&(i, _)| mark(i)),
            // The rows τ does not prune (`TopK::prunable` with τ read once).
            None => {
                let closer = measure.smaller_is_closer();
                masks.resize(n.div_ceil(64), 0);
                simpim_kern::mask_kept(b.bounds, top.threshold(), None, closer, &mut masks);
                kept(&masks).for_each(mark);
            }
        }
        for &i in seeds {
            marks[i * groups + group] &= !bit;
        }
    }
    let marked: Vec<usize> = (0..n)
        .filter(|&i| marks[i * groups..][..groups].iter().any(|&m| m != 0))
        .collect();
    if let (Some(clock), Some(started), Some(seeded_at)) = (clock, started, seeded_at) {
        clock.seed_ns = (seeded_at - started).as_nanos() as u64;
        clock.mark_ns = seeded_at.elapsed().as_nanos() as u64;
    }

    let blocks = simpim_par::map_chunks(marked.len(), SWEEP_ROWS, |block| {
        let mut hits = Vec::new();
        // Per query: rows evaluated exactly, rows the plane pruned.
        let mut swept = vec![[0u64; 2]; batch.len()];
        let mut cost = OpCounters::new();
        let mut sums = [0u64; MULTI_QUERIES];
        for &i in &marked[block] {
            for (group, &bits) in marks[i * groups..][..groups].iter().enumerate() {
                // The queries of this group that still need row `i`.
                let (mut need, mut m) = ([0usize; MULTI_QUERIES], 0);
                for t in (0..MULTI_QUERIES).filter(|t| bits >> t & 1 != 0) {
                    (need[m], m) = (group * MULTI_QUERIES + t, m + 1);
                }
                if let Some(cells) = cells {
                    let qs: [&[u8]; MULTI_QUERIES] =
                        std::array::from_fn(|t| &query_cells[need[t] * d..][..d]);
                    simpim_kern::cell_bound_multi(&cells[i * d..][..d], &qs[..m], &mut sums);
                }
                for (&j, &sum) in need[..m].iter().zip(&sums) {
                    let Ok((top, ..)) = &seeded[j] else { continue };
                    if cells.is_some() {
                        cost.dot_kernel(d as u64, d as u64);
                        cost.prune_test();
                        if top.prunable(plane_bound(sum, d)) {
                            swept[j][1] += 1;
                            continue;
                        }
                    }
                    swept[j][0] += 1;
                    cost.random_fetches += 1;
                    let (q, tau) = (batch[j].query, top.threshold());
                    if let Some(v) = exact_eval_until(measure, rows.row(i), q, tau, &mut cost)? {
                        hits.push((j, ids[i], v));
                    }
                }
            }
        }
        Ok::<_, MiningError>((hits, swept, cost))
    });
    let mut evaluated = vec![[0u64; 2]; batch.len()];
    for block in blocks {
        let (hits, swept, cost) = block?;
        counters.add(&cost);
        for (total, n) in evaluated.iter_mut().zip(swept) {
            total[0] += n[0];
            total[1] += n[1];
        }
        for (j, id, v) in hits {
            counters.prune_test();
            if let Ok((top, ..)) = &mut seeded[j] {
                top.offer(id, v);
            }
        }
    }
    let refine = |(top, seeds, tightened): Seeded, [swept, plane_pruned]: [u64; 2]| {
        let refined = seeds.len() as u64 + swept;
        ShardRefine {
            neighbors: top.into_sorted(),
            refined,
            pruned: live_rows - refined,
            plane_pruned,
            cheap_pruned: tightened.map_or(0, |t| live_rows - t.len() as u64),
        }
    };
    Ok(seeded
        .into_iter()
        .zip(evaluated)
        .map(|(s, swept)| s.map(|s| refine(s, swept)))
        .collect())
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
    fn a_query_the_walk_would_refuse_fails_alone_in_a_batch() {
        let ds = rows();
        let (ids, live, zeros) = ([0, 1, 2, 3], [true; 4], [0.0; 4]);
        let q = [0.45, 0.55];
        let of = |query, k, bounds| BatchQuery {
            query,
            k,
            bounds,
            tighten: None,
        };
        let batch = [
            of(&q[..], 2, &zeros[..]),
            of(&q[..], 0, &zeros[..]),
            of(&q[..1], 2, &zeros[..]),
            of(&q[..], 2, &zeros[..3]),
        ];
        let mut c = OpCounters::new();
        let out =
            refine_resident_batch(&ds, &ids, &live, None, &batch, Measure::EuclideanSq, &mut c)
                .unwrap();
        let truth = knn_standard(&ds, &q, 2, Measure::EuclideanSq).unwrap();
        assert_eq!(out[0].as_ref().unwrap().neighbors, truth.neighbors);
        for (got, expect) in out[1..].iter().zip([
            "k must be at least 1",
            "query has 1 dimensions",
            "bounds must parallel rows",
        ]) {
            assert!(
                matches!(got, Err(MiningError::InvalidArgument { what }) if what.contains(expect)),
                "{expect}: {got:?}"
            );
        }
        // A column that parallels nothing fails every query; a measure
        // float rows do not have, or a plane short of a cell, fails the
        // batch.
        let one = &batch[..1];
        let out = refine_resident_batch(
            &ds,
            &ids[..3],
            &live,
            None,
            one,
            Measure::EuclideanSq,
            &mut c,
        );
        assert!(matches!(
            &out.unwrap()[0],
            Err(MiningError::InvalidArgument { .. })
        ));
        let out = refine_resident_batch(&ds, &ids, &live, None, one, Measure::Hamming, &mut c);
        assert!(matches!(out, Err(MiningError::UnsupportedMeasure { .. })));
        let mut cells = Vec::new();
        push_cells(ds.as_flat(), &mut cells);
        for (cells, measure) in [
            (&cells[1..], Measure::EuclideanSq),
            (&cells[..], Measure::Cosine),
        ] {
            let out = refine_resident_batch(&ds, &ids, &live, Some(cells), one, measure, &mut c);
            assert!(matches!(out, Err(MiningError::InvalidArgument { .. })));
        }
        // With the plane, the queries the walk would refuse still fail alone.
        let out = refine_resident_batch(
            &ds,
            &ids,
            &live,
            Some(&cells),
            &batch,
            Measure::EuclideanSq,
            &mut c,
        )
        .unwrap();
        assert_eq!(out[0].as_ref().unwrap().neighbors, truth.neighbors);
        assert!(out[1..].iter().all(Result::is_err));
    }

    /// `k_best` as it was before it passed over chunks: every pair tested
    /// alone. The oracle of `k_best_keeps_the_rows_of_the_pair_by_pair_scan`.
    fn k_best_oracle(
        view: &ShardView<'_>,
        pairs: impl Iterator<Item = (usize, f64)>,
        k: usize,
        closer: bool,
    ) -> Vec<usize> {
        let (ids, live) = (view.ids, view.live);
        // Whether pair `a` ranks before pair `b`.
        let before = |a: &(usize, f64), b: &(usize, f64)| {
            let by_bound = a.1.total_cmp(&b.1);
            let by_bound = if closer { by_bound } else { by_bound.reverse() };
            by_bound.then_with(|| ids[a.0].cmp(&ids[b.0])).is_lt()
        };
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(k);
        // The place in `best` of the pair that ranks last, and its bound once
        // there are `k` (NaN before: no bound is worse). Most pairs stop at one
        // comparison with that bound, as a worse one cannot rank before it.
        let (mut last, mut cut) = (0, f64::NAN);
        for p in pairs {
            let full = best.len() == k;
            if worse(p.1, cut, closer) || !live[p.0] || (full && !before(&p, &best[last])) {
                continue;
            }
            // Past `k`, `p` takes the last-ranked pair's place.
            best.push(p);
            if full {
                best.swap_remove(last);
            }
            if best.len() == k {
                last = (0..k).fold(0, |w, i| if before(&best[w], &best[i]) { i } else { w });
                cut = best[last].1;
            }
        }
        best.into_iter().map(|(i, _)| i).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `k_best` keeps the rows the pair-by-pair scan keeps, in the same
        /// order, over a whole column and over pairs of chosen rows: bounds
        /// drawn from five values and NaN (heavy ties, so the ids decide),
        /// one row in four dead, ids against the row order, both bound
        /// directions, and `k` from 1 to past the live rows. Passing over
        /// a chunk that holds a bound not worse than the cut breaks it.
        #[test]
        fn k_best_keeps_the_rows_of_the_pair_by_pair_scan(
            rows in proptest::prop::collection::vec((0u32..6, 0u32..4, 0u32..3), 0..=90),
            k_choice in 0usize..4,
            closer in proptest::prelude::any::<bool>(),
        ) {
            let n = rows.len();
            let bounds: Vec<f64> = rows
                .iter()
                .map(|r| if r.0 == 5 { f64::NAN } else { f64::from(r.0) * 0.5 })
                .collect();
            let ids: Vec<usize> = (0..n).map(|i| (i * 7919) % 1009 + 1009 * (n - i)).collect();
            let live: Vec<bool> = rows.iter().map(|r| r.1 != 0).collect();
            let data = Dataset::from_rows(&vec![vec![0.0]; n.max(1)]).unwrap();
            let view = ShardView { rows: &data, ids: &ids, live: &live, bounds: &bounds };
            let live_rows = live.iter().filter(|&&l| l).count();
            let k = [1, 3, live_rows.max(1), live_rows + 4][k_choice];
            let column = k_best(&view, &bounds, |i, &v| (i, v), k, closer);
            let oracle = k_best_oracle(&view, bounds.iter().copied().enumerate(), k, closer);
            proptest::prop_assert_eq!(&column, &oracle);
            proptest::prop_assert_eq!(column.len(), k.min(live_rows));
            // Pairs of every other row chosen, last first.
            let pairs: Vec<(usize, f64)> = (0..n)
                .rev()
                .filter(|&i| rows[i].2 != 0)
                .map(|i| (i, bounds[i]))
                .collect();
            let picked = k_best(&view, &pairs, |_, &p| p, k, closer);
            let oracle = k_best_oracle(&view, pairs.iter().copied(), k, closer);
            proptest::prop_assert_eq!(picked, oracle);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// A batch refined together answers each query exactly as
        /// `refine_resident` does alone — neighbours bit for bit — for
        /// Q ∈ {1, 2, 3, 8, 9}, with tombstones, delta rows (bound 0.0),
        /// all-zero columns, six distinct rows many times over (ties on the
        /// distance, so the id decides; ids run against the row index, so a
        /// row swept late often displaces a seed it ties with), `k` from 1 to past
        /// the live rows, a different `k` per query, valid lower bounds up
        /// to the distance itself, and rows wide enough (70) that a
        /// distance can be abandoned mid-row. Per query `refined + pruned`
        /// is the live rows, and both counts are the same at 1, 2 and 8
        /// workers — with the cell plane and without, where the plane
        /// prunes exactly the rows it takes from `refined`. A cheap column
        /// (each bound scaled by 0, ½ or 1) with a `tighten` back to these
        /// bounds gives the same bits, counts and counters, and asks about
        /// no tombstone and no row twice. Sweeping a seed a second time,
        /// abandoning at `≥`, pruning on a cell bound or a bound at `≥`,
        /// sweeping a tombstone, or leaving cheap a row the seeds or τ
        /// need breaks it.
        #[test]
        fn batch_refine_matches_single_refines(
            cells in proptest::prop::collection::vec(
                (0u32..2, 0u32..3, 0u32..8, 0u32..5),
                1..=160,
            ),
            q_choice in 0usize..5,
            queries in proptest::prop::collection::vec(
                (0u32..9, 0u32..9, 0usize..5, 0u32..4),
                9,
            ),
        ) {
            let n = cells.len();
            let wide = |x: f64, y: f64| -> Vec<f64> {
                (0..70).map(|t| if t % 3 == 0 { x } else { y }).collect()
            };
            let rows = Dataset::from_rows(
                &cells
                    .iter()
                    .map(|c| wide(0.1 + f64::from(c.0) * 0.5, 0.1 + f64::from(c.1) * 0.25))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            let ids: Vec<usize> = (0..n).map(|i| 10_000 - i).collect();
            // One slot in eight is a tombstone.
            let live: Vec<bool> = cells.iter().map(|c| c.2 != 0).collect();
            let live_rows = live.iter().filter(|&&l| l).count() as u64;
            let q_count = [1, 2, 3, 8, 9][q_choice];
            let qs: Vec<Vec<f64>> = queries[..q_count]
                .iter()
                .map(|q| wide(f64::from(q.0) * 0.125, f64::from(q.1) * 0.125))
                .collect();
            let ks: Vec<usize> = queries[..q_count]
                .iter()
                .map(|q| [1, 3, 10, n, n + 5][q.2])
                .collect();
            // Row i's bound for query j: 0, ¼, ½, ¾ or all of the distance
            // (0 is a delta row); every fourth query has an all-zero column.
            let columns: Vec<Vec<f64>> = (0..q_count)
                .map(|j| {
                    (0..n)
                        .map(|i| {
                            let frac = (cells[i].3 + j as u32) % 5;
                            let zero = queries[j].3 == 0;
                            if zero { 0.0 } else {
                                f64::from(frac) * 0.25
                                    * simpim_similarity::measures::euclidean_sq(rows.row(i), &qs[j])
                            }
                        })
                        .collect()
                })
                .collect();
            let batch: Vec<BatchQuery<'_>> = (0..q_count)
                .map(|j| BatchQuery { query: &qs[j], k: ks[j], bounds: &columns[j], tighten: None })
                .collect();
            // The same bounds read cheap first: each scaled by 0, ½ or 1 (so
            // cheap bounds tie at κ and at τ), tightened back on request,
            // every row asked about recorded.
            let cheap: Vec<Vec<f64>> = columns
                .iter()
                .enumerate()
                .map(|(j, column)| {
                    column.iter().enumerate().map(|(i, &v)| v * [0.0, 0.5, 1.0][(i + j) % 3]).collect()
                })
                .collect();
            let asked: Vec<std::sync::Mutex<Vec<usize>>> = (0..q_count).map(|_| Default::default()).collect();
            let tightens: Vec<_> = (0..q_count)
                .map(|j| {
                    let (asked, column) = (&asked[j], &columns[j]);
                    move |pairs: &mut [(usize, f64)]| {
                        asked.lock().unwrap().extend(pairs.iter().map(|&(i, _)| i));
                        for (i, v) in pairs.iter_mut() {
                            *v = column[*i];
                        }
                        Ok(())
                    }
                })
                .collect();
            let tightened: Vec<BatchQuery<'_>> = (0..q_count)
                .map(|j| BatchQuery {
                    bounds: &cheap[j],
                    tighten: Some(&tightens[j] as Tighten<'_>),
                    ..batch[j]
                })
                .collect();

            let mut cells = Vec::new();
            push_cells(rows.as_flat(), &mut cells);
            let mut unplaned: Vec<u64> = Vec::new();
            for plane in [None, Some(&cells[..])] {
                let mut counts = None;
                for (threads, batch) in [1usize, 2, 8].into_iter().flat_map(|t| [(t, &batch), (t, &tightened)]) {
                    simpim_par::with_threads(threads, || {
                        let mut c = OpCounters::new();
                        let got = refine_resident_batch(
                            &rows, &ids, &live, plane, batch, Measure::EuclideanSq, &mut c,
                        )
                        .unwrap();
                        assert_eq!(got.len(), q_count);
                        for (j, got) in got.iter().enumerate() {
                            let got = got.as_ref().unwrap();
                            let view = ShardView { rows: &rows, ids: &ids, live: &live, bounds: &columns[j] };
                            let mut solo = OpCounters::new();
                            let alone =
                                refine_resident(&view, &qs[j], ks[j], Measure::EuclideanSq, &mut solo).unwrap();
                            let bits = |r: &ShardRefine| -> Vec<(usize, u64)> {
                                r.neighbors.iter().map(|&(id, v)| (id, v.to_bits())).collect()
                            };
                            let cheap = batch[j].tighten.is_some();
                            let what = format!("query {j} of {q_count}, {threads} threads, plane {}, cheap {cheap}", plane.is_some());
                            assert_eq!(bits(got), bits(&alone), "{what}");
                            assert_eq!(got.refined + got.pruned, live_rows, "{what}: every live row counted once");
                            // Asked about live rows only, each once; the rest
                            // kept their cheap bound.
                            let mut asked = std::mem::take(&mut *asked[j].lock().unwrap());
                            assert!(asked.iter().all(|&i| live[i]), "{what}: a tombstone asked about");
                            asked.sort_unstable();
                            asked.dedup();
                            let kept = if cheap { live_rows - asked.len() as u64 } else { 0 };
                            assert_eq!(got.cheap_pruned, kept, "{what}: a row asked about twice");
                        }
                        let these: Vec<(u64, u64, u64)> =
                            got.iter().flatten().map(|r| (r.refined, r.pruned, r.plane_pruned)).collect();
                        let these = (these, c);
                        let cheap = batch[0].tighten.is_some();
                        assert_eq!(counts.get_or_insert_with(|| these.clone()), &these, "{threads} threads, cheap {cheap}");
                    });
                }
                // The plane takes from `refined` exactly the rows it prunes.
                let counts = counts.unwrap().0;
                if plane.is_none() {
                    assert!(counts.iter().all(|c| c.2 == 0));
                    unplaned = counts.iter().map(|c| c.0).collect();
                } else {
                    let moved: Vec<u64> = counts.iter().map(|c| c.0 + c.2).collect();
                    assert_eq!(moved, unplaned);
                }
            }
        }
    }

    /// A NaN bound is never worse than a cut: over a column with NaN
    /// bounds of both signs on the query's nearest rows, on rows far from
    /// it and on a tombstone, the marking marks the NaN rows, so the batch
    /// still answers as the single-query refinement over the valid column
    /// does; and read as a cheap column, κ's scan keeps them, so each live
    /// one is tightened, and answers, counts and counters are those of the
    /// valid column. Over 150 rows: past two mask words and many chunks of
    /// the k-best skip.
    #[test]
    fn a_nan_bound_is_never_worse() {
        let n = 150;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64, 0.5]).collect();
        let rows = Dataset::from_rows(&rows).unwrap();
        let query = [0.62, 0.5];
        let ids: Vec<usize> = (0..n).map(|i| 1000 - i).collect();
        let live: Vec<bool> = (0..n).map(|i| i % 11 != 7).collect();
        let exact = |i| simpim_similarity::measures::euclidean_sq(rows.row(i), &query);
        let valid: Vec<f64> = (0..n).map(|i| 0.5 * exact(i)).collect();
        // Rows 91, 93 and 94 are among the nearest, 3 and 140 far; 95 is a
        // tombstone. A NaN of either sign, which `total_cmp` ranks first
        // or last.
        let negative_nan = f64::from_bits(0xFFF8_0000_0000_0000);
        let nan_rows = [91, 93, 94, 3, 140];
        let mut nans = valid.clone();
        for (&i, nan) in nan_rows
            .iter()
            .chain(&[95])
            .zip([f64::NAN, negative_nan].repeat(3))
        {
            nans[i] = nan;
        }
        assert!(!live[95] && nan_rows.iter().all(|&i| live[i]));
        let live_rows = live.iter().filter(|&&l| l).count() as u64;
        let ks = [1, 2, 5, 20];
        let asked: Vec<std::sync::Mutex<Vec<usize>>> =
            ks.iter().map(|_| Default::default()).collect();
        let tightens: Vec<_> = (asked.iter())
            .map(|asked| {
                let valid = &valid;
                move |pairs: &mut [(usize, f64)]| {
                    asked.lock().unwrap().extend(pairs.iter().map(|&(i, _)| i));
                    pairs.iter_mut().for_each(|(i, v)| *v = valid[*i]);
                    Ok(())
                }
            })
            .collect();
        let of = |bounds, cheap: bool| -> Vec<BatchQuery<'_>> {
            let query = &query[..];
            let tighten = |j: usize| cheap.then_some(&tightens[j] as Tighten<'_>);
            (ks.iter().enumerate())
                .map(|(j, &k)| BatchQuery {
                    query,
                    k,
                    bounds,
                    tighten: tighten(j),
                })
                .collect()
        };
        let refine = |batch: &[BatchQuery<'_>]| {
            let mut c = OpCounters::new();
            let out = refine_resident_batch(
                &rows,
                &ids,
                &live,
                None,
                batch,
                Measure::EuclideanSq,
                &mut c,
            );
            let out: Vec<ShardRefine> = out.unwrap().into_iter().map(Result::unwrap).collect();
            (out, c)
        };
        let (over_valid, valid_counters) = refine(&of(&valid, false));
        let (marked, _) = refine(&of(&nans, false));
        let (tightened, tightened_counters) = refine(&of(&nans, true));
        for (j, &k) in ks.iter().enumerate() {
            let view = ShardView {
                rows: &rows,
                ids: &ids,
                live: &live,
                bounds: &valid,
            };
            let mut c = OpCounters::new();
            let alone = refine_resident(&view, &query, k, Measure::EuclideanSq, &mut c).unwrap();
            // Rows 91 and 94 rank last by their NaN and can only be swept.
            let answers = |i: usize| alone.neighbors.iter().any(|&(id, _)| id == ids[i]);
            assert!(k < 5 || (answers(91) && answers(94)), "k = {k}");
            for (what, got) in [("marked", &marked[j]), ("tightened", &tightened[j])] {
                assert_eq!(got.neighbors, alone.neighbors, "{what} k = {k}");
                assert_eq!(got.refined + got.pruned, live_rows, "{what} k = {k}");
            }
            let (got, want) = (&tightened[j], &over_valid[j]);
            assert_eq!(
                (got.refined, got.pruned),
                (want.refined, want.pruned),
                "k = {k}"
            );
            let asked = std::mem::take(&mut *asked[j].lock().unwrap());
            assert!(
                nan_rows.iter().all(|i| asked.contains(i)),
                "k = {k}: {asked:?}"
            );
            assert!(!asked.contains(&95), "k = {k}: a tombstone asked about");
            assert_eq!(got.cheap_pruned, live_rows - asked.len() as u64, "k = {k}");
        }
        assert_eq!(tightened_counters, valid_counters);
    }

    /// The plane prunes only above τ, as `TopK::prunable` does: a row at
    /// distance 0 swept after a seed at distance 0 (seeded first on a
    /// negative bound), and a row at τ exactly where its cell bound is
    /// tight (a cell edge; τ from a seed at the same distance), each still
    /// reach the distance and win their tie on the id, as in the walk.
    #[test]
    fn a_tie_with_tau_is_refined_past_the_plane() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let edge = (below(1.0 / 256.0), 2.0 / 256.0, [0.0, 1.0 / 65536.0]);
        for (value, query, bounds) in [(0.5, 0.5, [-1.0, 0.0]), edge] {
            let rows = Dataset::from_rows(&[vec![value], vec![value]]).unwrap();
            let (ids, live, query) = ([10, 5], [true; 2], [query]);
            let mut cells = Vec::new();
            push_cells(rows.as_flat(), &mut cells);
            let plane = Some(&cells[..]);
            let batch = [BatchQuery {
                query: &query,
                k: 1,
                bounds: &bounds,
                tighten: None,
            }];
            let mut c = OpCounters::new();
            let got = refine_resident_batch(
                &rows,
                &ids,
                &live,
                plane,
                &batch,
                Measure::EuclideanSq,
                &mut c,
            );
            let view = ShardView {
                rows: &rows,
                ids: &ids,
                live: &live,
                bounds: &bounds,
            };
            let alone = refine_resident(&view, &query, 1, Measure::EuclideanSq, &mut c).unwrap();
            assert_eq!(got.unwrap()[0].as_ref().unwrap().neighbors, alone.neighbors);
            assert_eq!(alone.neighbors[0].0, 5);
        }
    }

    /// The cell bound as computed, against `euclidean_sq` as computed:
    /// every pair of cells, each value at its cell's two edges (and 0, 1,
    /// and queries below 0 and above 1), in one dimension; then the
    /// largest gaps repeated over 1 to 4 096 dimensions. The deflated
    /// bound is never above the distance.
    #[test]
    fn the_cell_bound_is_below_the_computed_distance() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut values: Vec<f64> = (0..256)
            .flat_map(|c| [f64::from(c) / 256.0, below(f64::from(c + 1) / 256.0)])
            .chain([0.0, 1.0])
            .collect();
        let rows = values.clone();
        values.extend([-1e300, -1.0, -1e-300, 1.0 + f64::EPSILON, 1.5, 1e300]);
        let holds = |p: &[f64], q: &[f64]| {
            let (mut pc, mut qc, mut sum) = (Vec::new(), Vec::new(), [0u64]);
            push_cells(p, &mut pc);
            push_cells(q, &mut qc);
            simpim_kern::cell_bound_multi(&pc, &[&qc], &mut sum);
            let bound = plane_bound(sum[0], p.len());
            let exact = simpim_kern::euclidean_sq(p, q);
            assert!(bound <= exact, "{bound} > {exact}: p {} q {}", p[0], q[0]);
            sum[0]
        };
        let mut pairs = std::collections::HashSet::new();
        for &p in &rows {
            for &q in &values {
                holds(&[p], &[q]);
                pairs.insert(((p * CELLS) as u8, (q * CELLS) as u8));
            }
        }
        assert_eq!(pairs.len(), 256 * 256, "every pair of cells");
        // Per dimension the tightest pairs: the lower cell's top edge
        // against the upper cell's floor, and the widest gaps.
        let tight = [
            (1.0, below(1.0 / 256.0)),
            (1.0, 0.0),
            (0.5, below(2.0 / 256.0)),
            (1.0, -1.0),
        ];
        for d in 1..=4096 {
            for &(p, q) in &tight {
                let sum = holds(&vec![p; d], &vec![q; d]);
                assert_eq!(sum, holds(&vec![q; d], &vec![p; d]));
            }
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
