//! One serving shard: a host-side mirror of the rows plus a PIM
//! *residency* (the programmed crossbar state) on its own ReRAM bank.
//!
//! The split matters for replication: a [`crate::ReplicaSet`] programs
//! the same rows onto `R` banks, and before this split each replica
//! carried its own full host mirror — `R` copies of every vector. Now
//! the mirror ([`ShardMirror`]) is hoisted out and shared; each replica
//! keeps only a [`Residency`]: the executor, the bank, and a compact
//! `order` map from crossbar object positions to mirror rows. The
//! replica set is the one serving unit: the standalone [`Shard`] is a
//! front over a set of one.
//!
//! The mirror tracks three populations per row:
//!
//! * **resident** rows — present in a residency's `order`, i.e.
//!   programmed on that bank (at open, at the last reprogram, or
//!   appended into Theorem 4's spare rows);
//! * **tombstoned** rows — deleted (`live = false`) but possibly still
//!   programmed; the PIM batch keeps producing bounds for them, the
//!   refinement never surfaces them;
//! * **delta** rows — live rows a residency has *not* programmed (its
//!   spare rows ran out, or its bank was dead at insert). They simply
//!   get no PIM bound: the refinement sees bound `0.0` — never prunable
//!   — so they are evaluated exactly, which is precisely the old
//!   separate delta scan without the second pass.
//!
//! Because residencies on different banks age differently (repair gives
//! one a fresh bank, appends land on some and overflow on others), each
//! keeps its own `order`; the mirror only compacts tombstones away once
//! *every* residency over it has folded them (see
//! [`ShardMirror::compact`]).
//!
//! A compaction ([`Residency::reprogram`]) works **in place** on the
//! residency's own bank and rewrites only the rows that change: each
//! tombstoned position takes a delta row, or else the last programmed
//! row (the region shrinks back into its spare slots), and leftover
//! delta rows are appended. Only the crossbars those rows land on wear.
//! Only when the live rows outgrow the allocation Theorem 4 planned
//! (`n + spare_rows`) is the shard re-laid out — on the same bank, whose
//! wear survives the clear. The tombstone ratio that triggers a
//! compaction still *rises* with the wear already accumulated: a fresh
//! bank compacts eagerly, a worn bank tolerates more dead weight.
//!
//! A shard whose PIM stage is a segment bound (`LB_PIM-FNN` /
//! `LB_PIM-SM`: Theorem 4 could not keep every dimension on the
//! crossbars) also keeps a host **cell plane** in the mirror: one `u8`
//! cell per dimension per row, parallel to the rows, which the batch
//! refinement tests between the PIM bound and the exact distance
//! ([`simpim_mining::knn::resident::push_cells`]). A shard on the
//! uncompressed `LB_PIM-ED` keeps none — that bound already prunes
//! nearly every row. The choice follows the plan: made at open (where the
//! first replica's fill cuts the cells of the rows it streams), and again
//! whenever a re-layout or a repair plans the bank anew.
//!
//! Programming is **streamed**: rows flow from the mirror into the bank
//! in [`simpim_datasets::DEFAULT_BLOCK_ROWS`]-sized blocks through
//! [`simpim_core::ResidentBuilder`], whose result (matrix, Φ, wear) does
//! not depend on the block size, so no second copy of the shard is ever
//! materialized — open, repair, and re-layout all share it.

use simpim_core::executor::{Columns, ExecutorConfig, PimExecutor};
use simpim_core::{CoreError, ResidentBuilder};
use simpim_datasets::DEFAULT_BLOCK_ROWS;
use simpim_mining::knn::resident::{
    push_cells, refine_resident, refine_resident_batch, BatchQuery, ShardView, Tighten,
};
use simpim_mining::MiningError;
use simpim_reram::Read;
use simpim_similarity::{Dataset, Measure};
use simpim_simkit::OpCounters;

use crate::error::ServeError;
use crate::replica::ReplicaSet;
use crate::Neighbor;

/// Per-shard policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Executor (platform + quantization) configuration.
    pub executor: ExecutorConfig,
    /// Spare object slots reserved per shard for online appends.
    pub spare_rows: usize,
    /// Base tombstone ratio that triggers a compacting reprogram.
    pub tombstone_reprogram_ratio: f64,
    /// Program cycles after which the reprogram threshold has doubled
    /// (the wear-aware part of the policy).
    pub reprogram_wear_budget: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            executor: ExecutorConfig::default(),
            spare_rows: 16,
            tombstone_reprogram_ratio: 0.25,
            reprogram_wear_budget: 1_000,
        }
    }
}

/// Point-in-time shard statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Live objects (resident + delta, tombstones excluded).
    pub live: usize,
    /// Tombstoned slots still programmed on this residency's bank.
    pub tombstones: usize,
    /// Live rows this residency has not programmed (host-only until the
    /// next reprogram folds them in).
    pub delta: usize,
    /// Spare crossbar rows still available for appends.
    pub spare: usize,
    /// Compacting reprograms performed since open.
    pub reprograms: u64,
    /// Queries served from the host path because the PIM batch failed.
    pub sheds: u64,
    /// Highest program count over this shard's crossbars (wear).
    pub max_crossbar_programs: u32,
    /// Whether this shard's bank is fail-stopped (bank loss).
    pub lost: bool,
    /// Whether the shard keeps a host cell plane (its plan is a segment
    /// bound).
    pub cell_plane: bool,
    /// Bytes of that plane: one per dimension per mirror row.
    pub cell_plane_bytes: usize,
    /// Whether this residency's bank keeps a coarse plane (its plan is
    /// `LB_PIM-ED` and a coalesced batch has read it coarse).
    pub coarse_plane: bool,
    /// Host bytes of that plane: a two-byte cell per stored operand and
    /// three eight-byte sums a row.
    pub coarse_plane_bytes: usize,
}

/// The host-side truth for one shard's rows: vectors, stable global
/// ids, liveness, and the cell plane when the shard has one. Shared by
/// every replica of the shard — mutations apply here once, residencies
/// only track what their bank holds.
///
/// Its rows are normalized into `[0, 1]`, which opening it and every
/// insert validate; the crossbars'
/// floors need it (the cell plane's bound holds for any finite values).
#[derive(Debug)]
pub struct ShardMirror {
    rows: Dataset,
    /// `d` cells per row ([`push_cells`]), parallel to `rows`; `None`
    /// when the shard keeps no plane.
    cells: Option<Vec<u8>>,
    ids: Vec<usize>,
    live: Vec<bool>,
    dead: usize,
}

impl ShardMirror {
    /// Wraps `rows` with their stable global `ids`. Takes ownership — no
    /// copy is made, and none is made per replica either.
    ///
    /// # Errors
    /// [`ServeError::InvalidArgument`] when `ids` does not parallel `rows`
    /// or a value lies outside `[0, 1]`.
    pub fn new(rows: Dataset, ids: Vec<usize>) -> Result<Self, ServeError> {
        let invalid = |what| Err(ServeError::invalid(what));
        if ids.len() != rows.len() {
            return invalid("ids must parallel rows");
        }
        if rows.as_flat().iter().any(|v| !(0.0..=1.0).contains(v)) {
            return invalid("dataset values must be normalized into [0, 1]");
        }
        Ok(Self {
            live: vec![true; rows.len()],
            rows,
            cells: None,
            ids,
            dead: 0,
        })
    }

    /// Opens `r` residencies over this mirror, replica `i` under `cfg(i)`;
    /// the first one's fill also cuts the cell plane when its plan is a
    /// segment bound.
    pub(crate) fn open_residencies(
        &mut self,
        r: usize,
        cfg: impl Fn(usize) -> ShardConfig,
    ) -> Result<Vec<Residency>, ServeError> {
        let (first, cells) = Residency::open_cutting(cfg(0), self, true)?;
        self.cells = cells;
        let rest = (1..r).map(|i| Residency::open(cfg(i), self));
        std::iter::once(Ok(first)).chain(rest).collect()
    }

    /// Keeps a cell plane (cut from every row in one pass) or drops it.
    pub(crate) fn set_cell_plane(&mut self, on: bool) {
        if !on {
            self.cells = None;
        } else if self.cells.is_none() {
            let mut cells = Vec::new();
            push_cells(self.rows.as_flat(), &mut cells);
            self.cells = Some(cells);
        }
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.rows.dim()
    }

    /// All slots, tombstoned included.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the mirror holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `i` (tombstoned or not).
    pub fn row(&self, i: usize) -> &[f64] {
        self.rows.row(i)
    }

    /// Live rows.
    pub fn live_len(&self) -> usize {
        self.rows.len() - self.dead
    }

    /// Tombstoned slots awaiting compaction.
    pub fn dead_len(&self) -> usize {
        self.dead
    }

    /// Appends a row, returning its mirror index.
    pub fn append(&mut self, id: usize, row: &[f64]) -> Result<usize, ServeError> {
        debug_assert!(row.iter().all(|v| (0.0..=1.0).contains(v)));
        let idx = self.rows.append_row(row)?;
        if let Some(cells) = &mut self.cells {
            push_cells(row, cells);
        }
        self.ids.push(id);
        self.live.push(true);
        Ok(idx)
    }

    /// Tombstones global `id`; returns its mirror index if it was live.
    pub fn tombstone(&mut self, id: usize) -> Option<usize> {
        let idx = self.ids.iter().position(|&x| x == id)?;
        if !self.live[idx] {
            return None; // already tombstoned
        }
        self.live[idx] = false;
        self.dead += 1;
        Some(idx)
    }

    /// Mirror indices of the live rows, in row order.
    pub fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows.len()).filter(|&i| self.live[i])
    }

    /// Snapshot of the live rows with their stable global ids — the
    /// compacted layout a reprogram produces. Answers over the snapshot
    /// are bit-identical to answers over the mirror (compaction
    /// invariance).
    pub fn snapshot_live(&self) -> Result<(Dataset, Vec<usize>), ServeError> {
        let mut rows = Dataset::with_dim(self.dim())?;
        let mut ids = Vec::new();
        for i in self.live_indices() {
            rows.append_row(self.rows.row(i))?;
            ids.push(self.ids[i]);
        }
        Ok((rows, ids))
    }

    /// Drops tombstoned rows in place — each dead slot takes the last
    /// row — returning `old index → new index` (dead slots map to
    /// `None`). Storage order is not part of an answer, which is ordered
    /// by (distance, global id). Only call once every residency over this
    /// mirror has folded its tombstones (their `order`s are remapped
    /// with the returned table via [`Residency::remap`]); compacting
    /// under a residency that still has dead rows programmed would
    /// desynchronize its bound batch from the mirror.
    pub fn compact(&mut self) -> Vec<Option<usize>> {
        let mut remap = vec![None; self.len()];
        // `origin[i]`: the index the row now at `i` had before.
        let mut origin: Vec<usize> = (0..self.len()).collect();
        let mut i = 0;
        while i < self.rows.len() {
            if self.live[i] {
                remap[origin[i]] = Some(i); // slots below `i` never move again
                i += 1;
                continue;
            }
            self.rows.swap_remove_row(i).expect("a slot below len");
            if let Some(cells) = &mut self.cells {
                let d = self.rows.dim();
                let last = cells.len() - d;
                cells.copy_within(last.., i * d);
                cells.truncate(last);
            }
            self.ids.swap_remove(i);
            self.live.swap_remove(i);
            origin.swap_remove(i);
        }
        self.dead = 0;
        remap
    }

    /// Exact host-side answers over every live row, ignoring crossbars
    /// entirely — the one degraded / shed / lost-bank fallback. No row
    /// carries a bound (one all-`0.0` column serves every query of the
    /// batch), so every live row is refined exactly — past the cell plane,
    /// when the shard has one: bit-identical to the PIM path by the
    /// refinement's exactness argument. A `ks` that does
    /// not parallel `queries` fails every query of the batch.
    pub fn host_batch(
        &self,
        queries: &[Vec<f64>],
        ks: &[usize],
    ) -> Vec<Result<Vec<Neighbor>, ServeError>> {
        if let Err(e) = check_ks(queries, ks) {
            return vec![Err(e); queries.len()];
        }
        let zeros = vec![0.0; self.rows.len()];
        let batch: Vec<BatchQuery<'_>> = queries
            .iter()
            .zip(ks)
            .map(|(query, &k)| BatchQuery {
                query,
                k,
                bounds: &zeros,
                tighten: None,
            })
            .collect();
        self.refine_batch(&batch)
            .unwrap_or_else(|e| vec![Err(e.into()); queries.len()])
    }

    /// Refines a batch, each query with its own column of per-mirror-row
    /// bound values (`0.0` = no bound, refine exactly). Tombstones never
    /// surface. A batch goes down in one call, its rows read once for all
    /// of it; a query that is invalid on its own fails alone, a failed
    /// [`BatchQuery::tighten`] fails the batch.
    ///
    /// A batch of one keeps the single-query walk — a fork, on purpose
    /// (DESIGN.md §16): the benchmark's traced replay times exactly that
    /// walk against a plain distance over the rows it refined. A larger
    /// batch is tested against the cell plane, when the shard has one.
    fn refine_batch(
        &self,
        batch: &[BatchQuery<'_>],
    ) -> Result<Vec<Result<Vec<Neighbor>, ServeError>>, MiningError> {
        let started = std::time::Instant::now();
        let mut counters = OpCounters::new();
        let (rows, ids, live) = (&self.rows, &self.ids[..], &self.live[..]);
        let measure = Measure::EuclideanSq;
        let refined = if let [one @ BatchQuery { tighten: None, .. }] = batch {
            let view = ShardView {
                rows,
                ids,
                live,
                bounds: one.bounds,
            };
            vec![refine_resident(
                &view,
                one.query,
                one.k,
                measure,
                &mut counters,
            )]
        } else {
            let cells = self.cells.as_deref();
            refine_resident_batch(rows, ids, live, cells, batch, measure, &mut counters)?
        };
        let (mut evaluated, mut pruned, mut plane_pruned, mut coarse_pruned) = (0, 0, 0, 0);
        for r in refined.iter().flatten() {
            evaluated += r.refined;
            pruned += r.pruned;
            plane_pruned += r.plane_pruned;
            coarse_pruned += r.cheap_pruned;
        }
        simpim_obs::metrics::counter_add("simpim.serve.refined", evaluated);
        simpim_obs::metrics::counter_add("simpim.serve.pruned", pruned);
        simpim_obs::metrics::counter_add("simpim.serve.plane_pruned", plane_pruned);
        simpim_obs::metrics::counter_add("simpim.serve.coarse_pruned", coarse_pruned);
        simpim_obs::metrics::histogram_record(
            "simpim.serve.shard.refine_ns",
            started.elapsed().as_nanos() as u64,
        );
        Ok(refined.into_iter().map(|r| Ok(r?.neighbors)).collect())
    }
}

/// A coalesced batch carries one `k` per query.
fn check_ks(queries: &[Vec<f64>], ks: &[usize]) -> Result<(), ServeError> {
    if queries.len() == ks.len() {
        return Ok(());
    }
    Err(ServeError::invalid(format!(
        "ks must parallel queries: {} ks for {} queries",
        ks.len(),
        queries.len()
    )))
}

/// One bank's programmed state over a [`ShardMirror`]: the executor and
/// the map from crossbar object positions to mirror rows. This is all a
/// replica owns — the vectors themselves live in the shared mirror.
#[derive(Debug)]
pub struct Residency {
    cfg: ShardConfig,
    exec: PimExecutor,
    /// `order[j]` = mirror index of the bank's `j`-th programmed object.
    order: Vec<usize>,
    /// Buffers a batch refills, kept so that it allocates nothing:
    /// `objs[i]`, the bank object of mirror row `i`, if it has one;
    /// `delta_rows`, the rows without one; and the bound columns.
    objs: Vec<Option<usize>>,
    delta_rows: Vec<usize>,
    columns: Vec<f64>,
    reprograms: u64,
    sheds: u64,
}

impl Residency {
    /// Programs the mirror's live rows onto a fresh bank, streaming
    /// block-by-block (no second copy of the rows is ever built).
    pub fn open(cfg: ShardConfig, mirror: &ShardMirror) -> Result<Self, ServeError> {
        Ok(Self::open_cutting(cfg, mirror, false)?.0)
    }

    /// [`Residency::open`] that, asked to `cut`, when its plan is a segment
    /// bound and the mirror holds no tombstone (so rows stream in mirror
    /// order), also returns the cells of every row it streamed: the cell
    /// plane's one pass, over rows the fill has just read.
    fn open_cutting(
        cfg: ShardConfig,
        mirror: &ShardMirror,
        cut: bool,
    ) -> Result<(Self, Option<Vec<u8>>), ServeError> {
        if mirror.live_len() == 0 {
            // Reached from `open` on the caller's thread: refuse, never panic.
            return Err(ServeError::invalid(
                "a shard needs at least one live row to program",
            ));
        }
        let order: Vec<usize> = mirror.live_indices().collect();
        let mut builder = PimExecutor::begin_euclidean_resident(
            cfg.executor,
            order.len(),
            mirror.dim(),
            cfg.spare_rows,
        )?;
        let cut = cut && !builder.plan().uncompressed && mirror.dead == 0;
        let mut cells = cut.then(|| Vec::with_capacity(order.len() * mirror.dim()));
        Self::stream(&mut builder, mirror, &order, cells.as_mut())?;
        let residency = Self {
            cfg,
            exec: builder.finish()?,
            order,
            objs: Vec::new(),
            delta_rows: Vec::new(),
            columns: Vec::new(),
            reprograms: 0,
            sheds: 0,
        };
        Ok((residency, cells))
    }

    /// Streams the mirror rows `order` names, in that order, through
    /// [`ResidentBuilder`] in [`DEFAULT_BLOCK_ROWS`]-sized blocks, cutting
    /// each into `cells` too when given.
    fn stream(
        builder: &mut ResidentBuilder,
        mirror: &ShardMirror,
        order: &[usize],
        mut cells: Option<&mut Vec<u8>>,
    ) -> Result<(), CoreError> {
        let block = DEFAULT_BLOCK_ROWS * mirror.dim();
        let mut buf = Vec::with_capacity(block.min(order.len() * mirror.dim()));
        for &i in order {
            buf.extend_from_slice(mirror.row(i));
            if let Some(cells) = cells.as_deref_mut() {
                push_cells(mirror.row(i), cells);
            }
            if buf.len() >= block {
                builder.push_rows(&buf)?;
                buf.clear();
            }
        }
        if !buf.is_empty() {
            builder.push_rows(&buf)?;
        }
        Ok(())
    }

    /// Tries to absorb a freshly appended mirror row (`idx`) into the
    /// bank's spare rows. `Ok(true)` when it is now resident; `Ok(false)`
    /// when the spares are exhausted or the bank is lost — the row stays
    /// host-only (delta) for this residency until the next reprogram.
    pub fn absorb_insert(&mut self, idx: usize, row: &[f64]) -> Result<bool, ServeError> {
        match self.exec.append_row(row) {
            Ok(_) => {
                self.order.push(idx);
                Ok(true)
            }
            Err(CoreError::ReRam(
                simpim_reram::ReRamError::InsufficientCapacity { .. }
                | simpim_reram::ReRamError::BankLost,
            )) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Serves a coalesced batch through this bank: one PIM bound pass,
    /// a bound column per query in mirror order (read coarse first where
    /// the pass allows, and tightened by the refinement, DESIGN.md §9;
    /// rows without a bound — the delta — get `0.0` and are refined
    /// exactly), then one exact host refinement of the whole batch.
    /// Whole-bank loss surfaces as the outer `Err` for failover, a `ks`
    /// that does not parallel `queries` as an outer
    /// [`ServeError::InvalidArgument`]; every *recoverable* PIM failure
    /// sheds the batch to the exact host scan internally.
    pub fn try_query_batch(
        &mut self,
        mirror: &ShardMirror,
        queries: &[Vec<f64>],
        ks: &[usize],
        parent: simpim_obs::TraceCtx,
    ) -> Result<Vec<Result<Vec<Neighbor>, ServeError>>, ServeError> {
        // Runs on a pool worker: fail this batch, never the thread.
        check_ks(queries, ks)?;
        let refine = |batch: &[BatchQuery<'_>]| mirror.refine_batch(batch);
        match self.bound_columns(mirror, queries, ks, parent, refine) {
            Ok(answers) => Ok(answers),
            Err(e) if e.is_bank_loss() => {
                // The bank fail-stopped: this replica cannot serve
                // from its crossbars at all. Let the caller route the
                // batch elsewhere (or degrade to the host mirror).
                Err(e)
            }
            _ => {
                // Recoverable bank-level failure (e.g. ADC retries
                // exhausted under an aggressive fault model, or a failed
                // fine read): shed the whole batch to the host scan.
                // Exactness is preserved; only the PIM filter is lost.
                self.sheds += queries.len() as u64;
                simpim_obs::metrics::counter_add("simpim.serve.sheds", queries.len() as u64);
                Ok(mirror.host_batch(queries, ks))
            }
        }
    }

    /// Runs one coarse-first pass ([`PimExecutor::bounds`], [`Read::Coarse`])
    /// into one bound column per query in mirror order, kept across
    /// batches: the pass writes the rows `order` names, and the rest —
    /// the delta rows — get `0.0` (refine exactly). Then it hands the
    /// batch to `refine`. A query whose
    /// pass read coarse carries a [`BatchQuery::tighten`] that reads the
    /// fine bounds of the rows it is asked about
    /// ([`PimExecutor::lb_ed_fine`], through one row → object table);
    /// a delta row's `0.0` is already exact and stays.
    fn bound_columns<T>(
        &mut self,
        mirror: &ShardMirror,
        queries: &[Vec<f64>],
        ks: &[usize],
        parent: simpim_obs::TraceCtx,
        refine: impl FnOnce(&[BatchQuery<'_>]) -> Result<T, MiningError>,
    ) -> Result<T, ServeError> {
        let n = mirror.len();
        self.objs.clear();
        self.objs.resize(n, None);
        (self.order.iter().enumerate()).for_each(|(obj, &i)| self.objs[i] = Some(obj));
        self.delta_rows.clear();
        let delta_rows = (0..n).filter(|&i| self.objs[i].is_none());
        self.delta_rows.extend(delta_rows);
        // Every entry is written below: the old values need no clearing.
        self.columns
            .resize(self.columns.len().max(n * queries.len()), 0.0);
        let columns = &mut self.columns[..n * queries.len()];
        let out = Columns {
            rows: &self.order,
            values: columns,
        };
        let pass = self.exec.bounds(queries, Read::Coarse, parent, Some(out))?;
        for j in 0..queries.len() {
            let column = &mut self.columns[j * n..][..n];
            self.delta_rows.iter().for_each(|&i| column[i] = 0.0);
        }
        let pass_ns: f64 = pass.batches.iter().map(|b| b.timing.total_ns()).sum();
        simpim_obs::metrics::histogram_record("simpim.serve.shard.pim_pass_ns", pass_ns as u64);
        let (exec, pass, objs, columns) = (&self.exec, &pass, &self.objs, &self.columns);
        let tighten: Vec<_> = (0..queries.len())
            .map(|j| {
                move |pairs: &mut [(usize, f64)]| -> Result<(), MiningError> {
                    let asked: Vec<usize> = pairs.iter().filter_map(|&(i, _)| objs[i]).collect();
                    let mut values = vec![0.0; asked.len()];
                    exec.lb_ed_fine(pass, j, &asked, &mut values)?;
                    let resident = pairs.iter_mut().filter(|(i, _)| objs[*i].is_some());
                    resident.zip(values).for_each(|((_, v), fine)| *v = fine);
                    Ok(())
                }
            })
            .collect();
        let batch: Vec<BatchQuery<'_>> = (queries.iter().zip(ks).enumerate())
            .map(|(j, (query, &k))| BatchQuery {
                query,
                k,
                bounds: &columns[j * n..][..n],
                tighten: pass.is_coarse(j).then_some(&tighten[j] as Tighten<'_>),
            })
            .collect();
        Ok(refine(&batch)?)
    }

    /// Tombstoned slots still programmed on this bank.
    pub fn tombstoned(&self, mirror: &ShardMirror) -> usize {
        self.order.iter().filter(|&&i| !mirror.live[i]).count()
    }

    /// Live rows this residency has not programmed.
    pub fn delta(&self, mirror: &ShardMirror) -> usize {
        let live_resident = self.order.len() - self.tombstoned(mirror);
        mirror.live_len() - live_resident
    }

    /// Rewrites this residency's `order` through a
    /// [`ShardMirror::compact`] remap table.
    pub fn remap(&mut self, table: &[Option<usize>]) {
        for slot in &mut self.order {
            *slot = table[*slot].expect("compacted away a row still programmed on a residency");
        }
    }

    /// The wear-adjusted tombstone threshold: `base · (1 + wear/budget)`.
    /// A worn bank tolerates proportionally more tombstones before it
    /// spends more program cycles on compaction.
    fn reprogram_threshold(&self) -> f64 {
        let wear = self.wear() as f64 / self.cfg.reprogram_wear_budget.max(1) as f64;
        self.cfg.tombstone_reprogram_ratio * (1.0 + wear)
    }

    /// Compacts when the tombstone ratio crosses the wear-adjusted
    /// threshold.
    pub fn maybe_reprogram(&mut self, mirror: &ShardMirror) -> Result<(), ServeError> {
        let ratio = self.tombstoned(mirror) as f64 / self.order.len().max(1) as f64;
        if ratio > self.reprogram_threshold() {
            self.reprogram(mirror)?;
        }
        Ok(())
    }

    /// Compacts this residency — delta folded in, tombstones dropped —
    /// and returns the rows it wrote. In place when the live rows fit
    /// the allocation (see the module docs); otherwise a re-layout of
    /// every live row with a full complement of spare slots on this same
    /// bank. A no-op on a lost bank — nothing can be programmed there;
    /// the repair loop owns those — and when there is nothing to fold.
    pub fn reprogram(&mut self, mirror: &ShardMirror) -> Result<usize, ServeError> {
        let nothing_to_fold = self.tombstoned(mirror) == 0 && self.delta(mirror) == 0;
        // With everything deleted, keep the old (all-tombstoned) residency
        // rather than program an empty region: queries return nothing.
        if self.bank_lost() || nothing_to_fold || mirror.live_len() == 0 {
            return Ok(0);
        }
        let started = std::time::Instant::now();
        let written = if mirror.live_len() > self.order.len() + self.exec.spare_capacity()? {
            let order: Vec<usize> = mirror.live_indices().collect();
            self.exec
                .relayout(order.len(), self.cfg.spare_rows, |builder| {
                    Self::stream(builder, mirror, &order, None)
                })?;
            self.order = order;
            self.order.len()
        } else {
            self.compact_in_place(mirror)?
        };
        self.reprograms += 1;
        simpim_obs::metrics::counter_add("simpim.serve.reprograms", 1);
        simpim_obs::metrics::counter_add("simpim.serve.compact_rows", written as u64);
        simpim_obs::metrics::histogram_record(
            "simpim.serve.compact_ns",
            started.elapsed().as_nanos() as u64,
        );
        Ok(written)
    }

    /// The in-place compaction: every tombstoned position takes a delta
    /// row while any is left, otherwise the last programmed row (dead
    /// tail rows are dropped), and the region is truncated to what is
    /// left; delta rows still left are appended into the spare slots.
    /// With faults configured, one scrub covers every row written.
    fn compact_in_place(&mut self, mirror: &ShardMirror) -> Result<usize, ServeError> {
        let mut resident = vec![false; mirror.len()];
        for &i in &self.order {
            resident[i] = true;
        }
        let mut delta = mirror.live_indices().filter(|&i| !resident[i]);
        let live = |i: usize| mirror.live[i];
        let mut written = 0;
        let mut j = 0;
        while j < self.order.len() {
            if live(self.order[j]) {
                j += 1;
                continue;
            }
            let row = match delta.next() {
                Some(row) => row,
                None => {
                    // Shrink: drop the dead tail (`j` itself, if it is
                    // last), then move the live tail row to `j`.
                    while self.order.last().is_some_and(|&i| !live(i)) {
                        self.order.pop();
                    }
                    if j >= self.order.len() {
                        break;
                    }
                    self.order.pop().expect("a live row past j")
                }
            };
            self.exec.write_row(j, mirror.row(row))?;
            self.order[j] = row;
            written += 1;
            j += 1;
        }
        self.exec.truncate(self.order.len())?;
        for row in delta {
            self.exec.write_row(self.order.len(), mirror.row(row))?;
            self.order.push(row);
            written += 1;
        }
        self.exec.scrub_now()?;
        Ok(written)
    }

    /// `order()[j]` is the mirror index of the row programmed at object
    /// position `j` of this residency's regions.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The executor holding this residency's bank.
    pub fn executor(&self) -> &PimExecutor {
        &self.exec
    }

    /// Runs one scrub-and-remap pass over the resident regions now (a
    /// no-op without a fault model) — called after a repair re-programs
    /// this residency onto a spare bank, so the fresh residency is
    /// surveyed before it rejoins routing.
    pub fn scrub(&mut self) -> Result<(), ServeError> {
        self.exec.scrub_now().map_err(ServeError::from)
    }

    /// Ages every crossbar of this bank by `extra` program cycles — the
    /// wear-injection hook for wear-leveling and routing experiments
    /// (see [`simpim_reram::PimArray::age_crossbars`]).
    pub fn age_bank(&mut self, extra: u32) {
        self.exec.bank_mut().pim_mut().age_crossbars(extra);
    }

    /// Fail-stops this bank — the whole-bank-loss injection hook
    /// ([`simpim_reram::ReRamBank::kill`]).
    pub fn kill_bank(&mut self) {
        self.exec.bank_mut().kill();
    }

    /// Whether this bank is fail-stopped.
    pub fn bank_lost(&self) -> bool {
        self.exec.bank_lost()
    }

    /// Queries shed to the host path by recoverable PIM failures.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Highest per-crossbar program count on this bank — the wear signal
    /// the replica router balances on.
    pub fn wear(&self) -> u32 {
        let pim = self.exec.bank().pim();
        (0..self.cfg.executor.pim.num_crossbars)
            .map(|i| pim.crossbar_programs(i))
            .max()
            .unwrap_or(0)
    }

    /// Point-in-time statistics of this residency over `mirror`.
    pub fn stats(&self, mirror: &ShardMirror) -> ShardStats {
        let coarse_plane_bytes = self.exec.coarse_plane_bytes();
        ShardStats {
            live: mirror.live_len(),
            tombstones: self.tombstoned(mirror),
            delta: self.delta(mirror),
            spare: self.exec.spare_capacity().unwrap_or(0),
            reprograms: self.reprograms,
            sheds: self.sheds,
            max_crossbar_programs: self.wear(),
            lost: self.bank_lost(),
            cell_plane: mirror.cells.is_some(),
            cell_plane_bytes: mirror.cells.as_ref().map_or(0, Vec::len),
            coarse_plane: coarse_plane_bytes > 0,
            coarse_plane_bytes,
        }
    }
}

/// A standalone shard — the unreplicated serving unit. It is a
/// [`ReplicaSet`] of one: every method delegates, so routing, loss
/// detection (a fail-stopped bank is quarantined by the first batch that
/// meets it, after which batches go straight to the exact host mirror)
/// and compaction are the replicated path's, at `R = 1`.
#[derive(Debug)]
pub struct Shard {
    set: ReplicaSet,
}

impl Shard {
    /// Opens a shard over `rows` whose stable global ids are `ids`.
    pub fn open(cfg: ShardConfig, rows: Dataset, ids: Vec<usize>) -> Result<Self, ServeError> {
        Ok(Self {
            set: ReplicaSet::open(cfg, 1, rows, ids)?,
        })
    }

    /// Live object count (resident + delta).
    pub fn live_len(&self) -> usize {
        self.set.live_len()
    }

    /// Inserts a normalized row under global id `id`
    /// ([`ReplicaSet::insert`]): into the bank's spare rows when any
    /// remain, otherwise host-only delta until the next reprogram — so
    /// the mirror stays current even on a dead bank.
    pub fn insert(&mut self, id: usize, row: &[f64]) -> Result<(), ServeError> {
        self.set.insert(id, row)
    }

    /// Deletes global id `id` if this shard holds it
    /// ([`ReplicaSet::delete`]).
    pub fn delete(&mut self, id: usize) -> Result<bool, ServeError> {
        self.set.delete(id)
    }

    /// Serves a coalesced batch of queries ([`ReplicaSet::query_batch`],
    /// untraced): one PIM bound pass and one host refinement of the batch, or
    /// the exact host mirror when the bank is lost or the pass sheds —
    /// results are identical either way.
    pub fn query_batch(
        &mut self,
        queries: &[Vec<f64>],
        ks: &[usize],
    ) -> Vec<Result<Vec<Neighbor>, ServeError>> {
        self.set
            .query_batch(queries, ks, simpim_obs::TraceCtx::NONE, 0)
            .0
    }

    /// Ages every crossbar of this shard's bank by `extra` program
    /// cycles (wear injection).
    pub fn age_bank(&mut self, extra: u32) {
        self.set.replica_mut(0).age_bank(extra);
    }

    /// Fail-stops this shard's bank (whole-bank-loss injection).
    pub fn kill_bank(&mut self) {
        self.set.kill_replica(0);
    }

    /// Whether this shard's bank is fail-stopped.
    pub fn bank_lost(&self) -> bool {
        self.stats().lost
    }

    /// Snapshot of the live rows with their stable global ids
    /// ([`ShardMirror::snapshot_live`]).
    pub fn snapshot_live(&self) -> Result<(Dataset, Vec<usize>), ServeError> {
        self.set.mirror().snapshot_live()
    }

    /// Forces pending compaction (tombstones or delta rows) onto the
    /// crossbars, regardless of the wear-aware threshold.
    pub fn flush(&mut self) -> Result<(), ServeError> {
        self.set.reprogram_replica(0).map(drop)
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ShardStats {
        self.set.stats().replicas[0]
    }
}

/// Rejects rows the quantizer cannot represent: wrong dimensionality or
/// values outside the normalized `[0, 1]` domain.
pub(crate) fn validate_row(row: &[f64], d: usize) -> Result<(), ServeError> {
    if row.len() != d {
        return Err(ServeError::invalid(format!(
            "row has {} dimensions, shard serves {d}",
            row.len()
        )));
    }
    if row.iter().any(|v| !(0.0..=1.0).contains(v)) {
        return Err(ServeError::invalid(
            "row values must be normalized into [0, 1]",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_mining::knn::standard::knn_standard;
    use simpim_reram::{CrossbarConfig, PimConfig};

    fn cfg() -> ShardConfig {
        ShardConfig {
            executor: ExecutorConfig {
                pim: PimConfig {
                    crossbar: CrossbarConfig {
                        size: 16,
                        adc_bits: 12,
                        ..Default::default()
                    },
                    num_crossbars: 4096,
                    ..Default::default()
                },
                alpha: 1e6,
                operand_bits: 32,
                double_buffer: false,
                parallel_regions: true,
                faults: None,
                scrub_interval: 0,
            },
            spare_rows: 2,
            tombstone_reprogram_ratio: 0.4,
            reprogram_wear_budget: 1_000,
        }
    }

    fn rows() -> Dataset {
        Dataset::from_rows(&[
            vec![0.1, 0.9, 0.3, 0.7],
            vec![0.5, 0.5, 0.5, 0.5],
            vec![0.9, 0.1, 0.8, 0.2],
            vec![0.4, 0.6, 0.2, 0.8],
        ])
        .unwrap()
    }

    #[test]
    fn shard_queries_match_offline_scan() {
        let ds = rows();
        let mut shard = Shard::open(cfg(), ds.clone(), vec![0, 1, 2, 3]).unwrap();
        let q = vec![0.45, 0.55, 0.4, 0.6];
        let truth = knn_standard(&ds, &q, 2, Measure::EuclideanSq).unwrap();
        let got = shard.query_batch(&[q], &[2]).remove(0).unwrap();
        assert_eq!(got, truth.neighbors);
    }

    #[test]
    fn insert_lands_in_spares_then_delta() {
        let ds = rows();
        let mut shard = Shard::open(cfg(), ds, vec![0, 1, 2, 3]).unwrap();
        assert_eq!(shard.stats().spare, 2);
        shard.insert(4, &[0.2, 0.3, 0.4, 0.5]).unwrap();
        shard.insert(5, &[0.6, 0.7, 0.8, 0.9]).unwrap();
        assert_eq!(shard.stats().spare, 0);
        assert_eq!(shard.stats().delta, 0);
        // Spares exhausted → delta.
        shard.insert(6, &[0.15, 0.25, 0.35, 0.45]).unwrap();
        assert_eq!(shard.stats().delta, 1);
        assert_eq!(shard.live_len(), 7);
        // All seven ids are queryable, including the delta row.
        let q = vec![0.15, 0.25, 0.35, 0.45];
        let got = shard.query_batch(&[q], &[1]).remove(0).unwrap();
        assert_eq!(got[0].0, 6);
        // A flush folds the delta into the resident layout.
        shard.flush().unwrap();
        assert_eq!(shard.stats().delta, 0);
        assert_eq!(shard.stats().spare, 2);
        assert_eq!(shard.stats().reprograms, 1);
    }

    #[test]
    fn delete_tombstones_and_reprogram_compacts() {
        let ds = rows();
        let mut shard = Shard::open(cfg(), ds, vec![0, 1, 2, 3]).unwrap();
        assert!(shard.delete(1).unwrap());
        assert!(!shard.delete(1).unwrap(), "double delete is a no-op");
        assert!(!shard.delete(99).unwrap(), "unknown id");
        assert_eq!(shard.stats().tombstones, 1);
        let q = vec![0.5, 0.5, 0.5, 0.5];
        let got = shard
            .query_batch(std::slice::from_ref(&q), &[4])
            .remove(0)
            .unwrap();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|&(id, _)| id != 1));
        // Second delete crosses the 0.4 ratio → automatic reprogram.
        assert!(shard.delete(0).unwrap());
        assert_eq!(shard.stats().tombstones, 0);
        assert_eq!(shard.stats().reprograms, 1);
        let got = shard.query_batch(&[q], &[4]).remove(0).unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn invalid_rows_are_rejected() {
        // At open: ids that do not parallel the rows, a value off [0, 1].
        let invalid = |rows: &[Vec<f64>], ids: Vec<usize>| {
            let rows = Dataset::from_rows(rows).unwrap();
            let open = Shard::open(cfg(), rows, ids);
            matches!(open, Err(ServeError::InvalidArgument { .. }))
        };
        let good = vec![vec![0.5; 4]; 3];
        assert!(invalid(&good, vec![0, 1]));
        for bad in [1.5, -0.25] {
            let mut rows = good.clone();
            rows[1][2] = bad;
            assert!(invalid(&rows, vec![0, 1, 2]), "{bad}");
        }
        let mut shard = Shard::open(cfg(), rows(), vec![0, 1, 2, 3]).unwrap();
        assert!(matches!(
            shard.insert(9, &[0.5; 3]),
            Err(ServeError::InvalidArgument { .. })
        ));
        assert!(matches!(
            shard.insert(9, &[0.5, 0.5, 0.5, 1.5]),
            Err(ServeError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn mismatched_ks_fail_the_batch_with_a_typed_error() {
        let mirror = ShardMirror::new(rows(), vec![0, 1, 2, 3]).unwrap();
        let mut res = Residency::open(cfg(), &mirror).unwrap();
        let q = vec![0.45, 0.55, 0.4, 0.6];
        let err = res
            .try_query_batch(&mirror, &[q.clone(), q], &[2], simpim_obs::TraceCtx::NONE)
            .unwrap_err();
        assert!(
            matches!(&err, ServeError::InvalidArgument { what } if what.contains("1 ks for 2 queries")),
            "{err:?}"
        );
        assert!(!err.is_bank_loss(), "must not trigger a failover");
    }

    #[test]
    fn a_batch_scatters_each_querys_bounds_over_the_delta() {
        // Different queries in one batch with delta and tombstoned rows
        // present: the bound buffer is shared across the batch and read
        // coarse first, so each answer must still equal the same query
        // served alone (the single walk over the fine bounds) and an
        // offline scan of the live rows, at any worker count.
        let mut shard = Shard::open(cfg(), rows(), vec![0, 1, 2, 3]).unwrap();
        shard.insert(4, &[0.2, 0.3, 0.4, 0.5]).unwrap();
        shard.insert(5, &[0.6, 0.7, 0.8, 0.9]).unwrap();
        shard.insert(6, &[0.15, 0.25, 0.35, 0.45]).unwrap(); // past the spare rows
        assert!(shard.delete(1).unwrap());
        let stats = shard.stats();
        assert_eq!((stats.delta, stats.tombstones), (1, 1));
        let qs = vec![
            vec![0.45, 0.55, 0.4, 0.6],
            vec![0.2, 0.3, 0.4, 0.5],
            vec![0.9, 0.1, 0.1, 0.9],
        ];
        let (live, ids) = shard.snapshot_live().unwrap();
        for workers in [1, 2, 8] {
            simpim_par::with_threads(workers, || {
                for k in [1, 3, 6, 9] {
                    let together = shard.query_batch(&qs, &[k; 3]);
                    for (q, got) in qs.iter().zip(together) {
                        let alone = shard.query_batch(std::slice::from_ref(q), &[k]).remove(0);
                        let truth = knn_standard(&live, q, k.min(live.len()), Measure::EuclideanSq);
                        let want: Vec<Neighbor> = truth
                            .unwrap()
                            .neighbors
                            .iter()
                            .map(|&(i, v)| (ids[i], v))
                            .collect();
                        let got = got.unwrap();
                        assert_eq!(got, alone.unwrap(), "{workers} workers, k {k}");
                        assert_eq!(got, want, "{workers} workers, k {k}");
                    }
                }
            });
        }
        assert!(shard.stats().coarse_plane, "the batches read coarse");
    }

    /// The bound columns a residency keeps from one batch to the next
    /// follow every change of its rows: batches of 3, 2 and 5 queries,
    /// refined over them as over the fine pass's columns (the same bits,
    /// counts and counters), after inserts into the spare rows and past
    /// them (delta rows), tombstones, an in-place compaction that moves
    /// the delta into their slots, a compaction of the mirror and an
    /// insert after it. Leaving a delta row its entry from the batch
    /// before breaks it.
    #[test]
    fn the_kept_columns_follow_every_change_of_the_rows() {
        let mut mirror = ShardMirror::new(rows(), vec![0, 1, 2, 3]).unwrap();
        let mut res = Residency::open(cfg(), &mirror).unwrap();
        let qs = [
            vec![0.45, 0.55, 0.4, 0.6],
            vec![0.2, 0.3, 0.4, 0.5],
            vec![0.9, 0.1, 0.1, 0.9],
            vec![0.15, 0.25, 0.35, 0.45],
            vec![0.6, 0.7, 0.8, 0.9],
        ];
        let ks = [1, 3, 2, 5, 1];
        let check = |res: &mut Residency, mirror: &ShardMirror| {
            for q in [3, 2, 5] {
                assert_coarse_refines_as_fine(res, mirror, &qs[..q], &ks[..q]);
            }
        };
        check(&mut res, &mirror);
        let insert = |res: &mut Residency, mirror: &mut ShardMirror, id: usize| {
            let row: Vec<f64> = (0..4)
                .map(|j| ((id * 7 + j * 3) % 10) as f64 / 10.0)
                .collect();
            let idx = mirror.append(id, &row).unwrap();
            res.absorb_insert(idx, &row).unwrap()
        };
        let absorbed: Vec<bool> = (4..8)
            .map(|id| {
                let absorbed = insert(&mut res, &mut mirror, id);
                check(&mut res, &mirror);
                absorbed
            })
            .collect();
        assert_eq!(absorbed, [true, true, false, false]);
        for id in [1, 4] {
            mirror.tombstone(id).unwrap();
        }
        check(&mut res, &mirror);
        res.reprogram(&mirror).unwrap();
        assert_eq!((res.delta(&mirror), res.tombstoned(&mirror)), (0, 0));
        check(&mut res, &mirror);
        mirror.tombstone(0).unwrap();
        res.reprogram(&mirror).unwrap();
        let table = mirror.compact();
        res.remap(&table);
        check(&mut res, &mirror);
        insert(&mut res, &mut mirror, 9);
        check(&mut res, &mirror);
    }

    /// Refines `queries` over the bound columns `res` builds (coarse
    /// first, tightened by the refinement) and over the fine pass's
    /// columns, at 1, 2 and 8 workers: the same neighbours to the bit, the
    /// same refined, pruned and plane-pruned counts and the same counters,
    /// query by query. Returns whether some row kept a coarse bound.
    fn assert_coarse_refines_as_fine(
        res: &mut Residency,
        mirror: &ShardMirror,
        queries: &[Vec<f64>],
        ks: &[usize],
    ) -> bool {
        let mut kept = false;
        let n = mirror.len();
        let refine = |batch: &[BatchQuery<'_>]| {
            let (rows, cells) = (&mirror.rows, mirror.cells.as_deref());
            let mut counters = OpCounters::new();
            let measure = Measure::EuclideanSq;
            let refined = refine_resident_batch(
                rows,
                &mirror.ids,
                &mirror.live,
                cells,
                batch,
                measure,
                &mut counters,
            );
            let (mut out, mut coarse_pruned) = (Vec::new(), 0);
            for r in refined.unwrap() {
                out.push(match r {
                    Ok(r) => {
                        coarse_pruned += r.cheap_pruned;
                        let bits: Vec<_> = r
                            .neighbors
                            .iter()
                            .map(|&(id, v)| (id, v.to_bits()))
                            .collect();
                        Ok((bits, r.refined, r.pruned, r.plane_pruned))
                    }
                    Err(e) => Err(e.to_string()),
                });
            }
            Ok(((out, counters), coarse_pruned))
        };
        for workers in [1, 2, 8] {
            simpim_par::with_threads(workers, || {
                let parent = simpim_obs::TraceCtx::NONE;
                let (coarse, coarse_pruned) = res
                    .bound_columns(mirror, queries, ks, parent, refine)
                    .unwrap();
                let batches = res.exec.bounds(queries, Read::Fine, parent, None);
                let mut fine = vec![0.0; n * queries.len()];
                for (j, batch) in batches.unwrap().batches.iter().enumerate() {
                    for (&idx, &bound) in res.order.iter().zip(&batch.values) {
                        fine[j * n + idx] = bound;
                    }
                }
                let batch: Vec<BatchQuery<'_>> = (queries.iter().zip(ks).enumerate())
                    .map(|(j, (query, &k))| BatchQuery {
                        query,
                        k,
                        bounds: &fine[j * n..][..n],
                        tighten: None,
                    })
                    .collect();
                assert_eq!(coarse, refine(&batch).unwrap().0, "{workers} workers");
                kept |= coarse_pruned > 0;
            });
        }
        kept
    }

    /// The coarse-first pass and the serving edges: each case refines as
    /// the fine pass would ([`assert_coarse_refines_as_fine`]), and reads
    /// coarse (keeps a coarse plane) where the gates allow — tombstones
    /// and delta rows on an `LB_PIM-ED` shard, `k` from 1 to past the live
    /// rows and 0; not for a batch of one, a segment-bound shard or a bank
    /// with a fault model; a query whose cells overflow the rows' shift
    /// (a value above 1 against narrow rows) reads fine; and a shard whose
    /// rows widen mid-life derives its plane again at the new shift.
    #[test]
    fn the_coarse_pass_refines_as_the_fine_one_at_every_edge() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move |scale: f64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 * scale
        };
        let d = 24;
        let mut draw = |n: usize, scale: f64| -> Vec<Vec<f64>> {
            (0..n)
                .map(|_| (0..d).map(|_| rand(scale)).collect())
                .collect()
        };
        let open = |c: ShardConfig, rows: &[Vec<f64>]| {
            let mirror =
                ShardMirror::new(Dataset::from_rows(rows).unwrap(), (0..rows.len()).collect())
                    .unwrap();
            let res = Residency::open(c, &mirror).unwrap();
            (mirror, res)
        };
        let rows = draw(60, 1.0);
        let mut queries = draw(4, 1.0);
        queries.extend(
            rows[..4]
                .iter()
                .map(|r| r.iter().map(|v| v * 0.999).collect()),
        );
        let ks = [1, 3, 5, 10, 64, 0, 2, 7];

        // Tombstones and delta rows, every k: reads coarse.
        let (mut mirror, mut res) = open(cfg(), &rows);
        for (id, row) in (60..64).zip(draw(4, 1.0)) {
            let idx = mirror.append(id, &row).unwrap();
            res.absorb_insert(idx, &row).unwrap();
        }
        for id in [0, 7, 33, 61, 59] {
            mirror.tombstone(id).unwrap();
        }
        assert_eq!((res.delta(&mirror), res.tombstoned(&mirror)), (2, 5));
        assert!(assert_coarse_refines_as_fine(
            &mut res, &mirror, &queries, &ks
        ));
        assert!(res.stats(&mirror).coarse_plane);

        // A batch of one reads fine.
        let (mirror, mut res) = open(cfg(), &rows);
        assert_coarse_refines_as_fine(&mut res, &mirror, &queries[..1], &[3]);
        assert!(!res.stats(&mirror).coarse_plane);

        // A segment-bound shard and a faulty bank: read fine.
        let mut segmented = cfg();
        segmented.executor.pim.num_crossbars = 40;
        let mut faulty = cfg();
        faulty.executor.faults = Some(simpim_reram::FaultConfig {
            stuck_low_rate: 0.02,
            stuck_high_rate: 0.02,
            seed: 9,
            ..Default::default()
        });
        for (what, c) in [("segment bound", segmented), ("faulty", faulty)] {
            let (mirror, mut res) = open(c, &rows);
            assert_eq!(res.executor().bound_name() == "LB_PIM-ED", what == "faulty");
            assert_coarse_refines_as_fine(&mut res, &mirror, &queries, &ks);
            assert!(!res.stats(&mirror).coarse_plane, "{what}");
        }

        // Rows under 0.06 (16-bit floors, shift 4): queries in their range
        // read coarse; with one value above 1 in the batch (clamped to 1,
        // a 20-bit floor, a cell above 4 095) it reads fine; a row near 1
        // widens the region (shift 8) and its plane is derived again.
        let small = draw(60, 0.06);
        let (mut mirror, mut res) = open(cfg(), &small);
        let mut near = draw(8, 0.06);
        assert_coarse_refines_as_fine(&mut res, &mirror, &near, &ks);
        let narrow = res.stats(&mirror).coarse_plane_bytes;
        assert!(narrow > 0);
        near[2][5] = 1.5;
        assert_coarse_refines_as_fine(&mut res, &mirror, &near, &ks);
        let wide: Vec<f64> = (0..d).map(|j| 0.9 + j as f64 / 1000.0).collect();
        let idx = mirror.append(60, &wide).unwrap();
        assert!(res.absorb_insert(idx, &wide).unwrap());
        assert_eq!(
            res.stats(&mirror).coarse_plane_bytes,
            0,
            "the wider row dropped it"
        );
        assert_coarse_refines_as_fine(&mut res, &mirror, &queries, &ks);
        assert!(res.stats(&mirror).coarse_plane_bytes > narrow);
    }

    #[test]
    fn killed_bank_degrades_to_exact_host_path() {
        let ds = rows();
        let mut shard = Shard::open(cfg(), ds.clone(), vec![0, 1, 2, 3]).unwrap();
        let q = vec![0.45, 0.55, 0.4, 0.6];
        let truth = knn_standard(&ds, &q, 2, Measure::EuclideanSq).unwrap();
        shard.kill_bank();
        assert!(shard.bank_lost());
        assert!(shard.stats().lost);
        // The residency surfaces the loss for failover...
        let mirror = ShardMirror::new(ds.clone(), vec![0, 1, 2, 3]).unwrap();
        let mut res = Residency::open(cfg(), &mirror).unwrap();
        res.kill_bank();
        let err = res
            .try_query_batch(
                &mirror,
                std::slice::from_ref(&q),
                &[2],
                simpim_obs::TraceCtx::NONE,
            )
            .unwrap_err();
        assert!(err.is_bank_loss());
        // ...while the plain path stays exact via the host mirror.
        let got = shard
            .query_batch(std::slice::from_ref(&q), &[2])
            .remove(0)
            .unwrap();
        assert_eq!(got, truth.neighbors);
        // Mutations keep working host-side: inserts go to the delta,
        // deletes tombstone, and neither tries to program the dead bank.
        shard.insert(4, &[0.2, 0.3, 0.4, 0.5]).unwrap();
        assert_eq!(shard.stats().delta, 1);
        assert!(shard.delete(0).unwrap());
        assert!(shard.delete(1).unwrap());
        assert_eq!(shard.stats().reprograms, 0, "no reprogram on a dead bank");
        let got = shard
            .query_batch(std::slice::from_ref(&q), &[5])
            .remove(0)
            .unwrap();
        assert!(got.iter().all(|&(id, _)| id != 0 && id != 1));
        assert!(got.iter().any(|&(id, _)| id == 4));
        // A flush has no bank to program, and the quarantined shard still
        // answers exactly what an offline scan of its live rows does.
        shard.flush().unwrap();
        assert_eq!(shard.stats().reprograms, 0);
        let (live, ids) = shard.snapshot_live().unwrap();
        assert_eq!(ids, vec![2, 3, 4]);
        let truth = knn_standard(&live, &q, 3, Measure::EuclideanSq).unwrap();
        let got = shard.query_batch(&[q], &[3]).remove(0).unwrap();
        let want: Vec<Neighbor> = truth.neighbors.iter().map(|&(i, v)| (ids[i], v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn snapshot_live_matches_compacted_state() {
        let ds = rows();
        let mut shard = Shard::open(cfg(), ds, vec![0, 1, 2, 3]).unwrap();
        shard.insert(4, &[0.2, 0.3, 0.4, 0.5]).unwrap();
        shard.insert(5, &[0.6, 0.7, 0.8, 0.9]).unwrap();
        shard.insert(6, &[0.15, 0.25, 0.35, 0.45]).unwrap(); // delta
        shard.delete(2).unwrap();
        let (rows, ids) = shard.snapshot_live().unwrap();
        assert_eq!(rows.len(), 6);
        assert_eq!(ids, vec![0, 1, 3, 4, 5, 6]);
        // A replica rebuilt from the snapshot answers identically.
        let mut rebuilt = Shard::open(cfg(), rows, ids).unwrap();
        let q = vec![0.45, 0.55, 0.4, 0.6];
        let want = shard
            .query_batch(std::slice::from_ref(&q), &[4])
            .remove(0)
            .unwrap();
        let got = rebuilt.query_batch(&[q], &[4]).remove(0).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn wear_raises_the_reprogram_threshold() {
        let mut c = cfg();
        c.reprogram_wear_budget = 1;
        let mut shard = Shard::open(c, rows(), vec![0, 1, 2, 3]).unwrap();
        // Age the bank far past the one-cycle budget: threshold at least
        // doubles, so the delete ratio that would have compacted no
        // longer does.
        shard.age_bank(10);
        assert!(shard.delete(0).unwrap());
        assert!(shard.delete(1).unwrap());
        assert_eq!(
            shard.stats().reprograms,
            0,
            "worn shard must defer compaction"
        );
    }

    #[test]
    fn wear_survives_compaction_in_place_and_on_relayout() {
        let q = vec![0.45, 0.55, 0.4, 0.6];
        for spare_rows in [2, 0] {
            // Spares: the insert lands in them and the flush compacts in
            // place. None: the insert is delta, the live rows outgrow the
            // allocation and the flush re-lays the bank out.
            let mut shard = Shard::open(
                ShardConfig {
                    spare_rows,
                    ..cfg()
                },
                rows(),
                vec![0, 1, 2, 3],
            )
            .unwrap();
            shard.age_bank(10);
            assert!(shard.delete(1).unwrap());
            shard.insert(4, &[0.2, 0.3, 0.4, 0.5]).unwrap();
            shard.insert(5, &[0.6, 0.7, 0.8, 0.9]).unwrap();
            shard.flush().unwrap();
            let stats = shard.stats();
            assert_eq!((stats.tombstones, stats.delta, stats.reprograms), (0, 0, 1));
            assert!(
                stats.max_crossbar_programs >= 11,
                "spare_rows {spare_rows}: wear reset to {}",
                stats.max_crossbar_programs
            );
            let (live, ids) = shard.snapshot_live().unwrap();
            let truth = knn_standard(&live, &q, 5, Measure::EuclideanSq).unwrap();
            let want: Vec<Neighbor> = truth.neighbors.iter().map(|&(i, v)| (ids[i], v)).collect();
            let got = shard.query_batch(std::slice::from_ref(&q), &[5]);
            assert_eq!(got[0], Ok(want));
        }
    }

    /// The answers of `shard` for `qs` against an offline scan of its
    /// live rows, and its cell plane against its mirror row for row.
    fn assert_exact_with_plane(shard: &mut Shard, qs: &[Vec<f64>], plane: bool) {
        let mirror = shard.set.mirror();
        let stats = shard.stats();
        assert_eq!(stats.cell_plane, plane);
        let mut want = Vec::new();
        if plane {
            (0..mirror.len()).for_each(|i| push_cells(mirror.row(i), &mut want));
        }
        assert_eq!(mirror.cells.as_ref().map_or(&[][..], |c| &c[..]), &want[..]);
        assert_eq!(stats.cell_plane_bytes, want.len());
        let (live, ids) = shard.snapshot_live().unwrap();
        // A query of the wrong width fails alone, on the plane's path too.
        let mut batch = qs.to_vec();
        batch.insert(1, vec![0.5; 3]);
        let mut got = shard.query_batch(&batch, &vec![5; batch.len()]);
        let wrong = got.remove(1);
        assert!(wrong.is_err_and(|e| e.to_string().contains("3 dimensions")));
        for (q, got) in qs.iter().zip(got) {
            let truth = knn_standard(&live, q, 5, Measure::EuclideanSq).unwrap();
            let want: Vec<Neighbor> = truth.neighbors.iter().map(|&(i, v)| (ids[i], v)).collect();
            assert_eq!(got.unwrap(), want);
        }
    }

    #[test]
    fn a_segment_bound_shard_moves_its_cells_with_its_rows() {
        // 10 crossbars hold 24 rows × 8 dimensions only compressed: a
        // segment bound with a cell plane. 8 rows fit uncompressed.
        let row = |i: usize| -> Vec<f64> {
            (0..8)
                .map(|j| ((i * 37 + j * 11) % 97) as f64 / 96.0)
                .collect()
        };
        let data = |n: usize| Dataset::from_rows(&(0..n).map(row).collect::<Vec<_>>()).unwrap();
        let mut c = cfg();
        c.executor.pim.num_crossbars = 10;
        let qs: Vec<Vec<f64>> = vec![
            row(3),
            row(50),
            vec![-0.2, 1.3, 0.5, 0.0, 1.0, 0.25, 0.7, 0.9],
        ];
        let mut shard = Shard::open(c, data(24), (0..24).collect()).unwrap();
        assert_exact_with_plane(&mut shard, &qs, true);
        // Inserts into the spares and past them, deletes that compact on
        // their own, then a flush folding the delta in.
        for i in 24..30 {
            shard.insert(i, &row(i)).unwrap();
        }
        assert!(shard.stats().delta > 0);
        assert_exact_with_plane(&mut shard, &qs, true);
        for id in [0, 5, 23, 24, 7, 11, 2, 13, 17, 19, 29, 3, 8] {
            assert!(shard.delete(id).unwrap());
            assert_exact_with_plane(&mut shard, &qs, true);
        }
        assert!(shard.stats().reprograms > 0);
        shard.flush().unwrap();
        assert_exact_with_plane(&mut shard, &qs, true);

        // An uncompressed shard keeps no plane, until it outgrows its
        // allocation and the re-layout plans a segment bound.
        let mut shard = Shard::open(
            ShardConfig { spare_rows: 0, ..c },
            data(8),
            (0..8).collect(),
        )
        .unwrap();
        assert_exact_with_plane(&mut shard, &qs, false);
        for i in 8..24 {
            shard.insert(i, &row(i)).unwrap();
        }
        assert_exact_with_plane(&mut shard, &qs, false);
        shard.flush().unwrap();
        assert_exact_with_plane(&mut shard, &qs, true);
    }

    #[test]
    fn streamed_block_size_does_not_change_answers() {
        // The programming path streams mirror rows in DEFAULT_BLOCK_ROWS
        // blocks; the block size must be invisible in every answer.
        let mut all = Vec::new();
        for n in [1usize, 3, 7, 16] {
            let ds = Dataset::from_rows(
                &(0..n)
                    .map(|i| {
                        (0..4)
                            .map(|j| ((i * 31 + j * 17) % 89) as f64 / 88.0)
                            .collect()
                    })
                    .collect::<Vec<Vec<f64>>>(),
            )
            .unwrap();
            let mut shard = Shard::open(cfg(), ds.clone(), (0..n).collect()).unwrap();
            let q = vec![0.45, 0.55, 0.4, 0.6];
            let truth = knn_standard(&ds, &q, n.min(3), Measure::EuclideanSq).unwrap();
            let got = shard.query_batch(&[q], &[n.min(3)]).remove(0).unwrap();
            assert_eq!(got, truth.neighbors);
            all.push(got);
        }
        assert_eq!(all.len(), 4);
    }
}
