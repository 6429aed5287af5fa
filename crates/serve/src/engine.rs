//! The serving engine: a bounded submission queue in front of a
//! single scheduler thread that owns the replica sets.
//!
//! Batch lifecycle: clients enqueue commands onto a bounded
//! `sync_channel` (a full queue rejects with
//! [`ServeError::Overloaded`] — admission control). The scheduler
//! dequeues one command; if it is a query it greedily drains up to
//! `max_batch − 1` further *consecutive* queries without blocking,
//! forming one coalesced batch. Mutations act as batch barriers:
//! commands are always applied in arrival order, so a query sees
//! exactly the inserts and deletes that preceded it. The batch then
//! fans out across the shards — one `simpim_par` job per shard, each
//! routing the coalesced PIM pass to its least-worn healthy replica —
//! and the per-shard partial top-k pools merge into each query's exact
//! global answer (see `mining::knn::resident` for the exactness
//! argument).
//!
//! Robustness plumbing (see [`crate::replica`] for the invariants):
//!
//! * a **repair tick** runs between commands — it sweeps every replica
//!   set for fail-stopped banks that no batch has routed to yet and
//!   re-replicates at most one lost replica per set per tick, so
//!   repair work interleaves with serving instead of blocking it;
//! * [`ServeEngine::flush`] is a **rolling reprogram**: one replica at
//!   a time leaves routing, compacts, and rejoins, with any queries
//!   that arrived during the step served from the other replicas
//!   between steps — under `R ≥ 2` a flush never blocks reads.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use simpim_core::executor::ExecutorConfig;
use simpim_mining::knn::resident::merge_neighbors;
use simpim_obs::metrics::Histogram;
use simpim_obs::{Json, SloReport, SloSpec, ToJson, TraceCtx};
use simpim_similarity::Dataset;

use crate::error::ServeError;
use crate::flight::{FlightRecorder, FlightRecorderStats, Outcome, QuerySpan, QueryTrace};
use crate::replica::{ReplicaSet, ReplicaSetStats, RouteSample};
use crate::shard::ShardConfig;
use crate::Neighbor;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shards the dataset is partitioned across.
    pub shards: usize,
    /// Replication factor `R`: each shard's rows are programmed onto
    /// this many distinct banks. `1` disables replication (no failover
    /// target; a lost bank degrades the shard to the exact host path),
    /// and is the default.
    pub replicas: usize,
    /// Maximum queries coalesced into one scheduling batch (`Q`).
    pub max_batch: usize,
    /// Bounded submission-queue depth; a full queue sheds with
    /// [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Spare object slots per shard for online appends.
    pub spare_rows: usize,
    /// Base tombstone ratio that triggers a compacting reprogram.
    pub tombstone_reprogram_ratio: f64,
    /// Program cycles after which the reprogram threshold has doubled.
    pub reprogram_wear_budget: u32,
    /// Executor (platform + quantization) configuration per shard.
    pub executor: ExecutorConfig,
    /// Deadline applied by [`ServeEngine::knn`] / [`ServeEngine::knn_batch`].
    pub default_timeout: Duration,
    /// Flight-recorder retention: the N slowest clean requests are kept
    /// (anomalous ones — failed, shed, timed out, degraded, failed over —
    /// ride in their own ring of the same size). `0` disables retention.
    pub flight_capacity: usize,
    /// Declarative service-level objectives evaluated on every
    /// [`ServeEngine::stats`] call from the engine's stage histograms and
    /// availability counters.
    pub slo: SloSpec,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            replicas: 1,
            max_batch: 8,
            queue_depth: 64,
            spare_rows: 16,
            tombstone_reprogram_ratio: 0.25,
            reprogram_wear_budget: 1_000,
            executor: ExecutorConfig::default(),
            default_timeout: Duration::from_secs(5),
            flight_capacity: 32,
            slo: SloSpec::empty(),
        }
    }
}

impl ServeConfig {
    fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            executor: self.executor,
            spare_rows: self.spare_rows,
            tombstone_reprogram_ratio: self.tombstone_reprogram_ratio,
            reprogram_wear_budget: self.reprogram_wear_budget,
        }
    }
}

/// Latency summary of one request stage, with the exemplar that shows
/// *which* request to go look at: the trace id of the worst sample
/// recorded at or above the stage's p99 bucket.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageLatency {
    /// Stage name: `queue`, `pass`, `merge`, `total`, or `mutation`.
    pub stage: String,
    /// Samples recorded.
    pub count: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// Worst sample near p99, in nanoseconds (`0` when empty).
    pub exemplar_ns: u64,
    /// Trace id of that sample — the key into the flight dump and the
    /// obs journal (`0` when unknown).
    pub exemplar_trace: u64,
}

impl ToJson for StageLatency {
    fn to_json(&self) -> Json {
        Json::obj([
            ("stage", Json::Str(self.stage.clone())),
            ("count", Json::Num(self.count as f64)),
            ("p50_ns", Json::Num(self.p50_ns as f64)),
            ("p95_ns", Json::Num(self.p95_ns as f64)),
            ("p99_ns", Json::Num(self.p99_ns as f64)),
            ("exemplar_ns", Json::Num(self.exemplar_ns as f64)),
            ("exemplar_trace", Json::Num(self.exemplar_trace as f64)),
        ])
    }
}

/// Point-in-time engine statistics.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Per-shard replica-set breakdown.
    pub shards: Vec<ReplicaSetStats>,
    /// Live objects across all shards.
    pub live: usize,
    /// Replication factor the engine was opened with.
    pub replicas: usize,
    /// Queries answered (successfully or shed) since open.
    pub queries: u64,
    /// Scheduling batches formed since open.
    pub batches: u64,
    /// Inserts applied since open.
    pub inserts: u64,
    /// Deletes applied since open (including misses).
    pub deletes: u64,
    /// Queries rejected because their deadline expired in the queue.
    pub timeouts: u64,
    /// Queries rejected by admission control (full submission queue).
    pub overloaded: u64,
    /// Queries shed from a PIM pass to the exact host path by a
    /// recoverable bank failure (summed over shards and replicas).
    pub sheds: u64,
    /// Batches re-routed to another replica after a bank loss.
    pub failovers: u64,
    /// Lost replicas re-replicated onto spare banks since open.
    pub repairs: u64,
    /// Queries answered from the host mirror because a shard had no
    /// routable replica left.
    pub degraded_queries: u64,
    /// Shards currently with no routable replica (serving exact answers
    /// from the host mirror).
    pub degraded_shards: usize,
    /// Queries answered successfully (exact result delivered).
    pub answered_ok: u64,
    /// Queries answered with an error (deadline expiries count under
    /// [`EngineStats::timeouts`] instead).
    pub failed: u64,
    /// Per-stage latency breakdown (`queue`, `pass`, `merge`, `total`,
    /// `mutation`), each with its p99 exemplar trace id.
    pub stage_latency: Vec<StageLatency>,
    /// SLO attainment / error-budget / burn-rate reports for every
    /// objective in [`ServeConfig::slo`] (empty when none configured).
    pub slo: Vec<SloReport>,
    /// Flight-recorder occupancy.
    pub flight: FlightRecorderStats,
}

struct QueryReq {
    query: Vec<f64>,
    k: usize,
    deadline: Instant,
    enqueued: Instant,
    /// Request-scoped trace context, minted client-side at submission.
    /// Carries the query's identity through coalescing, the per-shard
    /// fan-out, and the merge, so its span tree is reconstructible even
    /// though one crossbar pass serves the whole batch.
    ctx: TraceCtx,
    reply: mpsc::Sender<Result<Vec<Neighbor>, ServeError>>,
}

enum Cmd {
    Query(QueryReq),
    Insert {
        row: Vec<f64>,
        enqueued: Instant,
        ctx: TraceCtx,
        reply: mpsc::Sender<Result<usize, ServeError>>,
    },
    Delete {
        id: usize,
        enqueued: Instant,
        ctx: TraceCtx,
        reply: mpsc::Sender<Result<bool, ServeError>>,
    },
    Flush {
        enqueued: Instant,
        ctx: TraceCtx,
        reply: mpsc::Sender<Result<(), ServeError>>,
    },
    KillBank {
        shard: usize,
        replica: usize,
        reply: mpsc::Sender<Result<(), ServeError>>,
    },
    Stats {
        reply: mpsc::Sender<Result<EngineStats, ServeError>>,
    },
    FlightDump {
        reply: mpsc::Sender<Result<String, ServeError>>,
    },
    /// Makes the next batch panic on the pool (the containment test).
    #[cfg(test)]
    PanicNextBatch,
}

/// How [`ServeEngine::enqueue`] treats a full submission queue: the sync
/// calls block for a slot (closed-loop clients get an answer for every
/// command), the `*_submit` calls shed with [`ServeError::Overloaded`].
#[derive(Clone, Copy)]
enum Admission {
    Block,
    Shed,
}

/// Commands submitted without a trace context get a fresh root.
fn root_if_none(ctx: TraceCtx) -> TraceCtx {
    if ctx.is_none() {
        TraceCtx::root()
    } else {
        ctx
    }
}

/// An in-flight command's reply handle, returned by the non-blocking
/// `*_submit` methods on [`ServeEngine`]. The command is already accepted
/// into the bounded queue when a `Pending` exists; [`Pending::wait`]
/// blocks only for execution, never for admission. Dropping it abandons
/// the reply (the scheduler's send simply finds no receiver) — the
/// command itself still executes.
#[derive(Debug)]
pub struct Pending<T> {
    rx: mpsc::Receiver<Result<T, ServeError>>,
}

impl<T> Pending<T> {
    /// Blocks until the scheduler answers. An engine that shuts down
    /// with the command still queued reports [`ServeError::Closed`].
    pub fn wait(self) -> Result<T, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Non-blocking poll: `Some` once the scheduler has answered.
    pub fn try_wait(&self) -> Option<Result<T, ServeError>> {
        match self.rx.try_recv() {
            Ok(out) => Some(out),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }
}

/// A multi-threaded kNN serving engine over replicated resident ReRAM
/// shards.
///
/// Results are bit-identical to the offline [`simpim_mining::knn`]
/// variants on the same live rows: the PIM bounds are provably valid
/// (guard-banded under drift, host-exact under quarantine), refinement is
/// exact `f64` arithmetic, the per-shard top-k merge is order
/// independent, and replicas are interchangeable — so failover, repair,
/// rolling reprogram, and degraded mode never change an answer.
pub struct ServeEngine {
    tx: Option<SyncSender<Cmd>>,
    handle: Option<JoinHandle<()>>,
    dim: usize,
    default_timeout: Duration,
    overloaded: Arc<AtomicU64>,
}

impl ServeEngine {
    /// Opens an engine over `data` (values normalized into `[0, 1]`),
    /// partitioning the rows contiguously across `cfg.shards` shards and
    /// replicating each shard onto `cfg.replicas` distinct banks. Row `i`
    /// of `data` keeps `i` as its stable global id; inserts are assigned
    /// fresh ids counting up from `data.len()`.
    pub fn open(cfg: ServeConfig, data: &Dataset) -> Result<Self, ServeError> {
        Self::open_source(cfg, &mut simpim_datasets::InMemorySource::new(data))
    }

    /// Opens an engine by **streaming** rows out of `source`, without
    /// ever materializing the whole dataset in one piece: rows flow
    /// straight into one shard mirror at a time, and each shard's
    /// replicas program their banks from that mirror in
    /// [`simpim_datasets::DEFAULT_BLOCK_ROWS`]-sized blocks — so peak host
    /// memory beyond the resident mirrors is one block, not a second copy
    /// of the dataset. Row `i` of the stream keeps `i` as its stable
    /// global id, and the produced engine is bit-identical to
    /// [`ServeEngine::open`] over `source.materialize()`.
    pub fn open_source(
        cfg: ServeConfig,
        source: &mut dyn simpim_datasets::DatasetSource,
    ) -> Result<Self, ServeError> {
        Self::validate_cfg(&cfg)?;
        let shard_rows = Self::uniform_split(source.total(), cfg.shards)?;
        let shard_cfgs = vec![cfg.shard_config(); shard_rows.len()];
        Self::open_shards(cfg, source, &shard_rows, &shard_cfgs)
    }

    /// Opens an engine from a fleet placement plan
    /// ([`simpim_core::FleetPlanner::plan`]): shard boundaries come from
    /// the plan's contiguous row ranges and each shard's executor is
    /// budgeted to its assigned bank's crossbar count, so heterogeneous
    /// banks each run the Theorem 4 / Eq. 13 configuration the planner
    /// modeled for them. Rows stream from `source` exactly as in
    /// [`ServeEngine::open_source`]; `cfg.shards` is ignored in favor of
    /// the plan. Answers are placement-independent — only throughput
    /// changes.
    pub fn open_planned(
        mut cfg: ServeConfig,
        source: &mut dyn simpim_datasets::DatasetSource,
        plan: &simpim_core::FleetPlan,
        banks: &[simpim_core::BankProfile],
    ) -> Result<Self, ServeError> {
        cfg.shards = plan.shards.len();
        Self::validate_cfg(&cfg)?;
        let n = source.total();
        let planned: usize = plan.shards.iter().map(|s| s.rows).sum();
        let contiguous = plan
            .shards
            .iter()
            .scan(0usize, |next, s| {
                let ok = s.start == *next && s.rows > 0;
                *next = s.start + s.rows;
                Some(ok)
            })
            .all(|ok| ok);
        if planned != n || !contiguous {
            return Err(ServeError::invalid(format!(
                "plan covers {planned} rows (contiguous: {contiguous}), source has {n}"
            )));
        }
        let mut shard_rows = Vec::with_capacity(plan.shards.len());
        let mut shard_cfgs = Vec::with_capacity(plan.shards.len());
        for placement in &plan.shards {
            let Some(bank) = banks.get(placement.bank) else {
                return Err(ServeError::invalid(format!(
                    "plan references bank {} but only {} profiled",
                    placement.bank,
                    banks.len()
                )));
            };
            let mut shard_cfg = cfg.shard_config();
            shard_cfg.executor.pim.num_crossbars = bank.crossbars;
            shard_rows.push(placement.rows);
            shard_cfgs.push(shard_cfg);
        }
        Self::open_shards(cfg, source, &shard_rows, &shard_cfgs)
    }

    /// Shared up-front configuration checks. A malformed fault model is
    /// rejected before any bank is programmed — a bad rate would
    /// otherwise only surface once the first shard opens (or worse, once
    /// the first scrub runs).
    fn validate_cfg(cfg: &ServeConfig) -> Result<(), ServeError> {
        if cfg.shards == 0 || cfg.replicas == 0 || cfg.max_batch == 0 || cfg.queue_depth == 0 {
            return Err(ServeError::invalid(
                "shards, replicas, max_batch and queue_depth must be non-zero",
            ));
        }
        if let Some(faults) = &cfg.executor.faults {
            faults.validate().map_err(|e| ServeError::Config {
                what: e.to_string(),
            })?;
        }
        Ok(())
    }

    /// Contiguous near-equal partition of `n` rows: `⌈n / shards⌉` rows
    /// per shard, the last one shorter (so very small `n` may fill fewer
    /// than `shards` shards). `shards` is non-zero (see `validate_cfg`).
    fn uniform_split(n: usize, shards: usize) -> Result<Vec<usize>, ServeError> {
        if n < shards {
            return Err(ServeError::invalid(format!(
                "need at least one row per shard ({n} rows, {shards} shards)"
            )));
        }
        let chunk = n.div_ceil(shards);
        Ok((0..n)
            .step_by(chunk)
            .map(|start| chunk.min(n - start))
            .collect())
    }

    /// The one engine-opening path: streams `shard_rows[i]` rows of
    /// `source` into shard `i`'s mirror, programs its replicas under
    /// `shard_cfgs[i]`, and spawns the scheduler over the result.
    fn open_shards(
        cfg: ServeConfig,
        source: &mut dyn simpim_datasets::DatasetSource,
        shard_rows: &[usize],
        shard_cfgs: &[ShardConfig],
    ) -> Result<Self, ServeError> {
        let n = shard_rows.iter().sum();
        let span = simpim_obs::span!(
            "serve.engine.open",
            n = n as u64,
            shards = shard_rows.len() as u64,
            replicas = cfg.replicas as u64
        );
        let sets = Self::stream_sets(source, shard_rows, shard_cfgs, cfg.replicas)?;
        drop(span);
        let dim = source.dim();
        Ok(Self::spawn(sets, cfg, n, dim))
    }

    /// The materialization loop of [`ServeEngine::open_shards`]: the
    /// source appends [`simpim_datasets::DEFAULT_BLOCK_ROWS`]-sized blocks
    /// straight into one shard mirror at a time, and each replica set
    /// opens (validating its rows, [`ShardMirror::new`]) as soon as its mirror completes — at
    /// any instant only the finished mirrors are resident.
    fn stream_sets(
        source: &mut dyn simpim_datasets::DatasetSource,
        shard_rows: &[usize],
        shard_cfgs: &[ShardConfig],
        replicas: usize,
    ) -> Result<Vec<ReplicaSet>, ServeError> {
        let d = source.dim();
        let block = simpim_datasets::DEFAULT_BLOCK_ROWS;
        let mut sets = Vec::with_capacity(shard_rows.len());
        let mut start = 0usize;
        for (&target, shard_cfg) in shard_rows.iter().zip(shard_cfgs) {
            // Grown geometrically, not reserved to `target`: the mirror
            // keeps growing under online inserts, and an exact-size buffer
            // would have to move as a whole on the first one (measured as
            // +32 MiB peak RSS on the `serve-mixed-rw` benchmark).
            let mut flat = Vec::new();
            while flat.len() < target * d {
                let have = flat.len();
                if source.next_block(block.min(target - have / d), &mut flat) == 0 {
                    return Err(ServeError::invalid(format!(
                        "source drained after {} rows, {} planned",
                        start + have / d,
                        shard_rows.iter().sum::<usize>()
                    )));
                }
            }
            let rows = Dataset::from_flat(flat, d)?;
            sets.push(ReplicaSet::open(
                *shard_cfg,
                replicas,
                rows,
                (start..start + target).collect(),
            )?);
            start += target;
        }
        Ok(sets)
    }

    /// Spawns the scheduler thread over the opened replica sets.
    fn spawn(sets: Vec<ReplicaSet>, cfg: ServeConfig, next_id: usize, dim: usize) -> Self {
        let default_timeout = cfg.default_timeout;
        // The timestamp origin every stage span is expressed against.
        // Created before the scheduler spawns so client-side enqueue
        // instants are never earlier than it.
        let epoch = Instant::now();
        let (tx, rx) = mpsc::sync_channel(cfg.queue_depth);
        let handle = thread::Builder::new()
            .name("simpim-serve-scheduler".to_string())
            .spawn(move || Scheduler::new(sets, cfg, next_id, epoch).run(rx))
            .expect("spawn scheduler thread");
        Self {
            tx: Some(tx),
            handle: Some(handle),
            dim,
            default_timeout,
            overloaded: Arc::new(AtomicU64::new(0)),
        }
    }

    fn validate_query(&self, query: &[f64], k: usize) -> Result<(), ServeError> {
        self.validate_row(query, "query")?;
        // A NaN or an infinity cannot be quantised: admitted, it would
        // fail the crossbar pass of every query coalesced with it. Finite
        // values outside [0, 1] stay legal (the floors saturate and the
        // bounds stay bounds).
        if query.iter().any(|v| !v.is_finite()) {
            return Err(ServeError::invalid("query values must be finite"));
        }
        if k == 0 {
            return Err(ServeError::invalid("k must be at least 1"));
        }
        Ok(())
    }

    fn validate_row(&self, row: &[f64], what: &str) -> Result<(), ServeError> {
        if row.len() != self.dim {
            return Err(ServeError::invalid(format!(
                "{what} has {} dimensions, engine serves {}",
                row.len(),
                self.dim
            )));
        }
        Ok(())
    }

    /// The one command path: builds the reply channel, hands the command
    /// `make` wraps around it to the scheduler's bounded queue under
    /// `admission`, and returns the reply handle.
    fn enqueue<T>(
        &self,
        admission: Admission,
        make: impl FnOnce(mpsc::Sender<Result<T, ServeError>>) -> Cmd,
    ) -> Result<Pending<T>, ServeError> {
        let (reply, rx) = mpsc::channel();
        let tx = self.tx.as_ref().expect("engine open");
        match admission {
            Admission::Block => tx.send(make(reply)).map_err(|_| ServeError::Closed)?,
            Admission::Shed => match tx.try_send(make(reply)) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.overloaded.fetch_add(1, Ordering::Relaxed);
                    simpim_obs::metrics::counter_add("simpim.serve.overloaded", 1);
                    return Err(ServeError::Overloaded);
                }
                Err(TrySendError::Disconnected(_)) => return Err(ServeError::Closed),
            },
        }
        Ok(Pending { rx })
    }

    fn enqueue_query(
        &self,
        admission: Admission,
        query: &[f64],
        k: usize,
        timeout: Duration,
        ctx: TraceCtx,
    ) -> Result<Pending<Vec<Neighbor>>, ServeError> {
        self.validate_query(query, k)?;
        let now = Instant::now();
        self.enqueue(admission, |reply| {
            Cmd::Query(QueryReq {
                query: query.to_vec(),
                k,
                deadline: now + timeout,
                enqueued: now,
                ctx: root_if_none(ctx),
                reply,
            })
        })
    }

    fn enqueue_insert(
        &self,
        admission: Admission,
        row: &[f64],
        ctx: TraceCtx,
    ) -> Result<Pending<usize>, ServeError> {
        self.validate_row(row, "row")?;
        self.enqueue(admission, |reply| Cmd::Insert {
            row: row.to_vec(),
            enqueued: Instant::now(),
            ctx: root_if_none(ctx),
            reply,
        })
    }

    fn enqueue_delete(
        &self,
        admission: Admission,
        id: usize,
        ctx: TraceCtx,
    ) -> Result<Pending<bool>, ServeError> {
        self.enqueue(admission, |reply| Cmd::Delete {
            id,
            enqueued: Instant::now(),
            ctx: root_if_none(ctx),
            reply,
        })
    }

    fn enqueue_flush(
        &self,
        admission: Admission,
        ctx: TraceCtx,
    ) -> Result<Pending<()>, ServeError> {
        self.enqueue(admission, |reply| Cmd::Flush {
            enqueued: Instant::now(),
            ctx: root_if_none(ctx),
            reply,
        })
    }

    /// Exact kNN under squared ED with the default deadline. Subject to
    /// admission control: a full queue returns
    /// [`ServeError::Overloaded`] immediately instead of blocking.
    pub fn knn(&self, query: &[f64], k: usize) -> Result<Vec<Neighbor>, ServeError> {
        self.knn_deadline(query, k, self.default_timeout)
    }

    /// [`ServeEngine::knn`] with an explicit deadline: if the query is
    /// still queued when it expires, it is dropped with
    /// [`ServeError::DeadlineExpired`] instead of occupying a batch slot.
    pub fn knn_deadline(
        &self,
        query: &[f64],
        k: usize,
        timeout: Duration,
    ) -> Result<Vec<Neighbor>, ServeError> {
        self.knn_submit(query, k, timeout, TraceCtx::NONE)?.wait()
    }

    /// Non-blocking admission of one query under an externally minted
    /// [`TraceCtx`] — the entry point for front-ends (the TCP server)
    /// that manage their own reply plumbing and propagate a client's
    /// trace id across process boundaries. A full queue sheds with
    /// [`ServeError::Overloaded`] immediately; on success the returned
    /// [`Pending`] resolves to the answer.
    pub fn knn_submit(
        &self,
        query: &[f64],
        k: usize,
        timeout: Duration,
        ctx: TraceCtx,
    ) -> Result<Pending<Vec<Neighbor>>, ServeError> {
        self.enqueue_query(Admission::Shed, query, k, timeout, ctx)
    }

    /// Non-blocking admission of one insert (see [`ServeEngine::knn_submit`]
    /// for the admission semantics). Unlike [`ServeEngine::insert`], a
    /// full queue sheds instead of blocking the caller.
    pub fn insert_submit(&self, row: &[f64], ctx: TraceCtx) -> Result<Pending<usize>, ServeError> {
        self.enqueue_insert(Admission::Shed, row, ctx)
    }

    /// Non-blocking admission of one delete (shedding semantics of
    /// [`ServeEngine::knn_submit`]).
    pub fn delete_submit(&self, id: usize, ctx: TraceCtx) -> Result<Pending<bool>, ServeError> {
        self.enqueue_delete(Admission::Shed, id, ctx)
    }

    /// Non-blocking admission of a rolling flush (shedding semantics of
    /// [`ServeEngine::knn_submit`]).
    pub fn flush_submit(&self, ctx: TraceCtx) -> Result<Pending<()>, ServeError> {
        self.enqueue_flush(Admission::Shed, ctx)
    }

    /// Submits a whole batch of queries and waits for every answer.
    /// Unlike [`ServeEngine::knn`] this blocks for queue space instead of
    /// shedding — it is the closed-loop client's entry point, so results
    /// come back for every query, in order.
    pub fn knn_batch(
        &self,
        queries: &[Vec<f64>],
        k: usize,
    ) -> Result<Vec<Vec<Neighbor>>, ServeError> {
        // Reject the whole batch before any of it is queued.
        for q in queries {
            self.validate_query(q, k)?;
        }
        let pending = queries
            .iter()
            .map(|q| {
                self.enqueue_query(Admission::Block, q, k, self.default_timeout, TraceCtx::NONE)
            })
            .collect::<Result<Vec<_>, _>>()?;
        pending.into_iter().map(Pending::wait).collect()
    }

    /// Inserts a normalized row, returning its assigned global id.
    pub fn insert(&self, row: &[f64]) -> Result<usize, ServeError> {
        self.enqueue_insert(Admission::Block, row, TraceCtx::NONE)?
            .wait()
    }

    /// Deletes a global id; returns whether it was present.
    pub fn delete(&self, id: usize) -> Result<bool, ServeError> {
        self.enqueue_delete(Admission::Block, id, TraceCtx::NONE)?
            .wait()
    }

    /// Forces pending compaction onto the crossbars as a *rolling
    /// reprogram*: one replica at a time leaves routing, compacts, and
    /// rejoins, with queries served from the other replicas between
    /// steps — under `R ≥ 2` a flush never blocks reads.
    pub fn flush(&self) -> Result<(), ServeError> {
        self.enqueue_flush(Admission::Block, TraceCtx::NONE)?.wait()
    }

    /// Dumps the flight recorder as JSONL — one [`QueryTrace`] per line,
    /// anomalies (failed / shed / timed-out / degraded / failed-over
    /// requests) first, then the N slowest clean requests, slowest
    /// first. Feed it to `simpim flight` for per-stage waterfalls.
    pub fn flight_dump(&self) -> Result<String, ServeError> {
        self.enqueue(Admission::Block, |reply| Cmd::FlightDump { reply })?
            .wait()
    }

    /// Fail-stops the bank under `shard`'s replica `replica` — the
    /// fault-injection entry point for recovery drills. Detection,
    /// failover, and re-replication then run exactly as they would for
    /// an organic bank loss.
    pub fn kill_bank(&self, shard: usize, replica: usize) -> Result<(), ServeError> {
        self.enqueue(Admission::Block, |reply| Cmd::KillBank {
            shard,
            replica,
            reply,
        })?
        .wait()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> Result<EngineStats, ServeError> {
        let mut stats = self
            .enqueue(Admission::Block, |reply| Cmd::Stats { reply })?
            .wait()?;
        // Overload shedding happens client-side (the scheduler never
        // sees rejected commands), so it merges in here.
        stats.overloaded = self.overloaded.load(Ordering::Relaxed);
        Ok(stats)
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // Closing the channel ends the scheduler loop; join so shard
        // state (and its bank simulation) tears down before the process
        // moves on.
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One request stage of the ledger. The discriminant indexes [`STAGES`]
/// and [`StageHists`].
#[derive(Clone, Copy)]
enum Stage {
    Queue,
    Pass,
    Merge,
    Total,
    Mutation,
}

/// The stage table, one row per [`Stage`]: short name, metric name, and
/// the second metric name a stage is also published under (`total` is
/// the request latency). All three spellings work in SLO objectives.
const STAGES: [(&str, &str, Option<&str>); 5] = [
    ("queue", "simpim.serve.stage.queue_ns", None),
    ("pass", "simpim.serve.stage.pass_ns", None),
    ("merge", "simpim.serve.stage.merge_ns", None),
    (
        "total",
        "simpim.serve.stage.total_ns",
        Some("simpim.serve.latency_ns"),
    ),
    ("mutation", "simpim.serve.stage.mutation_ns", None),
];

/// The engine-owned per-stage latency histograms, one per [`STAGES`]
/// row. Each sample is recorded with its request's trace id, so every
/// bucket remembers the worst offender that landed in it (the exemplar)
/// — the jump-off point from a p99 number to a concrete flight-recorder
/// trace.
#[derive(Default)]
struct StageHists([Histogram; STAGES.len()]);

impl StageHists {
    /// Records one sample of `stage` in the engine-local histogram and
    /// under the stage's metric name(s) in the process registry.
    fn record(&mut self, stage: Stage, ns: u64, trace_id: u64) {
        let (_, metric, alias) = STAGES[stage as usize];
        self.0[stage as usize].record_exemplar(ns, trace_id);
        for name in [Some(metric), alias].into_iter().flatten() {
            simpim_obs::metrics::histogram_record_exemplar(name, ns, trace_id);
        }
    }

    /// Stage histogram by any of its [`STAGES`] spellings.
    fn by_name(&self, name: &str) -> Option<&Histogram> {
        let row = STAGES.iter().position(|&(short, metric, alias)| {
            name == short || name == metric || alias == Some(name)
        })?;
        Some(&self.0[row])
    }

    fn summaries(&self) -> Vec<StageLatency> {
        STAGES
            .iter()
            .zip(&self.0)
            .map(|(&(stage, ..), h)| {
                let (exemplar_ns, exemplar_trace) =
                    h.exemplar_near_quantile(0.99).unwrap_or((0, 0));
                StageLatency {
                    stage: stage.to_string(),
                    count: h.count,
                    p50_ns: h.quantile(0.5),
                    p95_ns: h.quantile(0.95),
                    p99_ns: h.quantile(0.99),
                    exemplar_ns,
                    exemplar_trace,
                }
            })
            .collect()
    }
}

/// `b − a` in nanoseconds, `0` if `b` is earlier.
fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// One child stage handed to [`Scheduler::record_trace`]: name suffix,
/// start, end, numeric attributes.
type StageSpan<'a> = (&'a str, Instant, Instant, &'a [(&'a str, f64)]);

struct Scheduler {
    sets: Vec<ReplicaSet>,
    cfg: ServeConfig,
    next_id: usize,
    /// The command pulled off the channel while coalescing but not
    /// executed yet (the barrier that ended a batch); replayed before
    /// anything new is dequeued.
    stashed: Option<Cmd>,
    /// Timestamp origin for every stage span (set before spawn, shared
    /// with clients through their `enqueued` instants).
    epoch: Instant,
    stages: StageHists,
    flight: FlightRecorder,
    queries: u64,
    batches: u64,
    inserts: u64,
    deletes: u64,
    timeouts: u64,
    answered_ok: u64,
    failed: u64,
    #[cfg(test)]
    panic_next_batch: bool,
}

impl Scheduler {
    fn new(sets: Vec<ReplicaSet>, cfg: ServeConfig, next_id: usize, epoch: Instant) -> Self {
        let flight = FlightRecorder::new(cfg.flight_capacity);
        Self {
            sets,
            cfg,
            next_id,
            stashed: None,
            epoch,
            stages: StageHists::default(),
            flight,
            queries: 0,
            batches: 0,
            inserts: 0,
            deletes: 0,
            timeouts: 0,
            answered_ok: 0,
            failed: 0,
            #[cfg(test)]
            panic_next_batch: false,
        }
    }

    fn run(mut self, rx: Receiver<Cmd>) {
        loop {
            let cmd = match self.stashed.take() {
                Some(c) => c,
                None => match rx.recv() {
                    Ok(c) => c,
                    Err(_) => break, // all senders dropped: shut down
                },
            };
            self.dispatch(cmd, &rx);
            // Opportunistic repair between commands: re-replicate lost
            // banks while the queue is quiet instead of blocking a batch.
            self.repair_tick();
        }
    }

    /// The next command that is ready without blocking: the stash (what
    /// was pulled off the channel but not executed yet) always drains
    /// before the channel, so arrival order is preserved.
    fn next_ready(&mut self, rx: &Receiver<Cmd>) -> Option<Cmd> {
        self.stashed.take().or_else(|| rx.try_recv().ok())
    }

    /// Greedy, non-blocking coalesce of the queries that directly follow
    /// `first`, up to `max_batch`. The first non-query command is stashed
    /// and ends the batch — mutations are batch barriers, whatever they
    /// are.
    fn coalesce(&mut self, first: QueryReq, rx: &Receiver<Cmd>) -> Vec<QueryReq> {
        let mut batch = vec![first];
        while batch.len() < self.cfg.max_batch {
            match self.next_ready(rx) {
                Some(Cmd::Query(q)) => batch.push(q),
                Some(other) => {
                    self.stashed = Some(other);
                    break;
                }
                None => break,
            }
        }
        batch
    }

    /// The re-replicate stage of the repair loop, run between commands.
    /// Detection is traffic-driven — a lost bank is noticed (and
    /// quarantined) by the first batch that routes to it, which fails
    /// over to a sibling replica; this tick then rebuilds at most one
    /// lost replica per set, keeping each tick's latency bite bounded.
    /// A failed repair leaves the replica quarantined; the next tick
    /// retries. (An idle engine with a dead bank therefore stays
    /// un-repaired until traffic returns: nothing sweeps for a loss
    /// that no query has routed to.)
    fn repair_tick(&mut self) {
        for set in &mut self.sets {
            if set.needs_repair() && set.repair_one().is_err() {
                simpim_obs::metrics::counter_add("simpim.serve.repair_failed", 1);
            }
        }
    }

    /// Rolling reprogram across every replica of every shard: each
    /// replica leaves routing, compacts, rejoins — and between steps any
    /// queries that queued up are served from the replicas still in
    /// rotation. The first error is reported but the roll continues, so
    /// one bad replica cannot leave the rest uncompacted. Returns the
    /// rows the roll wrote beside that outcome.
    fn rolling_flush(&mut self, rx: &Receiver<Cmd>) -> (usize, Result<(), ServeError>) {
        let (mut written, mut out) = (0, Ok(()));
        for si in 0..self.sets.len() {
            for ri in 0..self.cfg.replicas {
                match self.sets[si].reprogram_replica(ri) {
                    Ok(rows) => written += rows,
                    Err(e) if out.is_ok() => out = Err(e),
                    Err(_) => {}
                }
                // Serve one batch of the queries that queued up behind
                // this step from the replicas still in rotation.
                match self.next_ready(rx) {
                    Some(query @ Cmd::Query(_)) => self.dispatch(query, rx),
                    other => self.stashed = other,
                }
            }
        }
        (written, out)
    }

    fn process_queries(&mut self, batch: Vec<QueryReq>) {
        let now = Instant::now();
        let (mut live, expired): (Vec<_>, Vec<_>) =
            batch.into_iter().partition(|q| q.deadline >= now);
        for q in expired {
            self.timeouts += 1;
            simpim_obs::metrics::counter_add("simpim.serve.timeouts", 1);
            // Just root + queue — it never reached a crossbar — and
            // timeouts are anomalies, so the recorder always retains them.
            let waited = now.saturating_duration_since(q.enqueued).as_secs_f64();
            self.record_trace(
                "query",
                q.ctx,
                Outcome::Timeout,
                (q.enqueued, now, now),
                &[("k", q.k as f64)],
                &[],
                vec![format!(
                    "deadline expired after {:.3}ms in queue",
                    waited * 1e3
                )],
            );
            let _ = q.reply.send(Err(ServeError::DeadlineExpired));
        }
        if live.is_empty() {
            return;
        }
        self.batches += 1;
        self.queries += live.len() as u64;
        simpim_obs::metrics::counter_add("simpim.serve.batches", 1);
        simpim_obs::metrics::counter_add("simpim.serve.queries", live.len() as u64);
        simpim_obs::metrics::histogram_record("simpim.serve.batch_size", live.len() as u64);
        // The batch root in the obs journal. Every member query's flight
        // trace carries this batch's sequence number, and the per-shard
        // `serve.replica.pass` / executor spans parent on this context —
        // so one crossbar pass serving Q queries stays attributable.
        let batch_seq = self.batches;
        let (mut span, batch_ctx) = simpim_obs::trace::open_root_span(
            "serve.engine.batch",
            &[("queries", live.len() as f64), ("batch", batch_seq as f64)],
        );

        // Nothing reads a query's vector past this point: move it out.
        let queries: Vec<Vec<f64>> = live
            .iter_mut()
            .map(|q| std::mem::take(&mut q.query))
            .collect();
        let ks: Vec<usize> = live.iter().map(|q| q.k).collect();
        let queries_ref = &queries;
        let ks_ref = &ks;
        // One job per shard on the shared `simpim-par` pool: each routes
        // the coalesced PIM pass to its least-worn healthy replica,
        // concurrently, with results returned in shard order (honors
        // `SIMPIM_THREADS`). Failover happens inside the job — a shard
        // whose routed bank died retries on its other replicas before
        // the merge ever sees it.
        type ShardBatch = (Vec<Result<Vec<Neighbor>, ServeError>>, RouteSample);
        #[cfg(test)]
        let inject_panic = std::mem::take(&mut self.panic_next_batch);
        let pass_start = Instant::now();
        let jobs: Vec<simpim_par::Job<'_, ShardBatch>> = self
            .sets
            .iter_mut()
            .enumerate()
            .map(|(si, set)| {
                Box::new(move || {
                    #[cfg(test)]
                    assert!(!inject_panic, "injected panic in shard {si}");
                    set.query_batch(queries_ref, ks_ref, batch_ctx, si)
                }) as simpim_par::Job<'_, _>
            })
            .collect();
        // A panic on the pool is re-raised here. It fails this batch, not
        // the scheduler thread: every query of it gets `Internal`, and the
        // next command is served as usual.
        let joined = std::panic::catch_unwind(AssertUnwindSafe(|| simpim_par::join_all(jobs)));
        let mut annotations = Vec::new();
        let shard_results: Vec<ShardBatch> = joined.unwrap_or_else(|panic| {
            simpim_obs::metrics::counter_add("simpim.serve.panics", 1);
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("a panic without a message")
                .to_string();
            annotations.push(format!("batch panicked: {what}"));
            let failed = vec![Err(ServeError::Internal { what }); live.len()];
            vec![(failed, RouteSample::default()); self.sets.len()]
        });
        let pass_end = Instant::now();

        // Batch-level fault annotations, shared by every member query's
        // flight trace: which replica served each shard, and what
        // failover / shed / degraded handling the batch absorbed.
        let mut degraded = false;
        let mut failovers = 0u64;
        let mut sheds = 0u64;
        for (si, (_, sample)) in shard_results.iter().enumerate() {
            failovers += sample.failovers;
            sheds += sample.sheds;
            degraded |= sample.degraded;
            if sample.failovers > 0 {
                annotations.push(format!(
                    "shard {si}: {} bank loss(es) detected, batch failed over",
                    sample.failovers
                ));
            }
            if sample.degraded {
                annotations.push(format!(
                    "shard {si}: no routable replica, served from exact host mirror"
                ));
            } else if let Some(r) = sample.replica {
                if sample.failovers > 0 {
                    annotations.push(format!("shard {si}: answered by replica {r}"));
                }
            }
            if sample.sheds > 0 {
                annotations.push(format!(
                    "shard {si}: {} query(ies) shed to host path by a recoverable PIM fault",
                    sample.sheds
                ));
            }
        }

        for (qi, req) in live.into_iter().enumerate() {
            let merge_start = Instant::now();
            let mut parts = Vec::with_capacity(shard_results.len());
            let mut failure = None;
            for (per_shard, _) in &shard_results {
                match &per_shard[qi] {
                    Ok(neighbors) => parts.push(neighbors.clone()),
                    Err(e) => failure = Some(e.clone()),
                }
            }
            let answer = match failure {
                Some(e) => Err(e),
                None => Ok(merge_neighbors(&parts, req.k, true)),
            };
            let done = Instant::now();
            let outcome = match &answer {
                Err(_) => Outcome::Failed,
                Ok(_) if degraded => Outcome::Degraded,
                Ok(_) if failovers > 0 => Outcome::Failover,
                Ok(_) if sheds > 0 => Outcome::Shed,
                Ok(_) => Outcome::Ok,
            };
            match &answer {
                Ok(_) => {
                    self.answered_ok += 1;
                    simpim_obs::metrics::counter_add("simpim.serve.answered_ok", 1);
                }
                Err(e) => {
                    self.failed += 1;
                    simpim_obs::metrics::counter_add("simpim.serve.failed", 1);
                    annotations.push(format!("query failed: {e}"));
                }
            }
            let mut anns = annotations.clone();
            if let Err(e) = &answer {
                anns.push(format!("error: {e}"));
            }
            let trace_id = req.ctx.trace_id;
            for (stage, ns) in [
                (Stage::Queue, ns_between(req.enqueued, now)),
                (Stage::Pass, ns_between(pass_start, pass_end)),
                (Stage::Merge, ns_between(merge_start, done)),
                (Stage::Total, ns_between(req.enqueued, done)),
            ] {
                self.stages.record(stage, ns, trace_id);
            }
            let batch = ("batch", batch_seq as f64);
            let shards = ("shards", self.sets.len() as f64);
            self.record_trace(
                "query",
                req.ctx,
                outcome,
                (req.enqueued, now, done),
                &[("k", req.k as f64), batch],
                &[
                    ("pass", pass_start, pass_end, &[shards, batch]),
                    ("merge", merge_start, done, &[]),
                ],
                anns,
            );
            let _ = req.reply.send(answer);
        }
        span.record("shards", self.sets.len() as f64);
    }

    /// The one flight-trace builder: offers the recorder a request's
    /// explicitly-built span tree — the `serve.{kind}` root over
    /// `enqueued..done`, the queue wait `enqueued..dequeued`, then one
    /// `serve.{kind}.{name}` child per entry of `stages` — built from the
    /// request's [`TraceCtx`] whether or not journal tracing is enabled.
    #[allow(clippy::too_many_arguments)]
    fn record_trace(
        &mut self,
        kind: &str,
        ctx: TraceCtx,
        outcome: Outcome,
        (enqueued, dequeued, done): (Instant, Instant, Instant),
        root_attrs: &[(&str, f64)],
        stages: &[StageSpan<'_>],
        annotations: Vec<String>,
    ) {
        let epoch = self.epoch;
        let span = |name: String, start, end, attrs: &[(&str, f64)], root: bool| QuerySpan {
            span_id: if root {
                ctx.span_id
            } else {
                ctx.child().span_id
            },
            parent: (!root).then_some(ctx.span_id),
            name,
            // Nanoseconds since the engine epoch, the clock every
            // flight-span timestamp is expressed in.
            start_ns: ns_between(epoch, start),
            end_ns: ns_between(epoch, end),
            attrs: attrs.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        };
        let mut spans = vec![
            span(format!("serve.{kind}"), enqueued, done, root_attrs, true),
            span("serve.query.queue".into(), enqueued, dequeued, &[], false),
        ];
        spans.extend(stages.iter().map(|&(name, start, end, attrs)| {
            span(format!("serve.{kind}.{name}"), start, end, attrs, false)
        }));
        self.flight.record(QueryTrace {
            trace_id: ctx.trace_id,
            kind: kind.into(),
            outcome,
            total_ns: ns_between(enqueued, done),
            spans,
            annotations,
        });
    }

    /// The one mutation lifecycle (`insert` / `delete` / `flush`): stamp
    /// the dequeue, run `work`, put the apply time into the `mutation`
    /// stage and flight-record root + queue + apply (with the attributes
    /// `work` pushed). Failed mutations are anomalies and always retained.
    fn apply_mutation<T>(
        &mut self,
        kind: &str,
        ctx: TraceCtx,
        enqueued: Instant,
        attrs: &[(&str, f64)],
        work: impl FnOnce(&mut Self, &mut Vec<(&'static str, f64)>) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let dequeued = Instant::now();
        let mut applied = Vec::new();
        let out = work(self, &mut applied);
        let done = Instant::now();
        self.stages
            .record(Stage::Mutation, ns_between(dequeued, done), ctx.trace_id);
        let (outcome, annotations) = match &out {
            Ok(_) => (Outcome::Ok, vec![]),
            Err(_) => (Outcome::Failed, vec![format!("{kind} failed")]),
        };
        self.record_trace(
            kind,
            ctx,
            outcome,
            (enqueued, dequeued, done),
            attrs,
            &[("apply", dequeued, done, &applied[..])],
            annotations,
        );
        out
    }

    /// Executes one command, whatever its kind. `rx` is only read by
    /// the arms that pull *more* work forward: a query coalesces the
    /// queries behind it, a flush serves queries between its steps.
    fn dispatch(&mut self, cmd: Cmd, rx: &Receiver<Cmd>) {
        match cmd {
            Cmd::Query(first) => {
                let batch = self.coalesce(first, rx);
                self.process_queries(batch);
            }
            Cmd::Flush {
                enqueued,
                ctx,
                reply,
            } => {
                let out = self.apply_mutation("flush", ctx, enqueued, &[], |s, applied| {
                    let (written, out) = s.rolling_flush(rx);
                    applied.push(("rows_written", written as f64));
                    out
                });
                let _ = reply.send(out);
            }
            Cmd::Insert {
                row,
                enqueued,
                ctx,
                reply,
            } => {
                let id = self.next_id;
                let shard = id % self.sets.len();
                let attrs = [("id", id as f64), ("shard", shard as f64)];
                let out = self.apply_mutation("insert", ctx, enqueued, &attrs, |s, _| {
                    s.sets[shard].insert(id, &row)?;
                    s.next_id += 1;
                    s.inserts += 1;
                    simpim_obs::metrics::counter_add("simpim.serve.inserts", 1);
                    Ok(id)
                });
                let _ = reply.send(out);
            }
            Cmd::Delete {
                id,
                enqueued,
                ctx,
                reply,
            } => {
                let attrs = [("id", id as f64)];
                let out = self.apply_mutation("delete", ctx, enqueued, &attrs, |s, _| {
                    s.deletes += 1;
                    simpim_obs::metrics::counter_add("simpim.serve.deletes", 1);
                    // The first shard that holds the id ends the search;
                    // so does the first error.
                    for set in &mut s.sets {
                        if set.delete(id)? {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                });
                let _ = reply.send(out);
            }
            Cmd::KillBank {
                shard,
                replica,
                reply,
            } => {
                let out = if shard >= self.sets.len() || replica >= self.cfg.replicas {
                    Err(ServeError::invalid(format!(
                        "no replica ({shard}, {replica}): engine has {} shards × {} replicas",
                        self.sets.len(),
                        self.cfg.replicas
                    )))
                } else {
                    self.sets[shard].kill_replica(replica);
                    Ok(())
                };
                let _ = reply.send(out);
            }
            Cmd::Stats { reply } => {
                let shards: Vec<ReplicaSetStats> = self.sets.iter().map(|s| s.stats()).collect();
                // Availability: a query is "good" when it returned an
                // exact answer; errors and deadline expiries are "bad".
                let good = self.answered_ok;
                let total = self.answered_ok + self.failed + self.timeouts;
                let slo = simpim_obs::slo::evaluate_spec(
                    &self.cfg.slo,
                    |name| self.stages.by_name(name).cloned(),
                    |_| Some((good, total)),
                );
                for r in &slo {
                    for (gauge, v) in [
                        ("attainment", r.attainment),
                        ("budget_remaining", r.budget_remaining),
                        ("burn_rate", r.burn_rate),
                    ] {
                        let name = format!("simpim.serve.slo.{}.{gauge}", r.name);
                        simpim_obs::metrics::gauge_set(&name, v);
                    }
                }
                let stats = EngineStats {
                    live: shards.iter().map(|s| s.live).sum(),
                    replicas: self.cfg.replicas,
                    queries: self.queries,
                    batches: self.batches,
                    inserts: self.inserts,
                    deletes: self.deletes,
                    timeouts: self.timeouts,
                    overloaded: 0, // merged client-side
                    sheds: shards
                        .iter()
                        .flat_map(|s| s.replicas.iter())
                        .map(|r| r.sheds)
                        .sum(),
                    failovers: shards.iter().map(|s| s.failovers).sum(),
                    repairs: shards.iter().map(|s| s.repairs).sum(),
                    degraded_queries: shards.iter().map(|s| s.degraded_queries).sum(),
                    degraded_shards: shards.iter().filter(|s| s.degraded).count(),
                    answered_ok: self.answered_ok,
                    failed: self.failed,
                    stage_latency: self.stages.summaries(),
                    slo,
                    flight: self.flight.stats(),
                    shards,
                };
                simpim_obs::metrics::gauge_set(
                    "simpim.serve.degraded_shards",
                    stats.degraded_shards as f64,
                );
                let _ = reply.send(Ok(stats));
            }
            Cmd::FlightDump { reply } => {
                let _ = reply.send(Ok(self.flight.dump_jsonl()));
            }
            #[cfg(test)]
            Cmd::PanicNextBatch => self.panic_next_batch = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_datasets::DatasetSource;
    use simpim_mining::knn::standard::knn_standard;
    use simpim_reram::{CrossbarConfig, FaultConfig, PimConfig};
    use simpim_similarity::Measure;

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            shards: 2,
            replicas: 1,
            max_batch: 4,
            queue_depth: 32,
            spare_rows: 4,
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
            ..Default::default()
        }
    }

    fn replicated_cfg(r: usize) -> ServeConfig {
        ServeConfig {
            replicas: r,
            ..small_cfg()
        }
    }

    fn data() -> Dataset {
        Dataset::from_rows(
            &(0..12)
                .map(|i| {
                    (0..4)
                        .map(|j| ((i * 7 + j * 13) % 97) as f64 / 96.0)
                        .collect()
                })
                .collect::<Vec<Vec<f64>>>(),
        )
        .unwrap()
    }

    #[test]
    fn knn_matches_offline_scan() {
        let ds = data();
        let engine = ServeEngine::open(small_cfg(), &ds).unwrap();
        let q = vec![0.4, 0.3, 0.9, 0.1];
        let truth = knn_standard(&ds, &q, 3, Measure::EuclideanSq).unwrap();
        let got = engine.knn(&q, 3).unwrap();
        assert_eq!(got, truth.neighbors);
    }

    #[test]
    fn a_panicking_batch_fails_its_queries_and_the_engine_keeps_serving() {
        let ds = data();
        let engine = ServeEngine::open(small_cfg(), &ds).unwrap();
        let q = vec![0.4, 0.3, 0.9, 0.1];
        let truth = knn_standard(&ds, &q, 3, Measure::EuclideanSq).unwrap();
        // Dispatched in order ahead of the query, so it is its batch that
        // panics (on the pool, in a shard job).
        let _ = engine
            .enqueue::<()>(Admission::Block, |_| Cmd::PanicNextBatch)
            .unwrap();
        match engine.knn(&q, 3) {
            Err(ServeError::Internal { what }) => {
                assert!(what.contains("injected panic"), "{what}")
            }
            other => panic!("expected an internal error, got {other:?}"),
        }
        assert_eq!(engine.knn(&q, 3).unwrap(), truth.neighbors);
        let stats = engine.stats().unwrap();
        assert_eq!((stats.failed, stats.answered_ok), (1, 1));
        let dump = engine.flight_dump().unwrap();
        let failed = dump.lines().next().unwrap();
        assert!(failed.contains("\"outcome\":\"failed\"") && failed.contains("batch panicked"));
        let snap = simpim_obs::metrics::snapshot();
        assert!(snap.counter("simpim.serve.panics").unwrap_or(0) >= 1);
    }

    #[test]
    fn knn_batch_matches_offline_per_query() {
        let ds = data();
        let engine = ServeEngine::open(small_cfg(), &ds).unwrap();
        let queries: Vec<Vec<f64>> = vec![
            vec![0.4, 0.3, 0.9, 0.1],
            vec![0.5, 0.5, 0.5, 0.5],
            vec![0.1, 0.2, 0.3, 0.4],
        ];
        let got = engine.knn_batch(&queries, 2).unwrap();
        for (q, res) in queries.iter().zip(&got) {
            let truth = knn_standard(&ds, q, 2, Measure::EuclideanSq).unwrap();
            assert_eq!(*res, truth.neighbors);
        }
        let stats = engine.stats().unwrap();
        assert_eq!(stats.queries, 3);
    }

    /// One dump line with every digit run masked: pins key order, span
    /// names, attribute keys, `kind`, `outcome` and annotation text while
    /// ids and timestamps float.
    fn masked(line: &str) -> String {
        let mut out = String::new();
        for c in line.chars() {
            if !c.is_ascii_digit() {
                out.push(c);
            } else if !out.ends_with('#') {
                out.push('#');
            }
        }
        out
    }

    #[test]
    fn submitted_commands_carry_the_external_trace_into_the_flight_dump() {
        let ds = data();
        let engine = ServeEngine::open(small_cfg(), &ds).unwrap();
        let q = vec![0.4, 0.3, 0.9, 0.1];
        let truth = knn_standard(&ds, &q, 3, Measure::EuclideanSq).unwrap();
        // The shape of a cross-wire request: the trace id was minted by a
        // remote peer, the span id is joined locally.
        let remote_trace = TraceCtx::root().trace_id;
        let ctx = TraceCtx::join(remote_trace);
        let pending = engine
            .knn_submit(&q, 3, Duration::from_secs(5), ctx)
            .unwrap();
        assert_eq!(pending.wait().unwrap(), truth.neighbors);
        let ins = engine
            .insert_submit(&[0.1, 0.2, 0.3, 0.4], ctx)
            .unwrap()
            .wait()
            .unwrap();
        assert!(engine.delete_submit(ins, ctx).unwrap().wait().unwrap());
        engine.flush_submit(ctx).unwrap().wait().unwrap();
        // Two anomalies under the same remote trace: a row the shard
        // refuses, and a query whose (zero) deadline expires in the queue
        // (re-submitted in the unlikely case the dequeue wins the race).
        assert!(engine
            .insert_submit(&[0.1, 0.2, 0.3, 1.4], ctx)
            .unwrap()
            .wait()
            .is_err());
        let expired = (0..100).any(|_| {
            let out = engine
                .knn_submit(&q, 3, Duration::ZERO, ctx)
                .unwrap()
                .wait();
            out == Err(ServeError::DeadlineExpired)
        });
        assert!(expired, "a zero deadline never expired in the queue");
        let dump = engine.flight_dump().unwrap();
        let traces = crate::flight::parse_dump(&dump).unwrap();
        let carried: Vec<&QueryTrace> = traces
            .iter()
            .filter(|t| t.trace_id == remote_trace)
            .collect();
        assert!(
            carried.len() >= 6,
            "query, insert, delete, flush, failed insert and timeout all reconstruct under the remote trace id"
        );
        for t in &carried {
            t.validate_tree().unwrap();
            let root = t.spans[0].span_id;
            assert!(t.spans[1..].iter().all(|s| s.parent == Some(root)));
        }
        // The golden JSONL shape of each request kind, digits masked.
        let span = |name: &str, parent: &str, attrs: &str| {
            format!(
                r#"{{"span_id":#,"parent":{parent},"name":"{name}","start_ns":#,"end_ns":#,"attrs":{{{attrs}}}}}"#
            )
        };
        let line = |kind: &str, outcome: &str, spans: &[String], annotations: &str| {
            format!(
                r#"{{"trace_id":#,"kind":"{kind}","outcome":"{outcome}","total_ns":#,"spans":[{}],"annotations":[{annotations}]}}"#,
                spans.join(",")
            )
        };
        let queue = span("serve.query.queue", "#", "");
        let mutation = |kind: &str, outcome: &str, attrs: &str, annotations: &str| {
            let applied = if kind == "flush" {
                r#""rows_written":#"#
            } else {
                ""
            };
            let spans = [
                span(&format!("serve.{kind}"), "null", attrs),
                queue.clone(),
                span(&format!("serve.{kind}.apply"), "#", applied),
            ];
            line(kind, outcome, &spans, annotations)
        };
        let golden = [
            line(
                "query",
                "ok",
                &[
                    span("serve.query", "null", r#""k":#,"batch":#"#),
                    queue.clone(),
                    span("serve.query.pass", "#", r#""shards":#,"batch":#"#),
                    span("serve.query.merge", "#", ""),
                ],
                "",
            ),
            line(
                "query",
                "timeout",
                &[span("serve.query", "null", r#""k":#"#), queue.clone()],
                r#""deadline expired after #.#ms in queue""#,
            ),
            mutation("insert", "ok", r#""id":#,"shard":#"#, ""),
            mutation(
                "insert",
                "failed",
                r#""id":#,"shard":#"#,
                r#""insert failed""#,
            ),
            mutation("delete", "ok", r#""id":#"#, ""),
            mutation("flush", "ok", "", ""),
        ];
        let lines: Vec<String> = dump.lines().map(masked).collect();
        for want in &golden {
            assert!(lines.contains(want), "no flight line like {want}\n{dump}");
        }
    }

    /// The interleaving that used to kill the scheduler: a `Flush`
    /// dequeued while queries are being coalesced. The whole arrival
    /// sequence is queued before the scheduler runs (on this thread), so
    /// the interleaving is forced, not raced.
    #[test]
    fn flush_behind_coalescing_queries_is_dispatched_in_arrival_order() {
        let ds = data();
        let cfg = small_cfg();
        let sets = ServeEngine::stream_sets(
            &mut simpim_datasets::InMemorySource::new(&ds),
            &[6, 6],
            &[cfg.shard_config(); 2],
            1,
        )
        .unwrap();
        let (tx, rx) = mpsc::sync_channel(8);
        let q = vec![0.4, 0.3, 0.9, 0.1];
        let now = Instant::now();
        let query = || {
            let (reply, rx) = mpsc::channel();
            let cmd = Cmd::Query(QueryReq {
                query: q.clone(),
                k: 1,
                deadline: now + Duration::from_secs(60),
                enqueued: now,
                ctx: TraceCtx::root(),
                reply,
            });
            (cmd, Pending { rx })
        };
        let (q1, p1) = query();
        let (q2, p2) = query();
        let (q3, p3) = query();
        let (flush_reply, flush_rx) = mpsc::channel();
        let (insert_reply, insert_rx) = mpsc::channel();
        let flush = Cmd::Flush {
            enqueued: now,
            ctx: TraceCtx::root(),
            reply: flush_reply,
        };
        let insert = Cmd::Insert {
            row: q.clone(),
            enqueued: now,
            ctx: TraceCtx::root(),
            reply: insert_reply,
        };
        for cmd in [q1, q2, flush, insert, q3] {
            tx.try_send(cmd).expect("queue holds the sequence");
        }
        drop(tx);
        Scheduler::new(sets, cfg, ds.len(), now).run(rx);

        let truth = knn_standard(&ds, &q, 1, Measure::EuclideanSq).unwrap();
        // The two queries ahead of the insert see the original rows...
        assert_eq!(p1.try_wait().unwrap().unwrap(), truth.neighbors);
        assert_eq!(p2.try_wait().unwrap().unwrap(), truth.neighbors);
        Pending { rx: flush_rx }.try_wait().unwrap().unwrap();
        let id = Pending { rx: insert_rx }.try_wait().unwrap().unwrap();
        assert_eq!(id, ds.len());
        // ...and the one behind it finds the inserted copy of itself.
        assert_eq!(p3.try_wait().unwrap().unwrap(), vec![(id, 0.0)]);
    }

    #[test]
    fn pending_try_wait_polls_without_blocking() {
        let ds = data();
        let engine = ServeEngine::open(small_cfg(), &ds).unwrap();
        let pending = engine
            .knn_submit(&[0.5; 4], 2, Duration::from_secs(5), TraceCtx::NONE)
            .unwrap();
        let mut out = None;
        for _ in 0..10_000 {
            if let Some(o) = pending.try_wait() {
                out = Some(o);
                break;
            }
            thread::yield_now();
        }
        let got = out.expect("scheduler answers well within the spin budget");
        let truth = knn_standard(&ds, &[0.5; 4], 2, Measure::EuclideanSq).unwrap();
        assert_eq!(got.unwrap(), truth.neighbors);
    }

    #[test]
    fn inserts_and_deletes_are_visible_to_later_queries() {
        let ds = data();
        let engine = ServeEngine::open(small_cfg(), &ds).unwrap();
        let row = vec![0.11, 0.22, 0.33, 0.44];
        let id = engine.insert(&row).unwrap();
        assert_eq!(id, 12);
        let got = engine.knn(&row, 1).unwrap();
        assert_eq!(got[0].0, id);
        assert!(engine.delete(id).unwrap());
        let got = engine.knn(&row, 1).unwrap();
        assert_ne!(got[0].0, id);
        assert!(!engine.delete(id).unwrap());
        let stats = engine.stats().unwrap();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.live, 12);
    }

    #[test]
    fn flush_compacts_all_shards() {
        let ds = data();
        let engine = ServeEngine::open(small_cfg(), &ds).unwrap();
        engine.delete(0).unwrap();
        engine.delete(7).unwrap();
        engine.flush().unwrap();
        let stats = engine.stats().unwrap();
        let tombstones: usize = stats
            .shards
            .iter()
            .flat_map(|s| s.replicas.iter())
            .map(|r| r.tombstones)
            .sum();
        assert_eq!(tombstones, 0);
        assert_eq!(stats.live, 10);
    }

    #[test]
    fn invalid_arguments_are_rejected_without_contacting_shards() {
        let ds = data();
        let engine = ServeEngine::open(small_cfg(), &ds).unwrap();
        assert!(matches!(
            engine.knn(&[0.5; 3], 1),
            Err(ServeError::InvalidArgument { .. })
        ));
        assert!(matches!(
            engine.knn(&[0.5; 4], 0),
            Err(ServeError::InvalidArgument { .. })
        ));
        assert!(matches!(
            engine.insert(&[0.5; 3]),
            Err(ServeError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn expired_deadlines_are_shed_not_served() {
        let ds = data();
        let engine = ServeEngine::open(small_cfg(), &ds).unwrap();
        let out = engine.knn_deadline(&[0.5; 4], 1, Duration::from_nanos(0));
        // A zero deadline either expires in the queue or races a fast
        // dequeue; anything else (Overloaded, Closed, ...) is a bug.
        assert!(matches!(out, Err(ServeError::DeadlineExpired) | Ok(_)));
    }

    #[test]
    fn open_rejects_bad_configs() {
        let ds = data();
        let mut c = small_cfg();
        c.shards = 0;
        assert!(ServeEngine::open(c, &ds).is_err());
        let mut c = small_cfg();
        c.replicas = 0;
        assert!(ServeEngine::open(c, &ds).is_err());
        let mut c = small_cfg();
        c.shards = 13; // more shards than rows
        assert!(ServeEngine::open(c, &ds).is_err());
        let bad = Dataset::from_rows(&[vec![1.5, 0.5]]).unwrap();
        assert!(matches!(
            ServeEngine::open(small_cfg(), &bad),
            Err(ServeError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn open_validates_the_fault_model_up_front() {
        let ds = data();
        let mut c = small_cfg();
        c.executor.faults = Some(FaultConfig {
            stuck_low_rate: 1.5, // out of range
            ..Default::default()
        });
        assert!(matches!(
            ServeEngine::open(c, &ds),
            Err(ServeError::Config { .. })
        ));
    }

    #[test]
    fn killed_replica_fails_over_and_is_repaired() {
        let ds = data();
        let engine = ServeEngine::open(replicated_cfg(2), &ds).unwrap();
        let q = vec![0.4, 0.3, 0.9, 0.1];
        let truth = knn_standard(&ds, &q, 3, Measure::EuclideanSq).unwrap();
        assert_eq!(engine.knn(&q, 3).unwrap(), truth.neighbors);

        engine.kill_bank(0, 0).unwrap();
        assert!(matches!(
            engine.kill_bank(9, 0),
            Err(ServeError::InvalidArgument { .. })
        ));
        // The next query routes to the dead bank, detects the loss, and
        // fails over — answering bit-identically through it...
        assert_eq!(engine.knn(&q, 3).unwrap(), truth.neighbors);
        // ...and the between-command repair tick re-replicates the lost
        // bank: by the time stats answer, the set is whole again.
        let stats = engine.stats().unwrap();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.repairs, 1);
        assert_eq!(stats.shards[0].healthy, 2);
        assert_eq!(stats.degraded_shards, 0);
        assert_eq!(engine.knn(&q, 3).unwrap(), truth.neighbors);
    }

    #[test]
    fn stats_report_the_replication_shape() {
        let ds = data();
        let engine = ServeEngine::open(replicated_cfg(2), &ds).unwrap();
        let stats = engine.stats().unwrap();
        assert_eq!(stats.replicas, 2);
        assert_eq!(stats.shards.len(), 2);
        for set in &stats.shards {
            assert_eq!(set.replicas.len(), 2);
            assert_eq!(set.healthy, 2);
            assert!(!set.degraded);
        }
        assert_eq!(stats.overloaded, 0);
        assert_eq!(stats.failovers, 0);
    }

    #[test]
    fn rolling_flush_compacts_every_replica() {
        let ds = data();
        let engine = ServeEngine::open(replicated_cfg(2), &ds).unwrap();
        engine.delete(0).unwrap();
        engine.delete(7).unwrap();
        engine.flush().unwrap();
        let stats = engine.stats().unwrap();
        for set in &stats.shards {
            for replica in &set.replicas {
                assert_eq!(replica.tombstones, 0);
            }
            assert_eq!(set.healthy, 2, "every replica rejoined routing");
        }
        assert_eq!(stats.live, 10);
    }

    fn synth_source() -> simpim_datasets::SynthSource {
        simpim_datasets::SynthSource::new(simpim_datasets::SyntheticConfig {
            n: 12,
            d: 4,
            clusters: 2,
            cluster_std: 0.08,
            stat_uniformity: 0.5,
            seed: 11,
        })
    }

    #[test]
    fn open_source_answers_like_the_in_memory_open() {
        let ds = synth_source().materialize();
        let in_memory = ServeEngine::open(small_cfg(), &ds).unwrap();
        let streamed = ServeEngine::open_source(small_cfg(), &mut synth_source()).unwrap();
        for i in 0..3 {
            let q: Vec<f64> = (0..4)
                .map(|j| ((i * 5 + j * 3) % 11) as f64 / 10.0)
                .collect();
            let truth = knn_standard(&ds, &q, 3, Measure::EuclideanSq).unwrap();
            assert_eq!(in_memory.knn(&q, 3).unwrap(), truth.neighbors);
            assert_eq!(streamed.knn(&q, 3).unwrap(), truth.neighbors);
        }
        // Mutations behave identically on the streamed engine.
        let id = streamed.insert(&[0.5; 4]).unwrap();
        assert_eq!(id, 12);
        assert!(streamed.delete(3).unwrap());
        let stats = streamed.stats().unwrap();
        assert_eq!(stats.live, 12);
    }

    #[test]
    fn open_planned_places_shards_on_profiled_banks() {
        use simpim_core::{BankProfile, CandidateBound, FleetPlanner};
        let cfg = small_cfg();
        let banks = [
            BankProfile {
                crossbars: 4096,
                wear: 3,
                healthy: true,
            },
            BankProfile {
                crossbars: 4096,
                wear: 0,
                healthy: true,
            },
        ];
        let planner = FleetPlanner {
            d: 4,
            operand_bits: cfg.executor.operand_bits,
            buffer_factor: 1,
            base_pim: cfg.executor.pim,
            refine_bytes_per_object: 64,
            candidates: vec![CandidateBound {
                name: "LB_PIM-FNN".to_string(),
                transfer_bytes: 24,
                pruning_ratio: 0.9,
                is_pim: true,
            }],
            pim_reference_s: 4,
            spare_rows: cfg.spare_rows,
            merge_bytes_per_shard: 1.0,
        };
        let plan = planner.plan(12, &banks).unwrap();
        let ds = synth_source().materialize();
        let engine = ServeEngine::open_planned(cfg, &mut synth_source(), &plan, &banks).unwrap();
        let q = vec![0.4, 0.3, 0.9, 0.1];
        let truth = knn_standard(&ds, &q, 3, Measure::EuclideanSq).unwrap();
        assert_eq!(
            engine.knn(&q, 3).unwrap(),
            truth.neighbors,
            "placement must be invisible in answers"
        );
        assert_eq!(engine.stats().unwrap().shards.len(), plan.shards.len());
    }

    #[test]
    fn open_planned_rejects_a_plan_that_mismatches_the_source() {
        use simpim_core::{FleetPlan, ShardPlacement};
        let mut src = synth_source();
        let plan = FleetPlan {
            shards: Vec::<ShardPlacement>::new(),
            makespan_bytes: 0.0,
            modeled_qps: 0.0,
        };
        assert!(matches!(
            ServeEngine::open_planned(small_cfg(), &mut src, &plan, &[]),
            Err(ServeError::InvalidArgument { .. })
        ));
    }
}
