//! `simpim-serve`: an online, sharded, batch-scheduled kNN
//! query-serving engine over the resident ReRAM banks.
//!
//! The offline pipeline (`simpim-core` + `simpim-mining`) answers one
//! query at a time over a dataset it programs from scratch. This crate
//! turns that pipeline into a long-lived service:
//!
//! - **Shards** ([`shard::Shard`]) partition the dataset across banks,
//!   each planned by Theorem 4 with spare rows for online appends.
//!   Inserts land in the spare crossbar rows (overflow spills to a
//!   host-side delta buffer), deletes tombstone in place, and a
//!   wear-aware policy reprograms a shard only when its tombstone ratio
//!   crosses a threshold that *rises* with accumulated crossbar wear —
//!   worn shards compact less eagerly.
//! - **Replica sets** ([`replica::ReplicaSet`]) are the one serving
//!   unit — [`shard::Shard`] is a set of one behind a delegating front
//!   — and program each shard's rows onto `R` distinct banks. Every
//!   coalesced batch routes to the
//!   least-worn healthy replica (wear-leveling doubles as load
//!   balancing); a fail-stopped bank is detected in-line, quarantined,
//!   and the batch fails over transparently; a background repair loop
//!   re-replicates lost replicas onto spare banks; compacting
//!   reprograms roll one replica at a time so `R − 1` replicas stay
//!   queryable throughout; and with every replica lost the set degrades
//!   to the exact host mirror rather than erroring.
//! - **The engine** ([`engine::ServeEngine`]) puts a bounded submission
//!   queue in front of a scheduler thread that coalesces up to `Q`
//!   in-flight queries into a single crossbar pass per shard (amortizing
//!   the programming cost that dominates single-query latency), then
//!   refines the batch together on the host: one sweep of a shard's rows
//!   for all of its queries (a single query keeps the bound-ordered walk).
//! - **Exactness**: every answer is bit-identical to what the offline
//!   `mining::knn` would return on the same live rows. Bounds stay
//!   valid under drift (guard-band) and quarantine (host fallback), the
//!   per-shard top-k merge is offer-order independent, and replicas are
//!   interchangeable — routing, failover, repair, and degraded mode are
//!   all invisible in the answers.
//!
//! Observability: `simpim.serve.*` counters and histograms (queue
//! depth, batch size, latency, sheds) flow into the same process-wide
//! registry as the rest of the stack and land in run artifacts.

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod flight;
pub mod replica;
pub mod shard;

/// A `(global id, measure value)` neighbor pair, best first in result
/// vectors — the same shape `mining::knn` returns.
pub type Neighbor = (usize, f64);

pub use engine::{EngineStats, Pending, ServeConfig, ServeEngine, StageLatency};
pub use error::ServeError;
pub use flight::{FlightRecorder, FlightRecorderStats, Outcome, QuerySpan, QueryTrace};
pub use replica::{ReplicaSet, ReplicaSetStats, ReplicaState, RouteSample};
pub use shard::{Residency, Shard, ShardConfig, ShardMirror, ShardStats};
