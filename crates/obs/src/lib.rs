#![warn(missing_docs)]
//! # simpim-obs
//!
//! Observability for the simpim workspace: the measurement substrate the
//! paper's whole method rests on (Sec. IV profiling, Eq. 2 oracle, Eq. 13
//! plan optimization) made first-class and exportable.
//!
//! Three layers, all vendored-offline-friendly (zero dependencies):
//!
//! * [`trace`] — hierarchical **span tracing**: `span!("stage", attr = v)`
//!   scopes with monotonic timing, attribute/counter deltas and
//!   parent/child nesting, recorded into a bounded in-memory journal and
//!   dumpable as JSONL. Off by default; the disabled fast path is one
//!   relaxed atomic load, cheap enough to leave compiled into release
//!   builds.
//! * [`metrics`] — a process-wide **metrics registry** with counters,
//!   gauges and log-linear histograms, keyed by the naming convention
//!   `simpim.<crate>.<stage>.<metric>`. Always on.
//! * [`slo`] — **declarative service-level objectives** (`p99 ≤ 2ms`,
//!   `availability ≥ 99.9%`) evaluated from the histograms, reporting
//!   attainment, error-budget remaining, and burn rate.
//! * [`artifact`] — a **schema-versioned run artifact** (`RunArtifact`):
//!   one JSON document per bench run carrying the per-stage breakdown,
//!   metrics snapshot, dataset spec and config, written as
//!   `BENCH_<name>.json` files that seed the perf-trajectory history.
//!
//! Serialization uses the in-tree [`json`] module (the workspace links no
//! serialization framework): a small JSON value model with a writer, a
//! parser, and the [`json::ToJson`] / [`json::FromJson`] traits the other
//! crates implement for their report types.

pub mod artifact;
pub mod json;
pub mod metrics;
pub mod slo;
pub mod trace;

pub use artifact::{RunArtifact, StageRecord, SCHEMA_VERSION};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use metrics::{Histogram, Metric, MetricsSnapshot};
pub use slo::{SloObjective, SloReport, SloSpec};
pub use trace::{JournalStats, SpanGuard, SpanRecord, TraceCtx};

/// Opens a traced span scope. Returns a [`trace::SpanGuard`] that closes
/// the span when dropped; bind it to a named variable (`let _sp = ...`) so
/// the scope covers the intended region (a bare `let _ =` drops
/// immediately).
///
/// ```
/// use simpim_obs::span;
/// simpim_obs::trace::enable(1024);
/// {
///     let mut sp = span!("mining.knn.filter", query = 3);
///     sp.record("candidates", 42.0);
/// } // span closes here
/// let spans = simpim_obs::trace::drain();
/// assert_eq!(spans[0].name, "mining.knn.filter");
/// simpim_obs::trace::disable();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::open_span($name, &[])
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::trace::open_span(
            $name,
            &[$((stringify!($key), ($value) as f64)),+],
        )
    };
}
