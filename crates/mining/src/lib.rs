#![warn(missing_docs)]
//! # simpim-mining
//!
//! The similarity-based mining algorithms of Section II-C, instrumented
//! with `simpim-profiling` counters, plus the PIM-optimized variant of
//! every algorithm (Section VI-B naming: `X` → `X-PIM`):
//!
//! **kNN classification** (Section VI-C)
//! * [`knn::standard`] — linear scan (`Standard`).
//! * [`knn::cascade`] — the shared filter-and-refinement engine; with the
//!   appropriate bound cascade it realizes `OST` \[24\], `SM` \[25\] and
//!   `FNN` \[26\] (three-level `LB_FNN^{d/64→d/16→d/4}` pipeline,
//!   Fig. 12a).
//! * [`knn::hamming`] — linear scan on binary codes (kNN on HD; no better
//!   technique than scanning is known \[28\]).
//! * [`knn::pim`] — `Standard-PIM`, `OST/SM/FNN-PIM` and
//!   `FNN-PIM-optimize`: the PIM-aware bound batch runs first (or per the
//!   optimized plan of Section V-D), then surviving candidates refine
//!   exactly on the host. Results are **identical** to the baselines.
//!
//! **k-means clustering** (Section VI-D)
//! * [`kmeans::lloyd`] — `Standard` Lloyd iteration \[48\].
//! * [`kmeans::elkan`] — Elkan's triangle-inequality filter \[30\]
//!   (k lower bounds per point).
//! * [`kmeans::drake`] — Drake's adaptive-bound variant \[31\] (b < k
//!   sorted bounds).
//! * [`kmeans::yinyang`] — Yinyang's global/group filtering \[29\].
//! * [`kmeans::pim`] — each algorithm with `LB_PIM-ED` filtering inserted
//!   before every exact ED it would compute in the assign step.
//!
//! **Further similarity-based tasks** (Section II-C's wider list). Each
//! task is one body under its baseline and PIM fronts, over one private
//! anchor driver that owns the report, the counters and the anchors' PIM
//! bounds — fetched 64 anchors per fine coalesced pass, and one
//! anchor per pass for DBSCAN, whose expansion picks its next anchor from
//! the last answer.
//! * [`outlier`] — distance-based outlier detection (top-m by k-NN
//!   distance, ORCA-style cutoff) with lossless `LB_PIM` filtering.
//! * [`dbscan`] — density-based clustering whose ε-range queries are
//!   bound-filtered on PIM.
//! * [`motif`] — time-series motif discovery and discord (anomaly)
//!   detection over sliding windows.
//!
//! Every run returns a [`report::RunReport`] carrying the function-level
//! profile, the Eq. 1 hardware breakdown for both DRAM and ReRAM main
//! memory, and the PIM-side latency — the raw material of every figure in
//! the evaluation.

mod anchors;
pub mod dbscan;
pub mod error;
pub mod kmeans;
pub mod knn;
pub mod motif;
pub mod outlier;
pub mod report;

pub use error::MiningError;
pub use report::{Architecture, RunReport};
