#![warn(missing_docs)]
//! # simpim-datasets
//!
//! Seeded synthetic workloads mirroring the paper's eight real datasets
//! (Table 6) and its LSH binary-code workload (Fig. 14).
//!
//! The real datasets are not redistributable here, so each is replaced by
//! a generator matched on the properties the experiments actually depend
//! on:
//!
//! * **shape** — `N` and `d` from Table 6 (down-scalable; benches default
//!   to a laptop-scale fraction via `SIMPIM_SCALE`);
//! * **prunability** — cluster count and spread control how well distance
//!   bounds separate near from far objects;
//! * **segment-statistic uniformity** — the knob behind the paper's GIST
//!   observation (`LB_FNN` reaches only 71.3% of the exact distance on
//!   GIST vs 95.4% on MSD): with high uniformity every object shares the
//!   same per-segment mean/σ, blinding segmented bounds while exact
//!   distances still vary.
//!
//! All generation is deterministic given the seed.

pub mod io;
pub mod lsh;
pub mod queries;
pub mod spec;
pub mod stream;
pub mod synth;
pub mod timeseries;

pub use lsh::lsh_codes;
pub use queries::sample_queries;
pub use spec::{DatasetSpec, PaperDataset};
pub use stream::{
    DatasetSource, InMemorySource, LshCodeSource, SynthSource, TimeseriesWindowSource,
    DEFAULT_BLOCK_ROWS,
};
pub use synth::{generate, generate_labeled, SyntheticConfig};
