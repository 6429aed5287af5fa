#![warn(missing_docs)]
//! # simpim
//!
//! A Rust reproduction of *“Accelerating Similarity-based Mining Tasks on
//! High-dimensional Data by Processing-in-memory”* (ICDE 2021).
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`similarity`] — vectors, datasets, the ED/CS/PCC/HD measures,
//!   α-quantization and segment statistics.
//! * [`reram`] — functional + timing simulator for ReRAM crossbar PIM.
//! * [`simkit`] — host-side performance model (memory hierarchy, op costs).
//! * [`bounds`] — classic filter-and-refinement bounds (LB_OST, LB_SM,
//!   LB_FNN, UB_part).
//! * [`core`] — the paper's contribution: PIM-aware decomposition, PIM-aware
//!   bounds, PIM memory management, execution-plan optimization.
//! * [`mining`] — kNN and k-means algorithm families plus their
//!   PIM-optimized variants.
//! * [`profiling`] — function-level and hardware-component profiling,
//!   PIM-oracle estimation.
//! * [`datasets`] — seeded synthetic workloads mirroring the paper's eight
//!   datasets and its LSH binary codes.
//! * [`obs`] — span tracing, the metrics registry and schema-versioned run
//!   artifacts (see DESIGN.md §8).
//! * [`kern`] — runtime-dispatched SIMD distance kernels (AVX2 with a
//!   bit-identical portable fallback), selected once at startup
//!   and overridable with `SIMPIM_KERNEL` (see DESIGN.md §14).
//! * [`par`] — the deterministic data-parallel execution layer: a
//!   dependency-free persistent thread pool with fixed chunk boundaries and
//!   ordered reduction, so results are bit-identical at any thread count
//!   (see DESIGN.md §10).
//! * [`serve`] — the online query-serving engine: sharded resident
//!   datasets, batch-coalescing scheduler, online insert/delete with
//!   wear-aware reprogramming (see DESIGN.md §9).
//! * [`net`] — the dependency-free TCP RPC front-end: length-prefixed
//!   binary frames, a pipelined client, open-loop load generation with
//!   tail-latency SLO gating (see DESIGN.md §13).
//! * [`mod@bench`] — shared experiment-harness infrastructure (scaled
//!   workloads, run artifacts).
//!
//! See `examples/quickstart.rs` for an end-to-end tour and
//! `examples/online_serving.rs` for the serving path.

pub use simpim_bench as bench;
pub use simpim_bounds as bounds;
pub use simpim_core as core;
pub use simpim_datasets as datasets;
pub use simpim_kern as kern;
pub use simpim_mining as mining;
pub use simpim_net as net;
pub use simpim_obs as obs;
pub use simpim_par as par;
pub use simpim_profiling as profiling;
pub use simpim_reram as reram;
pub use simpim_serve as serve;
pub use simpim_similarity as similarity;
pub use simpim_simkit as simkit;
