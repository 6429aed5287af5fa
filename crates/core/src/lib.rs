#![warn(missing_docs)]
//! # simpim-core
//!
//! The paper's primary contribution (Section V): making a similarity-based
//! mining algorithm aware of ReRAM PIM without compromising result
//! accuracy.
//!
//! * [`decompose`] — PIM-aware function decomposition (Section V-A,
//!   Table 4): rewrite `F(p,q) = G(Φ(p), Φ(q), p·q)` so the dot product
//!   runs on crossbars, `Φ` is precomputed offline, and `G` costs O(1) on
//!   the host with `3·b` bits of transfer instead of `d·b` (Fig. 8).
//! * [`pim_bounds`] — PIM-aware bound computation (Section V-B): ReRAM
//!   operands are non-negative integers, so exact floating-point functions
//!   are replaced by *provably correct* bounds over the α-quantized
//!   vectors — `LB_PIM-ED` (Theorem 1), `LB_PIM-FNN` (Theorem 2), the
//!   Theorem 3 error bound, plus the upper bounds for CS/PCC and the exact
//!   PIM Hamming distance the paper defers to its technical report.
//! * [`memory`] — PIM memory management (Section V-C, Theorem 4): choose
//!   the largest compressed dimensionality `s` whose data + gather
//!   crossbars fit the PIM array, avoiding endurance-burning
//!   re-programming.
//! * [`executor`] — the offline/online machinery of Fig. 9: quantize,
//!   program crossbars, stage Φ in the memory array, then serve batched
//!   bound computations (query → `⌊q̄⌋` → dot-product batch → `G` on host).
//! * [`planner`] — execution-plan optimization (Section V-D, Eq. 13):
//!   measure pruning ratios offline, enumerate the `2^L` bound subsets, and
//!   pick the cascade with least estimated data transfer.
//! * [`framework`] — the end-to-end recipe of Section III-B tying
//!   profiling output to an offload decision.

pub mod decompose;
pub mod error;
pub mod executor;
pub mod framework;
pub mod memory;
pub mod pim_bounds;
pub mod planner;
pub mod stage;

pub use error::CoreError;
pub use executor::{Bounds, PimExecutor, PreparedFunction, ResidentBuilder};
pub use memory::{choose_dimensionality, MemoryPlan};
pub use planner::{
    BankProfile, CandidateBound, ExecutionPlan, FleetPlan, FleetPlanner, Planner, PruningProfile,
    ShardPlacement,
};
pub use stage::PimStage;
