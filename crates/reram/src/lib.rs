#![warn(missing_docs)]
//! # simpim-reram
//!
//! A functional + timing simulator for ReRAM crossbar processing-in-memory,
//! standing in for the NVSim-modeled hardware of the paper (Section II-A,
//! III-A and VI-A).
//!
//! ## What is modeled
//!
//! * [`cell`] — a single ReRAM cell holding an `h`-bit conductance level,
//!   with per-cell write-endurance accounting (ReRAM endurance is limited:
//!   Table 1 lists 10⁸–10¹¹ writes).
//! * [`crossbar`] — an `m×m` crossbar executing the analog dot-product of
//!   Fig. 1: inject voltages on wordlines, read per-bitline currents.
//! * [`bitslice`] — operand slicing for `b > h` (Fig. 2): a `b`-bit operand
//!   occupies `⌈b/h⌉` adjacent cells; inputs stream through the DAC
//!   `dac_bits` at a time; shift-and-add (S&A) recombines partial sums.
//! * [`gather`] — decomposition of `d > m` vectors over multiple data
//!   crossbars plus the all-ones *gather crossbar* reduction tree
//!   (Fig. 3 and Fig. 11), including the crossbar-count formulas of
//!   Eq. 11–12 that Theorem 4 builds on.
//! * [`mod@array`] — the three arrays of a ReRAM bank (Fig. 4b): the PIM array
//!   (a budget of `C` crossbars), the buffer array (eDRAM cache for PIM
//!   results) and the memory array (plain storage).
//! * [`bank`] — the bank controller tying the arrays together and exposing
//!   the offline *program* / online *dot-product batch* operations used by
//!   `simpim-core`'s executor.
//! * [`coarse`] — a region's coarse plane: its operands shifted to 8-bit
//!   cells, read first by a coalesced pass to bound every dot product
//!   from above, so the host simulation computes the fine dot only where
//!   the bound cannot decide.
//! * [`timing`] / [`energy`] — latency and energy accounting with the
//!   paper's Table 5 constants (256×256 2-bit cells, 29.31 / 50.88 ns
//!   read/write, 2 GB PIM array, 16 MB eDRAM buffer, 50 GB/s internal bus).
//! * [`variation`] / [`faults`] — beyond-the-paper robustness models:
//!   bounded analog conductance variation, and deterministic hard-fault
//!   injection (stuck cells, dead lines, ADC glitches, wear-out) with a
//!   scrub / health-classification / remap-to-spares recovery API.
//!
//! ## Fidelity modes
//!
//! A default 2 GB PIM array holds 131 072 crossbars of 65 536 cells each —
//! far too many to materialize cell-by-cell. The simulator therefore has two
//! execution paths that are *proven equivalent by tests*:
//!
//! * the **unit-level model** ([`crossbar::Crossbar`]) materializes cells and
//!   runs the full bit-sliced analog pipeline; it is exercised directly by
//!   unit/property tests and by small examples;
//! * the **array-level model** ([`array::PimArray`]) keeps the programmed
//!   integer matrix plus layout metadata, computes dot products directly,
//!   and charges the *same* cycle-accurate timing the unit-level pipeline
//!   would incur. Property tests assert both paths produce bit-identical
//!   results on randomized inputs.

pub mod array;
pub mod bank;
pub mod bitslice;
pub mod cell;
pub mod coarse;
pub mod config;
pub mod crossbar;
pub mod energy;
pub mod error;
pub mod faults;
pub mod gather;
pub mod timing;
pub mod variation;

/// The array-level model's one multiply-accumulate (`Σ aᵢ·bᵢ` of `u32`
/// operands modulo 2⁶⁴, SIMD-dispatched by `simpim-kern`), re-exported
/// so host-side exact fallbacks compute with the kernel the simulated
/// pass itself runs on.
pub use simpim_kern::dot_u32;

pub use array::{BufferArray, MemoryArray, PimArray, ProgramReport, RemapReport, ScrubReport};
pub use bank::{DotBatchResult, ReRamBank};
pub use config::{AccWidth, CrossbarConfig, PimConfig};
pub use crossbar::Crossbar;
pub use error::ReRamError;
pub use faults::{BankLoss, CellFault, CrossbarHealth, FaultConfig};
pub use gather::{crossbar_cost_per_pair, dataset_crossbar_cost, CrossbarCost};
pub use timing::PimTiming;
pub use variation::VariationModel;
