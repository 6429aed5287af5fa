#![warn(missing_docs)]
//! # simpim-reram
//!
//! A functional + timing simulator for ReRAM crossbar processing-in-memory,
//! standing in for the NVSim-modeled hardware of the paper (Section II-A,
//! III-A and VI-A).
//!
//! ## What is modeled
//!
//! * [`bitslice`] — operand slicing for `b > h` (Fig. 2): a `b`-bit operand
//!   occupies `⌈b/h⌉` adjacent cells; inputs stream through the DAC
//!   `dac_bits` at a time; shift-and-add (S&A) recombines partial sums.
//! * [`gather`] — decomposition of `d > m` vectors over multiple data
//!   crossbars plus the all-ones *gather crossbar* reduction tree
//!   (Fig. 3 and Fig. 11), including the crossbar-count formula of
//!   Eq. 12 that Theorem 4 builds on.
//! * [`mod@array`] — the three arrays of a ReRAM bank (Fig. 4b): the PIM array
//!   (a budget of `C` crossbars), the buffer array (eDRAM cache for PIM
//!   results) and the memory array (plain storage).
//! * [`bank`] — the bank controller tying the arrays together and exposing
//!   the offline *program* and the online *read* used by `simpim-core`'s
//!   executor.
//! * [`coarse`] — a region's coarse plane: its operands shifted to 12-bit
//!   cells, read first by a coalesced pass to bound every dot product
//!   from above, so the host simulation computes the fine dot only where
//!   the bound cannot decide.
//! * [`timing`] / [`energy`] — latency and energy accounting with the
//!   paper's Table 5 constants (256×256 2-bit cells, 29.31 / 50.88 ns
//!   read/write, 2 GB PIM array, 16 MB eDRAM buffer, 50 GB/s internal bus).
//! * [`faults`] — a beyond-the-paper robustness model: deterministic
//!   hard-fault injection (stuck cells, dead lines, ADC glitches,
//!   wear-out) with a scrub / health-classification / remap-to-spares
//!   recovery API.
//!
//! ## One dot-product path, and its test oracle
//!
//! A default 2 GB PIM array holds 131 072 crossbars of 65 536 cells each —
//! far too many to materialize cell-by-cell. The **array-level model**
//! ([`array::PimArray`]) keeps the programmed integer matrix plus layout
//! metadata, computes dot products directly, and charges the cycle-accurate
//! timing the bit-sliced pipeline would incur. It is the only dot-product
//! path the library ships, and a coalesced read is its one front at each
//! layer: [`PimArray::read`] and [`ReRamBank::read`] take the passes of a
//! batch (one query streamed through one region each) and a [`Read`] —
//! [`Read::Fine`] computes the dot products, [`Read::Coarse`] lets a
//! region's passes read its coarse plane — and return one [`PassResult`]
//! per pass. The device is charged the same either way.
//!
//! The **unit-level model** is its test oracle and is compiled only under
//! test: materialized ReRAM cells with write-endurance counters, an `m×m`
//! crossbar running the full bit-sliced analog pipeline of Fig. 1–2 (ideal,
//! under bounded conductance variation, or under the fault model), and a
//! strict pass of the array that lays a region out on such crossbars.
//! Unit and property tests assert both paths return bit-identical results
//! on randomized layouts.

pub mod array;
pub mod bank;
pub mod bitslice;
pub mod coarse;
pub mod config;
pub mod energy;
pub mod error;
pub mod faults;
pub mod gather;
pub mod timing;

// The unit-level test oracle (see "One dot-product path" above); each
// file is `#![cfg(test)]`.
mod cell;
mod crossbar;
mod variation;

/// The array-level model's one multiply-accumulate (`Σ aᵢ·bᵢ` of `u32`
/// operands modulo 2⁶⁴, SIMD-dispatched by `simpim-kern`), re-exported
/// so host-side exact fallbacks compute with the kernel the simulated
/// pass itself runs on.
pub use simpim_kern::dot_u32;

pub use array::{
    BufferArray, MemoryArray, PassResult, PimArray, ProgramReport, Read, RemapReport, ScrubReport,
};
pub use bank::ReRamBank;
pub use config::{AccWidth, CrossbarConfig, PimConfig};
pub use error::ReRamError;
pub use faults::{BankLoss, CellFault, CrossbarHealth, FaultConfig};
pub use gather::{dataset_crossbar_cost, CrossbarCost};
pub use timing::PimTiming;
