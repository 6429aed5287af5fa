//! The three arrays of a ReRAM bank (Fig. 4b): PIM array, buffer array,
//! memory array.
//!
//! [`PimArray`] is the array-level model: it tracks the programmed integer
//! matrices ("regions"), their crossbar layout and endurance counters, and
//! answers dot-product batches with the exact integers the bit-sliced
//! pipeline would produce (see the crate docs on fidelity modes) together
//! with the cycle-derived timing. A *region* is one programmed matrix —
//! e.g. `⌊p̄⌋` for `LB_PIM-ED`, or the `⌊µ(p̂)⌋` / `⌊σ(p̂)⌋` pair for
//! `LB_PIM-FNN`, or the code/complement pair for Hamming distance.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use simpim_kern::U12Queries;

use crate::bitslice::{bits_needed, bits_needed_slice};
use crate::coarse::{self, Plane};
use crate::config::{AccWidth, PimConfig};
use crate::energy::{EnergyModel, EnergyReport};
use crate::error::ReRamError;
use crate::faults::{CellFault, CrossbarHealth, FaultConfig};
use crate::gather::{dataset_crossbar_cost, CrossbarCost};
use crate::timing::{dot_batch_timing, program_timing_ns, PimTiming};

/// Objects per pool task when a dot-product batch fans out. A fixed
/// constant (never derived from the worker count) so chunk boundaries —
/// and therefore results — are identical at every `SIMPIM_THREADS`.
const DOT_BATCH_CHUNK: usize = 256;

/// Rows a task asks the cache for ahead of the one it is multiplying when
/// a batch shares the read. A constant like [`DOT_BATCH_CHUNK`].
const PREFETCH_ROWS: usize = 4;

/// Identifies one programmed region of the PIM array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub usize);

/// Outcome of programming one region (offline stage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramReport {
    /// Handle for issuing queries against this region.
    pub region: RegionId,
    /// Crossbars consumed.
    pub cost: CrossbarCost,
    /// Individual cell programming pulses.
    pub cell_writes: u64,
    /// Crossbar rows programmed (one write pulse each).
    pub rows_written: u64,
    /// Offline programming latency in nanoseconds.
    pub program_ns: f64,
    /// Programming energy in joules.
    pub energy_j: f64,
}

/// How the host simulation of a coalesced read ([`PimArray::read`])
/// computes a region's passes. The modeled device runs and is charged the
/// same passes either way — timing, energy and every count bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// The dot products.
    Fine,
    /// Coarse first where that is proven to change nothing: a region
    /// whose passes take the coarse plane ([`crate::coarse`]) multiplies
    /// only its 12-bit cells, and those passes' values are
    /// [`coarse::dot_bound`]s, integers no smaller than the dot products;
    /// [`PimArray::dot_rows`] computes the dot products of chosen rows
    /// afterwards.
    ///
    /// A region's passes read coarse when there are two or more of them
    /// (a single pass stays the plain read the traced replay times), no
    /// fault model is active (a read through faults is not the stored
    /// matrix), the accumulator is 64 bits wide and every query's
    /// operands fit a cell at the region's shift. The modeled gather
    /// clock needs each pass's largest crossbar partial only to its
    /// `⌈bits / dac_bits⌉`: the coarse partials bracket every fine one
    /// (the module docs of [`crate::coarse`]), and the rows whose bracket
    /// could still change that count are read fine.
    Coarse,
}

/// One pass of a coalesced read ([`PimArray::read`],
/// [`crate::ReRamBank::read`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PassResult {
    /// Per-object dot products, wrapped at the accumulator width — or,
    /// where `read` is [`Read::Coarse`], upper bounds of them.
    pub values: Vec<u64>,
    /// PIM-side latency (crossbar passes + gather + bus + buffer).
    pub timing: PimTiming,
    /// How the host read this pass: [`Read::Coarse`] only where that was
    /// asked for and the region's passes qualify.
    pub read: Read,
}

#[derive(Debug, Clone)]
struct Region {
    data: Vec<u32>,
    n: usize,
    /// Objects the allocation was sized for (`>= n`); rows `n..capacity`
    /// are spare — allocated but never programmed — and are filled by
    /// [`PimArray::append_rows`] without reprogramming the region.
    capacity: usize,
    s: usize,
    operand_bits: u32,
    /// Width of the widest operand ever programmed (at most
    /// `operand_bits`). It only grows — a rewrite or truncation that drops
    /// the widest row keeps it — so it stays a bound on every stored row.
    widest_bits: u32,
    cost: CrossbarCost,
    /// First physical crossbar id of this region's allocation; local
    /// crossbar `l` lives at physical id `base_crossbar + l` unless
    /// remapped onto a spare.
    base_crossbar: usize,
    /// Mid-stream fill in progress ([`PimArray::begin_region_streamed`]):
    /// the initial matrix is arriving block-by-block, wear for the whole
    /// allocation was already charged at `begin`, and queries/appends are
    /// rejected until [`PimArray::finish_region`] seals the region.
    filling: bool,
    /// Local crossbar → spare physical crossbar substitutions installed by
    /// [`PimArray::remap_dead`].
    remap: HashMap<usize, usize>,
    /// The coarse plane, once a coarse read asked for it
    /// ([`Read::Coarse`]); kept in step with every write at
    /// its shift, dropped by a write that changes the shift.
    plane: Option<Plane>,
}

impl Region {
    /// Whether a row of this region against `input_bits`-bit queries sums
    /// exactly in `f64`: each product is below
    /// `2^(widest_bits + input_bits)`, so the row's sum, and every
    /// crossbar chunk's in it, is an integer below 2⁵³ when
    /// `widest_bits + input_bits + ⌈log₂ s⌉ ≤ 53` — with the stored
    /// operands below 2³¹, where `simpim-kern`'s signed convert reads them
    /// right. Then [`simpim_kern::dot_multi_f64`] is exact.
    fn f64_exact(&self, input_bits: u32) -> bool {
        let log_s = self.s.next_power_of_two().trailing_zeros();
        self.widest_bits <= 31 && self.widest_bits + input_bits + log_s <= 53
    }

    /// Widest a stored operand can read: a stuck-high cell can raise one
    /// up to the full width of its `⌈b/h⌉` cells, so that width sizes the
    /// exact MAC blocks.
    fn stored_bits(&self, xb: &crate::config::CrossbarConfig) -> u32 {
        (xb.cells_per_operand(self.operand_bits) as u32 * xb.cell_bits).min(32)
    }

    #[inline]
    fn phys(&self, local: usize) -> usize {
        self.remap
            .get(&local)
            .copied()
            .unwrap_or(self.base_crossbar + local)
    }
}

/// Rejects the first value of `flat` that overflows `operand_bits`, else
/// returns the width of the widest one ([`bits_needed`] of their OR).
fn check_operands(flat: &[u32], operand_bits: u32) -> Result<u32, ReRamError> {
    let widest = bits_needed(u64::from(flat.iter().fold(0, |all, &v| all | v)));
    if widest <= operand_bits {
        return Ok(widest);
    }
    let v = flat
        .iter()
        .find(|&&v| bits_needed(u64::from(v)) > operand_bits);
    Err(ReRamError::OperandOverflow {
        value: u64::from(*v.expect("a value wider than the OR's bound")),
        bits: operand_bits,
    })
}

/// Longest run of operands whose products are guaranteed to sum below
/// 2⁶⁴: each product of a `stored_bits`-bit and an `input_bits`-bit
/// value is below `2^(stored_bits + input_bits)`, so
/// `2^(64 − stored_bits − input_bits)` of them cannot carry out of a
/// `u64`. One operand at 32 + 32 bits; 4096 — sixteen crossbar chunks
/// of the default `m = 256` — for the executor's default 32-bit operand
/// slots against α = 10⁶ (20-bit) queries.
fn exact_block_len(stored_bits: u32, input_bits: u32) -> usize {
    1usize
        << 64u32
            .saturating_sub(stored_bits + input_bits)
            .min(usize::BITS - 1)
}

/// One stored row against one query as the array computes it: one partial
/// sum per crossbar chunk of `m` operands, the partials added by the
/// gather tree. Returns the exact total and the largest partial (clamped
/// to `u64`), which sizes the gather pass in [`PimTiming`]. `mac` is the
/// `simpim-kern` integer kernel `dot_u32`, exact modulo 2⁶⁴; it runs on
/// blocks of at most `block` operands so that no block wraps, and the
/// blocks are added in `u128`. `block` is the [`exact_block_len`] of the
/// widest query of the read: a shorter block than a query needs is still
/// exact, and `u128` sums do not depend on where the blocks were cut.
fn row_dot(
    mac: fn(&[u32], &[u32]) -> u64,
    query: &[u32],
    row: &[u32],
    m: usize,
    block: usize,
) -> (u128, u64) {
    let mut total = 0u128;
    let mut max_partial = 0u64;
    for chunk in (0..row.len()).step_by(m) {
        let chunk_end = (chunk + m).min(row.len());
        let mut partial = 0u128;
        for start in (chunk..chunk_end).step_by(block) {
            let end = start.saturating_add(block).min(chunk_end);
            partial += u128::from(mac(&query[start..end], &row[start..end]));
        }
        max_partial = max_partial.max(partial.min(u128::from(u64::MAX)) as u64);
        total += partial;
    }
    (total, max_partial)
}

thread_local! {
    /// A coarse task's kernel outputs, kept by each thread from one task
    /// to the next: the kernel overwrites what a task reads of it.
    static COARSE_OUT: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The largest of `values` (0 for none), each below 2⁶³ as every sum of a
/// coarse read is (`coarse::fits`): compared as `i64`, eight running
/// maxima at a time, which baseline x86-64 compares in far fewer steps
/// than one `u64` maximum after the other.
fn largest(values: &[u64]) -> u64 {
    let mut lanes = [0i64; 8];
    let mut chunks = values.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane).max(v as i64);
        }
    }
    let rest = chunks.remainder().iter().map(|&v| v as i64);
    lanes.into_iter().chain(rest).fold(0, i64::max) as u64
}

/// Fans a read of the rows `data` (`s` elements a row) out over the pool
/// in fixed [`DOT_BATCH_CHUNK`]-row tasks: `task(first, rows, outs)` gets
/// its first row's index, its rows, and the `q` queries' output slices
/// for them, query by query. Returns every query's outputs and the tasks'
/// results in task order. It allocates per read, not per task.
fn fan_out<E: Sync, T: Send>(
    data: &[E],
    s: usize,
    q: usize,
    task: impl Fn(usize, &[E], &mut [&mut [u64]]) -> T + Sync,
) -> (Vec<Vec<u64>>, Vec<T>) {
    let n = data.len() / s;
    let mut values = vec![vec![0u64; n]; q];
    let mut chunks: Vec<_> = values
        .iter_mut()
        .map(|v| v.chunks_mut(DOT_BATCH_CHUNK))
        .collect();
    let tasks = n.div_ceil(DOT_BATCH_CHUNK);
    let mut outs = Vec::with_capacity(tasks * q);
    for _ in 0..tasks {
        outs.extend(
            chunks
                .iter_mut()
                .map(|c| c.next().expect("an output chunk per row chunk")),
        );
    }
    let task = &task;
    let jobs = data
        .chunks(DOT_BATCH_CHUNK * s)
        .zip(outs.chunks_mut(q.max(1)))
        .enumerate()
        .map(|(c, (rows, outs))| move || task(c * DOT_BATCH_CHUNK, rows, outs))
        .collect();
    let results = simpim_par::join_all(jobs);
    (values, results)
}

/// Per-region fault survey: which crossbars are corrupted, by how much
/// each stored object deviates, and the emulated faulty read-outs. The
/// survey doubles as the detection state behind the scrub/health API and
/// as the emulation table for [`PimArray::dot_batch`] under faults.
#[derive(Debug, Clone)]
struct RegionFaultInfo {
    /// Health per local crossbar (data crossbars first, then gather).
    health: Vec<CrossbarHealth>,
    /// Per object: `Σ_dims |v_faulty − v_true|` — the worst-case stored
    /// deviation, which bounds the dot-product error by
    /// `max_query_level · discrepancy`.
    discrepancy: Vec<u64>,
    /// Emulated faulty stored rows, for objects whose data crossbars are
    /// corrupted (sparse: untouched objects read exactly).
    faulty_rows: HashMap<usize, Vec<u32>>,
    /// Objects served by a dead crossbar (worn, dead line, or corrupted
    /// gather fabric) — their PIM read-outs are untrustworthy.
    dead_objects: Vec<bool>,
    /// ADC glitch retries spent probing this region's crossbars.
    retries: u64,
    /// Cells whose read-out differs from their programmed level.
    faulty_cells: u64,
}

/// Outcome of scrubbing one region against its fault map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubReport {
    /// The scrubbed region.
    pub region: RegionId,
    /// Crossbars probed (the region's full allocation).
    pub crossbars_checked: usize,
    /// Cells whose read-out differs from their programmed level.
    pub faulty_cells: u64,
    /// ADC glitch retries spent during the probe.
    pub adc_retries: u64,
    /// Crossbars with no fault in their programmed area.
    pub healthy: usize,
    /// Crossbars corrupted by a bounded, known amount.
    pub drifted: usize,
    /// Crossbars that must be remapped or quarantined.
    pub dead: usize,
    /// Scrub latency in nanoseconds (one canary probe per crossbar plus
    /// glitch retries).
    pub scrub_ns: f64,
}

/// Outcome of remapping a region's dead crossbars onto spare capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemapReport {
    /// The repaired region.
    pub region: RegionId,
    /// Dead crossbars successfully remapped onto spares.
    pub remapped_crossbars: usize,
    /// Objects still served by a dead crossbar afterwards (no clean spare
    /// left) — callers must route these through exact host evaluation.
    pub quarantined_objects: usize,
    /// Cell programming pulses spent reprogramming spares.
    pub cell_writes: u64,
    /// Reprogramming latency in nanoseconds.
    pub program_ns: f64,
}

/// The PIM array: a budget of `C` crossbars holding programmed regions.
#[derive(Debug, Clone)]
pub struct PimArray {
    cfg: PimConfig,
    energy_model: EnergyModel,
    regions: Vec<Region>,
    used_crossbars: usize,
    total_cell_writes: u64,
    energy: EnergyReport,
    faults: Option<FaultConfig>,
    /// Program cycles per physical crossbar (wear-out driver); persists
    /// across [`PimArray::clear`] like the cell-write counters.
    xb_programs: Vec<u32>,
    /// Fault survey per region, computed lazily / by scrubbing.
    fault_info: Vec<Option<RegionFaultInfo>>,
}

impl PimArray {
    /// A blank PIM array.
    pub fn new(cfg: PimConfig) -> Result<Self, ReRamError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            energy_model: EnergyModel::default(),
            regions: Vec::new(),
            used_crossbars: 0,
            total_cell_writes: 0,
            energy: EnergyReport::default(),
            faults: None,
            xb_programs: Vec::new(),
            fault_info: Vec::new(),
        })
    }

    /// Platform configuration.
    #[inline]
    pub fn config(&self) -> &PimConfig {
        &self.cfg
    }

    /// Crossbars currently allocated to regions.
    #[inline]
    pub fn used_crossbars(&self) -> usize {
        self.used_crossbars
    }

    /// Crossbars still available.
    #[inline]
    pub fn free_crossbars(&self) -> usize {
        self.cfg.num_crossbars - self.used_crossbars
    }

    /// Cumulative cell programming pulses (endurance metric).
    #[inline]
    pub fn total_cell_writes(&self) -> u64 {
        self.total_cell_writes
    }

    /// Accumulated energy report.
    #[inline]
    pub fn energy(&self) -> &EnergyReport {
        &self.energy
    }

    /// Programs a region of `n` vectors × `s` dimensions (`flat` row-major)
    /// with `operand_bits`-wide operands. Fails when values overflow the
    /// operand width or when the crossbar budget is exhausted.
    pub fn program_region(
        &mut self,
        flat: &[u32],
        n: usize,
        s: usize,
        operand_bits: u32,
    ) -> Result<ProgramReport, ReRamError> {
        self.program_region_with_capacity(flat, n, n, s, operand_bits)
    }

    /// Like [`PimArray::program_region`] but allocates crossbars for
    /// `capacity >= n` objects while programming only the first `n`. The
    /// spare rows cost crossbar budget up front but no programming pulses;
    /// [`PimArray::append_rows`] fills them online. This is what keeps a
    /// *resident* dataset mutable without a full re-program per insert.
    pub fn program_region_with_capacity(
        &mut self,
        flat: &[u32],
        n: usize,
        capacity: usize,
        s: usize,
        operand_bits: u32,
    ) -> Result<ProgramReport, ReRamError> {
        if n == 0 || flat.len() != n * s {
            return Err(ReRamError::InvalidConfig {
                what: "region shape does not match buffer",
            });
        }
        self.alloc_region(flat, capacity, s, operand_bits, false)
    }

    /// Allocates a region sized for `capacity` objects with **no** data
    /// rows programmed yet; the initial matrix arrives block-by-block via
    /// [`PimArray::fill_rows`] and is sealed by
    /// [`PimArray::finish_region`]. `begin` charges the gather-tree
    /// programming and one wear cycle on the *whole* allocation (exactly
    /// what one-shot programming charges up front), each fill charges only
    /// its rows' write pulses, and because the per-row latency/energy
    /// terms are linear in rows, a region filled in any number of blocks
    /// ends with cell-write, wear, latency, and energy totals identical to
    /// one-shot programming of the same matrix.
    pub fn begin_region_streamed(
        &mut self,
        capacity: usize,
        s: usize,
        operand_bits: u32,
    ) -> Result<ProgramReport, ReRamError> {
        self.alloc_region(&[], capacity, s, operand_bits, true)
    }

    /// The one region allocator behind one-shot and streamed programming:
    /// validates the shape, sizes the allocation for `capacity` objects,
    /// charges one program cycle of wear on every crossbar of it, and
    /// stores `flat` (whole rows, possibly none) as the initial matrix.
    /// The report covers the all-ones gather trees plus the initial rows.
    fn alloc_region(
        &mut self,
        flat: &[u32],
        capacity: usize,
        s: usize,
        operand_bits: u32,
        filling: bool,
    ) -> Result<ProgramReport, ReRamError> {
        if s == 0 || capacity == 0 || flat.len() / s > capacity {
            return Err(ReRamError::InvalidConfig {
                what: "region needs non-zero s and a capacity covering its rows",
            });
        }
        if operand_bits == 0 || operand_bits > 32 {
            return Err(ReRamError::InvalidConfig {
                what: "operand_bits must be in 1..=32",
            });
        }
        let widest_bits = check_operands(flat, operand_bits)?;
        let cost = dataset_crossbar_cost(capacity, s, operand_bits, &self.cfg.crossbar)?;
        if cost.total() > self.free_crossbars() {
            return Err(ReRamError::InsufficientCapacity {
                required: cost.total(),
                available: self.free_crossbars(),
            });
        }

        let region = RegionId(self.regions.len());
        let base_crossbar = self.used_crossbars;
        self.used_crossbars += cost.total();
        // One program cycle of wear on every crossbar of the allocation
        // (clear + reprogram reuses physical ids, so wear accumulates).
        if self.xb_programs.len() < self.used_crossbars {
            self.xb_programs.resize(self.used_crossbars, 0);
        }
        for p in &mut self.xb_programs[base_crossbar..self.used_crossbars] {
            *p += 1;
        }
        // Room for every row up front: a streamed fill or an append never
        // moves the rows.
        let mut data = Vec::with_capacity(capacity * s);
        data.extend_from_slice(flat);
        self.regions.push(Region {
            data,
            n: flat.len() / s,
            capacity,
            s,
            operand_bits,
            widest_bits,
            cost,
            base_crossbar,
            remap: HashMap::new(),
            filling,
            plane: None,
        });
        self.fault_info.push(None);
        // The all-ones gather trees program row-parallel (uniform level,
        // no verify-per-value) and in full at allocation.
        let xb = self.cfg.crossbar;
        Ok(self.charge_program(
            region,
            flat.len() as u64,
            cost.gather as u64 * xb.cells() as u64,
            cost.gather as u64 * xb.size as u64,
        ))
    }

    /// Charges the programming of `operands` stored operands of `region`
    /// plus `gather_cells` / `gather_rows` of all-ones fabric to the
    /// endurance, energy and latency models. Programming granularity: one
    /// program-and-verify pulse per stored operand (its ⌈b/h⌉ cells share
    /// a word-line segment). This is what makes ReRAM pre-processing
    /// slower than DRAM despite writing less data (Fig. 17).
    fn charge_program(
        &mut self,
        region: RegionId,
        operands: u64,
        gather_cells: u64,
        gather_rows: u64,
    ) -> ProgramReport {
        let reg = &self.regions[region.0];
        let w = self.cfg.crossbar.cells_per_operand(reg.operand_bits) as u64;
        let cost = reg.cost;
        let cell_writes = operands * w + gather_cells;
        let rows_written = operands + gather_rows;
        let mut energy = EnergyReport::default();
        energy.charge_writes(&self.energy_model, cell_writes, self.cfg.crossbar.cell_bits);
        self.energy.add(&energy);
        self.total_cell_writes += cell_writes;
        ProgramReport {
            region,
            cost,
            cell_writes,
            rows_written,
            program_ns: program_timing_ns(&self.cfg, rows_written),
            energy_j: energy.total_j(),
        }
    }

    /// Streams one block of the initial matrix (`flat` row-major, `k × s`)
    /// into a region opened by [`PimArray::begin_region_streamed`]. Wear
    /// was charged for the whole allocation at `begin`; fills charge only
    /// the write pulses and energy of their own rows.
    pub fn fill_rows(
        &mut self,
        region: RegionId,
        flat: &[u32],
    ) -> Result<ProgramReport, ReRamError> {
        self.write_rows(region, None, flat, true)
    }

    /// Writes `flat` (row-major, `k × s`) over objects `at..at + k` of a
    /// region — at its end (`at = None`: the rows extend `n`) or over
    /// programmed rows (`at + k <= n`). The one body of
    /// [`PimArray::fill_rows`] (`filling`, wear already charged at begin),
    /// [`PimArray::append_rows`] and [`PimArray::rewrite_rows`] (sealed
    /// region: one program cycle of wear on each crossbar the rows land
    /// on, never on the rest).
    fn write_rows(
        &mut self,
        region: RegionId,
        at: Option<usize>,
        flat: &[u32],
        filling: bool,
    ) -> Result<ProgramReport, ReRamError> {
        let ri = region.0;
        let reg = self.regions.get(ri).ok_or(ReRamError::NotProgrammed)?;
        if reg.filling != filling {
            return Err(ReRamError::InvalidConfig {
                what: if filling {
                    "fill_rows requires a region opened by begin_region_streamed"
                } else {
                    "region is mid-fill; seal it with finish_region first"
                },
            });
        }
        let s = reg.s;
        if flat.is_empty() || !flat.len().is_multiple_of(s) {
            return Err(ReRamError::InvalidConfig {
                what: "pushed buffer must be a non-empty multiple of s",
            });
        }
        let k = flat.len() / s;
        // A rewrite stays within the programmed rows, an append within
        // the allocation.
        let start = at.unwrap_or(reg.n);
        let limit = if at.is_some() { reg.n } else { reg.capacity };
        if start + k > limit {
            return Err(ReRamError::InsufficientCapacity {
                required: k,
                available: limit.saturating_sub(start),
            });
        }
        let widest_bits = check_operands(flat, reg.operand_bits)?;

        if !filling {
            let m = self.cfg.crossbar.size;
            let w = self.cfg.crossbar.cells_per_operand(reg.operand_bits);
            let mut touched: Vec<usize> = Vec::new();
            for obj in start..start + k {
                for dim in (0..s).step_by(m.max(1)) {
                    let (local, _, _) = Self::locate(reg, m, w, obj, dim);
                    touched.push(reg.phys(local));
                }
            }
            touched.sort_unstable();
            touched.dedup();
            for phys in touched {
                if self.xb_programs.len() <= phys {
                    self.xb_programs.resize(phys + 1, 0);
                }
                self.xb_programs[phys] += 1;
            }
        }

        let reg = &mut self.regions[ri];
        reg.widest_bits = reg.widest_bits.max(widest_bits);
        if at.is_some() {
            reg.data[start * s..(start + k) * s].copy_from_slice(flat);
        } else {
            reg.data.extend_from_slice(flat);
            reg.n += k;
        }
        let shift = coarse::shift(reg.widest_bits);
        reg.plane = reg.plane.take().filter(|p| p.shift == shift);
        if let Some(plane) = &mut reg.plane {
            plane.write(start, flat, s, self.cfg.crossbar.size);
        }
        // The survey's per-object tables describe the old rows; recompute lazily.
        self.fault_info[ri] = None;
        Ok(self.charge_program(region, flat.len() as u64, 0, 0))
    }

    /// Reprograms objects `at..at + k` of a sealed region with `flat`
    /// (row-major, `k × s`; the rows must already be programmed). Wears
    /// only the crossbars the rewritten rows physically sit on and
    /// invalidates the region's fault survey, like
    /// [`PimArray::append_rows`].
    pub fn rewrite_rows(
        &mut self,
        region: RegionId,
        at: usize,
        flat: &[u32],
    ) -> Result<ProgramReport, ReRamError> {
        self.write_rows(region, Some(at), flat, false)
    }

    /// Shrinks a sealed region to its first `n` objects (`1..=n` of the
    /// current ones); the rows past `n` become spare again. Nothing is
    /// programmed, so nothing wears.
    pub fn truncate_rows(&mut self, region: RegionId, n: usize) -> Result<(), ReRamError> {
        let reg = self
            .regions
            .get_mut(region.0)
            .ok_or(ReRamError::NotProgrammed)?;
        if reg.filling || n == 0 || n > reg.n {
            return Err(ReRamError::InvalidConfig {
                what: "truncate_rows keeps 1..=n rows of a sealed region",
            });
        }
        reg.n = n;
        reg.data.truncate(n * reg.s);
        if let Some(plane) = &mut reg.plane {
            plane.truncate(n, reg.s);
        }
        self.fault_info[region.0] = None;
        Ok(())
    }

    /// Seals a streamed region: queries, appends, and scrubs become legal.
    /// Rejects an empty region — a fully streamed fill must still deliver
    /// at least one row, matching one-shot programming's `n >= 1`.
    pub fn finish_region(&mut self, region: RegionId) -> Result<(), ReRamError> {
        let reg = self
            .regions
            .get_mut(region.0)
            .ok_or(ReRamError::NotProgrammed)?;
        if !reg.filling {
            return Err(ReRamError::InvalidConfig {
                what: "finish_region requires a region opened by begin_region_streamed",
            });
        }
        if reg.n == 0 {
            return Err(ReRamError::InvalidConfig {
                what: "streamed region sealed with zero rows",
            });
        }
        reg.filling = false;
        Ok(())
    }

    /// Shape of a programmed region: `(n, s, operand_bits)`.
    pub fn region_shape(&self, region: RegionId) -> Result<(usize, usize, u32), ReRamError> {
        self.regions
            .get(region.0)
            .map(|r| (r.n, r.s, r.operand_bits))
            .ok_or(ReRamError::NotProgrammed)
    }

    /// Objects the region's allocation can hold (`>= n`); the difference
    /// to [`PimArray::region_shape`]'s `n` is the remaining spare rows.
    pub fn region_capacity(&self, region: RegionId) -> Result<usize, ReRamError> {
        self.regions
            .get(region.0)
            .map(|r| r.capacity)
            .ok_or(ReRamError::NotProgrammed)
    }

    /// Programs `flat` (row-major, `k × s`) into a region's spare rows,
    /// extending it from `n` to `n + k` objects without touching the
    /// already-programmed matrix. Wears only the crossbars that physically
    /// hold the new rows. Fails with
    /// [`ReRamError::InsufficientCapacity`] (in spare *rows*) when the
    /// region was not allocated enough capacity, and invalidates the
    /// region's fault survey — the next scrub or faulty read re-surveys.
    pub fn append_rows(
        &mut self,
        region: RegionId,
        flat: &[u32],
    ) -> Result<ProgramReport, ReRamError> {
        self.write_rows(region, None, flat, false)
    }

    /// True when an attached fault model can corrupt a read.
    fn faults_active(&self) -> bool {
        self.faults.is_some_and(|f| !f.is_inert())
    }

    /// Executes one dot-product batch: multiplies every programmed vector of
    /// `region` with `query`, wrapping results at the accumulator width
    /// (the paper keeps the least-significant 64 bits — 32 for binary
    /// codes). Returns the per-object results and the PIM-side timing.
    /// The one-pass fine call of [`PimArray::read`].
    ///
    /// Reading never wears cells; endurance counters are untouched.
    pub fn dot_batch(
        &mut self,
        region: RegionId,
        query: &[u32],
        acc: AccWidth,
    ) -> Result<(Vec<u64>, PimTiming), ReRamError> {
        let pass = self.read(&[(region, query)], acc, Read::Fine)?.pop();
        let pass = pass.expect("one result per pass");
        Ok((pass.values, pass.timing))
    }

    /// Executes the passes of a coalesced batch, each a query streamed
    /// through one region, and returns one [`PassResult`] per pass, in
    /// order. The modeled device runs them one after the other in the
    /// order given, so timing, energy and every value are those of as many
    /// [`PimArray::dot_batch`] calls; the host simulation reads each
    /// region once and multiplies its rows with all the queries streamed
    /// through it — coarse first where `read` asks and the region's passes
    /// qualify ([`Read::Coarse`]). Every pass is checked before the first
    /// one runs.
    pub fn read(
        &mut self,
        passes: &[(RegionId, &[u32])],
        acc: AccWidth,
        read: Read,
    ) -> Result<Vec<PassResult>, ReRamError> {
        let faults_active = self.faults_active();
        for &(region, query) in passes {
            if self
                .regions
                .get(region.0)
                .ok_or(ReRamError::NotProgrammed)?
                .filling
            {
                return Err(ReRamError::InvalidConfig {
                    what: "region is mid-fill; seal it with finish_region first",
                });
            }
            if faults_active {
                self.ensure_fault_info(region.0)?;
            }
            if query.len() != self.regions[region.0].s {
                return Err(ReRamError::GeometryViolation {
                    what: "query dimensionality",
                    got: query.len(),
                    limit: self.regions[region.0].s,
                });
            }
        }

        // Host side: the passes grouped by region (a stable sort, so the
        // queries of one region keep their order), one read per region.
        let mut reads = vec![(Vec::new(), 0u64, Read::Fine); passes.len()];
        let mut by_region: Vec<usize> = (0..passes.len()).collect();
        by_region.sort_by_key(|&i| passes[i].0 .0);
        for group in by_region.chunk_by(|&a, &b| passes[a].0 == passes[b].0) {
            let ri = passes[group[0]].0 .0;
            let queries: Vec<&[u32]> = group.iter().map(|&i| passes[i].1).collect();
            let coarse = read == Read::Coarse && self.reads_coarse(ri, &queries, acc);
            let (values, how) = if coarse {
                (self.read_region_coarse(ri, &queries, acc), Read::Coarse)
            } else {
                (self.read_region(ri, &queries, acc), Read::Fine)
            };
            for (&i, (values, max_partial)) in group.iter().zip(values) {
                reads[i] = (values, max_partial, how);
            }
        }

        // Device side, pass by pass in the order given.
        let charged = passes.iter().zip(reads);
        Ok(charged
            .map(|(&(region, query), (values, max_partial, read))| {
                let reg = &self.regions[region.0];
                let input_bits = bits_needed_slice(query);
                let partial_bits = bits_needed(max_partial).min(acc.bits());
                let mut timing =
                    dot_batch_timing(&self.cfg, &reg.cost, input_bits, partial_bits, reg.n, acc);
                let input_cycles = self.cfg.crossbar.input_cycles(input_bits);
                if faults_active {
                    // Every ADC glitch retry re-runs one streamed pass.
                    let retries = self.fault_info[region.0]
                        .as_ref()
                        .expect("survey ensured above")
                        .retries;
                    timing.data_pass_ns +=
                        retries as f64 * input_cycles as f64 * self.cfg.crossbar.read_ns;
                }

                // Compute energy: cycles × active crossbars.
                let cycles = input_cycles
                    * ((reg.cost.groups * reg.cost.chunks_per_object)
                        .div_ceil(reg.cost.data.max(1))) as u64;
                self.energy
                    .charge_compute(&self.energy_model, cycles, reg.cost.total());
                self.energy
                    .charge_bus(&self.energy_model, reg.n as u64 * acc.bytes());
                PassResult {
                    values,
                    timing,
                    read,
                }
            })
            .collect())
    }

    /// Whether the passes of `queries` through region `ri` read its coarse
    /// plane (see [`Read::Coarse`]); builds the plane when
    /// they do and it has none yet.
    fn reads_coarse(&mut self, ri: usize, queries: &[&[u32]], acc: AccWidth) -> bool {
        let faults_active = self.faults_active();
        let m = self.cfg.crossbar.size;
        let reg = &mut self.regions[ri];
        let shift = coarse::shift(reg.widest_bits);
        let in_cells = |q: &&[u32]| bits_needed_slice(q) <= shift + coarse::CELL_BITS;
        let fine_only = queries.len() < 2 || faults_active || acc != AccWidth::U64;
        if fine_only || !coarse::fits(shift, reg.s) || !queries.iter().all(in_cells) {
            return false;
        }
        if reg.plane.is_none() {
            reg.plane = Some(Plane::new(shift, &reg.data, reg.s, m, reg.capacity));
        }
        true
    }

    /// The dot products a full pass of `query` through `region` returns
    /// for the objects `objs`, in order: the host re-reading stored rows
    /// whose pass the device was already charged for (a
    /// [`Read::Coarse`] read), so nothing is timed, charged or
    /// counted. It reads the rows as programmed, which a pass under an
    /// active fault model does not.
    pub fn dot_rows(
        &self,
        region: RegionId,
        query: &[u32],
        objs: &[usize],
        acc: AccWidth,
    ) -> Result<Vec<u64>, ReRamError> {
        let reg = self
            .regions
            .get(region.0)
            .ok_or(ReRamError::NotProgrammed)?;
        if query.len() != reg.s {
            return Err(ReRamError::GeometryViolation {
                what: "query dimensionality",
                got: query.len(),
                limit: reg.s,
            });
        }
        if let Some(&obj) = objs.iter().find(|&&obj| obj >= reg.n) {
            return Err(ReRamError::GeometryViolation {
                what: "object index",
                got: obj,
                limit: reg.n,
            });
        }
        let xb = &self.cfg.crossbar;
        let block = exact_block_len(reg.stored_bits(xb), bits_needed_slice(query));
        let mac = simpim_kern::kernels().dot_u32;
        let row = |obj: usize| &reg.data[obj * reg.s..][..reg.s];
        // Scattered rows miss the cache one after the other: ask for a
        // few ahead of the one being multiplied.
        let ahead = objs
            .iter()
            .skip(PREFETCH_ROWS)
            .map(Some)
            .chain(std::iter::repeat(None));
        Ok(objs
            .iter()
            .zip(ahead)
            .map(|(&obj, next)| {
                if let Some(&next) = next {
                    simpim_kern::prefetch(row(next));
                }
                acc.wrap(row_dot(mac, query, row(obj), xb.size, block).0)
            })
            .collect())
    }

    /// Host bytes of `region`'s coarse plane (0 while it has none).
    pub fn coarse_plane_bytes(&self, region: RegionId) -> Result<usize, ReRamError> {
        let reg = self
            .regions
            .get(region.0)
            .ok_or(ReRamError::NotProgrammed)?;
        Ok(reg.plane.as_ref().map_or(0, Plane::bytes))
    }

    /// The coarse read of every pass on region `ri`, whose plane
    /// [`PimArray::reads_coarse`] built: per query the [`coarse::dot_bound`]
    /// of every stored row, and a largest crossbar partial that gives the
    /// gather clock the fine read's cycle count. The queries' cells are
    /// widened once per read, eight to a block; one
    /// [`simpim_kern::dot_multi_u12`] per task and block gives each row's
    /// coarse totals and largest coarse chunks, into a buffer each thread
    /// keeps across reads; a task then derives the bounds and its largest
    /// coarse partial in plain slice loops. A chunk's bracket bounds the
    /// row's fine partials. The largest lower end `L` is a fine partial's
    /// floor, so the fine largest partial `M ≥ L`; a row whose upper end
    /// needs more gather cycles than `L` does is read fine, and every
    /// other row needs no more than `L`'s. So `M` and the largest of `L`
    /// and those rows' fine partials take the same cycles — and so does
    /// that largest with any more rows read fine, each no more than its
    /// upper end. A task therefore reads fine, at once, the rows whose
    /// upper ends need more cycles than the largest lower end of the tasks
    /// so far, its own included (never above `L`). Both ends grow with the
    /// coarse partial and with the row's cells, so a task brackets its
    /// largest coarse partial with its largest chunk first, and brackets
    /// its rows one by one only where even that upper end needs more
    /// cycles. Tasks fan out like [`PimArray::read_region`]'s; none
    /// allocates.
    fn read_region_coarse(
        &self,
        ri: usize,
        queries: &[&[u32]],
        acc: AccWidth,
    ) -> Vec<(Vec<u64>, u64)> {
        const MULTI: usize = simpim_kern::MULTI_QUERIES;
        let reg = &self.regions[ri];
        let plane = reg.plane.as_ref().expect("built by reads_coarse");
        let xb = &self.cfg.crossbar;
        let (m, s, t) = (xb.size, reg.s, plane.shift);
        let cells: Vec<Vec<u16>> = queries
            .iter()
            .map(|q| q.iter().map(|&v| (v >> t) as u16).collect())
            .collect();
        let cells: Vec<&[u16]> = cells.iter().map(Vec::as_slice).collect();
        let blocks: Vec<U12Queries> = cells.chunks(MULTI).map(|g| U12Queries::new(s, g)).collect();
        let sums: Vec<coarse::RowSums> =
            queries.iter().map(|q| coarse::row_sums(q, t, m)).collect();
        // Without a gather tree the partials time nothing.
        let gathers = reg.cost.gather_depth > 0;
        let cycles = |partial: u64| xb.input_cycles(bits_needed(partial).min(acc.bits()));
        // The least partial that takes more gather cycles than `partial`.
        let above = |partial: u64| {
            let bits = cycles(partial) as u32 * xb.dac_bits;
            if bits < acc.bits().min(64) {
                1 << bits
            } else {
                u64::MAX
            }
        };
        let widest = queries.iter().map(|q| bits_needed_slice(q)).max();
        let exact = exact_block_len(reg.stored_bits(xb), widest.unwrap_or(0));
        let mac = simpim_kern::kernels().dot_u32;
        // Per query the largest lower end of the tasks so far, and the
        // largest fine partial of the rows read fine.
        let low: Vec<AtomicU64> = queries.iter().map(|_| AtomicU64::new(0)).collect();
        let fine: Vec<AtomicU64> = queries.iter().map(|_| AtomicU64::new(0)).collect();
        let task = |first: usize, rows: &[u16], outs: &mut [&mut [u64]]| {
            let n = rows.len() / s;
            let [row_cells, row_operands, row_chunks] =
                plane.sums.each_ref().map(|v| &v[first..first + n]);
            let widest_chunk = largest(row_chunks);
            COARSE_OUT.with_borrow_mut(|out| {
                if out.len() < n * 2 * MULTI {
                    out.resize(n * 2 * MULTI, 0);
                }
                for (g, block) in blocks.iter().enumerate() {
                    let q = block.len();
                    let out = &mut out[..n * 2 * q];
                    simpim_kern::dot_multi_u12(rows, block, m, out);
                    let (totals, tops) = out.split_at(n * q);
                    for k in 0..q {
                        let j = g * MULTI + k;
                        let (x, total, top) = (sums[j], &totals[k * n..][..n], &tops[k * n..][..n]);
                        let (value, query) = (&mut outs[j][..n], [x.cells, x.operands]);
                        for i in 0..n {
                            let row = [row_cells[i], row_operands[i]];
                            value[i] = coarse::dot_bound(t, total[i], row, query, s);
                        }
                        if !gathers {
                            continue;
                        }
                        let top_max = largest(top);
                        let bracket = |top: u64, chunk: u64| {
                            coarse::chunk_bracket(t, top, [chunk, x.chunk_cells], m.min(s))
                        };
                        let (lo, hi) = bracket(top_max, widest_chunk);
                        let low = low[j].fetch_max(lo, Ordering::Relaxed).max(lo);
                        if cycles(hi) <= cycles(low) {
                            continue;
                        }
                        let bar = above(low);
                        for i in (0..n).filter(|&i| bracket(top[i], row_chunks[i]).1 >= bar) {
                            let row = &reg.data[(first + i) * s..][..s];
                            let partial = row_dot(mac, queries[j], row, m, exact).1;
                            fine[j].fetch_max(partial, Ordering::Relaxed);
                        }
                    }
                }
            });
        };
        let (values, _) = fan_out(&plane.cells[..reg.n * s], s, queries.len(), task);
        let max_partial = low
            .into_iter()
            .zip(fine)
            .map(|(low, fine)| low.into_inner().max(fine.into_inner()));
        values.into_iter().zip(max_partial).collect()
    }

    /// The host simulation of every pass on one region: per query the
    /// wrapped dot products of all stored rows and the largest crossbar
    /// partial. Functionally each value is the exact integer dot product
    /// wrapped at the accumulator width — bit-identical to the streamed
    /// bit-sliced pipeline, whose shift-and-add reassembles these same
    /// integers (proven against the test oracle, `dot_batch_strict` on
    /// materialized crossbars, in tests).
    ///
    /// Objects are independent, so the read fans out across the pool in
    /// fixed `DOT_BATCH_CHUNK`-object chunks — the per-crossbar
    /// concurrency the physical array has by construction. Each task
    /// writes its own slice of every query's output buffer and
    /// `max_partial` is an order-independent max, so the output is
    /// bit-identical to the serial loop at any thread count. Inside a
    /// task each row is multiplied with all the queries before the next
    /// is touched: where the tier has the multi-query kernel and
    /// `Region::f64_exact` holds for the widest query, one to eight
    /// queries per row load through `dot_multi_f64` (the queries
    /// converted to `f64` once per read); otherwise one [`row_dot`] per
    /// query.
    fn read_region(&self, ri: usize, queries: &[&[u32]], acc: AccWidth) -> Vec<(Vec<u64>, u64)> {
        let reg = &self.regions[ri];
        let xb = &self.cfg.crossbar;
        let (m, s) = (xb.size, reg.s);
        let kern = simpim_kern::kernels();
        let stored_bits = reg.stored_bits(xb);
        // One block length for the whole read, the widest query's: a
        // shorter block than a query needs is exact all the same.
        let widest = queries
            .iter()
            .map(|q| bits_needed_slice(q))
            .max()
            .unwrap_or(0);
        let block = exact_block_len(stored_bits, widest);
        let multi = kern
            .dot_multi_f64
            .filter(|_| !queries.is_empty() && reg.f64_exact(widest));
        let as_f64: Vec<Vec<f64>> = match multi {
            Some(_) => queries
                .iter()
                .map(|q| q.iter().map(|&v| f64::from(v)).collect())
                .collect(),
            None => Vec::new(),
        };
        let as_f64: Vec<&[f64]> = as_f64.iter().map(Vec::as_slice).collect();
        let task = |_: usize, rows: &[u32], outs: &mut [&mut [u64]]| {
            let mut max_partial = vec![0u64; queries.len()];
            // The multi-query path's largest chunk sums, integers in `f64`.
            let mut tops = vec![0.0f64; queries.len()];
            let mut sums = [0.0f64; 2 * simpim_kern::MULTI_QUERIES];
            for (i, row) in rows.chunks_exact(s).enumerate() {
                let Some(mac) = multi else {
                    // A region past the `f64` gate, or a tier without the
                    // kernel. While queries 2..Q read the row from cache
                    // nothing misses and the hardware stream falls idle,
                    // so a shared read asks for a row further on; Q = 1
                    // streams and needs no hint. The multi-query kernel
                    // takes no hint: its `f64` queries fill most of the
                    // L1 cache, and rows fetched into it evict them.
                    if queries.len() >= 2 {
                        let ahead = ((i + PREFETCH_ROWS) * s).min(rows.len());
                        simpim_kern::prefetch(&rows[ahead..(ahead + s).min(rows.len())]);
                    }
                    for (j, &query) in queries.iter().enumerate() {
                        let (total, row_max) = row_dot(kern.dot_u32, query, row, m, block);
                        outs[j][i] = acc.wrap(total);
                        max_partial[j] = max_partial[j].max(row_max);
                    }
                    continue;
                };
                for (g, group) in as_f64.chunks(simpim_kern::MULTI_QUERIES).enumerate() {
                    mac(row, group, m, &mut sums);
                    let (q, first) = (group.len(), g * simpim_kern::MULTI_QUERIES);
                    for j in 0..q {
                        // An integer below 2⁵³: exact as an `i64`, which
                        // converts in one instruction.
                        outs[first + j][i] = acc.wrap(u128::from(sums[j] as i64 as u64));
                        tops[first + j] = tops[first + j].max(sums[q + j]);
                    }
                }
            }
            for (all, top) in max_partial.iter_mut().zip(tops) {
                *all = (*all).max(top as u64);
            }
            max_partial
        };

        let (mut values, task_maxima) = fan_out(&reg.data[..reg.n * s], s, queries.len(), task);
        let mut max_partial = vec![0u64; queries.len()];
        for task_max in task_maxima {
            for (all, one) in max_partial.iter_mut().zip(task_max) {
                *all = (*all).max(one);
            }
        }

        // Read through the injected faults: corrupted objects return the
        // dot product of their *faulty* stored row (objects behind a
        // corrupted gather fabric read 0 — one consistent corruption).
        // A faulty row can be wider than anything programmed, so it takes
        // `row_dot` on the cell-width block whatever path the rest took.
        if self.faults_active() {
            let info = self.fault_info[ri]
                .as_ref()
                .expect("surveyed by the caller");
            for (j, out) in values.iter_mut().enumerate() {
                for (obj, v) in out.iter_mut().enumerate() {
                    if let Some(frow) = info.faulty_rows.get(&obj) {
                        let (total, _) = row_dot(kern.dot_u32, queries[j], frow, m, block);
                        *v = acc.wrap(total);
                    } else if info.dead_objects[obj] {
                        *v = 0;
                    }
                }
            }
        }
        values.into_iter().zip(max_partial).collect()
    }

    /// Clears all regions (re-programming an array is allowed but wears the
    /// device — the endurance counters and per-crossbar program counts
    /// persist across [`PimArray::clear`]).
    pub fn clear(&mut self) {
        self.regions.clear();
        self.fault_info.clear();
        self.used_crossbars = 0;
    }

    /// Attaches a deterministic fault model. Existing surveys are
    /// invalidated; subsequent [`PimArray::dot_batch`] calls read through
    /// the injected faults and [`PimArray::scrub_region`] becomes
    /// available.
    pub fn enable_faults(&mut self, faults: FaultConfig) -> Result<(), ReRamError> {
        faults.validate()?;
        self.faults = Some(faults);
        for info in &mut self.fault_info {
            *info = None;
        }
        Ok(())
    }

    /// The attached fault model, if any.
    #[inline]
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.faults.as_ref()
    }

    /// Program cycles a physical crossbar has received (wear metric).
    pub fn crossbar_programs(&self, crossbar: usize) -> u32 {
        self.xb_programs.get(crossbar).copied().unwrap_or(0)
    }

    /// Adds `extra` program cycles of wear to every currently programmed
    /// crossbar, modeling prior write history (a burned-in device) for
    /// endurance studies. Spare (never-programmed) crossbars stay fresh.
    /// Takes effect at the next scrub: crossbars pushed past the fault
    /// model's `endurance_limit` are classified dead.
    pub fn age_crossbars(&mut self, extra: u32) {
        for p in &mut self.xb_programs {
            *p = p.saturating_add(extra);
        }
    }

    /// Local crossbar index, row and first bitline holding dimension
    /// `dim` of object `obj` (mirrors the strict-mode layout).
    fn locate(reg: &Region, m: usize, w: usize, obj: usize, dim: usize) -> (usize, usize, usize) {
        let g = reg.cost.group_size;
        let gi = obj / g;
        let col = (obj % g) * w;
        if reg.s <= m {
            let local = gi / reg.cost.slots_per_crossbar;
            let row = (gi % reg.cost.slots_per_crossbar) * reg.s + dim;
            (local, row, col)
        } else {
            let local = gi * reg.cost.chunks_per_object + dim / m;
            (local, dim % m, col)
        }
    }

    /// Surveys one region against the attached fault map: classifies every
    /// crossbar, computes per-object deviations and emulated faulty
    /// read-outs, and walks each crossbar's ADC glitch-retry chain.
    fn survey_region(&self, ri: usize) -> Result<RegionFaultInfo, ReRamError> {
        let faults = self.faults.ok_or(ReRamError::FaultsNotEnabled)?;
        let reg = &self.regions[ri];
        let xb_cfg = &self.cfg.crossbar;
        let m = xb_cfg.size;
        let h = xb_cfg.cell_bits;
        let w = xb_cfg.cells_per_operand(reg.operand_bits);
        let max_level = ((1u16 << h) - 1) as u8;
        let total = reg.cost.total();

        let mut health = vec![CrossbarHealth::Healthy; total];
        let mut faulty_cells = 0u64;
        let mut retries = 0u64;

        // Wear-out and the ADC retry chain, per physical crossbar.
        for (local, hl) in health.iter_mut().enumerate() {
            let phys = reg.phys(local);
            if faults.worn_out(self.crossbar_programs(phys)) {
                *hl = CrossbarHealth::Dead;
            }
            retries += u64::from(faults.glitch_retries(phys)?);
        }

        // Gather crossbars: the all-ones reduction fabric sums partials,
        // so any corrupted site there poisons whole groups by amounts no
        // per-cell bound covers — classify Dead.
        let mut gather_dead_group = vec![false; reg.cost.groups];
        if reg.cost.gather > 0 {
            let per_group = reg.cost.gather / reg.cost.groups;
            for local in reg.cost.data..total {
                let phys = reg.phys(local);
                let mut bad = health[local] == CrossbarHealth::Dead || faults.dead_bitline(phys, 0);
                if !bad {
                    for row in 0..m {
                        if faults.dead_wordline(phys, row) {
                            bad = true;
                            break;
                        }
                        match faults.cell_fault(phys, row, 0) {
                            CellFault::None => {}
                            CellFault::StuckLow => {
                                faulty_cells += 1;
                                bad = true;
                                break;
                            }
                            // An all-ones cell stuck at the maximum level
                            // is harmless only for single-bit cells.
                            CellFault::StuckHigh => {
                                if max_level != 1 {
                                    faulty_cells += 1;
                                    bad = true;
                                    break;
                                }
                            }
                        }
                    }
                }
                if bad {
                    health[local] = CrossbarHealth::Dead;
                    gather_dead_group[(local - reg.cost.data) / per_group] = true;
                }
            }
        }

        // Data crossbars: walk every stored operand cell. Stuck cells give
        // a bounded, known deviation (Drifted); dead lines and wear
        // corrupt whole rows/slices (Dead).
        let mut discrepancy = vec![0u64; reg.n];
        let mut faulty_rows: HashMap<usize, Vec<u32>> = HashMap::new();
        let mut dead_objects = vec![false; reg.n];
        let level_mask = u32::from(max_level);
        for obj in 0..reg.n {
            let mut dev = 0u64;
            let mut frow: Vec<u32> = Vec::new();
            let mut on_dead = gather_dead_group
                .get(obj / reg.cost.group_size)
                .copied()
                .unwrap_or(false);
            for dim in 0..reg.s {
                let (local, row, col0) = Self::locate(reg, m, w, obj, dim);
                let phys = reg.phys(local);
                let v = reg.data[obj * reg.s + dim];
                let worn = faults.worn_out(self.crossbar_programs(phys));
                let v_eff = if worn || faults.dead_wordline(phys, row) {
                    if v != 0 {
                        faulty_cells += bits_needed(u64::from(v)).div_ceil(h) as u64;
                    }
                    health[local] = CrossbarHealth::Dead;
                    0
                } else {
                    let mut rebuilt = 0u32;
                    for j in 0..w {
                        let programmed = (v >> (j as u32 * h)) & level_mask;
                        let eff = if faults.dead_bitline(phys, col0 + j) {
                            if programmed != 0 {
                                faulty_cells += 1;
                            }
                            health[local] = CrossbarHealth::Dead;
                            0
                        } else {
                            match faults.cell_fault(phys, row, col0 + j) {
                                CellFault::None => programmed,
                                CellFault::StuckLow => {
                                    if programmed != 0 {
                                        faulty_cells += 1;
                                        if health[local] == CrossbarHealth::Healthy {
                                            health[local] = CrossbarHealth::Drifted;
                                        }
                                    }
                                    0
                                }
                                CellFault::StuckHigh => {
                                    if programmed != u32::from(max_level) {
                                        faulty_cells += 1;
                                        if health[local] == CrossbarHealth::Healthy {
                                            health[local] = CrossbarHealth::Drifted;
                                        }
                                    }
                                    u32::from(max_level)
                                }
                            }
                        };
                        rebuilt |= eff << (j as u32 * h);
                    }
                    rebuilt
                };
                if health[local] == CrossbarHealth::Dead {
                    on_dead = true;
                }
                dev += u64::from(v.abs_diff(v_eff));
                frow.push(v_eff);
            }
            discrepancy[obj] = dev;
            dead_objects[obj] = on_dead;
            if dev > 0 {
                faulty_rows.insert(obj, frow);
            }
        }

        Ok(RegionFaultInfo {
            health,
            discrepancy,
            faulty_rows,
            dead_objects,
            retries,
            faulty_cells,
        })
    }

    /// Makes sure the region's fault survey exists (lazily computed the
    /// first time faults must be applied).
    fn ensure_fault_info(&mut self, ri: usize) -> Result<(), ReRamError> {
        if self.fault_info[ri].is_none() {
            self.fault_info[ri] = Some(self.survey_region(ri)?);
        }
        Ok(())
    }

    /// Scrubs one region: probes every crossbar of its allocation against
    /// canary expectations derived from the retained operand matrix,
    /// classifies each crossbar healthy / drifted / dead, and refreshes
    /// the emulation state [`PimArray::dot_batch`] reads through.
    ///
    /// Fails with [`ReRamError::FaultsNotEnabled`] when no fault model is
    /// attached and with [`ReRamError::AdcRetryExhausted`] when a
    /// crossbar's ADC never reads clean within the retry budget.
    pub fn scrub_region(&mut self, region: RegionId) -> Result<ScrubReport, ReRamError> {
        let ri = region.0;
        if ri >= self.regions.len() {
            return Err(ReRamError::NotProgrammed);
        }
        let info = self.survey_region(ri)?;
        let (mut healthy, mut drifted, mut dead) = (0usize, 0usize, 0usize);
        for h in &info.health {
            match h {
                CrossbarHealth::Healthy => healthy += 1,
                CrossbarHealth::Drifted => drifted += 1,
                CrossbarHealth::Dead => dead += 1,
            }
        }
        let checked = info.health.len();
        // One canary probe cycle per crossbar, plus the glitch retries.
        let scrub_ns = (checked as u64 + info.retries) as f64 * self.cfg.crossbar.read_ns;
        self.energy.charge_compute(&self.energy_model, 1, checked);
        let report = ScrubReport {
            region,
            crossbars_checked: checked,
            faulty_cells: info.faulty_cells,
            adc_retries: info.retries,
            healthy,
            drifted,
            dead,
            scrub_ns,
        };
        self.fault_info[ri] = Some(info);
        Ok(report)
    }

    /// Remaps the region's dead crossbars onto spare capacity: each dead
    /// crossbar's operand segment is reprogrammed onto a fresh physical
    /// crossbar drawn from the free budget (spares that are themselves
    /// faulty are fused off and skipped). Objects whose dead crossbars
    /// could not be remapped remain quarantined — callers must route them
    /// through exact host-side evaluation.
    ///
    /// Requires a prior [`PimArray::scrub_region`] (the survey tells which
    /// crossbars are dead).
    pub fn remap_dead(&mut self, region: RegionId) -> Result<RemapReport, ReRamError> {
        let ri = region.0;
        if ri >= self.regions.len() {
            return Err(ReRamError::NotProgrammed);
        }
        let faults = self.faults.ok_or(ReRamError::FaultsNotEnabled)?;
        let dead_locals: Vec<usize> = {
            let info = self.fault_info[ri]
                .as_ref()
                .ok_or(ReRamError::NotScrubbed)?;
            info.health
                .iter()
                .enumerate()
                .filter(|(_, h)| **h == CrossbarHealth::Dead)
                .map(|(l, _)| l)
                .collect()
        };
        let m = self.cfg.crossbar.size;
        let mut remapped = 0usize;
        let mut cell_writes = 0u64;
        let mut rows_written = 0u64;
        for local in dead_locals {
            // Draw spares until one is clean; faulty spares are consumed
            // (fused off) like factory-mapped bad blocks.
            let mut found = None;
            while self.used_crossbars < self.cfg.num_crossbars {
                let phys = self.used_crossbars;
                self.used_crossbars += 1;
                if self.xb_programs.len() < self.used_crossbars {
                    self.xb_programs.resize(self.used_crossbars, 0);
                }
                let clean = !faults.worn_out(self.xb_programs[phys] + 1)
                    && (0..m).all(|r| !faults.dead_wordline(phys, r))
                    && (0..m).all(|c| !faults.dead_bitline(phys, c))
                    && (0..m)
                        .all(|r| (0..m).all(|c| faults.cell_fault(phys, r, c) == CellFault::None));
                if clean {
                    found = Some(phys);
                    break;
                }
            }
            let Some(phys) = found else { break };
            self.xb_programs[phys] += 1;
            self.regions[ri].remap.insert(local, phys);
            remapped += 1;
            // Reprogramming one crossbar: m rows, up to m² cells.
            cell_writes += self.cfg.crossbar.cells() as u64;
            rows_written += m as u64;
        }
        let program_ns = program_timing_ns(&self.cfg, rows_written);
        if cell_writes > 0 {
            let mut energy = EnergyReport::default();
            energy.charge_writes(&self.energy_model, cell_writes, self.cfg.crossbar.cell_bits);
            self.energy.add(&energy);
            self.total_cell_writes += cell_writes;
        }
        // Refresh the survey: remapped crossbars come back clean; whatever
        // is still dead stays quarantined.
        let info = self.survey_region(ri)?;
        let quarantined_objects = info.dead_objects.iter().filter(|d| **d).count();
        self.fault_info[ri] = Some(info);
        Ok(RemapReport {
            region,
            remapped_crossbars: remapped,
            quarantined_objects,
            cell_writes,
            program_ns,
        })
    }

    /// Worst-case health of the crossbars serving one object. Requires a
    /// prior scrub.
    pub fn object_health(
        &self,
        region: RegionId,
        obj: usize,
    ) -> Result<CrossbarHealth, ReRamError> {
        if self.faults.is_none() {
            return Err(ReRamError::FaultsNotEnabled);
        }
        let info = self
            .fault_info
            .get(region.0)
            .ok_or(ReRamError::NotProgrammed)?
            .as_ref()
            .ok_or(ReRamError::NotScrubbed)?;
        if obj >= info.dead_objects.len() {
            return Err(ReRamError::GeometryViolation {
                what: "object index",
                got: obj,
                limit: info.dead_objects.len(),
            });
        }
        Ok(if info.dead_objects[obj] {
            CrossbarHealth::Dead
        } else if info.discrepancy[obj] > 0 {
            CrossbarHealth::Drifted
        } else {
            CrossbarHealth::Healthy
        })
    }

    /// Worst-case stored deviation `Σ_dims |v_faulty − v_true|` of one
    /// object; the PIM dot product deviates from the exact one by at most
    /// `max_query_level · discrepancy`. Requires a prior scrub.
    pub fn object_discrepancy(&self, region: RegionId, obj: usize) -> Result<u64, ReRamError> {
        if self.faults.is_none() {
            return Err(ReRamError::FaultsNotEnabled);
        }
        let info = self
            .fault_info
            .get(region.0)
            .ok_or(ReRamError::NotProgrammed)?
            .as_ref()
            .ok_or(ReRamError::NotScrubbed)?;
        info.discrepancy
            .get(obj)
            .copied()
            .ok_or(ReRamError::GeometryViolation {
                what: "object index",
                got: obj,
                limit: info.discrepancy.len(),
            })
    }

    /// The true (fault-free) stored operand row of one object — what exact
    /// host-side fallback evaluation reads from the memory array.
    pub fn region_row(&self, region: RegionId, obj: usize) -> Result<&[u32], ReRamError> {
        let reg = self
            .regions
            .get(region.0)
            .ok_or(ReRamError::NotProgrammed)?;
        if obj >= reg.n {
            return Err(ReRamError::GeometryViolation {
                what: "object index",
                got: obj,
                limit: reg.n,
            });
        }
        Ok(&reg.data[obj * reg.s..(obj + 1) * reg.s])
    }
}

/// The buffer array (eDRAM) caching PIM results so the CPU can drain them
/// without stalling the PIM array.
#[derive(Debug, Clone)]
pub struct BufferArray {
    capacity: u64,
    high_water: u64,
}

impl BufferArray {
    /// A buffer of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            high_water: 0,
        }
    }

    /// Capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Records a result batch passing through; returns the number of waves
    /// the batch needed.
    pub fn stage(&mut self, bytes: u64) -> u64 {
        self.high_water = self.high_water.max(bytes.min(self.capacity));
        bytes.div_ceil(self.capacity.max(1)).max(1)
    }

    /// Highest single-wave occupancy seen.
    #[inline]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }
}

/// The memory array: plain ReRAM storage for the original dataset and the
/// pre-computed Φ values. Occupancy-tracked; access timing is charged by
/// the host cost model in `simpim-simkit`.
#[derive(Debug, Clone)]
pub struct MemoryArray {
    capacity: u64,
    used: u64,
}

impl MemoryArray {
    /// A memory array of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, used: 0 }
    }

    /// Reserves `bytes` of storage.
    pub fn store(&mut self, bytes: u64) -> Result<(), ReRamError> {
        if self.used + bytes > self.capacity {
            return Err(ReRamError::InsufficientCapacity {
                required: (self.used + bytes) as usize,
                available: self.capacity as usize,
            });
        }
        self.used += bytes;
        Ok(())
    }

    /// Bytes currently stored.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Remaining capacity in bytes.
    #[inline]
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Releases `bytes` (saturating).
    pub fn release(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
    }
}

#[cfg(test)]
impl PimArray {
    /// Strict-fidelity execution of one batch: materializes the region's
    /// layout on real [`Crossbar`](crate::crossbar::Crossbar)s — operand
    /// packing, vertical slot stacking, chunking across data crossbars, and
    /// all-ones gather trees — and runs the full bit-sliced analog pipeline
    /// end to end.
    ///
    /// This is the test oracle of [`PimArray::dot_batch`] (the two are
    /// asserted bit-identical in the unit and property tests below); it is
    /// bounded to small geometries because it allocates `m²` cells per
    /// crossbar.
    pub(crate) fn dot_batch_strict(
        &self,
        region: RegionId,
        query: &[u32],
        acc: AccWidth,
    ) -> Result<Vec<u64>, ReRamError> {
        use crate::crossbar::Crossbar;

        let reg = self
            .regions
            .get(region.0)
            .ok_or(ReRamError::NotProgrammed)?;
        if query.len() != reg.s {
            return Err(ReRamError::GeometryViolation {
                what: "query dimensionality",
                got: query.len(),
                limit: reg.s,
            });
        }
        let xb_cfg = self.cfg.crossbar;
        let m = xb_cfg.size;
        const STRICT_CELL_CAP: usize = 1 << 22;
        if reg.cost.total().saturating_mul(m * m) > STRICT_CELL_CAP {
            return Err(ReRamError::InvalidConfig {
                what: "strict mode is for small geometries (cell cap exceeded)",
            });
        }

        let b = reg.operand_bits;
        let w = xb_cfg.cells_per_operand(b);
        let g = reg.cost.group_size;
        let input_bits = bits_needed_slice(query);
        let q64: Vec<u64> = query.iter().map(|&v| u64::from(v)).collect();
        // Slice the query once per dispatch; every crossbar it streams to
        // (stacked slots, per-chunk data crossbars across all groups)
        // reuses the cached DAC slices.
        let sliced_q = crate::bitslice::SlicedQuery::new(&q64, input_bits, xb_cfg.dac_bits)?;
        let mut values = Vec::with_capacity(reg.n);

        if reg.s <= m {
            // Vertical slot stacking: each group occupies one slot of a
            // shared crossbar; one pass per slot drives only its rows.
            let slots = reg.cost.slots_per_crossbar;
            let n_groups = reg.n.div_ceil(g);
            let mut crossbars: Vec<Crossbar> = (0..reg.cost.data)
                .map(|_| Crossbar::new(xb_cfg))
                .collect::<Result<_, _>>()?;
            for gi in 0..n_groups {
                let xb = &mut crossbars[gi / slots];
                let start_row = (gi % slots) * reg.s;
                for j in 0..g {
                    let obj = gi * g + j;
                    if obj >= reg.n {
                        break;
                    }
                    let col: Vec<u64> = reg.data[obj * reg.s..(obj + 1) * reg.s]
                        .iter()
                        .map(|&v| u64::from(v))
                        .collect();
                    xb.program_operand_column(start_row, j * w, &col, b)?;
                }
            }
            for obj in 0..reg.n {
                let gi = obj / g;
                let xb = &crossbars[gi / slots];
                let start_row = (gi % slots) * reg.s;
                let outs = xb.dot_products_sliced(start_row, &sliced_q, b)?;
                values.push(acc.wrap(outs[obj % g]));
            }
        } else {
            // Chunked layout: per group, one data crossbar per chunk plus
            // a materialized all-ones gather tree reducing m partials per
            // level.
            let chunks = reg.cost.chunks_per_object;
            let n_groups = reg.n.div_ceil(g);
            // Per-chunk sub-queries sliced once, reused by every group.
            let sliced_chunks: Vec<crate::bitslice::SlicedQuery> = (0..q64.len())
                .step_by(m)
                .map(|start| sliced_q.slice_range(start..(start + m).min(q64.len())))
                .collect();
            let mut gather = Crossbar::new(xb_cfg)?;
            gather.program_all_ones()?;
            for gi in 0..n_groups {
                // Program this group's data crossbars.
                let mut data_xbs: Vec<Crossbar> = (0..chunks)
                    .map(|_| Crossbar::new(xb_cfg))
                    .collect::<Result<_, _>>()?;
                for j in 0..g {
                    let obj = gi * g + j;
                    if obj >= reg.n {
                        break;
                    }
                    let row = &reg.data[obj * reg.s..(obj + 1) * reg.s];
                    for (c, chunk) in row.chunks(m).enumerate() {
                        let col: Vec<u64> = chunk.iter().map(|&v| u64::from(v)).collect();
                        data_xbs[c].program_operand_column(0, j * w, &col, b)?;
                    }
                }
                // One streamed pass per chunk, then tree reduction per
                // object through the all-ones gather crossbar.
                let per_chunk: Vec<Vec<u128>> = sliced_chunks
                    .iter()
                    .zip(&data_xbs)
                    .map(|(cq, xb)| xb.dot_products_sliced(0, cq, b))
                    .collect::<Result<_, _>>()?;
                for j in 0..g {
                    let obj = gi * g + j;
                    if obj >= reg.n {
                        break;
                    }
                    // Operand column j·w carries operand index j.
                    let mut layer: Vec<u128> = per_chunk.iter().map(|outs| outs[j]).collect();
                    while layer.len() > 1 {
                        let mut next = Vec::with_capacity(layer.len().div_ceil(m));
                        for grp in layer.chunks(m) {
                            let partials: Vec<u64> = grp.iter().map(|&p| acc.wrap(p)).collect();
                            let pbits = partials.iter().map(|&p| bits_needed(p)).max().unwrap_or(1);
                            let out = gather.dot_products(0, &partials, pbits, 1)?;
                            next.push(out[0]);
                        }
                        layer = next;
                    }
                    values.push(acc.wrap(layer[0]));
                }
            }
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrossbarConfig;
    use crate::crossbar::{exact_dot, Crossbar};

    fn small_cfg() -> PimConfig {
        PimConfig {
            crossbar: CrossbarConfig {
                size: 8,
                cell_bits: 2,
                dac_bits: 2,
                adc_bits: 12,
                ..Default::default()
            },
            num_crossbars: 64,
            ..Default::default()
        }
    }

    #[test]
    fn capacity_region_appends_rows_online() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        // 2 programmed objects, room for 4 more, s = 3.
        let rep = pim
            .program_region_with_capacity(&[1, 2, 3, 4, 5, 6], 2, 6, 3, 4)
            .unwrap();
        assert_eq!(pim.region_shape(rep.region).unwrap().0, 2);
        assert_eq!(pim.region_capacity(rep.region).unwrap(), 6);
        let writes_before = pim.total_cell_writes();

        let app = pim.append_rows(rep.region, &[7, 8, 9]).unwrap();
        assert_eq!(app.rows_written, 3);
        assert!(pim.total_cell_writes() > writes_before);
        assert_eq!(pim.region_shape(rep.region).unwrap().0, 3);
        let (values, _) = pim
            .dot_batch(rep.region, &[1, 1, 1], AccWidth::U64)
            .unwrap();
        assert_eq!(values, vec![6, 15, 24]);
        assert_eq!(pim.region_row(rep.region, 2).unwrap(), &[7, 8, 9]);

        // Remaining spare is 3 rows: a 4-row append must be rejected
        // without mutating anything.
        assert!(matches!(
            pim.append_rows(rep.region, &[1; 12]),
            Err(ReRamError::InsufficientCapacity {
                required: 4,
                available: 3
            })
        ));
        // Operand overflow (4-bit operands) is caught before any write.
        assert!(matches!(
            pim.append_rows(rep.region, &[16, 0, 0]),
            Err(ReRamError::OperandOverflow { .. })
        ));
        assert_eq!(pim.region_shape(rep.region).unwrap().0, 3);

        // Fill to capacity, then the region is full.
        pim.append_rows(rep.region, &[1, 0, 0, 0, 1, 0, 0, 0, 1])
            .unwrap();
        assert!(pim.append_rows(rep.region, &[1, 1, 1]).is_err());
        let (values, _) = pim
            .dot_batch(rep.region, &[2, 3, 4], AccWidth::U64)
            .unwrap();
        assert_eq!(values.len(), 6);
        assert_eq!(&values[3..], &[2, 3, 4]);
    }

    #[test]
    fn append_wears_only_touched_crossbars() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        // s = 8 = m, 4-bit operands → group_size = ⌊8·2/4⌋ = 4 objects per
        // crossbar; capacity 8 = 2 data crossbars.
        let flat: Vec<u32> = (0..8).collect();
        let rep = pim.program_region_with_capacity(&flat, 1, 8, 8, 4).unwrap();
        let base = rep.cost;
        assert!(base.total() >= 2);
        let p0 = pim.crossbar_programs(0);
        let p1 = pim.crossbar_programs(1);
        // Objects 1..3 land in crossbar 0's remaining slots.
        pim.append_rows(rep.region, &flat).unwrap();
        assert_eq!(pim.crossbar_programs(0), p0 + 1);
        assert_eq!(pim.crossbar_programs(1), p1);
        // Objects 2 and 3 stay in crossbar 0; object 4 opens the second
        // group → crossbar 1 takes its first append wear.
        pim.append_rows(rep.region, &flat).unwrap();
        pim.append_rows(rep.region, &flat).unwrap();
        pim.append_rows(rep.region, &flat).unwrap();
        assert_eq!(pim.crossbar_programs(0), p0 + 3);
        assert_eq!(pim.crossbar_programs(1), p1 + 1);
    }

    #[test]
    fn rewrites_wear_their_crossbar_and_truncation_frees_spares() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        // Same geometry: four objects a data crossbar, capacity 8.
        let flat: Vec<u32> = (0..8 * 6).map(|v| v % 16).collect();
        let rep = pim.program_region_with_capacity(&flat, 6, 8, 8, 4).unwrap();
        let (p0, p1) = (pim.crossbar_programs(0), pim.crossbar_programs(1));
        let writes = pim.total_cell_writes();
        // Object 5 sits on crossbar 1: only crossbar 1 wears.
        let row = [1u32; 8];
        let out = pim.rewrite_rows(rep.region, 5, &row).unwrap();
        assert_eq!(out.rows_written, 8);
        assert!(pim.total_cell_writes() > writes);
        assert_eq!(
            (pim.crossbar_programs(0), pim.crossbar_programs(1)),
            (p0, p1 + 1)
        );
        assert_eq!(pim.region_row(rep.region, 5).unwrap(), &row);
        assert_eq!(pim.region_shape(rep.region).unwrap().0, 6);
        // A rewrite never reaches past the programmed rows.
        assert!(matches!(
            pim.rewrite_rows(rep.region, 6, &row),
            Err(ReRamError::InsufficientCapacity {
                required: 1,
                available: 0
            })
        ));
        // Truncation programs nothing and hands the rows back as spares.
        pim.truncate_rows(rep.region, 2).unwrap();
        assert_eq!(pim.region_shape(rep.region).unwrap().0, 2);
        assert_eq!(
            (pim.crossbar_programs(0), pim.crossbar_programs(1)),
            (p0, p1 + 1)
        );
        let (values, _) = pim.dot_batch(rep.region, &[1; 8], AccWidth::U64).unwrap();
        assert_eq!(values.len(), 2);
        pim.append_rows(rep.region, &[1; 8 * 6]).unwrap();
        assert!(pim.truncate_rows(rep.region, 0).is_err());
        assert!(pim.truncate_rows(rep.region, 9).is_err());
    }

    #[test]
    fn appended_rows_survive_fault_survey() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        let rep = pim
            .program_region_with_capacity(&[1, 2, 3, 4, 5, 6], 2, 4, 3, 4)
            .unwrap();
        pim.enable_faults(FaultConfig::default()).unwrap();
        pim.scrub_region(rep.region).unwrap();
        assert_eq!(
            pim.object_health(rep.region, 1).unwrap(),
            CrossbarHealth::Healthy
        );
        // Appending invalidates the survey; health queries demand a fresh
        // scrub, and the new object is then covered.
        pim.append_rows(rep.region, &[7, 8, 9]).unwrap();
        assert!(matches!(
            pim.object_health(rep.region, 2),
            Err(ReRamError::NotScrubbed)
        ));
        pim.scrub_region(rep.region).unwrap();
        assert_eq!(
            pim.object_health(rep.region, 2).unwrap(),
            CrossbarHealth::Healthy
        );
    }

    #[test]
    fn program_and_query_round_trip() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        let data: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 7, 8]; // 2 vectors × 4 dims
        let rep = pim.program_region(&data, 2, 4, 4).unwrap();
        assert!(rep.cell_writes > 0);
        assert!(rep.program_ns > 0.0);
        let (vals, t) = pim
            .dot_batch(rep.region, &[1, 1, 1, 1], AccWidth::U64)
            .unwrap();
        assert_eq!(vals, vec![10, 26]);
        assert!(t.total_ns() > 0.0);
    }

    #[test]
    fn array_matches_unit_level_crossbar_small_s() {
        // Cross-validate the fast path against the fully materialized
        // bit-sliced pipeline on a config where one crossbar suffices.
        let cfg = small_cfg();
        let (n, s, b) = (2usize, 4usize, 6u32);
        let data: Vec<u32> = vec![25, 14, 63, 0, 9, 20, 1, 33];
        let query: Vec<u32> = vec![9, 20, 7, 63];

        let mut pim = PimArray::new(cfg).unwrap();
        let rep = pim.program_region(&data, n, s, b).unwrap();
        let (fast, _) = pim.dot_batch(rep.region, &query, AccWidth::U64).unwrap();

        let mut xb = Crossbar::new(cfg.crossbar).unwrap();
        let w = cfg.crossbar.cells_per_operand(b);
        for (obj, row) in data.chunks_exact(s).enumerate() {
            let col: Vec<u64> = row.iter().map(|&v| u64::from(v)).collect();
            xb.program_operand_column(0, obj * w, &col, b).unwrap();
        }
        let q64: Vec<u64> = query.iter().map(|&v| u64::from(v)).collect();
        let slow = xb.dot_products(0, &q64, 6, b).unwrap();
        for i in 0..n {
            assert_eq!(fast[i], AccWidth::U64.wrap(slow[i]));
            assert_eq!(
                u128::from(fast[i]),
                exact_dot(
                    &q64,
                    &data[i * s..(i + 1) * s]
                        .iter()
                        .map(|&v| u64::from(v))
                        .collect::<Vec<_>>()
                )
            );
        }
    }

    #[test]
    fn array_matches_unit_level_with_gather_tree() {
        // s = 16 > m = 8: two chunks per object, reduced through the tree.
        let cfg = small_cfg();
        let s = 16usize;
        let data: Vec<u32> = (0..s as u32).map(|i| (i * 7 + 3) % 16).collect();
        let query: Vec<u32> = (0..s as u32).map(|i| (i * 5 + 1) % 16).collect();

        let mut pim = PimArray::new(cfg).unwrap();
        let rep = pim.program_region(&data, 1, s, 4).unwrap();
        assert_eq!(rep.cost.chunks_per_object, 2);
        let (fast, _) = pim.dot_batch(rep.region, &query, AccWidth::U64).unwrap();

        // Unit-level: two data crossbars + tree reduction of the partials.
        let m = cfg.crossbar.size;
        let mut partials = Vec::new();
        for (cq, cv) in query.chunks(m).zip(data.chunks(m)) {
            let mut xb = Crossbar::new(cfg.crossbar).unwrap();
            let col: Vec<u64> = cv.iter().map(|&v| u64::from(v)).collect();
            xb.program_operand_column(0, 0, &col, 4).unwrap();
            let q64: Vec<u64> = cq.iter().map(|&v| u64::from(v)).collect();
            partials.push(xb.dot_products(0, &q64, 4, 4).unwrap()[0]);
        }
        let reduced = crate::gather::reduce_through_tree(&partials, m);
        assert_eq!(fast[0], AccWidth::U64.wrap(reduced));
    }

    #[test]
    fn streamed_fill_matches_one_shot_on_every_counter() {
        // One-shot: program 6 objects × 4 dims with 2 spare rows.
        let flat: Vec<u32> = (0..24).map(|v| v % 13).collect();
        let mut one = PimArray::new(small_cfg()).unwrap();
        let rep_one = one.program_region_with_capacity(&flat, 6, 8, 4, 4).unwrap();

        // Streamed: same matrix in blocks of 1, 2, 3 rows.
        let mut streamed = PimArray::new(small_cfg()).unwrap();
        let rep_begin = streamed.begin_region_streamed(8, 4, 4).unwrap();
        let region = rep_begin.region;
        let mut totals = (
            rep_begin.cell_writes,
            rep_begin.rows_written,
            rep_begin.program_ns,
            rep_begin.energy_j,
        );
        let mut off = 0;
        for k in [1usize, 2, 3] {
            let rep = streamed
                .fill_rows(region, &flat[off * 4..(off + k) * 4])
                .unwrap();
            totals.0 += rep.cell_writes;
            totals.1 += rep.rows_written;
            totals.2 += rep.program_ns;
            totals.3 += rep.energy_j;
            off += k;
        }
        // Mid-fill the region rejects queries and appends.
        assert!(matches!(
            streamed.dot_batch(region, &[1, 1, 1, 1], AccWidth::U64),
            Err(ReRamError::InvalidConfig { .. })
        ));
        assert!(matches!(
            streamed.append_rows(region, &[1, 1, 1, 1]),
            Err(ReRamError::InvalidConfig { .. })
        ));
        streamed.finish_region(region).unwrap();
        assert!(matches!(
            streamed.finish_region(region),
            Err(ReRamError::InvalidConfig { .. })
        ));

        // Split programming must sum to the one-shot totals exactly.
        assert_eq!(totals.0, rep_one.cell_writes);
        assert_eq!(totals.1, rep_one.rows_written);
        assert!((totals.2 - rep_one.program_ns).abs() < 1e-9);
        assert!((totals.3 - rep_one.energy_j).abs() < 1e-15);
        assert_eq!(rep_begin.cost, rep_one.cost);
        assert_eq!(streamed.used_crossbars(), one.used_crossbars());
        assert_eq!(streamed.total_cell_writes(), one.total_cell_writes());
        // Wear parity per physical crossbar.
        for xb in 0..one.used_crossbars() {
            assert_eq!(streamed.crossbar_programs(xb), one.crossbar_programs(xb));
        }
        // Functional parity: identical stored matrix, spare rows, results.
        assert_eq!(streamed.region_shape(region).unwrap(), (6, 4, 4));
        assert_eq!(streamed.region_capacity(region).unwrap(), 8);
        let q = [1u32, 2, 3, 1];
        let (a, _) = one.dot_batch(rep_one.region, &q, AccWidth::U64).unwrap();
        let (b, _) = streamed.dot_batch(region, &q, AccWidth::U64).unwrap();
        assert_eq!(a, b);
        // Appends still work after sealing.
        streamed.append_rows(region, &[1, 1, 1, 1]).unwrap();
        assert_eq!(streamed.region_shape(region).unwrap().0, 7);
    }

    #[test]
    fn streamed_fill_rejects_misuse() {
        let mut arr = PimArray::new(small_cfg()).unwrap();
        // Zero capacity rejected.
        assert!(arr.begin_region_streamed(0, 4, 4).is_err());
        let region = arr.begin_region_streamed(4, 4, 4).unwrap().region;
        // Overfill rejected.
        assert!(matches!(
            arr.fill_rows(region, &[1u32; 5 * 4]),
            Err(ReRamError::InsufficientCapacity { .. })
        ));
        // Sealing an empty region rejected.
        assert!(arr.finish_region(region).is_err());
        arr.fill_rows(region, &[1, 2, 3, 4]).unwrap();
        arr.finish_region(region).unwrap();
        // fill after seal rejected.
        assert!(arr.fill_rows(region, &[1, 2, 3, 4]).is_err());
        // Ordinary regions reject fill/finish.
        let plain = arr.program_region(&[1, 2, 3, 4], 1, 4, 4).unwrap().region;
        assert!(arr.fill_rows(plain, &[1, 2, 3, 4]).is_err());
        assert!(arr.finish_region(plain).is_err());
    }

    #[test]
    fn capacity_exhaustion_is_detected() {
        let mut cfg = small_cfg();
        cfg.num_crossbars = 1;
        let mut pim = PimArray::new(cfg).unwrap();
        // 64 objects × 8 dims with 4-bit operands: group = 8·2/4 = 4
        // objects → 16 groups, 1 slot → 16 crossbars > 1.
        let data = vec![1u32; 64 * 8];
        assert!(matches!(
            pim.program_region(&data, 64, 8, 4),
            Err(ReRamError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn operand_overflow_rejected() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        assert!(matches!(
            pim.program_region(&[16, 1], 1, 2, 4),
            Err(ReRamError::OperandOverflow { .. })
        ));
        assert!(pim.program_region(&[1, 2], 1, 2, 0).is_err());
        assert!(pim.program_region(&[1, 2], 1, 3, 4).is_err()); // ragged
    }

    #[test]
    fn multiple_regions_share_budget() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        let r1 = pim.program_region(&[1, 2, 3, 4], 1, 4, 4).unwrap();
        let r2 = pim.program_region(&[5, 6, 7, 8], 1, 4, 4).unwrap();
        assert_ne!(r1.region, r2.region);
        assert_eq!(pim.region_shape(r1.region).unwrap(), (1, 4, 4));
        assert_eq!(pim.region_shape(r2.region).unwrap(), (1, 4, 4));
        // Exactly two regions: the next id is not programmed.
        assert!(pim.region_shape(RegionId(2)).is_err());
        assert_eq!(pim.used_crossbars(), r1.cost.total() + r2.cost.total());
        let (v1, _) = pim
            .dot_batch(r1.region, &[1, 0, 0, 0], AccWidth::U64)
            .unwrap();
        let (v2, _) = pim
            .dot_batch(r2.region, &[1, 0, 0, 0], AccWidth::U64)
            .unwrap();
        assert_eq!(v1, vec![1]);
        assert_eq!(v2, vec![5]);
    }

    #[test]
    fn queries_do_not_wear_cells() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        let rep = pim.program_region(&[1, 2, 3, 4], 1, 4, 4).unwrap();
        let writes_after_program = pim.total_cell_writes();
        for _ in 0..100 {
            pim.dot_batch(rep.region, &[3, 3, 3, 3], AccWidth::U64)
                .unwrap();
        }
        assert_eq!(pim.total_cell_writes(), writes_after_program);
    }

    #[test]
    fn clear_frees_budget_but_keeps_wear() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        pim.program_region(&[1, 2, 3, 4], 1, 4, 4).unwrap();
        let wear = pim.total_cell_writes();
        pim.clear();
        assert_eq!(pim.used_crossbars(), 0);
        assert_eq!(pim.total_cell_writes(), wear);
        assert!(pim
            .dot_batch(RegionId(0), &[1, 1, 1, 1], AccWidth::U64)
            .is_err());
    }

    #[test]
    fn u32_accumulator_wraps() {
        let mut pim = PimArray::new(PimConfig::default()).unwrap();
        // 2^16 · 2^16 = 2^32 ≡ 0 (mod 2^32).
        let rep = pim.program_region(&[1 << 16], 1, 1, 17).unwrap();
        let (v32, _) = pim
            .dot_batch(rep.region, &[1 << 16], AccWidth::U32)
            .unwrap();
        assert_eq!(v32, vec![0]);
        let (v64, _) = pim
            .dot_batch(rep.region, &[1 << 16], AccWidth::U64)
            .unwrap();
        assert_eq!(v64, vec![1 << 32]);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        let rep = pim.program_region(&[1, 2, 3, 4], 1, 4, 4).unwrap();
        assert!(pim.dot_batch(rep.region, &[1, 2], AccWidth::U64).is_err());
    }

    #[test]
    fn strict_mode_matches_fast_path_with_slots() {
        // s = 4 on m = 8 → 2 slots stacked; 5 objects over 2 groups.
        let mut pim = PimArray::new(small_cfg()).unwrap();
        let data: Vec<u32> = (0..20).map(|i| (i * 7 + 3) % 16).collect();
        let rep = pim.program_region(&data, 5, 4, 4).unwrap();
        assert_eq!(rep.cost.slots_per_crossbar, 2);
        let query = [3u32, 15, 1, 8];
        let (fast, _) = pim.dot_batch(rep.region, &query, AccWidth::U64).unwrap();
        let strict = pim
            .dot_batch_strict(rep.region, &query, AccWidth::U64)
            .unwrap();
        assert_eq!(fast, strict);
    }

    #[test]
    fn strict_mode_matches_fast_path_with_gather_tree() {
        // s = 24 on m = 8 → 3 chunks per object through the all-ones tree.
        let mut pim = PimArray::new(small_cfg()).unwrap();
        let data: Vec<u32> = (0..3 * 24).map(|i| (i * 5 + 1) % 16).collect();
        let rep = pim.program_region(&data, 3, 24, 4).unwrap();
        assert_eq!(rep.cost.chunks_per_object, 3);
        let query: Vec<u32> = (0..24).map(|i| (i * 11) % 16).collect();
        let (fast, _) = pim.dot_batch(rep.region, &query, AccWidth::U64).unwrap();
        let strict = pim
            .dot_batch_strict(rep.region, &query, AccWidth::U64)
            .unwrap();
        assert_eq!(fast, strict);
    }

    #[test]
    fn strict_mode_respects_accumulator_width() {
        let mut pim = PimArray::new(PimConfig::default()).unwrap();
        let rep = pim.program_region(&[1 << 16], 1, 1, 17).unwrap();
        let strict = pim
            .dot_batch_strict(rep.region, &[1 << 16], AccWidth::U32)
            .unwrap();
        assert_eq!(strict, vec![0]); // 2^32 wraps to 0 at 32 bits
    }

    #[test]
    fn strict_mode_rejects_huge_geometries() {
        // 1200 × 256 at 32-bit operands → 75 crossbars × 65 536 cells,
        // beyond the strict-mode materialization cap.
        let mut pim = PimArray::new(PimConfig::default()).unwrap();
        let data = vec![1u32; 1200 * 256];
        let rep = pim.program_region(&data, 1200, 256, 32).unwrap();
        assert!(matches!(
            pim.dot_batch_strict(rep.region, &[1u32; 256], AccWidth::U64),
            Err(ReRamError::InvalidConfig { .. })
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// DESIGN.md §6 invariant 4, closing the loop: the strict-fidelity
        /// path — real materialized crossbars, slot stacking, chunking,
        /// all-ones gather trees — is bit-identical to the fast array path
        /// on random layouts. The integration suite holds the fast path to
        /// a `u128` reference at 1, 2 and 8 workers on these same layouts.
        #[test]
        fn strict_and_fast_paths_agree(
            n in 1usize..6,
            s in proptest::prop::sample::select(vec![3usize, 4, 8, 12, 24]),
            seed in 0u64..1000,
        ) {
            let cfg = PimConfig {
                crossbar: CrossbarConfig { size: 8, cell_bits: 2, dac_bits: 2, adc_bits: 12, ..Default::default() },
                num_crossbars: 4096,
                ..Default::default()
            };
            let mut pim = PimArray::new(cfg).unwrap();
            let data: Vec<u32> = (0..n * s).map(|i| ((i as u64 * 31 + seed * 7) % 16) as u32).collect();
            let query: Vec<u32> = (0..s).map(|i| ((i as u64 * 13 + seed * 3) % 16) as u32).collect();
            let rep = pim.program_region(&data, n, s, 4).unwrap();
            let (fast, _) = pim.dot_batch(rep.region, &query, AccWidth::U64).unwrap();
            let strict = pim.dot_batch_strict(rep.region, &query, AccWidth::U64).unwrap();
            proptest::prop_assert_eq!(fast, strict);
        }
    }

    #[test]
    fn inert_faults_leave_results_exact() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        let data: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let rep = pim.program_region(&data, 2, 4, 4).unwrap();
        let (clean, _) = pim
            .dot_batch(rep.region, &[1, 2, 3, 4], AccWidth::U64)
            .unwrap();
        pim.enable_faults(crate::faults::FaultConfig::default())
            .unwrap();
        let (faulty, _) = pim
            .dot_batch(rep.region, &[1, 2, 3, 4], AccWidth::U64)
            .unwrap();
        assert_eq!(clean, faulty);
        let scrub = pim.scrub_region(rep.region).unwrap();
        assert_eq!(scrub.faulty_cells, 0);
        assert_eq!(scrub.dead, 0);
        assert_eq!(scrub.healthy, scrub.crossbars_checked);
    }

    #[test]
    fn stuck_cells_drift_objects_within_discrepancy_bound() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        let data: Vec<u32> = (0..32).map(|i| (i * 7 + 3) % 16).collect();
        let rep = pim.program_region(&data, 8, 4, 4).unwrap();
        pim.enable_faults(crate::faults::FaultConfig {
            stuck_low_rate: 0.1,
            stuck_high_rate: 0.1,
            seed: 5,
            ..Default::default()
        })
        .unwrap();
        let scrub = pim.scrub_region(rep.region).unwrap();
        assert!(scrub.faulty_cells > 0, "seed 5 must inject faults here");
        assert_eq!(scrub.dead, 0, "stuck cells alone never kill a crossbar");
        let query = [3u32, 1, 2, 3];
        let qmax = 3u64;
        let (vals, _) = pim.dot_batch(rep.region, &query, AccWidth::U64).unwrap();
        let mut saw_drift = false;
        for obj in 0..8 {
            let exact: u64 = data[obj * 4..(obj + 1) * 4]
                .iter()
                .zip(&query)
                .map(|(&v, &q)| u64::from(v) * u64::from(q))
                .sum();
            let disc = pim.object_discrepancy(rep.region, obj).unwrap();
            let err = vals[obj].abs_diff(exact);
            assert!(
                err <= qmax * disc,
                "obj {obj}: err {err} > bound {}",
                qmax * disc
            );
            match pim.object_health(rep.region, obj).unwrap() {
                crate::faults::CrossbarHealth::Healthy => assert_eq!(disc, 0),
                crate::faults::CrossbarHealth::Drifted => {
                    assert!(disc > 0);
                    saw_drift = true;
                }
                crate::faults::CrossbarHealth::Dead => panic!("no dead crossbars expected"),
            }
        }
        assert!(saw_drift);
    }

    #[test]
    fn dead_wordlines_kill_and_remap_restores_exactness() {
        let mut cfg = small_cfg();
        cfg.num_crossbars = 128; // leave spare capacity for remapping
        let mut pim = PimArray::new(cfg).unwrap();
        let data: Vec<u32> = (0..32).map(|i| (i * 5 + 1) % 16).collect();
        let rep = pim.program_region(&data, 8, 4, 4).unwrap();
        pim.enable_faults(crate::faults::FaultConfig {
            dead_wordline_rate: 0.2,
            seed: 9,
            ..Default::default()
        })
        .unwrap();
        let scrub = pim.scrub_region(rep.region).unwrap();
        assert!(scrub.dead > 0, "seed 9 must kill a wordline here");
        let remap = pim.remap_dead(rep.region).unwrap();
        assert_eq!(remap.remapped_crossbars, scrub.dead);
        assert_eq!(remap.quarantined_objects, 0);
        assert!(remap.cell_writes > 0);
        // After remapping onto clean spares every read is exact again.
        let query = [2u32, 3, 1, 2];
        let (vals, _) = pim.dot_batch(rep.region, &query, AccWidth::U64).unwrap();
        for obj in 0..8 {
            let exact: u64 = data[obj * 4..(obj + 1) * 4]
                .iter()
                .zip(&query)
                .map(|(&v, &q)| u64::from(v) * u64::from(q))
                .sum();
            assert_eq!(vals[obj], exact);
            assert_eq!(
                pim.object_health(rep.region, obj).unwrap(),
                crate::faults::CrossbarHealth::Healthy
            );
        }
    }

    #[test]
    fn no_spares_leaves_objects_quarantined() {
        let mut cfg = small_cfg();
        cfg.num_crossbars = 1; // exactly the allocation, zero spares
        let mut pim = PimArray::new(cfg).unwrap();
        let data: Vec<u32> = (0..32).map(|i| (i % 16) as u32).collect();
        let rep = pim.program_region(&data, 8, 4, 4).unwrap();
        assert_eq!(pim.free_crossbars(), 0);
        pim.enable_faults(crate::faults::FaultConfig {
            dead_wordline_rate: 1.0,
            ..Default::default()
        })
        .unwrap();
        let scrub = pim.scrub_region(rep.region).unwrap();
        assert_eq!(scrub.dead, scrub.crossbars_checked);
        let remap = pim.remap_dead(rep.region).unwrap();
        assert_eq!(remap.remapped_crossbars, 0);
        assert_eq!(remap.quarantined_objects, 8);
        for obj in 0..8 {
            assert_eq!(
                pim.object_health(rep.region, obj).unwrap(),
                crate::faults::CrossbarHealth::Dead
            );
            // The true row stays readable for exact host fallback.
            assert_eq!(
                pim.region_row(rep.region, obj).unwrap(),
                &data[obj * 4..(obj + 1) * 4]
            );
        }
    }

    #[test]
    fn wear_out_from_reprogramming_is_detected() {
        let mut cfg = small_cfg();
        cfg.num_crossbars = 64;
        let mut pim = PimArray::new(cfg).unwrap();
        pim.enable_faults(crate::faults::FaultConfig {
            endurance_limit: 3,
            ..Default::default()
        })
        .unwrap();
        // Program/clear cycles wear the same physical crossbars.
        for _ in 0..4 {
            pim.program_region(&[1, 2, 3, 4], 1, 4, 4).unwrap();
            pim.clear();
        }
        let rep = pim.program_region(&[1, 2, 3, 4], 1, 4, 4).unwrap();
        assert!(pim.crossbar_programs(0) > 3);
        let scrub = pim.scrub_region(rep.region).unwrap();
        assert_eq!(scrub.dead, 1);
        // The worn crossbar reads zero.
        let (vals, _) = pim
            .dot_batch(rep.region, &[1, 1, 1, 1], AccWidth::U64)
            .unwrap();
        assert_eq!(vals, vec![0]);
        // Remap moves the region onto a fresh (unworn) spare.
        let remap = pim.remap_dead(rep.region).unwrap();
        assert_eq!(remap.remapped_crossbars, 1);
        let (vals, _) = pim
            .dot_batch(rep.region, &[1, 1, 1, 1], AccWidth::U64)
            .unwrap();
        assert_eq!(vals, vec![10]);
    }

    #[test]
    fn gather_fabric_faults_kill_whole_groups() {
        let mut cfg = small_cfg();
        cfg.num_crossbars = 16;
        let mut pim = PimArray::new(cfg).unwrap();
        // s = 16 > m = 8: two data crossbars + one gather crossbar.
        let data: Vec<u32> = (0..16).map(|i| (i * 3 + 1) % 16).collect();
        let rep = pim.program_region(&data, 1, 16, 4).unwrap();
        assert!(rep.cost.gather > 0);
        // Stuck cells at high density: some will land in the gather tree.
        pim.enable_faults(crate::faults::FaultConfig {
            stuck_low_rate: 0.9,
            ..Default::default()
        })
        .unwrap();
        let scrub = pim.scrub_region(rep.region).unwrap();
        assert!(scrub.dead > 0, "gather corruption must classify as dead");
        assert_eq!(
            pim.object_health(rep.region, 0).unwrap(),
            crate::faults::CrossbarHealth::Dead
        );
    }

    #[test]
    fn health_api_requires_fault_model_and_scrub() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        let rep = pim.program_region(&[1, 2, 3, 4], 1, 4, 4).unwrap();
        assert_eq!(
            pim.scrub_region(rep.region),
            Err(ReRamError::FaultsNotEnabled)
        );
        assert_eq!(
            pim.object_health(rep.region, 0),
            Err(ReRamError::FaultsNotEnabled)
        );
        pim.enable_faults(crate::faults::FaultConfig::default())
            .unwrap();
        assert_eq!(
            pim.object_health(rep.region, 0),
            Err(ReRamError::NotScrubbed)
        );
        assert_eq!(pim.remap_dead(rep.region), Err(ReRamError::NotScrubbed));
        pim.scrub_region(rep.region).unwrap();
        assert_eq!(
            pim.object_health(rep.region, 0).unwrap(),
            crate::faults::CrossbarHealth::Healthy
        );
        assert!(pim.object_health(rep.region, 99).is_err());
        assert!(pim.scrub_region(RegionId(7)).is_err());
        assert!(pim
            .enable_faults(crate::faults::FaultConfig {
                stuck_low_rate: 2.0,
                ..Default::default()
            })
            .is_err());
    }

    #[test]
    fn exhausted_adc_retries_fail_the_batch() {
        let mut pim = PimArray::new(small_cfg()).unwrap();
        let rep = pim.program_region(&[1, 2, 3, 4], 1, 4, 4).unwrap();
        pim.enable_faults(crate::faults::FaultConfig {
            adc_glitch_rate: 1.0,
            adc_retry_limit: 2,
            ..Default::default()
        })
        .unwrap();
        assert!(matches!(
            pim.dot_batch(rep.region, &[1, 1, 1, 1], AccWidth::U64),
            Err(ReRamError::AdcRetryExhausted { .. })
        ));
        assert!(matches!(
            pim.scrub_region(rep.region),
            Err(ReRamError::AdcRetryExhausted { .. })
        ));
    }

    #[test]
    fn faulty_emulation_matches_unit_level_crossbar() {
        // Cross-validate the array-level fault emulation against the
        // materialized faulty pipeline on a single-crossbar layout.
        let cfg = small_cfg();
        let faults = crate::faults::FaultConfig {
            stuck_low_rate: 0.12,
            stuck_high_rate: 0.08,
            dead_bitline_rate: 0.05,
            dead_wordline_rate: 0.05,
            seed: 31,
            ..Default::default()
        };
        let (n, s, b) = (2usize, 4usize, 6u32);
        let data: Vec<u32> = vec![25, 14, 63, 0, 9, 20, 1, 33];
        let query: Vec<u32> = vec![9, 20, 7, 63];

        let mut pim = PimArray::new(cfg).unwrap();
        let rep = pim.program_region(&data, n, s, b).unwrap();
        pim.enable_faults(faults).unwrap();
        let (fast, _) = pim.dot_batch(rep.region, &query, AccWidth::U64).unwrap();

        // The region's single data crossbar is physical id 0.
        let mut xb = Crossbar::new(cfg.crossbar).unwrap();
        let w = cfg.crossbar.cells_per_operand(b);
        for (obj, row) in data.chunks_exact(s).enumerate() {
            let col: Vec<u64> = row.iter().map(|&v| u64::from(v)).collect();
            xb.program_operand_column(0, obj * w, &col, b).unwrap();
        }
        let q64: Vec<u64> = query.iter().map(|&v| u64::from(v)).collect();
        let (slow, _) = xb.dot_products_faulty(0, &q64, 6, b, &faults, 0).unwrap();
        for i in 0..n {
            assert_eq!(fast[i], AccWidth::U64.wrap(slow[i]), "object {i}");
        }
    }

    /// The arithmetic `dot_batch` replaced, kept as the reference: a
    /// `u128` multiply-accumulate per crossbar chunk over explicit rows.
    /// Returns the wrapped values and the largest partial (clamped).
    fn u128_reference<'a>(
        rows: impl Iterator<Item = &'a [u32]>,
        query: &[u32],
        m: usize,
        acc: AccWidth,
    ) -> (Vec<u64>, u64) {
        let mut max_partial = 0u64;
        let values = rows
            .map(|row| {
                let mut total: u128 = 0;
                for (cq, cv) in query.chunks(m).zip(row.chunks(m)) {
                    let partial: u128 = cq
                        .iter()
                        .zip(cv)
                        .map(|(&a, &b)| u128::from(a) * u128::from(b))
                        .sum();
                    max_partial = max_partial.max(partial.min(u128::from(u64::MAX)) as u64);
                    total += partial;
                }
                acc.wrap(total)
            })
            .collect();
        (values, max_partial)
    }

    #[test]
    fn row_dot_blocks_never_wrap_at_any_width_pair() {
        // All-maximal operands fill every block to its bound; a block one
        // operand too long, or sized for too few bits, would wrap the
        // kernel's u64 and lose `max_partial` (the values alone would not
        // show it: they are wrapped to the accumulator anyway).
        let (m, s) = (16usize, 40usize);
        for stored_bits in 1..=32u32 {
            for input_bits in 1..=32u32 {
                let row = vec![u32::MAX >> (32 - stored_bits); s];
                let query = vec![u32::MAX >> (32 - input_bits); s];
                let block = exact_block_len(stored_bits, input_bits);
                let (total, max_partial) = row_dot(simpim_kern::dot_u32, &query, &row, m, block);
                let exact = u128::from(row[0]) * u128::from(query[0]);
                assert_eq!(total, exact * s as u128, "{stored_bits}+{input_bits} bits");
                assert_eq!(
                    u128::from(max_partial),
                    (exact * m as u128).min(u128::from(u64::MAX)),
                    "{stored_bits}+{input_bits} bits"
                );
            }
        }
        assert_eq!(exact_block_len(32, 32), 1);
        assert_eq!(exact_block_len(32, 20), 4096);
        assert_eq!(exact_block_len(1, 1), 1 << 62);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// `dot_batch` ≡ the `u128` reference ≡ `dot_batch_strict` on
        /// every kernel tier, for every operand width against every
        /// query width (32 + 32 bits is the block-of-one case; half the
        /// operands sit at the maximum so blocks are as full as they
        /// get), both accumulator widths, slot-stacked and gather-tree
        /// layouts — and, read through a fault model, ≡ the reference
        /// over the survey's faulty rows. `PimTiming` must be the one the
        /// reference's `max_partial` derives.
        #[test]
        fn dot_batch_matches_u128_reference_and_strict(
            // Half the cases near 32 + 32 bits, where blocks are short.
            operand_bits in proptest::prop_oneof![1u32..=32, 28u32..=32],
            query_bits in proptest::prop_oneof![1u32..=32, 28u32..=32],
            n in 1usize..=5,
            s in 1usize..=40,
            acc in proptest::prop::sample::select(vec![AccWidth::U32, AccWidth::U64]),
            seed in proptest::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut draw = |bits: u32, len: usize| -> Vec<u32> {
                let max = u32::MAX >> (32 - bits);
                (0..len)
                    .map(|_| if rng.gen_range(0..2) == 0 { max } else { rng.gen_range(0..=max) })
                    .collect()
            };
            let data = draw(operand_bits, n * s);
            let query = draw(query_bits, s);
            let cfg = PimConfig {
                crossbar: CrossbarConfig { size: 16, ..Default::default() },
                num_crossbars: 4096,
                ..Default::default()
            };
            let m = cfg.crossbar.size;
            let mut pim = PimArray::new(cfg).unwrap();
            let rep = pim.program_region(&data, n, s, operand_bits).unwrap();
            let timing_for = |max_partial: u64| {
                dot_batch_timing(
                    &cfg,
                    &rep.cost,
                    bits_needed_slice(&query),
                    bits_needed(max_partial).min(acc.bits()),
                    n,
                    acc,
                )
            };
            let tiers = simpim_kern::Backend::ALL.into_iter().filter(|b| b.is_supported());

            let (want, max_partial) = u128_reference(data.chunks_exact(s), &query, m, acc);
            let strict = pim.dot_batch_strict(rep.region, &query, acc).unwrap();
            proptest::prop_assert_eq!(&strict, &want, "strict vs reference");
            for tier in tiers.clone() {
                let (got, timing) = simpim_kern::with_backend(tier, || {
                    pim.dot_batch(rep.region, &query, acc).unwrap()
                });
                proptest::prop_assert_eq!(&got, &want, "clean, {}", tier.name());
                proptest::prop_assert_eq!(timing, timing_for(max_partial), "clean timing");
            }

            // No ADC glitches, so the fault model adds no retry time and
            // the timing stays the clean rows' (as `dot_batch` defines it).
            pim.enable_faults(crate::faults::FaultConfig {
                stuck_low_rate: 0.1,
                stuck_high_rate: 0.1,
                dead_bitline_rate: 0.03,
                dead_wordline_rate: 0.03,
                seed,
                ..Default::default()
            })
            .unwrap();
            pim.scrub_region(rep.region).unwrap();
            let info = pim.fault_info[rep.region.0].clone().unwrap();
            let read_through = data.chunks_exact(s).enumerate().map(|(obj, row)| {
                info.faulty_rows.get(&obj).map_or(row, |f| f.as_slice())
            });
            let (mut want, _) = u128_reference(read_through, &query, m, acc);
            for (obj, v) in want.iter_mut().enumerate() {
                if info.dead_objects[obj] && !info.faulty_rows.contains_key(&obj) {
                    *v = 0;
                }
            }
            for tier in tiers {
                let (got, timing) = simpim_kern::with_backend(tier, || {
                    pim.dot_batch(rep.region, &query, acc).unwrap()
                });
                proptest::prop_assert_eq!(&got, &want, "faulty, {}", tier.name());
                proptest::prop_assert_eq!(timing, timing_for(max_partial), "faulty timing");
            }
        }
    }

    /// Energy by bits: the accumulators are `f64` sums, so the order of
    /// the charges is part of the value.
    fn energy_bits(pim: &PimArray) -> [u64; 3] {
        let e = pim.energy();
        [e.write_j, e.compute_j, e.bus_j].map(f64::to_bits)
    }

    /// A fine [`PimArray::read`] of `passes`, as single calls return it:
    /// per pass its values and its `PimTiming`.
    fn read_fine(
        pim: &mut PimArray,
        passes: &[(RegionId, &[u32])],
        acc: AccWidth,
    ) -> Vec<(Vec<u64>, PimTiming)> {
        let reads = pim.read(passes, acc, Read::Fine).unwrap();
        assert!(reads.iter().all(|pass| pass.read == Read::Fine));
        reads.into_iter().map(|p| (p.values, p.timing)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// A fine `read` over `Q` queries interleaved on two regions
        /// (query-major, the executor's order for a two-region row) ≡
        /// the same passes as single `dot_batch` calls in that order ≡
        /// `dot_batch_strict`, on every kernel tier: values, `PimTiming`
        /// per pass, the `EnergyReport` by bits and the region shapes.
        /// `Q` runs 1..=9: the single pass, every multi-query group size
        /// and a nine-query read's group of eight plus one. Operand and
        /// query widths fall on both sides of the `f64` gate: 8..=20
        /// bits keep a row's sum below 2⁵³, 28..=32 bits leave it (blocks
        /// of one at 32 + 32), and every query of a read has its own
        /// width, so the read runs on its widest; both accumulator
        /// widths, slot-stacked and gather-tree layouts; clean, then read
        /// through stuck cells and dead lines.
        #[test]
        fn a_fine_read_matches_single_passes_and_strict(
            operand_bits in proptest::prop_oneof![1u32..=32, 28u32..=32, 8u32..=20],
            query_bits in proptest::prop::collection::vec(
                proptest::prop_oneof![1u32..=32, 28u32..=32, 8u32..=20],
                18,
            ),
            q in 1usize..=9,
            shape in (1usize..=5, 1usize..=40),
            acc in proptest::prop::sample::select(vec![AccWidth::U32, AccWidth::U64]),
            seed in proptest::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let (n, s) = shape;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut draw = |bits: u32, len: usize| -> Vec<u32> {
                let max = u32::MAX >> (32 - bits);
                (0..len)
                    .map(|_| if rng.gen_range(0..2) == 0 { max } else { rng.gen_range(0..=max) })
                    .collect()
            };
            let cfg = PimConfig {
                crossbar: CrossbarConfig { size: 16, ..Default::default() },
                num_crossbars: 8192,
                ..Default::default()
            };
            // The second region is narrower and one row longer.
            let (s2, bits2) = (s.div_ceil(2), operand_bits.min(16));
            let mut pim = PimArray::new(cfg).unwrap();
            let a = pim.program_region(&draw(operand_bits, n * s), n, s, operand_bits).unwrap();
            let b = pim.program_region(&draw(bits2, (n + 1) * s2), n + 1, s2, bits2).unwrap();
            let queries: Vec<(RegionId, Vec<u32>)> = (0..q)
                .flat_map(|i| {
                    [(a.region, draw(query_bits[2 * i], s)), (b.region, draw(query_bits[2 * i + 1], s2))]
                })
                .collect();
            let passes: Vec<(RegionId, &[u32])> =
                queries.iter().map(|(r, v)| (*r, v.as_slice())).collect();
            let tiers: Vec<_> =
                simpim_kern::Backend::ALL.into_iter().filter(|b| b.is_supported()).collect();

            for faulty in [false, true] {
                if faulty {
                    pim.enable_faults(crate::faults::FaultConfig {
                        stuck_low_rate: 0.1,
                        stuck_high_rate: 0.1,
                        dead_bitline_rate: 0.03,
                        dead_wordline_rate: 0.03,
                        seed,
                        ..Default::default()
                    })
                    .unwrap();
                } else {
                    for &(region, query) in &passes {
                        let strict = pim.dot_batch_strict(region, query, acc).unwrap();
                        let (single, _) = pim.clone().dot_batch(region, query, acc).unwrap();
                        proptest::prop_assert_eq!(strict, single, "strict vs single");
                    }
                }
                for &tier in &tiers {
                    let (mut multi, mut single) = (pim.clone(), pim.clone());
                    let (got, want) = simpim_kern::with_backend(tier, || {
                        let want: Vec<_> = passes
                            .iter()
                            .map(|&(region, query)| single.dot_batch(region, query, acc).unwrap())
                            .collect();
                        (read_fine(&mut multi, &passes, acc), want)
                    });
                    proptest::prop_assert_eq!(got, want, "faulty {}, {}", faulty, tier.name());
                    proptest::prop_assert_eq!(energy_bits(&multi), energy_bits(&single));
                    for region in [a.region, b.region] {
                        proptest::prop_assert_eq!(
                            multi.region_shape(region).unwrap(),
                            single.region_shape(region).unwrap()
                        );
                    }
                }
            }
        }
    }

    /// A shared read runs on the shortest of its queries' exact blocks.
    /// The row's first-chunk partial against the 32-bit query is 2⁶⁴ + 1:
    /// on the block the three 1-bit queries would allow it wraps to 1
    /// inside the kernel, which the value (wrapped anyway) hides and only
    /// the largest partial — the gather pass of `PimTiming` — shows.
    #[test]
    fn a_shared_read_runs_on_its_shortest_exact_block() {
        let cfg = PimConfig {
            crossbar: CrossbarConfig {
                size: 16,
                ..Default::default()
            },
            ..Default::default()
        };
        let s = 17; // one operand past a crossbar: a gather tree
        let padded = |head: [u32; 2]| [&head[..], &[0; 15]].concat();
        let mut pim = PimArray::new(cfg).unwrap();
        let rep = pim
            .program_region(&padded([u32::MAX, 1 << 17]), 1, s, 32)
            .unwrap();
        let queries = [[u32::MAX, 1 << 16], [1, 1], [1, 0], [0, 1]].map(padded);
        let passes: Vec<(RegionId, &[u32])> =
            queries.iter().map(|q| (rep.region, &q[..])).collect();
        let got = read_fine(&mut pim, &passes, AccWidth::U64);
        assert_eq!(got[0].0, [1], "2^64 + 1 wrapped at the accumulator");
        let timing =
            |partial_bits| dot_batch_timing(&cfg, &rep.cost, 32, partial_bits, 1, AccWidth::U64);
        assert_ne!(timing(64), timing(1));
        assert_eq!(got[0].1, timing(64));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// A region whose rows all sit under the `f64` gate takes the
        /// multi-query kernel; a row appended or rewritten past it (one
        /// 31- or 32-bit operand) flips the region to one `dot_u32` per query
        /// for good — truncating the wide row away keeps the widest width
        /// programmed. Before the flip, after it and after the truncation,
        /// on every tier, clean and with a fault model that leaves faulty
        /// rows: a fine `read` ≡ single passes (values, `PimTiming`,
        /// energy by bits) ≡ `dot_batch_strict` on the clean array.
        #[test]
        fn a_region_widened_mid_life_flips_off_the_f64_path_and_stays_exact(
            (n, s) in (1usize..=5, 5usize..=40),
            q in 2usize..=9,
            narrow in 1u32..=20,
            wide in 31u32..=32,
            (rewrite, faulty) in (proptest::any::<bool>(), proptest::any::<bool>()),
            seed in proptest::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut draw = |bits: u32, len: usize| -> Vec<u32> {
                let max = u32::MAX >> (32 - bits);
                (0..len)
                    .map(|_| if rng.gen_range(0..2) == 0 { max } else { rng.gen_range(0..=max) })
                    .collect()
            };
            let cfg = PimConfig {
                crossbar: CrossbarConfig { size: 16, ..Default::default() },
                num_crossbars: 8192,
                ..Default::default()
            };
            let mut pim = PimArray::new(cfg).unwrap();
            let r = pim
                .program_region_with_capacity(&draw(narrow, n * s), n, n + 1, s, 32)
                .unwrap()
                .region;
            if faulty {
                pim.enable_faults(crate::faults::FaultConfig {
                    stuck_low_rate: 0.1,
                    stuck_high_rate: 0.1,
                    dead_bitline_rate: 0.03,
                    dead_wordline_rate: 0.03,
                    seed,
                    ..Default::default()
                })
                .unwrap();
            }
            // 20-bit queries on rows of 5+ operands: a 31-bit operand
            // takes the row past 2⁵³ (31 + 20 + 3 bits), a 32-bit one past
            // the signed convert.
            let mut queries: Vec<Vec<u32>> = (0..q).map(|_| draw(20, s)).collect();
            queries[0][0] = (1 << 20) - 1;
            let passes: Vec<(RegionId, &[u32])> =
                queries.iter().map(|v| (r, v.as_slice())).collect();
            let widest = queries.iter().map(|v| bits_needed_slice(v)).max().unwrap();
            let check = |pim: &PimArray, f64_path: bool| {
                proptest::prop_assert_eq!(pim.regions[r.0].f64_exact(widest), f64_path);
                for tier in simpim_kern::Backend::ALL.into_iter().filter(|b| b.is_supported()) {
                    let (mut multi, mut single) = (pim.clone(), pim.clone());
                    let (got, want) = simpim_kern::with_backend(tier, || {
                        let want: Vec<_> = passes
                            .iter()
                            .map(|&(region, query)| single.dot_batch(region, query, AccWidth::U64).unwrap())
                            .collect();
                        (read_fine(&mut multi, &passes, AccWidth::U64), want)
                    });
                    proptest::prop_assert_eq!(got, want, "f64 path {}, {}", f64_path, tier.name());
                    proptest::prop_assert_eq!(energy_bits(&multi), energy_bits(&single));
                }
                if !faulty {
                    for &(region, query) in &passes {
                        let (single, _) = pim.clone().dot_batch(region, query, AccWidth::U64).unwrap();
                        let strict = pim.dot_batch_strict(region, query, AccWidth::U64).unwrap();
                        proptest::prop_assert_eq!(strict, single, "strict vs single");
                    }
                }
            };
            check(&pim, true);
            let mut row = draw(narrow, s);
            row[rng.gen_range(0..s)] = u32::MAX >> (32 - wide);
            if rewrite {
                pim.rewrite_rows(r, rng.gen_range(0..n), &row).unwrap();
            } else {
                pim.append_rows(r, &row).unwrap();
            }
            check(&pim, false);
            if !rewrite && n > 1 {
                pim.truncate_rows(r, n).unwrap();
                check(&pim, false);
            }
        }
    }

    /// A stored operand of 2³¹ or more keeps a region off the `f64`
    /// path even where its sums are small: the kernel's convert is
    /// signed and would read it negative.
    #[test]
    fn a_32_bit_stored_operand_stays_off_the_f64_path() {
        let mut pim = PimArray::new(PimConfig::default()).unwrap();
        let rows = [[1u32 << 31, 3, 0, 1], [u32::MAX, 0, 7, 2]];
        let r = pim
            .program_region(rows.as_flattened(), 2, 4, 32)
            .unwrap()
            .region;
        assert!(!pim.regions[r.0].f64_exact(1));
        let queries = [[1u32, 0, 1, 1], [0, 1, 1, 1]];
        let passes: Vec<(RegionId, &[u32])> = queries.iter().map(|q| (r, &q[..])).collect();
        let got = read_fine(&mut pim, &passes, AccWidth::U64);
        for ((values, _), q) in got.iter().zip(&queries) {
            let (want, _) = u128_reference(rows.iter().map(|r| &r[..]), q, 256, AccWidth::U64);
            assert_eq!(values, &want);
        }
    }

    /// The shared read across its task seams: three pool tasks (256, 256
    /// and 88 rows), the lookahead running off the end of each — at one
    /// worker and at three, against the `u128` reference.
    #[test]
    fn a_fine_read_crosses_tasks() {
        let (n, s, q) = (600usize, 420usize, 9usize);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |len: usize, bits: u32| -> Vec<u32> {
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 32) as u32 >> (32 - bits)
                })
                .collect()
        };
        let cfg = PimConfig {
            num_crossbars: 1 << 16,
            ..Default::default()
        };
        let m = cfg.crossbar.size;
        let data = draw(n * s, 32);
        let queries: Vec<Vec<u32>> = (0..q).map(|i| draw(s, 32 - 3 * i as u32)).collect();
        let mut pim = PimArray::new(cfg).unwrap();
        let rep = pim.program_region(&data, n, s, 32).unwrap();
        let passes: Vec<(RegionId, &[u32])> =
            queries.iter().map(|v| (rep.region, v.as_slice())).collect();
        for workers in [1, 3] {
            let got =
                simpim_par::with_threads(workers, || read_fine(&mut pim, &passes, AccWidth::U64));
            for ((values, timing), query) in got.iter().zip(&queries) {
                let (want, max_partial) =
                    u128_reference(data.chunks_exact(s), query, m, AccWidth::U64);
                assert_eq!(values, &want, "{workers} worker(s)");
                let partial_bits = bits_needed(max_partial).min(64);
                let input_bits = bits_needed_slice(query);
                assert_eq!(
                    *timing,
                    dot_batch_timing(&cfg, &rep.cost, input_bits, partial_bits, n, AccWidth::U64)
                );
            }
        }
    }

    /// `Region::f64_exact` on and around its boundary, at every stored
    /// width `b` and query width `i` up to 32 bits and row lengths of
    /// `⌈log₂ s⌉` up to 24, both at `s = 2^l` and just past `2^(l − 1)`:
    /// it holds exactly when `b ≤ 31` and `b + i + ⌈log₂ s⌉ ≤ 53`, and
    /// then the largest row sum `s (2^b − 1)(2^i − 1)` is below 2⁵³.
    #[test]
    fn the_f64_gate_holds_exactly_on_its_boundary() {
        let mut pim = PimArray::new(PimConfig::default()).unwrap();
        let r = pim.program_region(&[1], 1, 1, 32).unwrap().region;
        let mut reg = pim.regions[r.0].clone();
        for b in 1..=32u32 {
            for i in 1..=32u32 {
                for l in 0..=24u32 {
                    for s in [1usize << l, (1usize << l.saturating_sub(1)) + 1] {
                        (reg.s, reg.widest_bits) = (s, b);
                        let gate = reg.f64_exact(i);
                        let log_s = s.next_power_of_two().trailing_zeros();
                        assert_eq!(gate, b <= 31 && b + i + log_s <= 53, "b={b} i={i} s={s}");
                        let largest = s as u128 * ((1u128 << b) - 1) * ((1u128 << i) - 1);
                        assert!(!gate || largest < 1 << 53, "b={b} i={i} s={s}");
                    }
                }
            }
        }
    }

    /// A single query whose region passes the `f64` gate reads through
    /// `dot_multi_f64` where the tier has it, and returns what `row_dot`
    /// returns, bit for bit: the values and the largest partial against
    /// `row_dot` and the `u128` reference, `PimTiming` derived from that
    /// partial, and the energy by bits against the scalar tier, whose
    /// reads all take `row_dot`. Both accumulator widths (`U32` is the
    /// Hamming wrap), on an `LB_PIM-FNN` pair (the µ and the σ floors of
    /// 24 segments at α = 10⁶, three pool tasks of rows) and on a region
    /// past the gate (31-bit operands on rows of 40), which stays on
    /// `row_dot`: there the `f64` kernel would round.
    #[test]
    fn the_f64_gate_reads_a_single_query_as_row_dot_does() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |len: usize, max: u32| -> Vec<u32> {
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x & 3 == 0 {
                        max
                    } else {
                        (x >> 32) as u32 % (max + 1)
                    }
                })
                .collect()
        };
        let cfg = PimConfig {
            crossbar: CrossbarConfig {
                size: 16,
                ..Default::default()
            },
            num_crossbars: 1 << 16,
            ..Default::default()
        };
        let (m, n, alpha) = (cfg.crossbar.size, 600usize, 1_000_000u32);
        // (stored maximum, row length, query maximum, inside the gate)
        let regions = [
            (alpha, 24, alpha, true),
            (alpha / 2, 24, alpha / 2, true),
            ((1 << 31) - 1, 40, alpha, false),
        ];
        let mut pim = PimArray::new(cfg).unwrap();
        let programmed: Vec<_> = regions
            .iter()
            .map(|&(max, s, qmax, inside)| {
                let data = draw(n * s, max);
                let rep = pim.program_region(&data, n, s, 32).unwrap();
                (data, rep, draw(s, qmax), inside)
            })
            .collect();
        let tiers = simpim_kern::Backend::ALL
            .into_iter()
            .filter(|b| b.is_supported());
        for (data, rep, query, inside) in &programmed {
            let (s, input_bits) = (query.len(), bits_needed_slice(query));
            let reg = &pim.regions[rep.region.0];
            assert_eq!(reg.f64_exact(input_bits), *inside);
            let block = exact_block_len(reg.stored_bits(&cfg.crossbar), input_bits);
            let as_f64: Vec<f64> = query.iter().map(|&v| f64::from(v)).collect();
            let rounds = data.chunks_exact(s).any(|row| {
                let mut sums = [0.0; 2];
                simpim_kern::dot_multi_f64(row, &[&as_f64], m, &mut sums);
                sums[0] as u128 != row_dot(simpim_kern::dot_u32, query, row, m, block).0
            });
            assert_eq!(rounds, !inside, "the f64 kernel rounds only past the gate");
            for acc in [AccWidth::U64, AccWidth::U32] {
                let (want, max_partial) = u128_reference(data.chunks_exact(s), query, m, acc);
                let mut by_row_dot = (Vec::new(), 0u64);
                for row in data.chunks_exact(s) {
                    let (total, top) = row_dot(simpim_kern::dot_u32, query, row, m, block);
                    by_row_dot.0.push(acc.wrap(total));
                    by_row_dot.1 = by_row_dot.1.max(top);
                }
                assert_eq!(by_row_dot, (want.clone(), max_partial));
                let timing = dot_batch_timing(
                    &cfg,
                    &rep.cost,
                    input_bits,
                    bits_needed(max_partial).min(acc.bits()),
                    n,
                    acc,
                );
                let read = |tier| {
                    let mut on = pim.clone();
                    let (values, timing) = simpim_kern::with_backend(tier, || {
                        on.dot_batch(rep.region, query, acc).unwrap()
                    });
                    (values, timing, energy_bits(&on))
                };
                let (.., on_row_dot) = read(simpim_kern::Backend::Scalar);
                for tier in tiers.clone() {
                    let (values, got, energy) = read(tier);
                    let at = format!("{}, {acc:?}, inside the gate {inside}", tier.name());
                    assert!(values == want, "values, {at}");
                    assert_eq!(got, timing, "{at}");
                    assert_eq!(energy, on_row_dot, "{at}");
                }
            }
        }
    }

    /// The plain and the coarse-first read of the same passes, each on
    /// its own copy of `pim`.
    #[allow(clippy::type_complexity)]
    fn both_reads(
        pim: &PimArray,
        passes: &[(RegionId, &[u32])],
        acc: AccWidth,
    ) -> (
        (PimArray, Vec<(Vec<u64>, PimTiming)>),
        (PimArray, Vec<PassResult>),
    ) {
        let (mut fine, mut coarse) = (pim.clone(), pim.clone());
        let want = read_fine(&mut fine, passes, acc);
        let got = coarse.read(passes, acc, Read::Coarse).unwrap();
        ((fine, want), (coarse, got))
    }

    /// Every coarse value is at least the dot product the plain read
    /// returns, and `dot_rows` gives that dot product back; a pass that
    /// did not read coarse returns the plain values. Timing and energy
    /// are the plain read's, bit for bit. Returns each pass's flag.
    fn assert_coarse_read(
        pim: &PimArray,
        passes: &[(RegionId, &[u32])],
        acc: AccWidth,
    ) -> Vec<bool> {
        let ((fine, want), (coarse, got)) = both_reads(pim, passes, acc);
        assert_eq!(energy_bits(&coarse), energy_bits(&fine), "energy");
        let mut flags = Vec::new();
        for (&(region, query), (pass, (dots, fine_timing))) in
            passes.iter().zip(got.into_iter().zip(want))
        {
            let (values, read_coarse) = (pass.values, pass.read == Read::Coarse);
            assert_eq!(pass.timing, fine_timing, "the modeled pass");
            if read_coarse {
                assert!(
                    values.iter().zip(&dots).all(|(v, d)| v >= d),
                    "{values:?} {dots:?}"
                );
                let objs: Vec<usize> = (0..dots.len()).collect();
                assert_eq!(coarse.dot_rows(region, query, &objs, acc).unwrap(), dots);
            } else {
                assert_eq!(values, dots);
            }
            flags.push(read_coarse);
        }
        flags
    }

    proptest::proptest! {
        // 96: the half that straddles rides on the other half's 48.
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// A coarse `read` ≡ a fine one on the modeled device
        /// (timing per pass, energy by bits) and bounds every dot from
        /// above where it read coarse, on every kernel tier, over `Q`
        /// queries interleaved on two regions: stored operands at or below
        /// a 12-bit cell (shift 0: the bound is the dot), past it (shift
        /// 1..=12) and at 28..=32 bits; queries that fit a cell at the shift and
        /// queries that do not; both accumulators; slot-stacked and
        /// gather-tree layouts; clean, then with a fault model. A region
        /// reads coarse exactly when two or more of its passes fit, the
        /// array is clean, the accumulator is 64 bits wide and its sums
        /// cannot wrap (28..=32-bit operands leave that last gate). In
        /// half the cases the first region's rows straddle a gather cycle:
        /// at a shift `t ≥ 1`, each row's cells `P` and every query's cell
        /// `Q = 3` put its chunk's coarse partial `16PQ` just under a
        /// power of 4 (one of 4³..4⁶, per row), and the low bits of its
        /// operands and the query's, all ones, lift the fine partial past
        /// it: the row with the largest power needs one gather cycle more
        /// than its bracket's lower end, so the read must bracket rows one
        /// by one to charge the plain pass.
        #[test]
        fn a_coarse_read_charges_the_full_pass_and_bounds_every_dot(
            operand_bits in proptest::prop_oneof![1u32..=12, 13u32..=24, 28u32..=32],
            over in proptest::prop::collection::vec(proptest::prop_oneof![0u32..=12, 13u32..=13], 18),
            q in 1usize..=9,
            shape in (
                1usize..=5,
                1usize..=40,
                proptest::any::<bool>(),
                proptest::prop::collection::vec(3u32..=6, 5),
            ),
            acc in proptest::prop::sample::select(vec![AccWidth::U32, AccWidth::U64]),
            seed in proptest::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let (n, s, straddle, powers) = shape;
            // Straddling rows need a shift: operands of 13..=24 bits.
            let operand_bits = if straddle { 13 + operand_bits % 12 } else { operand_bits };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut draw = |bits: u32, len: usize| -> Vec<u32> {
                let max = u32::MAX >> (32 - bits.min(32));
                (0..len)
                    .map(|_| if rng.gen_range(0..2) == 0 { max } else { rng.gen_range(0..=max) })
                    .collect()
            };
            let cfg = PimConfig {
                crossbar: CrossbarConfig { size: 16, ..Default::default() },
                num_crossbars: 8192,
                ..Default::default()
            };
            let (s2, bits2) = (s.div_ceil(2), operand_bits.min(16));
            let mut pim = PimArray::new(cfg).unwrap();
            let a = pim.program_region(&draw(operand_bits, n * s), n, s, operand_bits).unwrap();
            let b = pim.program_region(&draw(bits2, (n + 1) * s2), n + 1, s2, bits2).unwrap();
            // A query `over` bits past the region's shift: 12 and less fit
            // a cell, 13 does not (unless the region is that narrow).
            let widths: Vec<[u32; 2]> = [a.region, b.region]
                .map(|r| coarse::shift(pim.regions[r.0].widest_bits))
                .into_iter()
                .map(|t| [t, t])
                .collect();
            let mut queries: Vec<(RegionId, Vec<u32>)> = (0..q)
                .flat_map(|i| {
                    let bits = |r: usize, k: usize| (widths[r][0] + over[k]).clamp(1, 32);
                    [(a.region, draw(bits(0, 2 * i), s)), (b.region, draw(bits(1, 2 * i + 1), s2))]
                })
                .collect();
            let t = widths[0][0];
            if straddle && t >= 1 {
                let low = (1u32 << t) - 1;
                let chunk = s.min(16) as u32;
                for (row, &power) in powers[..n].iter().enumerate() {
                    let cell = ((4u32.pow(power) - 1) / (3 * chunk)).clamp(1, 4095);
                    pim.rewrite_rows(a.region, row, &vec![cell << t | low; s]).unwrap();
                }
                for (_, query) in queries.iter_mut().filter(|(r, _)| *r == a.region) {
                    *query = vec![3 << t | low; s];
                }
            }
            let passes: Vec<(RegionId, &[u32])> =
                queries.iter().map(|(r, v)| (*r, v.as_slice())).collect();
            let tiers: Vec<_> =
                simpim_kern::Backend::ALL.into_iter().filter(|b| b.is_supported()).collect();
            for faulty in [false, true] {
                if faulty {
                    pim.enable_faults(crate::faults::FaultConfig {
                        stuck_low_rate: 0.1,
                        dead_wordline_rate: 0.03,
                        seed,
                        ..Default::default()
                    })
                    .unwrap();
                }
                for &tier in &tiers {
                    let flags = simpim_kern::with_backend(tier, || assert_coarse_read(&pim, &passes, acc));
                    for (i, (&(region, _), &flag)) in passes.iter().zip(&flags).enumerate() {
                        let t = coarse::shift(pim.regions[region.0].widest_bits);
                        let fits = passes
                            .iter()
                            .filter(|(r, _)| *r == region)
                            .all(|(_, q)| bits_needed_slice(q) <= t + coarse::CELL_BITS);
                        let s = pim.regions[region.0].s;
                        let want = q >= 2 && !faulty && acc == AccWidth::U64 && fits && coarse::fits(t, s);
                        proptest::prop_assert_eq!(flag, want, "pass {}", i);
                    }
                }
            }
        }
    }

    /// FNV-1a of what a coarse read of `passes` on a copy of `pim` returns
    /// and charges: per pass its values, its flag and its `PimTiming`
    /// bits, then the array's energy bits.
    fn coarse_read_hash(pim: &PimArray, passes: &[(RegionId, &[u32])]) -> u64 {
        let mut pim = pim.clone();
        let reads = pim.read(passes, AccWidth::U64, Read::Coarse).unwrap();
        let mut words = Vec::new();
        for PassResult {
            values,
            timing,
            read,
        } in reads
        {
            words.extend(values);
            words.push(u64::from(read == Read::Coarse));
            let ns = [
                timing.data_pass_ns,
                timing.gather_ns,
                timing.bus_ns,
                timing.buffer_ns,
            ];
            words.extend(ns.map(f64::to_bits));
            words.push(timing.buffer_waves);
        }
        words.extend(energy_bits(&pim));
        let bytes = words.iter().flat_map(|w| w.to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// A row whose coarse bracket straddles a gather-cycle boundary: at
    /// shift 8 its 16 operands of 511 (cell 1) against the query's of
    /// 262 143 (cell 1 023) put the lower end at 1 023 · 2²⁰ < 2³⁰ (15
    /// two-bit cycles), the fine partial is 16 · 511 · 262 143 > 2³⁰ (16).
    /// The coarse read resolves the row fine and charges the plain read's
    /// gather pass; the bracket's lower end alone would charge one cycle
    /// less a stage. Then a task whose own bracket straddles a boundary
    /// while no row's does: the largest coarse partial (row A's, one
    /// operand of cell 4 095 against the query's: 4 095² · 2¹⁶, 40 bits,
    /// 20 cycles, within 2¹⁶ · (2 · 4 095 · 255) + 255² · 16 of 2⁴⁰ but not
    /// that close) bracketed with the largest chunk (row B's, 15 cells of
    /// 4 095 whose coarse partial is 0) reaches 21 cycles, so the task
    /// brackets its rows one by one, and none of them reaches past A's
    /// lower end, which is A's fine partial. Values, flags, timing and
    /// energy are pinned to the per-row bracket's.
    #[test]
    fn the_coarse_read_resolves_a_row_that_straddles_a_gather_cycle() {
        let cfg = PimConfig {
            crossbar: CrossbarConfig {
                size: 16,
                ..Default::default()
            },
            ..Default::default()
        };
        let s = 17; // one operand past a crossbar: a gather tree
        let straddling = [vec![511u32; 16], vec![0]].concat();
        // A 20-bit operand the query never meets sets the shift to 8.
        let widening = [vec![0u32; 16], vec![(1 << 20) - 1]].concat();
        let mut pim = PimArray::new(cfg).unwrap();
        let rep = pim
            .program_region(&[straddling, widening.clone()].concat(), 2, s, 32)
            .unwrap();
        let query = [vec![262_143u32; 16], vec![0]].concat();
        let passes = [(rep.region, &query[..]), (rep.region, &[0; 17][..])];
        assert_eq!(
            assert_coarse_read(&pim, &passes, AccWidth::U64),
            [true, true]
        );
        let ((_, want), (_, got)) = both_reads(&pim, &passes, AccWidth::U64);
        let timing = |partial: u64| {
            dot_batch_timing(&cfg, &rep.cost, 18, bits_needed(partial), 2, AccWidth::U64)
        };
        assert_eq!(got[0].timing, timing(16 * 511 * 262_143));
        assert_eq!(want[0].1, got[0].timing);
        assert_ne!(
            got[0].timing,
            timing(1 << 29),
            "the lower end alone is a cycle short"
        );
        assert_eq!(coarse_read_hash(&pim, &passes), 11891564054466079133);

        let at = |cell: u32, from: usize, to: usize| -> Vec<u32> {
            (0..s)
                .map(|i| {
                    if (from..to).contains(&i) {
                        cell << 8
                    } else {
                        0
                    }
                })
                .collect()
        };
        let (a, b) = (at(4095, 0, 1), at(4095, 1, 16));
        let rep = pim
            .program_region(&[a, b, widening].concat(), 3, s, 32)
            .unwrap();
        let query = at(4095, 0, 1);
        let passes = [(rep.region, &query[..]), (rep.region, &[0; 17][..])];
        assert_eq!(
            assert_coarse_read(&pim, &passes, AccWidth::U64),
            [true, true]
        );
        let (_, got) = both_reads(&pim, &passes, AccWidth::U64).1;
        let fine = (4095u64 << 8).pow(2);
        assert_eq!(fine >> 39, 1, "40 bits: 20 cycles");
        let slack = |cells: u64| (cells << 8) * 255 + 255 * 255 * 16;
        assert!(fine + slack(2 * 4095) < 1 << 40, "A's own bracket stays");
        assert!(
            fine + slack(16 * 4095) >= 1 << 40,
            "the task's reaches past"
        );
        let timing = dot_batch_timing(&cfg, &rep.cost, 20, 40, 3, AccWidth::U64);
        assert_eq!(got[0].timing, timing);
        assert_eq!(coarse_read_hash(&pim, &passes), 13039959365813125885);
    }

    /// A read of three tasks (600 rows of 40 operands, crossbars of 16)
    /// whose brackets stay inside one gather cycle: every operand's top 8
    /// of 20 bits are in 100..=200, so its cell at shift 8 is in
    /// 1 600..=3 215, each task's largest lower end lies in [2⁴², 2⁴⁴)
    /// (22 two-bit cycles), no upper end reaches 2⁴⁴, and no task
    /// brackets its rows one by one. Values, flags, timing and energy are
    /// pinned to the per-row bracket's, and the timing is the plain
    /// read's.
    #[test]
    fn a_coarse_read_whose_brackets_stay_in_one_gather_cycle_charges_the_plain_pass() {
        let cfg = PimConfig {
            crossbar: CrossbarConfig {
                size: 16,
                ..Default::default()
            },
            num_crossbars: 4096,
            ..Default::default()
        };
        let (n, s) = (600, 40);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |len: usize| -> Vec<u32> {
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let cell = 100 + (x >> 40) as u32 % 101;
                    cell << 12 | (x as u32 & 0xfff)
                })
                .collect()
        };
        let mut pim = PimArray::new(cfg).unwrap();
        let region = pim.program_region(&draw(n * s), n, s, 20).unwrap().region;
        let queries = [draw(s), draw(s), draw(s)];
        let passes: Vec<(RegionId, &[u32])> = queries.iter().map(|q| (region, &q[..])).collect();
        assert_eq!(assert_coarse_read(&pim, &passes, AccWidth::U64), [true; 3]);
        assert_eq!(coarse_read_hash(&pim, &passes), 14154941280975903802);
    }

    /// A region's plane across its life: built by the first coarse read,
    /// kept in step by rewrites, appends and truncation at its shift,
    /// dropped by a write that widens the region and derived again at the
    /// new shift by the next coarse read. After each step the coarse
    /// values equal a fresh array's over the same rows, and every read
    /// keeps [`assert_coarse_read`]'s contract.
    #[test]
    fn a_plane_follows_its_rows_and_is_derived_again_when_the_shift_grows() {
        let (s, m) = (40, 16);
        let cfg = PimConfig {
            crossbar: CrossbarConfig {
                size: m,
                ..Default::default()
            },
            num_crossbars: 4096,
            ..Default::default()
        };
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |len: usize, bits: u32| -> Vec<u32> {
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x as u32) >> (32 - bits)
                })
                .collect()
        };
        let rows = draw(6 * s, 16);
        let queries = [draw(s, 16), draw(s, 14), draw(s, 8)];
        let mut pim = PimArray::new(cfg).unwrap();
        let r = pim
            .program_region_with_capacity(&rows, 6, 9, s, 32)
            .unwrap()
            .region;
        let check = |pim: &mut PimArray, shift: u32| {
            let passes: Vec<(RegionId, &[u32])> = queries.iter().map(|q| (r, &q[..])).collect();
            assert_eq!(assert_coarse_read(pim, &passes, AccWidth::U64), [true; 3]);
            let got = pim.read(&passes, AccWidth::U64, Read::Coarse).unwrap();
            let plane = pim.regions[r.0].plane.as_ref().expect("built by the read");
            assert_eq!(plane.shift, shift);
            let (n, _, _) = pim.region_shape(r).unwrap();
            assert_eq!(pim.coarse_plane_bytes(r).unwrap(), plane.bytes());
            assert_eq!(plane.cells.len(), n * s);
            let data = pim.regions[r.0].data.clone();
            let mut fresh = PimArray::new(cfg).unwrap();
            let f = fresh.program_region(&data, n, s, 32).unwrap().region;
            let passes: Vec<(RegionId, &[u32])> = queries.iter().map(|q| (f, &q[..])).collect();
            assert_eq!(
                fresh.read(&passes, AccWidth::U64, Read::Coarse).unwrap(),
                got
            );
        };
        assert_eq!(
            pim.coarse_plane_bytes(r).unwrap(),
            0,
            "no plane before a coarse read"
        );
        check(&mut pim, 4);
        pim.rewrite_rows(r, 2, &draw(2 * s, 16)).unwrap();
        pim.append_rows(r, &draw(s, 15)).unwrap();
        check(&mut pim, 4);
        pim.truncate_rows(r, 5).unwrap();
        check(&mut pim, 4);
        pim.append_rows(r, &draw(s, 24)).unwrap();
        assert!(
            pim.regions[r.0].plane.is_none(),
            "a wider row drops the plane"
        );
        check(&mut pim, 12);
    }

    #[test]
    fn buffer_array_waves_and_high_water() {
        let mut buf = BufferArray::new(1024);
        assert_eq!(buf.stage(100), 1);
        assert_eq!(buf.stage(4096), 4);
        assert_eq!(buf.high_water(), 1024);
        assert_eq!(buf.capacity(), 1024);
    }

    #[test]
    fn memory_array_occupancy() {
        let mut mem = MemoryArray::new(1000);
        mem.store(600).unwrap();
        assert_eq!(mem.free(), 400);
        assert!(mem.store(500).is_err());
        mem.release(200);
        assert_eq!(mem.used(), 400);
        mem.store(500).unwrap();
        assert_eq!(mem.free(), 100);
    }
}
