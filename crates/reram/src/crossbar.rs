//! The materialized `m×m` crossbar — the unit-level functional model.
//!
//! Wordlines run horizontally (one per vector dimension), bitlines
//! vertically. Injecting DAC-converted voltages on the wordlines produces,
//! on every bitline, the analog sum `Σ_row input[row] · cell[row][col]`
//! (Fig. 1). Multi-bit operands span `⌈b/h⌉` adjacent bitlines (Fig. 2);
//! [`Crossbar::dot_products`] runs the full streamed pipeline and
//! recombines partials with shift-and-add.
//!
//! This is the test oracle of the array-level model: it is compiled only
//! under test, where `PimArray::dot_batch_strict` lays a region out on
//! these crossbars and the tests assert that `PimArray::dot_batch` returns
//! the same bits. [`CrossbarConfig::validate`] refuses an ADC that could
//! clip a column sum, so no cycle here checks the ADC range.
#![cfg(test)]

use crate::bitslice::{slice_operand, SlicedQuery};
use crate::cell::Cell;
use crate::config::CrossbarConfig;
use crate::error::ReRamError;

/// A fully materialized crossbar of `m×m` cells.
///
/// Alongside the row-major cell array, the crossbar maintains *column
/// bit-planes*: for every bitline `col` and cell-bit position `s`, a
/// row-packed `u64` bitmap of which rows store a 1 in bit `s` of their
/// level. The planes are kept in sync by [`Crossbar::program_cell`] and
/// let the ideal analog cycle run word-wide (one AND+popcount covers 64
/// rows of a bit-plane) instead of cell-by-cell — see
/// [`Crossbar::packed_cycle`].
#[derive(Debug, Clone)]
pub(crate) struct Crossbar {
    cfg: CrossbarConfig,
    cells: Vec<Cell>, // row-major m×m
    /// `planes[(col·h + s)·words + w]` — bit `r` of word `w` set iff bit
    /// `s` of the level at `(row 64·w + r, col)` is 1.
    planes: Vec<u64>,
    /// `⌈m/64⌉` — row words per (column, bit) plane.
    words: usize,
}

impl Crossbar {
    /// A blank crossbar with all cells at level 0.
    pub(crate) fn new(cfg: CrossbarConfig) -> Result<Self, ReRamError> {
        cfg.validate()?;
        let words = cfg.size.div_ceil(64);
        Ok(Self {
            cfg,
            cells: vec![Cell::new(); cfg.cells()],
            planes: vec![0u64; cfg.size * cfg.cell_bits as usize * words],
            words,
        })
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        row * self.cfg.size + col
    }

    /// Programs one cell to `level`.
    pub(crate) fn program_cell(
        &mut self,
        row: usize,
        col: usize,
        level: u8,
    ) -> Result<(), ReRamError> {
        let m = self.cfg.size;
        if row >= m {
            return Err(ReRamError::GeometryViolation {
                what: "row",
                got: row,
                limit: m,
            });
        }
        if col >= m {
            return Err(ReRamError::GeometryViolation {
                what: "col",
                got: col,
                limit: m,
            });
        }
        let i = self.idx(row, col);
        self.cells[i].program(level, self.cfg.cell_bits)?;
        // Mirror the new level into the column bit-planes.
        let word = row / 64;
        let mask = 1u64 << (row % 64);
        for s in 0..self.cfg.cell_bits {
            let p = &mut self.planes
                [(col * self.cfg.cell_bits as usize + s as usize) * self.words + word];
            if (level >> s) & 1 == 1 {
                *p |= mask;
            } else {
                *p &= !mask;
            }
        }
        Ok(())
    }

    /// Reads one cell's level.
    pub(crate) fn read_cell(&self, row: usize, col: usize) -> u8 {
        self.cells[self.idx(row, col)].read()
    }

    /// Programs a column of stored operands: `column[i]` is the `b`-bit
    /// operand for dimension (row) `start_row + i`, occupying the
    /// `⌈b/h⌉` bitlines starting at `start_col`. Returns the number of cell
    /// writes performed.
    pub(crate) fn program_operand_column(
        &mut self,
        start_row: usize,
        start_col: usize,
        column: &[u64],
        operand_bits: u32,
    ) -> Result<u64, ReRamError> {
        let w = self.cfg.cells_per_operand(operand_bits);
        let m = self.cfg.size;
        if start_row + column.len() > m {
            return Err(ReRamError::GeometryViolation {
                what: "rows",
                got: start_row + column.len(),
                limit: m,
            });
        }
        if start_col + w > m {
            return Err(ReRamError::GeometryViolation {
                what: "cols",
                got: start_col + w,
                limit: m,
            });
        }
        let mut writes = 0u64;
        for (i, &v) in column.iter().enumerate() {
            let slices = slice_operand(v, operand_bits, self.cfg.cell_bits)?;
            for (j, &level) in slices.iter().enumerate() {
                self.program_cell(start_row + i, start_col + j, level)?;
                writes += 1;
            }
        }
        Ok(writes)
    }

    /// Programs every cell to level 1 — the all-ones *gather crossbar* used
    /// to sum partial results (Fig. 3). Returns cell writes performed.
    pub(crate) fn program_all_ones(&mut self) -> Result<u64, ReRamError> {
        let m = self.cfg.size;
        for row in 0..m {
            for col in 0..m {
                self.program_cell(row, col, 1)?;
            }
        }
        Ok((m * m) as u64)
    }

    /// One analog cycle: `inputs[row]` is the DAC level driven on wordline
    /// `row` (must fit `dac_bits`); missing trailing rows are not driven.
    /// Returns the per-bitline current sums.
    pub(crate) fn analog_cycle(&self, inputs: &[u16]) -> Result<Vec<u64>, ReRamError> {
        let m = self.cfg.size;
        if inputs.len() > m {
            return Err(ReRamError::GeometryViolation {
                what: "inputs",
                got: inputs.len(),
                limit: m,
            });
        }
        let dac_max = 1u16 << self.cfg.dac_bits;
        let mut sums = vec![0u64; m];
        for (row, &u) in inputs.iter().enumerate() {
            if u >= dac_max {
                return Err(ReRamError::OperandOverflow {
                    value: u64::from(u),
                    bits: self.cfg.dac_bits,
                });
            }
            if u == 0 {
                continue;
            }
            let base = row * m;
            for (col, sum) in sums.iter_mut().enumerate() {
                *sum += u64::from(u) * u64::from(self.cells[base + col].read());
            }
        }
        Ok(sums)
    }

    /// Word-wide (packed) variant of [`Crossbar::analog_cycle`] —
    /// bit-identical results, computed from the column bit-planes.
    ///
    /// The analog sum decomposes over input bits `t` and cell bits `s`:
    ///
    /// ```text
    /// Σ_row u[row]·level[row][col]
    ///   = Σ_t Σ_s 2^(t+s) · |{row : bit_t(u[row]) ∧ bit_s(level[row][col])}|
    /// ```
    ///
    /// so after packing each input bit `t` into a row bitmap, one
    /// AND+popcount per 64 rows replaces 64 multiply-accumulates. All
    /// arithmetic is exact integer counting, so the result equals the
    /// scalar cycle bit for bit (asserted exhaustively in the tests).
    pub(crate) fn packed_cycle(&self, inputs: &[u16]) -> Result<Vec<u64>, ReRamError> {
        let m = self.cfg.size;
        if inputs.len() > m {
            return Err(ReRamError::GeometryViolation {
                what: "inputs",
                got: inputs.len(),
                limit: m,
            });
        }
        let dac_max = 1u16 << self.cfg.dac_bits;
        let dac_bits = self.cfg.dac_bits as usize;
        let cell_bits = self.cfg.cell_bits as usize;
        let words = self.words;
        // Pack input bit `t` across rows: in_planes[t·words + row/64].
        let mut in_planes = vec![0u64; dac_bits * words];
        let mut any = false;
        for (row, &u) in inputs.iter().enumerate() {
            if u >= dac_max {
                return Err(ReRamError::OperandOverflow {
                    value: u64::from(u),
                    bits: self.cfg.dac_bits,
                });
            }
            if u == 0 {
                continue;
            }
            any = true;
            let mask = 1u64 << (row % 64);
            for (t, chunk) in in_planes.chunks_exact_mut(words).enumerate() {
                if (u >> t) & 1 == 1 {
                    chunk[row / 64] |= mask;
                }
            }
        }
        let mut sums = vec![0u64; m];
        if any {
            for (col, sum) in sums.iter_mut().enumerate() {
                let mut acc = 0u64;
                let col_planes = &self.planes[col * cell_bits * words..];
                for s in 0..cell_bits {
                    let plane = &col_planes[s * words..(s + 1) * words];
                    for (t, in_plane) in in_planes.chunks_exact(words).enumerate() {
                        // One crossbar cycle's row/column coincidence
                        // count: AND + popcount, dispatched through the
                        // active simpim-kern backend (exact integer
                        // counting — identical on every backend).
                        let count = simpim_kern::and_popcount(plane, in_plane);
                        acc += count << (s + t);
                    }
                }
                *sum = acc;
            }
        }
        Ok(sums)
    }

    /// The shared streamed pipeline behind every `dot_products*` variant:
    /// drive the cached query slices cycle by cycle through `cycle_fn`
    /// (ideal/noisy/faulty analog model) and recombine the per-bitline
    /// sums with shift-and-add. Keeping the slicing, drive staging, and
    /// S&A in one place means kernel changes (like the packed cycle) land
    /// exactly once.
    fn streamed_pipeline<F>(
        &self,
        start_row: usize,
        sliced: &SlicedQuery,
        operand_bits: u32,
        mut cycle_fn: F,
    ) -> Result<Vec<u128>, ReRamError>
    where
        F: FnMut(&[u16]) -> Result<Vec<u64>, ReRamError>,
    {
        let m = self.cfg.size;
        if start_row + sliced.len() > m {
            return Err(ReRamError::GeometryViolation {
                what: "query rows",
                got: start_row + sliced.len(),
                limit: m,
            });
        }
        if sliced.dac_bits() != self.cfg.dac_bits {
            return Err(ReRamError::InvalidConfig {
                what: "query sliced for a different DAC resolution",
            });
        }
        let w = self.cfg.cells_per_operand(operand_bits);
        let n_ops = m / w;
        let cycles = sliced.cycles();
        let mut results = vec![0u128; n_ops];
        let mut drive = vec![0u16; start_row + sliced.len()];
        for k in 0..cycles {
            for (i, d) in drive[start_row..].iter_mut().enumerate() {
                *d = sliced.level(i, k);
            }
            let sums = cycle_fn(&drive)?;
            // Shift-and-add: bitline c·w + j carries operand slice j.
            for (c, result) in results.iter_mut().enumerate() {
                for j in 0..w {
                    let p = sums[c * w + j];
                    let shift = (j as u32) * self.cfg.cell_bits + (k as u32) * self.cfg.dac_bits;
                    *result = result.wrapping_add(u128::from(p) << shift);
                }
            }
        }
        Ok(results)
    }

    /// The full streamed dot-product pipeline of Fig. 2 for one query.
    ///
    /// `query[i]` multiplies the operands stored on rows
    /// `start_row..start_row+query.len()`; stored operands are `b`-bit wide
    /// and packed from bitline 0 (as laid out by
    /// [`Crossbar::program_operand_column`] with `start_col = c·⌈b/h⌉`).
    /// Returns one full-precision product-sum per stored operand column.
    ///
    /// The cycle count equals `⌈input_bits/dac⌉` — the quantity the timing
    /// model charges for.
    pub(crate) fn dot_products(
        &self,
        start_row: usize,
        query: &[u64],
        input_bits: u32,
        operand_bits: u32,
    ) -> Result<Vec<u128>, ReRamError> {
        let sliced = SlicedQuery::new(query, input_bits, self.cfg.dac_bits)?;
        self.dot_products_sliced(start_row, &sliced, operand_bits)
    }

    /// [`Crossbar::dot_products`] over a pre-sliced query — the hot entry
    /// point when the same query streams to many crossbars (the caller
    /// slices once per dispatch). Runs the word-wide packed cycle.
    pub(crate) fn dot_products_sliced(
        &self,
        start_row: usize,
        sliced: &SlicedQuery,
        operand_bits: u32,
    ) -> Result<Vec<u128>, ReRamError> {
        self.streamed_pipeline(start_row, sliced, operand_bits, |drive| {
            self.packed_cycle(drive)
        })
    }

    /// One analog cycle under bounded conductance variation: each cell
    /// contributes `input · level · (1 + δ)`; the ADC rounds to the
    /// nearest integer. Deterministic given the model's seed.
    pub(crate) fn analog_cycle_noisy(
        &self,
        inputs: &[u16],
        variation: &crate::variation::VariationModel,
    ) -> Result<Vec<u64>, ReRamError> {
        let m = self.cfg.size;
        if inputs.len() > m {
            return Err(ReRamError::GeometryViolation {
                what: "inputs",
                got: inputs.len(),
                limit: m,
            });
        }
        let dac_max = 1u16 << self.cfg.dac_bits;
        let mut sums = vec![0.0f64; m];
        for (row, &u) in inputs.iter().enumerate() {
            if u >= dac_max {
                return Err(ReRamError::OperandOverflow {
                    value: u64::from(u),
                    bits: self.cfg.dac_bits,
                });
            }
            if u == 0 {
                continue;
            }
            let base = row * m;
            for (col, sum) in sums.iter_mut().enumerate() {
                let level = f64::from(self.cells[base + col].read());
                *sum += f64::from(u) * level * (1.0 + variation.delta(row, col));
            }
        }
        Ok(sums.iter().map(|s| s.round().max(0.0) as u64).collect())
    }

    /// The streamed dot-product pipeline under bounded conductance
    /// variation. Same layout semantics as [`Crossbar::dot_products`]; the
    /// result deviates from the exact dot product by at most
    /// `max_relative · exact + rounding`, where `rounding` sums the ½-LSB
    /// ADC rounding across shifts (see
    /// [`crate::variation::VariationModel::dot_error_bound`] and the
    /// guard-banded bounds in `simpim-core`).
    pub(crate) fn dot_products_noisy(
        &self,
        start_row: usize,
        query: &[u64],
        input_bits: u32,
        operand_bits: u32,
        variation: &crate::variation::VariationModel,
    ) -> Result<Vec<u128>, ReRamError> {
        let sliced = SlicedQuery::new(query, input_bits, self.cfg.dac_bits)?;
        self.streamed_pipeline(start_row, &sliced, operand_bits, |drive| {
            self.analog_cycle_noisy(drive, variation)
        })
    }

    /// One analog cycle under an attached fault model (`crossbar_id` keys
    /// the deterministic fault map): stuck cells read their fault level,
    /// dead wordlines never see their input, dead bitlines read 0. Wear-out
    /// is derived from this crossbar's own write counters.
    pub(crate) fn analog_cycle_faulty(
        &self,
        inputs: &[u16],
        faults: &crate::faults::FaultConfig,
        crossbar_id: usize,
    ) -> Result<Vec<u64>, ReRamError> {
        let m = self.cfg.size;
        if inputs.len() > m {
            return Err(ReRamError::GeometryViolation {
                what: "inputs",
                got: inputs.len(),
                limit: m,
            });
        }
        let dac_max = 1u16 << self.cfg.dac_bits;
        let worn = faults.worn_out(self.max_cell_writes());
        let mut sums = vec![0u64; m];
        for (row, &u) in inputs.iter().enumerate() {
            if u >= dac_max {
                return Err(ReRamError::OperandOverflow {
                    value: u64::from(u),
                    bits: self.cfg.dac_bits,
                });
            }
            if u == 0 || faults.dead_wordline(crossbar_id, row) {
                continue;
            }
            let base = row * m;
            for (col, sum) in sums.iter_mut().enumerate() {
                let level = faults.effective_level(
                    crossbar_id,
                    row,
                    col,
                    self.cells[base + col].read(),
                    self.cfg.cell_bits,
                    worn,
                );
                *sum += u64::from(u) * u64::from(level);
            }
        }
        for (col, s) in sums.iter_mut().enumerate() {
            if faults.dead_bitline(crossbar_id, col) {
                *s = 0;
            }
        }
        Ok(sums)
    }

    /// The streamed dot-product pipeline under an attached fault model.
    /// Same layout semantics as [`Crossbar::dot_products`]; also walks the
    /// ADC's bounded glitch-retry chain once per call and returns the
    /// retries spent alongside the (possibly corrupted) results. Fails with
    /// [`ReRamError::AdcRetryExhausted`] when the ADC never reads clean.
    pub(crate) fn dot_products_faulty(
        &self,
        start_row: usize,
        query: &[u64],
        input_bits: u32,
        operand_bits: u32,
        faults: &crate::faults::FaultConfig,
        crossbar_id: usize,
    ) -> Result<(Vec<u128>, u32), ReRamError> {
        let m = self.cfg.size;
        if start_row + query.len() > m {
            return Err(ReRamError::GeometryViolation {
                what: "query rows",
                got: start_row + query.len(),
                limit: m,
            });
        }
        let retries = faults.glitch_retries(crossbar_id)?;
        let sliced = SlicedQuery::new(query, input_bits, self.cfg.dac_bits)?;
        let results = self.streamed_pipeline(start_row, &sliced, operand_bits, |drive| {
            self.analog_cycle_faulty(drive, faults, crossbar_id)
        })?;
        Ok((results, retries))
    }

    /// Upper bound on the ADC-rounding contribution of one noisy pipeline
    /// run: ½ LSB per bitline per cycle, scaled by each partial's shift.
    pub(crate) fn rounding_error_bound(&self, input_bits: u32, operand_bits: u32) -> f64 {
        let w = self.cfg.cells_per_operand(operand_bits) as u32;
        let cycles = input_bits.div_ceil(self.cfg.dac_bits);
        let mut total = 0.0;
        for k in 0..cycles {
            for j in 0..w {
                let shift = j * self.cfg.cell_bits + k * self.cfg.dac_bits;
                total += 0.5 * (shift as f64).exp2();
            }
        }
        total
    }

    /// Total programming pulses received by all cells (endurance metric).
    pub(crate) fn total_writes(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.writes())).sum()
    }

    /// The highest write count of any single cell (worst-case wear).
    pub(crate) fn max_cell_writes(&self) -> u32 {
        self.cells.iter().map(Cell::writes).max().unwrap_or(0)
    }
}

/// Reference check used in tests and docs: exact integer dot product.
pub(crate) fn exact_dot(a: &[u64], b: &[u64]) -> u128 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u128::from(x) * u128::from(y))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> CrossbarConfig {
        CrossbarConfig {
            size: 8,
            cell_bits: 2,
            dac_bits: 2,
            adc_bits: 10,
            ..Default::default()
        }
    }

    #[test]
    fn fig1_example_single_bit_layout() {
        // Fig. 1: multipliers [3,1,0], [1,2,3], [2,0,1] programmed along
        // bitlines; multiplicand [3,1,2] injected; expect [10, 11, 8].
        let cfg = CrossbarConfig {
            size: 3,
            cell_bits: 2,
            dac_bits: 2,
            adc_bits: 8,
            ..Default::default()
        };
        let mut xb = Crossbar::new(cfg).unwrap();
        xb.program_operand_column(0, 0, &[3, 1, 0], 2).unwrap();
        xb.program_operand_column(0, 1, &[1, 2, 3], 2).unwrap();
        xb.program_operand_column(0, 2, &[2, 0, 1], 2).unwrap();
        let out = xb.dot_products(0, &[3, 1, 2], 2, 2).unwrap();
        assert_eq!(out, vec![10, 11, 8]);
    }

    #[test]
    fn multi_bit_operands_match_exact_dot() {
        let cfg = tiny_cfg();
        let mut xb = Crossbar::new(cfg).unwrap();
        // 6-bit operands on 2-bit cells → 3 cells each → 2 operands per row.
        let col_a = [25u64, 14, 63, 0];
        let col_b = [9u64, 20, 1, 33];
        xb.program_operand_column(0, 0, &col_a, 6).unwrap();
        xb.program_operand_column(0, 3, &col_b, 6).unwrap();
        let q = [9u64, 20, 7, 63];
        let out = xb.dot_products(0, &q, 6, 6).unwrap();
        assert_eq!(out[0], exact_dot(&col_a, &q));
        assert_eq!(out[1], exact_dot(&col_b, &q));
    }

    #[test]
    fn start_row_offsets_queries_stacked_slots() {
        // Two vector slots stacked vertically; driving only one slot's rows
        // isolates its dot product.
        let cfg = tiny_cfg();
        let mut xb = Crossbar::new(cfg).unwrap();
        xb.program_operand_column(0, 0, &[3, 2], 4).unwrap(); // slot 0 rows 0..2
        xb.program_operand_column(2, 0, &[7, 1], 4).unwrap(); // slot 1 rows 2..4
        let q = [2u64, 5];
        let out0 = xb.dot_products(0, &q, 4, 4).unwrap();
        let out1 = xb.dot_products(2, &q, 4, 4).unwrap();
        assert_eq!(out0[0], exact_dot(&[3, 2], &q));
        assert_eq!(out1[0], exact_dot(&[7, 1], &q));
    }

    #[test]
    fn geometry_violations_are_rejected() {
        let mut xb = Crossbar::new(tiny_cfg()).unwrap();
        assert!(xb.program_cell(8, 0, 1).is_err());
        assert!(xb.program_cell(0, 8, 1).is_err());
        assert!(xb.program_operand_column(6, 0, &[1, 2, 3], 2).is_err());
        assert!(xb.program_operand_column(0, 7, &[1], 4).is_err()); // needs 2 cells at col 7
        assert!(xb.dot_products(7, &[1, 1], 2, 2).is_err());
        let too_many = vec![0u16; 9];
        assert!(xb.analog_cycle(&too_many).is_err());
    }

    #[test]
    fn an_adc_that_could_clip_is_refused() {
        // 4 rows · 3 · 3 = 36 ≥ 2^4: a full column would clip.
        let cfg = CrossbarConfig {
            size: 4,
            cell_bits: 2,
            dac_bits: 2,
            adc_bits: 4,
            ..Default::default()
        };
        assert!(matches!(
            Crossbar::new(cfg),
            Err(ReRamError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn dac_level_out_of_range_rejected() {
        let xb = Crossbar::new(tiny_cfg()).unwrap();
        assert!(xb.analog_cycle(&[4]).is_err()); // 2-bit DAC holds 0..=3
    }

    #[test]
    fn all_ones_gather_sums_partials() {
        // A gather crossbar sums the values injected on its wordlines
        // (column of ones ⇒ output = Σ inputs), exercised bit-sliced.
        let cfg = CrossbarConfig {
            size: 4,
            cell_bits: 2,
            dac_bits: 2,
            adc_bits: 6,
            ..Default::default()
        };
        let mut gather = Crossbar::new(cfg).unwrap();
        gather.program_all_ones().unwrap();
        let partials = [13u64, 7, 2, 9];
        let out = gather.dot_products(0, &partials, 4, 1).unwrap();
        assert_eq!(out[0], 31);
    }

    #[test]
    fn endurance_accounting() {
        let mut xb = Crossbar::new(tiny_cfg()).unwrap();
        assert_eq!(xb.total_writes(), 0);
        let w = xb.program_operand_column(0, 0, &[25, 14], 6).unwrap();
        assert_eq!(w, 6); // 2 operands × 3 cells
        assert_eq!(xb.total_writes(), 6);
        assert_eq!(xb.max_cell_writes(), 1);
        // Reads must not wear cells.
        xb.dot_products(0, &[1, 1], 6, 6).unwrap();
        assert_eq!(xb.total_writes(), 6);
    }

    #[test]
    fn noisy_pipeline_stays_within_envelope() {
        use crate::variation::VariationModel;
        let cfg = CrossbarConfig {
            size: 8,
            cell_bits: 2,
            dac_bits: 2,
            adc_bits: 12,
            ..Default::default()
        };
        let mut xb = Crossbar::new(cfg).unwrap();
        let col = [25u64, 14, 63, 40];
        xb.program_operand_column(0, 0, &col, 6).unwrap();
        let q = [9u64, 20, 7, 63];
        let exact = exact_dot(&col, &q);
        for seed in 0..20 {
            let v = VariationModel::new(0.05, seed);
            let noisy = xb.dot_products_noisy(0, &q, 6, 6, &v).unwrap()[0];
            let envelope = v.dot_error_bound(exact, xb.rounding_error_bound(6, 6));
            let err = (noisy as f64 - exact as f64).abs();
            assert!(
                err <= envelope + 1e-9,
                "seed={seed}: err {err} > envelope {envelope}"
            );
        }
    }

    #[test]
    fn zero_variation_matches_ideal_pipeline() {
        use crate::variation::VariationModel;
        let cfg = tiny_cfg();
        let mut xb = Crossbar::new(cfg).unwrap();
        xb.program_operand_column(0, 0, &[25, 14, 63, 0], 6)
            .unwrap();
        let q = [9u64, 20, 7, 63];
        let ideal = xb.dot_products(0, &q, 6, 6).unwrap();
        let v = VariationModel::new(0.0, 99);
        let noisy = xb.dot_products_noisy(0, &q, 6, 6, &v).unwrap();
        assert_eq!(ideal[0], noisy[0]);
    }

    #[test]
    fn rounding_bound_formula() {
        let cfg = tiny_cfg();
        let xb = Crossbar::new(cfg).unwrap();
        // 6-bit operands, 2-bit cells/DAC: shifts {0,2,4}×{0,2,4} → Σ ½·2^s
        // over the 9 combinations.
        let mut expect = 0.0;
        for k in [0u32, 2, 4] {
            for j in [0u32, 2, 4] {
                expect += 0.5 * ((k + j) as f64).exp2();
            }
        }
        assert!((xb.rounding_error_bound(6, 6) - expect).abs() < 1e-12);
    }

    #[test]
    fn inert_fault_model_matches_ideal_pipeline() {
        use crate::faults::FaultConfig;
        let mut xb = Crossbar::new(tiny_cfg()).unwrap();
        let col = [25u64, 14, 63, 0];
        xb.program_operand_column(0, 0, &col, 6).unwrap();
        let q = [9u64, 20, 7, 63];
        let ideal = xb.dot_products(0, &q, 6, 6).unwrap();
        let (faulty, retries) = xb
            .dot_products_faulty(0, &q, 6, 6, &FaultConfig::default(), 0)
            .unwrap();
        assert_eq!(ideal[0], faulty[0]);
        assert_eq!(retries, 0);
    }

    #[test]
    fn stuck_cells_corrupt_within_known_bound() {
        use crate::faults::{CellFault, FaultConfig};
        let faults = FaultConfig {
            stuck_low_rate: 0.15,
            stuck_high_rate: 0.15,
            seed: 21,
            ..Default::default()
        };
        let cfg = tiny_cfg();
        let mut xb = Crossbar::new(cfg).unwrap();
        let col = [25u64, 14, 63, 40];
        xb.program_operand_column(0, 0, &col, 6).unwrap();
        let q = [3u64, 2, 1, 3];
        let exact = exact_dot(&col, &q);
        let (faulty, _) = xb.dot_products_faulty(0, &q, 6, 6, &faults, 0).unwrap();
        // Recompute the worst-case deviation from the known fault map:
        // each stuck cell shifts slice j of row r by |Δlevel|·2^(j·h),
        // weighted by that row's query value.
        let mut bound = 0u128;
        let w = cfg.cells_per_operand(6);
        for (r, &qv) in q.iter().enumerate() {
            for j in 0..w {
                let programmed = xb.read_cell(r, j);
                let effective = match faults.cell_fault(0, r, j) {
                    CellFault::None => programmed,
                    CellFault::StuckLow => 0,
                    CellFault::StuckHigh => 3,
                };
                let delta = u128::from(programmed.abs_diff(effective));
                bound += u128::from(qv) * (delta << (j as u32 * cfg.cell_bits));
            }
        }
        assert!(bound > 0, "seed 21 must actually inject a fault here");
        let err = faulty[0].abs_diff(exact);
        assert!(err <= bound, "err {err} > bound {bound}");
    }

    #[test]
    fn dead_wordline_drops_a_dimension() {
        use crate::faults::FaultConfig;
        // Rate 1.0 kills every wordline: all contributions vanish.
        let faults = FaultConfig {
            dead_wordline_rate: 1.0,
            ..Default::default()
        };
        let mut xb = Crossbar::new(tiny_cfg()).unwrap();
        xb.program_operand_column(0, 0, &[25, 14], 6).unwrap();
        let (out, _) = xb
            .dot_products_faulty(0, &[3, 3], 6, 6, &faults, 0)
            .unwrap();
        assert_eq!(out[0], 0);
    }

    #[test]
    fn dead_bitline_zeroes_its_slice() {
        use crate::faults::FaultConfig;
        let faults = FaultConfig {
            dead_bitline_rate: 1.0,
            ..Default::default()
        };
        let mut xb = Crossbar::new(tiny_cfg()).unwrap();
        xb.program_operand_column(0, 0, &[63, 63], 6).unwrap();
        let (out, _) = xb
            .dot_products_faulty(0, &[3, 3], 6, 6, &faults, 0)
            .unwrap();
        assert_eq!(out[0], 0); // every slice rides a dead bitline
    }

    #[test]
    fn worn_crossbar_reads_zero() {
        use crate::faults::FaultConfig;
        let faults = FaultConfig {
            endurance_limit: 2,
            ..Default::default()
        };
        let mut xb = Crossbar::new(tiny_cfg()).unwrap();
        // Program the same operand thrice: max cell writes = 3 > 2.
        for _ in 0..3 {
            xb.program_operand_column(0, 0, &[25, 14], 6).unwrap();
        }
        assert_eq!(xb.max_cell_writes(), 3);
        let (out, _) = xb
            .dot_products_faulty(0, &[3, 3], 6, 6, &faults, 0)
            .unwrap();
        assert_eq!(out[0], 0);
    }

    #[test]
    fn glitchy_adc_exhausts_retries() {
        use crate::faults::FaultConfig;
        let faults = FaultConfig {
            adc_glitch_rate: 1.0,
            adc_retry_limit: 2,
            ..Default::default()
        };
        let mut xb = Crossbar::new(tiny_cfg()).unwrap();
        xb.program_operand_column(0, 0, &[25, 14], 6).unwrap();
        assert_eq!(
            xb.dot_products_faulty(0, &[3, 3], 6, 6, &faults, 0),
            Err(ReRamError::AdcRetryExhausted {
                crossbar: 0,
                attempts: 2
            })
        );
    }

    #[test]
    fn packed_cycle_matches_scalar_cycle_exhaustively() {
        // All 4^4 = 256 drive vectors against a fixed multi-level cell
        // pattern: the word-wide kernel must agree with the scalar MAC
        // loop bit for bit.
        let cfg = CrossbarConfig {
            size: 4,
            cell_bits: 2,
            dac_bits: 2,
            adc_bits: 8,
            ..Default::default()
        };
        let mut xb = Crossbar::new(cfg).unwrap();
        for row in 0..4 {
            for col in 0..4 {
                xb.program_cell(row, col, ((row * 7 + col * 3) % 4) as u8)
                    .unwrap();
            }
        }
        for combo in 0u32..256 {
            let drive: Vec<u16> = (0..4).map(|i| ((combo >> (2 * i)) & 3) as u16).collect();
            assert_eq!(
                xb.packed_cycle(&drive).unwrap(),
                xb.analog_cycle(&drive).unwrap(),
                "combo={combo}"
            );
        }
    }

    #[test]
    fn packed_cycle_matches_scalar_across_word_boundaries() {
        // 128 rows span two u64 plane words; exercise partial drives and
        // reprogrammed cells (plane maintenance on rewrite).
        let cfg = CrossbarConfig {
            size: 128,
            cell_bits: 2,
            dac_bits: 2,
            adc_bits: 12,
            ..Default::default()
        };
        let mut xb = Crossbar::new(cfg).unwrap();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for row in 0..128 {
            for col in 0..128 {
                xb.program_cell(row, col, (next() % 4) as u8).unwrap();
            }
        }
        // Reprogram a scattering of cells so plane bits must be cleared too.
        for _ in 0..500 {
            let row = (next() % 128) as usize;
            let col = (next() % 128) as usize;
            xb.program_cell(row, col, (next() % 4) as u8).unwrap();
        }
        for len in [1usize, 63, 64, 65, 100, 128] {
            let drive: Vec<u16> = (0..len).map(|_| (next() % 4) as u16).collect();
            assert_eq!(
                xb.packed_cycle(&drive).unwrap(),
                xb.analog_cycle(&drive).unwrap(),
                "len={len}"
            );
        }
        let zeros = vec![0u16; 128];
        assert_eq!(
            xb.packed_cycle(&zeros).unwrap(),
            xb.analog_cycle(&zeros).unwrap()
        );
    }

    #[test]
    fn packed_cycle_rejects_bad_inputs_like_scalar() {
        let xb = Crossbar::new(tiny_cfg()).unwrap();
        assert!(xb.packed_cycle(&[4]).is_err()); // DAC overflow
        let too_many = vec![0u16; 9];
        assert!(xb.packed_cycle(&too_many).is_err());
    }

    #[test]
    fn presliced_query_reuses_across_slots() {
        use crate::bitslice::SlicedQuery;
        let cfg = tiny_cfg();
        let mut xb = Crossbar::new(cfg).unwrap();
        xb.program_operand_column(0, 0, &[3, 2], 4).unwrap();
        xb.program_operand_column(2, 0, &[7, 1], 4).unwrap();
        let q = [2u64, 5];
        let sliced = SlicedQuery::new(&q, 4, cfg.dac_bits).unwrap();
        assert_eq!(
            xb.dot_products_sliced(0, &sliced, 4).unwrap(),
            xb.dot_products(0, &q, 4, 4).unwrap()
        );
        assert_eq!(
            xb.dot_products_sliced(2, &sliced, 4).unwrap(),
            xb.dot_products(2, &q, 4, 4).unwrap()
        );
    }

    #[test]
    fn mismatched_dac_slicing_rejected() {
        use crate::bitslice::SlicedQuery;
        let xb = Crossbar::new(tiny_cfg()).unwrap(); // 2-bit DAC
        let sliced = SlicedQuery::new(&[1, 1], 4, 4).unwrap(); // sliced for 4-bit DAC
        assert!(xb.dot_products_sliced(0, &sliced, 4).is_err());
    }

    #[test]
    fn zero_query_yields_zero() {
        let mut xb = Crossbar::new(tiny_cfg()).unwrap();
        xb.program_operand_column(0, 0, &[63, 63], 6).unwrap();
        let out = xb.dot_products(0, &[0, 0], 6, 6).unwrap();
        assert_eq!(out[0], 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// DESIGN.md §6 invariant 4 (unit level): the bit-sliced crossbar
        /// pipeline equals the exact integer dot product, for arbitrary
        /// geometry.
        #[test]
        fn crossbar_pipeline_is_exact(
            values in proptest::prop::collection::vec(0u64..64, 1..=8),
            query in proptest::prop::collection::vec(0u64..64, 1..=8),
            cell_bits in 1u32..=3,
        ) {
            let d = values.len().min(query.len());
            let (values, query) = (&values[..d], &query[..d]);
            let cfg = CrossbarConfig {
                size: 8,
                cell_bits,
                dac_bits: 2,
                adc_bits: 16,
                ..Default::default()
            };
            let mut xb = Crossbar::new(cfg).unwrap();
            xb.program_operand_column(0, 0, values, 6).unwrap();
            let out = xb.dot_products(0, query, 6, 6).unwrap();
            let exact: u128 = values.iter().zip(query).map(|(&a, &b)| u128::from(a * b)).sum();
            proptest::prop_assert_eq!(out[0], exact);
        }
    }
}
