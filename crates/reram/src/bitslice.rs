//! Bit-slicing of operands and inputs (Fig. 2).
//!
//! A stored `b`-bit operand is segmented into `⌈b/h⌉` slices of `h` bits and
//! written into adjacent cells of one row; a `b`-bit multiplicand streams
//! through the DAC `dac_bits` bits per cycle. The shift-and-add (S&A)
//! circuit recombines the per-slice × per-cycle partial products:
//!
//! ```text
//! value = Σ_j slice_j · 2^(j·h)          (stored operand)
//! input = Σ_k in_k    · 2^(k·dac)        (streamed multiplicand)
//! v · u = Σ_j Σ_k slice_j · in_k · 2^(j·h + k·dac)
//! ```
//!
//! Slices are indexed least-significant-first throughout the simulator.
//!
//! The array-level model computes these dot products directly and ships
//! only the width helpers [`bits_needed`] and [`bits_needed_slice`]. The
//! slicing itself is part of the unit-level test oracle (the `crossbar`
//! module) and is compiled only under test.

/// Minimum bit-width needed to represent `value` (at least 1).
#[inline]
pub fn bits_needed(value: u64) -> u32 {
    (64 - value.leading_zeros()).max(1)
}

/// Minimum bit-width needed for the largest value in `values` (at least 1).
pub fn bits_needed_slice(values: &[u32]) -> u32 {
    bits_needed(values.iter().copied().max().unwrap_or(0).into())
}

#[cfg(test)]
use crate::error::ReRamError;

/// Splits a `b`-bit stored operand into `⌈b/h⌉` cell levels,
/// least-significant slice first.
#[cfg(test)]
pub(crate) fn slice_operand(
    value: u64,
    operand_bits: u32,
    cell_bits: u32,
) -> Result<Vec<u8>, ReRamError> {
    if operand_bits == 0 || operand_bits > 64 {
        return Err(ReRamError::InvalidConfig {
            what: "operand_bits must be in 1..=64",
        });
    }
    if operand_bits < 64 && value >= (1u64 << operand_bits) {
        return Err(ReRamError::OperandOverflow {
            value,
            bits: operand_bits,
        });
    }
    let n = operand_bits.div_ceil(cell_bits);
    let mask = (1u64 << cell_bits) - 1;
    Ok((0..n)
        .map(|j| ((value >> (j * cell_bits)) & mask) as u8)
        .collect())
}

/// Inverse of [`slice_operand`].
#[cfg(test)]
fn unslice_operand(slices: &[u8], cell_bits: u32) -> u64 {
    slices.iter().enumerate().fold(0u64, |acc, (j, &s)| {
        acc | (u64::from(s) << (j as u32 * cell_bits))
    })
}

/// Splits a multiplicand into DAC-width input levels, least-significant
/// first — one level per streaming cycle.
#[cfg(test)]
fn slice_input(value: u64, input_bits: u32, dac_bits: u32) -> Result<Vec<u16>, ReRamError> {
    if input_bits == 0 || input_bits > 64 {
        return Err(ReRamError::InvalidConfig {
            what: "input_bits must be in 1..=64",
        });
    }
    if input_bits < 64 && value >= (1u64 << input_bits) {
        return Err(ReRamError::OperandOverflow {
            value,
            bits: input_bits,
        });
    }
    let n = input_bits.div_ceil(dac_bits);
    let mask = (1u64 << dac_bits) - 1;
    Ok((0..n)
        .map(|k| ((value >> (k * dac_bits)) & mask) as u16)
        .collect())
}

/// Shift-and-add recombination: `partials[k][j]` is the analog sum produced
/// at input cycle `k` on the bitline holding operand slice `j`. Returns the
/// full-precision product-sum.
#[cfg(test)]
fn shift_add(partials: &[Vec<u64>], cell_bits: u32, dac_bits: u32) -> u128 {
    let mut acc: u128 = 0;
    for (k, row) in partials.iter().enumerate() {
        for (j, &p) in row.iter().enumerate() {
            let shift = (j as u32) * cell_bits + (k as u32) * dac_bits;
            acc = acc.wrapping_add(u128::from(p) << shift);
        }
    }
    acc
}

/// A query whose elements have been DAC-sliced once, up front.
///
/// Slicing is a pure function of `(query, input_bits, dac_bits)`, so
/// `PimArray::dot_batch_strict` slices once per dispatch and hands the
/// cached slices to every crossbar it streams to (stacked slots, chunked
/// dimensions, every group).
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct SlicedQuery {
    /// `slices[i][k]` — DAC level of element `i` at streaming cycle `k`.
    slices: Vec<Vec<u16>>,
    input_bits: u32,
    dac_bits: u32,
}

#[cfg(test)]
impl SlicedQuery {
    /// Slices every element of `query` into `⌈input_bits/dac_bits⌉` DAC
    /// levels (least-significant first).
    pub(crate) fn new(query: &[u64], input_bits: u32, dac_bits: u32) -> Result<Self, ReRamError> {
        let mut slices = Vec::with_capacity(query.len());
        for &qv in query {
            slices.push(slice_input(qv, input_bits, dac_bits)?);
        }
        Ok(Self {
            slices,
            input_bits,
            dac_bits,
        })
    }

    /// Number of query elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.slices.len()
    }

    /// A sub-query over elements `range` (used when a query is split
    /// across row-chunked crossbars). Cheap clone of the cached slices.
    pub(crate) fn slice_range(&self, range: std::ops::Range<usize>) -> SlicedQuery {
        SlicedQuery {
            slices: self.slices[range].to_vec(),
            input_bits: self.input_bits,
            dac_bits: self.dac_bits,
        }
    }

    /// Streaming cycle count `⌈input_bits/dac_bits⌉`.
    #[inline]
    pub(crate) fn cycles(&self) -> usize {
        self.input_bits.div_ceil(self.dac_bits) as usize
    }

    /// The DAC resolution the query was sliced for.
    #[inline]
    pub(crate) fn dac_bits(&self) -> u32 {
        self.dac_bits
    }

    /// DAC level of element `i` at cycle `k` (0 past the last slice).
    #[inline]
    pub(crate) fn level(&self, i: usize, k: usize) -> u16 {
        self.slices[i].get(k).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_example_25_on_2bit_cells() {
        // Fig. 2: decimal 25 = 011001b on 2-bit cells → slices 01, 10, 01
        // (MSB-first in the figure; LSB-first here): [01, 10, 01].
        let s = slice_operand(25, 6, 2).unwrap();
        assert_eq!(s, vec![0b01, 0b10, 0b01]);
        assert_eq!(unslice_operand(&s, 2), 25);
    }

    #[test]
    fn slicing_round_trips() {
        for &(v, b, h) in &[
            (0u64, 1u32, 1u32),
            (9, 6, 2),
            (20, 6, 2),
            (14, 6, 2),
            (1_000_000, 20, 2),
            (u32::MAX as u64, 32, 2),
        ] {
            let s = slice_operand(v, b, h).unwrap();
            assert_eq!(s.len() as u32, b.div_ceil(h));
            assert_eq!(unslice_operand(&s, h), v, "v={v} b={b} h={h}");
        }
    }

    #[test]
    fn slice_rejects_overflow() {
        assert!(slice_operand(64, 6, 2).is_err());
        assert!(slice_input(8, 3, 2).is_err());
        assert!(slice_operand(1, 0, 2).is_err());
    }

    #[test]
    fn input_slices_match_operand_slices_semantics() {
        let s = slice_input(0b110110, 6, 2).unwrap();
        assert_eq!(s, vec![0b10, 0b01, 0b11]);
    }

    #[test]
    fn shift_add_reassembles_scalar_product() {
        // Exhaustively verify v·u == shift_add over all 6-bit pairs using
        // 2-bit cells and a 2-bit DAC.
        let (b, h, dac) = (6u32, 2u32, 2u32);
        for v in 0u64..64 {
            for u in 0u64..64 {
                let vs = slice_operand(v, b, h).unwrap();
                let us = slice_input(u, b, dac).unwrap();
                let partials: Vec<Vec<u64>> = us
                    .iter()
                    .map(|&uk| vs.iter().map(|&vj| u64::from(uk) * u64::from(vj)).collect())
                    .collect();
                assert_eq!(shift_add(&partials, h, dac), u128::from(v * u));
            }
        }
    }

    #[test]
    fn bits_needed_values() {
        assert_eq!(bits_needed(0), 1);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
        assert_eq!(bits_needed_slice(&[3, 900_000, 17]), 20);
        assert_eq!(bits_needed_slice(&[]), 1);
    }
}
