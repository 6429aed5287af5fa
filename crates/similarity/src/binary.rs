//! Packed binary codes and Hamming distance.
//!
//! The paper's kNN-on-HD workload (Fig. 14) operates on LSH codes of
//! 128–1024 bits. On the host, Hamming distance is XOR + popcount over
//! 64-bit words. On PIM, the decomposition of Table 4 applies:
//! `HD(p,q) = d − p·q − p̃·q̃` where `p̃` is the bitwise complement, so two
//! crossbar dot products on 0/1 vectors compute HD *exactly* — no bound is
//! required.

use crate::error::SimilarityError;

/// Number of 64-bit words needed to hold `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// A dataset of `n` binary codes, each `bits` wide, bit-packed into `u64`
/// words (little-endian bit order within a word: bit `i` of the code is bit
/// `i % 64` of word `i / 64`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryDataset {
    words: Vec<u64>,
    n: usize,
    bits: usize,
    words_per_row: usize,
}

/// Borrowed view of one binary code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryVecRef<'a> {
    words: &'a [u64],
    bits: usize,
}

impl BinaryDataset {
    /// An empty dataset of `bits`-wide codes.
    pub fn with_bits(bits: usize) -> Result<Self, SimilarityError> {
        if bits == 0 {
            return Err(SimilarityError::EmptyDimension);
        }
        Ok(Self {
            words: Vec::new(),
            n: 0,
            bits,
            words_per_row: words_for(bits),
        })
    }

    /// Appends a code given as individual bits (`true` = 1).
    pub fn push_bits(&mut self, code: &[bool]) -> Result<(), SimilarityError> {
        if code.len() != self.bits {
            return Err(SimilarityError::DimensionMismatch {
                left: self.bits,
                right: code.len(),
            });
        }
        let start = self.words.len();
        self.words.resize(start + self.words_per_row, 0);
        for (i, &b) in code.iter().enumerate() {
            if b {
                self.words[start + i / 64] |= 1u64 << (i % 64);
            }
        }
        self.n += 1;
        Ok(())
    }

    /// Appends a pre-packed code. Bits beyond `bits` in the last word must
    /// be zero (enforced).
    pub fn push_words(&mut self, words: &[u64]) -> Result<(), SimilarityError> {
        if words.len() != self.words_per_row {
            return Err(SimilarityError::DimensionMismatch {
                left: self.words_per_row,
                right: words.len(),
            });
        }
        let tail_bits = self.bits % 64;
        if tail_bits != 0 {
            let mask = !0u64 << tail_bits;
            if words[self.words_per_row - 1] & mask != 0 {
                return Err(SimilarityError::InvalidValue {
                    context: "binary code has set bits beyond its declared width",
                });
            }
        }
        self.words.extend_from_slice(words);
        self.n += 1;
        Ok(())
    }

    /// Number of stored codes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no codes are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Code width in bits (`d` for the HD workload).
    #[inline]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Borrow the `i`-th code.
    #[inline]
    pub fn row(&self, i: usize) -> BinaryVecRef<'_> {
        let w = self.words_per_row;
        BinaryVecRef {
            words: &self.words[i * w..(i + 1) * w],
            bits: self.bits,
        }
    }

    /// Iterate over all codes.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = BinaryVecRef<'_>> + '_ {
        self.words
            .chunks_exact(self.words_per_row)
            .map(|w| BinaryVecRef {
                words: w,
                bits: self.bits,
            })
    }
}

impl<'a> BinaryVecRef<'a> {
    /// Wraps a word slice as a code of `bits` bits.
    pub fn new(words: &'a [u64], bits: usize) -> Result<Self, SimilarityError> {
        if bits == 0 {
            return Err(SimilarityError::EmptyDimension);
        }
        if words.len() != words_for(bits) {
            return Err(SimilarityError::RaggedBuffer {
                len: words.len() * 64,
                dim: bits,
            });
        }
        Ok(Self { words, bits })
    }

    /// Code width in bits.
    #[inline]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The packed words.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Value of bit `i`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Hamming distance `Σ Δ(pᵢ − qᵢ)` (Table 2, row HD): XOR + popcount,
    /// dispatched through the active `simpim-kern` popcount-MAC backend
    /// (AVX2 `pshufb` nibble LUT, or the portable `count_ones` sum).
    /// Integer counting is exact, so every backend returns the same bits.
    ///
    /// # Panics
    /// Panics in debug builds when widths differ.
    #[inline]
    pub fn hamming(&self, other: &BinaryVecRef<'_>) -> u32 {
        debug_assert_eq!(self.bits, other.bits);
        simpim_kern::xor_popcount(self.words, other.words) as u32
    }

    /// Expands the code to a 0/1 integer vector — the representation
    /// programmed onto crossbars for the PIM HD path.
    pub fn to_unsigned(&self) -> Vec<u32> {
        (0..self.bits).map(|i| self.bit(i) as u32).collect()
    }

    /// Expands the *complement* code `p̃` (Table 4, row HD) to a 0/1 vector.
    pub fn complement_to_unsigned(&self) -> Vec<u32> {
        (0..self.bits).map(|i| !self.bit(i) as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds_from(codes: &[&[bool]]) -> BinaryDataset {
        let mut ds = BinaryDataset::with_bits(codes[0].len()).unwrap();
        for c in codes {
            ds.push_bits(c).unwrap();
        }
        ds
    }

    #[test]
    fn hamming_small_cases() {
        let t = true;
        let f = false;
        let ds = ds_from(&[&[t, f, t, f], &[t, t, t, t], &[f, f, f, f]]);
        assert_eq!(ds.row(0).hamming(&ds.row(1)), 2);
        assert_eq!(ds.row(0).hamming(&ds.row(2)), 2);
        assert_eq!(ds.row(1).hamming(&ds.row(2)), 4);
        assert_eq!(ds.row(0).hamming(&ds.row(0)), 0);
    }

    #[test]
    fn multiword_codes() {
        let bits = 130;
        let mut a = vec![false; bits];
        let mut b = vec![false; bits];
        a[0] = true;
        a[64] = true;
        a[129] = true;
        b[129] = true;
        let ds = ds_from(&[&a, &b]);
        assert_eq!(ds.row(0).count_ones(), 3);
        assert_eq!(ds.row(0).hamming(&ds.row(1)), 2);
        assert!(ds.row(0).bit(64));
        assert!(!ds.row(1).bit(0));
    }

    #[test]
    fn push_words_validates_tail() {
        let mut ds = BinaryDataset::with_bits(4).unwrap();
        assert!(ds.push_words(&[0b1111]).is_ok());
        assert!(ds.push_words(&[0b1_0000]).is_err()); // bit 4 set beyond width
        assert!(ds.push_words(&[0, 0]).is_err()); // wrong word count
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn hd_equals_table4_decomposition() {
        // HD(p,q) = d − p·q − p̃·q̃ — the PIM formulation must agree with
        // XOR+popcount for arbitrary codes.
        let t = true;
        let f = false;
        let ds = ds_from(&[&[t, f, t, t, f, f, t, f], &[f, f, t, f, t, f, t, t]]);
        let p = ds.row(0);
        let q = ds.row(1);
        let d = p.bits() as u32;
        let pu = p.to_unsigned();
        let qu = q.to_unsigned();
        let pc = p.complement_to_unsigned();
        let qc = q.complement_to_unsigned();
        let dot = |a: &[u32], b: &[u32]| a.iter().zip(b).map(|(&x, &y)| x * y).sum::<u32>();
        assert_eq!(p.hamming(&q), d - dot(&pu, &qu) - dot(&pc, &qc));
    }

    #[test]
    fn unsigned_expansion_round_trips() {
        let t = true;
        let f = false;
        let ds = ds_from(&[&[t, f, f, t, t]]);
        let u = ds.row(0).to_unsigned();
        assert_eq!(u, vec![1, 0, 0, 1, 1]);
        let c = ds.row(0).complement_to_unsigned();
        assert_eq!(c, vec![0, 1, 1, 0, 0]);
    }

    #[test]
    fn binary_vec_ref_constructor_validates() {
        let words = [0u64; 2];
        assert!(BinaryVecRef::new(&words, 128).is_ok());
        assert!(BinaryVecRef::new(&words, 0).is_err());
        assert!(BinaryVecRef::new(&words, 64).is_err());
    }
}
