//! Normalization and α-quantization (Section V-B, Eq. 5–6).
//!
//! ReRAM crossbars operate on non-negative limited-precision integers, so
//! the paper maps a floating-point dataset onto the crossbars in two steps:
//!
//! 1. **Normalize** every value into `[0, 1]` (min–max over the dataset).
//!    Both the baseline algorithms and the PIM variants run on this
//!    normalized data, so results are directly comparable.
//! 2. **Scale and truncate**: `p̄ᵢ = pᵢ · α` and `⌊p̄ᵢ⌋` keeps the integer
//!    part (Eq. 5–6). The paper uses `α = 10⁶`.
//!
//! [`Quantizer`] captures the fitted range and α; [`QuantizedDataset`] holds
//! the integer vectors together with the per-row scalar statistics
//! (`Σ p̄ᵢ²`, `Σ p̄ᵢ`, `Σ ⌊p̄ᵢ⌋`) that the PIM-aware Φ functions of
//! `simpim-core` are assembled from.

use crate::dataset::Dataset;
use crate::error::SimilarityError;

/// The paper's default scaling factor (Section VI-B).
pub const DEFAULT_ALPHA: f64 = 1e6;

/// Min–max normalization plus α-scaling fitted on a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    lo: f64,
    hi: f64,
    alpha: f64,
}

/// Per-vector scalar statistics of the scaled representation, computed once
/// (offline for dataset rows, once per query online) and reused by every
/// PIM-aware bound.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RowStats {
    /// `Σ p̄ᵢ²` over the scaled (not truncated) values.
    pub sum_sq_scaled: f64,
    /// `Σ p̄ᵢ` over the scaled values (used by CS/PCC decompositions).
    pub sum_scaled: f64,
    /// `Σ ⌊p̄ᵢ⌋` over the truncated integers.
    pub sum_floor: u64,
    /// `Σ ⌊p̄ᵢ⌋²` (used by PCC's quantized Φa).
    pub sum_floor_sq: u64,
}

/// One quantized vector: the integer parts `⌊p̄⌋` plus its [`RowStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedVec {
    /// `⌊p̄ᵢ⌋` for every dimension, each in `[0, α]`.
    pub floors: Vec<u32>,
    /// Scalar statistics of the scaled vector.
    pub stats: RowStats,
}

/// A dataset after min–max normalization into `[0, 1]`.
///
/// Thin wrapper distinguishing "already normalized" data in APIs; the PIM
/// pipeline (and the paper's baselines) always run on normalized data.
/// `repr(transparent)` so a `&Dataset` can be re-viewed as a
/// `&NormalizedDataset` without copying the rows
/// ([`NormalizedDataset::assert_normalized_ref`]).
#[derive(Debug, Clone, PartialEq)]
#[repr(transparent)]
pub struct NormalizedDataset {
    inner: Dataset,
}

/// The α-quantized form of an entire dataset: `N × d` integer parts stored
/// row-major plus per-row [`RowStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedDataset {
    floors: Vec<u32>,
    stats: Vec<RowStats>,
    n: usize,
    d: usize,
    quantizer: Quantizer,
}

impl Quantizer {
    /// Fits the normalization range from a dataset and fixes α.
    pub fn fit(dataset: &Dataset, alpha: f64) -> Result<Self, SimilarityError> {
        if !(alpha.is_finite() && alpha >= 1.0) {
            return Err(SimilarityError::InvalidValue {
                context: "alpha must be finite and ≥ 1",
            });
        }
        let (lo, hi) = dataset.value_range().ok_or(SimilarityError::InvalidValue {
            context: "cannot fit quantizer on empty dataset",
        })?;
        if !lo.is_finite() || !hi.is_finite() {
            return Err(SimilarityError::InvalidValue {
                context: "dataset contains non-finite values",
            });
        }
        Ok(Self { lo, hi, alpha })
    }

    /// A quantizer over data already in `[0, 1]`.
    pub fn identity(alpha: f64) -> Result<Self, SimilarityError> {
        if !(alpha.is_finite() && alpha >= 1.0) {
            return Err(SimilarityError::InvalidValue {
                context: "alpha must be finite and ≥ 1",
            });
        }
        Ok(Self {
            lo: 0.0,
            hi: 1.0,
            alpha,
        })
    }

    /// The scaling factor α.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Normalizes one raw value into `[0, 1]`. Values outside the fitted
    /// range are clamped (can occur for queries unseen during fitting).
    #[inline]
    pub fn normalize(&self, v: f64) -> f64 {
        if self.hi <= self.lo {
            return 0.0;
        }
        ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    /// Scaled value `p̄ᵢ = normalize(v) · α` (Eq. 5).
    #[inline]
    pub fn scale(&self, v: f64) -> f64 {
        self.normalize(v) * self.alpha
    }

    /// Integer part `⌊p̄ᵢ⌋` (Eq. 6), guaranteed within `[0, α]`.
    #[inline]
    pub fn floor(&self, v: f64) -> u32 {
        self.scale(v) as u32
    }

    /// Quantizes one vector of raw values, producing integer parts and the
    /// scalar statistics required by the PIM-aware Φ functions.
    pub fn quantize_vec(&self, raw: &[f64]) -> Result<QuantizedVec, SimilarityError> {
        let mut floors = Vec::with_capacity(raw.len());
        let mut stats = RowStats::default();
        for &v in raw {
            if !v.is_finite() {
                return Err(SimilarityError::InvalidValue {
                    context: "non-finite input value",
                });
            }
            let scaled = self.scale(v);
            let fl = scaled as u32;
            stats.sum_sq_scaled += scaled * scaled;
            stats.sum_scaled += scaled;
            stats.sum_floor += u64::from(fl);
            stats.sum_floor_sq += u64::from(fl) * u64::from(fl);
            floors.push(fl);
        }
        Ok(QuantizedVec { floors, stats })
    }

    /// Normalizes a whole dataset into `[0, 1]`.
    pub fn normalize_dataset(&self, dataset: &Dataset) -> NormalizedDataset {
        let mut flat = Vec::with_capacity(dataset.len() * dataset.dim());
        for row in dataset.rows() {
            flat.extend(row.iter().map(|&v| self.normalize(v)));
        }
        NormalizedDataset {
            inner: Dataset::from_flat(flat, dataset.dim()).expect("shape preserved"),
        }
    }

    /// Quantizes a whole dataset.
    pub fn quantize_dataset(&self, dataset: &Dataset) -> Result<QuantizedDataset, SimilarityError> {
        let n = dataset.len();
        let d = dataset.dim();
        let mut floors = Vec::with_capacity(n * d);
        let mut stats = Vec::with_capacity(n);
        for row in dataset.rows() {
            let qv = self.quantize_vec(row)?;
            floors.extend_from_slice(&qv.floors);
            stats.push(qv.stats);
        }
        Ok(QuantizedDataset {
            floors,
            stats,
            n,
            d,
            quantizer: *self,
        })
    }
}

impl NormalizedDataset {
    /// The normalized data as a plain dataset.
    #[inline]
    pub fn dataset(&self) -> &Dataset {
        &self.inner
    }

    /// Wraps a dataset the caller guarantees to be within `[0, 1]`.
    /// Verified in debug builds.
    pub fn assert_normalized(dataset: Dataset) -> Self {
        debug_assert!(
            dataset.as_flat().iter().all(|&v| (0.0..=1.0).contains(&v)),
            "values outside [0,1]"
        );
        Self { inner: dataset }
    }

    /// Borrows a dataset the caller guarantees to be within `[0, 1]`,
    /// without cloning the rows. Verified in debug builds.
    pub fn assert_normalized_ref(dataset: &Dataset) -> &Self {
        debug_assert!(
            dataset.as_flat().iter().all(|&v| (0.0..=1.0).contains(&v)),
            "values outside [0,1]"
        );
        // SAFETY: `NormalizedDataset` is `repr(transparent)` over
        // `Dataset`, so the reference layouts are identical.
        unsafe { &*(dataset as *const Dataset as *const Self) }
    }
}

impl QuantizedDataset {
    /// Number of vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The quantizer that produced this dataset.
    #[inline]
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// Integer parts of the `i`-th vector.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.floors[i * self.d..(i + 1) * self.d]
    }

    /// Scalar statistics of the `i`-th vector.
    #[inline]
    pub fn stats(&self, i: usize) -> &RowStats {
        &self.stats[i]
    }

    /// Iterate over `(floors, stats)` pairs.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (&[u32], &RowStats)> + '_ {
        self.floors.chunks_exact(self.d).zip(self.stats.iter())
    }

    /// The flat row-major integer buffer (what gets programmed on PIM).
    #[inline]
    pub fn as_flat(&self) -> &[u32] {
        &self.floors
    }

    /// Maximum operand bit-width actually required by the stored integers
    /// (`b` in the paper's crossbar space formulas). At least 1.
    pub fn operand_bits(&self) -> u32 {
        let max = self.floors.iter().copied().max().unwrap_or(0);
        (32 - max.leading_zeros()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw() -> Dataset {
        Dataset::from_rows(&[vec![-2.0, 0.0, 2.0], vec![0.0, 1.0, 2.0]]).unwrap()
    }

    #[test]
    fn fit_captures_range() {
        let q = Quantizer::fit(&raw(), 100.0).unwrap();
        assert_eq!(q.normalize(-2.0), 0.0);
        assert_eq!(q.normalize(2.0), 1.0);
        assert_eq!(q.normalize(0.0), 0.5);
        // clamping for out-of-range queries
        assert_eq!(q.normalize(-10.0), 0.0);
        assert_eq!(q.normalize(10.0), 1.0);
    }

    #[test]
    fn fit_rejects_bad_alpha_and_empty() {
        assert!(Quantizer::fit(&raw(), 0.5).is_err());
        assert!(Quantizer::fit(&raw(), f64::NAN).is_err());
        let empty = Dataset::with_dim(3).unwrap();
        assert!(Quantizer::fit(&empty, 10.0).is_err());
    }

    #[test]
    fn constant_dataset_normalizes_to_zero() {
        let ds = Dataset::from_rows(&[vec![5.0, 5.0]]).unwrap();
        let q = Quantizer::fit(&ds, 10.0).unwrap();
        assert_eq!(q.normalize(5.0), 0.0);
        assert_eq!(q.floor(5.0), 0);
    }

    #[test]
    fn floor_matches_paper_example() {
        // Fig. 9: p = 0.5532 with α = 1000 → p̄ = 553.2 → ⌊p̄⌋ = 553.
        let q = Quantizer::identity(1000.0).unwrap();
        assert_eq!(q.floor(0.5532), 553);
        assert_eq!(q.floor(0.9742), 974);
        assert_eq!(q.floor(0.0), 0);
        assert_eq!(q.floor(1.0), 1000);
    }

    #[test]
    fn quantize_vec_stats_are_consistent() {
        let q = Quantizer::identity(1000.0).unwrap();
        let v = [0.25, 0.5, 0.9991];
        let qv = q.quantize_vec(&v).unwrap();
        assert_eq!(qv.floors, vec![250, 500, 999]);
        assert_eq!(qv.stats.sum_floor, 1749);
        assert_eq!(qv.stats.sum_floor_sq, 250 * 250 + 500 * 500 + 999 * 999);
        let expect_sq = 250.0f64 * 250.0 + 500.0 * 500.0 + 999.1f64 * 999.1;
        assert!((qv.stats.sum_sq_scaled - expect_sq).abs() < 1e-6);
        assert!((qv.stats.sum_scaled - 1749.1).abs() < 1e-9);
    }

    #[test]
    fn quantize_vec_rejects_non_finite() {
        let q = Quantizer::identity(10.0).unwrap();
        assert!(q.quantize_vec(&[f64::NAN]).is_err());
        assert!(q.quantize_vec(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn dataset_quantization_round_trips() {
        let ds = raw();
        let q = Quantizer::fit(&ds, 100.0).unwrap();
        let qd = q.quantize_dataset(&ds).unwrap();
        assert_eq!(qd.len(), 2);
        assert_eq!(qd.dim(), 3);
        assert_eq!(qd.row(0), &[0, 50, 100]);
        assert_eq!(qd.row(1), &[50, 75, 100]);
        assert_eq!(qd.stats(0).sum_floor, 150);
        assert!(qd.operand_bits() >= 7); // 100 needs 7 bits
    }

    #[test]
    fn normalize_dataset_bounds() {
        let ds = raw();
        let q = Quantizer::fit(&ds, 100.0).unwrap();
        let nd = q.normalize_dataset(&ds);
        assert!(nd
            .dataset()
            .as_flat()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(nd.dataset().dim(), 3);
    }

    #[test]
    fn operand_bits_of_zero_dataset() {
        let ds = Dataset::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let q = Quantizer::fit(&ds, 100.0).unwrap(); // constant → all zeros
        let qd = q.quantize_dataset(&ds).unwrap();
        assert_eq!(qd.operand_bits(), 1);
    }
}
