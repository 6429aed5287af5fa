//! Dense row-major dataset container.

use crate::error::SimilarityError;

/// A dense collection of `n` vectors, each with `d` dimensions, stored
/// row-major in one contiguous allocation.
///
/// This mirrors the `D` of the paper: `N` vectors `p ∈ R^d`. Row-major
/// storage keeps each vector contiguous so that a linear scan touches memory
/// sequentially — the same access pattern whose transfer cost the paper's
/// profiling attributes to `T_cache`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    data: Vec<f64>,
    n: usize,
    d: usize,
}

impl Dataset {
    /// Builds a dataset from a flat row-major buffer.
    pub fn from_flat(data: Vec<f64>, d: usize) -> Result<Self, SimilarityError> {
        if d == 0 {
            return Err(SimilarityError::EmptyDimension);
        }
        if !data.len().is_multiple_of(d) {
            return Err(SimilarityError::RaggedBuffer {
                len: data.len(),
                dim: d,
            });
        }
        let n = data.len() / d;
        Ok(Self { data, n, d })
    }

    /// Builds a dataset from per-row vectors. All rows must share one length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, SimilarityError> {
        let d = rows.first().map(|r| r.len()).unwrap_or(0);
        if d == 0 {
            return Err(SimilarityError::EmptyDimension);
        }
        let mut data = Vec::with_capacity(rows.len() * d);
        for r in rows {
            if r.len() != d {
                return Err(SimilarityError::DimensionMismatch {
                    left: d,
                    right: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            data,
            n: rows.len(),
            d,
        })
    }

    /// An empty dataset of dimension `d` to be filled with [`Dataset::push`].
    pub fn with_dim(d: usize) -> Result<Self, SimilarityError> {
        if d == 0 {
            return Err(SimilarityError::EmptyDimension);
        }
        Ok(Self {
            data: Vec::new(),
            n: 0,
            d,
        })
    }

    /// Appends one vector.
    pub fn push(&mut self, row: &[f64]) -> Result<(), SimilarityError> {
        if row.len() != self.d {
            return Err(SimilarityError::DimensionMismatch {
                left: self.d,
                right: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        self.n += 1;
        Ok(())
    }

    /// Appends one vector and returns its new row index. The online
    /// mutation twin of [`Dataset::push`]: validation mirrors
    /// [`SimilarityError::RaggedBuffer`] — the flat buffer must stay an
    /// exact multiple of `d`, so a wrong-length row is rejected before it
    /// can shear the layout.
    pub fn append_row(&mut self, row: &[f64]) -> Result<usize, SimilarityError> {
        if row.len() != self.d {
            return Err(SimilarityError::RaggedBuffer {
                len: self.data.len() + row.len(),
                dim: self.d,
            });
        }
        self.data.extend_from_slice(row);
        self.n += 1;
        Ok(self.n - 1)
    }

    /// Removes row `i` in O(d) by moving the last row into its slot,
    /// returning the removed vector. Row order past `i` changes (the last
    /// row takes index `i`) — callers that need stable identities must
    /// track their own id map, which is exactly what the serving layer's
    /// shard manager does.
    pub fn swap_remove_row(&mut self, i: usize) -> Result<Vec<f64>, SimilarityError> {
        if i >= self.n {
            return Err(SimilarityError::IndexOutOfRange {
                index: i,
                len: self.n,
            });
        }
        let removed = self.row(i).to_vec();
        let last = self.n - 1;
        if i != last {
            let (head, tail) = self.data.split_at_mut(last * self.d);
            head[i * self.d..(i + 1) * self.d].copy_from_slice(tail);
        }
        self.data.truncate(last * self.d);
        self.n = last;
        Ok(removed)
    }

    /// Number of vectors (`N` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the dataset holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality (`d` in the paper).
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Borrow the `i`-th vector.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.d..(i + 1) * self.d]
    }

    /// Iterate over all vectors in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.d)
    }

    /// The backing row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Global `(min, max)` over every stored value. Returns `None` when
    /// empty. Used by the quantizer's normalization step.
    pub fn value_range(&self) -> Option<(f64, f64)> {
        if self.data.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }

    /// A new dataset restricted to the first `s` dimensions of each row.
    /// Used to emulate the truncation side of dimensionality reduction.
    pub fn truncate_dims(&self, s: usize) -> Result<Self, SimilarityError> {
        if s == 0 || s > self.d {
            return Err(SimilarityError::InvalidSegmentation {
                dim: self.d,
                segments: s,
            });
        }
        let mut data = Vec::with_capacity(self.n * s);
        for row in self.rows() {
            data.extend_from_slice(&row[..s]);
        }
        Ok(Self {
            data,
            n: self.n,
            d: s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn from_flat_rejects_ragged() {
        assert!(matches!(
            Dataset::from_flat(vec![1.0, 2.0, 3.0], 2),
            Err(SimilarityError::RaggedBuffer { .. })
        ));
    }

    #[test]
    fn from_flat_rejects_zero_dim() {
        assert!(matches!(
            Dataset::from_flat(vec![], 0),
            Err(SimilarityError::EmptyDimension)
        ));
    }

    #[test]
    fn from_rows_rejects_mismatch() {
        assert!(Dataset::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn row_access_round_trips() {
        let ds = sample();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn push_extends() {
        let mut ds = Dataset::with_dim(2).unwrap();
        assert!(ds.is_empty());
        ds.push(&[1.0, 2.0]).unwrap();
        ds.push(&[3.0, 4.0]).unwrap();
        assert_eq!(ds.len(), 2);
        assert!(ds.push(&[1.0]).is_err());
    }

    #[test]
    fn append_row_extends_and_validates() {
        let mut ds = sample();
        assert_eq!(ds.append_row(&[7.0, 8.0, 9.0]).unwrap(), 2);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.row(2), &[7.0, 8.0, 9.0]);
        assert!(matches!(
            ds.append_row(&[1.0, 2.0]),
            Err(SimilarityError::RaggedBuffer { len: 11, dim: 3 })
        ));
        assert_eq!(ds.len(), 3, "rejected append must not mutate");
    }

    #[test]
    fn swap_remove_row_moves_last_into_slot() {
        let mut ds = Dataset::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        assert_eq!(ds.swap_remove_row(0).unwrap(), vec![1.0, 1.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(0), &[3.0, 3.0]);
        assert_eq!(ds.row(1), &[2.0, 2.0]);
        // Removing the last row is a plain truncation.
        assert_eq!(ds.swap_remove_row(1).unwrap(), vec![2.0, 2.0]);
        assert_eq!(ds.len(), 1);
        assert!(matches!(
            ds.swap_remove_row(1),
            Err(SimilarityError::IndexOutOfRange { index: 1, len: 1 })
        ));
        assert_eq!(ds.swap_remove_row(0).unwrap(), vec![3.0, 3.0]);
        assert!(ds.is_empty());
    }

    #[test]
    fn value_range_spans_all_rows() {
        let ds = sample();
        assert_eq!(ds.value_range(), Some((1.0, 6.0)));
        assert_eq!(Dataset::with_dim(3).unwrap().value_range(), None);
    }

    #[test]
    fn rows_iterator_matches_row() {
        let ds = sample();
        let collected: Vec<&[f64]> = ds.rows().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[1], ds.row(1));
    }

    #[test]
    fn truncate_dims_keeps_prefix() {
        let ds = sample();
        let t = ds.truncate_dims(2).unwrap();
        assert_eq!(t.dim(), 2);
        assert_eq!(t.row(1), &[4.0, 5.0]);
        assert!(ds.truncate_dims(0).is_err());
        assert!(ds.truncate_dims(4).is_err());
    }
}
