//! Per-segment statistics (mean / standard deviation) used by the segmented
//! bounds LB_SM \[25\] and LB_FNN \[26\], and by the dimensionality reduction of
//! Section V-C.
//!
//! A `d`-dimensional vector is split into `d′` segments of equal length
//! `l = d / d′`; `µ(p̂ᵢ)` and `σ(p̂ᵢ)` denote the mean and population
//! standard deviation of segment `i`. The pair of `d′`-dimensional vectors
//! `(µ(p̂), σ(p̂))` is the compressed representation programmed onto
//! crossbars for `LB_PIM-FNN` (Fig. 10).

use crate::dataset::Dataset;
use crate::error::SimilarityError;
use crate::stats;

/// Segment means and standard deviations of one vector at one segmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentStats {
    /// `µ(p̂ᵢ)` for each of the `d′` segments.
    pub means: Vec<f64>,
    /// `σ(p̂ᵢ)` for each of the `d′` segments.
    pub stds: Vec<f64>,
    /// Segment length `l`.
    pub segment_len: usize,
}

impl SegmentStats {
    /// Computes segment statistics for `vector` with `num_segments` equal
    /// segments. `num_segments` must evenly divide the dimensionality.
    pub fn compute(vector: &[f64], num_segments: usize) -> Result<Self, SimilarityError> {
        let d = vector.len();
        if num_segments == 0 || d == 0 || !d.is_multiple_of(num_segments) {
            return Err(SimilarityError::InvalidSegmentation {
                dim: d,
                segments: num_segments,
            });
        }
        let l = d / num_segments;
        let mut means = Vec::with_capacity(num_segments);
        let mut stds = Vec::with_capacity(num_segments);
        for seg in vector.chunks_exact(l) {
            means.push(stats::mean(seg));
            stds.push(stats::std_dev(seg));
        }
        Ok(Self {
            means,
            stds,
            segment_len: l,
        })
    }

    /// Number of segments `d′`.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.means.len()
    }
}

/// Segment statistics for every row of a dataset at a fixed segmentation —
/// the offline precomputation the segmented bounds rely on. Means and stds
/// are stored row-major (`n × d′` each) for cache-friendly scanning.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentProfile {
    means: Vec<f64>,
    stds: Vec<f64>,
    n: usize,
    num_segments: usize,
    segment_len: usize,
}

impl SegmentProfile {
    /// Precomputes statistics for all rows of `dataset`.
    pub fn compute(dataset: &Dataset, num_segments: usize) -> Result<Self, SimilarityError> {
        let d = dataset.dim();
        if num_segments == 0 || !d.is_multiple_of(num_segments) {
            return Err(SimilarityError::InvalidSegmentation {
                dim: d,
                segments: num_segments,
            });
        }
        let l = d / num_segments;
        let n = dataset.len();
        let mut means = Vec::with_capacity(n * num_segments);
        let mut stds = Vec::with_capacity(n * num_segments);
        for row in dataset.rows() {
            for seg in row.chunks_exact(l) {
                means.push(stats::mean(seg));
                stds.push(stats::std_dev(seg));
            }
        }
        Ok(Self {
            means,
            stds,
            n,
            num_segments,
            segment_len: l,
        })
    }

    /// Number of profiled rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no rows were profiled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of segments `d′`.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// Segment length `l`.
    #[inline]
    pub fn segment_len(&self) -> usize {
        self.segment_len
    }

    /// Segment means of row `i`.
    #[inline]
    pub fn means(&self, i: usize) -> &[f64] {
        &self.means[i * self.num_segments..(i + 1) * self.num_segments]
    }

    /// Segment standard deviations of row `i`.
    #[inline]
    pub fn stds(&self, i: usize) -> &[f64] {
        &self.stds[i * self.num_segments..(i + 1) * self.num_segments]
    }

    /// Statistics of row `i` as an owned [`SegmentStats`].
    pub fn row(&self, i: usize) -> SegmentStats {
        SegmentStats {
            means: self.means(i).to_vec(),
            stds: self.stds(i).to_vec(),
            segment_len: self.segment_len,
        }
    }
}

/// The divisor of `d` closest to `want` (and ≥ 1) — used to realize the
/// paper's `d/64 → d/16 → d/4` FNN cascade on dimensionalities that are not
/// exact multiples of 64. Ties resolve to the smaller divisor (cheaper
/// bound first).
pub fn nearest_divisor(d: usize, want: usize) -> usize {
    assert!(d > 0, "dimension must be non-zero");
    let want = want.max(1);
    let mut best = 1usize;
    let mut best_gap = usize::MAX;
    let mut i = 1usize;
    while i * i <= d {
        if d.is_multiple_of(i) {
            for cand in [i, d / i] {
                let gap = cand.abs_diff(want);
                if gap < best_gap || (gap == best_gap && cand < best) {
                    best = cand;
                    best_gap = gap;
                }
            }
        }
        i += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_stats_basic() {
        let v = [1.0, 3.0, 10.0, 10.0];
        let s = SegmentStats::compute(&v, 2).unwrap();
        assert_eq!(s.num_segments(), 2);
        assert_eq!(s.segment_len, 2);
        assert_eq!(s.means, vec![2.0, 10.0]);
        assert_eq!(s.stds[0], 1.0);
        assert_eq!(s.stds[1], 0.0);
    }

    #[test]
    fn segment_stats_rejects_bad_split() {
        assert!(SegmentStats::compute(&[1.0, 2.0, 3.0], 2).is_err());
        assert!(SegmentStats::compute(&[1.0, 2.0], 0).is_err());
        assert!(SegmentStats::compute(&[], 1).is_err());
    }

    #[test]
    fn profile_matches_per_row_stats() {
        let ds = Dataset::from_rows(&[vec![1.0, 3.0, 5.0, 7.0], vec![2.0, 2.0, 8.0, 0.0]]).unwrap();
        let prof = SegmentProfile::compute(&ds, 2).unwrap();
        assert_eq!(prof.len(), 2);
        for i in 0..2 {
            let direct = SegmentStats::compute(ds.row(i), 2).unwrap();
            assert_eq!(prof.means(i), direct.means.as_slice());
            assert_eq!(prof.stds(i), direct.stds.as_slice());
            assert_eq!(prof.row(i), direct);
        }
    }

    #[test]
    fn one_segment_is_whole_vector() {
        let v = [1.0, 2.0, 3.0];
        let s = SegmentStats::compute(&v, 1).unwrap();
        assert_eq!(s.means, vec![2.0]);
        assert_eq!(s.segment_len, 3);
    }

    #[test]
    fn d_segments_are_identity() {
        let v = [4.0, 5.0];
        let s = SegmentStats::compute(&v, 2).unwrap();
        assert_eq!(s.means, vec![4.0, 5.0]);
        assert_eq!(s.stds, vec![0.0, 0.0]);
    }

    #[test]
    fn nearest_divisor_picks_closest() {
        assert_eq!(nearest_divisor(420, 420 / 64), 6); // 420/64 = 6.56 → want 6
        assert_eq!(nearest_divisor(420, 420 / 16), 28); // want 26 → divisors 21, 28 → 28? gap(21)=5, gap(28)=2
        assert_eq!(nearest_divisor(128, 2), 2);
        assert_eq!(nearest_divisor(128, 3), 2); // tie between 2 and 4 → smaller
        assert_eq!(nearest_divisor(7, 3), 1); // divisors of 7: 1, 7 → gap 2 vs 4
        assert_eq!(nearest_divisor(960, 960 / 4), 240);
    }
}
