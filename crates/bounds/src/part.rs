//! `UB_part` \[27\] — Cauchy–Schwarz upper bound on a dot product (Table 3,
//! row 4), covering the maximum-dot-product form of CS and PCC search:
//!
//! ```text
//! UB_part(p,q) = Σ_{i=1}^{d′} pᵢqᵢ + √(Σ_{i=d′+1}^d pᵢ²) · √(Σ_{i=d′+1}^d qᵢ²)
//! ```
//!
//! The prefix dot product is exact; the tail is bounded by Cauchy–Schwarz.
//! Since `‖p‖‖q‖ > 0` and `Φa(p)Φa(q) > 0` are query-independent positive
//! factors, the same bound divides through to an upper bound on cosine
//! similarity and on the Pearson correlation coefficient (Table 4 forms).

use crate::cost::EvalCost;
use crate::traits::{BoundDirection, BoundStage, PreparedBound};
use simpim_similarity::{stats, Dataset, SimilarityError};

/// Which similarity the dot-product bound is lifted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartTarget {
    /// Raw dot product `p·q`.
    Dot,
    /// Cosine similarity `p·q / (‖p‖‖q‖)`.
    Cosine,
    /// Pearson correlation `(d·p·q − Σp·Σq) / (Φa(p)·Φa(q))`.
    Pearson,
}

/// Precomputed `UB_part` over a dataset.
#[derive(Debug, Clone)]
pub struct PartBound {
    prefix: Vec<f64>,
    tail_norms: Vec<f64>,
    /// `‖p‖` (Cosine) or `Φa(p)` (Pearson); unused for Dot.
    denoms: Vec<f64>,
    /// `Σ pᵢ`, Pearson only.
    sums: Vec<f64>,
    target: PartTarget,
    d_prime: usize,
    d: usize,
    n: usize,
}

impl PartBound {
    /// Builds the bound with split point `d_prime` for the given target.
    pub fn build(
        dataset: &Dataset,
        d_prime: usize,
        target: PartTarget,
    ) -> Result<Self, SimilarityError> {
        let d = dataset.dim();
        if d_prime == 0 || d_prime > d {
            return Err(SimilarityError::InvalidSegmentation {
                dim: d,
                segments: d_prime,
            });
        }
        let n = dataset.len();
        let mut prefix = Vec::with_capacity(n * d_prime);
        let mut tail_norms = Vec::with_capacity(n);
        let mut denoms = Vec::with_capacity(n);
        let mut sums = Vec::with_capacity(n);
        for row in dataset.rows() {
            prefix.extend_from_slice(&row[..d_prime]);
            tail_norms.push(stats::norm(&row[d_prime..]));
            match target {
                PartTarget::Dot => denoms.push(1.0),
                PartTarget::Cosine => denoms.push(stats::norm(row)),
                PartTarget::Pearson => {
                    let s = stats::sum(row);
                    denoms.push((d as f64 * stats::norm_sq(row) - s * s).max(0.0).sqrt());
                    sums.push(s);
                }
            }
        }
        Ok(Self {
            prefix,
            tail_norms,
            denoms,
            sums,
            target,
            d_prime,
            d,
            n,
        })
    }

    /// Number of prepared objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no objects are prepared.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The lifted target.
    pub fn target(&self) -> PartTarget {
        self.target
    }
}

impl BoundStage for PartBound {
    fn name(&self) -> String {
        let suffix = match self.target {
            PartTarget::Dot => "dot",
            PartTarget::Cosine => "CS",
            PartTarget::Pearson => "PCC",
        };
        format!("UB_part^{}({suffix})", self.d_prime)
    }

    fn direction(&self) -> BoundDirection {
        BoundDirection::UpperBoundsSimilarity
    }

    fn d_prime(&self) -> usize {
        self.d_prime
    }

    fn transfer_bytes_per_object(&self) -> u64 {
        // prefix + tail norm + denominator (+ sum for PCC).
        let extras = match self.target {
            PartTarget::Dot => 1,
            PartTarget::Cosine => 2,
            PartTarget::Pearson => 3,
        };
        (self.d_prime as u64 + extras) * 8
    }

    fn eval_cost(&self) -> EvalCost {
        let dp = self.d_prime as u64;
        EvalCost {
            arith: dp + 2,
            mul: dp + 2,
            div: matches!(self.target, PartTarget::Cosine | PartTarget::Pearson) as u64,
            sqrt: 0,
            bytes: self.transfer_bytes_per_object(),
        }
    }

    fn prepare(&self, query: &[f64]) -> Box<dyn PreparedBound + '_> {
        assert_eq!(query.len(), self.d, "query dimensionality mismatch");
        let q_prefix = query[..self.d_prime].to_vec();
        let q_tail_norm = stats::norm(&query[self.d_prime..]);
        let (q_denom, q_sum) = match self.target {
            PartTarget::Dot => (1.0, 0.0),
            PartTarget::Cosine => (stats::norm(query), 0.0),
            PartTarget::Pearson => {
                let s = stats::sum(query);
                let phi = (self.d as f64 * stats::norm_sq(query) - s * s)
                    .max(0.0)
                    .sqrt();
                (phi, s)
            }
        };
        Box::new(PartPrepared {
            bound: self,
            q_prefix,
            q_tail_norm,
            q_denom,
            q_sum,
        })
    }
}

struct PartPrepared<'a> {
    bound: &'a PartBound,
    q_prefix: Vec<f64>,
    q_tail_norm: f64,
    q_denom: f64,
    q_sum: f64,
}

impl PreparedBound for PartPrepared<'_> {
    fn bound(&self, i: usize) -> f64 {
        let dp = self.bound.d_prime;
        let prefix = &self.bound.prefix[i * dp..(i + 1) * dp];
        let ub_dot =
            stats::dot(prefix, &self.q_prefix) + self.bound.tail_norms[i] * self.q_tail_norm;
        match self.bound.target {
            PartTarget::Dot => ub_dot,
            PartTarget::Cosine => {
                let denom = self.bound.denoms[i] * self.q_denom;
                if denom == 0.0 {
                    0.0 // zero vector ⇒ similarity defined as 0
                } else {
                    ub_dot / denom
                }
            }
            PartTarget::Pearson => {
                let denom = self.bound.denoms[i] * self.q_denom;
                if denom == 0.0 {
                    0.0 // constant vector ⇒ PCC defined as 0
                } else {
                    (self.bound.d as f64 * ub_dot - self.bound.sums[i] * self.q_sum) / denom
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_similarity::measures::{cosine, pearson};

    fn dataset() -> Dataset {
        Dataset::from_rows(&[
            vec![0.1, 0.9, 0.3, 0.7, 0.2, 0.8],
            vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
            vec![0.9, 0.1, 0.8, 0.2, 0.7, 0.3],
        ])
        .unwrap()
    }

    #[test]
    fn upper_bounds_dot_product() {
        let ds = dataset();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2];
        for dp in 1..=6 {
            let b = PartBound::build(&ds, dp, PartTarget::Dot).unwrap();
            let prep = b.prepare(&q);
            for i in 0..ds.len() {
                let exact = stats::dot(ds.row(i), &q);
                assert!(prep.bound(i) >= exact - 1e-12, "dp={dp} i={i}");
            }
        }
    }

    #[test]
    fn upper_bounds_cosine_and_pearson() {
        let ds = dataset();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2];
        for dp in 1..=6 {
            let cs = PartBound::build(&ds, dp, PartTarget::Cosine).unwrap();
            let pcc = PartBound::build(&ds, dp, PartTarget::Pearson).unwrap();
            let (pc, pp) = (cs.prepare(&q), pcc.prepare(&q));
            for i in 0..ds.len() {
                assert!(
                    pc.bound(i) >= cosine(ds.row(i), &q) - 1e-12,
                    "CS dp={dp} i={i}"
                );
                assert!(
                    pp.bound(i) >= pearson(ds.row(i), &q) - 1e-12,
                    "PCC dp={dp} i={i}"
                );
            }
        }
    }

    #[test]
    fn full_split_is_exact_dot() {
        let ds = dataset();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2];
        let b = PartBound::build(&ds, 6, PartTarget::Dot).unwrap();
        let prep = b.prepare(&q);
        for i in 0..ds.len() {
            assert!((prep.bound(i) - stats::dot(ds.row(i), &q)).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_vector_pcc_is_zero() {
        let ds = Dataset::from_rows(&[vec![0.5; 6]]).unwrap();
        let b = PartBound::build(&ds, 2, PartTarget::Pearson).unwrap();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2];
        assert_eq!(b.prepare(&q).bound(0), 0.0);
    }

    #[test]
    fn metadata() {
        let b = PartBound::build(&dataset(), 2, PartTarget::Cosine).unwrap();
        assert_eq!(b.direction(), BoundDirection::UpperBoundsSimilarity);
        assert!(b.name().contains("CS"));
        assert_eq!(b.transfer_bytes_per_object(), (2 + 2) * 8);
        assert_eq!(b.target(), PartTarget::Cosine);
        assert_eq!(b.eval_cost().div, 1);
        assert_eq!(
            PartBound::build(&dataset(), 2, PartTarget::Dot)
                .unwrap()
                .eval_cost()
                .div,
            0
        );
    }

    #[test]
    fn rejects_bad_split() {
        assert!(PartBound::build(&dataset(), 0, PartTarget::Dot).is_err());
        assert!(PartBound::build(&dataset(), 7, PartTarget::Dot).is_err());
    }
}
