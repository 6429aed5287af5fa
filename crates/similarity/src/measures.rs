//! The similarity measures of Table 2.
//!
//! Following the paper's Table 2, `ED` denotes the **squared** Euclidean
//! distance `Σ (pᵢ − qᵢ)²` (the square root is monotone and omitted by every
//! bound in Table 3, so the whole stack works on squared distances).
//!
//! Cosine similarity and Pearson correlation are *similarities* (larger is
//! closer); kNN on them is a maximum-similarity search, so the relevant
//! bounds are upper bounds (`UB_part`, and the PIM-aware upper bounds in
//! `simpim-core`).

use crate::error::SimilarityError;
use crate::stats;

/// Identifies one of the paper's four similarity measures. Carried through
/// the mining algorithms and the execution planner so that cost estimation
/// and bound selection know which function is being accelerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// Squared Euclidean distance (smaller = closer).
    EuclideanSq,
    /// Cosine similarity (larger = closer).
    Cosine,
    /// Pearson correlation coefficient (larger = closer).
    Pearson,
    /// Hamming distance on binary codes (smaller = closer).
    Hamming,
}

impl Measure {
    /// `true` when smaller values mean more similar objects.
    pub fn smaller_is_closer(self) -> bool {
        matches!(self, Measure::EuclideanSq | Measure::Hamming)
    }

    /// Short name as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Measure::EuclideanSq => "ED",
            Measure::Cosine => "CS",
            Measure::Pearson => "PCC",
            Measure::Hamming => "HD",
        }
    }
}

/// Squared Euclidean distance `Σ (pᵢ − qᵢ)²` (Table 2, row ED) —
/// dispatched chunked kernel. Delegates to the active `simpim-kern`
/// backend: four independent accumulator lanes over 4-element blocks,
/// per-lane `sub`/`mul`/`add`, lanes and tail folded in a fixed order
/// (see [`stats::dot`]) — a pure function of the inputs, so results
/// never depend on thread count or backend. Validated ULP-close to the
/// sequential [`euclidean_sq_scalar`] reference in the equivalence tests.
#[inline]
pub fn euclidean_sq(p: &[f64], q: &[f64]) -> f64 {
    simpim_kern::euclidean_sq(p, q)
}

/// [`euclidean_sq`] that abandons a hopeless candidate: `Some` of the
/// same bits unless the distance is above `limit`, otherwise `None` as
/// soon as a partial sum shows it (`simpim_kern::euclidean_sq_until`).
#[inline]
pub fn euclidean_sq_until(p: &[f64], q: &[f64], limit: f64) -> Option<f64> {
    simpim_kern::euclidean_sq_until(p, q, limit)
}

/// Sequential reference form of [`euclidean_sq`]: one running sum in
/// element order, kept as the equivalence-test ground truth.
#[inline]
pub fn euclidean_sq_scalar(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    p.iter().zip(q).map(|(&a, &b)| (a - b) * (a - b)).sum()
}

/// Cosine similarity `p·q / (‖p‖‖q‖)` (Table 2, row CS).
///
/// Returns `0.0` when either vector has zero norm (the convention used by
/// the mining algorithms: a zero vector is equally dissimilar to everything).
#[inline]
pub fn cosine(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    // Fused kernel: one pass over `p` yields dot(p, q) and ‖p‖² with
    // bit-identical results to the unfused calls.
    let (pq, np_sq) = simpim_kern::dot_norm_sq(p, q);
    let np = np_sq.sqrt();
    let nq = stats::norm(q);
    if np == 0.0 || nq == 0.0 {
        return 0.0;
    }
    pq / (np * nq)
}

/// Pearson correlation coefficient (Table 2, row PCC):
/// `Σ (pᵢ−µ(p))(qᵢ−µ(q)) / (d·σ(p)σ(q))`.
///
/// Matches the PIM-aware decomposition of Table 4:
/// `PCC = (d·p·q − Φb(p)Φb(q)) / (Φa(p)Φa(q))` with
/// `Φa(x) = sqrt(d·Σxᵢ² − (Σxᵢ)²)` and `Φb(x) = Σxᵢ`.
/// Returns `0.0` when either vector is constant (zero σ).
#[inline]
pub fn pearson(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    let d = p.len() as f64;
    let sp = stats::sum(p);
    let sq = stats::sum(q);
    let phi_a_p = (d * stats::norm_sq(p) - sp * sp).max(0.0).sqrt();
    let phi_a_q = (d * stats::norm_sq(q) - sq * sq).max(0.0).sqrt();
    if phi_a_p == 0.0 || phi_a_q == 0.0 {
        return 0.0;
    }
    (d * stats::dot(p, q) - sp * sq) / (phi_a_p * phi_a_q)
}

/// Evaluates a floating-point measure by enum. Hamming distance operates on
/// binary codes and is exposed on [`crate::BinaryVecRef`] instead; requesting
/// it here returns [`SimilarityError::UnsupportedMeasure`].
pub fn evaluate(measure: Measure, p: &[f64], q: &[f64]) -> Result<f64, SimilarityError> {
    match measure {
        Measure::EuclideanSq => Ok(euclidean_sq(p, q)),
        Measure::Cosine => Ok(cosine(p, q)),
        Measure::Pearson => Ok(pearson(p, q)),
        Measure::Hamming => Err(SimilarityError::UnsupportedMeasure {
            measure,
            context: "Hamming distance is defined on binary codes, not floats",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_is_squared() {
        assert_eq!(euclidean_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean_sq(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        assert!((cosine(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn pearson_of_linear_relation() {
        let p = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0]; // positively correlated
        let down = [4.0, 3.0, 2.0, 1.0]; // negatively correlated
        assert!((pearson(&p, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&p, &down) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_vector_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_matches_textbook_formula() {
        let p = [0.2, 0.8, 0.4, 0.9, 0.1];
        let q = [0.3, 0.6, 0.5, 0.8, 0.2];
        let d = p.len() as f64;
        let mp = crate::stats::mean(&p);
        let mq = crate::stats::mean(&q);
        let sp = crate::stats::std_dev(&p);
        let sq = crate::stats::std_dev(&q);
        let expect = p
            .iter()
            .zip(&q)
            .map(|(&a, &b)| (a - mp) * (b - mq))
            .sum::<f64>()
            / (d * sp * sq);
        assert!((pearson(&p, &q) - expect).abs() < 1e-10);
    }

    #[test]
    fn measure_metadata() {
        assert!(Measure::EuclideanSq.smaller_is_closer());
        assert!(Measure::Hamming.smaller_is_closer());
        assert!(!Measure::Cosine.smaller_is_closer());
        assert!(!Measure::Pearson.smaller_is_closer());
        assert_eq!(Measure::Pearson.name(), "PCC");
    }

    #[test]
    fn evaluate_dispatches() {
        let p = [1.0, 2.0];
        let q = [2.0, 1.0];
        assert_eq!(
            evaluate(Measure::EuclideanSq, &p, &q),
            Ok(euclidean_sq(&p, &q))
        );
        assert_eq!(evaluate(Measure::Cosine, &p, &q), Ok(cosine(&p, &q)));
        assert_eq!(evaluate(Measure::Pearson, &p, &q), Ok(pearson(&p, &q)));
    }

    #[test]
    fn chunked_euclidean_exactly_matches_scalar_on_dyadic_inputs() {
        // Quarter-integer coordinates make every squared difference and
        // partial sum exactly representable: reassociation is a no-op, so
        // the chunked kernel must equal the sequential reference bit for
        // bit at every length through several lane blocks plus tails.
        for len in 0usize..=67 {
            let p: Vec<f64> = (0..len)
                .map(|i| ((i * 11 + 2) % 19) as f64 * 0.25)
                .collect();
            let q: Vec<f64> = (0..len).map(|i| ((i * 3 + 5) % 23) as f64 * 0.25).collect();
            assert_eq!(
                euclidean_sq(&p, &q),
                euclidean_sq_scalar(&p, &q),
                "len={len}"
            );
        }
    }

    #[test]
    fn chunked_euclidean_is_ulp_close_to_scalar_on_general_inputs() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut prng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for len in 0usize..=130 {
            let p: Vec<f64> = (0..len).map(|_| prng()).collect();
            let q: Vec<f64> = (0..len).map(|_| prng()).collect();
            let magnitude = euclidean_sq_scalar(&p, &q);
            let diff = (euclidean_sq(&p, &q) - magnitude).abs();
            assert!(
                diff <= 1e-12 * (1.0 + magnitude),
                "len={len}: diff {diff} too large"
            );
        }
    }

    #[test]
    fn evaluate_hamming_is_a_typed_error() {
        let err = evaluate(Measure::Hamming, &[1.0], &[1.0]).unwrap_err();
        assert_eq!(
            err,
            SimilarityError::UnsupportedMeasure {
                measure: Measure::Hamming,
                context: "Hamming distance is defined on binary codes, not floats",
            }
        );
        assert!(err.to_string().contains("binary codes"));
    }
}
