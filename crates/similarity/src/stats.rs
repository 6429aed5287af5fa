//! Small statistical helpers (mean, population standard deviation, dot
//! products, norms) shared by the measures and the segment profiles.

/// Arithmetic mean of a slice; `0.0` for an empty slice.
#[inline]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation (`σ`, divisor `n`), matching the segment
/// statistics used by LB_FNN \[26\].
#[inline]
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.max(0.0).sqrt()
}

/// Dot product of two equal-length slices — dispatched chunked kernel.
///
/// Delegates to the active `simpim-kern` backend (AVX2 or the portable
/// chunked reference). Every backend accumulates into
/// [`simpim_kern::LANES`] (4) independent lanes over 4-element blocks and
/// folds the lanes (then the ragged tail) in a fixed order, so the result
/// is a pure function of the inputs: identical bits on every call, every
/// thread count, every backend, every machine running the same float
/// ops. It differs from the sequential [`dot_scalar`] reference only by
/// float reassociation, bounded by a few ULPs per element (see the
/// equivalence tests).
///
/// # Panics
/// Panics in debug builds when the lengths differ; callers validate
/// dimensionality at container boundaries.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    simpim_kern::dot(a, b)
}

/// Sequential reference form of [`dot`]: one running sum in element
/// order. Kept for the equivalence tests and as the ground truth the
/// chunked kernel is validated against.
#[inline]
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Squared L2 norm `Σ xᵢ²` — dispatched chunked kernel (see [`dot`]).
/// The kern backend shares one implementation (and one tail helper)
/// between `dot` and `norm_sq`, so the two can never drift.
#[inline]
pub fn norm_sq(xs: &[f64]) -> f64 {
    simpim_kern::norm_sq(xs)
}

/// L2 norm.
#[inline]
pub fn norm(xs: &[f64]) -> f64 {
    norm_sq(xs).sqrt()
}

/// Sum of all elements.
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_constants() {
        let xs = [2.0, 2.0, 2.0, 2.0];
        assert_eq!(mean(&xs), 2.0);
        assert_eq!(std_dev(&xs), 0.0);
    }

    #[test]
    fn mean_and_std_known_values() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        // population variance of 1..4 is 1.25
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(norm_sq(&[]), 0.0);
    }

    #[test]
    fn dot_and_norms() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert_eq!(norm_sq(&a), 14.0);
        assert!((norm(&a) - 14.0f64.sqrt()).abs() < 1e-12);
    }

    /// Deterministic pseudo-random f64 in [-1, 1).
    fn prng(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    #[test]
    fn chunked_dot_exactly_matches_scalar_on_dyadic_inputs() {
        // Quarter-integer inputs: every product and every partial sum is
        // exactly representable, so reassociation cannot change the
        // result — chunked and scalar must agree bit for bit. Exhaustive
        // over every length through several 4-lane blocks plus tails.
        for len in 0usize..=67 {
            let a: Vec<f64> = (0..len)
                .map(|i| ((i * 7 + 3) % 17) as f64 * 0.25 - 2.0)
                .collect();
            let b: Vec<f64> = (0..len)
                .map(|i| ((i * 5 + 1) % 13) as f64 * 0.25 - 1.5)
                .collect();
            assert_eq!(dot(&a, &b), dot_scalar(&a, &b), "len={len}");
            assert_eq!(
                norm_sq(&a),
                a.iter().map(|&x| x * x).sum::<f64>(),
                "len={len}"
            );
        }
    }

    #[test]
    fn chunked_dot_is_ulp_close_to_scalar_on_general_inputs() {
        let mut state = 0x2545f4914f6cdd1du64;
        for len in 0usize..=130 {
            let a: Vec<f64> = (0..len).map(|_| prng(&mut state)).collect();
            let b: Vec<f64> = (0..len).map(|_| prng(&mut state)).collect();
            let magnitude: f64 = a.iter().zip(&b).map(|(&x, &y)| (x * y).abs()).sum();
            let diff = (dot(&a, &b) - dot_scalar(&a, &b)).abs();
            assert!(
                diff <= 1e-12 * (1.0 + magnitude),
                "len={len}: diff {diff} too large"
            );
        }
    }
}
