//! PIM-aware bound computation (Section V-B).
//!
//! ReRAM crossbars multiply **non-negative integers**, so a floating-point
//! similarity cannot be computed exactly in-memory. The paper's remedy:
//! normalize to `[0,1]`, scale by α, truncate (Eq. 5–6), and derive bounds
//! whose only online vector operation is an *integer* dot product:
//!
//! * **Theorem 1** — `LB_PIM-ED(p,q) = (Φ(p̄) + Φ(q̄) − 2·⌊p̄⌋·⌊q̄⌋ − 2d)/α²
//!   ≤ ED(p,q)` with `Φ(p̄) = Σ p̄ᵢ² − 2 Σ ⌊p̄ᵢ⌋`.
//! * **Theorem 2** — `LB_PIM-FNN` applies the same floor trick to the
//!   segment-mean and segment-σ vectors of `LB_FNN`.
//! * **Theorem 3** — the quantization error is bounded by
//!   `4d/α + 2d/α²`, so large α makes the bounds tight (the paper uses
//!   α = 10⁶).
//!
//! The analogous *upper* bounds for cosine similarity and PCC (deferred by
//! the paper to its technical report \[36\]) use
//! `p̄ᵢq̄ᵢ ≤ (⌊p̄ᵢ⌋+1)(⌊q̄ᵢ⌋+1)`; Hamming distance needs no bound at all —
//! binary codes are already integers and PIM computes it exactly
//! (Table 4).
//!
//! All bounds here are pure math over quantized summaries; the
//! [`crate::executor`] wires them to actual crossbar batches.

use simpim_similarity::{QuantizedVec, Quantizer, SegmentStats, SimilarityError};

/// Quantized form of one vector for `LB_PIM-ED`: the floors `⌊p̄⌋` (the
/// crossbar operand) and the precomputed scalar `Φ(p̄)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EdQuant {
    /// `⌊p̄ᵢ⌋` — programmed on (or streamed to) crossbars.
    pub floors: Vec<u32>,
    /// `Φ(p̄) = Σ p̄ᵢ² − 2 Σ ⌊p̄ᵢ⌋`.
    pub phi: f64,
}

impl EdQuant {
    /// Builds the ED summary from a quantized vector.
    pub fn from_quantized(qv: QuantizedVec) -> Self {
        let phi = qv.stats.sum_sq_scaled - 2.0 * qv.stats.sum_floor as f64;
        Self {
            floors: qv.floors,
            phi,
        }
    }
}

/// Theorem 1: `LB_PIM-ED` from the precomputed Φ's and the PIM dot product
/// of the floor vectors. The result is clamped at 0 (a negative lower
/// bound of a squared distance carries no extra information).
pub fn lb_pim_ed(phi_p: f64, phi_q: f64, dot_floors: u64, d: usize, alpha: f64) -> f64 {
    lb_pim_ed_guarded(phi_p, phi_q, dot_floors, d, alpha, 0.0)
}

/// Theorem 3: upper bound on `ED − LB_PIM-ED`, namely `4d/α + 2d/α²`.
pub fn error_bound_ed(d: usize, alpha: f64) -> f64 {
    4.0 * d as f64 / alpha + 2.0 * d as f64 / (alpha * alpha)
}

/// Guard-banded Theorem 1 for non-ideal crossbars (see
/// `simpim-reram::variation`): the analog dot product may deviate from the
/// exact integer value by up to `dot_error`; since `LB_PIM-ED` is
/// decreasing in the dot term, inflating the measured value by the
/// envelope keeps the result a valid lower bound — accuracy is preserved,
/// only pruning power shrinks. The one body of the bound: [`lb_pim_ed`] is
/// this at a zero envelope (`x as f64 + 0.0` is `x as f64` bit for bit).
pub fn lb_pim_ed_guarded(
    phi_p: f64,
    phi_q: f64,
    dot_measured: u64,
    d: usize,
    alpha: f64,
    dot_error: f64,
) -> f64 {
    assert!(dot_error >= 0.0, "error envelope must be non-negative");
    let raw = (phi_p + phi_q - 2.0 * (dot_measured as f64 + dot_error) - 2.0 * d as f64)
        / (alpha * alpha);
    raw.max(0.0)
}

/// Quantized form of one vector for `LB_PIM-FNN`: floors of the scaled
/// segment means and segment standard deviations, plus `Φ(p̂)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FnnQuant {
    /// `⌊µ(p̂ᵢ)⌋` over the α-scaled segments — first PIM region.
    pub mu_floors: Vec<u32>,
    /// `⌊σ(p̂ᵢ)⌋` over the α-scaled segments — second PIM region.
    pub sigma_floors: Vec<u32>,
    /// `Φ(p̂) = Σ µ̄ᵢ² + Σ σ̄ᵢ² − 2 Σ ⌊µ̄ᵢ⌋ − 2 Σ ⌊σ̄ᵢ⌋`.
    pub phi: f64,
    /// Segment length `l = d / d′`.
    pub segment_len: usize,
}

impl FnnQuant {
    /// Computes the summary for one **normalized** (values in `[0,1]`)
    /// vector at `d_prime` segments with scaling factor α.
    pub fn compute(
        normalized: &[f64],
        d_prime: usize,
        alpha: f64,
    ) -> Result<Self, SimilarityError> {
        let seg = SegmentStats::compute(normalized, d_prime)?;
        Ok(Self::from_segments(&seg, alpha))
    }

    /// Builds the summary from precomputed segment statistics of a
    /// normalized vector.
    pub fn from_segments(seg: &SegmentStats, alpha: f64) -> Self {
        let d_prime = seg.num_segments();
        let mut mu_floors = Vec::with_capacity(d_prime);
        let mut sigma_floors = Vec::with_capacity(d_prime);
        let mut phi = 0.0;
        let mut floor_sum = 0u64;
        for i in 0..d_prime {
            let mu_bar = seg.means[i] * alpha;
            let sg_bar = seg.stds[i] * alpha;
            let mf = mu_bar as u32;
            let sf = sg_bar as u32;
            phi += mu_bar * mu_bar + sg_bar * sg_bar;
            floor_sum += u64::from(mf) + u64::from(sf);
            mu_floors.push(mf);
            sigma_floors.push(sf);
        }
        phi -= 2.0 * floor_sum as f64;
        Self {
            mu_floors,
            sigma_floors,
            phi,
            segment_len: seg.segment_len,
        }
    }
}

/// Theorem 2: `LB_PIM-FNN` from the precomputed Φ's and the two PIM dot
/// products (floor-mean · floor-mean, floor-σ · floor-σ). Clamped at 0.
pub fn lb_pim_fnn(
    phi_p: f64,
    phi_q: f64,
    dot_mu: u64,
    dot_sigma: u64,
    d_prime: usize,
    segment_len: usize,
    alpha: f64,
) -> f64 {
    lb_pim_fnn_guarded(
        phi_p,
        phi_q,
        dot_mu,
        dot_sigma,
        d_prime,
        segment_len,
        alpha,
        0.0,
        0.0,
    )
}

/// Upper bound on `LB_FNN − LB_PIM-FNN`: each of the `2d′` quantized
/// product terms errs by at most `2(x̄ + ȳ + 1) ≤ 2(2α + 1)`, giving
/// `8d/α + 4d/α²` after the `l/α²` scaling.
pub fn error_bound_fnn(d: usize, alpha: f64) -> f64 {
    8.0 * d as f64 / alpha + 4.0 * d as f64 / (alpha * alpha)
}

/// Guard-banded Theorem 2 for drifted crossbars (see
/// `simpim-reram::faults`): the two measured dot products may each deviate
/// from their exact values by up to `mu_error` / `sigma_error`; since
/// `LB_PIM-FNN` decreases in both dot terms, inflating the measured values
/// by their envelopes keeps the result a valid lower bound.
#[allow(clippy::too_many_arguments)] // mirrors lb_pim_fnn + the two fault envelopes
pub fn lb_pim_fnn_guarded(
    phi_p: f64,
    phi_q: f64,
    dot_mu: u64,
    dot_sigma: u64,
    d_prime: usize,
    segment_len: usize,
    alpha: f64,
    mu_error: f64,
    sigma_error: f64,
) -> f64 {
    assert!(
        mu_error >= 0.0 && sigma_error >= 0.0,
        "error envelopes must be non-negative"
    );
    let raw = (segment_len as f64 / (alpha * alpha))
        * (phi_p + phi_q
            - 2.0 * (dot_mu as f64 + mu_error)
            - 2.0 * (dot_sigma as f64 + sigma_error)
            - 4.0 * d_prime as f64);
    raw.max(0.0)
}

/// Quantized form of one vector for `LB_PIM-SM`: floors of the scaled
/// segment means plus `Φ`. This mean-only sibling of [`FnnQuant`] needs
/// only **one** crossbar region, so it fits budgets where the µ/σ pair
/// cannot — the paper's technical report \[36\] defers it; the derivation is
/// Theorem 1 applied to the segment-mean vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct SmQuant {
    /// `⌊µ(p̂ᵢ)⌋` over the α-scaled segments — the PIM region.
    pub mu_floors: Vec<u32>,
    /// `Φ(p̂) = Σ µ̄ᵢ² − 2 Σ ⌊µ̄ᵢ⌋`.
    pub phi: f64,
    /// Segment length `l = d / d′`.
    pub segment_len: usize,
}

impl SmQuant {
    /// Computes the summary for one normalized vector at `d_prime`
    /// segments with scaling factor α.
    pub fn compute(
        normalized: &[f64],
        d_prime: usize,
        alpha: f64,
    ) -> Result<Self, SimilarityError> {
        let seg = SegmentStats::compute(normalized, d_prime)?;
        let mut mu_floors = Vec::with_capacity(d_prime);
        let mut phi = 0.0;
        let mut floor_sum = 0u64;
        for &m in &seg.means {
            let mu_bar = m * alpha;
            let mf = mu_bar as u32;
            phi += mu_bar * mu_bar;
            floor_sum += u64::from(mf);
            mu_floors.push(mf);
        }
        phi -= 2.0 * floor_sum as f64;
        Ok(Self {
            mu_floors,
            phi,
            segment_len: seg.segment_len,
        })
    }
}

/// `LB_PIM-SM`: Theorem 1 applied to the segment-mean vectors, scaled by
/// the segment length (`LB_PIM-SM ≤ LB_SM ≤ ED`). Clamped at 0.
pub fn lb_pim_sm(
    phi_p: f64,
    phi_q: f64,
    dot_mu: u64,
    d_prime: usize,
    segment_len: usize,
    alpha: f64,
) -> f64 {
    lb_pim_sm_guarded(phi_p, phi_q, dot_mu, d_prime, segment_len, alpha, 0.0)
}

/// Upper bound on `LB_SM − LB_PIM-SM`: `4d/α + 2d/α²` (half the FNN
/// envelope — only the mean terms quantize).
pub fn error_bound_sm(d: usize, alpha: f64) -> f64 {
    4.0 * d as f64 / alpha + 2.0 * d as f64 / (alpha * alpha)
}

/// Guard-banded `LB_PIM-SM` for drifted crossbars: inflates the measured
/// mean dot product by `mu_error` before applying the bound (valid for the
/// same monotonicity reason as [`lb_pim_ed_guarded`]).
pub fn lb_pim_sm_guarded(
    phi_p: f64,
    phi_q: f64,
    dot_mu: u64,
    d_prime: usize,
    segment_len: usize,
    alpha: f64,
    mu_error: f64,
) -> f64 {
    assert!(mu_error >= 0.0, "error envelope must be non-negative");
    let raw = (segment_len as f64 / (alpha * alpha))
        * (phi_p + phi_q - 2.0 * (dot_mu as f64 + mu_error) - 2.0 * d_prime as f64);
    raw.max(0.0)
}

/// Quantized summary for the CS/PCC upper bounds: floors plus the exact
/// scaled norms/sums (computable offline).
#[derive(Debug, Clone, PartialEq)]
pub struct DotQuant {
    /// `⌊p̄ᵢ⌋` — the crossbar operand.
    pub floors: Vec<u32>,
    /// `Σ ⌊p̄ᵢ⌋`.
    pub sum_floor: u64,
    /// `‖p̄‖ = √(Σ p̄ᵢ²)` (exact, scaled).
    pub norm_scaled: f64,
    /// `Σ p̄ᵢ` (exact, scaled).
    pub sum_scaled: f64,
}

impl DotQuant {
    /// Builds the dot-product summary from a quantized vector.
    pub fn from_quantized(qv: QuantizedVec) -> Self {
        Self {
            sum_floor: qv.stats.sum_floor,
            norm_scaled: qv.stats.sum_sq_scaled.max(0.0).sqrt(),
            sum_scaled: qv.stats.sum_scaled,
            floors: qv.floors,
        }
    }
}

/// Upper bound on the scaled dot product `Σ p̄ᵢq̄ᵢ` from the PIM floor dot
/// product: `⌊p̄⌋·⌊q̄⌋ + Σ⌊p̄ᵢ⌋ + Σ⌊q̄ᵢ⌋ + d`.
pub fn ub_scaled_dot(dot_floors: u64, sum_floor_p: u64, sum_floor_q: u64, d: usize) -> f64 {
    (dot_floors + sum_floor_p + sum_floor_q + d as u64) as f64
}

/// Upper bound on cosine similarity (normalization cancels α):
/// `UB_PIM-CS = ub_scaled_dot / (‖p̄‖·‖q̄‖)`, clamped into `[0, 1]`
/// (cosine of non-negative vectors is itself in `[0, 1]`).
pub fn ub_pim_cs(p: &DotQuant, q: &DotQuant, dot_floors: u64, d: usize) -> f64 {
    let denom = p.norm_scaled * q.norm_scaled;
    if denom == 0.0 {
        return 0.0; // zero vector ⇒ similarity defined as 0
    }
    (ub_scaled_dot(dot_floors, p.sum_floor, q.sum_floor, d) / denom).min(1.0)
}

/// Upper bound on the Pearson correlation coefficient (PCC is invariant to
/// the positive scaling by α, so the scaled statistics give the exact
/// denominator):
/// `UB_PIM-PCC = (d·ub_scaled_dot − Σp̄·Σq̄) / (Φa(p̄)·Φa(q̄))`, clamped to
/// ≤ 1.
pub fn ub_pim_pcc(p: &DotQuant, q: &DotQuant, dot_floors: u64, d: usize) -> f64 {
    let phi_a = |x: &DotQuant| {
        (d as f64 * x.norm_scaled * x.norm_scaled - x.sum_scaled * x.sum_scaled)
            .max(0.0)
            .sqrt()
    };
    let denom = phi_a(p) * phi_a(q);
    if denom == 0.0 {
        return 0.0; // constant vector ⇒ PCC defined as 0
    }
    let num = d as f64 * ub_scaled_dot(dot_floors, p.sum_floor, q.sum_floor, d)
        - p.sum_scaled * q.sum_scaled;
    (num / denom).min(1.0)
}

/// Convenience: quantize one normalized vector for the ED bound.
pub fn quantize_for_ed(
    quantizer: &Quantizer,
    normalized: &[f64],
) -> Result<EdQuant, SimilarityError> {
    Ok(EdQuant::from_quantized(quantizer.quantize_vec(normalized)?))
}

/// Convenience: quantize one normalized vector for the CS/PCC bounds.
pub fn quantize_for_dot(
    quantizer: &Quantizer,
    normalized: &[f64],
) -> Result<DotQuant, SimilarityError> {
    Ok(DotQuant::from_quantized(
        quantizer.quantize_vec(normalized)?,
    ))
}

/// Integer dot product of two floor vectors — the operation PIM executes,
/// on the kernel the simulated array itself uses, keeping the low 64 bits
/// like the array's `U64` accumulator. Used host-side by the planner's
/// offline pruning-ratio measurement ("it is practical to conduct on
/// traditional architectures at offline stage", Section V-D) and by the
/// exact fallback for quarantined objects.
pub fn host_floor_dot(p: &[u32], q: &[u32]) -> u64 {
    simpim_reram::dot_u32(p, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simpim_similarity::measures::{cosine, euclidean_sq, pearson};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5157_11ED)
    }

    fn random_unit_vec(rng: &mut StdRng, d: usize) -> Vec<f64> {
        (0..d).map(|_| rng.gen_range(0.0..=1.0)).collect()
    }

    #[test]
    fn theorem1_lower_bounds_ed() {
        let mut rng = rng();
        for &alpha in &[10.0, 100.0, 1e4, 1e6] {
            let quant = Quantizer::identity(alpha).unwrap();
            for _ in 0..50 {
                let d = rng.gen_range(1..64);
                let p = random_unit_vec(&mut rng, d);
                let q = random_unit_vec(&mut rng, d);
                let pq = quantize_for_ed(&quant, &p).unwrap();
                let qq = quantize_for_ed(&quant, &q).unwrap();
                let dot = host_floor_dot(&pq.floors, &qq.floors);
                let lb = lb_pim_ed(pq.phi, qq.phi, dot, d, alpha);
                let ed = euclidean_sq(&p, &q);
                assert!(lb <= ed + 1e-9, "alpha={alpha} d={d}: {lb} > {ed}");
            }
        }
    }

    #[test]
    fn theorem3_error_bound_holds() {
        let mut rng = rng();
        for &alpha in &[10.0, 1000.0, 1e6] {
            let quant = Quantizer::identity(alpha).unwrap();
            for _ in 0..50 {
                let d = rng.gen_range(1..64);
                let p = random_unit_vec(&mut rng, d);
                let q = random_unit_vec(&mut rng, d);
                let pq = quantize_for_ed(&quant, &p).unwrap();
                let qq = quantize_for_ed(&quant, &q).unwrap();
                let dot = host_floor_dot(&pq.floors, &qq.floors);
                let lb = lb_pim_ed(pq.phi, qq.phi, dot, d, alpha);
                let ed = euclidean_sq(&p, &q);
                assert!(ed - lb <= error_bound_ed(d, alpha) + 1e-9);
            }
        }
    }

    #[test]
    fn large_alpha_tightens_the_bound() {
        let p: Vec<f64> = (0..32).map(|i| (i as f64) / 31.0).collect();
        let q: Vec<f64> = (0..32).map(|i| ((31 - i) as f64) / 31.0).collect();
        let ed = euclidean_sq(&p, &q);
        let mut prev_gap = f64::INFINITY;
        for &alpha in &[10.0, 100.0, 1000.0, 1e5] {
            let quant = Quantizer::identity(alpha).unwrap();
            let pq = quantize_for_ed(&quant, &p).unwrap();
            let qq = quantize_for_ed(&quant, &q).unwrap();
            let dot = host_floor_dot(&pq.floors, &qq.floors);
            let gap = ed - lb_pim_ed(pq.phi, qq.phi, dot, 32, alpha);
            assert!(gap <= prev_gap + 1e-9, "gap must shrink with alpha");
            prev_gap = gap;
        }
        assert!(prev_gap < 0.01);
    }

    #[test]
    fn fig9_worked_example() {
        // Fig. 9: p = [.5532, .9742, .7375, .6557], q = [.9259, .6644,
        // .8077, .8613], α = 1000 → LB ≈ 0.273 < ED ≈ 0.282.
        let p = [0.5532, 0.9742, 0.7375, 0.6557];
        let q = [0.9259, 0.6644, 0.8077, 0.8613];
        let quant = Quantizer::identity(1000.0).unwrap();
        let pq = quantize_for_ed(&quant, &p).unwrap();
        let qq = quantize_for_ed(&quant, &q).unwrap();
        assert_eq!(pq.floors, vec![553, 974, 737, 655]);
        assert_eq!(qq.floors, vec![925, 664, 807, 861]);
        let dot = host_floor_dot(&pq.floors, &qq.floors);
        let lb = lb_pim_ed(pq.phi, qq.phi, dot, 4, 1000.0);
        let ed = euclidean_sq(&p, &q);
        assert!((ed - 0.2819).abs() < 1e-3);
        assert!(lb < ed);
        assert!((lb - 0.273).abs() < 5e-3, "lb={lb}");
    }

    #[test]
    fn theorem2_chain_pim_fnn_le_fnn_le_ed() {
        let mut rng = rng();
        for &alpha in &[100.0, 1e4, 1e6] {
            for _ in 0..40 {
                let d_prime = rng.gen_range(1..8usize);
                let l = rng.gen_range(1..6usize);
                let d = d_prime * l;
                let p = random_unit_vec(&mut rng, d);
                let q = random_unit_vec(&mut rng, d);
                let fp = FnnQuant::compute(&p, d_prime, alpha).unwrap();
                let fq = FnnQuant::compute(&q, d_prime, alpha).unwrap();
                let dm = host_floor_dot(&fp.mu_floors, &fq.mu_floors);
                let ds = host_floor_dot(&fp.sigma_floors, &fq.sigma_floors);
                let lb_pim = lb_pim_fnn(fp.phi, fq.phi, dm, ds, d_prime, l, alpha);

                // Exact LB_FNN on the same data.
                let sp = SegmentStats::compute(&p, d_prime).unwrap();
                let sq = SegmentStats::compute(&q, d_prime).unwrap();
                let lb_fnn: f64 = (0..d_prime)
                    .map(|i| {
                        let dmv = sp.means[i] - sq.means[i];
                        let dsv = sp.stds[i] - sq.stds[i];
                        l as f64 * (dmv * dmv + dsv * dsv)
                    })
                    .sum();
                let ed = euclidean_sq(&p, &q);
                assert!(lb_pim <= lb_fnn + 1e-9, "PIM-FNN must lower-bound FNN");
                assert!(lb_fnn <= ed + 1e-9, "FNN must lower-bound ED");
                assert!(lb_fnn - lb_pim <= error_bound_fnn(d, alpha) + 1e-9);
            }
        }
    }

    #[test]
    fn sm_chain_pim_sm_le_sm_le_ed() {
        let mut rng = rng();
        for &alpha in &[100.0, 1e4, 1e6] {
            for _ in 0..40 {
                let d_prime = rng.gen_range(1..8usize);
                let l = rng.gen_range(1..6usize);
                let d = d_prime * l;
                let p = random_unit_vec(&mut rng, d);
                let q = random_unit_vec(&mut rng, d);
                let sp = SmQuant::compute(&p, d_prime, alpha).unwrap();
                let sq = SmQuant::compute(&q, d_prime, alpha).unwrap();
                let dot = host_floor_dot(&sp.mu_floors, &sq.mu_floors);
                let lb_pim = lb_pim_sm(sp.phi, sq.phi, dot, d_prime, l, alpha);

                let segp = SegmentStats::compute(&p, d_prime).unwrap();
                let segq = SegmentStats::compute(&q, d_prime).unwrap();
                let lb_sm: f64 = (0..d_prime)
                    .map(|i| {
                        let dm = segp.means[i] - segq.means[i];
                        l as f64 * dm * dm
                    })
                    .sum();
                assert!(lb_pim <= lb_sm + 1e-9, "PIM-SM must lower-bound SM");
                assert!(lb_sm <= euclidean_sq(&p, &q) + 1e-9);
                assert!(lb_sm - lb_pim <= error_bound_sm(d, alpha) + 1e-9);
            }
        }
    }

    #[test]
    fn sm_is_weaker_than_fnn_at_same_segmentation() {
        let quantizer_alpha = 1e6;
        let p: Vec<f64> = (0..16).map(|i| (i % 4) as f64 / 4.0).collect();
        let q = vec![0.375; 16]; // same segment means as p, different spread
        let sp = SmQuant::compute(&p, 4, quantizer_alpha).unwrap();
        let sq = SmQuant::compute(&q, 4, quantizer_alpha).unwrap();
        let sm = lb_pim_sm(
            sp.phi,
            sq.phi,
            host_floor_dot(&sp.mu_floors, &sq.mu_floors),
            4,
            4,
            quantizer_alpha,
        );
        let fp = FnnQuant::compute(&p, 4, quantizer_alpha).unwrap();
        let fq = FnnQuant::compute(&q, 4, quantizer_alpha).unwrap();
        let fnn = lb_pim_fnn(
            fp.phi,
            fq.phi,
            host_floor_dot(&fp.mu_floors, &fq.mu_floors),
            host_floor_dot(&fp.sigma_floors, &fq.sigma_floors),
            4,
            4,
            quantizer_alpha,
        );
        assert!(sm < 1e-6, "mean-only bound is blind to spread: {sm}");
        assert!(fnn > 0.1, "σ term sees the spread: {fnn}");
    }

    #[test]
    fn cs_and_pcc_upper_bounds_hold() {
        let mut rng = rng();
        for &alpha in &[100.0, 1e4, 1e6] {
            let quant = Quantizer::identity(alpha).unwrap();
            for _ in 0..50 {
                let d = rng.gen_range(2..48usize);
                let p = random_unit_vec(&mut rng, d);
                let q = random_unit_vec(&mut rng, d);
                let pq = quantize_for_dot(&quant, &p).unwrap();
                let qq = quantize_for_dot(&quant, &q).unwrap();
                let dot = host_floor_dot(&pq.floors, &qq.floors);
                let ub_cs = ub_pim_cs(&pq, &qq, dot, d);
                let ub_pcc = ub_pim_pcc(&pq, &qq, dot, d);
                assert!(ub_cs >= cosine(&p, &q) - 1e-9, "CS d={d}");
                assert!(ub_pcc >= pearson(&p, &q) - 1e-9, "PCC d={d}");
                assert!(ub_cs <= 1.0 + 1e-12);
                assert!(ub_pcc <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn degenerate_vectors_are_safe() {
        let quant = Quantizer::identity(1000.0).unwrap();
        let zero = [0.0, 0.0, 0.0];
        let constant = [0.5, 0.5, 0.5];
        let zq = quantize_for_dot(&quant, &zero).unwrap();
        let cq = quantize_for_dot(&quant, &constant).unwrap();
        let dot = host_floor_dot(&zq.floors, &cq.floors);
        assert_eq!(ub_pim_cs(&zq, &cq, dot, 3), 0.0);
        assert_eq!(
            ub_pim_pcc(&cq, &cq, host_floor_dot(&cq.floors, &cq.floors), 3),
            0.0
        );
    }

    #[test]
    fn lb_clamps_negative_to_zero() {
        // Identical vectors: the raw Theorem 1 expression dips below zero
        // (−2d term); the clamp keeps it a valid LB of ED = 0.
        let quant = Quantizer::identity(1000.0).unwrap();
        let p = [0.25, 0.75];
        let pq = quantize_for_ed(&quant, &p).unwrap();
        let dot = host_floor_dot(&pq.floors, &pq.floors);
        let lb = lb_pim_ed(pq.phi, pq.phi, dot, 2, 1000.0);
        assert_eq!(lb, 0.0);
    }

    #[test]
    fn guarded_bound_survives_analog_variation() {
        // An analog read returns the floor dot product off by at most an
        // error envelope (simpim-reram's unit tests hold its noisy crossbar
        // inside `max_relative · dot + ADC rounding`). Whatever the drift
        // inside the envelope, up or down, the guard-banded Theorem 1 must
        // stay a valid lower bound of the exact distance.
        let alpha = 100.0;
        let quant = Quantizer::identity(alpha).unwrap();
        let p = [0.31, 0.87, 0.52, 0.09];
        let q = [0.66, 0.14, 0.93, 0.41];
        let pq = quantize_for_ed(&quant, &p).unwrap();
        let qq = quantize_for_ed(&quant, &q).unwrap();
        let ed = euclidean_sq(&p, &q);
        let exact_dot = host_floor_dot(&pq.floors, &qq.floors);

        for envelope in [0.0, 0.5, 3.0, 0.05 * exact_dot as f64 + 10.5, 1e3] {
            let reach = envelope as u64;
            for measured in exact_dot.saturating_sub(reach)..=exact_dot + reach {
                let guarded = lb_pim_ed_guarded(pq.phi, qq.phi, measured, 4, alpha, envelope);
                assert!(
                    guarded <= ed + 1e-9,
                    "envelope {envelope}, dot {measured} (exact {exact_dot}): guarded {guarded} > ED {ed}"
                );
            }
        }
    }

    #[test]
    fn guarded_fnn_and_sm_stay_valid_under_dot_error() {
        let mut rng = rng();
        let alpha = 1e4;
        for _ in 0..40 {
            let d_prime = rng.gen_range(1..8usize);
            let l = rng.gen_range(1..6usize);
            let d = d_prime * l;
            let p = random_unit_vec(&mut rng, d);
            let q = random_unit_vec(&mut rng, d);
            let ed = euclidean_sq(&p, &q);

            let fp = FnnQuant::compute(&p, d_prime, alpha).unwrap();
            let fq = FnnQuant::compute(&q, d_prime, alpha).unwrap();
            let dm = host_floor_dot(&fp.mu_floors, &fq.mu_floors);
            let ds = host_floor_dot(&fp.sigma_floors, &fq.sigma_floors);
            let sp = SmQuant::compute(&p, d_prime, alpha).unwrap();
            let sq = SmQuant::compute(&q, d_prime, alpha).unwrap();
            let dsm = host_floor_dot(&sp.mu_floors, &sq.mu_floors);

            // Any drift that shrinks the measured dot within the envelope
            // must leave the guarded bound below the exact distance.
            for err in [0u64, 3, 17, 101] {
                let drift_mu = dm.saturating_sub(err);
                let drift_sigma = ds.saturating_sub(err);
                let g = lb_pim_fnn_guarded(
                    fp.phi,
                    fq.phi,
                    drift_mu,
                    drift_sigma,
                    d_prime,
                    l,
                    alpha,
                    err as f64,
                    err as f64,
                );
                assert!(g <= ed + 1e-9, "FNN guarded {g} > ED {ed} (err={err})");

                let gs = lb_pim_sm_guarded(
                    sp.phi,
                    sq.phi,
                    dsm.saturating_sub(err),
                    d_prime,
                    l,
                    alpha,
                    err as f64,
                );
                assert!(gs <= ed + 1e-9, "SM guarded {gs} > ED {ed} (err={err})");
            }
            // Zero envelope reduces to the plain bounds — written out
            // here as Theorems 1–2 state them, without the envelope term,
            // and compared by bits: the plain functions are the guarded
            // bodies at 0.0.
            let quant = Quantizer::identity(alpha).unwrap();
            let ep = quantize_for_ed(&quant, &p).unwrap();
            let eq = quantize_for_ed(&quant, &q).unwrap();
            let de = host_floor_dot(&ep.floors, &eq.floors);
            let scale = l as f64 / (alpha * alpha);
            let plain_ed = (ep.phi + eq.phi - 2.0 * de as f64 - 2.0 * d as f64) / (alpha * alpha);
            let plain_fnn = scale
                * (fp.phi + fq.phi - 2.0 * dm as f64 - 2.0 * ds as f64 - 4.0 * d_prime as f64);
            let plain_sm = scale * (sp.phi + sq.phi - 2.0 * dsm as f64 - 2.0 * d_prime as f64);
            for (what, plain, zero_envelope, front) in [
                (
                    "ED",
                    plain_ed,
                    lb_pim_ed_guarded(ep.phi, eq.phi, de, d, alpha, 0.0),
                    lb_pim_ed(ep.phi, eq.phi, de, d, alpha),
                ),
                (
                    "FNN",
                    plain_fnn,
                    lb_pim_fnn_guarded(fp.phi, fq.phi, dm, ds, d_prime, l, alpha, 0.0, 0.0),
                    lb_pim_fnn(fp.phi, fq.phi, dm, ds, d_prime, l, alpha),
                ),
                (
                    "SM",
                    plain_sm,
                    lb_pim_sm_guarded(sp.phi, sq.phi, dsm, d_prime, l, alpha, 0.0),
                    lb_pim_sm(sp.phi, sq.phi, dsm, d_prime, l, alpha),
                ),
            ] {
                assert_eq!(zero_envelope.to_bits(), plain.max(0.0).to_bits(), "{what}");
                assert_eq!(front.to_bits(), plain.max(0.0).to_bits(), "{what}");
            }
        }
    }

    /// Theorem 1 fed the coarse plane's dot bound
    /// (`simpim_reram::coarse::dot_bound`) for every pair of 6-bit floors
    /// (α = 64), each value at its floor and just below the next, in rows
    /// of one to three dimensions (every pair in every position through
    /// the offsets), at every shift up to 6: computed coarse ≤ computed
    /// fine ≤ the computed squared distance, and at shift 0 coarse = fine.
    #[test]
    fn the_coarse_bound_is_below_the_fine_one_as_computed() {
        use simpim_reram::coarse::dot_bound;
        let alpha = 64.0;
        let quantizer = Quantizer::identity(alpha).unwrap();
        for d in 1..=3usize {
            for (p0, q0) in (0u32..64).flat_map(|p| (0u32..64).map(move |q| (p, q))) {
                for (pf, qf) in [(0.0, 0.0), (0.0, 0.999), (0.999, 0.0), (0.999, 0.999)] {
                    let value = |first: u32, step: u32, frac: f64| -> Vec<f64> {
                        let floor = |i: u32| f64::from((first + step * i) % 64);
                        (0..d as u32).map(|i| (floor(i) + frac) / alpha).collect()
                    };
                    let (p, q) = (value(p0, 17, pf), value(q0, 29, qf));
                    let [ep, eq] = [&p, &q]
                        .map(|v| EdQuant::from_quantized(quantizer.quantize_vec(v).unwrap()));
                    let pairs = || ep.floors.iter().zip(&eq.floors);
                    let dot: u64 = pairs().map(|(&a, &b)| u64::from(a * b)).sum();
                    let fine = lb_pim_ed(ep.phi, eq.phi, dot, d, alpha);
                    let exact = euclidean_sq(&p, &q);
                    assert!(fine <= exact, "{p:?} {q:?}: fine {fine} above {exact}");
                    for t in 0..=6 {
                        let coarse_dot =
                            pairs().map(|(&a, &b)| u64::from((a >> t) * (b >> t))).sum();
                        let sums = |f: &[u32]| -> [u64; 2] {
                            let cells = f.iter().map(|&v| u64::from(v >> t)).sum();
                            [cells, f.iter().map(|&v| u64::from(v)).sum()]
                        };
                        let bound = dot_bound(t, coarse_dot, sums(&ep.floors), sums(&eq.floors), d);
                        let coarse = lb_pim_ed(ep.phi, eq.phi, bound, d, alpha);
                        assert!(coarse <= fine, "t={t} {p:?} {q:?}: {coarse} above {fine}");
                        if t == 0 {
                            assert_eq!(coarse.to_bits(), fine.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn error_bounds_are_monotone_in_alpha() {
        assert!(error_bound_ed(100, 1e6) < error_bound_ed(100, 1e3));
        assert!(error_bound_fnn(100, 1e6) < error_bound_fnn(100, 1e3));
        // Paper's setting: α = 1e6, d = 420 (MSD) → error < 0.002.
        assert!(error_bound_ed(420, 1e6) < 2e-3);
    }
}
