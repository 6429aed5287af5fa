//! The bound-stage abstraction shared by classic bounds, PIM-aware bounds
//! (`simpim-core`) and the execution planner.

use crate::cost::EvalCost;

/// Whether a stage bounds a distance from below or a similarity from above.
/// Either direction admits lossless pruning; the mining loop flips its
/// comparison accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundDirection {
    /// `bound(p,q) ≤ dist(p,q)` — prune when `bound ≥ threshold`.
    LowerBoundsDistance,
    /// `bound(p,q) ≥ sim(p,q)` — prune when `bound ≤ threshold`.
    UpperBoundsSimilarity,
}

/// A bound family prepared over a dataset (offline precomputation done),
/// ready to be specialized per query.
///
/// Implementations must be deterministic; their per-object transfer and
/// operation costs feed Eq. 13's plan optimizer. `Send + Sync` so prepared
/// cascades can be shared with the `simpim-par` refinement workers.
pub trait BoundStage: Send + Sync {
    /// Human-readable name matching the paper's notation, e.g.
    /// `"LB_FNN^105"`.
    fn name(&self) -> String;

    /// Bounding direction.
    fn direction(&self) -> BoundDirection;

    /// Reduced dimensionality `d′` this stage reads per object.
    fn d_prime(&self) -> usize;

    /// Bytes transferred from memory per bounded object — the `T_cost(Bᵢ)`
    /// unit of Eq. 13 (e.g. `d/64 · 8` bytes for `LB_FNN^{d/64}` on f64
    /// data).
    fn transfer_bytes_per_object(&self) -> u64;

    /// Operation cost of bounding one object.
    fn eval_cost(&self) -> EvalCost;

    /// Specializes the stage for one query, performing the per-query
    /// precomputation (segmenting the query, computing its norms, …).
    fn prepare(&self, query: &[f64]) -> Box<dyn PreparedBound + '_>;
}

/// A query-specialized bound evaluator. `Send + Sync` so the parallel
/// refinement walk can evaluate bounds from several workers at once (all
/// implementations are read-only over precomputed state).
pub trait PreparedBound: Send + Sync {
    /// The bound value for dataset object `i`.
    fn bound(&self, i: usize) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_is_copy_and_comparable() {
        let d = BoundDirection::LowerBoundsDistance;
        let e = d;
        assert_eq!(d, e);
        assert_ne!(d, BoundDirection::UpperBoundsSimilarity);
    }
}
