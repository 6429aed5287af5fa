//! High-dimensional decomposition and the gather-crossbar reduction tree
//! (Fig. 3, Fig. 11, Eq. 11–12).
//!
//! A crossbar holds at most `m` dimensions, so an `s`-dimensional vector is
//! split over `⌈s/m⌉` *data crossbars*. Their partial sums are reduced by a
//! tree of *gather crossbars* programmed with the all-ones vector: level `i`
//! of the tree holds `⌈s/mⁱ⌉` crossbars, each summing up to `m` partials,
//! until one value remains.
//!
//! [`crossbar_cost_per_pair`] reproduces Eq. 11 (cost of one vector pair)
//! and [`dataset_crossbar_cost`] reproduces Eq. 12 (cost of a whole dataset,
//! with `m·h/b` objects packed per data-crossbar group) — the quantities
//! Theorem 4's memory manager optimizes over in `simpim-core`.

use crate::config::CrossbarConfig;
use crate::error::ReRamError;

/// Crossbar budget required by a layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossbarCost {
    /// Data crossbars (`n_data` in Theorem 4).
    pub data: usize,
    /// Gather crossbars (`n_gather` in Theorem 4); zero when `s ≤ m`.
    pub gather: usize,
    /// Depth of the gather tree in levels (0 when no gathering is needed).
    pub gather_depth: usize,
    /// Vector chunks per object (`⌈s/m⌉`).
    pub chunks_per_object: usize,
    /// Objects sharing one data-crossbar group (`⌊m·h/b⌋`).
    pub group_size: usize,
    /// Number of object groups (`⌈N / group_size⌉`).
    pub groups: usize,
    /// Vector slots stacked vertically per crossbar (`⌊m/s⌋`, only when
    /// `s ≤ m`; 1 otherwise). Queries drive one slot per pass.
    pub slots_per_crossbar: usize,
}

impl CrossbarCost {
    /// Total crossbars consumed.
    #[inline]
    pub fn total(&self) -> usize {
        self.data + self.gather
    }
}

/// Sizes of the gather-tree levels for reducing `partials` values by factor
/// `m` per level: `[⌈p/m⌉, ⌈p/m²⌉, …, 1]`. Empty when `partials ≤ 1`.
pub fn gather_levels(partials: usize, m: usize) -> Vec<usize> {
    assert!(m >= 2, "gather tree requires m >= 2");
    let mut levels = Vec::new();
    let mut p = partials;
    while p > 1 {
        p = p.div_ceil(m);
        levels.push(p);
    }
    levels
}

/// Eq. 11 — crossbars consumed by the dot product of **one** vector pair of
/// dimensionality `s` on `m×m` crossbars, in fractional crossbar units for
/// `s ≤ m` (a vector occupies `s/m` of one crossbar).
pub fn crossbar_cost_per_pair(s: usize, m: usize) -> f64 {
    assert!(s > 0 && m > 0);
    if s <= m {
        return s as f64 / m as f64;
    }
    let data = s.div_ceil(m);
    let gather: usize = gather_levels(data, m).iter().sum();
    (data + gather) as f64
}

/// Eq. 12 — integer-exact crossbar budget for programming `n` vectors of
/// dimensionality `s` with `b`-bit operands.
///
/// Layout mechanics (Theorem 4's proof):
/// * one operand spans `⌈b/h⌉` adjacent bitlines, so a data-crossbar group
///   serves `g = ⌊m·h/b⌋` objects concurrently;
/// * for `s ≤ m`, `⌊m/s⌋` vector slots stack vertically in one crossbar
///   (queried one slot per pass);
/// * for `s > m`, each group needs `⌈s/m⌉` data crossbars plus a gather
///   tree with `⌈s/mⁱ⌉` crossbars at level `i`.
pub fn dataset_crossbar_cost(
    n: usize,
    s: usize,
    operand_bits: u32,
    cfg: &CrossbarConfig,
) -> Result<CrossbarCost, ReRamError> {
    cfg.validate()?;
    if n == 0 || s == 0 {
        return Err(ReRamError::InvalidConfig {
            what: "n and s must be non-zero",
        });
    }
    let m = cfg.size;
    let group_size = cfg.operands_per_row(operand_bits);
    if group_size == 0 {
        return Err(ReRamError::GeometryViolation {
            what: "operand width (cells)",
            got: cfg.cells_per_operand(operand_bits),
            limit: m,
        });
    }
    let groups = n.div_ceil(group_size);
    if s <= m {
        let slots = m / s;
        let data = groups.div_ceil(slots);
        Ok(CrossbarCost {
            data,
            gather: 0,
            gather_depth: 0,
            chunks_per_object: 1,
            group_size,
            groups,
            slots_per_crossbar: slots,
        })
    } else {
        let chunks = s.div_ceil(m);
        let levels = gather_levels(chunks, m);
        let gather_per_group: usize = levels.iter().sum();
        Ok(CrossbarCost {
            data: groups * chunks,
            gather: groups * gather_per_group,
            gather_depth: levels.len(),
            chunks_per_object: chunks,
            group_size,
            groups,
            slots_per_crossbar: 1,
        })
    }
}

/// The paper's closed-form `n_data = N·b·s / (m²·h)` (Theorem 4), kept for
/// documentation and cross-checked against the integer-exact layout in
/// tests. Returns a fractional crossbar count.
pub fn paper_ndata_closed_form(n: usize, s: usize, operand_bits: u32, cfg: &CrossbarConfig) -> f64 {
    (n as f64) * f64::from(operand_bits) * (s as f64)
        / ((cfg.size * cfg.size) as f64 * f64::from(cfg.cell_bits))
}

/// Functional gather-tree reduction used by the unit-level model and its
/// tests: reduces `partials` through simulated all-ones crossbars, `m`
/// values per crossbar per level, returning the final sum. Accumulation is
/// full-precision; callers wrap to the accumulator width.
pub fn reduce_through_tree(partials: &[u128], m: usize) -> u128 {
    assert!(m >= 2);
    let mut layer: Vec<u128> = partials.to_vec();
    while layer.len() > 1 {
        layer = layer.chunks(m).map(|c| c.iter().sum()).collect();
    }
    layer.first().copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(m: usize, h: u32) -> CrossbarConfig {
        CrossbarConfig {
            size: m,
            cell_bits: h,
            dac_bits: 2,
            adc_bits: 32,
            ..Default::default()
        }
    }

    #[test]
    fn gather_levels_match_fig11() {
        // Fig. 11: s = 8, m = 2 → data 4, then levels 2, 1.
        assert_eq!(gather_levels(4, 2), vec![2, 1]);
        // s ≤ m ⇒ no gathering.
        assert_eq!(gather_levels(1, 4), Vec::<usize>::new());
        assert_eq!(gather_levels(16, 4), vec![4, 1]);
        assert_eq!(gather_levels(17, 4), vec![5, 2, 1]);
    }

    #[test]
    fn per_pair_cost_matches_eq11() {
        // s ≤ m: fractional s/m.
        assert!((crossbar_cost_per_pair(8, 256) - 8.0 / 256.0).abs() < 1e-12);
        // Fig. 11 example: s = 8, m = 2 → 4 data + 2 + 1 gather = 7.
        assert_eq!(crossbar_cost_per_pair(8, 2), 7.0);
    }

    #[test]
    fn dataset_cost_small_s_packs_slots() {
        // m = 256, h = 2, b = 32 → group 16 objects; s = 64 → 4 slots.
        let c = dataset_crossbar_cost(1000, 64, 32, &cfg(256, 2)).unwrap();
        assert_eq!(c.group_size, 16);
        assert_eq!(c.groups, 63); // ceil(1000/16)
        assert_eq!(c.slots_per_crossbar, 4);
        assert_eq!(c.data, 16); // ceil(63/4)
        assert_eq!(c.gather, 0);
        assert_eq!(c.total(), 16);
    }

    #[test]
    fn dataset_cost_large_s_needs_gather() {
        // s = 1024 on m = 256 → 4 chunks per object; gather levels: [1].
        let c = dataset_crossbar_cost(100, 1024, 32, &cfg(256, 2)).unwrap();
        assert_eq!(c.chunks_per_object, 4);
        assert_eq!(c.gather_depth, 1);
        assert_eq!(c.groups, 7); // ceil(100/16)
        assert_eq!(c.data, 28);
        assert_eq!(c.gather, 7);
    }

    #[test]
    fn integer_cost_tracks_paper_closed_form() {
        // On exact multiples the integer layout matches N·b·s/(m²·h).
        let xb = cfg(256, 2);
        let (n, s, b) = (4096usize, 128usize, 32u32);
        let c = dataset_crossbar_cost(n, s, b, &xb).unwrap();
        let closed = paper_ndata_closed_form(n, s, b, &xb);
        assert_eq!(c.data as f64, closed);
    }

    #[test]
    fn wide_operand_rejected() {
        // b = 32 on h = 1, m = 16 → 32 cells per operand > 16 columns.
        let xb = cfg(16, 1);
        assert!(dataset_crossbar_cost(10, 8, 32, &xb).is_err());
    }

    #[test]
    fn zero_inputs_rejected() {
        let xb = cfg(256, 2);
        assert!(dataset_crossbar_cost(0, 8, 32, &xb).is_err());
        assert!(dataset_crossbar_cost(8, 0, 32, &xb).is_err());
    }

    #[test]
    fn tree_reduction_is_exact_sum() {
        let partials: Vec<u128> = (1..=100u128).collect();
        assert_eq!(reduce_through_tree(&partials, 4), 5050);
        assert_eq!(reduce_through_tree(&partials, 2), 5050);
        assert_eq!(reduce_through_tree(&[], 2), 0);
        assert_eq!(reduce_through_tree(&[42], 2), 42);
    }
}
