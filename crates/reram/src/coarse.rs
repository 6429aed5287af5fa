//! The coarse plane of a region: its stored operands shifted right to
//! 12-bit cells, the host simulation's first, cheap read of a coalesced
//! pass.
//!
//! Floors nest under a shift: a stored operand `p̄ = ⌊αp⌋` read as
//! `P = p̄ >> t` is `⌊αp / 2^t⌋`, the floor at a coarser α. Per operand
//! `p̄ + 1 ≤ 2^t (P + 1)`, and likewise for a query operand `q̄` and its
//! cell `Q`, so over a row of `s` operands
//!
//! ```text
//! Σ p̄q̄ + Σ p̄ + Σ q̄ + s = Σ (p̄ + 1)(q̄ + 1) ≤ 4^t · Σ (P + 1)(Q + 1)
//! ```
//!
//! and [`dot_bound`] — the right side minus the row's and the query's
//! operand sums and `s` — is an integer no smaller than the dot product
//! the fine pass computes. A lower bound that decreases in its dot term
//! (Theorem 1's) fed this integer stays a valid bound, never above the
//! fine one, as computed: rounding is monotone.
//!
//! A crossbar chunk's partial is bracketed the same way, per operand
//! `p̄ ∈ [2^t P, 2^t P + r]` with `r = 2^t − 1`: between `4^t S` and
//! `4^t S + 2^t r (Σ P + Σ Q) + r² m` for a chunk of `m`. That
//! is what keeps the modeled gather clock exact without a fine read of
//! every row.
//!
//! The shift is the region's: `t = widest_bits − 12` (saturating), so
//! the widest operand ever programmed fits a cell — `t = 8` for the
//! 20-bit floors of α = 10⁶. The bound's slack over the dot product,
//! `Σ (2^t(P + 1) · 2^t(Q + 1) − (p̄ + 1)(q̄ + 1))`, is below
//! `2^t Σ (2^t(P + 1) + q̄ + 1)`, about `2^t (Σ p̄ + Σ q̄)`: every bit a
//! cell keeps halves it, so 12-bit cells leave a sixteenth of the slack
//! of 8-bit ones, and far fewer rows whose coarse bound fails to rule
//! them out. A cell is held in a `u16`: the kernel
//! ([`simpim_kern::dot_multi_u12`]) multiplies 16-bit lanes either way,
//! so the wider cell costs no multiply, only the plane's bytes.
//!
//! A plane is kept only for regions that are read coarse, built at their
//! first such read (with room for the region's capacity) and kept in
//! step by every write after; a write that widens the region drops it,
//! and the next coarse read derives it again at the new shift.

/// Bits of a coarse cell.
pub(crate) const CELL_BITS: u32 = 12;
const _: () = assert!((1 << CELL_BITS) - 1 == simpim_kern::U12_MAX as u32);

/// The shift of a region whose widest stored operand is `widest_bits`
/// wide: the smallest that brings every operand into a cell.
pub(crate) fn shift(widest_bits: u32) -> u32 {
    widest_bits.saturating_sub(CELL_BITS)
}

/// Whether every sum of a coarse read of rows of `s` operands at shift
/// `t` stays below 2⁶³: a chunk or a row sums at most `s` products of
/// `(P + 1)(Q + 1) ≤ 2²⁴`, scaled by `4^t`. The domain of
/// [`dot_bound`] and [`chunk_bracket`], whose sums then cannot wrap.
pub(crate) fn fits(t: u32, s: usize) -> bool {
    let log_s = (s as u64)
        .saturating_add(1)
        .next_power_of_two()
        .trailing_zeros();
    2 * t + 2 * CELL_BITS + log_s <= 63
}

/// An integer no smaller than the dot product `Σ p̄ᵢ q̄ᵢ` of a row and a
/// query of `s` operands each, from their coarse dot `Σ PᵢQᵢ` at shift
/// `t`, and per side `[Σ P, Σ p̄]` — the sum of its cells and of its
/// operands: `4^t (Σ PQ + Σ P + Σ Q + s) − Σ p̄ − Σ q̄ − s` (see the
/// module docs). At `t = 0` it is the dot product itself. Plain integer
/// arithmetic, so a read vectorises it: the caller keeps
/// `2t + 24 + ⌈log₂(s + 1)⌉ ≤ 63`, where no sum can wrap (a region reads
/// coarse only then).
#[inline]
pub fn dot_bound(t: u32, coarse_dot: u64, row: [u64; 2], query: [u64; 2], s: usize) -> u64 {
    let s = s as u64;
    ((coarse_dot + row[0] + query[0] + s) << (2 * t)) - row[1] - query[1] - s
}

/// The bracket `[4^t S, 4^t S + 2^t r (ΣP + ΣQ) + r² m]` (`r = 2^t − 1`)
/// around the fine partial of a crossbar chunk of at most `m` operands
/// whose coarse partial is `S`, given the sums of the chunk's row cells
/// and query cells (or any bounds above them). Plain integer arithmetic
/// like [`dot_bound`]'s, under `fits(t, m)`.
#[inline]
pub(crate) fn chunk_bracket(t: u32, coarse: u64, cells: [u64; 2], m: usize) -> (u64, u64) {
    let r = (1u64 << t) - 1;
    let low = coarse << (2 * t);
    (low, low + (((cells[0] + cells[1]) << t) + r * m as u64) * r)
}

/// One row's sums beside its cells: `Σ P`, `Σ p̄`, and the largest
/// `Σ P` over the row's crossbar chunks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RowSums {
    pub(crate) cells: u64,
    pub(crate) operands: u64,
    pub(crate) chunk_cells: u64,
}

/// The sums of one row of operands, cut into chunks of `m`.
pub(crate) fn row_sums(row: &[u32], t: u32, m: usize) -> RowSums {
    let mut sums = RowSums::default();
    for chunk in row.chunks(m) {
        let cells: u64 = chunk.iter().map(|&v| u64::from(v >> t)).sum();
        sums.cells += cells;
        sums.chunk_cells = sums.chunk_cells.max(cells);
        sums.operands += chunk.iter().map(|&v| u64::from(v)).sum::<u64>();
    }
    sums
}

/// A region's coarse plane: `s` cells a row, and each of [`RowSums`]'
/// sums a row, side by side.
#[derive(Debug, Clone)]
pub(crate) struct Plane {
    pub(crate) shift: u32,
    pub(crate) cells: Vec<u16>,
    /// `Σ P`, `Σ p̄` and the largest chunk's `Σ P` of every row.
    pub(crate) sums: [Vec<u64>; 3],
}

impl Plane {
    /// The plane of the rows `data` (row-major, `s` operands each, every
    /// one below `2^(shift + 12)`), chunked by `m`, with room for
    /// `capacity` rows.
    pub(crate) fn new(shift: u32, data: &[u32], s: usize, m: usize, capacity: usize) -> Self {
        let mut plane = Self {
            shift,
            cells: Vec::with_capacity(capacity * s),
            sums: std::array::from_fn(|_| Vec::with_capacity(capacity)),
        };
        plane.write(0, data, s, m);
        plane
    }

    /// Writes the rows `flat` over rows `at..` of the plane, extending it
    /// past its end.
    pub(crate) fn write(&mut self, at: usize, flat: &[u32], s: usize, m: usize) {
        let end = at + flat.len() / s;
        self.cells.resize(self.cells.len().max(end * s), 0);
        for sums in &mut self.sums {
            sums.resize(sums.len().max(end), 0);
        }
        let t = self.shift;
        for (i, row) in flat.chunks_exact(s).enumerate() {
            for (cell, &v) in self.cells[(at + i) * s..][..s].iter_mut().zip(row) {
                *cell = (v >> t) as u16;
            }
            let sums = row_sums(row, t, m);
            let [cells, operands, chunk_cells] = &mut self.sums;
            (cells[at + i], operands[at + i]) = (sums.cells, sums.operands);
            chunk_cells[at + i] = sums.chunk_cells;
        }
    }

    /// Keeps the first `n` rows.
    pub(crate) fn truncate(&mut self, n: usize, s: usize) {
        self.cells.truncate(n * s);
        for sums in &mut self.sums {
            sums.truncate(n);
        }
    }

    /// Host bytes the plane holds.
    pub(crate) fn bytes(&self) -> usize {
        self.cells.len() * 2 + self.sums.iter().map(|v| v.len() * 8).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pair of operands up to 6 bits, at every shift up to 6 and
    /// for chunks of one to three operands (each operand pairing with
    /// every other through the offsets): [`dot_bound`] is at least the dot
    /// product and [`chunk_bracket`] contains it, and at shift 0 both are
    /// exact.
    #[test]
    fn the_coarse_bounds_hold_for_every_6_bit_pair_and_shift() {
        for t in 0..=6 {
            for d in 1..=3usize {
                for p0 in 0u32..64 {
                    for q0 in 0u32..64 {
                        let p: Vec<u32> = (0..d as u32).map(|i| (p0 + 17 * i) % 64).collect();
                        let q: Vec<u32> = (0..d as u32).map(|i| (q0 + 29 * i) % 64).collect();
                        let dot: u64 = p.iter().zip(&q).map(|(&a, &b)| u64::from(a * b)).sum();
                        let coarse: u64 = p
                            .iter()
                            .zip(&q)
                            .map(|(&a, &b)| u64::from((a >> t) * (b >> t)))
                            .sum();
                        let [rp, rq] = [&p, &q].map(|v| row_sums(v, t, d));
                        let bound = dot_bound(
                            t,
                            coarse,
                            [rp.cells, rp.operands],
                            [rq.cells, rq.operands],
                            d,
                        );
                        assert!(bound >= dot, "t={t} p={p:?} q={q:?}: {bound} < {dot}");
                        let (low, high) = chunk_bracket(t, coarse, [rp.cells, rq.cells], d);
                        assert!(low <= dot && dot <= high, "t={t} p={p:?} q={q:?}");
                        if t == 0 {
                            assert_eq!((bound, low, high), (dot, dot, dot));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_plane_tracks_writes_and_truncation() {
        let data: Vec<u32> = (0..12).map(|v| v * 1000).collect();
        let mut plane = Plane::new(4, &data, 3, 2, 6);
        assert_eq!(plane.cells.len(), 12);
        assert!(plane.cells.capacity() >= 18 && plane.sums[0].capacity() >= 6);
        assert_eq!(plane.cells[5], (5000u32 >> 4) as u16);
        plane.write(1, &[16, 32, 48], 3, 2);
        assert_eq!(&plane.cells[3..6], &[1, 2, 3]);
        assert_eq!(plane.sums.each_ref().map(|v| v[1]), [6, 96, 3]);
        plane.write(4, &[0, 0, 4095], 3, 2);
        assert_eq!((plane.cells.len(), plane.sums[2].len()), (15, 5));
        plane.truncate(2, 3);
        assert_eq!(plane.bytes(), 6 * 2 + 2 * 3 * 8);
    }

    /// `fits` at its boundary for 12-bit cells: at every shift the
    /// largest `s` it admits has `⌈log₂(s + 1)⌉ = 39 − 2t`, so
    /// `2t + 24 + ⌈log₂(s + 1)⌉` is exactly 63, one row operand or one
    /// step of shift more is refused, and the largest sum a read of
    /// those rows makes (`s` products of `(P + 1)(Q + 1) ≤ 2²⁴`, scaled
    /// by `4^t`) stays below 2⁶³.
    #[test]
    fn fits_holds_up_to_its_boundary() {
        for t in 0..=19u32 {
            let s = (1usize << (39 - 2 * t)) - 1;
            assert!(fits(t, s) && !fits(t, s + 1) && !fits(t + 1, s), "t={t}");
            assert!((s as u128) << (2 * CELL_BITS + 2 * t) < 1 << 63, "t={t}");
        }
        assert!(fits(19, 0) && !fits(20, 0));
        // The serving shape: 20-bit floors (t = 8) of 420 operands.
        assert!(fits(8, 420) && fits(15, 420) && !fits(16, 420));
    }
}
