//! Portable chunked reference kernels.
//!
//! These are the workspace's canonical distance kernels, moved here from
//! `simpim-similarity` so that one implementation serves as both the
//! universal fallback backend and the ground truth every SIMD backend is
//! proven bit-identical against. The accumulation layout is fixed:
//! [`LANES`] (4) independent lanes over 4-element blocks, lanes folded as
//! `(l0 + l1) + (l2 + l3)`, then the ragged tail folded serially in
//! element order through the single [`fold_tail`] helper. A SIMD backend
//! reproduces exactly this sequence of IEEE-754 operations per lane, so
//! its results are bit-identical — not merely ULP-close. (Sole caveat:
//! NaN *payloads* are outside the contract — Rust documents NaN bit
//! patterns as non-deterministic, so a reduction over several distinct
//! NaNs guarantees NaN ⇔ NaN, not which payload wins.) The integer
//! kernels — the popcount MACs, [`dot_u32`], [`dot_multi_f64`],
//! [`dot_multi_u12`] and [`cell_bound_multi`] — need
//! no such layout: wrapping integer sums, and integer `f64` sums that
//! never round, are the same in any order. Nor do the threshold scans of
//! a bound column, [`mask_kept`] and [`first_not_worse`]: they only
//! compare, by the one rule [`worse`].

/// Independent accumulator lanes of the chunked kernels. Four lanes break
/// the loop-carried add dependency and map one-to-one onto a 4×f64 AVX2
/// register.
pub const LANES: usize = 4;

/// Folds the ragged tail (the `len % LANES` elements past the last full
/// block) into `acc` serially, in element order: `acc += f(aᵢ, bᵢ)`.
///
/// Both the scalar and the SIMD backends finish through this one helper,
/// so the tail arithmetic has a single source of truth.
#[inline]
pub fn fold_tail(mut acc: f64, a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> f64 {
    for (&x, &y) in a.iter().zip(b) {
        acc += f(x, y);
    }
    acc
}

/// The shared 4-lane chunked reduction: `Σ f(aᵢ, bᵢ)` with the fixed
/// lane/fold/tail order described in the module docs.
#[inline]
fn chunked(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        for (lane, (&x, &y)) in lanes.iter_mut().zip(pa.iter().zip(pb)) {
            *lane += f(x, y);
        }
    }
    let acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    fold_tail(acc, ca.remainder(), cb.remainder(), f)
}

/// Dot product `Σ aᵢ·bᵢ` — chunked kernel.
///
/// # Panics
/// Panics in debug builds when the lengths differ; callers validate
/// dimensionality at container boundaries.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    chunked(a, b, |x, y| x * y)
}

/// Squared L2 norm `Σ xᵢ²` — chunked kernel. Identical arithmetic to
/// [`dot`]`(xs, xs)`, so the two share one implementation (and one tail).
#[inline]
pub fn norm_sq(xs: &[f64]) -> f64 {
    chunked(xs, xs, |x, y| x * y)
}

/// Squared Euclidean distance `Σ (pᵢ − qᵢ)²` — chunked kernel.
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn euclidean_sq(p: &[f64], q: &[f64]) -> f64 {
    chunked(p, q, |x, y| {
        let d = x - y;
        d * d
    })
}

/// 4-element blocks between two abandon tests of [`euclidean_sq_until`]:
/// often enough to drop a hopeless candidate an eighth of the way into a
/// 960-dimensional row, rarely enough that the extra fold is noise.
pub const UNTIL_BLOCKS: usize = 16;

/// [`euclidean_sq`] that gives up early: `Some(euclidean_sq(p, q))`, to
/// the bit, unless that is above `limit`, and then `None` — as soon as a
/// fold of the lanes every [`UNTIL_BLOCKS`] blocks shows it. Squares are
/// never negative and IEEE addition is monotone, so a partial fold above
/// `limit` proves the finished sum is too; the lanes themselves run
/// untouched, which is why a finished sum is the canonical one. (A NaN
/// distance is above nothing: it comes back as `Some`, unless the fold had
/// already passed `limit` before the NaN operand was reached.)
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn euclidean_sq_until(p: &[f64], q: &[f64], limit: f64) -> Option<f64> {
    debug_assert_eq!(p.len(), q.len());
    let sq = |x: f64, y: f64| {
        let d = x - y;
        d * d
    };
    let mut lanes = [0.0f64; LANES];
    let mut acc = 0.0;
    let mut tail: (&[f64], &[f64]) = (&[], &[]);
    let stride = LANES * UNTIL_BLOCKS;
    for (ps, qs) in p.chunks(stride).zip(q.chunks(stride)) {
        let mut cp = ps.chunks_exact(LANES);
        let mut cq = qs.chunks_exact(LANES);
        for (bp, bq) in cp.by_ref().zip(cq.by_ref()) {
            for (lane, (&x, &y)) in lanes.iter_mut().zip(bp.iter().zip(bq)) {
                *lane += sq(x, y);
            }
        }
        acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        if acc > limit {
            return None;
        }
        // Only the last, ragged stride leaves elements past its blocks.
        tail = (cp.remainder(), cq.remainder());
    }
    let total = fold_tail(acc, tail.0, tail.1, sq);
    if total > limit {
        None
    } else {
        Some(total)
    }
}

/// Fused single pass returning `(Σ aᵢ·bᵢ, Σ aᵢ²)`.
///
/// Each component accumulates in its own 4-lane set with the same
/// per-lane operation order as the unfused kernels, so the pair is
/// bit-identical to `(dot(a, b), norm_sq(a))` while streaming `a` once.
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn dot_norm_sq(a: &[f64], b: &[f64]) -> (f64, f64) {
    debug_assert_eq!(a.len(), b.len());
    let mut dl = [0.0f64; LANES];
    let mut nl = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        for j in 0..LANES {
            dl[j] += pa[j] * pb[j];
            nl[j] += pa[j] * pa[j];
        }
    }
    let d = fold_tail(
        (dl[0] + dl[1]) + (dl[2] + dl[3]),
        ca.remainder(),
        cb.remainder(),
        |x, y| x * y,
    );
    let n = fold_tail(
        (nl[0] + nl[1]) + (nl[2] + nl[3]),
        ca.remainder(),
        ca.remainder(),
        |x, y| x * y,
    );
    (d, n)
}

/// Hamming MAC `Σ popcount(aᵢ XOR bᵢ)` over packed u64 words. Exact
/// integer counting — every backend is trivially bit-identical.
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u64::from((x ^ y).count_ones()))
        .sum()
}

/// Bit-serial MAC `Σ popcount(aᵢ AND bᵢ)` over packed u64 words — the
/// crossbar's one-cycle row/column coincidence count.
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u64::from((x & y).count_ones()))
        .sum()
}

/// Exact integer MAC `Σ aᵢ·bᵢ` of `u32` operands, summed modulo 2⁶⁴ —
/// the crossbar pass's multiply-accumulate. Each product fits a `u64`
/// and wrapping addition is associative, so every backend returns the
/// same integer whatever its lane layout. The sum is the true dot
/// product whenever that is below 2⁶⁴; callers that need it exact keep
/// `len · max(a) · max(b)` under that (see `simpim-reram`'s
/// `PimArray::dot_batch`).
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn dot_u32(a: &[u32], b: &[u32]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(0u64, |acc, (&x, &y)| {
        acc.wrapping_add(u64::from(x) * u64::from(y))
    })
}

/// Most queries one [`dot_multi_f64`] call multiplies a row with: eight
/// `f64` accumulator registers is what one AVX2 register file keeps busy
/// beside the row and the query loads.
pub const MULTI_QUERIES: usize = 8;

/// Exact integer MACs of one stored `row` with up to [`MULTI_QUERIES`]
/// queries, in `f64` — the shared read of a crossbar pass. The row is cut
/// into segments of `seg` operands (one per crossbar); for query `j` of
/// `Q = qs.len()`, `out[j]` receives the whole dot product
/// `Σ rowᵢ · qs[j]ᵢ` and `out[Q + j]` the largest of its segments' sums
/// (0 for an empty row). Only the first `min` of the slice lengths count.
///
/// Every query holds integers (a `u32` converted once per pass). The
/// results are the exact integers whenever every row operand is below
/// 2³¹ and `2^(b + i) · len ≤ 2⁵³` for `b`-bit row operands, `i`-bit
/// query values and `len` operands: then each product and every partial
/// sum is an integer below 2⁵³, which an `f64` holds exactly, so nothing
/// rounds, in any summation order, with or without a fused multiply-add.
/// The caller keeps that bound (see `simpim-reram`'s
/// `PimArray::read`); under it every tier returns the values
/// of one `dot_u32` per query and segment.
///
/// # Panics
/// Panics when `seg` is 0, when `qs` holds more than [`MULTI_QUERIES`]
/// queries, or when `out` is shorter than `2 · Q`.
pub fn dot_multi_f64(row: &[u32], qs: &[&[f64]], seg: usize, out: &mut [f64]) {
    assert!(
        seg > 0 && qs.len() <= MULTI_QUERIES,
        "segments of 1+ operands, 8 queries at most"
    );
    let len = qs.iter().fold(row.len(), |len, q| len.min(q.len()));
    let (total, top) = out[..2 * qs.len()].split_at_mut(qs.len());
    for (j, q) in qs.iter().enumerate() {
        (total[j], top[j]) = (0.0, 0.0);
        for start in (0..len).step_by(seg) {
            let end = (start + seg).min(len);
            let sum: f64 = row[start..end]
                .iter()
                .zip(&q[start..end])
                .map(|(&r, &x)| f64::from(r) * x)
                .sum();
            total[j] += sum;
            top[j] = top[j].max(sum);
        }
    }
}

/// The largest cell [`dot_multi_u12`] multiplies: 12 bits.
pub const U12_MAX: u16 = (1 << 12) - 1;

/// The queries of a coarse read, prepared once for every block of rows
/// [`dot_multi_u12`] multiplies them with: up to [`MULTI_QUERIES`] queries
/// of `dim` cells each, every cell the `i16` a `vpmaddwd` takes, query by
/// query, each query starting on a 32-byte boundary so that a step's load
/// never straddles two cache lines. Every cell is at most [`U12_MAX`],
/// the range each tier's sums are exact for.
#[derive(Debug, Clone)]
pub struct U12Queries {
    steps: Vec<Step>,
    dim: usize,
    len: usize,
}

/// Sixteen cells: one aligned 32-byte load.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct Step([i16; 16]);

impl U12Queries {
    /// The block of the queries `qs`, `dim` cells each.
    ///
    /// # Panics
    /// Panics when `dim` is 0, when `qs` holds more than
    /// [`MULTI_QUERIES`] queries or one that is not `dim` cells, or when
    /// a cell is above [`U12_MAX`].
    pub fn new(dim: usize, qs: &[&[u16]]) -> Self {
        assert!(
            dim > 0 && qs.len() <= MULTI_QUERIES,
            "queries of 1+ cells, 8 queries at most"
        );
        assert!(qs.iter().all(|x| x.len() == dim), "queries of dim cells");
        let stride = dim.div_ceil(16);
        let mut steps = vec![Step::default(); qs.len() * stride];
        for (x, steps) in qs.iter().zip(steps.chunks_mut(stride)) {
            for (cells, step) in x.chunks(16).zip(steps) {
                for (wide, &v) in step.0.iter_mut().zip(cells) {
                    assert!(v <= U12_MAX, "12-bit cells");
                    *wide = v as i16;
                }
            }
        }
        Self {
            steps,
            dim,
            len: qs.len(),
        }
    }

    /// Queries in the block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no query.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cells a query.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Query `j`'s cells; they start 32-byte aligned.
    ///
    /// # Panics
    /// Panics when the block holds no query `j`.
    pub(crate) fn query(&self, j: usize) -> &[i16] {
        let stride = self.dim.div_ceil(16);
        let steps = &self.steps[j * stride..][..stride];
        // SAFETY: a `Step` is sixteen `i16`s with no padding (`repr(C)`,
        // 32 bytes at an alignment of 32), so the `stride` steps are a run
        // of at least `dim` initialised `i16`s, borrowed as long as `self`.
        unsafe { std::slice::from_raw_parts(steps.as_ptr().cast::<i16>(), self.dim) }
    }
}

/// Products a `u32` sums exactly: 256 · 4 095² < 2³².
const U12_CHUNK: usize = 256;
const _: () = assert!(U12_CHUNK as u64 * (U12_MAX as u64).pow(2) < 1 << 32);

/// The coarse crossbar pass's MACs: [`dot_multi_f64`]'s outputs for a
/// block of `n` stored rows of 12-bit plane cells (each at most
/// [`U12_MAX`]), `s = qs.dim()` cells a row, against the prepared queries
/// `qs`, in integers, query by query: for row `r` and query `j` of
/// `Q = qs.len()`, `out[n·j + r]` receives `Σ rowᵢ · qs[j]ᵢ` and
/// `out[n·(Q + j)+ r]` the largest of its `seg`-cell segments' sums. A
/// block of rows a call, and queries that the caller prepared once for
/// all of its blocks: a call pays for its MACs, and each query's values
/// come out side by side. Exact for any row a `u64` can address, and so
/// the same integers on every tier. A row cell above [`U12_MAX`] is
/// outside the contract: the sums are then unspecified (and a debug
/// build panics).
///
/// # Panics
/// Panics when `seg` is 0, when `rows` is not whole rows, or when `out`
/// is shorter than `2Q` values a row.
pub fn dot_multi_u12(rows: &[u16], qs: &U12Queries, seg: usize, out: &mut [u64]) {
    let (q, s) = check_multi_u12(rows, qs, seg, out);
    let n = rows.len() / s;
    for (r, row) in rows.chunks_exact(s).enumerate() {
        for j in 0..q {
            let (mut total, mut top) = (0, 0);
            for (r, x) in row.chunks(seg).zip(qs.query(j).chunks(seg)) {
                // A `u32` sum a chunk, added up in `u64`. Cells of 12 bits
                // multiply as `i16`s into `i32` products, summed modulo
                // 2³² below 2³²: the pattern of `pmaddwd`, which the loop
                // vectorises to.
                let chunks = r.chunks(U12_CHUNK).zip(x.chunks(U12_CHUNK));
                let sum: u64 = chunks
                    .map(|(r, x)| {
                        let products = r.iter().zip(x).map(|(&a, &b)| a as i16 as i32 * b as i32);
                        u64::from(products.fold(0u32, |sum, p| sum.wrapping_add(p as u32)))
                    })
                    .sum();
                total += sum;
                top = top.max(sum);
            }
            (out[n * j + r], out[n * (q + j) + r]) = (total, top);
        }
    }
}

/// The argument check every tier's [`dot_multi_u12`] runs first; returns
/// the query count and the cells a row.
pub(crate) fn check_multi_u12(
    rows: &[u16],
    qs: &U12Queries,
    seg: usize,
    out: &[u64],
) -> (usize, usize) {
    let s = qs.dim();
    assert!(
        seg > 0 && rows.len().is_multiple_of(s),
        "whole rows, segments of 1+ cells"
    );
    assert!(
        out.len() >= rows.len() / s * 2 * qs.len(),
        "two outputs a row and query"
    );
    debug_assert!(rows.iter().all(|&v| v <= U12_MAX), "12-bit row cells");
    (qs.len(), s)
}

/// The cell-plane bound sums of one stored `row` of `u8` cells with up
/// to [`MULTI_QUERIES`] queries' cells: `out[j] = Σ max(|rowᵢ − qs[j]ᵢ| − 1, 0)²`
/// over the first `min` of the slice lengths. A cell is an 8-bit floor of
/// a value, so neighbouring cells may hold values as close as zero and a
/// gap of `g` cells proves at least `g − 1` cells of distance (the
/// serving shard's host cell plane, DESIGN.md §9). Integer sums, so every
/// tier returns the same integers; each term is at most 254², so the
/// sums are exact for any row a `u64` can address.
///
/// # Panics
/// Panics when `qs` holds more than [`MULTI_QUERIES`] queries, or when
/// `out` is shorter than `qs`.
pub fn cell_bound_multi(row: &[u8], qs: &[&[u8]], out: &mut [u64]) {
    assert!(qs.len() <= MULTI_QUERIES, "8 queries at most");
    let len = qs.iter().fold(row.len(), |len, q| len.min(q.len()));
    let gap_sq = |(&r, &x): (&u8, &u8)| u32::from(r.abs_diff(x).saturating_sub(1)).pow(2);
    for (sum, q) in out[..qs.len()].iter_mut().zip(qs) {
        // 2¹⁵ terms of at most 254² stay below 2³²: a `u32` sum a chunk,
        // which vectorises, added up in `u64`.
        let chunks = row[..len].chunks(1 << 15).zip(q[..len].chunks(1 << 15));
        *sum = chunks
            .map(|(r, q)| u64::from(r.iter().zip(q).map(gap_sq).sum::<u32>()))
            .sum();
    }
}

/// Whether bound `a` ranks strictly after bound `b` — above it when
/// smaller is `closer`, below it otherwise — by value alone. A NaN on
/// either side is never worse, and neither is a tie. Without a branch, so
/// that a scan of a column vectorises.
#[inline]
pub fn worse(a: f64, b: f64, closer: bool) -> bool {
    (closer & (a > b)) | (!closer & (a < b))
}

/// The threshold masks of a bound column, 64 bounds a word: bit `b` of
/// `out[c]` is set iff `col[64c + b]` is not [`worse`] than `cut` and, given
/// a `floor`, is worse than it. So a NaN bound is kept unless a floor asks
/// it to be worse, and a NaN `cut` keeps every bound. The bits of a last,
/// partial word past the column are clear. Exact compares only, so every
/// tier sets the same bits.
///
/// # Panics
/// Panics when `out` holds fewer than `col.len().div_ceil(64)` words.
pub fn mask_kept(col: &[f64], cut: f64, floor: Option<f64>, closer: bool, out: &mut [u64]) {
    let out = &mut out[..col.len().div_ceil(64)];
    match floor {
        None => masks(col, out, |v| !worse(v, cut, closer)),
        Some(floor) => masks(col, out, |v| {
            !worse(v, cut, closer) & worse(v, floor, closer)
        }),
    }
}

/// One word of `keep`'s bits per 64 bounds, built without a branch.
#[inline]
fn masks(col: &[f64], out: &mut [u64], keep: impl Fn(f64) -> bool) {
    let mask = |block: &[f64]| {
        (block.iter().enumerate()).fold(0u64, |m, (b, &v)| m | u64::from(keep(v)) << b)
    };
    for (word, block) in out.iter_mut().zip(col.chunks(64)) {
        // A whole block of 64 is a loop of known length, which vectorises.
        *word = match <&[f64; 64]>::try_from(block) {
            Ok(block) => mask(block),
            Err(_) => mask(block),
        };
    }
}

/// Bounds a chunk of [`first_not_worse`] holds.
pub const SKIP_CHUNK: usize = 8;

/// The first chunk `c ≥ from` of [`SKIP_CHUNK`] bounds of `col` (the last
/// one may be shorter) that holds a bound not [`worse`] than `cut`, or the
/// chunk count when no chunk from `from` on does (`from` itself when it is
/// past them). A chunk that holds a NaN or a tie with `cut` is never passed
/// over, and a NaN `cut` passes over nothing.
pub fn first_not_worse(col: &[f64], from: usize, cut: f64, closer: bool) -> usize {
    let all_worse =
        |chunk: &[f64]| (chunk.iter()).fold(true, |all, &v| all & worse(v, cut, closer));
    from + col
        .chunks(SKIP_CHUNK)
        .skip(from)
        .take_while(|c| all_worse(c))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_u32_is_the_wrapping_sum_of_products() {
        assert_eq!(dot_u32(&[], &[]), 0);
        assert_eq!(dot_u32(&[1, 2, 3], &[4, 5, 6]), 32);
        let max = u64::from(u32::MAX) * u64::from(u32::MAX);
        assert_eq!(dot_u32(&[u32::MAX], &[u32::MAX]), max);
        // Two maximal products overflow a u64 by exactly one carry.
        assert_eq!(
            dot_u32(&[u32::MAX; 2], &[u32::MAX; 2]),
            max.wrapping_add(max)
        );
    }

    #[test]
    fn dot_and_norms_small() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert_eq!(norm_sq(&a), 14.0);
        assert_eq!(euclidean_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(norm_sq(&[]), 0.0);
    }

    #[test]
    fn fused_matches_unfused_bitwise() {
        for len in 0usize..=4 * LANES + 3 {
            let a: Vec<f64> = (0..len).map(|i| ((i * 7 + 3) % 17) as f64 * 0.33).collect();
            let b: Vec<f64> = (0..len).map(|i| ((i * 5 + 1) % 13) as f64 * 0.71).collect();
            let (d, n) = dot_norm_sq(&a, &b);
            assert_eq!(d.to_bits(), dot(&a, &b).to_bits(), "len={len}");
            assert_eq!(n.to_bits(), norm_sq(&a).to_bits(), "len={len}");
        }
    }

    #[test]
    fn popcounts_match_direct_loop() {
        let a = [0xdeadbeefdeadbeefu64, u64::MAX, 0, 1, 0x5555_5555_5555_5555];
        let b = [0xfeedfacefeedfaceu64, 0, u64::MAX, 3, 0xaaaa_aaaa_aaaa_aaaa];
        let xor: u64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| u64::from((x ^ y).count_ones()))
            .sum();
        let and: u64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| u64::from((x & y).count_ones()))
            .sum();
        assert_eq!(xor_popcount(&a, &b), xor);
        assert_eq!(and_popcount(&a, &b), and);
        assert_eq!(xor_popcount(&[], &[]), 0);
    }
}
