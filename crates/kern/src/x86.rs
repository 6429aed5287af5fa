//! The x86_64 backend: AVX2 (4×f64 / 4×u64 per register). It is the
//! one hand-written tier; an x86_64 CPU without AVX2 runs the portable
//! [`crate::scalar`] kernels.
//!
//! Bit-identity with [`crate::scalar`] holds because every kernel keeps
//! the scalar layout's 4 accumulator lanes, performs the identical
//! per-lane IEEE-754 operations (`mul` then `add` — **never** FMA, whose
//! single rounding would diverge), folds the lanes in the same
//! `(l0 + l1) + (l2 + l3)` order, and finishes the ragged tail through
//! the shared [`scalar::fold_tail`] helper. Packed `mulpd`/`addpd`/
//! `subpd` have exactly the scalar instructions' per-lane semantics;
//! Rust never enables FTZ/DAZ, so subnormals round identically too. The
//! popcount MACs are exact integer counting and trivially identical, and
//! so is `dot_u32`: full `u64` products (`pmuludq`) summed modulo 2⁶⁴,
//! which no lane layout or fold order can change. The one kernel that
//! uses FMA, AVX2's `dot_multi_f64`, is exact for another reason: it
//! multiplies and adds integers below 2⁵³, which round to themselves.
//!
//! One deliberate carve-out: when several distinct NaNs collide in one
//! reduction, *which* payload survives depends on operand order, and
//! Rust/LLVM document NaN bit patterns as non-deterministic (`fmul`/
//! `fadd` may be commuted differently for scalar vs packed codegen). The
//! contract is therefore NaN ⇔ NaN, with exact bits for every non-NaN
//! result — which covers all real distance data.
//!
//! # Safety
//! Every function here is `#[target_feature]`-gated and `unsafe`: the
//! dispatcher in `lib.rs` installs a function only after
//! `is_x86_feature_detected!` confirmed the feature at startup.

#![cfg(target_arch = "x86_64")]

use crate::scalar::{self, fold_tail, U8Queries, MULTI_QUERIES};

/// AVX2 kernels: one ymm register holds all four accumulator lanes.
pub mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Dot product with the 4-lane layout in one ymm accumulator.
    ///
    /// # Safety
    /// Requires AVX2 (detected at dispatch time).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let blocks = a.len() / 4;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_pd();
        for i in 0..blocks {
            let va = _mm256_loadu_pd(pa.add(4 * i));
            let vb = _mm256_loadu_pd(pb.add(4 * i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
        }
        fold4(acc, &a[4 * blocks..], &b[4 * blocks..], |x, y| x * y)
    }

    /// Squared L2 norm: [`dot`] with both operands the same slice.
    ///
    /// # Safety
    /// Requires AVX2 (detected at dispatch time).
    #[target_feature(enable = "avx2")]
    pub unsafe fn norm_sq(xs: &[f64]) -> f64 {
        dot(xs, xs)
    }

    /// Squared Euclidean distance: per-lane `sub`, `mul`, `add`.
    ///
    /// # Safety
    /// Requires AVX2 (detected at dispatch time).
    #[target_feature(enable = "avx2")]
    pub unsafe fn euclidean_sq(p: &[f64], q: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), q.len());
        let blocks = p.len() / 4;
        let (pp, pq) = (p.as_ptr(), q.as_ptr());
        let mut acc = _mm256_setzero_pd();
        for i in 0..blocks {
            let d = _mm256_sub_pd(
                _mm256_loadu_pd(pp.add(4 * i)),
                _mm256_loadu_pd(pq.add(4 * i)),
            );
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
        }
        fold4(acc, &p[4 * blocks..], &q[4 * blocks..], |x, y| {
            let d = x - y;
            d * d
        })
    }

    /// [`euclidean_sq`] that abandons above `limit`
    /// ([`scalar::euclidean_sq_until`]): the same accumulator, folded on
    /// the side after every [`scalar::UNTIL_BLOCKS`] blocks — `hadd` makes
    /// the in-pair sums `l0 + l1` and `l2 + l3`, one scalar add the rest.
    ///
    /// # Safety
    /// Requires AVX2 (detected at dispatch time).
    #[target_feature(enable = "avx2")]
    pub unsafe fn euclidean_sq_until(p: &[f64], q: &[f64], limit: f64) -> Option<f64> {
        debug_assert_eq!(p.len(), q.len());
        let blocks = p.len().min(q.len()) / 4;
        let (pp, pq) = (p.as_ptr(), q.as_ptr());
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < blocks {
            let end = (i + scalar::UNTIL_BLOCKS).min(blocks);
            while i < end {
                // SAFETY: `4 * i + 3 < 4 * blocks`, inside both slices;
                // `loadu` has no alignment need.
                let d = _mm256_sub_pd(
                    _mm256_loadu_pd(pp.add(4 * i)),
                    _mm256_loadu_pd(pq.add(4 * i)),
                );
                acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
                i += 1;
            }
            let pairs = _mm256_hadd_pd(acc, acc);
            let part = _mm_add_sd(
                _mm256_castpd256_pd128(pairs),
                _mm256_extractf128_pd::<1>(pairs),
            );
            if _mm_cvtsd_f64(part) > limit {
                return None;
            }
        }
        let total = fold4(acc, &p[4 * blocks..], &q[4 * blocks..], |x, y| {
            let d = x - y;
            d * d
        });
        if total > limit {
            None
        } else {
            Some(total)
        }
    }

    /// Fused `(dot(a, b), norm_sq(a))`: two ymm accumulators, one pass.
    ///
    /// # Safety
    /// Requires AVX2 (detected at dispatch time).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_norm_sq(a: &[f64], b: &[f64]) -> (f64, f64) {
        debug_assert_eq!(a.len(), b.len());
        let blocks = a.len() / 4;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut accd = _mm256_setzero_pd();
        let mut accn = _mm256_setzero_pd();
        for i in 0..blocks {
            let va = _mm256_loadu_pd(pa.add(4 * i));
            let vb = _mm256_loadu_pd(pb.add(4 * i));
            accd = _mm256_add_pd(accd, _mm256_mul_pd(va, vb));
            accn = _mm256_add_pd(accn, _mm256_mul_pd(va, va));
        }
        let ta = &a[4 * blocks..];
        let tb = &b[4 * blocks..];
        (
            fold4(accd, ta, tb, |x, y| x * y),
            fold4(accn, ta, ta, |x, y| x * y),
        )
    }

    /// Spills the ymm lanes and finishes with the canonical fold + tail.
    #[inline(always)]
    unsafe fn fold4(acc: __m256d, ta: &[f64], tb: &[f64], f: impl Fn(f64, f64) -> f64) -> f64 {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        fold_tail((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]), ta, tb, f)
    }

    /// Exact `u32` MAC `Σ aᵢ·bᵢ` modulo 2⁶⁴: `vpmuludq` multiplies the
    /// even `u32` of every 64-bit lane into a full `u64` product, a
    /// 32-bit right shift exposes the odd ones, so eight operands cost
    /// two multiplies; two accumulators per parity keep the adds off one
    /// dependency chain.
    ///
    /// # Safety
    /// Requires AVX2 (detected at dispatch time).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_u32(a: &[u32], b: &[u32]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let len = a.len().min(b.len());
        let blocks = len / 16;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut even0 = _mm256_setzero_si256();
        let mut odd0 = _mm256_setzero_si256();
        let mut even1 = _mm256_setzero_si256();
        let mut odd1 = _mm256_setzero_si256();
        for i in 0..blocks {
            // SAFETY: `16 * i + 15 < len`, so both 8-element loads of
            // either slice stay in bounds; `loadu` has no alignment need.
            let va0 = _mm256_loadu_si256(pa.add(16 * i).cast());
            let vb0 = _mm256_loadu_si256(pb.add(16 * i).cast());
            let va1 = _mm256_loadu_si256(pa.add(16 * i + 8).cast());
            let vb1 = _mm256_loadu_si256(pb.add(16 * i + 8).cast());
            even0 = _mm256_add_epi64(even0, _mm256_mul_epu32(va0, vb0));
            odd0 = _mm256_add_epi64(
                odd0,
                _mm256_mul_epu32(_mm256_srli_epi64::<32>(va0), _mm256_srli_epi64::<32>(vb0)),
            );
            even1 = _mm256_add_epi64(even1, _mm256_mul_epu32(va1, vb1));
            odd1 = _mm256_add_epi64(
                odd1,
                _mm256_mul_epu32(_mm256_srli_epi64::<32>(va1), _mm256_srli_epi64::<32>(vb1)),
            );
        }
        let acc = _mm256_add_epi64(_mm256_add_epi64(even0, odd0), _mm256_add_epi64(even1, odd1));
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        lanes.iter().fold(
            scalar::dot_u32(&a[16 * blocks..len], &b[16 * blocks..len]),
            |t, &l| t.wrapping_add(l),
        )
    }

    /// [`scalar::dot_multi_f64`] on FMA: each four operands of the row
    /// are loaded and converted to `f64` once (`vcvtdq2pd`, a signed
    /// convert — hence the caller's `< 2³¹` bound) and then cost one
    /// `vfmadd231pd` per query, whose load folds into the instruction.
    /// Exact under the caller's bound: every value is an integer below
    /// 2⁵³, so a fused multiply-add rounds nothing, exactly like a
    /// `mul` and an `add`. Dispatches to a body with as many
    /// accumulators per query as cover the FMA latency chain for that
    /// query count.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (detected at dispatch time).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_multi_f64(row: &[u32], qs: &[&[f64]], seg: usize, out: &mut [f64]) {
        assert!(seg > 0, "segments of 1+ operands");
        match qs.len() {
            0 => {}
            // Sized on one 10 000 × 420 pass (kernel_sweep's): up to 12
            // chains while a step's loads are few, one per query from six
            // queries on, where the loads alone outlast the FMA latency.
            1 => multi_f64::<1, 6>(row, qs, seg, out),
            2 => multi_f64::<2, 6>(row, qs, seg, out),
            3 => multi_f64::<3, 3>(row, qs, seg, out),
            4 => multi_f64::<4, 3>(row, qs, seg, out),
            5 => multi_f64::<5, 2>(row, qs, seg, out),
            6 => multi_f64::<6, 1>(row, qs, seg, out),
            7 => multi_f64::<7, 1>(row, qs, seg, out),
            8 => multi_f64::<8, 1>(row, qs, seg, out),
            _ => panic!("8 queries at most"),
        }
    }

    /// The body of [`dot_multi_f64`] for `Q` queries with `U`
    /// accumulators each, so `Q · U` independent `vfmadd231pd` chains
    /// are in flight. A segment runs `4 · U` operands a step, then four
    /// at a time, the last four masked (masked-off lanes load as zero
    /// and add a zero product). Its sums are folded four queries to one
    /// register, which is added to the totals and maxed into the largest
    /// segment sums; both are stored once, at the end of the row.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::needless_range_loop)] // a register block, indexed
    unsafe fn multi_f64<const Q: usize, const U: usize>(
        row: &[u32],
        qs: &[&[f64]],
        seg: usize,
        out: &mut [f64],
    ) {
        const G: usize = MULTI_QUERIES / 4;
        assert!(
            out.len() >= 2 * Q,
            "a total and a largest segment per query"
        );
        let len = qs.iter().fold(row.len(), |len, q| len.min(q.len()));
        let pr = row.as_ptr();
        let pq: [*const f64; Q] = core::array::from_fn(|j| qs[j].as_ptr());
        let lane = _mm_setr_epi32(0, 1, 2, 3);
        let mut total = [_mm256_setzero_pd(); G];
        let mut top = [_mm256_setzero_pd(); G];
        let mut start = 0;
        while start < len {
            let end = (start + seg).min(len);
            let mut acc = [[_mm256_setzero_pd(); U]; Q];
            let mut i = start;
            while i + 4 * U <= end {
                for u in 0..U {
                    // SAFETY: `i + 4u + 3 < end <= len`, the shortest of
                    // the slices; `loadu` has no alignment need.
                    let r = _mm256_cvtepi32_pd(_mm_loadu_si128(pr.add(i + 4 * u).cast()));
                    for j in 0..Q {
                        let q = _mm256_loadu_pd(pq[j].add(i + 4 * u));
                        acc[j][u] = _mm256_fmadd_pd(r, q, acc[j][u]);
                    }
                }
                i += 4 * U;
            }
            while i < end {
                let live = _mm_cmpgt_epi32(_mm_set1_epi32((end - i).min(4) as i32), lane);
                // SAFETY: lanes at or past `end` are masked off and never
                // read; the rest are inside every slice.
                let r = _mm256_cvtepi32_pd(_mm_maskload_epi32(pr.add(i).cast(), live));
                let live = _mm256_cvtepi32_epi64(live);
                for j in 0..Q {
                    let q = _mm256_maskload_pd(pq[j].add(i), live);
                    acc[j][0] = _mm256_fmadd_pd(r, q, acc[j][0]);
                }
                i += 4;
            }
            let mut sums = [_mm256_setzero_pd(); MULTI_QUERIES];
            for (sum, chains) in sums.iter_mut().zip(&acc) {
                for &chain in chains {
                    *sum = _mm256_add_pd(*sum, chain);
                }
            }
            for g in 0..Q.div_ceil(4) {
                // [a01 b01 a23 b23] and [c01 d01 c23 d23] → [a b c d].
                let ab = _mm256_hadd_pd(sums[4 * g], sums[4 * g + 1]);
                let cd = _mm256_hadd_pd(sums[4 * g + 2], sums[4 * g + 3]);
                let four = _mm256_add_pd(
                    _mm256_permute2f128_pd::<0x20>(ab, cd),
                    _mm256_permute2f128_pd::<0x31>(ab, cd),
                );
                total[g] = _mm256_add_pd(total[g], four);
                top[g] = _mm256_max_pd(top[g], four);
            }
            start = end;
        }
        let mut spill = [0.0f64; 2 * MULTI_QUERIES];
        for g in 0..G {
            _mm256_storeu_pd(spill.as_mut_ptr().add(4 * g), total[g]);
            _mm256_storeu_pd(spill.as_mut_ptr().add(MULTI_QUERIES + 4 * g), top[g]);
        }
        out[..Q].copy_from_slice(&spill[..Q]);
        out[Q..2 * Q].copy_from_slice(&spill[MULTI_QUERIES..MULTI_QUERIES + Q]);
    }

    /// [`scalar::cell_bound_multi`] on 32 cells a step: each row step is
    /// loaded once for every query; `|r − q|` is two saturating
    /// subtractions or-ed (`vpsubusb`, `vpor`), one more saturating
    /// subtraction of 1 is the `max(· − 1, 0)`, and the gaps, widened to
    /// 16 bits, square and pair up in `vpmaddwd`. A step adds at most
    /// 4 · 254² to an `i32` lane, so the lanes are folded into the `u64`
    /// sums every [`CELL_STEPS`] steps, long before they could overflow.
    /// The ragged tail goes through the portable kernel.
    ///
    /// # Safety
    /// Requires AVX2 (detected at dispatch time).
    #[target_feature(enable = "avx2")]
    pub unsafe fn cell_bound_multi(row: &[u8], qs: &[&[u8]], out: &mut [u64]) {
        match qs.len() {
            0 => {}
            1 => cell_multi::<1>(row, qs, out),
            2 => cell_multi::<2>(row, qs, out),
            3 => cell_multi::<3>(row, qs, out),
            4 => cell_multi::<4>(row, qs, out),
            5 => cell_multi::<5>(row, qs, out),
            6 => cell_multi::<6>(row, qs, out),
            7 => cell_multi::<7>(row, qs, out),
            8 => cell_multi::<8>(row, qs, out),
            _ => panic!("8 queries at most"),
        }
    }

    /// 32-cell steps between two folds of [`cell_bound_multi`]'s `i32`
    /// lanes: 4 096 · 4 · 254² < 2³¹.
    const CELL_STEPS: usize = 4096;

    /// The body of [`cell_bound_multi`] for `Q` queries.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::needless_range_loop)] // a register block, indexed
    unsafe fn cell_multi<const Q: usize>(row: &[u8], qs: &[&[u8]], out: &mut [u64]) {
        let len = qs.iter().fold(row.len(), |len, q| len.min(q.len()));
        let whole = len - len % 32;
        let (zero, one) = (_mm256_setzero_si256(), _mm256_set1_epi8(1));
        let tails: [&[u8]; Q] = core::array::from_fn(|j| &qs[j][whole..len]);
        scalar::cell_bound_multi(&row[whole..len], &tails, out);
        for start in (0..whole).step_by(32 * CELL_STEPS) {
            let mut acc = [zero; Q];
            for i in (start..whole.min(start + 32 * CELL_STEPS)).step_by(32) {
                // SAFETY: `i + 31 < whole <= len`, the shortest of the
                // slices; `loadu` has no alignment need.
                let r = _mm256_loadu_si256(row.as_ptr().add(i).cast());
                for j in 0..Q {
                    let q = _mm256_loadu_si256(qs[j].as_ptr().add(i).cast());
                    let gap = _mm256_or_si256(_mm256_subs_epu8(r, q), _mm256_subs_epu8(q, r));
                    let gap = _mm256_subs_epu8(gap, one);
                    let (lo, hi) = (
                        _mm256_unpacklo_epi8(gap, zero),
                        _mm256_unpackhi_epi8(gap, zero),
                    );
                    let sq = _mm256_add_epi32(_mm256_madd_epi16(lo, lo), _mm256_madd_epi16(hi, hi));
                    acc[j] = _mm256_add_epi32(acc[j], sq);
                }
            }
            for j in 0..Q {
                let mut lanes = [0u32; 8];
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc[j]);
                out[j] += lanes.iter().map(|&l| u64::from(l)).sum::<u64>();
            }
        }
    }

    /// [`scalar::dot_multi_u8`] on 16 cells a step: the queries come
    /// widened to 16 bits by their caller; a row step is widened once
    /// (`vpmovzxbw`) and then costs one `vpmaddwd` (its load folded in)
    /// and one add per query, product pairs of at most 2 · 255² into
    /// `i32` lanes. A segment's last step is the 16 cells ending at its
    /// end, those before it masked to zero. At the end of a segment, and
    /// every [`U8_STEPS`] steps inside a long one, the lanes are folded
    /// four queries to a register (`vphaddd`) into the segment's `u64`
    /// sums. Rows under 16 cells go through the portable kernel.
    ///
    /// # Safety
    /// Requires AVX2 (detected at dispatch time).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_multi_u8(rows: &[u8], qs: &U8Queries, seg: usize, out: &mut [u64]) {
        match scalar::check_multi_u8(rows, qs, seg, out) {
            (0, _) => {}
            (_, s) if s < 16 => scalar::dot_multi_u8(rows, qs, seg, out),
            (1, _) => multi_u8::<1>(rows, qs, seg, out),
            (2, _) => multi_u8::<2>(rows, qs, seg, out),
            (3, _) => multi_u8::<3>(rows, qs, seg, out),
            (4, _) => multi_u8::<4>(rows, qs, seg, out),
            (5, _) => multi_u8::<5>(rows, qs, seg, out),
            (6, _) => multi_u8::<6>(rows, qs, seg, out),
            (7, _) => multi_u8::<7>(rows, qs, seg, out),
            _ => multi_u8::<8>(rows, qs, seg, out),
        }
    }

    /// 16-cell steps between two folds of [`dot_multi_u8`]'s `i32` lanes:
    /// 4 097 · 16 · 255² < 2³² (the last step of a segment may add one), so
    /// the sum of a query's eight lanes is exact when `vphaddd` adds them
    /// modulo 2³².
    const U8_STEPS: usize = 4096;

    /// Four queries' `i32` lane sets → their four sums as `u64` lanes.
    #[target_feature(enable = "avx2")]
    unsafe fn fold4_u32(acc: &[__m256i]) -> __m256i {
        // [a01 a23 b01 b23 | a45 a67 b45 b67], then [a b c d] per half.
        let ab = _mm256_hadd_epi32(acc[0], acc[1]);
        let cd = _mm256_hadd_epi32(acc[2], acc[3]);
        let abcd = _mm256_hadd_epi32(ab, cd);
        let four = _mm_add_epi32(
            _mm256_castsi256_si128(abcd),
            _mm256_extracti128_si256::<1>(abcd),
        );
        _mm256_cvtepu32_epi64(four)
    }

    /// The body of [`dot_multi_u8`] for `Q` queries and rows of 16+ cells.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::needless_range_loop)] // a register block, indexed
    unsafe fn multi_u8<const Q: usize>(rows: &[u8], qs: &U8Queries, seg: usize, out: &mut [u64]) {
        const G: usize = MULTI_QUERIES / 4;
        let s = qs.dim();
        let pq: [*const i16; Q] = core::array::from_fn(|j| qs.query(j).as_ptr());
        let lane = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let zero = _mm256_setzero_si256();
        let n = rows.len() / s;
        for (r, row) in rows.chunks_exact(s).enumerate() {
            let pr = row.as_ptr();
            let (mut total, mut top) = ([zero; G], [zero; G]);
            for start in (0..s).step_by(seg) {
                let end = (start + seg).min(s);
                let mut sums = [zero; G];
                let mut i = start;
                while i < end {
                    let stop = end.min(i + 16 * U8_STEPS);
                    let mut acc = [zero; MULTI_QUERIES];
                    while i + 16 <= stop {
                        // SAFETY: `i + 15 < stop <= s`, inside the row and
                        // every widened query; `loadu` has no alignment need.
                        let r = _mm256_cvtepu8_epi16(_mm_loadu_si128(pr.add(i).cast()));
                        for j in 0..Q {
                            let x = _mm256_loadu_si256(pq[j].add(i).cast());
                            acc[j] = _mm256_add_epi32(acc[j], _mm256_madd_epi16(r, x));
                        }
                        i += 16;
                    }
                    if i < stop {
                        // The 16 cells from `at` hold `i..stop`; the lanes
                        // outside it are masked off the row.
                        let at = i.min(s - 16);
                        let keep = _mm_and_si128(
                            _mm_cmpgt_epi8(lane, _mm_set1_epi8((i - at) as i8 - 1)),
                            _mm_cmplt_epi8(lane, _mm_set1_epi8((stop - at) as i8)),
                        );
                        // SAFETY: `at + 15 < s` since `s >= 16`.
                        let r = _mm_and_si128(_mm_loadu_si128(pr.add(at).cast()), keep);
                        let r = _mm256_cvtepu8_epi16(r);
                        for j in 0..Q {
                            let x = _mm256_loadu_si256(pq[j].add(at).cast());
                            acc[j] = _mm256_add_epi32(acc[j], _mm256_madd_epi16(r, x));
                        }
                        i = stop;
                    }
                    for g in 0..Q.div_ceil(4) {
                        sums[g] = _mm256_add_epi64(sums[g], fold4_u32(&acc[4 * g..4 * g + 4]));
                    }
                }
                for g in 0..Q.div_ceil(4) {
                    total[g] = _mm256_add_epi64(total[g], sums[g]);
                    // Sums below 2⁶³: the signed compare orders them.
                    let above = _mm256_cmpgt_epi64(sums[g], top[g]);
                    top[g] = _mm256_blendv_epi8(top[g], sums[g], above);
                }
            }
            let mut spill = [0u64; 2 * MULTI_QUERIES];
            for g in 0..G {
                _mm256_storeu_si256(spill.as_mut_ptr().add(4 * g).cast(), total[g]);
                _mm256_storeu_si256(spill.as_mut_ptr().add(MULTI_QUERIES + 4 * g).cast(), top[g]);
            }
            for j in 0..Q {
                (out[n * j + r], out[n * (Q + j) + r]) = (spill[j], spill[MULTI_QUERIES + j]);
            }
        }
    }

    /// Per-64-bit-element popcount of a ymm register via the Mula nibble
    /// LUT: `pshufb` looks up each nibble's population count, `psadbw`
    /// horizontally sums the byte counts into the four u64 lanes.
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_epi64(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(v), low);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    #[target_feature(enable = "avx2")]
    unsafe fn popcount_mac(a: &[u64], b: &[u64], xor: bool) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let blocks = a.len() / 4;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_si256();
        for i in 0..blocks {
            let va = _mm256_loadu_si256(pa.add(4 * i).cast());
            let vb = _mm256_loadu_si256(pb.add(4 * i).cast());
            let m = if xor {
                _mm256_xor_si256(va, vb)
            } else {
                _mm256_and_si256(va, vb)
            };
            acc = _mm256_add_epi64(acc, popcount_epi64(m));
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        let mut total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for (&x, &y) in a[4 * blocks..].iter().zip(&b[4 * blocks..]) {
            let m = if xor { x ^ y } else { x & y };
            total += u64::from(m.count_ones());
        }
        total
    }

    /// Hamming MAC `Σ popcount(aᵢ XOR bᵢ)`.
    ///
    /// # Safety
    /// Requires AVX2 (detected at dispatch time).
    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
        popcount_mac(a, b, true)
    }

    /// Bit-serial MAC `Σ popcount(aᵢ AND bᵢ)`.
    ///
    /// # Safety
    /// Requires AVX2 (detected at dispatch time).
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        popcount_mac(a, b, false)
    }
}
