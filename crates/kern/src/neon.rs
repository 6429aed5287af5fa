//! aarch64 NEON backend: two 2×f64 `float64x2_t` registers carry lanes
//! `{0,1}` and `{2,3}` of the canonical 4-lane layout, exactly like the
//! SSE2 tier on x86_64.
//!
//! Bit-identity with [`crate::scalar`] holds for the same reason as the
//! x86 backends: per-lane `fmul`/`fadd`/`fsub` (never the fused
//! `vfmaq_f64`, whose single rounding would diverge), the canonical
//! `(l0 + l1) + (l2 + l3)` fold, and the shared [`scalar::fold_tail`]
//! tail. AArch64's default FPCR has flush-to-zero disabled, matching
//! scalar Rust semantics. The popcount MAC uses `cnt` (per-byte
//! popcount) + `addlv` horizontal sums — exact integer counting — and
//! `dot_u32` uses the widening `umlal` multiply-accumulate, whose `u64`
//! lanes wrap exactly like the scalar sum.
//!
//! # Safety
//! All functions are `#[target_feature(enable = "neon")]`-gated and
//! installed by the dispatcher only after
//! `is_aarch64_feature_detected!("neon")`.

#![cfg(target_arch = "aarch64")]

use crate::scalar::{self, fold_tail};
use core::arch::aarch64::*;

/// Spills lane pairs `{0,1}` / `{2,3}` and finishes with the canonical
/// fold plus the shared tail. `vaddvq_f64` performs the single in-pair
/// add (`l0 + l1`) the scalar fold performs.
#[inline(always)]
unsafe fn fold2x2(
    acc01: float64x2_t,
    acc23: float64x2_t,
    ta: &[f64],
    tb: &[f64],
    f: impl Fn(f64, f64) -> f64,
) -> f64 {
    fold_tail(vaddvq_f64(acc01) + vaddvq_f64(acc23), ta, tb, f)
}

/// Dot product over lanes `{0,1}` + `{2,3}` in two NEON accumulators.
///
/// # Safety
/// Requires NEON (detected at dispatch time).
#[target_feature(enable = "neon")]
pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let blocks = a.len() / 4;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    for i in 0..blocks {
        acc01 = vaddq_f64(
            acc01,
            vmulq_f64(vld1q_f64(pa.add(4 * i)), vld1q_f64(pb.add(4 * i))),
        );
        acc23 = vaddq_f64(
            acc23,
            vmulq_f64(vld1q_f64(pa.add(4 * i + 2)), vld1q_f64(pb.add(4 * i + 2))),
        );
    }
    fold2x2(acc01, acc23, &a[4 * blocks..], &b[4 * blocks..], |x, y| {
        x * y
    })
}

/// Squared L2 norm: [`dot`] with both operands the same slice.
///
/// # Safety
/// Requires NEON (detected at dispatch time).
#[target_feature(enable = "neon")]
pub unsafe fn norm_sq(xs: &[f64]) -> f64 {
    dot(xs, xs)
}

/// Squared Euclidean distance: per-lane `sub`, `mul`, `add`.
///
/// # Safety
/// Requires NEON (detected at dispatch time).
#[target_feature(enable = "neon")]
pub unsafe fn euclidean_sq(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    let blocks = p.len() / 4;
    let (pp, pq) = (p.as_ptr(), q.as_ptr());
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    for i in 0..blocks {
        let d01 = vsubq_f64(vld1q_f64(pp.add(4 * i)), vld1q_f64(pq.add(4 * i)));
        let d23 = vsubq_f64(vld1q_f64(pp.add(4 * i + 2)), vld1q_f64(pq.add(4 * i + 2)));
        acc01 = vaddq_f64(acc01, vmulq_f64(d01, d01));
        acc23 = vaddq_f64(acc23, vmulq_f64(d23, d23));
    }
    fold2x2(acc01, acc23, &p[4 * blocks..], &q[4 * blocks..], |x, y| {
        let d = x - y;
        d * d
    })
}

/// Fused `(dot(a, b), norm_sq(a))` in four NEON accumulators.
///
/// # Safety
/// Requires NEON (detected at dispatch time).
#[target_feature(enable = "neon")]
pub unsafe fn dot_norm_sq(a: &[f64], b: &[f64]) -> (f64, f64) {
    debug_assert_eq!(a.len(), b.len());
    let blocks = a.len() / 4;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut d01 = vdupq_n_f64(0.0);
    let mut d23 = vdupq_n_f64(0.0);
    let mut n01 = vdupq_n_f64(0.0);
    let mut n23 = vdupq_n_f64(0.0);
    for i in 0..blocks {
        let va01 = vld1q_f64(pa.add(4 * i));
        let va23 = vld1q_f64(pa.add(4 * i + 2));
        let vb01 = vld1q_f64(pb.add(4 * i));
        let vb23 = vld1q_f64(pb.add(4 * i + 2));
        d01 = vaddq_f64(d01, vmulq_f64(va01, vb01));
        d23 = vaddq_f64(d23, vmulq_f64(va23, vb23));
        n01 = vaddq_f64(n01, vmulq_f64(va01, va01));
        n23 = vaddq_f64(n23, vmulq_f64(va23, va23));
    }
    let ta = &a[4 * blocks..];
    let tb = &b[4 * blocks..];
    (
        fold2x2(d01, d23, ta, tb, |x, y| x * y),
        fold2x2(n01, n23, ta, ta, |x, y| x * y),
    )
}

/// Exact `u32` MAC `Σ aᵢ·bᵢ` modulo 2⁶⁴: `umlal`/`umlal2` widen each
/// `u32` pair to a full `u64` product and accumulate it in place.
///
/// # Safety
/// Requires NEON (detected at dispatch time).
#[target_feature(enable = "neon")]
pub unsafe fn dot_u32(a: &[u32], b: &[u32]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let len = a.len().min(b.len());
    let blocks = len / 4;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut lo = vdupq_n_u64(0);
    let mut hi = vdupq_n_u64(0);
    for i in 0..blocks {
        // SAFETY: `4 * i + 3 < len`, so the 4-element load of either
        // slice stays in bounds.
        let va = vld1q_u32(pa.add(4 * i));
        let vb = vld1q_u32(pb.add(4 * i));
        lo = vmlal_u32(lo, vget_low_u32(va), vget_low_u32(vb));
        hi = vmlal_high_u32(hi, va, vb);
    }
    let acc = vaddq_u64(lo, hi);
    scalar::dot_u32(&a[4 * blocks..len], &b[4 * blocks..len])
        .wrapping_add(vgetq_lane_u64::<0>(acc))
        .wrapping_add(vgetq_lane_u64::<1>(acc))
}

#[inline(always)]
unsafe fn popcount_mac(a: &[u64], b: &[u64], xor: bool) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let blocks = a.len() / 2;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut total = 0u64;
    for i in 0..blocks {
        let va = vld1q_u64(pa.add(2 * i));
        let vb = vld1q_u64(pb.add(2 * i));
        let m = if xor {
            veorq_u64(va, vb)
        } else {
            vandq_u64(va, vb)
        };
        total += u64::from(vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(m))));
    }
    let tail = if xor {
        scalar::xor_popcount(&a[2 * blocks..], &b[2 * blocks..])
    } else {
        scalar::and_popcount(&a[2 * blocks..], &b[2 * blocks..])
    };
    total + tail
}

/// Hamming MAC `Σ popcount(aᵢ XOR bᵢ)` via `cnt`/`addlv`.
///
/// # Safety
/// Requires NEON (detected at dispatch time).
#[target_feature(enable = "neon")]
pub unsafe fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
    popcount_mac(a, b, true)
}

/// Bit-serial MAC `Σ popcount(aᵢ AND bᵢ)` via `cnt`/`addlv`.
///
/// # Safety
/// Requires NEON (detected at dispatch time).
#[target_feature(enable = "neon")]
pub unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    popcount_mac(a, b, false)
}
