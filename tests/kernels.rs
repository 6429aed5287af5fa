//! Bit-identity tests for the `simpim-kern` runtime-dispatched SIMD
//! backends (DESIGN.md §14): every supported tier (AVX2) must
//! reproduce the portable scalar reference down to the float bit
//! pattern (and, for the integer MACs, the exact integer) — across
//! every remainder length `0..=4*LANES`, through
//! signed zeros, subnormals and infinities, with NaN results matched
//! NaN-for-NaN (payloads are non-deterministic in Rust; see
//! `crates/kern/src/scalar.rs`) — and an end-to-end
//! kNN / k-means run must return the same neighbors, assignments and
//! `OpCounters` (and the same FNV-1a result hash) whether the kernels
//! are forced to `scalar` or left on the detected backend, at any
//! worker count.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use simpim::datasets::{generate, sample_queries, SyntheticConfig};
use simpim::kern::{self, scalar, Backend};
use simpim::mining::kmeans::drake::kmeans_drake;
use simpim::mining::kmeans::elkan::kmeans_elkan;
use simpim::mining::kmeans::lloyd::kmeans_lloyd;
use simpim::mining::kmeans::yinyang::kmeans_yinyang;
use simpim::mining::kmeans::{KmeansConfig, KmeansResult};
use simpim::mining::knn::algorithms::fnn_cascade;
use simpim::mining::knn::cascade::knn_cascade;
use simpim::mining::knn::KnnResult;
use simpim::par;
use simpim::similarity::{Dataset, Measure};

/// Both the kernel-backend override and the thread override are
/// process-global; serialize the tests that flip either one.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Every tier this CPU can actually run (always includes `Scalar`).
fn supported_backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
}

/// Adversarial f64 payloads: signed zeros, subnormals, the normal/
/// subnormal boundary, huge magnitudes that overflow when squared,
/// infinities, and NaNs with distinct sign/payload bits. Packed SIMD
/// lanes must treat each of these exactly like the scalar ALU does.
fn special_values() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        2.5,
        -3.75,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        1e-310,
        1e308,
        -1e308,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::from_bits(0xFFF8_0000_0000_0000), // negative quiet NaN
        f64::from_bits(0x7FF8_0000_00AB_CDEF), // quiet NaN with payload
        f64::from_bits(0x7FF0_0000_0000_0001), // signaling NaN
    ]
}

/// FNV-1a over the (index, distance-bits) stream of a neighbor list —
/// the same digest `kernel_sweep` stamps into `BENCH_kernels.json`.
fn fnv1a_knn(r: &KnnResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: [u8; 8]| {
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for &(i, d) in &r.neighbors {
        eat((i as u64).to_le_bytes());
        eat(d.to_bits().to_le_bytes());
    }
    h
}

/// The bit-identity contract, NaN carve-out included: exact bits for
/// every non-NaN result (signed zeros, subnormals, infinities), NaN ⇔
/// NaN otherwise. *Which* NaN payload survives a multi-NaN reduction is
/// operand-order dependent and Rust documents NaN bit patterns as
/// non-deterministic, so payload equality is deliberately not asserted.
fn assert_bits(got: f64, want: f64, what: &str) {
    if got.is_nan() && want.is_nan() {
        return;
    }
    assert_eq!(got.to_bits(), want.to_bits(), "{what}");
}

fn workload(seed: u64) -> (Dataset, Vec<f64>) {
    let ds = generate(&SyntheticConfig {
        n: 140,
        d: 24,
        clusters: 4,
        cluster_std: 0.05,
        stat_uniformity: 0.2,
        seed,
    });
    let q = sample_queries(&ds, 1, 0.03, seed ^ 0x3C).remove(0);
    (ds, q)
}

fn assert_same_knn(a: &KnnResult, b: &KnnResult, what: &str) {
    let bits = |r: &KnnResult| -> Vec<(usize, u64)> {
        r.neighbors.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    };
    assert_eq!(bits(a), bits(b), "{what}: neighbors");
    assert_eq!(
        a.report.profile.total_counters(),
        b.report.profile.total_counters(),
        "{what}: counters"
    );
}

fn assert_same_kmeans(a: &KmeansResult, b: &KmeansResult, what: &str) {
    assert_eq!(a.assignments, b.assignments, "{what}: assignments");
    assert_eq!(
        a.inertia.to_bits(),
        b.inertia.to_bits(),
        "{what}: inertia bits"
    );
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(
        a.report.profile.total_counters(),
        b.report.profile.total_counters(),
        "{what}: counters"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every supported tier matches the scalar reference bit-for-bit on
    /// all four float kernels, at every remainder length `0..=4*LANES`,
    /// through the adversarial payload pool.
    #[test]
    fn float_kernels_bit_identical_across_backends(
        pairs in prop::collection::vec(
            (
                prop::sample::select(special_values()),
                prop::sample::select(special_values()),
            ),
            0..=4 * scalar::LANES,
        )
    ) {
        let _g = lock();
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let want_dot = scalar::dot(&a, &b);
        let want_norm = scalar::norm_sq(&a);
        let want_ed = scalar::euclidean_sq(&a, &b);
        let (wd, wn) = scalar::dot_norm_sq(&a, &b);
        for backend in supported_backends() {
            kern::with_backend(backend, || {
                let name = backend.name();
                assert_bits(kern::dot(&a, &b), want_dot, &format!("dot/{name}"));
                assert_bits(kern::norm_sq(&a), want_norm, &format!("norm_sq/{name}"));
                assert_bits(
                    kern::euclidean_sq(&a, &b),
                    want_ed,
                    &format!("euclidean_sq/{name}"),
                );
                let (d, n) = kern::dot_norm_sq(&a, &b);
                assert_bits(d, wd, &format!("dot_norm_sq.0/{name}"));
                assert_bits(n, wn, &format!("dot_norm_sq.1/{name}"));
            });
        }
    }

    /// The popcount-MAC kernels agree with the scalar `count_ones` sum
    /// on every backend, across lengths covering the AVX2 4-word blocks
    /// and all their tails.
    #[test]
    fn popcount_kernels_bit_identical_across_backends(
        words in prop::collection::vec((any::<u64>(), any::<u64>()), 0..=17)
    ) {
        let _g = lock();
        let (a, b): (Vec<u64>, Vec<u64>) = words.into_iter().unzip();
        let want_xor = scalar::xor_popcount(&a, &b);
        let want_and = scalar::and_popcount(&a, &b);
        for backend in supported_backends() {
            kern::with_backend(backend, || {
                prop_assert_eq!(kern::xor_popcount(&a, &b), want_xor, "xor/{}", backend.name());
                prop_assert_eq!(kern::and_popcount(&a, &b), want_and, "and/{}", backend.name());
            });
        }
    }

    /// `dot_u32` returns the scalar wrapping sum on every backend:
    /// lengths through two 16-operand AVX2 blocks plus every tail,
    /// operands weighted towards `u32::MAX` so the u64 sum wraps, and
    /// sub-slices starting 0–3 operands into the buffers so the packed
    /// loads see every 4-byte alignment.
    #[test]
    fn dot_u32_bit_identical_across_backends(
        pairs in prop::collection::vec(
            (
                prop_oneof![any::<u32>(), Just(u32::MAX), 0u32..4],
                prop_oneof![any::<u32>(), Just(u32::MAX), 0u32..4],
            ),
            0..=8 * scalar::LANES + 3 + 3,
        ),
        skip in 0usize..4,
    ) {
        let _g = lock();
        let (a, b): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
        let skip = skip.min(a.len());
        let (a, b) = (&a[skip..], &b[skip..]);
        let want = a
            .iter()
            .zip(b)
            .fold(0u128, |t, (&x, &y)| t + u128::from(x) * u128::from(y)) as u64;
        prop_assert_eq!(scalar::dot_u32(a, b), want, "scalar vs u128 reference");
        for backend in supported_backends() {
            kern::with_backend(backend, || {
                prop_assert_eq!(kern::dot_u32(a, b), want, "dot_u32/{}", backend.name());
            });
        }
    }
}

/// The `u128` reference of `dot_multi_f64`: per query the row's dot
/// product, then per query its largest sum over a `seg`-operand segment.
fn multi_reference(row: &[u32], qs: &[&[u32]], seg: usize) -> Vec<u128> {
    let sums = |q: &[u32]| -> Vec<u128> {
        row.chunks(seg)
            .zip(q.chunks(seg))
            .map(|(r, q)| {
                r.iter()
                    .zip(q)
                    .map(|(&x, &y)| u128::from(x) * u128::from(y))
                    .sum()
            })
            .collect()
    };
    let per_query: Vec<Vec<u128>> = qs.iter().map(|q| sums(q)).collect();
    let totals = per_query.iter().map(|s| s.iter().sum());
    let tops = per_query
        .iter()
        .map(|s| s.iter().copied().max().unwrap_or(0));
    totals.chain(tops).collect()
}

/// `dot_multi_f64` on `row` against `qs` on every backend (and the
/// portable body directly), each value held to the `u128` reference —
/// which under the 53-bit bound is an integer an `f64` holds exactly.
fn check_multi(row: &[u32], qs: &[&[u32]], seg: usize) {
    let want = multi_reference(row, qs, seg);
    prop_assert!(want.iter().all(|&v| v < 1 << 53), "a case inside the bound");
    let as_f64: Vec<Vec<f64>> = qs
        .iter()
        .map(|q| q.iter().map(|&v| f64::from(v)).collect())
        .collect();
    let qf: Vec<&[f64]> = as_f64.iter().map(Vec::as_slice).collect();
    let exact = |out: &[f64]| -> Vec<u128> { out.iter().map(|&v| v as u128).collect() };
    let mut out = vec![f64::NAN; 2 * qs.len()];
    scalar::dot_multi_f64(row, &qf, seg, &mut out);
    prop_assert_eq!(exact(&out), want.clone(), "scalar vs u128 reference");
    prop_assert!(out.iter().all(|v| v.fract() == 0.0));
    for backend in supported_backends() {
        kern::with_backend(backend, || {
            let mut out = vec![f64::NAN; 2 * qs.len()];
            kern::dot_multi_f64(row, &qf, seg, &mut out);
            prop_assert_eq!(
                exact(&out),
                want.clone(),
                "dot_multi_f64/{}",
                backend.name()
            );
            prop_assert!(out.iter().all(|v| v.fract() == 0.0));
        });
    }
}

/// `⌈log₂ len⌉`, 0 for lengths 0 and 1.
fn log2_ceil(len: usize) -> u32 {
    len.max(1).next_power_of_two().trailing_zeros()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `dot_multi_f64` returns the exact totals and largest segment sums
    /// of the `u128` reference on every backend, for 2..=8 queries (one
    /// for the tail group of a nine-query read), segments of 1..=24
    /// operands and row lengths 0..=48 — every AVX2 step, unroll and
    /// masked tail — with the row and every query starting 0–3 operands
    /// into its own buffer, so each packed load sees every alignment.
    /// Row operands are `b` ≤ 31 bits and queries `i` bits with
    /// `b + i + ⌈log₂ len⌉` = 53 where a 32-bit query allows it, and
    /// operands lean to their maxima so the sums reach the bound.
    #[test]
    fn dot_multi_f64_is_exact_across_backends(
        (q, seg, len) in (1usize..=8, 1usize..=24, 0usize..=48),
        stored_bits in prop_oneof![1u32..=31, 28u32..=31],
        raw in prop::collection::vec(prop_oneof![any::<u32>(), Just(u32::MAX), 0u32..4], 9 * (48 + 3)),
        skips in prop::collection::vec(0usize..4, 9),
    ) {
        let _g = lock();
        let input_bits = (53 - stored_bits - log2_ceil(len)).min(32);
        let bufs: Vec<Vec<u32>> = raw
            .chunks_exact(48 + 3)
            .enumerate()
            .map(|(k, buf)| {
                let bits = if k == 0 { stored_bits } else { input_bits };
                buf.iter().map(|v| v & (u32::MAX >> (32 - bits))).collect()
            })
            .collect();
        let view = |k: usize| &bufs[k][skips[k]..skips[k] + len];
        let qs: Vec<&[u32]> = (1..=q).map(view).collect();
        check_multi(view(0), &qs, seg);
    }
}

/// `cell_bound_multi` on `row` against `qs`, on every backend and the
/// portable body, against `Σ max(|r − q| − 1, 0)²` summed in `u128` over
/// the shortest slice.
fn check_cells(row: &[u8], qs: &[&[u8]]) {
    let len = qs.iter().fold(row.len(), |len, q| len.min(q.len()));
    let want: Vec<u64> = qs
        .iter()
        .map(|q| {
            let gaps = row[..len].iter().zip(&q[..len]);
            let sum: u128 = gaps
                .map(|(&r, &x)| {
                    u128::from((i32::from(r) - i32::from(x)).unsigned_abs().max(1) - 1).pow(2)
                })
                .sum();
            sum as u64
        })
        .collect();
    let mut out = vec![u64::MAX; qs.len()];
    scalar::cell_bound_multi(row, qs, &mut out);
    assert_eq!(out, want, "scalar vs u128 reference");
    for backend in supported_backends() {
        kern::with_backend(backend, || {
            let mut out = vec![u64::MAX; qs.len()];
            kern::cell_bound_multi(row, qs, &mut out);
            assert_eq!(out, want, "cell_bound_multi/{}", backend.name());
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `cell_bound_multi` is the exact integer sum on every backend, for
    /// 0..=8 queries and rows of 0..=200 cells — every 32-cell AVX2 step
    /// and tail — with cells leaning to 0, 1, 254 and 255 (gaps of 0, 1
    /// and the widest), each slice starting 0–31 cells into its buffer.
    #[test]
    fn cell_bound_multi_is_exact_across_backends(
        (q, len) in (0usize..=8, 0usize..=200),
        raw in prop::collection::vec(prop_oneof![any::<u8>(), 0u8..2, 254u8..=255], 9 * (200 + 31)),
        skips in prop::collection::vec(0usize..32, 9),
    ) {
        let _g = lock();
        let view = |k: usize| &raw[k * 231 + skips[k]..][..len];
        let qs: Vec<&[u8]> = (1..=q).map(view).collect();
        check_cells(view(0), &qs);
    }
}

/// The widest gaps (255 against 0) over rows past the AVX2 kernel's
/// `i32` fold interval, for one to eight queries, and queries of
/// different lengths (the shortest counts).
#[test]
fn cell_bound_multi_is_exact_past_its_fold_interval() {
    let _g = lock();
    let (row, far) = (vec![255u8; 140_001], vec![0u8; 140_001]);
    for q in 1..=8 {
        let qs: Vec<&[u8]> = (0..q).map(|j| &far[..far.len() - j]).collect();
        check_cells(&row, &qs);
    }
}

/// `dot_multi_u12` on the block `rows` (`s` cells a row) against `qs`, on
/// every backend and the portable body, against the `u128` reference of
/// `dot_multi_f64` (the totals, then the largest segment sums, each query
/// by query over the rows), and against one call per row and query.
fn check_multi_u12(rows: &[u16], s: usize, qs: &[&[u16]], seg: usize) {
    let wide = |x: &[u16]| -> Vec<u32> { x.iter().map(|&v| u32::from(v)).collect() };
    let wide_qs: Vec<Vec<u32>> = qs.iter().map(|q| wide(q)).collect();
    let refs: Vec<&[u32]> = wide_qs.iter().map(Vec::as_slice).collect();
    // Per row the reference's totals then tops, laid out query by query.
    let (n, q) = (rows.len() / s, qs.len());
    let per_row: Vec<Vec<u128>> = rows
        .chunks_exact(s)
        .map(|row| multi_reference(&wide(row), &refs, seg))
        .collect();
    let want: Vec<u64> = (0..2 * q)
        .flat_map(|v| per_row.iter().map(move |row| row[v]))
        .map(|v| u64::try_from(v).expect("12-bit sums fit a u64"))
        .collect();
    let prepared = kern::U12Queries::new(s, qs);
    let mut out = vec![u64::MAX; want.len()];
    scalar::dot_multi_u12(rows, &prepared, seg, &mut out);
    assert_eq!(out, want, "scalar vs u128 reference");
    for backend in supported_backends() {
        kern::with_backend(backend, || {
            let mut out = vec![u64::MAX; want.len()];
            kern::dot_multi_u12(rows, &prepared, seg, &mut out);
            assert_eq!(out, want, "dot_multi_u12/{}", backend.name());
            for (r, row) in rows.chunks_exact(s).enumerate() {
                for (j, x) in qs.iter().enumerate() {
                    let mut one = [u64::MAX; 2];
                    kern::dot_multi_u12(row, &kern::U12Queries::new(s, &[x]), seg, &mut one);
                    let (total, top) = (want[n * j + r], want[n * (q + j) + r]);
                    assert_eq!(one, [total, top], "one query/{}", backend.name());
                }
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `dot_multi_u12` returns the exact totals and largest segment sums
    /// on every backend, for 0..=8 queries, blocks of 0..=3 rows of
    /// 1..=70 cells and segments of 1..=40 — every 16-cell step, masked
    /// last step, segment seam and the portable body under 16 cells —
    /// with cells leaning to 0 and 4 095, each slice starting 0–31 cells
    /// into its buffer.
    #[test]
    fn dot_multi_u12_is_exact_across_backends(
        (q, n, s, seg) in (0usize..=8, 0usize..=3, 1usize..=70, 1usize..=40),
        raw in prop::collection::vec(
            prop_oneof![0u16..=kern::U12_MAX, 0u16..2, kern::U12_MAX - 1..=kern::U12_MAX],
            9 * (210 + 31),
        ),
        skips in prop::collection::vec(0usize..32, 9),
    ) {
        let _g = lock();
        let view = |k: usize, len: usize| &raw[k * 241 + skips[k]..][..len];
        let qs: Vec<&[u16]> = (1..=q).map(|k| view(k, s)).collect();
        check_multi_u12(view(0, n * s), s, &qs, seg);
    }
}

/// A xorshift stream of 12-bit cells.
fn u12_cells(mut x: u64) -> impl FnMut() -> u16 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 52) as u16
    }
}

/// The prepared-query kernel on every small shape, every tier against
/// the `u128` reference: rows of every length `s` in 1..=48 (the portable
/// body under 16 cells, and every ragged last step above it), segments of
/// 1, 5, 15, 16, 17, `s` and `2s` cells, 1..=8 queries, blocks of 1..=3
/// rows, with cells drawn at random, drawn from {0, 4 095}, and all
/// 4 095. The vendored proptest cannot shrink a failure, so the small
/// domain is walked whole instead.
#[test]
fn dot_multi_u12_is_exact_on_every_small_shape() {
    let _g = lock();
    let mut next = u12_cells(0x9e37_79b9_7f4a_7c15);
    // Random cells, cells of 0 or 4 095, all 4 095.
    for pattern in 0..3 {
        for s in 1..=48 {
            let cells: Vec<u16> = (0..11 * s)
                .map(|_| match (pattern, next()) {
                    (0, v) => v,
                    (1, v) => (v & 1) * kern::U12_MAX,
                    _ => kern::U12_MAX,
                })
                .collect();
            let qs: Vec<&[u16]> = cells[3 * s..].chunks_exact(s).collect();
            for seg in [1, 5, 15, 16, 17, s, 2 * s] {
                for q in 1..=8 {
                    for n in 1..=3 {
                        check_multi_u12(&cells[..n * s], s, &qs[..q], seg);
                    }
                }
            }
        }
    }
}

/// At the AVX2 tier's fold bound, walked whole: every segment length
/// 1..=512 (up to two folds of 16 steps of 16 cells, and the masked
/// step on either side of each), rows of one segment and of three
/// segments and 15 cells, every cell 4 095, every cell 0, and a seeded
/// mix, for 1..=8 queries, two rows a call. Every tier equals a plain
/// `u64` reference bit for bit.
#[test]
fn dot_multi_u12_is_exact_at_its_fold_bound() {
    let _g = lock();
    let reference = |rows: &[u16], s: usize, qs: &[&[u16]], seg: usize| -> Vec<u64> {
        let (n, q) = (rows.len() / s, qs.len());
        let mut want = vec![0u64; 2 * q * n];
        for (r, row) in rows.chunks_exact(s).enumerate() {
            for (j, x) in qs.iter().enumerate() {
                let (mut total, mut top) = (0u64, 0u64);
                for (r, x) in row.chunks(seg).zip(x.chunks(seg)) {
                    let products = r.iter().zip(x).map(|(&a, &b)| u64::from(a) * u64::from(b));
                    let sum: u64 = products.sum();
                    total += sum;
                    top = top.max(sum);
                }
                (want[n * j + r], want[n * (q + j) + r]) = (total, top);
            }
        }
        want
    };
    let mut next = u12_cells(0xd1b5_4a32_d192_ed03);
    let longest = 3 * 512 + 15;
    let mixed: Vec<u16> = (0..10 * longest).map(|_| next()).collect();
    let (full, empty) = (vec![kern::U12_MAX; 10 * longest], vec![0u16; 10 * longest]);
    let tiers = supported_backends();
    for seg in 1..=512 {
        for s in [seg, 3 * seg + 15] {
            for cells in [&full, &empty, &mixed] {
                let qs: Vec<&[u16]> = cells[2 * s..].chunks_exact(s).take(8).collect();
                for q in 1..=8 {
                    let (rows, qs) = (&cells[..2 * s], &qs[..q]);
                    let want = reference(rows, s, qs, seg);
                    let prepared = kern::U12Queries::new(s, qs);
                    for &tier in &tiers {
                        let mut out = vec![u64::MAX; want.len()];
                        kern::with_backend(tier, || {
                            kern::dot_multi_u12(rows, &prepared, seg, &mut out)
                        });
                        assert_eq!(out, want, "{} seg={seg} s={s} q={q}", tier.name());
                    }
                }
            }
        }
    }
}

/// Every cell at 4 095 over rows and segments far past the SIMD bodies'
/// `i32` fold interval (16 steps of 16 cells), for one to eight queries,
/// and two 420-cell rows on 256-cell segments, the serving shape.
#[test]
fn dot_multi_u12_is_exact_past_its_fold_interval() {
    let _g = lock();
    let full = vec![kern::U12_MAX; 140_001];
    for q in 1..=8 {
        check_multi_u12(&full, full.len(), &vec![&full[..]; q], 70_000);
        check_multi_u12(&full[..840], 420, &vec![&full[..420]; q], 256);
    }
}

/// Every operand at its maximum with `b + i + ⌈log₂ len⌉` exactly 53,
/// for every query count and row widths from 31 bits down: the largest
/// sums the bound admits come back exact.
#[test]
fn dot_multi_f64_is_exact_at_the_bound() {
    let _g = lock();
    for (len, seg) in [
        (1usize, 1usize),
        (5, 4),
        (48, 24),
        (256, 256),
        (420, 256),
        (1024, 256),
    ] {
        for stored_bits in [31u32, 27, 22] {
            let input_bits = 53 - stored_bits - log2_ceil(len);
            let row = vec![u32::MAX >> (32 - stored_bits); len];
            let query = vec![u32::MAX >> (32 - input_bits); len];
            for q in 1..=kern::MULTI_QUERIES {
                check_multi(&row, &vec![&query[..]; q], seg);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End-to-end kNN: forcing `scalar` vs leaving the detected backend
    /// yields the same neighbors (to the bit), the same `OpCounters`,
    /// and the same FNV-1a result hash — and the hash is invariant under
    /// `SIMPIM_THREADS` 1 vs 4 on both backends, since simpim-par chunk
    /// boundaries are worker-count independent and each chunk reduces
    /// through the same kernels.
    #[test]
    fn knn_hash_identical_scalar_vs_dispatched(seed in 0u64..1000, k in 1usize..=15) {
        let _g = lock();
        let (ds, q) = workload(seed);
        let cascade = fnn_cascade(&ds).unwrap();
        let auto = kern::backend();
        let run = |backend: Backend, threads: usize| {
            kern::with_backend(backend, || {
                par::with_threads(threads, || {
                    knn_cascade(&ds, &cascade, &q, k, Measure::EuclideanSq).unwrap()
                })
            })
        };
        let scalar_1 = run(Backend::Scalar, 1);
        let auto_1 = run(auto, 1);
        assert_same_knn(&scalar_1, &auto_1, "scalar vs dispatched (1 thread)");
        let hash = fnv1a_knn(&scalar_1);
        for (backend, threads) in [(Backend::Scalar, 4), (auto, 4)] {
            let r = run(backend, threads);
            prop_assert_eq!(
                fnv1a_knn(&r),
                hash,
                "result hash for {} x {} threads",
                backend.name(),
                threads
            );
        }
    }

    /// All four k-means variants produce identical assignments, inertia
    /// bits and `OpCounters` whether the assignment-step distances run
    /// on the scalar reference or the detected SIMD backend.
    #[test]
    fn kmeans_bit_identical_scalar_vs_dispatched(seed in 0u64..1000, k in 2usize..=8) {
        let _g = lock();
        let (ds, _) = workload(seed);
        let cfg = KmeansConfig { k, max_iters: 12, seed: 7 };
        let auto = kern::backend();
        type Algo = fn(&Dataset, &KmeansConfig) -> KmeansResult;
        let algos: [(&str, Algo); 4] = [
            ("lloyd", |d, c| kmeans_lloyd(d, c, None).unwrap()),
            ("elkan", |d, c| kmeans_elkan(d, c, None).unwrap()),
            ("drake", |d, c| kmeans_drake(d, c, None).unwrap()),
            ("yinyang", |d, c| kmeans_yinyang(d, c, None).unwrap()),
        ];
        for (name, algo) in algos {
            let s = kern::with_backend(Backend::Scalar, || algo(&ds, &cfg));
            let d = kern::with_backend(auto, || algo(&ds, &cfg));
            assert_same_kmeans(&s, &d, &format!("{name} scalar vs dispatched"));
        }
    }
}

/// `euclidean_sq_until` is `euclidean_sq` or a proof that it is above
/// the limit, and the same of the two on every tier: lengths 0..=200 and
/// 960 (whole strides, ragged strides, ragged blocks), five alignments,
/// limits far below, one ulp below, at, one ulp above and far above the
/// true distance, and `+∞`. `Some` carries the canonical bits and is not
/// above the limit; `None` means the distance is. With a NaN operand the
/// distance is NaN, which no limit is below: the tiers still agree, and a
/// finished sum comes back as `Some(NaN)`.
#[test]
fn euclidean_sq_until_is_exact_or_above_limit_on_every_backend() {
    let _g = lock();
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let a: Vec<f64> = (0..964).map(|_| next()).collect();
    let b: Vec<f64> = (0..964).map(|_| next()).collect();
    let on_every_tier = |p: &[f64], q: &[f64], limit: f64| -> Option<f64> {
        let want = scalar::euclidean_sq_until(p, q, limit);
        for backend in supported_backends() {
            let got = kern::with_backend(backend, || kern::euclidean_sq_until(p, q, limit));
            let what = format!("{} len {} limit {limit:e}", backend.name(), p.len());
            assert_eq!(got.is_some(), want.is_some(), "{what}");
            if let (Some(got), Some(want)) = (got, want) {
                assert_bits(got, want, &what);
            }
        }
        want
    };
    for len in (0..=200).chain([960]) {
        for offset in 0..5 {
            let (p, q) = (&a[offset..offset + len], &b[offset..offset + len]);
            let full = scalar::euclidean_sq(p, q);
            let below = if full > 0.0 {
                f64::from_bits(full.to_bits() - 1)
            } else {
                -1.0
            };
            let above = f64::from_bits(full.to_bits() + 1);
            for limit in [
                full * 0.1 - 1e-9,
                below,
                full,
                above,
                full * 2.0 + 1.0,
                f64::INFINITY,
            ] {
                match on_every_tier(p, q, limit) {
                    Some(got) => {
                        assert_eq!(got.to_bits(), full.to_bits(), "len {len} limit {limit:e}");
                        assert!(full <= limit, "len {len}: {full:e} is above {limit:e}");
                    }
                    None => assert!(full > limit, "len {len}: {full:e} abandoned at {limit:e}"),
                }
            }
        }
    }
    // A NaN first, in the second stride, and last in a ragged tail.
    for at in [0, 70, 198] {
        let mut p = a[..199].to_vec();
        p[at] = f64::NAN;
        let q = &b[..199];
        assert!(scalar::euclidean_sq(&p, q).is_nan());
        let finished = on_every_tier(&p, q, f64::INFINITY);
        assert!(
            finished.is_some_and(f64::is_nan),
            "NaN at {at}: {finished:?}"
        );
        for limit in [0.0, 1.0, 30.0] {
            let got = on_every_tier(&p, q, limit);
            assert!(got.is_none_or(f64::is_nan), "NaN at {at}: {got:?}");
        }
        if at == 0 {
            assert!(
                on_every_tier(&p, q, 0.0).is_some(),
                "a NaN lane is never above a limit"
            );
        }
    }
}

/// The bounds the threshold-scan tests build columns of: both
/// infinities, both zeros, finite values and two NaNs.
fn scan_values() -> [f64; 9] {
    let negative_nan = f64::from_bits(0xFFF8_0000_0000_0000);
    [
        f64::NEG_INFINITY,
        -1.0,
        -0.0,
        0.0,
        0.5,
        1.0,
        f64::INFINITY,
        f64::NAN,
        negative_nan,
    ]
}

/// The rule the threshold scans keep, written out: strictly after, by
/// value; false for a NaN on either side and for a tie.
fn worse_by_definition(a: f64, b: f64, closer: bool) -> bool {
    if closer {
        a > b
    } else {
        a < b
    }
}

/// `mask_kept` on every tier against the `!worse` definition, bit for
/// bit, walked whole: every column length 0..=130 (whole words, ragged
/// words, and the ragged groups of four inside them), each of the nine
/// values at every position (nine shifts of one column), cuts and floors
/// at every one of those values (ties with the column's copies, ±0.0, ±∞,
/// NaN) and at one between them, no floor, and both directions. No bit
/// past the masks' words is written. `scalar::worse` is the definition
/// on every pair of the values.
#[test]
fn mask_kept_sets_the_bits_of_the_worse_rule_on_every_tier() {
    let _g = lock();
    let values = scan_values();
    for closer in [true, false] {
        for a in values {
            for b in values {
                let want = worse_by_definition(a, b, closer);
                assert_eq!(scalar::worse(a, b, closer), want, "{a} {b} closer {closer}");
            }
        }
    }
    let tiers = supported_backends();
    let cuts: Vec<f64> = values.into_iter().chain([0.75]).collect();
    let floors: Vec<Option<f64>> = std::iter::once(None)
        .chain(cuts.iter().copied().map(Some))
        .collect();
    for shift in 0..values.len() {
        let col: Vec<f64> = (0..130)
            .map(|i| values[(5 * i + shift) % values.len()])
            .collect();
        for closer in [true, false] {
            let worse = |a, b| worse_by_definition(a, b, closer);
            for &cut in &cuts {
                for &floor in &floors {
                    let keep = |v| !worse(v, cut) && floor.is_none_or(|f| worse(v, f));
                    let mut want = [0u64; 3];
                    for (i, &v) in col.iter().enumerate() {
                        want[i / 64] |= u64::from(keep(v)) << (i % 64);
                    }
                    for len in 0..=col.len() {
                        // The bits of the first `len` bounds.
                        let words = len.div_ceil(64);
                        let mut want = want;
                        if len % 64 != 0 {
                            want[words - 1] &= (1 << (len % 64)) - 1;
                        }
                        for &tier in &tiers {
                            let mut out = [u64::MAX; 4];
                            kern::with_backend(tier, || {
                                kern::mask_kept(&col[..len], cut, floor, closer, &mut out)
                            });
                            let what = format!(
                                "{} len {len} shift {shift} cut {cut} floor {floor:?} closer {closer}",
                                tier.name()
                            );
                            assert_eq!(out[..words], want[..words], "{what}");
                            assert!(
                                out[words..].iter().all(|&w| w == u64::MAX),
                                "{what}: past the masks"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `first_not_worse` on every tier against its definition, walked whole:
/// every column length 0..=130 (whole chunks of eight and a ragged last
/// one), each position holding the one bound that is not worse than the
/// cut — a tie, the other signed zero of a zero cut, or a NaN — among
/// bounds that all are (each worse value in turn), or none; cuts at 0.5,
/// ±0.0, ±∞ and NaN (which nothing is worse than, so nothing is passed
/// over), both directions, and a start at 0, at the chunk of that bound,
/// past it and past the column. No chunk holding a tie or a NaN is ever
/// passed over.
#[test]
fn first_not_worse_never_passes_over_a_tie_or_a_nan() {
    let _g = lock();
    let tiers = supported_backends();
    let values = scan_values();
    for closer in [true, false] {
        let worse = |a, b| worse_by_definition(a, b, closer);
        for cut in [0.5, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let fillers: Vec<f64> = values.into_iter().filter(|&v| worse(v, cut)).collect();
            let mut kept = vec![cut, f64::NAN];
            if cut == 0.0 {
                kept.push(-cut);
            }
            assert!(kept.iter().all(|&v| !worse(v, cut)));
            for len in 0..=130usize {
                let chunks = len.div_ceil(kern::SKIP_CHUNK);
                for at in std::iter::once(None).chain((0..len).map(Some)) {
                    for &one in &kept[..if at.is_some() { kept.len() } else { 1 }] {
                        let col: Vec<f64> = (0..len)
                            .map(|i| match fillers.len() {
                                _ if Some(i) == at => one,
                                0 => one,
                                n => fillers[i % n],
                            })
                            .collect();
                        let holds = |c: usize| {
                            let chunk = col.chunks(kern::SKIP_CHUNK).nth(c);
                            chunk.is_some_and(|chunk| chunk.iter().any(|&v| !worse(v, cut)))
                        };
                        let near = at.map_or(0, |at| at / kern::SKIP_CHUNK);
                        for from in [0, near, near + 1, chunks + 1] {
                            let want = (from..chunks)
                                .find(|&c| holds(c))
                                .unwrap_or(from.max(chunks));
                            if let Some(at) = at {
                                let c = at / kern::SKIP_CHUNK;
                                assert!(from > c || want <= c, "the chunk of {at} is passed over");
                            }
                            for &tier in &tiers {
                                let got = kern::with_backend(tier, || {
                                    kern::first_not_worse(&col, from, cut, closer)
                                });
                                assert_eq!(
                                    got,
                                    want,
                                    "{} len {len} at {at:?} = {one} cut {cut} from {from} closer {closer}",
                                    tier.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `SIMPIM_KERNEL` accepts exactly auto|scalar|sse2|avx2|neon (any
/// case), maps `auto`/empty to detection, and rejects everything else —
/// the contract the CI determinism job leans on when it runs the sweep
/// twice under different values.
#[test]
fn env_knob_spelling() {
    assert_eq!(Backend::parse("auto"), Some(None));
    assert_eq!(Backend::parse(""), Some(None));
    assert_eq!(Backend::parse("scalar"), Some(Some(Backend::Scalar)));
    assert_eq!(Backend::parse("SSE2"), Some(Some(Backend::Sse2)));
    assert_eq!(Backend::parse("avx2"), Some(Some(Backend::Avx2)));
    assert_eq!(Backend::parse("Neon"), Some(Some(Backend::Neon)));
    assert_eq!(Backend::parse("avx512"), None);
}

/// Forcing a tier the CPU cannot run degrades to scalar instead of
/// crashing (the same clamp `SIMPIM_KERNEL` applies).
#[test]
fn unsupported_override_degrades_to_scalar() {
    let _g = lock();
    for b in Backend::ALL {
        if !b.is_supported() {
            let active = kern::with_backend(b, kern::backend);
            assert_eq!(active, Backend::Scalar, "forcing {}", b.name());
        }
    }
}
