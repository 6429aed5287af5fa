//! Runtime-dispatched SIMD distance kernels.
//!
//! The paper's speedups come from wide in-situ MACs; a credible host
//! baseline has to be vectorized too, or every reported PIM speedup is
//! inflated. This crate owns the workspace's distance inner loops — f64
//! `dot` / `norm_sq` / fused dot+norm / squared Euclidean (and its
//! early-abandoning form [`euclidean_sq_until`]), the packed
//! u64 popcount MACs behind Hamming distance and the bit-sliced crossbar
//! model, and the exact integer MACs the array-level crossbar pass runs
//! on ([`dot_multi_f64`] for one to eight queries per row load where
//! its sums stay below 2⁵³, [`dot_u32`] elsewhere, one query at a time,
//! [`dot_multi_u8`] for the coarse 8-bit plane read
//! before it), and the integer cell-plane bound a serving
//! shard tests before an exact distance ([`cell_bound_multi`]) — as a
//! [`KernelBackend`] vtable selected
//! **once** at startup:
//!
//! * `x86_64` with `is_x86_feature_detected!("avx2")`: AVX2 (4×f64 per
//!   register, Mula `pshufb` popcount; the multi-query MAC on FMA when
//!   `fma` is detected too).
//! * everything else, pre-AVX2 `x86_64` and `aarch64` included: the
//!   portable chunked [`scalar`] kernels, whose bits the AVX2 tier
//!   matches. (`sse2` and `neon` are still names `SIMPIM_KERNEL` accepts,
//!   but neither tier is built: both degrade to `scalar` like any tier
//!   the CPU cannot run.)
//!
//! **Bit-identity is the contract.** Every backend reproduces the scalar
//! kernels' exact operation sequence: 4 accumulator lanes over 4-element
//! blocks, per-lane `mul` then `add` (never FMA), the `(l0+l1)+(l2+l3)`
//! fold, and one shared serial tail ([`scalar::fold_tail`]). Packed IEEE
//! ops have identical per-lane semantics to their scalar forms — NaN
//! payloads, signed zeros and subnormals included — so a dispatched
//! result is the same *bits* as the scalar result, which in turn keeps
//! results invariant across machines, thread counts (`simpim-par` chunks
//! never change), and `SIMPIM_KERNEL` settings. The integer kernels are
//! identical by construction instead: they sum exact integers modulo
//! 2⁶⁴, which is associative, so lane layout and fold order are free.
//! [`dot_multi_f64`] sums integers in `f64` below 2⁵³, where nothing
//! rounds — the one place a fused multiply-add is the same as `mul` then
//! `add`. The proptest suite in `tests/kernels.rs` enforces all three.
//!
//! Selection order: [`set_backend_override`] / [`with_backend`] (tests,
//! benches) > the `SIMPIM_KERNEL` environment variable
//! (`auto|scalar|sse2|avx2|neon`) > best detected. A forced backend the
//! CPU cannot run degrades to `scalar` with a warning rather than
//! faulting. The active backend is exported as the
//! `simpim.kern.backend` gauge (via [`publish_metrics`]) and recorded in
//! every `BENCH_*.json` artifact's config section.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod x86;

/// Re-export of the canonical lane count (4) of the chunked layout.
pub use scalar::{U8Queries, LANES, MULTI_QUERIES};

/// Identifies one kernel backend tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable chunked Rust — the reference, available everywhere.
    Scalar,
    /// x86_64 SSE2 — a name only: no SSE2 tier is built, so it is never
    /// supported and a request for it degrades to [`Backend::Scalar`].
    Sse2,
    /// x86_64 AVX2: one 4×f64 register per lane set, `pshufb` popcount.
    Avx2,
    /// aarch64 NEON — a name only: no NEON tier is built, so it is never
    /// supported and a request for it degrades to [`Backend::Scalar`].
    Neon,
}

impl Backend {
    /// All tiers, in ascending capability order.
    pub const ALL: [Backend; 4] = [Backend::Scalar, Backend::Sse2, Backend::Avx2, Backend::Neon];

    /// Stable lowercase name, as accepted by `SIMPIM_KERNEL` and stamped
    /// into artifacts.
    pub fn name(self) -> &'static str {
        ["scalar", "sse2", "avx2", "neon"][self as usize]
    }

    /// Numeric code for the `simpim.kern.backend` gauge (scalar=0,
    /// sse2=1, avx2=2, neon=3): the tier's place in [`Backend::ALL`].
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses a `SIMPIM_KERNEL` value (any case). `Some(None)` means
    /// `auto` (detect), `None` means unrecognized.
    pub fn parse(s: &str) -> Option<Option<Backend>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Some(None),
            name => Self::ALL.into_iter().find(|b| b.name() == name).map(Some),
        }
    }

    /// `true` when the running CPU can execute this tier.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2"),
            _ => false,
        }
    }
}

/// The signature of [`dot_multi_f64`]: a row, its queries, the segment
/// length, the output.
pub type MultiF64 = fn(&[u32], &[&[f64]], usize, &mut [f64]);

/// The signature of [`dot_multi_u8`]: a block of rows, the queries
/// prepared for it, the segment length, the output.
pub type MultiU8 = fn(&[u8], &U8Queries, usize, &mut [u64]);

/// The dispatched kernel table: plain function pointers, one indirect
/// call per kernel invocation, resolved once per backend.
#[derive(Clone, Copy)]
pub struct KernelBackend {
    /// Which tier these pointers implement.
    pub backend: Backend,
    /// Dot product `Σ aᵢ·bᵢ`.
    pub dot: fn(&[f64], &[f64]) -> f64,
    /// Squared L2 norm `Σ xᵢ²`.
    pub norm_sq: fn(&[f64]) -> f64,
    /// Fused `(dot(a, b), norm_sq(a))` in one pass over `a`.
    pub dot_norm_sq: fn(&[f64], &[f64]) -> (f64, f64),
    /// Squared Euclidean distance `Σ (pᵢ − qᵢ)²`.
    pub euclidean_sq: fn(&[f64], &[f64]) -> f64,
    /// `euclidean_sq`, or `None` as soon as it is seen to exceed a limit.
    pub euclidean_sq_until: fn(&[f64], &[f64], f64) -> Option<f64>,
    /// Hamming MAC `Σ popcount(aᵢ XOR bᵢ)` over packed u64 words.
    pub xor_popcount: fn(&[u64], &[u64]) -> u64,
    /// Bit-serial MAC `Σ popcount(aᵢ AND bᵢ)` over packed u64 words.
    pub and_popcount: fn(&[u64], &[u64]) -> u64,
    /// Exact integer MAC `Σ aᵢ·bᵢ` of u32 operands, modulo 2⁶⁴.
    pub dot_u32: fn(&[u32], &[u32]) -> u64,
    /// The multi-query MAC of [`scalar::dot_multi_f64`], where this tier
    /// has one that beats a [`dot_u32`] per query (AVX2 with FMA); `None`
    /// elsewhere, and the crossbar pass then makes those calls.
    pub dot_multi_f64: Option<MultiF64>,
    /// The coarse crossbar pass's MACs of [`scalar::dot_multi_u8`].
    pub dot_multi_u8: MultiU8,
    /// The cell-plane bound sums of [`scalar::cell_bound_multi`].
    pub cell_bound_multi: fn(&[u8], &[&[u8]], &mut [u64]),
}

impl std::fmt::Debug for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelBackend")
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

const SCALAR_TABLE: KernelBackend = KernelBackend {
    backend: Backend::Scalar,
    dot: scalar::dot,
    norm_sq: scalar::norm_sq,
    dot_norm_sq: scalar::dot_norm_sq,
    euclidean_sq: scalar::euclidean_sq,
    euclidean_sq_until: scalar::euclidean_sq_until,
    xor_popcount: scalar::xor_popcount,
    and_popcount: scalar::and_popcount,
    dot_u32: scalar::dot_u32,
    dot_multi_f64: None,
    dot_multi_u8: scalar::dot_multi_u8,
    cell_bound_multi: scalar::cell_bound_multi,
};

// Safe trampolines: each is installed in a table only after the matching
// CPU feature was detected, which is exactly the precondition the
// `unsafe` target-feature functions document.
#[cfg(target_arch = "x86_64")]
mod x86_dispatch {
    use super::{x86, U8Queries};

    macro_rules! trampoline {
        ($name:ident, $path:path, ($($arg:ident: $ty:ty),+) -> $ret:ty) => {
            pub fn $name($($arg: $ty),+) -> $ret {
                // Safety: installed only after feature detection.
                unsafe { $path($($arg),+) }
            }
        };
    }

    trampoline!(dot_avx2, x86::avx2::dot, (a: &[f64], b: &[f64]) -> f64);
    trampoline!(norm_sq_avx2, x86::avx2::norm_sq, (xs: &[f64]) -> f64);
    trampoline!(dot_norm_sq_avx2, x86::avx2::dot_norm_sq, (a: &[f64], b: &[f64]) -> (f64, f64));
    trampoline!(euclidean_sq_avx2, x86::avx2::euclidean_sq, (p: &[f64], q: &[f64]) -> f64);
    trampoline!(euclidean_sq_until_avx2, x86::avx2::euclidean_sq_until, (p: &[f64], q: &[f64], limit: f64) -> Option<f64>);
    trampoline!(xor_popcount_avx2, x86::avx2::xor_popcount, (a: &[u64], b: &[u64]) -> u64);
    trampoline!(and_popcount_avx2, x86::avx2::and_popcount, (a: &[u64], b: &[u64]) -> u64);
    trampoline!(dot_u32_avx2, x86::avx2::dot_u32, (a: &[u32], b: &[u32]) -> u64);
    trampoline!(dot_multi_f64_fma, x86::avx2::dot_multi_f64, (row: &[u32], qs: &[&[f64]], seg: usize, out: &mut [f64]) -> ());
    trampoline!(dot_multi_u8_avx2, x86::avx2::dot_multi_u8, (rows: &[u8], qs: &U8Queries, seg: usize, out: &mut [u64]) -> ());
    trampoline!(cell_bound_multi_avx2, x86::avx2::cell_bound_multi, (row: &[u8], qs: &[&[u8]], out: &mut [u64]) -> ());
}

/// Builds the vtable for a tier the running CPU supports.
fn table(b: Backend) -> KernelBackend {
    match b {
        Backend::Scalar => SCALAR_TABLE,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => KernelBackend {
            backend: Backend::Avx2,
            dot: x86_dispatch::dot_avx2,
            norm_sq: x86_dispatch::norm_sq_avx2,
            dot_norm_sq: x86_dispatch::dot_norm_sq_avx2,
            euclidean_sq: x86_dispatch::euclidean_sq_avx2,
            euclidean_sq_until: x86_dispatch::euclidean_sq_until_avx2,
            xor_popcount: x86_dispatch::xor_popcount_avx2,
            and_popcount: x86_dispatch::and_popcount_avx2,
            dot_u32: x86_dispatch::dot_u32_avx2,
            // An AVX2 CPU without FMA keeps the per-query `dot_u32`.
            dot_multi_f64: is_x86_feature_detected!("fma")
                .then_some(x86_dispatch::dot_multi_f64_fma as _),
            dot_multi_u8: x86_dispatch::dot_multi_u8_avx2,
            cell_bound_multi: x86_dispatch::cell_bound_multi_avx2,
        },
        _ => SCALAR_TABLE,
    }
}

/// Best tier the running CPU supports, ignoring overrides.
pub fn detected_backend() -> Backend {
    let best = Backend::ALL.into_iter().rev().find(|b| b.is_supported());
    best.unwrap_or(Backend::Scalar)
}

/// 0 = no override; otherwise `backend.code() + 1`.
static BACKEND_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static WARNED: AtomicBool = AtomicBool::new(false);

fn warn_once(msg: &str) {
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!("warning: simpim-kern: {msg}");
    }
}

/// Clamps a requested tier to something the CPU can run. An unsupported
/// request degrades to `scalar` (always correct, and the honest answer
/// when the caller explicitly asked to leave `auto`).
fn normalize(b: Backend, origin: &str) -> Backend {
    if b.is_supported() {
        b
    } else {
        warn_once(&format!(
            "{origin} requested backend '{}', which this build does not run on this CPU; using 'scalar'",
            b.name()
        ));
        Backend::Scalar
    }
}

fn env_default() -> Backend {
    static ENV: OnceLock<Backend> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("SIMPIM_KERNEL") {
        Err(_) => detected_backend(),
        Ok(v) => match Backend::parse(&v) {
            Some(None) => detected_backend(),
            Some(Some(b)) => normalize(b, "SIMPIM_KERNEL"),
            None => {
                warn_once(&format!(
                    "SIMPIM_KERNEL='{v}' is not one of auto|scalar|sse2|avx2|neon; using auto"
                ));
                detected_backend()
            }
        },
    })
}

/// The backend every dispatched kernel call uses right now.
///
/// Priority: [`set_backend_override`] > `SIMPIM_KERNEL` > best detected.
pub fn backend() -> Backend {
    let ovr = BACKEND_OVERRIDE.load(Ordering::Relaxed);
    if ovr != 0 {
        return Backend::ALL[usize::from(ovr - 1)];
    }
    env_default()
}

/// Stable name of the active backend (`scalar|avx2`), as stamped into
/// artifact config sections.
pub fn backend_name() -> &'static str {
    backend().name()
}

/// Programmatically pins the backend (`None` restores `SIMPIM_KERNEL` /
/// auto-detection). Unsupported tiers degrade to `scalar` with a
/// warning. Used by the bit-identity proptests and `kernel_sweep` to
/// compare tiers within one process without racing on the environment —
/// callers serialize exactly as they do for `simpim_par::with_threads`.
pub fn set_backend_override(b: Option<Backend>) {
    let code = match b {
        None => 0,
        Some(b) => normalize(b, "override").code() + 1,
    };
    BACKEND_OVERRIDE.store(code, Ordering::Relaxed);
}

/// Runs `f` with the backend pinned to `b` (clamped to a supported
/// tier), restoring the previous override afterwards — even on panic,
/// via a drop guard.
pub fn with_backend<T>(b: Backend, f: impl FnOnce() -> T) -> T {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            BACKEND_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let code = normalize(b, "override").code() + 1;
    let _guard = Restore(BACKEND_OVERRIDE.swap(code, Ordering::Relaxed));
    f()
}

/// The active vtable. Tables are built once per tier and cached.
pub fn kernels() -> &'static KernelBackend {
    static TABLES: [OnceLock<KernelBackend>; 4] = [const { OnceLock::new() }; 4];
    let b = backend();
    TABLES[b.code() as usize].get_or_init(|| table(b))
}

/// Exports the active backend as the `simpim.kern.backend` gauge
/// (scalar=0, avx2=2; the name-only tiers' codes never show). Bench
/// harnesses call this right after resetting the metrics registry so the
/// artifact snapshot carries the backend that actually ran.
pub fn publish_metrics() {
    simpim_obs::metrics::gauge_set("simpim.kern.backend", f64::from(backend().code()));
}

/// Dispatched dot product `Σ aᵢ·bᵢ` — bit-identical to
/// [`scalar::dot`] on every backend.
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    (kernels().dot)(a, b)
}

/// Dispatched squared L2 norm `Σ xᵢ²` — bit-identical to
/// [`scalar::norm_sq`] on every backend.
#[inline]
pub fn norm_sq(xs: &[f64]) -> f64 {
    (kernels().norm_sq)(xs)
}

/// Dispatched fused `(dot(a, b), norm_sq(a))` — bit-identical to
/// `(dot(a, b), norm_sq(a))` on every backend.
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn dot_norm_sq(a: &[f64], b: &[f64]) -> (f64, f64) {
    (kernels().dot_norm_sq)(a, b)
}

/// Dispatched squared Euclidean distance `Σ (pᵢ − qᵢ)²` — bit-identical
/// to [`scalar::euclidean_sq`] on every backend.
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn euclidean_sq(p: &[f64], q: &[f64]) -> f64 {
    (kernels().euclidean_sq)(p, q)
}

/// Dispatched [`euclidean_sq`] that abandons: `Some` of the same bits
/// unless the distance is above `limit`, and then `None` as soon as a
/// partial fold shows it — see [`scalar::euclidean_sq_until`]. The same
/// outcome on every backend.
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn euclidean_sq_until(p: &[f64], q: &[f64], limit: f64) -> Option<f64> {
    (kernels().euclidean_sq_until)(p, q, limit)
}

/// Dispatched Hamming MAC `Σ popcount(aᵢ XOR bᵢ)` — exact on every
/// backend.
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
    (kernels().xor_popcount)(a, b)
}

/// Dispatched bit-serial MAC `Σ popcount(aᵢ AND bᵢ)` — exact on every
/// backend.
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    (kernels().and_popcount)(a, b)
}

/// Dispatched exact integer MAC `Σ aᵢ·bᵢ` of u32 operands, summed
/// modulo 2⁶⁴ — identical to [`scalar::dot_u32`] on every backend.
///
/// # Panics
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn dot_u32(a: &[u32], b: &[u32]) -> u64 {
    (kernels().dot_u32)(a, b)
}

/// Dispatched [`scalar::dot_multi_f64`]: one row against up to eight
/// queries, per query the exact dot product and its largest segment sum —
/// the same values on every backend under that function's bound. Tiers
/// without a multi-query form of their own run the portable one.
///
/// # Panics
/// Panics when `seg` is 0, when `qs` holds more than [`MULTI_QUERIES`]
/// queries, or when `out` is shorter than two values per query.
#[inline]
pub fn dot_multi_f64(row: &[u32], qs: &[&[f64]], seg: usize, out: &mut [f64]) {
    kernels().dot_multi_f64.unwrap_or(scalar::dot_multi_f64)(row, qs, seg, out)
}

/// Dispatched [`scalar::dot_multi_u8`]: a block of rows of `u8` plane
/// cells against up to eight queries' cells, prepared once by the caller
/// as a [`U8Queries`], per row and query the dot product and its largest
/// `seg`-cell segment sum — the same integers on every backend.
///
/// # Panics
/// Panics when `seg` is 0, when `rows` is not whole rows of `qs.dim()`
/// cells, or when `out` is shorter than two values a row and query.
#[inline]
pub fn dot_multi_u8(rows: &[u8], qs: &U8Queries, seg: usize, out: &mut [u64]) {
    (kernels().dot_multi_u8)(rows, qs, seg, out)
}

/// Dispatched [`scalar::cell_bound_multi`]: one row of `u8` cells against
/// up to eight queries' cells, per query `Σ max(|rᵢ − qᵢ| − 1, 0)²` — the
/// same integers on every backend.
///
/// # Panics
/// Panics when `qs` holds more than [`MULTI_QUERIES`] queries, or when
/// `out` is shorter than `qs`.
#[inline]
pub fn cell_bound_multi(row: &[u8], qs: &[&[u8]], out: &mut [u64]) {
    (kernels().cell_bound_multi)(row, qs, out)
}

/// Asks the CPU to start loading `data` into its nearest cache, one
/// hint per 64-byte line; returns at once and changes no result. The
/// multi-query crossbar pass issues it for a row a few past the one it is
/// multiplying. Does nothing where no hint instruction is wired up.
#[inline]
pub fn prefetch(data: &[u32]) {
    #[cfg(target_arch = "x86_64")]
    for line in data.chunks(16) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `prefetcht0` is SSE, baseline on x86_64; it reads no
        // memory architecturally and cannot fault, and the address is
        // inside `data` besides.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The override is process-global; tests that touch it serialize.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn vecs(len: usize) -> (Vec<f64>, Vec<f64>) {
        let a = (0..len).map(|i| (i as f64).sin() * 3.7 - 1.0).collect();
        let b = (0..len).map(|i| (i as f64).cos() * 2.3 + 0.5).collect();
        (a, b)
    }

    fn words(len: usize) -> (Vec<u64>, Vec<u64>) {
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        (
            (0..len).map(|_| next()).collect(),
            (0..len).map(|_| next()).collect(),
        )
    }

    #[test]
    fn every_supported_backend_is_bit_identical_to_scalar() {
        let _g = test_lock();
        for b in Backend::ALL {
            if !b.is_supported() {
                continue;
            }
            with_backend(b, || {
                assert_eq!(backend(), b);
                for len in 0..=4 * LANES + 3 {
                    let (x, y) = vecs(len);
                    let (w, v) = words(len);
                    assert_eq!(dot(&x, &y).to_bits(), scalar::dot(&x, &y).to_bits());
                    assert_eq!(norm_sq(&x).to_bits(), scalar::norm_sq(&x).to_bits());
                    let (d, n) = dot_norm_sq(&x, &y);
                    assert_eq!(d.to_bits(), scalar::dot(&x, &y).to_bits());
                    assert_eq!(n.to_bits(), scalar::norm_sq(&x).to_bits());
                    assert_eq!(
                        euclidean_sq(&x, &y).to_bits(),
                        scalar::euclidean_sq(&x, &y).to_bits()
                    );
                    assert_eq!(xor_popcount(&w, &v), scalar::xor_popcount(&w, &v));
                    assert_eq!(and_popcount(&w, &v), scalar::and_popcount(&w, &v));
                    // The words' low halves: full-range u32 operands.
                    let (p, q): (Vec<u32>, Vec<u32>) = w
                        .iter()
                        .zip(&v)
                        .map(|(&x, &y)| (x as u32, y as u32))
                        .unzip();
                    assert_eq!(dot_u32(&p, &q), scalar::dot_u32(&p, &q));
                    // 20-bit operands: every MAC is exact in f64.
                    let (p, q): (Vec<u32>, Vec<u32>) =
                        p.iter().zip(&q).map(|(&x, &y)| (x >> 12, y >> 12)).unzip();
                    let (pq, pp) = (scalar::dot_u32(&p, &q), scalar::dot_u32(&p, &p));
                    let [qf, pf] =
                        [&q, &p].map(|v| v.iter().map(|&x| f64::from(x)).collect::<Vec<_>>());
                    let mut out = [f64::NAN; 6];
                    dot_multi_f64(&p, &[&qf, &pf, &qf], len.max(1), &mut out);
                    assert_eq!(out.map(|v| v as u64), [pq, pp, pq, pq, pp, pq]);
                    let [r, c] = [&w, &v].map(|x| x.iter().map(|&x| x as u8).collect::<Vec<_>>());
                    if len > 0 {
                        let (mut got, mut want) = ([0u64; 12], [0u64; 12]);
                        let (half, seg) = (len / 2 * 2, len / 2 + 1);
                        if half > 0 {
                            let qs = [&c[..len / 2], &r[..len / 2], &c[len / 2..half]];
                            let qs = U8Queries::new(len / 2, &qs);
                            dot_multi_u8(&r[..half], &qs, seg, &mut got);
                            scalar::dot_multi_u8(&r[..half], &qs, seg, &mut want);
                            assert_eq!(got, want);
                        }
                    }
                    let (mut got, mut want) = ([0u64; 3], [0u64; 3]);
                    cell_bound_multi(&r, &[&c, &r, &c[..len / 2]], &mut got);
                    scalar::cell_bound_multi(&r, &[&c, &r, &c[..len / 2]], &mut want);
                    assert_eq!(got, want);
                }
            });
        }
    }

    #[test]
    fn override_wins_and_restores() {
        let _g = test_lock();
        let ambient = backend();
        let inside = with_backend(Backend::Scalar, backend);
        assert_eq!(inside, Backend::Scalar);
        assert_eq!(backend(), ambient);
        set_backend_override(Some(Backend::Scalar));
        assert_eq!(backend(), Backend::Scalar);
        set_backend_override(None);
        assert_eq!(backend(), ambient);
    }

    #[test]
    fn parse_accepts_all_names() {
        assert_eq!(Backend::parse("auto"), Some(None));
        assert_eq!(Backend::parse(""), Some(None));
        assert_eq!(Backend::parse(" AVX2 "), Some(Some(Backend::Avx2)));
        assert_eq!(Backend::parse("scalar"), Some(Some(Backend::Scalar)));
        assert_eq!(Backend::parse("sse2"), Some(Some(Backend::Sse2)));
        assert_eq!(Backend::parse("neon"), Some(Some(Backend::Neon)));
        assert_eq!(Backend::parse("mmx"), None);
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(Some(b)));
            assert_eq!(Backend::ALL[usize::from(b.code())], b);
        }
    }

    #[test]
    fn detected_backend_is_supported_and_tables_match() {
        let _g = test_lock();
        let b = detected_backend();
        assert!(b.is_supported());
        with_backend(b, || {
            assert_eq!(kernels().backend, b);
        });
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert_eq!(b, Backend::Avx2);
        }
    }

    #[test]
    fn unsupported_override_degrades_to_scalar() {
        let _g = test_lock();
        // SSE2 and NEON are names only, never built; on other arches
        // than x86_64 AVX2 is foreign too.
        #[cfg(target_arch = "x86_64")]
        let unbuilt = [Backend::Sse2, Backend::Neon];
        #[cfg(not(target_arch = "x86_64"))]
        let unbuilt = [Backend::Sse2, Backend::Neon, Backend::Avx2];
        for b in unbuilt {
            assert!(!b.is_supported());
            with_backend(b, || {
                assert_eq!(backend(), Backend::Scalar);
                assert_eq!(kernels().backend, Backend::Scalar);
            });
        }
    }

    #[test]
    fn metrics_gauge_reports_backend_code() {
        let _g = test_lock();
        with_backend(Backend::Scalar, || {
            simpim_obs::metrics::reset();
            publish_metrics();
            let snap = simpim_obs::metrics::snapshot();
            assert_eq!(snap.gauge("simpim.kern.backend"), Some(0.0));
        });
    }
}
