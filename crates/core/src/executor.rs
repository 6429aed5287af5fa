//! The PIM executor: Fig. 9's offline/online pipeline.
//!
//! **Offline**: normalize + α-quantize the dataset, compute the Φ scalars,
//! choose the compressed dimensionality `s` (Theorem 4), program the floor
//! vectors onto PIM-array regions and stage the Φ table in the memory
//! array.
//!
//! **Online**: a query arrives → quantize it once (`Φ(q̄)`, `⌊q̄⌋`) → issue
//! one dot-product batch per region → combine with `G` on the host. The
//! host reads only the Φ scalar and the dot result(s) per object —
//! `3·b` bits instead of `d·b` (Fig. 8).
//!
//! Five prepared-function shapes — rows of Table 4 — cover the paper's
//! workloads. Each is described once, by the private methods of
//! [`PreparedFunction`]; one pass (`PimExecutor::bound_pass`) serves them
//! all:
//!
//! | shape | regions | bound produced |
//! |---|---|---|
//! | `Ed` | `⌊p̄⌋` | `LB_PIM-ED` (Theorem 1), when the dataset fits at `s = d` |
//! | `Fnn` | `⌊µ(p̂)⌋`, `⌊σ(p̂)⌋` | `LB_PIM-FNN^s` (Theorem 2) |
//! | `Sm` | `⌊µ(p̂)⌋` | `LB_PIM-SM^s`, when even the µ/σ pair does not fit |
//! | `Dot` | `⌊p̄⌋` | `UB_PIM-CS` / `UB_PIM-PCC` |
//! | `Hamming` | code, complement | exact HD (Table 4) |

use std::ops::Range;

use crate::error::CoreError;
use crate::memory::{choose_dimensionality, resident_plan, MemoryPlan, ResidentShapeChoice};
use crate::pim_bounds::{
    host_floor_dot, lb_pim_ed_guarded, lb_pim_fnn_guarded, lb_pim_sm_guarded, ub_pim_cs,
    ub_pim_pcc, DotQuant, EdQuant, FnnQuant, SmQuant,
};
use simpim_reram::array::RegionId;
use simpim_reram::{AccWidth, CrossbarHealth, FaultConfig, PimConfig, PimTiming, ReRamBank, Read};
use simpim_similarity::{BinaryDataset, BinaryVecRef, NormalizedDataset, Quantizer};
use simpim_simkit::{FaultCounters, OpCounters};

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorConfig {
    /// Platform (Table 5 defaults).
    pub pim: PimConfig,
    /// Scaling factor α (the paper uses 10⁶).
    pub alpha: f64,
    /// Allocated operand width on crossbars — the paper keeps 32-bit
    /// integers "to keep consistent with host processor".
    pub operand_bits: u32,
    /// Reserve a second copy of every region so the next dataset part can
    /// be programmed while the current one serves queries. With this on,
    /// Theorem 4 reproduces the paper's reported `s` choices (105 for MSD,
    /// 50 for ImageNet).
    pub double_buffer: bool,
    /// Issue multi-region batches (FNN's µ/σ pair, Hamming's
    /// code/complement pair) on their disjoint crossbar groups in
    /// parallel (Section V-C); analog passes overlap, the shared bus does
    /// not. Disable to model strictly serial region execution.
    pub parallel_regions: bool,
    /// Optional hard-fault model (stuck cells, dead lines, ADC glitches,
    /// wear-out — see `simpim-reram::faults`). When set, the executor
    /// scrubs every region after programming, remaps dead crossbars onto
    /// spares, and recovers per-object results so mining stays exact.
    pub faults: Option<FaultConfig>,
    /// Re-scrub (and re-remap) cadence in bound batches; 0 disables
    /// periodic scrubbing (only the post-program scrub runs). Periodic
    /// scrubs catch wear-out that develops while a prepared dataset keeps
    /// serving queries.
    pub scrub_interval: u64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            pim: PimConfig::default(),
            alpha: 1e6,
            operand_bits: 32,
            double_buffer: true,
            parallel_regions: true,
            faults: None,
            scrub_interval: 0,
        }
    }
}

/// What a prepared executor computes per object.
#[derive(Debug, Clone)]
pub enum PreparedFunction {
    /// `LB_PIM-ED` over full-dimensional floors.
    Ed {
        /// The programmed `⌊p̄⌋` region.
        region: RegionId,
        /// `Φ(p̄)` per object.
        phis: Vec<f64>,
        /// Original dimensionality `d`.
        d: usize,
    },
    /// `LB_PIM-FNN^s` over segment statistics.
    Fnn {
        /// The programmed `⌊µ(p̂)⌋` region.
        mu_region: RegionId,
        /// The programmed `⌊σ(p̂)⌋` region.
        sigma_region: RegionId,
        /// `Φ(p̂)` per object.
        phis: Vec<f64>,
        /// Segments `d′ = s`.
        d_prime: usize,
        /// Segment length `l`.
        segment_len: usize,
    },
    /// `LB_PIM-SM^s` over segment means only (one region — fits budgets
    /// the µ/σ pair cannot).
    Sm {
        /// The programmed `⌊µ(p̂)⌋` region.
        mu_region: RegionId,
        /// `Φ(p̂)` per object.
        phis: Vec<f64>,
        /// Segments `d′ = s`.
        d_prime: usize,
        /// Segment length `l`.
        segment_len: usize,
    },
    /// `UB_PIM-CS` or `UB_PIM-PCC` over full-dimensional floors.
    Dot {
        /// The programmed `⌊p̄⌋` region.
        region: RegionId,
        /// Per-object dot summaries (floors dropped to save memory).
        summaries: Vec<DotSummary>,
        /// Original dimensionality `d`.
        d: usize,
        /// Which similarity the bound is lifted to.
        target: SimTarget,
    },
    /// Exact Hamming distance over code + complement regions.
    Hamming {
        /// The programmed code region.
        code_region: RegionId,
        /// The programmed complement region.
        comp_region: RegionId,
        /// Code width in bits.
        d: usize,
    },
}

/// Similarity target of a `Dot` executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimTarget {
    /// Cosine similarity.
    Cosine,
    /// Pearson correlation coefficient.
    Pearson,
}

/// Scalar summary of one object for the CS/PCC bounds (the floor vector
/// itself lives on the crossbars).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DotSummary {
    /// `Σ ⌊p̄ᵢ⌋`.
    pub sum_floor: u64,
    /// `‖p̄‖`.
    pub norm_scaled: f64,
    /// `Σ p̄ᵢ`.
    pub sum_scaled: f64,
}

impl DotSummary {
    /// The scalars of a quantized vector, its floors dropped.
    fn of(dq: &DotQuant) -> Self {
        Self {
            sum_floor: dq.sum_floor,
            norm_scaled: dq.norm_scaled,
            sum_scaled: dq.sum_scaled,
        }
    }

    /// The form the `pim_bounds` functions take (they never read the
    /// floors, and an empty `Vec` does not allocate).
    fn as_quant(&self) -> DotQuant {
        DotQuant {
            floors: Vec::new(),
            sum_floor: self.sum_floor,
            norm_scaled: self.norm_scaled,
            sum_scaled: self.sum_scaled,
        }
    }
}

/// One vector in a row's terms — what [`PreparedFunction::quantise`] makes
/// of a query, an appended row or a row of a streamed block.
#[derive(Debug)]
pub(crate) struct Quantised {
    /// Crossbar operands, one vector per region in call order (the second
    /// stays empty for a single-region row).
    pub(crate) floors: [Vec<u32>; 2],
    /// `Φ` of the vector (`Ed` / `Fnn` / `Sm`).
    pub(crate) phi: f64,
    /// Norm and sums of the vector (`Dot`).
    pub(crate) summary: DotSummary,
}

impl Quantised {
    fn new(floors: [Vec<u32>; 2], phi: f64) -> Self {
        Self {
            floors,
            phi,
            summary: DotSummary::default(),
        }
    }
}

/// A row of Table 4, `F(p, q) = G(Φ(p), Φ(q), p·q)`, described once. The
/// executor's pass, appends, the streamed build and the host-side
/// [`crate::stage::PimStage`] read a shape through these methods only.
impl PreparedFunction {
    /// The regions read online, in call order: µ before σ, code before
    /// complement. The ADC-glitch RNG is a stream, so under faults the
    /// order is part of the result.
    pub(crate) fn regions(&self) -> Vec<RegionId> {
        match self {
            Self::Ed { region, .. } | Self::Dot { region, .. } => vec![*region],
            Self::Fnn {
                mu_region,
                sigma_region,
                ..
            } => vec![*mu_region, *sigma_region],
            Self::Sm { mu_region, .. } => vec![*mu_region],
            Self::Hamming {
                code_region,
                comp_region,
                ..
            } => vec![*code_region, *comp_region],
        }
    }

    /// Dimensionality of the vectors (width of the codes) the row takes.
    pub(crate) fn dim(&self) -> usize {
        match self {
            Self::Ed { d, .. } | Self::Dot { d, .. } | Self::Hamming { d, .. } => *d,
            Self::Fnn {
                d_prime,
                segment_len,
                ..
            }
            | Self::Sm {
                d_prime,
                segment_len,
                ..
            } => d_prime * segment_len,
        }
    }

    /// The bound's name in the paper's notation.
    pub(crate) fn name(&self) -> String {
        match self {
            Self::Ed { .. } => "LB_PIM-ED".to_string(),
            Self::Fnn { d_prime, .. } => format!("LB_PIM-FNN^{d_prime}"),
            Self::Sm { d_prime, .. } => format!("LB_PIM-SM^{d_prime}"),
            Self::Dot { target, .. } => match target {
                SimTarget::Cosine => "UB_PIM-CS".to_string(),
                SimTarget::Pearson => "UB_PIM-PCC".to_string(),
            },
            Self::Hamming { .. } => "HD_PIM".to_string(),
        }
    }

    /// Bytes the host reads per object to evaluate `G`: the Φ terms plus
    /// one 8-byte dot result per region (Hamming: two 4-byte results).
    pub(crate) fn host_bytes_per_object(&self) -> u64 {
        match self {
            Self::Ed { .. } | Self::Sm { .. } => 16,
            Self::Fnn { .. } => 24,
            Self::Dot { .. } => 32,
            Self::Hamming { .. } => 8,
        }
    }

    /// Accumulator width of the row's dot batches: the least-significant
    /// 64 bits, 32 for binary codes (the paper's choice for them).
    fn acc_width(&self) -> AccWidth {
        match self {
            Self::Hamming { .. } => AccWidth::U32,
            _ => AccWidth::U64,
        }
    }

    /// `true` when `G` yields the function itself, not a bound of it:
    /// there is no guard-band to widen, so a drifted read is recomputed
    /// on the host like a dead one.
    fn is_exact(&self) -> bool {
        matches!(self, Self::Hamming { .. })
    }

    /// The Φ table of the three ED lower-bound rows — the shapes
    /// `lb_ed_batch` serves and rows can be appended to. The other two
    /// keep none, which is reported as the mismatch `what`.
    pub(crate) fn phi_table(&mut self, what: &'static str) -> Result<&mut Vec<f64>, CoreError> {
        match self {
            Self::Ed { phis, .. } | Self::Fnn { phis, .. } | Self::Sm { phis, .. } => Ok(phis),
            Self::Dot { .. } | Self::Hamming { .. } => Err(CoreError::Mismatch { what }),
        }
    }

    /// Quantises one normalized vector (values in `[0, 1]`) into the
    /// row's crossbar operands and Φ terms. Binary codes are integers
    /// already ([`PimExecutor::hd_batch`] passes them as they are).
    pub(crate) fn quantise(
        &self,
        quantizer: &Quantizer,
        vector: &[f64],
    ) -> Result<Quantised, CoreError> {
        Ok(match self {
            Self::Ed { .. } => {
                let eq = EdQuant::from_quantized(quantizer.quantize_vec(vector)?);
                Quantised::new([eq.floors, Vec::new()], eq.phi)
            }
            Self::Fnn { d_prime, .. } => {
                let fq = FnnQuant::compute(vector, *d_prime, quantizer.alpha())?;
                Quantised::new([fq.mu_floors, fq.sigma_floors], fq.phi)
            }
            Self::Sm { d_prime, .. } => {
                let sq = SmQuant::compute(vector, *d_prime, quantizer.alpha())?;
                Quantised::new([sq.mu_floors, Vec::new()], sq.phi)
            }
            Self::Dot { .. } => {
                let dq = DotQuant::from_quantized(quantizer.quantize_vec(vector)?);
                let summary = DotSummary::of(&dq);
                Quantised {
                    summary,
                    ..Quantised::new([dq.floors, Vec::new()], 0.0)
                }
            }
            Self::Hamming { .. } => {
                return Err(CoreError::Mismatch {
                    what: "binary codes are not α-quantised",
                })
            }
        })
    }

    /// `G` for the objects `objs`, written to `out`. `operands(obj)` gives
    /// the per-region dot products and the fault slack: each region's
    /// stored discrepancy `Σ|Δp̄ᵢ|` for a drifted object, zero otherwise. A
    /// drifted read errs by at most `max⌊q̄ᵢ⌋ · Σ|Δp̄ᵢ|`; the lower bounds
    /// decrease and the upper bounds increase in their dot terms, so
    /// adding that envelope to the measured dot keeps every bound valid
    /// (the lower bounds add it in `f64`, `Dot` in `u64`). `qmax` is that
    /// largest query operand per region; a caller whose slack is always
    /// zero need not scan for it. The shape is matched here, once per
    /// call, and each row keeps its own floating-point expression.
    pub(crate) fn combine(
        &self,
        q: &Quantised,
        qmax: [u32; 2],
        alpha: f64,
        objs: Range<usize>,
        out: &mut [f64],
        operands: impl Fn(usize) -> ([u64; 2], [u64; 2]),
    ) {
        fn fill(
            objs: Range<usize>,
            out: &mut [f64],
            operands: impl Fn(usize) -> ([u64; 2], [u64; 2]),
            g: impl Fn(usize, [u64; 2], [u64; 2]) -> f64,
        ) {
            for (obj, value) in objs.zip(out) {
                let (dots, slack) = operands(obj);
                *value = g(obj, dots, slack);
            }
        }
        match self {
            Self::Ed { phis, d, .. } => {
                let qmax = f64::from(qmax[0]);
                fill(objs, out, operands, |obj, dots, slack| {
                    let envelope = qmax * slack[0] as f64;
                    lb_pim_ed_guarded(phis[obj], q.phi, dots[0], *d, alpha, envelope)
                })
            }
            Self::Fnn {
                phis,
                d_prime,
                segment_len,
                ..
            } => {
                let (qmax_mu, qmax_sigma) = (f64::from(qmax[0]), f64::from(qmax[1]));
                fill(objs, out, operands, |obj, dots, slack| {
                    lb_pim_fnn_guarded(
                        phis[obj],
                        q.phi,
                        dots[0],
                        dots[1],
                        *d_prime,
                        *segment_len,
                        alpha,
                        qmax_mu * slack[0] as f64,
                        qmax_sigma * slack[1] as f64,
                    )
                })
            }
            Self::Sm {
                phis,
                d_prime,
                segment_len,
                ..
            } => {
                let qmax = f64::from(qmax[0]);
                fill(objs, out, operands, |obj, dots, slack| {
                    let envelope = qmax * slack[0] as f64;
                    lb_pim_sm_guarded(
                        phis[obj],
                        q.phi,
                        dots[0],
                        *d_prime,
                        *segment_len,
                        alpha,
                        envelope,
                    )
                })
            }
            Self::Dot {
                summaries,
                d,
                target,
                ..
            } => {
                let qmax = u64::from(qmax[0]);
                let qq = q.summary.as_quant();
                match target {
                    SimTarget::Cosine => fill(objs, out, operands, |obj, dots, slack| {
                        let p = summaries[obj].as_quant();
                        ub_pim_cs(&p, &qq, dots[0] + qmax * slack[0], *d)
                    }),
                    SimTarget::Pearson => fill(objs, out, operands, |obj, dots, slack| {
                        let p = summaries[obj].as_quant();
                        ub_pim_pcc(&p, &qq, dots[0] + qmax * slack[0], *d)
                    }),
                }
            }
            Self::Hamming { d, .. } => fill(objs, out, operands, |_, dots, _| {
                (*d as u64 - dots[0] - dots[1]) as f64
            }),
        }
    }
}

/// Offline-programming report.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareReport {
    /// Theorem 4's plan (absent for Hamming, which is never compressed).
    pub plan: Option<MemoryPlan>,
    /// Total crossbar cell writes (endurance).
    pub cell_writes: u64,
    /// Offline programming latency (ns), crossbar writes only.
    pub program_ns: f64,
    /// Bytes of Φ/summary tables staged in the memory array.
    pub phi_bytes: u64,
    /// Crossbars consumed (including the double-buffer reservation).
    pub crossbars_used: usize,
    /// Fault-detection/recovery work done by the post-program scrub
    /// (all-zero when no fault model is configured).
    pub fault_counters: FaultCounters,
}

/// One online bound batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundBatch {
    /// Per-object bound values (LB of ED, UB of CS/PCC, or exact HD).
    pub values: Vec<f64>,
    /// PIM-side latency of the batch.
    pub timing: PimTiming,
    /// Bytes the host reads per object to evaluate `G` (Φ + dot results).
    pub host_bytes_per_object: u64,
    /// Cumulative fault/recovery counters up to and including this batch
    /// (all-zero when no fault model is configured).
    pub fault_counters: FaultCounters,
}

impl BoundBatch {
    /// Charges the host-side cost of combining this batch: per object,
    /// the Φ/dot reads plus the O(1) arithmetic of `G`.
    pub fn charge_g(&self, counters: &mut OpCounters) {
        let objects = self.values.len() as u64;
        counters.stream(objects * self.host_bytes_per_object);
        counters.arith += 4 * objects;
        counters.mul += 2 * objects;
    }
}

/// Where [`PimExecutor::bounds`] can write its bounds: one
/// column of `values.len() / Q` entries per query of `Q`, object `obj`'s
/// bound at entry `rows[obj]` of it. `rows` names an entry for every
/// object, each inside the column and none twice (`bounds` refuses it
/// otherwise); the entries it does not name are left as they are.
#[derive(Debug)]
pub struct Columns<'a> {
    /// Per object its entry in every column.
    pub rows: &'a [usize],
    /// The columns, query by query.
    pub values: &'a mut [f64],
}

/// Whether every entry of `rows` is below `len` and none repeats: a flag
/// per column entry, set once for each row (a few µs at 10 000 rows).
fn distinct_below(rows: &[usize], len: usize) -> bool {
    let mut seen = vec![false; len];
    let mut fresh = 0;
    for &i in rows {
        let Some(seen) = seen.get_mut(i) else {
            return false;
        };
        fresh += usize::from(!*seen);
        *seen = true;
    }
    fresh == rows.len()
}

/// A coalesced batch's bounds ([`PimExecutor::bounds`]).
#[derive(Debug)]
pub struct Bounds {
    /// Per query its batch: the modeled pass, counters and metrics of a
    /// [`PimExecutor::lb_ed_batch`] call, bit for bit. Its values are the
    /// fine bounds or, where [`Bounds::is_coarse`], coarse bounds no
    /// larger than them — or empty, where the bounds went to [`Columns`].
    pub batches: Vec<BoundBatch>,
    /// Per query that read coarse, its quantised form, for
    /// [`PimExecutor::lb_ed_fine`].
    fine: Vec<Option<Quantised>>,
}

impl Bounds {
    /// Whether query `j`'s values are coarse bounds.
    pub fn is_coarse(&self, j: usize) -> bool {
        self.fine.get(j).is_some_and(Option::is_some)
    }
}

/// The shape mismatch of a row write into a shape without a Φ table.
const UNSUPPORTED_WRITE: &str = "executor shape does not support appends";

/// Theorem 4's resident plan for `n_total + spare` objects × `d` dims
/// under `cfg` — what [`PimExecutor::begin_euclidean_resident`] and
/// [`PimExecutor::relayout`] allocate.
fn plan_resident(
    cfg: &ExecutorConfig,
    n_total: usize,
    d: usize,
    spare: usize,
) -> Result<(MemoryPlan, ResidentShapeChoice), CoreError> {
    if n_total == 0 || d == 0 {
        return Err(CoreError::Mismatch {
            what: "resident preparation needs a non-empty shape",
        });
    }
    let buffer_factor = if cfg.double_buffer { 2 } else { 1 };
    resident_plan(
        n_total + spare,
        d,
        buffer_factor,
        cfg.operand_bits,
        &cfg.pim,
    )
}

/// The batch of a one-query pass.
fn one_batch<B>(mut batches: Vec<B>) -> B {
    batches.pop().expect("one batch per query")
}

/// The PIM executor: a prepared dataset on a ReRAM bank.
#[derive(Debug)]
pub struct PimExecutor {
    bank: ReRamBank,
    quantizer: Quantizer,
    cfg: ExecutorConfig,
    prepared: PreparedFunction,
    report: PrepareReport,
    fault_counters: FaultCounters,
    batches_since_scrub: u64,
}

impl PimExecutor {
    /// Prepares `LB_PIM-ED` / `LB_PIM-FNN` for a normalized dataset: the
    /// paper's default path for ED workloads. Theorem 4 picks `s`; when the
    /// whole dataset fits uncompressed the tighter `LB_PIM-ED` is used,
    /// otherwise `LB_PIM-FNN^s`, otherwise the single-region `LB_PIM-SM^s`
    /// (shared dispatch in `memory::resident_plan`).
    pub fn prepare_euclidean(
        cfg: ExecutorConfig,
        data: &NormalizedDataset,
    ) -> Result<Self, CoreError> {
        Self::prepare_euclidean_resident(cfg, data, 0)
    }

    /// Like [`PimExecutor::prepare_euclidean`], but sizes every region for
    /// `data.len() + spare` objects so rows can be appended online with
    /// [`PimExecutor::append_row`] — no reprogramming, only the spare rows
    /// take wear. Theorem 4 plans for the full capacity, so the chosen `s`
    /// stays valid for the lifetime of the residency.
    pub fn prepare_euclidean_resident(
        cfg: ExecutorConfig,
        data: &NormalizedDataset,
        spare: usize,
    ) -> Result<Self, CoreError> {
        let ds = data.dataset();
        let mut builder = Self::begin_euclidean_resident(cfg, ds.len(), ds.dim(), spare)?;
        builder.push_rows(ds.as_flat())?;
        builder.finish()
    }

    /// Opens a [`ResidentBuilder`]: Theorem 4 plans from the declared
    /// shape (`n_total + spare` objects × `d` dims) up front, regions are
    /// allocated empty, and the dataset arrives block-by-block through
    /// [`ResidentBuilder::push_rows`] — the host never needs the full
    /// `N × d` matrix resident. Any block partitioning yields the same
    /// stored matrix, Φ table, wear, and crossbar layout;
    /// [`PimExecutor::prepare_euclidean_resident`] is the one-block case.
    pub fn begin_euclidean_resident(
        cfg: ExecutorConfig,
        n_total: usize,
        d: usize,
        spare: usize,
    ) -> Result<ResidentBuilder, CoreError> {
        let (plan, shape) = plan_resident(&cfg, n_total, d, spare)?;
        let bank = ReRamBank::new(cfg.pim)?;
        ResidentBuilder::open(cfg, plan, shape, n_total, d, n_total + spare, bank)
    }

    /// Prepares `LB_PIM-SM` at an explicit segmentation `d_prime` — the
    /// mean-only bound using a single crossbar region. Weaker than
    /// `LB_PIM-FNN` at the same `s` (no σ term) but affordable at up to
    /// twice the segmentation under the same budget.
    pub fn prepare_sm(
        cfg: ExecutorConfig,
        data: &NormalizedDataset,
        d_prime: usize,
    ) -> Result<Self, CoreError> {
        Self::prepare_segmented(cfg, data, d_prime, ResidentShapeChoice::MeanOnly)
    }

    /// Prepares `LB_PIM-FNN` at an explicit segmentation `d_prime`
    /// (must divide `d` and fit the budget) — used by FNN-PIM, where the
    /// planner chooses `s`.
    pub fn prepare_fnn(
        cfg: ExecutorConfig,
        data: &NormalizedDataset,
        d_prime: usize,
    ) -> Result<Self, CoreError> {
        Self::prepare_segmented(cfg, data, d_prime, ResidentShapeChoice::MuSigma)
    }

    /// Explicit-`d_prime` preparation of a segment bound: checks the
    /// segmentation against Theorem 4's maximum for the shape's region
    /// count, then builds through the same [`ResidentBuilder`] as the
    /// planned path.
    fn prepare_segmented(
        cfg: ExecutorConfig,
        data: &NormalizedDataset,
        d_prime: usize,
        shape: ResidentShapeChoice,
    ) -> Result<Self, CoreError> {
        let ds = data.dataset();
        if d_prime == 0 || !ds.dim().is_multiple_of(d_prime) {
            return Err(CoreError::Mismatch {
                what: "d_prime must divide d",
            });
        }
        let pair = if shape == ResidentShapeChoice::MuSigma {
            2
        } else {
            1
        };
        let regions = pair * if cfg.double_buffer { 2 } else { 1 };
        let auto = choose_dimensionality(ds.len(), ds.dim(), regions, cfg.operand_bits, &cfg.pim)?;
        if d_prime > auto.s {
            return Err(CoreError::Mismatch {
                what: "requested d_prime exceeds Theorem 4's maximum",
            });
        }
        let plan = MemoryPlan {
            s: d_prime,
            uncompressed: d_prime == ds.dim(),
            cost_per_region: simpim_reram::gather::dataset_crossbar_cost(
                ds.len(),
                d_prime,
                cfg.operand_bits,
                &cfg.pim.crossbar,
            )?,
            regions,
        };
        let bank = ReRamBank::new(cfg.pim)?;
        let mut builder =
            ResidentBuilder::open(cfg, plan, shape, ds.len(), ds.dim(), ds.len(), bank)?;
        builder.push_rows(ds.as_flat())?;
        builder.finish()
    }

    /// Prepares `UB_PIM-CS` / `UB_PIM-PCC` over full-dimensional floors.
    /// Compression would change the similarity's semantics, so the dataset
    /// must fit uncompressed.
    pub fn prepare_similarity(
        cfg: ExecutorConfig,
        data: &NormalizedDataset,
        target: SimTarget,
    ) -> Result<Self, CoreError> {
        let ds = data.dataset();
        let buffer_factor = if cfg.double_buffer { 2 } else { 1 };
        let plan = choose_dimensionality(
            ds.len(),
            ds.dim(),
            buffer_factor,
            cfg.operand_bits,
            &cfg.pim,
        )?;
        if !plan.uncompressed {
            return Err(CoreError::CannotFit {
                n: ds.len(),
                crossbars: cfg.pim.num_crossbars,
            });
        }
        let quantizer = Quantizer::identity(cfg.alpha)?;
        let mut bank = ReRamBank::new(cfg.pim)?;
        let n = ds.len();
        let d = ds.dim();
        let mut floors = Vec::with_capacity(n * d);
        let mut summaries = Vec::with_capacity(n);
        for row in ds.rows() {
            let dq = DotQuant::from_quantized(quantizer.quantize_vec(row)?);
            floors.extend_from_slice(&dq.floors);
            summaries.push(DotSummary::of(&dq));
        }
        let rep = bank.program_region(&floors, n, d, cfg.operand_bits)?;
        let phi_bytes = n as u64 * 24;
        bank.memory_mut().store(phi_bytes)?;
        let report = PrepareReport {
            plan: Some(plan),
            cell_writes: rep.cell_writes,
            program_ns: rep.program_ns,
            phi_bytes,
            crossbars_used: bank.pim().used_crossbars() * buffer_factor,
            fault_counters: FaultCounters::default(),
        };
        Self::finish(
            bank,
            quantizer,
            cfg,
            PreparedFunction::Dot {
                region: rep.region,
                summaries,
                d,
                target,
            },
            report,
        )
    }

    /// Prepares exact PIM Hamming distance: the code and its complement as
    /// two 1-bit-operand regions (Table 4, row HD).
    pub fn prepare_hamming(cfg: ExecutorConfig, codes: &BinaryDataset) -> Result<Self, CoreError> {
        let quantizer = Quantizer::identity(cfg.alpha)?;
        let mut bank = ReRamBank::new(cfg.pim)?;
        let n = codes.len();
        let d = codes.bits();
        let mut code_flat = Vec::with_capacity(n * d);
        let mut comp_flat = Vec::with_capacity(n * d);
        for code in codes.rows() {
            code_flat.extend(code.to_unsigned());
            comp_flat.extend(code.complement_to_unsigned());
        }
        let rep_code = bank.program_region(&code_flat, n, d, 1)?;
        let rep_comp = bank.program_region(&comp_flat, n, d, 1)?;
        let report = PrepareReport {
            plan: None,
            cell_writes: rep_code.cell_writes + rep_comp.cell_writes,
            program_ns: rep_code.program_ns + rep_comp.program_ns,
            phi_bytes: 0,
            crossbars_used: bank.pim().used_crossbars() * if cfg.double_buffer { 2 } else { 1 },
            fault_counters: FaultCounters::default(),
        };
        Self::finish(
            bank,
            quantizer,
            cfg,
            PreparedFunction::Hamming {
                code_region: rep_code.region,
                comp_region: rep_comp.region,
                d,
            },
            report,
        )
    }

    /// Shared constructor tail: attach the fault model (if any), run the
    /// post-program scrub-and-remap pass, and record its counters in the
    /// prepare report.
    fn finish(
        bank: ReRamBank,
        quantizer: Quantizer,
        cfg: ExecutorConfig,
        prepared: PreparedFunction,
        report: PrepareReport,
    ) -> Result<Self, CoreError> {
        let mut exec = Self {
            bank,
            quantizer,
            cfg,
            prepared,
            report,
            fault_counters: FaultCounters::default(),
            batches_since_scrub: 0,
        };
        if let Some(faults) = cfg.faults {
            exec.bank.enable_faults(faults)?;
            exec.scrub_and_remap()?;
            exec.report.fault_counters = exec.fault_counters;
        }
        Ok(exec)
    }

    /// One detect-and-recover pass: scrub every region against the fault
    /// map, then remap any dead crossbars onto spare capacity. Quarantined
    /// objects (dead with no clean spare) are recovered per-batch by exact
    /// host-side refinement.
    fn scrub_and_remap(&mut self) -> Result<(), CoreError> {
        let before = self.fault_counters;
        let mut span = simpim_obs::span!("core.executor.scrub");
        for region in self.prepared.regions() {
            let scrub = self.bank.scrub_region(region)?;
            self.fault_counters.scrubs += 1;
            self.fault_counters.faults_detected += scrub.faulty_cells + scrub.dead as u64;
            self.fault_counters.adc_retries += scrub.adc_retries;
            if scrub.dead > 0 {
                let remap = self.bank.remap_dead(region)?;
                self.fault_counters.remapped_crossbars += remap.remapped_crossbars as u64;
                self.fault_counters.quarantined_rows += remap.quarantined_objects as u64;
            }
        }
        // Flush this pass's deltas (the struct counters are cumulative).
        let d = |now: u64, then: u64| now.saturating_sub(then);
        let fc = self.fault_counters;
        simpim_obs::metrics::counter_add(
            "simpim.core.executor.scrubs",
            d(fc.scrubs, before.scrubs),
        );
        simpim_obs::metrics::counter_add(
            "simpim.core.executor.faults_detected",
            d(fc.faults_detected, before.faults_detected),
        );
        simpim_obs::metrics::counter_add(
            "simpim.core.executor.remapped_crossbars",
            d(fc.remapped_crossbars, before.remapped_crossbars),
        );
        simpim_obs::metrics::counter_add(
            "simpim.core.executor.quarantined_rows",
            d(fc.quarantined_rows, before.quarantined_rows),
        );
        simpim_obs::metrics::histogram_record(
            "simpim.core.executor.adc_retries",
            d(fc.adc_retries, before.adc_retries),
        );
        span.record_all([
            (
                "faults_detected",
                d(fc.faults_detected, before.faults_detected) as f64,
            ),
            (
                "remapped",
                d(fc.remapped_crossbars, before.remapped_crossbars) as f64,
            ),
            (
                "quarantined",
                d(fc.quarantined_rows, before.quarantined_rows) as f64,
            ),
        ]);
        Ok(())
    }

    /// Flushes one pass's observations (`simpim.core.executor.*`): the
    /// batches it served (one a query), their recovery-work counters, and
    /// the crossbar-occupancy gauge. A handful of registry touches per
    /// *pass*, never per query or object.
    fn record_batch_metrics(&self, [batches, guarded, fallbacks]: [u64; 3]) {
        if batches == 0 {
            return;
        }
        simpim_obs::metrics::counter_add("simpim.core.executor.batches", batches);
        if guarded > 0 {
            simpim_obs::metrics::counter_add("simpim.core.executor.guarded_bounds", guarded);
        }
        if fallbacks > 0 {
            simpim_obs::metrics::counter_add(
                "simpim.core.executor.fallback_refinements",
                fallbacks,
            );
        }
        let total = self.cfg.pim.num_crossbars;
        if total > 0 {
            simpim_obs::metrics::gauge_set(
                "simpim.core.executor.crossbar_occupancy",
                self.bank.pim().used_crossbars() as f64 / total as f64,
            );
        }
    }

    /// True when a non-inert fault model is attached (per-object recovery
    /// is needed after every batch).
    fn faults_active(&self) -> bool {
        self.cfg.faults.is_some_and(|f| !f.is_inert())
    }

    /// Whether the cadence scrubs before the next batch.
    fn scrub_due(&self) -> bool {
        self.cfg.faults.is_some()
            && self.cfg.scrub_interval != 0
            && self.batches_since_scrub + 1 >= self.cfg.scrub_interval
    }

    /// Periodic scrub cadence: every `scrub_interval` bound batches the
    /// executor re-scrubs all regions (catching wear-out that developed
    /// online). Called once per batch, before its pass.
    fn maybe_scrub(&mut self) -> Result<(), CoreError> {
        if !self.scrub_due() {
            self.batches_since_scrub += 1;
            return Ok(());
        }
        self.batches_since_scrub = 0;
        self.scrub_and_remap()
    }

    /// Runs one detect-and-recover pass now, outside the periodic
    /// [`ExecutorConfig::scrub_interval`] cadence: scrub every region
    /// against the fault map and remap dead crossbars onto spares. A
    /// no-op without an attached fault model. The serving layer calls
    /// this after re-replicating a shard onto a spare bank so the fresh
    /// residency is surveyed before it rejoins routing.
    pub fn scrub_now(&mut self) -> Result<(), CoreError> {
        if self.cfg.faults.is_none() {
            return Ok(());
        }
        self.batches_since_scrub = 0;
        self.scrub_and_remap()
    }

    /// Whether the underlying bank is fail-stopped
    /// ([`simpim_reram::ReRamError::BankLost`] on every command). Lost
    /// banks cannot be recovered in place; the resident dataset must be
    /// re-programmed onto a fresh executor.
    pub fn bank_lost(&self) -> bool {
        self.bank.is_lost()
    }

    /// Cumulative fault-detection/recovery counters for this executor's
    /// lifetime.
    pub fn fault_counters(&self) -> &FaultCounters {
        &self.fault_counters
    }

    /// The offline-programming report.
    pub fn report(&self) -> &PrepareReport {
        &self.report
    }

    /// The prepared function shape.
    pub fn prepared(&self) -> &PreparedFunction {
        &self.prepared
    }

    /// The executor configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// The underlying bank (for endurance / energy inspection).
    pub fn bank(&self) -> &ReRamBank {
        &self.bank
    }

    /// Mutable access to the underlying bank — the escape hatch for fault
    /// and endurance experiments (e.g. aging crossbars between batches so
    /// the periodic scrub sees wear-out). Regular queries never need it.
    pub fn bank_mut(&mut self) -> &mut ReRamBank {
        &mut self.bank
    }

    /// Human-readable name of the bound this executor serves, matching the
    /// paper's notation.
    pub fn bound_name(&self) -> String {
        self.prepared.name()
    }

    /// Lower bounds of squared ED between every prepared object and
    /// `query` (normalized values in `[0,1]`). Valid for the `Ed`, `Fnn`
    /// and `Sm` shapes.
    pub fn lb_ed_batch(&mut self, query: &[f64]) -> Result<BoundBatch, CoreError> {
        self.prepared
            .phi_table("executor not prepared for ED bounds")?;
        self.vector_pass(&[query]).map(one_batch)
    }

    /// Upper bounds of the prepared similarity (CS or PCC) between every
    /// object and `query`. Valid for the `Dot` shape.
    pub fn ub_sim_batch(&mut self, query: &[f64]) -> Result<BoundBatch, CoreError> {
        if !matches!(self.prepared, PreparedFunction::Dot { .. }) {
            return Err(CoreError::Mismatch {
                what: "executor not prepared for similarity bounds",
            });
        }
        self.vector_pass(&[query]).map(one_batch)
    }

    /// Exact Hamming distances between every prepared code and `query`.
    /// Valid for the `Hamming` shape.
    pub fn hd_batch(&mut self, query: &BinaryVecRef<'_>) -> Result<BoundBatch, CoreError> {
        if !matches!(self.prepared, PreparedFunction::Hamming { .. }) {
            return Err(CoreError::Mismatch {
                what: "executor not prepared for Hamming distance",
            });
        }
        if query.bits() != self.prepared.dim() {
            return Err(CoreError::Mismatch {
                what: "query code width",
            });
        }
        let operands = [query.to_unsigned(), query.complement_to_unsigned()];
        let (batch, _) =
            one_batch(self.bound_pass(&[Quantised::new(operands, 0.0)], Read::Fine, None)?);
        Ok(batch)
    }

    /// The pass for float queries: every query's dimensionality is
    /// checked and every query quantised before the first dispatch, so a
    /// bad query fails the batch with nothing dispatched or charged.
    fn vector_pass<Q: AsRef<[f64]>>(
        &mut self,
        queries: &[Q],
    ) -> Result<Vec<BoundBatch>, CoreError> {
        let quantised = self.quantise_all(queries)?;
        let batches = self.bound_pass(&quantised, Read::Fine, None)?;
        Ok(batches.into_iter().map(|(batch, _)| batch).collect())
    }

    /// Every query's dimensionality checked and every query quantised.
    fn quantise_all<Q: AsRef<[f64]>>(&self, queries: &[Q]) -> Result<Vec<Quantised>, CoreError> {
        queries
            .iter()
            .map(|query| {
                if query.as_ref().len() != self.prepared.dim() {
                    return Err(CoreError::Mismatch {
                        what: "query dimensionality",
                    });
                }
                self.prepared.quantise(&self.quantizer, query.as_ref())
            })
            .collect()
    }

    /// The one online pass under every front, for the quantised queries
    /// of a batch: per query, scrub cadence → one dot pass per region →
    /// per-object recovery → `G`, and one [`BoundBatch`] each.
    ///
    /// The modeled device serves the queries one after the other — the
    /// passes are handed to the bank query by query, region by region,
    /// and timing, dispatches, energy, counters and metrics are those of
    /// as many single calls — while the host simulation reads each region
    /// once for all of them ([`ReRamBank::read`]). A scrub
    /// changes what the crossbars read, so the batch is cut into runs
    /// wherever the cadence scrubs and only a run shares its reads.
    ///
    /// Recovery is the single health rule (DESIGN.md §7). An object dead
    /// in any region gets the exact host-side dot over its retained rows
    /// in every region — bit-identical to the fault-free result. An
    /// object with a stored discrepancy keeps its measured dots and hands
    /// the discrepancies to `G` as guard-band slack, unless the row is an
    /// exact function, which has no band to widen and takes the exact
    /// recompute too. A healthy object keeps its measured dots. Without
    /// an active fault model no status is looked up at all.
    ///
    /// With [`Read::Coarse`], the host reads coarse first where the bank
    /// can: the device is charged the same, and a query whose pass came
    /// back coarse has coarse bounds for values — `G` of an integer no
    /// smaller than each dot, hence no larger than each fine bound — and
    /// [`Read::Coarse`] beside its batch. With
    /// `out`, each query's bounds go to its column there, and its batch's
    /// values are empty. The metrics are recorded once, for the queries
    /// served, also when a run fails.
    fn bound_pass(
        &mut self,
        queries: &[Quantised],
        read: Read,
        mut out: Option<Columns<'_>>,
    ) -> Result<Vec<(BoundBatch, Read)>, CoreError> {
        // Batches served, guarded bounds and fallbacks, recorded once.
        let mut tally = [0u64; 3];
        let mut batches = Vec::with_capacity(queries.len());
        let served = self.bound_runs(queries, read, &mut out, &mut batches, &mut tally);
        self.record_batch_metrics(tally);
        served.map(|()| batches)
    }

    /// The runs of [`PimExecutor::bound_pass`], each query's batch pushed
    /// onto `batches` as it is served and tallied into `tally`.
    fn bound_runs(
        &mut self,
        queries: &[Quantised],
        read: Read,
        out: &mut Option<Columns<'_>>,
        batches: &mut Vec<(BoundBatch, Read)>,
        tally: &mut [u64; 3],
    ) -> Result<(), CoreError> {
        let regions = self.prepared.regions();
        let stride = out
            .as_ref()
            .map_or(0, |c| c.values.len() / queries.len().max(1));
        let mut rest = queries;
        while !rest.is_empty() {
            self.maybe_scrub()?;
            let mut run = 1;
            while run < rest.len() && !self.scrub_due() {
                self.maybe_scrub()?;
                run += 1;
            }
            let (now, later) = rest.split_at(run);
            rest = later;
            let passes: Vec<(RegionId, &[u32])> = now
                .iter()
                .flat_map(|q| regions.iter().zip(&q.floors).map(|(&r, f)| (r, &f[..])))
                .collect();
            let acc = self.prepared.acc_width();
            let (reads, lost) = self.bank.read(&passes, acc, read);
            // A bank lost mid-run has served the passes before the loss:
            // the queries they complete are accounted before the error.
            let served = reads.len() / regions.len();
            let mut reads = reads.into_iter();
            for q in &now[..served] {
                let mut dots: [Vec<u64>; 2] = Default::default();
                let mut timing = PimTiming::default();
                let mut how = Read::Fine;
                for (r, out) in reads.by_ref().take(regions.len()).enumerate() {
                    if out.read == Read::Coarse {
                        how = Read::Coarse;
                    }
                    if r == 0 {
                        timing = out.timing;
                    } else if self.cfg.parallel_regions {
                        timing.merge_parallel(&out.timing);
                    } else {
                        timing.add(&out.timing);
                    }
                    dots[r] = out.values;
                }
                let j = batches.len();
                let column =
                    (out.as_mut()).map(|c| (c.rows, &mut c.values[j * stride..][..stride]));
                let batch = self.combine_batch(q, &regions, dots, timing, column, tally)?;
                batches.push((batch, how));
            }
            lost?;
        }
        Ok(())
    }

    /// The host half of one query's pass: the health rule over its
    /// measured `dots`, then `G`, the counters and the [`BoundBatch`] —
    /// its values, or, given a `column`, empty values and the bounds
    /// written there (for a fault-free `Ed`, by one loop over the dots:
    /// on a 2-vCPU AVX2 Xeon, `kernel_sweep`'s `combine` reads 99–120 µs
    /// a Q=8 batch that way, 145–212 through `PreparedFunction::combine`
    /// a block at a time).
    fn combine_batch(
        &mut self,
        q: &Quantised,
        regions: &[RegionId],
        mut dots: [Vec<u64>; 2],
        timing: PimTiming,
        column: Option<(&[usize], &mut [f64])>,
        tally: &mut [u64; 3],
    ) -> Result<BoundBatch, CoreError> {
        let n = dots[0].len();
        let (mut guarded, mut fallbacks) = (0u64, 0u64);
        let mut slack: Vec<[u64; 2]> = Vec::new();
        if self.faults_active() {
            slack.resize(n, [0; 2]);
            let pim = self.bank.pim();
            for (obj, entry) in slack.iter_mut().enumerate() {
                let (mut dead, mut discrepancy) = (false, [0u64; 2]);
                for (r, &region) in regions.iter().enumerate() {
                    dead |= pim.object_health(region, obj)? == CrossbarHealth::Dead;
                    discrepancy[r] = pim.object_discrepancy(region, obj)?;
                }
                let drifted = discrepancy != [0; 2];
                if dead || (drifted && self.prepared.is_exact()) {
                    fallbacks += 1;
                    for (r, &region) in regions.iter().enumerate() {
                        dots[r][obj] = host_floor_dot(pim.region_row(region, obj)?, &q.floors[r]);
                    }
                } else if drifted {
                    guarded += 1;
                    *entry = discrepancy;
                }
            }
        }

        let alpha = self.quantizer.alpha();
        let mut values = Vec::new();
        match (column, &self.prepared) {
            // No slack, so `Ed`'s envelope is 0: `G` a block of objects at
            // a time into a buffer, a loop that vectorises, then the block
            // to its rows.
            (Some((rows, column)), PreparedFunction::Ed { phis, d, .. }) if slack.is_empty() => {
                let ed =
                    |(&phi, &dot): (&f64, &u64)| lb_pim_ed_guarded(phi, q.phi, dot, *d, alpha, 0.0);
                let mut block = [0.0; 256];
                let blocks = rows.chunks(256).zip(phis[..n].chunks(256));
                for ((rows, phis), dots) in blocks.zip(dots[0].chunks(256)) {
                    let block = &mut block[..rows.len()];
                    let bounds = phis.iter().zip(dots).map(ed);
                    block.iter_mut().zip(bounds).for_each(|(b, v)| *b = v);
                    rows.iter().zip(&*block).for_each(|(&i, &v)| column[i] = v);
                }
            }
            (column, _) => {
                values = vec![0.0; n];
                let qmax = [0, 1].map(|r| q.floors[r].iter().copied().max().unwrap_or(0));
                // Single-region rows have no second dot, fault-free passes no slack.
                let at = |table: &[u64], obj: usize| table.get(obj).copied().unwrap_or(0);
                self.prepared
                    .combine(q, qmax, alpha, 0..n, &mut values, |obj| {
                        (
                            [dots[0][obj], at(&dots[1], obj)],
                            slack.get(obj).copied().unwrap_or_default(),
                        )
                    });
                if let Some((rows, column)) = column {
                    rows.iter().zip(&values).for_each(|(&i, &v)| column[i] = v);
                    values = Vec::new();
                }
            }
        }
        self.fault_counters.guarded_bounds += guarded;
        self.fault_counters.fallback_refinements += fallbacks;
        for (all, one) in tally.iter_mut().zip([1, guarded, fallbacks]) {
            *all += one;
        }
        Ok(BoundBatch {
            values,
            timing,
            host_bytes_per_object: self.prepared.host_bytes_per_object(),
            fault_counters: self.fault_counters,
        })
    }

    /// Runs [`PimExecutor::lb_ed_batch`] for a coalesced batch of queries
    /// against the resident regions — the offline tasks' chunk of anchor
    /// rows with [`Read::Fine`], the serving layer's batch with
    /// [`Read::Coarse`]. The dataset stays programmed across the whole
    /// batch, so the per-query cost is a crossbar read pass only; the
    /// offline path's program cost is amortized across every query the
    /// residency serves. The modeled device runs and is charged the
    /// single calls' passes, so every timing, counter and metric of a
    /// [`BoundBatch`] is the single call's, bit for bit, while the host
    /// simulation reads each region once for the whole batch
    /// ([`ReRamBank::read`]). Every query, and `out`, is checked before
    /// the first dispatch: a bad one fails the batch with nothing
    /// dispatched, scrubbed or charged.
    ///
    /// With [`Read::Coarse`] on the `Ed` shape, where the bank reads a
    /// region's passes from its coarse plane, a query's values are coarse
    /// bounds: `G` of an integer no smaller than each dot, so each is at
    /// most the fine bound as computed (Theorem 1's bound decreases in
    /// its dot, and rounding is monotone). [`Bounds::is_coarse`] says
    /// which queries; for them [`PimExecutor::lb_ed_fine`] computes the
    /// fine bound of chosen rows. The other shapes, a batch of one and an
    /// array with a fault model read fine.
    ///
    /// Given `out`, each query's bounds are written to its column there —
    /// the serving layer's, in its own row order — as they are computed,
    /// and not kept in the batch.
    ///
    /// The executor's span (`core.executor.lb_ed_batch_multi` for a fine
    /// read, `core.executor.lb_ed_batch_coarse` for a coarse one) parents
    /// on `parent` (the serving layer's batch span) instead of this
    /// thread's stack, so the crossbar pass stays attributable to its
    /// request even though the dispatch crossed onto a pool worker
    /// thread; [`simpim_obs::TraceCtx::NONE`] parents on the thread's own
    /// stack.
    pub fn bounds<Q: AsRef<[f64]>>(
        &mut self,
        queries: &[Q],
        read: Read,
        parent: simpim_obs::TraceCtx,
        out: Option<Columns<'_>>,
    ) -> Result<Bounds, CoreError> {
        let name = match read {
            Read::Fine => "core.executor.lb_ed_batch_multi",
            Read::Coarse => "core.executor.lb_ed_batch_coarse",
        };
        let attrs = [("queries", queries.len() as f64)];
        let mut span = if parent.is_none() {
            simpim_obs::trace::open_span(name, &attrs)
        } else {
            simpim_obs::trace::open_span_ctx(name, parent, &attrs).0
        };
        let objects = self
            .prepared
            .phi_table("executor not prepared for ED bounds")?
            .len();
        if let Some(out) = &out {
            if !out.values.len().is_multiple_of(queries.len().max(1)) {
                return Err(CoreError::Mismatch {
                    what: "a column per query",
                });
            }
            if out.rows.len() != objects {
                return Err(CoreError::Mismatch {
                    what: "a column row per object",
                });
            }
            if !distinct_below(out.rows, out.values.len() / queries.len().max(1)) {
                return Err(CoreError::Mismatch {
                    what: "column rows inside the column, none twice",
                });
            }
        }
        let quantised = self.quantise_all(queries)?;
        // Only `LB_PIM-ED` has a coarse bound.
        let read = match self.prepared {
            PreparedFunction::Ed { .. } => read,
            _ => Read::Fine,
        };
        let served = self.bound_pass(&quantised, read, out)?;
        simpim_obs::metrics::histogram_record(
            "simpim.core.executor.coalesced_queries",
            queries.len() as u64,
        );
        span.record_all([("batches", served.len() as f64)]);
        let (batches, fine) = served
            .into_iter()
            .zip(quantised)
            .map(|((batch, how), q)| (batch, (how == Read::Coarse).then_some(q)))
            .unzip();
        Ok(Bounds { batches, fine })
    }

    /// The fine `LB_PIM-ED` bounds of query `j` of `batch` for the objects
    /// `objs`, into `out` — the values a fine [`PimExecutor::bounds`]
    /// returns for them, bit for bit: the same dot products
    /// ([`simpim_reram::PimArray::dot_rows`]) through the same `G`. The
    /// device was charged for them with the batch, so nothing is charged
    /// here. A query that did not read coarse has its fine bounds in the
    /// batch already and is refused, like a shape other than `Ed`.
    pub fn lb_ed_fine(
        &self,
        batch: &Bounds,
        j: usize,
        objs: &[usize],
        out: &mut [f64],
    ) -> Result<(), CoreError> {
        let (Some(Some(q)), PreparedFunction::Ed { region, .. }) =
            (batch.fine.get(j), &self.prepared)
        else {
            return Err(CoreError::Mismatch {
                what: "fine bounds of a query that read coarse",
            });
        };
        let dots =
            self.bank
                .pim()
                .dot_rows(*region, &q.floors[0], objs, self.prepared.acc_width())?;
        let alpha = self.quantizer.alpha();
        for ((&obj, dot), value) in objs.iter().zip(dots).zip(out) {
            let value = std::slice::from_mut(value);
            let operands = |_| ([dot, 0], [0, 0]);
            self.prepared
                .combine(q, [0, 0], alpha, obj..obj + 1, value, operands);
        }
        Ok(())
    }

    /// Appends one normalized row into the resident regions' spare slots
    /// and returns its object index. Only the touched crossbars take
    /// program wear; existing rows are never rewritten. Valid for the
    /// `Ed`, `Fnn` and `Sm` shapes (the ones
    /// [`PimExecutor::prepare_euclidean_resident`] produces).
    pub fn append_row(&mut self, row: &[f64]) -> Result<usize, CoreError> {
        let idx = self.prepared.phi_table(UNSUPPORTED_WRITE)?.len();
        self.write_row(idx, row)?;
        // Appending invalidates the lazy fault survey; re-scrub now so the
        // next batch's per-object health lookups stay available.
        if self.cfg.faults.is_some() {
            self.scrub_and_remap()?;
        }
        simpim_obs::metrics::counter_add("simpim.core.executor.appends", 1);
        Ok(idx)
    }

    /// Quantises one normalized row and writes it as object `obj` of
    /// every resident region — over a programmed object (`obj < n`,
    /// [`ReRamBank::rewrite_rows`]) or as a new one in the spare slots
    /// (`obj = n`, [`ReRamBank::append_rows`]) — and sets `Φ[obj]`. Only
    /// the crossbars the row lands on wear. The fault survey is left
    /// stale: a caller writing several rows scrubs once after the last
    /// ([`PimExecutor::scrub_now`]). Valid for the `Ed`, `Fnn` and `Sm`
    /// shapes.
    pub fn write_row(&mut self, obj: usize, row: &[f64]) -> Result<(), CoreError> {
        let n = self.prepared.phi_table(UNSUPPORTED_WRITE)?.len();
        if row.len() != self.prepared.dim() || obj > n {
            return Err(CoreError::Mismatch {
                what: "row dimensionality or object index",
            });
        }
        let q = self.prepared.quantise(&self.quantizer, row)?;
        for (&region, floors) in self.prepared.regions().iter().zip(&q.floors) {
            if obj < n {
                self.bank.rewrite_rows(region, obj, floors)?;
            } else {
                self.bank.append_rows(region, floors)?;
            }
        }
        let phis = self.prepared.phi_table(UNSUPPORTED_WRITE)?;
        phis.resize(n.max(obj + 1), 0.0);
        phis[obj] = q.phi;
        Ok(())
    }

    /// Keeps the first `n` resident objects (`1..=n` of them) and returns
    /// the rest to the spare slots. Nothing is programmed, so no bank
    /// command is issued. Like [`PimExecutor::write_row`], it leaves the
    /// fault survey stale.
    pub fn truncate(&mut self, n: usize) -> Result<(), CoreError> {
        for region in self.prepared.regions() {
            self.bank.pim_mut().truncate_rows(region, n)?;
        }
        self.prepared.phi_table(UNSUPPORTED_WRITE)?.truncate(n);
        Ok(())
    }

    /// Re-lays the resident regions out for `n_total + spare` objects on
    /// this executor's own bank: Theorem 4 plans the new shape first (a
    /// plan that fails leaves everything as it was), then the bank is
    /// cleared — its per-crossbar wear survives [`PimArray::clear`] — and
    /// `fill` streams the `n_total` rows through the builder. A build that
    /// fails after the clear leaves the executor on a fail-stopped blank
    /// bank, so the serving layer treats it as a lost bank.
    ///
    /// [`PimArray::clear`]: simpim_reram::PimArray::clear
    pub fn relayout(
        &mut self,
        n_total: usize,
        spare: usize,
        fill: impl FnOnce(&mut ResidentBuilder) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        let d = self.prepared.dim();
        let (plan, shape) = plan_resident(&self.cfg, n_total, d, spare)?;
        let mut bank = std::mem::replace(&mut self.bank, ReRamBank::new(self.cfg.pim)?);
        bank.pim_mut().clear();
        bank.memory_mut().release(self.report.phi_bytes);
        let built = ResidentBuilder::open(self.cfg, plan, shape, n_total, d, n_total + spare, bank)
            .and_then(|mut builder| {
                fill(&mut builder)?;
                builder.finish()
            });
        *self = built.inspect_err(|_| self.bank.kill())?;
        Ok(())
    }

    /// Host bytes of the coarse planes the bank keeps for this executor's
    /// regions (0 until a coarse read built one).
    pub fn coarse_plane_bytes(&self) -> usize {
        let pim = self.bank.pim();
        let regions = self.prepared.regions().into_iter();
        regions
            .map(|r| pim.coarse_plane_bytes(r).unwrap_or(0))
            .sum()
    }

    /// Spare object slots left across the resident regions (the minimum
    /// over regions — an append consumes one slot in each).
    pub fn spare_capacity(&self) -> Result<usize, CoreError> {
        let mut spare = usize::MAX;
        for region in self.prepared.regions() {
            spare = spare.min(self.bank.region_spare(region)?);
        }
        Ok(spare)
    }
}

/// The constructor of every ED-family executor
/// ([`PimExecutor::begin_euclidean_resident`]; the `prepare_*` fronts
/// push the whole dataset as one block).
///
/// Rows stream in through [`ResidentBuilder::push_rows`] in dataset
/// order; each block is quantized and programmed immediately, so host
/// memory holds one block plus the Φ table — never the full matrix.
/// [`ResidentBuilder::finish`] seals the regions and yields the same
/// executor whatever the block partitioning was.
#[derive(Debug)]
pub struct ResidentBuilder {
    cfg: ExecutorConfig,
    bank: ReRamBank,
    quantizer: Quantizer,
    plan: MemoryPlan,
    /// The shape being built: regions allocated, Φ table filling.
    prepared: PreparedFunction,
    n_total: usize,
    capacity: usize,
    pushed: usize,
    cell_writes: u64,
    program_ns: f64,
    /// One block's floors per region, reused across blocks.
    floor_bufs: [Vec<u32>; 2],
}

impl ResidentBuilder {
    /// Allocates the (empty) regions of `shape` at `plan.s` dimensions
    /// for `capacity` objects on `bank` (a fresh one, or a cleared one
    /// being re-laid out).
    fn open(
        cfg: ExecutorConfig,
        plan: MemoryPlan,
        shape: ResidentShapeChoice,
        n_total: usize,
        d: usize,
        capacity: usize,
        mut bank: ReRamBank,
    ) -> Result<Self, CoreError> {
        let quantizer = Quantizer::identity(cfg.alpha)?;
        let mut cell_writes = 0u64;
        let mut program_ns = 0.0f64;
        let mut begin = || -> Result<RegionId, CoreError> {
            let rep = bank.begin_region_streamed(capacity, plan.s, cfg.operand_bits)?;
            cell_writes += rep.cell_writes;
            program_ns += rep.program_ns;
            Ok(rep.region)
        };
        let phis = Vec::with_capacity(n_total);
        let (d_prime, segment_len) = (plan.s, d / plan.s);
        let prepared = match shape {
            ResidentShapeChoice::Uncompressed => PreparedFunction::Ed {
                region: begin()?,
                phis,
                d,
            },
            ResidentShapeChoice::MuSigma => PreparedFunction::Fnn {
                mu_region: begin()?,
                sigma_region: begin()?,
                phis,
                d_prime,
                segment_len,
            },
            ResidentShapeChoice::MeanOnly => PreparedFunction::Sm {
                mu_region: begin()?,
                phis,
                d_prime,
                segment_len,
            },
        };
        Ok(Self {
            cfg,
            bank,
            quantizer,
            plan,
            prepared,
            n_total,
            capacity,
            pushed: 0,
            cell_writes,
            program_ns,
            floor_bufs: Default::default(),
        })
    }

    /// The Theorem 4 plan chosen for the declared shape.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// Quantizes and programs one block of rows (`flat` row-major,
    /// `k × d`, values normalized to `[0, 1]`). Blocks arrive in dataset
    /// order; any block partitioning produces the same stored matrix.
    pub fn push_rows(&mut self, flat: &[f64]) -> Result<(), CoreError> {
        let d = self.prepared.dim();
        if flat.is_empty() || !flat.len().is_multiple_of(d) {
            return Err(CoreError::Mismatch {
                what: "pushed block must be a non-empty multiple of d",
            });
        }
        let k = flat.len() / d;
        if self.pushed + k > self.n_total {
            return Err(CoreError::Mismatch {
                what: "pushed more rows than the declared total",
            });
        }
        self.floor_bufs.iter_mut().for_each(Vec::clear);
        let mut phis = Vec::with_capacity(k);
        for row in flat.chunks_exact(d) {
            let q = self.prepared.quantise(&self.quantizer, row)?;
            for (buf, floors) in self.floor_bufs.iter_mut().zip(&q.floors) {
                buf.extend_from_slice(floors);
            }
            phis.push(q.phi);
        }
        let (mut cell_writes, mut program_ns) = (0u64, 0.0f64);
        for (&region, buf) in self.prepared.regions().iter().zip(&self.floor_bufs) {
            let rep = self.bank.fill_rows(region, buf)?;
            cell_writes += rep.cell_writes;
            program_ns += rep.program_ns;
        }
        self.cell_writes += cell_writes;
        self.program_ns += program_ns;
        self.prepared
            .phi_table("resident shapes are ED lower bounds")?
            .extend(phis);
        self.pushed += k;
        Ok(())
    }

    /// Seals the streamed regions and finishes the executor (stages the Φ
    /// table, attaches the fault model, runs the post-program scrub).
    /// Requires exactly the declared number of rows to have been pushed.
    pub fn finish(mut self) -> Result<PimExecutor, CoreError> {
        if self.pushed != self.n_total {
            return Err(CoreError::Mismatch {
                what: "streamed preparation sealed before all declared rows arrived",
            });
        }
        for region in self.prepared.regions() {
            self.bank.finish_region(region)?;
        }
        let phi_bytes = self.capacity as u64 * 8;
        self.bank.memory_mut().store(phi_bytes)?;
        let report = PrepareReport {
            plan: Some(self.plan),
            cell_writes: self.cell_writes,
            program_ns: self.program_ns,
            phi_bytes,
            crossbars_used: self.bank.pim().used_crossbars()
                * if self.cfg.double_buffer { 2 } else { 1 },
            fault_counters: FaultCounters::default(),
        };
        PimExecutor::finish(self.bank, self.quantizer, self.cfg, self.prepared, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_reram::CrossbarConfig;
    use simpim_similarity::measures::{cosine, euclidean_sq, pearson};
    use simpim_similarity::Dataset;

    fn small_pim(crossbars: usize) -> PimConfig {
        PimConfig {
            crossbar: CrossbarConfig {
                size: 16,
                adc_bits: 10,
                ..Default::default()
            },
            num_crossbars: crossbars,
            ..Default::default()
        }
    }

    fn normalized(rows: &[Vec<f64>]) -> NormalizedDataset {
        NormalizedDataset::assert_normalized(Dataset::from_rows(rows).unwrap())
    }

    fn cfg(crossbars: usize) -> ExecutorConfig {
        ExecutorConfig {
            pim: small_pim(crossbars),
            alpha: 1000.0,
            operand_bits: 16,
            double_buffer: false,
            parallel_regions: true,
            faults: None,
            scrub_interval: 0,
        }
    }

    fn sample_data() -> NormalizedDataset {
        normalized(&[
            vec![0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6],
            vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
            vec![0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4],
        ])
    }

    #[test]
    fn ed_path_lower_bounds_exact_distance() {
        let data = sample_data();
        let mut exec = PimExecutor::prepare_euclidean(cfg(4096), &data).unwrap();
        assert_eq!(exec.bound_name(), "LB_PIM-ED");
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let batch = exec.lb_ed_batch(&q).unwrap();
        assert_eq!(batch.values.len(), 3);
        for (i, &lb) in batch.values.iter().enumerate() {
            let ed = euclidean_sq(data.dataset().row(i), &q);
            assert!(lb <= ed + 1e-9, "i={i}: {lb} > {ed}");
            // α = 1000, d = 8 → error ≤ 0.032: the bound is tight.
            assert!(ed - lb <= crate::pim_bounds::error_bound_ed(8, 1000.0) + 1e-9);
        }
        assert!(batch.timing.total_ns() > 0.0);
        assert_eq!(batch.host_bytes_per_object, 16);
    }

    #[test]
    fn fnn_path_under_capacity_pressure() {
        // 64 rows × 8 dims on an 8-crossbar array: the uncompressed ED
        // layout needs 16 crossbars, so Theorem 4 compresses to s = 2
        // (2 regions × 4 crossbars).
        let data = fnn_data();
        let mut exec = PimExecutor::prepare_euclidean(cfg(8), &data).unwrap();
        assert!(
            exec.bound_name().starts_with("LB_PIM-FNN"),
            "{}",
            exec.bound_name()
        );
        let plan = exec.report().plan.unwrap();
        assert!(plan.s < 8);
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let batch = exec.lb_ed_batch(&q).unwrap();
        for (i, &lb) in batch.values.iter().enumerate() {
            let ed = euclidean_sq(data.dataset().row(i), &q);
            assert!(lb <= ed + 1e-9, "i={i}: {lb} > {ed}");
        }
        assert_eq!(batch.host_bytes_per_object, 24);
    }

    /// Block-size invariance: streams `data` through a
    /// [`ResidentBuilder`] in blocks of `block` rows and asserts the
    /// result is indistinguishable from the single-block build
    /// ([`PimExecutor::prepare_euclidean_resident`]): same bound, same
    /// plan, same Φ table, same per-crossbar wear, same stored rows, same
    /// query results, and appends behave identically afterwards.
    fn assert_block_size_invariant(
        c: ExecutorConfig,
        data: &NormalizedDataset,
        spare: usize,
        block: usize,
    ) {
        let ds = data.dataset();
        let mut one = PimExecutor::prepare_euclidean_resident(c, data, spare).unwrap();
        let mut builder =
            PimExecutor::begin_euclidean_resident(c, ds.len(), ds.dim(), spare).unwrap();
        let flat = ds.as_flat();
        for chunk in flat.chunks(block * ds.dim()) {
            builder.push_rows(chunk).unwrap();
        }
        let mut streamed = builder.finish().unwrap();

        assert_eq!(streamed.bound_name(), one.bound_name());
        assert_eq!(streamed.report().plan, one.report().plan);
        assert_eq!(streamed.report().cell_writes, one.report().cell_writes);
        assert_eq!(streamed.report().phi_bytes, one.report().phi_bytes);
        assert_eq!(
            streamed.report().crossbars_used,
            one.report().crossbars_used
        );
        assert!((streamed.report().program_ns - one.report().program_ns).abs() < 1e-6);
        for xb in 0..one.bank().pim().used_crossbars() {
            assert_eq!(
                streamed.bank().pim().crossbar_programs(xb),
                one.bank().pim().crossbar_programs(xb),
                "wear differs at crossbar {xb}"
            );
        }
        assert_eq!(streamed.prepared.regions(), one.prepared.regions());
        for region in one.prepared.regions() {
            for obj in 0..ds.len() {
                assert_eq!(
                    streamed.bank().pim().region_row(region, obj).unwrap(),
                    one.bank().pim().region_row(region, obj).unwrap(),
                    "block={block} region={region:?} obj={obj}"
                );
            }
        }
        let q: Vec<f64> = (0..ds.dim()).map(|j| 0.1 + 0.07 * j as f64).collect();
        let a = one.lb_ed_batch(&q).unwrap();
        let b = streamed.lb_ed_batch(&q).unwrap();
        assert_eq!(a.values, b.values, "block={block}");
        // Appends into the spare rows behave identically afterwards.
        if spare > 0 {
            assert_eq!(streamed.spare_capacity().unwrap(), spare);
            let row: Vec<f64> = (0..ds.dim()).map(|j| 0.2 + 0.05 * j as f64).collect();
            assert_eq!(
                one.append_row(&row).unwrap(),
                streamed.append_row(&row).unwrap()
            );
            let a = one.lb_ed_batch(&q).unwrap();
            let b = streamed.lb_ed_batch(&q).unwrap();
            assert_eq!(a.values, b.values);
        }
    }

    /// 64 rows × 8 dims: compresses to `LB_PIM-FNN` on 8 crossbars.
    fn fnn_data() -> NormalizedDataset {
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|i| {
                (0..8)
                    .map(|j| ((i * 7 + j * 13) % 97) as f64 / 96.0)
                    .collect()
            })
            .collect();
        normalized(&rows)
    }

    /// 512 rows × 8 dims: degrades to `LB_PIM-SM` on 34 double-buffered
    /// crossbars.
    fn sm_data() -> NormalizedDataset {
        let rows: Vec<Vec<f64>> = (0..512)
            .map(|i| {
                (0..8)
                    .map(|j| ((i * 11 + j * 3) % 89) as f64 / 88.0)
                    .collect()
            })
            .collect();
        normalized(&rows)
    }

    /// The stored matrix and Φ table against floors computed right here,
    /// per row, from the quantisation primitives — the oracle that does
    /// not go through [`ResidentBuilder::push_rows`].
    #[test]
    fn stored_matrix_and_phi_match_per_row_quantisation() {
        let alpha = cfg(8).alpha;
        let row_of = |exec: &PimExecutor, region: RegionId, i: usize| {
            exec.bank().pim().region_row(region, i).unwrap().to_vec()
        };

        let data = sample_data();
        let exec = PimExecutor::prepare_euclidean_resident(cfg(4096), &data, 2).unwrap();
        let PreparedFunction::Ed { region, phis, d } = exec.prepared() else {
            panic!("expected Ed, got {}", exec.bound_name());
        };
        assert_eq!((*d, phis.len()), (8, 3));
        let quantizer = Quantizer::identity(alpha).unwrap();
        for (i, row) in data.dataset().rows().enumerate() {
            let qv = quantizer.quantize_vec(row).unwrap();
            assert_eq!(row_of(&exec, *region, i), qv.floors, "ed row {i}");
            let phi = qv.stats.sum_sq_scaled - 2.0 * qv.stats.sum_floor as f64;
            assert_eq!(phis[i], phi, "ed phi {i}");
        }

        let data = fnn_data();
        let exec = PimExecutor::prepare_euclidean(cfg(8), &data).unwrap();
        let PreparedFunction::Fnn {
            mu_region,
            sigma_region,
            phis,
            d_prime,
            segment_len,
        } = exec.prepared()
        else {
            panic!("expected Fnn, got {}", exec.bound_name());
        };
        assert_eq!(d_prime * segment_len, 8);
        for (i, row) in data.dataset().rows().enumerate() {
            let fq = FnnQuant::compute(row, *d_prime, alpha).unwrap();
            assert_eq!(row_of(&exec, *mu_region, i), fq.mu_floors, "fnn mu {i}");
            assert_eq!(
                row_of(&exec, *sigma_region, i),
                fq.sigma_floors,
                "fnn sigma {i}"
            );
            assert_eq!(phis[i], fq.phi, "fnn phi {i}");
        }
        // The explicit-`d_prime` front stores the same matrix.
        let forced = PimExecutor::prepare_fnn(cfg(8), &data, *d_prime).unwrap();
        for region in exec.prepared.regions() {
            for i in 0..data.dataset().len() {
                assert_eq!(row_of(&forced, region, i), row_of(&exec, region, i));
            }
        }

        let data = sm_data();
        let mut c = cfg(34);
        c.double_buffer = true;
        let exec = PimExecutor::prepare_euclidean(c, &data).unwrap();
        let PreparedFunction::Sm {
            mu_region,
            phis,
            d_prime,
            segment_len,
        } = exec.prepared()
        else {
            panic!("expected Sm, got {}", exec.bound_name());
        };
        assert_eq!(d_prime * segment_len, 8);
        for (i, row) in data.dataset().rows().enumerate() {
            let sq = crate::pim_bounds::SmQuant::compute(row, *d_prime, alpha).unwrap();
            assert_eq!(row_of(&exec, *mu_region, i), sq.mu_floors, "sm mu {i}");
            assert_eq!(phis[i], sq.phi, "sm phi {i}");
        }
    }

    #[test]
    fn streamed_builder_matches_one_shot_ed() {
        let data = sample_data();
        for block in [1, 2, 3, 8] {
            assert_block_size_invariant(cfg(4096), &data, 2, block);
        }
    }

    #[test]
    fn streamed_builder_matches_one_shot_fnn() {
        let data = fnn_data();
        let streamed = PimExecutor::begin_euclidean_resident(cfg(8), 64, 8, 0).unwrap();
        assert!(streamed.plan().s < 8, "shape must be compressed");
        drop(streamed);
        for block in [1, 7, 64] {
            assert_block_size_invariant(cfg(8), &data, 0, block);
        }
    }

    #[test]
    fn streamed_builder_matches_one_shot_sm() {
        let data = sm_data();
        let mut c = cfg(34);
        c.double_buffer = true;
        let one = PimExecutor::prepare_euclidean_resident(c, &data, 0).unwrap();
        assert!(one.bound_name().starts_with("LB_PIM-SM"));
        drop(one);
        for block in [1, 7, 512] {
            assert_block_size_invariant(c, &data, 0, block);
        }
    }

    #[test]
    fn streamed_builder_rejects_misdeclared_totals() {
        let data = sample_data();
        let ds = data.dataset();
        // Finishing early is rejected.
        let mut b = PimExecutor::begin_euclidean_resident(cfg(4096), 3, 8, 0).unwrap();
        b.push_rows(ds.row(0)).unwrap();
        assert!(b.finish().is_err());
        // Pushing past the declared total is rejected.
        let mut b = PimExecutor::begin_euclidean_resident(cfg(4096), 1, 8, 0).unwrap();
        b.push_rows(ds.row(0)).unwrap();
        assert!(b.push_rows(ds.row(1)).is_err());
        // Ragged blocks are rejected.
        let mut b = PimExecutor::begin_euclidean_resident(cfg(4096), 2, 8, 0).unwrap();
        assert!(b.push_rows(&ds.as_flat()[..5]).is_err());
    }

    #[test]
    fn forced_fnn_segmentation() {
        let data = sample_data();
        let mut exec = PimExecutor::prepare_fnn(cfg(4096), &data, 4).unwrap();
        assert_eq!(exec.bound_name(), "LB_PIM-FNN^4");
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let batch = exec.lb_ed_batch(&q).unwrap();
        for (i, &lb) in batch.values.iter().enumerate() {
            assert!(lb <= euclidean_sq(data.dataset().row(i), &q) + 1e-9);
        }
        // Bad segmentations are rejected.
        assert!(PimExecutor::prepare_fnn(cfg(4096), &data, 3).is_err());
        assert!(PimExecutor::prepare_fnn(cfg(4096), &data, 0).is_err());
    }

    #[test]
    fn prepare_euclidean_falls_back_to_sm_under_extreme_pressure() {
        // Budget window where the single-region plan fits at some s but
        // FNN's two regions (x2 double-buffer) do not fit even at s = 1:
        // prepare_euclidean must degrade to the mean-only bound instead
        // of failing.
        let data = sm_data();
        let mut c = cfg(34);
        c.double_buffer = true;
        let mut exec = PimExecutor::prepare_euclidean(c, &data).unwrap();
        assert!(
            exec.bound_name().starts_with("LB_PIM-SM"),
            "{}",
            exec.bound_name()
        );
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let batch = exec.lb_ed_batch(&q).unwrap();
        for (i, &lb) in batch.values.iter().enumerate() {
            assert!(
                lb <= euclidean_sq(data.dataset().row(i), &q) + 1e-9,
                "i={i}"
            );
        }
    }

    #[test]
    fn sm_path_lower_bounds_exact_distance() {
        let data = sample_data();
        let mut exec = PimExecutor::prepare_sm(cfg(4096), &data, 4).unwrap();
        assert_eq!(exec.bound_name(), "LB_PIM-SM^4");
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let batch = exec.lb_ed_batch(&q).unwrap();
        for (i, &lb) in batch.values.iter().enumerate() {
            assert!(
                lb <= euclidean_sq(data.dataset().row(i), &q) + 1e-9,
                "i={i}"
            );
        }
        assert_eq!(batch.host_bytes_per_object, 16);
        // One region: SM at the same segmentation is cheaper than FNN.
        let fnn = PimExecutor::prepare_fnn(cfg(4096), &data, 4).unwrap();
        assert!(exec.report().crossbars_used <= fnn.report().crossbars_used);
        assert!(PimExecutor::prepare_sm(cfg(4096), &data, 3).is_err());
    }

    #[test]
    fn similarity_paths_upper_bound() {
        let data = sample_data();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        for (target, name) in [
            (SimTarget::Cosine, "UB_PIM-CS"),
            (SimTarget::Pearson, "UB_PIM-PCC"),
        ] {
            let mut exec = PimExecutor::prepare_similarity(cfg(4096), &data, target).unwrap();
            assert_eq!(exec.bound_name(), name);
            let batch = exec.ub_sim_batch(&q).unwrap();
            for (i, &ub) in batch.values.iter().enumerate() {
                let exact = match target {
                    SimTarget::Cosine => cosine(data.dataset().row(i), &q),
                    SimTarget::Pearson => pearson(data.dataset().row(i), &q),
                };
                assert!(ub >= exact - 1e-9, "{name} i={i}: {ub} < {exact}");
            }
        }
    }

    #[test]
    fn hamming_path_is_exact() {
        let mut codes = BinaryDataset::with_bits(16).unwrap();
        let patterns: [u16; 4] = [0b1010_1100_0110_1001, 0xFFFF, 0x0000, 0b0001_0010_0100_1000];
        for p in patterns {
            let bits: Vec<bool> = (0..16).map(|i| (p >> i) & 1 == 1).collect();
            codes.push_bits(&bits).unwrap();
        }
        let mut exec = PimExecutor::prepare_hamming(cfg(4096), &codes).unwrap();
        assert_eq!(exec.bound_name(), "HD_PIM");
        let q = codes.row(0);
        let batch = exec.hd_batch(&q).unwrap();
        for i in 0..4 {
            assert_eq!(batch.values[i] as u32, q.hamming(&codes.row(i)), "i={i}");
        }
        assert_eq!(batch.values[0], 0.0);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let data = sample_data();
        let mut ed = PimExecutor::prepare_euclidean(cfg(4096), &data).unwrap();
        assert!(ed.lb_ed_batch(&[0.5; 4]).is_err()); // wrong dims
        assert!(ed.ub_sim_batch(&[0.5; 8]).is_err()); // wrong shape
        let mut codes = BinaryDataset::with_bits(8).unwrap();
        codes.push_bits(&[true; 8]).unwrap();
        let mut hd = PimExecutor::prepare_hamming(cfg(4096), &codes).unwrap();
        assert!(hd.lb_ed_batch(&[0.5; 8]).is_err());
        let mut other = BinaryDataset::with_bits(16).unwrap();
        other.push_bits(&[false; 16]).unwrap();
        assert!(hd.hd_batch(&other.row(0)).is_err()); // wrong width
    }

    #[test]
    fn offline_report_tracks_writes_and_phi() {
        let data = sample_data();
        let exec = PimExecutor::prepare_euclidean(cfg(4096), &data).unwrap();
        let r = exec.report();
        assert!(r.cell_writes > 0);
        assert!(r.program_ns > 0.0);
        assert_eq!(r.phi_bytes, 3 * 8);
        assert!(r.crossbars_used > 0);
        assert_eq!(exec.bank().memory().used(), 24);
    }

    #[test]
    fn double_buffer_doubles_reservation() {
        let data = sample_data();
        let single = PimExecutor::prepare_euclidean(cfg(4096), &data).unwrap();
        let mut c = cfg(4096);
        c.double_buffer = true;
        let double = PimExecutor::prepare_euclidean(c, &data).unwrap();
        assert_eq!(
            double.report().crossbars_used,
            2 * single.report().crossbars_used
        );
    }

    #[test]
    fn inert_fault_model_changes_nothing() {
        let data = sample_data();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let mut clean = PimExecutor::prepare_euclidean(cfg(4096), &data).unwrap();
        let mut c = cfg(4096);
        c.faults = Some(FaultConfig::default());
        c.scrub_interval = 2;
        let mut faulty = PimExecutor::prepare_euclidean(c, &data).unwrap();
        for _ in 0..5 {
            let a = clean.lb_ed_batch(&q).unwrap();
            let b = faulty.lb_ed_batch(&q).unwrap();
            assert_eq!(a.values, b.values);
        }
        let fc = faulty.fault_counters();
        assert_eq!(fc.faults_detected, 0);
        assert_eq!(fc.guarded_bounds, 0);
        assert_eq!(fc.fallback_refinements, 0);
        assert!(fc.scrubs >= 3, "initial + periodic scrubs: {}", fc.scrubs);
        assert_eq!(faulty.report().fault_counters.scrubs, 1);
    }

    #[test]
    fn faulty_ed_bounds_stay_valid_and_counters_move() {
        let data = sample_data();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let mut saw_guarded = false;
        for seed in 0..8u64 {
            let mut c = cfg(4096);
            c.faults = Some(FaultConfig {
                stuck_low_rate: 0.02,
                stuck_high_rate: 0.02,
                seed,
                ..Default::default()
            });
            let mut exec = PimExecutor::prepare_euclidean(c, &data).unwrap();
            let batch = exec.lb_ed_batch(&q).unwrap();
            for (i, &lb) in batch.values.iter().enumerate() {
                let ed = euclidean_sq(data.dataset().row(i), &q);
                assert!(lb <= ed + 1e-9, "seed={seed} i={i}: {lb} > {ed}");
            }
            saw_guarded |= batch.fault_counters.guarded_bounds > 0;
        }
        assert!(saw_guarded, "some seed must drift an object");
    }

    #[test]
    fn dead_crossbars_fall_back_to_exact_host_bounds() {
        let data = sample_data();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let mut clean = PimExecutor::prepare_euclidean(cfg(4096), &data).unwrap();
        let expected = clean.lb_ed_batch(&q).unwrap().values;
        // Every wordline dead and zero spares: all objects quarantined.
        let mut c = cfg(4096);
        c.pim.num_crossbars = 2; // exactly the single-region allocation
        c.faults = Some(FaultConfig {
            dead_wordline_rate: 1.0,
            ..Default::default()
        });
        let mut exec = PimExecutor::prepare_euclidean(c, &data).unwrap();
        let batch = exec.lb_ed_batch(&q).unwrap();
        assert_eq!(batch.values, expected, "host fallback must be exact");
        assert!(batch.fault_counters.quarantined_rows > 0);
        assert_eq!(batch.fault_counters.fallback_refinements, 3);
        assert_eq!(batch.fault_counters.remapped_crossbars, 0);
    }

    #[test]
    fn remap_recovers_dead_crossbars_transparently() {
        let data = sample_data();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let mut clean = PimExecutor::prepare_euclidean(cfg(4096), &data).unwrap();
        let expected = clean.lb_ed_batch(&q).unwrap().values;
        // Moderate dead-line rates with plenty of spares: most spares are
        // clean, so dead crossbars remap and results are exact without any
        // per-query fallback work.
        let mut saw_remap = false;
        for seed in 0..16u64 {
            let mut c = cfg(4096);
            c.faults = Some(FaultConfig {
                dead_bitline_rate: 0.05,
                dead_wordline_rate: 0.05,
                seed,
                ..Default::default()
            });
            let mut exec = PimExecutor::prepare_euclidean(c, &data).unwrap();
            let batch = exec.lb_ed_batch(&q).unwrap();
            assert_eq!(batch.values, expected, "seed={seed}");
            assert_eq!(batch.fault_counters.quarantined_rows, 0, "seed={seed}");
            saw_remap |= batch.fault_counters.remapped_crossbars > 0;
        }
        assert!(saw_remap, "some seed must kill and remap a crossbar");
    }

    #[test]
    fn faulty_hamming_stays_exact() {
        let mut codes = BinaryDataset::with_bits(16).unwrap();
        let patterns: [u16; 4] = [0b1010_1100_0110_1001, 0xFFFF, 0x0000, 0b0001_0010_0100_1000];
        for p in patterns {
            let bits: Vec<bool> = (0..16).map(|i| (p >> i) & 1 == 1).collect();
            codes.push_bits(&bits).unwrap();
        }
        for seed in 0..8u64 {
            let mut c = cfg(4096);
            c.faults = Some(FaultConfig {
                stuck_low_rate: 0.05,
                dead_bitline_rate: 0.05,
                seed,
                ..Default::default()
            });
            let mut exec = PimExecutor::prepare_hamming(c, &codes).unwrap();
            let q = codes.row(0);
            let batch = exec.hd_batch(&q).unwrap();
            for i in 0..4 {
                assert_eq!(
                    batch.values[i] as u32,
                    q.hamming(&codes.row(i)),
                    "seed={seed} i={i}"
                );
            }
        }
    }

    #[test]
    fn faulty_similarity_bounds_stay_upper_bounds() {
        let data = sample_data();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        for seed in 0..8u64 {
            for target in [SimTarget::Cosine, SimTarget::Pearson] {
                let mut c = cfg(4096);
                c.faults = Some(FaultConfig {
                    stuck_low_rate: 0.03,
                    stuck_high_rate: 0.03,
                    seed,
                    ..Default::default()
                });
                let mut exec = PimExecutor::prepare_similarity(c, &data, target).unwrap();
                let batch = exec.ub_sim_batch(&q).unwrap();
                for (i, &ub) in batch.values.iter().enumerate() {
                    let exact = match target {
                        SimTarget::Cosine => cosine(data.dataset().row(i), &q),
                        SimTarget::Pearson => pearson(data.dataset().row(i), &q),
                    };
                    assert!(ub >= exact - 1e-9, "seed={seed} i={i}: {ub} < {exact}");
                }
            }
        }
    }

    #[test]
    fn exhausted_adc_retries_surface_as_core_errors() {
        let data = sample_data();
        let mut c = cfg(4096);
        c.faults = Some(FaultConfig {
            adc_glitch_rate: 1.0,
            adc_retry_limit: 2,
            ..Default::default()
        });
        let err = PimExecutor::prepare_euclidean(c, &data).unwrap_err();
        assert!(matches!(
            err,
            CoreError::ReRam(simpim_reram::ReRamError::AdcRetryExhausted { .. })
        ));
    }

    #[test]
    fn resident_append_matches_offline_prepare() {
        // Prepare the first two rows with one spare slot, append the third
        // row online: bounds must be bit-identical to preparing all three
        // rows offline (same quantization, same per-object combine).
        let all = sample_data();
        let first_two = normalized(&[
            vec![0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6],
            vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
        ]);
        let mut offline = PimExecutor::prepare_euclidean(cfg(4096), &all).unwrap();
        let mut resident =
            PimExecutor::prepare_euclidean_resident(cfg(4096), &first_two, 1).unwrap();
        assert_eq!(resident.spare_capacity().unwrap(), 1);
        let wear_before = resident.bank().pim().total_cell_writes();
        let idx = resident
            .append_row(&[0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4])
            .unwrap();
        assert_eq!(idx, 2);
        assert_eq!(resident.spare_capacity().unwrap(), 0);
        assert!(resident.bank().pim().total_cell_writes() > wear_before);
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let a = offline.lb_ed_batch(&q).unwrap();
        let b = resident.lb_ed_batch(&q).unwrap();
        // One bound per resident object: the initial rows and the append.
        assert_eq!(b.values.len(), 3);
        assert_eq!(a.values, b.values);
        // Exhausted spares reject further appends.
        assert!(resident.append_row(&[0.5; 8]).is_err());
        // Wrong dimensionality is rejected before any mutation.
        assert!(matches!(
            resident.append_row(&[0.5; 4]),
            Err(CoreError::Mismatch { .. })
        ));
    }

    #[test]
    fn resident_append_works_on_compressed_shapes() {
        // Capacity pressure forces the FNN (or SM) shape; appends must
        // still land and the bounds stay valid lower bounds.
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                (0..8)
                    .map(|j| ((i * 7 + j * 13) % 97) as f64 / 96.0)
                    .collect()
            })
            .collect();
        let data = normalized(&rows);
        let mut exec = PimExecutor::prepare_euclidean_resident(cfg(8), &data, 4).unwrap();
        assert!(!exec.bound_name().starts_with("LB_PIM-ED"));
        let extra: Vec<f64> = (0..8).map(|j| (j as f64) / 7.0).collect();
        let idx = exec.append_row(&extra).unwrap();
        assert_eq!(idx, 60);
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let batch = exec.lb_ed_batch(&q).unwrap();
        assert_eq!(batch.values.len(), 61);
        let ed = euclidean_sq(&extra, &q);
        assert!(batch.values[60] <= ed + 1e-9);
    }

    #[test]
    fn rewrites_truncation_and_relayout_match_a_fresh_prepare_and_keep_wear() {
        // Rows [a, b, c] rewritten in place to [c, b] (c over a, then the
        // tail dropped) must bound exactly like [c, b] prepared afresh.
        let rows = sample_data()
            .dataset()
            .rows()
            .map(<[f64]>::to_vec)
            .collect::<Vec<_>>();
        let mut exec =
            PimExecutor::prepare_euclidean_resident(cfg(4096), &sample_data(), 1).unwrap();
        let written = exec.bank().pim().total_cell_writes();
        exec.write_row(0, &rows[2]).unwrap();
        exec.truncate(2).unwrap();
        assert!(exec.bank().pim().total_cell_writes() > written);
        assert_eq!(exec.spare_capacity().unwrap(), 2);
        assert!(exec.write_row(3, &rows[0]).is_err(), "no holes past n");
        let fresh_rows = normalized(&[rows[2].clone(), rows[1].clone()]);
        let mut fresh = PimExecutor::prepare_euclidean(cfg(4096), &fresh_rows).unwrap();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        assert_eq!(
            exec.lb_ed_batch(&q).unwrap().values,
            fresh.lb_ed_batch(&q).unwrap().values
        );
        // A re-layout for more rows than the allocation holds plans anew on
        // the same bank: the old wear carries over.
        exec.bank_mut().pim_mut().age_crossbars(10);
        let grown: Vec<f64> = [2, 1, 0, 1].iter().flat_map(|&i| rows[i].clone()).collect();
        exec.relayout(4, 1, |b| b.push_rows(&grown)).unwrap();
        assert_eq!(exec.spare_capacity().unwrap(), 1);
        assert!(exec.bank().pim().crossbar_programs(0) >= 12);
        assert_eq!(exec.lb_ed_batch(&q).unwrap().values.len(), 4);
    }

    /// A fine coalesced pass ([`PimExecutor::bounds`]) of `queries`.
    fn fine_batches<Q: AsRef<[f64]>>(
        exec: &mut PimExecutor,
        queries: &[Q],
    ) -> Result<Vec<BoundBatch>, CoreError> {
        let parent = simpim_obs::TraceCtx::NONE;
        Ok(exec.bounds(queries, Read::Fine, parent, None)?.batches)
    }

    /// A fine coalesced pass as it was before the pass took a batch: one
    /// single-query pass after the other, stopping at the first error.
    fn sequential(
        exec: &mut PimExecutor,
        queries: &[Vec<f64>],
    ) -> Result<Vec<BoundBatch>, CoreError> {
        queries.iter().map(|q| exec.lb_ed_batch(q)).collect()
    }

    /// Everything the modeled device and the host account for, by bits.
    fn ledger(exec: &PimExecutor) -> (FaultCounters, u64, [u64; 3], u64) {
        let energy = exec.bank().pim().energy();
        (
            *exec.fault_counters(),
            exec.bank().dispatches(),
            [energy.write_j, energy.compute_j, energy.bus_j].map(f64::to_bits),
            exec.bank().buffer().high_water(),
        )
    }

    fn assert_same_batches(got: &[BoundBatch], want: &[BoundBatch], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let bits = |b: &BoundBatch| b.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{what}: values of query {i}");
            assert_eq!(g.timing, w.timing, "{what}: timing of query {i}");
            assert_eq!(g.host_bytes_per_object, w.host_bytes_per_object, "{what}");
            assert_eq!(
                g.fault_counters, w.fault_counters,
                "{what}: cumulative counters at query {i}"
            );
        }
    }

    /// A coarse-first batch against the fine one: the same batches but
    /// for the values of a query that read coarse, each at most the fine
    /// value, whose fine values `lb_ed_fine` gives back bit for bit.
    fn assert_coarse_batch(exec: &PimExecutor, read: &Bounds, fine: &[BoundBatch], what: &str) {
        let mut same = read.batches.clone();
        for (j, (batch, want)) in same.iter_mut().zip(fine).enumerate() {
            if !read.is_coarse(j) {
                continue;
            }
            let objs: Vec<usize> = (0..want.values.len()).collect();
            let mut values = vec![f64::NAN; objs.len()];
            exec.lb_ed_fine(read, j, &objs, &mut values).unwrap();
            for (coarse, fine) in batch.values.iter().zip(&want.values) {
                assert!(coarse <= fine, "{what}: query {j}: {coarse} above {fine}");
            }
            batch.values = values;
        }
        assert_same_batches(&same, fine, what);
    }

    /// A coarse coalesced pass into columns whose rows run against the
    /// objects, every entry NaN before; each batch then takes its values
    /// back from its column, object by object.
    fn read_columns(exec: &mut PimExecutor, queries: &[Vec<f64>], n: usize) -> Bounds {
        let rows: Vec<usize> = (0..n).rev().collect();
        let mut values = vec![f64::NAN; n * queries.len()];
        let out = Columns {
            rows: &rows,
            values: &mut values,
        };
        let parent = simpim_obs::TraceCtx::NONE;
        let mut read = exec
            .bounds(queries, Read::Coarse, parent, Some(out))
            .unwrap();
        for (batch, column) in read.batches.iter_mut().zip(values.chunks_exact(n)) {
            assert!(batch.values.is_empty());
            batch.values = rows.iter().map(|&i| column[i]).collect();
        }
        read
    }

    /// The coalesced pass against the loop it replaced, on twin
    /// executors: the three ED-family shapes (resident, rows appended)
    /// under no fault model, an inert one, stuck cells behind a
    /// glitching ADC and every wordline dead, with the scrub cadence at
    /// every batch and at every third — seven queries a batch, so the
    /// scrubs fall mid-batch — and the crossbars aged past their
    /// endurance between two batches, so that a mid-batch scrub finds new
    /// damage and the queries after it read differently from those
    /// before. Every `BoundBatch` field, the cumulative counters query by
    /// query, dispatches, energy and buffer pressure must match by bits.
    /// A third twin reads coarse first: the same ledger and batches
    /// ([`assert_coarse_batch`]), coarse only on `LB_PIM-ED` without an
    /// active fault model, and there for every query without one.
    #[test]
    fn a_coalesced_pass_matches_the_sequential_loop() {
        let rows_of = |data: &NormalizedDataset| -> Vec<Vec<f64>> {
            data.dataset().rows().map(<[f64]>::to_vec).collect()
        };
        let head = |data: NormalizedDataset, n: usize| normalized(&rows_of(&data)[..n]);
        let queries: Vec<Vec<f64>> = (0..7)
            .map(|i| {
                (0..8)
                    .map(|j| ((i * 29 + j * 31) % 101) as f64 / 100.0)
                    .collect()
            })
            .collect();
        let sm_cfg = ExecutorConfig {
            double_buffer: true,
            ..cfg(34)
        };
        let shapes = [
            ("LB_PIM-ED", cfg(4096), sample_data()),
            ("LB_PIM-FNN^2", cfg(8), head(fnn_data(), 61)),
            ("LB_PIM-SM^1", sm_cfg, head(sm_data(), 509)),
        ];
        let worn = |model: FaultConfig| FaultConfig {
            endurance_limit: 4,
            ..model
        };
        let models = [
            ("no fault model", None),
            ("inert model", Some(FaultConfig::default())),
            (
                "stuck cells, glitching ADC",
                Some(worn(FaultConfig {
                    stuck_low_rate: 0.03,
                    stuck_high_rate: 0.03,
                    adc_glitch_rate: 0.05,
                    seed: 1,
                    ..Default::default()
                })),
            ),
            (
                "all wordlines dead",
                Some(worn(FaultConfig {
                    dead_wordline_rate: 1.0,
                    ..Default::default()
                })),
            ),
        ];
        for (name, base, data) in &shapes {
            for (model, faults) in &models {
                for scrub_interval in [1, 3] {
                    let what = format!("{name}, {model}, scrub every {scrub_interval}");
                    let build = || {
                        let c = ExecutorConfig {
                            faults: *faults,
                            scrub_interval,
                            ..*base
                        };
                        let mut exec = PimExecutor::prepare_euclidean_resident(c, data, 2).unwrap();
                        exec.append_row(&queries[3]).unwrap();
                        exec.append_row(&queries[5]).unwrap();
                        exec
                    };
                    let (mut exec, mut twin, mut coarse) = (build(), build(), build());
                    assert_eq!(exec.bound_name(), *name);
                    let mut recoveries = Vec::new();
                    for round in 0..3 {
                        if round == 1 {
                            for e in [&mut exec, &mut twin, &mut coarse] {
                                e.bank_mut().pim_mut().age_crossbars(8);
                            }
                        }
                        let got = fine_batches(&mut exec, &queries).unwrap();
                        let want = sequential(&mut twin, &queries).unwrap();
                        assert_same_batches(&got, &want, &format!("{what}, round {round}"));
                        assert_eq!(ledger(&exec), ledger(&twin), "{what}, round {round}");
                        let read = read_columns(&mut coarse, &queries, got[0].values.len());
                        let what = format!("{what}, round {round}, coarse first");
                        assert_coarse_batch(&coarse, &read, &got, &what);
                        assert_eq!(ledger(&coarse), ledger(&exec), "{what}");
                        let clean = faults.is_none_or(|f| f.is_inert());
                        let reads_coarse = (0..queries.len()).map(|j| read.is_coarse(j));
                        if *name != "LB_PIM-ED" || !clean {
                            assert!(!reads_coarse.clone().any(|c| c), "{what}");
                        } else if faults.is_none() {
                            assert!(reads_coarse.clone().all(|c| c), "{what}");
                        }
                        recoveries.extend(got.iter().map(|b| {
                            b.fault_counters.scrubs + b.fault_counters.fallback_refinements
                        }));
                    }
                    if scrub_interval == 3 && faults.is_some_and(|f| f.endurance_limit > 0) {
                        // The aged crossbars were found by a scrub that
                        // fell inside a batch: the counters step there.
                        let steps = recoveries.windows(2).filter(|w| w[0] != w[1]).count();
                        assert!(steps >= 2, "{what}: {recoveries:?}");
                        let within = |batch: &[u64]| batch.first() != batch.last();
                        assert!(recoveries.chunks(7).any(within), "{what}: {recoveries:?}");
                    }
                }
            }
        }
    }

    /// A bank that fail-stops inside a coalesced batch returns the loop's
    /// error with the loop's dispatch count, for one region and for two,
    /// and — read through stuck cells, so the counters move — has
    /// accounted the queries served before the loss as the loop had; a
    /// query of the wrong width or with a NaN fails the whole batch
    /// before anything was dispatched, scrubbed or charged.
    #[test]
    fn a_coalesced_pass_fails_like_the_loop_and_checks_before_dispatch() {
        let queries: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..8).map(|j| ((i * 3 + j) % 10) as f64 / 10.0).collect())
            .collect();
        for (name, base, data) in [
            ("LB_PIM-ED", cfg(4096), sample_data()),
            ("LB_PIM-FNN^2", cfg(8), fnn_data()),
        ] {
            for trip in [1, 3, 4] {
                let build = || {
                    let c = ExecutorConfig {
                        faults: Some(FaultConfig {
                            stuck_low_rate: 0.03,
                            stuck_high_rate: 0.03,
                            seed: 1,
                            bank_loss_after_dispatches: trip,
                            ..Default::default()
                        }),
                        ..base
                    };
                    PimExecutor::prepare_euclidean(c, &data).unwrap()
                };
                let (mut exec, mut twin) = (build(), build());
                assert_eq!(exec.bound_name(), name);
                let got = fine_batches(&mut exec, &queries);
                let want = sequential(&mut twin, &queries);
                assert!(matches!(
                    got,
                    Err(CoreError::ReRam(simpim_reram::ReRamError::BankLost))
                ));
                assert_eq!(got, want, "{name}, loss after {trip}");
                assert!(exec.bank_lost());
                assert_eq!(exec.bank().dispatches(), trip);
                assert_eq!(ledger(&exec), ledger(&twin), "{name}, loss after {trip}");
                let counters = exec.fault_counters();
                let recovered = counters.guarded_bounds + counters.fallback_refinements;
                let regions = exec.prepared.regions().len() as u64;
                assert_eq!(recovered > 0, trip >= regions, "{name}, loss after {trip}");
            }
        }

        let faults = Some(FaultConfig {
            stuck_low_rate: 0.03,
            seed: 1,
            ..Default::default()
        });
        let c = ExecutorConfig {
            faults,
            scrub_interval: 1,
            ..cfg(4096)
        };
        let mut exec = PimExecutor::prepare_euclidean(c, &sample_data()).unwrap();
        let before = ledger(&exec);
        let mut narrow = queries.clone();
        narrow[3].pop();
        assert_eq!(
            fine_batches(&mut exec, &narrow),
            Err(CoreError::Mismatch {
                what: "query dimensionality"
            })
        );
        let mut poisoned = queries.clone();
        poisoned[4][2] = f64::NAN;
        assert!(matches!(
            fine_batches(&mut exec, &poisoned),
            Err(CoreError::Similarity(_))
        ));
        assert_eq!(
            ledger(&exec),
            before,
            "nothing dispatched, scrubbed or charged"
        );
        let mut twin = PimExecutor::prepare_euclidean(c, &sample_data()).unwrap();
        let got = fine_batches(&mut exec, &queries).unwrap();
        assert_same_batches(&got, &sequential(&mut twin, &queries).unwrap(), "after");
    }

    /// The refusals of the coarse-first pass, each a
    /// `CoreError::Mismatch` with nothing dispatched, scrubbed or charged:
    /// columns whose length is not a multiple of the queries, rows that
    /// are not one per object, and rows past the column (`[0, 1, 5]` over
    /// columns of 3) or named twice, all checked before the first
    /// dispatch on an executor that scrubs before every query; and
    /// `lb_ed_fine` asked about a query that read fine — the one query of
    /// a batch of one, and every query on the `LB_PIM-FNN` shape.
    #[test]
    fn a_bad_column_or_a_fine_query_is_refused_before_dispatch() {
        let queries: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..8).map(|j| ((i * 3 + j) % 10) as f64 / 10.0).collect())
            .collect();
        let parent = simpim_obs::TraceCtx::NONE;
        let c = ExecutorConfig {
            faults: Some(FaultConfig {
                stuck_low_rate: 0.03,
                seed: 1,
                ..Default::default()
            }),
            scrub_interval: 1,
            ..cfg(4096)
        };
        let mut exec = PimExecutor::prepare_euclidean(c, &sample_data()).unwrap();
        let before = ledger(&exec);
        let (n, q) = (3, queries.len());
        let inside = "column rows inside the column, none twice";
        for (rows, len, what) in [
            (vec![0, 1, 2], n * q - 1, "a column per query"),
            (vec![0, 1], n * q, "a column row per object"),
            (vec![0, 1, 2, 3], (n + 1) * q, "a column row per object"),
            (vec![0, 1, 5], n * q, inside),
            (vec![0, 2, 2], n * q, inside),
        ] {
            let mut values = vec![0.0; len];
            let out = Columns {
                rows: &rows,
                values: &mut values,
            };
            let got = exec.bounds(&queries, Read::Coarse, parent, Some(out));
            assert_eq!(got.err(), Some(CoreError::Mismatch { what }));
            assert_eq!(
                ledger(&exec),
                before,
                "{what}: nothing dispatched or charged"
            );
        }

        let refused = Err(CoreError::Mismatch {
            what: "fine bounds of a query that read coarse",
        });
        let mut fine = [0.0];
        let mut clean = PimExecutor::prepare_euclidean(cfg(4096), &sample_data()).unwrap();
        let read = clean.bounds(&queries, Read::Coarse, parent, None).unwrap();
        assert!(read.is_coarse(2), "three queries read coarse");
        clean.lb_ed_fine(&read, 2, &[0], &mut fine).unwrap();
        let mut fnn = PimExecutor::prepare_euclidean(cfg(8), &fnn_data()).unwrap();
        assert_eq!(fnn.bound_name(), "LB_PIM-FNN^2");
        for (exec, queries) in [(&mut clean, &queries[..1]), (&mut fnn, &queries[..])] {
            let read = exec.bounds(queries, Read::Coarse, parent, None).unwrap();
            let before = ledger(exec);
            for j in 0..queries.len() {
                assert!(!read.is_coarse(j));
                assert_eq!(exec.lb_ed_fine(&read, j, &[0], &mut fine), refused);
            }
            assert_eq!(ledger(exec), before);
        }
    }

    #[test]
    fn resident_append_stays_exact_under_faults() {
        let first_two = normalized(&[
            vec![0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6],
            vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
        ]);
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let mut clean = PimExecutor::prepare_euclidean_resident(cfg(4096), &first_two, 1).unwrap();
        clean
            .append_row(&[0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4])
            .unwrap();
        let expected = clean.lb_ed_batch(&q).unwrap().values;
        for seed in 0..4u64 {
            let mut c = cfg(4096);
            c.faults = Some(FaultConfig {
                dead_bitline_rate: 0.05,
                seed,
                ..Default::default()
            });
            let mut exec = PimExecutor::prepare_euclidean_resident(c, &first_two, 1).unwrap();
            exec.append_row(&[0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4])
                .unwrap();
            // The post-append scrub keeps health lookups available, so the
            // batch neither errors nor silently degrades.
            let batch = exec.lb_ed_batch(&q).unwrap();
            for (i, (&got, &want)) in batch.values.iter().zip(&expected).enumerate() {
                let ed = euclidean_sq(
                    if i < 2 {
                        first_two.dataset().row(i)
                    } else {
                        &[0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4]
                    },
                    &q,
                );
                assert!(got <= ed + 1e-9, "seed={seed} i={i}");
                // Remap (clean spares abound at 4096 crossbars) keeps the
                // values bit-identical to the fault-free run.
                assert_eq!(got, want, "seed={seed} i={i}");
            }
        }
    }

    /// What a pass is given: a float vector or a binary code.
    #[derive(Clone, Copy)]
    enum Operand<'a> {
        Vector(&'a [f64]),
        Code(BinaryVecRef<'a>),
    }

    /// The per-shape pass kept as the reference: each shape's own
    /// quantisation, its dot batches issued region by region on `twin`'s
    /// bank (an executor built exactly like the one under test, so its
    /// fault map and ADC-glitch stream are in the same state), and per
    /// object the health rule and the `pim_bounds` function of that shape,
    /// written out arm by arm. Φ terms are recomputed from `rows`, the
    /// test's own copy of the stored vectors.
    fn reference_batch(
        twin: &mut PimExecutor,
        rows: &[Vec<f64>],
        input: Operand<'_>,
    ) -> BoundBatch {
        use crate::pim_bounds::{lb_pim_ed, lb_pim_fnn, lb_pim_sm};
        let alpha = twin.config().alpha;
        let quantizer = Quantizer::identity(alpha).unwrap();
        let faults = twin.config().faults.is_some_and(|f| !f.is_inert());
        let prepared = twin.prepared().clone();

        // Regions in call order, the query's operands for each, its Φ.
        let (regions, floors, phi_q, acc, host_bytes) = match (&prepared, input) {
            (PreparedFunction::Ed { region, .. }, Operand::Vector(v)) => {
                let eq = EdQuant::from_quantized(quantizer.quantize_vec(v).unwrap());
                (vec![*region], vec![eq.floors], eq.phi, AccWidth::U64, 16)
            }
            (
                PreparedFunction::Fnn {
                    mu_region,
                    sigma_region,
                    d_prime,
                    ..
                },
                Operand::Vector(v),
            ) => {
                let fq = FnnQuant::compute(v, *d_prime, alpha).unwrap();
                let regions = vec![*mu_region, *sigma_region];
                let floors = vec![fq.mu_floors, fq.sigma_floors];
                (regions, floors, fq.phi, AccWidth::U64, 24)
            }
            (
                PreparedFunction::Sm {
                    mu_region, d_prime, ..
                },
                Operand::Vector(v),
            ) => {
                let sq = SmQuant::compute(v, *d_prime, alpha).unwrap();
                (
                    vec![*mu_region],
                    vec![sq.mu_floors],
                    sq.phi,
                    AccWidth::U64,
                    16,
                )
            }
            (PreparedFunction::Dot { region, .. }, Operand::Vector(v)) => {
                let floors = quantizer.quantize_vec(v).unwrap().floors;
                (vec![*region], vec![floors], 0.0, AccWidth::U64, 32)
            }
            (
                PreparedFunction::Hamming {
                    code_region,
                    comp_region,
                    ..
                },
                Operand::Code(c),
            ) => {
                let regions = vec![*code_region, *comp_region];
                let floors = vec![c.to_unsigned(), c.complement_to_unsigned()];
                (regions, floors, 0.0, AccWidth::U32, 8)
            }
            _ => panic!("operand does not fit the shape"),
        };

        let outs: Vec<_> = regions
            .iter()
            .zip(&floors)
            .map(|(&r, f)| {
                let (mut out, lost) = twin.bank_mut().read(&[(r, f)], acc, Read::Fine);
                lost.unwrap();
                out.pop().expect("one result per pass")
            })
            .collect();
        let mut timing = outs[0].timing;
        if let Some(second) = outs.get(1) {
            timing.merge_parallel(&second.timing);
        }

        let mut fc = *twin.fault_counters();
        let pim = twin.bank().pim();
        let qmax = |r: usize| f64::from(floors[r].iter().copied().max().unwrap_or(0));
        let values = (0..outs[0].values.len())
            .map(|obj| {
                let status = |r: usize| {
                    if !faults {
                        return (CrossbarHealth::Healthy, 0);
                    }
                    (
                        pim.object_health(regions[r], obj).unwrap(),
                        pim.object_discrepancy(regions[r], obj).unwrap(),
                    )
                };
                let statuses: Vec<_> = (0..regions.len()).map(status).collect();
                let dead = statuses.iter().any(|s| s.0 == CrossbarHealth::Dead);
                let drifted = !dead && statuses.iter().any(|s| s.1 > 0);
                let measured = |r: usize| outs[r].values[obj];
                let exact =
                    |r: usize| host_floor_dot(pim.region_row(regions[r], obj).unwrap(), &floors[r]);
                let envelope = |r: usize| qmax(r) * statuses[r].1 as f64;
                let row_quant = || quantizer.quantize_vec(&rows[obj]).unwrap();
                match &prepared {
                    PreparedFunction::Ed { d, .. } => {
                        let phi_p = EdQuant::from_quantized(row_quant()).phi;
                        if dead {
                            fc.fallback_refinements += 1;
                            lb_pim_ed(phi_p, phi_q, exact(0), *d, alpha)
                        } else if drifted {
                            fc.guarded_bounds += 1;
                            lb_pim_ed_guarded(phi_p, phi_q, measured(0), *d, alpha, envelope(0))
                        } else {
                            lb_pim_ed(phi_p, phi_q, measured(0), *d, alpha)
                        }
                    }
                    PreparedFunction::Fnn {
                        d_prime,
                        segment_len,
                        ..
                    } => {
                        let phi_p = FnnQuant::compute(&rows[obj], *d_prime, alpha).unwrap().phi;
                        let (dp, l) = (*d_prime, *segment_len);
                        if dead {
                            fc.fallback_refinements += 1;
                            lb_pim_fnn(phi_p, phi_q, exact(0), exact(1), dp, l, alpha)
                        } else if drifted {
                            fc.guarded_bounds += 1;
                            lb_pim_fnn_guarded(
                                phi_p,
                                phi_q,
                                measured(0),
                                measured(1),
                                dp,
                                l,
                                alpha,
                                envelope(0),
                                envelope(1),
                            )
                        } else {
                            lb_pim_fnn(phi_p, phi_q, measured(0), measured(1), dp, l, alpha)
                        }
                    }
                    PreparedFunction::Sm {
                        d_prime,
                        segment_len,
                        ..
                    } => {
                        let phi_p = SmQuant::compute(&rows[obj], *d_prime, alpha).unwrap().phi;
                        let (dp, l) = (*d_prime, *segment_len);
                        if dead {
                            fc.fallback_refinements += 1;
                            lb_pim_sm(phi_p, phi_q, exact(0), dp, l, alpha)
                        } else if drifted {
                            fc.guarded_bounds += 1;
                            lb_pim_sm_guarded(phi_p, phi_q, measured(0), dp, l, alpha, envelope(0))
                        } else {
                            lb_pim_sm(phi_p, phi_q, measured(0), dp, l, alpha)
                        }
                    }
                    PreparedFunction::Dot { d, target, .. } => {
                        let Operand::Vector(v) = input else {
                            panic!("operand does not fit the shape")
                        };
                        let p = DotQuant::from_quantized(row_quant());
                        let q = DotQuant::from_quantized(quantizer.quantize_vec(v).unwrap());
                        let dot = if dead {
                            fc.fallback_refinements += 1;
                            exact(0)
                        } else if drifted {
                            fc.guarded_bounds += 1;
                            let qmax = u64::from(floors[0].iter().copied().max().unwrap_or(0));
                            measured(0) + qmax * statuses[0].1
                        } else {
                            measured(0)
                        };
                        match target {
                            SimTarget::Cosine => ub_pim_cs(&p, &q, dot, *d),
                            SimTarget::Pearson => ub_pim_pcc(&p, &q, dot, *d),
                        }
                    }
                    PreparedFunction::Hamming { d, .. } => {
                        // Exact function: a drifted read is recomputed too.
                        if dead || drifted {
                            fc.fallback_refinements += 1;
                            (*d as u64 - exact(0) - exact(1)) as f64
                        } else {
                            (*d as u64 - measured(0) - measured(1)) as f64
                        }
                    }
                }
            })
            .collect();
        BoundBatch {
            values,
            timing,
            host_bytes_per_object: host_bytes,
            fault_counters: fc,
        }
    }

    /// One bound pass under all five shapes, checked field by field
    /// against [`reference_batch`]: no fault model, an inert one, stuck
    /// cells behind a glitching ADC (drift: guard-bands, or the exact
    /// recompute for HD), and every wordline dead so that no clean spare
    /// exists (quarantine: exact host dots). The ED-family executors are
    /// built resident and hold appended rows.
    #[test]
    fn bound_pass_matches_per_shape_reference() {
        let rows_of = |data: &NormalizedDataset| -> Vec<Vec<f64>> {
            data.dataset().rows().map(<[f64]>::to_vec).collect()
        };
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let extra: Vec<Vec<f64>> = (0..3)
            .map(|i| {
                (0..8)
                    .map(|j| ((i * 5 + j * 3) % 11) as f64 / 10.0)
                    .collect()
            })
            .collect();
        let mut codes = BinaryDataset::with_bits(16).unwrap();
        for p in [
            0b1010_1100_0110_1001u16,
            0xFFFF,
            0x0000,
            0b0001_0010_0100_1000,
        ] {
            let bits: Vec<bool> = (0..16).map(|i| (p >> i) & 1 == 1).collect();
            codes.push_bits(&bits).unwrap();
        }
        let code = codes.row(0);

        // Builds the resident executor over all but the last `extra.len()`
        // rows' worth of capacity and appends `extra`.
        let resident = |c: ExecutorConfig, data: &NormalizedDataset| {
            let mut exec = PimExecutor::prepare_euclidean_resident(c, data, extra.len()).unwrap();
            for row in &extra {
                exec.append_row(row).unwrap();
            }
            exec
        };
        let with_extra = |data: &NormalizedDataset| {
            let mut rows = rows_of(data);
            rows.extend(extra.iter().cloned());
            rows
        };
        let head = |data: NormalizedDataset, n: usize| normalized(&rows_of(&data)[..n]);
        let (ed_data, fnn_data, sm_data) =
            (sample_data(), head(fnn_data(), 61), head(sm_data(), 509));
        let sm_cfg = ExecutorConfig {
            double_buffer: true,
            ..cfg(34)
        };

        type Build<'a> = Box<dyn Fn(Option<FaultConfig>) -> PimExecutor + 'a>;
        let with = |c: ExecutorConfig, faults| ExecutorConfig { faults, ..c };
        let shapes: Vec<(&str, Build<'_>, Vec<Vec<f64>>, Operand<'_>)> = vec![
            (
                "LB_PIM-ED",
                Box::new(|f| resident(with(cfg(4096), f), &ed_data)),
                with_extra(&ed_data),
                Operand::Vector(&q),
            ),
            (
                "LB_PIM-FNN^2",
                Box::new(|f| resident(with(cfg(8), f), &fnn_data)),
                with_extra(&fnn_data),
                Operand::Vector(&q),
            ),
            (
                "LB_PIM-SM^1",
                Box::new(|f| resident(with(sm_cfg, f), &sm_data)),
                with_extra(&sm_data),
                Operand::Vector(&q),
            ),
            (
                "UB_PIM-CS",
                Box::new(|f| {
                    let c = with(cfg(4096), f);
                    PimExecutor::prepare_similarity(c, &ed_data, SimTarget::Cosine).unwrap()
                }),
                rows_of(&ed_data),
                Operand::Vector(&q),
            ),
            (
                "UB_PIM-PCC",
                Box::new(|f| {
                    let c = with(cfg(4096), f);
                    PimExecutor::prepare_similarity(c, &ed_data, SimTarget::Pearson).unwrap()
                }),
                rows_of(&ed_data),
                Operand::Vector(&q),
            ),
            (
                "HD_PIM",
                Box::new(|f| PimExecutor::prepare_hamming(with(cfg(4096), f), &codes).unwrap()),
                Vec::new(),
                Operand::Code(code),
            ),
        ];

        let drift = |seed| FaultConfig {
            stuck_low_rate: 0.03,
            stuck_high_rate: 0.03,
            adc_glitch_rate: 0.05,
            seed,
            ..Default::default()
        };
        let dead = FaultConfig {
            dead_wordline_rate: 1.0,
            ..Default::default()
        };
        let models: Vec<(&str, Option<FaultConfig>)> = vec![
            ("no fault model", None),
            ("inert model", Some(FaultConfig::default())),
            ("stuck cells, seed 0", Some(drift(0))),
            ("stuck cells, seed 1", Some(drift(1))),
            ("stuck cells, seed 2", Some(drift(2))),
            ("all wordlines dead", Some(dead)),
        ];

        for (name, build, rows, input) in &shapes {
            let mut clean_values = Vec::new();
            let mut drift_recoveries = 0;
            for (model, faults) in &models {
                let what = format!("{name}, {model}");
                let (mut exec, mut twin) = (build(*faults), build(*faults));
                assert_eq!(exec.bound_name(), *name);
                let want = reference_batch(&mut twin, rows, *input);
                let got = match input {
                    Operand::Vector(v) if name.starts_with("UB") => exec.ub_sim_batch(v),
                    Operand::Vector(v) => exec.lb_ed_batch(v),
                    Operand::Code(c) => exec.hd_batch(c),
                }
                .unwrap();
                let bits =
                    |b: &BoundBatch| b.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{what}: values");
                assert_eq!(got.timing, want.timing, "{what}: timing");
                assert_eq!(
                    got.host_bytes_per_object, want.host_bytes_per_object,
                    "{what}"
                );
                assert_eq!(got.fault_counters, want.fault_counters, "{what}: counters");
                assert_eq!(exec.fault_counters(), &want.fault_counters, "{what}");

                let fc = got.fault_counters;
                let n = got.values.len() as u64;
                match *model {
                    "no fault model" => {
                        assert!(fc.is_clean(), "{what}");
                        clean_values = bits(&got);
                    }
                    "inert model" => {
                        assert_eq!(
                            (fc.guarded_bounds, fc.fallback_refinements),
                            (0, 0),
                            "{what}"
                        );
                        assert_eq!(bits(&got), clean_values, "{what}");
                    }
                    "all wordlines dead" => {
                        // Quarantined everywhere: exact host dots, so the
                        // fault-free values bit for bit.
                        assert!(fc.quarantined_rows > 0, "{what}");
                        assert_eq!(
                            (fc.guarded_bounds, fc.fallback_refinements),
                            (0, n),
                            "{what}"
                        );
                        assert_eq!(bits(&got), clean_values, "{what}");
                    }
                    _ => {
                        // HD has no guard-band: drift is recomputed exactly.
                        if *name == "HD_PIM" {
                            assert_eq!(fc.guarded_bounds, 0, "{what}");
                            assert_eq!(bits(&got), clean_values, "{what}");
                        }
                        drift_recoveries += fc.guarded_bounds + fc.fallback_refinements;
                    }
                }
            }
            assert!(
                drift_recoveries > 0,
                "{name}: some seed must drift an object"
            );
        }
    }

    #[test]
    fn queries_never_reprogram_crossbars() {
        let data = sample_data();
        let mut exec = PimExecutor::prepare_euclidean(cfg(4096), &data).unwrap();
        let wear = exec.bank().pim().total_cell_writes();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        for _ in 0..20 {
            exec.lb_ed_batch(&q).unwrap();
        }
        assert_eq!(exec.bank().pim().total_cell_writes(), wear);
    }
}
