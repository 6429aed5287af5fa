//! Execution-plan optimization (Section V-D, Eq. 13).
//!
//! Replacing one bound of an algorithm with its PIM-aware counterpart is
//! correct but not necessarily optimal: the PIM bound is so cheap (`3·b`
//! bits) and — thanks to Theorem 4's maximal `s` — often so tight that some
//! original bounds stop earning their transfer cost (Fig. 12). The paper
//! models an execution plan as a sequence of bounds `B₁ … B_g` drawn from
//! the candidate set (original bounds ∪ PIM-aware bound) and estimates its
//! data-transfer cost as
//!
//! ```text
//! T_cost = N · Σᵢ T_cost(Bᵢ) · Π_{j<i} (1 − Pr(Bⱼ))       (Eq. 13)
//! ```
//!
//! plus the exact-refinement cost on the objects surviving every bound.
//! `Pr(B)` is the bound's pruning ratio, measured offline on sample
//! queries ([`PruningProfile`]); with `L` candidates there are `2^L`
//! subsets to enumerate, each executed cheapest-bound-first.

use crate::error::CoreError;
use crate::memory::{resident_plan, MemoryPlan};
use simpim_bounds::{BoundDirection, BoundStage};
use simpim_obs::MetricsSnapshot;
use simpim_reram::PimConfig;
use simpim_similarity::{measures, Dataset, Measure};

/// One candidate bound for the planner: its per-object transfer cost and
/// its measured pruning ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateBound {
    /// Display name (`LB_FNN^7`, `LB_PIM-FNN^105`, …).
    pub name: String,
    /// Bytes transferred per bounded object (`T_cost(B)` in Eq. 13).
    pub transfer_bytes: u64,
    /// Measured pruning ratio `Pr(B) ∈ [0, 1]`.
    pub pruning_ratio: f64,
    /// Whether this is the PIM-aware bound (reported in plans).
    pub is_pim: bool,
}

impl CandidateBound {
    /// Builds the candidate set from live observations: the cascade engine
    /// in `simpim-mining` flushes `simpim.bounds.<name>.seen` /
    /// `.pruned` counters and a `.transfer_bytes` gauge per query, so the
    /// measured ratio `pruned / seen` feeds Eq. 13 directly — no separate
    /// offline [`PruningProfile`] pass needed when a workload has already
    /// run with metrics on. Bounds that never saw an object are skipped;
    /// names containing `PIM` are flagged [`CandidateBound::is_pim`]. The
    /// result is in the registry's (sorted) name order, so planning from a
    /// snapshot is deterministic.
    pub fn from_metrics(snapshot: &MetricsSnapshot) -> Vec<CandidateBound> {
        snapshot
            .middles("simpim.bounds.", ".seen")
            .into_iter()
            .filter_map(|name| {
                let seen = snapshot.counter(&format!("simpim.bounds.{name}.seen"))?;
                if seen == 0 {
                    return None;
                }
                let pruned = snapshot
                    .counter(&format!("simpim.bounds.{name}.pruned"))
                    .unwrap_or(0);
                let transfer_bytes = snapshot
                    .gauge(&format!("simpim.bounds.{name}.transfer_bytes"))
                    .unwrap_or(0.0)
                    .max(0.0) as u64;
                Some(CandidateBound {
                    is_pim: name.contains("PIM"),
                    pruning_ratio: (pruned as f64 / seen as f64).clamp(0.0, 1.0),
                    transfer_bytes,
                    name,
                })
            })
            .collect()
    }
}

/// A chosen plan: bound order plus its estimated transfer cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Indices into the candidate list, in application order.
    pub stages: Vec<usize>,
    /// Stage names, in application order.
    pub names: Vec<String>,
    /// Estimated transfer bytes for one query over `n` objects, including
    /// exact refinement of the survivors.
    pub estimated_bytes: f64,
}

/// The Eq. 13 plan enumerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planner {
    /// Bytes to refine one surviving object exactly (`d·b` bits → `d·8`
    /// bytes on f64 data).
    pub refine_bytes_per_object: u64,
    /// Number of dataset objects `N`.
    pub n: usize,
}

impl Planner {
    /// Estimated transfer bytes of executing `stages` (indices into
    /// `candidates`) in the given order, Eq. 13 plus refinement.
    pub fn plan_cost(&self, candidates: &[CandidateBound], stages: &[usize]) -> f64 {
        let mut surviving = 1.0f64;
        let mut bytes = 0.0f64;
        for &idx in stages {
            let b = &candidates[idx];
            bytes += self.n as f64 * surviving * b.transfer_bytes as f64;
            surviving *= 1.0 - b.pruning_ratio.clamp(0.0, 1.0);
        }
        bytes += self.n as f64 * surviving * self.refine_bytes_per_object as f64;
        bytes
    }

    /// Enumerates all `2^L` subsets of the candidate set, executes each
    /// cheapest-bound-first, and returns the plan with least estimated
    /// transfer (the empty subset — pure linear scan — is a valid plan).
    pub fn best_plan(&self, candidates: &[CandidateBound]) -> ExecutionPlan {
        let l = candidates.len();
        assert!(
            l <= 20,
            "2^L enumeration is exponential; cap the candidate set"
        );
        let _span = simpim_obs::span!("core.planner.enumerate", candidates = l as u64);
        // Candidate order within a plan: by ascending transfer cost, which
        // matches the filter pipelines of Fig. 12 (coarse, cheap bounds
        // first).
        let mut order: Vec<usize> = (0..l).collect();
        order.sort_by_key(|&i| (candidates[i].transfer_bytes, i));

        let mut best: Option<ExecutionPlan> = None;
        for mask in 0u32..(1u32 << l) {
            let stages: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&i| mask & (1 << i) != 0)
                .collect();
            let cost = self.plan_cost(candidates, &stages);
            if best.as_ref().is_none_or(|b| cost < b.estimated_bytes) {
                best = Some(ExecutionPlan {
                    names: stages.iter().map(|&i| candidates[i].name.clone()).collect(),
                    stages,
                    estimated_bytes: cost,
                });
            }
        }
        best.expect("at least the empty plan exists")
    }
}

impl Planner {
    /// Conditional plan search. Eq. 13 treats pruning ratios as
    /// independent, which overestimates stacked bounds: an object
    /// surviving a tight bound is rarely pruned by a looser one. This
    /// variant *simulates* every candidate subset's cascade on sample
    /// queries — measuring actual survivor counts — and returns the plan
    /// with least measured transfer. This is what reproduces the paper's
    /// Fig. 16 outcome (drop all original bounds, keep only
    /// `LB_PIM-FNN^105`).
    ///
    /// # Errors
    /// [`CoreError::Mismatch`] when the candidate set exceeds 16 stages,
    /// `k` is outside `1..=N`, or no sample queries are given; measure
    /// failures (e.g. Hamming on floats) forward from the similarity
    /// layer.
    pub fn best_plan_measured(
        &self,
        stages: &[&dyn BoundStage],
        dataset: &Dataset,
        queries: &[Vec<f64>],
        k: usize,
        measure: Measure,
    ) -> Result<ExecutionPlan, CoreError> {
        let l = stages.len();
        if l > 16 {
            return Err(CoreError::Mismatch {
                what: "2^L enumeration is exponential; cap the candidate set at 16",
            });
        }
        if k < 1 || k > dataset.len() {
            return Err(CoreError::Mismatch {
                what: "k must be in 1..=N",
            });
        }
        if queries.is_empty() {
            return Err(CoreError::Mismatch {
                what: "need at least one sample query",
            });
        }
        let _span = simpim_obs::span!("core.planner.enumerate", candidates = l as u64);
        let smaller_closer = measure.smaller_is_closer();
        let n = dataset.len();

        // Precompute per-query bound matrices and exact thresholds so each
        // of the 2^L subsets only replays cheap comparisons.
        let mut thresholds = Vec::with_capacity(queries.len());
        let mut bound_values: Vec<Vec<Vec<f64>>> = Vec::with_capacity(queries.len());
        for q in queries {
            let mut exact = Vec::with_capacity(n);
            for row in dataset.rows() {
                exact.push(measures::evaluate(measure, row, q)?);
            }
            exact.sort_by(f64::total_cmp);
            thresholds.push(if smaller_closer {
                exact[k - 1]
            } else {
                exact[exact.len() - k]
            });
            let per_stage: Vec<Vec<f64>> = stages
                .iter()
                .map(|s| {
                    let prep = s.prepare(q);
                    (0..n).map(|i| prep.bound(i)).collect()
                })
                .collect();
            bound_values.push(per_stage);
        }

        let mut order: Vec<usize> = (0..l).collect();
        order.sort_by_key(|&i| (stages[i].transfer_bytes_per_object(), i));

        let mut best: Option<ExecutionPlan> = None;
        for mask in 0u32..(1u32 << l) {
            let chosen: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&i| mask & (1 << i) != 0)
                .collect();
            let mut total_bytes = 0.0f64;
            for (qi, _) in queries.iter().enumerate() {
                let kth = thresholds[qi];
                let mut alive: Vec<usize> = (0..n).collect();
                for &si in &chosen {
                    total_bytes +=
                        alive.len() as f64 * stages[si].transfer_bytes_per_object() as f64;
                    let vals = &bound_values[qi][si];
                    alive.retain(|&i| {
                        if smaller_closer {
                            vals[i] <= kth
                        } else {
                            vals[i] >= kth
                        }
                    });
                }
                total_bytes += alive.len() as f64 * self.refine_bytes_per_object as f64;
            }
            let avg = total_bytes / queries.len() as f64;
            if best.as_ref().is_none_or(|b| avg < b.estimated_bytes) {
                best = Some(ExecutionPlan {
                    names: chosen.iter().map(|&i| stages[i].name()).collect(),
                    stages: chosen,
                    estimated_bytes: avg,
                });
            }
        }
        // Mask 0 (the empty plan) always ran, so `best` is populated.
        Ok(best.expect("at least the empty plan exists"))
    }
}

/// Offline pruning-ratio measurement (Section V-D): run each bound stage
/// independently over sample queries, thresholding with the exact k-th
/// nearest distance (or k-th largest similarity), and report the average
/// fraction of objects pruned.
#[derive(Debug, Clone, Copy, Default)]
pub struct PruningProfile;

impl PruningProfile {
    /// Measures `Pr(B)` for each stage against exact kNN thresholds on
    /// `queries`. Works for both bound directions; all stages must share
    /// the measure's direction.
    ///
    /// # Errors
    /// [`CoreError::Mismatch`] when `k` is outside `1..=N` or a stage's
    /// direction contradicts the measure; measure failures forward from
    /// the similarity layer.
    pub fn measure(
        stages: &[&dyn BoundStage],
        dataset: &Dataset,
        queries: &[Vec<f64>],
        k: usize,
        measure: Measure,
    ) -> Result<Vec<f64>, CoreError> {
        if k < 1 || k > dataset.len() {
            return Err(CoreError::Mismatch {
                what: "k must be in 1..=N",
            });
        }
        let smaller_closer = measure.smaller_is_closer();
        for s in stages {
            let expected = if smaller_closer {
                BoundDirection::LowerBoundsDistance
            } else {
                BoundDirection::UpperBoundsSimilarity
            };
            if s.direction() != expected {
                return Err(CoreError::Mismatch {
                    what: "stage direction mismatch: bound direction must match the measure",
                });
            }
        }

        let mut pruned = vec![0u64; stages.len()];
        let mut total = 0u64;
        for q in queries {
            // Exact k-th threshold.
            let mut sorted = Vec::with_capacity(dataset.len());
            for row in dataset.rows() {
                sorted.push(measures::evaluate(measure, row, q)?);
            }
            sorted.sort_by(f64::total_cmp);
            let kth = if smaller_closer {
                sorted[k - 1]
            } else {
                sorted[sorted.len() - k]
            };

            total += dataset.len() as u64;
            for (si, stage) in stages.iter().enumerate() {
                let prep = stage.prepare(q);
                for i in 0..dataset.len() {
                    let b = prep.bound(i);
                    let prunable = if smaller_closer { b > kth } else { b < kth };
                    if prunable {
                        pruned[si] += 1;
                    }
                }
            }
        }
        Ok(pruned
            .into_iter()
            .map(|p| {
                if total == 0 {
                    0.0
                } else {
                    p as f64 / total as f64
                }
            })
            .collect())
    }
}

/// One bank of the fleet, as the placement planner sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankProfile {
    /// Crossbar budget of this bank.
    pub crossbars: usize,
    /// Worst per-crossbar program count so far (wear).
    pub wear: u64,
    /// Whether the bank is routable (not fail-stopped / quarantined).
    pub healthy: bool,
}

/// One shard of a [`FleetPlan`]: a contiguous row range placed on a bank
/// with the Theorem 4 plan its budget affords.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlacement {
    /// Index into the fleet's bank list.
    pub bank: usize,
    /// First dataset row of the shard.
    pub start: usize,
    /// Rows in the shard.
    pub rows: usize,
    /// Theorem 4 plan at this bank's budget (per-shard `s`).
    pub memory: MemoryPlan,
    /// The Eq. 13 bound pipeline chosen for this shard.
    pub pipeline: ExecutionPlan,
    /// Modeled per-query transfer bytes for this shard (Eq. 13 with the
    /// shard's `s`-adjusted pruning ratio, survivors refined exactly).
    pub modeled_bytes: f64,
}

/// A fleet-wide placement: shards in row order with the modeled
/// throughput the placement attains.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// Shard placements, contiguous and in row order.
    pub shards: Vec<ShardPlacement>,
    /// The slowest shard's modeled per-query transfer bytes — shards
    /// evaluate one query in parallel on their own banks, so this is the
    /// modeled per-query latency driver.
    pub makespan_bytes: f64,
    /// Modeled throughput in queries/s at a nominal 1 GB/s per-bank host
    /// link: `1e9 / makespan_bytes`. Machine-independent, so it can gate
    /// regressions across heterogeneous CI runners.
    pub modeled_qps: f64,
}

impl FleetPlan {
    fn from_shards(shards: Vec<ShardPlacement>, merge_bytes_per_shard: f64) -> Self {
        let makespan_bytes = shards
            .iter()
            .map(|s| s.modeled_bytes)
            .fold(0.0f64, f64::max)
            + merge_bytes_per_shard * shards.len() as f64;
        Self {
            modeled_qps: if makespan_bytes > 0.0 {
                1e9 / makespan_bytes
            } else {
                f64::INFINITY
            },
            makespan_bytes,
            shards,
        }
    }
}

/// Theorem 4 extended to a fleet of heterogeneous banks (DESIGN.md §15).
///
/// Given per-bank crossbar budgets, wear, and health, the planner chooses
/// contiguous shard boundaries and the per-shard reduced dimensionality
/// `s` (via [`resident_plan`] at each bank's budget) that maximize
/// modeled throughput under the Eq. 13 cost model. Shards evaluate a
/// query in parallel, so throughput is set by the slowest shard; the
/// search prefers fewer, less-worn banks and only spreads wider when the
/// makespan improves.
///
/// The PIM bound's pruning ratio is measured at one reference `s`
/// ([`FleetPlanner::pim_reference_s`], e.g. from live
/// [`CandidateBound::from_metrics`] counters) and rescaled to each
/// shard's `s` with the survivor model `survive(s) = survive_ref ·
/// s_ref / s` (clamped to `[0, 1]`): halving `s` doubles the surviving
/// fraction. This captures the paper's observation that compression
/// loosens the bound roughly in proportion to the segment count.
#[derive(Debug, Clone)]
pub struct FleetPlanner {
    /// Dataset dimensionality.
    pub d: usize,
    /// Operand width programmed on crossbars.
    pub operand_bits: u32,
    /// Regions reserved per shard (2 with double-buffering).
    pub buffer_factor: usize,
    /// Platform template; `num_crossbars` is overridden per bank.
    pub base_pim: PimConfig,
    /// Bytes to refine one surviving object exactly.
    pub refine_bytes_per_object: u64,
    /// Candidate bounds with measured pruning ratios; PIM candidates are
    /// rescaled to each shard's `s`.
    pub candidates: Vec<CandidateBound>,
    /// The `s` the PIM candidates' ratios were measured at.
    pub pim_reference_s: usize,
    /// Spare rows each shard reserves for online inserts.
    pub spare_rows: usize,
    /// Host-side cost of merging one more shard's candidate list into the
    /// global answer, in bytes per query. Every shard pays its Eq. 13
    /// transfer in parallel, but the merge is serial on the host, so the
    /// makespan grows by this much per shard used — which is what stops
    /// the planner from shattering small datasets across the whole fleet.
    pub merge_bytes_per_shard: f64,
}

impl FleetPlanner {
    /// The candidate set with every PIM bound's pruning ratio rescaled
    /// from the reference `s` to `s`.
    fn candidates_at(&self, s: usize) -> Vec<CandidateBound> {
        self.candidates
            .iter()
            .map(|c| {
                if c.is_pim && self.pim_reference_s > 0 && s > 0 {
                    let survive_ref = 1.0 - c.pruning_ratio.clamp(0.0, 1.0);
                    let survive =
                        (survive_ref * self.pim_reference_s as f64 / s as f64).clamp(0.0, 1.0);
                    CandidateBound {
                        pruning_ratio: 1.0 - survive,
                        ..c.clone()
                    }
                } else {
                    c.clone()
                }
            })
            .collect()
    }

    /// Evaluates one shard of `rows` objects on `bank`: Theorem 4 plan at
    /// the bank's budget, Eq. 13 pipeline at the plan's `s`. `None` when
    /// the shard does not fit the bank.
    fn eval_shard(&self, bank: &BankProfile, rows: usize) -> Option<(MemoryPlan, ExecutionPlan)> {
        let cfg = PimConfig {
            num_crossbars: bank.crossbars,
            ..self.base_pim
        };
        let (memory, _shape) = resident_plan(
            rows + self.spare_rows,
            self.d,
            self.buffer_factor,
            self.operand_bits,
            &cfg,
        )
        .ok()?;
        let planner = Planner {
            refine_bytes_per_object: self.refine_bytes_per_object,
            n: rows,
        };
        let pipeline = planner.best_plan(&self.candidates_at(memory.s));
        Some((memory, pipeline))
    }

    /// Largest row count `bank` can hold (0 when even one row overflows).
    fn max_rows(&self, bank: &BankProfile, upper: usize) -> usize {
        if self.eval_shard(bank, upper).is_some() {
            return upper;
        }
        let (mut lo, mut hi) = (0usize, upper);
        // Invariant: lo fits (or is 0), hi does not.
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.eval_shard(bank, mid).is_some() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Builds the placement for `n` rows over `banks`, maximizing modeled
    /// throughput. Banks are considered in least-worn order (wear, then
    /// descending budget, then index); for each prefix size the rows are
    /// split proportionally to crossbar budgets and locally rebalanced
    /// away from the slowest shard, and the best prefix wins. Because the
    /// rebalance is local (Theorem 4's `s` makes shard cost a step
    /// function of the row count, so the proportional seed can stall in a
    /// local minimum), every feasible *equal* split in fleet index order —
    /// exactly the [`FleetPlanner::uniform`] baseline's placements — is
    /// also rebalanced and entered in the comparison: the returned plan
    /// never models worse than naive uniform sharding.
    ///
    /// # Errors
    /// [`CoreError::CannotFit`] when the healthy fleet cannot hold `n`
    /// rows; [`CoreError::Mismatch`] on an empty request.
    pub fn plan(&self, n: usize, banks: &[BankProfile]) -> Result<FleetPlan, CoreError> {
        if n == 0 || self.d == 0 {
            return Err(CoreError::Mismatch {
                what: "fleet placement needs a non-empty dataset",
            });
        }
        let _span = simpim_obs::span!("core.planner.fleet", banks = banks.len() as u64);
        // Preference order: least-worn feasible banks first.
        let mut order: Vec<usize> = (0..banks.len()).filter(|&i| banks[i].healthy).collect();
        order.sort_by_key(|&i| (banks[i].wear, usize::MAX - banks[i].crossbars, i));
        let caps: Vec<usize> = order.iter().map(|&i| self.max_rows(&banks[i], n)).collect();
        if caps.iter().sum::<usize>() < n {
            return Err(CoreError::CannotFit {
                n,
                crossbars: banks
                    .iter()
                    .filter(|b| b.healthy)
                    .map(|b| b.crossbars)
                    .sum(),
            });
        }

        let mut cap_by_bank = vec![0usize; banks.len()];
        for (&bank, &cap) in order.iter().zip(&caps) {
            cap_by_bank[bank] = cap;
        }

        let mut best: Option<(f64, Vec<(usize, usize)>)> = None;
        let consider = |split: Vec<(usize, usize)>, best: &mut Option<(f64, Vec<_>)>| {
            let makespan = self.makespan(&split, banks);
            if best
                .as_ref()
                .is_none_or(|(b, _)| makespan < *b - f64::EPSILON)
            {
                *best = Some((makespan, split));
            }
        };
        for m in 1..=order.len() {
            let caps_m = &caps[..m];
            if caps_m.iter().sum::<usize>() < n {
                continue;
            }
            if let Some(split) = self.split_rows(n, &order[..m], caps_m, banks) {
                consider(split, &mut best);
            }
            if let Some(split) = self.water_fill(n, &order[..m], caps_m, banks) {
                consider(split, &mut best);
            }
        }
        // Uniform-baseline seeds: equal chunks over index-order prefixes.
        let index_order: Vec<usize> = (0..banks.len()).filter(|&i| banks[i].healthy).collect();
        for m in 1..=index_order.len() {
            let prefix = &index_order[..m];
            let prefix_caps: Vec<usize> = prefix.iter().map(|&i| cap_by_bank[i]).collect();
            if let Some(split) = self.equal_split(n, prefix, &prefix_caps, banks) {
                consider(split, &mut best);
            }
        }
        let (_, split) = best.ok_or(CoreError::CannotFit {
            n,
            crossbars: banks.iter().map(|b| b.crossbars).sum(),
        })?;

        let mut shards = Vec::with_capacity(split.len());
        let mut start = 0usize;
        for (bank, rows) in split {
            let (memory, pipeline) = self
                .eval_shard(&banks[bank], rows)
                .expect("split only assigns feasible row counts");
            let planner = Planner {
                refine_bytes_per_object: self.refine_bytes_per_object,
                n: rows,
            };
            let modeled_bytes = planner.plan_cost(&self.candidates_at(memory.s), &pipeline.stages);
            shards.push(ShardPlacement {
                bank,
                start,
                rows,
                memory,
                pipeline,
                modeled_bytes,
            });
            start += rows;
        }
        Ok(FleetPlan::from_shards(shards, self.merge_bytes_per_shard))
    }

    /// Naive uniform sharding over the first `shards` healthy banks in
    /// index order (what `serve` did before fleet planning): equal row
    /// counts regardless of bank budgets. `None` when a chunk overflows
    /// its bank — uniform placement cannot even program such fleets.
    pub fn uniform(&self, n: usize, banks: &[BankProfile], shards: usize) -> Option<FleetPlan> {
        let chosen: Vec<usize> = (0..banks.len())
            .filter(|&i| banks[i].healthy)
            .take(shards)
            .collect();
        if chosen.len() < shards || shards == 0 || n == 0 {
            return None;
        }
        let chunk = n.div_ceil(shards);
        let mut placements = Vec::with_capacity(shards);
        let mut start = 0usize;
        for &bank in &chosen {
            let rows = chunk.min(n - start);
            if rows == 0 {
                break;
            }
            let (memory, pipeline) = self.eval_shard(&banks[bank], rows)?;
            let planner = Planner {
                refine_bytes_per_object: self.refine_bytes_per_object,
                n: rows,
            };
            let modeled_bytes = planner.plan_cost(&self.candidates_at(memory.s), &pipeline.stages);
            placements.push(ShardPlacement {
                bank,
                start,
                rows,
                memory,
                pipeline,
                modeled_bytes,
            });
            start += rows;
        }
        Some(FleetPlan::from_shards(
            placements,
            self.merge_bytes_per_shard,
        ))
    }

    /// Splits `n` rows over the banks of `order` (capped by `caps`):
    /// proportional-to-budget seed, then rows migrate away from the
    /// slowest shard while the makespan improves. Returns `(bank, rows)`
    /// pairs with every count feasible, or `None` when the split
    /// degenerates.
    fn split_rows(
        &self,
        n: usize,
        order: &[usize],
        caps: &[usize],
        banks: &[BankProfile],
    ) -> Option<Vec<(usize, usize)>> {
        let total_xb: usize = order.iter().map(|&i| banks[i].crossbars).sum();
        if total_xb == 0 {
            return None;
        }
        // Proportional seed, capped at per-bank feasibility.
        let mut rows: Vec<usize> = order
            .iter()
            .map(|&i| n * banks[i].crossbars / total_xb)
            .zip(caps)
            .map(|(r, &cap)| r.min(cap))
            .collect();
        // Distribute the rounding/cap remainder onto banks with slack.
        let mut left = n - rows.iter().sum::<usize>();
        while left > 0 {
            let mut moved = false;
            for (r, &cap) in rows.iter_mut().zip(caps) {
                if left == 0 {
                    break;
                }
                let take = left.min(cap - *r);
                *r += take;
                left -= take;
                moved |= take > 0;
            }
            if !moved {
                return None;
            }
        }

        let split: Vec<(usize, usize)> = order.iter().copied().zip(rows).collect();
        Some(self.rebalance(split, caps, banks))
    }

    /// The [`FleetPlanner::uniform`] baseline's equal-chunk split over
    /// `order`, rebalanced. `None` when a chunk overflows its bank (the
    /// uniform baseline cannot program such fleets either).
    fn equal_split(
        &self,
        n: usize,
        order: &[usize],
        caps: &[usize],
        banks: &[BankProfile],
    ) -> Option<Vec<(usize, usize)>> {
        let chunk = n.div_ceil(order.len());
        let mut split = Vec::with_capacity(order.len());
        let mut start = 0usize;
        for (&bank, &cap) in order.iter().zip(caps) {
            let rows = chunk.min(n - start);
            if rows > cap {
                return None;
            }
            split.push((bank, rows));
            start += rows;
        }
        if start < n {
            return None;
        }
        Some(self.rebalance(split, caps, banks))
    }

    /// Cost-equalizing seed (fleet water-filling): binary-search the
    /// bottleneck per-query transfer `T` and give every bank the most
    /// rows it can serve at cost `<= T`. Unlike the pairwise rebalance —
    /// which moves rows off *one* slowest shard and stalls when two
    /// equal banks tie for the bottleneck — this lowers every tied
    /// bottleneck together, so heterogeneous fleets with duplicated
    /// small banks still converge to a balanced split.
    fn water_fill(
        &self,
        n: usize,
        order: &[usize],
        caps: &[usize],
        banks: &[BankProfile],
    ) -> Option<Vec<(usize, usize)>> {
        // Most rows `bank` serves at cost <= t; shard cost is monotone
        // non-decreasing in the row count (more rows means more transfer
        // and, past each Theorem 4 threshold, a smaller `s`).
        let rows_under = |bank: usize, cap: usize, t: f64| -> usize {
            if cap == 0 || self.shard_cost(&banks[bank], cap) <= t {
                return cap;
            }
            let (mut lo, mut hi) = (0usize, cap);
            // Invariant: cost(lo) <= t, cost(hi) > t.
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if self.shard_cost(&banks[bank], mid) <= t {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let total_at = |t: f64| -> usize {
            order
                .iter()
                .zip(caps)
                .map(|(&b, &cap)| rows_under(b, cap, t))
                .sum()
        };
        let mut hi_t = order
            .iter()
            .zip(caps)
            .map(|(&b, &cap)| self.shard_cost(&banks[b], cap))
            .fold(0.0f64, f64::max);
        if total_at(hi_t) < n || hi_t <= 0.0 {
            return None;
        }
        let mut lo_t = 0.0f64;
        for _ in 0..64 {
            let mid = 0.5 * (lo_t + hi_t);
            if total_at(mid) >= n {
                hi_t = mid;
            } else {
                lo_t = mid;
            }
            if hi_t - lo_t <= hi_t * 1e-9 {
                break;
            }
        }
        let mut rows: Vec<usize> = order
            .iter()
            .zip(caps)
            .map(|(&b, &cap)| rows_under(b, cap, hi_t))
            .collect();
        // Trim the over-assignment (dropping rows never raises a cost).
        let mut excess = rows.iter().sum::<usize>().checked_sub(n)?;
        for r in rows.iter_mut().rev() {
            let take = excess.min(*r);
            *r -= take;
            excess -= take;
        }
        let split: Vec<(usize, usize)> = order.iter().copied().zip(rows).collect();
        Some(self.rebalance(split, caps, banks))
    }

    /// Local rebalance: shave rows off the slowest shard onto the
    /// fastest with slack while the makespan improves.
    fn rebalance(
        &self,
        mut split: Vec<(usize, usize)>,
        caps: &[usize],
        banks: &[BankProfile],
    ) -> Vec<(usize, usize)> {
        let mut makespan = self.makespan(&split, banks);
        for _ in 0..64 {
            let costs: Vec<f64> = split
                .iter()
                .map(|&(b, r)| self.shard_cost(&banks[b], r))
                .collect();
            let Some(hi) = costs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
            else {
                break;
            };
            let Some(lo) = costs
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
            else {
                break;
            };
            if hi == lo {
                break;
            }
            let mut improved = false;
            let mut delta = (split[hi].1 / 8).max(1);
            while delta > 0 {
                if split[hi].1 > delta && split[lo].1 + delta <= caps[lo] {
                    let mut trial = split.clone();
                    trial[hi].1 -= delta;
                    trial[lo].1 += delta;
                    let trial_makespan = self.makespan(&trial, banks);
                    if trial_makespan < makespan {
                        split = trial;
                        makespan = trial_makespan;
                        improved = true;
                        break;
                    }
                }
                delta /= 2;
            }
            if !improved {
                break;
            }
        }
        split.retain(|&(_, r)| r > 0);
        split
    }

    fn shard_cost(&self, bank: &BankProfile, rows: usize) -> f64 {
        if rows == 0 {
            return 0.0;
        }
        match self.eval_shard(bank, rows) {
            Some((memory, pipeline)) => Planner {
                refine_bytes_per_object: self.refine_bytes_per_object,
                n: rows,
            }
            .plan_cost(&self.candidates_at(memory.s), &pipeline.stages),
            None => f64::INFINITY,
        }
    }

    fn makespan(&self, split: &[(usize, usize)], banks: &[BankProfile]) -> f64 {
        let active = split.iter().filter(|&&(_, r)| r > 0).count();
        split
            .iter()
            .map(|&(b, r)| self.shard_cost(&banks[b], r))
            .fold(0.0f64, f64::max)
            + self.merge_bytes_per_shard * active as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(name: &str, bytes: u64, ratio: f64) -> CandidateBound {
        CandidateBound {
            name: name.to_string(),
            transfer_bytes: bytes,
            pruning_ratio: ratio,
            is_pim: false,
        }
    }

    #[test]
    fn eq13_hand_computed() {
        // N = 1000, bounds: (10 B, 90%), (100 B, 99%); refine 800 B.
        // Cost = 1000·10 + 1000·0.1·100 + 1000·0.1·0.01·800
        //      = 10 000 + 10 000 + 800 = 20 800.
        let p = Planner {
            refine_bytes_per_object: 800,
            n: 1000,
        };
        let cands = vec![cand("a", 10, 0.9), cand("b", 100, 0.99)];
        let cost = p.plan_cost(&cands, &[0, 1]);
        assert!((cost - 20_800.0).abs() < 1e-9);
    }

    #[test]
    fn empty_plan_is_full_refinement() {
        let p = Planner {
            refine_bytes_per_object: 800,
            n: 1000,
        };
        assert!((p.plan_cost(&[], &[]) - 800_000.0).abs() < 1e-9);
    }

    #[test]
    fn independence_model_loves_stacking() {
        // Under Eq. 13's independence assumption, any cheap bound with a
        // nonzero marginal ratio reduces downstream cost — which is why the
        // conditional search below exists.
        let p = Planner {
            refine_bytes_per_object: 3360,
            n: 1_000_000,
        };
        let mut pim = cand("LB_PIM-FNN^105", 16, 0.99);
        pim.is_pim = true;
        let cands = vec![cand("LB_FNN^7", 7 * 16, 0.90), pim];
        let plan = p.best_plan(&cands);
        assert_eq!(plan.names.len(), 2, "independence keeps both bounds");
    }

    #[test]
    fn conditional_search_drops_shadowed_bounds() {
        // Fig. 16's conclusion: a cheap PIM bound that dominates the
        // original bounds displaces them once survivor correlation is
        // measured. Data: tight cluster + far cluster; a fine-grained
        // PIM-FNN bound prunes everything the coarse classic bound prunes.
        use crate::stage::PimStage;
        use simpim_bounds::SmBound;
        use simpim_similarity::NormalizedDataset;

        let mut rows: Vec<Vec<f64>> = Vec::new();
        // 5 far points (segment means ≈ 0.5, prunable by any bound).
        for _ in 0..5 {
            rows.push(vec![0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1]);
        }
        // 40 decoys sharing the query's mean (0.12) but with high spread:
        // invisible to the mean-only LB_SM, pruned by PIM-FNN's σ term.
        for _ in 0..40 {
            rows.push(vec![0.02, 0.22, 0.02, 0.22, 0.02, 0.22, 0.02, 0.22]);
        }
        // 5 genuinely near constant points.
        for i in 0..5 {
            rows.push(vec![0.10 + 0.01 * i as f64; 8]);
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let nds = NormalizedDataset::assert_normalized(ds.clone());
        let classic = SmBound::build(&ds, 1).unwrap(); // 8 B/object, mean only
        let pim = PimStage::fnn(&nds, 4, 1e6).unwrap(); // 24 B/object
        let planner = Planner {
            refine_bytes_per_object: 8 * 8,
            n: ds.len(),
        };
        let queries = vec![vec![0.12; 8], vec![0.12; 8]];
        let plan = planner
            .best_plan_measured(&[&classic, &pim], &ds, &queries, 3, Measure::EuclideanSq)
            .unwrap();
        assert_eq!(plan.names, vec!["LB_PIM-FNN^4"], "plan = {plan:?}");
        // The stacked plan is strictly worse once conditioning is measured.
        let stacked = planner
            .best_plan_measured(&[&classic], &ds, &queries, 3, Measure::EuclideanSq)
            .unwrap();
        assert!(plan.estimated_bytes < stacked.estimated_bytes);
    }

    #[test]
    fn weak_pim_bound_keeps_original_refinement_filter() {
        // If the PIM bound prunes little, a tighter original bound stays in
        // the pipeline behind it (the s < d/4 case of Section V-D).
        let p = Planner {
            refine_bytes_per_object: 3360,
            n: 1_000_000,
        };
        let mut pim = cand("LB_PIM-FNN^7", 16, 0.60);
        pim.is_pim = true;
        let cands = vec![cand("LB_FNN^105", 105 * 8, 0.985), pim.clone()];
        let plan = p.best_plan(&cands);
        assert_eq!(plan.names, vec!["LB_PIM-FNN^7", "LB_FNN^105"]);
        // And the combined plan beats either alone.
        let both = p.plan_cost(&cands, &[1, 0]);
        assert!(both < p.plan_cost(&cands, &[0]));
        assert!(both < p.plan_cost(&cands, &[1]));
    }

    #[test]
    fn useless_bound_is_dropped() {
        let p = Planner {
            refine_bytes_per_object: 100,
            n: 1000,
        };
        let cands = vec![cand("noop", 50, 0.0)];
        let plan = p.best_plan(&cands);
        assert!(plan.stages.is_empty(), "a non-pruning bound only adds cost");
        assert!((plan.estimated_bytes - 100_000.0).abs() < 1e-9);
    }

    #[test]
    fn stage_order_is_cheapest_first() {
        let p = Planner {
            refine_bytes_per_object: 10_000,
            n: 1000,
        };
        let cands = vec![cand("expensive", 500, 0.9), cand("cheap", 10, 0.5)];
        let plan = p.best_plan(&cands);
        assert_eq!(plan.names, vec!["cheap", "expensive"]);
    }

    #[test]
    fn pruning_ratio_measurement_matches_known_geometry() {
        use simpim_bounds::FnnBound;
        // Dataset: 9 far points + 1 near point; k = 1 with query at the
        // near point → the exact 1-NN threshold is ~0, and LB_FNN^d (exact
        // at segment length 1) prunes exactly the 9 far points.
        let mut rows: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![0.9 + 0.01 * i as f64, 0.9, 0.9, 0.9])
            .collect();
        rows.push(vec![0.1, 0.1, 0.1, 0.1]);
        let ds = Dataset::from_rows(&rows).unwrap();
        let stage = FnnBound::build(&ds, 4).unwrap();
        let ratios = PruningProfile::measure(
            &[&stage],
            &ds,
            &[vec![0.1, 0.1, 0.1, 0.1]],
            1,
            Measure::EuclideanSq,
        )
        .unwrap();
        assert_eq!(ratios.len(), 1);
        assert!((ratios[0] - 0.9).abs() < 1e-9, "ratio {}", ratios[0]);
    }

    #[test]
    fn direction_mismatch_is_an_error() {
        use simpim_bounds::FnnBound;
        let ds = Dataset::from_rows(&[vec![0.1, 0.2]]).unwrap();
        let stage = FnnBound::build(&ds, 2).unwrap();
        let err = PruningProfile::measure(&[&stage], &ds, &[vec![0.1, 0.2]], 1, Measure::Cosine)
            .unwrap_err();
        assert!(err.to_string().contains("direction"), "{err}");
        let p = Planner {
            refine_bytes_per_object: 8,
            n: 1,
        };
        let err = p
            .best_plan_measured(&[&stage], &ds, &[], 1, Measure::EuclideanSq)
            .unwrap_err();
        assert!(err.to_string().contains("sample query"), "{err}");
    }

    fn fleet_planner(candidates: Vec<CandidateBound>, refine: u64) -> FleetPlanner {
        use simpim_reram::CrossbarConfig;
        FleetPlanner {
            d: 8,
            operand_bits: 16,
            buffer_factor: 1,
            base_pim: simpim_reram::PimConfig {
                crossbar: CrossbarConfig {
                    size: 16,
                    adc_bits: 10,
                    ..Default::default()
                },
                num_crossbars: 1,
                ..Default::default()
            },
            refine_bytes_per_object: refine,
            candidates,
            pim_reference_s: 8,
            spare_rows: 0,
            merge_bytes_per_shard: 1024.0,
        }
    }

    fn pim_cand(ratio: f64) -> CandidateBound {
        CandidateBound {
            name: "LB_PIM-FNN".to_string(),
            transfer_bytes: 24,
            pruning_ratio: ratio,
            is_pim: true,
        }
    }

    #[test]
    fn fleet_plan_beats_uniform_on_heterogeneous_banks() {
        // Bank 0 is small (8 crossbars), bank 1 is large (4096). Naive
        // uniform sharding puts half the rows on the small bank, forcing a
        // tiny s there — weak pruning, expensive refinement. The fleet
        // planner sizes shards to budgets (or skips the small bank
        // entirely), so its slowest shard is strictly cheaper.
        let fp = fleet_planner(vec![pim_cand(0.99)], 6400);
        let banks = [
            BankProfile {
                crossbars: 8,
                wear: 0,
                healthy: true,
            },
            BankProfile {
                crossbars: 4096,
                wear: 0,
                healthy: true,
            },
        ];
        let plan = fp.plan(256, &banks).unwrap();
        let uniform = fp.uniform(256, &banks, 2).unwrap();
        assert!(
            plan.modeled_qps > uniform.modeled_qps,
            "planned {} qps vs uniform {} qps",
            plan.modeled_qps,
            uniform.modeled_qps
        );
        // The placement is a contiguous partition of all 256 rows.
        let mut expect_start = 0;
        for s in &plan.shards {
            assert_eq!(s.start, expect_start);
            expect_start += s.rows;
        }
        assert_eq!(expect_start, 256);
        // Per-shard s reflects the hosting bank's budget.
        for s in &plan.shards {
            assert!(s.memory.total_crossbars() <= banks[s.bank].crossbars);
        }
    }

    #[test]
    fn fleet_plan_breaks_tied_small_bank_bottlenecks() {
        // Two *identical* small banks in front of two large ones: the
        // pairwise rebalance alone stalls here (moving rows off one small
        // bank leaves its twin as an equally slow bottleneck), which used
        // to make the planner tie — or lose to — the best uniform split.
        // Water-filling lowers both tied bottlenecks together, so the
        // plan must be strictly faster than every uniform baseline.
        let fp = fleet_planner(vec![pim_cand(0.99)], 6400);
        let bank = |crossbars: usize, wear: u64| BankProfile {
            crossbars,
            wear,
            healthy: true,
        };
        let banks = [bank(8, 0), bank(8, 0), bank(4096, 1), bank(4096, 2)];
        let plan = fp.plan(512, &banks).unwrap();
        let best_uniform = (1..=banks.len())
            .filter_map(|m| fp.uniform(512, &banks, m))
            .map(|p| p.modeled_qps)
            .fold(0.0f64, f64::max);
        assert!(
            plan.modeled_qps > best_uniform,
            "planned {} qps vs best uniform {} qps",
            plan.modeled_qps,
            best_uniform
        );
        let placed: usize = plan.shards.iter().map(|s| s.rows).sum();
        assert_eq!(placed, 512);
    }

    #[test]
    fn fleet_plan_prefers_least_worn_feasible_banks() {
        let fp = fleet_planner(vec![pim_cand(0.99)], 64);
        let banks = [
            BankProfile {
                crossbars: 4096,
                wear: 50,
                healthy: true,
            },
            BankProfile {
                crossbars: 4096,
                wear: 2,
                healthy: true,
            },
            BankProfile {
                crossbars: 4096,
                wear: 9,
                healthy: true,
            },
        ];
        let plan = fp.plan(8, &banks).unwrap();
        // A dataset this small gains nothing from spreading; it must land
        // on the single least-worn bank.
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.shards[0].bank, 1);
    }

    #[test]
    fn fleet_plan_skips_unhealthy_banks_and_reports_cannot_fit() {
        let fp = fleet_planner(vec![pim_cand(0.99)], 64);
        let banks = [
            BankProfile {
                crossbars: 4096,
                wear: 0,
                healthy: false,
            },
            BankProfile {
                crossbars: 4096,
                wear: 7,
                healthy: true,
            },
        ];
        let plan = fp.plan(16, &banks).unwrap();
        assert!(plan.shards.iter().all(|s| s.bank == 1));
        // All banks dead → CannotFit.
        let dead = [BankProfile {
            crossbars: 4096,
            wear: 0,
            healthy: false,
        }];
        assert!(matches!(
            fp.plan(16, &dead),
            Err(CoreError::CannotFit { .. })
        ));
        // Budget too small even at s = 1 → CannotFit.
        let tiny = [BankProfile {
            crossbars: 1,
            wear: 0,
            healthy: true,
        }];
        assert!(matches!(
            fp.plan(1 << 20, &tiny),
            Err(CoreError::CannotFit { .. })
        ));
    }

    #[test]
    fn pim_ratio_rescales_with_shard_s() {
        let fp = fleet_planner(vec![pim_cand(0.99)], 64);
        let at8 = &fp.candidates_at(8)[0];
        assert!((at8.pruning_ratio - 0.99).abs() < 1e-12, "reference s");
        let at2 = &fp.candidates_at(2)[0];
        // survive = 0.01 · 8/2 = 0.04 → ratio 0.96.
        assert!((at2.pruning_ratio - 0.96).abs() < 1e-12);
        let at1 = &fp.candidates_at(1)[0];
        assert!((at1.pruning_ratio - 0.92).abs() < 1e-12);
        // Non-PIM candidates never rescale.
        let mut fp2 = fp.clone();
        fp2.candidates = vec![cand("LB_FNN^4", 32, 0.7)];
        assert!((fp2.candidates_at(1)[0].pruning_ratio - 0.7).abs() < 1e-12);
    }

    #[test]
    fn candidates_from_metrics_read_cascade_counters() {
        simpim_obs::metrics::reset();
        simpim_obs::metrics::counter_add("simpim.bounds.LB_FNN^16.seen", 1000);
        simpim_obs::metrics::counter_add("simpim.bounds.LB_FNN^16.pruned", 900);
        simpim_obs::metrics::gauge_set("simpim.bounds.LB_FNN^16.transfer_bytes", 128.0);
        simpim_obs::metrics::counter_add("simpim.bounds.LB_PIM-ED.seen", 1000);
        simpim_obs::metrics::counter_add("simpim.bounds.LB_PIM-ED.pruned", 990);
        simpim_obs::metrics::gauge_set("simpim.bounds.LB_PIM-ED.transfer_bytes", 16.0);
        // A bound that never saw an object must be skipped.
        simpim_obs::metrics::counter_add("simpim.bounds.LB_SM^8.seen", 0);
        let snap = simpim_obs::metrics::snapshot();
        let cands = CandidateBound::from_metrics(&snap);
        simpim_obs::metrics::reset();
        assert_eq!(cands.len(), 2, "{cands:?}");
        let fnn = cands.iter().find(|c| c.name == "LB_FNN^16").unwrap();
        assert!((fnn.pruning_ratio - 0.9).abs() < 1e-12);
        assert_eq!(fnn.transfer_bytes, 128);
        assert!(!fnn.is_pim);
        let pim = cands.iter().find(|c| c.name == "LB_PIM-ED").unwrap();
        assert!(pim.is_pim);
        assert!((pim.pruning_ratio - 0.99).abs() < 1e-12);
        // And the measured ratios drive Eq. 13 end to end.
        let planner = Planner {
            refine_bytes_per_object: 720,
            n: 1000,
        };
        let plan = planner.best_plan(&cands);
        assert!(!plan.stages.is_empty());
    }
}
