//! R-way shard replication across banks: failover routing, wear-leveled
//! load balancing, zero-downtime rolling reprogram, and a
//! detect → quarantine → re-replicate repair loop.
//!
//! A [`ReplicaSet`] programs one shard's rows onto `R` distinct ReRAM
//! banks. The rows themselves live in **one** shared [`ShardMirror`] —
//! each replica is only a [`Residency`] (its executor/bank plus the map
//! from crossbar positions to mirror rows), so replication costs `R`
//! banks but *one* host copy of the vectors, not `R`. The set maintains
//! three invariants:
//!
//! * **Bit-identical answers from any replica.** Every replica serves
//!   over the same mirror (mutations apply there once, then each
//!   residency absorbs or defers them independently), refinement is
//!   exact `f64` arithmetic, and the `simpim-par` merge order is
//!   deterministic — so routing is invisible to clients. A repaired
//!   replica is programmed straight from the mirror's live rows, which
//!   answers identically by the compaction-invariance property
//!   `tests/serving.rs` proves.
//! * **Wear-leveling doubles as load balancing.** Each coalesced batch
//!   routes to the healthy replica with the lowest maximum crossbar
//!   program count; appends and reprograms raise a replica's wear, so
//!   routing naturally drains queries toward the freshest bank.
//! * **At least `R − 1` replicas stay queryable through mutations.** A
//!   rolling reprogram compacts one replica at a time
//!   ([`ReplicaSet::reprogram_replica`]); while a replica is
//!   mid-reprogram it is excluded from routing and every other replica
//!   still answers — compaction never blocks reads.
//!
//! **Failure handling** is a three-stage loop. *Detect*: whole-bank loss
//! ([`simpim_reram::ReRamError::BankLost`]) surfaces through the
//! residency's batch pass; the set quarantines the replica (routes
//! around it) and retries the batch on the next healthy replica —
//! failover is invisible except for the extra pass. *Re-replicate*: the
//! repair loop ([`ReplicaSet::repair_one`], driven opportunistically by
//! the engine scheduler between batches) streams the mirror's live rows
//! onto a spare bank block-by-block (no snapshot copy), scrubs it, and
//! rejoins it to routing. *Degrade*: with every replica lost, queries
//! fall back to the exact shared host mirror, so answers stay
//! bit-identical — only the PIM filter's speed is lost — and the set
//! reports itself degraded instead of erroring.
//!
//! The mirror compacts tombstones away only once *every* residency has
//! folded them out of its programmed order (residencies age
//! independently — one may have reprogrammed while another still holds
//! the tombstoned slots), at which point all orders are remapped
//! atomically.

use std::time::Instant;

use simpim_core::PreparedFunction;
use simpim_similarity::Dataset;

use crate::error::ServeError;
use crate::shard::{validate_row, Residency, ShardConfig, ShardMirror, ShardStats};
use crate::Neighbor;

/// Routing state of one replica within a [`ReplicaSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// In the routing rotation.
    Healthy,
    /// Mid compacting reprogram (rolling drain) — temporarily excluded
    /// from routing; rejoins as soon as the reprogram completes.
    Reprogramming,
    /// Its bank fail-stopped — quarantined from routing until the repair
    /// loop re-replicates it onto a spare bank.
    Lost,
}

/// Point-in-time statistics of one replica set.
#[derive(Debug, Clone, Default)]
pub struct ReplicaSetStats {
    /// Per-replica shard statistics (index = replica).
    pub replicas: Vec<ShardStats>,
    /// Per-replica routing state.
    pub states: Vec<ReplicaState>,
    /// Batches routed to each replica (wear-leveled load balance).
    pub routed: Vec<u64>,
    /// Replicas currently in the routing rotation.
    pub healthy: usize,
    /// `true` when no replica is routable: queries are served from the
    /// exact host mirror (correct but unfiltered).
    pub degraded: bool,
    /// Batches re-routed after a bank loss was detected.
    pub failovers: u64,
    /// Lost replicas re-replicated onto spare banks since open.
    pub repairs: u64,
    /// Queries answered from the host mirror because every replica was
    /// lost.
    pub degraded_queries: u64,
    /// Live objects (shared by all replicas).
    pub live: usize,
}

/// How one coalesced batch was actually served: the routing and fault
/// events observed while answering it. The engine folds these into each
/// member query's flight-recorder trace, which is what makes a tail
/// query attributable to a failover or a degraded host-mirror pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteSample {
    /// Replica that answered; `None` when every replica was lost and the
    /// batch was served from the exact host mirror.
    pub replica: Option<usize>,
    /// Bank losses detected (and failed over) while serving this batch.
    pub failovers: u64,
    /// Queries shed to the host path inside the answering replica.
    pub sheds: u64,
    /// Whether the batch was answered from the degraded host mirror.
    pub degraded: bool,
}

/// One shard's rows replicated across `R` distinct banks over a single
/// shared host mirror.
#[derive(Debug)]
pub struct ReplicaSet {
    cfg: ShardConfig,
    mirror: ShardMirror,
    replicas: Vec<Residency>,
    state: Vec<ReplicaState>,
    routed: Vec<u64>,
    failovers: u64,
    repairs: u64,
    degraded_queries: u64,
    /// Bumped per repair so each spare bank draws a fresh fault map.
    generation: u64,
}

/// Per-replica fault-model derivation: replicas are *distinct physical
/// banks*, so they must not share a fault map. The seed is perturbed by
/// the replica index and, on repair, by the spare-bank generation —
/// deterministic (reproducible runs) yet decorrelated across replicas.
fn replica_config(base: ShardConfig, replica: usize, generation: u64) -> ShardConfig {
    let mut cfg = base;
    if let Some(f) = &mut cfg.executor.faults {
        f.seed ^= (replica as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ generation.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    }
    cfg
}

impl ReplicaSet {
    /// Opens `r` replicas of the shard over `rows` / `ids`, each on its
    /// own bank with a decorrelated fault map. `rows` is taken by value
    /// and becomes the single shared mirror — no per-replica copy is
    /// made; each residency streams the mirror's rows onto its bank
    /// block-by-block.
    pub fn open(
        cfg: ShardConfig,
        r: usize,
        rows: Dataset,
        ids: Vec<usize>,
    ) -> Result<Self, ServeError> {
        if r == 0 {
            return Err(ServeError::invalid(
                "a replica set needs at least one replica",
            ));
        }
        let mut mirror = ShardMirror::new(rows, ids)?;
        let replicas = mirror.open_residencies(r, |i| replica_config(cfg, i, 0))?;
        let mut set = Self {
            cfg,
            mirror,
            state: vec![ReplicaState::Healthy; r],
            routed: vec![0; r],
            replicas,
            failovers: 0,
            repairs: 0,
            degraded_queries: 0,
            generation: 0,
        };
        set.plan_cell_plane();
        Ok(set)
    }

    /// Keeps the mirror's cell plane exactly while a replica's plan is a
    /// segment bound (`LB_PIM-FNN` / `LB_PIM-SM`); called wherever a bank
    /// may have been planned anew (open, re-layout, repair).
    fn plan_cell_plane(&mut self) {
        use PreparedFunction::{Fnn, Sm};
        let segment = |r: &Residency| matches!(r.executor().prepared(), Fnn { .. } | Sm { .. });
        let on = self.replicas.iter().any(segment);
        self.mirror.set_cell_plane(on);
    }

    /// Live object count (the shared mirror's).
    pub fn live_len(&self) -> usize {
        self.mirror.live_len()
    }

    /// The shared host mirror (read-only: mutations go through the set).
    pub fn mirror(&self) -> &ShardMirror {
        &self.mirror
    }

    /// The routing decision: the healthy replica with the least crossbar
    /// wear (ties to the lowest index — deterministic). `None` when the
    /// set is degraded. A lone healthy replica is the answer without
    /// reading wear, which walks every crossbar's program counter.
    pub fn route(&self) -> Option<usize> {
        let healthy = |i: &usize| self.state[*i] == ReplicaState::Healthy;
        let lone = (0..self.replicas.len()).filter(healthy).count() == 1;
        (0..self.replicas.len())
            .filter(healthy)
            .min_by_key(|&i| (if lone { 0 } else { self.replicas[i].wear() }, i))
    }

    /// Forces one batch through replica `i`, bypassing routing — the
    /// inspection hook replica-equivalence tests use to prove every
    /// replica answers bit-identically. A lost bank is answered from the
    /// host mirror ([`ShardMirror::host_batch`]), so this never fails
    /// over.
    pub fn query_replica(
        &mut self,
        i: usize,
        queries: &[Vec<f64>],
        ks: &[usize],
    ) -> Vec<Result<Vec<Neighbor>, ServeError>> {
        match self.replicas[i].try_query_batch(
            &self.mirror,
            queries,
            ks,
            simpim_obs::TraceCtx::NONE,
        ) {
            Ok(out) => out,
            Err(_) => self.mirror.host_batch(queries, ks),
        }
    }

    /// Serves one coalesced batch: route to the least-worn healthy
    /// replica; on detected bank loss, quarantine it and fail the batch
    /// over to the next replica; with no replica left, answer exactly
    /// from the host mirror (degraded mode).
    ///
    /// Unless `parent` is [`simpim_obs::TraceCtx::NONE`], the crossbar
    /// pass runs under a `serve.replica.pass` span parented on it (so the
    /// pass stays attributable to its coalesced batch across the
    /// worker-thread hop). The returned [`RouteSample`] reports which
    /// replica answered and what fault handling (failover, shed, degraded
    /// host mirror) the batch absorbed on the way.
    pub fn query_batch(
        &mut self,
        queries: &[Vec<f64>],
        ks: &[usize],
        parent: simpim_obs::TraceCtx,
        shard: usize,
    ) -> (Vec<Result<Vec<Neighbor>, ServeError>>, RouteSample) {
        let mut sample = RouteSample::default();
        let (mut span, ctx) = if parent.is_none() {
            (None, simpim_obs::TraceCtx::NONE)
        } else {
            let (sp, ctx) = simpim_obs::trace::open_span_ctx(
                "serve.replica.pass",
                parent,
                &[("shard", shard as f64), ("queries", queries.len() as f64)],
            );
            (Some(sp), ctx)
        };
        while let Some(i) = self.route() {
            let sheds_before = self.replicas[i].sheds();
            match self.replicas[i].try_query_batch(&self.mirror, queries, ks, ctx) {
                Ok(out) => {
                    self.routed[i] += 1;
                    sample.replica = Some(i);
                    sample.sheds = self.replicas[i].sheds() - sheds_before;
                    if let Some(sp) = &mut span {
                        sp.record_all([
                            ("replica", i as f64),
                            ("failovers", sample.failovers as f64),
                            ("sheds", sample.sheds as f64),
                        ]);
                    }
                    return (out, sample);
                }
                Err(e) if e.is_bank_loss() => {
                    // Detect + quarantine: route around the dead bank and
                    // retry the whole batch elsewhere. Answers are
                    // replica-independent, so the retry is transparent.
                    self.state[i] = ReplicaState::Lost;
                    self.failovers += 1;
                    sample.failovers += 1;
                    simpim_obs::metrics::counter_add("simpim.serve.failovers", 1);
                }
                Err(e) => {
                    return (vec![Err(e); queries.len()], sample);
                }
            }
        }
        // Degraded: every replica lost. The host mirror is still exact.
        sample.degraded = true;
        self.degraded_queries += queries.len() as u64;
        simpim_obs::metrics::counter_add("simpim.serve.degraded_queries", queries.len() as u64);
        if let Some(sp) = &mut span {
            sp.record_all([("degraded", 1.0), ("failovers", sample.failovers as f64)]);
        }
        (self.mirror.host_batch(queries, ks), sample)
    }

    /// Inserts a row under `id`: appended to the shared mirror once,
    /// then offered to every replica's spare rows. Replicas whose spares
    /// are exhausted (or whose bank is lost) simply leave it in their
    /// delta — mirrors never diverge because there is only one.
    pub fn insert(&mut self, id: usize, row: &[f64]) -> Result<(), ServeError> {
        validate_row(row, self.mirror.dim())?;
        let idx = self.mirror.append(id, row)?;
        for replica in &mut self.replicas {
            replica.absorb_insert(idx, row)?;
        }
        Ok(())
    }

    /// Deletes `id`: tombstoned in the shared mirror once; each replica
    /// then compacts independently if its tombstone ratio crosses its
    /// wear-adjusted threshold. Returns whether the id was present.
    pub fn delete(&mut self, id: usize) -> Result<bool, ServeError> {
        if self.mirror.tombstone(id).is_none() {
            return Ok(false);
        }
        for replica in &mut self.replicas {
            replica.maybe_reprogram(&self.mirror)?;
        }
        self.try_compact();
        self.plan_cell_plane();
        Ok(true)
    }

    /// Drops tombstones from the mirror once **every** residency has
    /// folded them out of its programmed order (they reprogram at
    /// different times — wear thresholds differ — so the mirror must
    /// wait for the slowest), then remaps all orders atomically.
    fn try_compact(&mut self) {
        if self.mirror.dead_len() == 0 {
            return;
        }
        if self.replicas.iter().any(|r| r.tombstoned(&self.mirror) > 0) {
            return;
        }
        let table = self.mirror.compact();
        for replica in &mut self.replicas {
            replica.remap(&table);
        }
    }

    /// Takes replica `i` out of routing for a compacting reprogram.
    /// Returns `false` (and does nothing) for a lost replica — the repair
    /// loop owns those.
    fn begin_reprogram(&mut self, i: usize) -> bool {
        if self.state[i] != ReplicaState::Healthy {
            return false;
        }
        self.state[i] = ReplicaState::Reprogramming;
        true
    }

    /// Rejoins replica `i` to routing after its reprogram step.
    fn finish_reprogram(&mut self, i: usize) {
        if self.state[i] == ReplicaState::Reprogramming {
            self.state[i] = ReplicaState::Healthy;
        }
    }

    /// One step of the rolling reprogram: drain replica `i` from
    /// routing, compact it, rejoin it. The caller (the engine's
    /// rolling-flush loop) serves queries from the other `R − 1` replicas
    /// between steps, and answers are unchanged on both sides of the step
    /// (compaction invariance). Once the last dirty replica folds its
    /// tombstones, the shared mirror compacts too. Returns the rows the
    /// step wrote ([`Residency::reprogram`]).
    pub fn reprogram_replica(&mut self, i: usize) -> Result<usize, ServeError> {
        if !self.begin_reprogram(i) {
            return Ok(0);
        }
        let out = self.replicas[i].reprogram(&self.mirror);
        self.finish_reprogram(i);
        self.try_compact();
        self.plan_cell_plane();
        out
    }

    /// Whether any replica is quarantined awaiting re-replication.
    pub fn needs_repair(&self) -> bool {
        self.state.contains(&ReplicaState::Lost)
    }

    /// Re-replicates one lost replica onto a spare bank: the shared
    /// mirror's live rows are streamed onto a fresh bank with a fresh
    /// fault map (block-by-block — no snapshot copy is materialized),
    /// scrubbed, and rejoined to routing. Returns `true` if a replica
    /// was repaired. Driven by the engine scheduler between batches, so
    /// repair work never blocks a query on a healthy replica.
    pub fn repair_one(&mut self) -> Result<bool, ServeError> {
        let Some(i) = self.state.iter().position(|&s| s == ReplicaState::Lost) else {
            return Ok(false);
        };
        if self.mirror.live_len() == 0 {
            // Nothing to program — an empty shard answers nothing from
            // any path, so leave the replica quarantined.
            return Ok(false);
        }
        let started = Instant::now();
        self.generation += 1;
        let mut spare =
            Residency::open(replica_config(self.cfg, i, self.generation), &self.mirror)?;
        spare.scrub()?;
        self.replicas[i] = spare;
        self.state[i] = ReplicaState::Healthy;
        self.repairs += 1;
        // The repaired residency programmed only live rows; if it was
        // the last one holding tombstones, the mirror can compact now.
        self.try_compact();
        self.plan_cell_plane();
        simpim_obs::metrics::counter_add("simpim.serve.repairs", 1);
        simpim_obs::metrics::histogram_record(
            "simpim.serve.repair_ns",
            started.elapsed().as_nanos() as u64,
        );
        Ok(true)
    }

    /// Fail-stops the bank under replica `i` — fault injection only;
    /// detection (and the failover/repair that follows) happens on the
    /// next routed batch, exactly as for an organically lost bank.
    pub fn kill_replica(&mut self, i: usize) {
        self.replicas[i].kill_bank();
    }

    /// Direct access to replica `i`'s residency (wear injection,
    /// inspection). The rows live in the shared mirror, not here — use
    /// [`ReplicaSet::query_replica`] to answer through a specific
    /// replica.
    pub fn replica_mut(&mut self, i: usize) -> &mut Residency {
        &mut self.replicas[i]
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ReplicaSetStats {
        let healthy = self
            .state
            .iter()
            .filter(|&&s| s == ReplicaState::Healthy)
            .count();
        ReplicaSetStats {
            replicas: self
                .replicas
                .iter()
                .map(|r| r.stats(&self.mirror))
                .collect(),
            states: self.state.clone(),
            routed: self.routed.clone(),
            healthy,
            degraded: healthy == 0,
            failovers: self.failovers,
            repairs: self.repairs,
            degraded_queries: self.degraded_queries,
            live: self.live_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_core::executor::ExecutorConfig;
    use simpim_mining::knn::standard::knn_standard;
    use simpim_reram::{CrossbarConfig, FaultConfig, PimConfig};
    use simpim_similarity::Measure;

    fn cfg(faults: Option<FaultConfig>) -> ShardConfig {
        ShardConfig {
            executor: ExecutorConfig {
                pim: PimConfig {
                    crossbar: CrossbarConfig {
                        size: 16,
                        adc_bits: 12,
                        ..Default::default()
                    },
                    num_crossbars: 4096,
                    ..Default::default()
                },
                alpha: 1e6,
                operand_bits: 32,
                double_buffer: false,
                parallel_regions: true,
                faults,
                scrub_interval: 0,
            },
            spare_rows: 2,
            tombstone_reprogram_ratio: 0.4,
            reprogram_wear_budget: 1_000,
        }
    }

    fn rows() -> Dataset {
        Dataset::from_rows(&[
            vec![0.1, 0.9, 0.3, 0.7],
            vec![0.5, 0.5, 0.5, 0.5],
            vec![0.9, 0.1, 0.8, 0.2],
            vec![0.4, 0.6, 0.2, 0.8],
        ])
        .unwrap()
    }

    fn query() -> Vec<f64> {
        vec![0.45, 0.55, 0.4, 0.6]
    }

    /// The routed answer to [`query`] at `k`, untraced.
    fn ask(set: &mut ReplicaSet, k: usize) -> Vec<Neighbor> {
        set.query_batch(&[query()], &[k], simpim_obs::TraceCtx::NONE, 0)
            .0
            .remove(0)
            .unwrap()
    }

    #[test]
    fn zero_replicas_and_empty_shards_are_refused_not_panicked() {
        let refused = |out: Result<(), ServeError>, what: &str| {
            assert!(
                matches!(out, Err(ServeError::InvalidArgument { .. })),
                "{what}: {out:?}"
            );
        };
        let open = |r, rows, ids| ReplicaSet::open(cfg(None), r, rows, ids).map(drop);
        refused(open(0, rows(), vec![0, 1, 2, 3]), "zero replicas");
        let empty = || Dataset::with_dim(4).unwrap();
        refused(open(2, empty(), vec![]), "zero rows, replica set");
        refused(
            crate::Shard::open(cfg(None), empty(), vec![]).map(drop),
            "zero rows, standalone shard",
        );
    }

    #[test]
    fn routing_prefers_the_least_worn_healthy_replica() {
        let mut set = ReplicaSet::open(cfg(None), 3, rows(), vec![0, 1, 2, 3]).unwrap();
        assert_eq!(set.route(), Some(0), "equal wear ties to the lowest index");
        set.replica_mut(0).age_bank(10);
        set.replica_mut(1).age_bank(5);
        assert_eq!(set.route(), Some(2));
        set.replica_mut(2).age_bank(20);
        assert_eq!(set.route(), Some(1));
        // A batch routes there and the routed counter records it.
        let got = ask(&mut set, 2);
        assert_eq!(got.len(), 2);
        assert_eq!(set.stats().routed, vec![0, 1, 0]);
    }

    #[test]
    fn failover_detects_quarantines_and_repairs() {
        let mut set = ReplicaSet::open(cfg(None), 2, rows(), vec![0, 1, 2, 3]).unwrap();
        let truth = knn_standard(&rows(), &query(), 2, Measure::EuclideanSq).unwrap();
        let before = ask(&mut set, 2);
        assert_eq!(before, truth.neighbors);

        // Kill the replica that routing would pick; the next batch must
        // detect the loss, fail over, and answer identically.
        let victim = set.route().unwrap();
        set.kill_replica(victim);
        let after = ask(&mut set, 2);
        assert_eq!(after, before, "failover must be bit-invisible");
        let stats = set.stats();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.healthy, 1);
        assert!(set.needs_repair());

        // Repair re-replicates onto a spare bank and rejoins routing.
        assert!(set.repair_one().unwrap());
        let stats = set.stats();
        assert_eq!(stats.repairs, 1);
        assert_eq!(stats.healthy, 2);
        assert!(!set.needs_repair());

        // The repaired replica serves bit-identically: kill the survivor
        // so the answer can only come from the repaired bank (whichever
        // replica routing tries first, the survivor is dead).
        let survivor = (0..2).find(|&i| i != victim).unwrap();
        let routed_before = set.stats().routed[victim];
        set.kill_replica(survivor);
        let repaired = ask(&mut set, 2);
        assert_eq!(repaired, before);
        assert_eq!(
            set.stats().routed[victim],
            routed_before + 1,
            "the repaired bank served the batch"
        );
    }

    #[test]
    fn all_replicas_lost_degrades_to_exact_host_mirror() {
        let mut set = ReplicaSet::open(cfg(None), 2, rows(), vec![0, 1, 2, 3]).unwrap();
        let truth = knn_standard(&rows(), &query(), 3, Measure::EuclideanSq).unwrap();
        set.kill_replica(0);
        set.kill_replica(1);
        let got = ask(&mut set, 3);
        assert_eq!(got, truth.neighbors, "degraded answers stay exact");
        let stats = set.stats();
        assert!(stats.degraded);
        assert_eq!(stats.healthy, 0);
        assert_eq!(stats.failovers, 2);
        assert_eq!(stats.degraded_queries, 1);
        // Mutations still apply (host-side) while degraded...
        set.insert(4, &[0.2, 0.3, 0.4, 0.5]).unwrap();
        assert!(set.delete(0).unwrap());
        // ...and the repair loop can rebuild from the shared mirror alone.
        assert!(set.repair_one().unwrap());
        assert!(set.repair_one().unwrap());
        let stats = set.stats();
        assert_eq!(stats.healthy, 2);
        assert!(!stats.degraded);
        let got = ask(&mut set, 4);
        assert!(got.iter().any(|&(id, _)| id == 4));
        assert!(got.iter().all(|&(id, _)| id != 0));
    }

    #[test]
    fn rolling_reprogram_keeps_r_minus_one_replicas_routable() {
        let mut set = ReplicaSet::open(cfg(None), 2, rows(), vec![0, 1, 2, 3]).unwrap();
        set.delete(1).unwrap(); // a tombstone for the reprogram to compact
        let before = ask(&mut set, 3);

        assert!(set.begin_reprogram(0));
        assert_eq!(set.state[0], ReplicaState::Reprogramming);
        assert_eq!(set.route(), Some(1), "reads keep flowing mid-drain");
        let mid = ask(&mut set, 3);
        assert_eq!(mid, before, "mid-reprogram answers are unchanged");
        set.finish_reprogram(0);

        for i in 0..2 {
            set.reprogram_replica(i).unwrap();
        }
        let stats = set.stats();
        assert_eq!(stats.healthy, 2);
        assert!(stats.replicas.iter().all(|r| r.tombstones == 0));
        let after = ask(&mut set, 3);
        assert_eq!(after, before);
    }

    #[test]
    fn shared_mirror_compacts_once_every_replica_is_clean() {
        let mut set = ReplicaSet::open(cfg(None), 2, rows(), vec![0, 1, 2, 3]).unwrap();
        set.delete(1).unwrap();
        // One tombstone out of four is under the 0.4 threshold: both
        // residencies still hold the dead slot, so the mirror must not
        // have compacted yet.
        assert_eq!(set.stats().replicas[0].tombstones, 1);
        // Roll replica 0 only: the mirror still waits on replica 1.
        set.reprogram_replica(0).unwrap();
        let stats = set.stats();
        assert_eq!(stats.replicas[0].tombstones, 0);
        assert_eq!(stats.replicas[1].tombstones, 1);
        // Rolling the second replica makes every order clean → compact.
        set.reprogram_replica(1).unwrap();
        let stats = set.stats();
        assert!(stats.replicas.iter().all(|r| r.tombstones == 0));
        assert_eq!(stats.live, 3);
        // Answers unchanged through the whole sequence.
        let truth = {
            let mut remaining = rows();
            remaining.swap_remove_row(1).unwrap();
            knn_standard(&remaining, &query(), 3, Measure::EuclideanSq).unwrap()
        };
        let got = ask(&mut set, 3);
        assert_eq!(
            got.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            truth.neighbors.iter().map(|&(_, v)| v).collect::<Vec<_>>()
        );
        assert!(got.iter().all(|&(id, _)| id != 1));
    }

    #[test]
    fn query_replica_answers_identically_on_every_replica() {
        let mut set = ReplicaSet::open(cfg(None), 3, rows(), vec![0, 1, 2, 3]).unwrap();
        set.insert(4, &[0.2, 0.3, 0.4, 0.5]).unwrap();
        set.delete(2).unwrap();
        let truth = ask(&mut set, 3);
        for i in 0..3 {
            let got = set
                .query_replica(i, std::slice::from_ref(&query()), &[3])
                .remove(0)
                .unwrap();
            assert_eq!(got, truth, "replica {i} diverged");
        }
        // Even through a dead bank (host-mirror shed path).
        set.kill_replica(1);
        let got = set
            .query_replica(1, std::slice::from_ref(&query()), &[3])
            .remove(0)
            .unwrap();
        assert_eq!(got, truth);
    }

    #[test]
    fn replica_fault_maps_are_decorrelated() {
        let base = cfg(Some(FaultConfig {
            dead_bitline_rate: 0.05,
            seed: 9,
            ..Default::default()
        }));
        let a = replica_config(base, 0, 0).executor.faults.unwrap();
        let b = replica_config(base, 1, 0).executor.faults.unwrap();
        let c = replica_config(base, 1, 1).executor.faults.unwrap();
        assert_ne!(a.seed, b.seed, "replicas must not share a fault map");
        assert_ne!(b.seed, c.seed, "spare banks draw fresh fault maps");
        // Faulty replicas still answer bit-identically (guard-band /
        // quarantine keep bounds valid), so failover stays invisible.
        let mut set = ReplicaSet::open(base, 2, rows(), vec![0, 1, 2, 3]).unwrap();
        let truth = knn_standard(&rows(), &query(), 2, Measure::EuclideanSq).unwrap();
        let first = ask(&mut set, 2);
        assert_eq!(first, truth.neighbors);
        set.kill_replica(set.route().unwrap());
        let second = ask(&mut set, 2);
        assert_eq!(second, first);
    }
}
