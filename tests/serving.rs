//! Serving-engine integration tests: every answer the online engine
//! returns must be bit-identical to an offline scan over the same live
//! rows — through batching, sharding, inserts, deletes, compaction, and
//! injected crossbar faults — and the engine must stay linearizable
//! under concurrent mixed workloads.

use std::collections::HashSet;

use proptest::prelude::*;
use simpim::core::executor::ExecutorConfig;
use simpim::mining::knn::standard::knn_standard;
use simpim::reram::{CrossbarConfig, FaultConfig, PimConfig};
use simpim::serve::{ReplicaSet, ServeConfig, ServeEngine, ServeError, Shard, ShardConfig};
use simpim::similarity::{Dataset, Measure};

/// A small platform that fits the tiny proptest datasets quickly.
fn exec_cfg(faults: Option<FaultConfig>) -> ExecutorConfig {
    ExecutorConfig {
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
    }
}

fn serve_cfg(shards: usize, faults: Option<FaultConfig>) -> ServeConfig {
    ServeConfig {
        shards,
        max_batch: 4,
        queue_depth: 64,
        spare_rows: 4,
        executor: exec_cfg(faults),
        ..Default::default()
    }
}

/// The offline truth over the engine's live rows: a linear scan with
/// positions mapped back to stable global ids. `live` must be sorted by
/// ascending id so position-order tie-breaks equal id-order tie-breaks.
fn offline_truth(live: &[(usize, Vec<f64>)], query: &[f64], k: usize) -> Vec<(usize, f64)> {
    let ds = Dataset::from_rows(&live.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>()).unwrap();
    let res = knn_standard(&ds, query, k.min(ds.len()), Measure::EuclideanSq).unwrap();
    res.neighbors
        .iter()
        .map(|&(pos, v)| (live[pos].0, v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // knn_batch is bit-identical to the offline scan on the same live
    // rows, across shard counts, inserts/deletes (spare-row appends,
    // delta overflow, tombstones), and injected dead bitlines.
    #[test]
    fn knn_batch_matches_offline_scan(
        shape in ((6usize..=14, 2usize..=5), (1usize..=3, 1usize..=4), (0u64..=3, 0u8..=1)),
        flat in prop::collection::vec(0.0f64..=1.0, 14 * 5),
        inserts in prop::collection::vec(prop::collection::vec(0.0f64..=1.0, 5), 0..4),
        delete_picks in prop::collection::vec(0usize..1000, 0..4),
        queries in prop::collection::vec(prop::collection::vec(0.0f64..=1.0, 5), 1..4),
    ) {
        let ((n, d), (shards, k), (seed, with_faults)) = shape;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| flat[i * d..(i + 1) * d].to_vec()).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let faults = (with_faults == 1).then(|| FaultConfig {
            dead_bitline_rate: 0.05,
            seed,
            ..Default::default()
        });
        let shards = shards.min(n);
        let engine = ServeEngine::open(serve_cfg(shards, faults), &data).unwrap();

        // Mirror model: live (id, row) pairs in ascending-id order.
        let mut live: Vec<(usize, Vec<f64>)> =
            rows.iter().cloned().enumerate().collect();
        for (next_id, row) in (n..).zip(inserts.iter()) {
            let row: Vec<f64> = row[..d].to_vec();
            let id = engine.insert(&row).unwrap();
            prop_assert_eq!(id, next_id);
            live.push((id, row));
        }
        for pick in &delete_picks {
            if live.len() <= shards {
                break; // keep every shard non-empty
            }
            let pos = pick % live.len();
            let (id, _) = live.remove(pos);
            prop_assert!(engine.delete(id).unwrap());
            prop_assert!(!engine.delete(id).unwrap(), "double delete must miss");
        }

        let queries: Vec<Vec<f64>> = queries.iter().map(|q| q[..d].to_vec()).collect();
        let got = engine.knn_batch(&queries, k).unwrap();
        for (q, res) in queries.iter().zip(&got) {
            let truth = offline_truth(&live, q, k);
            prop_assert_eq!(res, &truth);
        }

        // Compaction must not change any answer.
        engine.flush().unwrap();
        let again = engine.knn_batch(&queries, k).unwrap();
        prop_assert_eq!(got, again);
    }

    // Replica interchangeability: after any mix of inserts and deletes,
    // every replica of a set answers bit-identically to the offline
    // scan — the property that makes routing, failover, and rolling
    // reprogram invisible to clients.
    #[test]
    fn every_replica_answers_bit_identically(
        shape in ((6usize..=12, 2usize..=4), (2usize..=3, 1usize..=4), (0u64..=3, 0u8..=1)),
        flat in prop::collection::vec(0.0f64..=1.0, 12 * 4),
        inserts in prop::collection::vec(prop::collection::vec(0.0f64..=1.0, 4), 0..3),
        delete_picks in prop::collection::vec(0usize..1000, 0..3),
        query in prop::collection::vec(0.0f64..=1.0, 4),
    ) {
        let ((n, d), (r, k), (seed, with_faults)) = shape;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| flat[i * d..(i + 1) * d].to_vec()).collect();
        let faults = (with_faults == 1).then(|| FaultConfig {
            dead_bitline_rate: 0.05,
            seed,
            ..Default::default()
        });
        let cfg = ShardConfig {
            executor: exec_cfg(faults),
            spare_rows: 2,
            ..Default::default()
        };
        let data = Dataset::from_rows(&rows).unwrap();
        let mut set = ReplicaSet::open(cfg, r, data, (0..n).collect()).unwrap();

        let mut live: Vec<(usize, Vec<f64>)> = rows.iter().cloned().enumerate().collect();
        for (id, row) in (n..).zip(inserts.iter()) {
            let row: Vec<f64> = row[..d].to_vec();
            set.insert(id, &row).unwrap();
            live.push((id, row));
        }
        for pick in &delete_picks {
            if live.len() <= 1 {
                break;
            }
            let pos = pick % live.len();
            let (id, _) = live.remove(pos);
            prop_assert!(set.delete(id).unwrap());
        }

        let query: Vec<f64> = query[..d].to_vec();
        let truth = offline_truth(&live, &query, k);
        for i in 0..r {
            let got = set
                .query_replica(i, std::slice::from_ref(&query), &[k])
                .remove(0)
                .unwrap();
            prop_assert_eq!(&got, &truth, "replica {} diverged", i);
        }
    }

    // Mid-stream bank loss: kill a replica's bank, keep mutating during
    // the repair window, and assert every answer stays bit-identical to
    // the offline scan through detection, failover, re-replication, the
    // loss of the original survivor, and a final compaction.
    #[test]
    fn bank_kill_and_re_replicate_preserve_answers(
        shape in ((6usize..=12, 2usize..=4), (1usize..=2, 1usize..=4)),
        flat in prop::collection::vec(0.0f64..=1.0, 12 * 4),
        inserts in prop::collection::vec(prop::collection::vec(0.0f64..=1.0, 4), 1..3),
        delete_picks in prop::collection::vec(0usize..1000, 1..3),
        queries in prop::collection::vec(prop::collection::vec(0.0f64..=1.0, 4), 1..3),
    ) {
        let ((n, d), (shards, k)) = shape;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| flat[i * d..(i + 1) * d].to_vec()).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let shards = shards.min(n);
        let mut cfg = serve_cfg(shards, None);
        cfg.replicas = 2;
        let engine = ServeEngine::open(cfg, &data).unwrap();
        let queries: Vec<Vec<f64>> = queries.iter().map(|q| q[..d].to_vec()).collect();
        let mut live: Vec<(usize, Vec<f64>)> = rows.iter().cloned().enumerate().collect();

        // Fail-stop one bank of every shard, then mutate while the
        // replicas are lost (the repair window): inserts must land in
        // the host delta of the dead banks, deletes must tombstone, so
        // mirrors never diverge.
        for s in 0..shards {
            engine.kill_bank(s, 0).unwrap();
        }
        for (id, row) in (n..).zip(inserts.iter()) {
            let row: Vec<f64> = row[..d].to_vec();
            prop_assert_eq!(engine.insert(&row).unwrap(), id);
            live.push((id, row));
        }
        for pick in &delete_picks {
            if live.len() <= shards {
                break;
            }
            let pos = pick % live.len();
            let (id, _) = live.remove(pos);
            prop_assert!(engine.delete(id).unwrap());
        }

        // Queries through the loss: detection + failover, bit-identical.
        for q in &queries {
            prop_assert_eq!(engine.knn(q, k).unwrap(), offline_truth(&live, q, k));
        }
        // Traffic drives detection; the repair tick re-replicates. A few
        // query/stats rounds must bring every set back to full strength.
        let mut recovered = false;
        for _ in 0..16 {
            let _ = engine.knn(&queries[0], k).unwrap();
            let stats = engine.stats().unwrap();
            if stats.shards.iter().all(|s| s.healthy == 2) {
                prop_assert_eq!(stats.repairs as usize, shards);
                prop_assert_eq!(stats.degraded_shards, 0);
                recovered = true;
                break;
            }
        }
        prop_assert!(recovered, "lost replicas were not re-replicated");

        // The repaired replicas carry the full live set: kill the
        // original survivors so only repaired banks can answer.
        for s in 0..shards {
            engine.kill_bank(s, 1).unwrap();
        }
        for q in &queries {
            prop_assert_eq!(engine.knn(q, k).unwrap(), offline_truth(&live, q, k));
        }
        // Rolling compaction never changes an answer either.
        engine.flush().unwrap();
        for q in &queries {
            prop_assert_eq!(engine.knn(q, k).unwrap(), offline_truth(&live, q, k));
        }
    }

    // Compaction rewrites rows in place, or re-lays the bank out when the
    // live rows outgrow the allocation (no spare rows at all, or fewer
    // than the inserts); either way, after every flush each programmed
    // position holds the quantisation of the mirror row `order` maps it
    // to, and every replica answers like the offline scan of the live rows.
    #[test]
    fn compaction_keeps_programmed_rows_and_answers_exact(
        shape in ((6usize..=12, 1usize..=2), (0usize..3, 0u8..=1, 0u64..=3)),
        flat in prop::collection::vec(0.0f64..=1.0, 12 * 4),
        ops in prop::collection::vec(
            (0u8..3, 0usize..1000, prop::collection::vec(0.0f64..=1.0, 4)),
            1..24,
        ),
        query in prop::collection::vec(0.0f64..=1.0, 4),
    ) {
        use simpim::core::PreparedFunction;
        use simpim::similarity::Quantizer;

        let ((n, r), (spare, with_faults, seed)) = shape;
        let d = 4;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| flat[i * d..(i + 1) * d].to_vec()).collect();
        let faults = (with_faults == 1).then(|| FaultConfig {
            dead_bitline_rate: 0.05,
            seed,
            ..Default::default()
        });
        let cfg = ShardConfig {
            executor: exec_cfg(faults),
            spare_rows: [0, 2, 16][spare],
            ..Default::default()
        };
        let quantizer = Quantizer::identity(cfg.executor.alpha).unwrap();
        let data = Dataset::from_rows(&rows).unwrap();
        let mut set = ReplicaSet::open(cfg, r, data, (0..n).collect()).unwrap();
        let mut live: Vec<(usize, Vec<f64>)> = rows.into_iter().enumerate().collect();
        let mut next_id = n;
        for (kind, pick, row) in &ops {
            match kind {
                0 => {
                    set.insert(next_id, row).unwrap();
                    live.push((next_id, row.clone()));
                    next_id += 1;
                }
                1 if live.len() > 1 => {
                    let (id, _) = live.remove(pick % live.len());
                    prop_assert!(set.delete(id).unwrap());
                }
                _ => {
                    for i in 0..r {
                        set.reprogram_replica(i).unwrap();
                    }
                    let (snap, ids) = set.mirror().snapshot_live().unwrap();
                    let mut snapshot: Vec<(usize, Vec<f64>)> =
                        ids.into_iter().zip(snap.rows().map(<[f64]>::to_vec)).collect();
                    snapshot.sort_by_key(|(id, _)| *id);
                    prop_assert_eq!(&snapshot, &live);
                    let k = 3.min(live.len());
                    let truth = offline_truth(&live, &query, k);
                    let mirror: Vec<Vec<f64>> =
                        (0..set.mirror().len()).map(|j| set.mirror().row(j).to_vec()).collect();
                    let stats = set.stats();
                    prop_assert!(stats.replicas.iter().all(|s| s.tombstones + s.delta == 0));
                    for i in 0..r {
                        let got = set.query_replica(i, std::slice::from_ref(&query), &[k]);
                        prop_assert_eq!(&got[0], &Ok(truth.clone()), "replica {}", i);
                        let res = set.replica_mut(i);
                        let exec = res.executor();
                        let PreparedFunction::Ed { region, .. } = exec.prepared() else {
                            panic!("tiny shards fit uncompressed");
                        };
                        let pim = exec.bank().pim();
                        prop_assert_eq!(pim.region_shape(*region).unwrap().0, res.order().len());
                        for (j, &row) in res.order().iter().enumerate() {
                            let want = quantizer.quantize_vec(&mirror[row]).unwrap().floors;
                            prop_assert_eq!(pim.region_row(*region, j).unwrap(), &want[..]);
                        }
                    }
                }
            }
        }
    }
}

// A flush queued between two runs of queries, all submitted without
// waiting, is served between them: every reply arrives, the queries ahead
// of the mutations see the old rows and the ones behind see the new — at
// one replica a shard and at two.
#[test]
fn queries_around_a_queued_flush_are_answered_in_submission_order() {
    use simpim::obs::TraceCtx;
    use std::time::Duration;

    let rows: Vec<Vec<f64>> = (0..24)
        .map(|i| {
            (0..4)
                .map(|j| ((i * 11 + j * 17) % 89) as f64 / 88.0)
                .collect()
        })
        .collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let q = vec![0.4, 0.3, 0.9, 0.1];
    let before: Vec<(usize, Vec<f64>)> = rows.iter().cloned().enumerate().collect();
    let truth_before = offline_truth(&before, &q, 3);
    let nearest = truth_before[0].0;
    let mut after = before.clone();
    after.retain(|(id, _)| *id != nearest);
    after.push((24, q.clone()));
    let truth_after = offline_truth(&after, &q, 3);
    assert_eq!(truth_after[0], (24, 0.0));

    for replicas in [1, 2] {
        let mut cfg = serve_cfg(2, None);
        cfg.replicas = replicas;
        cfg.max_batch = 16;
        cfg.queue_depth = 64;
        let engine = ServeEngine::open(cfg, &data).unwrap();
        let submit = || {
            engine
                .knn_submit(&q, 3, Duration::from_secs(60), TraceCtx::NONE)
                .unwrap()
        };
        let ahead: Vec<_> = (0..8).map(|_| submit()).collect();
        let delete = engine.delete_submit(nearest, TraceCtx::NONE).unwrap();
        let insert = engine.insert_submit(&q, TraceCtx::NONE).unwrap();
        let flush = engine.flush_submit(TraceCtx::NONE).unwrap();
        let behind: Vec<_> = (0..8).map(|_| submit()).collect();
        for pending in ahead {
            assert_eq!(pending.wait().unwrap(), truth_before, "R = {replicas}");
        }
        assert!(delete.wait().unwrap());
        assert_eq!(insert.wait().unwrap(), 24);
        flush.wait().unwrap();
        for pending in behind {
            assert_eq!(pending.wait().unwrap(), truth_after, "R = {replicas}");
        }
        let stats = engine.stats().unwrap();
        assert_eq!((stats.queries, stats.failed), (16, 0));
    }
}

// A coalesced batch refines together — one sweep of a shard's rows for
// all of its queries. Eight different queries in one `knn_batch`, over an
// engine whose shards hold delta rows (inserts past the spare rows) and
// tombstones and one of which has lost its only bank (so it answers from
// the host mirror, the batch refinement's other caller), must each equal
// the offline scan of the live rows.
#[test]
fn a_batch_of_eight_over_delta_tombstones_and_a_dead_bank_matches_offline_scan() {
    let (n, d, k) = (40, 6, 5);
    let cell = |i: usize, j: usize| ((i * 37 + j * 11 + (i * j) % 7) % 101) as f64 / 100.0;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| cell(i, j)).collect())
        .collect();
    let mut cfg = serve_cfg(2, None);
    cfg.max_batch = 8;
    let engine = ServeEngine::open(cfg, &Dataset::from_rows(&rows).unwrap()).unwrap();
    let mut live: Vec<(usize, Vec<f64>)> = rows.iter().cloned().enumerate().collect();
    // Twelve inserts against four spare rows a shard: some stay delta.
    for i in n..n + 12 {
        let row: Vec<f64> = (0..d).map(|j| cell(i, j + 3)).collect();
        assert_eq!(engine.insert(&row).unwrap(), i);
        live.push((i, row));
    }
    for id in [3, 17, 30, 44] {
        assert!(engine.delete(id).unwrap());
        live.retain(|(i, _)| *i != id);
    }
    engine.kill_bank(1, 0).unwrap();
    let stats = engine.stats().unwrap();
    assert!(stats.shards.iter().any(|s| s.replicas[0].delta > 0));
    assert!(stats.shards.iter().any(|s| s.replicas[0].tombstones > 0));

    let queries: Vec<Vec<f64>> = (0..8)
        .map(|q| (0..d).map(|j| cell(q * 5 + 1, j + 1)).collect())
        .collect();
    let got = engine.knn_batch(&queries, k).unwrap();
    for (q, got) in queries.iter().zip(&got) {
        assert_eq!(got, &offline_truth(&live, q, k));
    }
    let stats = engine.stats().unwrap();
    assert!(
        stats.failovers >= 1 && stats.degraded_queries >= 1,
        "shard 1 must have answered from the host mirror: {stats:?}"
    );
}

// One bad query of a batch fails alone, with the error it would get on
// its own; the rest of the batch is answered. On the crossbar path and on
// the host path (bank lost) alike.
#[test]
fn a_query_with_k_zero_fails_alone_in_a_shard_batch() {
    let rows: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            (0..4)
                .map(|j| ((i * 29 + j * 13) % 53) as f64 / 52.0)
                .collect()
        })
        .collect();
    let cfg = ShardConfig {
        executor: exec_cfg(None),
        spare_rows: 2,
        ..Default::default()
    };
    let data = Dataset::from_rows(&rows).unwrap();
    let mut shard = Shard::open(cfg, data, (0..12).collect()).unwrap();
    let live: Vec<(usize, Vec<f64>)> = rows.iter().cloned().enumerate().collect();
    let queries = vec![rows[2].clone(), rows[5].clone(), rows[9].clone()];
    for bank_lost in [false, true] {
        if bank_lost {
            shard.kill_bank();
        }
        let got = shard.query_batch(&queries, &[3, 0, 2]);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], Ok(offline_truth(&live, &queries[0], 3)));
        assert!(
            matches!(&got[1], Err(ServeError::Mining(e)) if e.to_string().contains("k must be at least 1")),
            "bank lost: {bank_lost}: {:?}",
            got[1]
        );
        assert_eq!(got[2], Ok(offline_truth(&live, &queries[2], 2)));
    }
    // A `ks` that does not parallel the queries fails all of them, on the
    // host path too (it used to answer the shorter prefix).
    let got = shard.query_batch(&queries, &[3, 2]);
    assert_eq!(got.len(), 3);
    for r in &got {
        assert!(
            matches!(r, Err(ServeError::InvalidArgument { what }) if what.contains("2 ks for 3 queries")),
            "{r:?}"
        );
    }
}

// Eight threads of mixed queries, inserts, and deletes against one
// engine: no lost or duplicated results anywhere.
#[test]
fn concurrent_mixed_workload_is_linearizable() {
    let n = 32;
    let d = 4;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 11 + j * 17) % 89) as f64 / 88.0)
                .collect()
        })
        .collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let mut cfg = serve_cfg(2, None);
    cfg.spare_rows = 8;
    let engine = ServeEngine::open(cfg, &data).unwrap();

    let (inserted_ids, delete_hits, query_results) = std::thread::scope(|s| {
        let engine = &engine;
        // 4 query threads.
        let queriers: Vec<_> = (0..4)
            .map(|t| {
                s.spawn(move || {
                    let mut results = Vec::new();
                    for i in 0..20 {
                        let q: Vec<f64> = (0..d)
                            .map(|j| ((t * 7 + i * 3 + j) % 10) as f64 / 10.0)
                            .collect();
                        loop {
                            match engine.knn(&q, 3) {
                                Ok(r) => {
                                    results.push(r);
                                    break;
                                }
                                Err(ServeError::Overloaded) => std::thread::yield_now(),
                                Err(e) => panic!("query failed: {e}"),
                            }
                        }
                    }
                    results
                })
            })
            .collect();
        // 2 insert threads, distinct rows each.
        let inserters: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    (0..8)
                        .map(|i| {
                            let row: Vec<f64> = (0..d)
                                .map(|j| ((t * 13 + i * 5 + j) % 7) as f64 / 7.0)
                                .collect();
                            engine.insert(&row).unwrap()
                        })
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        // 2 delete threads over disjoint halves of the initial ids.
        let deleters: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    (t * 8..(t + 1) * 8)
                        .filter(|&id| engine.delete(id).unwrap())
                        .count()
                })
            })
            .collect();

        let ids: Vec<usize> = inserters
            .into_iter()
            .flat_map(|h| h.join().expect("insert thread"))
            .collect();
        let hits: usize = deleters
            .into_iter()
            .map(|h| h.join().expect("delete thread"))
            .sum();
        let results: Vec<Vec<(usize, f64)>> = queriers
            .into_iter()
            .flat_map(|h| h.join().expect("query thread"))
            .collect();
        (ids, hits, results)
    });

    // No duplicated or reused insert ids (nothing lost to races).
    let unique: HashSet<usize> = inserted_ids.iter().copied().collect();
    assert_eq!(unique.len(), 16, "insert ids must be unique");
    assert!(inserted_ids.iter().all(|&id| id >= n), "fresh ids only");
    // Every pre-assigned delete found its row exactly once.
    assert_eq!(delete_hits, 16);
    // Every query got exactly k distinct live neighbors.
    assert_eq!(query_results.len(), 80);
    for r in &query_results {
        assert_eq!(r.len(), 3);
        let ids: HashSet<usize> = r.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), 3, "duplicate neighbor in {r:?}");
    }
    // The books balance: 32 initial + 16 inserted − 16 deleted.
    let stats = engine.stats().unwrap();
    assert_eq!(stats.live, 32);
    assert_eq!(stats.inserts, 16);
    assert_eq!(stats.queries, 80);
}

// The interleaving that used to kill the scheduler thread: a flush
// submitted right behind a run of queries is dequeued *while they are
// being coalesced*. Everything is submitted without waiting, so all but
// the first rounds are fully queued when the scheduler reaches them.
#[test]
fn flush_submitted_behind_queries_never_kills_the_scheduler() {
    use simpim::obs::TraceCtx;
    use std::time::Duration;

    let rows: Vec<Vec<f64>> = (0..24)
        .map(|i| {
            (0..4)
                .map(|j| ((i * 11 + j * 17) % 89) as f64 / 88.0)
                .collect()
        })
        .collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let mut cfg = serve_cfg(2, None);
    cfg.max_batch = 16; // a round's 8 queries never fill a batch
    cfg.queue_depth = 512; // holds all 50 × 9 commands: nothing is shed
    let engine = ServeEngine::open(cfg, &data).unwrap();
    let q = vec![0.4, 0.3, 0.9, 0.1];
    let truth = knn_standard(&data, &q, 3, Measure::EuclideanSq)
        .unwrap()
        .neighbors;

    let mut answers = Vec::new();
    let mut flushes = Vec::new();
    for _ in 0..50 {
        for _ in 0..8 {
            answers.push(
                engine
                    .knn_submit(&q, 3, Duration::from_secs(60), TraceCtx::NONE)
                    .unwrap(),
            );
        }
        flushes.push(engine.flush_submit(TraceCtx::NONE).unwrap());
    }
    for pending in answers {
        assert_eq!(pending.wait().unwrap(), truth);
    }
    for pending in flushes {
        pending.wait().unwrap();
    }
    assert_eq!(engine.knn(&q, 3).unwrap(), truth);
    assert_eq!(engine.stats().unwrap().queries, 401);
}

// A query holding a NaN or an infinity is refused at admission by every
// entry point. Once queued it would fail `quantise` inside the coalesced
// pass and shed every query batched with it to the host scan; refused, its
// neighbours in the queue are answered from the crossbars. A finite value
// outside [0, 1] is still a legal query.
#[test]
fn non_finite_query_is_refused_at_admission_and_sheds_nobody() {
    use simpim::obs::TraceCtx;
    use std::time::Duration;

    let rows: Vec<Vec<f64>> = (0..24)
        .map(|i| {
            (0..4)
                .map(|j| ((i * 11 + j * 17) % 89) as f64 / 88.0)
                .collect()
        })
        .collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let mut cfg = serve_cfg(2, None);
    cfg.max_batch = 8;
    let engine = ServeEngine::open(cfg, &data).unwrap();
    let good = vec![0.4, 0.3, 0.9, 0.1];
    let truth = |q: &[f64]| {
        knn_standard(&data, q, 3, Measure::EuclideanSq)
            .unwrap()
            .neighbors
    };
    let refused = |r: Result<_, ServeError>| matches!(r, Err(ServeError::InvalidArgument { .. }));

    let submit = |q: &[f64]| engine.knn_submit(q, 3, Duration::from_secs(60), TraceCtx::NONE);
    let mut pending = Vec::new();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        pending.push(submit(&good).unwrap());
        pending.push(submit(&good).unwrap());
        let poisoned = [0.4, bad, 0.9, 0.1];
        assert!(refused(submit(&poisoned).map(|_| ())), "knn_submit, {bad}");
        assert!(refused(engine.knn(&poisoned, 3).map(|_| ())), "knn, {bad}");
        let batch = [good.clone(), poisoned.to_vec()];
        assert!(
            refused(engine.knn_batch(&batch, 3).map(|_| ())),
            "knn_batch, {bad}"
        );
        pending.push(submit(&good).unwrap());
    }
    let accepted = pending.len() as u64;
    for p in pending {
        assert_eq!(p.wait().unwrap(), truth(&good));
    }
    let wide = [1.5, -0.25, 0.9, 0.1];
    assert_eq!(engine.knn(&wide, 3).unwrap(), truth(&wide));

    let stats = engine.stats().unwrap();
    assert_eq!(stats.sheds, 0);
    for set in &stats.shards {
        for replica in &set.replicas {
            assert_eq!(replica.sheds, 0);
        }
    }
    assert_eq!(stats.queries, accepted + 1);
    assert_eq!(
        stats.answered_ok + stats.timeouts + stats.failed,
        accepted + 1,
        "every admitted query is accounted for"
    );
    assert_eq!((stats.failed, stats.timeouts), (0, 0));
}

// The three public ways to open an engine are fronts over one build
// path: over the same 9 000 rows (two default-size programming blocks in
// one shard) they must produce the same shard and the same answers.
#[test]
fn open_open_source_and_open_planned_build_the_same_engine() {
    use simpim::core::{BankProfile, CandidateBound, FleetPlanner};
    use simpim::datasets::{DatasetSource, SynthSource, SyntheticConfig};

    let source = || {
        SynthSource::new(SyntheticConfig {
            n: 9_000,
            d: 8,
            clusters: 4,
            cluster_std: 0.08,
            stat_uniformity: 0.5,
            seed: 23,
        })
    };
    let data = source().materialize();
    let cfg = ServeConfig {
        shards: 1,
        replicas: 1,
        executor: ExecutorConfig {
            double_buffer: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let banks = [BankProfile {
        crossbars: cfg.executor.pim.num_crossbars,
        wear: 0,
        healthy: true,
    }];
    let plan = FleetPlanner {
        d: 8,
        operand_bits: cfg.executor.operand_bits,
        buffer_factor: 1,
        base_pim: cfg.executor.pim,
        refine_bytes_per_object: 64,
        candidates: vec![CandidateBound {
            name: "LB_PIM-ED".to_string(),
            transfer_bytes: 16,
            pruning_ratio: 0.9,
            is_pim: true,
        }],
        pim_reference_s: 8,
        spare_rows: cfg.spare_rows,
        merge_bytes_per_shard: 1.0,
    }
    .plan(data.len(), &banks)
    .unwrap();
    assert_eq!(plan.shards.len(), 1, "one bank, one shard");

    let engines = [
        ServeEngine::open(cfg.clone(), &data).unwrap(),
        ServeEngine::open_source(cfg.clone(), &mut source()).unwrap(),
        ServeEngine::open_planned(cfg, &mut source(), &plan, &banks).unwrap(),
    ];
    let queries: Vec<Vec<f64>> = (0..16).map(|i| data.row(i * 500).to_vec()).collect();
    let truth: Vec<_> = queries
        .iter()
        .map(|q| {
            knn_standard(&data, q, 5, Measure::EuclideanSq)
                .unwrap()
                .neighbors
        })
        .collect();
    let shard_stats = |e: &ServeEngine| e.stats().unwrap().shards[0].replicas[0];
    for engine in &engines {
        assert_eq!(engine.knn_batch(&queries, 5).unwrap(), truth);
        assert_eq!(shard_stats(engine), shard_stats(&engines[0]));
    }
    assert_eq!(shard_stats(&engines[0]).live, 9_000);
}
