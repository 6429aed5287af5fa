//! Tail-latency attribution integration tests (DESIGN.md §12): the
//! engine's [`EngineStats`] counters must agree exactly with the
//! `simpim.serve.*` metrics registry after a mixed workload, per-query
//! span trees reconstructed from coalesced batches must be complete and
//! well-parented at every thread count, SLO reports must call attained
//! and blown objectives correctly, and the flight recorder must retain
//! the full trace of every anomalous request.
//!
//! This file is its own test binary on purpose: the metrics registry is
//! process-global, so these tests reset it and must not share a process
//! with other registry users. Within the binary they serialize on
//! [`REGISTRY_GATE`].

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;
use simpim::core::executor::ExecutorConfig;
use simpim::obs::SloSpec;
use simpim::reram::{CrossbarConfig, PimConfig};
use simpim::serve::flight::parse_dump;
use simpim::serve::{EngineStats, Outcome, ServeConfig, ServeEngine};
use simpim::similarity::Dataset;

/// The metrics registry is process-global; every test here opens an
/// engine (which writes `simpim.serve.*` metrics), so they must not
/// interleave with the drift audit that resets and reads the registry.
static REGISTRY_GATE: Mutex<()> = Mutex::new(());

fn dataset(n: usize, d: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 13 + j * 29) % 101) as f64 / 100.0)
                .collect()
        })
        .collect();
    Dataset::from_rows(&rows).unwrap()
}

fn queries(n: usize, d: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|q| {
            (0..d)
                .map(|j| ((q * 31 + j * 7) % 19) as f64 / 19.0)
                .collect()
        })
        .collect()
}

fn cfg(shards: usize, replicas: usize) -> ServeConfig {
    ServeConfig {
        shards,
        replicas,
        max_batch: 4,
        queue_depth: 64,
        spare_rows: 8,
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
            faults: None,
            scrub_interval: 0,
        },
        ..Default::default()
    }
}

/// Drives queries until every shard is back to `healthy` replicas (the
/// repair tick runs between commands, but only traffic detects losses).
fn drive_until_recovered(engine: &ServeEngine, q: &[f64], healthy: usize) -> EngineStats {
    for _ in 0..32 {
        let _ = engine.knn(q, 3).unwrap();
        let stats = engine.stats().unwrap();
        if stats.shards.iter().all(|s| s.healthy == healthy) {
            return stats;
        }
    }
    panic!("lost replicas were not re-replicated");
}

// Satellite: the stats/metrics drift audit. Every counter the engine
// reports in `EngineStats` must have an identically-valued
// `simpim.serve.*` metric after a mixed workload that exercises
// queries, batches, inserts, deletes, a flush, deadline expiry,
// bank loss (failover + repair), and total replica loss (degraded).
#[test]
fn engine_stats_and_metrics_never_drift() {
    let _gate = REGISTRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    simpim::obs::metrics::reset();

    let data = dataset(32, 4);
    let engine = ServeEngine::open(cfg(2, 2), &data).unwrap();
    let qs = queries(8, 4);

    // Clean batched queries.
    engine.knn_batch(&qs, 3).unwrap();
    // Mutations: insert, delete (hit and miss), forced compaction.
    let id = engine.insert(&qs[0]).unwrap();
    assert!(engine.delete(id).unwrap());
    assert!(!engine.delete(id).unwrap());
    assert!(engine.delete(0).unwrap());
    engine.flush().unwrap();
    // A deadline that expires in the queue.
    assert!(engine
        .knn_deadline(&qs[0], 3, Duration::from_nanos(0))
        .is_err());
    // One bank lost: detection, failover, repair.
    engine.kill_bank(0, 0).unwrap();
    drive_until_recovered(&engine, &qs[0], 2);
    // Every replica of shard 0 lost: degraded host-mirror answers, one
    // query per round (the repair tick after each batch re-replicates a
    // bank, so each round degrades exactly the one batch it sends).
    for _ in 0..2 {
        engine.kill_bank(0, 0).unwrap();
        engine.kill_bank(0, 1).unwrap();
        engine.knn(&qs[0], 3).unwrap();
    }
    let stats = drive_until_recovered(&engine, &qs[0], 2);

    // The workload actually exercised every counter it claims to.
    assert!(stats.queries >= 10 && stats.batches >= 2);
    assert!(stats.inserts == 1 && stats.deletes == 3);
    assert!(stats.timeouts >= 1);
    assert!(stats.failovers >= 1 && stats.repairs >= 3);
    assert!(stats.degraded_queries >= 2);
    assert!(stats.answered_ok >= 10 && stats.failed == 0);

    // The audit: every stats counter == its metric, bit for bit.
    let snap = simpim::obs::metrics::snapshot();
    let pairs: [(&str, u64); 12] = [
        ("queries", stats.queries),
        ("batches", stats.batches),
        ("inserts", stats.inserts),
        ("deletes", stats.deletes),
        ("timeouts", stats.timeouts),
        ("overloaded", stats.overloaded),
        ("sheds", stats.sheds),
        ("failovers", stats.failovers),
        ("repairs", stats.repairs),
        ("degraded_queries", stats.degraded_queries),
        ("answered_ok", stats.answered_ok),
        ("failed", stats.failed),
    ];
    for (name, from_stats) in pairs {
        let metric = format!("simpim.serve.{name}");
        let from_metrics = snap.counter(&metric).unwrap_or(0);
        assert_eq!(
            from_metrics, from_stats,
            "stats/metrics drift on {metric}: metric {from_metrics} != stats {from_stats}",
        );
    }
}

// SLO engine end to end: a generous latency objective and the
// availability objective are attained with a full error budget; an
// impossible latency objective is reported blown with burn rate >= 1.
#[test]
fn slo_reports_attained_and_blown_objectives() {
    let _gate = REGISTRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    simpim::obs::metrics::reset();

    let mut c = cfg(2, 1);
    c.slo = SloSpec::empty()
        .latency("total", 0.99, 60_000_000_000) // p99 <= 60 s: unmissable
        .latency("merge", 0.5, 1) // p50 <= 1 ns: unattainable
        .availability("queries", 0.999);
    let engine = ServeEngine::open(c, &dataset(24, 4)).unwrap();
    engine.knn_batch(&queries(8, 4), 3).unwrap();

    let stats = engine.stats().unwrap();
    assert_eq!(stats.slo.len(), 3, "one report per objective");

    let total = &stats.slo[0];
    assert_eq!(total.kind, "latency_quantile");
    assert!(total.attained, "60 s p99 must be attained: {total:?}");
    assert_eq!(total.violations, 0);
    assert!((total.attainment - 1.0).abs() < 1e-12);
    assert!((total.budget_remaining - 1.0).abs() < 1e-12);
    assert!(total.burn_rate < 1.0);

    let merge = &stats.slo[1];
    assert!(!merge.attained, "1 ns p50 must be blown: {merge:?}");
    assert!(merge.violations > 0);
    assert!(merge.burn_rate >= 1.0);
    assert!(merge.budget_remaining < 1.0);

    let avail = &stats.slo[2];
    assert_eq!(avail.kind, "availability");
    assert!(avail.attained, "no failures or timeouts: {avail:?}");
    assert!((avail.observed - 1.0).abs() < 1e-12);
}

// The flight recorder keeps every anomalous request with its complete
// span tree and the annotations that attribute it to the injected bank
// kill — independent of whether `trace::enable` was ever called.
#[test]
fn flight_recorder_retains_failover_anomalies_with_full_trees() {
    let _gate = REGISTRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    simpim::obs::metrics::reset();

    let data = dataset(32, 4);
    let engine = ServeEngine::open(cfg(2, 2), &data).unwrap();
    let qs = queries(6, 4);
    engine.knn_batch(&qs, 3).unwrap();
    engine.kill_bank(0, 0).unwrap();
    // The next batch detects the loss mid-pass and fails over.
    engine.knn_batch(&qs, 3).unwrap();

    let dump = engine.flight_dump().unwrap();
    let traces = parse_dump(&dump).unwrap();
    let anomalies: Vec<_> = traces.iter().filter(|t| t.outcome.is_anomaly()).collect();
    assert!(!anomalies.is_empty(), "the bank kill must leave anomalies");
    let failover = anomalies
        .iter()
        .find(|t| matches!(t.outcome, Outcome::Failover | Outcome::Degraded))
        .expect("at least one failover/degraded trace");
    failover
        .validate_tree()
        .expect("anomaly tree is well-formed");
    assert!(
        failover
            .annotations
            .iter()
            .any(|a| a.contains("failed over") || a.contains("host mirror")),
        "annotations must attribute the anomaly to the bank loss: {:?}",
        failover.annotations,
    );
    let stats = engine.stats().unwrap();
    assert!(stats.flight.anomalies_retained >= 1);
    assert!(stats.flight.recorded as usize >= traces.len());
}

// Stage histograms carry p99 exemplars whose trace ids resolve to
// retained flight traces — the pivot a latency investigation turns on.
#[test]
fn stage_exemplar_trace_ids_resolve_to_flight_traces() {
    let _gate = REGISTRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    simpim::obs::metrics::reset();

    let engine = ServeEngine::open(cfg(2, 1), &dataset(24, 4)).unwrap();
    engine.knn_batch(&queries(8, 4), 3).unwrap();

    let stats = engine.stats().unwrap();
    let dump = engine.flight_dump().unwrap();
    let retained: HashSet<u64> = parse_dump(&dump)
        .unwrap()
        .iter()
        .map(|t| t.trace_id)
        .collect();

    let mut seen = Vec::new();
    for stage in &stats.stage_latency {
        if stage.count == 0 {
            continue; // no mutations ran; that stage is legitimately empty
        }
        seen.push(stage.stage.clone());
        assert!(
            stage.exemplar_trace != 0,
            "stage {} lost its exemplar",
            stage.stage
        );
        assert!(
            retained.contains(&stage.exemplar_trace),
            "stage {} exemplar trace {} is not a retained flight trace",
            stage.stage,
            stage.exemplar_trace,
        );
        assert!(stage.p50_ns <= stage.p95_ns && stage.p95_ns <= stage.p99_ns);
    }
    for want in ["queue", "pass", "merge", "total"] {
        assert!(seen.iter().any(|s| s == want), "stage {want} missing");
    }
}

// A compaction costs the rows that changed, not the shard: on a 200-row
// shard, three deletes and two inserts make a flush write at most five
// rows, a flush with nothing to fold writes none, and the counter, the
// histogram, `serve.reprograms` and each flush's `apply` span agree.
#[test]
fn a_flush_writes_only_the_rows_that_changed() {
    let _gate = REGISTRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
    simpim::obs::metrics::reset();

    let engine = ServeEngine::open(cfg(1, 1), &dataset(200, 4)).unwrap();
    for id in [3, 50, 120] {
        assert!(engine.delete(id).unwrap());
    }
    for q in &queries(2, 4) {
        engine.insert(q).unwrap();
    }
    let snap = || simpim::obs::metrics::snapshot();
    let compacted = |s: &simpim::obs::MetricsSnapshot| {
        let ns = s
            .histogram("simpim.serve.compact_ns")
            .map_or(0, |h| h.count);
        let rows = s.counter("simpim.serve.compact_rows").unwrap_or(0);
        (s.counter("simpim.serve.reprograms").unwrap_or(0), ns, rows)
    };
    assert_eq!(
        compacted(&snap()),
        (0, 0, 0),
        "nothing compacts before the flush"
    );
    engine.flush().unwrap();
    let (reprograms, samples, rows) = compacted(&snap());
    assert_eq!((reprograms, samples), (1, 1));
    assert!(
        (1..=5).contains(&rows),
        "a flush of 3 + 2 mutations wrote {rows} rows"
    );
    engine.flush().unwrap();
    assert_eq!(compacted(&snap()), (1, 1, rows), "nothing left to fold");

    let dump = engine.flight_dump().unwrap();
    let written: Vec<f64> = parse_dump(&dump)
        .unwrap()
        .iter()
        .filter(|t| t.kind == "flush")
        .map(|t| {
            let apply = t
                .spans
                .iter()
                .find(|s| s.name == "serve.flush.apply")
                .unwrap();
            let attr = apply.attrs.iter().find(|(k, _)| k == "rows_written");
            attr.expect("the apply span carries rows_written").1
        })
        .collect();
    assert_eq!(written, vec![rows as f64, 0.0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Satellite: per-query span trees reconstructed from coalesced
    // batches are complete (every stage present), well-parented (every
    // child hangs off the request root, intervals nest), and span ids
    // never leak between requests — at 1, 2, and 8 worker threads.
    #[test]
    fn coalesced_span_trees_are_complete_and_well_parented(
        threads in prop::sample::select(vec![1usize, 2, 8]),
        nq in 3usize..=9,
        shards in 1usize..=3,
    ) {
        let _gate = REGISTRY_GATE.lock().unwrap_or_else(|e| e.into_inner());
        simpim::obs::metrics::reset();
        simpim::par::with_threads(threads, || {
            let engine = ServeEngine::open(cfg(shards, 1), &dataset(24, 4)).unwrap();
            let qs = queries(nq, 4);
            engine.knn_batch(&qs, 3).unwrap();

            let dump = engine.flight_dump().unwrap();
            let traces = parse_dump(&dump).unwrap();
            let query_traces: Vec<_> =
                traces.iter().filter(|t| t.kind == "query").collect();
            // Default capacity (32) retains every request here.
            prop_assert_eq!(query_traces.len(), nq, "one trace per query");

            let mut trace_ids = HashSet::new();
            let mut span_ids = HashSet::new();
            for t in &traces {
                if let Err(e) = t.validate_tree() {
                    panic!("trace {} invalid: {e}", t.trace_id);
                }
                prop_assert!(trace_ids.insert(t.trace_id), "duplicate trace id");
                for s in &t.spans {
                    prop_assert!(
                        span_ids.insert(s.span_id),
                        "span id {} leaked across traces", s.span_id
                    );
                }
            }
            for t in &query_traces {
                prop_assert_eq!(t.outcome, Outcome::Ok);
                let root = t.root().expect("non-empty tree");
                prop_assert_eq!(root.name.as_str(), "serve.query");
                prop_assert!(root.parent.is_none());
                for want in ["serve.query.queue", "serve.query.pass", "serve.query.merge"] {
                    let span = t
                        .spans
                        .iter()
                        .find(|s| s.name == want)
                        .unwrap_or_else(|| panic!("trace {} missing stage {want}", t.trace_id));
                    prop_assert_eq!(span.parent, Some(root.span_id));
                }
            }
        });
    }
}
