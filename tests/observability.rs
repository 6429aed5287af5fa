//! Observability invariants across the stack (DESIGN.md §8): histogram
//! bucketing, span nesting, counter-delta correctness, artifact
//! round-trips, and — most importantly — that instrumentation never
//! changes a mining result.

use std::sync::Mutex;

use proptest::prelude::*;
use simpim::core::executor::{ExecutorConfig, PimExecutor};
use simpim::datasets::timeseries::{generate_series, SeriesConfig};
use simpim::datasets::{generate, SyntheticConfig};
use simpim::mining::kmeans::pim::PimAssist;
use simpim::mining::kmeans::{drake, elkan, lloyd, yinyang, KmeansConfig, KmeansResult};
use simpim::mining::knn::algorithms::fnn_cascade;
use simpim::mining::knn::cascade::knn_cascade;
use simpim::mining::knn::standard::knn_standard;
use simpim::mining::motif::{discord_pim, motif_pim};
use simpim::mining::outlier::outliers_pim;
use simpim::mining::MiningError;
use simpim::obs::{Histogram, Json, RunArtifact, StageRecord, ToJson};
use simpim::similarity::{Dataset, Measure, NormalizedDataset};

/// Tracing enable/disable and the metrics registry are process-global:
/// tests that toggle the one, or assert on deltas of the other while
/// running `knn_cascade` (which bumps `simpim.bounds.*`), must not
/// interleave.
static OBS_GATE: Mutex<()> = Mutex::new(());

#[test]
fn histogram_bucket_boundaries_are_log_linear() {
    // Values below the linear cutoff land in their own exact buckets.
    for v in 0..8u64 {
        assert_eq!(Histogram::bucket_lower_bound(Histogram::bucket_index(v)), v);
    }
    // Lower bounds are monotonically non-decreasing and every value sits
    // inside [lower_bound(i), lower_bound(i + 1)).
    let mut prev = 0;
    for i in 0..200 {
        let lb = Histogram::bucket_lower_bound(i);
        assert!(lb >= prev, "bucket {i} lower bound went backwards");
        prev = lb;
    }
    for v in [8u64, 9, 100, 1_000, 65_537, u64::MAX / 2, u64::MAX] {
        let i = Histogram::bucket_index(v);
        assert!(Histogram::bucket_lower_bound(i) <= v);
        if Histogram::bucket_lower_bound(i + 1) != u64::MAX {
            assert!(v < Histogram::bucket_lower_bound(i + 1));
        }
    }
    // Relative error of the log-linear approximation stays within one
    // sub-bucket (25% for SUB_BITS = 2).
    for v in [10u64, 123, 9_999, 1 << 40] {
        let lb = Histogram::bucket_lower_bound(Histogram::bucket_index(v));
        assert!((v - lb) as f64 / v as f64 <= 0.25 + 1e-12);
    }
}

#[test]
fn histogram_merge_is_count_preserving() {
    let mut a = Histogram::new();
    let mut b = Histogram::new();
    for v in [1u64, 5, 9, 200, 7_000] {
        a.record(v);
    }
    for v in [0u64, 3, 1_000_000] {
        b.record(v);
    }
    let (count_a, count_b) = (a.count, b.count);
    let sum = a.sum + b.sum;
    a.merge(&b);
    assert_eq!(a.count, count_a + count_b);
    assert_eq!(a.sum, sum);
    // Merged per-bucket counts must equal the union of the inputs.
    let total: u64 = a.nonzero_buckets().iter().map(|&(_, c)| c).sum();
    assert_eq!(total, a.count);
}

#[test]
fn spans_nest_and_order_under_real_mining() {
    let _gate = OBS_GATE.lock().unwrap();
    let ds = generate(&SyntheticConfig {
        n: 200,
        d: 32,
        clusters: 4,
        cluster_std: 0.05,
        stat_uniformity: 0.1,
        seed: 42,
    });
    let cascade = fnn_cascade(&ds).expect("valid split");
    let q = ds.row(0).to_vec();

    simpim::obs::trace::enable(4096);
    simpim::obs::trace::clear();
    let _ = knn_cascade(&ds, &cascade, &q, 5, Measure::EuclideanSq).expect("float measure");
    let spans = simpim::obs::trace::drain();
    simpim::obs::trace::disable();

    let root = spans
        .iter()
        .find(|s| s.name == "mining.knn.cascade")
        .expect("query span recorded");
    assert_eq!(root.depth, 0);
    assert!(root.end_ns >= root.start_ns);
    let filter = spans
        .iter()
        .find(|s| s.name == "mining.knn.filter")
        .expect("filter span recorded");
    assert_eq!(filter.parent, Some(root.id), "filter nests under query");
    assert_eq!(filter.depth, 1);
    let refine = spans
        .iter()
        .find(|s| s.name == "mining.knn.refine")
        .expect("refine span recorded");
    assert_eq!(refine.parent, Some(root.id));
    assert!(
        filter.start_ns <= refine.start_ns,
        "filter opens before refine"
    );
    // Ids are journal-ordered.
    for w in spans.windows(2) {
        assert!(w[0].id < w[1].id);
    }
    // The query span carries its open-time attributes.
    assert!(root.attrs.iter().any(|(k, v)| k == "k" && *v == 5.0));
}

#[test]
fn counter_deltas_match_work_done() {
    let _gate = OBS_GATE.lock().unwrap();
    let ds = generate(&SyntheticConfig {
        n: 150,
        d: 16,
        clusters: 3,
        cluster_std: 0.05,
        stat_uniformity: 0.1,
        seed: 9,
    });
    let cascade = fnn_cascade(&ds).expect("valid split");
    let q = ds.row(1).to_vec();

    let name = |stage: &str, suffix: &str| format!("simpim.bounds.{stage}.{suffix}");
    let stage0 = cascade.names()[0].clone();
    let before = simpim::obs::metrics::snapshot();
    let seen0 = before.counter(&name(&stage0, "seen")).unwrap_or(0);
    let queries = 3usize;
    for _ in 0..queries {
        let _ = knn_cascade(&ds, &cascade, &q, 5, Measure::EuclideanSq).expect("float measure");
    }
    let after = simpim::obs::metrics::snapshot();
    // The first cascade stage sees every object, once per query.
    assert_eq!(
        after.counter(&name(&stage0, "seen")).unwrap_or(0) - seen0,
        (ds.len() * queries) as u64,
        "first-stage seen counter must advance by N per query"
    );
    // Pruned never exceeds seen (per-delta).
    let pruned0 = after.counter(&name(&stage0, "pruned")).unwrap_or(0)
        - before.counter(&name(&stage0, "pruned")).unwrap_or(0);
    assert!(pruned0 <= (ds.len() * queries) as u64);
}

#[test]
fn kmeans_counts_and_spans_every_assign_step() {
    // The seeding assign step is an iteration like any other: the counter
    // and the span count both equal `KmeansResult::iterations`.
    type Algo = fn(
        &Dataset,
        &KmeansConfig,
        Option<&mut PimAssist<'_>>,
    ) -> Result<KmeansResult, MiningError>;
    let _gate = OBS_GATE.lock().unwrap();
    let ds = generate(&SyntheticConfig {
        n: 150,
        d: 16,
        clusters: 4,
        cluster_std: 0.05,
        stat_uniformity: 0.1,
        seed: 11,
    });
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    let cfg = KmeansConfig {
        k: 6,
        max_iters: 30,
        seed: 2,
    };
    let algos: [(&str, Algo); 4] = [
        ("lloyd", lloyd::kmeans_lloyd),
        ("elkan", elkan::kmeans_elkan),
        ("drake", drake::kmeans_drake),
        ("yinyang", yinyang::kmeans_yinyang),
    ];
    for (name, algo) in algos {
        for pim in [false, true] {
            let counter = format!("simpim.mining.kmeans.{name}.iterations");
            let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds).unwrap();
            let mut assist = PimAssist::new(&mut exec);
            let before = simpim::obs::metrics::snapshot()
                .counter(&counter)
                .unwrap_or(0);
            simpim::obs::trace::enable(4096);
            simpim::obs::trace::clear();
            let r = algo(&ds, &cfg, pim.then_some(&mut assist)).unwrap();
            let spans = simpim::obs::trace::drain();
            simpim::obs::trace::disable();
            let after = simpim::obs::metrics::snapshot()
                .counter(&counter)
                .unwrap_or(0);
            let span = format!("mining.kmeans.{name}.iteration");
            let steps = spans.iter().filter(|s| s.name == span).count();
            assert!(r.iterations > 1, "{name}: a run of more than the seed");
            assert_eq!(after - before, r.iterations as u64, "{name} pim={pim}");
            assert_eq!(steps, r.iterations, "{name} pim={pim}");
        }
    }
}

#[test]
fn offline_tasks_fetch_their_bounds_in_batched_passes() {
    // Outliers, motif and discord fetch the bounds of N anchors in
    // ⌈N / 64⌉ coalesced passes. The device still serves the anchors one
    // by one: one executor batch and one single query's dispatches each.
    let _gate = OBS_GATE.lock().unwrap();
    let ds = generate(&SyntheticConfig {
        n: 150,
        d: 16,
        clusters: 3,
        cluster_std: 0.05,
        stat_uniformity: 0.1,
        seed: 21,
    });
    let nds = NormalizedDataset::assert_normalized(ds.clone());
    let cfg = ExecutorConfig::default();
    let mut single = PimExecutor::prepare_euclidean(cfg, &nds).unwrap();
    single.lb_ed_batch(ds.row(0)).unwrap();
    let per_anchor = single.bank().dispatches();
    let w = 16;
    let series = generate_series(&SeriesConfig {
        len: 300,
        pattern_len: w,
        noise: 0.02,
        seed: 5,
    })
    .values;
    let windows = series.len() - w + 1;

    // (bound passes opened, executor batches counted) while `run` runs.
    let measure = |run: &mut dyn FnMut()| {
        let batches = || {
            simpim::obs::metrics::snapshot()
                .counter("simpim.core.executor.batches")
                .unwrap_or(0)
        };
        let before = batches();
        simpim::obs::trace::enable(1 << 16);
        simpim::obs::trace::clear();
        run();
        let spans = simpim::obs::trace::drain();
        simpim::obs::trace::disable();
        let passes = spans
            .iter()
            .filter(|s| s.name == "core.executor.lb_ed_batch_multi")
            .count();
        (passes, batches() - before)
    };
    let n = ds.len();
    let mut exec = PimExecutor::prepare_euclidean(cfg, &nds).unwrap();
    let got = measure(&mut || {
        outliers_pim(&mut exec, &ds, 4, 5).unwrap();
    });
    assert_eq!(got, (n.div_ceil(64), n as u64), "outliers");
    assert_eq!(exec.bank().dispatches(), n as u64 * per_anchor, "outliers");
    let got = measure(&mut || {
        motif_pim(&series, w, cfg).unwrap();
    });
    assert_eq!(got, (windows.div_ceil(64), windows as u64), "motif");
    let got = measure(&mut || {
        discord_pim(&series, w, cfg).unwrap();
    });
    assert_eq!(got, (windows.div_ceil(64), windows as u64), "discord");
}

/// The coarse-first read on the bank, on a row built so that its
/// coarse bracket straddles a two-bit gather cycle (see
/// `the_coarse_read_resolves_a_row_that_straddles_a_gather_cycle` in
/// `simpim-reram`), against the full pass on a twin bank: the same
/// `PimTiming` per pass, energy by bits, dispatch count and every
/// `simpim.reram.*` metric, while the coarse values bound the dots.
#[test]
fn a_coarse_read_charges_the_bank_as_the_full_pass() {
    use simpim::reram::{AccWidth, CrossbarConfig, PimConfig, ReRamBank};
    let _gate = OBS_GATE.lock().unwrap();
    let cfg = PimConfig {
        crossbar: CrossbarConfig {
            size: 16,
            ..Default::default()
        },
        num_crossbars: 64,
        ..Default::default()
    };
    let straddling = [vec![8191u32; 16], vec![0]].concat();
    let widening = [vec![0u32; 16], vec![(1 << 20) - 1]].concat();
    let query = [vec![12_287u32; 16], vec![0]].concat();
    let run = |coarse: bool| {
        let mut bank = ReRamBank::new(cfg).unwrap();
        let rep = bank
            .program_region(&[straddling.clone(), widening.clone()].concat(), 2, 17, 32)
            .unwrap();
        let passes = [(rep.region, &query[..]), (rep.region, &[0; 17][..])];
        simpim::obs::metrics::reset();
        let (out, lost) = if coarse {
            bank.dot_batch_coarse(&passes, AccWidth::U64)
        } else {
            bank.dot_batch_multi(&passes, AccWidth::U64)
        };
        lost.unwrap();
        let mut reram = simpim::obs::metrics::snapshot();
        reram
            .metrics
            .retain(|name, _| name.starts_with("simpim.reram."));
        let energy = bank.pim().energy();
        let energy = [energy.write_j, energy.compute_j, energy.bus_j].map(f64::to_bits);
        (out, reram, energy, bank.dispatches())
    };
    let (fine, fine_metrics, fine_energy, fine_dispatches) = run(false);
    let (coarse, metrics, energy, dispatches) = run(true);
    assert!(!metrics.metrics.is_empty());
    assert_eq!(
        (metrics, energy, dispatches),
        (fine_metrics, fine_energy, fine_dispatches)
    );
    for (c, f) in coarse.iter().zip(&fine) {
        assert!(c.coarse && !f.coarse);
        assert_eq!((c.timing, c.result_bytes), (f.timing, f.result_bytes));
        assert!(c.values.iter().zip(&f.values).all(|(c, f)| c >= f));
    }
}

#[test]
fn artifact_round_trips_through_json() {
    let mut a = RunArtifact::new("roundtrip");
    a.git = Some("abc1234-dirty".into());
    a.dataset = Json::obj([("name", Json::Str("MSD".into())), ("n", Json::Num(992.0))]);
    a.config = Json::obj([("scale", Json::Num(0.01))]);
    a.stages.push(StageRecord {
        name: "knn/ED".into(),
        time_ns: 123_456,
        calls: 5,
        ops: 42,
        bytes: 1 << 20,
    });
    a.totals = Json::obj([("stage_time_ns", Json::Num(123_456.0))]);
    let mut h = Histogram::new();
    h.record(7);
    h.record(1_000);
    a.metrics = Json::obj([("simpim.test.h", h.to_json())]);
    a.push_extra("note", Json::Str("integration".into()));

    let text = a.to_json_text();
    let back = RunArtifact::from_json_text(&text).expect("parse back");
    assert_eq!(back, a);
    assert!(back.validate().is_empty());
    // A doctored schema version is flagged.
    let mut wrong = back.clone();
    wrong.schema_version += 1;
    assert!(!wrong.validate().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Instrumentation must be observation-only: the exact same neighbors
    // come back with tracing enabled and disabled.
    #[test]
    fn tracing_never_changes_mining_results(seed in 0u64..1_000, k in 1usize..8) {
        let _gate = OBS_GATE.lock().unwrap();
        let ds = generate(&SyntheticConfig {
            n: 120,
            d: 24,
            clusters: 4,
            cluster_std: 0.05,
            stat_uniformity: 0.1,
            seed,
        });
        let cascade = fnn_cascade(&ds).expect("valid split");
        let q = ds.row(seed as usize % ds.len()).to_vec();

        simpim::obs::trace::disable();
        let off_cascade = knn_cascade(&ds, &cascade, &q, k, Measure::EuclideanSq)
            .expect("float measure");
        let off_standard = knn_standard(&ds, &q, k, Measure::EuclideanSq)
            .expect("float measure");

        simpim::obs::trace::enable(1 << 14);
        let on_cascade = knn_cascade(&ds, &cascade, &q, k, Measure::EuclideanSq)
            .expect("float measure");
        let on_standard = knn_standard(&ds, &q, k, Measure::EuclideanSq)
            .expect("float measure");
        simpim::obs::trace::disable();
        simpim::obs::trace::clear();

        prop_assert_eq!(off_cascade.neighbors, on_cascade.neighbors);
        prop_assert_eq!(&off_standard.neighbors, &on_standard.neighbors);
        // And the cascade agrees with the exhaustive scan on indices.
        prop_assert_eq!(off_standard.indices(), on_cascade.indices());
    }
}
