//! Fig. 13 at paper scale: a fixed-shape throughput trajectory over the
//! streaming materialization path.
//!
//! The paper's Fig. 13 shows SimPIM's throughput holding up as the dataset
//! grows because the crossbar budget (and therefore Theorem 4's `s`)
//! scales with it. This harness reproduces that *shape* at laptop scale:
//! every trajectory point multiplies both the MSD object count and the
//! per-shard crossbar budget by the same factor, so the capacity pressure
//! — and the chosen `s`, and the pruning behaviour — stay fixed while `n`
//! grows 10x past the default harness scale.
//!
//! Three properties are asserted, not just reported:
//!
//! 1. **Bounded peak RSS.** The largest point opens its serving engine
//!    with [`ServeEngine::open_source`], which streams rows block-by-block
//!    ([`simpim_datasets::DEFAULT_BLOCK_ROWS`] at a time) into one host
//!    mirror per shard and programs banks incrementally. The `VmHWM`
//!    delta across that open must stay under a block-bounded budget (~2x
//!    the resident mirror, far below the materialize-then-clone peak of
//!    the pre-streaming path).
//! 2. **Bit-identical answers.** The streamed engine's kNN answers equal
//!    the in-memory [`ServeEngine::open`] engine's, id for id, bit for
//!    bit.
//! 3. **Fleet placement beats naive uniform sharding.** A heterogeneous
//!    bank fleet (mixed crossbar budgets, wear, one dead bank) is planned
//!    with [`FleetPlanner::plan`] using pruning ratios *measured* from a
//!    sample workload's metrics; the plan's modeled throughput must be at
//!    least the best uniform split's — `extra.fig13.modeled_qps` is the
//!    machine-independent metric `simpim report --assert-no-regress`
//!    gates on in CI.

use std::time::Instant;

use simpim_bench::BenchRun;
use simpim_bounds::BoundCascade;
use simpim_core::executor::{ExecutorConfig, PimExecutor};
use simpim_core::{BankProfile, CandidateBound, FleetPlanner, PreparedFunction};
use simpim_datasets::spec::env_scale;
use simpim_datasets::{DatasetSource, PaperDataset, SynthSource, SyntheticConfig};
use simpim_mining::knn::pim::knn_pim_ed;
use simpim_obs::Json;
use simpim_serve::{Neighbor, ServeConfig, ServeEngine};
use simpim_similarity::{Dataset, NormalizedDataset};

/// Trajectory points, as multiples of `SIMPIM_SCALE`. The last (largest)
/// point runs first so its peak-RSS delta is measured from a clean
/// high-water mark; `>= 10` is the paper-scale acceptance point.
const MULTS: [f64; 4] = [10.0, 5.0, 2.0, 1.0];

/// Shards the serving engine splits the dataset across.
const SHARDS: usize = 4;

/// kNN queries timed per trajectory point.
const QUERIES: usize = 8;

/// Neighbours per query.
const K: usize = 10;

/// Parses the process peak resident set (`VmHWM`) in bytes.
fn vmhwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Per-shard executor configuration at one trajectory point: the global
/// crossbar budget scales with the point's effective scale and is split
/// evenly across shards, preserving the seed harness's capacity pressure
/// (and thus Theorem 4's `s`) at every `n`.
fn shard_executor_config(eff_scale: f64) -> ExecutorConfig {
    let mut cfg = ExecutorConfig::default();
    let fleet = ((cfg.pim.num_crossbars as f64 * eff_scale) as usize).max(256 * SHARDS);
    cfg.pim.num_crossbars = fleet / SHARDS;
    cfg
}

fn serve_config(eff_scale: f64) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        executor: shard_executor_config(eff_scale),
        ..ServeConfig::default()
    }
}

/// Streams the first `rows` objects of a fresh source into a dataset.
fn materialize_prefix(cfg: SyntheticConfig, rows: usize) -> Dataset {
    let mut src = SynthSource::new(cfg);
    let mut data = Dataset::with_dim(cfg.d).expect("non-zero dim");
    let mut buf = Vec::new();
    let mut remaining = rows;
    while remaining > 0 {
        let got = src.next_block(remaining.min(8192), &mut buf);
        assert!(got > 0, "source drained before the prefix was full");
        for row in buf.chunks_exact(cfg.d) {
            data.push(row).expect("row dims");
        }
        remaining -= got;
    }
    data
}

/// Runs `queries` through `engine` one at a time, returning the answers
/// and the wall-clock queries/s.
fn timed_knn(engine: &ServeEngine, queries: &[Vec<f64>]) -> (Vec<Vec<Neighbor>>, f64) {
    let start = Instant::now();
    let answers: Vec<Vec<Neighbor>> = queries
        .iter()
        .map(|q| engine.knn(q, K).expect("query"))
        .collect();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (answers, queries.len() as f64 / secs)
}

/// Measures pruning ratios for the planner the way Section V-D says to:
/// run the real kNN kernel over a one-shard-sized sample and read the
/// `simpim.bounds.*` counters it flushed. Returns the measured candidates
/// and the `s` they were measured at.
fn measured_candidates(
    cfg: SyntheticConfig,
    sample_rows: usize,
    exec_cfg: ExecutorConfig,
    queries: &[Vec<f64>],
) -> (Vec<CandidateBound>, usize) {
    let sample = materialize_prefix(cfg, sample_rows);
    let nds = NormalizedDataset::assert_normalized_ref(&sample);
    let mut exec = PimExecutor::prepare_euclidean(exec_cfg, nds).expect("sample fits");
    for q in queries {
        knn_pim_ed(&mut exec, &sample, &BoundCascade::empty(), q, K).expect("sample query");
    }
    let ref_s = match exec.prepared() {
        PreparedFunction::Ed { d, .. } => *d,
        PreparedFunction::Fnn { d_prime, .. } => *d_prime,
        PreparedFunction::Sm { d_prime, .. } => *d_prime,
        _ => sample.dim(),
    };
    let candidates = CandidateBound::from_metrics(&simpim_obs::metrics::snapshot());
    assert!(
        candidates.iter().any(|c| c.is_pim),
        "sample run flushed no PIM bound metrics"
    );
    (candidates, ref_s)
}

/// A heterogeneous fleet with the same total crossbar budget as the
/// homogeneous serving config: two big banks, three mid banks, two small
/// banks (listed first so a naive uniform split lands hard on them), and
/// one dead bank. Wear varies so placement tie-breaks are exercised.
fn heterogeneous_fleet(eff_scale: f64) -> Vec<BankProfile> {
    let total = shard_executor_config(eff_scale).pim.num_crossbars * SHARDS;
    let bank = |crossbars: usize, wear: u64, healthy: bool| BankProfile {
        crossbars,
        wear,
        healthy,
    };
    vec![
        bank(total / 16, 12, true),
        bank(total / 16, 0, true),
        bank(total / 8, 3, true),
        bank(total / 8, 9, true),
        bank(total / 8, 0, false), // quarantined mid bank
        bank(total / 4, 5, true),
        bank(total / 4, 1, true),
    ]
}

fn main() {
    let mut run = BenchRun::start("fig13");
    let spec = PaperDataset::Msd.spec();
    run.set_dataset(&spec);
    let base_scale = env_scale();
    run.config_entry("shards", Json::Num(SHARDS as f64));
    run.config_entry("k", Json::Num(K as f64));
    run.config_entry("trajectory_queries", Json::Num(QUERIES as f64));
    run.config_entry(
        "block_rows",
        Json::Num(simpim_datasets::DEFAULT_BLOCK_ROWS as f64),
    );

    let mut trajectory: Vec<Json> = Vec::new();
    let mut largest: Option<(f64, usize)> = None; // (eff_scale, n)
    let mut fig13 = Vec::new();

    for (i, mult) in MULTS.iter().enumerate() {
        let eff_scale = (base_scale * mult).min(1.0);
        let n = spec.scaled_n(eff_scale, simpim_bench::MIN_N);
        let synth = SyntheticConfig::from_spec(&spec, n);
        let cfg = serve_config(eff_scale);

        // Queries are the stream's first rows — identical at every point.
        let queries: Vec<Vec<f64>> = {
            let prefix = materialize_prefix(synth, QUERIES);
            (0..QUERIES).map(|r| prefix.row(r).to_vec()).collect()
        };

        let rss_before = vmhwm_bytes();
        let open_start = Instant::now();
        let mut source = SynthSource::new(synth);
        let engine = ServeEngine::open_source(cfg.clone(), &mut source).expect("streamed open");
        let open_secs = open_start.elapsed().as_secs_f64();
        let rss_after = vmhwm_bytes();
        let query_start = Instant::now();
        let (streamed_answers, streamed_qps) = timed_knn(&engine, &queries);

        let mirror_bytes = (n * spec.d * 8) as u64;
        run.note_stage(
            &format!("streamed_open@{n}"),
            (open_secs * 1e9) as u64,
            1,
            n as u64,
            mirror_bytes,
        );
        run.note_stage(
            &format!("knn@{n}"),
            query_start.elapsed().as_nanos() as u64,
            QUERIES as u64,
            (QUERIES * n) as u64,
            0,
        );
        let mut point = vec![
            ("scale", Json::Num(eff_scale)),
            ("n", Json::Num(n as f64)),
            ("d", Json::Num(spec.d as f64)),
            ("open_secs", Json::Num(open_secs)),
            ("streamed_qps_wall", Json::Num(streamed_qps)),
            ("mirror_bytes", Json::Num(mirror_bytes as f64)),
        ];

        if i == 0 {
            // Largest point, measured from a clean high-water mark: the
            // streamed open may keep the shard mirrors plus the programmed
            // regions resident, but never a second full copy of the
            // dataset. Budget: 2x mirror + one stream block + fixed slack.
            let block_bytes = (simpim_datasets::DEFAULT_BLOCK_ROWS * spec.d * 8) as u64;
            let rss_budget = 2 * mirror_bytes + 4 * block_bytes + 256 * 1024 * 1024;
            let rss_delta = rss_after.saturating_sub(rss_before);
            assert!(
                rss_delta <= rss_budget,
                "streamed open peak RSS {} MiB exceeds block-bounded budget {} MiB",
                rss_delta >> 20,
                rss_budget >> 20,
            );
            point.push(("peak_rss_streamed_bytes", Json::Num(rss_delta as f64)));
            point.push(("rss_budget_bytes", Json::Num(rss_budget as f64)));
            fig13.push(("peak_rss_streamed_bytes", Json::Num(rss_delta as f64)));
            fig13.push(("rss_budget_bytes", Json::Num(rss_budget as f64)));
            fig13.push(("n", Json::Num(n as f64)));
            fig13.push(("d", Json::Num(spec.d as f64)));
            fig13.push(("scale", Json::Num(eff_scale)));
            fig13.push(("streamed_qps_wall", Json::Num(streamed_qps)));
            largest = Some((eff_scale, n));

            // Bit-identity against the one-shot in-memory open.
            drop(engine);
            let data = SynthSource::new(synth).materialize();
            let in_memory = ServeEngine::open(cfg, &data).expect("in-memory open");
            let (memory_answers, memory_qps) = timed_knn(&in_memory, &queries);
            assert_eq!(
                streamed_answers, memory_answers,
                "streamed and in-memory engines disagree"
            );
            point.push(("in_memory_qps_wall", Json::Num(memory_qps)));
            fig13.push(("in_memory_qps_wall", Json::Num(memory_qps)));
            println!(
                "paper-scale point: n={n} d={} streamed {:.1} q/s (in-memory {:.1} q/s), peak RSS {} MiB",
                spec.d,
                streamed_qps,
                memory_qps,
                rss_delta >> 20,
            );
        }

        trajectory.push(Json::obj(point));
        println!(
            "trajectory: scale={eff_scale:.3} n={n} open {:.2}s, {:.1} q/s streamed",
            open_secs, streamed_qps
        );
    }
    trajectory.reverse(); // ascending n in the artifact
    run.push_extra("trajectory", Json::Arr(trajectory));

    // Fleet placement on measured pruning ratios (largest point's shape).
    let (eff_scale, n) = largest.expect("trajectory ran");
    let synth = SyntheticConfig::from_spec(&spec, n);
    let exec_cfg = shard_executor_config(eff_scale);
    let queries: Vec<Vec<f64>> = {
        let prefix = materialize_prefix(synth, QUERIES);
        (0..QUERIES).map(|r| prefix.row(r).to_vec()).collect()
    };
    let (candidates, ref_s) = measured_candidates(
        synth,
        n.div_ceil(SHARDS),
        exec_cfg,
        &queries[..QUERIES.min(4)],
    );
    let planner = FleetPlanner {
        d: spec.d,
        operand_bits: exec_cfg.operand_bits,
        buffer_factor: if exec_cfg.double_buffer { 2 } else { 1 },
        base_pim: exec_cfg.pim,
        refine_bytes_per_object: (spec.d * 8) as u64,
        candidates,
        pim_reference_s: ref_s,
        spare_rows: ServeConfig::default().spare_rows,
        merge_bytes_per_shard: (K * 16) as f64,
    };
    let banks = heterogeneous_fleet(eff_scale);
    let plan = planner.plan(n, &banks).expect("fleet fits");
    let uniform_qps = (1..=banks.iter().filter(|b| b.healthy).count())
        .filter_map(|m| planner.uniform(n, &banks, m))
        .map(|p| p.modeled_qps)
        .fold(0.0f64, f64::max);
    assert!(
        plan.modeled_qps >= uniform_qps,
        "planned fleet ({:.1} q/s modeled) lost to uniform sharding ({uniform_qps:.1} q/s)",
        plan.modeled_qps
    );
    println!(
        "fleet plan: {} shards over {} banks, modeled {:.1} q/s vs best uniform {:.1} q/s",
        plan.shards.len(),
        banks.len(),
        plan.modeled_qps,
        uniform_qps
    );

    // The planned engine answers exactly like the uniform streamed one.
    let mut source = SynthSource::new(synth);
    let planned = ServeEngine::open_planned(
        ServeConfig {
            executor: exec_cfg,
            ..ServeConfig::default()
        },
        &mut source,
        &plan,
        &banks,
    )
    .expect("planned open");
    let (planned_answers, planned_qps) = timed_knn(&planned, &queries);
    drop(planned);
    let data = SynthSource::new(synth).materialize();
    let reference = ServeEngine::open(serve_config(eff_scale), &data).expect("reference open");
    let (reference_answers, _) = timed_knn(&reference, &queries);
    assert_eq!(
        planned_answers, reference_answers,
        "fleet-planned placement changed kNN answers"
    );

    fig13.push(("modeled_qps", Json::Num(plan.modeled_qps)));
    fig13.push(("uniform_qps", Json::Num(uniform_qps)));
    fig13.push(("planned_shards", Json::Num(plan.shards.len() as f64)));
    fig13.push(("fleet_banks", Json::Num(banks.len() as f64)));
    fig13.push(("pim_reference_s", Json::Num(ref_s as f64)));
    fig13.push(("planned_qps_wall", Json::Num(planned_qps)));
    run.push_extra("fig13", Json::obj(fig13));

    run.finish();
}
