//! `simpim` — command-line driver for PIM-accelerated similarity mining.
//!
//! ```text
//! simpim info        --data vectors.csv
//! simpim knn         --data vectors.csv --query-row 0 --k 10 [--measure ed|cs|pcc] [--pim]
//! simpim kmeans      --data vectors.csv --k 8 [--algo lloyd|elkan|drake|yinyang] [--pim]
//! simpim dbscan      --data vectors.csv --eps 0.2 --min-pts 5 [--pim]
//! simpim outliers    --data vectors.csv --k 5 --m 10 [--pim]
//! simpim serve-bench [--dataset year] [--k 10] [--batch 8] [--clients 4] [--queries 64]
//!                    [--shards 2] [--replicas 2] [--kill-after 16] [--slo-p99-us 5000]
//!                    [--flight 32]
//! simpim net-serve   [--addr 127.0.0.1:0] [--dataset year] [--shards 2] [--replicas 2]
//!                    [--batch 8] [--window 32] [--ready-file PATH] [--run-seconds 0]
//! simpim net-bench   --addr HOST:PORT [--dataset year] [--connections 4] [--requests 400]
//!                    [--rate 200] [--k 10] [--verify 8] [--slo-p99-us 5000]
//! simpim slo         BENCH_serve_slo.json [--p99-us 5000] [--availability 99.9]
//! simpim flight      BENCH_serve_flight.jsonl [--top 16] [--outcome failover]
//! ```
//!
//! `--data` accepts `.csv` (one float vector per line) or `.fvecs`
//! (TEXMEX binary). Values are min–max normalized into `[0, 1]` before
//! mining, as the paper prescribes; `--pim` runs the lossless
//! PIM-accelerated variant and reports both architectures' model times.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use simpim::core::executor::{ExecutorConfig, PimExecutor};
use simpim::core::memory::choose_dimensionality;
use simpim::datasets::io::{read_csv, read_fvecs};
use simpim::mining::dbscan::dbscan;
use simpim::mining::kmeans::drake::kmeans_drake;
use simpim::mining::kmeans::elkan::kmeans_elkan;
use simpim::mining::kmeans::lloyd::kmeans_lloyd;
use simpim::mining::kmeans::pim::PimAssist;
use simpim::mining::kmeans::yinyang::kmeans_yinyang;
use simpim::mining::kmeans::KmeansConfig;
use simpim::mining::knn::pim::{knn_pim_ed, knn_pim_sim};
use simpim::mining::knn::standard::knn_standard;
use simpim::mining::outlier::{outliers_pim, outliers_standard};
use simpim::obs::{Json, ToJson};
use simpim::serve::{ServeConfig, ServeEngine};
use simpim::similarity::{Dataset, Measure, NormalizedDataset, Quantizer};
use simpim::simkit::HostParams;
use simpim_bench::BenchRun;
use simpim_bounds::BoundCascade;
use simpim_datasets::PaperDataset;

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    flags.insert(name.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    switches.push(name.to_string());
                    i += 1;
                }
            } else {
                return Err(format!("unexpected argument {a:?}"));
            }
        }
        Ok(Self { flags, switches })
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{name} {v:?}: {e}")),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn load_data(path: &Path) -> Result<Dataset, String> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("csv") => read_csv(path).map_err(|e| format!("reading {path:?}: {e}")),
        Some("fvecs") => read_fvecs(path).map_err(|e| format!("reading {path:?}: {e}")),
        other => Err(format!(
            "unsupported extension {other:?} (use .csv or .fvecs)"
        )),
    }
}

fn normalize(data: &Dataset) -> Result<(NormalizedDataset, Quantizer), String> {
    let quant = Quantizer::fit(data, 1e6).map_err(|e| e.to_string())?;
    Ok((quant.normalize_dataset(data), quant))
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let data = load_data(&PathBuf::from(args.required("data")?))?;
    println!("objects: {}", data.len());
    println!("dimensions: {}", data.dim());
    let (lo, hi) = data.value_range().ok_or("empty dataset")?;
    println!("value range: [{lo}, {hi}]");
    let cfg = ExecutorConfig::default();
    match choose_dimensionality(data.len(), data.dim(), 4, cfg.operand_bits, &cfg.pim) {
        Ok(plan) => println!(
            "Theorem 4 plan (2 GB PIM array): s = {}{}, {} crossbars",
            plan.s,
            if plan.uncompressed {
                " (uncompressed)"
            } else {
                ""
            },
            plan.total_crossbars()
        ),
        Err(e) => println!("Theorem 4: {e}"),
    }
    Ok(())
}

fn cmd_knn(args: &Args) -> Result<(), String> {
    let data = load_data(&PathBuf::from(args.required("data")?))?;
    let k: usize = args.get("k", 10)?;
    let row: usize = args.get("query-row", 0)?;
    if row >= data.len() {
        return Err(format!(
            "--query-row {row} out of range (N = {})",
            data.len()
        ));
    }
    let measure = match args
        .flags
        .get("measure")
        .map(String::as_str)
        .unwrap_or("ed")
    {
        "ed" => Measure::EuclideanSq,
        "cs" => Measure::Cosine,
        "pcc" => Measure::Pearson,
        other => return Err(format!("unknown --measure {other:?} (ed|cs|pcc)")),
    };
    let (nds, _) = normalize(&data)?;
    let norm = nds.dataset().clone();
    let query: Vec<f64> = norm.row(row).to_vec();
    let params = HostParams::default();

    let base = knn_standard(&norm, &query, k, measure).map_err(|e| e.to_string())?;
    println!("k = {k} nearest (baseline): {:?}", base.indices());
    println!(
        "baseline model time: {:.3} ms",
        base.report.total_ms(&params)
    );

    if args.switch("pim") {
        let res = match measure {
            Measure::EuclideanSq => {
                let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds)
                    .map_err(|e| e.to_string())?;
                knn_pim_ed(&mut exec, &norm, &BoundCascade::empty(), &query, k)
                    .map_err(|e| e.to_string())?
            }
            _ => {
                let target = if measure == Measure::Cosine {
                    simpim::core::executor::SimTarget::Cosine
                } else {
                    simpim::core::executor::SimTarget::Pearson
                };
                let mut exec =
                    PimExecutor::prepare_similarity(ExecutorConfig::default(), &nds, target)
                        .map_err(|e| e.to_string())?;
                knn_pim_sim(&mut exec, &norm, &query, k, measure).map_err(|e| e.to_string())?
            }
        };
        assert_eq!(res.indices(), base.indices(), "PIM result must be exact");
        println!(
            "PIM model time: {:.3} ms (identical neighbors)",
            res.report.total_ms(&params)
        );
    }
    Ok(())
}

fn cmd_kmeans(args: &Args) -> Result<(), String> {
    let data = load_data(&PathBuf::from(args.required("data")?))?;
    let k: usize = args.get("k", 8)?;
    let iters: usize = args.get("max-iters", 25)?;
    let algo = args.flags.get("algo").map_or("lloyd", String::as_str);
    let run = match algo {
        "lloyd" => kmeans_lloyd,
        "elkan" => kmeans_elkan,
        "drake" => kmeans_drake,
        "yinyang" => kmeans_yinyang,
        other => {
            return Err(format!(
                "unknown --algo {other:?} (lloyd|elkan|drake|yinyang)"
            ))
        }
    };
    let (nds, _) = normalize(&data)?;
    let norm = nds.dataset().clone();
    let cfg = KmeansConfig {
        k,
        max_iters: iters,
        seed: args.get("seed", 7)?,
    };
    let params = HostParams::default();

    let base = run(&norm, &cfg, None).map_err(|e| e.to_string())?;
    println!(
        "{algo}: {} iterations, inertia {:.4}, {:.2} ms/iter (model)",
        base.iterations,
        base.inertia,
        base.report.total_ms(&params) / base.iterations as f64
    );
    if args.switch("pim") {
        let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds)
            .map_err(|e| e.to_string())?;
        let mut assist = PimAssist::new(&mut exec);
        let pim = run(&norm, &cfg, Some(&mut assist)).map_err(|e| e.to_string())?;
        assert_eq!(
            pim.assignments, base.assignments,
            "PIM clustering must be exact"
        );
        println!(
            "{algo}-PIM: identical assignments, {:.2} ms/iter (model)",
            pim.report.total_ms(&params) / pim.iterations as f64
        );
    }
    Ok(())
}

fn cmd_dbscan(args: &Args) -> Result<(), String> {
    let data = load_data(&PathBuf::from(args.required("data")?))?;
    let eps: f64 = args.get("eps", 0.2)?;
    let min_pts: usize = args.get("min-pts", 5)?;
    let (nds, _) = normalize(&data)?;
    let norm = nds.dataset().clone();
    let params = HostParams::default();

    let base = dbscan(&norm, eps, min_pts, None).map_err(|e| e.to_string())?;
    println!(
        "dbscan(eps={eps}, min_pts={min_pts}): {} clusters, {} noise; {:.2} ms (model)",
        base.clusters,
        base.noise_count(),
        base.report.total_ms(&params)
    );
    if args.switch("pim") {
        let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds)
            .map_err(|e| e.to_string())?;
        let pim = dbscan(&norm, eps, min_pts, Some(&mut exec)).map_err(|e| e.to_string())?;
        assert_eq!(pim.labels, base.labels, "PIM labeling must be exact");
        println!(
            "dbscan-PIM: identical labeling; {:.2} ms (model)",
            pim.report.total_ms(&params)
        );
    }
    Ok(())
}

fn cmd_outliers(args: &Args) -> Result<(), String> {
    let data = load_data(&PathBuf::from(args.required("data")?))?;
    let k: usize = args.get("k", 5)?;
    let m: usize = args.get("m", 10)?;
    let (nds, _) = normalize(&data)?;
    let norm = nds.dataset().clone();
    let params = HostParams::default();

    let base = outliers_standard(&norm, k, m).map_err(|e| e.to_string())?;
    println!("top-{m} outliers by {k}-NN distance:");
    for (i, score) in &base.outliers {
        println!("  object {i}: score {score:.5}");
    }
    println!(
        "baseline model time: {:.2} ms",
        base.report.total_ms(&params)
    );
    if args.switch("pim") {
        let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &nds)
            .map_err(|e| e.to_string())?;
        let pim = outliers_pim(&mut exec, &norm, k, m).map_err(|e| e.to_string())?;
        assert_eq!(pim.indices(), base.indices(), "PIM outliers must be exact");
        println!(
            "PIM model time: {:.2} ms (identical outliers)",
            pim.report.total_ms(&params)
        );
    }
    Ok(())
}

fn parse_dataset(args: &Args) -> Result<PaperDataset, String> {
    let name = args
        .flags
        .get("dataset")
        .map(String::as_str)
        .unwrap_or("year");
    match name.to_ascii_lowercase().as_str() {
        "imagenet" => Ok(PaperDataset::ImageNet),
        "msd" => Ok(PaperDataset::Msd),
        "gist" => Ok(PaperDataset::Gist),
        "trevi" => Ok(PaperDataset::Trevi),
        "year" => Ok(PaperDataset::Year),
        "notre" => Ok(PaperDataset::Notre),
        "nuswide" | "nus-wide" => Ok(PaperDataset::NusWide),
        "enron" => Ok(PaperDataset::Enron),
        other => Err(format!("unknown --dataset {other:?} (see Table 6)")),
    }
}

/// Closed-loop load generator for the serving engine: measures the
/// model-time benefit of batch-coalescing the crossbar pass, then drives a
/// real [`ServeEngine`] with concurrent clients for wall-clock latency and
/// shed-rate numbers. Emits `BENCH_serve.json`.
fn cmd_serve_bench(args: &Args) -> Result<(), String> {
    let dataset = parse_dataset(args)?;
    let k: usize = args.get("k", 10)?;
    let batch: usize = args.get("batch", 8)?;
    let clients: usize = args.get("clients", 4)?;
    let total_queries: usize = args.get("queries", 64)?;
    let replicas: usize = args.get("replicas", ServeConfig::default().replicas)?;
    // Recovery drill: after this many answered queries, fail-stop the
    // bank under shard 0 / replica 0 mid-run (0 = no kill). With R >= 2
    // the run must complete with zero failed queries.
    let kill_after: usize = args.get("kill-after", 0)?;
    // Declarative SLO: p99 of end-to-end latency must stay at or below
    // this many microseconds (0 = no objective). When set, the run is
    // named `serve_slo`, the artifact carries the attainment reports,
    // and an unmet objective fails the run.
    let slo_p99_us: u64 = args.get("slo-p99-us", 0)?;
    // Flight-recorder retention (N slowest + N-anomaly ring).
    let flight: usize = args.get("flight", 32)?;
    if batch == 0 || clients == 0 || total_queries == 0 || replicas == 0 {
        return Err("--batch, --clients, --queries and --replicas must be non-zero".to_string());
    }
    if kill_after >= total_queries && kill_after > 0 {
        return Err(
            "--kill-after must be below --queries (the kill needs traffic after it to be detected)"
                .to_string(),
        );
    }

    let mut run = BenchRun::start(if slo_p99_us > 0 { "serve_slo" } else { "serve" });
    run.set_dataset(&dataset.spec());
    run.config_entry("k", Json::Num(k as f64));
    run.config_entry("batch", Json::Num(batch as f64));
    run.config_entry("clients", Json::Num(clients as f64));
    run.config_entry("queries", Json::Num(total_queries as f64));
    run.config_entry("replicas", Json::Num(replicas as f64));
    run.config_entry("kill_after", Json::Num(kill_after as f64));
    run.config_entry("slo_p99_us", Json::Num(slo_p99_us as f64));
    run.config_entry("flight", Json::Num(flight as f64));

    // Part 1 — model-time throughput: what one crossbar pass costs vs. the
    // programming it amortizes. A one-query-at-a-time server pays the full
    // (re)programming latency per query; coalescing Q queries into one
    // pass pays it once per batch.
    let w = simpim_bench::load(dataset);
    let exec_cfg = simpim_bench::scaled_executor_config();
    let nds = NormalizedDataset::assert_normalized(w.data.clone());
    let mut exec = PimExecutor::prepare_euclidean(exec_cfg, &nds).map_err(|e| e.to_string())?;
    let program_ns = exec.report().program_ns;
    let mut pass_ns = 0.0;
    for q in &w.queries {
        let b = exec.lb_ed_batch(q).map_err(|e| e.to_string())?;
        pass_ns += b.timing.total_ns();
    }
    let pass_ns = pass_ns / w.queries.len() as f64;
    let single_ns_per_query = program_ns + pass_ns;
    let batched_ns_per_query = program_ns / batch as f64 + pass_ns;
    let speedup = single_ns_per_query / batched_ns_per_query;
    run.note_stage("single_query_model", single_ns_per_query as u64, 1, 0, 0);
    run.note_stage("batched_query_model", batched_ns_per_query as u64, 1, 0, 0);
    run.push_extra(
        "throughput_model",
        Json::obj([
            ("program_ns", Json::Num(program_ns)),
            ("pass_ns", Json::Num(pass_ns)),
            ("single_ns_per_query", Json::Num(single_ns_per_query)),
            ("batched_ns_per_query", Json::Num(batched_ns_per_query)),
            ("batch_size", Json::Num(batch as f64)),
            ("speedup", Json::Num(speedup)),
        ]),
    );
    drop(exec);

    // Part 2 — drive a real engine with closed-loop clients, mixing a few
    // online mutations in, for wall-clock latency and shed rate.
    let mut slo_spec = simpim::obs::SloSpec::empty();
    if slo_p99_us > 0 {
        slo_spec = slo_spec
            .latency("total", 0.99, slo_p99_us * 1_000)
            .availability("queries", 0.999);
    }
    let serve_cfg = ServeConfig {
        shards: args.get("shards", 2)?,
        replicas,
        max_batch: batch,
        queue_depth: (4 * batch).max(2 * clients),
        executor: exec_cfg,
        flight_capacity: flight,
        slo: slo_spec,
        ..Default::default()
    };
    let engine = ServeEngine::open(serve_cfg, &w.data).map_err(|e| e.to_string())?;
    let per_client = total_queries.div_ceil(clients);
    let answered_so_far = std::sync::atomic::AtomicUsize::new(0);
    let wall = std::time::Instant::now();
    let ((answered, client_timeouts, failed), recovery_ns): ((usize, usize, usize), Option<u64>) =
        std::thread::scope(|s| {
            let engine = &engine;
            let queries = &w.queries;
            let answered_so_far = &answered_so_far;
            // The killer thread fail-stops shard 0 / replica 0 once the
            // clients have made enough progress, then watches the repair
            // loop bring the replica set back to full strength.
            let killer = (kill_after > 0).then(|| {
                s.spawn(move || {
                    while answered_so_far.load(std::sync::atomic::Ordering::Relaxed) < kill_after {
                        std::thread::yield_now();
                    }
                    engine.kill_bank(0, 0).expect("kill bank");
                    let killed = std::time::Instant::now();
                    // Recovery = the lost replica re-replicated and back
                    // in routing. Detection is traffic-driven, so probe
                    // with real queries while polling.
                    let deadline = killed + std::time::Duration::from_secs(30);
                    loop {
                        let _ = engine.knn(&queries[0], k);
                        let stats = engine.stats().expect("stats");
                        if stats.shards[0].healthy == stats.replicas && stats.repairs > 0 {
                            return Some(killed.elapsed().as_nanos() as u64);
                        }
                        if std::time::Instant::now() > deadline {
                            return None;
                        }
                        std::thread::yield_now();
                    }
                })
            });
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    s.spawn(move || {
                        let mut done = 0usize;
                        // Distinct outcome taxonomy: a deadline that
                        // expired in the queue is not an engine failure,
                        // and an admission shed is neither — it is
                        // retried. Conflating them hid real failures.
                        let mut timeouts = 0usize;
                        let mut failed = 0usize;
                        for i in 0..per_client {
                            let q = &queries[(c + i) % queries.len()];
                            loop {
                                match engine.knn(q, k) {
                                    Ok(_) => {
                                        done += 1;
                                        answered_so_far
                                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                        break;
                                    }
                                    Err(simpim::serve::ServeError::Overloaded) => {
                                        std::thread::yield_now();
                                    }
                                    Err(simpim::serve::ServeError::DeadlineExpired) => {
                                        timeouts += 1;
                                        break;
                                    }
                                    Err(_) => {
                                        failed += 1;
                                        break;
                                    }
                                }
                            }
                        }
                        (done, timeouts, failed)
                    })
                })
                .collect();
            let counts = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .fold((0, 0, 0), |acc, (d, t, f)| {
                    (acc.0 + d, acc.1 + t, acc.2 + f)
                });
            let recovery = killer.and_then(|h| h.join().expect("killer thread"));
            (counts, recovery)
        });
    // Exercise the online-mutation path while the engine is warm.
    let extra = engine.insert(&w.queries[0]).map_err(|e| e.to_string())?;
    engine.delete(extra).map_err(|e| e.to_string())?;
    engine.flush().map_err(|e| e.to_string())?;
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let stats = engine.stats().map_err(|e| e.to_string())?;
    let flight_dump = engine.flight_dump().map_err(|e| e.to_string())?;
    drop(engine);

    run.note_stage("closed_loop_wall", wall_ns, answered as u64, 0, 0);
    let snap = simpim::obs::metrics::snapshot();
    let hist = snap
        .metrics
        .get("simpim.serve.latency_ns")
        .and_then(simpim::obs::metrics::Metric::as_histogram);
    let (p50, p99) = hist
        .map(|h| (h.quantile(0.5), h.quantile(0.99)))
        .unwrap_or((0, 0));
    // Keep the outcome classes distinct: `shed` is admission control
    // (retried by the clients, not a failure), `fault_sheds` are
    // PIM-fault query aborts, `timeouts` are expired queue deadlines,
    // and `failed` is everything genuinely broken. Summing them into one
    // number made real failures invisible behind routine backpressure.
    let shed = snap.counter("simpim.serve.overloaded").unwrap_or(0);
    let fault_sheds = snap.counter("simpim.serve.sheds").unwrap_or(0);
    run.push_extra(
        "closed_loop",
        Json::obj([
            ("answered", Json::Num(answered as f64)),
            ("failed", Json::Num(failed as f64)),
            ("batches", Json::Num(stats.batches as f64)),
            ("p50_latency_ns", Json::Num(p50 as f64)),
            ("p99_latency_ns", Json::Num(p99 as f64)),
            ("shed", Json::Num(shed as f64)),
            ("fault_sheds", Json::Num(fault_sheds as f64)),
            ("timeouts", Json::Num(stats.timeouts as f64)),
            ("client_timeouts", Json::Num(client_timeouts as f64)),
            // In-process clients have no transport; the field exists so
            // BENCH_serve and BENCH_net rows share one schema.
            ("transport_errors", Json::Num(0.0)),
        ]),
    );
    run.push_extra(
        "replication",
        Json::obj([
            ("replicas", Json::Num(stats.replicas as f64)),
            ("failovers", Json::Num(stats.failovers as f64)),
            ("repairs", Json::Num(stats.repairs as f64)),
            ("degraded_queries", Json::Num(stats.degraded_queries as f64)),
            ("degraded_shards", Json::Num(stats.degraded_shards as f64)),
            (
                "recovery_ns",
                recovery_ns
                    .map(|ns| Json::Num(ns as f64))
                    .unwrap_or(Json::Null),
            ),
        ]),
    );
    // Per-stage breakdown with the p99 exemplar trace ids — the numbers
    // that let `simpim flight` pinpoint which request a bad p99 was.
    run.push_extra(
        "stages",
        Json::Arr(stats.stage_latency.iter().map(ToJson::to_json).collect()),
    );
    if !stats.slo.is_empty() {
        run.push_extra(
            "slo",
            Json::Arr(stats.slo.iter().map(ToJson::to_json).collect()),
        );
    }
    // The flight dump rides next to the artifact so a slow run can be
    // diagnosed after the fact with `simpim flight`.
    let flight_path = std::env::var("SIMPIM_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("."))
        .join("BENCH_serve_flight.jsonl");
    if let Err(e) = std::fs::write(&flight_path, &flight_dump) {
        eprintln!("warning: could not write {}: {e}", flight_path.display());
    }
    let mut flight_doc = stats.flight.to_json();
    if let Json::Obj(pairs) = &mut flight_doc {
        let evicted = Json::Num(stats.flight.anomalies_evicted as f64);
        pairs.push(("anomalies_evicted".to_string(), evicted));
        let dump = Json::Str(flight_path.display().to_string());
        pairs.push(("dump".to_string(), dump));
    }
    run.push_extra("flight", flight_doc);
    let path = run.finish();

    println!("serve-bench on {} (k = {k}, Q = {batch}):", dataset.name());
    println!(
        "  model:  {:.1} us/query single, {:.1} us/query batched -> {speedup:.1}x",
        single_ns_per_query / 1e3,
        batched_ns_per_query / 1e3
    );
    println!(
        "  engine: {answered}/{total_queries} answered ({failed} failed, {client_timeouts} timed out) in {} batches, p50 {:.1} us, p99 {:.1} us, {shed} shed + {fault_sheds} fault-shed",
        stats.batches,
        p50 as f64 / 1e3,
        p99 as f64 / 1e3
    );
    if kill_after > 0 {
        match recovery_ns {
            Some(ns) => println!(
                "  recovery: R = {replicas}, bank (0, 0) killed after {kill_after} queries; \
                 {} failovers, {} repairs, re-replicated in {:.1} ms",
                stats.failovers,
                stats.repairs,
                ns as f64 / 1e6
            ),
            None => println!("  recovery: bank (0, 0) killed but not re-replicated in time"),
        }
    }
    for s in &stats.stage_latency {
        if s.count == 0 {
            continue;
        }
        println!(
            "  stage {:8} p50 {:9.1} us  p95 {:9.1} us  p99 {:9.1} us  (exemplar trace {})",
            s.stage,
            s.p50_ns as f64 / 1e3,
            s.p95_ns as f64 / 1e3,
            s.p99_ns as f64 / 1e3,
            s.exemplar_trace
        );
    }
    for r in &stats.slo {
        println!(
            "  slo: {} -> {} (attainment {:.4}%, budget remaining {:.1}%, burn {:.2}x)",
            r.objective,
            if r.attained { "attained" } else { "MISSED" },
            r.attainment * 100.0,
            r.budget_remaining * 100.0,
            r.burn_rate
        );
    }
    println!(
        "  flight: {} trace(s) retained ({} anomalies) -> {}",
        stats.flight.slow_retained + stats.flight.anomalies_retained,
        stats.flight.anomalies_retained,
        flight_path.display()
    );
    println!("  artifact: {}", path.display());
    if speedup < 3.0 && batch >= 8 {
        return Err(format!(
            "batched throughput model speedup {speedup:.2}x < 3x at Q = {batch}"
        ));
    }
    if kill_after > 0 {
        if failed > 0 || client_timeouts > 0 {
            return Err(format!(
                "{failed} queries failed and {client_timeouts} timed out through the bank loss \
                 (want zero of both with R = {replicas})"
            ));
        }
        if recovery_ns.is_none() {
            return Err("killed replica was not re-replicated within the deadline".to_string());
        }
    }
    if slo_p99_us > 0 {
        if let Some(missed) = stats.slo.iter().find(|r| !r.attained) {
            return Err(format!(
                "SLO missed: {} (attainment {:.4}%, {} violation(s) in {} event(s))",
                missed.objective,
                missed.attainment * 100.0,
                missed.violations,
                missed.events
            ));
        }
    }
    Ok(())
}

/// Serves a [`ServeEngine`] over TCP until the process is killed. The
/// bound address (resolving `--addr 127.0.0.1:0`) is printed and, with
/// `--ready-file`, written to a file a supervisor can poll — that is how
/// the CI smoke job learns the ephemeral port.
fn cmd_net_serve(args: &Args) -> Result<(), String> {
    let dataset = parse_dataset(args)?;
    let addr = args
        .flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let batch: usize = args.get("batch", 8)?;
    let shards: usize = args.get("shards", 2)?;
    let replicas: usize = args.get("replicas", ServeConfig::default().replicas)?;
    let flight: usize = args.get("flight", 32)?;
    let run_seconds: u64 = args.get("run-seconds", 0)?;
    if batch == 0 || shards == 0 || replicas == 0 {
        return Err("--batch, --shards and --replicas must be non-zero".to_string());
    }

    let w = simpim_bench::load(dataset);
    let serve_cfg = ServeConfig {
        shards,
        replicas,
        max_batch: batch,
        queue_depth: (4 * batch).max(64),
        executor: simpim_bench::scaled_executor_config(),
        flight_capacity: flight,
        ..Default::default()
    };
    let engine = ServeEngine::open(serve_cfg, &w.data).map_err(|e| e.to_string())?;
    let mut net_cfg = simpim::net::NetConfig::default();
    if let Some(v) = args.flags.get("window") {
        net_cfg.window = v
            .parse::<usize>()
            .map_err(|e| format!("bad --window {v:?}: {e}"))?
            .max(1);
    }
    let window = net_cfg.window;
    let server = simpim::net::NetServer::bind(addr.as_str(), net_cfg, engine)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server.local_addr();
    println!(
        "simpim net-serve: {} ({} rows x {} dims) on {bound}, {shards} shard(s) x {replicas} replica(s), window {window}",
        dataset.name(),
        w.data.len(),
        w.data.dim(),
    );
    if let Some(path) = args.flags.get("ready-file") {
        // Written only after bind succeeds, so a poller that sees the
        // file can connect immediately.
        std::fs::write(path, bound.to_string())
            .map_err(|e| format!("writing --ready-file {path:?}: {e}"))?;
        println!("ready file: {path}");
    }
    if run_seconds > 0 {
        std::thread::sleep(std::time::Duration::from_secs(run_seconds));
        let stats = server.stats();
        server.shutdown();
        println!(
            "net-serve exiting after {run_seconds}s: {} connection(s), {} frame(s) served, {} shed, {} transport error(s)",
            stats.connections_accepted,
            stats.frames_tx,
            stats.sheds(),
            stats.transport_errors
        );
        return Ok(());
    }
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Open-loop load generator against a running `net-serve`: verifies
/// bit-identical answers against the offline scan, fires a fixed arrival
/// schedule over `--connections` pipelined TCP connections, fetches the
/// server's stats and flight dump over the wire, and gates on transport
/// errors, cross-wire trace propagation, and an optional p99 SLO. Emits
/// `BENCH_net.json` (+ `BENCH_net_flight.jsonl`).
fn cmd_net_bench(args: &Args) -> Result<(), String> {
    use std::time::Duration;
    let addr_s = args.required("addr")?.to_string();
    let addr: std::net::SocketAddr = addr_s
        .parse()
        .map_err(|e| format!("bad --addr {addr_s:?}: {e}"))?;
    let dataset = parse_dataset(args)?;
    let connections: usize = args.get("connections", 4)?;
    let requests: usize = args.get("requests", 400)?;
    let rate: f64 = args.get("rate", 200.0)?;
    let k: usize = args.get("k", 10)?;
    let timeout_ms: u64 = args.get("timeout-ms", 2000)?;
    let verify: usize = args.get("verify", 8)?;
    let slo_p99_us: u64 = args.get("slo-p99-us", 0)?;
    if connections == 0 || requests == 0 || rate <= 0.0 {
        return Err("--connections, --requests and --rate must be positive".to_string());
    }

    let mut run = BenchRun::start("net");
    run.set_dataset(&dataset.spec());
    run.config_entry("addr", Json::Str(addr_s.clone()));
    run.config_entry("connections", Json::Num(connections as f64));
    run.config_entry("requests", Json::Num(requests as f64));
    run.config_entry("rate", Json::Num(rate));
    run.config_entry("k", Json::Num(k as f64));
    run.config_entry("timeout_ms", Json::Num(timeout_ms as f64));
    run.config_entry("verify", Json::Num(verify as f64));
    run.config_entry("slo_p99_us", Json::Num(slo_p99_us as f64));

    // The server generated the same deterministic workload from the same
    // dataset name and SIMPIM_SCALE, so the offline scan over our local
    // copy is ground truth for its answers.
    let w = simpim_bench::load(dataset);
    let probe = simpim::net::NetClient::connect(addr)
        .map_err(|e| format!("connecting to {addr_s}: {e}"))?;
    probe.ping().map_err(|e| format!("ping {addr_s}: {e}"))?;

    // Part 1 — correctness gate: every networked answer bit-identical to
    // the offline scan (ids AND f64 bit patterns).
    let mut mismatches = 0usize;
    for i in 0..verify {
        let q = &w.queries[i % w.queries.len()];
        let got = probe
            .knn(q, k, Duration::from_millis(timeout_ms))
            .map_err(|e| format!("verify query {i}: {e}"))?;
        let truth = knn_standard(&w.data, q, k, simpim::similarity::Measure::EuclideanSq)
            .map_err(|e| e.to_string())?;
        let identical = got.len() == truth.neighbors.len()
            && got
                .iter()
                .zip(&truth.neighbors)
                .all(|(&(gid, gv), &(tid, tv))| gid == tid as u64 && gv.to_bits() == tv.to_bits());
        if !identical {
            mismatches += 1;
            eprintln!("verify query {i}: networked answer diverged from the offline scan");
        }
    }

    // Part 2 — the open-loop schedule.
    let cfg = simpim::net::OpenLoopConfig {
        connections,
        total: requests,
        rate,
        k,
        timeout: Duration::from_millis(timeout_ms),
    };
    let report = simpim::net::run_open_loop(addr, &cfg, &w.queries).map_err(|e| e.to_string())?;

    // Part 3 — the server's own story, fetched over the wire.
    let server_stats_json = probe.stats_json().map_err(|e| format!("stats: {e}"))?;
    let server_stats =
        Json::parse(&server_stats_json).map_err(|e| format!("parsing server stats: {e}"))?;
    let flight_dump = probe.flight_dump().map_err(|e| format!("flight: {e}"))?;
    drop(probe);
    let flight_path = std::env::var("SIMPIM_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("."))
        .join("BENCH_net_flight.jsonl");
    if let Err(e) = std::fs::write(&flight_path, &flight_dump) {
        eprintln!("warning: could not write {}: {e}", flight_path.display());
    }

    // Cross-wire trace propagation: trace ids this process minted must
    // reappear in the server's flight recorder.
    let server_traces: std::collections::HashSet<u64> =
        simpim::serve::flight::parse_dump(&flight_dump)?
            .iter()
            .map(|t| t.trace_id)
            .collect();
    let client_traces: std::collections::HashSet<u64> = report.trace_ids.iter().copied().collect();
    let cross_wire = client_traces.intersection(&server_traces).count();

    let latency_summary = report.latency_ns.summary_json();
    run.note_stage(
        "open_loop_wall",
        report.elapsed.as_nanos() as u64,
        report.answered,
        0,
        0,
    );
    run.push_extra(
        "open_loop",
        Json::obj([
            ("answered", Json::Num(report.answered as f64)),
            ("shed", Json::Num(report.shed as f64)),
            ("timeouts", Json::Num(report.timeout as f64)),
            ("failed", Json::Num(report.failed as f64)),
            (
                "transport_errors",
                Json::Num(report.transport_errors as f64),
            ),
            ("latency_ns", latency_summary),
            ("scheduled_rate", Json::Num(report.scheduled_rate)),
            ("achieved_rate", Json::Num(report.achieved_rate)),
            ("elapsed_ms", Json::Num(report.elapsed.as_secs_f64() * 1e3)),
        ]),
    );
    run.push_extra("server", server_stats);
    run.push_extra(
        "cross_wire",
        Json::obj([
            ("client_traces", Json::Num(client_traces.len() as f64)),
            ("server_traces", Json::Num(server_traces.len() as f64)),
            ("cross_wire_traces", Json::Num(cross_wire as f64)),
        ]),
    );
    run.push_extra(
        "verify",
        Json::obj([
            ("queries", Json::Num(verify as f64)),
            ("mismatches", Json::Num(mismatches as f64)),
        ]),
    );
    let slo_report = (slo_p99_us > 0).then(|| {
        simpim::obs::slo::evaluate_latency(
            "net_total",
            0.99,
            slo_p99_us * 1_000,
            &report.latency_ns,
        )
    });
    if let Some(r) = &slo_report {
        run.push_extra("slo", Json::Arr(vec![r.to_json()]));
    }
    let path = run.finish();

    let q = |p: f64| report.latency_ns.quantile(p) as f64 / 1e3;
    println!(
        "net-bench against {addr_s} ({} x {} req @ {rate:.0}/s, k = {k}):",
        connections, requests
    );
    println!("  verify: {verify} queries, {mismatches} mismatch(es) vs the offline scan");
    println!(
        "  open loop: {}/{} answered, {} shed, {} timed out, {} failed, {} transport error(s)",
        report.answered,
        report.total(),
        report.shed,
        report.timeout,
        report.failed,
        report.transport_errors
    );
    println!(
        "  latency (from scheduled send): p50 {:.1} us  p95 {:.1} us  p99 {:.1} us  ({:.0} req/s achieved)",
        q(0.5),
        q(0.95),
        q(0.99),
        report.achieved_rate
    );
    println!(
        "  cross-wire traces: {cross_wire} of {} client trace(s) found in the server flight dump -> {}",
        client_traces.len(),
        flight_path.display()
    );
    if let Some(r) = &slo_report {
        println!(
            "  slo: {} -> {} (attainment {:.4}%, budget remaining {:.1}%, burn {:.2}x)",
            r.objective,
            if r.attained { "attained" } else { "MISSED" },
            r.attainment * 100.0,
            r.budget_remaining * 100.0,
            r.burn_rate
        );
    }
    println!("  artifact: {}", path.display());

    if mismatches > 0 {
        return Err(format!(
            "{mismatches} networked answer(s) diverged from the offline scan"
        ));
    }
    if report.transport_errors > 0 {
        return Err(format!(
            "{} transport error(s) during the open-loop run (want zero)",
            report.transport_errors
        ));
    }
    if report.answered == 0 {
        return Err("no requests were answered".to_string());
    }
    if cross_wire == 0 {
        return Err(
            "no client trace id reappeared in the server flight dump — cross-wire trace \
             propagation is broken"
                .to_string(),
        );
    }
    if let Some(r) = &slo_report {
        if !r.attained {
            return Err(format!(
                "SLO missed: {} (attainment {:.4}%, {} violation(s) in {} event(s))",
                r.objective,
                r.attainment * 100.0,
                r.violations,
                r.events
            ));
        }
    }
    Ok(())
}

/// Evaluates SLOs against a `BENCH_serve*.json` artifact: either the
/// attainment reports the run stored (`extra.slo`), or fresh objectives
/// (`--p99-us`, `--availability`) evaluated from the artifact's metrics
/// snapshot. Exits non-zero when any objective is missed, so CI can
/// gate on it.
fn cmd_slo(argv: &[String]) -> Result<(), String> {
    let Some((path, rest)) = argv.split_first() else {
        return Err(
            "usage: simpim slo <BENCH_serve*.json> [--p99-us N] [--availability PCT]".to_string(),
        );
    };
    if path.starts_with("--") {
        return Err(
            "the artifact path must come first: simpim slo <BENCH_serve*.json> [--p99-us N]"
                .to_string(),
        );
    }
    let args = Args::parse(rest)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let artifact = simpim::obs::RunArtifact::from_json_text(&text)
        .map_err(|e| format!("parsing {path:?}: {e}"))?;

    let p99_us: u64 = args.get("p99-us", 0)?;
    let availability: f64 = args.get("availability", 0.0)?;
    use simpim::obs::FromJson;
    let reports: Vec<simpim::obs::SloReport> = if p99_us > 0 || availability > 0.0 {
        // Fresh objectives against the run's recorded histograms and
        // counters.
        let snap = simpim::obs::metrics::MetricsSnapshot::from_json(&artifact.metrics)
            .map_err(|e| format!("artifact {path:?} has no metrics snapshot: {e}"))?;
        let mut spec = simpim::obs::SloSpec::empty();
        if p99_us > 0 {
            spec = spec.latency("total", 0.99, p99_us * 1_000);
        }
        if availability > 0.0 {
            spec = spec.availability("queries", availability / 100.0);
        }
        let good = snap.counter("simpim.serve.answered_ok").unwrap_or(0);
        let total = good
            + snap.counter("simpim.serve.failed").unwrap_or(0)
            + snap.counter("simpim.serve.timeouts").unwrap_or(0);
        simpim::obs::slo::evaluate_spec(
            &spec,
            |name| {
                let full = if name.starts_with("simpim.") {
                    name.to_string()
                } else {
                    format!("simpim.serve.stage.{name}_ns")
                };
                snap.histogram(&full)
                    .or_else(|| snap.histogram("simpim.serve.latency_ns"))
                    .cloned()
            },
            |_| Some((good, total)),
        )
    } else {
        // The reports the run itself stored.
        let stored = artifact
            .extra
            .iter()
            .find(|(k, _)| k == "slo")
            .map(|(_, v)| v)
            .ok_or_else(|| {
                format!(
                    "{path:?} has no stored SLO reports; pass --p99-us / --availability to \
                     evaluate fresh objectives from its metrics"
                )
            })?;
        stored
            .as_arr()
            .unwrap_or(&[])
            .iter()
            .map(simpim::obs::SloReport::from_json)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("parsing stored SLO reports in {path:?}: {e}"))?
    };
    if reports.is_empty() {
        return Err("no objectives to evaluate".to_string());
    }
    println!("SLO report for {path}:");
    let mut missed = 0;
    for r in &reports {
        println!(
            "  {:32} {}  events {}  violations {}  attainment {:.4}%  budget {:.1}%  burn {:.2}x",
            r.objective,
            if r.attained { "attained" } else { "MISSED  " },
            r.events,
            r.violations,
            r.attainment * 100.0,
            r.budget_remaining * 100.0,
            r.burn_rate
        );
        if !r.attained {
            missed += 1;
        }
    }
    if missed > 0 {
        return Err(format!("{missed} objective(s) missed"));
    }
    Ok(())
}

/// Renders a flight-recorder JSONL dump as per-stage waterfalls — one
/// block per retained request, slowest stages visualized against the
/// request's own span, with the routing/fault annotations underneath.
fn cmd_flight(argv: &[String]) -> Result<(), String> {
    let Some((path, rest)) = argv.split_first() else {
        return Err("usage: simpim flight <flight.jsonl> [--top N] [--outcome ok|degraded|failover|shed|timeout|failed]".to_string());
    };
    if path.starts_with("--") {
        return Err(
            "the dump path must come first: simpim flight <flight.jsonl> [--top N]".to_string(),
        );
    }
    let args = Args::parse(rest)?;
    let top: usize = args.get("top", 16)?;
    let outcome_filter = match args.flags.get("outcome") {
        None => None,
        Some(s) => Some(
            simpim::serve::Outcome::parse(s).ok_or_else(|| format!("unknown --outcome {s:?}"))?,
        ),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let mut traces = simpim::serve::flight::parse_dump(&text)?;
    if let Some(f) = outcome_filter {
        traces.retain(|t| t.outcome == f);
    }
    if traces.is_empty() {
        println!("no matching traces in {path}");
        return Ok(());
    }
    let shown = traces.len().min(top);
    println!(
        "{} trace(s) in {path}{} — showing {shown}:",
        traces.len(),
        outcome_filter
            .map(|f| format!(" with outcome {}", f.as_str()))
            .unwrap_or_default()
    );
    const WIDTH: usize = 40;
    for t in traces.iter().take(top) {
        t.validate_tree()
            .map_err(|e| format!("malformed trace {}: {e}", t.trace_id))?;
        println!(
            "\ntrace {} [{}] {} total {:.3} ms",
            t.trace_id,
            t.kind,
            t.outcome.as_str(),
            t.total_ns as f64 / 1e6
        );
        let root = t.root().expect("validated tree has a root");
        let (t0, t1) = (root.start_ns, root.end_ns.max(root.start_ns + 1));
        let span_ns = (t1 - t0) as f64;
        for s in &t.spans {
            // Depth = distance to the root through parent links.
            let mut depth = 0;
            let mut cur = s.parent;
            while let Some(p) = cur {
                depth += 1;
                cur = t
                    .spans
                    .iter()
                    .find(|q| q.span_id == p)
                    .and_then(|q| q.parent);
            }
            let lo = (((s.start_ns.max(t0) - t0) as f64 / span_ns) * WIDTH as f64) as usize;
            let hi =
                (((s.end_ns.clamp(t0, t1) - t0) as f64 / span_ns) * WIDTH as f64).ceil() as usize;
            let (lo, hi) = (lo.min(WIDTH), hi.clamp(lo.min(WIDTH), WIDTH));
            let mut bar = String::with_capacity(WIDTH);
            for i in 0..WIDTH {
                bar.push(if i >= lo && i < hi.max(lo + 1) {
                    '='
                } else {
                    ' '
                });
            }
            println!(
                "  {:28} |{bar}| {:9.3} ms",
                format!("{}{}", "  ".repeat(depth), s.name),
                s.duration_ns() as f64 / 1e6
            );
        }
        for a in &t.annotations {
            println!("    note: {a}");
        }
    }
    Ok(())
}

/// Walks a dotted path (`extra.kernels.knn_qps`) through an artifact's
/// JSON sections. The first segment selects the section
/// (`config|extra|metrics|totals`); the rest descend object keys.
fn artifact_metric(art: &simpim::obs::RunArtifact, path: &str) -> Result<f64, String> {
    let mut segs = path.split('.');
    let mut cur: &simpim::obs::Json = match segs.next() {
        Some("config") => &art.config,
        Some("metrics") => &art.metrics,
        Some("totals") => &art.totals,
        Some("extra") => {
            let sect = segs
                .next()
                .ok_or_else(|| format!("metric path {path:?}: extra needs a section key"))?;
            art.extra
                .iter()
                .find(|(k, _)| k == sect)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("metric path {path:?}: extra section {sect:?} not found"))?
        }
        other => {
            return Err(format!(
                "metric path must start with config|extra|metrics|totals, got {other:?}"
            ))
        }
    };
    for seg in segs {
        let simpim::obs::Json::Obj(entries) = cur else {
            return Err(format!(
                "metric path {path:?}: {seg:?} reached a non-object"
            ));
        };
        cur = entries
            .iter()
            .find(|(k, _)| k == seg)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("metric path {path:?}: key {seg:?} not found"))?;
    }
    match cur {
        simpim::obs::Json::Num(v) => Ok(*v),
        other => Err(format!("metric path {path:?} is not a number: {other:?}")),
    }
}

/// Renders one run artifact as a per-stage table, diffs two, or — with
/// `--assert-no-regress` — gates a throughput metric between two runs.
fn cmd_report(paths: &[String]) -> Result<(), String> {
    let load = |p: &String| -> Result<simpim::obs::RunArtifact, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("reading artifact {p:?}: {e}"))?;
        let artifact = simpim::obs::RunArtifact::from_json_text(&text)
            .map_err(|e| format!("parsing artifact {p:?}: {e}"))?;
        let problems = artifact.validate();
        if !problems.is_empty() {
            return Err(format!("invalid artifact {p:?}: {}", problems.join("; ")));
        }
        Ok(artifact)
    };
    // Split flags from positional artifact paths.
    let mut files: Vec<&String> = Vec::new();
    let mut assert_no_regress = false;
    let mut metric = "extra.kernels.knn_qps".to_string();
    let mut max_drop_pct = 10.0f64;
    let mut it = paths.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--assert-no-regress" => assert_no_regress = true,
            "--metric" => {
                metric = it
                    .next()
                    .ok_or_else(|| "--metric needs a dotted path".to_string())?
                    .clone();
            }
            "--max-drop-pct" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--max-drop-pct needs a number".to_string())?;
                max_drop_pct = v
                    .parse::<f64>()
                    .map_err(|e| format!("--max-drop-pct {v:?}: {e}"))?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown report flag {other:?}"));
            }
            _ => files.push(arg),
        }
    }
    if assert_no_regress {
        let [old_p, new_p] = files[..] else {
            return Err(
                "usage: simpim report --assert-no-regress <old.json> <new.json> \
                        [--metric extra.kernels.knn_qps] [--max-drop-pct 10]"
                    .to_string(),
            );
        };
        let old_v = artifact_metric(&load(old_p)?, &metric)?;
        let new_v = artifact_metric(&load(new_p)?, &metric)?;
        if old_v <= 0.0 {
            return Err(format!(
                "{metric}: old value {old_v} is not a positive throughput — nothing to gate on"
            ));
        }
        let change_pct = (new_v - old_v) / old_v * 100.0;
        println!(
            "{metric}: {old_v:.3} -> {new_v:.3} ({change_pct:+.1}%, threshold -{max_drop_pct:.1}%)"
        );
        if change_pct < -max_drop_pct {
            return Err(format!(
                "regression: {metric} dropped {:.1}% (> {max_drop_pct:.1}% allowed) \
                 from {old_p} to {new_p}",
                -change_pct
            ));
        }
        println!("no regression: within threshold");
        return Ok(());
    }
    match files[..] {
        [a] => {
            print!("{}", load(a)?.render_table());
            Ok(())
        }
        [a, b] => {
            print!("{}", load(a)?.render_diff(&load(b)?));
            Ok(())
        }
        _ => Err("usage: simpim report <a.json> [<b.json>]".to_string()),
    }
}

const USAGE: &str =
    "usage: simpim <info|knn|kmeans|dbscan|outliers|serve-bench|net-serve|net-bench|slo|flight|report> [options]
  info        --data F
  knn         --data F [--query-row 0] [--k 10] [--measure ed|cs|pcc] [--pim]
  kmeans      --data F [--k 8] [--algo lloyd|elkan|drake|yinyang] [--max-iters 25] [--seed 7] [--pim]
  dbscan      --data F [--eps 0.2] [--min-pts 5] [--pim]
  outliers    --data F [--k 5] [--m 10] [--pim]
  serve-bench [--dataset year] [--k 10] [--batch 8] [--clients 4] [--queries 64] [--shards 2]
              [--replicas R] [--kill-after N] [--slo-p99-us U] [--flight N]
              closed-loop load generator for the serving engine; writes BENCH_serve.json.
              --replicas R programs each shard onto R banks (default 1);
              --kill-after N fail-stops bank (0, 0) after N answered queries and requires the
              run to finish with zero failed queries and the replica re-replicated;
              --slo-p99-us U declares `p99(total) <= U us` + 99.9% availability, names the
              artifact BENCH_serve_slo.json, and fails the run when an objective is missed;
              --flight N retains the N slowest + N anomalous request traces and writes them
              to BENCH_serve_flight.jsonl (default 32)
  net-serve   [--addr 127.0.0.1:0] [--dataset year] [--shards 2] [--replicas R] [--batch 8]
              [--flight 32] [--window N] [--ready-file PATH] [--run-seconds 0]
              serve the engine over TCP (length-prefixed binary frames) until killed;
              --addr with port 0 binds an ephemeral port, printed and (with --ready-file)
              written to a file once accepting; --window bounds in-flight requests per
              connection (default 32); --run-seconds N exits after N s
  net-bench   --addr HOST:PORT [--dataset year] [--connections 4] [--requests 400]
              [--rate 200] [--k 10] [--timeout-ms 2000] [--verify 8] [--slo-p99-us U]
              open-loop load generator over pipelined TCP connections; writes BENCH_net.json
              and BENCH_net_flight.jsonl. Verifies answers bit-identical to the offline scan,
              requires zero transport errors and >= 1 cross-wire trace in the server flight
              dump, and fails when the client-measured p99 exceeds --slo-p99-us
  slo         <BENCH_serve*.json> [--p99-us N] [--availability PCT]
              evaluate SLOs from a run artifact (stored reports, or fresh objectives against
              its metrics snapshot); exits non-zero when an objective is missed
  flight      <flight.jsonl> [--top 16] [--outcome ok|degraded|failover|shed|timeout|failed]
              render flight-recorder traces as per-stage waterfalls with fault annotations
  report      <a.json> [<b.json>]   render a BENCH_*.json artifact, or diff two
              --assert-no-regress <old.json> <new.json> [--metric extra.kernels.knn_qps]
              [--max-drop-pct 10]  exit non-zero when the named throughput metric (a dotted
              path through config|extra|metrics|totals) drops more than the threshold —
              gates the per-PR kernel bench trajectory
  any mining or bench command also takes --trace (writes span journal to simpim_trace.jsonl)";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "report" | "slo" | "flight") {
        // These take a positional file path, not --flag pairs.
        let out = match cmd.as_str() {
            "report" => cmd_report(rest),
            "slo" => cmd_slo(rest),
            _ => cmd_flight(rest),
        };
        return match out {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = Args::parse(rest).and_then(|args| {
        let tracing = args.switch("trace");
        if tracing {
            simpim::obs::trace::enable(1 << 16);
        }
        let out = match cmd.as_str() {
            "info" => cmd_info(&args),
            "knn" => cmd_knn(&args),
            "kmeans" => cmd_kmeans(&args),
            "dbscan" => cmd_dbscan(&args),
            "outliers" => cmd_outliers(&args),
            "serve-bench" => cmd_serve_bench(&args),
            "net-serve" => cmd_net_serve(&args),
            "net-bench" => cmd_net_bench(&args),
            other => Err(format!("unknown command {other:?}\n{USAGE}")),
        };
        if tracing {
            // Dump every thread's journal: orphaned records from exited
            // worker/scheduler threads first, then this thread's.
            let dump = simpim::obs::trace::dump_jsonl_all();
            let spans = dump.lines().count();
            let stats = simpim::obs::trace::journal_stats();
            let path = "simpim_trace.jsonl";
            match std::fs::write(path, dump) {
                Ok(()) => eprintln!(
                    "trace: {spans} spans ({} dropped) -> {path}",
                    stats.dropped_total
                ),
                Err(e) => eprintln!("trace: could not write {path}: {e}"),
            }
            simpim::obs::trace::disable();
        }
        out
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_switches() {
        let a = Args::parse(&argv(&["--data", "x.csv", "--k", "5", "--pim"])).unwrap();
        assert_eq!(a.required("data").unwrap(), "x.csv");
        assert_eq!(a.get::<usize>("k", 1).unwrap(), 5);
        assert!(a.switch("pim"));
        assert!(!a.switch("verbose"));
        assert_eq!(a.get::<usize>("m", 9).unwrap(), 9);
    }

    #[test]
    fn rejects_positional_arguments_and_bad_values() {
        assert!(Args::parse(&argv(&["stray"])).is_err());
        let a = Args::parse(&argv(&["--k", "abc"])).unwrap();
        assert!(a.get::<usize>("k", 1).is_err());
        assert!(a.required("data").is_err());
    }
}
