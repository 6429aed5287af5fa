//! The traced layer replay and the per-layer probes.
//!
//! The replay takes a fixed slice of the query pool and, single-threaded
//! (`simpim_par::with_threads(1)`), calls each layer's public entry
//! point on the same input, outermost first:
//!
//! ```text
//! [net.knn]                       NetClient::knn            (Kind::Net only)
//!   serve.engine.knn              ServeEngine::knn
//!     serve.shard.query_batch     Shard::query_batch, Q = 1, per shard
//!       core.lb_ed_batch          PimExecutor::lb_ed_batch
//!         similarity.quantize     Quantizer::quantize_vec / FnnQuant / SmQuant
//!         reram.dot_batch         PimArray::dot_batch, per region
//!       mining.refine             refine_resident with the real bounds
//!         kern.euclidean_sq       euclidean_sq over the rows refine evaluated
//!     mining.merge                merge_neighbors over the shard partials
//! ```
//!
//! The inner calls run on benchmark-owned copies (shards, executors and
//! arrays built from the same rows with the same configuration), since
//! the engine owns its own. A span's parent is the next-outer call for
//! the same request, so a layer's self time is its span minus the spans
//! of the next-inner calls.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

use simpim_core::executor::PimExecutor;
use simpim_core::pim_bounds::{FnnQuant, SmQuant};
use simpim_core::PreparedFunction;
use simpim_mining::knn::resident::{merge_neighbors, refine_resident, ShardView};
use simpim_net::wire::{
    decode_request, decode_response, encode_request, encode_response, Envelope, HEADER_LEN,
};
use simpim_net::{Request, Response};
use simpim_reram::array::RegionId;
use simpim_reram::{AccWidth, PimArray};
use simpim_serve::{Shard, ShardConfig};
use simpim_similarity::{Dataset, Measure, NormalizedDataset, Quantizer};
use simpim_simkit::OpCounters;

use crate::knn::{executor_config, serve_config, Inputs, Sut, SHARDS};
use crate::recorder::Recorder;
use crate::reference::same_answer;
use crate::report::Report;
use crate::spec::{Workload, K, SLICE};
use crate::stats::median;
use crate::Run;

/// Inner calls may together run this much longer than the call they
/// were replayed from before the run fails.
const SELF_SUM_LIMIT: f64 = 1.10;

/// The floor vectors one query is multiplied with, one per region of the
/// executor's prepared function.
pub fn quantize_query(exec: &PimExecutor, query: &[f64]) -> Vec<Vec<u32>> {
    let alpha = exec.config().alpha;
    match exec.prepared() {
        PreparedFunction::Fnn { d_prime, .. } => {
            let fq = FnnQuant::compute(query, *d_prime, alpha).expect("normalized query");
            vec![fq.mu_floors, fq.sigma_floors]
        }
        PreparedFunction::Sm { d_prime, .. } => {
            let sq = SmQuant::compute(query, *d_prime, alpha).expect("normalized query");
            vec![sq.mu_floors]
        }
        _ => {
            let quantizer = Quantizer::identity(alpha).expect("valid alpha");
            vec![quantizer.quantize_vec(query).expect("finite query").floors]
        }
    }
}

fn regions(exec: &PimExecutor) -> Vec<RegionId> {
    match exec.prepared() {
        PreparedFunction::Ed { region, .. } | PreparedFunction::Dot { region, .. } => {
            vec![*region]
        }
        PreparedFunction::Fnn {
            mu_region,
            sigma_region,
            ..
        } => vec![*mu_region, *sigma_region],
        PreparedFunction::Sm { mu_region, .. } => vec![*mu_region],
        PreparedFunction::Hamming {
            code_region,
            comp_region,
            ..
        } => vec![*code_region, *comp_region],
    }
}

/// A benchmark-owned array holding the quantised rows an executor
/// programmed, region by region, with `spare` unprogrammed rows each.
pub struct OwnedArray {
    pub array: PimArray,
    pub regions: Vec<RegionId>,
    /// Seconds `program_region_with_capacity` took over all regions.
    pub program_s: f64,
    /// Stored operands over all regions (`n · s` summed).
    pub cells: u64,
}

impl OwnedArray {
    pub fn from_executor(exec: &PimExecutor, spare: usize) -> Self {
        let pim = exec.bank().pim();
        let mut array = PimArray::new(exec.config().pim).expect("valid platform");
        let mut out_regions = Vec::new();
        let (mut program_s, mut cells) = (0.0, 0u64);
        for region in regions(exec) {
            let (n, s, bits) = pim.region_shape(region).expect("programmed region");
            let mut flat = Vec::with_capacity(n * s);
            for obj in 0..n {
                flat.extend_from_slice(pim.region_row(region, obj).expect("programmed row"));
            }
            let t = Instant::now();
            let rep = array
                .program_region_with_capacity(&flat, n, n + spare, s, bits)
                .expect("the executor programmed the same shape");
            program_s += t.elapsed().as_secs_f64();
            cells += (n * s) as u64;
            out_regions.push(rep.region);
        }
        Self {
            array,
            regions: out_regions,
            program_s,
            cells,
        }
    }
}

/// Benchmark-owned copies of what one engine shard holds.
struct ShardKit {
    rows: Dataset,
    ids: Vec<usize>,
    /// All true: the replay runs over the initial rows.
    live: Vec<bool>,
    shard: Shard,
    exec: PimExecutor,
    own: OwnedArray,
}

/// Median of nanosecond values, in milliseconds; 0 for none, and for a
/// self time whose median is negative.
pub fn median_ms(ns: &[i64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let ms: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e6).collect();
    median(&ms).max(0.0)
}

/// Reports `trace.self_sum_frac` and fails the run above
/// [`SELF_SUM_LIMIT`].
pub fn check_self_sum(frac: f64, report: &mut Report) {
    report.set("trace.self_sum_frac", frac);
    if frac > SELF_SUM_LIMIT {
        report.problems.push(format!(
            "self times sum to {frac:.3} of the outermost spans (limit {SELF_SUM_LIMIT})"
        ));
    }
}

/// Replays the slice layer by layer and derives the kNN per-layer
/// metrics from the spans.
pub fn replay_knn(
    wl: &Workload,
    inputs: &Inputs,
    sut: &Sut,
    rec: &mut Recorder,
    report: &mut Report,
) {
    let cfg = serve_config(wl);
    let shard_cfg = ShardConfig {
        executor: cfg.executor,
        spare_rows: cfg.spare_rows,
        tombstone_reprogram_ratio: cfg.tombstone_reprogram_ratio,
        reprogram_wear_budget: cfg.reprogram_wear_budget,
    };
    // The engine's own partition: contiguous chunks of ⌈n / shards⌉ rows.
    let chunk = inputs.data.len().div_ceil(SHARDS);
    let (mut prepare_s, mut program_s) = (0.0, 0.0);
    let mut kits: Vec<ShardKit> = Vec::new();
    for start in (0..inputs.data.len()).step_by(chunk) {
        let end = (start + chunk).min(inputs.data.len());
        let flat =
            inputs.data.as_flat()[start * inputs.data.dim()..end * inputs.data.dim()].to_vec();
        let rows = Dataset::from_flat(flat, inputs.data.dim()).expect("whole rows");
        let ids: Vec<usize> = (start..end).collect();
        let shard = Shard::open(shard_cfg, rows.clone(), ids.clone()).expect("shard opens");
        let t = Instant::now();
        let exec = PimExecutor::prepare_euclidean_resident(
            shard_cfg.executor,
            NormalizedDataset::assert_normalized_ref(&rows),
            shard_cfg.spare_rows,
        )
        .expect("executor prepares");
        prepare_s += t.elapsed().as_secs_f64();
        let own = OwnedArray::from_executor(&exec, 0);
        program_s += own.program_s;
        kits.push(ShardKit {
            live: vec![true; rows.len()],
            rows,
            ids,
            shard,
            exec,
            own,
        });
    }
    report.set("core.prepare_s", prepare_s);
    report.set("reram.program_s", program_s);
    report.notes.push(format!(
        "bound {} over {} shard(s)",
        kits[0].exec.bound_name(),
        kits.len()
    ));

    let first_span = rec.spans().len();
    let slice = SLICE.min(inputs.pool.len());
    let (mut refined, mut pruned, mut modeled_ns) = (0u64, 0u64, 0.0f64);
    let mut macs = 0u64;
    rec.enabled = true;
    simpim_par::with_threads(1, || {
        for (r, query) in inputs.pool.iter().take(slice).enumerate() {
            let request = r as u32;
            let want = &inputs.reference.answers[r];
            let check = |report: &mut Report, what: &str, got: &[(usize, f64)]| {
                report.attempted += 1;
                if !same_answer(got, want) {
                    report.failed += 1;
                    report
                        .problems
                        .push(format!("replay {what}: request {r} is wrong"));
                }
            };

            let mut outer = None;
            if let Sut::Net { clients, .. } = sut {
                let (id, got) = rec.span("net.knn", None, request, || {
                    clients[0].knn(query, K, std::time::Duration::from_secs(5))
                });
                outer = id;
                let got: Vec<(usize, f64)> = got
                    .unwrap_or_default()
                    .into_iter()
                    .map(|(i, d)| (i as usize, d))
                    .collect();
                check(report, "net.knn", &got);
            }
            let (engine_span, got) = rec.span("serve.engine.knn", outer, request, || {
                sut.engine().knn(query, K)
            });
            check(report, "serve.engine.knn", &got.unwrap_or_default());

            let mut partials = Vec::with_capacity(kits.len());
            for kit in &mut kits {
                let (shard_span, got) =
                    rec.span("serve.shard.query_batch", engine_span, request, || {
                        kit.shard.query_batch(std::slice::from_ref(query), &[K])
                    });
                let via_shard = got
                    .into_iter()
                    .next()
                    .and_then(Result::ok)
                    .unwrap_or_default();

                let (core_span, batch) = rec.span("core.lb_ed_batch", shard_span, request, || {
                    kit.exec.lb_ed_batch(query).expect("bound batch")
                });
                modeled_ns += batch.timing.total_ns();

                let (_, floors) = rec.span("similarity.quantize", core_span, request, || {
                    quantize_query(&kit.exec, query)
                });
                for (region, q) in kit.own.regions.iter().zip(&floors) {
                    let (_, dots) = rec.span("reram.dot_batch", core_span, request, || {
                        kit.own
                            .array
                            .dot_batch(*region, q, AccWidth::U64)
                            .expect("dot batch")
                    });
                    black_box(dots);
                }
                macs += kit.own.cells;

                let (refine_span, out) = rec.span("mining.refine", shard_span, request, || {
                    refine_resident(
                        &ShardView {
                            rows: &kit.rows,
                            ids: &kit.ids,
                            live: &kit.live,
                            bounds: &batch.values,
                        },
                        query,
                        K,
                        Measure::EuclideanSq,
                        &mut OpCounters::new(),
                    )
                    .expect("refine")
                });
                refined += out.refined;
                pruned += out.pruned;
                if out.neighbors != via_shard {
                    report
                        .problems
                        .push(format!("replay: refine and shard disagree on request {r}"));
                }

                // The distance work inside refine: the rows it evaluated
                // are the `refined` smallest bounds.
                let mut order: Vec<usize> = (0..kit.rows.len()).collect();
                let nth = (out.refined as usize).clamp(1, order.len()) - 1;
                order.select_nth_unstable_by(nth, |&a, &b| {
                    batch.values[a].total_cmp(&batch.values[b])
                });
                let (_, sum) = rec.span("kern.euclidean_sq", refine_span, request, || {
                    order[..=nth]
                        .iter()
                        .map(|&i| simpim_kern::euclidean_sq(kit.rows.row(i), query))
                        .sum::<f64>()
                });
                black_box(sum);
                partials.push(out.neighbors);
            }
            let (_, merged) = rec.span("mining.merge", engine_span, request, || {
                merge_neighbors(&partials, K, true)
            });
            check(report, "mining.merge", &merged);
        }
    });
    rec.enabled = false;

    let dur = |name: &str| rec.per_request(name, false);
    let own = |name: &str| rec.per_request(name, true);
    let q = slice as f64;
    report.set_n(
        "similarity.quantize_us",
        median_ms(&dur("similarity.quantize")) * 1e3,
        slice,
    );
    let dot_ns = dur("reram.dot_batch");
    report.set_n("reram.dot_batch_ms", median_ms(&dot_ns), slice);
    report.set(
        "reram.macs_per_s",
        macs as f64 / (dot_ns.iter().sum::<i64>() as f64 / 1e9),
    );
    report.set_n(
        "core.lb_ed_batch_ms",
        median_ms(&dur("core.lb_ed_batch")),
        slice,
    );
    report.set_n(
        "core.lb_ed_self_ms",
        median_ms(&own("core.lb_ed_batch")),
        slice,
    );
    report.set("core.modeled_pass_us", modeled_ns / 1e3 / q);
    report.set("e2e.modeled_us_per_op", modeled_ns / 1e3 / q);
    report.set_n("mining.refine_ms", median_ms(&dur("mining.refine")), slice);
    report.set("mining.refined_per_query", refined as f64 / q);
    report.set(
        "mining.pruned_frac",
        pruned as f64 / (refined + pruned).max(1) as f64,
    );
    report.set_n(
        "mining.merge_us",
        median_ms(&dur("mining.merge")) * 1e3,
        slice,
    );
    report.set_n(
        "serve.shard_query_ms",
        median_ms(&dur("serve.shard.query_batch")),
        slice,
    );
    report.set_n(
        "serve.shard_self_ms",
        median_ms(&own("serve.shard.query_batch")),
        slice,
    );
    report.set_n(
        "serve.engine_self_ms",
        median_ms(&own("serve.engine.knn")),
        slice,
    );
    if let Sut::Net { clients, .. } = sut {
        report.set_n("net.overhead_us", median_ms(&own("net.knn")) * 1e3, slice);
        net_probes(&clients[0], inputs, report);
        let outside: i64 = own("net.knn").iter().chain(&own("serve.engine.knn")).sum();
        report.notes.push(format!(
            "of net.knn: net + serve.engine self {:.1}%",
            100.0 * outside as f64 / dur("net.knn").iter().sum::<i64>().max(1) as f64
        ));
    }

    check_self_sum(rec.self_sum_frac(first_span), report);
    let share = |names: &[&str], of: &str| {
        let part: i64 = names.iter().flat_map(|n| dur(n)).sum();
        part as f64 / dur(of).iter().sum::<i64>().max(1) as f64
    };
    report.notes.push(format!(
        "of serve.shard.query_batch: core+similarity+reram {:.1}%, mining+kern {:.1}%",
        100.0 * share(&["core.lb_ed_batch"], "serve.shard.query_batch"),
        100.0 * share(&["mining.refine"], "serve.shard.query_batch"),
    ));
}

/// The wire's speed of light and the codec, on one connection.
fn net_probes(client: &simpim_net::NetClient, inputs: &Inputs, report: &mut Report) {
    const PINGS: usize = 512;
    let mut rtt = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        if client.ping().is_err() {
            report.problems.push("ping failed".to_string());
            return;
        }
        rtt.push(t.elapsed().as_nanos() as i64);
    }
    report.set_n("net.ping_rtt_us", median_ms(&rtt) * 1e3, PINGS);

    const ROUNDS: usize = 2_000;
    let request = Envelope {
        request_id: 7,
        trace_id: 1,
        span_id: 1,
        msg: Request::Query {
            k: K as u32,
            timeout_ms: 5_000,
            vector: inputs.pool[0].clone(),
        },
    };
    let response = Envelope {
        request_id: 7,
        trace_id: 1,
        span_id: 1,
        msg: Response::Query(
            inputs.reference.answers[0]
                .iter()
                .map(|&(i, d)| (i as u64, d))
                .collect(),
        ),
    };
    let t = Instant::now();
    for _ in 0..ROUNDS {
        black_box(encode_request(black_box(&request)));
        black_box(encode_response(black_box(&response)));
    }
    report.set_n(
        "net.encode_us",
        t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64,
        ROUNDS,
    );
    let (req_frame, resp_frame) = (encode_request(&request), encode_response(&response));
    let t = Instant::now();
    for _ in 0..ROUNDS {
        black_box(decode_request(black_box(&req_frame[HEADER_LEN..])).is_ok());
        black_box(decode_response(black_box(&resp_frame[HEADER_LEN..])).is_ok());
    }
    report.set_n(
        "net.decode_us",
        t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64,
        ROUNDS,
    );
}

/// Probes that need only the dataset: memory bandwidth beside the
/// brute-force scan, appends, and the metrics registry.
pub fn probes(wl: &Workload, data: &Dataset, queries: &[Vec<f64>], report: &mut Report) {
    // Read bandwidth over the rows themselves: the speed of light for a
    // scan, which streams them once and writes nothing. Eight independent
    // sums keep enough loads in flight without any kernel of the crates.
    // Both sides report their best pass: a bandwidth is a ceiling.
    let flat = data.as_flat();
    const PASSES: usize = 5;
    let best = |secs: &[f64]| secs.iter().copied().fold(f64::MAX, f64::min);
    let read_s: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            let mut acc = [0.0f64; 8];
            for chunk in black_box(flat).chunks_exact(8) {
                for (a, v) in acc.iter_mut().zip(chunk) {
                    *a += v;
                }
            }
            black_box(acc);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let bytes = std::mem::size_of_val(flat) as f64;
    let probe_gbps = bytes / best(&read_s) / 1e9;
    let scan_s: Vec<f64> = queries
        .iter()
        .take(PASSES)
        .map(|q| {
            let t = Instant::now();
            let sum: f64 = data.rows().map(|r| simpim_kern::euclidean_sq(r, q)).sum();
            black_box(sum);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let scan_gbps = bytes / best(&scan_s) / 1e9;
    report.set_n("kern.probe_gbps", probe_gbps, PASSES);
    report.set_n("kern.scan_gbps", scan_gbps, scan_s.len());
    report.set("kern.scan_pct_of_probe", 100.0 * scan_gbps / probe_gbps);

    // Appends into spare rows of an array holding the first rows.
    const APPENDS: usize = 64;
    let base = data.len().min(2_048);
    let head =
        Dataset::from_flat(flat[..base * data.dim()].to_vec(), data.dim()).expect("whole rows");
    let exec = PimExecutor::prepare_euclidean_resident(
        executor_config(wl),
        NormalizedDataset::assert_normalized_ref(&head),
        APPENDS,
    )
    .expect("executor prepares");
    let mut own = OwnedArray::from_executor(&exec, APPENDS);
    let mut append_ns = Vec::with_capacity(APPENDS);
    for row in queries.iter().cycle().take(APPENDS) {
        let floors = quantize_query(&exec, row);
        let t = Instant::now();
        for (region, f) in own.regions.iter().zip(&floors) {
            own.array.append_rows(*region, f).expect("spare row");
        }
        append_ns.push(t.elapsed().as_nanos() as i64);
    }
    report.set_n("reram.append_rows_us", median_ms(&append_ns) * 1e3, APPENDS);

    // The metrics registry, uncontended and from two threads at once.
    const ADDS: u64 = 1_000_000;
    let add = || {
        let t = Instant::now();
        for _ in 0..ADDS {
            simpim_obs::metrics::counter_add("simpim.benchmark.probe", 1);
        }
        t.elapsed().as_nanos() as f64 / ADDS as f64
    };
    report.set_n("obs.counter_add_ns.1t", add(), ADDS as usize);
    let both = std::thread::scope(|s| {
        let other = s.spawn(add);
        let mine = add();
        (mine + other.join().expect("probe thread panicked")) / 2.0
    });
    report.set_n("obs.counter_add_ns.2t", both, 2 * ADDS as usize);
}

/// Writes the spans to `benchmark/out/trace-<workload>.jsonl`.
pub fn write_trace(run: &Run, wl: &Workload, rec: &Recorder) -> std::io::Result<()> {
    fs::create_dir_all(&run.out_dir)?;
    fs::write(
        run.out_dir.join(format!("trace-{}.jsonl", wl.name)),
        rec.to_jsonl(),
    )
}
