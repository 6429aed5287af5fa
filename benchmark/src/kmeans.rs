//! The offline k-means workload: host Lloyd as the reference, then
//! Lloyd-PIM and Yinyang-PIM through `PimAssist`. One operation is one
//! PIM-assisted iteration.

use std::hint::black_box;
use std::time::{Duration, Instant};

use simpim_core::executor::PimExecutor;
use simpim_datasets::generate;
use simpim_mining::kmeans::lloyd::kmeans_lloyd;
use simpim_mining::kmeans::pim::PimAssist;
use simpim_mining::kmeans::yinyang::kmeans_yinyang;
use simpim_mining::kmeans::{init_centers, KmeansConfig, KmeansResult};
use simpim_mining::{Architecture, MiningError, RunReport};
use simpim_reram::AccWidth;
use simpim_similarity::{Dataset, NormalizedDataset};
use simpim_simkit::HostParams;

use crate::knn::{executor_config, set_up_bunch, MIN_SETUPS};
use crate::layers::{self, quantize_query, OwnedArray};
use crate::recorder::Recorder;
use crate::report::Report;
use crate::spec::{Kind, Workload};
use crate::stats::{median, quartiles};
use crate::{sys, Run};

/// Rounds of (Lloyd-PIM, Yinyang-PIM, host Lloyd) a run makes at least.
const MIN_ROUNDS: usize = 4;
/// Iterations replayed layer by layer in a traced run.
const REPLAYS: usize = 7;

type Algorithm =
    fn(&Dataset, &KmeansConfig, Option<&mut PimAssist<'_>>) -> Result<KmeansResult, MiningError>;

/// Prepares the executor and waits for its first bound batch.
fn set_up(wl: &Workload, data: &Dataset, first: &[f64]) -> Result<PimExecutor, String> {
    let mut exec = PimExecutor::prepare_euclidean(
        executor_config(wl),
        NormalizedDataset::assert_normalized_ref(data),
    )
    .map_err(|e| e.to_string())?;
    black_box(exec.lb_ed_batch(first).map_err(|e| e.to_string())?);
    Ok(exec)
}

pub fn run(run: &Run, wl: &Workload) -> Report {
    let Kind::Kmeans { k, max_iters } = wl.kind else {
        unreachable!("kmeans::run is only called for Kind::Kmeans");
    };
    let mut report = Report::default();
    let t = Instant::now();
    let data = generate(&wl.shape.synthetic(run.seed));
    report.set("datasets.generate_s", t.elapsed().as_secs_f64());
    let cfg = KmeansConfig {
        k,
        max_iters,
        seed: run.seed,
    };
    let centers = init_centers(&data, k, cfg.seed);

    let mut setups = Vec::new();
    let open = || set_up(wl, &data, &centers[0]);
    let mut exec = match set_up_bunch(if run.trace { 1 } else { MIN_SETUPS }, &mut setups, open) {
        Ok(e) => e,
        Err(e) => {
            report.problems.push(format!("set-up failed: {e}"));
            return report;
        }
    };
    report.set("core.prepare_s", median(&setups));
    report.notes.push(format!("bound {}", exec.bound_name()));

    let reference = match kmeans_lloyd(&data, &cfg, None) {
        Ok(r) => r,
        Err(e) => {
            report.problems.push(format!("host Lloyd failed: {e}"));
            return report;
        }
    };

    let mut rec = Recorder::new(false);
    let (mut ops_per_s, mut traced) = (Vec::new(), Vec::new());
    let (mut vs_host, mut cpu_vs_host) = (Vec::new(), Vec::new());
    let (mut iter_ms, mut cpu_ms) = (Vec::new(), Vec::new());
    let (mut iter_ms_lloyd, mut iter_ms_yinyang) = (Vec::new(), Vec::new());
    let mut modeled_us_per_op = 0.0;
    let mut peak_rss_mib = 0.0;
    let end = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < end {
        rec.enabled = run.trace && round % 2 == 1;
        let cpu0 = sys::cpu_seconds();
        let (mut pim_iters, mut pim_s) = (0u64, 0.0);
        let algorithms: [(&'static str, Algorithm, &mut Vec<f64>); 2] = [
            ("load.kmeans_lloyd_pim", kmeans_lloyd, &mut iter_ms_lloyd),
            (
                "load.kmeans_yinyang_pim",
                kmeans_yinyang,
                &mut iter_ms_yinyang,
            ),
        ];
        for (name, algorithm, per_algorithm) in algorithms {
            let mut assist = PimAssist::new(&mut exec);
            let t = Instant::now();
            let (_, result) = rec.span(name, None, round as u32, || {
                algorithm(&data, &cfg, Some(&mut assist))
            });
            let secs = t.elapsed().as_secs_f64();
            match result {
                Ok(r) => {
                    report.attempted += r.iterations as u64;
                    if r.assignments != reference.assignments {
                        report.failed += r.iterations as u64;
                    }
                    pim_iters += r.iterations as u64;
                    per_algorithm.push(secs * 1e3 / r.iterations as f64);
                    if name == "load.kmeans_lloyd_pim" {
                        modeled_us_per_op =
                            r.report.total_ms(&HostParams::default()) * 1e3 / r.iterations as f64;
                    }
                }
                Err(e) => {
                    report.attempted += 1;
                    report.failed += 1;
                    report.problems.push(format!("{name}: {e}"));
                }
            }
            pim_s += secs;
        }
        let rate = pim_iters as f64 / pim_s;
        let pim_cpu_ms = (sys::cpu_seconds() - cpu0) * 1e3 / pim_iters.max(1) as f64;
        let traced_round = rec.enabled;
        rec.enabled = false;

        // The host baseline beside every round: plain Lloyd, no bounds.
        let (t, cpu0) = (Instant::now(), sys::cpu_seconds());
        let Ok(host) = kmeans_lloyd(&data, &cfg, None) else {
            report.problems.push("host Lloyd failed".to_string());
            break;
        };
        let host_rate = host.iterations as f64 / t.elapsed().as_secs_f64();
        let host_cpu_ms = (sys::cpu_seconds() - cpu0) * 1e3 / host.iterations as f64;
        if traced_round {
            traced.push(rate);
        } else {
            ops_per_s.push(rate);
            iter_ms.push(pim_s * 1e3 / pim_iters.max(1) as f64);
            cpu_ms.push(pim_cpu_ms);
            vs_host.push(rate / host_rate);
            cpu_vs_host.push(pim_cpu_ms / host_cpu_ms);
        }
        round += 1;
        if round == MIN_ROUNDS {
            // Every run gets this far, so every run has done the same
            // work when its memory is read.
            peak_rss_mib = sys::peak_rss_mib();
        }
    }

    // The bounded metrics are medians of per-round ratios to the host
    // baseline, the absolute numbers quiet quartiles: see `knn::run`. An
    // iteration's latency is the inverse of its rate, so the latency
    // ratio is the inverse of the throughput ratio.
    let vs = median(&vs_host);
    report.set_n("vs_host_scan", vs, vs_host.len());
    report.set_n("read_p50_vs_scan", 1.0 / vs, vs_host.len());
    report.set_n("cpu_vs_scan", median(&cpu_vs_host), cpu_vs_host.len());
    report.set("peak_rss_mb", peak_rss_mib);
    let (rate, ms, cpu) = (
        quartiles(&ops_per_s).1,
        quartiles(&iter_ms).0,
        quartiles(&cpu_ms).0,
    );
    report.notes.push(format!(
        "{round} rounds; quiet quartile: {rate:.2} iterations/s, {ms:.2} ms and {cpu:.2} CPU ms per iteration"
    ));

    if run.trace {
        report.set_n("e2e.ops_per_s", rate, ops_per_s.len());
        report.set_n("e2e.read_p50_ms", ms, iter_ms.len());
        report.set("e2e.cpu_ms_per_op", cpu);
        report.set_n(
            "mining.kmeans_iter_ms.lloyd",
            median(&iter_ms_lloyd),
            iter_ms_lloyd.len(),
        );
        report.set_n(
            "mining.kmeans_iter_ms.yinyang",
            median(&iter_ms_yinyang),
            iter_ms_yinyang.len(),
        );
        report.set("e2e.read_samples", iter_ms.len() as f64);
        report.set(
            "e2e.failed_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        report.set("e2e.modeled_us_per_op", modeled_us_per_op);
        if !traced.is_empty() {
            let untraced = median(&ops_per_s);
            report.set(
                "obs.trace_overhead_frac",
                (untraced - median(&traced)) / untraced,
            );
        }
        replay(&data, &cfg, &centers, &mut exec, &mut rec, &mut report);
        layers::probes(wl, &data, &centers, &mut report);
        if let Err(e) = layers::write_trace(run, wl, &rec) {
            report.problems.push(format!("trace file: {e}"));
        }
        return report;
    }
    drop(exec);
    if let Err(e) = set_up_bunch(MIN_SETUPS, &mut setups, open) {
        report
            .problems
            .push(format!("set-up after the load failed: {e}"));
    }
    report.set_n("setup_s", quartiles(&setups).0, setups.len());
    report
}

/// One iteration, outermost first: `kmeans_lloyd` capped at one
/// iteration, then `PimAssist::refresh` on the same initial centers,
/// then each centre's bound batch, its quantisation and its crossbar
/// pass. The assignment step is the outermost span's self time.
fn replay(
    data: &Dataset,
    cfg: &KmeansConfig,
    centers: &[Vec<f64>],
    exec: &mut PimExecutor,
    rec: &mut Recorder,
    report: &mut Report,
) {
    let one = KmeansConfig {
        max_iters: 1,
        ..*cfg
    };
    let mut own = OwnedArray::from_executor(exec, 0);
    report.set("reram.program_s", own.program_s);
    let first_span = rec.spans().len();
    let (mut modeled_ns, mut batches) = (0.0, 0u64);
    rec.enabled = true;
    simpim_par::with_threads(1, || {
        for r in 0..REPLAYS as u32 {
            let (iter_span, _) = rec.span("mining.kmeans_iter", None, r, || {
                let mut assist = PimAssist::new(exec);
                black_box(kmeans_lloyd(data, &one, Some(&mut assist)).is_ok())
            });
            let (refresh_span, _) = rec.span("core.refresh", iter_span, r, || {
                let mut assist = PimAssist::new(exec);
                let mut sink = RunReport::new(Architecture::ReRamPim);
                black_box(assist.refresh(centers, &mut sink).is_ok())
            });
            for center in centers {
                let (batch_span, batch) = rec.span("core.lb_ed_batch", refresh_span, r, || {
                    exec.lb_ed_batch(center).expect("bound batch")
                });
                modeled_ns += batch.timing.total_ns();
                batches += 1;
                let (_, floors) = rec.span("similarity.quantize", batch_span, r, || {
                    quantize_query(exec, center)
                });
                for (region, q) in own.regions.iter().zip(&floors) {
                    let (_, dots) = rec.span("reram.dot_batch", batch_span, r, || {
                        own.array
                            .dot_batch(*region, q, AccWidth::U64)
                            .expect("dot batch")
                    });
                    black_box(dots);
                }
            }
        }
    });
    rec.enabled = false;

    let ms = |name: &str, of_self: bool| layers::median_ms(&rec.per_span(name, of_self));
    report.set_n("core.refresh_ms", ms("core.refresh", false), REPLAYS);
    report.set("core.lb_ed_batch_ms", ms("core.lb_ed_batch", false));
    report.set("core.lb_ed_self_ms", ms("core.lb_ed_batch", true));
    report.set(
        "similarity.quantize_us",
        ms("similarity.quantize", false) * 1e3,
    );
    report.set("reram.dot_batch_ms", ms("reram.dot_batch", false));
    let dot_s = rec.per_span("reram.dot_batch", false).iter().sum::<i64>() as f64 / 1e9;
    report.set("reram.macs_per_s", (own.cells * batches) as f64 / dot_s);
    report.set("core.modeled_pass_us", modeled_ns / 1e3 / batches as f64);
    layers::check_self_sum(rec.quiet_self_sum_frac(first_span), report);
}
