//! The benchmark's vocabulary: workloads and metrics, each declared
//! once. `BENCHMARK.json` at the repo root is `--describe`'s output, so
//! the driver's contract and the program cannot drift apart.

use simpim_datasets::SyntheticConfig;
use simpim_obs::Json;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 12;
/// A seed never used while sizing the workloads; a claim made with the
/// default seed must also hold on this one.
pub const HELD_OUT_SEED: u64 = 4242;
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;
/// Neighbours asked for by every kNN workload.
pub const K: usize = 10;
/// Distinct queries per run. Every query a workload sends is one of
/// these, so one brute-force pass gives the reference for every answer.
pub const POOL: usize = 256;
/// Queries of the pool replayed layer by layer in a traced run.
pub const SLICE: usize = 64;

/// Shape of a generated dataset (`simpim_datasets::SyntheticConfig`
/// without its seed, which comes from `--seed`).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub d: usize,
    pub clusters: usize,
    pub cluster_std: f64,
    pub uniformity: f64,
}

impl Shape {
    /// The generator's configuration for this shape and a run's seed.
    pub fn synthetic(&self, seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            n: self.n,
            d: self.d,
            clusters: self.clusters,
            cluster_std: self.cluster_std,
            stat_uniformity: self.uniformity,
            seed,
        }
    }
}

/// What drives the load; the loops are in `knn.rs` and `kmeans.rs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// In-process `ServeEngine`, one client: `knn` with one outstanding,
    /// then `knn_batch`.
    Serve,
    /// In-process `ServeEngine`, one client, a window over the `*_submit`
    /// calls: 80 % knn / 10 % insert / 10 % delete, then a flush.
    MixedRw,
    /// `NetServer` on loopback: closed loop over 2 connections, then open
    /// loop at `rate` requests per second.
    Net { rate: f64 },
    /// Offline k-means: host Lloyd as reference and baseline, Lloyd-PIM
    /// and Yinyang-PIM through `PimAssist`.
    Kmeans { k: usize, max_iters: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub kind: Kind,
    /// `executor.pim.num_crossbars`; `None` keeps the Table 5 default.
    pub crossbars: Option<usize>,
}

const MSD: Shape = Shape {
    n: 20_000,
    d: 420,
    clusters: 48,
    cluster_std: 0.05,
    uniformity: 0.05,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve-pruned",
        why: "MSD-shaped 20000x420, LB_PIM-ED prunes ~99.9%: the simulated crossbar pass (similarity+reram+core) dominates, mining/kern do little",
        shape: MSD,
        kind: Kind::Serve,
        crossbars: None,
    },
    Workload {
        name: "serve-dense",
        why: "GIST-shaped 10000x960 on 512 crossbars, LB_PIM-FNN prunes only a tenth: mining refine + kern distances dominate, a reram gain must not show here",
        shape: Shape {
            n: 10_000,
            d: 960,
            clusters: 512,
            cluster_std: 0.08,
            uniformity: 0.5,
        },
        kind: Kind::Serve,
        crossbars: Some(512),
    },
    Workload {
        name: "serve-mixed-rw",
        why: "serve-pruned's engine under 80/10/10 knn/insert/delete and a flush every 200 ops: a read-path gain paid for by writes (barriers, appends, tombstones, reprogram) shows here",
        shape: MSD,
        kind: Kind::MixedRw,
        crossbars: None,
    },
    Workload {
        name: "net-small",
        why: "Year-shaped 2000x90 behind NetServer on loopback: engine work is tiny, so net wire/threads and serve queue/scheduler/obs overhead dominate",
        shape: Shape {
            n: 2_000,
            d: 90,
            clusters: 16,
            cluster_std: 0.05,
            uniformity: 0.1,
        },
        kind: Kind::Net { rate: 800.0 },
        crossbars: None,
    },
    Workload {
        name: "offline-kmeans",
        why: "NUS-WIDE-shaped 4000x500 k-means (k=64): the paper's second task drives core/reram through PimAssist::refresh with N*k bounds; serve and net are not involved",
        shape: Shape {
            n: 4_000,
            d: 500,
            clusters: 48,
            cluster_std: 0.06,
            uniformity: 0.1,
        },
        kind: Kind::Kmeans {
            k: 64,
            max_iters: 5,
        },
        crossbars: None,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// `--smoke`: an eighth of the rows, every check still on.
    pub fn shrunk(&self) -> Workload {
        let mut w = *self;
        w.shape.n = (w.shape.n / 8).max(500);
        if let Kind::Kmeans { k, max_iters } = w.kind {
            w.kind = Kind::Kmeans {
                k: k / 4,
                max_iters,
            };
        }
        w
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// Which clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Clock {
    Wall,
    Cpu,
    Modeled,
    /// A count or a ratio of counts.
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Cpu => "cpu",
            Clock::Modeled => "modeled",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Relative worsening that counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Cpu, Modeled, Wall};

/// What a user of the system sees; printed by an untraced run on every
/// workload, and never 0. Three of the five are ratios to the host
/// baseline run beside every cycle (see `knn::run`): on a shared host
/// only those repeat within a bound worth having.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Wall, Lower, 0.25),
    e2e("vs_host_scan", "ratio", Wall, Higher, 0.25),
    e2e("read_p50_vs_scan", "ratio", Wall, Lower, 0.25),
    e2e("cpu_vs_scan", "ratio", Cpu, Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Count, Lower, 0.10),
];

/// One layer each; printed by a traced run. A layer that is not on a
/// workload's path reads 0 there. The `e2e.*` rows are end-to-end
/// numbers that cannot carry a relative bound on every workload: the
/// absolute rates and latencies (too noisy on a shared host), tails that
/// need 1 000 samples, write latency, exact or zero-valued counts.
pub const PER_LAYER: [Metric; 53] = [
    layer("datasets.generate_s", "s", Wall, Lower),
    layer("similarity.quantize_us", "us", Wall, Lower),
    layer("kern.probe_gbps", "GB/s", Wall, Higher),
    layer("kern.scan_gbps", "GB/s", Wall, Higher),
    layer("kern.scan_pct_of_probe", "%", Wall, Higher),
    layer("reram.program_s", "s", Wall, Lower),
    layer("reram.dot_batch_ms", "ms", Wall, Lower),
    layer("reram.macs_per_s", "1/s", Wall, Higher),
    layer("reram.append_rows_us", "us", Wall, Lower),
    layer("core.prepare_s", "s", Wall, Lower),
    layer("core.lb_ed_batch_ms", "ms", Wall, Lower),
    layer("core.lb_ed_self_ms", "ms", Wall, Lower),
    layer("core.modeled_pass_us", "us", Modeled, Lower),
    layer("core.refresh_ms", "ms", Wall, Lower),
    layer("mining.refine_ms", "ms", Wall, Lower),
    layer("mining.refined_per_query", "count", Count, Lower),
    layer("mining.pruned_frac", "ratio", Count, Higher),
    layer("mining.merge_us", "us", Wall, Lower),
    layer("mining.kmeans_iter_ms.lloyd", "ms", Wall, Lower),
    layer("mining.kmeans_iter_ms.yinyang", "ms", Wall, Lower),
    layer("serve.open_s", "s", Wall, Lower),
    layer("serve.shard_query_ms", "ms", Wall, Lower),
    layer("serve.shard_self_ms", "ms", Wall, Lower),
    layer("serve.engine_self_ms", "ms", Wall, Lower),
    layer("serve.queue_p50_us", "us", Wall, Lower),
    layer("serve.pass_p50_us", "us", Wall, Lower),
    layer("serve.merge_p50_us", "us", Wall, Lower),
    layer("serve.mutation_p50_us", "us", Wall, Lower),
    layer("serve.batch_mean", "count", Count, Higher),
    layer("serve.reprograms", "count", Count, Lower),
    layer("serve.shed", "count", Count, Lower),
    layer("net.ping_rtt_us", "us", Wall, Lower),
    layer("net.encode_us", "us", Wall, Lower),
    layer("net.decode_us", "us", Wall, Lower),
    layer("net.overhead_us", "us", Wall, Lower),
    layer("net.late_frac", "ratio", Count, Lower),
    layer("net.transport_errors", "count", Count, Lower),
    layer("par.tasks_per_op", "count", Count, Lower),
    layer("par.busy_frac", "ratio", Wall, Higher),
    layer("obs.counter_add_ns.1t", "ns", Wall, Lower),
    layer("obs.counter_add_ns.2t", "ns", Wall, Lower),
    layer("obs.trace_overhead_frac", "ratio", Wall, Lower),
    layer("trace.self_sum_frac", "ratio", Wall, Lower),
    layer("e2e.ops_per_s", "1/s", Wall, Higher),
    layer("e2e.read_p50_ms", "ms", Wall, Lower),
    layer("e2e.cpu_ms_per_op", "ms", Cpu, Lower),
    layer("e2e.read_p99_ms", "ms", Wall, Lower),
    layer("e2e.read_samples", "count", Count, Higher),
    layer("e2e.write_p50_ms", "ms", Wall, Lower),
    layer("e2e.write_p99_ms", "ms", Wall, Lower),
    layer("e2e.write_samples", "count", Count, Higher),
    layer("e2e.failed_frac", "ratio", Count, Lower),
    layer("e2e.modeled_us_per_op", "us", Modeled, Lower),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// `BENCHMARK.json`, exactly the keys the driver's contract lists.
pub fn describe() -> Json {
    let better = |b: Better| {
        Json::Str(
            match b {
                Lower => "lower",
                Higher => "higher",
            }
            .to_string(),
        )
    };
    let s = |v: &str| Json::Str(v.to_string());
    Json::obj([
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.bound.expect("end-to-end bound"))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", better(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
