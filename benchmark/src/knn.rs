//! The four kNN workloads: inputs, the engine under test, and the load
//! loops. Every loop only calls public functions of the crates and times
//! them from outside; every answer is checked against [`Reference`].

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use simpim_core::executor::ExecutorConfig;
use simpim_datasets::{generate, sample_queries};
use simpim_net::{NetClient, NetConfig, NetServer, ReplyHandle, Request};
use simpim_obs::{MetricsSnapshot, TraceCtx};
use simpim_serve::{EngineStats, Pending, ServeConfig, ServeEngine};
use simpim_similarity::Dataset;

use crate::recorder::Recorder;
use crate::reference::{same_answer, LiveModel, Neighbor, Reference, TopK};
use crate::report::Report;
use crate::spec::{Kind, Workload, K, POOL};
use crate::stats::{median, percentile, quartiles, Latencies, Rng};
use crate::{layers, sys, Run};

pub const SHARDS: usize = 2;
const MAX_BATCH: usize = 8;
/// Deep enough that a stall of the host queues requests instead of
/// shedding them: the open loop keeps sending at its rate regardless.
const QUEUE_DEPTH: usize = 1_024;
/// Outstanding operations in the mixed read/write window.
const RW_WINDOW: usize = 8;
const NET_CONNECTIONS: usize = 2;
const NET_OUTSTANDING: usize = 16;
const NET_WINDOW: usize = 512;
/// Deadline given to every query; far above any latency seen, so a
/// deadline expiry is a failure of the system and not of the schedule.
const TIMEOUT: Duration = Duration::from_secs(5);
/// An open-loop send issued later than this after it was due is late.
const LATE: Duration = Duration::from_millis(1);
/// An untraced run sets up at least this often before its load and again
/// after it; a system that opens in milliseconds is opened more often,
/// until [`SETUP_BUDGET`] is spent or [`MAX_SETUPS`] are done (each time).
/// `setup_s` is the quiet quartile of all of them.
pub const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 12;
const SETUP_BUDGET: Duration = Duration::from_millis(600);
/// A run makes at least this many cycles, however slow the host.
const MIN_CYCLES: usize = 4;
/// One-outstanding queries per cycle of a serve workload.
const LATENCY_OPS: usize = 64;
/// `knn_batch` calls of [`MAX_BATCH`] per cycle of a serve workload.
const BATCHES: usize = 8;
/// Operations per cycle of the mixed workload; a flush follows them.
const RW_OPS: usize = 200;
/// Requests per cycle of the net workload: closed loop, then open loop.
const NET_CLOSED_OPS: usize = 1_024;
const NET_OPEN_OPS: usize = 320;
/// Host scans run at least this long before and after every cycle.
const HOST_SLICE: Duration = Duration::from_millis(40);

pub struct Inputs {
    pub data: Dataset,
    pub pool: Vec<Vec<f64>>,
    pub reference: Reference,
    pub generate_s: f64,
}

impl Inputs {
    /// Everything a run feeds the system, from the seed alone.
    pub fn generate(wl: &Workload, seed: u64, keep_distances: bool) -> Self {
        let t = Instant::now();
        let data = generate(&wl.shape.synthetic(seed));
        let pool = sample_queries(&data, POOL, 0.02, seed ^ 0x51ED);
        let generate_s = t.elapsed().as_secs_f64();
        let reference = Reference::build(&data, &pool, K, keep_distances);
        Self {
            data,
            pool,
            reference,
            generate_s,
        }
    }
}

pub fn executor_config(wl: &Workload) -> ExecutorConfig {
    let mut executor = ExecutorConfig::default();
    if let Some(c) = wl.crossbars {
        executor.pim.num_crossbars = c;
    }
    executor
}

/// Every knob that changes behaviour is set here, never by environment.
pub fn serve_config(wl: &Workload) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        replicas: 1,
        max_batch: MAX_BATCH,
        queue_depth: QUEUE_DEPTH,
        executor: executor_config(wl),
        default_timeout: TIMEOUT,
        ..ServeConfig::default()
    }
}

/// The system under test: an engine, behind a server for `Kind::Net`.
/// Dropping it shuts it down (the clients first: fields drop in order).
pub enum Sut {
    Engine(ServeEngine),
    Net {
        clients: Vec<NetClient>,
        server: NetServer,
    },
}

impl Sut {
    /// Opens the system and waits for its first answer.
    fn open(wl: &Workload, inputs: &Inputs) -> Result<Self, String> {
        let engine =
            ServeEngine::open(serve_config(wl), &inputs.data).map_err(|e| e.to_string())?;
        let sut = match wl.kind {
            Kind::Net { .. } => {
                let cfg = NetConfig {
                    window: NET_WINDOW,
                    ..NetConfig::default()
                };
                let server =
                    NetServer::bind("127.0.0.1:0", cfg, engine).map_err(|e| e.to_string())?;
                let clients = (0..NET_CONNECTIONS)
                    .map(|_| NetClient::connect(server.local_addr()).map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                Sut::Net { clients, server }
            }
            _ => Sut::Engine(engine),
        };
        let first = match &sut {
            Sut::Engine(e) => e.knn(&inputs.pool[0], K).map_err(|e| e.to_string())?,
            Sut::Net { clients, .. } => from_wire(
                clients[0]
                    .knn(&inputs.pool[0], K, TIMEOUT)
                    .map_err(|e| e.to_string())?,
            ),
        };
        if !same_answer(&first, &inputs.reference.answers[0]) {
            return Err("first answer after set-up is wrong".to_string());
        }
        Ok(sut)
    }

    pub fn engine(&self) -> &ServeEngine {
        match self {
            Sut::Engine(e) => e,
            Sut::Net { server, .. } => server.engine(),
        }
    }
}

fn from_wire(n: Vec<(u64, f64)>) -> Vec<Neighbor> {
    n.into_iter().map(|(id, d)| (id as usize, d)).collect()
}

/// One cycle of a load loop. Every cycle of a run does the same
/// operations in the same order, so cycles differ only by what the host
/// did to them.
struct Cycle {
    /// Whether the recorder was on.
    traced: bool,
    /// Operations per second of the throughput slice.
    ops_per_s: f64,
    /// Median read latency of the cycle, seconds.
    read_p50_s: f64,
    cpu_ms_per_op: f64,
    /// The host baseline right before and right after: scans per second
    /// and CPU milliseconds per scan.
    host_per_s: f64,
    host_cpu_ms: f64,
}

/// What one cycle's system-driving part did.
struct Slice {
    /// Operations and seconds of the throughput slice.
    ops: u64,
    secs: f64,
    /// Read latencies of the latency slice.
    reads_ns: Vec<u64>,
}

/// What the load loops measured.
#[derive(Default)]
pub struct Load {
    cycles: Vec<Cycle>,
    /// Every read and write latency of the run, for the tails.
    pub reads_ns: Vec<u64>,
    pub writes_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Operations of the system-driving parts (host scans excluded).
    pub ops: u64,
    /// `VmHWM` after [`MIN_CYCLES`] cycles: every run gets that far, so
    /// every run has done the same work when its memory is read.
    pub peak_rss_mib: f64,
    pub sends: u64,
    pub late: u64,
    pub transport_errors: u64,
    /// Operations that came back as an error (not as a wrong answer),
    /// and what the first of them said.
    errors: u64,
    first_error: Option<String>,
}

impl Load {
    fn check(&mut self, got: &[Neighbor], want: &[Neighbor]) {
        if !same_answer(got, want) {
            self.failed += 1;
        }
    }

    fn error(&mut self, ops: u64, what: &dyn std::fmt::Display) {
        self.failed += ops;
        self.errors += ops;
        self.first_error.get_or_insert_with(|| what.to_string());
    }

    /// The system stopped answering (a dead scheduler fails every call at
    /// once): the loops give up instead of counting failures at full speed.
    fn broken(&self) -> bool {
        self.errors > 100
    }

    fn column(&self, traced: bool, f: impl Fn(&Cycle) -> f64) -> Vec<f64> {
        self.cycles
            .iter()
            .filter(|c| c.traced == traced)
            .map(f)
            .collect()
    }
}

/// Brute-force top-k of a batch of queries with `kern::euclidean_sq`,
/// rows split over as many threads as the engine's pool has workers. The
/// host baseline the bounded ratios divide by. Every row is compared
/// with the whole batch while it is in cache, as any plain host scan
/// over a batch would do; the baseline is then bound by arithmetic like
/// the engine, not by the memory bandwidth the host's neighbours share.
pub fn host_scan(data: &Dataset, queries: &[&[f64]], k: usize) -> Vec<Vec<Neighbor>> {
    let threads = simpim_par::thread_count().min(data.len()).max(1);
    let per = data.len().div_ceil(threads);
    let mut tops: Vec<TopK> = queries.iter().map(|_| TopK::new(k)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut tops: Vec<TopK> = queries.iter().map(|_| TopK::new(k)).collect();
                    for i in t * per..((t + 1) * per).min(data.len()) {
                        let row = data.row(i);
                        for (top, q) in tops.iter_mut().zip(queries) {
                            top.offer(i, simpim_kern::euclidean_sq(row, q));
                        }
                    }
                    tops.into_iter().map(TopK::into_sorted).collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (top, part) in tops.iter_mut().zip(h.join().expect("scan thread panicked")) {
                for (id, d) in part {
                    top.offer(id, d);
                }
            }
        }
    });
    tops.into_iter().map(TopK::into_sorted).collect()
}

/// The host baseline around one cycle: scans done, wall and CPU seconds.
#[derive(Default)]
struct HostSlices {
    scans: u64,
    secs: f64,
    cpu_s: f64,
}

impl HostSlices {
    /// Host scans in batches of [`MAX_BATCH`] for at least
    /// [`HOST_SLICE`]. Their answers are checked like any other.
    fn scan(&mut self, inputs: &Inputs, cursor: &mut usize, load: &mut Load) {
        let (start, cpu0) = (Instant::now(), sys::cpu_seconds());
        while start.elapsed() < HOST_SLICE {
            let idx: Vec<usize> = (0..MAX_BATCH).map(|i| (*cursor + i) % POOL).collect();
            *cursor += MAX_BATCH;
            let queries: Vec<&[f64]> = idx.iter().map(|&i| inputs.pool[i].as_slice()).collect();
            let answers = host_scan(&inputs.data, &queries, K);
            for (a, &i) in answers.iter().zip(&idx) {
                load.check(a, &inputs.reference.answers[i]);
            }
            self.scans += MAX_BATCH as u64;
        }
        self.secs += start.elapsed().as_secs_f64();
        self.cpu_s += sys::cpu_seconds() - cpu0;
    }
}

/// Repeats `body` (one cycle's work against the system) between two
/// slices of host scans until `--seconds` have passed. In a traced run
/// every other cycle records spans, so one process gives the traced and
/// the untraced rate.
fn cycles(
    run: &Run,
    inputs: &Inputs,
    rec: &mut Recorder,
    body: &mut dyn FnMut(&mut Recorder, &mut Load) -> Slice,
) -> Load {
    let mut load = Load::default();
    let mut scan_cursor = 0usize;
    let start = Instant::now();
    while (start.elapsed().as_secs_f64() < run.seconds || load.cycles.len() < MIN_CYCLES)
        && !load.broken()
    {
        let mut host = HostSlices::default();
        host.scan(inputs, &mut scan_cursor, &mut load);
        rec.enabled = run.trace && load.cycles.len() % 2 == 1;
        let (cpu0, ops0) = (sys::cpu_seconds(), load.ops);
        let slice = body(rec, &mut load);
        let cpu_s = sys::cpu_seconds() - cpu0;
        let traced = rec.enabled;
        rec.enabled = false;
        host.scan(inputs, &mut scan_cursor, &mut load);
        let mut reads = slice.reads_ns;
        reads.sort_unstable();
        load.cycles.push(Cycle {
            traced,
            ops_per_s: slice.ops as f64 / slice.secs,
            read_p50_s: if reads.is_empty() {
                0.0
            } else {
                percentile(&reads, 0.5) as f64 / 1e9
            },
            cpu_ms_per_op: cpu_s * 1e3 / (load.ops - ops0).max(1) as f64,
            host_per_s: host.scans as f64 / host.secs,
            host_cpu_ms: host.cpu_s * 1e3 / host.scans as f64,
        });
        load.reads_ns.extend(reads);
        if load.cycles.len() == MIN_CYCLES {
            load.peak_rss_mib = sys::peak_rss_mib();
        }
    }
    load
}

/// `Kind::Serve`, one cycle: [`LATENCY_OPS`] queries with one outstanding
/// (`ServeEngine::knn`), then [`BATCHES`] `knn_batch` calls of 8. Closed
/// loop, one client.
fn load_serve(run: &Run, inputs: &Inputs, engine: &ServeEngine, rec: &mut Recorder) -> Load {
    let mut cursor = 0usize;
    cycles(run, inputs, rec, &mut |rec, load| {
        let mut reads_ns = Vec::with_capacity(LATENCY_OPS);
        for _ in 0..LATENCY_OPS {
            let qi = cursor % POOL;
            cursor += 1;
            let t = Instant::now();
            let (_, answer) = rec.span("load.knn", None, qi as u32, || {
                engine.knn(&inputs.pool[qi], K)
            });
            reads_ns.push(t.elapsed().as_nanos() as u64);
            match answer {
                Ok(a) => load.check(&a, &inputs.reference.answers[qi]),
                Err(e) => load.error(1, &e),
            }
        }
        let start = Instant::now();
        for _ in 0..BATCHES {
            let idx: Vec<usize> = (0..MAX_BATCH).map(|i| (cursor + i) % POOL).collect();
            cursor += MAX_BATCH;
            let batch: Vec<Vec<f64>> = idx.iter().map(|&i| inputs.pool[i].clone()).collect();
            let (_, answers) = rec.span("load.knn_batch", None, idx[0] as u32, || {
                engine.knn_batch(&batch, K)
            });
            match answers {
                Ok(answers) => {
                    for (a, &i) in answers.iter().zip(&idx) {
                        load.check(a, &inputs.reference.answers[i]);
                    }
                }
                Err(e) => load.error(MAX_BATCH as u64, &e),
            }
        }
        let ops = (BATCHES * MAX_BATCH) as u64;
        load.attempted += LATENCY_OPS as u64 + ops;
        load.ops += LATENCY_OPS as u64 + ops;
        Slice {
            ops,
            secs: start.elapsed().as_secs_f64(),
            reads_ns,
        }
    })
}

enum Op {
    Knn(usize),
    Insert(usize),
    Delete(usize),
    Flush,
}

enum InFlight {
    Knn(Pending<Vec<Neighbor>>),
    Insert(Pending<usize>),
    Delete(Pending<bool>),
    Flush(Pending<()>),
}

enum Outcome {
    Knn(Vec<Neighbor>),
    Insert(usize),
    Delete(bool),
    Flush,
    Failed,
}

/// The seeded operation mix: 80 % knn, 10 % insert, 10 % delete of an id
/// that is live at that point of the sequence.
struct OpMix {
    rng: Rng,
    live: Vec<usize>,
    next_id: usize,
    insert_rows: usize,
}

impl OpMix {
    fn next(&mut self) -> Op {
        match self.rng.below(10) {
            0 => {
                self.live.push(self.next_id);
                self.next_id += 1;
                Op::Insert(self.rng.below(self.insert_rows))
            }
            1 if self.live.len() > K => {
                let at = self.rng.below(self.live.len());
                Op::Delete(self.live.swap_remove(at))
            }
            _ => Op::Knn(self.rng.below(POOL)),
        }
    }
}

/// `Kind::MixedRw`, one cycle: [`RW_OPS`] operations of the seeded mix
/// with [`RW_WINDOW`] outstanding through the `*_submit` calls, then,
/// once the window has drained, a flush. Answers are logged in
/// submission order and checked against [`LiveModel`] afterwards, so the
/// checking costs the measured loop nothing.
///
/// The flush goes out alone because the scheduler panics on a flush it
/// dequeues while coalescing queries (`engine.rs`, `process_mutation`),
/// and a workload must not fail.
fn load_mixed(run: &Run, inputs: &Inputs, engine: &ServeEngine, rec: &mut Recorder) -> Load {
    let insert_rows = sample_queries(&inputs.data, 64, 0.05, run.seed ^ 0x1A5E);
    let mut mix = OpMix {
        rng: Rng::new(run.seed ^ 0x0F_312),
        live: (0..inputs.data.len()).collect(),
        next_id: inputs.data.len(),
        insert_rows: insert_rows.len(),
    };
    let mut log: Vec<(Op, Outcome)> = Vec::new();
    let mut writes_ns = Vec::new();

    let mut load = cycles(run, inputs, rec, &mut |rec, load| {
        let mut window: VecDeque<(Op, Instant, Option<InFlight>)> = VecDeque::new();
        let mut reads_ns = Vec::new();
        let start = Instant::now();
        let mut issued = 0;
        loop {
            while issued <= RW_OPS && window.len() < RW_WINDOW && !load.broken() {
                let flush = issued == RW_OPS;
                if flush && !window.is_empty() {
                    break;
                }
                let op = if flush { Op::Flush } else { mix.next() };
                issued += 1;
                let submitted = Instant::now();
                let pending = match &op {
                    Op::Knn(q) => engine
                        .knn_submit(&inputs.pool[*q], K, TIMEOUT, TraceCtx::NONE)
                        .map(InFlight::Knn),
                    Op::Insert(r) => engine
                        .insert_submit(&insert_rows[*r], TraceCtx::NONE)
                        .map(InFlight::Insert),
                    Op::Delete(id) => engine
                        .delete_submit(*id, TraceCtx::NONE)
                        .map(InFlight::Delete),
                    Op::Flush => engine.flush_submit(TraceCtx::NONE).map(InFlight::Flush),
                };
                window.push_back((op, submitted, pending.ok()));
            }
            // The engine answers in submission order.
            let Some((op, submitted, pending)) = window.pop_front() else {
                break;
            };
            let name = match op {
                Op::Knn(_) => "load.knn",
                Op::Insert(_) => "load.insert",
                Op::Delete(_) => "load.delete",
                Op::Flush => "load.flush",
            };
            let (_, outcome) = rec.span(name, None, log.len() as u32, || match pending {
                Some(InFlight::Knn(p)) => p.wait().map_or(Outcome::Failed, Outcome::Knn),
                Some(InFlight::Insert(p)) => p.wait().map_or(Outcome::Failed, Outcome::Insert),
                Some(InFlight::Delete(p)) => p.wait().map_or(Outcome::Failed, Outcome::Delete),
                Some(InFlight::Flush(p)) => p.wait().map_or(Outcome::Failed, |()| Outcome::Flush),
                None => Outcome::Failed,
            });
            let ns = submitted.elapsed().as_nanos() as u64;
            match op {
                Op::Knn(_) => reads_ns.push(ns),
                Op::Insert(_) | Op::Delete(_) => writes_ns.push(ns),
                Op::Flush => {}
            }
            if matches!(outcome, Outcome::Failed) {
                load.errors += 1;
                load.first_error
                    .get_or_insert_with(|| format!("{name} was refused or not answered"));
            }
            log.push((op, outcome));
        }
        load.ops += issued as u64;
        Slice {
            ops: issued as u64,
            secs: start.elapsed().as_secs_f64(),
            reads_ns,
        }
    });
    load.writes_ns = writes_ns;

    let mut model = LiveModel::new(&inputs.reference, &inputs.pool, inputs.data.len());
    for (op, outcome) in &log {
        load.attempted += 1;
        let ok = match (op, outcome) {
            (Op::Knn(q), Outcome::Knn(a)) => same_answer(a, &model.top_k(*q, K)),
            (Op::Insert(r), Outcome::Insert(id)) => model.insert(&insert_rows[*r]) == *id,
            (Op::Delete(id), Outcome::Delete(found)) => model.delete(*id) && *found,
            (Op::Flush, Outcome::Flush) => true,
            _ => false,
        };
        if !ok {
            load.failed += 1;
        }
    }
    load
}

fn query_request(vector: &[f64]) -> Request {
    Request::Query {
        k: K as u32,
        timeout_ms: TIMEOUT.as_millis() as u32,
        vector: vector.to_vec(),
    }
}

/// `Kind::Net`, throughput slice: closed loop, one thread,
/// [`NET_CONNECTIONS`] connections with [`NET_OUTSTANDING`] requests
/// outstanding on each, [`NET_CLOSED_OPS`] requests in all.
fn net_closed(
    inputs: &Inputs,
    clients: &[NetClient],
    cursor: &mut usize,
    rec: &mut Recorder,
    load: &mut Load,
) {
    let mut windows: Vec<VecDeque<(ReplyHandle, usize)>> =
        clients.iter().map(|_| VecDeque::new()).collect();
    let mut sent = 0;
    loop {
        let mut waited = false;
        for (client, window) in clients.iter().zip(&mut windows) {
            while sent < NET_CLOSED_OPS && window.len() < NET_OUTSTANDING && !load.broken() {
                let qi = *cursor % POOL;
                *cursor += 1;
                sent += 1;
                match client.submit(query_request(&inputs.pool[qi])) {
                    Ok(h) => window.push_back((h, qi)),
                    Err(e) => {
                        load.error(1, &e);
                        load.transport_errors += 1;
                    }
                }
            }
            if let Some((handle, qi)) = window.pop_front() {
                waited = true;
                let (_, answer) = rec.span("load.net_knn", None, qi as u32, || handle.wait_query());
                match answer {
                    Ok(a) => load.check(&from_wire(a), &inputs.reference.answers[qi]),
                    Err(e) => {
                        load.error(1, &e);
                        load.transport_errors += u64::from(e.is_transport());
                    }
                }
            }
        }
        if !waited {
            return;
        }
    }
}

/// `Kind::Net`, latency slice: open loop. [`NET_OPEN_OPS`] sends follow a
/// seeded Poisson schedule at `rate` per second, alternating over the
/// connections; a collector thread waits for the replies in send order.
/// Latency runs from the time a request was *due*, so a stall delays
/// every request scheduled during it.
fn net_open(
    inputs: &Inputs,
    clients: &[NetClient],
    rate: f64,
    rng: &mut Rng,
    load: &mut Load,
) -> Vec<u64> {
    let (tx, rx) = mpsc::channel::<(ReplyHandle, usize, Instant)>();
    let reference = &inputs.reference;
    let (reads, wrong, errors) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let (mut reads, mut wrong, mut errors) = (Vec::new(), 0u64, Vec::new());
            for (handle, qi, due) in rx {
                match handle.wait_query() {
                    Ok(a) => {
                        reads.push(due.elapsed().as_nanos() as u64);
                        if !same_answer(&from_wire(a), &reference.answers[qi]) {
                            wrong += 1;
                        }
                    }
                    Err(e) => errors.push(e),
                }
            }
            (reads, wrong, errors)
        });
        let mut due = Instant::now();
        for sent in 0..NET_OPEN_OPS {
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let qi = rng.below(POOL);
            load.sends += 1;
            load.late += u64::from(due.elapsed() > LATE);
            match clients[sent % clients.len()].submit(query_request(&inputs.pool[qi])) {
                Ok(h) => tx.send((h, qi, due)).expect("collector alive"),
                Err(e) => {
                    load.error(1, &e);
                    load.transport_errors += 1;
                }
            }
            due += Duration::from_secs_f64(-rng.unit().ln() / rate);
        }
        drop(tx);
        collector.join().expect("collector panicked")
    });
    load.failed += wrong;
    for e in errors {
        load.error(1, &e);
        load.transport_errors += u64::from(e.is_transport());
    }
    reads
}

fn load_net(
    run: &Run,
    inputs: &Inputs,
    clients: &[NetClient],
    rate: f64,
    rec: &mut Recorder,
) -> Load {
    let mut cursor = 0usize;
    let mut rng = Rng::new(run.seed ^ 0xA77_1A1);
    cycles(run, inputs, rec, &mut |rec, load| {
        let start = Instant::now();
        net_closed(inputs, clients, &mut cursor, rec, load);
        let secs = start.elapsed().as_secs_f64();
        let reads_ns = net_open(inputs, clients, rate, &mut rng, load);
        let ops = (NET_CLOSED_OPS + NET_OPEN_OPS) as u64;
        load.attempted += ops;
        load.ops += ops;
        Slice {
            ops: NET_CLOSED_OPS as u64,
            secs,
            reads_ns,
        }
    })
}

fn engine_stats(engine: &ServeEngine) -> EngineStats {
    engine.stats().unwrap_or_default()
}

/// What the engine and the `par` pool counted over the load: stage
/// latencies, coalescing, reprograms, sheds, pool tasks and busy share.
fn engine_metrics(
    report: &mut Report,
    stats0: &EngineStats,
    stats1: &EngineStats,
    par0: &MetricsSnapshot,
    par1: &MetricsSnapshot,
    ops: u64,
) {
    let stage = |name: &str| {
        stats1
            .stage_latency
            .iter()
            .find(|s| s.stage == name)
            .map_or(0.0, |s| s.p50_ns as f64 / 1e3)
    };
    report.set("serve.queue_p50_us", stage("queue"));
    report.set("serve.pass_p50_us", stage("pass"));
    report.set("serve.merge_p50_us", stage("merge"));
    report.set("serve.mutation_p50_us", stage("mutation"));
    let batches = stats1.batches - stats0.batches;
    report.set(
        "serve.batch_mean",
        (stats1.queries - stats0.queries) as f64 / batches.max(1) as f64,
    );
    let reprograms: u64 = stats1
        .shards
        .iter()
        .flat_map(|s| &s.replicas)
        .map(|r| r.reprograms)
        .sum();
    report.set("serve.reprograms", reprograms as f64);
    report.set("serve.shed", (stats1.overloaded + stats1.sheds) as f64);

    let delta =
        |name: &str| (par1.counter(name).unwrap_or(0) - par0.counter(name).unwrap_or(0)) as f64;
    let (busy, idle) = (delta("simpim.par.busy_ns"), delta("simpim.par.idle_ns"));
    report.set(
        "par.tasks_per_op",
        delta("simpim.par.tasks") / ops.max(1) as f64,
    );
    report.set("par.busy_frac", busy / (busy + idle).max(1.0));
}

/// Runs one kNN workload end to end and fills the report.
pub fn run(run: &Run, wl: &Workload) -> Report {
    let mut report = Report::default();
    let inputs = Inputs::generate(wl, run.seed, wl.kind == Kind::MixedRw);
    report.set("datasets.generate_s", inputs.generate_s);

    // Set-up is timed in two bunches, one before the load and one after
    // it, so that one slow spell of the host cannot colour all samples.
    let mut setups = Vec::new();
    let open = || Sut::open(wl, &inputs);
    let sut = match set_up_bunch(if run.trace { 1 } else { MIN_SETUPS }, &mut setups, open) {
        Ok(s) => s,
        Err(e) => {
            report.problems.push(format!("set-up failed: {e}"));
            return report;
        }
    };
    report.set("serve.open_s", median(&setups));

    let mut rec = Recorder::new(false);
    let par0 = simpim_obs::metrics::snapshot();
    let stats0 = engine_stats(sut.engine());
    let mut load = match (&sut, wl.kind) {
        (Sut::Engine(e), Kind::MixedRw) => load_mixed(run, &inputs, e, &mut rec),
        (Sut::Engine(e), _) => load_serve(run, &inputs, e, &mut rec),
        (Sut::Net { clients, .. }, Kind::Net { rate }) => {
            load_net(run, &inputs, clients, rate, &mut rec)
        }
        (Sut::Net { .. }, _) => unreachable!("a server is only opened for Kind::Net"),
    };
    let stats1 = engine_stats(sut.engine());
    let par1 = simpim_obs::metrics::snapshot();

    report.attempted = load.attempted;
    report.failed = load.failed;
    if load.failed > 0 {
        report.notes.push(format!(
            "FAILED {} operation(s): {} wrong answer(s), {} error(s), the first: {}",
            load.failed,
            load.failed - load.errors,
            load.errors,
            load.first_error.as_deref().unwrap_or("-")
        ));
    }
    // Other tenants of the host slow it down by a fifth and more for
    // seconds at a time, so no wall-clock number repeats within a useful
    // bound. What repeats is the ratio to the host baseline run right
    // before and after every cycle: the bounded metrics are the medians
    // of those per-cycle ratios.
    let ratio = |f: &dyn Fn(&Cycle) -> f64| median(&load.column(false, f));
    report.set_n(
        "vs_host_scan",
        ratio(&|c| c.ops_per_s / c.host_per_s),
        load.cycles.len(),
    );
    report.set_n(
        "read_p50_vs_scan",
        ratio(&|c| c.read_p50_s * c.host_per_s),
        load.reads_ns.len(),
    );
    report.set_n(
        "cpu_vs_scan",
        ratio(&|c| c.cpu_ms_per_op / c.host_cpu_ms),
        load.cycles.len(),
    );
    report.set("peak_rss_mb", load.peak_rss_mib);
    // The absolute numbers: every cycle does identical work and the host
    // only ever slows one down, so the quiet quartile of the cycles is
    // the estimate of the undisturbed speed.
    let rates = load.column(false, |c| c.ops_per_s);
    let (ops_per_s, read_p50_ms, cpu_ms_per_op) = (
        quartiles(&rates).1,
        quartiles(&load.column(false, |c| c.read_p50_s * 1e3)).0,
        quartiles(&load.column(false, |c| c.cpu_ms_per_op)).0,
    );
    let reads = Latencies::new(std::mem::take(&mut load.reads_ns));
    let writes = Latencies::new(std::mem::take(&mut load.writes_ns));
    let (vs_q1, vs_q3) = quartiles(&load.column(false, |c| c.ops_per_s / c.host_per_s));
    report.notes.push(format!(
        "{} cycles; quiet quartile: {ops_per_s:.1} ops/s, read p50 {read_p50_ms:.3} ms, \
         {cpu_ms_per_op:.3} CPU ms/op; host scan {:.1} queries/s on {} thread(s); \
         vs_host_scan quartiles over the cycles {vs_q1:.3}..{vs_q3:.3}",
        load.cycles.len(),
        median(&load.column(false, |c| c.host_per_s)),
        simpim_par::thread_count()
    ));

    if run.trace {
        report.set_n("e2e.ops_per_s", ops_per_s, rates.len());
        report.set_n("e2e.read_p50_ms", read_p50_ms, reads.len());
        report.set("e2e.cpu_ms_per_op", cpu_ms_per_op);
        report.set_n("e2e.read_p99_ms", reads.p99_ms(), reads.len());
        report.set("e2e.read_samples", reads.len() as f64);
        report.set_n("e2e.write_p50_ms", writes.p50_ms(), writes.len());
        report.set_n("e2e.write_p99_ms", writes.p99_ms(), writes.len());
        report.set("e2e.write_samples", writes.len() as f64);
        report.set(
            "e2e.failed_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        let traced = load.column(true, |c| c.ops_per_s);
        report.set(
            "obs.trace_overhead_frac",
            (median(&rates) - median(&traced)) / median(&rates),
        );
        report.set("net.late_frac", load.late as f64 / load.sends.max(1) as f64);
        report.set("net.transport_errors", load.transport_errors as f64);

        engine_metrics(&mut report, &stats0, &stats1, &par0, &par1, load.ops);

        // The replay compares against the reference over the initial
        // rows, so a system whose rows the load changed is opened afresh.
        let sut = if wl.kind == Kind::MixedRw {
            drop(sut);
            match Sut::open(wl, &inputs) {
                Ok(s) => s,
                Err(e) => {
                    report
                        .problems
                        .push(format!("reopening for the replay failed: {e}"));
                    return report;
                }
            }
        } else {
            sut
        };
        layers::replay_knn(wl, &inputs, &sut, &mut rec, &mut report);
        layers::probes(wl, &inputs.data, &inputs.pool, &mut report);
        if let Err(e) = layers::write_trace(run, wl, &rec) {
            report.problems.push(format!("trace file: {e}"));
        }
        return report;
    }
    drop(sut);
    if let Err(e) = set_up_bunch(MIN_SETUPS, &mut setups, open) {
        report
            .problems
            .push(format!("set-up after the load failed: {e}"));
    }
    report.set_n("setup_s", quartiles(&setups).0, setups.len());
    report
}

/// Calls `open` at least `at_least` times (more when it returns in
/// milliseconds, within [`SETUP_BUDGET`] and [`MAX_SETUPS`]), appends the
/// seconds each call took, and returns the last system opened; the ones
/// before it are dropped before the next is opened.
pub fn set_up_bunch<T>(
    at_least: usize,
    seconds: &mut Vec<f64>,
    mut open: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let mut done = 0;
    loop {
        let t = Instant::now();
        let sut = open()?;
        seconds.push(t.elapsed().as_secs_f64());
        done += 1;
        let more = at_least > 1 && done < MAX_SETUPS && start.elapsed() < SETUP_BUDGET;
        if done >= at_least && !more {
            return Ok(sut);
        }
    }
}
