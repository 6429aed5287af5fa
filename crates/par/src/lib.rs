//! Deterministic data-parallel execution layer.
//!
//! Every hot loop in the workspace that fans out across cores goes through
//! this crate, and every entry point obeys the same two rules:
//!
//! 1. **Fixed chunk boundaries.** Work is split into chunks whose sizes
//!    depend only on the problem size and the call site's chunk constant —
//!    never on the worker count. `SIMPIM_THREADS=1` and `=64` produce the
//!    same chunks.
//! 2. **Ordered reduction.** Chunk results are handed back (and merged by
//!    callers) in chunk-index order, regardless of which worker finished
//!    first.
//!
//! Together these make every parallelized result bit-identical to the
//! single-threaded run: each chunk performs exactly the arithmetic the
//! serial loop would have performed over the same index range, and the
//! merge replays the serial order. The thread count only decides *which
//! OS thread* executes a chunk, which no computation observes.
//!
//! The pool is dependency-free: workers are `std::thread::scope` scoped
//! threads pulling chunk indices from an atomic cursor (cheap work
//! stealing — an idle worker grabs the next unclaimed chunk). Pool
//! utilization is exported through `simpim-obs` as `simpim.par.*` metrics.
//!
//! The worker count comes from, in priority order: the programmatic
//! [`set_thread_override`] (used by tests and benches), the
//! `SIMPIM_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Upper bound on workers; far above any sane `SIMPIM_THREADS`.
const MAX_THREADS: usize = 256;

/// 0 = no override; otherwise the override value itself.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SIMPIM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(0)
    })
}

/// Number of workers a parallel call may use right now.
///
/// Priority: [`set_thread_override`] > `SIMPIM_THREADS` > detected cores.
/// Always at least 1, at most 256. This value never changes chunk
/// boundaries — only how many scoped workers pull from the chunk queue.
pub fn thread_count() -> usize {
    let ovr = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if ovr >= 1 {
        return ovr.min(MAX_THREADS);
    }
    let env = env_threads();
    if env >= 1 {
        return env.min(MAX_THREADS);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Programmatically pins the worker count (`None` restores the
/// `SIMPIM_THREADS` / auto-detect behavior). Used by the determinism
/// proptests and the `parallel_smoke` bench to compare thread counts
/// within one process without racing on the environment.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Runs `f` with the worker count pinned to `n`, restoring the previous
/// override afterwards (even on panic, via a drop guard).
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.swap(n.max(1), Ordering::Relaxed));
    f()
}

/// Splits `0..len` into chunks of `chunk` elements (the last one ragged).
/// Pure function of `(len, chunk)` — the worker count never leaks in, so
/// chunk boundaries (and therefore results) are thread-count invariant.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    let mut out = Vec::with_capacity(len.div_ceil(chunk));
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

/// A unit of work handed to [`join_all`]: an owned closure over borrowed
/// state (disjoint `&mut` chunks, shard handles, …).
pub type Job<'s, T> = Box<dyn FnOnce() -> T + Send + 's>;

/// Executes the jobs on the pool and returns their results **in job
/// order** (ordered reduction). Jobs are claimed via an atomic cursor, so
/// an idle worker steals the next unclaimed job; which worker runs a job
/// is the only nondeterminism, and it is unobservable in the results.
///
/// With one worker (or one job) everything runs inline on the caller in
/// job order — the exact serial loop.
pub fn join_all<'s, T: Send + 's>(jobs: Vec<Job<'s, T>>) -> Vec<T> {
    let n_jobs = jobs.len();
    let workers = thread_count().min(n_jobs);
    stats::record_call(n_jobs, workers);
    if workers <= 1 {
        if model::capture_enabled() {
            return model::run_inline_timed(jobs);
        }
        return jobs.into_iter().map(|j| j()).collect();
    }

    let start = Instant::now();
    let slots: Vec<Mutex<Option<Job<'s, T>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(0);
    let fair_share = n_jobs.div_ceil(workers);

    let mut collected: Vec<(usize, T)> = Vec::with_capacity(n_jobs);
    let mut total_busy = 0u128;
    let mut total_steals = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let slots = &slots;
                let cursor = &cursor;
                s.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    let mut busy = 0u128;
                    let mut pulled = 0usize;
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n_jobs {
                            break;
                        }
                        let job = slots[idx]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .take()
                            .expect("job claimed twice");
                        pulled += 1;
                        let t0 = Instant::now();
                        local.push((idx, job()));
                        busy += t0.elapsed().as_nanos();
                    }
                    let steals = pulled.saturating_sub(fair_share) as u64;
                    (local, busy, steals)
                })
            })
            .collect();
        for h in handles {
            let (local, busy, steals) = h.join().expect("simpim-par worker panicked");
            collected.extend(local);
            total_busy += busy;
            total_steals += steals;
        }
    });
    let wall = start.elapsed().as_nanos();
    stats::record_dispatch(workers, wall, total_busy, total_steals);

    // Ordered reduction: results come back in job-index order no matter
    // which worker produced them.
    collected.sort_unstable_by_key(|&(idx, _)| idx);
    debug_assert_eq!(collected.len(), n_jobs);
    collected.into_iter().map(|(_, t)| t).collect()
}

/// Maps `f` over fixed `chunk`-sized ranges of `0..len`, returning the
/// per-chunk results in chunk order. `chunk` must be a call-site constant
/// (or a pure function of the problem size) — never derive it from
/// [`thread_count`], or bit-identity across thread counts is lost.
pub fn map_chunks<T, F>(len: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(len, chunk);
    stats::record_chunks(&ranges);
    let f = &f;
    join_all(
        ranges
            .into_iter()
            .map(|r| Box::new(move || f(r)) as Job<'_, T>)
            .collect(),
    )
}

/// Schedule capture + replay: measure what the chunking *admits* on `w`
/// workers, independent of how many cores the measuring host has.
///
/// [`model::capture`] records, for every top-level dispatch executed at one
/// worker (pin with [`with_threads`]`(1, …)`), the per-job durations in
/// job order. [`model::modeled_wall_ns`] then replays those durations through
/// the pool's scheduling discipline — jobs claimed in order by the
/// earliest-free worker, exactly the atomic-cursor behavior of
/// [`join_all`] — on `w` virtual workers. Time spent outside dispatches
/// is carried over as-is (it stays serial at any thread count).
///
/// The single-worker run is the right source of truth for job costs:
/// each job's duration is clean wall time, not inflated by preemption
/// when workers outnumber cores. The `parallel_smoke` bench uses this to
/// report a speedup that is meaningful even on a single-core CI box.
pub mod model {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicBool;

    static CAPTURING: AtomicBool = AtomicBool::new(false);

    thread_local! {
        /// Dispatch nesting depth — only depth-0 dispatches are logged,
        /// so a dispatch issued from inside another dispatch's job does
        /// not double-count its busy time.
        static DEPTH: Cell<usize> = const { Cell::new(0) };
    }

    fn log() -> &'static Mutex<Vec<Vec<u64>>> {
        static LOG: OnceLock<Mutex<Vec<Vec<u64>>>> = OnceLock::new();
        LOG.get_or_init(|| Mutex::new(Vec::new()))
    }

    pub(crate) fn capture_enabled() -> bool {
        CAPTURING.load(Ordering::Relaxed)
    }

    pub(crate) fn run_inline_timed<'s, T: Send + 's>(jobs: Vec<Job<'s, T>>) -> Vec<T> {
        let top = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v == 0
        });
        let mut ns = Vec::with_capacity(jobs.len());
        let out = jobs
            .into_iter()
            .map(|j| {
                let t0 = Instant::now();
                let r = j();
                ns.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                r
            })
            .collect();
        DEPTH.with(|d| d.set(d.get() - 1));
        if top {
            log().lock().unwrap_or_else(|e| e.into_inner()).push(ns);
        }
        out
    }

    /// Runs `f` with schedule capture enabled and returns its result plus
    /// the per-dispatch job durations (nanoseconds, job order). Only
    /// dispatches that ran inline (worker count 1) are captured — wrap
    /// `f` in [`with_threads`]`(1, …)` for a complete log. The capture
    /// buffer is process-global; callers serialize as they do for
    /// [`set_thread_override`].
    pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<Vec<u64>>) {
        let was = CAPTURING.swap(true, Ordering::Relaxed);
        log().lock().unwrap_or_else(|e| e.into_inner()).clear();
        let out = f();
        CAPTURING.store(was, Ordering::Relaxed);
        let dispatches = std::mem::take(&mut *log().lock().unwrap_or_else(|e| e.into_inner()));
        (out, dispatches)
    }

    /// Makespan of one dispatch's jobs replayed on `workers` lanes with
    /// the pool's discipline: jobs are claimed in order, each by the
    /// worker that frees up first.
    pub fn simulated_makespan_ns(job_ns: &[u64], workers: usize) -> u64 {
        let mut free = vec![0u64; workers.max(1)];
        for &ns in job_ns {
            let lane = free
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(i, _)| i)
                .expect("at least one lane");
            free[lane] += ns;
        }
        free.into_iter().max().unwrap_or(0)
    }

    /// Models the wall time of a captured single-worker run replayed on
    /// `workers` workers: serial time outside dispatches is unchanged;
    /// each dispatch contributes its simulated makespan.
    pub fn modeled_wall_ns(serial_wall_ns: u64, dispatches: &[Vec<u64>], workers: usize) -> u64 {
        let busy: u64 = dispatches.iter().flatten().sum();
        let outside = serial_wall_ns.saturating_sub(busy);
        outside
            + dispatches
                .iter()
                .map(|d| simulated_makespan_ns(d, workers))
                .sum::<u64>()
    }
}

/// Pool-utilization metrics, exported through the `simpim-obs` registry
/// under `simpim.par.*` so `simpim report` can show them next to the
/// mining/executor counters.
mod stats {
    use std::ops::Range;

    pub(crate) fn record_call(tasks: usize, workers: usize) {
        simpim_obs::metrics::counter_add("simpim.par.calls", 1);
        simpim_obs::metrics::counter_add("simpim.par.tasks", tasks as u64);
        simpim_obs::metrics::gauge_set("simpim.par.threads", super::thread_count() as f64);
        let _ = workers;
    }

    pub(crate) fn record_chunks(ranges: &[Range<usize>]) {
        if let Some(first) = ranges.first() {
            simpim_obs::metrics::histogram_record("simpim.par.chunk_size", first.len() as u64);
        }
    }

    pub(crate) fn record_dispatch(workers: usize, wall_ns: u128, busy_ns: u128, steals: u64) {
        let idle = (wall_ns * workers as u128).saturating_sub(busy_ns);
        simpim_obs::metrics::counter_add("simpim.par.dispatches", 1);
        simpim_obs::metrics::counter_add(
            "simpim.par.busy_ns",
            busy_ns.min(u64::MAX as u128) as u64,
        );
        simpim_obs::metrics::counter_add("simpim.par.idle_ns", idle.min(u64::MAX as u128) as u64);
        simpim_obs::metrics::counter_add("simpim.par.steals", steals);
        simpim_obs::metrics::histogram_record("simpim.par.workers", workers as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The override and the metrics registry are process-global; tests
    /// that touch them take this lock so the harness's own parallelism
    /// doesn't interleave overrides.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn chunk_ranges_are_thread_invariant_and_cover() {
        for len in [0usize, 1, 7, 64, 65, 1000] {
            for chunk in [1usize, 3, 64, 4096] {
                let ranges = chunk_ranges(len, chunk);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(
                    flat,
                    (0..len).collect::<Vec<_>>(),
                    "len={len} chunk={chunk}"
                );
                for r in &ranges[..ranges.len().saturating_sub(1)] {
                    assert_eq!(r.len(), chunk.max(1));
                }
            }
        }
    }

    #[test]
    fn map_chunks_matches_serial_for_all_thread_counts() {
        let _g = test_lock();
        let data: Vec<u64> = (0..10_000).map(|i| (i * 2654435761u64) >> 7).collect();
        let serial: Vec<u64> = chunk_ranges(data.len(), 97)
            .into_iter()
            .map(|r| {
                data[r]
                    .iter()
                    .copied()
                    .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
            })
            .collect();
        for threads in [1usize, 2, 3, 8] {
            let par = with_threads(threads, || {
                map_chunks(data.len(), 97, |r| {
                    data[r]
                        .iter()
                        .copied()
                        .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
                })
            });
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn join_all_preserves_job_order() {
        let _g = test_lock();
        let results = with_threads(8, || {
            join_all(
                (0..100usize)
                    .map(|i| Box::new(move || i * i) as Job<'_, usize>)
                    .collect(),
            )
        });
        assert_eq!(results, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn join_all_borrows_disjoint_mut_chunks() {
        let _g = test_lock();
        let mut data = vec![0u32; 1000];
        let jobs: Vec<Job<'_, usize>> = data
            .chunks_mut(128)
            .enumerate()
            .map(|(ci, chunk)| {
                Box::new(move || {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (ci * 1000 + j) as u32;
                    }
                    ci
                }) as Job<'_, usize>
            })
            .collect();
        let ids = with_threads(4, || join_all(jobs));
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert_eq!(data[0], 0);
        assert_eq!(data[128], 1000);
        assert_eq!(data[999], 7 * 1000 + (999 - 7 * 128) as u32);
    }

    #[test]
    fn thread_override_wins_and_restores() {
        let _g = test_lock();
        let before = thread_count();
        let inside = with_threads(3, thread_count);
        assert_eq!(inside, 3);
        assert_eq!(thread_count(), before);
    }

    #[test]
    fn schedule_model_replays_capture() {
        let _g = test_lock();
        let (sums, dispatches) =
            model::capture(|| with_threads(1, || map_chunks(1000, 100, |r| r.len())));
        assert_eq!(sums.iter().sum::<usize>(), 1000);
        assert_eq!(dispatches.len(), 1);
        assert_eq!(dispatches[0].len(), 10);
        // In-order claiming by the earliest-free lane.
        assert_eq!(model::simulated_makespan_ns(&[1; 10], 5), 2);
        assert_eq!(model::simulated_makespan_ns(&[3, 1, 1, 1], 2), 3);
        // Serial residue outside dispatches is carried over unchanged.
        assert_eq!(model::modeled_wall_ns(100, &[vec![10, 10]], 2), 90);
    }

    #[test]
    fn pool_metrics_are_recorded() {
        let _g = test_lock();
        simpim_obs::metrics::reset();
        with_threads(4, || {
            map_chunks(1024, 64, |r| r.len());
        });
        let snap = simpim_obs::metrics::snapshot();
        assert!(snap.counter("simpim.par.calls").unwrap_or(0) >= 1);
        assert!(snap.counter("simpim.par.tasks").unwrap_or(0) >= 16);
        assert!(snap.counter("simpim.par.dispatches").unwrap_or(0) >= 1);
    }
}
