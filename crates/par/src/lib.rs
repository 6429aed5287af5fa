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
//! The pool is dependency-free and persistent: helper threads
//! `simpim-par-{i}` are started the first time a dispatch may use them and
//! then sleep on a condvar between dispatches. A dispatch publishes its
//! jobs; the calling thread and the helpers that wake pull job indices
//! from one atomic cursor (cheap work stealing — whoever is free grabs
//! the next unclaimed job), so a dispatch of tiny jobs is finished by its
//! caller before a helper is awake, and a dispatch issued from inside a
//! job cannot deadlock: its caller alone can drain it. Pool utilization is
//! exported through `simpim-obs` as `simpim.par.*` metrics.
//!
//! The worker count comes from, in priority order: the programmatic
//! [`with_threads`] (used by tests and benches), the `SIMPIM_THREADS`
//! environment variable, then [`std::thread::available_parallelism`];
//! the last two are read once, on the first call that needs them.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Upper bound on workers; far above any sane `SIMPIM_THREADS`.
const MAX_THREADS: usize = 256;

/// 0 = no override; otherwise the override value itself.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The worker count when no [`with_threads`] is in force, resolved on
/// first use and kept for the life of the process: detecting the cores
/// reads the CPU quota (about 15 µs), and every `join_all` asks.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        resolve(
            std::env::var("SIMPIM_THREADS").ok().as_deref(),
            std::thread::available_parallelism,
        )
    })
}

/// `SIMPIM_THREADS` if it reads as 1 or more, else the detected cores
/// (1 if detection fails); at most 256.
fn resolve(env: Option<&str>, detect: impl FnOnce() -> std::io::Result<NonZeroUsize>) -> usize {
    env.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| detect().map_or(1, NonZeroUsize::get))
        .min(MAX_THREADS)
}

/// Number of workers a parallel call may use right now.
///
/// Priority: [`with_threads`] > `SIMPIM_THREADS` > detected cores, the
/// last two resolved once per process. Always at least 1, at most 256.
/// This value never changes chunk boundaries — only how many threads
/// (the caller plus pool helpers) pull from the chunk queue.
pub fn thread_count() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
        ovr => ovr.min(MAX_THREADS),
    }
}

/// Runs `f` with the worker count pinned to `n`, restoring the previous
/// override afterwards (even on panic, via a drop guard). Used by the
/// determinism proptests and the `parallel_smoke` bench to compare thread
/// counts within one process without racing on the environment.
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

/// A boxed unit of work for [`join_all`]: an owned closure over borrowed
/// state (disjoint `&mut` chunks, shard handles, …), boxed so that jobs
/// of different closure types can share one list.
pub type Job<'s, T> = Box<dyn FnOnce() -> T + Send + 's>;

/// One job's cell: the job until somebody claims it, its outcome after.
enum Slot<J, T> {
    Todo(J),
    Running,
    Done(std::thread::Result<T>),
}

/// Locks a mutex of this crate: every update under one is a single
/// assignment, push or counter step, so the data is valid whether or not
/// a holder ever panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Executes the jobs on the pool and returns their results **in job
/// order** (ordered reduction). Jobs are claimed via an atomic cursor by
/// the calling thread and by at most `thread_count().min(jobs) - 1` pool
/// helpers; which thread runs a job is the only nondeterminism, and it is
/// unobservable in the results.
///
/// With one worker (or one job) everything runs inline on the caller in
/// job order — the exact serial loop. Otherwise a job that panics is
/// caught where it ran, the other jobs still run, and the panic of the
/// lowest-indexed such job is re-raised here; the pool is unaffected.
///
/// Jobs of one closure type need no box: a call allocates its job list,
/// its slots and its results, however many jobs it runs. [`Job`] mixes
/// closures of different types.
pub fn join_all<T: Send, J: FnOnce() -> T + Send>(jobs: Vec<J>) -> Vec<T> {
    let n_jobs = jobs.len();
    let threads = thread_count();
    let workers = threads.min(n_jobs);
    stats::record_call(n_jobs, threads);
    if workers <= 1 {
        if model::capture_enabled() {
            return model::run_inline_timed(jobs);
        }
        return jobs.into_iter().map(|j| j()).collect();
    }

    let start = Instant::now();
    let slots: Vec<Mutex<Slot<J, T>>> = jobs
        .into_iter()
        .map(|j| Mutex::new(Slot::Todo(j)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let (busy_ns, steals) = (AtomicU64::new(0), AtomicU64::new(0));
    let fair_share = n_jobs.div_ceil(workers);
    // What the caller and every helper that joins run: claim the next
    // unclaimed job until none is left. Never unwinds.
    let work = || {
        let (mut busy, mut pulled) = (0u64, 0usize);
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= n_jobs {
                break;
            }
            let Slot::Todo(job) = std::mem::replace(&mut *lock(&slots[idx]), Slot::Running) else {
                unreachable!("the cursor hands out each index once");
            };
            pulled += 1;
            let t0 = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(job));
            busy += t0.elapsed().as_nanos() as u64;
            *lock(&slots[idx]) = Slot::Done(outcome);
        }
        busy_ns.fetch_add(busy, Ordering::Relaxed);
        steals.fetch_add(pulled.saturating_sub(fair_share) as u64, Ordering::Relaxed);
    };
    pool::run(&work, workers - 1);
    stats::record_dispatch(
        workers,
        start.elapsed().as_nanos(),
        busy_ns.into_inner(),
        steals.into_inner(),
    );

    // Ordered reduction: slot i holds job i's outcome no matter which
    // thread produced it.
    slots
        .into_iter()
        .map(|slot| match slot.into_inner() {
            Ok(Slot::Done(Ok(value))) => value,
            Ok(Slot::Done(Err(payload))) => resume_unwind(payload),
            _ => unreachable!("every job ran before the dispatch closed"),
        })
        .collect()
}

/// The process-wide helper threads and the dispatches open to them.
mod pool {
    use super::{lock, Condvar, Mutex};

    /// A dispatch's claim loop, as its helpers see it.
    type Work = &'static (dyn Fn() + Sync);

    /// A published dispatch: `wanted` more helpers may join it, `inside`
    /// have joined and not yet left.
    struct Open {
        id: u64,
        work: Work,
        wanted: usize,
        inside: usize,
    }

    struct State {
        /// Helper threads started so far; grows to the largest count a
        /// dispatch ever asked for and never shrinks.
        helpers: usize,
        last_id: u64,
        open: Vec<Open>,
    }

    static STATE: Mutex<State> = Mutex::new(State {
        helpers: 0,
        last_id: 0,
        open: Vec::new(),
    });
    /// Idle helpers sleep here until a dispatch is published.
    static PUBLISHED: Condvar = Condvar::new();
    /// A closing dispatch's caller sleeps here until its helpers have left.
    static LEFT: Condvar = Condvar::new();

    #[cfg(test)]
    pub(crate) fn helper_count() -> usize {
        lock(&STATE).helpers
    }

    /// Publishes `work`, lets up to `helpers` pool threads run it beside
    /// the caller, and returns once the caller's own run is over and every
    /// helper that joined has left. `work` must not unwind.
    pub(crate) fn run(work: &(dyn Fn() + Sync), helpers: usize) {
        // SAFETY: only the lifetime is erased. The reference is reachable
        // solely through this dispatch's `Open` entry, and a helper copies
        // it out only under the `STATE` lock, in the same critical section
        // that counts it `inside`. `Close` — created right after
        // publishing, dropped before this function returns or unwinds —
        // takes that lock, forbids further joins, sleeps until `inside` is
        // zero and removes the entry; a helper decrements `inside` only
        // after its call of `work` has returned and never touches the
        // reference again. So no helper can hold or obtain the reference
        // once `run` is left, and the borrow behind it outlives `run`.
        let erased: Work = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Work>(work) };
        let id = {
            let mut st = lock(&STATE);
            while st.helpers < helpers {
                // Detached on purpose: helpers live as long as the process
                // and never unwind (jobs are caught in `work`). If the OS
                // refuses a thread the caller drains the dispatch alone.
                let name = format!("simpim-par-{}", st.helpers);
                if std::thread::Builder::new()
                    .name(name)
                    .spawn(helper)
                    .is_err()
                {
                    break;
                }
                st.helpers += 1;
            }
            st.last_id += 1;
            let id = st.last_id;
            st.open.push(Open {
                id,
                work: erased,
                wanted: helpers,
                inside: 0,
            });
            id
        };
        let _close = Close(id);
        // A helper woken for nothing finds no dispatch that wants it and
        // goes back to sleep.
        if helpers == 1 {
            PUBLISHED.notify_one();
        } else {
            PUBLISHED.notify_all();
        }
        work();
    }

    /// Unpublishes dispatch `.0` and waits for its helpers to leave.
    struct Close(u64);

    impl Drop for Close {
        fn drop(&mut self) {
            let mut st = lock(&STATE);
            if let Some(open) = st.open.iter_mut().find(|o| o.id == self.0) {
                open.wanted = 0;
            }
            let busy = |st: &mut State| st.open.iter().any(|o| o.id == self.0 && o.inside > 0);
            let mut st = LEFT.wait_while(st, busy).unwrap_or_else(|e| e.into_inner());
            st.open.retain(|o| o.id != self.0);
        }
    }

    fn helper() {
        let mut st = lock(&STATE);
        loop {
            let Some(open) = st.open.iter_mut().find(|o| o.wanted > 0) else {
                st = PUBLISHED.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            open.wanted -= 1;
            open.inside += 1;
            let (id, work) = (open.id, open.work);
            drop(st);
            work();
            // The spans this thread's jobs recorded must be drainable the
            // moment `join_all` returns, so they go before `inside` does.
            simpim_obs::trace::hand_over();
            st = lock(&STATE);
            let open = st.open.iter_mut().find(|o| o.id == id);
            open.expect("an entry outlives its helpers").inside -= 1;
            LEFT.notify_all();
        }
    }
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
    join_all(ranges.into_iter().map(|r| move || f(r)).collect())
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

    pub(crate) fn run_inline_timed<T, J: FnOnce() -> T>(jobs: Vec<J>) -> Vec<T> {
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
            lock(log()).push(ns);
        }
        out
    }

    /// Runs `f` with schedule capture enabled and returns its result plus
    /// the per-dispatch job durations (nanoseconds, job order). Only
    /// dispatches that ran inline (worker count 1) are captured — wrap
    /// `f` in [`with_threads`]`(1, …)` for a complete log. The capture
    /// buffer is process-global; callers serialize as they do for
    /// [`with_threads`].
    pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<Vec<u64>>) {
        let was = CAPTURING.swap(true, Ordering::Relaxed);
        lock(log()).clear();
        let out = f();
        CAPTURING.store(was, Ordering::Relaxed);
        let dispatches = std::mem::take(&mut *lock(log()));
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

    pub(crate) fn record_call(tasks: usize, threads: usize) {
        simpim_obs::metrics::counter_add("simpim.par.calls", 1);
        simpim_obs::metrics::counter_add("simpim.par.tasks", tasks as u64);
        simpim_obs::metrics::gauge_set("simpim.par.threads", threads as f64);
    }

    pub(crate) fn record_chunks(ranges: &[Range<usize>]) {
        if let Some(first) = ranges.first() {
            simpim_obs::metrics::histogram_record("simpim.par.chunk_size", first.len() as u64);
        }
    }

    pub(crate) fn record_dispatch(workers: usize, wall_ns: u128, busy_ns: u64, steals: u64) {
        let idle = (wall_ns * workers as u128).saturating_sub(busy_ns as u128);
        simpim_obs::metrics::counter_add("simpim.par.dispatches", 1);
        simpim_obs::metrics::counter_add("simpim.par.busy_ns", busy_ns);
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

    /// With no override in force the worker count is `SIMPIM_THREADS`,
    /// else the detected cores, and it is resolved once: 100 000 calls
    /// take far less than one detection each (about 15 µs, so 1.5 s for
    /// all of them). An override still wins on every call.
    #[test]
    fn the_default_worker_count_is_resolved_once_below_an_override() {
        let _g = test_lock();
        let want = resolve(
            std::env::var("SIMPIM_THREADS").ok().as_deref(),
            std::thread::available_parallelism,
        );
        let t0 = Instant::now();
        for _ in 0..100_000 {
            assert_eq!(std::hint::black_box(thread_count()), want);
        }
        let took = t0.elapsed();
        assert!(took.as_millis() < 250, "100 000 calls took {took:?}");
        assert_eq!(with_threads(3, thread_count), 3);
        assert_eq!(with_threads(1000, thread_count), MAX_THREADS);
        assert_eq!(thread_count(), want);

        let five = || Ok(NonZeroUsize::new(5).unwrap());
        let unreached = || -> std::io::Result<NonZeroUsize> { panic!("the variable is set") };
        assert_eq!(resolve(Some("3"), unreached), 3);
        assert_eq!(resolve(Some(" 7\n"), five), 7);
        assert_eq!(resolve(Some("999"), five), MAX_THREADS);
        for unset in [None, Some(""), Some("0"), Some("-2"), Some("four")] {
            assert_eq!(resolve(unset, five), 5, "{unset:?}");
        }
        assert_eq!(resolve(None, || Err(std::io::Error::other("no quota"))), 1);
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

    fn squares(n: usize) -> Vec<Job<'static, usize>> {
        (0..n)
            .map(|i| Box::new(move || i * i) as Job<'_, usize>)
            .collect()
    }

    #[test]
    fn helpers_are_kept_not_respawned() {
        let _g = test_lock();
        with_threads(2, || {
            join_all(squares(2));
            let after_first = pool::helper_count();
            assert!(after_first >= 1);
            for _ in 0..2_000 {
                assert_eq!(join_all(squares(2)), vec![0, 1]);
            }
            assert_eq!(pool::helper_count(), after_first);
        });
        with_threads(8, || join_all(squares(100)));
        assert_eq!(pool::helper_count(), 7, "8 workers = the caller + 7");
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
