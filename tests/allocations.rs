//! Heap allocations of the coarse crossbar read and of a whole coarse
//! shard batch. The read prepares its queries and its output slices once,
//! and a task borrows its kernel buffer from its thread, so a read of ten
//! times the rows — ten times the 256-row tasks — makes the same number of
//! allocations; a shard batch keeps its bound columns from one batch to
//! the next and scans them without a buffer a row. A global allocator that
//! counts per thread holds the whole binary, so this file is a test binary
//! of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simpim::par;
use simpim::reram::array::RegionId;
use simpim::reram::{AccWidth, PimArray, PimConfig, Read};
use simpim::serve::{Shard, ShardConfig};
use simpim::similarity::Dataset;

/// [`System`], counting the allocations each thread asks for.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; nothing reads it then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is handed on to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The tests take turns: what one runs on the shared worker pool and
/// metric registry must not move what the other counts.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocations of one eight-query coarse `PimArray::read` over `n` rows of
/// serve-pruned's shard shape (420 operands of 20 bits, the default
/// 256-operand crossbars, so a gather tree), on one worker, after a first
/// read has built the plane and the thread's kernel buffer.
fn coarse_read_allocations(n: usize) -> usize {
    let d = 420;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |len: usize| -> Vec<u32> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 44) as u32
            })
            .collect()
    };
    let mut pim = PimArray::new(PimConfig::default()).unwrap();
    let region = pim.program_region(&draw(n * d), n, d, 32).unwrap().region;
    let queries: Vec<Vec<u32>> = (0..8).map(|_| draw(d)).collect();
    let passes: Vec<(RegionId, &[u32])> = queries.iter().map(|q| (region, &q[..])).collect();
    par::with_threads(1, || {
        let first = pim.read(&passes, AccWidth::U64, Read::Coarse).unwrap();
        assert!(
            first.iter().all(|p| p.read == Read::Coarse),
            "a coarse read"
        );
        let before = allocations();
        let read = pim.read(&passes, AccWidth::U64, Read::Coarse).unwrap();
        let made = allocations() - before;
        assert_eq!(read, first);
        made
    })
}

#[test]
fn a_coarse_read_allocates_as_much_at_10_000_rows_as_at_1_000() {
    let _turn = one_at_a_time();
    assert_eq!(
        coarse_read_allocations(1_000),
        coarse_read_allocations(10_000)
    );
}

/// Allocations of one eight-query coarse batch through
/// `Shard::query_batch` over 1 000 rows near the queries and `far` rows
/// far from them (values in [0.9, 0.99) against [0, 0.5)), which every query's
/// coarse bound prunes, on one worker, after a first batch has built the
/// plane, the kept columns and the thread's buffers: the rows the batch
/// seeds, tightens and sweeps are the same at every `far`.
fn shard_batch_allocations(far: usize) -> usize {
    let d = 420;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut draw = |from: f64, width: f64| -> Vec<f64> {
        (0..d)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                from + width * (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    };
    let queries: Vec<Vec<f64>> = (0..8).map(|_| draw(0.0, 0.5)).collect();
    let mut rows: Vec<Vec<f64>> = (0..1_000).map(|_| draw(0.0, 0.5)).collect();
    // The widest value of every shard, so that all read at one shift.
    rows[0][0] = 0.999;
    rows.extend((0..far).map(|_| draw(0.9, 0.09)));
    let ids = (0..rows.len()).collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let mut shard = Shard::open(ShardConfig::default(), data, ids).unwrap();
    // A histogram's buckets grow with the largest sample it has seen: one
    // at the top of the range sizes the refinement's wall clock for good.
    simpim::obs::metrics::histogram_record("simpim.serve.shard.refine_ns", u64::MAX);
    par::with_threads(1, || {
        let first = shard.query_batch(&queries, &[10; 8]);
        assert!(shard.stats().coarse_plane, "a coarse batch");
        let before = allocations();
        let batch = shard.query_batch(&queries, &[10; 8]);
        let made = allocations() - before;
        let answers =
            |b: Vec<Result<_, _>>| -> Vec<_> { b.into_iter().map(Result::unwrap).collect() };
        assert_eq!(answers(batch), answers(first));
        made
    })
}

#[test]
fn a_coarse_shard_batch_allocates_as_much_at_10_000_rows_as_at_1_000() {
    let _turn = one_at_a_time();
    assert_eq!(shard_batch_allocations(0), shard_batch_allocations(9_000));
}
