//! Heap allocations of the coarse crossbar read. The read prepares its
//! queries and its output slices once, and a task borrows its kernel
//! buffer from its thread, so a read of ten times the rows — ten times
//! the 256-row tasks — makes the same number of allocations. A global
//! allocator that counts per thread holds the whole binary, so this file
//! is a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simpim::par;
use simpim::reram::array::RegionId;
use simpim::reram::{AccWidth, PimArray, PimConfig};

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

/// Allocations of one eight-query `dot_batch_coarse` over `n` rows of
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
        let first = pim.dot_batch_coarse(&passes, AccWidth::U64).unwrap();
        assert!(first.iter().all(|&(.., coarse)| coarse), "a coarse read");
        let before = allocations();
        let read = pim.dot_batch_coarse(&passes, AccWidth::U64).unwrap();
        let made = allocations() - before;
        assert_eq!(read, first);
        made
    })
}

#[test]
fn a_coarse_read_allocates_as_much_at_10_000_rows_as_at_1_000() {
    assert_eq!(
        coarse_read_allocations(1_000),
        coarse_read_allocations(10_000)
    );
}
