//! A counting global allocator for steady-state allocation checks.
//!
//! The math-core benchmarks claim "zero heap allocations per training step
//! once the [`hetero_nn::Workspace`] is warm". That claim is only worth
//! anything if it is *measured*, so the `bench_math` binary (and any test
//! that wants to) installs [`CountingAlloc`] as the `#[global_allocator]`
//! and diffs [`CountingAlloc::thread_allocations`] around the steady-state
//! loop.
//!
//! Counts are kept per thread: a measured region runs on one thread, and
//! a process-wide tally would also catch whatever the test harness's other
//! threads allocate meanwhile, so allocation checks could only run with
//! `--test-threads=1`. Work the region hands to other threads is not
//! counted — measured regions are serial by design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: never panic inside the allocator, even on a thread
    // that is being torn down.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// [`System`] allocator wrapper that counts `alloc`/`realloc` calls per
/// thread.
///
/// Install with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: CountingAlloc = CountingAlloc::new();
/// ```
pub struct CountingAlloc;

impl CountingAlloc {
    /// The allocator; counts live in per-thread storage.
    pub const fn new() -> Self {
        CountingAlloc
    }

    /// `alloc` + `realloc` calls made by the calling thread so far.
    ///
    /// Diff two reads around a region to count allocations inside it.
    pub fn thread_allocations(&self) -> u64 {
        THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers every operation to `System`; the only added behavior is a
// thread-local counter increment, which neither allocates nor unwinds, so
// it cannot violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: each method forwards its arguments verbatim to `System`, so
    // every caller obligation is exactly `System`'s own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller passed under the same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards verbatim; caller obligations are `System`'s own.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same ptr/layout the caller passed under the same contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards verbatim; caller obligations are `System`'s own.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: same arguments the caller passed under the same contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
