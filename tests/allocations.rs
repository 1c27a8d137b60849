//! Allocation ceiling: the heap allocations a traced study costs per
//! trial must not creep back up. The global allocator below counts every
//! `alloc` and `realloc` made by the thread that enabled counting; the
//! test harness's own threads keep their counters off, so the figure is
//! the study's alone. This file holds one test so no other test's
//! allocations can land on the counted thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edgetune::prelude::*;

struct CountingAllocator;

thread_local! {
    /// `Some(n)` while the thread counts; `const` so reading it never
    /// allocates (which would recurse into the allocator).
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with` so the allocator can never panic, even while a thread's
    // locals are being torn down.
    let _ = COUNT.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on the calling thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|count| count.set(Some(0)));
    let value = f();
    let counted = COUNT.with(|count| count.replace(None)).unwrap_or(0);
    (value, counted)
}

/// When this ceiling was set the study measured 74 allocations per trial
/// (3891 over 52 trials), in debug and release builds alike; the ceiling
/// leaves 10 % headroom on that.
const ALLOCS_PER_TRIAL_CEILING: u64 = 81;

#[test]
fn a_traced_study_stays_under_its_allocation_ceiling() {
    let config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_metric(Metric::Runtime)
        .with_scheduler(SchedulerConfig::new(8, 2.0, 8))
        .with_seed(42);
    let ((report, _trace), allocs) =
        allocations_of(|| EdgeTune::new(config).run_traced().expect("study completes"));
    let trials = report.history().len() as u64;
    assert!(trials > 0, "the study ran no trials");
    let per_trial = allocs / trials;
    assert!(
        per_trial <= ALLOCS_PER_TRIAL_CEILING,
        "{per_trial} allocations per trial ({allocs} over {trials} trials), \
         ceiling {ALLOCS_PER_TRIAL_CEILING}"
    );
}
