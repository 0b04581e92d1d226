//! The tuned iteration's allocations: once a tuner has warmed up, a
//! direct step over untunable algorithms — every served matcher is one —
//! allocates nothing, whether telemetry records it or not.
//!
//! The global allocator below counts allocations per thread, because the
//! tests of one binary run on parallel threads.

use autotune::telemetry;
use autotune::two_phase::{AlgorithmSpec, NominalKind, TwoPhaseTuner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the current thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations made by `steps` steps of a warmed-up ε-Greedy tuner over
/// six untunable algorithms.
fn steady_state_allocations(steps: usize) -> u64 {
    let specs = (0..6)
        .map(|i| AlgorithmSpec::untunable(format!("alg{i}")))
        .collect();
    let mut tuner = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.10), 42);
    let cost = |a: usize| 1.0 + a as f64;
    for _ in 0..2_000 {
        tuner.step(|a, _| cost(a));
    }
    let before = allocations();
    for _ in 0..steps {
        tuner.step(|a, _| cost(a));
    }
    allocations() - before
}

#[test]
fn a_direct_step_over_untunable_algorithms_allocates_nothing() {
    assert_eq!(steady_state_allocations(2_000), 0, "telemetry off");
    telemetry::enable();
    assert_eq!(steady_state_allocations(2_000), 0, "telemetry on");
}
