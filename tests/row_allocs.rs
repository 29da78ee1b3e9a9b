//! Pins the allocation cost of one Section 9 row: a warm
//! `SingleSourceEngine::distances_from` at n = 1024 makes a bounded number of
//! heap allocations — its target orders, distance vectors and escape paths —
//! and nothing per vertex.  A row that indexed its vertices by point in a
//! map made one allocation per vertex, over 16 000 at this size.
//!
//! A counting global allocator wraps the system allocator.  The file
//! deliberately contains a single `#[test]` so no sibling test thread can
//! allocate concurrently inside the measured window.

use rectilinear_shortest_paths::core::seq::SingleSourceEngine;
use rectilinear_shortest_paths::geom::INF;
use rectilinear_shortest_paths::workload::uniform_disjoint;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations one row may make, independent of `n`.
const ROW_ALLOCATION_BOUND: usize = 256;

#[test]
fn a_single_row_makes_a_bounded_number_of_allocations() {
    let w = uniform_disjoint(1024, 3);
    let engine = SingleSourceEngine::new(&w.obstacles);
    let source = engine.vertices()[engine.vertices().len() / 2];

    // Warm-up: the measured row is a steady-state row, not the first.
    let warm = engine.distances_from(source);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let row = engine.distances_from(source);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(row, warm, "rows must be deterministic");
    assert!(row.iter().all(|&d| d < INF), "every vertex is reachable in a disjoint scene");
    assert!(
        after - before < ROW_ALLOCATION_BOUND,
        "one row over {} vertices allocated {} times (bound {ROW_ALLOCATION_BOUND})",
        row.len(),
        after - before
    );
}
