//! A write costs its delta, measured on the heap. A counting global
//! allocator totals the bytes one `LiveFilterIndex::apply` allocates, so a
//! write that copies a table of every key any earlier write touched fails
//! here, in the ordinary test run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use kg_core::{FilterIndex, GraphDelta, LiveFilterIndex, Triple};

const MIB: usize = 1 << 20;

/// Heap bytes allocated since the process started (never decremented).
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

fn allocated(bytes: usize) {
    // ORDERING: Relaxed — a byte counter that publishes nothing; this
    // binary's one test reads it on the thread that allocates.
    ALLOCATED.fetch_add(bytes, Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; the counter only reads sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a fresh block of the new size, the worst case.
        allocated(new_size);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// After 2^16 keys have been touched in each direction, one more write of
/// 64 inserts on fresh keys — the shape of a served `/triples` write —
/// allocates under 1 MiB. Copying either direction's touched keys as a
/// flat table (2^17 buckets of 32 bytes) would allocate 4 MiB alone.
#[test]
fn a_write_allocates_for_its_delta_not_for_every_key_touched_before() {
    let keys = 1u32 << 16;
    let history: Vec<Triple> = (0..keys).map(|i| Triple::new(i, i % 7, i)).collect();
    let live = LiveFilterIndex::from_base(Arc::new(FilterIndex::new()));
    let (live, out) = live.apply(&GraphDelta::new(history, Vec::new()));
    assert_eq!(out.inserted, keys as usize);

    let write: Vec<Triple> = (0..64).map(|i| Triple::new(keys + i, 0, keys + 7 * i)).collect();
    // ORDERING: Relaxed — see `allocated`.
    let before = ALLOCATED.load(Relaxed);
    let (next, out) = live.apply(&GraphDelta::new(write, Vec::new()));
    // ORDERING: Relaxed — see `allocated`.
    let bytes = ALLOCATED.load(Relaxed) - before;
    assert_eq!((out.inserted, next.len()), (64, keys as usize + 64));
    assert!(bytes <= MIB, "a 64-insert write allocated {bytes} bytes");
}
