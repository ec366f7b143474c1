//! The one-copy memory invariant, measured on the heap itself. A counting
//! global allocator tracks the written heap bytes and their high-water
//! mark, so a path that copies a whole table — a whole-file read buffer, a
//! decoded intermediate, a temporary `Vec` before the aligned one — peaks
//! one table too high and fails here, in the ordinary test run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

use kg_core::sample::seeded_rng;
use kg_core::{FilterIndex, Triple};
use kg_models::io::{load_model_from_path, save_model_to_path};
use kg_models::{build_model, ModelKind};
use rand::Rng;

const MIB: usize = 1 << 20;

/// Heap bytes allocated now, and the most there have been since the
/// current [`measure`] began — less the untouched blocks.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Zero-allocated blocks this large come from the OS as untouched pages,
/// resident only once written (a model's Adagrad accumulators, which a
/// served model never writes), so `LIVE` leaves them out, as RSS does.
/// Their addresses wait in `UNTOUCHED` until freed; with every slot taken
/// a block is counted after all, which can only fail a test.
const UNTOUCHED_MIN: usize = 1 << 20;
static UNTOUCHED: [AtomicUsize; 16] = [const { AtomicUsize::new(0) }; 16];

/// Whether the zero-allocated `ptr` of `size` bytes now has an
/// `UNTOUCHED` slot.
fn remember_untouched(ptr: *mut u8, size: usize) -> bool {
    // ORDERING: Relaxed — the slot holds an address and publishes nothing;
    // the allocator itself orders the memory behind it.
    size >= UNTOUCHED_MIN
        && UNTOUCHED.iter().any(|s| s.compare_exchange(0, ptr as usize, Relaxed, Relaxed).is_ok())
}

/// Whether `ptr` of `size` bytes had an `UNTOUCHED` slot (now freed).
fn forget_untouched(ptr: *mut u8, size: usize) -> bool {
    // ORDERING: Relaxed — as in `remember_untouched`.
    size >= UNTOUCHED_MIN
        && UNTOUCHED.iter().any(|s| s.compare_exchange(ptr as usize, 0, Relaxed, Relaxed).is_ok())
}

/// Held for each test's whole body, so no other test allocates inside a
/// measured section.
static ALONE: Mutex<()> = Mutex::new(());

fn grew(bytes: usize) {
    // ORDERING: Relaxed — plain byte counters that publish nothing; the
    // section that reads them runs alone (`ALONE`) on the reading thread.
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // ORDERING: Relaxed — as above.
    PEAK.fetch_max(now, Relaxed);
}

fn shrank(bytes: usize) {
    // ORDERING: Relaxed — as in `grew`.
    LIVE.fetch_sub(bytes, Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && !remember_untouched(ptr, layout.size()) {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        if !forget_untouched(ptr, layout.size()) {
            shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Counted as a copy (both blocks live at once), the worst case.
            grew(new_size);
            if !forget_untouched(ptr, layout.size()) {
                shrank(layout.size());
            }
        }
        new
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// `f()`, the peak written heap while it ran above where it started, and
/// the written heap it left allocated (what the result keeps, less what
/// it freed).
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    // ORDERING: Relaxed — see `grew`.
    let start = LIVE.load(Relaxed);
    // ORDERING: Relaxed — see `grew`.
    PEAK.store(start, Relaxed);
    let out = f();
    // ORDERING: Relaxed — see `grew`.
    let (peak, live) = (PEAK.load(Relaxed), LIVE.load(Relaxed));
    (out, peak - start, live as isize - start as isize)
}

/// Saving streams the borrowed tables through one fixed buffer, and
/// loading draws the model's shell in place and reads the tables straight
/// into it: neither holds a second copy of the 16 MiB entity table, even
/// for a moment.
#[test]
fn a_snapshot_round_trip_holds_each_table_once() {
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let table = 16 * MIB;
    let model = build_model(ModelKind::DistMult, table / (4 * 32), 4, 32, 1);
    let dir = std::env::temp_dir().join(format!("kgeval-one-copy-{}", std::process::id()));
    let path = dir.join("model.kgev");

    let (saved, peak, _) =
        measure(|| save_model_to_path(model.as_ref(), ModelKind::DistMult, &path));
    saved.unwrap();
    assert!(peak <= MIB, "saving a {table}-byte table allocated {peak} bytes");

    let (loaded, peak, kept) = measure(|| load_model_from_path(&path).unwrap());
    let kept = kept as usize;
    assert!(kept >= table, "the loaded model keeps its table ({kept} bytes)");
    assert!(peak - kept <= MIB, "loading peaked {} bytes above what the model keeps", peak - kept);
    assert_eq!(loaded.param_tables(), model.param_tables());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flat filter index over 2^19 random triples (nearly every query key
/// distinct, the shape of a large KG; 1M costs the same per triple but
/// takes seconds to sort in a debug build): its build, including the
/// sorted copy of the triples it cuts into runs, peaks under 120 bytes a
/// triple.
#[test]
fn a_filter_index_build_peaks_under_120_bytes_per_triple() {
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = seeded_rng(11);
    let n = 1u32 << 20;
    let triples: Vec<Triple> = (0..1 << 19)
        .map(|_| Triple::new(rng.gen_range(0..n), rng.gen_range(0..16), rng.gen_range(0..n)))
        .collect();
    let (idx, peak, _) = measure(|| FilterIndex::from_slices(&[&triples]));
    assert!(idx.len() > 524_000, "{} distinct", idx.len());
    let per_triple = peak as f64 / idx.len() as f64;
    assert!(per_triple <= 120.0, "filter build peaked at {per_triple:.1} B per triple");
}
