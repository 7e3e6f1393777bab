//! A counting global allocator.
//!
//! Counting is off by default, and then each call costs one relaxed load
//! of a flag that nothing writes while a timed window runs. When it is
//! on, each thread adds to its own cache-line-sized slot, so two workers
//! never write the same line: no shared atomic is bumped per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

const SLOTS: usize = 64;

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
    freed_bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    allocs: AtomicU64::new(0),
    alloc_bytes: AtomicU64::new(0),
    freed_bytes: AtomicU64::new(0),
};

static TABLE: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // `const` and no destructor: safe to touch from inside the allocator.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's slot. Threads beyond `SLOTS` share slots, which
/// stays correct because every update is an atomic add.
fn slot() -> &'static Slot {
    let i = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(SLOTS - 1);
    &TABLE[i]
}

pub struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counters only
// observe sizes and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if COUNTING.load(Relaxed) && !p.is_null() {
            let s = slot();
            s.allocs.fetch_add(1, Relaxed);
            s.alloc_bytes.fetch_add(layout.size() as u64, Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if COUNTING.load(Relaxed) && !p.is_null() {
            let s = slot();
            s.allocs.fetch_add(1, Relaxed);
            s.alloc_bytes.fetch_add(layout.size() as u64, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            slot().freed_bytes.fetch_add(layout.size() as u64, Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if COUNTING.load(Relaxed) && !p.is_null() {
            let s = slot();
            s.allocs.fetch_add(1, Relaxed);
            s.alloc_bytes.fetch_add(new_size as u64, Relaxed);
            s.freed_bytes.fetch_add(layout.size() as u64, Relaxed);
        }
        p
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Bytes allocated and not yet freed while counting was on, over all
/// threads. Meaningful as a difference between two readings.
pub fn live_bytes() -> i64 {
    TABLE
        .iter()
        .map(|s| s.alloc_bytes.load(Relaxed) as i64 - s.freed_bytes.load(Relaxed) as i64)
        .sum()
}

/// Allocations and allocated bytes counted on the calling thread so far.
pub fn thread_allocs() -> (u64, u64) {
    let s = slot();
    (s.allocs.load(Relaxed), s.alloc_bytes.load(Relaxed))
}
