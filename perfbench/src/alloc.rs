//! The benchmark's global allocator: `mfcsl_math`'s [`CountingAlloc`] (so
//! the engine's per-kernel allocation records work exactly as in the
//! `mfcsl` binary) plus live-heap and allocation counts of its own.
//!
//! The engine resets `CountingAlloc`'s peak at every kernel it brackets,
//! so a peak over a whole phase needs counters nobody else resets. Shared
//! counters updated on every allocation slowed the daemon by ~10% (its
//! threads contending for one cache line), so each thread counts into its
//! own cache-line slot, and a sampler thread sums the slots every
//! [`SAMPLE_PERIOD`] and keeps the largest sum: the peak live heap, as
//! sampled. The daemon child reports its peak the same way when it exits;
//! unlike its peak RSS, the live heap does not depend on how the system
//! allocator spreads threads over arenas.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::time::Duration;

use mfcsl_math::alloc_counter::CountingAlloc;

pub const SAMPLE_PERIOD: Duration = Duration::from_millis(1);

const SLOTS: usize = 64;

/// One thread's counters, alone on its cache line.
#[repr(align(64))]
struct Slot {
    live: AtomicI64,
    allocations: AtomicI64,
}

static SLOT: [Slot; SLOTS] = [const {
    Slot {
        live: AtomicI64::new(0),
        allocations: AtomicI64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static SAMPLING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> &'static Slot {
    // Threads beyond `SLOTS` (or one whose thread-local is already torn
    // down) share slots; the counters are atomic, so sharing only costs
    // contention, never counts.
    let i = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    &SLOT[i]
}

fn on_alloc(size: usize) {
    let s = slot();
    s.live.fetch_add(size as i64, Ordering::Relaxed);
    s.allocations.fetch_add(1, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    slot().live.fetch_sub(size as i64, Ordering::Relaxed);
}

pub struct TrackingAlloc;

// SAFETY: every call is forwarded verbatim to `CountingAlloc`, which
// forwards to `System`; this wrapper only updates statistics on the side,
// so the `GlobalAlloc` contract is `System`'s.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { CountingAlloc.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { CountingAlloc.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { CountingAlloc.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// Live heap bytes now: the sum over slots.
pub fn live() -> i64 {
    used().iter().map(|s| s.live.load(Ordering::Relaxed)).sum()
}

fn used() -> &'static [Slot] {
    &SLOT[..NEXT_SLOT.load(Ordering::Relaxed).min(SLOTS)]
}

/// Allocations made so far.
pub fn allocations() -> u64 {
    used()
        .iter()
        .map(|s| s.allocations.load(Ordering::Relaxed))
        .sum::<i64>() as u64
}

/// Starts the sampler thread (once per process); it runs until the
/// process exits.
pub fn start_sampler() {
    if SAMPLING.swap(true, Ordering::SeqCst) {
        return;
    }
    std::thread::Builder::new()
        .name("heap-sampler".into())
        .spawn(|| loop {
            PEAK.fetch_max(live(), Ordering::Relaxed);
            std::thread::sleep(SAMPLE_PERIOD);
        })
        .expect("spawn the heap sampler");
}

/// Starts a peak window: the peak drops to the live level, which is
/// returned as the window's baseline.
pub fn reset_peak() -> i64 {
    let now = live();
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// Peak live bytes since the process started or the last [`reset_peak`],
/// the level right now included.
pub fn peak() -> u64 {
    let now = live();
    PEAK.fetch_max(now, Ordering::Relaxed).max(now).max(0) as u64
}

/// Peak live bytes above `baseline` since the matching [`reset_peak`].
pub fn peak_above(baseline: i64) -> u64 {
    (peak() as i64 - baseline).max(0) as u64
}
