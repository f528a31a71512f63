//! A counting wrapper around the system allocator for the perf-report
//! binaries.
//!
//! The hot-loop work of the checker is supposed to be allocation-free per
//! step (solver workspaces, generator memoization, arena trajectory
//! storage); the only way to *prove* that in a report is to count
//! allocations. [`CountingAlloc`] forwards to [`std::alloc::System`] and
//! maintains three relaxed atomics: total allocation count, live bytes,
//! and a peak-bytes high-water mark.
//!
//! The type carries no `#[global_allocator]` attribute itself — each
//! binary that wants the counters installs it explicitly:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: mfcsl_math::alloc_counter::CountingAlloc =
//!     mfcsl_math::alloc_counter::CountingAlloc;
//! ```
//!
//! Without that declaration the counters simply stay at zero and
//! [`installed`] reports `false`, so library code can query them
//! unconditionally.
//!
//! Counter updates use `Relaxed` ordering: the counters are statistics,
//! not synchronization, and a benchmark section is bracketed by
//! [`begin`]/[`delta`] calls on one thread with the measured work in
//! between, so all updates of interest are sequenced-before the read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper that counts allocations and tracks peak live
/// bytes. See the module docs for how to install it.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: delegates every allocation verbatim to `System` and only adds
// bookkeeping on the side, so the `GlobalAlloc` contract is `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// Whether a [`CountingAlloc`] is actually serving allocations in this
/// process (i.e. some binary installed it as the global allocator).
#[must_use]
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0
}

/// A counter snapshot taken by [`begin`] and consumed by [`delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    allocations: u64,
    live_bytes: u64,
}

/// Counter deltas over a measured section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocDelta {
    /// Number of allocations performed in the section.
    pub allocations: u64,
    /// Peak live bytes above the section's starting level.
    pub peak_bytes: u64,
}

/// Starts a measured section: resets the peak high-water mark to the
/// current live size and returns the baseline snapshot.
#[must_use]
pub fn begin() -> Snapshot {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    Snapshot {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        live_bytes: live,
    }
}

/// Ends a measured section: allocation count and peak-above-baseline since
/// the matching [`begin`].
#[must_use]
pub fn delta(base: Snapshot) -> AllocDelta {
    AllocDelta {
        allocations: ALLOCATIONS
            .load(Ordering::Relaxed)
            .saturating_sub(base.allocations),
        peak_bytes: PEAK_BYTES
            .load(Ordering::Relaxed)
            .saturating_sub(base.live_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so the counters are
    // driven by hand; the begin/delta bracket arithmetic is exercised end
    // to end. Sections interleave with nothing (counter updates only come
    // from this test), so the deltas are exact.
    #[test]
    fn bookkeeping_brackets_are_consistent() {
        let base = begin();
        on_alloc(100);
        on_alloc(50);
        on_dealloc(50);
        let d = delta(base);
        assert_eq!(d.allocations, 2);
        assert_eq!(d.peak_bytes, 150);
        on_dealloc(100);
        // A fresh section starts from a clean peak.
        let base = begin();
        on_alloc(30);
        on_dealloc(30);
        let d = delta(base);
        assert_eq!(d.allocations, 1);
        assert_eq!(d.peak_bytes, 30);
    }
}
