//! Global counting allocator for allocation/peak-memory accounting.
//!
//! [`CountingAllocator`] wraps the system allocator. Accounting is **off
//! by default**: until [`set_mem_enabled`]`(true)` each call forwards to
//! the system allocator after a single relaxed atomic load, so installing
//! it as the `#[global_allocator]` costs nothing measurable. When enabled
//! it tracks allocation count, total bytes allocated, live bytes and the
//! peak live footprint.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

static MEM_ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the counting allocator's totals since it was enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Number of allocation calls (allocs + reallocs).
    pub allocations: u64,
    /// Total bytes requested across all allocations.
    pub allocated_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
    /// Bytes still live at snapshot time.
    pub live_bytes: u64,
}

/// Enables or disables memory accounting. Enabling resets the counters so
/// stats cover exactly the enabled window.
pub fn set_mem_enabled(on: bool) {
    if on {
        ALLOCS.store(0, Ordering::Relaxed);
        ALLOC_BYTES.store(0, Ordering::Relaxed);
        CURRENT.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
    }
    MEM_ENABLED.store(on, Ordering::Relaxed);
}

/// Snapshots the current counters.
pub fn mem_stats() -> MemStats {
    MemStats {
        allocations: ALLOCS.load(Ordering::Relaxed),
        allocated_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
        live_bytes: CURRENT.load(Ordering::Relaxed),
    }
}

fn count_alloc(size: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    let live = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    // Monotonic max; races only ever under-report by one in-flight update.
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn count_dealloc(size: u64) {
    // Saturating: frees of blocks allocated before enabling must not
    // underflow the live counter.
    let _ = CURRENT
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| Some(cur.saturating_sub(size)));
}

/// A `#[global_allocator]`-compatible wrapper around [`System`] that
/// counts allocations when enabled via [`set_mem_enabled`].
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: noodle_trace::CountingAllocator = noodle_trace::CountingAllocator::new();
/// ```
pub struct CountingAllocator;

impl CountingAllocator {
    /// Creates the allocator (const, so it can be a static initializer).
    pub const fn new() -> Self {
        CountingAllocator
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && MEM_ENABLED.load(Ordering::Relaxed) {
            count_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        if MEM_ENABLED.load(Ordering::Relaxed) {
            count_dealloc(layout.size() as u64);
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && MEM_ENABLED.load(Ordering::Relaxed) {
            count_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() && MEM_ENABLED.load(Ordering::Relaxed) {
            count_dealloc(layout.size() as u64);
            count_alloc(new_size as u64);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_the_enabled_window() {
        // No global allocator installed in unit tests — drive the
        // counters directly to validate the arithmetic.
        set_mem_enabled(true);
        count_alloc(100);
        count_alloc(50);
        count_dealloc(100);
        let s = mem_stats();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.allocated_bytes, 150);
        assert_eq!(s.peak_bytes, 150);
        assert_eq!(s.live_bytes, 50);
        // Freeing a pre-enable block must saturate, not underflow.
        count_dealloc(10_000);
        assert_eq!(mem_stats().live_bytes, 0);
        set_mem_enabled(false);
    }
}
