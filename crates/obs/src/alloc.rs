//! The counting global allocator: a [`System`]-backed allocator that
//! tracks the high-water mark of live heap bytes.
//!
//! Promoted out of `benches/construction.rs` so any binary — the CLI
//! for `construct --metrics`, the benches, a test harness — can install
//! it and report the peak *transient* allocation of a pipeline phase:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: at_obs::alloc::CountingAllocator = at_obs::alloc::CountingAllocator;
//!
//! let baseline = at_obs::alloc::reset_peak();
//! let space = build(...);
//! let peak = at_obs::alloc::peak_since(baseline);
//! ```
//!
//! A [`PeakWindow`] measures a region the same way, and on close gives
//! the high-water mark back to whoever measures around it.
//!
//! The counters are relaxed atomics updated on every alloc/dealloc —
//! a few nanoseconds per allocation, the same cost the benches have
//! always paid. Binaries that do not install the allocator still link
//! fine; the counters just stay at zero ([`installed`] reports which).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Live heap bytes under the counting allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Set on the first allocation routed through [`CountingAllocator`].
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// A [`System`]-backed allocator that tracks the high-water mark of
/// live heap bytes, so one instrumented run can report the peak
/// transient footprint of a construction. Install with
/// `#[global_allocator]`.
pub struct CountingAllocator;

// SAFETY: delegates every allocation verbatim to `System`; the counters
// are monotonic atomics with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is passed through unchanged from our caller,
        // which guarantees the `GlobalAlloc::alloc` contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            INSTALLED.store(true, Ordering::Relaxed);
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    // SAFETY: `ptr`/`layout` were produced by the matching `alloc`
    // above, which delegated to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the fn-level contract pass-through above.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: same contract pass-through as `alloc`/`dealloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: see the fn-level contract pass-through above.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                let grown = new_size - layout.size();
                let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

/// Whether a [`CountingAllocator`] has served at least one allocation
/// in this process (i.e. it is actually installed as the global
/// allocator). When false, every probe below reports zero.
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Current live heap bytes.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Current high-water mark of live heap bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Reset the high-water mark to the current live size and return that
/// baseline; pair with [`peak_since`] around the region to profile.
pub fn reset_peak() -> usize {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    baseline
}

/// Peak transient bytes above `baseline` (from [`reset_peak`]) seen
/// since the reset.
pub fn peak_since(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

/// A nested measurement window over the high-water mark.
///
/// [`PeakWindow::open`] saves the mark as it stands, then resets it to the
/// live size, so [`PeakWindow::peak`] reports only what the window
/// allocated. Closing the window (dropping it) raises the mark back to the
/// larger of the saved and the inner mark, so whoever measures around the
/// window — a host running several commands in process — still reads the
/// peak of everything inside it. [`reset_peak`] without a window gives the
/// outer peak away.
#[derive(Debug)]
pub struct PeakWindow {
    outer: usize,
    baseline: usize,
}

impl PeakWindow {
    /// Open a window: save the current mark, then reset it.
    pub fn open() -> PeakWindow {
        let outer = PEAK.load(Ordering::Relaxed);
        let baseline = reset_peak();
        PeakWindow { outer, baseline }
    }

    /// Peak transient bytes above the live size at [`PeakWindow::open`].
    pub fn peak(&self) -> usize {
        peak_since(self.baseline)
    }
}

impl Drop for PeakWindow {
    fn drop(&mut self) {
        PEAK.fetch_max(self.outer, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so the counters
    // stay untouched — which is itself the documented behavior — until
    // the test drives them by hand.
    #[test]
    fn probes_report_zero_when_not_installed_and_windows_nest() {
        assert!(!installed());
        assert_eq!(live_bytes(), 0);
        let baseline = reset_peak();
        let _v: Vec<u64> = (0..1024).collect();
        assert_eq!(peak_since(baseline), 0);

        // A window over counters driven by hand (one test, so nothing runs
        // beside it): an outer peak of 900 bytes over 100 live, then a
        // window that peaks lower.
        let saved = (LIVE.load(Ordering::Relaxed), PEAK.load(Ordering::Relaxed));
        LIVE.store(100, Ordering::Relaxed);
        PEAK.store(900, Ordering::Relaxed);
        let window = PeakWindow::open();
        assert_eq!(peak_bytes(), 100, "the window starts from the live size");
        PEAK.fetch_max(400, Ordering::Relaxed);
        assert_eq!(window.peak(), 300);
        drop(window);
        assert_eq!(peak_bytes(), 900, "the outer peak survives the window");
        // An inner peak above the outer one stays.
        let window = PeakWindow::open();
        PEAK.fetch_max(1500, Ordering::Relaxed);
        drop(window);
        assert_eq!(peak_bytes(), 1500);
        LIVE.store(saved.0, Ordering::Relaxed);
        PEAK.store(saved.1, Ordering::Relaxed);
    }
}
