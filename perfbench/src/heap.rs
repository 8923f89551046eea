//! A counting global allocator: live and peak heap bytes of the process.
//!
//! Peak resident set (`VmHWM`) swings by a fifth between identical runs of
//! the program, with the allocator's per-thread arenas; the peak of live
//! heap bytes over a call does not, so the benchmark reports that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`] plus live/peak byte counters.
pub struct Counting;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Start a measurement: the peak restarts from the bytes live now, which
/// are returned as the base for [`peak_above`].
pub fn reset_peak() -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    base
}

/// Peak heap bytes above `base` since the matching [`reset_peak`].
pub fn peak_above(base: usize) -> usize {
    PEAK.load(Relaxed).saturating_sub(base)
}

/// Run `f` and return its result with the peak heap bytes it added on top
/// of what was live when it started.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = reset_peak();
    let out = f();
    (out, peak_above(base))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_sees_a_temporary_buffer() {
        let (len, peak) = peak_during(|| std::hint::black_box(vec![0u8; 1 << 20]).len());
        assert_eq!(len, 1 << 20);
        assert!(peak >= 1 << 20);
    }
}
