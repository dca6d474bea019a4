//! A counting wrapper around the system allocator: live heap bytes and
//! their peak since the last reset.
//!
//! The process's resident-set peak (VmHWM) mixes what the program allocates
//! with what the system allocator keeps after it is freed, which depends on
//! which per-thread arenas the engine's short-lived worker threads happened
//! to use. Live heap bytes count only what the program holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

pub struct Counting;

// Statistics only: the counters publish no other data, so `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Bytes a thread may allocate or free before it publishes them. Shared
/// counters updated on every allocation made queries a third slower; this
/// bounds the error to `FLUSH_BYTES` per live thread.
const FLUSH_BYTES: isize = 32 << 10;

/// A thread's unpublished allocation balance, published when it leaves
/// `±FLUSH_BYTES` and when the thread exits.
struct Pending(Cell<isize>);

impl Drop for Pending {
    fn drop(&mut self) {
        publish(self.0.replace(0));
    }
}

thread_local! {
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn publish(bytes: isize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn record(bytes: isize) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    let pending = PENDING.try_with(|p| {
        let total = p.0.get() + bytes;
        if total.abs() < FLUSH_BYTES {
            p.0.set(total);
            0
        } else {
            p.0.set(0);
            total
        }
    });
    // A thread past its thread-local destructors publishes directly.
    match pending {
        Ok(0) => {}
        Ok(total) => publish(total),
        Err(_) => publish(bytes),
    }
}

fn grow(bytes: usize) {
    record(bytes as isize);
}

fn shrink(bytes: usize) {
    record(-(bytes as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc`; the counters only record sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract; `ptr`
        // came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract; `ptr`
        // came from `System` through this wrapper.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Turn counting on or off (off at start). Allocations made or freed
/// while it is off are not counted, so the live count is absolute only
/// when counting has been on since the process started.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Restart the peak from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The most bytes live at once since the last [`reset_peak`], to within
/// `FLUSH_BYTES` per thread.
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed).max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_large_allocation_until_reset() {
        // Margins absorb unpublished balances and what tests on other
        // threads allocate meanwhile.
        const BLOCK: usize = 64 << 20;
        const SLACK: usize = 1 << 20;
        set_counting(true);
        reset_peak();
        let before = peak_bytes();
        let block = vec![1u8; BLOCK];
        assert!(peak_bytes() + SLACK >= before + BLOCK);
        drop(block);
        assert!(peak_bytes() + SLACK >= before + BLOCK, "the peak outlives the allocation");
        reset_peak();
        assert!(peak_bytes() < before + BLOCK - SLACK);
    }
}
