//! Live-heap accounting: a global allocator that forwards every call to
//! the system allocator and counts the bytes in use and their high-water
//! mark. A study's peak is then the heap it needed, free of what the
//! allocator keeps mapped after earlier studies (which is what makes the
//! process's `VmHWM` creep upward over a run).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The benchmark's global allocator.
pub struct Counting;

// Relaxed suffices: the counters are statistics that publish no other
// data, and every update is a read-modify-write on one variable, so an
// allocation's add is ordered before the matching free's subtract by the
// same synchronization that hands the pointer between threads.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's pointer,
// layout and size unchanged and returns its result unchanged, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the
// counters never influence what is allocated.
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
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Start a new high-water mark at the bytes in use now, and return them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The most bytes in use at once since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_the_largest_live_allocation() {
        // Other tests allocate and free concurrently, so check only what
        // this allocation must have caused.
        reset_peak();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(LIVE.load(Relaxed) >= 64 << 20);
        assert!(peak() >= 64 << 20);
    }
}
