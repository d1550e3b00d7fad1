//! The host the benchmark runs on: how fast it currently is, and how much
//! memory the process asks it for.
//!
//! A VM that shares its machine with others (such as the 2-vCPU VM the
//! bounds were set on) drifts in speed by tens of percent over minutes.
//! The benchmark therefore times a fixed reference computation between
//! cells and states cell times in *calibrated* seconds: the seconds the
//! cell would have taken had the host run the reference at its nominal
//! speed. The reference is std-only code in this crate whose tables are
//! allocated once, before any cell runs, so a change to the repository's
//! crates can reach it only through the caches a cell leaves behind.
//!
//! Memory is counted by [`HeapCounter`], which `main.rs` installs as the
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Seconds the reference takes on the host the bounds were set on (a
/// 2-vCPU x86-64 VM) when its neighbours leave it alone.
pub const REFERENCE_NOMINAL_S: f64 = 0.0115;

/// The reference computation: random updates to a 512 KiB table (compute
/// and cache) and to an 8 MiB one (memory), the two kinds of work a
/// simulated core and its caches do.
pub struct Reference {
    small: Vec<u64>,
    large: Vec<u64>,
}

impl Reference {
    /// Allocates the tables and touches every page of them once.
    pub fn allocate() -> Reference {
        let mut r = Reference {
            small: vec![0; 1 << 16],
            large: vec![0; 1 << 20],
        };
        r.time_s();
        r
    }

    /// Times the reference, in seconds: the faster of two passes, so that
    /// refilling the caches a cell evicted the tables from does not count.
    pub fn time_s(&mut self) -> f64 {
        let mut pass = || {
            let t0 = Instant::now();
            black_box(scatter(&mut self.small, 2_000_000));
            black_box(scatter(&mut self.large, 1_000_000));
            t0.elapsed().as_secs_f64()
        };
        pass().min(pass())
    }
}

fn scatter(table: &mut [u64], updates: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..updates {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize) & mask;
        table[k] = table[k].wrapping_add(i ^ x);
    }
    table.iter().fold(0, |a, &b| a ^ b)
}

/// How much slower than nominal the host ran, from the reference timed
/// before and after a measured interval.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / (2.0 * REFERENCE_NOMINAL_S)
}

/// The system allocator, counting the bytes the process holds and their
/// peak. Unlike the resident set, which keeps pages the allocator has
/// freed but not returned, this tracks what the program asks for.
pub struct HeapCounter;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The bytes held at the last reset.
static BASE: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only record sizes and never affect
// the pointers or layouts returned.
unsafe impl GlobalAlloc for HeapCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Restarts the peak count from the bytes held now.
pub fn reset_peak_heap() {
    let live = LIVE.load(Ordering::Relaxed);
    BASE.store(live, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
}

/// The most bytes held since the last reset beyond those held at the
/// reset, in MB. Zero unless [`HeapCounter`] is the global allocator.
pub fn peak_heap_mb() -> f64 {
    let added = PEAK
        .load(Ordering::Relaxed)
        .saturating_sub(BASE.load(Ordering::Relaxed));
    added as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_takes_time() {
        assert!(Reference::allocate().time_s() > 0.0);
        assert_eq!(slowdown(REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S), 1.0);
    }

    #[test]
    fn the_heap_peak_follows_allocations() {
        // Tests share the process, and others may free what they held at
        // the reset, so only a loose lower bound is certain. A zeroed
        // allocation is counted in full but touches no pages.
        reset_peak_heap();
        let big = black_box(vec![0u8; 1 << 30]);
        assert!(peak_heap_mb() >= 512.0);
        drop(big);
    }
}
