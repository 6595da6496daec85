//! The caching allocator as it was before blocks were freed by handle and
//! the free sets became size-binned linked lists: `BTreeSet` free sets, a
//! `HashMap` from address to block, `Option` links. Kept verbatim (only
//! its imports differ) as the oracle the library allocator must match
//! address for address, error for error, counter for counter and
//! snapshot for snapshot.
//!
//! Shared by the differential suites of `xmem-alloc` (random sequences)
//! and `xmem-core` (the event streams of real jobs).

#![allow(dead_code)]

mod caching;
mod slab;

pub use caching::CachingAllocator;

use xmem_alloc::MemoryCounters;

/// The counter updates `MemoryCounters` keeps crate-private, restated
/// for the reference with the same arithmetic.
trait CountersExt {
    fn on_alloc(&mut self, requested: u64, rounded: u64);
    fn on_free(&mut self, requested: u64, rounded: u64);
    fn on_segment_alloc(&mut self, bytes: u64);
    fn on_segment_release(&mut self, bytes: u64);
}

impl CountersExt for MemoryCounters {
    fn on_alloc(&mut self, requested: u64, rounded: u64) {
        self.allocated += requested;
        self.active += rounded;
        self.num_allocs += 1;
        self.peak_allocated = self.peak_allocated.max(self.allocated);
        self.peak_active = self.peak_active.max(self.active);
    }

    fn on_free(&mut self, requested: u64, rounded: u64) {
        self.allocated -= requested;
        self.active -= rounded;
        self.num_frees += 1;
    }

    fn on_segment_alloc(&mut self, bytes: u64) {
        self.reserved += bytes;
        self.num_segments_allocated += 1;
        self.peak_reserved = self.peak_reserved.max(self.reserved);
    }

    fn on_segment_release(&mut self, bytes: u64) {
        self.reserved -= bytes;
        self.num_segments_released += 1;
    }
}
