//! Memory arenas: where the engine's allocations land.
//!
//! * [`CpuHeap`] — a malloc-like host heap with address reuse. PyTorch's CPU
//!   allocator hands back recently freed blocks, which is exactly what makes
//!   raw trace pairing non-trivial (the Analyzer must handle address reuse,
//!   paper §3.2).
//! * [`GpuArena`] — the two-level caching allocator over a capacity-limited
//!   device, plus an [`NvmlSampler`] that polls total used memory on a 1 ms
//!   virtual-time grid, reproducing the paper's ground-truth methodology
//!   (§4.1.1).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use xmem_alloc::{
    AllocatorSnapshot, BlockHandle, CachingAllocator, MemoryCounters, OomError, TimelinePoint,
};

/// A place the engine can allocate from, stamped with a virtual clock.
pub trait MemoryArena {
    /// Allocates `bytes`, returning the block address.
    ///
    /// # Errors
    /// Returns [`OomError`] when the backing device is exhausted (never for
    /// the CPU heap).
    fn alloc(&mut self, ts_us: u64, bytes: usize) -> Result<u64, OomError>;

    /// Frees the block at `addr`.
    fn free(&mut self, ts_us: u64, addr: u64);

    /// Advances the arena's notion of time (drives NVML sampling).
    fn advance_clock(&mut self, ts_us: u64);

    /// Device id recorded in profiler instants (-1 CPU, 0 GPU).
    fn device_id(&self) -> i32;
}

/// Malloc-like host heap: first-fit reuse of freed blocks by size class,
/// monotonically growing otherwise. Never OOMs (the paper's premise: a CPU
/// server has RAM to spare).
#[derive(Debug, Default)]
pub struct CpuHeap {
    next_addr: u64,
    /// Freed blocks by size: realistic allocators hand back a recently
    /// freed block of the same size class, so addresses are reused.
    free_by_size: HashMap<usize, Vec<u64>, MixHash>,
    live: HashMap<u64, usize, MixHash>,
    peak_live_bytes: u64,
    live_bytes: u64,
}

/// Hashes integer keys (addresses and sizes) with the SplitMix64
/// finalizer: every bit of the key reaches the bucket bits, which matters
/// for 64-byte-aligned addresses. There is no per-map random seed, so it
/// suits keys a program makes itself or reads from its own traces, not
/// keys an untrusted peer chooses.
#[derive(Debug, Default)]
pub struct Mix64(u64);

impl Hasher for Mix64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64((self.0 << 8) | u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn write_usize(&mut self, key: usize) {
        self.write_u64(key as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hasher builder over [`Mix64`].
pub type MixHash = BuildHasherDefault<Mix64>;

impl CpuHeap {
    /// Creates an empty heap.
    #[must_use]
    pub fn new() -> Self {
        CpuHeap {
            next_addr: 0x5600_0000_0000,
            ..CpuHeap::default()
        }
    }

    /// High-water mark of live bytes (diagnostics).
    #[must_use]
    pub fn peak_live_bytes(&self) -> u64 {
        self.peak_live_bytes
    }

    /// Bytes currently live.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }
}

impl MemoryArena for CpuHeap {
    fn alloc(&mut self, _ts_us: u64, bytes: usize) -> Result<u64, OomError> {
        let bytes = bytes.max(1);
        let addr = match self.free_by_size.get_mut(&bytes).and_then(Vec::pop) {
            Some(addr) => addr,
            None => {
                let addr = self.next_addr;
                // 64-byte alignment like posix_memalign.
                self.next_addr += ((bytes as u64).div_ceil(64)) * 64;
                addr
            }
        };
        self.live.insert(addr, bytes);
        self.live_bytes += bytes as u64;
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
        Ok(addr)
    }

    fn free(&mut self, _ts_us: u64, addr: u64) {
        let bytes = self
            .live
            .remove(&addr)
            .expect("cpu heap free of unknown address");
        self.live_bytes -= bytes as u64;
        self.free_by_size.entry(bytes).or_default().push(addr);
    }

    fn advance_clock(&mut self, _ts_us: u64) {}

    fn device_id(&self) -> i32 {
        -1
    }
}

/// NVML-style sampler: records total used device memory at every 1 ms
/// boundary of virtual time (the paper samples NVML at 1 ms, §4.1.1).
/// Short-lived spikes *between* samples are invisible — faithfully so.
#[derive(Debug, Clone)]
pub struct NvmlSampler {
    interval_us: u64,
    next_sample_us: u64,
    peak_sampled: u64,
    samples: Vec<(u64, u64)>,
    record_series: bool,
}

impl NvmlSampler {
    /// Creates a sampler on a 1 ms grid with a phase offset.
    #[must_use]
    pub fn new(offset_us: u64, record_series: bool) -> Self {
        NvmlSampler {
            interval_us: 1000,
            next_sample_us: offset_us,
            peak_sampled: 0,
            samples: Vec::new(),
            record_series,
        }
    }

    /// Advances to `now_us`, sampling `current_used` at every grid point
    /// passed. `current_used` is the value since the previous event, which
    /// is exact because usage only changes at events.
    pub fn advance(&mut self, now_us: u64, current_used: u64) {
        while self.next_sample_us <= now_us {
            self.peak_sampled = self.peak_sampled.max(current_used);
            if self.record_series {
                self.samples.push((self.next_sample_us, current_used));
            }
            self.next_sample_us += self.interval_us;
        }
    }

    /// Highest sampled value.
    #[must_use]
    pub fn peak_sampled(&self) -> u64 {
        self.peak_sampled
    }

    /// The sampled series (empty unless recording was requested).
    #[must_use]
    pub fn samples(&self) -> &[(u64, u64)] {
        &self.samples
    }
}

/// Ground truth produced by a GPU run (paper notation: `M^peak` and `OOM`).
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Peak NVML-sampled total used memory (framework + segments), bytes.
    pub peak_nvml: u64,
    /// Exact peak of reserved segments + framework overhead (no sampling
    /// loss) — diagnostics only; estimators are scored against `peak_nvml`.
    pub peak_exact: u64,
    /// Whether the run died with an out-of-memory error.
    pub oom: bool,
    /// The OOM details when `oom` is true.
    pub oom_detail: Option<OomError>,
    /// Allocator counters at end (or at failure).
    pub counters: MemoryCounters,
    /// Segment/tensor usage curve, when recording was enabled.
    pub timeline: Vec<TimelinePoint>,
    /// Allocator snapshot at the end of the run, when recording was enabled.
    pub snapshot: Option<AllocatorSnapshot>,
    /// Virtual duration of the run in microseconds.
    pub duration_us: u64,
}

/// The GPU arena: two-level caching allocator + NVML sampler.
#[derive(Debug)]
pub struct GpuArena {
    allocator: CachingAllocator,
    /// The live allocations' handles by address: the engine frees by
    /// address, the allocator by handle.
    live: HashMap<u64, BlockHandle, MixHash>,
    sampler: NvmlSampler,
    now_us: u64,
}

impl GpuArena {
    /// Wraps a configured allocator. `sampler_offset_us` jitters the NVML
    /// grid phase; `record` enables curve/snapshot capture.
    #[must_use]
    pub fn new(allocator: CachingAllocator, sampler_offset_us: u64, record: bool) -> Self {
        let mut allocator = allocator;
        allocator.record_timeline(record);
        GpuArena {
            allocator,
            live: HashMap::default(),
            sampler: NvmlSampler::new(sampler_offset_us, record),
            now_us: 0,
        }
    }

    /// Total used device memory right now (what NVML reports).
    #[must_use]
    pub fn total_used(&self) -> u64 {
        self.allocator.device().total_used()
    }

    /// The wrapped allocator.
    #[must_use]
    pub fn allocator(&self) -> &CachingAllocator {
        &self.allocator
    }

    /// Finalizes the run into a [`GroundTruth`].
    #[must_use]
    pub fn into_ground_truth(mut self, oom: Option<OomError>, record: bool) -> GroundTruth {
        // Flush sampling to the end of the run.
        let used = self.total_used();
        self.sampler.advance(self.now_us + 1000, used);
        let counters = *self.allocator.counters();
        let framework = self.allocator.device().reserved_external();
        GroundTruth {
            peak_nvml: self.sampler.peak_sampled(),
            peak_exact: counters.peak_reserved + framework,
            oom: oom.is_some(),
            oom_detail: oom,
            counters,
            timeline: self.allocator.timeline().to_vec(),
            snapshot: record.then(|| self.allocator.snapshot()),
            duration_us: self.now_us,
        }
    }
}

impl MemoryArena for GpuArena {
    fn alloc(&mut self, ts_us: u64, bytes: usize) -> Result<u64, OomError> {
        self.advance_clock(ts_us);
        self.allocator.advance_clock(ts_us);
        let handle = self.allocator.alloc(bytes)?;
        self.live.insert(handle.addr(), handle);
        Ok(handle.addr())
    }

    fn free(&mut self, ts_us: u64, addr: u64) {
        self.advance_clock(ts_us);
        self.allocator.advance_clock(ts_us);
        let handle = self
            .live
            .remove(&addr)
            .expect("gpu arena free of unknown address");
        self.allocator.free(handle);
    }

    fn advance_clock(&mut self, ts_us: u64) {
        if ts_us > self.now_us {
            // Sample the *previous* usage level at grid points up to now.
            let used = self.total_used();
            self.sampler.advance(ts_us, used);
            self.now_us = ts_us;
        }
    }

    fn device_id(&self) -> i32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_alloc::{AllocatorConfig, DeviceAllocator};

    #[test]
    fn cpu_heap_reuses_addresses() {
        let mut h = CpuHeap::new();
        let a = h.alloc(0, 4096).unwrap();
        h.free(1, a);
        let b = h.alloc(2, 4096).unwrap();
        assert_eq!(a, b, "same size class reuses the freed address");
        let c = h.alloc(3, 4096).unwrap();
        assert_ne!(b, c);
    }

    #[test]
    fn cpu_heap_address_sequence_matches_an_ordered_map_heap() {
        use std::collections::BTreeMap;
        use xmem_alloc::OomError;

        /// The heap's policy over ordered maps: the reference its hashed
        /// maps must reproduce address for address.
        struct Reference {
            next_addr: u64,
            free_by_size: BTreeMap<usize, Vec<u64>>,
            live: BTreeMap<u64, usize>,
        }

        impl MemoryArena for Reference {
            fn alloc(&mut self, _: u64, bytes: usize) -> Result<u64, OomError> {
                let bytes = bytes.max(1);
                let addr = self
                    .free_by_size
                    .get_mut(&bytes)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| {
                        let addr = self.next_addr;
                        self.next_addr += (bytes as u64).div_ceil(64) * 64;
                        addr
                    });
                self.live.insert(addr, bytes);
                Ok(addr)
            }
            fn free(&mut self, _: u64, addr: u64) {
                let bytes = self.live.remove(&addr).expect("live");
                self.free_by_size.entry(bytes).or_default().push(addr);
            }
            fn advance_clock(&mut self, _: u64) {}
            fn device_id(&self) -> i32 {
                -1
            }
        }

        let mut heap = CpuHeap::new();
        let mut reference = Reference {
            next_addr: 0x5600_0000_0000,
            free_by_size: BTreeMap::new(),
            live: BTreeMap::new(),
        };
        // xorshift64*: a few size classes so addresses are reused often.
        let mut state = 0x9e37_79b9_97f4_a7c1u64;
        let mut live: Vec<u64> = Vec::new();
        for step in 0..20_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            if live.is_empty() || r % 5 < 3 {
                let bytes =
                    [0, 1, 64, 100, 4096, 1 << 20][(r >> 8) as usize % 6] + (r >> 32) as usize % 3;
                let addr = heap.alloc(step, bytes).unwrap();
                assert_eq!(
                    addr,
                    reference.alloc(step, bytes).unwrap(),
                    "alloc at step {step}"
                );
                live.push(addr);
            } else {
                let addr = live.swap_remove((r >> 8) as usize % live.len());
                heap.free(step, addr);
                reference.free(step, addr);
            }
        }
    }

    #[test]
    fn cpu_heap_tracks_peak() {
        let mut h = CpuHeap::new();
        let a = h.alloc(0, 100).unwrap();
        let _b = h.alloc(1, 200).unwrap();
        h.free(2, a);
        assert_eq!(h.peak_live_bytes(), 300);
        assert_eq!(h.live_bytes(), 200);
    }

    #[test]
    fn sampler_misses_short_spikes() {
        let mut s = NvmlSampler::new(0, true);
        // Spike to 100 between ms boundaries, back to 10 before the next.
        s.advance(500, 10);
        s.advance(999, 100);
        s.advance(2000, 10);
        // Samples at 0 and 1000/2000 never see the 100 spike value because
        // it decayed before the 1000us boundary... except the boundary at
        // 1000 samples what was current *at* 1000, which is 10 again only
        // if the spike ended; here advance(2000, 10) covers t=1000.
        assert!(s.peak_sampled() <= 100);
    }

    #[test]
    fn sampler_sees_sustained_levels() {
        let mut s = NvmlSampler::new(0, false);
        s.advance(100, 0);
        s.advance(5000, 4096); // level 4096 held from 100us to 5000us
        assert_eq!(s.peak_sampled(), 4096);
    }

    #[test]
    fn gpu_arena_produces_ground_truth() {
        let alloc = CachingAllocator::new(
            AllocatorConfig::pytorch_defaults(),
            DeviceAllocator::new(1 << 30, 2 << 20, 100 << 20),
        );
        let mut arena = GpuArena::new(alloc, 0, true);
        let a = arena.alloc(10, 4 << 20).unwrap();
        arena.advance_clock(3000);
        arena.free(3500, a);
        arena.advance_clock(5000);
        let gt = arena.into_ground_truth(None, true);
        assert!(!gt.oom);
        // 20 MiB segment + 100 MiB framework, held across ms boundaries.
        assert_eq!(gt.peak_nvml, (100 << 20) + (20 << 20));
        assert_eq!(gt.peak_exact, (100 << 20) + (20 << 20));
        assert!(gt.snapshot.is_some());
        assert!(!gt.timeline.is_empty());
    }

    #[test]
    fn gpu_arena_oom_surfaces() {
        let alloc = CachingAllocator::new(
            AllocatorConfig::pytorch_defaults(),
            DeviceAllocator::new(32 << 20, 2 << 20, 0),
        );
        let mut arena = GpuArena::new(alloc, 0, false);
        let err = arena.alloc(0, 64 << 20).unwrap_err();
        let gt = arena.into_ground_truth(Some(err), false);
        assert!(gt.oom);
        assert!(gt.oom_detail.is_some());
    }
}
