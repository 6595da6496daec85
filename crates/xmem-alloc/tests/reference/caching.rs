use super::slab::Slab;
use super::CountersExt;
use std::collections::{BTreeSet, HashMap};
use xmem_alloc::{
    AllocatorConfig, DeviceAllocator, MemoryCounters, OomError, PoolKind, TimelinePoint,
};
use xmem_alloc::{AllocatorSnapshot, BlockSnapshot, BlockState, SegmentSnapshot};

type BlockKey = u32;
type SegmentKey = u32;

#[derive(Debug, Clone)]
struct Block {
    addr: u64,
    size: usize,
    /// Caller-requested size; 0 while the block is free.
    requested: usize,
    segment: SegmentKey,
    prev: Option<BlockKey>,
    next: Option<BlockKey>,
    allocated: bool,
}

#[derive(Debug, Clone)]
struct Segment {
    addr: u64,
    size: usize,
    pool: PoolKind,
    first_block: BlockKey,
}

/// Best-fit-with-coalescing caching allocator — the framework level of the
/// two-level simulation (paper §3.4 techniques i–v).
///
/// Mirrors PyTorch's `CUDACachingAllocator`:
/// 1. requests are rounded up to 512-byte multiples (*Round up*);
/// 2. memory is obtained from the device in *Segments* (2 MiB small
///    buffers, 20 MiB large buffers, 2 MiB-rounded huge allocations);
/// 3. free blocks are kept in per-pool ordered sets and served best-fit,
///    splitting when the remainder is worth keeping (*Algorithm*, BFC);
/// 4. freed blocks are cached and coalesced with free neighbours
///    (*Caching Behaviour*);
/// 5. on device OOM, cached segments are released and the request retried;
///    only if that fails is [`OomError`] reported (*OOM*, two-level
///    semantics).
///
/// Streams are not modeled (the evaluation workloads are single-stream
/// training loops); this is the only simplification relative to the real
/// allocator and is shared with the paper's released simulator.
#[derive(Debug, Clone)]
pub struct CachingAllocator {
    config: AllocatorConfig,
    device: DeviceAllocator,
    blocks: Slab<Block>,
    segments: Slab<Segment>,
    /// Free blocks keyed by (size, addr) — best-fit = first in range.
    free_small: BTreeSet<(usize, u64, BlockKey)>,
    free_large: BTreeSet<(usize, u64, BlockKey)>,
    by_addr: HashMap<u64, BlockKey>,
    counters: MemoryCounters,
    clock_us: u64,
    timeline: Option<Vec<TimelinePoint>>,
}

impl CachingAllocator {
    /// Creates an allocator over `device` with the given behaviour knobs.
    #[must_use]
    pub fn new(config: AllocatorConfig, device: DeviceAllocator) -> Self {
        CachingAllocator {
            config,
            device,
            blocks: Slab::new(),
            segments: Slab::new(),
            free_small: BTreeSet::new(),
            free_large: BTreeSet::new(),
            by_addr: HashMap::new(),
            counters: MemoryCounters::default(),
            clock_us: 0,
            timeline: None,
        }
    }

    /// Convenience constructor with PyTorch defaults on an unlimited device.
    #[must_use]
    pub fn unbounded() -> Self {
        CachingAllocator::new(
            AllocatorConfig::pytorch_defaults(),
            DeviceAllocator::unlimited(),
        )
    }

    /// The behaviour configuration.
    #[must_use]
    pub fn config(&self) -> &AllocatorConfig {
        &self.config
    }

    /// The underlying device level.
    #[must_use]
    pub fn device(&self) -> &DeviceAllocator {
        &self.device
    }

    /// Mutable access to the device level (used by the validation protocol
    /// to tighten the external reservation between rounds).
    pub fn device_mut(&mut self) -> &mut DeviceAllocator {
        &mut self.device
    }

    /// Current counters.
    #[must_use]
    pub fn counters(&self) -> &MemoryCounters {
        &self.counters
    }

    /// Advances the virtual clock used to stamp timeline points.
    pub fn advance_clock(&mut self, ts_us: u64) {
        self.clock_us = self.clock_us.max(ts_us);
    }

    /// Enables usage-curve recording (one point per alloc/free).
    pub fn record_timeline(&mut self, enable: bool) {
        if enable && self.timeline.is_none() {
            self.timeline = Some(Vec::new());
        } else if !enable {
            self.timeline = None;
        }
    }

    /// The recorded usage curve, if recording is enabled.
    #[must_use]
    pub fn timeline(&self) -> &[TimelinePoint] {
        self.timeline.as_deref().unwrap_or(&[])
    }

    fn note_timeline(&mut self) {
        if let Some(t) = &mut self.timeline {
            t.push(TimelinePoint {
                ts_us: self.clock_us,
                allocated: self.counters.allocated,
                reserved: self.counters.reserved,
            });
        }
    }

    fn pool_of(&self, rounded: usize) -> PoolKind {
        if rounded <= self.config.small_size {
            PoolKind::Small
        } else {
            PoolKind::Large
        }
    }

    fn free_set(&mut self, pool: PoolKind) -> &mut BTreeSet<(usize, u64, BlockKey)> {
        match pool {
            PoolKind::Small => &mut self.free_small,
            PoolKind::Large => &mut self.free_large,
        }
    }

    /// Allocates `size` bytes, returning the block's device address.
    ///
    /// # Errors
    /// Returns [`OomError`] when the request cannot be satisfied at either
    /// level even after cached-segment reclamation.
    pub fn alloc(&mut self, size: usize) -> Result<u64, OomError> {
        let rounded = self.config.round_size(size);
        let pool = self.pool_of(rounded);

        let key = match self.find_free_block(pool, rounded) {
            Some(key) => key,
            None => self.alloc_segment_block(pool, rounded, size)?,
        };

        let key = self.maybe_split(pool, key, rounded);
        let block = self.blocks.get_mut(key);
        block.allocated = true;
        block.requested = size;
        let addr = block.addr;
        // `active` tracks real block sizes: when the remainder was too small
        // to split off, the block is larger than the rounded request.
        let block_size = block.size as u64;
        self.by_addr.insert(addr, key);
        self.counters.on_alloc(size as u64, block_size);
        self.note_timeline();
        Ok(addr)
    }

    /// Frees the block at `addr`, caching and coalescing it.
    ///
    /// # Panics
    /// Panics if `addr` is not a live allocation (a simulation bug).
    pub fn free(&mut self, addr: u64) {
        let key = self.by_addr.remove(&addr).expect("free of unknown address");
        let block = self.blocks.get_mut(key);
        assert!(block.allocated, "double free");
        block.allocated = false;
        let requested = std::mem::take(&mut block.requested);
        let rounded = block.size;
        let segment_key = block.segment;
        let pool = self.segments.get(segment_key).pool;

        self.counters.on_free(requested as u64, rounded as u64);
        let merged = self.coalesce(pool, key);

        if self.config.caching_enabled {
            let b = self.blocks.get(merged);
            let entry = (b.size, b.addr, merged);
            self.free_set(pool).insert(entry);
        } else {
            // Non-caching ablation: return whole-segment blocks to the
            // device immediately; partial blocks must stay.
            let b = self.blocks.get(merged);
            let seg = self.segments.get(segment_key);
            if b.size == seg.size {
                self.release_segment_with_block(segment_key, merged);
            } else {
                let entry = (b.size, b.addr, merged);
                self.free_set(pool).insert(entry);
            }
        }
        self.note_timeline();
    }

    /// Releases every cached whole-segment block back to the device
    /// (`torch.cuda.empty_cache()`).
    pub fn empty_cache(&mut self) {
        self.release_cached_segments(None);
    }

    /// Captures the full segment/block state.
    #[must_use]
    pub fn snapshot(&self) -> AllocatorSnapshot {
        let mut segments: Vec<SegmentSnapshot> = Vec::with_capacity(self.segments.len());
        for (_, seg) in self.segments.iter() {
            let mut blocks = Vec::new();
            let mut cur = Some(seg.first_block);
            while let Some(k) = cur {
                let b = self.blocks.get(k);
                blocks.push(BlockSnapshot {
                    offset: b.addr - seg.addr,
                    size: b.size as u64,
                    requested: b.requested as u64,
                    state: if b.allocated {
                        BlockState::Allocated
                    } else {
                        BlockState::Free
                    },
                });
                cur = b.next;
            }
            segments.push(SegmentSnapshot {
                addr: seg.addr,
                size: seg.size as u64,
                pool: seg.pool,
                blocks,
            });
        }
        segments.sort_by_key(|s| s.addr);
        AllocatorSnapshot {
            ts_us: self.clock_us,
            segments,
            counters: self.counters,
        }
    }

    // ---- internals -------------------------------------------------------

    fn find_free_block(&mut self, pool: PoolKind, rounded: usize) -> Option<BlockKey> {
        let max_split = self.config.max_split_size;
        let set = self.free_set(pool);
        let mut chosen = None;
        for &(size, addr, key) in set.range((rounded, 0, 0)..) {
            if let Some(mss) = max_split {
                // Oversize blocks are preserved for oversize requests.
                if size >= mss && rounded < mss {
                    continue;
                }
            }
            chosen = Some((size, addr, key));
            break;
        }
        let (size, addr, key) = chosen?;
        set.remove(&(size, addr, key));
        Some(key)
    }

    fn alloc_segment_block(
        &mut self,
        pool: PoolKind,
        rounded: usize,
        requested: usize,
    ) -> Result<BlockKey, OomError> {
        let alloc_size = self.config.allocation_size(rounded);
        let mut reclaim_attempted = false;

        // Proactive garbage collection (`garbage_collection_threshold`):
        // trim cached whole segments before growing past the configured
        // fraction of usable capacity.
        if let Some(threshold) = self.config.gc_threshold {
            let usable = self
                .device
                .capacity()
                .saturating_sub(self.device.reserved_external());
            if usable < u64::MAX / 4 {
                let budget = (usable as f64 * threshold) as u64;
                if self.counters.reserved + alloc_size as u64 > budget {
                    self.release_cached_segments(None);
                }
            }
        }

        let addr = match self.device.alloc(alloc_size as u64) {
            Some(addr) => addr,
            None if self.config.reclaim_on_oom => {
                reclaim_attempted = true;
                // First try freeing cached blocks from the same pool that
                // could satisfy the request, then everything.
                self.release_cached_segments(Some((pool, alloc_size)));
                match self.device.alloc(alloc_size as u64) {
                    Some(addr) => addr,
                    None => {
                        self.release_cached_segments(None);
                        self.device
                            .alloc(alloc_size as u64)
                            .ok_or_else(|| self.oom_error(requested, rounded, alloc_size, true))?
                    }
                }
            }
            None => return Err(self.oom_error(requested, rounded, alloc_size, false)),
        };
        if reclaim_attempted {
            self.counters.num_reclaims += 1;
        }

        let segment_key = self.segments.insert(Segment {
            addr,
            size: alloc_size,
            pool,
            first_block: 0, // patched below
        });
        let block_key = self.blocks.insert(Block {
            addr,
            size: alloc_size,
            requested: 0,
            segment: segment_key,
            prev: None,
            next: None,
            allocated: false,
        });
        self.segments.get_mut(segment_key).first_block = block_key;
        self.counters.on_segment_alloc(alloc_size as u64);
        Ok(block_key)
    }

    fn oom_error(
        &self,
        requested: usize,
        rounded: usize,
        segment_request: usize,
        reclaim_attempted: bool,
    ) -> OomError {
        OomError {
            requested,
            rounded,
            segment_request,
            device_capacity: self
                .device
                .capacity()
                .saturating_sub(self.device.reserved_external()),
            reserved: self.counters.reserved,
            allocated: self.counters.allocated,
            reclaim_attempted,
        }
    }

    /// Splits `key` if worthwhile, returning the key of the block that will
    /// serve the request (the leading part).
    fn maybe_split(&mut self, pool: PoolKind, key: BlockKey, rounded: usize) -> BlockKey {
        let (block_size, block_addr, segment, next) = {
            let b = self.blocks.get(key);
            (b.size, b.addr, b.segment, b.next)
        };
        debug_assert!(block_size >= rounded);
        if !self
            .config
            .should_split(pool == PoolKind::Small, block_size, rounded)
        {
            return key;
        }
        let remainder_key = self.blocks.insert(Block {
            addr: block_addr + rounded as u64,
            size: block_size - rounded,
            requested: 0,
            segment,
            prev: Some(key),
            next,
            allocated: false,
        });
        if let Some(next_key) = next {
            self.blocks.get_mut(next_key).prev = Some(remainder_key);
        }
        {
            let b = self.blocks.get_mut(key);
            b.size = rounded;
            b.next = Some(remainder_key);
        }
        let r = self.blocks.get(remainder_key);
        let entry = (r.size, r.addr, remainder_key);
        self.free_set(pool).insert(entry);
        key
    }

    /// Merges `key` with free neighbours; returns the surviving block key.
    /// The surviving block is *not* inserted into the free set.
    fn coalesce(&mut self, pool: PoolKind, key: BlockKey) -> BlockKey {
        let mut key = key;
        // Merge with previous while free.
        loop {
            let prev = self.blocks.get(key).prev;
            match prev {
                Some(p) if !self.blocks.get(p).allocated => {
                    let entry = {
                        let b = self.blocks.get(p);
                        (b.size, b.addr, p)
                    };
                    self.free_set(pool).remove(&entry);
                    let removed = self.blocks.remove(key);
                    let p_block = self.blocks.get_mut(p);
                    p_block.size += removed.size;
                    p_block.next = removed.next;
                    if let Some(n) = removed.next {
                        self.blocks.get_mut(n).prev = Some(p);
                    }
                    key = p;
                }
                _ => break,
            }
        }
        // Merge with next while free.
        loop {
            let next = self.blocks.get(key).next;
            match next {
                Some(n) if !self.blocks.get(n).allocated => {
                    let entry = {
                        let b = self.blocks.get(n);
                        (b.size, b.addr, n)
                    };
                    self.free_set(pool).remove(&entry);
                    let removed = self.blocks.remove(n);
                    let b = self.blocks.get_mut(key);
                    b.size += removed.size;
                    b.next = removed.next;
                    if let Some(nn) = removed.next {
                        self.blocks.get_mut(nn).prev = Some(key);
                    }
                }
                _ => break,
            }
        }
        key
    }

    /// Releases cached whole-segment free blocks back to the device.
    ///
    /// With `filter = Some((pool, min_size))` only blocks from `pool` of at
    /// least `min_size` are released (PyTorch's
    /// `release_available_cached_blocks`); with `None`, everything
    /// releasable goes (`release_cached_blocks`).
    fn release_cached_segments(&mut self, filter: Option<(PoolKind, usize)>) {
        // Single scan over the segments: everything the release loop
        // needs — including the free-set entry, which is fully determined
        // by the (whole-segment) block — is captured here, so no slab
        // lookups happen while mutating. The buffer is sized up front; a
        // reclaim never reallocates it mid-collection.
        let mut to_release: Vec<(SegmentKey, BlockKey, PoolKind, usize, u64)> =
            Vec::with_capacity(self.segments.len());
        for (seg_key, seg) in self.segments.iter() {
            if let Some((pool, min_size)) = filter {
                if seg.pool != pool || seg.size < min_size {
                    continue;
                }
            }
            let first = self.blocks.get(seg.first_block);
            // Releasable iff the segment is one free block.
            if !first.allocated && first.next.is_none() && first.prev.is_none() {
                to_release.push((seg_key, seg.first_block, seg.pool, first.size, first.addr));
            }
        }
        for (seg_key, block_key, pool, size, addr) in to_release {
            self.free_set(pool).remove(&(size, addr, block_key));
            self.release_segment_with_block(seg_key, block_key);
        }
    }

    fn release_segment_with_block(&mut self, seg_key: SegmentKey, block_key: BlockKey) {
        let seg = self.segments.remove(seg_key);
        self.blocks.remove(block_key);
        self.device.free(seg.addr);
        self.counters.on_segment_release(seg.size as u64);
    }

    /// Exhaustive structural self-check used by tests and property tests.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    pub fn check_invariants(&self) {
        let mut reserved = 0u64;
        let mut active = 0u64;
        let mut allocated = 0u64;
        let mut free_seen = 0usize;
        for (seg_key, seg) in self.segments.iter() {
            reserved += seg.size as u64;
            let mut offset = 0u64;
            let mut cur = Some(seg.first_block);
            let mut prev: Option<BlockKey> = None;
            let mut last_free = false;
            while let Some(k) = cur {
                let b = self.blocks.get(k);
                assert_eq!(b.segment, seg_key, "block points at wrong segment");
                assert_eq!(b.addr, seg.addr + offset, "blocks must tile the segment");
                assert_eq!(b.prev, prev, "prev link broken");
                if b.allocated {
                    active += b.size as u64;
                    allocated += b.requested as u64;
                    assert_eq!(
                        self.by_addr.get(&b.addr),
                        Some(&k),
                        "allocated block missing from address index"
                    );
                    last_free = false;
                } else {
                    assert!(
                        !last_free,
                        "two adjacent free blocks must have been coalesced"
                    );
                    last_free = true;
                    free_seen += 1;
                    let entry = (b.size, b.addr, k);
                    let in_set = match seg.pool {
                        PoolKind::Small => self.free_small.contains(&entry),
                        PoolKind::Large => self.free_large.contains(&entry),
                    };
                    assert!(in_set, "free block missing from its pool set");
                }
                offset += b.size as u64;
                prev = Some(k);
                cur = b.next;
            }
            assert_eq!(offset, seg.size as u64, "blocks must cover the segment");
        }
        assert_eq!(reserved, self.counters.reserved, "reserved counter drift");
        assert_eq!(active, self.counters.active, "active counter drift");
        assert_eq!(
            allocated, self.counters.allocated,
            "allocated counter drift"
        );
        assert_eq!(
            free_seen,
            self.free_small.len() + self.free_large.len(),
            "free set size mismatch"
        );
        assert_eq!(
            self.device.live_allocs(),
            self.segments.len(),
            "device allocations must equal segments"
        );
    }
}
