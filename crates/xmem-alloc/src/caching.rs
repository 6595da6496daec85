use crate::slab::Slab;
use crate::snapshot::{AllocatorSnapshot, BlockSnapshot, BlockState, SegmentSnapshot};
use crate::{AllocatorConfig, DeviceAllocator, MemoryCounters, OomError, PoolKind, TimelinePoint};

type BlockId = u32;

/// The absent `prev`/`next` link: the block starts or ends its segment.
const NIL: BlockId = BlockId::MAX;

#[derive(Debug, Clone)]
struct Block {
    addr: u64,
    size: usize,
    /// Caller-requested size; 0 while the block is free.
    requested: usize,
    prev: BlockId,
    next: BlockId,
    /// Links of the free block's size-bin list; stale while allocated.
    free_prev: BlockId,
    free_next: BlockId,
    /// The pool of the block's segment.
    pool: PoolKind,
    allocated: bool,
}

impl Block {
    /// A block with no neighbours and no bin links.
    fn new(addr: u64, size: usize, pool: PoolKind) -> Self {
        Block {
            addr,
            size,
            requested: 0,
            prev: NIL,
            next: NIL,
            free_prev: NIL,
            free_next: NIL,
            pool,
            allocated: false,
        }
    }

    /// Whether the block is its segment's only block.
    fn is_whole_segment(&self) -> bool {
        self.prev == NIL && self.next == NIL
    }

    /// `(size << 64) | addr`: keys order blocks by size, then address,
    /// which is best-fit order.
    fn key(&self) -> u128 {
        ((self.size as u128) << 64) | u128::from(self.addr)
    }
}

/// A live allocation returned by [`CachingAllocator::alloc`]: the block it
/// occupies and that block's device address. [`CachingAllocator::free`]
/// takes it back, so freeing needs no address lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockHandle {
    id: BlockId,
    addr: u64,
}

impl BlockHandle {
    /// The block's device address.
    #[must_use]
    pub fn addr(self) -> u64 {
        self.addr
    }
}

/// Size bins per power of two (as a shift).
const SUB_BITS: u32 = 3;

/// Bins a free list needs to cover every `usize` size.
const BINS: usize = ((usize::BITS - SUB_BITS + 1) as usize) << SUB_BITS;

/// The size bin of `size` bytes: sizes below `2^SUB_BITS` have a bin each,
/// larger ones share `2^SUB_BITS` bins per power of two. Non-decreasing in
/// `size`, so every block in a higher bin is larger than every block in a
/// lower one.
fn bin_of(size: usize) -> usize {
    let log = size.max(1).ilog2();
    if log < SUB_BITS {
        size
    } else {
        let sub = (size >> (log - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (((log - SUB_BITS + 1) as usize) << SUB_BITS) | sub
    }
}

/// One pool's free blocks, segregated by size bin. Each bin is a list
/// linked through the blocks and kept in best-fit order (size, then
/// address); a bitmap marks the bins that hold blocks. The best fit for a
/// request is the first sufficient block in the request's own bin, else the
/// head of the next non-empty bin. A bin holds only the blocks of one
/// narrow size range, so every operation is a short walk, not a search
/// over the whole pool.
#[derive(Debug, Clone)]
struct FreeBins {
    heads: Vec<BlockId>,
    nonempty: Vec<u64>,
}

impl FreeBins {
    fn new() -> Self {
        FreeBins {
            heads: vec![NIL; BINS],
            nonempty: vec![0; BINS.div_ceil(64)],
        }
    }

    /// The first non-empty bin at or after `from`.
    fn next_nonempty(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.nonempty.get(word)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            bits = *self.nonempty.get(word)?;
        }
    }

    fn set_head(&mut self, bin: usize, head: BlockId) {
        self.heads[bin] = head;
        let bit = 1u64 << (bin % 64);
        if head == NIL {
            self.nonempty[bin / 64] &= !bit;
        } else {
            self.nonempty[bin / 64] |= bit;
        }
    }
}

/// Best-fit-with-coalescing caching allocator — the framework level of the
/// two-level simulation (paper §3.4 techniques i–v).
///
/// Mirrors PyTorch's `CUDACachingAllocator`:
/// 1. requests are rounded up to 512-byte multiples (*Round up*);
/// 2. memory is obtained from the device in *Segments* (2 MiB small
///    buffers, 20 MiB large buffers, 2 MiB-rounded huge allocations);
/// 3. free blocks are kept per pool in size bins ordered by size, then
///    address, and served best-fit, splitting when the remainder is worth
///    keeping (*Algorithm*, BFC);
/// 4. freed blocks are cached and coalesced with free neighbours
///    (*Caching Behaviour*);
/// 5. on device OOM, cached segments are released and the request retried;
///    only if that fails is [`OomError`] reported (*OOM*, two-level
///    semantics).
///
/// A segment is the chain of blocks that tile it, from the block with no
/// `prev` link; the allocator keeps no other record of it.
///
/// Streams are not modeled (the evaluation workloads are single-stream
/// training loops); this is the only simplification relative to the real
/// allocator and is shared with the paper's released simulator.
#[derive(Debug, Clone)]
pub struct CachingAllocator {
    config: AllocatorConfig,
    device: DeviceAllocator,
    blocks: Slab<Block>,
    /// Free blocks per pool, indexed by `PoolKind as usize`.
    free: [FreeBins; 2],
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
            free: [FreeBins::new(), FreeBins::new()],
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

    /// Puts free block `id` in its size bin, after every block with a
    /// smaller key.
    fn cache_block(&mut self, id: BlockId) {
        let b = self.blocks.get(id);
        let (key, pool, bin) = (b.key(), b.pool as usize, bin_of(b.size));
        let mut prev = NIL;
        let mut next = self.free[pool].heads[bin];
        while next != NIL {
            let n = self.blocks.get(next);
            if n.key() > key {
                break;
            }
            prev = next;
            next = n.free_next;
        }
        let b = self.blocks.get_mut(id);
        b.free_prev = prev;
        b.free_next = next;
        if next != NIL {
            self.blocks.get_mut(next).free_prev = id;
        }
        if prev == NIL {
            self.free[pool].set_head(bin, id);
        } else {
            self.blocks.get_mut(prev).free_next = id;
        }
    }

    /// Takes free block `id` out of its size bin.
    fn uncache_block(&mut self, id: BlockId) {
        let b = self.blocks.get(id);
        let (prev, next, pool, bin) = (b.free_prev, b.free_next, b.pool as usize, bin_of(b.size));
        if next != NIL {
            self.blocks.get_mut(next).free_prev = prev;
        }
        if prev == NIL {
            self.free[pool].set_head(bin, next);
        } else {
            self.blocks.get_mut(prev).free_next = next;
        }
    }

    /// Allocates `size` bytes, returning the block's handle (its device
    /// address is [`BlockHandle::addr`]).
    ///
    /// # Errors
    /// Returns [`OomError`] when the request cannot be satisfied at either
    /// level even after cached-segment reclamation.
    pub fn alloc(&mut self, size: usize) -> Result<BlockHandle, OomError> {
        let rounded = self.config.round_size(size);
        let pool = self.pool_of(rounded);

        let id = match self.take_best_fit(pool, rounded) {
            Some(id) => id,
            None => self.alloc_segment_block(pool, rounded, size)?,
        };

        self.maybe_split(pool, id, rounded);
        let block = self.blocks.get_mut(id);
        block.allocated = true;
        block.requested = size;
        let addr = block.addr;
        // `active` tracks real block sizes: when the remainder was too small
        // to split off, the block is larger than the rounded request.
        let block_size = block.size as u64;
        self.counters.on_alloc(size as u64, block_size);
        self.note_timeline();
        Ok(BlockHandle { id, addr })
    }

    /// Frees the block behind `handle`, caching and coalescing it.
    ///
    /// # Panics
    /// Panics if no allocated block of this allocator has the handle's id
    /// and address (a simulation bug): a handle freed before, whose block
    /// merged into a neighbour or was reused at another address, or one
    /// from another allocator. A freed handle whose id and address were
    /// both handed out again frees that newer allocation, as freeing the
    /// address always did.
    pub fn free(&mut self, handle: BlockHandle) {
        let block = self
            .blocks
            .try_get_mut(handle.id)
            .filter(|b| b.addr == handle.addr)
            .expect("free of unknown address");
        assert!(block.allocated, "double free");
        block.allocated = false;
        let requested = std::mem::take(&mut block.requested);
        let size = block.size as u64;
        self.counters.on_free(requested as u64, size);
        let merged = self.coalesce(handle.id);

        if !self.config.caching_enabled && self.blocks.get(merged).is_whole_segment() {
            // Non-caching ablation: return whole-segment blocks to the
            // device immediately; partial blocks must stay.
            self.release_segment(merged);
        } else {
            self.cache_block(merged);
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
        let mut segments = Vec::new();
        for (id, first) in self.blocks.iter() {
            if first.prev != NIL {
                continue;
            }
            let mut blocks = Vec::new();
            let mut size = 0u64;
            let mut cur = id;
            while cur != NIL {
                let b = self.blocks.get(cur);
                blocks.push(BlockSnapshot {
                    offset: b.addr - first.addr,
                    size: b.size as u64,
                    requested: b.requested as u64,
                    state: if b.allocated {
                        BlockState::Allocated
                    } else {
                        BlockState::Free
                    },
                });
                size += b.size as u64;
                cur = b.next;
            }
            segments.push(SegmentSnapshot {
                addr: first.addr,
                size,
                pool: first.pool,
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

    /// Takes the best-fit free block for `rounded` out of `pool`'s bins:
    /// the smallest sufficient size, then the lowest address.
    fn take_best_fit(&mut self, pool: PoolKind, rounded: usize) -> Option<BlockId> {
        let bins = &self.free[pool as usize];
        let bin = bin_of(rounded);
        let mut best = bins.heads[bin];
        while best != NIL && self.blocks.get(best).size < rounded {
            best = self.blocks.get(best).free_next;
        }
        if best == NIL {
            best = bins.heads[bins.next_nonempty(bin + 1)?];
        }
        if let Some(mss) = self.config.max_split_size {
            // Oversize blocks are preserved for oversize requests. Every
            // other sufficient block is larger than the best fit, so it is
            // oversize too.
            if self.blocks.get(best).size >= mss && rounded < mss {
                return None;
            }
        }
        self.uncache_block(best);
        Some(best)
    }

    fn alloc_segment_block(
        &mut self,
        pool: PoolKind,
        rounded: usize,
        requested: usize,
    ) -> Result<BlockId, OomError> {
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

        let id = self.blocks.insert(Block::new(addr, alloc_size, pool));
        self.counters.on_segment_alloc(alloc_size as u64);
        Ok(id)
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

    /// Splits block `id` down to `rounded` bytes if worthwhile, caching the
    /// remainder as a free block right after it.
    fn maybe_split(&mut self, pool: PoolKind, id: BlockId, rounded: usize) {
        let b = self.blocks.get(id);
        debug_assert!(b.size >= rounded);
        if !self
            .config
            .should_split(pool == PoolKind::Small, b.size, rounded)
        {
            return;
        }
        let next = b.next;
        let remainder_id = self.blocks.insert(Block {
            prev: id,
            next,
            ..Block::new(b.addr + rounded as u64, b.size - rounded, pool)
        });
        if next != NIL {
            self.blocks.get_mut(next).prev = remainder_id;
        }
        let b = self.blocks.get_mut(id);
        b.size = rounded;
        b.next = remainder_id;
        self.cache_block(remainder_id);
    }

    /// Merges block `id` with its free neighbours; returns the surviving
    /// block. Free blocks are never adjacent, so each side merges at most
    /// once. The survivor is *not* put on the free list.
    fn coalesce(&mut self, id: BlockId) -> BlockId {
        let mut id = id;
        let prev = self.blocks.get(id).prev;
        if prev != NIL && !self.blocks.get(prev).allocated {
            self.uncache_block(prev);
            self.absorb_next(prev);
            id = prev;
        }
        let next = self.blocks.get(id).next;
        if next != NIL && !self.blocks.get(next).allocated {
            self.uncache_block(next);
            self.absorb_next(id);
        }
        id
    }

    /// Folds the block after `id` into `id` and drops it.
    fn absorb_next(&mut self, id: BlockId) {
        let next = self.blocks.get(id).next;
        let removed = self.blocks.remove(next);
        if removed.next != NIL {
            self.blocks.get_mut(removed.next).prev = id;
        }
        let b = self.blocks.get_mut(id);
        b.size += removed.size;
        b.next = removed.next;
    }

    /// Releases cached whole-segment free blocks back to the device.
    ///
    /// With `filter = Some((pool, min_size))` only blocks from `pool` of at
    /// least `min_size` are released (PyTorch's
    /// `release_available_cached_blocks`); with `None`, everything
    /// releasable goes (`release_cached_blocks`).
    fn release_cached_segments(&mut self, filter: Option<(PoolKind, usize)>) {
        for pool in [PoolKind::Small, PoolKind::Large] {
            let min_size = match filter {
                None => 0,
                Some((only, min_size)) if only == pool => min_size,
                Some(_) => continue,
            };
            // A releasable segment is one free block, so it sits in a bin
            // at or past `min_size`'s.
            let mut bin = bin_of(min_size);
            while let Some(found) = self.free[pool as usize].next_nonempty(bin) {
                let mut cur = self.free[pool as usize].heads[found];
                while cur != NIL {
                    let b = self.blocks.get(cur);
                    let next = b.free_next;
                    if b.size >= min_size && b.is_whole_segment() {
                        self.uncache_block(cur);
                        self.release_segment(cur);
                    }
                    cur = next;
                }
                bin = found + 1;
            }
        }
    }

    /// Returns the whole-segment block `id` to the device.
    fn release_segment(&mut self, id: BlockId) {
        let block = self.blocks.remove(id);
        self.device.free(block.addr);
        self.counters.on_segment_release(block.size as u64);
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
        let mut segments = 0usize;
        let mut reached = 0usize;
        for (first_id, first) in self.blocks.iter() {
            if first.prev != NIL {
                continue;
            }
            segments += 1;
            let mut offset = 0u64;
            let mut cur = first_id;
            let mut prev = NIL;
            let mut last_free = false;
            while cur != NIL {
                let b = self.blocks.get(cur);
                reached += 1;
                assert_eq!(b.pool, first.pool, "block in the wrong pool");
                assert_eq!(b.addr, first.addr + offset, "blocks must tile the segment");
                assert_eq!(b.prev, prev, "prev link broken");
                if b.allocated {
                    active += b.size as u64;
                    allocated += b.requested as u64;
                    last_free = false;
                } else {
                    assert!(
                        !last_free,
                        "two adjacent free blocks must have been coalesced"
                    );
                    assert_eq!(b.requested, 0, "free block keeps a request");
                    last_free = true;
                    free_seen += 1;
                }
                offset += b.size as u64;
                prev = cur;
                cur = b.next;
            }
            reserved += offset;
        }
        assert_eq!(reached, self.blocks.len(), "block outside every segment");
        let mut listed = 0usize;
        for (pool, bins) in [PoolKind::Small, PoolKind::Large].iter().zip(&self.free) {
            for (bin, &head) in bins.heads.iter().enumerate() {
                let marked = bins.nonempty[bin / 64] & (1 << (bin % 64)) != 0;
                assert_eq!(marked, head != NIL, "bin bitmap out of date");
                let mut prev = NIL;
                let mut cur = head;
                while cur != NIL {
                    let b = self.blocks.get(cur);
                    assert!(!b.allocated, "allocated block in a free bin");
                    assert_eq!(b.pool, *pool, "free block in the wrong pool");
                    assert_eq!(bin_of(b.size), bin, "free block in the wrong bin");
                    assert_eq!(b.free_prev, prev, "free link broken");
                    if prev != NIL {
                        assert!(self.blocks.get(prev).key() < b.key(), "bin out of order");
                    }
                    listed += 1;
                    assert!(listed <= self.blocks.len(), "free bins form a cycle");
                    prev = cur;
                    cur = b.free_next;
                }
            }
        }
        assert_eq!(listed, free_seen, "free bins must hold every free block");
        assert_eq!(reserved, self.counters.reserved, "reserved counter drift");
        assert_eq!(active, self.counters.active, "active counter drift");
        assert_eq!(
            allocated, self.counters.allocated,
            "allocated counter drift"
        );
        assert_eq!(
            self.device.live_allocs(),
            segments,
            "device allocations must equal segments"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    fn small_device() -> DeviceAllocator {
        DeviceAllocator::new(64 * MIB as u64, 2 * MIB as u64, 0)
    }

    fn alloc() -> CachingAllocator {
        CachingAllocator::new(AllocatorConfig::pytorch_defaults(), small_device())
    }

    #[test]
    fn small_request_reserves_small_buffer() {
        let mut a = alloc();
        a.alloc(100).unwrap();
        assert_eq!(a.counters().reserved, 2 * MIB as u64);
        assert_eq!(a.counters().active, 512);
        assert_eq!(a.counters().allocated, 100);
        a.check_invariants();
    }

    #[test]
    fn large_request_reserves_large_buffer() {
        let mut a = alloc();
        a.alloc(3 * MIB).unwrap(); // > 1 MiB small threshold
        assert_eq!(a.counters().reserved, 20 * MIB as u64);
        a.check_invariants();
    }

    #[test]
    fn huge_request_rounds_to_2mib() {
        let mut a = alloc();
        a.alloc(11 * MIB).unwrap();
        assert_eq!(a.counters().reserved, 12 * MIB as u64);
        a.check_invariants();
    }

    #[test]
    fn freed_block_is_cached_and_reused() {
        let mut a = alloc();
        let x = a.alloc(MIB / 2).unwrap();
        let reserved = a.counters().reserved;
        a.free(x);
        assert_eq!(a.counters().reserved, reserved, "segment stays cached");
        let y = a.alloc(MIB / 2).unwrap();
        assert_eq!(x.addr(), y.addr(), "cached block is reused best-fit");
        a.check_invariants();
    }

    #[test]
    fn small_pool_packs_multiple_blocks_per_segment() {
        let mut a = alloc();
        for _ in 0..4 {
            a.alloc(256 * 1024).unwrap();
        }
        // 4 × 256 KiB fit one 2 MiB segment.
        assert_eq!(a.counters().reserved, 2 * MIB as u64);
        assert_eq!(a.counters().num_segments_allocated, 1);
        a.check_invariants();
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut a = alloc();
        let x = a.alloc(512 * 1024).unwrap();
        let y = a.alloc(512 * 1024).unwrap();
        let z = a.alloc(512 * 1024).unwrap();
        a.free(x);
        a.free(z);
        a.free(y); // middle free merges all three (plus trailing remainder)
        a.check_invariants();
        let snap = a.snapshot();
        assert_eq!(snap.segments.len(), 1);
        assert_eq!(
            snap.segments[0].blocks.len(),
            1,
            "segment collapses back to a single free block"
        );
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_block() {
        let mut a = alloc();
        let _a1 = a.alloc(4 * MIB).unwrap(); // seg1 (low addr): [4 | 16 free]
        let t = a.alloc(16 * MIB).unwrap(); // exactly fills seg1's hole
        let a2 = a.alloc(10 * MIB).unwrap(); // seg2 (high addr): exact 10 MiB
        a.free(a2);
        a.free(t);
        // Free blocks: 16 MiB at a LOW address, 10 MiB at a HIGH address.
        // Best fit for 8 MiB must pick the 10 MiB block despite its higher
        // address (first-fit-by-address would pick the 16 MiB one).
        let re = a.alloc(8 * MIB).unwrap();
        assert_eq!(re.addr(), a2.addr());
        assert_eq!(a.counters().reserved, 30 * MIB as u64, "no new segment");
        a.check_invariants();
    }

    #[test]
    fn reclaim_releases_cached_segments_before_oom() {
        // Device fits one 20 MiB large buffer plus one 2 MiB small segment.
        let device = DeviceAllocator::new(22 * MIB as u64, 2 * MIB as u64, 0);
        let mut a = CachingAllocator::new(AllocatorConfig::pytorch_defaults(), device);
        let x = a.alloc(100 * 1024).unwrap(); // small pool, 2 MiB segment
        a.free(x); // cached
                   // 21 MiB huge request needs a 22 MiB segment: the cached small
                   // segment must be reclaimed first.
        a.alloc(21 * MIB).unwrap();
        assert_eq!(a.counters().num_reclaims, 1);
        assert_eq!(a.counters().num_segments_released, 1);
        a.check_invariants();
    }

    #[test]
    fn without_reclaim_fails_where_reclaim_succeeds() {
        let device = DeviceAllocator::new(22 * MIB as u64, 2 * MIB as u64, 0);
        let mut a = CachingAllocator::new(AllocatorConfig::without_reclaim(), device);
        let x = a.alloc(100 * 1024).unwrap();
        a.free(x);
        let err = a.alloc(21 * MIB).unwrap_err();
        assert!(!err.reclaim_attempted);
    }

    #[test]
    fn small_request_can_oom_on_large_buffer_demand() {
        // Faithful PyTorch nuance: a 6 MiB request demands a 20 MiB large
        // buffer and fails on an 8 MiB device even though 8 MiB > 6 MiB.
        let device = DeviceAllocator::new(8 * MIB as u64, 2 * MIB as u64, 0);
        let mut a = CachingAllocator::new(AllocatorConfig::pytorch_defaults(), device);
        let err = a.alloc(6 * MIB).unwrap_err();
        assert_eq!(err.segment_request, 20 * MIB);
        a.check_invariants();
    }

    #[test]
    fn oom_when_truly_exhausted() {
        let device = DeviceAllocator::new(24 * MIB as u64, 2 * MIB as u64, 0);
        let mut a = CachingAllocator::new(AllocatorConfig::pytorch_defaults(), device);
        a.alloc(12 * MIB).unwrap();
        a.alloc(12 * MIB).unwrap();
        let err = a.alloc(1024).unwrap_err();
        assert!(err.reclaim_attempted);
        assert_eq!(err.requested, 1024);
        a.check_invariants();
    }

    #[test]
    fn non_caching_mode_returns_segments_eagerly() {
        let mut a = CachingAllocator::new(AllocatorConfig::without_caching(), small_device());
        let x = a.alloc(3 * MIB).unwrap();
        assert_eq!(a.counters().reserved, 20 * MIB as u64);
        a.free(x);
        assert_eq!(a.counters().reserved, 0, "segment returned to device");
        a.check_invariants();
    }

    #[test]
    fn timeline_records_curve() {
        let mut a = alloc();
        a.record_timeline(true);
        a.advance_clock(10);
        let x = a.alloc(MIB).unwrap();
        a.advance_clock(20);
        a.free(x);
        let t = a.timeline();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].ts_us, 10);
        assert_eq!(t[0].allocated, MIB as u64);
        assert_eq!(t[1].ts_us, 20);
        assert_eq!(t[1].allocated, 0);
        assert_eq!(t[1].reserved, 2 * MIB as u64);
    }

    #[test]
    fn snapshot_reflects_split_blocks() {
        let mut a = alloc();
        a.alloc(100).unwrap();
        let snap = a.snapshot();
        assert_eq!(snap.segments.len(), 1);
        assert_eq!(snap.segments[0].blocks.len(), 2); // 512 allocated + remainder
        assert_eq!(snap.active_bytes(), 512);
        assert_eq!(snap.reserved_bytes(), 2 * MIB as u64);
    }

    #[test]
    fn peak_reserved_counts_high_water_mark() {
        let mut a = alloc();
        let x = a.alloc(15 * MIB).unwrap(); // 16 MiB segment (2 MiB-rounded)
        a.free(x);
        a.empty_cache();
        assert_eq!(a.counters().reserved, 0);
        assert_eq!(a.counters().peak_reserved, 16 * MIB as u64);
    }

    #[test]
    fn gc_threshold_trims_cache_proactively() {
        let mut cfg = AllocatorConfig::pytorch_defaults();
        cfg.gc_threshold = Some(0.4);
        // 64 MiB device, 40% budget = 25.6 MiB.
        let device = DeviceAllocator::new(64 * MIB as u64, 2 * MIB as u64, 0);
        let mut a = CachingAllocator::new(cfg, device);
        let x = a.alloc(14 * MIB).unwrap(); // 14 MiB segment
        a.free(x); // cached
                   // The next request would push reserved to 32 MiB > 25.6 MiB
                   // budget: the cached segment is collected first.
        a.alloc(18 * MIB).unwrap();
        assert_eq!(a.counters().reserved, 18 * MIB as u64);
        assert_eq!(a.counters().num_segments_released, 1);
        a.check_invariants();

        // Without the threshold the cache would have been kept.
        let device = DeviceAllocator::new(64 * MIB as u64, 2 * MIB as u64, 0);
        let mut b = CachingAllocator::new(AllocatorConfig::pytorch_defaults(), device);
        let x = b.alloc(14 * MIB).unwrap();
        b.free(x);
        b.alloc(18 * MIB).unwrap();
        assert_eq!(b.counters().reserved, 32 * MIB as u64);
    }

    #[test]
    fn max_split_size_preserves_oversize_blocks() {
        let mut cfg = AllocatorConfig::pytorch_defaults();
        cfg.max_split_size = Some(4 * MIB);
        let mut a = CachingAllocator::new(cfg, small_device());
        let big = a.alloc(16 * MIB).unwrap(); // exact 16 MiB segment
        a.free(big); // cached oversize block
                     // A 2 MiB request must NOT split the oversize block; it opens a new
                     // 20 MiB large-buffer segment instead.
        a.alloc(2 * MIB).unwrap();
        assert_eq!(a.counters().reserved, 36 * MIB as u64);
        a.check_invariants();
    }

    #[test]
    fn exact_fit_does_not_split_in_large_pool() {
        let mut a = alloc();
        let x = a.alloc(19 * MIB + 512 * 1024).unwrap(); // leaves 512 KiB < 1 MiB
        let snap = a.snapshot();
        assert_eq!(
            snap.segments[0].blocks.len(),
            1,
            "no split below 1 MiB remainder"
        );
        a.free(x);
        a.check_invariants();
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = alloc();
        let x = a.alloc(MIB).unwrap();
        let _y = a.alloc(MIB).unwrap(); // keeps x's block from merging away
        a.free(x);
        a.free(x);
    }

    #[test]
    #[should_panic(expected = "free of unknown address")]
    fn stale_handle_panics() {
        let mut a = alloc();
        let x = a.alloc(512 * 1024).unwrap();
        let y = a.alloc(512 * 1024).unwrap();
        a.free(y);
        a.free(x); // y's block merges into x's and its id is vacated...
        let z = a.alloc(4 * MIB).unwrap(); // ...then reused at another address
        assert_ne!(z.addr(), y.addr());
        a.free(y);
    }

    #[test]
    #[should_panic(expected = "free of unknown address")]
    fn foreign_handle_panics() {
        let mut a = alloc();
        let mut b = alloc();
        let _x = a.alloc(MIB).unwrap();
        let _y = a.alloc(MIB).unwrap();
        let z = a.alloc(MIB).unwrap();
        b.alloc(MIB).unwrap();
        b.free(z);
    }
}
