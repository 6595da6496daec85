//! Memory-block lifecycle reconstruction (paper §3.2, Analyzer step 1).
//!
//! Raw `cpu_instant_event`s are a flat stream of `(ts, addr, ±bytes)`
//! records with no linkage. This module pairs them into blocks — size,
//! allocation time, deallocation time — while correctly handling address
//! reuse (the CPU allocator hands freed addresses back almost immediately).
//! Blocks lacking a deallocation are persistent for the trace duration.
//! Pairing takes the instants as they arrive, so the analyzing sink pairs
//! a run's allocations while the engine reports them.

use crate::{AnalyzedBlock, AnalyzingSink};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use xmem_runtime::MixHash;
use xmem_trace::Trace;

/// One reconstructed memory block ("memory block" in the paper always
/// refers to these lifecycle entities).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryBlock {
    /// Stable index in allocation order.
    pub id: usize,
    /// Address the block lived at (reused addresses yield several blocks).
    pub addr: u64,
    /// Size in bytes.
    pub bytes: u64,
    /// Allocation timestamp (µs).
    pub alloc_ts: u64,
    /// Deallocation timestamp, `None` when the block survives the trace.
    pub free_ts: Option<u64>,
}

impl MemoryBlock {
    /// Whether the block survives to the end of the trace.
    #[must_use]
    pub fn is_persistent(&self) -> bool {
        self.free_ts.is_none()
    }
}

/// Anomaly counters from reconstruction — used for trace-quality
/// diagnostics and failure-injection tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LifecycleStats {
    /// Frees whose address had no live allocation (skipped).
    pub unmatched_frees: usize,
    /// Frees whose size disagreed with the allocation (size taken from the
    /// allocation side).
    pub size_mismatches: usize,
    /// Blocks with no free event (persistent).
    pub persistent_blocks: usize,
}

/// Marks "no block" in the address stacks of [`Lifecycles`].
const NO_BLOCK: u32 = u32::MAX;

/// Pairs one device's memory instants into blocks as they arrive.
///
/// Instants must arrive in time order, simultaneous ones in emission
/// order: exactly the information a real profiler export preserves. A
/// free matches the most recent open allocation at its address (LIFO).
/// The open blocks of one address form a stack threaded through the
/// blocks: a map holds each address's top block and `below[id]` the block
/// it covers, so pairing allocates nothing per address.
#[derive(Debug, Default)]
pub(crate) struct Lifecycles {
    blocks: Vec<AnalyzedBlock>,
    top: HashMap<u64, u32, MixHash>,
    below: Vec<u32>,
    stats: LifecycleStats,
}

impl Lifecycles {
    /// An allocation of `bytes` at `addr`.
    ///
    /// # Panics
    /// At the `u32::MAX`-th allocation — far more than a run that fits in
    /// memory makes.
    pub(crate) fn alloc(&mut self, ts_us: u64, addr: u64, bytes: u64) {
        assert!(
            self.blocks.len() < NO_BLOCK as usize,
            "fewer than u32::MAX allocations"
        );
        let id = self.blocks.len() as u32;
        self.blocks
            .push(AnalyzedBlock::allocated(id, addr, bytes, ts_us));
        self.below
            .push(self.top.insert(addr, id).unwrap_or(NO_BLOCK));
    }

    /// A free of `bytes` at `addr`.
    pub(crate) fn free(&mut self, ts_us: u64, addr: u64, bytes: u64) {
        match self.top.entry(addr) {
            Entry::Occupied(mut slot) => {
                let id = *slot.get() as usize;
                match self.below[id] {
                    NO_BLOCK => {
                        slot.remove();
                    }
                    under => *slot.get_mut() = under,
                }
                let block = &mut self.blocks[id];
                if block.bytes() != bytes {
                    self.stats.size_mismatches += 1;
                }
                block.free_at(ts_us);
            }
            Entry::Vacant(_) => self.stats.unmatched_frees += 1,
        }
    }

    /// The blocks in allocation order, unclassified, and the diagnostics.
    pub(crate) fn finish(mut self) -> (Vec<AnalyzedBlock>, LifecycleStats) {
        self.stats.persistent_blocks = self.blocks.iter().filter(|b| b.is_persistent()).count();
        (self.blocks, self.stats)
    }
}

/// Reconstructs block lifecycles from a trace's memory instants for one
/// device (`device_id` = -1 for CPU traces): the trace fed through the
/// [`AnalyzingSink`], whose pairing this is. The instants are taken in
/// trace order.
///
/// # Panics
/// When the device has `u32::MAX` or more allocations — far more than a
/// trace that fits in memory holds.
#[must_use]
pub fn reconstruct_lifecycles(trace: &Trace, device_id: i32) -> (Vec<MemoryBlock>, LifecycleStats) {
    let (blocks, stats) = AnalyzingSink::from_trace(trace, device_id)
        .lifecycles
        .finish();
    (blocks.iter().map(AnalyzedBlock::block).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_trace::{names, TraceEvent};

    /// A trace of memory instants: `(ts, addr, signed bytes, device)`.
    fn trace(events: Vec<(u64, u64, i64, i32)>) -> Trace {
        let mut t = Trace::new("t");
        let memory = t.intern(names::MEMORY);
        for (ts, addr, bytes, device) in events {
            t.push(if bytes > 0 {
                TraceEvent::mem_alloc(memory, ts, addr, bytes as u64, device)
            } else {
                TraceEvent::mem_free(memory, ts, addr, bytes.unsigned_abs(), device)
            });
        }
        t
    }

    #[test]
    fn pairs_alloc_and_free() {
        let t = trace(vec![(10, 0xa, 512, -1), (20, 0xa, -512, -1)]);
        let (blocks, stats) = reconstruct_lifecycles(&t, -1);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].alloc_ts, 10);
        assert_eq!(blocks[0].free_ts, Some(20));
        assert_eq!(stats.unmatched_frees, 0);
        assert_eq!(stats.persistent_blocks, 0);
    }

    #[test]
    fn handles_address_reuse() {
        let t = trace(vec![
            (10, 0xa, 512, -1),
            (20, 0xa, -512, -1),
            (30, 0xa, 1024, -1),
            (40, 0xa, -1024, -1),
        ]);
        let (blocks, _) = reconstruct_lifecycles(&t, -1);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].free_ts, Some(20));
        assert_eq!(blocks[1].bytes, 1024);
        assert_eq!(blocks[1].free_ts, Some(40));
    }

    #[test]
    fn nested_reuse_is_lifo() {
        // Two live blocks at the same address (possible in torn traces):
        // the free matches the most recent allocation.
        let t = trace(vec![
            (10, 0xa, 512, -1),
            (20, 0xa, 256, -1),
            (30, 0xa, -256, -1),
        ]);
        let (blocks, stats) = reconstruct_lifecycles(&t, -1);
        assert_eq!(blocks[1].free_ts, Some(30));
        assert!(blocks[0].is_persistent());
        assert_eq!(stats.persistent_blocks, 1);
    }

    #[test]
    fn unmatched_free_is_counted_not_fatal() {
        let t = trace(vec![(10, 0xdead, -64, -1)]);
        let (blocks, stats) = reconstruct_lifecycles(&t, -1);
        assert!(blocks.is_empty());
        assert_eq!(stats.unmatched_frees, 1);
    }

    #[test]
    fn size_mismatch_is_tolerated() {
        let t = trace(vec![(10, 0xa, 512, -1), (20, 0xa, -256, -1)]);
        let (blocks, stats) = reconstruct_lifecycles(&t, -1);
        assert_eq!(blocks[0].bytes, 512);
        assert_eq!(blocks[0].free_ts, Some(20));
        assert_eq!(stats.size_mismatches, 1);
    }

    /// Pairing as it was done with one `Vec` of open block ids per
    /// address.
    fn per_address_reference(trace: &Trace) -> (Vec<MemoryBlock>, LifecycleStats) {
        let mut blocks: Vec<MemoryBlock> = Vec::new();
        let mut open: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut stats = LifecycleStats::default();
        for e in trace.memory_instants() {
            let (Some(addr), Some(bytes)) = (e.args.addr(), e.args.bytes()) else {
                continue;
            };
            if e.args.device() != Some(-1) {
                continue;
            }
            if bytes > 0 {
                open.entry(addr).or_default().push(blocks.len());
                blocks.push(MemoryBlock {
                    id: blocks.len(),
                    addr,
                    bytes: bytes as u64,
                    alloc_ts: e.ts_us,
                    free_ts: None,
                });
            } else if bytes < 0 {
                match open.get_mut(&addr).and_then(Vec::pop) {
                    Some(id) => {
                        if blocks[id].bytes != bytes.unsigned_abs() {
                            stats.size_mismatches += 1;
                        }
                        blocks[id].free_ts = Some(e.ts_us);
                    }
                    None => stats.unmatched_frees += 1,
                }
            }
        }
        stats.persistent_blocks = blocks.iter().filter(|b| b.is_persistent()).count();
        (blocks, stats)
    }

    #[test]
    fn threaded_stacks_pair_like_per_address_vectors() {
        // Few addresses and sizes, so reuse, nesting, unmatched frees and
        // size mismatches all occur.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..200 {
            let events = (0..next(300))
                .map(|ts| {
                    let addr = 0x1000 + 64 * next(6);
                    let bytes = 64 * (1 + next(3) as i64);
                    let sign = if next(5) < 2 { -1 } else { 1 };
                    let device = if next(20) == 0 { 0 } else { -1 };
                    (ts, addr, sign * bytes, device)
                })
                .collect();
            let t = trace(events);
            assert_eq!(
                reconstruct_lifecycles(&t, -1),
                per_address_reference(&t),
                "case {case}"
            );
        }
    }

    #[test]
    fn filters_by_device() {
        let t = trace(vec![
            (10, 0xa, 512, -1),
            (10, 0xb, 512, 0), // GPU event, ignored
        ]);
        let (blocks, _) = reconstruct_lifecycles(&t, -1);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].addr, 0xa);
    }
}
