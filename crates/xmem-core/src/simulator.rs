//! The Memory Simulator (paper §3.4): replays the orchestrated events
//! through the two-level allocator simulation and reports the peak
//! *segment* memory — the quantity NVML observes and schedulers must
//! budget for.

use crate::orchestrator::EventBuffer;
use xmem_alloc::{
    AllocatorConfig, AllocatorSnapshot, BlockHandle, CachingAllocator, DeviceAllocator,
    MemoryCounters, OomError, TimelinePoint,
};

/// Outcome of a replay.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Peak reserved (segment) bytes of the job, excluding framework
    /// overhead.
    pub peak_reserved: u64,
    /// Peak allocated (tensor) bytes of the job.
    pub peak_allocated: u64,
    /// Whether the replay hit the two-level OOM condition.
    pub oom: bool,
    /// OOM details when `oom` is set.
    pub oom_detail: Option<OomError>,
    /// Allocator counters at the end of the replay.
    pub counters: MemoryCounters,
    /// Events the replay walked: all of them, or up to and including the
    /// allocation that ran out of memory.
    pub events: usize,
    /// Usage curve (`ts`, tensor bytes, segment bytes) when recording was
    /// requested.
    pub timeline: Vec<TimelinePoint>,
    /// Final allocator state when recording was requested — diffable
    /// against a real run's snapshot (the paper's verification hook).
    pub snapshot: Option<AllocatorSnapshot>,
}

/// The Simulator: a configured two-level allocator replay.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// Framework-allocator behaviour (PyTorch defaults unless ablated).
    pub allocator: AllocatorConfig,
    /// Device capacity available to framework + job (`M^max - M^init`),
    /// or `None` for an unbounded replay (pure peak estimation).
    pub capacity: Option<u64>,
    /// Bytes reserved on the device before the job starts (`M^fm`).
    pub framework_bytes: u64,
    /// Record the usage curve (costs memory on long traces).
    pub record_timeline: bool,
}

impl Simulator {
    /// Simulator against a bounded device.
    #[must_use]
    pub fn new(capacity: u64, framework_bytes: u64) -> Self {
        Simulator {
            allocator: AllocatorConfig::pytorch_defaults(),
            capacity: Some(capacity),
            framework_bytes,
            record_timeline: false,
        }
    }

    /// Simulator on an unbounded device (peak estimation only).
    #[must_use]
    pub fn unbounded() -> Self {
        Simulator {
            allocator: AllocatorConfig::pytorch_defaults(),
            capacity: None,
            framework_bytes: 0,
            record_timeline: false,
        }
    }

    /// Enables usage-curve recording.
    #[must_use]
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Replays the events chronologically: each allocation event secures
    /// memory through the simulated two-level allocator, each free marks
    /// the block reusable (possibly coalescing). Replay stops at the first
    /// OOM, exactly like the job it models. The dense block ids let the
    /// live allocations' handles sit in a flat table instead of a hash
    /// map.
    #[must_use]
    pub fn replay(&self, buffer: &EventBuffer) -> SimulationResult {
        let device = match self.capacity {
            Some(cap) => {
                DeviceAllocator::new(cap, DeviceAllocator::DEFAULT_PAGE, self.framework_bytes)
            }
            None => DeviceAllocator::unlimited(),
        };
        let mut alloc = CachingAllocator::new(self.allocator.clone(), device);
        alloc.record_timeline(self.record_timeline);

        let mut live: Vec<Option<BlockHandle>> = vec![None; buffer.num_blocks];
        let mut oom_detail = None;
        let mut walked = buffer.len();
        let events = buffer
            .ts_us
            .iter()
            .zip(&buffer.block)
            .zip(&buffer.bytes)
            .zip(&buffer.is_alloc);
        for (event, (((&ts_us, &block), &bytes), &is_alloc)) in events.enumerate() {
            alloc.advance_clock(ts_us);
            let slot = &mut live[block as usize];
            if is_alloc {
                match alloc.alloc(bytes as usize) {
                    Ok(handle) => *slot = Some(handle),
                    Err(err) => {
                        oom_detail = Some(err);
                        walked = event + 1;
                        break;
                    }
                }
            } else if let Some(handle) = slot.take() {
                alloc.free(handle);
            }
        }
        let counters = *alloc.counters();
        SimulationResult {
            peak_reserved: counters.peak_reserved,
            peak_allocated: counters.peak_allocated,
            oom: oom_detail.is_some(),
            oom_detail,
            counters,
            events: walked,
            timeline: alloc.timeline().to_vec(),
            snapshot: self.record_timeline.then(|| alloc.snapshot()),
        }
    }

    /// Verifies a replay against the final allocator snapshot of a real
    /// run (the paper's §3.2/§3.4 snapshot check): returns the structural
    /// diff between simulated and observed end states.
    #[must_use]
    pub fn verify_against(
        &self,
        buffer: &EventBuffer,
        observed: &AllocatorSnapshot,
    ) -> xmem_alloc::SnapshotDiff {
        let mut sim = self.clone();
        sim.record_timeline = true;
        let result = sim.replay(buffer);
        let simulated = result.snapshot.expect("recording enabled");
        simulated.diff(observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A buffer of `(ts, block, bytes, is_alloc)` events.
    fn seq(events: Vec<(u64, u32, u64, bool)>) -> EventBuffer {
        EventBuffer {
            ts_us: events.iter().map(|e| e.0).collect(),
            block: events.iter().map(|e| e.1).collect(),
            bytes: events.iter().map(|e| e.2).collect(),
            is_alloc: events.iter().map(|e| e.3).collect(),
            num_blocks: events.iter().map(|e| e.1 as usize + 1).max().unwrap_or(0),
            filtered_blocks: 0,
            adjusted_blocks: 0,
        }
    }

    const MIB: u64 = 1 << 20;

    #[test]
    fn replay_tracks_segment_peak_not_tensor_sum() {
        // Two 600 KiB tensors fit one 2 MiB small segment... they are
        // large-pool (>1 MiB? no, 600 KiB is small pool). Both live at
        // once: reserved = one small segment, allocated = 1.2 MiB.
        let s = seq(vec![
            (0, 0, 600 * 1024, true),
            (10, 1, 600 * 1024, true),
            (20, 0, 600 * 1024, false),
            (30, 1, 600 * 1024, false),
        ]);
        let r = Simulator::unbounded().replay(&s);
        assert!(!r.oom);
        assert_eq!(r.peak_reserved, 2 * MIB);
        assert_eq!(r.peak_allocated, 1200 * 1024);
    }

    #[test]
    fn sequence_order_changes_peak() {
        // The paper's Fig. 3 phenomenon: freeing before allocating the next
        // large tensor lowers the segment peak.
        let hold = seq(vec![
            (0, 0, 96 * MIB, true),
            (10, 1, 96 * MIB, true), // second while first still live
            (20, 0, 96 * MIB, false),
            (30, 1, 96 * MIB, false),
        ]);
        let release_first = seq(vec![
            (0, 0, 96 * MIB, true),
            (10, 0, 96 * MIB, false),
            (20, 1, 96 * MIB, true),
            (30, 1, 96 * MIB, false),
        ]);
        let sim = Simulator::unbounded();
        let peak_hold = sim.replay(&hold).peak_reserved;
        let peak_release = sim.replay(&release_first).peak_reserved;
        assert!(peak_hold > peak_release);
        assert_eq!(peak_release, 96 * MIB);
        assert_eq!(peak_hold, 192 * MIB);
    }

    #[test]
    fn bounded_replay_ooms_and_stops() {
        let s = seq(vec![
            (0, 0, 64 * MIB, true),
            (10, 1, 64 * MIB, true),
            (20, 2, 64 * MIB, true),
            (30, 0, 64 * MIB, false),
        ]);
        let r = Simulator::new(128 * MIB, 16 * MIB).replay(&s);
        assert!(r.oom);
        // The second allocation runs out; the events after it never run.
        assert_eq!(r.events, 2);
        let detail = r.oom_detail.unwrap();
        assert!(detail.reclaim_attempted);
        assert_eq!(Simulator::unbounded().replay(&s).events, 4);
    }

    #[test]
    fn timeline_is_recorded_on_request() {
        let s = seq(vec![(5, 0, MIB, true), (1500, 0, MIB, false)]);
        let r = Simulator::unbounded().with_timeline().replay(&s);
        assert_eq!(r.timeline.len(), 2);
        assert_eq!(r.timeline[0].ts_us, 5);
        assert_eq!(r.timeline[1].reserved, 2 * MIB, "segment stays cached");
    }

    #[test]
    fn snapshot_is_captured_when_recording() {
        let s = seq(vec![(0, 0, MIB, true)]);
        let r = Simulator::unbounded().with_timeline().replay(&s);
        let snap = r.snapshot.expect("recording requested");
        assert_eq!(snap.reserved_bytes(), 2 * MIB);
        let none = Simulator::unbounded().replay(&s);
        assert!(none.snapshot.is_none());
    }

    #[test]
    fn verification_against_identical_replay_is_exact() {
        let s = seq(vec![
            (0, 0, 4 * MIB, true),
            (10, 1, MIB, true),
            (20, 0, 4 * MIB, false),
        ]);
        let reference = Simulator::unbounded().with_timeline().replay(&s);
        let diff =
            Simulator::unbounded().verify_against(&s, &reference.snapshot.expect("recorded"));
        assert_eq!(diff.reserved_delta, 0);
        assert_eq!(diff.active_delta, 0);
        assert_eq!(diff.segment_count_delta, 0);
        assert!(diff.within(0));
    }

    #[test]
    fn frees_of_unknown_blocks_are_ignored() {
        // Robustness: a free for a block the replay never allocated (e.g.
        // dropped by an OOM cut) must not panic.
        let s = seq(vec![(0, 7, MIB, false)]);
        let r = Simulator::unbounded().replay(&s);
        assert!(!r.oom);
        assert_eq!(r.peak_reserved, 0);
    }
}
