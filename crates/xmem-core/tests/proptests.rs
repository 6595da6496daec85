//! Property-based tests of the Analyzer/Orchestrator invariants over
//! randomized traces.

use proptest::prelude::*;
use xmem_core::{reconstruct_lifecycles, Analyzer, Orchestrator};
use xmem_trace::{names, EventCategory, Trace, TraceEvent};

/// Random alloc/free interleavings over a small address space with heavy
/// address reuse — the adversarial input for lifecycle pairing.
fn mem_event_strategy() -> impl Strategy<Value = (u8, u32, bool)> {
    // (address slot, size, is_alloc)
    (0u8..8, 1u32..100_000, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lifecycle reconstruction never panics, never produces blocks with
    /// `free_ts < alloc_ts`, and pairs at most as many frees as allocs.
    #[test]
    fn lifecycle_pairing_is_sound(events in proptest::collection::vec(mem_event_strategy(), 0..200)) {
        let mut trace = Trace::new("prop");
        let memory = trace.intern(names::MEMORY);
        let mut live: [Vec<u32>; 8] = Default::default();
        for (i, (slot, size, is_alloc)) in events.iter().enumerate() {
            let ts = i as u64;
            let addr = 0x1000 + u64::from(*slot) * 0x100;
            if *is_alloc {
                trace.push(TraceEvent::mem_alloc(memory, ts, addr, u64::from(*size), -1));
                live[*slot as usize].push(*size);
            } else if let Some(size) = live[*slot as usize].pop() {
                trace.push(TraceEvent::mem_free(memory, ts, addr, u64::from(size), -1));
            }
        }
        let (blocks, stats) = reconstruct_lifecycles(&trace, -1);
        prop_assert_eq!(stats.unmatched_frees, 0, "LIFO discipline never mismatches");
        for b in &blocks {
            if let Some(f) = b.free_ts {
                prop_assert!(f >= b.alloc_ts);
            }
        }
        let allocs = events.iter().filter(|e| e.2).count();
        prop_assert_eq!(blocks.len(), allocs);
    }

    /// Orchestration of any analyzable trace yields a balanced, time-ordered
    /// event sequence whose live-byte trajectory never goes negative.
    #[test]
    fn orchestrated_sequences_are_well_formed(
        events in proptest::collection::vec(mem_event_strategy(), 1..150),
        iter_len in 50u64..500,
    ) {
        let mut trace = Trace::new("prop");
        // A synthetic op window covering everything keeps blocks attributable.
        let horizon = events.len() as u64 + 2;
        let step = trace.intern(&names::profiler_step(1));
        let mix = trace.intern("aten::mix");
        let memory = trace.intern(names::MEMORY);
        trace.push(TraceEvent::span(
            EventCategory::UserAnnotation,
            step,
            0,
            horizon.max(iter_len),
        ));
        trace.push(TraceEvent::span(EventCategory::CpuOp, mix, 0, horizon));
        let mut live: [Vec<u32>; 8] = Default::default();
        for (i, (slot, size, is_alloc)) in events.iter().enumerate() {
            let ts = i as u64 + 1;
            let addr = 0x1000 + u64::from(*slot) * 0x100;
            if *is_alloc {
                trace.push(TraceEvent::mem_alloc(memory, ts, addr, u64::from(*size), -1));
                live[*slot as usize].push(*size);
            } else if let Some(size) = live[*slot as usize].pop() {
                trace.push(TraceEvent::mem_free(memory, ts, addr, u64::from(size), -1));
            }
        }
        trace.sort_by_time();
        let Ok(analyzed) = Analyzer::new().analyze(&trace) else {
            // Traces with zero allocations are rejected; fine.
            return Ok(());
        };
        let buffer = Orchestrator::default().orchestrate(&analyzed);
        let mut live_bytes: i128 = 0;
        let mut last_ts = 0u64;
        let mut open = std::collections::HashSet::new();
        for event in 0..buffer.len() {
            let (ts, block, bytes) = (buffer.ts_us[event], buffer.block[event], buffer.bytes[event]);
            prop_assert!(ts >= last_ts, "events are time-ordered");
            last_ts = ts;
            if buffer.is_alloc[event] {
                prop_assert!(open.insert(block));
                live_bytes += i128::from(bytes);
            } else {
                prop_assert!(open.remove(&block));
                live_bytes -= i128::from(bytes);
            }
            prop_assert!(live_bytes >= 0);
        }
        prop_assert!(open.is_empty(), "every block is freed by the horizon");
        prop_assert_eq!(live_bytes, 0);
    }
}
