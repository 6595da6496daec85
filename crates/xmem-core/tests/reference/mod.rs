//! The Orchestrator's replay buffer as it was built before the merge: every
//! event pushed into one vector, the vector sorted on its `(ts, block,
//! free-after-alloc)` key, then renumbered through a table indexed by the
//! Analyzer's id. Kept as the reference the one-pass build must reproduce,
//! event for event and count for count.

use std::collections::HashMap;
use xmem_core::{AnalyzedTrace, BlockCategory, EventBuffer, Orchestrator};

/// One orchestrated memory event.
struct OrchestratedEvent {
    ts_us: u64,
    block: usize,
    bytes: u64,
    is_alloc: bool,
}

/// The buffer `orchestrator` makes of `analyzed`.
pub fn orchestrate(orchestrator: &Orchestrator, analyzed: &AnalyzedTrace) -> EventBuffer {
    let ann = &analyzed.windows().annotations;
    let blocks = analyzed.blocks();
    let horizon = blocks
        .iter()
        .flat_map(|b| [Some(b.alloc_ts()), b.free_ts()])
        .flatten()
        .max()
        .unwrap_or(0)
        .saturating_add(1);

    let mut events: Vec<OrchestratedEvent> = Vec::with_capacity(2 * blocks.len());
    let mut filtered = 0usize;
    let mut adjusted = 0usize;

    for b in blocks {
        if orchestrator.filter_script && !b.category().is_kept() {
            filtered += 1;
            continue;
        }
        let mut free_ts = b.free_ts();
        if orchestrator.retime {
            let new_free = match b.category() {
                BlockCategory::Parameter | BlockCategory::OptimizerState => None,
                BlockCategory::BatchData => {
                    let boundary = ann.iteration_end(b.alloc_ts());
                    match (free_ts, boundary) {
                        (Some(f), Some(e)) => Some(f.min(e)),
                        (None, Some(e)) => Some(e),
                        (f, None) => f,
                    }
                }
                BlockCategory::Gradient => ann.next_zero_grad_end(b.alloc_ts()),
                _ => free_ts,
            };
            if new_free != free_ts {
                adjusted += 1;
            }
            free_ts = new_free;
        }

        events.push(OrchestratedEvent {
            ts_us: b.alloc_ts(),
            block: b.id(),
            bytes: b.bytes(),
            is_alloc: true,
        });
        events.push(OrchestratedEvent {
            ts_us: free_ts.unwrap_or(horizon),
            block: b.id(),
            bytes: b.bytes(),
            is_alloc: false,
        });
    }
    events.sort_unstable_by_key(|e| (e.ts_us, e.block, !e.is_alloc));

    // Renumber by first appearance: a flat table for ids below twice the
    // event count, a map for the rest.
    let n = events.len();
    let mut buffer = EventBuffer {
        ts_us: Vec::with_capacity(n),
        block: Vec::with_capacity(n),
        bytes: Vec::with_capacity(n),
        is_alloc: Vec::with_capacity(n),
        num_blocks: 0,
        filtered_blocks: filtered,
        adjusted_blocks: adjusted,
    };
    const UNSEEN: u32 = u32::MAX;
    let table_len = events
        .iter()
        .map(|e| e.block.saturating_add(1))
        .max()
        .unwrap_or(0)
        .min(2 * n);
    let mut table = vec![UNSEEN; table_len];
    let mut spill: HashMap<usize, u32> = HashMap::new();
    for event in &events {
        let slot = match table.get_mut(event.block) {
            Some(slot) => slot,
            None => spill.entry(event.block).or_insert(UNSEEN),
        };
        if *slot == UNSEEN {
            *slot = buffer.num_blocks as u32;
            buffer.num_blocks += 1;
        }
        buffer.ts_us.push(event.ts_us);
        buffer.block.push(*slot);
        buffer.bytes.push(event.bytes);
        buffer.is_alloc.push(event.is_alloc);
    }
    buffer
}
