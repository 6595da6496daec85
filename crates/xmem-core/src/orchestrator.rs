//! The Memory Orchestrator (paper §3.3): re-times CPU-derived block
//! lifecycles to match the lifecycle the same tensors would have on the
//! target GPU, then emits the event stream the Simulator replays.
//!
//! Rules (numbered as in the paper):
//! 1. **Model parameters** — blocks from model loading become persistent.
//! 2. **Batch data** — lifecycles are limited to their training iteration:
//!    frees are clamped to the iteration boundary.
//! 3. **Activations** — CPU-derived lifecycles are kept as the best
//!    available approximation of GPU lifecycles.
//! 4. **Gradients** — deallocation snaps to the end of the next
//!    `optimizer.zero_grad()` window (set_to_none semantics); gradients
//!    with no later `zero_grad` become persistent.
//! 5. **Optimizer state** — persistent from its first allocation
//!    (allocated in iteration 1; iteration 2's peak sits on top of it).
//!
//! Script-level blocks are dropped (the Analyzer's operator-centric
//! filter).

use crate::analyzer::{AnalyzedBlock, AnalyzedTrace, BlockCategory};
use crate::windows::AnnotationIndex;
use serde::{Deserialize, Serialize};

/// The orchestrated event stream in structure-of-arrays form, ready for
/// simulator replay.
///
/// Block ids are **dense**: numbered `0..num_blocks` by order of first
/// appearance, so the simulator can track live allocations in a flat
/// `Vec` instead of a hash map. All four columns have equal length;
/// event `i` is `(ts_us[i], block[i], bytes[i], is_alloc[i])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventBuffer {
    /// Event timestamps (µs). Under the incremental gate these only
    /// label snapshots/timeline points and never affect placement.
    pub ts_us: Vec<u64>,
    /// Dense block id per event (`< num_blocks`).
    pub block: Vec<u32>,
    /// Raw (pre-rounding) byte size per event.
    pub bytes: Vec<u64>,
    /// `true` for an allocation, `false` for a free.
    pub is_alloc: Vec<bool>,
    /// Number of distinct blocks referenced by the stream.
    pub num_blocks: usize,
    /// Number of blocks dropped by the script-level filter.
    pub filtered_blocks: usize,
    /// Number of blocks whose lifecycle was adjusted by rules 1–5.
    pub adjusted_blocks: usize,
}

impl EventBuffer {
    /// Number of events in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// Whether the stream is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }
}

/// Configuration of the Orchestrator (ablation switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Orchestrator {
    /// Apply lifecycle rules 1–5; when `false`, raw CPU lifecycles are
    /// replayed unchanged (ablation).
    pub retime: bool,
    /// Drop script-level blocks; when `false`, everything is replayed.
    pub filter_script: bool,
}

impl Default for Orchestrator {
    fn default() -> Self {
        Orchestrator {
            retime: true,
            filter_script: true,
        }
    }
}

/// What rules 1–5 make of one replayed block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lifetime {
    /// When the block's free replays: its re-timed free, or the analysis
    /// horizon for a block that persists.
    pub(crate) free_ts: u64,
    /// Whether the rules moved the free.
    pub(crate) adjusted: bool,
}

/// A replay-order key: timestamp, then block id. Ids fit 32 bits.
fn event_key(ts_us: u64, id: usize) -> u128 {
    (u128::from(ts_us) << 32) | id as u128
}

impl Orchestrator {
    /// Every block of `analyzed` with what rules 1–5 make of it: `None`
    /// when the script filter drops it.
    pub(crate) fn lifetimes<'a>(
        &'a self,
        analyzed: &'a AnalyzedTrace,
    ) -> impl Iterator<Item = (&'a AnalyzedBlock, Option<Lifetime>)> + 'a {
        let ann = &analyzed.windows().annotations;
        let blocks = analyzed.blocks();
        // Persistent blocks are freed one tick after the last event.
        let horizon = blocks
            .iter()
            .flat_map(|b| [Some(b.alloc_ts()), b.free_ts()])
            .flatten()
            .max()
            .unwrap_or(0)
            .saturating_add(1);
        blocks
            .iter()
            .map(move |b| (b, self.lifetime(b, ann, horizon)))
    }

    /// Rules 1–5 for one block.
    fn lifetime(&self, b: &AnalyzedBlock, ann: &AnnotationIndex, horizon: u64) -> Option<Lifetime> {
        if self.filter_script && !b.category().is_kept() {
            return None;
        }
        let free_ts = b.free_ts();
        let retimed = if self.retime {
            match b.category() {
                // Rule 1 & 5: persistent for the analysis horizon.
                BlockCategory::Parameter | BlockCategory::OptimizerState => None,
                // Rule 2: die at the iteration boundary at the latest.
                BlockCategory::BatchData => match (free_ts, ann.iteration_end(b.alloc_ts())) {
                    (Some(f), Some(e)) => Some(f.min(e)),
                    (None, Some(e)) => Some(e),
                    (f, None) => f,
                },
                // Rule 4: snap to the next zero_grad end.
                BlockCategory::Gradient => ann.next_zero_grad_end(b.alloc_ts()),
                // Rule 3 and everything transient: keep CPU timing.
                _ => free_ts,
            }
        } else {
            free_ts
        };
        Some(Lifetime {
            free_ts: retimed.unwrap_or(horizon),
            adjusted: retimed != free_ts,
        })
    }

    /// Produces the replay buffer from an analyzed trace, in linear time
    /// but for one sort of the frees.
    ///
    /// Replay order: primary = timestamp; secondary = block id so that
    /// same-instant events replay in original allocation order; a block's
    /// free at the same instant as its alloc replays after it (matches
    /// trace emission order: a block is never freed before a same-tick
    /// allocation that preceded it in the stream). Allocations and frees
    /// are keyed `(ts << 32) | id` in two lists, each sorted on its own
    /// (the allocations are already in order, which the sort checks in
    /// one pass), and merged. The merge numbers blocks densely at first
    /// appearance.
    #[must_use]
    pub fn orchestrate(&self, analyzed: &AnalyzedTrace) -> EventBuffer {
        let blocks = analyzed.blocks();
        let mut allocs: Vec<u128> = Vec::with_capacity(blocks.len());
        let mut frees: Vec<u128> = Vec::with_capacity(blocks.len());
        let (mut filtered_blocks, mut adjusted_blocks) = (0, 0);
        for (b, lifetime) in self.lifetimes(analyzed) {
            let Some(lifetime) = lifetime else {
                filtered_blocks += 1;
                continue;
            };
            adjusted_blocks += usize::from(lifetime.adjusted);
            allocs.push(event_key(b.alloc_ts(), b.id()));
            frees.push(event_key(lifetime.free_ts, b.id()));
        }
        allocs.sort_unstable();
        frees.sort_unstable();

        let events = allocs.len() + frees.len();
        let mut buffer = EventBuffer {
            ts_us: Vec::with_capacity(events),
            block: Vec::with_capacity(events),
            bytes: Vec::with_capacity(events),
            is_alloc: Vec::with_capacity(events),
            num_blocks: 0,
            filtered_blocks,
            adjusted_blocks,
        };
        const UNSEEN: u32 = u32::MAX;
        let mut dense = vec![UNSEEN; blocks.len()];
        let (mut a, mut f) = (0, 0);
        while a < allocs.len() || f < frees.len() {
            // Equal keys are one block's alloc and free: the alloc first.
            let is_alloc = f == frees.len() || (a < allocs.len() && allocs[a] <= frees[f]);
            let key = if is_alloc {
                a += 1;
                allocs[a - 1]
            } else {
                f += 1;
                frees[f - 1]
            };
            // The low 32 bits are the id, the position of the block.
            let id = key as u32 as usize;
            let slot = &mut dense[id];
            if *slot == UNSEEN {
                *slot = buffer.num_blocks as u32;
                buffer.num_blocks += 1;
            }
            buffer.ts_us.push((key >> 32) as u64);
            buffer.block.push(*slot);
            buffer.bytes.push(blocks[id].bytes());
            buffer.is_alloc.push(is_alloc);
        }
        buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Analyzer;
    use std::collections::HashSet;
    use xmem_models::ModelId;
    use xmem_optim::OptimizerKind;
    use xmem_runtime::{profile_on_cpu, TrainJobSpec};

    fn sequence(optimizer: OptimizerKind) -> (AnalyzedTrace, EventBuffer) {
        let spec = TrainJobSpec::new(ModelId::MobileNetV3Small, optimizer, 4).with_iterations(3);
        let trace = profile_on_cpu(&spec);
        let analyzed = Analyzer::new().analyze(&trace).unwrap();
        let seq = Orchestrator::default().orchestrate(&analyzed);
        (analyzed, seq)
    }

    #[test]
    fn every_alloc_has_exactly_one_free() {
        let (_, seq) = sequence(OptimizerKind::Adam);
        let mut live: HashSet<u32> = HashSet::new();
        for (&block, &is_alloc) in seq.block.iter().zip(&seq.is_alloc) {
            if is_alloc {
                assert!(live.insert(block), "double alloc of block {block}");
            } else {
                assert!(live.remove(&block), "free before alloc of {block}");
            }
        }
        assert!(live.is_empty(), "all blocks freed by the horizon");
    }

    #[test]
    fn events_are_time_ordered() {
        let (_, seq) = sequence(OptimizerKind::Adam);
        assert!(seq.ts_us.is_sorted());
    }

    #[test]
    fn frees_never_precede_their_alloc() {
        let (_, seq) = sequence(OptimizerKind::AdamW);
        let mut alloc_ts = vec![None; seq.num_blocks];
        for event in 0..seq.len() {
            let slot = &mut alloc_ts[seq.block[event] as usize];
            if seq.is_alloc[event] {
                *slot = Some(seq.ts_us[event]);
            } else {
                assert!(seq.ts_us[event] >= slot.expect("allocated first"));
            }
        }
    }

    #[test]
    fn retime_changes_gradient_lifecycles() {
        let (analyzed, _) = sequence(OptimizerKind::Adam);
        let raw = Orchestrator {
            retime: false,
            filter_script: true,
        }
        .orchestrate(&analyzed);
        let retimed = Orchestrator::default().orchestrate(&analyzed);
        assert_eq!(raw.num_blocks, retimed.num_blocks);
        assert!(retimed.adjusted_blocks > 0, "some lifecycles must move");
        assert_eq!(raw.adjusted_blocks, 0);
        assert_ne!(raw.ts_us, retimed.ts_us);
    }

    #[test]
    fn orchestrated_peak_live_bytes_is_sane() {
        // Live-byte peak of the orchestrated events must at least cover
        // parameters + optimizer state (they are persistent).
        let (analyzed, seq) = sequence(OptimizerKind::Adam);
        let persistent = analyzed.bytes(crate::BlockCategory::Parameter)
            + analyzed.bytes(crate::BlockCategory::OptimizerState);
        let mut live = 0u64;
        let mut peak = 0u64;
        for (&bytes, &is_alloc) in seq.bytes.iter().zip(&seq.is_alloc) {
            if is_alloc {
                live += bytes;
                peak = peak.max(live);
            } else {
                live -= bytes;
            }
        }
        assert!(peak >= persistent);
    }
}
