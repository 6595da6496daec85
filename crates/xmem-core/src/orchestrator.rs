//! The Memory Orchestrator (paper §3.3): re-times CPU-derived block
//! lifecycles to match the lifecycle the same tensors would have on the
//! target GPU, then emits the orchestrated event sequence the Simulator
//! replays.
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

use crate::analyzer::{AnalyzedTrace, BlockCategory};
use serde::{Deserialize, Serialize};

/// One orchestrated memory event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrchestratedEvent {
    /// Event timestamp (µs).
    pub ts_us: u64,
    /// Block identifier (stable across alloc/free).
    pub block: usize,
    /// Size in bytes.
    pub bytes: u64,
    /// `true` = allocation, `false` = free.
    pub is_alloc: bool,
}

/// The orchestrated sequence: time-ordered events ready for replay.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrchestratedSequence {
    /// Events in replay order.
    pub events: Vec<OrchestratedEvent>,
    /// Number of blocks dropped by the script-level filter.
    pub filtered_blocks: usize,
    /// Number of blocks whose lifecycle was adjusted by rules 1–5.
    pub adjusted_blocks: usize,
}

impl OrchestratedSequence {
    /// Number of alloc events (== number of kept blocks).
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.events.iter().filter(|e| e.is_alloc).count()
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

impl Orchestrator {
    /// Produces the orchestrated sequence from an analyzed trace.
    #[must_use]
    pub fn orchestrate(&self, analyzed: &AnalyzedTrace) -> OrchestratedSequence {
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
            if self.filter_script && !b.category().is_kept() {
                filtered += 1;
                continue;
            }
            let mut free_ts = b.free_ts();
            if self.retime {
                let new_free = match b.category() {
                    // Rule 1 & 5: persistent for the analysis horizon.
                    BlockCategory::Parameter | BlockCategory::OptimizerState => None,
                    // Rule 2: die at the iteration boundary at the latest.
                    BlockCategory::BatchData => {
                        let boundary = ann.iteration_end(b.alloc_ts());
                        match (free_ts, boundary) {
                            (Some(f), Some(e)) => Some(f.min(e)),
                            (None, Some(e)) => Some(e),
                            (f, None) => f,
                        }
                    }
                    // Rule 4: snap to the next zero_grad end.
                    BlockCategory::Gradient => ann.next_zero_grad_end(b.alloc_ts()),
                    // Rule 3 and everything transient: keep CPU timing.
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

        // Replay order: primary = timestamp; secondary = block id so that
        // same-instant events replay in original allocation order; a
        // block's free at the same instant as its alloc replays after it
        // (matches trace emission order: a block is never freed before a
        // same-tick allocation that preceded it in the stream). Every key
        // is unique, so the unstable sort is deterministic.
        events.sort_unstable_by_key(|e| (e.ts_us, e.block, !e.is_alloc));
        OrchestratedSequence {
            events,
            filtered_blocks: filtered,
            adjusted_blocks: adjusted,
        }
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

    fn sequence(optimizer: OptimizerKind) -> (AnalyzedTrace, OrchestratedSequence) {
        let spec = TrainJobSpec::new(ModelId::MobileNetV3Small, optimizer, 4).with_iterations(3);
        let trace = profile_on_cpu(&spec);
        let analyzed = Analyzer::new().analyze(&trace).unwrap();
        let seq = Orchestrator::default().orchestrate(&analyzed);
        (analyzed, seq)
    }

    #[test]
    fn every_alloc_has_exactly_one_free() {
        let (_, seq) = sequence(OptimizerKind::Adam);
        let mut live: HashSet<usize> = HashSet::new();
        for e in &seq.events {
            if e.is_alloc {
                assert!(live.insert(e.block), "double alloc of block {}", e.block);
            } else {
                assert!(live.remove(&e.block), "free before alloc of {}", e.block);
            }
        }
        assert!(live.is_empty(), "all blocks freed by the horizon");
    }

    #[test]
    fn events_are_time_ordered() {
        let (_, seq) = sequence(OptimizerKind::Adam);
        for pair in seq.events.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us);
        }
    }

    #[test]
    fn frees_never_precede_their_alloc() {
        let (_, seq) = sequence(OptimizerKind::AdamW);
        use std::collections::HashMap;
        let mut alloc_ts: HashMap<usize, u64> = HashMap::new();
        for e in &seq.events {
            if e.is_alloc {
                alloc_ts.insert(e.block, e.ts_us);
            } else {
                assert!(e.ts_us >= alloc_ts[&e.block]);
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
        assert_eq!(raw.num_blocks(), retimed.num_blocks());
        assert!(retimed.adjusted_blocks > 0, "some lifecycles must move");
        assert_ne!(raw.events, retimed.events);
    }

    #[test]
    fn orchestrated_peak_live_bytes_is_sane() {
        // Live-byte peak of the orchestrated sequence must at least cover
        // parameters + optimizer state (they are persistent).
        let (analyzed, seq) = sequence(OptimizerKind::Adam);
        let persistent = analyzed.bytes(crate::BlockCategory::Parameter)
            + analyzed.bytes(crate::BlockCategory::OptimizerState);
        let mut live = 0u64;
        let mut peak = 0u64;
        for e in &seq.events {
            if e.is_alloc {
                live += e.bytes;
                peak = peak.max(live);
            } else {
                live -= e.bytes;
            }
        }
        assert!(peak >= persistent);
    }
}
