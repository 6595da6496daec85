//! The Analyzer (paper §3.2): lifecycle reconstruction + hierarchical
//! time-based attribution + block classification.

use crate::lifecycle::{reconstruct_lifecycles, LifecycleStats, MemoryBlock};
use crate::windows::{AnnotationIndex, WindowIndex, WindowLookup};
use crate::EstimateError;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use xmem_trace::Trace;

/// Semantic class of a memory block, inferred purely from trace structure
/// (annotation phases, operator kinds, lifetimes) — never from runtime
/// internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockCategory {
    /// Model parameter or buffer, allocated while loading the model.
    Parameter,
    /// Input/target tensors allocated by the dataloader.
    BatchData,
    /// Forward-pass intermediate that outlives its operator.
    Activation,
    /// Parameter gradient written by `AccumulateGrad`.
    Gradient,
    /// Backward-pass intermediate (activation gradients and the like).
    BackwardTemp,
    /// Optimizer state allocated in `optimizer.step()` and never freed.
    OptimizerState,
    /// Transient scratch inside an `optimizer.step()` window.
    OptimizerScratch,
    /// Transient block living entirely inside one operator window.
    Workspace,
    /// Script-level block outside any operator context — filtered out
    /// before simulation (paper: "presumed less relevant for the target
    /// GPU").
    Script,
}

impl BlockCategory {
    /// Every category, in declaration order (`ALL[c as usize] == c`).
    pub const ALL: [BlockCategory; 9] = [
        BlockCategory::Parameter,
        BlockCategory::BatchData,
        BlockCategory::Activation,
        BlockCategory::Gradient,
        BlockCategory::BackwardTemp,
        BlockCategory::OptimizerState,
        BlockCategory::OptimizerScratch,
        BlockCategory::Workspace,
        BlockCategory::Script,
    ];

    /// Whether the Orchestrator forwards blocks of this category into the
    /// simulation.
    #[must_use]
    pub fn is_kept(self) -> bool {
        self != BlockCategory::Script
    }
}

/// A memory block enriched with attribution results.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalyzedBlock {
    /// The underlying lifecycle entity.
    pub block: MemoryBlock,
    /// Inferred category.
    pub category: BlockCategory,
    /// Name of the operator the block was attributed to, if any. Shared
    /// with the window it was attributed to; serialized as a string.
    pub operator: Option<Arc<str>>,
    /// Component (module path) enclosing the allocation, if any. Shared
    /// like `operator`.
    pub component: Option<Arc<str>>,
}

/// Analyzer output: the temporally ordered block sequence plus the window
/// index (which the Orchestrator reuses) and diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyzedTrace {
    /// Blocks in allocation order.
    pub blocks: Vec<AnalyzedBlock>,
    /// Execution windows of the trace.
    pub windows: WindowIndex,
    /// Lifecycle reconstruction diagnostics.
    pub lifecycle_stats: LifecycleStats,
}

impl AnalyzedTrace {
    /// Number of blocks per category (diagnostics / tests).
    #[must_use]
    pub fn count(&self, category: BlockCategory) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.category == category)
            .count()
    }

    /// Total bytes per category.
    #[must_use]
    pub fn bytes(&self, category: BlockCategory) -> u64 {
        self.blocks
            .iter()
            .filter(|b| b.category == category)
            .map(|b| b.block.bytes)
            .sum()
    }

    /// Approximate resident size of this analysis in bytes (block structs
    /// and the window index, which holds the names blocks share).
    /// Bytes-budgeted caches use it to price retained analyses; it is a
    /// stable, monotone-in-size figure, not exact heap accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let blocks = std::mem::size_of::<AnalyzedBlock>() as u64 * self.blocks.len() as u64;
        blocks + self.windows.approx_bytes()
    }
}

/// The Analyzer. Stateless; configuration selects the profiled device.
#[derive(Debug, Clone)]
pub struct Analyzer {
    device_id: i32,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

impl Analyzer {
    /// Analyzer for CPU traces (device id -1), the xMem configuration.
    #[must_use]
    pub fn new() -> Self {
        Analyzer { device_id: -1 }
    }

    /// Analyzer for a different source device (extensibility hook).
    #[must_use]
    pub fn for_device(device_id: i32) -> Self {
        Analyzer { device_id }
    }

    /// Runs lifecycle reconstruction, attribution and classification.
    ///
    /// # Errors
    /// [`EstimateError::EmptyTrace`] when no memory instants exist for the
    /// device; [`EstimateError::MissingIterations`] when the trace has no
    /// `ProfilerStep` markers (phases cannot be delimited).
    pub fn analyze(&self, trace: &Trace) -> Result<AnalyzedTrace, EstimateError> {
        let (blocks, lifecycle_stats) = reconstruct_lifecycles(trace, self.device_id);
        if blocks.is_empty() {
            return Err(EstimateError::EmptyTrace);
        }
        let windows = WindowIndex::build(trace);
        if windows.annotations.iterations.is_empty() {
            return Err(EstimateError::MissingIterations);
        }
        let lookup = windows.lookup();
        let analyzed = blocks
            .into_iter()
            .map(|b| self.classify(b, &windows.annotations, &lookup))
            .collect();
        Ok(AnalyzedTrace {
            blocks: analyzed,
            windows,
            lifecycle_stats,
        })
    }

    /// Attribution (paper's two rules, extended hierarchically) and
    /// classification of one block.
    fn classify(
        &self,
        block: MemoryBlock,
        ann: &AnnotationIndex,
        windows: &WindowLookup<'_>,
    ) -> AnalyzedBlock {
        let alloc_ts = block.alloc_ts;
        let component = windows.component_at(alloc_ts).map(|c| Arc::clone(&c.name));
        let op = windows.op_at(alloc_ts);
        let operator = op.map(|w| Arc::clone(&w.name));

        // Phase-based classes take precedence: these are the blocks the
        // Orchestrator has dedicated lifecycle rules for (§3.3).
        if ann.in_model_load(alloc_ts) {
            return AnalyzedBlock {
                block,
                category: BlockCategory::Parameter,
                operator,
                component,
            };
        }
        if ann.in_dataload(alloc_ts) {
            return AnalyzedBlock {
                block,
                category: BlockCategory::BatchData,
                operator,
                component,
            };
        }
        if ann.in_optimizer_step(alloc_ts) {
            // Persistent blocks born in step() are optimizer state; blocks
            // freed again are scratch. The paper filters state candidates
            // by parameter-size match; persistence subsumes that here and
            // also covers factored states (Adafactor) whose sizes match no
            // parameter.
            let category = if block.is_persistent() {
                BlockCategory::OptimizerState
            } else {
                BlockCategory::OptimizerScratch
            };
            return AnalyzedBlock {
                block,
                category,
                operator,
                component,
            };
        }

        match op {
            Some(w) => {
                let freed_inside_op = block.free_ts.is_some_and(|f| w.start <= f && f <= w.end);
                if w.is_accumulate_grad {
                    return AnalyzedBlock {
                        block,
                        category: BlockCategory::Gradient,
                        operator,
                        component,
                    };
                }
                if freed_inside_op {
                    // Rule (i): lifespan strictly within the operator.
                    return AnalyzedBlock {
                        block,
                        category: BlockCategory::Workspace,
                        operator,
                        component,
                    };
                }
                if w.is_backward {
                    return AnalyzedBlock {
                        block,
                        category: BlockCategory::BackwardTemp,
                        operator,
                        component,
                    };
                }
                // Rule (ii) and the component-level extension: a forward
                // block outliving its operator is an activation; whether it
                // outlives the component only refines the same class.
                AnalyzedBlock {
                    block,
                    category: BlockCategory::Activation,
                    operator,
                    component,
                }
            }
            None => {
                // Outside any operator window: script-level. Blocks inside
                // a component but not an operator are still script-level by
                // the paper's operator-centric filter.
                AnalyzedBlock {
                    block,
                    category: BlockCategory::Script,
                    operator: None,
                    component,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_models::ModelId;
    use xmem_optim::OptimizerKind;
    use xmem_runtime::{profile_on_cpu, TrainJobSpec};

    fn analyzed(optimizer: OptimizerKind) -> AnalyzedTrace {
        let spec = TrainJobSpec::new(ModelId::MobileNetV3Small, optimizer, 4).with_iterations(2);
        let trace = profile_on_cpu(&spec);
        Analyzer::new().analyze(&trace).unwrap()
    }

    #[test]
    fn real_trace_yields_all_major_categories() {
        let a = analyzed(OptimizerKind::Adam);
        for cat in [
            BlockCategory::Parameter,
            BlockCategory::BatchData,
            BlockCategory::Activation,
            BlockCategory::Gradient,
            BlockCategory::OptimizerState,
            BlockCategory::Workspace,
        ] {
            assert!(a.count(cat) > 0, "missing category {cat:?}");
        }
    }

    #[test]
    fn parameter_bytes_match_model() {
        let a = analyzed(OptimizerKind::Sgd { momentum: false });
        let g = ModelId::MobileNetV3Small.build();
        assert_eq!(a.bytes(BlockCategory::Parameter), g.param_bytes());
    }

    #[test]
    fn adam_state_is_twice_trainable_params() {
        let a = analyzed(OptimizerKind::Adam);
        let g = ModelId::MobileNetV3Small.build();
        let trainable: u64 = g
            .params()
            .iter()
            .filter(|p| p.trainable)
            .map(|p| p.spec.size_bytes() as u64)
            .sum();
        assert_eq!(a.bytes(BlockCategory::OptimizerState), 2 * trainable);
    }

    #[test]
    fn plain_sgd_has_no_state() {
        let a = analyzed(OptimizerKind::Sgd { momentum: false });
        assert_eq!(a.count(BlockCategory::OptimizerState), 0);
        assert_eq!(a.count(BlockCategory::OptimizerScratch), 0);
    }

    #[test]
    fn gradients_match_trainable_params_per_iteration() {
        let a = analyzed(OptimizerKind::Adam);
        let g = ModelId::MobileNetV3Small.build();
        let trainable = g.params().iter().filter(|p| p.trainable).count();
        // Gradients materialize once per iteration (freed by zero_grad).
        // 2 iterations profiled, POS0 placement: iteration 1 grads freed at
        // iteration 2's zero_grad; iteration 2 grads persist.
        assert_eq!(a.count(BlockCategory::Gradient), 2 * trainable);
    }

    #[test]
    fn category_list_is_in_declaration_order() {
        for (i, category) in BlockCategory::ALL.into_iter().enumerate() {
            assert_eq!(category as usize, i);
        }
    }

    #[test]
    fn empty_trace_is_rejected() {
        let t = Trace::new("empty");
        assert!(matches!(
            Analyzer::new().analyze(&t),
            Err(EstimateError::EmptyTrace)
        ));
    }

    #[test]
    fn missing_iterations_is_rejected() {
        let mut t = Trace::new("no-steps");
        let memory = t.intern(xmem_trace::names::MEMORY);
        t.push(xmem_trace::TraceEvent::mem_alloc(memory, 0, 0xa, 64, -1));
        assert!(matches!(
            Analyzer::new().analyze(&t),
            Err(EstimateError::MissingIterations)
        ));
    }
}
