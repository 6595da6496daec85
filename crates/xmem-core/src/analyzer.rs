//! The Analyzer (paper §3.2): lifecycle reconstruction + hierarchical
//! time-based attribution + block classification.

use crate::lifecycle::{reconstruct_lifecycles, LifecycleStats, MemoryBlock};
use crate::windows::{AnnotationIndex, OpWindow, WindowIndex, WindowLookup};
use crate::EstimateError;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
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

/// Marks "no name" in an [`AnalyzedBlock`]'s name indices.
const NO_NAME: u32 = u32::MAX;

/// A memory block enriched with attribution results, stored in 48 bytes:
/// the lifecycle fields with a 32-bit id and a flagged free time, the
/// category, and the operator and component names as indices into the
/// windows of the [`AnalyzedTrace`] that holds the block. Read the names
/// with [`AnalyzedTrace::operator_of`] and [`AnalyzedTrace::component_of`].
#[derive(Debug, Clone, Copy)]
pub struct AnalyzedBlock {
    id: u32,
    /// Index of the operator window the block was attributed to, or
    /// [`NO_NAME`].
    operator: u32,
    /// Index of the innermost component window around the allocation, or
    /// [`NO_NAME`].
    component: u32,
    category: BlockCategory,
    freed: bool,
    addr: u64,
    bytes: u64,
    alloc_ts: u64,
    /// Deallocation timestamp; meaningful only when `freed`.
    free_ts: u64,
}

impl AnalyzedBlock {
    /// Stable index in allocation order.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id as usize
    }

    /// Address the block lived at.
    #[must_use]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Size in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Allocation timestamp (µs).
    #[must_use]
    pub fn alloc_ts(&self) -> u64 {
        self.alloc_ts
    }

    /// Deallocation timestamp, `None` when the block survives the trace.
    #[must_use]
    pub fn free_ts(&self) -> Option<u64> {
        self.freed.then_some(self.free_ts)
    }

    /// Whether the block survives to the end of the trace.
    #[must_use]
    pub fn is_persistent(&self) -> bool {
        !self.freed
    }

    /// Inferred category.
    #[must_use]
    pub fn category(&self) -> BlockCategory {
        self.category
    }

    /// The underlying lifecycle entity.
    #[must_use]
    pub fn block(&self) -> MemoryBlock {
        MemoryBlock {
            id: self.id(),
            addr: self.addr,
            bytes: self.bytes,
            alloc_ts: self.alloc_ts,
            free_ts: self.free_ts(),
        }
    }

    /// The compact form of `block`. Its id must fit 32 bits and both
    /// window indices lie below [`NO_NAME`]; [`Analyzer::analyze`] and the
    /// decoder see to it.
    fn new(
        block: &MemoryBlock,
        category: BlockCategory,
        operator: Option<usize>,
        component: Option<usize>,
    ) -> Self {
        let index = |i: Option<usize>| i.map_or(NO_NAME, |i| i as u32);
        AnalyzedBlock {
            id: block.id as u32,
            operator: index(operator),
            component: index(component),
            category,
            freed: block.free_ts.is_some(),
            addr: block.addr,
            bytes: block.bytes,
            alloc_ts: block.alloc_ts,
            free_ts: block.free_ts.unwrap_or(0),
        }
    }
}

/// Analyzer output: the temporally ordered block sequence plus the window
/// index (which the Orchestrator reuses and whose names the blocks index)
/// and diagnostics.
///
/// It serializes with every block's names spelled out, exactly as when
/// blocks held the strings. Deserializing checks that each block id fits
/// 32 bits and that each name is one of a window of the record: a record
/// that fails is an error, never an analysis that panics or misnames.
#[derive(Debug, Clone)]
pub struct AnalyzedTrace {
    blocks: Vec<AnalyzedBlock>,
    windows: WindowIndex,
    /// Lifecycle reconstruction diagnostics.
    pub lifecycle_stats: LifecycleStats,
}

impl AnalyzedTrace {
    /// Blocks in allocation order.
    #[must_use]
    pub fn blocks(&self) -> &[AnalyzedBlock] {
        &self.blocks
    }

    /// Execution windows of the trace.
    #[must_use]
    pub fn windows(&self) -> &WindowIndex {
        &self.windows
    }

    /// Name of the operator `block` was attributed to, if any. `block`
    /// must come from this analysis.
    #[must_use]
    pub fn operator_of(&self, block: &AnalyzedBlock) -> Option<&str> {
        self.windows
            .ops()
            .get(block.operator as usize)
            .map(|w| &*w.name)
    }

    /// Component (module path) enclosing `block`'s allocation, if any.
    /// `block` must come from this analysis.
    #[must_use]
    pub fn component_of(&self, block: &AnalyzedBlock) -> Option<&str> {
        self.windows
            .components()
            .get(block.component as usize)
            .map(|w| &*w.name)
    }

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
            .map(|b| b.bytes)
            .sum()
    }

    /// Approximate resident size of this analysis in bytes: the block
    /// structs and the window index, which holds the names blocks index.
    /// Stage caches price retained analyses by it. It leaves out the
    /// allocator's own overhead and tracks the heap an analysis retains
    /// once its trace is dropped to within a few percent
    /// (`tests/retained_heap.rs` holds it to ±15 %).
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let blocks = std::mem::size_of::<AnalyzedBlock>() as u64 * self.blocks.len() as u64;
        blocks + self.windows.approx_bytes()
    }
}

impl Serialize for AnalyzedTrace {
    fn to_value(&self) -> Value {
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                Value::Object(vec![
                    ("block".to_owned(), b.block().to_value()),
                    ("category".to_owned(), b.category.to_value()),
                    ("operator".to_owned(), self.operator_of(b).to_value()),
                    ("component".to_owned(), self.component_of(b).to_value()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("blocks".to_owned(), Value::Array(blocks)),
            ("windows".to_owned(), self.windows.to_value()),
            (
                "lifecycle_stats".to_owned(),
                self.lifecycle_stats.to_value(),
            ),
        ])
    }
}

/// The serialized fields of an [`AnalyzedBlock`], names spelled out.
#[derive(Deserialize)]
struct BlockRecord {
    block: MemoryBlock,
    category: BlockCategory,
    operator: Option<String>,
    component: Option<String>,
}

/// The serialized fields of an [`AnalyzedTrace`], before
/// [`AnalyzedTraceRecord::check`] vouches for them.
#[derive(Deserialize)]
struct AnalyzedTraceRecord {
    blocks: Vec<BlockRecord>,
    windows: WindowIndex,
    lifecycle_stats: LifecycleStats,
}

impl AnalyzedTraceRecord {
    /// The analysis, or why the record cannot be one.
    fn check(self) -> Result<AnalyzedTrace, &'static str> {
        let mut windows = self.windows;
        windows.share_names();
        if windows.ops().len() >= NO_NAME as usize || windows.components().len() >= NO_NAME as usize
        {
            return Err("analysis has more windows than block names can index");
        }
        let ops = first_index_by_name(windows.ops().iter().map(|w| &*w.name));
        let components = first_index_by_name(windows.components().iter().map(|w| &*w.name));
        let blocks = self
            .blocks
            .into_iter()
            .map(|record| {
                if u32::try_from(record.block.id).is_err() {
                    return Err("analyzed block id does not fit 32 bits");
                }
                let operator = resolve(&ops, record.operator.as_deref())
                    .ok_or("analyzed block names an operator no window of the record has")?;
                let component = resolve(&components, record.component.as_deref())
                    .ok_or("analyzed block names a component no window of the record has")?;
                Ok(AnalyzedBlock::new(
                    &record.block,
                    record.category,
                    operator,
                    component,
                ))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AnalyzedTrace {
            blocks,
            windows,
            lifecycle_stats: self.lifecycle_stats,
        })
    }
}

/// Each distinct name mapped to the index of its first window.
fn first_index_by_name<'a>(names: impl Iterator<Item = &'a str>) -> HashMap<&'a str, usize> {
    let mut first = HashMap::new();
    for (i, name) in names.enumerate() {
        first.entry(name).or_insert(i);
    }
    first
}

/// The window index of an optional name: `Some(None)` for no name,
/// `None` for a name no window has.
fn resolve(first: &HashMap<&str, usize>, name: Option<&str>) -> Option<Option<usize>> {
    match name {
        None => Some(None),
        Some(name) => first.get(name).map(|&i| Some(i)),
    }
}

impl Deserialize for AnalyzedTrace {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        AnalyzedTraceRecord::from_value(value)?
            .check()
            .map_err(serde::Error::custom)
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
    ///
    /// # Panics
    /// When the trace has `u32::MAX` or more allocations, operator windows
    /// or component windows — far more than a trace that fits in memory
    /// holds.
    pub fn analyze(&self, trace: &Trace) -> Result<AnalyzedTrace, EstimateError> {
        let (blocks, lifecycle_stats) = reconstruct_lifecycles(trace, self.device_id);
        if blocks.is_empty() {
            return Err(EstimateError::EmptyTrace);
        }
        let windows = WindowIndex::build(trace);
        if windows.annotations.iterations.is_empty() {
            return Err(EstimateError::MissingIterations);
        }
        assert!(
            windows.ops().len() < NO_NAME as usize && windows.components().len() < NO_NAME as usize,
            "fewer than u32::MAX windows"
        );
        let lookup = windows.lookup();
        let analyzed = blocks
            .iter()
            .map(|b| self.classify(b, &windows, &lookup))
            .collect();
        Ok(AnalyzedTrace {
            blocks: analyzed,
            windows,
            lifecycle_stats,
        })
    }

    /// Attribution (paper's two rules, extended hierarchically) and
    /// classification of one block. The block keeps the indices of the
    /// windows it was attributed to, which name it.
    fn classify(
        &self,
        block: &MemoryBlock,
        windows: &WindowIndex,
        lookup: &WindowLookup<'_>,
    ) -> AnalyzedBlock {
        let operator = lookup.op_index_at(block.alloc_ts);
        let component = lookup.component_index_at(block.alloc_ts);
        let op = operator.map(|i| &windows.ops()[i]);
        let category = Self::category(block, &windows.annotations, op);
        AnalyzedBlock::new(block, category, operator, component)
    }

    /// The class of `block`, allocated inside operator window `op` (if
    /// any).
    fn category(
        block: &MemoryBlock,
        ann: &AnnotationIndex,
        op: Option<&OpWindow>,
    ) -> BlockCategory {
        let alloc_ts = block.alloc_ts;
        // Phase-based classes take precedence: these are the blocks the
        // Orchestrator has dedicated lifecycle rules for (§3.3).
        if ann.in_model_load(alloc_ts) {
            return BlockCategory::Parameter;
        }
        if ann.in_dataload(alloc_ts) {
            return BlockCategory::BatchData;
        }
        if ann.in_optimizer_step(alloc_ts) {
            // Persistent blocks born in step() are optimizer state; blocks
            // freed again are scratch. The paper filters state candidates
            // by parameter-size match; persistence subsumes that here and
            // also covers factored states (Adafactor) whose sizes match no
            // parameter.
            return if block.is_persistent() {
                BlockCategory::OptimizerState
            } else {
                BlockCategory::OptimizerScratch
            };
        }

        match op {
            Some(w) => {
                let freed_inside_op = block.free_ts.is_some_and(|f| w.start <= f && f <= w.end);
                if w.is_accumulate_grad {
                    BlockCategory::Gradient
                } else if freed_inside_op {
                    // Rule (i): lifespan strictly within the operator.
                    BlockCategory::Workspace
                } else if w.is_backward {
                    BlockCategory::BackwardTemp
                } else {
                    // Rule (ii) and the component-level extension: a
                    // forward block outliving its operator is an
                    // activation; whether it outlives the component only
                    // refines the same class.
                    BlockCategory::Activation
                }
            }
            // Outside any operator window: script-level. Blocks inside a
            // component but not an operator are still script-level by the
            // paper's operator-centric filter.
            None => BlockCategory::Script,
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
    fn analyzed_blocks_fit_in_48_bytes() {
        assert!(std::mem::size_of::<AnalyzedBlock>() <= 48);
    }

    #[test]
    fn a_decoded_analysis_shares_names_like_a_built_one() {
        let built = analyzed(OptimizerKind::Adam);
        let decoded = AnalyzedTrace::from_value(&built.to_value()).expect("decodes");
        assert_eq!(decoded.approx_bytes(), built.approx_bytes());
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
