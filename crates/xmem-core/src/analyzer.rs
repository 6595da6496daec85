//! The Analyzer (paper §3.2): lifecycle reconstruction + hierarchical
//! time-based attribution + block classification.

use crate::lifecycle::{LifecycleStats, Lifecycles, MemoryBlock};
use crate::windows::{
    move_to_exact, AnnotationIndex, ComponentWindow, CoveringSweep, NameClass, OpWindow,
    WindowCollector, WindowIndex,
};
use crate::EstimateError;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::sync::Arc;
use xmem_runtime::Sink;
use xmem_trace::{EventCategory, NameId, Trace};

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
    /// window indices lie below [`NO_NAME`]; the decoder sees to it.
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

    /// A block just allocated: live, and not yet attributed or classified.
    pub(crate) fn allocated(id: u32, addr: u64, bytes: u64, alloc_ts: u64) -> Self {
        AnalyzedBlock {
            id,
            operator: NO_NAME,
            component: NO_NAME,
            category: BlockCategory::Script,
            freed: false,
            addr,
            bytes,
            alloc_ts,
            free_ts: 0,
        }
    }

    /// Records the block's deallocation at `ts`.
    pub(crate) fn free_at(&mut self, ts: u64) {
        self.freed = true;
        self.free_ts = ts;
    }
}

/// Analyzer output: the temporally ordered block sequence plus the window
/// index (which the Orchestrator reuses and whose names the blocks index)
/// and diagnostics.
///
/// It serializes with every block's names spelled out, exactly as when
/// blocks held the strings. Deserializing checks that each block id fits
/// 32 bits and is the block's position, as the Orchestrator indexes
/// blocks by id, and that each name is one of a window of the record: a
/// record that fails is an error, never an analysis that panics or
/// misnames.
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

    /// The operator window `block` was attributed to, if any. `block` must
    /// come from this analysis. The Analyzer attributes a block to the
    /// window [`WindowIndex::op_at`] finds at its allocation; a decoded
    /// analysis names the first window of that name.
    #[must_use]
    pub fn operator_window(&self, block: &AnalyzedBlock) -> Option<&OpWindow> {
        self.windows.ops().get(block.operator as usize)
    }

    /// The innermost component window around `block`'s allocation, if
    /// any, as [`WindowIndex::component_at`] finds it (see
    /// [`operator_window`](Self::operator_window)). `block` must come from
    /// this analysis.
    #[must_use]
    pub fn component_window(&self, block: &AnalyzedBlock) -> Option<&ComponentWindow> {
        self.windows.components().get(block.component as usize)
    }

    /// Name of the operator `block` was attributed to, if any. `block`
    /// must come from this analysis.
    #[must_use]
    pub fn operator_of(&self, block: &AnalyzedBlock) -> Option<&str> {
        self.operator_window(block).map(|w| &*w.name)
    }

    /// Component (module path) enclosing `block`'s allocation, if any.
    /// `block` must come from this analysis.
    #[must_use]
    pub fn component_of(&self, block: &AnalyzedBlock) -> Option<&str> {
        self.component_window(block).map(|w| &*w.name)
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
            .enumerate()
            .map(|(position, record)| {
                if u32::try_from(record.block.id).is_err() {
                    return Err("analyzed block id does not fit 32 bits");
                }
                if record.block.id != position {
                    return Err("analyzed block id is not its position");
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

    /// Runs lifecycle reconstruction, attribution and classification
    /// over a recorded trace: the trace fed through
    /// [`sink`](Self::sink), in trace order.
    ///
    /// # Errors
    /// As [`AnalyzingSink::finish`].
    ///
    /// # Panics
    /// As [`AnalyzingSink::finish`].
    pub fn analyze(&self, trace: &Trace) -> Result<AnalyzedTrace, EstimateError> {
        AnalyzingSink::from_trace(trace, self.device_id).finish()
    }

    /// A sink that analyzes a run's events as the engine reports them
    /// (`xmem_runtime::profile_into`), so no trace is recorded.
    #[must_use]
    pub fn sink(&self) -> AnalyzingSink {
        AnalyzingSink::new(self.device_id)
    }

    /// Attribution (paper's two rules, extended hierarchically) and
    /// classification of every block. Each block keeps the indices of the
    /// windows it was attributed to, which name it.
    ///
    /// One forward sweep over the blocks in allocation-time order and
    /// over each window list (see [`CoveringSweep`]). Blocks come in that
    /// order from the engine and from time-sorted traces; a hand-built
    /// trace may list allocations out of time order, and its blocks are
    /// swept in a stable sort of their indices by allocation time.
    fn classify(blocks: &mut [AnalyzedBlock], windows: &WindowIndex) {
        let mut ops = CoveringSweep::new(windows.ops(), |w| (w.start, w.end));
        let mut components = CoveringSweep::new(windows.components(), |w| (w.start, w.end));
        let mut classify = |block: &mut AnalyzedBlock| {
            let operator = ops.at(block.alloc_ts);
            let op = operator.map(|i| &windows.ops()[i]);
            block.category = Self::category(block, &windows.annotations, op);
            block.operator = operator.map_or(NO_NAME, |i| i as u32);
            block.component = components.at(block.alloc_ts).map_or(NO_NAME, |i| i as u32);
        };
        if blocks.is_sorted_by_key(|b| b.alloc_ts) {
            blocks.iter_mut().for_each(classify);
        } else {
            let mut order: Vec<usize> = (0..blocks.len()).collect();
            order.sort_by_key(|&i| blocks[i].alloc_ts);
            for i in order {
                classify(&mut blocks[i]);
            }
        }
    }

    /// The class of `block`, allocated inside operator window `op` (if
    /// any).
    fn category(
        block: &AnalyzedBlock,
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
                let freed_inside_op = block.free_ts().is_some_and(|f| w.start <= f && f <= w.end);
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

/// The Analyzer as a profiler [`Sink`]: it analyzes a run in the one pass
/// the engine makes, and [`Analyzer::analyze`] feeds it a recorded trace.
///
/// - Each distinct name is classified once, when it is interned.
/// - Memory instants are paired into blocks as they arrive. The engine
///   reports them in time order, so arrival order is trace order.
/// - Spans arrive when they close, so only their windows are buffered;
///   [`finish`](Self::finish) puts each list in start order and then
///   attributes and classifies every block in one sweep.
#[derive(Debug)]
pub struct AnalyzingSink {
    device_id: i32,
    /// The class of each interned name, indexed by [`NameId::index`].
    names: Vec<NameClass>,
    ids: HashMap<Arc<str>, NameId>,
    pub(crate) lifecycles: Lifecycles,
    pub(crate) windows: WindowCollector,
}

impl AnalyzingSink {
    fn new(device_id: i32) -> Self {
        AnalyzingSink {
            device_id,
            names: Vec::new(),
            ids: HashMap::new(),
            lifecycles: Lifecycles::default(),
            windows: WindowCollector::default(),
        }
    }

    /// The sink fed every event of `trace`, in trace order.
    pub(crate) fn from_trace(trace: &Trace, device_id: i32) -> Self {
        let mut sink = AnalyzingSink::new(device_id);
        // A trace's table holds each name once, so its ids are the sink's.
        sink.names = trace.names().iter().map(NameClass::of).collect();
        for e in trace.events() {
            if !e.is_memory_instant() {
                let class = &sink.names[e.name.index()];
                sink.windows
                    .span(e.category, class, e.ts_us, e.dur_us, e.args.seq());
                continue;
            }
            let (Some(device), Some(addr), Some(bytes)) =
                (e.args.device(), e.args.addr(), e.args.bytes())
            else {
                continue;
            };
            if bytes > 0 {
                sink.alloc(e.ts_us, addr, bytes.unsigned_abs(), device);
            } else {
                sink.free(e.ts_us, addr, bytes.unsigned_abs(), device);
            }
        }
        sink
    }

    fn alloc(&mut self, ts_us: u64, addr: u64, bytes: u64, device: i32) {
        if device == self.device_id && bytes > 0 {
            self.lifecycles.alloc(ts_us, addr, bytes);
        }
    }

    fn free(&mut self, ts_us: u64, addr: u64, bytes: u64, device: i32) {
        if device == self.device_id && bytes > 0 {
            self.lifecycles.free(ts_us, addr, bytes);
        }
    }

    /// Orders the windows, then attributes and classifies every block.
    ///
    /// # Errors
    /// [`EstimateError::EmptyTrace`] when no memory instants exist for the
    /// device; [`EstimateError::MissingIterations`] when the run has no
    /// `ProfilerStep` markers (phases cannot be delimited).
    ///
    /// # Panics
    /// When the run has `u32::MAX` or more allocations, operator windows
    /// or component windows — far more than a run that fits in memory
    /// makes.
    pub fn finish(self) -> Result<AnalyzedTrace, EstimateError> {
        let (mut blocks, lifecycle_stats) = self.lifecycles.finish();
        if blocks.is_empty() {
            return Err(EstimateError::EmptyTrace);
        }
        let windows = self.windows.finish();
        if windows.annotations.iterations.is_empty() {
            return Err(EstimateError::MissingIterations);
        }
        assert!(
            windows.ops().len() < NO_NAME as usize && windows.components().len() < NO_NAME as usize,
            "fewer than u32::MAX windows"
        );
        Analyzer::classify(&mut blocks, &windows);
        move_to_exact(&mut blocks);
        Ok(AnalyzedTrace {
            blocks,
            windows,
            lifecycle_stats,
        })
    }
}

impl Sink for AnalyzingSink {
    fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id =
            NameId::from_index(u32::try_from(self.names.len()).expect("at most u32::MAX names"));
        let name: Arc<str> = Arc::from(name);
        self.names.push(NameClass::of(&name));
        self.ids.insert(name, id);
        id
    }

    fn span(&mut self, category: EventCategory, name: NameId, ts_us: u64, dur_us: u64) {
        self.windows
            .span(category, &self.names[name.index()], ts_us, dur_us, None);
    }

    fn span_seq(&mut self, name: NameId, ts_us: u64, dur_us: u64, seq: u64) {
        self.windows.span(
            EventCategory::CpuOp,
            &self.names[name.index()],
            ts_us,
            dur_us,
            Some(seq),
        );
    }

    fn mem_alloc(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32) {
        self.alloc(ts_us, addr, bytes as u64, device);
    }

    fn mem_free(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32) {
        self.free(ts_us, addr, bytes as u64, device);
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

    /// A span as an engine reports it.
    #[derive(Debug, Clone, Copy)]
    struct Span {
        category: EventCategory,
        name: usize,
        start: u64,
        dur: u64,
        seq: Option<u64>,
    }

    /// Names of every kind the windows tell apart, with the category an
    /// engine reports each in.
    fn vocabulary() -> Vec<(EventCategory, String)> {
        use xmem_trace::names;
        let mut vocabulary: Vec<(EventCategory, String)> = ["model", "model.0", "model.1"]
            .iter()
            .map(|path| (EventCategory::PythonFunction, names::nn_module(path)))
            .collect();
        for annotation in [
            names::profiler_step(1),
            names::profiler_step(2),
            names::optimizer_zero_grad("Adam"),
            names::optimizer_step("Adam"),
            names::DATALOADER_NEXT.to_owned(),
            names::BACKWARD_CALL.to_owned(),
            names::MODEL_TO_DEVICE.to_owned(),
        ] {
            vocabulary.push((EventCategory::UserAnnotation, annotation));
        }
        for kernel in [
            "aten::linear".to_owned(),
            names::autograd_node("AddmmBackward0"),
            names::ACCUMULATE_GRAD.to_owned(),
        ] {
            vocabulary.push((EventCategory::CpuOp, kernel));
        }
        vocabulary
    }

    /// xorshift64*: a deterministic stream.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        }
    }

    /// Pushes a random span starting at `at`, with its descendants
    /// first, as an engine reports spans: each when it closes. Children
    /// may start with their parent, siblings with each other, and spans
    /// may be zero-length. Returns the span's end.
    fn grow(
        rng: &mut XorShift,
        vocabulary: &[(EventCategory, String)],
        at: u64,
        depth: u32,
        out: &mut Vec<Span>,
    ) -> u64 {
        let mut t = at;
        if depth > 0 {
            for _ in 0..rng.below(4) {
                t += rng.below(3);
                t = grow(rng, vocabulary, t, depth - 1, out);
            }
        }
        let name = rng.below(vocabulary.len() as u64) as usize;
        let end = t + rng.below(3);
        out.push(Span {
            category: vocabulary[name].0,
            name,
            start: at,
            dur: end - at,
            seq: (rng.below(2) == 0).then(|| rng.below(100)),
        });
        end
    }

    /// The windows a sink collects from `spans`, fed in the given order.
    fn windows_of(vocabulary: &[(EventCategory, String)], spans: &[Span]) -> WindowIndex {
        let mut sink = Analyzer::new().sink();
        let ids: Vec<NameId> = vocabulary
            .iter()
            .map(|(_, name)| sink.intern(name))
            .collect();
        for s in spans {
            match (s.category, s.seq) {
                (EventCategory::CpuOp, Some(seq)) => {
                    sink.span_seq(ids[s.name], s.start, s.dur, seq);
                }
                (category, _) => sink.span(category, ids[s.name], s.start, s.dur),
            }
        }
        sink.windows.finish()
    }

    #[test]
    fn spans_fed_at_their_end_and_in_start_order_give_the_same_windows() {
        let vocabulary = vocabulary();
        let mut rng = XorShift(0x9e37_79b9_97f4_a7c1);
        let (mut ties, mut empty, mut nested) = (0, 0, 0);
        for case in 0..300 {
            let mut late = Vec::new();
            let mut t = 0;
            for _ in 0..1 + rng.below(12) {
                let gap = rng.below(2);
                t = grow(&mut rng, &vocabulary, t + gap, 3, &mut late);
            }
            // Start order, as a time-sorted trace lists the spans.
            let mut in_start_order = late.clone();
            in_start_order.sort_by_key(|s| s.start);
            let windows = windows_of(&vocabulary, &late);
            assert_eq!(
                windows,
                windows_of(&vocabulary, &in_start_order),
                "case {case}"
            );

            ties += late.windows(2).filter(|p| p[0].start == p[1].start).count();
            empty += late.iter().filter(|s| s.dur == 0).count();
            let components = windows.components();
            nested += components
                .windows(2)
                .filter(|p| p[1].start >= p[0].start && p[1].end <= p[0].end)
                .count();
        }
        assert!(
            ties > 0 && empty > 0 && nested > 0,
            "{ties} {empty} {nested}"
        );
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
