//! The training-loop engine.
//!
//! Executes a graph through `iterations` of the standard PyTorch loop
//! (paper's reference loop [34]): dataloader fetch → (`zero_grad` at POS1)
//! → forward → (`zero_grad` at POS0) → backward → `optimizer.step()`.
//! Every tensor materialization goes through a [`MemoryArena`] and is
//! reported to a [`Sink`], on a virtual microsecond clock.
//!
//! Lifetime rules implemented here (and exploited by xMem's Orchestrator):
//!
//! * parameters and buffers live from `model.to(device)` onwards;
//! * activations are freed when their last forward consumer has run *and*
//!   no autograd node keeps them saved; saved tensors are released by the
//!   owning node's backward;
//! * gradients are allocated on first contribution during backward;
//!   activation gradients die with their producer's backward, parameter
//!   gradients persist until `zero_grad(set_to_none=True)` frees them;
//! * optimizer state appears on the first `step()` (or eagerly for
//!   Adagrad) and never dies;
//! * batch tensors are replaced at the next dataloader fetch.

use crate::arena::MemoryArena;
use crate::backend::{BackendKind, Phase};
use crate::jobs::{Precision, ZeroGradPos};
use crate::memmodel::{is_differentiable, is_inplace, saved_plan, SavedPlan};
use crate::profiler::Sink;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use xmem_alloc::OomError;
use xmem_graph::{DType, Graph, TensorSpec};
use xmem_optim::OptimizerKind;
use xmem_trace::{names, EventCategory, NameId};

/// A failed run.
#[derive(Debug)]
pub enum RunError {
    /// The device ran out of memory (GPU backend only).
    Oom(OomError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Oom(e) => write!(f, "training run failed: {e}"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Oom(e) => Some(e),
        }
    }
}

#[derive(Debug, Clone)]
struct Handle {
    bytes: usize,
    addr: Option<u64>,
    fwd_uses: usize,
    saved_refs: usize,
    /// Gradients flow into this tensor (float activation on the autograd
    /// tape). Batch inputs and integer tensors carry no gradient.
    wants_grad: bool,
    grad_addr: Option<u64>,
    /// Node whose execution materializes this handle (views and in-place
    /// ops share their input's handle).
    alloc_node: usize,
    /// Batch-lifetime tensor (replaced at the next dataloader fetch).
    is_batch: bool,
}

/// What executing one node costs and keeps alive. A pure function of the
/// graph and the run configuration, so it is computed once per run rather
/// than once per node execution.
#[derive(Debug, Default)]
struct NodePlan {
    /// Forward kernel duration; backward kernels cost roughly 2x this.
    dur: u64,
    fwd_ws: usize,
    bwd_ws: usize,
    saved: SavedPlan,
    /// Profiler names of the node's forward and backward kernels.
    fwd_name: NameId,
    bwd_name: NameId,
    /// The `nn.Module: <path>` span name of the node's component; `None`
    /// when the node belongs to no component.
    component: Option<NameId>,
}

/// The fixed names a run reports, interned once per run.
struct RunNames {
    model_to_device: NameId,
    dataloader_next: NameId,
    zero_grad: NameId,
    optimizer_step: NameId,
    backward_call: NameId,
    accumulate_grad: NameId,
    /// `nn.Module: <model>`, the whole-forward span.
    model: NameId,
    /// `ProfilerStep#k` at index `k - 1`.
    steps: Vec<NameId>,
}

/// The id of `name()` in `sink`, or a placeholder for a sink that records
/// nothing, so a discarding sink never has names built for it.
fn intern<S: Sink, N: AsRef<str>>(sink: &mut S, name: impl FnOnce() -> N) -> NameId {
    if sink.records() {
        sink.intern(name().as_ref())
    } else {
        NameId::default()
    }
}

/// The engine. Generic over arena (CPU heap / GPU allocator) and sink
/// (profiler / null).
pub struct Engine<'g, A, S> {
    graph: &'g Graph,
    backend: BackendKind,
    optimizer: OptimizerKind,
    zero_grad_pos: ZeroGradPos,
    iterations: u32,
    precision: Precision,
    /// Parameter specs after precision mapping.
    param_specs: Vec<TensorSpec>,
    batch: usize,
    seq: usize,
    arena: A,
    sink: S,
    clock: u64,

    names: RunNames,
    plans: Vec<NodePlan>,
    /// Node index → handle index.
    node_handle: Vec<usize>,
    handles: Vec<Handle>,
    fwd_uses_template: Vec<usize>,
    param_addrs: Vec<Option<u64>>,
    param_grads: Vec<Option<u64>>,
    state_addrs: Vec<Vec<u64>>,
    /// Extra saved buffers per node: (bytes, addr).
    saved_extra: Vec<Vec<(usize, u64)>>,
    batch_tensors: Vec<(u64, usize)>,
    states_initialized: bool,
    loss_node: usize,
    ops_executed: u64,
}

impl<'g, A: MemoryArena, S: Sink> Engine<'g, A, S> {
    /// Prepares a run. `seq == 0` selects the model's default sequence
    /// length.
    ///
    /// # Panics
    /// Panics if the graph fails shape inference for this configuration (a
    /// builder bug, not a workload condition).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: &'g Graph,
        backend: BackendKind,
        optimizer: OptimizerKind,
        zero_grad_pos: ZeroGradPos,
        precision: Precision,
        iterations: u32,
        batch: usize,
        seq: usize,
        arena: A,
        mut sink: S,
    ) -> Self {
        // Precision mapping: float tensors change element width, integer
        // tensors (token ids, indices) are untouched.
        let apply_precision = |spec: TensorSpec| -> TensorSpec {
            match precision {
                Precision::F32 => spec,
                Precision::F16 if spec.dtype == DType::F32 => spec.with_dtype(DType::F16),
                Precision::F16 => spec,
            }
        };
        let inputs = graph.input_specs(batch, seq);
        let shapes: Vec<TensorSpec> = graph
            .infer_shapes(&inputs)
            .expect("graph must shape-infer for the run configuration")
            .into_iter()
            .map(apply_precision)
            .collect();
        let param_specs: Vec<TensorSpec> = graph
            .params()
            .iter()
            .map(|p| apply_precision(p.spec.clone()))
            .collect();

        // Resolve handles: views and in-place activations alias inputs.
        let mut node_handle = Vec::with_capacity(graph.nodes().len());
        let mut handles: Vec<Handle> = Vec::new();
        for (i, node) in graph.nodes().iter().enumerate() {
            let h = if node.op.is_view() || is_inplace(&node.op) {
                node_handle[node.inputs[0].index()]
            } else {
                handles.push(Handle {
                    bytes: shapes[i].size_bytes(),
                    addr: None,
                    fwd_uses: 0,
                    saved_refs: 0,
                    wants_grad: shapes[i].dtype.is_float() && !node.is_input(),
                    grad_addr: None,
                    alloc_node: i,
                    is_batch: node.is_input(),
                });
                handles.len() - 1
            };
            node_handle.push(h);
        }
        // Forward-use counts: one per consumer edge.
        let mut fwd_uses_template = vec![0usize; handles.len()];
        for node in graph.nodes() {
            for input in &node.inputs {
                fwd_uses_template[node_handle[input.index()]] += 1;
            }
        }
        // Kernel names are built once per op kind, component names once
        // per run of consecutive nodes (the sink merges repeats).
        let mut kernels: HashMap<&'static str, NameId> = HashMap::new();
        let mut backward_kernels: HashMap<&'static str, NameId> = HashMap::new();
        let mut last_component: Option<(&str, NameId)> = None;
        let plans = graph
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let path = node.component.as_str();
                let component = match last_component {
                    _ if path.is_empty() => None,
                    Some((last, id)) if last == path => Some(id),
                    _ => {
                        let id = intern(&mut sink, || names::nn_module(path));
                        last_component = Some((path, id));
                        Some(id)
                    }
                };
                if node.is_input() {
                    return NodePlan {
                        component,
                        ..NodePlan::default()
                    };
                }
                let inputs: Vec<&TensorSpec> =
                    node.inputs.iter().map(|id| &shapes[id.index()]).collect();
                let (op, out) = (&node.op, &shapes[i]);
                let aten = op.aten_name();
                let fwd_name = *kernels
                    .entry(aten)
                    .or_insert_with(|| intern(&mut sink, || aten));
                // View nodes run no backward kernel.
                let bwd_name = if op.is_view() {
                    NameId::default()
                } else {
                    *backward_kernels.entry(aten).or_insert_with(|| {
                        intern(&mut sink, || {
                            names::autograd_node(&names::backward_node_for(aten))
                        })
                    })
                };
                NodePlan {
                    dur: backend.op_duration_us(op, &inputs, out),
                    fwd_ws: backend.workspace_bytes(op, &inputs, out, Phase::Forward),
                    bwd_ws: backend.workspace_bytes(op, &inputs, out, Phase::Backward),
                    saved: saved_plan(op, &inputs, out),
                    fwd_name,
                    bwd_name,
                    component,
                }
            })
            .collect();
        let run_names = RunNames {
            model_to_device: intern(&mut sink, || names::MODEL_TO_DEVICE),
            dataloader_next: intern(&mut sink, || names::DATALOADER_NEXT),
            zero_grad: intern(&mut sink, || names::optimizer_zero_grad(optimizer.name())),
            optimizer_step: intern(&mut sink, || names::optimizer_step(optimizer.name())),
            backward_call: intern(&mut sink, || names::BACKWARD_CALL),
            accumulate_grad: intern(&mut sink, || names::ACCUMULATE_GRAD),
            model: intern(&mut sink, || names::nn_module(graph.name())),
            steps: (1..=iterations)
                .map(|k| intern(&mut sink, || names::profiler_step(k)))
                .collect(),
        };
        let loss_node = graph.nodes().len() - 1;
        let saved_extra = vec![Vec::new(); graph.nodes().len()];
        Engine {
            graph,
            backend,
            optimizer,
            zero_grad_pos,
            iterations,
            precision,
            param_specs,
            batch,
            seq,
            arena,
            sink,
            clock: 0,
            names: run_names,
            plans,
            node_handle,
            handles,
            fwd_uses_template,
            param_addrs: vec![None; graph.params().len()],
            param_grads: vec![None; graph.params().len()],
            state_addrs: vec![Vec::new(); graph.params().len()],
            saved_extra,
            batch_tensors: Vec::new(),
            states_initialized: false,
            loss_node,
            ops_executed: 0,
        }
    }

    /// Virtual time elapsed so far.
    #[must_use]
    pub fn clock_us(&self) -> u64 {
        self.clock
    }

    /// Consumes the engine, returning arena and sink for inspection.
    #[must_use]
    pub fn into_parts(self) -> (A, S) {
        (self.arena, self.sink)
    }

    fn apply_precision(&self, spec: TensorSpec) -> TensorSpec {
        match self.precision {
            Precision::F32 => spec,
            Precision::F16 if spec.dtype == DType::F32 => spec.with_dtype(DType::F16),
            Precision::F16 => spec,
        }
    }

    fn tick(&mut self, us: u64) {
        self.clock += us;
        self.arena.advance_clock(self.clock);
    }

    fn alloc(&mut self, bytes: usize) -> Result<u64, RunError> {
        let addr = self.arena.alloc(self.clock, bytes).map_err(RunError::Oom)?;
        self.sink
            .mem_alloc(self.clock, addr, bytes, self.arena.device_id());
        Ok(addr)
    }

    fn free(&mut self, addr: u64, bytes: usize) {
        self.arena.free(self.clock, addr);
        self.sink
            .mem_free(self.clock, addr, bytes, self.arena.device_id());
    }

    /// Frees a handle's data if nothing references it any more.
    fn try_free_data(&mut self, h: usize) {
        let handle = &self.handles[h];
        if handle.fwd_uses == 0
            && handle.saved_refs == 0
            && !handle.is_batch
            && handle.addr.is_some()
            && handle.alloc_node != self.loss_node
        {
            let addr = self.handles[h].addr.take().expect("checked above");
            let bytes = self.handles[h].bytes;
            self.free(addr, bytes);
        }
    }

    /// Runs the whole job.
    ///
    /// # Errors
    /// Returns [`RunError::Oom`] when the arena's device is exhausted; the
    /// engine state is then mid-iteration, exactly like a crashed job.
    pub fn run(&mut self) -> Result<(), RunError> {
        self.load_model()?;
        for k in 1..=self.iterations {
            self.iteration(k)?;
        }
        Ok(())
    }

    /// `model.to(device)` + optimizer construction: materializes parameters
    /// and buffers; Adagrad also materializes its accumulators here.
    fn load_model(&mut self) -> Result<(), RunError> {
        let t0 = self.clock;
        for i in 0..self.graph.params().len() {
            let bytes = self.param_specs[i].size_bytes();
            let addr = self.alloc(bytes)?;
            self.param_addrs[i] = Some(addr);
            self.tick(1 + bytes as u64 / 20_000);
        }
        if self.optimizer.eager_init() {
            self.init_optimizer_states()?;
        }
        let dur = self.clock - t0;
        self.sink.span(
            EventCategory::UserAnnotation,
            self.names.model_to_device,
            t0,
            dur.max(1),
        );
        Ok(())
    }

    fn init_optimizer_states(&mut self) -> Result<(), RunError> {
        for i in 0..self.graph.params().len() {
            let p = &self.graph.params()[i];
            if !p.trainable {
                continue;
            }
            let specs = self.optimizer.state_specs(&self.param_specs[i]);
            for spec in specs {
                let addr = self.alloc(spec.size_bytes())?;
                self.state_addrs[i].push(addr);
                self.tick(1);
            }
        }
        self.states_initialized = true;
        Ok(())
    }

    fn iteration(&mut self, k: u32) -> Result<(), RunError> {
        let iter_start = self.clock;
        self.dataload()?;
        if self.zero_grad_pos == ZeroGradPos::IterStart {
            self.zero_grad();
        }
        self.forward()?;
        if self.zero_grad_pos == ZeroGradPos::BeforeBackward {
            self.zero_grad();
        }
        self.backward()?;
        self.optimizer_step(k)?;
        self.script_side_work()?;
        let dur = self.clock - iter_start;
        self.sink.span(
            EventCategory::UserAnnotation,
            self.names.steps[k as usize - 1],
            iter_start,
            dur.max(1),
        );
        self.assert_iteration_clean();
        Ok(())
    }

    /// The profiler's own host-side ring buffers: `torch.profiler` grows
    /// its event buffers *during* the profiled run, producing CPU memory
    /// events between operator windows that have no GPU counterpart.
    /// These persistent script-level blocks are live at the peak — exactly
    /// what the Analyzer's operator-centric filter must drop.
    fn profiler_bookkeeping(&mut self) -> Result<(), RunError> {
        self.ops_executed += 1;
        if self.backend == BackendKind::Cpu && self.ops_executed % 32 == 1 {
            // One ring-buffer chunk; the profiler never frees them.
            let _ = self.alloc(1 << 20)?;
            self.tick(1);
        }
        Ok(())
    }

    /// Host-side script work after the step: metric extraction
    /// (`logits.argmax(...).cpu()`) and logging buffers. These
    /// allocations happen in Python, outside any operator window, and only
    /// on the profiling (CPU) backend — the GPU run sees none of them.
    /// They are exactly the script-level blocks the Analyzer's
    /// operator-centric filter must drop (paper §3.2).
    fn script_side_work(&mut self) -> Result<(), RunError> {
        if self.backend != BackendKind::Cpu {
            return Ok(());
        }
        // Prediction indices the size of the target tensor.
        let preds = self
            .graph
            .input_template()
            .target_spec(self.batch, self.seq)
            .size_bytes();
        let preds_addr = self.alloc(preds)?;
        self.tick(3);
        // A log/metrics formatting buffer.
        let log_bytes = 256 * 1024;
        let log_addr = self.alloc(log_bytes)?;
        self.tick(5);
        self.free(preds_addr, preds);
        self.free(log_addr, log_bytes);
        self.tick(2);
        Ok(())
    }

    fn dataload(&mut self) -> Result<(), RunError> {
        let t0 = self.clock;
        let mut new_batch = Vec::new();
        let mut specs: Vec<TensorSpec> = self
            .graph
            .input_specs(self.batch, self.seq)
            .into_iter()
            .map(|s| self.apply_precision(s))
            .collect();
        specs.push(
            self.graph
                .input_template()
                .target_spec(self.batch, self.seq),
        );
        for spec in &specs {
            let addr = self.alloc(spec.size_bytes())?;
            new_batch.push((addr, spec.size_bytes()));
            self.tick(1 + spec.size_bytes() as u64 / 50_000);
        }
        // The previous batch dies once the loop variable is rebound.
        let old = std::mem::take(&mut self.batch_tensors);
        for (addr, bytes) in old {
            self.free(addr, bytes);
        }
        // Bind input handles to the fresh batch tensors.
        let mut slot = 0;
        for (i, node) in self.graph.nodes().iter().enumerate() {
            if node.is_input() {
                let h = self.node_handle[i];
                self.handles[h].addr = Some(new_batch[slot].0);
                slot += 1;
            }
        }
        self.batch_tensors = new_batch;
        self.tick(20);
        let dur = self.clock - t0;
        self.sink.span(
            EventCategory::UserAnnotation,
            self.names.dataloader_next,
            t0,
            dur.max(1),
        );
        Ok(())
    }

    fn zero_grad(&mut self) {
        let t0 = self.clock;
        self.tick(2);
        for i in 0..self.param_grads.len() {
            if let Some(addr) = self.param_grads[i].take() {
                let bytes = self.param_specs[i].size_bytes();
                self.free(addr, bytes);
                self.tick(1);
            }
        }
        self.tick(2);
        let dur = self.clock - t0;
        self.sink.span(
            EventCategory::UserAnnotation,
            self.names.zero_grad,
            t0,
            dur.max(1),
        );
    }

    fn forward(&mut self) -> Result<(), RunError> {
        let fwd_start = self.clock;
        // Reset per-iteration forward-use counters.
        for (h, uses) in self.fwd_uses_template.iter().enumerate() {
            self.handles[h].fwd_uses = *uses;
        }
        let graph = self.graph;
        let mut component_open: Option<(NameId, u64)> = None;
        for (i, node) in graph.nodes().iter().enumerate() {
            // Component (python_function) span bookkeeping.
            let comp = self.plans[i].component;
            let is_input = node.is_input();
            match component_open {
                Some((open, start)) if Some(open) != comp => {
                    self.close_component(open, start);
                    component_open = comp.filter(|_| !is_input).map(|c| (c, self.clock));
                }
                None if !is_input => {
                    component_open = comp.map(|c| (c, self.clock));
                }
                _ => {}
            }
            if is_input {
                continue;
            }
            self.execute_forward_node(i)?;
        }
        if let Some((name, start)) = component_open {
            self.close_component(name, start);
        }
        let dur = self.clock - fwd_start;
        self.sink.span(
            EventCategory::PythonFunction,
            self.names.model,
            fwd_start,
            dur.max(1),
        );
        Ok(())
    }

    fn close_component(&mut self, name: NameId, start: u64) {
        let dur = self.clock - start;
        self.sink
            .span(EventCategory::PythonFunction, name, start, dur.max(1));
    }

    fn execute_forward_node(&mut self, i: usize) -> Result<(), RunError> {
        self.profiler_bookkeeping()?;
        let graph = self.graph;
        let node = &graph.nodes()[i];
        let op = &node.op;
        let t0 = self.clock;
        let (dur, ws) = (self.plans[i].dur, self.plans[i].fwd_ws);

        // Output materialization.
        let h = self.node_handle[i];
        if !op.is_view() && !is_inplace(op) {
            let bytes = self.handles[h].bytes;
            let addr = self.alloc(bytes)?;
            self.handles[h].addr = Some(addr);
        }
        // Transient workspace.
        let ws_addr = if ws > 0 { Some(self.alloc(ws)?) } else { None };
        // Saved-for-backward bookkeeping.
        for &idx in &self.plans[i].saved.save_inputs {
            let ih = self.node_handle[node.inputs[idx].index()];
            self.handles[ih].saved_refs += 1;
        }
        if self.plans[i].saved.save_output {
            self.handles[h].saved_refs += 1;
        }
        for k in 0..self.plans[i].saved.extra.len() {
            let bytes = self.plans[i].saved.extra[k].1;
            let addr = self.alloc(bytes)?;
            self.saved_extra[i].push((bytes, addr));
            self.tick(1);
        }

        // Compute.
        let elapsed = self.clock - t0;
        if dur > elapsed + 1 {
            self.tick(dur - elapsed - 1);
        }
        if let Some(addr) = ws_addr {
            self.free(addr, ws);
        }
        self.tick(1);
        let total = self.clock - t0;
        self.sink
            .span_seq(self.plans[i].fwd_name, t0, total, i as u64);

        // Release inputs whose last use this was.
        for id in &node.inputs {
            let ih = self.node_handle[id.index()];
            self.handles[ih].fwd_uses = self.handles[ih].fwd_uses.saturating_sub(1);
        }
        for id in &node.inputs {
            self.try_free_data(self.node_handle[id.index()]);
        }
        Ok(())
    }

    fn backward(&mut self) -> Result<(), RunError> {
        let t0b = self.clock;
        // Seed gradient on the loss scalar.
        let loss_h = self.node_handle[self.loss_node];
        let seed = self.alloc(self.handles[loss_h].bytes.max(4))?;
        self.handles[loss_h].grad_addr = Some(seed);
        self.tick(2);

        for i in (0..self.graph.nodes().len()).rev() {
            let node = &self.graph.nodes()[i];
            if node.is_input() || node.op.is_view() {
                continue;
            }
            self.execute_backward_node(i)?;
        }
        // The loss tensor itself dies after backward.
        let loss_h = self.node_handle[self.loss_node];
        if let Some(addr) = self.handles[loss_h].addr.take() {
            let bytes = self.handles[loss_h].bytes;
            self.free(addr, bytes);
        }
        let dur = self.clock - t0b;
        self.sink.span(
            EventCategory::UserAnnotation,
            self.names.backward_call,
            t0b,
            dur.max(1),
        );
        Ok(())
    }

    fn execute_backward_node(&mut self, i: usize) -> Result<(), RunError> {
        self.profiler_bookkeeping()?;
        let graph = self.graph;
        let node = &graph.nodes()[i];
        let op = &node.op;
        let t0 = self.clock;
        // Backward kernels cost roughly 2x forward.
        let (dur, ws) = (2 * self.plans[i].dur, self.plans[i].bwd_ws);

        // Allocate gradient buffers for differentiable inputs (first
        // contribution allocates; later consumers accumulate in place).
        if !is_inplace(op) && is_differentiable(op) {
            for id in &node.inputs {
                let ih = self.node_handle[id.index()];
                let handle = &self.handles[ih];
                if handle.wants_grad && handle.grad_addr.is_none() {
                    let bytes = handle.bytes;
                    let addr = self.alloc(bytes)?;
                    self.handles[ih].grad_addr = Some(addr);
                    self.tick(1);
                }
            }
        }
        // Transient backward workspace.
        let ws_addr = if ws > 0 { Some(self.alloc(ws)?) } else { None };

        let elapsed = self.clock - t0;
        if dur > elapsed + 1 {
            self.tick(dur - elapsed - 1);
        }
        if let Some(addr) = ws_addr {
            self.free(addr, ws);
        }

        // Release saved tensors and extra buffers.
        for k in 0..self.plans[i].saved.save_inputs.len() {
            let ih = self.node_handle[node.inputs[self.plans[i].saved.save_inputs[k]].index()];
            self.handles[ih].saved_refs -= 1;
            self.try_free_data(ih);
        }
        let h = self.node_handle[i];
        if self.plans[i].saved.save_output {
            self.handles[h].saved_refs -= 1;
            self.try_free_data(h);
        }
        for k in 0..self.saved_extra[i].len() {
            let (bytes, addr) = self.saved_extra[i][k];
            self.free(addr, bytes);
        }
        self.saved_extra[i].clear();
        self.tick(1);
        let total = self.clock - t0;
        self.sink
            .span_seq(self.plans[i].bwd_name, t0, total, i as u64);

        // The output gradient is consumed by this node's backward: free it
        // if this node materialized the handle (views/in-place share).
        if self.handles[h].alloc_node == i {
            if let Some(addr) = self.handles[h].grad_addr.take() {
                let bytes = self.handles[h].bytes;
                self.free(addr, bytes);
            }
        }

        // AccumulateGrad: parameter gradients materialize on first touch.
        let ta = self.clock;
        let mut accumulated = false;
        for p in node.params.iter().map(|p| p.index()) {
            if !graph.params()[p].trainable {
                continue;
            }
            accumulated = true;
            if self.param_grads[p].is_none() {
                let bytes = self.param_specs[p].size_bytes();
                let addr = self.alloc(bytes)?;
                self.param_grads[p] = Some(addr);
            }
            self.tick(1);
        }
        if accumulated {
            self.tick(1);
            let dur = self.clock - ta;
            self.sink.span(
                EventCategory::CpuOp,
                self.names.accumulate_grad,
                ta,
                dur.max(1),
            );
        }
        Ok(())
    }

    fn optimizer_step(&mut self, _k: u32) -> Result<(), RunError> {
        let t0 = self.clock;
        if !self.states_initialized && self.optimizer.is_stateful() {
            self.init_optimizer_states()?;
        }
        self.states_initialized = true;
        for i in 0..self.graph.params().len() {
            if !self.graph.params()[i].trainable {
                continue;
            }
            let scratch = self.optimizer.step_scratch_bytes(&self.param_specs[i]);
            if scratch > 0 {
                let addr = self.alloc(scratch)?;
                self.tick(1 + self.param_specs[i].numel() as u64 / 100_000);
                self.free(addr, scratch);
            }
            self.tick(1);
        }
        let dur = self.clock - t0;
        self.sink.span(
            EventCategory::UserAnnotation,
            self.names.optimizer_step,
            t0,
            dur.max(1),
        );
        Ok(())
    }

    /// Structural check at iteration end: every activation and activation
    /// gradient must be gone; only parameters, optimizer state, parameter
    /// gradients and the live batch may remain.
    fn assert_iteration_clean(&self) {
        for (idx, h) in self.handles.iter().enumerate() {
            if h.is_batch {
                continue;
            }
            debug_assert!(
                h.addr.is_none(),
                "activation handle {idx} (node {}) leaked data",
                h.alloc_node
            );
            debug_assert!(
                h.grad_addr.is_none(),
                "activation handle {idx} (node {}) leaked gradient",
                h.alloc_node
            );
            debug_assert_eq!(h.saved_refs, 0, "handle {idx} leaked saved refs");
        }
        for (i, extras) in self.saved_extra.iter().enumerate() {
            debug_assert!(extras.is_empty(), "node {i} leaked saved buffers");
        }
    }
}
