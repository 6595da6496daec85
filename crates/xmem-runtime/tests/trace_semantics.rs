//! Trace-level semantics of the training-loop engine: the lifecycle
//! orderings xMem's Orchestrator depends on must actually hold in the
//! emitted profiler traces.

use std::collections::HashMap;
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{
    profile_into, profile_on_cpu, Precision, Profiler, Sink, TrainJobSpec, ZeroGradPos,
};
use xmem_trace::{names, EventCategory, NameId, Trace};

fn spec(model: ModelId, opt: OptimizerKind) -> TrainJobSpec {
    TrainJobSpec::new(model, opt, 4).with_iterations(3)
}

/// Sum of block sizes allocated within `[start, end)` and never freed.
fn persistent_bytes_in(trace: &Trace, start: u64, end: u64) -> u64 {
    let mut open: HashMap<u64, Vec<(u64, u64)>> = HashMap::new(); // addr -> (ts, size)
    let mut freed: Vec<(u64, u64)> = Vec::new();
    for e in trace.memory_instants() {
        let addr = e.args.addr().unwrap();
        let bytes = e.args.bytes().unwrap();
        if bytes > 0 {
            open.entry(addr).or_default().push((e.ts_us, bytes as u64));
        } else if let Some(stack) = open.get_mut(&addr) {
            if let Some(b) = stack.pop() {
                freed.push(b);
            }
        }
    }
    open.values()
        .flatten()
        .filter(|(ts, _)| (start..end).contains(ts))
        .map(|(_, b)| b)
        .sum()
}

#[test]
fn adagrad_state_is_eager_adam_state_is_lazy() {
    // Adagrad materializes its accumulator at optimizer construction
    // (inside the model-load window); Adam's state appears in the first
    // optimizer.step() window.
    for (opt, eager) in [(OptimizerKind::Adagrad, true), (OptimizerKind::Adam, false)] {
        let trace = profile_on_cpu(&spec(ModelId::MobileNetV3Small, opt));
        let load = trace
            .of_category(EventCategory::UserAnnotation)
            .find(|e| trace.name_of(e) == names::MODEL_TO_DEVICE)
            .expect("model load window");
        let persistent_in_load = persistent_bytes_in(&trace, load.ts_us, load.end_us());
        let graph = ModelId::MobileNetV3Small.build();
        let param_bytes = graph.param_bytes();
        if eager {
            assert!(
                persistent_in_load > param_bytes,
                "{opt}: state must be allocated during load"
            );
        } else {
            assert_eq!(
                persistent_in_load, param_bytes,
                "{opt}: only params during load"
            );
        }
    }
}

#[test]
fn pos0_zero_grad_sits_between_forward_and_backward() {
    let trace = profile_on_cpu(&spec(ModelId::DistilGpt2, OptimizerKind::AdamW));
    let zero_grads: Vec<u64> = trace
        .of_category(EventCategory::UserAnnotation)
        .filter(|e| names::is_optimizer_zero_grad(trace.name_of(e)))
        .map(|e| e.ts_us)
        .collect();
    let backwards: Vec<u64> = trace
        .of_category(EventCategory::UserAnnotation)
        .filter(|e| trace.name_of(e) == names::BACKWARD_CALL)
        .map(|e| e.ts_us)
        .collect();
    assert_eq!(zero_grads.len(), 3);
    assert_eq!(backwards.len(), 3);
    for (zg, bw) in zero_grads.iter().zip(&backwards) {
        assert!(zg < bw, "POS0: zero_grad precedes backward");
    }
    // And each zero_grad comes after the iteration's dataloader fetch.
    let dataloads: Vec<u64> = trace
        .of_category(EventCategory::UserAnnotation)
        .filter(|e| trace.name_of(e) == names::DATALOADER_NEXT)
        .map(|e| e.ts_us)
        .collect();
    for (dl, zg) in dataloads.iter().zip(&zero_grads) {
        assert!(dl < zg, "POS0: zero_grad after dataload");
    }
}

#[test]
fn pos1_zero_grad_precedes_the_forward_pass() {
    let trace = profile_on_cpu(
        &spec(ModelId::DistilGpt2, OptimizerKind::AdamW).with_zero_grad(ZeroGradPos::IterStart),
    );
    let zero_grads: Vec<u64> = trace
        .of_category(EventCategory::UserAnnotation)
        .filter(|e| names::is_optimizer_zero_grad(trace.name_of(e)))
        .map(|e| e.ts_us)
        .collect();
    // The model-forward python_function span starts after zero_grad in
    // every iteration.
    let forwards: Vec<u64> = trace
        .of_category(EventCategory::PythonFunction)
        .filter(|e| trace.name_of(e) == names::nn_module("distilgpt2"))
        .map(|e| e.ts_us)
        .collect();
    assert_eq!(forwards.len(), 3);
    for (zg, fw) in zero_grads.iter().zip(&forwards) {
        assert!(zg < fw, "POS1: zero_grad at iteration start");
    }
}

#[test]
fn inplace_relu_allocations_never_outlive_the_op() {
    // ResNet uses in-place ReLU: the op materializes no output tensor.
    // Its window may hold a transient CPU scratchpad, but every byte
    // allocated inside a relu window must be freed inside it.
    let trace = profile_on_cpu(&spec(
        ModelId::ResNet101,
        OptimizerKind::Sgd { momentum: true },
    ));
    let relu_windows: Vec<(u64, u64)> = trace
        .of_category(EventCategory::CpuOp)
        .filter(|e| trace.name_of(e) == "aten::relu")
        .map(|e| (e.ts_us, e.end_us()))
        .collect();
    assert!(!relu_windows.is_empty());
    let mut checked = 0;
    for &(s, t) in &relu_windows {
        let mut live: HashMap<u64, i64> = HashMap::new();
        for e in trace
            .memory_instants()
            .filter(|e| (s..t).contains(&e.ts_us))
        {
            *live.entry(e.args.addr().unwrap()).or_insert(0) += e.args.bytes().unwrap();
            checked += 1;
        }
        assert!(
            live.values().all(|&v| v <= 0),
            "relu window [{s},{t}) leaked an allocation"
        );
    }
    assert!(checked > 0, "scratchpads do appear inside relu windows");
}

#[test]
fn t5_dataloader_provides_three_tensors() {
    // Encoder tokens, decoder tokens and targets.
    let trace = profile_on_cpu(&spec(ModelId::T5Small, OptimizerKind::Adafactor));
    let first_load = trace
        .of_category(EventCategory::UserAnnotation)
        .find(|e| trace.name_of(e) == names::DATALOADER_NEXT)
        .expect("dataloader window");
    let allocs = trace
        .memory_instants()
        .filter(|e| e.args.bytes().unwrap_or(0) > 0)
        .filter(|e| (first_load.ts_us..first_load.end_us()).contains(&e.ts_us))
        .count();
    assert_eq!(allocs, 3);
}

#[test]
fn fp16_traces_carry_half_sized_parameters() {
    let f32_trace = profile_on_cpu(&spec(ModelId::Gpt2, OptimizerKind::Adam));
    let f16_trace =
        profile_on_cpu(&spec(ModelId::Gpt2, OptimizerKind::Adam).with_precision(Precision::F16));
    let load_bytes = |trace: &Trace| -> u64 {
        let load = trace
            .of_category(EventCategory::UserAnnotation)
            .find(|e| trace.name_of(e) == names::MODEL_TO_DEVICE)
            .expect("model load window");
        trace
            .memory_instants()
            .filter(|e| e.args.bytes().unwrap_or(0) > 0)
            .filter(|e| (load.ts_us..load.end_us()).contains(&e.ts_us))
            .map(|e| e.args.bytes().unwrap() as u64)
            .sum()
    };
    assert_eq!(load_bytes(&f32_trace), 2 * load_bytes(&f16_trace));
}

#[test]
fn every_iteration_has_the_full_annotation_set() {
    let trace = profile_on_cpu(&spec(ModelId::MnasNet, OptimizerKind::RMSprop));
    for name_check in [
        names::DATALOADER_NEXT.to_string(),
        names::BACKWARD_CALL.to_string(),
        names::optimizer_step("RMSprop"),
        names::optimizer_zero_grad("RMSprop"),
    ] {
        let count = trace
            .of_category(EventCategory::UserAnnotation)
            .filter(|e| trace.name_of(e) == name_check)
            .count();
        assert_eq!(count, 3, "{name_check} once per iteration");
    }
}

/// Records every memory instant as `(ts, addr, signed bytes)`, in the
/// order the engine reports them, and the whole run as a `Profiler` would.
struct Instants {
    reported: Vec<(u64, u64, i64)>,
    profiler: Profiler,
}

impl Sink for Instants {
    fn intern(&mut self, name: &str) -> NameId {
        self.profiler.intern(name)
    }
    fn span(&mut self, category: EventCategory, name: NameId, ts_us: u64, dur_us: u64) {
        self.profiler.span(category, name, ts_us, dur_us);
    }
    fn span_seq(&mut self, name: NameId, ts_us: u64, dur_us: u64, seq: u64) {
        self.profiler.span_seq(name, ts_us, dur_us, seq);
    }
    fn mem_alloc(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32) {
        self.reported.push((ts_us, addr, bytes as i64));
        self.profiler.mem_alloc(ts_us, addr, bytes, device);
    }
    fn mem_free(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32) {
        self.reported.push((ts_us, addr, -(bytes as i64)));
        self.profiler.mem_free(ts_us, addr, bytes, device);
    }
}

/// The order an analyzing sink pairs allocations in is the order the
/// engine reports them, while the trace route pairs them in the
/// trace's time order. The two agree because the engine reports memory
/// instants in nondecreasing time, so sorting the trace never moves one.
#[test]
fn memory_instants_are_reported_in_time_order_for_every_model() {
    for model in ModelId::all() {
        for pos in [ZeroGradPos::BeforeBackward, ZeroGradPos::IterStart] {
            let spec = TrainJobSpec::new(model, OptimizerKind::Adam, 1)
                .with_iterations(2)
                .with_zero_grad(pos);
            let sink = profile_into(
                &spec,
                Instants {
                    reported: Vec::new(),
                    profiler: Profiler::new(&spec.label()),
                },
            );
            let label = spec.label();
            assert!(
                sink.reported.windows(2).all(|pair| pair[0].0 <= pair[1].0),
                "{label}: a memory instant went back in time"
            );
            let trace = sink.profiler.into_trace();
            let sorted: Vec<(u64, u64, i64)> = trace
                .memory_instants()
                .map(|e| (e.ts_us, e.args.addr().unwrap(), e.args.bytes().unwrap()))
                .collect();
            assert!(
                sorted == sink.reported,
                "{label}: the sort moved an instant"
            );
        }
    }
}
