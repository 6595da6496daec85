//! Job specifications and run entry points.

use crate::arena::{CpuHeap, GpuArena, GroundTruth};
use crate::backend::BackendKind;
use crate::executor::{Engine, RunError};
use crate::profiler::{NullSink, Profiler, Sink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use xmem_alloc::{AllocatorConfig, CachingAllocator, DeviceAllocator};
use xmem_graph::Graph;
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_trace::Trace;

/// Placement of the `optimizer.zero_grad()` call in the training loop —
/// the code-structure variation of paper Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ZeroGradPos {
    /// POS0: immediately before `loss.backward()` — gradients from the
    /// previous iteration stay alive through dataload and forward.
    #[default]
    BeforeBackward,
    /// POS1: at the start of the iteration — gradients die early.
    IterStart,
}

impl ZeroGradPos {
    /// Paper label ("POS0"/"POS1").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ZeroGradPos::BeforeBackward => "POS0",
            ZeroGradPos::IterStart => "POS1",
        }
    }
}

/// A GPU model with its memory capacity and framework overhead — the
/// evaluation devices of paper §4.1.3.
///
/// Serialize-only: the `&'static str` marketing name has no owned
/// deserialized form; records that need to round-trip store the name as a
/// `String` (see `xmem_eval::ConfigKey`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GpuDevice {
    /// Marketing name.
    pub name: &'static str,
    /// Total memory capacity in bytes (`M^max` in the paper's notation).
    pub capacity: u64,
    /// Mean framework + CUDA-context overhead in bytes (`M^fm`).
    pub framework_bytes: u64,
    /// Memory used by other tenants (`M^init`); 0 for dedicated GPUs.
    pub init_bytes: u64,
}

const GIB: u64 = 1 << 30;
const MIB64: u64 = 1 << 20;

impl GpuDevice {
    /// GeForce RTX 3060 (12 GiB) — the ANOVA device.
    #[must_use]
    pub fn rtx3060() -> Self {
        GpuDevice {
            name: "GeForce RTX 3060",
            capacity: 12 * GIB,
            framework_bytes: 529 * MIB64,
            init_bytes: 0,
        }
    }

    /// GeForce RTX 4060 (8 GiB) — the second Monte Carlo device.
    #[must_use]
    pub fn rtx4060() -> Self {
        GpuDevice {
            name: "GeForce RTX 4060",
            capacity: 8 * GIB,
            framework_bytes: 521 * MIB64,
            init_bytes: 0,
        }
    }

    /// NVIDIA A100 40 GB — the RQ5 device.
    #[must_use]
    pub fn a100_40g() -> Self {
        GpuDevice {
            name: "NVIDIA A100-SXM4-40GB",
            capacity: 40 * GIB,
            framework_bytes: 571 * MIB64,
            init_bytes: 0,
        }
    }

    /// Capacity available to the job after framework and tenant overheads.
    #[must_use]
    pub fn job_capacity(&self) -> u64 {
        self.capacity - self.framework_bytes - self.init_bytes
    }
}

/// Training numeric precision (paper §6.3): xMem estimates FP16 jobs the
/// same way — the tensor set is identical, only element widths change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Precision {
    /// 32-bit floats (the evaluation default).
    #[default]
    F32,
    /// Pure 16-bit float training (parameters, activations, gradients and
    /// optimizer state in half precision).
    F16,
}

impl Precision {
    /// Short label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "fp32",
            Precision::F16 => "fp16",
        }
    }
}

/// A training-job configuration — the paper's test configuration `j`
/// (model, optimizer, batch size, `zero_grad` placement) plus run knobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainJobSpec {
    /// Model under training.
    pub model: ModelId,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Batch size.
    pub batch: usize,
    /// Sequence length for token models (0 = model default).
    pub seq: usize,
    /// `zero_grad` placement.
    pub zero_grad_pos: ZeroGradPos,
    /// Numeric precision.
    #[serde(default)]
    pub precision: Precision,
    /// Training iterations to execute (profiling default: 3).
    pub iterations: u32,
    /// Seed for run-to-run jitter (framework overhead, sampler phase).
    pub seed: u64,
}

impl TrainJobSpec {
    /// A spec with paper defaults: 3 iterations, default sequence length,
    /// `zero_grad` before backward.
    #[must_use]
    pub fn new(model: ModelId, optimizer: OptimizerKind, batch: usize) -> Self {
        TrainJobSpec {
            model,
            optimizer,
            batch,
            seq: 0,
            zero_grad_pos: ZeroGradPos::BeforeBackward,
            precision: Precision::default(),
            iterations: 3,
            seed: 0,
        }
    }

    /// Sets the iteration count.
    #[must_use]
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the `zero_grad` placement.
    #[must_use]
    pub fn with_zero_grad(mut self, pos: ZeroGradPos) -> Self {
        self.zero_grad_pos = pos;
        self
    }

    /// Sets the jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the numeric precision.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// A human-readable configuration label.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}+{}+b{}+{}",
            self.model.info().name,
            self.optimizer.name(),
            self.batch,
            self.zero_grad_pos.label()
        );
        if self.precision != Precision::F32 {
            label.push('+');
            label.push_str(self.precision.label());
        }
        label
    }
}

/// The graph of `model`. A graph is a pure function of its [`ModelId`], so
/// every profiling and ground-truth run of a model shares one, built on
/// first use and kept for the life of the process (at most one per model).
fn shared_graph(model: ModelId) -> &'static Graph {
    static GRAPHS: [OnceLock<Graph>; 25] = [const { OnceLock::new() }; 25];
    GRAPHS[model as usize].get_or_init(|| model.build())
}

/// Runs the first iterations of the job on the CPU backend (paper §3.1:
/// the job "does not need to proceed further" than these iterations),
/// reporting its execution structure to `sink`, which is returned.
///
/// The engine reports each memory instant as it happens, in
/// nondecreasing time, and each span when it closes, after the events it
/// encloses.
///
/// # Panics
/// Panics only on internal engine invariants; CPU runs cannot OOM.
#[must_use]
pub fn profile_into<S: Sink>(spec: &TrainJobSpec, sink: S) -> S {
    let mut engine = Engine::new(
        shared_graph(spec.model),
        BackendKind::Cpu,
        spec.optimizer,
        spec.zero_grad_pos,
        spec.precision,
        spec.iterations,
        spec.batch,
        spec.seq,
        CpuHeap::new(),
        sink,
    );
    engine.run().expect("cpu profiling cannot oom");
    engine.into_parts().1
}

/// Profiles the job on the CPU backend into the PyTorch-profiler-style
/// trace xMem consumes: [`profile_into`] a [`Profiler`].
#[must_use]
pub fn profile_on_cpu(spec: &TrainJobSpec) -> Trace {
    profile_into(spec, Profiler::new(&spec.label())).into_trace()
}

/// Runs the job on the simulated GPU, producing ground truth the way the
/// paper measures it (NVML sampling at 1 ms, §4.1.1). Per-run jitter
/// (framework-overhead variance, sampler phase) is derived from
/// `spec.seed`, so repeated runs of one configuration differ slightly —
/// like real hardware.
///
/// `memory_cap` overrides the usable capacity (the second validation round
/// caps the job at `M_init + M_fm + estimate`); `record` enables
/// curve/snapshot capture for the figure benches.
#[must_use]
pub fn run_on_gpu(
    spec: &TrainJobSpec,
    device: &GpuDevice,
    memory_cap: Option<u64>,
    record: bool,
) -> GroundTruth {
    let graph = shared_graph(spec.model);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
    // CUDA context size varies a little run to run (kernel modules,
    // fragmentation of the context heap).
    let fm_jitter: i64 = rng.gen_range(-2 * MIB64 as i64..=2 * MIB64 as i64);
    let framework = (device.framework_bytes as i64 + fm_jitter) as u64;
    let capacity = memory_cap.unwrap_or(device.capacity);
    let sampler_offset = rng.gen_range(0..1000);

    let device_alloc = DeviceAllocator::new(
        capacity,
        DeviceAllocator::DEFAULT_PAGE,
        framework + device.init_bytes,
    );
    let caching = CachingAllocator::new(AllocatorConfig::pytorch_defaults(), device_alloc);
    let arena = GpuArena::new(caching, sampler_offset, record);

    let mut engine = Engine::new(
        graph,
        BackendKind::Gpu,
        spec.optimizer,
        spec.zero_grad_pos,
        spec.precision,
        spec.iterations,
        spec.batch,
        spec.seq,
        arena,
        NullSink,
    );
    let outcome = engine.run();
    let (arena, _) = engine.into_parts();
    match outcome {
        Ok(()) => arena.into_ground_truth(None, record),
        Err(RunError::Oom(e)) => arena.into_ground_truth(Some(e), record),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_trace::{names, EventCategory};

    fn small_spec() -> TrainJobSpec {
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2)
    }

    #[test]
    fn shared_graphs_are_one_per_model_and_match_a_fresh_build() {
        for (i, model) in ModelId::all().into_iter().enumerate() {
            assert_eq!(model as usize, i, "graph slots follow ModelId::all order");
            let shared = shared_graph(model);
            assert!(std::ptr::eq(shared, shared_graph(model)));
            assert_eq!(format!("{shared:?}"), format!("{:?}", model.build()));
        }
    }

    #[test]
    fn cpu_profile_contains_all_four_categories() {
        let trace = profile_on_cpu(&small_spec());
        for cat in [
            EventCategory::PythonFunction,
            EventCategory::UserAnnotation,
            EventCategory::CpuOp,
            EventCategory::CpuInstantEvent,
        ] {
            assert!(
                trace.of_category(cat).count() > 0,
                "missing category {cat:?}"
            );
        }
        assert_eq!(trace.iteration_windows().len(), 2);
    }

    #[test]
    fn cpu_profile_has_optimizer_annotations() {
        let trace = profile_on_cpu(&small_spec());
        assert!(trace
            .of_category(EventCategory::UserAnnotation)
            .any(|e| names::is_optimizer_step(trace.name_of(e))));
        assert!(trace
            .of_category(EventCategory::UserAnnotation)
            .any(|e| names::is_optimizer_zero_grad(trace.name_of(e))));
        assert!(trace
            .of_category(EventCategory::UserAnnotation)
            .any(|e| trace.name_of(e) == names::MODEL_TO_DEVICE));
    }

    #[test]
    fn memory_instants_balance_by_address() {
        let trace = profile_on_cpu(&small_spec());
        use std::collections::HashMap;
        let mut live: HashMap<u64, i64> = HashMap::new();
        for e in trace.memory_instants() {
            let addr = e.args.addr().unwrap();
            let bytes = e.args.bytes().unwrap();
            let entry = live.entry(addr).or_insert(0);
            if bytes > 0 {
                assert_eq!(*entry, 0, "allocation into a live address");
                *entry = bytes;
            } else {
                assert_eq!(*entry, -bytes, "free size must match allocation");
                *entry = 0;
            }
        }
    }

    #[test]
    fn gpu_run_produces_plausible_peak() {
        let gt = run_on_gpu(&small_spec(), &GpuDevice::rtx3060(), None, false);
        assert!(!gt.oom);
        // At least parameters + framework.
        assert!(gt.peak_nvml > 520 * MIB64);
        assert!(gt.peak_nvml < 12 * GIB);
        assert!(gt.peak_exact >= gt.peak_nvml);
    }

    #[test]
    fn gpu_run_oom_on_tiny_cap() {
        let gt = run_on_gpu(
            &small_spec(),
            &GpuDevice::rtx3060(),
            Some(545 * MIB64),
            false,
        );
        assert!(gt.oom);
        assert!(gt.oom_detail.is_some());
    }

    #[test]
    fn repeats_jitter_but_modestly() {
        let a = run_on_gpu(
            &small_spec().with_seed(1),
            &GpuDevice::rtx3060(),
            None,
            false,
        );
        let b = run_on_gpu(
            &small_spec().with_seed(2),
            &GpuDevice::rtx3060(),
            None,
            false,
        );
        assert_ne!(a.peak_nvml, b.peak_nvml, "jitter distinguishes repeats");
        let diff = a.peak_nvml.abs_diff(b.peak_nvml) as f64;
        assert!(diff / (a.peak_nvml as f64) < 0.05, "jitter stays small");
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = run_on_gpu(
            &small_spec().with_seed(7),
            &GpuDevice::rtx3060(),
            None,
            false,
        );
        let b = run_on_gpu(
            &small_spec().with_seed(7),
            &GpuDevice::rtx3060(),
            None,
            false,
        );
        assert_eq!(a.peak_nvml, b.peak_nvml);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn fp16_roughly_halves_the_footprint() {
        let f32_spec = TrainJobSpec::new(ModelId::Gpt2, OptimizerKind::Adam, 16);
        let f16_spec = f32_spec.clone().with_precision(Precision::F16);
        let device = GpuDevice::rtx3060();
        let a = run_on_gpu(&f32_spec, &device, None, false);
        let b = run_on_gpu(&f16_spec, &device, None, false);
        assert!(!a.oom && !b.oom);
        let job_a = a.peak_nvml - device.framework_bytes;
        let job_b = b.peak_nvml - device.framework_bytes;
        let ratio = job_b as f64 / job_a as f64;
        assert!(
            (0.40..0.65).contains(&ratio),
            "fp16/fp32 job-memory ratio {ratio:.3}"
        );
    }

    #[test]
    fn fp16_spec_label_is_tagged() {
        let spec =
            TrainJobSpec::new(ModelId::Gpt2, OptimizerKind::Adam, 4).with_precision(Precision::F16);
        assert!(spec.label().ends_with("+fp16"));
        let spec32 = TrainJobSpec::new(ModelId::Gpt2, OptimizerKind::Adam, 4);
        assert!(!spec32.label().contains("fp"));
    }

    #[test]
    fn zero_grad_placement_changes_gpu_peak() {
        let base =
            TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 8).with_iterations(3);
        let pos0 = run_on_gpu(&base, &GpuDevice::rtx3060(), None, false);
        let pos1 = run_on_gpu(
            &base.clone().with_zero_grad(ZeroGradPos::IterStart),
            &GpuDevice::rtx3060(),
            None,
            false,
        );
        assert_ne!(
            pos0.peak_exact, pos1.peak_exact,
            "POS0 vs POS1 must differ (paper Fig. 1)"
        );
    }
}
