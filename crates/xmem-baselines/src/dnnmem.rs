//! DNNMem reproduction (Gao et al., ESEC/FSE 2020), per the published
//! description — the paper's representative of static analysis (§5.1).
//!
//! DNNMem walks the static computation graph: weight tensors, weight
//! gradients, operator outputs with reference-counted liveness, per-op
//! ephemeral (workspace) estimates, a CUDA-context constant, and a
//! framework-level BFC allocator simulation. Faithfully reproduced
//! limitations:
//!
//! * **no optimizer-state modelling** — accurate for SGD, increasingly
//!   wrong for Adam/AdamW (2× parameter bytes missing);
//! * **no auxiliary autograd buffers** — dropout masks, pool indices,
//!   normalization statistics, attention log-sum-exp and the materialized
//!   cross-entropy log-probabilities are absent from a static graph;
//! * **no `zero_grad` placement sensitivity** — gradients are assumed to
//!   die at the iteration boundary (POS1-like), whatever the code does;
//! * **one-level allocator** — the framework BFC is simulated, but not the
//!   device level or the cached-segment reclaim that precedes a real OOM;
//! * **its own CUDA-context constant** instead of the measured framework
//!   overhead.

use crate::traits::{EstimateOutcome, MemoryEstimator};
use xmem_alloc::{AllocatorConfig, BlockHandle, CachingAllocator, DeviceAllocator};
use xmem_graph::Graph;
use xmem_models::ModelId;
use xmem_runtime::{BackendKind, GpuDevice, Phase, TrainJobSpec};

/// The DNNMem estimator.
#[derive(Debug, Clone)]
pub struct DnnMem {
    /// The CUDA-context constant DNNMem adds (their paper's calibration —
    /// close to, but not equal to, the true framework overhead).
    pub cuda_context_bytes: u64,
}

impl Default for DnnMem {
    fn default() -> Self {
        DnnMem {
            cuda_context_bytes: 450 << 20,
        }
    }
}

impl DnnMem {
    /// Creates the estimator with its published-style context constant.
    #[must_use]
    pub fn new() -> Self {
        DnnMem::default()
    }

    /// Static walk: returns the simulated framework-allocator peak for the
    /// job (no context constant added).
    #[must_use]
    pub fn static_peak(&self, graph: &Graph, spec: &TrainJobSpec) -> u64 {
        let inputs = graph.input_specs(spec.batch, spec.seq);
        let shapes = match graph.infer_shapes(&inputs) {
            Ok(s) => s,
            Err(_) => return 0,
        };
        // One-level BFC: unbounded device, no reclaim (never exercised).
        let mut alloc = CachingAllocator::new(
            AllocatorConfig::without_reclaim(),
            DeviceAllocator::unlimited(),
        );

        // Weights are resident. Gradients are NOT pre-allocated: on a
        // static graph each parameter gradient's last consumer is the
        // per-layer optimizer update, so liveness analysis frees it right
        // after its backward node — it cannot know that PyTorch retains
        // `.grad` until `zero_grad()`. This is the systematic
        // underestimation the paper observes, growing with model size
        // (Fig. 9) and with gradient/parameter footprint.
        for p in graph.params() {
            let _ = alloc.alloc(p.spec.size_bytes());
        }
        // Batch tensors.
        let mut batch_addrs = Vec::new();
        for spec_in in &inputs {
            if let Ok(a) = alloc.alloc(spec_in.size_bytes()) {
                batch_addrs.push(a);
            }
        }
        let target = graph.input_template().target_spec(spec.batch, spec.seq);
        if let Ok(a) = alloc.alloc(target.size_bytes()) {
            batch_addrs.push(a);
        }

        // Forward walk: outputs live until their backward node (static
        // liveness over the training graph). DNNMem models cuDNN workspace
        // sizes per operator; it does not know about views or in-place
        // execution, so every operator output is a tensor.
        let mut out_addrs: Vec<Option<BlockHandle>> = vec![None; graph.nodes().len()];
        for (i, node) in graph.nodes().iter().enumerate() {
            if node.is_input() {
                continue;
            }
            let in_specs: Vec<&xmem_graph::TensorSpec> =
                node.inputs.iter().map(|id| &shapes[id.index()]).collect();
            let out_spec = &shapes[i];
            if !node.op.is_view() {
                if let Ok(a) = alloc.alloc(out_spec.size_bytes()) {
                    out_addrs[i] = Some(a);
                }
            }
            let ws =
                BackendKind::Gpu.workspace_bytes(&node.op, &in_specs, out_spec, Phase::Forward);
            if ws > 0 {
                if let Ok(a) = alloc.alloc(ws) {
                    alloc.free(a);
                }
            }
        }
        // Backward walk (reverse): gradient of each activation lives while
        // its producer's backward runs; activations are freed after their
        // backward consumes them.
        let mut grad_addrs: Vec<Option<BlockHandle>> = vec![None; graph.nodes().len()];
        for i in (0..graph.nodes().len()).rev() {
            let node = &graph.nodes()[i];
            if node.is_input() || node.op.is_view() {
                continue;
            }
            let in_specs: Vec<&xmem_graph::TensorSpec> =
                node.inputs.iter().map(|id| &shapes[id.index()]).collect();
            let out_spec = &shapes[i];
            // Gradients of this node's inputs.
            for input in &node.inputs {
                let idx = input.index();
                if grad_addrs[idx].is_none() && shapes[idx].dtype.is_float() {
                    if let Ok(a) = alloc.alloc(shapes[idx].size_bytes()) {
                        grad_addrs[idx] = Some(a);
                    }
                }
            }
            let ws =
                BackendKind::Gpu.workspace_bytes(&node.op, &in_specs, out_spec, Phase::Backward);
            if ws > 0 {
                if let Ok(a) = alloc.alloc(ws) {
                    alloc.free(a);
                }
            }
            // Parameter gradients: live only across this node's backward
            // and its (assumed fused) per-layer update.
            let mut param_grads = Vec::new();
            for pid in &node.params {
                let p = &graph.params()[pid.index()];
                if p.trainable {
                    if let Ok(a) = alloc.alloc(p.spec.size_bytes()) {
                        param_grads.push(a);
                    }
                }
            }
            for a in param_grads {
                alloc.free(a);
            }
            // Consume: free this node's output gradient and its activation.
            if let Some(a) = grad_addrs[i].take() {
                alloc.free(a);
            }
            if let Some(a) = out_addrs[i].take() {
                alloc.free(a);
            }
        }
        for a in batch_addrs {
            alloc.free(a);
        }
        alloc.counters().peak_reserved
    }
}

impl MemoryEstimator for DnnMem {
    fn name(&self) -> &'static str {
        "DNNMem"
    }

    fn supports(&self, _model: ModelId) -> bool {
        true
    }

    fn estimate(&self, spec: &TrainJobSpec, device: &GpuDevice) -> Option<EstimateOutcome> {
        let graph = spec.model.build();
        let peak = self.static_peak(&graph, spec) + self.cuda_context_bytes;
        Some(EstimateOutcome::from_peak(peak, device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_optim::OptimizerKind;

    fn spec(model: ModelId, opt: OptimizerKind, batch: usize) -> TrainJobSpec {
        TrainJobSpec::new(model, opt, batch).with_iterations(3)
    }

    #[test]
    fn estimates_scale_with_batch() {
        let d = GpuDevice::rtx3060();
        let e = DnnMem::new();
        let small = e
            .estimate(&spec(ModelId::ResNet101, OptimizerKind::Adam, 200), &d)
            .unwrap();
        let large = e
            .estimate(&spec(ModelId::ResNet101, OptimizerKind::Adam, 600), &d)
            .unwrap();
        assert!(large.peak_bytes > small.peak_bytes);
    }

    #[test]
    fn blind_to_optimizer_choice() {
        let d = GpuDevice::rtx3060();
        let e = DnnMem::new();
        let sgd = e
            .estimate(
                &spec(ModelId::Gpt2, OptimizerKind::Sgd { momentum: false }, 8),
                &d,
            )
            .unwrap();
        let adam = e
            .estimate(&spec(ModelId::Gpt2, OptimizerKind::Adam, 8), &d)
            .unwrap();
        assert_eq!(
            sgd.peak_bytes, adam.peak_bytes,
            "static analysis cannot see optimizer state"
        );
    }

    #[test]
    fn blind_to_zero_grad_placement() {
        let d = GpuDevice::rtx3060();
        let e = DnnMem::new();
        let s = spec(ModelId::DistilGpt2, OptimizerKind::AdamW, 8);
        let pos0 = e.estimate(&s, &d).unwrap();
        let pos1 = e
            .estimate(
                &s.clone()
                    .with_zero_grad(xmem_runtime::ZeroGradPos::IterStart),
                &d,
            )
            .unwrap();
        assert_eq!(pos0.peak_bytes, pos1.peak_bytes);
    }

    #[test]
    fn underestimates_stateful_training() {
        // Against ground truth with Adam, DNNMem misses ~2x params of
        // state: its estimate must sit below the true peak.
        let d = GpuDevice::rtx3060();
        let s = spec(ModelId::Gpt2, OptimizerKind::Adam, 16);
        let est = DnnMem::new().estimate(&s, &d).unwrap();
        let gt = xmem_runtime::run_on_gpu(&s, &d, None, false);
        assert!(!gt.oom);
        assert!(est.peak_bytes < gt.peak_nvml);
    }

    #[test]
    fn supports_everything() {
        assert!(DnnMem::new().supports(ModelId::Vgg16));
        assert!(DnnMem::new().supports(ModelId::Qwen3_4B));
        assert!(!DnnMem::new().consumes_gpu());
    }
}
