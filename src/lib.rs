//! # xMem — CPU-based a-priori estimation of peak GPU memory
//!
//! A full Rust reproduction of *"xMem: A CPU-Based Approach for Accurate
//! Estimation of GPU Memory in Deep Learning Training Workloads"*
//! (Middleware '25). This facade crate re-exports the workspace:
//!
//! * [`core`] — the xMem pipeline: Analyzer → Orchestrator → Simulator;
//! * [`runtime`] — the memory-level training runtime (CPU profiling
//!   backend and simulated-GPU ground truth);
//! * [`models`] — the 25-model zoo of the evaluation;
//! * [`alloc`] — the two-level caching-allocator simulation;
//! * [`trace`] — the profiler trace format;
//! * [`graph`], [`optim`] — model IR and optimizer memory models;
//! * [`baselines`] — DNNMem, SchedTune and LLMem reproductions;
//! * [`eval`] — metrics, two-round validation, ANOVA/Monte Carlo
//!   campaigns;
//! * [`service`] — the concurrent, cache-backed estimation service for
//!   scheduler-scale traffic (parallel sweeps, admission control): one
//!   blocking method per route, each taking the request's
//!   [`TraceContext`](prelude::TraceContext) (`TraceContext::disabled()`
//!   when untraced), and an async front end built over it with
//!   `AsyncEstimationService::from_service`;
//! * [`server`] — the dependency-free HTTP/1.1 serving front end
//!   (`xmem-cli listen`) plus the matching blocking client.
//!
//! # Quick start
//!
//! ```
//! use xmem::prelude::*;
//!
//! // Describe the job a user wants to submit.
//! let job = TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 16);
//!
//! // Estimate its peak GPU memory without touching the GPU.
//! let estimator = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
//! let estimate = estimator.estimate_job(&job).unwrap();
//!
//! assert!(estimate.peak_bytes > 1 << 30);
//! assert!(!estimate.oom_predicted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use xmem_alloc as alloc;
pub use xmem_baselines as baselines;
pub use xmem_core as core;
pub use xmem_eval as eval;
pub use xmem_graph as graph;
pub use xmem_models as models;
pub use xmem_optim as optim;
pub use xmem_runtime as runtime;
pub use xmem_server as server;
pub use xmem_service as service;
pub use xmem_trace as trace;

/// The names needed for everyday use of the estimator.
pub mod prelude {
    pub use xmem_baselines::{EstimateOutcome, MemoryEstimator};
    pub use xmem_core::{
        DeviceMatrix, DevicePlacement, Estimate, Estimator, EstimatorConfig, MatrixCell, MatrixRow,
    };
    pub use xmem_models::ModelId;
    pub use xmem_optim::OptimizerKind;
    pub use xmem_runtime::{profile_on_cpu, run_on_gpu, GpuDevice, TrainJobSpec, ZeroGradPos};
    pub use xmem_service::{
        block_on, join_all, AsyncEstimationService, CacheStats, DeviceRegistry, EstimateFuture,
        EstimationService, Executor, MatrixFuture, ServiceConfig, SubmitError, TraceContext,
    };
}
