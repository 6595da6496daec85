//! xMem: a-priori estimation of peak GPU memory from CPU-only profiling.
//!
//! This crate implements the paper's contribution (§3): a three-stage
//! pipeline that turns a CPU profiler trace of the first few training
//! iterations into an accurate prediction of the job's peak GPU memory —
//! without touching the target GPU.
//!
//! 1. [`Analyzer`] — parses the raw trace: pairs allocation/free instants
//!    into memory-block lifecycles (handling address reuse), rebuilds
//!    operator and component execution windows, attributes each block to
//!    the operator context that produced it, and classifies blocks
//!    (parameters, batch data, activations, gradients, optimizer state,
//!    workspaces). Script-level temporaries are filtered out. As an
//!    [`AnalyzingSink`] it takes the events straight from a profiling run,
//!    with no trace recorded; a recorded trace goes through the same sink.
//! 2. [`Orchestrator`] — re-times lifecycles to match GPU semantics
//!    (§3.3): parameters persist, batch data dies at the iteration
//!    boundary, activations keep their CPU-derived lifecycle, parameter
//!    gradients die exactly at `optimizer.zero_grad()`, optimizer state
//!    persists from its first allocation.
//! 3. [`Simulator`] — replays the orchestrated [`EventBuffer`] through the
//!    two-level allocator simulation of [`xmem_alloc`] against the target
//!    device's capacity, yielding the estimated peak *segment* memory, an
//!    optional usage curve, and an OOM prediction (§3.4).
//!
//! The [`Estimator`] facade runs the full pipeline, either from an
//! existing trace or by profiling a job spec on the CPU backend first.
//!
//! # Example
//!
//! ```
//! use xmem_core::{Estimator, EstimatorConfig};
//! use xmem_runtime::{GpuDevice, TrainJobSpec};
//! use xmem_models::ModelId;
//! use xmem_optim::OptimizerKind;
//!
//! let spec = TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8)
//!     .with_iterations(2);
//! let estimator = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
//! let estimate = estimator.estimate_job(&spec).unwrap();
//! assert!(estimate.peak_bytes > 0);
//! assert!(!estimate.oom_predicted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod error;
mod layerwise;
mod lifecycle;
mod matrix;
mod orchestrator;
mod param;
mod pipeline;
mod report;
mod simulator;
mod windows;

pub use analyzer::{AnalyzedBlock, AnalyzedTrace, Analyzer, AnalyzingSink, BlockCategory};
pub use error::EstimateError;
pub use layerwise::{layer_report, render_layer_report, LayerMemory};
pub use lifecycle::{reconstruct_lifecycles, LifecycleStats, MemoryBlock};
pub use matrix::{DeviceMatrix, DevicePlacement, MatrixCell, MatrixRow};
pub use orchestrator::{EventBuffer, Orchestrator};
pub use param::{ParamRejection, ParamReplay};
pub use pipeline::{AnalysisStats, Estimate, Estimator, EstimatorConfig, UnboundedReplay};
pub use report::render_report;
pub use simulator::{SimulationResult, Simulator};
pub use windows::{AnnotationIndex, ComponentWindow, OpWindow, WindowIndex};
