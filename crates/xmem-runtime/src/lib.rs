//! Memory-level training-loop executor.
//!
//! This crate is the stand-in for "running the job under PyTorch" (see
//! DESIGN.md §1). It executes a [`xmem_graph::Graph`] through a standard
//! training loop — dataloader fetch, forward, backward, `optimizer.step()`,
//! `optimizer.zero_grad()` — at the granularity of *memory events*: every
//! tensor materialization, every workspace, every gradient and optimizer
//! state is allocated and freed with PyTorch-loop lifetimes on a virtual
//! microsecond clock.
//!
//! Two backends share the engine:
//!
//! * **CPU** ([`profile_into`]) — allocations go to a malloc-like
//!   [`heap`](arena::CpuHeap) with address reuse, and the run's events
//!   (the four event categories of paper §3.2) go to a [`Sink`]. This is
//!   the input to xMem: [`profile_on_cpu`] records them as a
//!   PyTorch-profiler-style [`Trace`](xmem_trace::Trace).
//! * **GPU** ([`run_on_gpu`]) — allocations go through the two-level
//!   [`CachingAllocator`](xmem_alloc::CachingAllocator) on a
//!   capacity-limited device, an NVML-style sampler polls total used
//!   memory every millisecond of virtual time, and the run aborts with an
//!   OOM outcome exactly like a real job. This produces ground truth.
//!
//! Backend-specific workspace sizes and kernel durations (MKL-style im2col
//! scratch on CPU vs cuDNN-style workspaces on GPU) are the deliberate
//! CPU↔GPU divergence the paper identifies as the residual error source of
//! CPU-based estimation (§3.4, footnote 3).
//!
//! # Example
//!
//! ```
//! use xmem_runtime::{TrainJobSpec, ZeroGradPos, profile_on_cpu};
//! use xmem_models::ModelId;
//! use xmem_optim::OptimizerKind;
//!
//! let spec = TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8)
//!     .with_iterations(2);
//! let trace = profile_on_cpu(&spec);
//! assert!(trace.memory_instants().count() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod backend;
mod executor;
mod jobs;
mod memmodel;
mod profiler;

pub use arena::{CpuHeap, GpuArena, GroundTruth, MemoryArena, Mix64, MixHash, NvmlSampler};
pub use backend::{BackendKind, Phase};
pub use executor::{Engine, RunError};
pub use jobs::{
    profile_into, profile_on_cpu, run_on_gpu, GpuDevice, Precision, TrainJobSpec, ZeroGradPos,
};
pub use profiler::{NullSink, Profiler, Sink};
