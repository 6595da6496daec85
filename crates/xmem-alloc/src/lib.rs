//! Two-level GPU memory-allocator simulation.
//!
//! This crate reproduces the memory-management chain that sits between a
//! deep-learning framework and the GPU (paper §2.2 and §3.4):
//!
//! * [`CachingAllocator`] — a best-fit-with-coalescing (BFC) caching
//!   allocator modeled on PyTorch's `CUDACachingAllocator`: requests are
//!   rounded up to 512-byte multiples, served by splitting blocks out of
//!   larger *segments* (2 MiB small buffers / 20 MiB large buffers / 2
//!   MiB-rounded huge allocations), freed blocks are cached and coalesced
//!   with free neighbours, and cached segments are reclaimed before an
//!   out-of-memory condition is reported.
//! * [`DeviceAllocator`] — the device (driver) level: a capacity-limited,
//!   page-granular allocator standing in for `cudaMalloc`/`cudaFree`.
//!
//! An OOM is signalled only when a request fails at *both* levels even after
//! cached-segment reclamation — the two-level semantics the paper identifies
//! as missing from prior estimators.
//!
//! The same allocator serves two roles in this reproduction: it backs the
//! simulated-GPU ground-truth runtime, and it is the engine of xMem's Memory
//! Simulator. All behaviour knobs live in [`AllocatorConfig`] so ablation
//! benchmarks can disable rounding, caching, reclamation, or the second
//! level independently.
//!
//! # Example
//!
//! ```
//! use xmem_alloc::{AllocatorConfig, CachingAllocator, DeviceAllocator};
//!
//! let device = DeviceAllocator::new(12 * (1 << 30), 2 << 20, 0);
//! let mut alloc = CachingAllocator::new(AllocatorConfig::pytorch_defaults(), device);
//!
//! let a = alloc.alloc(1_000_000).unwrap();          // rounded to 512-multiple
//! assert_eq!(alloc.counters().reserved, 2 << 20);   // one 2 MiB small segment
//! alloc.free(a);
//! assert_eq!(alloc.counters().reserved, 2 << 20);   // segment stays cached
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod caching;
mod config;
mod device;
mod error;
mod slab;
mod snapshot;
mod stats;

pub use caching::{BlockHandle, CachingAllocator};
pub use config::AllocatorConfig;
pub use device::DeviceAllocator;
pub use error::OomError;
pub use snapshot::{AllocatorSnapshot, BlockSnapshot, BlockState, SegmentSnapshot, SnapshotDiff};
pub use stats::{MemoryCounters, PoolKind, TimelinePoint};
