//! Concurrent, cache-backed estimation service.
//!
//! The xMem pipeline splits cleanly into a device-independent front half —
//! CPU profiling ([`xmem_runtime::profile_into`]) and its analysis
//! ([`xmem_core::Analyzer`], fed the run's events as they arrive, so no
//! trace is recorded) — and a cheap, device-dependent back half
//! (orchestration + allocator simulation). Scheduler workloads issue many
//! near-identical queries per second: batch-size planning probes one model
//! at many batch sizes, and admission control re-asks the same `(model,
//! optimizer, batch)` question for every queued job. This crate serves
//! that traffic shape:
//!
//! * [`EstimationService`] memoizes the expensive stages in a sharded
//!   (mutex-per-shard) LRU cache keyed by [`JobKey`] — model, optimizer,
//!   batch, iterations, `zero_grad` placement (plus sequence length and
//!   precision, which also shape the trace), and caches each job's
//!   simulation per device (a *sim cell*). Every query route is one
//!   blocking method that takes the request's [`TraceContext`] (an
//!   untraced caller passes [`TraceContext::disabled`]), except
//!   [`EstimationService::estimate_for_device`], which answers for an
//!   unregistered device and never traces;
//! * [`EstimationService::sweep_traced`] fans a batch-size grid out
//!   across `std::thread` workers; each row is the primary device's sim
//!   cell at that batch, the same cell
//!   [`EstimationService::estimate_traced`] reads;
//! * [`EstimationService::max_batch_for_device_traced`] answers the
//!   admission-control question — the largest batch that fits a device —
//!   by bracketing with a parallel coarse sweep and bisecting the
//!   remainder over cached probes;
//! * [`AsyncEstimationService`] is the future-based front end for
//!   scheduler event loops, one method per route (`submit`, `sweep`,
//!   `plan`, `matrix`, `placement`), each taking an optional deadline
//!   and a [`TraceContext`], built over a shared service with
//!   [`AsyncEstimationService::from_service`] (or
//!   [`AsyncEstimationService::for_device`] for defaults): `submit`
//!   returns an [`EstimateFuture`]
//!   answered by a bounded, channel-fed worker pool, with cancellation,
//!   per-query deadlines, and [`SubmitError::Busy`] backpressure instead
//!   of unbounded queues. Concurrent identical queries **single-flight**
//!   onto one profile run ([`FlightStats`]), and Analyzer failures for
//!   degenerate jobs are remembered in a negative cache
//!   ([`EstimationService::negative_stats`]);
//! * the **multi-device sharded simulation layer** makes one service
//!   instance the per-cluster estimator: a [`DeviceRegistry`] of named
//!   [`GpuDevice`](xmem_runtime::GpuDevice) configs (loadable from a
//!   JSON fleet file), per-device simulation shards ([`SimStats`]), and
//!   batched replay — [`EstimationService::estimate_matrix_traced`] /
//!   [`AsyncEstimationService::matrix`] answer an M-jobs ×
//!   D-devices grid with exactly one profile/analyze per job fanned out
//!   to concurrent per-device simulations, and
//!   [`EstimationService::best_device_for_job_traced`] turns the matrix into a
//!   best-fit placement decision.
//!
//! The async machinery is dependency-free (the build environment has no
//! crates.io): futures are hand-rolled shared-state promises, wakers come
//! from [`std::task::Wake`], and [`block_on`] / [`Executor`] /
//! [`join_all`] are the minimal executor surface a scheduler needs to
//! drive thousands of in-flight queries from a few threads.
//!
//! A service runs one estimator: the paper default
//! [`EstimatorConfig::for_device`](xmem_core::EstimatorConfig::for_device)
//! of whichever device a cell is for ([`ServiceConfig::estimator`] only
//! names the primary device). Ablations of the estimator call
//! [`Estimator`](xmem_core::Estimator) directly. Estimates are
//! **bit-identical** to that sequential path: the memoized stages are
//! pure functions of the job key, and the simulation stages run
//! unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod executor;
mod future;
pub mod jobspec;
mod key;
mod persist;
pub mod placement;
mod registry;
mod service;
mod simcache;
mod singleflight;
pub mod telemetry;
mod tiering;
mod timer;

pub use cache::{CacheStats, ShardedLruCache};
pub use executor::{block_on, join_all, Executor, JoinAll, SubmitError, WorkerPool};
pub use future::{promise_pair, LateOutcome, PoolFuture, Promise};
pub use key::{JobKey, SweepKey};
pub use persist::{
    PersistStats, Snapshotter, JOURNAL_FILE, SNAPSHOT_FILE, SNAPSHOT_TMP_FILE, STATE_FORMAT_VERSION,
};
pub use placement::{hash_family, hash_job, HashRing};
pub use registry::{DeviceRegistry, RegistryParseError};
pub use service::{
    AsyncEstimationService, CellFill, EstimateFuture, EstimationService, MatrixFuture,
    PlacementFuture, PlanFuture, ProfiledStages, ServiceConfig, SweepFuture, SweepOutcome,
};
pub use simcache::{DeviceFingerprint, SimShards, SimStats};
pub use singleflight::{FlightStats, SingleFlight};
pub use telemetry::{
    CompletedTrace, LogLevel, Span, SpanRecord, Telemetry, TelemetryConfig, TraceContext,
    TRACE_HEADER,
};
pub use tiering::TierStats;
