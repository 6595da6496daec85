//! The concurrent, cache-backed estimation front end — blocking
//! ([`EstimationService`]) and asynchronous ([`AsyncEstimationService`]) —
//! including the multi-device sharded simulation layer (device matrices,
//! batched replay, placement).

use crate::cache::{CacheStats, ShardedLruCache};
use crate::executor::{settle_or_defer, Probe, SubmitError, WorkerPool};
use crate::future::{promise_pair, PoolFuture};
use crate::key::{JobKey, SweepKey};
use crate::persist::{PersistStats, PersistedDevice, Persister, StateRecord};
use crate::registry::DeviceRegistry;
use crate::simcache::{DeviceFingerprint, SimShards, SimStats};
use crate::singleflight::{FlightStats, SingleFlight};
use crate::telemetry::TraceContext;
use crate::tiering::TierStats;
use crate::timer::DeadlineTimer;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use xmem_core::{
    AnalyzedTrace, Analyzer, DeviceMatrix, DevicePlacement, Estimate, EstimateError, Estimator,
    EstimatorConfig, MatrixCell, MatrixRow, ParamReplay, UnboundedReplay,
};
use xmem_runtime::{profile_into, GpuDevice, TrainJobSpec};

/// Identity of one simulation cell: which analysis, replayed against
/// which device configuration.
type SimKey = (JobKey, DeviceFingerprint);

/// One job's unbounded replay, computed at most once for the cells of
/// that job one request fills (see
/// [`EstimationService::simulate_cell`]).
type SharedReplay = OnceLock<UnboundedReplay>;

/// One job's analysis, loaded at most once for the cells of that job one
/// request fills, by the first of them to lead a sim flight (see
/// [`EstimationService::simulate_cell`]). No tier keeps it: it lives for
/// the request that computed it.
type SharedAnalysis = OnceLock<Result<Arc<ProfiledStages>, EstimateError>>;

/// What a single-estimate probe could not answer from: the device whose
/// cell to fill.
#[derive(Debug)]
struct EstimateFill {
    key: JobKey,
    device: GpuDevice,
}

/// What a matrix probe read: every cell, column-major (cell `c` is
/// device `c / jobs`, job `c % jobs`), with `None` for each one that
/// missed.
#[derive(Debug)]
struct MatrixFill {
    devices: Vec<GpuDevice>,
    keys: Vec<JobKey>,
    cells: Vec<Option<Result<Estimate, EstimateError>>>,
}

/// What a placement probe read: the fleet in capacity order from the
/// first device whose cell missed, a read already counted.
#[derive(Debug)]
struct PlacementFill {
    key: JobKey,
    fleet: Vec<(String, GpuDevice)>,
}

/// A job's analysis: the Analyzer's output over its CPU profiling run,
/// the device-independent front half of the pipeline. No tier keeps it;
/// it lives for the request that computed it, whose cells share it, and
/// what is cached is each cell it replays into. It stays a public type
/// because [`EstimationService::stages_traced`] returns it, and
/// perfbench's in-process trace replays its `analyzed` field. The
/// service analyzes the run's events as the engine reports them
/// ([`Analyzer::sink`]), so no trace is ever recorded.
#[derive(Debug)]
pub struct ProfiledStages {
    /// The Analyzer's output over the job's CPU profiling run.
    pub analyzed: AnalyzedTrace,
}

/// How a request answers a batch grid (a sweep's rows, a plan's probes):
/// from one proven fit, or one cell per batch. A per-batch grid carries
/// the analyses the request already holds, the anchors of a rejected
/// fit, so a cell at one of those batches replays it instead of
/// profiling again.
#[derive(Debug)]
enum BatchGrid {
    Fitted(Arc<ParamReplay>),
    PerBatch(Vec<(usize, Arc<ProfiledStages>)>),
}

/// The cached outcome of one parameterized-replay fit attempt over a
/// batch range: either the proven-exact fit or a remembered rejection
/// (so ineligible families do not re-pay three anchor profiles on every
/// sweep).
#[derive(Debug)]
struct ParamOutcome {
    batch_lo: usize,
    batch_hi: usize,
    fit: Option<Arc<ParamReplay>>,
}

/// Distinct batch points a sweep must span before the incremental path
/// pays the three-anchor fit. Below it the fit cannot win (three anchors
/// profile anyway), so each batch is an ordinary cell: profiled, analyzed
/// and replayed on its own.
const MIN_INCREMENTAL_POINTS: usize = 4;

/// Job families whose fit (or rejection) stays cached; a fit is a few
/// hundred KiB, so a small LRU covers realistic scheduler workloads.
const PARAM_CACHE_CAPACITY: usize = 32;

/// Bound on remembered Analyzer failures (oldest evicted beyond it).
const NEGATIVE_CAPACITY: usize = 256;

/// Lock shards of the negative and per-device sim tiers. A cache
/// smaller than this gets one shard per entry
/// ([`ShardedLruCache::new`] clamps).
const LOCK_SHARDS: usize = 16;

/// Fleet cap on per-device simulation shards: past it, the
/// least-recently-used device shard is retired (counter history
/// preserved). Bounds memory for registries churned programmatically.
const MAX_DEVICE_SHARDS: usize = 64;

/// Configuration of an [`EstimationService`].
///
/// Every cache tier the service owns (param, and the per-device sim
/// shards) runs the same policy: a segmented LRU at a fixed split
/// behind a frequency-sketch admission gate (see
/// [`ShardedLruCache::with_gated_slru`]).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The service's estimator: the paper default
    /// [`EstimatorConfig::for_device`] of the primary device, the device
    /// whose sim cells [`EstimationService::estimate_traced`] (with no
    /// device name) and [`EstimationService::sweep_traced`] answer from.
    /// Only `device` may vary;
    /// [`EstimationService::new`] refuses any other setting (ablations
    /// of the estimator run [`Estimator`] directly).
    pub estimator: EstimatorConfig,
    /// Sim cells each device's tier holds, its only bound.
    pub cache_capacity: usize,
    /// Worker threads one blocking query fans its misses out across (0 =
    /// all cores): sweep rows, the rows and cells a matrix missed, the
    /// coarse bracket of a plan, and the anchors of a fit.
    pub threads: usize,
    /// Named simulation targets for matrix / placement queries
    /// ([`EstimationService::estimate_matrix_traced`],
    /// [`EstimationService::best_device_for_job_traced`]).
    pub registry: DeviceRegistry,
    /// Optional state directory for crash-consistent persistence: cache
    /// inserts are journaled, snapshots compact the journal, and boot
    /// replays the on-disk state so restarts are warm (see the
    /// `persist` module docs for the on-disk format and recovery
    /// semantics). `None` (default) keeps the service purely in-memory.
    pub state_dir: Option<PathBuf>,
}

impl ServiceConfig {
    /// Service defaults (16-way sharded 256-cell tier per device, all
    /// cores, built-in device registry) for a target device.
    #[must_use]
    pub fn for_device(device: GpuDevice) -> Self {
        ServiceConfig {
            estimator: EstimatorConfig::for_device(device),
            cache_capacity: 256,
            threads: 0,
            registry: DeviceRegistry::builtin(),
            state_dir: None,
        }
    }

    /// Overrides the device registry (the cluster's fleet description).
    #[must_use]
    pub fn with_registry(mut self, registry: DeviceRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Overrides the cache capacity: the sim cells each device's tier
    /// holds.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables crash-consistent persistence rooted at `dir` (see
    /// [`state_dir`](Self::state_dir)): the directory is created on
    /// service construction, existing state is recovered, and cache
    /// inserts are journaled from then on.
    #[must_use]
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }
}

/// A shared, thread-safe estimation front end for scheduler-scale traffic.
///
/// What is cached is the answer: each sim cell (a job on one device) that
/// orchestration and allocator simulation computed, in that device's
/// shard. The expensive, device-independent stages (CPU profiling and
/// analysis) run for the request whose cell missed, single-flighted by
/// [`JobKey`], and the cells of that request share the one analysis; no
/// tier keeps it. All methods take `&self`, so one service instance can
/// serve many scheduler threads concurrently.
///
/// Each query route is one blocking method that takes the request's
/// [`TraceContext`] (an untraced caller passes
/// [`TraceContext::disabled`]), except
/// [`estimate_for_device`](Self::estimate_for_device), which answers for
/// an unregistered device and never traces.
///
/// # Example
///
/// ```
/// use xmem_service::{EstimationService, ServiceConfig, TraceContext};
/// use xmem_runtime::{GpuDevice, TrainJobSpec};
/// use xmem_models::ModelId;
/// use xmem_optim::OptimizerKind;
///
/// let service = EstimationService::new(ServiceConfig::for_device(GpuDevice::rtx3060()));
/// let spec = TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8)
///     .with_iterations(2);
/// let untraced = TraceContext::disabled();
/// let first = service.estimate_traced(&spec, None, &untraced).unwrap();
/// let second = service.estimate_traced(&spec, None, &untraced).unwrap(); // a sim-cell hit
/// assert_eq!(first, second);
/// assert_eq!(service.profile_runs(), 1);
/// assert_eq!(service.sim_stats().cache.hits, 1);
/// ```
#[derive(Debug)]
pub struct EstimationService {
    config: ServiceConfig,
    /// In-flight dedup: concurrent analyses of one key coalesce onto a
    /// single profile/analyze run.
    flights: SingleFlight<JobKey, Result<Arc<ProfiledStages>, EstimateError>>,
    /// Memory of Analyzer failures for degenerate jobs. A failure is a
    /// pure function of the job key (profiling is deterministic), so an
    /// entry never goes stale; the LRU only bounds how many are kept.
    negative: ShardedLruCache<JobKey, EstimateError>,
    /// Per-device simulation shards: one LRU of `(job key → estimate)`
    /// per device configuration, fed by every single-estimate, matrix,
    /// placement, sweep and admission path. The
    /// registry naming the devices lives in `config.registry` (there is
    /// exactly one copy: `registry()` and `config()` agree by
    /// construction).
    sims: SimShards,
    /// In-flight dedup of simulation cells: concurrent identical
    /// `(job, device)` cells coalesce onto one analysis load and one
    /// simulation.
    sim_flights: SingleFlight<SimKey, Result<Estimate, EstimateError>>,
    /// The incremental sweep's fit cache: one parameterized replay (or a
    /// remembered rejection) per batch-invariant job family.
    params: ShardedLruCache<SweepKey, Arc<ParamOutcome>>,
    /// In-flight dedup of parameterized-replay fits (concurrent sweeps
    /// over one family coalesce onto one three-anchor fit).
    param_flights: SingleFlight<SweepKey, Option<Arc<ParamOutcome>>>,
    /// Count of actual CPU profiling runs — the ground truth the
    /// single-flight and cache layers are judged against.
    profiles: AtomicU64,
    /// Crash-consistent persistence engine, present when
    /// [`ServiceConfig::state_dir`] is set and the directory was usable.
    persist: Option<Persister>,
}

impl EstimationService {
    /// Creates a service.
    ///
    /// # Panics
    /// Panics unless `config.estimator` is the paper default
    /// [`EstimatorConfig::for_device`] of its device: every answer the
    /// service gives is a sim cell of that estimator.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        assert!(
            config.estimator == EstimatorConfig::for_device(config.estimator.device),
            "a service runs the paper-default estimator of its device, not {:?}",
            config.estimator
        );
        let negative = ShardedLruCache::new(NEGATIVE_CAPACITY, LOCK_SHARDS);
        let sims =
            SimShards::new(config.cache_capacity, LOCK_SHARDS).with_max_devices(MAX_DEVICE_SHARDS);
        let mut service = EstimationService {
            config,
            flights: SingleFlight::new(),
            negative,
            sims,
            sim_flights: SingleFlight::new(),
            params: ShardedLruCache::new(PARAM_CACHE_CAPACITY, 4).with_gated_slru(),
            param_flights: SingleFlight::new(),
            profiles: AtomicU64::new(0),
            persist: None,
        };
        if let Some(dir) = service.config.state_dir.clone() {
            match Persister::open(&dir) {
                Ok((persister, loaded)) => {
                    let (recovered, skipped) = service.import_records(loaded.records);
                    persister.add_recovered(recovered);
                    persister.add_skipped(skipped);
                    service.persist = Some(persister);
                    // Boot compaction: fold the replayed journal into a
                    // fresh snapshot so repeated crash/restart cycles
                    // cannot grow the journal without bound.
                    if let Err(e) = service.snapshot_now() {
                        eprintln!(
                            "xmem-service: boot snapshot in {} failed: {e}",
                            dir.display()
                        );
                    }
                }
                Err(e) => {
                    // A hard I/O failure on the directory itself: serve
                    // cold rather than refuse to start.
                    eprintln!(
                        "xmem-service: state dir {} unusable ({e}); persistence disabled",
                        dir.display()
                    );
                }
            }
        }
        service
    }

    /// Re-applies recovered records to the in-memory caches (without
    /// re-journaling them), returning `(imported, skipped)`. Sim cells
    /// are re-attached by matching their persisted device fingerprint
    /// field-for-field against the boot-time registry; cells for devices
    /// no longer registered are skipped. `Stage` records, which older
    /// binaries wrote for a retired tier of analyses, `Replay` records,
    /// which they wrote for a retired unbounded-replay cache, and `Tuner`
    /// records, which they wrote for a learned protected split, are
    /// skipped too.
    fn import_records(&self, records: Vec<StateRecord>) -> (u64, u64) {
        let mut devices: Vec<GpuDevice> = self
            .config
            .registry
            .snapshot()
            .into_iter()
            .map(|(_, device)| device)
            .collect();
        // The service's own target device simulates too (estimate /
        // estimate_for_device paths) even when unregistered.
        devices.push(self.config.estimator.device);
        let mut imported = 0u64;
        let mut skipped = 0u64;
        for record in records {
            match record {
                StateRecord::Sim {
                    device,
                    job,
                    estimate,
                } => {
                    let matched = devices.iter().find(|d| {
                        let fp = DeviceFingerprint::of(d);
                        fp.name == device.name
                            && fp.capacity == device.capacity
                            && fp.framework_bytes == device.framework_bytes
                            && fp.init_bytes == device.init_bytes
                    });
                    if let Some(d) = matched {
                        self.sims.shard(d).insert(job, estimate);
                        imported += 1;
                    } else {
                        skipped += 1;
                    }
                }
                StateRecord::Param { family, replay } => {
                    let (batch_lo, batch_hi) = replay.batch_range();
                    self.params.insert(
                        family,
                        Arc::new(ParamOutcome {
                            batch_lo,
                            batch_hi,
                            fit: Some(Arc::new(replay)),
                        }),
                    );
                    imported += 1;
                }
                StateRecord::Stage { .. }
                | StateRecord::Replay { .. }
                | StateRecord::Tuner { .. } => skipped += 1,
            }
        }
        (imported, skipped)
    }

    /// Every resident cache entry as persistence records, in snapshot
    /// order: sim cells, then parameterized-replay fits (each cache layer
    /// LRU-first, so replaying the sequence restores recency).
    /// Newer record variants sort after older ones so binaries that
    /// predate them still recover the whole preceding prefix.
    fn export_records(&self) -> Vec<StateRecord> {
        let mut records = Vec::new();
        for (fingerprint, cells) in self.sims.export() {
            let device = PersistedDevice {
                name: fingerprint.name.to_owned(),
                capacity: fingerprint.capacity,
                framework_bytes: fingerprint.framework_bytes,
                init_bytes: fingerprint.init_bytes,
            };
            for (job, estimate) in cells {
                records.push(StateRecord::Sim {
                    device: device.clone(),
                    job,
                    estimate,
                });
            }
        }
        for (family, outcome) in self.params.export() {
            // Remembered rejections are not persisted: they are cheap to
            // rediscover and a rejection for one range says nothing
            // about the ranges a restarted service will sweep.
            if let Some(fit) = &outcome.fit {
                records.push(StateRecord::Param {
                    family,
                    replay: (**fit).clone(),
                });
            }
        }
        records
    }

    /// Writes a snapshot of the current cache state and truncates the
    /// journal. Returns `Ok(false)` when persistence is not enabled.
    ///
    /// # Errors
    /// Propagates I/O failures from the snapshot write.
    pub fn snapshot_now(&self) -> std::io::Result<bool> {
        let Some(persister) = &self.persist else {
            return Ok(false);
        };
        persister.snapshot(&self.export_records())?;
        Ok(true)
    }

    /// Persistence counters and gauges; all-zero (with `enabled: false`)
    /// when no state directory is configured.
    #[must_use]
    pub fn persist_stats(&self) -> PersistStats {
        self.persist
            .as_ref()
            .map_or_else(PersistStats::default, Persister::stats)
    }

    /// Convenience constructor with service defaults for a device.
    #[must_use]
    pub fn for_device(device: GpuDevice) -> Self {
        EstimationService::new(ServiceConfig::for_device(device))
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The analysis counters, in the shape perfbench's in-process trace
    /// reads them: with no tier behind them, `misses` counts analyses
    /// computed (every profile run) and `hits` analyses coalesced onto
    /// another caller's in-flight run; every other field is 0. What the
    /// service caches is counted in [`sim_stats`](Self::sim_stats) and
    /// [`param_cache_stats`](Self::param_cache_stats).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.flights.stats().coalesced,
            misses: self.profile_runs(),
            ..CacheStats::default()
        }
    }

    /// Counters of the parameterized-replay fit cache (the incremental
    /// sweep's tier).
    #[must_use]
    pub fn param_cache_stats(&self) -> CacheStats {
        self.params.stats()
    }

    /// Tier geometry and occupancy of the parameterized-replay fit cache.
    #[must_use]
    pub fn param_tier_stats(&self) -> TierStats {
        self.params.tier_stats()
    }

    /// Tier geometry and occupancy aggregated across the live per-device
    /// simulation shards.
    #[must_use]
    pub fn sim_tier_stats(&self) -> TierStats {
        self.sims.tier_stats()
    }

    /// Single-flight counters: leader executions vs coalesced followers.
    #[must_use]
    pub fn flight_stats(&self) -> FlightStats {
        self.flights.stats()
    }

    /// Negative-cache counters (hits/insertions/evictions), exposed
    /// alongside the positive [`cache_stats`](Self::cache_stats).
    #[must_use]
    pub fn negative_stats(&self) -> CacheStats {
        self.negative.stats()
    }

    /// How many times a job was actually profiled on the CPU: once per
    /// request that had to compute a cell of a job no concurrent caller
    /// was analyzing (coalesced queries share one run), plus a fit's
    /// anchors.
    #[must_use]
    pub fn profile_runs(&self) -> u64 {
        self.profiles.load(Ordering::Relaxed)
    }

    /// The device registry backing matrix / placement queries (the same
    /// instance [`config`](Self::config) carries).
    ///
    /// Read freely; to *replace* a device's configuration prefer
    /// [`register_device`](Self::register_device), which also retires the
    /// old configuration's cached simulation results.
    #[must_use]
    pub fn registry(&self) -> &DeviceRegistry {
        &self.config.registry
    }

    /// Registers (or reconfigures) a named simulation target. Replacing a
    /// device with a *different* configuration invalidates exactly that
    /// configuration's simulation shard — every other device keeps its
    /// warm entries. Returns the previous configuration for `name`, if any.
    ///
    /// Two names registered with an *identical* configuration share one
    /// simulation shard; the shard is only invalidated once no remaining
    /// name maps to the old configuration.
    pub fn register_device(&self, name: &str, device: GpuDevice) -> Option<GpuDevice> {
        let replaced = self.registry().register(name, device);
        if let Some(old) = replaced {
            let old_fingerprint = DeviceFingerprint::of(&old);
            // An alias registered with the same config still owns the
            // shard — dropping it would evict a live device's entries.
            let still_referenced = self
                .registry()
                .snapshot()
                .iter()
                .any(|(_, d)| DeviceFingerprint::of(d) == old_fingerprint);
            if old != device && !still_referenced {
                self.sims.invalidate(&old_fingerprint);
            }
        }
        replaced
    }

    /// Counters of the per-device simulation layer: aggregated shard
    /// hit/miss stats, executed simulations, live device shards, and
    /// entries dropped by device reconfiguration.
    ///
    /// Together with [`profile_runs`](Self::profile_runs) these prove the
    /// batched-replay contract: a cold M-jobs × D-devices matrix costs
    /// exactly M analyses and M × D simulations.
    #[must_use]
    pub fn sim_stats(&self) -> SimStats {
        self.sims.stats()
    }

    /// How many allocator simulations actually executed: one per cell
    /// computed, on every route. Shorthand for
    /// [`sim_stats`](Self::sim_stats)`.sim_runs`.
    #[must_use]
    pub fn sim_runs(&self) -> u64 {
        self.sims.stats().sim_runs
    }

    /// `spec`'s analysis, computed for this call: no tier keeps one, so
    /// a call profiles and analyzes unless it coalesces onto a concurrent
    /// caller's run or the negative cache remembers the job's failure.
    /// Every route's cells load their analysis inside their own sim
    /// flight instead (the private `simulate_cell`), and a fit loads its
    /// anchors here. It stays public because perfbench's
    /// in-process trace replays default-device estimates through it. The
    /// negative cache, coalescing and the profile/analyze stages record
    /// spans into `ctx`; an untraced caller passes
    /// [`TraceContext::disabled`].
    ///
    /// # Errors
    /// Propagates Analyzer failures for degenerate jobs (possibly from
    /// the negative cache).
    pub fn stages_traced(
        &self,
        spec: &TrainJobSpec,
        ctx: &TraceContext,
    ) -> Result<Arc<ProfiledStages>, EstimateError> {
        let key = JobKey::of(spec);
        match self.remembered_failure(&key, ctx) {
            Some(error) => Err(error),
            None => self.load_stages(spec, &key, ctx),
        }
    }

    /// The negative cache's answer for `key`, if it remembers a failure.
    fn remembered_failure(&self, key: &JobKey, ctx: &TraceContext) -> Option<EstimateError> {
        let error = self.negative.get(key)?;
        ctx.event("cache.negative", "hit");
        Some(error)
    }

    /// A single-flighted profile + analysis of a job whose negative-cache
    /// read already missed (and counted). Concurrent loads of one key
    /// coalesce onto one run; a failure lands in the negative cache, so a
    /// degenerate job is not re-profiled on every query.
    fn load_stages(
        &self,
        spec: &TrainJobSpec,
        key: &JobKey,
        ctx: &TraceContext,
    ) -> Result<Arc<ProfiledStages>, EstimateError> {
        let mut leader = false;
        let result = self.flights.run(key, || {
            leader = true;
            // Winning leadership races a just-retired flight for the same
            // key: a failure it found is already remembered, so re-check
            // before paying for a profile run.
            if let Some(error) = self.negative.peek(key) {
                return Err(error);
            }
            self.profiles.fetch_add(1, Ordering::Relaxed);
            // The engine's events are analyzed as they arrive; no trace
            // is recorded.
            let sink = {
                let _span = ctx.span("stage.profile");
                profile_into(spec, Analyzer::new().sink())
            };
            let mut analyze = ctx.span("stage.analyze");
            match sink.finish() {
                Ok(analyzed) => {
                    analyze.set_outcome("ok");
                    Ok(Arc::new(ProfiledStages { analyzed }))
                }
                Err(error) => {
                    analyze.set_outcome("error");
                    drop(analyze);
                    self.negative.insert(key.clone(), error.clone());
                    Err(error)
                }
            }
        });
        if !leader {
            ctx.event("flight.stage", "coalesced");
        }
        result
    }

    /// Estimates `spec`'s peak GPU memory on the primary device
    /// (`device_name` = `None`) or on the registered device
    /// `device_name`; every stage the query touches records under `ctx`
    /// (a cell hit is a `cache.sim` `hit` event). Results are bit-identical to the sequential
    /// [`Estimator::estimate_job`] path over
    /// [`EstimatorConfig::for_device`] of that device: profiling and
    /// analysis are deterministic in the job key, and the simulation
    /// stages run identically on both paths.
    ///
    /// The answer is the device's sim cell — the cell a matrix or a
    /// placement query reads for that device, and, on the primary device,
    /// the one a [`sweep_traced`](Self::sweep_traced) row at that batch
    /// holds — so a warm repeat is a cell hit with no allocator replay,
    /// and a cell an earlier matrix computed is a pure cache hit. A miss
    /// profiles and analyzes the job, then fills the cell with one
    /// bounded replay.
    ///
    /// # Errors
    /// [`EstimateError::UnknownDevice`] for an unregistered name;
    /// Analyzer failures for degenerate jobs.
    pub fn estimate_traced(
        &self,
        spec: &TrainJobSpec,
        device_name: Option<&str>,
        ctx: &TraceContext,
    ) -> Result<Estimate, EstimateError> {
        self.probe_estimate_at(spec, device_name, ctx)
            .or_fill(|fill| self.fill_estimate(spec, fill, ctx))
    }

    /// [`probe_estimate`](Self::probe_estimate) for a device named as
    /// [`estimate_traced`](Self::estimate_traced) names it (see
    /// [`cell_device`](Self::cell_device)); an unknown name is the whole
    /// answer.
    fn probe_estimate_at(
        &self,
        spec: &TrainJobSpec,
        device_name: Option<&str>,
        ctx: &TraceContext,
    ) -> Probe<Result<Estimate, EstimateError>, EstimateFill> {
        match self.cell_device(device_name) {
            Some(device) => self.probe_estimate(spec, device, ctx),
            None => Probe::Done(Err(EstimateError::UnknownDevice(
                device_name.unwrap_or_default().to_string(),
            ))),
        }
    }

    /// The read half of a single estimate: one counted read of
    /// `device`'s cell and, on a miss, the negative cache. A cell hit or
    /// a remembered failure is the whole answer; anything else is left to
    /// [`fill_estimate`](Self::fill_estimate).
    fn probe_estimate(
        &self,
        spec: &TrainJobSpec,
        device: GpuDevice,
        ctx: &TraceContext,
    ) -> Probe<Result<Estimate, EstimateError>, EstimateFill> {
        let key = JobKey::of(spec);
        if let Some(hit) = self.sims.shard(&device).get(&key) {
            ctx.event("cache.sim", "hit");
            return Probe::Done(Ok(hit));
        }
        match self.remembered_failure(&key, ctx) {
            Some(error) => Probe::Done(Err(error)),
            None => Probe::Fill(EstimateFill { key, device }),
        }
    }

    /// The compute half of a single estimate: the missed cell, which
    /// analyzes the job and replays it. Reads nothing the probe counted.
    /// A lone cell has no other cell of its job to share an unbounded
    /// replay with, so it pays one bounded replay.
    fn fill_estimate(
        &self,
        spec: &TrainJobSpec,
        fill: EstimateFill,
        ctx: &TraceContext,
    ) -> Result<Estimate, EstimateError> {
        let analysis = SharedAnalysis::new();
        self.simulate_cell(spec, &fill.key, &analysis, fill.device, None, ctx)
    }

    /// One row of a single-device batch grid
    /// ([`sweep_traced`](Self::sweep_traced) on the primary device, every
    /// probe of
    /// [`max_batch_for_device_traced`](Self::max_batch_for_device_traced)):
    /// `base` at `batch` on `device`, a cell like any other. With a fit
    /// the cell is materialized from it; without one it is exactly the
    /// [`estimate_traced`](Self::estimate_traced) cell, which replays the
    /// grid's held analysis at `batch` when there is one.
    fn batch_cell(
        &self,
        base: &TrainJobSpec,
        batch: usize,
        device: GpuDevice,
        grid: &BatchGrid,
        ctx: &TraceContext,
    ) -> Result<Estimate, EstimateError> {
        let held = match grid {
            BatchGrid::Fitted(param) => {
                return Ok(self.incremental_cell_on(base, batch, param, device, ctx))
            }
            BatchGrid::PerBatch(held) => held,
        };
        let spec = with_batch(base, batch);
        self.probe_estimate(&spec, device, ctx).or_fill(|fill| {
            let analysis = held
                .iter()
                .find(|(anchor, _)| *anchor == batch)
                .map_or_else(SharedAnalysis::new, |(_, stages)| {
                    SharedAnalysis::from(Ok(Arc::clone(stages)))
                });
            self.simulate_cell(&spec, &fill.key, &analysis, fill.device, None, ctx)
        })
    }

    /// One cell of a job on `device`, through the per-device simulation
    /// shard: a hit, or [`simulate_cell`](Self::simulate_cell). The
    /// simulation uses the paper-default [`EstimatorConfig::for_device`]
    /// for `device`, so results are bit-identical to a sequential
    /// `Estimator` built the same way.
    fn simulate_on(
        &self,
        spec: &TrainJobSpec,
        key: &JobKey,
        analysis: &SharedAnalysis,
        device: GpuDevice,
        shared: Option<&SharedReplay>,
        ctx: &TraceContext,
    ) -> Result<Estimate, EstimateError> {
        if let Some(hit) = self.sims.shard(&device).get(key) {
            ctx.event("cache.sim", "hit");
            return Ok(hit);
        }
        self.simulate_cell(spec, key, analysis, device, shared, ctx)
    }

    /// The miss half of [`simulate_on`](Self::simulate_on):
    /// computes and inserts a cell whose shard probe already missed (the
    /// probe counted the miss; this half only peeks).
    /// [`estimate_matrix_traced`](Self::estimate_matrix_traced), which
    /// probes its cells in bulk, enters here.
    ///
    /// Concurrent identical cells single-flight onto one leader, which
    /// re-checks the shard and only then takes the job's analysis from
    /// `analysis`: the request's cells of one job share it, and the first
    /// leader among them loads it ([`load_stages`](Self::load_stages)).
    /// A cell another request filled meanwhile therefore costs no profile.
    ///
    /// **Pressure-aware fast path**: `shared` is the job's unbounded
    /// replay for the cells of one request (a matrix row, a placement
    /// walk). The first cell to lead a sim flight computes it, and any
    /// device whose usable capacity covers that replay's segment peak
    /// derives its cell in O(1); only capacity-pressured devices, where
    /// reclaim/OOM can diverge, pay a full stateful replay. A lone cell
    /// (`shared = None`) has no other cell to amortize an unbounded
    /// replay over, so it pays one bounded replay. Either way the cell
    /// is bit-identical (see [`SimStats::fast_path_hits`] /
    /// [`SimStats::full_replays`](crate::SimStats::full_replays) for the
    /// split).
    fn simulate_cell(
        &self,
        spec: &TrainJobSpec,
        key: &JobKey,
        analysis: &SharedAnalysis,
        device: GpuDevice,
        shared: Option<&SharedReplay>,
        ctx: &TraceContext,
    ) -> Result<Estimate, EstimateError> {
        let sim_key = (key.clone(), DeviceFingerprint::of(&device));
        let mut leader = false;
        let estimate = self.sim_flights.run(&sim_key, || {
            leader = true;
            // A just-retired flight for this cell published before
            // retiring: re-check the shard before loading anything.
            if let Some(hit) = self.sims.shard(&device).peek(key) {
                return Ok(hit);
            }
            let stages = analysis
                .get_or_init(|| self.load_stages(spec, key, ctx))
                .clone()?;
            let mut replay_span = ctx.span("sim.replay");
            let estimator = Estimator::new(EstimatorConfig::for_device(device));
            // Every cell's estimator shares the orchestrator and allocator
            // configuration, so one unbounded replay serves every device.
            let derived = shared.and_then(|shared| {
                let replay = shared.get_or_init(|| {
                    let _span = ctx.span("sim.unbounded");
                    self.sims.count_unbounded();
                    let replay = estimator.replay_unbounded(&stages.analyzed);
                    self.sims.count_replayed_events(replay.events);
                    replay
                });
                estimator.derive_from_replay(replay)
            });
            self.sims.count_run();
            let estimate = match derived {
                Some(estimate) => {
                    self.sims.count_fast_path();
                    replay_span.set_outcome("fast-path");
                    estimate
                }
                None => {
                    self.sims.count_full_replay();
                    replay_span.set_outcome("full-replay");
                    let (estimate, events) = estimator.estimate_analyzed_counted(&stages.analyzed);
                    self.sims.count_replayed_events(events);
                    estimate
                }
            };
            drop(replay_span);
            // Fetch the shard *after* the (possibly multi-ms) replay: a
            // concurrent `register_device` invalidation or fleet-cap
            // eviction during the replay would detach an earlier handle,
            // and inserting into a detached shard loses the entry and its
            // counter deltas. A detachment landing in the tiny window
            // between this fetch and the insert still only costs a
            // recomputation — stale entries are never *served*, because
            // lookups are fingerprint-keyed.
            self.sims
                .shard(&device)
                .insert(key.clone(), estimate.clone());
            self.journal_sim(&sim_key.1, key, &estimate);
            Ok(estimate)
        });
        if !leader {
            ctx.event("cache.sim", "coalesced");
        }
        estimate
    }

    /// Journals one sim-shard insert when persistence is enabled.
    fn journal_sim(&self, fingerprint: &DeviceFingerprint, key: &JobKey, estimate: &Estimate) {
        if let Some(persister) = &self.persist {
            persister.append(&StateRecord::Sim {
                device: PersistedDevice {
                    name: fingerprint.name.to_owned(),
                    capacity: fingerprint.capacity,
                    framework_bytes: fingerprint.framework_bytes,
                    init_bytes: fingerprint.init_bytes,
                },
                job: key.clone(),
                estimate: estimate.clone(),
            });
        }
    }

    /// How a request answers `base`'s batch grid over `[lo, hi]`: from
    /// the parameterized replay proven over the range for `base`'s job
    /// family, fitting (and caching) it on first use, or per batch. Every
    /// cell the service computes uses a paper-default [`EstimatorConfig`],
    /// which admits the fit by construction
    /// ([`Estimator::incremental_exact`] with the default orchestrator).
    /// The grid is per batch when the fit was rejected (the delta model
    /// could not be proven exact) or an anchor failed to profile, and
    /// then errors surface per cell. A fit this call attempted hands its
    /// anchors' analyses to that per-batch grid, so the request profiles
    /// no anchor batch twice.
    fn param_for(
        &self,
        base: &TrainJobSpec,
        lo: usize,
        hi: usize,
        ctx: &TraceContext,
    ) -> BatchGrid {
        let family = SweepKey::of(base);
        let covering =
            |outcome: &Arc<ParamOutcome>| outcome.batch_lo <= lo && hi <= outcome.batch_hi;
        let grid = |fit: Option<Arc<ParamReplay>>, held| {
            fit.map_or(BatchGrid::PerBatch(held), BatchGrid::Fitted)
        };
        if let Some(hit) = self.params.get(&family) {
            if covering(&hit) {
                return grid(hit.fit.clone(), Vec::new());
            }
        }
        let mut held = Vec::new();
        let outcome = self.param_flights.run(&family, || {
            if let Some(hit) = self.params.peek(&family) {
                if covering(&hit) {
                    return Some(hit);
                }
            }
            let mut fit_span = ctx.span("sweep.param_fit");
            fit_span.set_outcome("rejected");
            // Three anchors pin the affine size model: the endpoints fit
            // it, the midpoint validates it (plus full structural
            // identity across all three). Anchor profiles are counted
            // like any other profile run, and they fan out across the
            // worker threads, so the fit costs one wall-clock profile
            // (the largest anchor), not three.
            let mid = lo + (hi - lo) / 2;
            held = self
                .parallel_fill(3, |i| {
                    let batch = [lo, mid, hi][i];
                    self.stages_traced(&with_batch(base, batch), ctx)
                        .ok()
                        .map(|stages| (batch, stages))
                })
                .into_iter()
                .flatten()
                .collect();
            if held.len() < 3 {
                return None;
            }
            let refs: Vec<(usize, &AnalyzedTrace)> = held
                .iter()
                .map(|(batch, stages)| (*batch, &stages.analyzed))
                .collect();
            let fit = Estimator::new(self.config.estimator.clone())
                .fit_param_replay(&refs)
                .ok()
                .map(Arc::new);
            if fit.is_some() {
                self.sims.count_param_replay();
                fit_span.set_outcome("fit");
            }
            drop(fit_span);
            let outcome = Arc::new(ParamOutcome {
                batch_lo: lo,
                batch_hi: hi,
                fit,
            });
            self.params.insert(family.clone(), Arc::clone(&outcome));
            if let (Some(fit), Some(persister)) = (&outcome.fit, &self.persist) {
                persister.append(&StateRecord::Param {
                    family: family.clone(),
                    replay: (**fit).clone(),
                });
                ctx.event("persist.journal", "param");
            }
            Some(outcome)
        });
        grid(outcome.and_then(|outcome| outcome.fit.clone()), held)
    }

    /// How a sweep over `batches` is answered: through
    /// [`param_for`](Self::param_for) when the sweep qualifies for the
    /// incremental path (enough distinct points to beat the three-anchor
    /// cost, and valid batches), per batch otherwise.
    fn sweep_grid(&self, base: &TrainJobSpec, batches: &[usize], ctx: &TraceContext) -> BatchGrid {
        let mut distinct: Vec<usize> = batches.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() < MIN_INCREMENTAL_POINTS || distinct[0] == 0 {
            return BatchGrid::PerBatch(Vec::new());
        }
        self.param_for(base, distinct[0], *distinct.last().expect("non-empty"), ctx)
    }

    /// One incremental cell on a single device (a sweep row or an
    /// admission probe): one bounded buffer replay, the cheapest exact
    /// answer for a lone cell on any device, roomy or pressured.
    fn incremental_cell_on(
        &self,
        base: &TrainJobSpec,
        batch: usize,
        param: &ParamReplay,
        device: GpuDevice,
        ctx: &TraceContext,
    ) -> Estimate {
        let spec = with_batch(base, batch);
        let key = JobKey::of(&spec);
        if let Some(hit) = self.sims.shard(&device).get(&key) {
            ctx.event("cache.sim", "hit");
            return hit;
        }
        self.sims.count_run();
        self.sims.count_incremental();
        ctx.event("sim.incremental", "cell");
        let mut span = ctx.span("sim.replay");
        span.set_outcome("incremental");
        let (estimate, events) = Estimator::new(EstimatorConfig::for_device(device))
            .estimate_buffer_counted(&param.materialize(batch), param.stats_for(batch));
        self.sims.count_replayed_events(events);
        drop(span);
        self.sims
            .shard(&device)
            .insert(key.clone(), estimate.clone());
        self.journal_sim(&DeviceFingerprint::of(&device), &key, &estimate);
        estimate
    }

    /// Estimates `spec` on an explicit device configuration through
    /// `device`'s simulation shard, without requiring the device to be
    /// registered by name: the entry point batch consumers (evaluation
    /// campaigns, benchmark harnesses) read the cells of a prewarmed
    /// matrix through. A missed cell profiles the job and pays one
    /// bounded replay, like [`estimate_traced`](Self::estimate_traced).
    /// Results are
    /// bit-identical to a sequential [`Estimator`] over
    /// [`EstimatorConfig::for_device`].
    ///
    /// # Errors
    /// Propagates Analyzer failures for degenerate jobs.
    pub fn estimate_for_device(
        &self,
        spec: &TrainJobSpec,
        device: GpuDevice,
    ) -> Result<Estimate, EstimateError> {
        let ctx = TraceContext::disabled();
        self.probe_estimate(spec, device, &ctx)
            .or_fill(|fill| self.fill_estimate(spec, fill, &ctx))
    }

    /// The device whose sim cell answers a single-estimate query: a
    /// registered name, or the primary device for the default route.
    /// `None` only for an unregistered name.
    fn cell_device(&self, device_name: Option<&str>) -> Option<GpuDevice> {
        match device_name {
            Some(name) => self.registry().get(name),
            None => Some(self.config.estimator.device),
        }
    }

    /// The locally cached simulation cell for `spec`, if present —
    /// `device_name = None` resolves to the primary device. Cluster nodes
    /// use this to serve a non-owned request locally when a forwarded
    /// result already filled the cell, without re-forwarding.
    #[must_use]
    pub fn cached_cell_estimate(
        &self,
        spec: &TrainJobSpec,
        device_name: Option<&str>,
    ) -> Option<Estimate> {
        let device = self.cell_device(device_name)?;
        self.sims.shard(&device).get(&JobKey::of(spec))
    }

    /// Fills the local simulation cell for `spec` with an estimate
    /// computed elsewhere (a forwarded cluster response), journaling it
    /// like any locally computed cell. An estimate that breaks the
    /// arithmetic every cell of the device obeys (see
    /// [`CellFill::Rejected`]) is refused and neither inserted nor
    /// journaled. An unknown device or an already-present cell leaves
    /// the cache as it was: cells are deterministic, and the incumbent
    /// was journaled first.
    pub fn fill_sim_cell(
        &self,
        spec: &TrainJobSpec,
        device_name: Option<&str>,
        estimate: Estimate,
    ) -> CellFill {
        let Some(device) = self.cell_device(device_name) else {
            return CellFill::Kept;
        };
        if !self.cell_arithmetic_holds(&device, &estimate) {
            return CellFill::Rejected;
        }
        let key = JobKey::of(spec);
        let shard = self.sims.shard(&device);
        if shard.peek(&key).is_some() {
            return CellFill::Kept;
        }
        shard.insert(key.clone(), estimate.clone());
        self.journal_sim(&DeviceFingerprint::of(&device), &key, &estimate);
        CellFill::Filled
    }

    /// Whether `estimate` obeys what the service's one estimator makes
    /// of every cell of `device` (see [`CellFill::Rejected`]).
    fn cell_arithmetic_holds(&self, device: &GpuDevice, estimate: &Estimate) -> bool {
        let peak = estimate
            .job_peak_bytes
            .checked_add(device.framework_bytes)
            .and_then(|bytes| bytes.checked_add(self.config.estimator.context_allowance));
        let usable = device.capacity.saturating_sub(device.init_bytes);
        peak == Some(estimate.peak_bytes)
            && estimate.tensor_peak_bytes <= estimate.job_peak_bytes
            && (estimate.oom_predicted || estimate.peak_bytes <= usable)
            && estimate.curve.is_empty()
    }

    /// Batched replay: estimates every job in `specs` on every named
    /// device, running the expensive profile + analyze stages **once per
    /// distinct job** whose row missed a cell and fanning that analysis
    /// out to concurrent per-device allocator simulations ("1 analysis, N simulations" —
    /// provable via [`profile_runs`](Self::profile_runs) and
    /// [`sim_stats`](Self::sim_stats)). Hits, misses and replays record
    /// under `ctx`.
    ///
    /// Cells land in the per-device simulation shards, so a later
    /// single-device query ([`estimate_traced`](Self::estimate_traced))
    /// for any cell is a cache hit — and so is a repeated matrix: every
    /// cell is probed first, on the calling thread, and only misses are
    /// computed (a warm matrix reads one cell per job and device, and
    /// does nothing else). Every cell is
    /// bit-identical to a sequential
    /// [`Estimator::estimate_job`] against
    /// [`EstimatorConfig::for_device`] of its device.
    ///
    /// Per-job analysis failures are carried in the affected cells;
    /// matrix-level failure is reserved for unresolvable device names.
    ///
    /// # Errors
    /// [`EstimateError::UnknownDevice`] naming the first unknown device.
    ///
    /// # Example
    ///
    /// ```
    /// use xmem_service::{EstimationService, TraceContext};
    /// use xmem_runtime::{GpuDevice, TrainJobSpec};
    /// use xmem_models::ModelId;
    /// use xmem_optim::OptimizerKind;
    ///
    /// let service = EstimationService::for_device(GpuDevice::rtx3060());
    /// let jobs = [TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8)
    ///     .with_iterations(2)];
    /// let matrix = service
    ///     .estimate_matrix_traced(&jobs, &["rtx3060", "rtx4060"], &TraceContext::disabled())
    ///     .unwrap();
    /// assert_eq!(matrix.num_cells(), 2);
    /// assert_eq!(service.profile_runs(), 1, "one analysis");
    /// assert_eq!(service.sim_runs(), 2, "two simulations");
    /// ```
    pub fn estimate_matrix_traced(
        &self,
        specs: &[TrainJobSpec],
        devices: &[&str],
        ctx: &TraceContext,
    ) -> Result<DeviceMatrix, EstimateError> {
        self.probe_matrix(specs, devices, ctx)
            .or_fill(|fill| self.fill_matrix(specs, devices, fill, ctx))
    }

    /// The read half of a matrix: every cell, column-major; then, for
    /// each row that missed a cell, the negative cache. A warm matrix
    /// ends here. Hits are recorded as one event per tier, not one per
    /// cell, so a large matrix cannot crowd its own spans out of the
    /// trace.
    fn probe_matrix(
        &self,
        specs: &[TrainJobSpec],
        devices: &[&str],
        ctx: &TraceContext,
    ) -> Probe<Result<DeviceMatrix, EstimateError>, MatrixFill> {
        let resolved = match self.registry().resolve(devices) {
            Ok(resolved) => resolved,
            Err(error) => return Probe::Done(Err(error)),
        };
        let keys: Vec<JobKey> = specs.iter().map(JobKey::of).collect();
        let mut cells: Vec<Option<Result<Estimate, EstimateError>>> =
            Vec::with_capacity(keys.len() * resolved.len());
        for device in &resolved {
            let shard = self.sims.shard(device);
            cells.extend(keys.iter().map(|key| shard.get(key).map(Ok)));
        }
        if cells.iter().any(Option::is_some) {
            ctx.event("cache.sim", "hit");
        }
        let jobs = keys.len();
        for (j, key) in keys.iter().enumerate() {
            let row = (j..cells.len()).step_by(jobs);
            if row.clone().all(|c| cells[c].is_some()) {
                continue;
            }
            if let Some(error) = self.remembered_failure(key, ctx) {
                for c in row {
                    cells[c] = Some(Err(error.clone()));
                }
            }
        }
        if cells.iter().all(Option::is_some) {
            return Probe::Done(Ok(assemble_matrix(specs, devices, cells)));
        }
        Probe::Fill(MatrixFill {
            devices: resolved,
            keys,
            cells,
        })
    }

    /// The compute half of a matrix: only the missed cells replay, in
    /// parallel. The missed cells of one job share one analysis and one
    /// unbounded replay, which the first of them to lead a sim flight
    /// computes: distinct jobs profile side by side, and a job whose
    /// cells all coalesce onto other requests' flights computes neither.
    fn fill_matrix(
        &self,
        specs: &[TrainJobSpec],
        devices: &[&str],
        fill: MatrixFill,
        ctx: &TraceContext,
    ) -> Result<DeviceMatrix, EstimateError> {
        let MatrixFill {
            devices: resolved,
            keys,
            mut cells,
        } = fill;
        let jobs = keys.len();
        let misses: Vec<usize> = (0..cells.len()).filter(|&c| cells[c].is_none()).collect();
        // Rows naming one job share its slot.
        let mut slot_of: HashMap<&JobKey, usize> = HashMap::with_capacity(jobs);
        let slots: Vec<usize> = keys
            .iter()
            .map(|key| {
                let next = slot_of.len();
                *slot_of.entry(key).or_insert(next)
            })
            .collect();
        let analyses: Vec<SharedAnalysis> = (0..slot_of.len()).map(|_| OnceLock::new()).collect();
        let replays: Vec<SharedReplay> = (0..slot_of.len()).map(|_| OnceLock::new()).collect();
        let filled = self.parallel_fill(misses.len(), |i| {
            let (device_index, job_index) = (misses[i] / jobs, misses[i] % jobs);
            let slot = slots[job_index];
            self.simulate_cell(
                &specs[job_index],
                &keys[job_index],
                &analyses[slot],
                resolved[device_index],
                Some(&replays[slot]),
                ctx,
            )
        });
        for (c, outcome) in misses.into_iter().zip(filled) {
            cells[c] = Some(outcome);
        }
        Ok(assemble_matrix(specs, devices, cells))
    }

    /// Placement: the best registered device for `spec` — the
    /// smallest-capacity device whose estimate predicts no OOM (best fit:
    /// big devices stay free for jobs that need them), with ties broken
    /// by registry name order. `Ok(None)` when no registered device fits
    /// (or the registry is empty).
    ///
    /// Runs one analysis and at most one simulation per device; all of it
    /// lands in the shared caches and records under `ctx`.
    ///
    /// # Errors
    /// Propagates Analyzer failures — an estimation error is an error,
    /// never a "does not fit" verdict.
    pub fn best_device_for_job_traced(
        &self,
        spec: &TrainJobSpec,
        ctx: &TraceContext,
    ) -> Result<Option<DevicePlacement>, EstimateError> {
        self.probe_placement(spec, ctx)
            .or_fill(|fill| self.fill_placement(spec, fill, ctx))
    }

    /// The read half of a placement: the cells in `(capacity, name)`
    /// order up to the first fit or the first miss, so the first fit is
    /// the answer and ties go to name order — a small job on a large
    /// fleet reads one cell, not one per device — and, after a miss, the
    /// negative cache. The walk runs under the registry's read lock,
    /// which clones the answer's name and, on a miss, the names the fill
    /// still walks.
    fn probe_placement(
        &self,
        spec: &TrainJobSpec,
        ctx: &TraceContext,
    ) -> Probe<Result<Option<DevicePlacement>, EstimateError>, PlacementFill> {
        if self.registry().is_empty() {
            return Probe::Done(Ok(None));
        }
        let key = JobKey::of(spec);
        // Only the cell walk and the answer's name clone run under the
        // registry's read lock; an empty fleet here lost a race and
        // places nothing, as it would have a moment earlier.
        let walked = self.registry().with_capacity_order(|fleet| {
            for (i, &(name, device)) in fleet.iter().enumerate() {
                let Some(estimate) = self.sims.shard(&device).get(&key) else {
                    return Err(fleet[i..]
                        .iter()
                        .map(|&(name, device)| (name.to_owned(), device))
                        .collect());
                };
                ctx.event("cache.sim", "hit");
                if !estimate.oom_predicted {
                    let device = name.to_owned();
                    return Ok(Some(DevicePlacement { device, estimate }));
                }
            }
            Ok(None)
        });
        match walked {
            Ok(placement) => Probe::Done(Ok(placement)),
            Err(fleet) => match self.remembered_failure(&key, ctx) {
                Some(error) => Probe::Done(Err(error)),
                None => Probe::Fill(PlacementFill { key, fleet }),
            },
        }
    }

    /// The compute half of a placement: replays the missed cell, then
    /// walks on through the rest of the fleet (reading before replaying)
    /// to the first fit. The cells the walk replays share one analysis
    /// and one unbounded replay.
    fn fill_placement(
        &self,
        spec: &TrainJobSpec,
        fill: PlacementFill,
        ctx: &TraceContext,
    ) -> Result<Option<DevicePlacement>, EstimateError> {
        let PlacementFill { key, fleet } = fill;
        let analysis = SharedAnalysis::new();
        let replay = SharedReplay::new();
        for (i, (name, device)) in fleet.into_iter().enumerate() {
            let estimate = if i == 0 {
                self.simulate_cell(spec, &key, &analysis, device, Some(&replay), ctx)?
            } else {
                self.simulate_on(spec, &key, &analysis, device, Some(&replay), ctx)?
            };
            if !estimate.oom_predicted {
                return Ok(Some(DevicePlacement {
                    device: name,
                    estimate,
                }));
            }
        }
        Ok(None)
    }

    fn worker_count(&self, work_items: usize) -> usize {
        all_cores_if_zero(self.config.threads)
            .min(work_items)
            .max(1)
    }

    /// Fans `count` independent work items out across the service's
    /// worker threads (the shared scaffold under
    /// [`sweep_traced`](Self::sweep_traced), the misses of
    /// [`estimate_matrix_traced`](Self::estimate_matrix_traced) and the
    /// coarse bracket of
    /// [`max_batch_for_device_traced`](Self::max_batch_for_device_traced)):
    /// `work(i)` runs once per index, and outputs come back in index order. One worker
    /// — zero or one item, or a single-threaded service — runs inline on
    /// the calling thread, so an all-hit query never spawns.
    fn parallel_fill<T: Send>(&self, count: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = self.worker_count(count);
        if workers == 1 {
            return (0..count).map(work).collect();
        }
        let results: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    *results[i].lock().expect("parallel slot poisoned") = Some(work(i));
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("parallel slot poisoned")
                    .expect("every slot is filled")
            })
            .collect()
    }

    /// Estimates `base` at every batch size in `batches` on the primary
    /// device, fanning the grid out across worker threads. Results are
    /// in `batches` order, and every row records under `ctx`. Each row is
    /// the primary device's sim cell at that batch — the cell
    /// [`estimate_traced`](Self::estimate_traced) reads with no device
    /// name — so it is cached and journaled like any cell, and a repeated
    /// row is a cell hit.
    ///
    /// A qualifying sweep (≥ 4 distinct batches) takes the
    /// **incremental path**: three anchor batches profile and pin one
    /// parameterized replay, and every missing cell — anchors included —
    /// is materialized from it in ~O(events) with no further profiling.
    /// The fit is proven exact before use, so cells are bit-identical to
    /// the per-batch cells everything else falls back to, each of which
    /// profiles and analyzes its batch (an anchor the rejected fit
    /// analyzed is not profiled again).
    pub fn sweep_traced(
        &self,
        base: &TrainJobSpec,
        batches: &[usize],
        ctx: &TraceContext,
    ) -> Vec<(usize, Result<Estimate, EstimateError>)> {
        let grid = self.sweep_grid(base, batches, ctx);
        let device = self.config.estimator.device;
        let estimates = self.parallel_fill(batches.len(), |i| {
            self.batch_cell(base, batches[i], device, &grid, ctx)
        });
        batches.iter().copied().zip(estimates).collect()
    }

    /// Admission control: the largest batch in `[lo, hi]` whose estimate
    /// fits `device` without a predicted OOM, or `Ok(None)` when even `lo`
    /// does not fit.
    ///
    /// A coarse parallel sweep first brackets the fit/OOM frontier (warming
    /// the cache), then bisection pins it down; probe batches hit
    /// `device`'s simulation shard on repeat queries. A range wide enough
    /// for a fit rides the family's cached fit on every device, so a
    /// repeat for *another* device pays only for its own simulations.
    /// Every probe records under `ctx`.
    ///
    /// # Panics
    /// Panics unless `1 <= lo <= hi`.
    ///
    /// # Errors
    /// Propagates the first Analyzer failure hit by a probe — an
    /// estimation error is an error, never a "does not fit" verdict.
    pub fn max_batch_for_device_traced(
        &self,
        base: &TrainJobSpec,
        device: GpuDevice,
        lo: usize,
        hi: usize,
        ctx: &TraceContext,
    ) -> Result<Option<usize>, EstimateError> {
        assert!(lo >= 1 && lo <= hi, "invalid batch range [{lo}, {hi}]");

        // A wide-enough range rides one parameterized replay: every
        // probe — bracket and bisection alike — materializes from it, so
        // the whole admission query costs three anchor profiles. Probes
        // are cells of `EstimatorConfig::for_device(device)` either way,
        // so the bisection walks identical estimates and lands on the
        // identical answer.
        let grid = if hi - lo + 1 >= MIN_INCREMENTAL_POINTS {
            self.param_for(base, lo, hi, ctx)
        } else {
            BatchGrid::PerBatch(Vec::new())
        };

        // Coarse bracket: a parallel sweep over an evenly spaced grid
        // warms the cache and narrows the frontier. The grid is capped —
        // on many-core hosts an uncapped grid would degenerate into an
        // exhaustive profile of the whole range, where bracket + bisect
        // needs only a handful of probes.
        let points = coarse_grid(
            lo,
            hi,
            self.worker_count(usize::MAX).min(MAX_BRACKET_POINTS),
        );
        let mut coarse = Vec::with_capacity(points.len());
        let probes = self.parallel_fill(points.len(), |i| {
            self.batch_cell(base, points[i], device, &grid, ctx)
        });
        for (&batch, estimate) in points.iter().zip(probes) {
            coarse.push((batch, !estimate?.oom_predicted));
        }
        if !coarse.first().map(|&(_, fits)| fits).unwrap_or(false) {
            return Ok(None);
        }
        let mut lo = coarse
            .iter()
            .rev()
            .find(|&&(_, fits)| fits)
            .map(|&(b, _)| b)
            .unwrap_or(lo);
        let mut hi = coarse
            .iter()
            .find(|&&(_, fits)| !fits)
            .map(|&(b, _)| b - 1)
            .unwrap_or(hi);

        // Bisect the remaining bracket; probes land in the shared caches.
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            let estimate = self.batch_cell(base, mid, device, &grid, ctx)?;
            if !estimate.oom_predicted {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Ok(Some(lo))
    }
}

/// What [`EstimationService::fill_sim_cell`] did with an estimate
/// computed elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellFill {
    /// The cell was empty and now holds the estimate, journaled.
    Filled,
    /// Nothing changed: the device is unknown, or the cell is already
    /// present and is never overwritten.
    Kept,
    /// The estimate cannot be a cell of the service's estimator, and
    /// nothing was stored. Every cell's `peak_bytes` is its
    /// `job_peak_bytes` plus the device's framework bytes plus the
    /// context allowance; its `tensor_peak_bytes` is at most its
    /// `job_peak_bytes`; a peak past the device's usable capacity is
    /// `oom_predicted`; and it carries no usage curve.
    Rejected,
}

/// Future resolving to one estimate ([`AsyncEstimationService::submit`]).
pub type EstimateFuture = PoolFuture<Result<Estimate, EstimateError>>;

/// Future resolving to a whole batch-size sweep, in grid order
/// ([`AsyncEstimationService::sweep`]). The outer `Result` carries
/// only cancellation/deadline outcomes; per-batch estimation failures stay
/// inside the vector.
pub type SweepFuture = PoolFuture<SweepOutcome>;

/// Output of [`AsyncEstimationService::sweep`].
pub type SweepOutcome = Result<Vec<(usize, Result<Estimate, EstimateError>)>, EstimateError>;

/// Future resolving to an admission-control answer
/// ([`AsyncEstimationService::plan`]).
pub type PlanFuture = PoolFuture<Result<Option<usize>, EstimateError>>;

/// Future resolving to a whole device matrix
/// ([`AsyncEstimationService::matrix`]). The outer `Result`
/// carries unknown-device / cancellation / deadline outcomes; per-cell
/// estimation failures stay inside the matrix.
pub type MatrixFuture = PoolFuture<Result<DeviceMatrix, EstimateError>>;

/// Future resolving to a placement decision
/// ([`AsyncEstimationService::placement`]).
pub type PlacementFuture = PoolFuture<Result<Option<DevicePlacement>, EstimateError>>;

/// The asynchronous estimation front end: a scheduler event loop submits
/// queries and receives [`PoolFuture`]s, instead of burning a blocked
/// thread per in-flight question.
///
/// A query's cache reads run on the submitting thread, and a query they
/// answer comes back already settled; only a query that must compute is
/// answered by a fixed, channel-fed worker pool. Both halves run over a
/// shared [`EstimationService`], so everything the blocking service
/// guarantees carries over: estimates are bit-identical to the sequential
/// [`Estimator`](xmem_core::Estimator), concurrent identical queries
/// single-flight onto one profile run, and degenerate jobs are answered
/// from the negative cache.
///
/// There is one method per route — [`submit`](Self::submit) (one
/// estimate, on the primary or a named device), [`sweep`](Self::sweep),
/// [`plan`](Self::plan), [`matrix`](Self::matrix) and
/// [`placement`](Self::placement) — and each takes an optional deadline
/// and a request trace; an untraced caller passes
/// [`TraceContext::disabled`].
///
/// Three controls make it safe under scheduler-scale load:
/// * **Backpressure** — the submission queue is bounded; a full queue
///   fails fast with [`SubmitError::Busy`] instead of queueing without
///   bound.
/// * **Cancellation** — [`EstimateFuture::cancel`](PoolFuture::cancel)
///   resolves the future to [`EstimateError::Cancelled`]; a job cancelled
///   before a worker claims it never runs at all.
/// * **Per-query deadlines** — a route's `deadline` bounds the query;
///   a dedicated timer thread settles the future with
///   [`EstimateError::DeadlineExceeded`] when it passes (`.await`-ing
///   consumers are woken at the deadline, not at the next pool
///   completion), and a job no worker has claimed by then never runs.
///
/// # Example
///
/// ```
/// use xmem_service::{block_on, join_all, AsyncEstimationService, TraceContext};
/// use xmem_runtime::{GpuDevice, TrainJobSpec};
/// use xmem_models::ModelId;
/// use xmem_optim::OptimizerKind;
///
/// let service = AsyncEstimationService::for_device(GpuDevice::rtx3060());
/// let spec = TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8)
///     .with_iterations(2);
/// // Submit a herd of identical admission checks...
/// let futures: Vec<_> = (0..16)
///     .map(|_| {
///         service
///             .submit(&spec, None, None, &TraceContext::disabled())
///             .expect("queue has room")
///     })
///     .collect();
/// // ...and drive them all from one thread.
/// let estimates = block_on(join_all(futures));
/// assert!(estimates.windows(2).all(|w| w[0] == w[1]));
/// // The herd coalesced onto a single CPU profile.
/// assert_eq!(service.service().profile_runs(), 1);
/// ```
#[derive(Debug)]
pub struct AsyncEstimationService {
    service: Arc<EstimationService>,
    pool: WorkerPool,
    /// Actively settles deadline-carrying futures at their due time, so
    /// `.await`-ing consumers are not at the mercy of the next pool
    /// completion.
    timer: DeadlineTimer,
}

impl AsyncEstimationService {
    /// An async front end with its own service of
    /// [`ServiceConfig::for_device`] defaults, all-core workers and a
    /// 1024-deep submission queue.
    #[must_use]
    pub fn for_device(device: GpuDevice) -> Self {
        let service = Arc::new(EstimationService::new(ServiceConfig::for_device(device)));
        AsyncEstimationService::from_service(service, 0, 1024)
    }

    /// Wraps an existing (possibly shared) blocking service — the async
    /// and blocking front ends then share one cache, single-flight table
    /// and negative cache. `workers` = 0 uses all cores; `queue_depth`
    /// bounds queued-but-unclaimed submissions, past which a submission
    /// that must compute fails fast with [`SubmitError::Busy`].
    #[must_use]
    pub fn from_service(
        service: Arc<EstimationService>,
        workers: usize,
        queue_depth: usize,
    ) -> Self {
        AsyncEstimationService {
            service,
            pool: WorkerPool::new(all_cores_if_zero(workers), queue_depth),
            timer: DeadlineTimer::new(),
        }
    }

    /// The underlying blocking service (shared cache and counters).
    #[must_use]
    pub fn service(&self) -> &EstimationService {
        &self.service
    }

    /// Worker threads answering queries.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.threads()
    }

    /// The one dispatch rule of every route: `probe` makes the route's
    /// counted cache reads on the calling thread, and when they hold the
    /// whole answer the returned future is already settled, with a
    /// `service.call` span and no `pool.queue` span — a resident read
    /// never meets [`SubmitError::Busy`]. Otherwise what the probe read
    /// goes to the pool, where `fill` computes only what is missing. A
    /// query whose deadline has passed settles with
    /// [`EstimateError::DeadlineExceeded`] before it reads anything.
    ///
    /// The pool settles the promise even if `fill` panics (the future
    /// resolves to [`EstimateError::Internal`]) and the worker thread
    /// survives, so the pool stays at full strength.
    fn dispatch<V, P>(
        &self,
        deadline: Option<Instant>,
        ctx: &TraceContext,
        probe: impl FnOnce(&EstimationService) -> Probe<Result<V, EstimateError>, P>,
        fill: impl FnOnce(&EstimationService, P, &TraceContext) -> Result<V, EstimateError>
            + Send
            + 'static,
    ) -> Result<PoolFuture<Result<V, EstimateError>>, SubmitError>
    where
        V: Clone + Send + 'static,
        P: Send + 'static,
    {
        let (promise, future) = promise_pair(deadline);
        let deferred = settle_or_defer(promise, || {
            let mut call = ctx.span("service.call");
            let probed = probe(&self.service);
            match &probed {
                Probe::Done(result) => call.set_outcome(outcome_of(result)),
                // The pool's `service.call` span times the fill.
                Probe::Fill(_) => call.discard(),
            }
            probed
        });
        let Some((promise, state)) = deferred else {
            return Ok(future);
        };
        let service = Arc::clone(&self.service);
        let ctx = ctx.clone();
        let queue = ctx.span("pool.queue");
        self.pool.try_execute_settling(promise, move || {
            drop(queue);
            let mut call = ctx.span("service.call");
            let result = fill(&service, state, &ctx);
            call.set_outcome(outcome_of(&result));
            result
        })?;
        // Only accepted, deadline-carrying submissions are watched.
        self.timer.watch(&future);
        Ok(future)
    }

    /// Submits one estimation query against the primary device, or a
    /// *named* registered device when `device_name` is given (see
    /// [`EstimationService::estimate_traced`]; a named device's answer shares
    /// its simulation shard with every matrix query). Every pipeline stage
    /// the query touches records under `ctx`'s trace id.
    ///
    /// The cell read, and after a miss the negative-cache read, happen on
    /// the calling thread. A cell hit
    /// (or an unknown device, or a remembered failure) is the whole
    /// answer: the returned future is already settled, the trace has a
    /// `service.call` span and no `pool.queue` span, and the submit never
    /// meets `Busy`. Only a query that must compute goes through the
    /// pool: queue wait records as `pool.queue`, the computation as
    /// `service.call`.
    ///
    /// # Errors
    /// [`SubmitError::Busy`] when the bounded submission queue is full
    /// and the query must compute.
    pub fn submit(
        &self,
        spec: &TrainJobSpec,
        device_name: Option<&str>,
        deadline: Option<Instant>,
        ctx: &TraceContext,
    ) -> Result<EstimateFuture, SubmitError> {
        self.dispatch(
            deadline,
            ctx,
            |service| {
                service
                    .probe_estimate_at(spec, device_name, ctx)
                    .map_fill(|fill| (spec.clone(), fill))
            },
            |service, (spec, fill), ctx| service.fill_estimate(&spec, fill, ctx),
        )
    }

    /// Submits a whole batch-size sweep as one pooled query; the worker
    /// fans the grid out exactly like [`EstimationService::sweep_traced`].
    ///
    /// # Errors
    /// [`SubmitError::Busy`] when the bounded submission queue is full.
    pub fn sweep(
        &self,
        base: &TrainJobSpec,
        batches: &[usize],
        deadline: Option<Instant>,
        ctx: &TraceContext,
    ) -> Result<SweepFuture, SubmitError> {
        self.dispatch(
            deadline,
            ctx,
            |_| Probe::Fill((base.clone(), batches.to_vec())),
            |service, (base, batches), ctx| Ok(service.sweep_traced(&base, &batches, ctx)),
        )
    }

    /// Submits an admission-control query: the largest batch in
    /// `[lo, hi]` fitting `device` (see
    /// [`EstimationService::max_batch_for_device_traced`]).
    ///
    /// # Panics
    /// Panics (before dispatch) unless `1 <= lo <= hi`, matching the
    /// blocking API.
    ///
    /// # Errors
    /// [`SubmitError::Busy`] when the bounded submission queue is full.
    pub fn plan(
        &self,
        base: &TrainJobSpec,
        device: GpuDevice,
        lo: usize,
        hi: usize,
        deadline: Option<Instant>,
        ctx: &TraceContext,
    ) -> Result<PlanFuture, SubmitError> {
        assert!(lo >= 1 && lo <= hi, "invalid batch range [{lo}, {hi}]");
        self.dispatch(
            deadline,
            ctx,
            |_| Probe::Fill(base.clone()),
            move |service, base, ctx| {
                service.max_batch_for_device_traced(&base, device, lo, hi, ctx)
            },
        )
    }

    /// Submits a whole device matrix as one query: every job in
    /// `specs` × every named device, with one analysis per distinct job
    /// fanned out to per-device simulations (see
    /// [`EstimationService::estimate_matrix_traced`]). The cells are read on
    /// the calling thread; a matrix whose cells all hit (or that names an
    /// unknown device) is answered there, already settled and without a
    /// `pool.queue` span. A matrix with a missing cell goes to the pool,
    /// which computes only the missing cells (see
    /// [`submit`](Self::submit)).
    ///
    /// # Errors
    /// [`SubmitError::Busy`] when the bounded submission queue is full
    /// and a cell must be computed.
    pub fn matrix(
        &self,
        specs: &[TrainJobSpec],
        devices: &[&str],
        deadline: Option<Instant>,
        ctx: &TraceContext,
    ) -> Result<MatrixFuture, SubmitError> {
        self.dispatch(
            deadline,
            ctx,
            |service| {
                service.probe_matrix(specs, devices, ctx).map_fill(|fill| {
                    let names: Vec<String> = devices.iter().map(|&d| d.to_string()).collect();
                    (specs.to_vec(), names, fill)
                })
            },
            |service, (specs, names, fill), ctx| {
                let devices: Vec<&str> = names.iter().map(String::as_str).collect();
                service.fill_matrix(&specs, &devices, fill, ctx)
            },
        )
    }

    /// Submits a placement query: the best registered device for `spec`
    /// (see [`EstimationService::best_device_for_job_traced`]). The cells up to
    /// the first fit are read on the calling thread; a placement they
    /// decide is answered there, already settled and without a
    /// `pool.queue` span. Otherwise the pool computes from the first
    /// missing cell on (see [`submit`](Self::submit)).
    ///
    /// # Errors
    /// [`SubmitError::Busy`] when the bounded submission queue is full
    /// and a cell must be computed.
    pub fn placement(
        &self,
        spec: &TrainJobSpec,
        deadline: Option<Instant>,
        ctx: &TraceContext,
    ) -> Result<PlacementFuture, SubmitError> {
        self.dispatch(
            deadline,
            ctx,
            |service| {
                service
                    .probe_placement(spec, ctx)
                    .map_fill(|fill| (spec.clone(), fill))
            },
            |service, (spec, fill), ctx| service.fill_placement(&spec, fill, ctx),
        )
    }

    /// Panics that escaped a raw pool job and were caught by the worker
    /// loop (see [`WorkerPool::panics`]). Queries submitted through this
    /// front end convert panics into [`EstimateError::Internal`] results
    /// instead, so they never appear here.
    #[must_use]
    pub fn pool_panics(&self) -> u64 {
        self.pool.panics()
    }
}

/// A matrix from its cells, column-major (cell `c` is device `c / jobs`,
/// job `c % jobs`), every one present.
fn assemble_matrix(
    specs: &[TrainJobSpec],
    devices: &[&str],
    mut cells: Vec<Option<Result<Estimate, EstimateError>>>,
) -> DeviceMatrix {
    let jobs = specs.len();
    let device_names: Vec<String> = devices.iter().map(|&d| d.to_string()).collect();
    let rows = specs
        .iter()
        .enumerate()
        .map(|(job_index, spec)| MatrixRow {
            spec: spec.clone(),
            cells: device_names
                .iter()
                .enumerate()
                .map(|(device_index, name)| MatrixCell {
                    device: name.clone(),
                    estimate: cells[device_index * jobs + job_index]
                        .take()
                        .expect("one output per cell"),
                })
                .collect(),
        })
        .collect();
    DeviceMatrix {
        devices: device_names,
        rows,
    }
}

/// Upper bound on coarse-bracket probes in
/// [`EstimationService::max_batch_for_device_traced`].
const MAX_BRACKET_POINTS: usize = 16;

/// A thread count where 0 means one per core.
fn all_cores_if_zero(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// The `service.call` outcome tag of a query's result.
fn outcome_of<V>(result: &Result<V, EstimateError>) -> &'static str {
    if result.is_ok() {
        "ok"
    } else {
        "error"
    }
}

fn with_batch(base: &TrainJobSpec, batch: usize) -> TrainJobSpec {
    let mut spec = base.clone();
    spec.batch = batch;
    spec
}

/// An evenly spaced probe grid covering `[lo, hi]`, endpoints included.
fn coarse_grid(lo: usize, hi: usize, points: usize) -> Vec<usize> {
    if hi == lo {
        return vec![lo];
    }
    let points = points.clamp(2, hi - lo + 1);
    let mut grid: Vec<usize> = (0..points)
        .map(|i| lo + (hi - lo) * i / (points - 1))
        .collect();
    grid.dedup();
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_models::ModelId;
    use xmem_optim::OptimizerKind;
    use xmem_runtime::profile_on_cpu;

    fn small_spec(batch: usize) -> TrainJobSpec {
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch).with_iterations(2)
    }

    #[test]
    fn estimate_matches_sequential_path() {
        let untraced = TraceContext::disabled();
        let device = GpuDevice::rtx3060();
        let service = EstimationService::for_device(device);
        let spec = small_spec(8);
        let from_service = service.estimate_traced(&spec, None, &untraced).unwrap();
        let sequential = Estimator::new(EstimatorConfig::for_device(device))
            .estimate_job(&spec)
            .unwrap();
        assert_eq!(from_service, sequential);
    }

    #[test]
    fn cached_estimate_is_identical_and_counts_a_hit() {
        let untraced = TraceContext::disabled();
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let spec = small_spec(8);
        let cold = service.estimate_traced(&spec, None, &untraced).unwrap();
        let warm = service.estimate_traced(&spec, None, &untraced).unwrap();
        assert_eq!(cold, warm);
        let stats = service.sim_stats().cache;
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(service.profile_runs(), 1);
    }

    #[test]
    fn repeated_sweep_is_fully_cached() {
        let untraced = TraceContext::disabled();
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let batches = [1, 2, 4, 8];
        let first = service.sweep_traced(&small_spec(1), &batches, &untraced);
        // The incremental path profiles only its three anchors.
        assert_eq!(service.profile_runs(), 3);
        assert_eq!(service.sim_stats().param_replays, 1);

        let second = service.sweep_traced(&small_spec(1), &batches, &untraced);
        assert_eq!(
            service.profile_runs(),
            3,
            "a repeated sweep re-profiles nothing"
        );
        assert_eq!(
            service.sim_stats().param_replays,
            1,
            "a repeated sweep reuses the cached fit"
        );
        for ((b1, e1), (b2, e2)) in first.iter().zip(&second) {
            assert_eq!(b1, b2);
            assert_eq!(e1.as_ref().unwrap(), e2.as_ref().unwrap());
        }
    }

    #[test]
    fn short_sweeps_stay_on_the_per_batch_path() {
        let untraced = TraceContext::disabled();
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let batches = [1, 2, 4];
        service.sweep_traced(&small_spec(1), &batches, &untraced);
        let stats = service.sim_stats();
        assert_eq!(
            stats.param_replays, 0,
            "three points cannot beat three anchors"
        );
        assert_eq!(stats.incremental_cells, 0);
        assert_eq!(service.profile_runs(), batches.len() as u64);
    }

    #[test]
    fn incremental_sweep_counts_cells_and_keeps_the_invariant() {
        let untraced = TraceContext::disabled();
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let batches = [1, 2, 4, 8, 12, 16];
        let swept = service.sweep_traced(&small_spec(1), &batches, &untraced);
        assert!(swept.iter().all(|(_, e)| e.is_ok()));
        let stats = service.sim_stats();
        assert_eq!(stats.param_replays, 1, "one fit per family");
        assert_eq!(stats.incremental_cells, batches.len() as u64);
        assert_eq!(
            stats.fast_path_hits + stats.full_replays + stats.incremental_cells,
            stats.sim_runs
        );
        assert_eq!(service.profile_runs(), 3, "anchors only");
    }

    #[test]
    fn disabled_incremental_sweep_is_bit_identical() {
        let untraced = TraceContext::disabled();
        // Sweeps too short for a fit take the per-batch path; over the
        // same points they agree with the incremental sweep bit for bit.
        let incremental = EstimationService::for_device(GpuDevice::rtx3060());
        let per_batch = EstimationService::for_device(GpuDevice::rtx3060());
        let batches = [1, 2, 4, 8, 12];
        let a = incremental.sweep_traced(&small_spec(1), &batches, &untraced);
        let b: Vec<_> = batches
            .chunks(3)
            .flat_map(|short| per_batch.sweep_traced(&small_spec(1), short, &untraced))
            .collect();
        for ((b1, e1), (b2, e2)) in a.iter().zip(&b) {
            assert_eq!(b1, b2);
            assert_eq!(e1.as_ref().unwrap(), e2.as_ref().unwrap());
        }
        assert_eq!(incremental.sim_stats().param_replays, 1);
        assert_eq!(per_batch.sim_stats().param_replays, 0);
        assert_eq!(per_batch.profile_runs(), batches.len() as u64);
    }

    #[test]
    fn every_builtin_default_estimator_admits_the_fit() {
        for (name, device) in DeviceRegistry::builtin().snapshot() {
            let estimator = Estimator::new(EstimatorConfig::for_device(device));
            assert!(estimator.incremental_exact(), "{name}");
            assert_eq!(
                estimator.config().orchestrator,
                xmem_core::Orchestrator::default(),
                "{name}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "paper-default estimator")]
    fn a_timeline_recording_estimator_is_refused() {
        let mut config = ServiceConfig::for_device(GpuDevice::rtx3060());
        config.estimator.record_timeline = true;
        let _ = EstimationService::new(config);
    }

    #[test]
    fn a_sweep_row_is_the_estimate_cell_at_its_batch() {
        let untraced = TraceContext::disabled();
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let swept = service.sweep_traced(&small_spec(1), &[1, 2, 4, 8, 12], &untraced);
        assert_eq!(service.sim_stats().param_replays, 1);
        let (profiles, runs) = (service.profile_runs(), service.sim_runs());
        let hits = service.sim_stats().cache.hits;
        // Batch 2 is not one of the anchors (1, 6, 12).
        let estimate = service
            .estimate_traced(&small_spec(2), None, &untraced)
            .unwrap();
        assert_eq!(&estimate, swept[1].1.as_ref().unwrap());
        assert_eq!(service.profile_runs(), profiles, "no new profile");
        assert_eq!(service.sim_runs(), runs, "no new replay");
        assert_eq!(service.sim_stats().cache.hits, hits + 1, "a cell hit");
    }

    #[test]
    fn sweep_preserves_input_order() {
        let untraced = TraceContext::disabled();
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let batches = [8, 1, 4, 2];
        let results = service.sweep_traced(&small_spec(1), &batches, &untraced);
        let got: Vec<usize> = results.iter().map(|&(b, _)| b).collect();
        assert_eq!(got, batches);
    }

    #[test]
    fn max_batch_brackets_and_bisects_the_frontier() {
        let untraced = TraceContext::disabled();
        let device = GpuDevice::rtx3060();
        let service = EstimationService::for_device(device);
        let base = small_spec(1);
        let max = service
            .max_batch_for_device_traced(&base, device, 1, 16, &untraced)
            .expect("estimation succeeds");
        // MobileNetV3-Small fits this device comfortably across the range.
        assert_eq!(max, Some(16));
        // The answer agrees with direct estimates at the frontier.
        let at_max = service
            .estimate_traced(&with_batch(&base, 16), None, &untraced)
            .unwrap();
        assert!(!at_max.oom_predicted);
    }

    #[test]
    fn roomy_fleet_serves_every_cell_from_one_unbounded_replay() {
        let untraced = TraceContext::disabled();
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let jobs = [small_spec(4), small_spec(8)];
        let devices = ["rtx3060", "rtx4060", "a100"];
        let matrix = service
            .estimate_matrix_traced(&jobs, &devices, &untraced)
            .unwrap();
        assert!(matrix
            .rows
            .iter()
            .all(|r| r.cells.iter().all(MatrixCell::fits)));
        let sims = service.sim_stats();
        assert_eq!(sims.sim_runs, (jobs.len() * devices.len()) as u64);
        assert_eq!(
            sims.full_replays, 0,
            "an all-roomy fleet must not pay a single bounded replay"
        );
        assert_eq!(sims.fast_path_hits, sims.sim_runs);
        assert_eq!(
            sims.unbounded_replays,
            jobs.len() as u64,
            "one unbounded replay per job"
        );
    }

    #[test]
    fn a_lone_named_cell_is_one_bounded_replay() {
        let untraced = TraceContext::disabled();
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let counts = |service: &EstimationService| {
            let sims = service.sim_stats();
            (sims.sim_runs, sims.full_replays, sims.unbounded_replays)
        };
        service
            .estimate_traced(&small_spec(4), Some("a100"), &untraced)
            .unwrap();
        assert_eq!(counts(&service), (1, 1, 0), "estimate_on");
        service
            .estimate_for_device(&small_spec(8), GpuDevice::rtx4060())
            .unwrap();
        assert_eq!(counts(&service), (2, 2, 0), "estimate_for_device");
    }

    #[test]
    fn replayed_events_count_the_events_each_replay_walked() {
        let untraced = TraceContext::disabled();
        let jobs = [small_spec(4), small_spec(8)];
        let devices = ["rtx3060", "rtx4060"];
        let roomy = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
        let replays: Vec<UnboundedReplay> = jobs
            .iter()
            .map(|job| {
                roomy.replay_unbounded(&Analyzer::new().analyze(&profile_on_cpu(job)).unwrap())
            })
            .collect();
        let per_job: u64 = replays.iter().map(|r| r.events as u64).sum();
        // Fast path: one unbounded replay per job, every cell derived.
        let fast = EstimationService::for_device(GpuDevice::rtx3060());
        fast.estimate_matrix_traced(&jobs, &devices, &untraced)
            .unwrap();
        assert_eq!(fast.sim_stats().replayed_events, per_job);
        // A sweep too short for a fit replays each new row in full.
        fast.sweep_traced(&jobs[0], &[1, 2], &untraced);
        let swept: u64 = [1, 2]
            .iter()
            .map(|&b| {
                let analyzed = Analyzer::new()
                    .analyze(&profile_on_cpu(&small_spec(b)))
                    .unwrap();
                roomy.replay_unbounded(&analyzed).events as u64
            })
            .sum();
        assert_eq!(fast.sim_stats().replayed_events, per_job + swept);
        // A device that runs out of memory stops the replay there.
        let tight = GpuDevice {
            name: "tight",
            capacity: replays[0].peak_reserved / 2,
            framework_bytes: 0,
            init_bytes: 0,
        };
        fast.register_device("tight", tight);
        let estimate = fast
            .estimate_traced(&jobs[0], Some("tight"), &untraced)
            .unwrap();
        assert!(estimate.oom_predicted);
        let walked = fast.sim_stats().replayed_events - per_job - swept;
        assert!(0 < walked && walked < replays[0].events as u64, "{walked}");
    }

    #[test]
    fn replays_outside_the_sim_cells_count_as_runs_and_full_replays() {
        let untraced = TraceContext::disabled();
        // A sweep too short for a fit replays once per batch.
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        service.sweep_traced(&small_spec(1), &[1, 2, 4], &untraced);
        let stats = service.sim_stats();
        assert_eq!(
            stats.fast_path_hits + stats.full_replays + stats.incremental_cells,
            stats.sim_runs
        );
        assert_eq!((stats.sim_runs, stats.full_replays), (3, 3));
    }

    /// Offers `broken` — a valid rtx4060 cell that `break_it` altered —
    /// as a relayed estimate to a persisting service, which must refuse
    /// it without inserting or journaling anything, then accept the
    /// valid cell.
    fn assert_relayed_cell_refused(tag: &str, break_it: impl FnOnce(&mut Estimate)) {
        let untraced = TraceContext::disabled();
        let spec = small_spec(4);
        let valid = EstimationService::for_device(GpuDevice::rtx3060())
            .estimate_traced(&spec, Some("rtx4060"), &untraced)
            .unwrap();
        let mut broken = valid.clone();
        break_it(&mut broken);
        let dir = std::env::temp_dir().join(format!("xmem-cell-fill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = EstimationService::new(
            ServiceConfig::for_device(GpuDevice::rtx3060()).with_state_dir(&dir),
        );
        let journaled = service.persist_stats().journal_records;
        assert_eq!(
            service.fill_sim_cell(&spec, Some("rtx4060"), broken),
            CellFill::Rejected
        );
        assert_eq!(service.cached_cell_estimate(&spec, Some("rtx4060")), None);
        assert_eq!(service.persist_stats().journal_records, journaled);
        assert_eq!(
            service.fill_sim_cell(&spec, Some("rtx4060"), valid.clone()),
            CellFill::Filled
        );
        assert_eq!(
            service.cached_cell_estimate(&spec, Some("rtx4060")),
            Some(valid)
        );
        assert_eq!(service.persist_stats().journal_records, journaled + 1);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_relayed_peak_that_is_not_the_sum_of_its_parts_is_refused() {
        assert_relayed_cell_refused("peak", |estimate| estimate.peak_bytes += 1);
    }

    #[test]
    fn a_relayed_tensor_peak_past_the_job_peak_is_refused() {
        assert_relayed_cell_refused("tensor", |estimate| {
            estimate.tensor_peak_bytes = estimate.job_peak_bytes + 1;
        });
    }

    #[test]
    fn a_relayed_peak_past_capacity_without_an_oom_is_refused() {
        let device = GpuDevice::rtx4060();
        let allowance = EstimatorConfig::for_device(device).context_allowance;
        assert_relayed_cell_refused("oom", |estimate| {
            estimate.job_peak_bytes = device.capacity - device.init_bytes;
            estimate.peak_bytes = estimate.job_peak_bytes + device.framework_bytes + allowance;
            estimate.oom_predicted = false;
        });
    }

    #[test]
    fn a_relayed_usage_curve_is_refused() {
        let curve =
            Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx4060()).with_timeline())
                .estimate_job(&small_spec(4))
                .unwrap()
                .curve;
        assert!(!curve.is_empty());
        assert_relayed_cell_refused("curve", |estimate| estimate.curve = curve);
    }

    #[test]
    fn a_relayed_peak_that_overflows_is_refused() {
        let device = GpuDevice::rtx4060();
        let allowance = EstimatorConfig::for_device(device).context_allowance;
        assert_relayed_cell_refused("overflow", |estimate| {
            estimate.job_peak_bytes = u64::MAX;
            estimate.peak_bytes = u64::MAX
                .wrapping_add(device.framework_bytes)
                .wrapping_add(allowance);
            estimate.oom_predicted = true;
        });
    }

    #[test]
    fn every_computed_cell_keeps_the_cell_arithmetic() {
        let untraced = TraceContext::disabled();
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        let tight = GpuDevice {
            name: "tight",
            capacity: 64 << 20,
            framework_bytes: 0,
            init_bytes: 0,
        };
        service.register_device("tight", tight);
        let jobs = [small_spec(4), small_spec(32)];
        let devices = ["rtx3060", "rtx4060", "a100", "tight"];
        let matrix = service
            .estimate_matrix_traced(&jobs, &devices, &untraced)
            .unwrap();
        let mut ooms = 0;
        for row in &matrix.rows {
            for cell in &row.cells {
                let estimate = cell.estimate.as_ref().unwrap();
                let device = service.registry().get(&cell.device).unwrap();
                assert!(
                    service.cell_arithmetic_holds(&device, estimate),
                    "{}",
                    cell.device
                );
                ooms += usize::from(estimate.oom_predicted);
            }
        }
        assert!(ooms > 0, "the tight device runs out of memory");
    }

    #[test]
    fn every_cache_tier_runs_the_gated_slru() {
        let untraced = TraceContext::disabled();
        let service = EstimationService::for_device(GpuDevice::rtx3060());
        service
            .estimate_traced(&small_spec(4), Some("a100"), &untraced)
            .unwrap();
        assert_eq!(service.sim_stats().device_shards, 1);
        for (tier, stats) in [
            ("param", service.param_tier_stats()),
            ("sim", service.sim_tier_stats()),
        ] {
            assert!(stats.segmented, "{tier} tier: {stats:?}");
            assert_eq!(stats.protected_frac_permille, 875, "{tier} tier");
        }
    }

    #[test]
    fn admission_probes_pay_no_unbounded_replay() {
        let untraced = TraceContext::disabled();
        let device = GpuDevice::rtx3060();
        let service = EstimationService::for_device(device);
        let base = small_spec(1);
        service
            .max_batch_for_device_traced(&base, device, 1, 16, &untraced)
            .expect("estimation succeeds");
        let stats = service.sim_stats();
        assert_eq!(
            stats.unbounded_replays, 0,
            "each probe is a lone cell: an unbounded replay would be pure overhead"
        );
        // The whole admission query rides one parameterized replay:
        // every probe is an incremental cell, none pays a full replay.
        assert_eq!(stats.param_replays, 1);
        assert_eq!(stats.incremental_cells, stats.sim_runs);
        assert_eq!(stats.full_replays, 0);
        assert_eq!(service.profile_runs(), 3, "three anchors");

        // A matrix row (a batch no probe touched) shares one.
        service
            .estimate_matrix_traced(&[small_spec(24)], &["rtx4060"], &untraced)
            .expect("devices resolve");
        assert_eq!(service.sim_stats().unbounded_replays, 1);
    }

    #[test]
    fn narrow_admission_ranges_keep_the_legacy_probe_path() {
        let untraced = TraceContext::disabled();
        let device = GpuDevice::rtx3060();
        let service = EstimationService::for_device(device);
        let max = service
            .max_batch_for_device_traced(&small_spec(1), device, 2, 4, &untraced)
            .expect("estimation succeeds");
        assert_eq!(max, Some(4));
        let stats = service.sim_stats();
        assert_eq!(stats.param_replays, 0, "range too narrow for a fit");
        assert_eq!(stats.full_replays, stats.sim_runs);
    }

    #[test]
    fn coarse_grid_covers_endpoints() {
        assert_eq!(coarse_grid(1, 9, 3), vec![1, 5, 9]);
        assert_eq!(coarse_grid(4, 4, 8), vec![4]);
        let g = coarse_grid(1, 128, 6);
        assert_eq!(*g.first().unwrap(), 1);
        assert_eq!(*g.last().unwrap(), 128);
    }

    #[test]
    fn single_worker_fills_run_on_the_calling_thread() {
        let service =
            EstimationService::new(ServiceConfig::for_device(GpuDevice::rtx3060()).with_threads(4));
        let caller = std::thread::current().id();
        assert_eq!(
            service.parallel_fill(1, |_| std::thread::current().id()),
            vec![caller]
        );
        assert!(service.parallel_fill(0, |i| i).is_empty());
        let fanned = service.parallel_fill(8, |_| std::thread::current().id());
        assert!(
            fanned.iter().all(|&id| id != caller),
            "two or more items fan out"
        );
        let single =
            EstimationService::new(ServiceConfig::for_device(GpuDevice::rtx3060()).with_threads(1));
        assert_eq!(
            single.parallel_fill(3, |i| (i, std::thread::current().id())),
            vec![(0, caller), (1, caller), (2, caller)]
        );
    }
}
