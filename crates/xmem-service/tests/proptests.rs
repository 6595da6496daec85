//! Property-based tests of the sharded LRU cache under service-shaped
//! keys — arbitrary `(model, optimizer, batch)` workloads must never
//! change the value a key maps to, and occupancy must respect the
//! configured capacity — plus the multi-device layer under random
//! fleets: `best_device_for_job_traced` must always pick a fitting device, and
//! matrix cells must equal independent sequential estimates.

use proptest::prelude::*;
use std::collections::HashMap;
use xmem_core::{Estimator, EstimatorConfig};
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{GpuDevice, TrainJobSpec};
use xmem_service::{
    DeviceRegistry, EstimationService, JobKey, ServiceConfig, ShardedLruCache, TraceContext,
};

const MODELS: [ModelId; 4] = [
    ModelId::MobileNetV3Small,
    ModelId::DistilGpt2,
    ModelId::ResNet101,
    ModelId::T5Small,
];

const OPTIMIZERS: [OptimizerKind; 4] = [
    OptimizerKind::Adam,
    OptimizerKind::AdamW,
    OptimizerKind::Sgd { momentum: true },
    OptimizerKind::Adafactor,
];

/// A key drawn from the service's real key space: model × optimizer ×
/// batch ∈ 1..64.
fn key_strategy() -> impl Strategy<Value = JobKey> {
    (0usize..MODELS.len(), 0usize..OPTIMIZERS.len(), 1usize..64).prop_map(
        |(model, optimizer, batch)| {
            JobKey::of(&TrainJobSpec::new(
                MODELS[model],
                OPTIMIZERS[optimizer],
                batch,
            ))
        },
    )
}

/// The "peak bytes" a key would deterministically produce: the pipeline is
/// pure in the key, so a content-derived stand-in preserves the property
/// under test (cache churn must never change what a key returns) without
/// profiling real models thousands of times.
fn synthetic_peak(key: &JobKey) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever interleaving of inserts, hits and evictions a workload
    /// produces, a cached key always returns exactly the peak it was
    /// inserted with, and a miss never invents a value.
    #[test]
    fn cache_churn_never_changes_returned_peak_bytes(
        keys in proptest::collection::vec(key_strategy(), 1..200),
        capacity in 1usize..24,
        shards in 1usize..6,
    ) {
        let cache: ShardedLruCache<JobKey, u64> = ShardedLruCache::new(capacity, shards);
        let mut reference: HashMap<JobKey, u64> = HashMap::new();
        for key in &keys {
            let expected = synthetic_peak(key);
            match cache.get(key) {
                Some(peak) => prop_assert_eq!(
                    peak, expected,
                    "cache returned a different peak than was inserted"
                ),
                None => cache.insert(key.clone(), expected),
            }
            reference.insert(key.clone(), expected);
        }
        // Every still-cached entry agrees with the reference value.
        for (key, expected) in &reference {
            if let Some(peak) = cache.get(key) {
                prop_assert_eq!(peak, *expected);
            }
        }
    }

    /// Occupancy never exceeds the configured total capacity, at every
    /// step of the workload, for any shard count.
    #[test]
    fn lru_never_exceeds_configured_capacity(
        keys in proptest::collection::vec(key_strategy(), 1..300),
        capacity in 1usize..16,
        shards in 1usize..24,
    ) {
        let cache: ShardedLruCache<JobKey, u64> = ShardedLruCache::new(capacity, shards);
        prop_assert_eq!(cache.capacity(), capacity);
        for key in &keys {
            if cache.get(key).is_none() {
                cache.insert(key.clone(), synthetic_peak(key));
            }
            prop_assert!(
                cache.len() <= capacity,
                "cache holds {} entries, capacity is {}",
                cache.len(),
                capacity
            );
        }
    }

    /// Counter bookkeeping: hits + misses equals lookups, and insertions
    /// never exceed misses (every insert is caused by a miss).
    #[test]
    fn counters_are_consistent(
        keys in proptest::collection::vec(key_strategy(), 1..150),
    ) {
        let cache: ShardedLruCache<JobKey, u64> = ShardedLruCache::new(32, 4);
        for key in &keys {
            if cache.get(key).is_none() {
                cache.insert(key.clone(), synthetic_peak(key));
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, keys.len() as u64);
        prop_assert_eq!(stats.insertions, stats.misses);
        prop_assert!(stats.evictions <= stats.insertions);
    }
}

// ---------------------------------------------------------------------------
// O(1) LRU vs a scan-based reference model, operation for operation.
// ---------------------------------------------------------------------------

/// One cache operation drawn by the model-comparison proptest.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Get(u16),
    Peek(u16),
    Insert(u16),
}

fn op_strategy() -> impl Strategy<Value = CacheOp> {
    (0u8..3, 0u16..48).prop_map(|(kind, key)| match kind {
        0 => CacheOp::Get(key),
        1 => CacheOp::Peek(key),
        _ => CacheOp::Insert(key),
    })
}

/// Deterministic value/cost for a key, so cache and model always agree on
/// what an insert carries.
fn op_value(key: u16) -> u64 {
    (u64::from(key) * 7919) % 97 + 1
}

/// The reference model: exactly the scan-based single-shard LRU the O(1)
/// implementation replaced — recency ticks, `min_by_key` eviction sweeps,
/// linear byte accounting.
#[derive(Debug, Default)]
struct ScanModel {
    map: HashMap<u16, (u64, u64, u64)>, // key -> (value, cost, tick)
    clock: u64,
    evictions: u64,
}

impl ScanModel {
    fn get(&mut self, key: u16) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&key).map(|e| {
            e.2 = clock;
            e.0
        })
    }

    fn peek(&self, key: u16) -> Option<u64> {
        self.map.get(&key).map(|e| e.0)
    }

    fn bytes(&self) -> u64 {
        self.map.values().map(|e| e.1).sum()
    }

    fn insert(&mut self, key: u16, value: u64, cost: u64, capacity: usize) {
        self.clock += 1;
        self.map.insert(key, (value, cost, self.clock));
        while self.map.len() > capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, &(_, _, tick))| tick)
                .map(|(&k, _)| k)
                .expect("non-empty while over limit");
            self.map.remove(&oldest);
            self.evictions += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every interleaving of get/peek/insert on a single-shard cache must
    /// match the scan-based reference model operation for operation:
    /// identical lookup results, identical resident key sets, identical
    /// eviction counts, and the byte gauge at every step. (Single shard so
    /// hashing does not spread keys: the model and the cache then see the
    /// exact same per-shard workload.)
    #[test]
    fn o1_lru_matches_scan_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        capacity in 1usize..24,
    ) {
        let cache: ShardedLruCache<u16, u64> =
            ShardedLruCache::new(capacity, 1).with_weigher(|v: &u64| *v);
        let mut model = ScanModel::default();

        for &op in &ops {
            match op {
                CacheOp::Get(key) => {
                    prop_assert_eq!(cache.get(&key), model.get(key), "get({}) diverged", key);
                }
                CacheOp::Peek(key) => {
                    prop_assert_eq!(cache.peek(&key), model.peek(key), "peek({}) diverged", key);
                }
                CacheOp::Insert(key) => {
                    let value = op_value(key);
                    cache.insert(key, value);
                    model.insert(key, value, value, capacity);
                }
            }
            prop_assert_eq!(cache.len(), model.map.len(), "resident count diverged");
            prop_assert_eq!(cache.bytes_in_use(), model.bytes(), "byte gauge diverged");
            cache.check_invariants();
        }

        // Same survivors, not just the same number of them.
        for (&key, &(value, _, _)) in &model.map {
            prop_assert_eq!(cache.peek(&key), Some(value), "model key {} missing", key);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.evictions, model.evictions, "eviction counts diverged");
        // Stats invariants: every lookup is a hit or a miss; every insert
        // lands.
        let (gets, inserts) = ops.iter().fold((0u64, 0u64), |(g, i), op| match op {
            CacheOp::Get(_) => (g + 1, i),
            CacheOp::Peek(_) => (g, i),
            CacheOp::Insert(_) => (g, i + 1),
        });
        prop_assert_eq!(stats.hits + stats.misses, gets);
        prop_assert_eq!(stats.insertions, inserts);
        prop_assert!(stats.evictions <= stats.insertions);
    }
}

/// The segmented (SLRU) reference model: per-key `(value, cost, tick,
/// protected)` with a global clock. A get promotes a probation entry to
/// protected (demoting the oldest protected entry when the segment
/// overflows, stamping it with a fresh tick — the demoted entry lands at
/// probation's MRU in the real cache), and eviction victims are the
/// oldest probation entry first, then the oldest protected one.
#[derive(Debug, Default)]
struct SegmentedModel {
    map: HashMap<u16, (u64, u64, u64, bool)>, // key -> (value, cost, tick, protected)
    clock: u64,
    evictions: u64,
    promoted: u64,
    protected_cap: usize,
}

impl SegmentedModel {
    fn protected_len(&self) -> usize {
        self.map.values().filter(|e| e.3).count()
    }

    fn oldest(&self, protected: bool) -> Option<u16> {
        self.map
            .iter()
            .filter(|(_, &(_, _, _, p))| p == protected)
            .min_by_key(|(_, &(_, _, tick, _))| tick)
            .map(|(&k, _)| k)
    }

    fn get(&mut self, key: u16) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        let cap = self.protected_cap;
        let (value, promote) = {
            let entry = self.map.get_mut(&key)?;
            entry.2 = clock;
            let promote = cap > 0 && !entry.3;
            if promote {
                entry.3 = true;
            }
            (entry.0, promote)
        };
        if promote {
            self.promoted += 1;
            if self.protected_len() > cap {
                let demoted = self
                    .oldest(true)
                    .expect("a protected entry exists while over cap");
                self.clock += 1;
                let clock = self.clock;
                let entry = self.map.get_mut(&demoted).expect("demotion victim exists");
                entry.2 = clock;
                entry.3 = false;
            }
        }
        Some(value)
    }

    fn peek(&self, key: u16) -> Option<u64> {
        self.map.get(&key).map(|e| e.0)
    }

    fn bytes(&self) -> u64 {
        self.map.values().map(|e| e.1).sum()
    }

    fn insert(&mut self, key: u16, value: u64, cost: u64, capacity: usize) {
        self.clock += 1;
        // A replacement keeps its segment; a new key starts in probation.
        let protected = self.map.get(&key).is_some_and(|e| e.3);
        self.map.insert(key, (value, cost, self.clock, protected));
        while self.map.len() > capacity {
            let victim = self
                .oldest(false)
                .or_else(|| self.oldest(true))
                .expect("non-empty while over limit");
            self.map.remove(&victim);
            self.evictions += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Segmented admission against the SLRU reference model, operation
    /// for operation: identical lookups, survivors, eviction **and
    /// promotion** counts, with the probation-first eviction order
    /// and protected-overflow demotion matching exactly.
    #[test]
    fn segmented_lru_matches_slru_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        capacity in 1usize..24,
        // Drawn in eighths so every protected/probation split is hit,
        // including the degenerate 0 (plain LRU) and all-protected ends.
        // (The vendored proptest has no RangeInclusive strategy.)
        eighths in 0u32..9,
    ) {
        let frac = f64::from(eighths) / 8.0;
        let cache: ShardedLruCache<u16, u64> = ShardedLruCache::new(capacity, 1)
            .with_segmented_admission(frac)
            .with_weigher(|v: &u64| *v);
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let protected_cap = ((capacity as f64 * frac).round() as usize).min(capacity);
        let mut model = SegmentedModel {
            protected_cap,
            ..SegmentedModel::default()
        };

        for &op in &ops {
            match op {
                CacheOp::Get(key) => {
                    prop_assert_eq!(cache.get(&key), model.get(key), "get({}) diverged", key);
                }
                CacheOp::Peek(key) => {
                    prop_assert_eq!(cache.peek(&key), model.peek(key), "peek({}) diverged", key);
                }
                CacheOp::Insert(key) => {
                    let value = op_value(key);
                    cache.insert(key, value);
                    model.insert(key, value, value, capacity);
                }
            }
            prop_assert_eq!(cache.len(), model.map.len(), "resident count diverged");
            prop_assert_eq!(cache.bytes_in_use(), model.bytes(), "byte gauge diverged");
            cache.check_invariants();
        }

        for (&key, &(value, _, _, _)) in &model.map {
            prop_assert_eq!(cache.peek(&key), Some(value), "model key {} missing", key);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.evictions, model.evictions, "eviction counts diverged");
        prop_assert_eq!(stats.promoted, model.promoted, "promotion counts diverged");
        if protected_cap == 0 {
            prop_assert_eq!(stats.promoted, 0, "plain mode must never promote");
        }
    }

    /// Adaptive tiering with the tuner frozen against the same SLRU
    /// reference model, operation for operation: with tuning disabled the
    /// sketch, ghost lists and admission gate are all inert,
    /// so the machinery must be bit-identical to a static split at the
    /// same fraction. (Eighths have exact permille representations, so
    /// the integer tier caps equal the static path's float rounding.)
    #[test]
    fn frozen_adaptive_matches_the_slru_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        capacity in 1usize..24,
        eighths in 0u32..9,
    ) {
        let frac = f64::from(eighths) / 8.0;
        let cache: ShardedLruCache<u16, u64> = ShardedLruCache::new(capacity, 1)
            .with_adaptive_tuning_disabled(frac)
            .with_weigher(|v: &u64| *v);
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let protected_cap = ((capacity as f64 * frac).round() as usize).min(capacity);
        let mut model = SegmentedModel {
            protected_cap,
            ..SegmentedModel::default()
        };

        for &op in &ops {
            match op {
                CacheOp::Get(key) => {
                    prop_assert_eq!(cache.get(&key), model.get(key), "get({}) diverged", key);
                }
                CacheOp::Peek(key) => {
                    prop_assert_eq!(cache.peek(&key), model.peek(key), "peek({}) diverged", key);
                }
                CacheOp::Insert(key) => {
                    let value = op_value(key);
                    cache.insert(key, value);
                    model.insert(key, value, value, capacity);
                }
            }
            prop_assert_eq!(cache.len(), model.map.len(), "resident count diverged");
            prop_assert_eq!(cache.bytes_in_use(), model.bytes(), "byte gauge diverged");
            cache.check_invariants();
        }

        for (&key, &(value, _, _, _)) in &model.map {
            prop_assert_eq!(cache.peek(&key), Some(value), "model key {} missing", key);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.evictions, model.evictions, "eviction counts diverged");
        prop_assert_eq!(stats.promoted, model.promoted, "promotion counts diverged");
        prop_assert_eq!(stats.ghost_hits, 0, "frozen tuner must not consult ghosts");
        prop_assert_eq!(stats.admission_denied, 0, "frozen tuner must not gate admission");
        prop_assert_eq!(stats.tuner_steps, 0, "frozen tuner must not step");
    }
}

/// Registry-key names for randomly generated fleets (`GpuDevice::name`
/// is `&'static str`, so the pool is static).
const FLEET_NAMES: [&str; 4] = ["prop-dev-0", "prop-dev-1", "prop-dev-2", "prop-dev-3"];

/// A random device: raw byte sizes, deliberately *not* MiB-aligned, so
/// the allocator simulation's page-granularity rounding is exercised at
/// odd capacities. Capacity always exceeds framework + tenant overheads.
fn device_strategy(index: usize) -> impl Strategy<Value = GpuDevice> {
    (
        1_400_000_000u64..20_000_000_000,
        500_000_000u64..590_000_000,
        0u64..130_000_000,
    )
        .prop_map(move |(capacity, framework_bytes, init_bytes)| GpuDevice {
            name: FLEET_NAMES[index],
            capacity,
            framework_bytes,
            init_bytes,
        })
}

fn fleet_strategy() -> impl Strategy<Value = Vec<GpuDevice>> {
    // The vendored proptest implements `Strategy` for tuples up to arity
    // 4, so the four device slots are nested in pairs.
    (
        1usize..FLEET_NAMES.len() + 1,
        (device_strategy(0), device_strategy(1)),
        (device_strategy(2), device_strategy(3)),
    )
        .prop_map(|(size, (a, b), (c, d))| {
            let mut fleet = vec![a, b, c, d];
            fleet.truncate(size);
            fleet
        })
}

proptest! {
    // Each case profiles the job once for the service plus once per
    // device for the independent sequential estimates, so the case count
    // is kept low; the job space is what varies cheaply.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fleets × random jobs: every matrix cell equals an
    /// independent sequential estimate, and `best_device_for_job_traced` picks a
    /// *fitting* device of minimal capacity — or `None` exactly when no
    /// cell fits.
    #[test]
    fn placement_always_fits_and_matrix_matches_independent_estimates(
        fleet in fleet_strategy(),
        batch in 1usize..5,
    ) {
        let untraced = TraceContext::disabled();
        let registry = DeviceRegistry::empty();
        for device in &fleet {
            registry.register(device.name, *device);
        }
        let names: Vec<&str> = fleet.iter().map(|d| d.name).collect();
        let service = EstimationService::new(
            ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(registry),
        );
        let spec = TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch)
            .with_iterations(2);

        let matrix = service
            .estimate_matrix_traced(std::slice::from_ref(&spec), &names, &untraced)
            .expect("all fleet names are registered");
        prop_assert_eq!(service.profile_runs(), 1, "one analysis for the whole row");
        prop_assert_eq!(service.sim_runs(), fleet.len() as u64);

        let row = &matrix.rows[0];
        for device in &fleet {
            let independent = Estimator::new(EstimatorConfig::for_device(*device))
                .estimate_job(&spec)
                .expect("sequential estimate succeeds");
            let cell = row.cell(device.name).expect("cell per fleet device");
            prop_assert_eq!(
                cell.estimate.as_ref().expect("cell estimate succeeds"),
                &independent,
                "cell for {} diverged from the independent estimate",
                device.name
            );
        }

        let placement = service
            .best_device_for_job_traced(&spec, &untraced)
            .expect("estimation succeeds");
        let fitting: Vec<&GpuDevice> = fleet
            .iter()
            .filter(|d| row.cell(d.name).expect("cell").fits())
            .collect();
        match placement {
            Some(placement) => {
                let chosen = fleet
                    .iter()
                    .find(|d| d.name == placement.device)
                    .expect("placement names a fleet device");
                prop_assert!(
                    !placement.estimate.oom_predicted,
                    "placement must fit its device"
                );
                prop_assert!(
                    fitting.iter().all(|d| chosen.capacity <= d.capacity),
                    "best fit must be a minimal-capacity fitting device"
                );
            }
            None => prop_assert!(
                fitting.is_empty(),
                "placement may only pass when no device fits"
            ),
        }
    }
}

/// One real-pipeline anchor for the synthetic-peak modeling above: a key
/// whose stages are computed, evicted and recomputed yields identical
/// `peak_bytes` both times.
#[test]
fn eviction_and_recomputation_reproduce_identical_estimates() {
    let untraced = TraceContext::disabled();
    // Capacity 1, so one shard. Each estimate reads the stages and
    // replays them sequentially, so no sim cell can answer in their place.
    let service = EstimationService::new(
        ServiceConfig::for_device(GpuDevice::rtx3060()).with_cache_capacity(1),
    );
    let estimator = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
    let estimate = |spec: &TrainJobSpec| {
        estimator.estimate_analyzed(&service.stages_traced(spec, &untraced).unwrap().analyzed)
    };

    let a = TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 2).with_iterations(2);
    let b = TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2);

    let first_a = estimate(&a);
    // The admission gate admits `b` over `a` once `b` is asked more
    // often; asking past that point evicts `a`.
    for _ in 0..4 {
        estimate(&b);
    }
    assert!(service.cache_stats().evictions >= 1, "b displaced a");
    let profiled = service.profile_runs();
    let second_a = estimate(&a); // recomputed
    assert_eq!(service.profile_runs(), profiled + 1, "a was re-profiled");
    assert_eq!(first_a.peak_bytes, second_a.peak_bytes);
    assert_eq!(first_a, second_a);
}
