//! Per-device simulation shards.
//!
//! The pipeline's back half — orchestration + allocator simulation — is
//! device-dependent: the same cached analysis replays differently against
//! every capacity/overhead configuration. The multi-device front end
//! therefore keeps **one simulation LRU per device configuration**: a
//! shard map keyed by the device's [`DeviceFingerprint`], each shard an
//! independently sized [`ShardedLruCache`] from [`JobKey`] to the cell's
//! [`Estimate`]. Sharding per device is what makes invalidation surgical:
//! when a device's configuration changes, only that configuration's shard
//! is dropped — every other device keeps its warm entries.
//!
//! Two growth bounds apply. Each shard's *entry* population is LRU-bounded
//! by construction; the shard map itself is bounded by a **fleet cap**
//! ([`SimShards::with_max_devices`]): registries churned programmatically
//! (one fingerprint per reconfiguration) would otherwise grow the map
//! without limit, so the least-recently-used device shard is retired once
//! the cap is reached, its counter history folded into the monotonic
//! [`stats`](SimShards::stats). Every per-device LRU runs adaptive
//! tiering, like the service's other cache tiers, and a restored learned
//! split seeds every shard created after the restore.
//!
//! The layer also carries the **pressure-aware replay counters**: how many
//! cells were derived from an unbounded replay their request shares
//! ([`SimStats::fast_path_hits`]) versus paid for with a full stateful
//! replay ([`SimStats::full_replays`]), and how many unbounded replays
//! were executed for the fast path.

use crate::cache::{CacheStats, ShardedLruCache};
use crate::key::JobKey;
use crate::tiering::{
    permille_from_frac, TierStats, FRAC_CEIL_PERMILLE, FRAC_FLOOR_PERMILLE, INITIAL_PROTECTED_FRAC,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use xmem_core::Estimate;
use xmem_runtime::GpuDevice;

/// The simulation-relevant identity of a device configuration.
///
/// Two [`GpuDevice`]s with equal fingerprints produce bit-identical
/// simulations for any analysis, so they may share one simulation shard;
/// changing any field yields a new fingerprint — and therefore a cold
/// shard — which is how stale entries become unreachable the moment a
/// device is reconfigured.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeviceFingerprint {
    /// Marketing name (part of identity: two models with coincidentally
    /// equal sizes still simulate as distinct fleet entries).
    pub name: &'static str,
    /// Total memory capacity in bytes.
    pub capacity: u64,
    /// Framework + CUDA-context overhead in bytes.
    pub framework_bytes: u64,
    /// Memory used by other tenants in bytes.
    pub init_bytes: u64,
}

impl DeviceFingerprint {
    /// The fingerprint of `device`.
    #[must_use]
    pub fn of(device: &GpuDevice) -> Self {
        // Exhaustive destructuring: a future simulation-relevant
        // GpuDevice field breaks this line instead of being silently
        // excluded from cache identity.
        let GpuDevice {
            name,
            capacity,
            framework_bytes,
            init_bytes,
        } = *device;
        DeviceFingerprint {
            name,
            capacity,
            framework_bytes,
            init_bytes,
        }
    }
}

/// Counters of the per-device simulation layer, alongside the analysis
/// cache's [`CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Aggregated hit/miss/insert/evict counters over every device shard.
    pub cache: CacheStats,
    /// Allocator simulations actually executed — the ground truth the
    /// matrix layer is judged against: a full M × D matrix costs exactly
    /// M analyses and M × D simulations. Every simulation is served by
    /// derivation (`fast_path_hits`), by a full stateful replay
    /// (`full_replays`), or by the incremental sweep
    /// (`incremental_cells`); the three always sum to `sim_runs`.
    pub sim_runs: u64,
    /// Cells derived in O(1) from an unbounded replay the cells of their
    /// job share within one request (the pressure-aware fast path) — no
    /// event sequence was re-walked for the cell.
    pub fast_path_hits: u64,
    /// Cells that paid a full stateful replay: the device was
    /// capacity-pressured (reclaim/OOM could diverge), the configuration
    /// was fast-path-inexact, or the fast path was disabled.
    pub full_replays: u64,
    /// Cells served by the incremental sweep path: materialized from a
    /// cached parameterized replay instead of a per-batch profile +
    /// orchestration, then derived in O(1) or replayed as a dense event
    /// buffer.
    pub incremental_cells: u64,
    /// Parameterized-replay fits performed (one per job family × batch
    /// range; each costs the three anchor profiles counted by
    /// `profile_runs`).
    pub param_replays: u64,
    /// Unbounded replays executed for the fast path (at most one per job
    /// per matrix or placement request; a lone cell computes none).
    pub unbounded_replays: u64,
    /// Events fed to the allocator by full, unbounded and incremental
    /// replays: the replay work the counters above stand for. Dividing
    /// replay time by it gives the allocator's cost per event.
    pub replayed_events: u64,
    /// Live device shards (distinct device configurations simulated so
    /// far).
    pub device_shards: usize,
    /// Cached estimates dropped because their device configuration was
    /// replaced ([`invalidate`](SimShards::invalidate)).
    pub invalidated_entries: u64,
    /// Whole device shards retired by the fleet cap
    /// ([`with_max_devices`](SimShards::with_max_devices)); their counter
    /// history stays folded into `cache`.
    pub evicted_shards: u64,
}

/// One live device shard plus its recency stamp for the fleet cap.
#[derive(Debug)]
struct ShardSlot {
    cache: Arc<ShardedLruCache<JobKey, Estimate>>,
    /// Last-use tick (from [`SimShards::clock`]); the minimum across
    /// slots is the fleet-cap eviction victim.
    last_use: AtomicU64,
}

/// The shard map: one simulation LRU per device fingerprint.
///
/// Shards are created on first use and sized identically (capacity and
/// lock-shard count are fixed at construction). Lookups take a read lock
/// on the map — only shard *creation*, fleet-cap eviction and
/// invalidation write-lock it.
#[derive(Debug)]
pub struct SimShards {
    shards: RwLock<HashMap<DeviceFingerprint, ShardSlot>>,
    /// Per-shard entry capacity.
    capacity: usize,
    /// Lock shards inside each per-device LRU.
    lock_shards: usize,
    /// Maximum live device shards; the LRU shard is retired beyond it.
    max_devices: usize,
    /// Learned tuner state restored from a persisted snapshot — also the
    /// seed for device shards created *after* the restore, so a warm
    /// boot's learned split applies to the whole fleet.
    restored: Mutex<Option<(u32, u64)>>,
    /// Recency clock for the fleet cap.
    clock: AtomicU64,
    runs: AtomicU64,
    fast_path: AtomicU64,
    full_replays: AtomicU64,
    incremental: AtomicU64,
    param_fits: AtomicU64,
    unbounded: AtomicU64,
    replayed_events: AtomicU64,
    invalidated: AtomicU64,
    evicted_shards: AtomicU64,
    /// Counter history of retired shards (invalidated or fleet-evicted),
    /// folded in so [`stats`](Self::stats) stays **monotonic**: dropping
    /// a shard must not make previously reported hits/misses vanish
    /// (delta-based monitoring would see negative rates).
    retired: RwLock<CacheStats>,
}

impl SimShards {
    /// An empty shard map whose per-device LRUs hold `capacity` entries
    /// over `lock_shards` locks each. The fleet size is unbounded until
    /// [`with_max_devices`](Self::with_max_devices) caps it.
    #[must_use]
    pub fn new(capacity: usize, lock_shards: usize) -> Self {
        SimShards {
            shards: RwLock::new(HashMap::new()),
            capacity,
            lock_shards,
            max_devices: usize::MAX,
            restored: Mutex::new(None),
            clock: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            fast_path: AtomicU64::new(0),
            full_replays: AtomicU64::new(0),
            incremental: AtomicU64::new(0),
            param_fits: AtomicU64::new(0),
            unbounded: AtomicU64::new(0),
            replayed_events: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            evicted_shards: AtomicU64::new(0),
            retired: RwLock::new(CacheStats::default()),
        }
    }

    /// Caps the number of live device shards at `max_devices` (clamped to
    /// at least 1): creating a shard past the cap retires the
    /// least-recently-used one, folding its counters into the monotonic
    /// history.
    ///
    /// Retirement folds a *snapshot*: a counter bump landing on a
    /// still-held [`Arc`] handle in the instants between the snapshot and
    /// the handle being dropped is not re-folded. Writers therefore
    /// re-fetch the shard right before inserting (see the service's
    /// `simulate_on`); the service-level counters (`sim_runs`, fast-path
    /// split) live on `SimShards` itself and are never affected.
    #[must_use]
    pub fn with_max_devices(mut self, max_devices: usize) -> Self {
        self.max_devices = max_devices.max(1);
        self
    }

    /// The configured fleet cap (`usize::MAX` when unbounded).
    #[must_use]
    pub fn max_devices(&self) -> usize {
        self.max_devices
    }

    /// The simulation LRU for `device`, created on first use (retiring
    /// the least-recently-used shard when the fleet cap is hit).
    #[must_use]
    pub fn shard(&self, device: &GpuDevice) -> Arc<ShardedLruCache<JobKey, Estimate>> {
        let fingerprint = DeviceFingerprint::of(device);
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(slot) = self
            .shards
            .read()
            .expect("sim shard map poisoned")
            .get(&fingerprint)
        {
            slot.last_use.store(tick, Ordering::Relaxed);
            return Arc::clone(&slot.cache);
        }
        let mut shards = self.shards.write().expect("sim shard map poisoned");
        if let Some(slot) = shards.get(&fingerprint) {
            // Raced another creator between the read and write locks.
            slot.last_use.store(tick, Ordering::Relaxed);
            return Arc::clone(&slot.cache);
        }
        // Fleet cap: retire the least-recently-used shard. The map is
        // bounded by the (small) cap, so this scan is cheap and only runs
        // on shard *creation*, never on the per-query path.
        while shards.len() >= self.max_devices {
            let victim = shards
                .iter()
                .min_by_key(|(_, slot)| slot.last_use.load(Ordering::Relaxed))
                .map(|(fp, _)| fp.clone())
                .expect("non-empty map above the cap");
            if let Some(slot) = shards.remove(&victim) {
                self.retire(&slot.cache);
                self.evicted_shards.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slot = shards.entry(fingerprint).or_insert_with(|| {
            let cache = ShardedLruCache::new(self.capacity, self.lock_shards)
                .with_adaptive_tiering(INITIAL_PROTECTED_FRAC);
            // New shards join the fleet at the learned split, not the
            // initial fraction, once a restore has happened.
            if let Some((permille, epoch)) = *self.restored.lock().expect("restore seed poisoned") {
                cache.restore_learned_state(permille, epoch);
            }
            ShardSlot {
                cache: Arc::new(cache),
                last_use: AtomicU64::new(tick),
            }
        });
        Arc::clone(&slot.cache)
    }

    /// The aggregated learned tuner state over the fleet — the mean
    /// learned protected fraction (permille) across live device shards
    /// and the maximum sketch decay epoch. With no live shards, falls
    /// back to the restored (or initial) state so the persisted record
    /// never regresses.
    #[must_use]
    pub fn learned_state(&self) -> (u32, u64) {
        let shards = self.shards.read().expect("sim shard map poisoned");
        let mut permille_sum: u64 = 0;
        let mut counted: u64 = 0;
        let mut epoch: u64 = 0;
        for slot in shards.values() {
            if let Some((permille, shard_epoch)) = slot.cache.learned_state() {
                permille_sum += u64::from(permille);
                counted += 1;
                epoch = epoch.max(shard_epoch);
            }
        }
        if let Some(mean) = permille_sum.checked_div(counted) {
            #[allow(clippy::cast_possible_truncation)]
            return (mean as u32, epoch);
        }
        self.restored
            .lock()
            .expect("restore seed poisoned")
            .unwrap_or((permille_from_frac(INITIAL_PROTECTED_FRAC, true), 0))
    }

    /// Seeds every live device shard — and, via the remembered seed,
    /// every future one — with a persisted learned fraction and sketch
    /// decay epoch.
    pub fn restore_learned_state(&self, frac_permille: u32, decay_epoch: u64) {
        let clamped = frac_permille.clamp(FRAC_FLOOR_PERMILLE, FRAC_CEIL_PERMILLE);
        *self.restored.lock().expect("restore seed poisoned") = Some((clamped, decay_epoch));
        let shards = self.shards.read().expect("sim shard map poisoned");
        for slot in shards.values() {
            slot.cache.restore_learned_state(frac_permille, decay_epoch);
        }
    }

    /// A tier-geometry gauge snapshot aggregated over every live device
    /// shard (see [`ShardedLruCache::tier_stats`]): entry and byte
    /// occupancy sum across shards, and the protected fraction is the
    /// mean of the per-shard fractions.
    #[must_use]
    pub fn tier_stats(&self) -> TierStats {
        let shards = self.shards.read().expect("sim shard map poisoned");
        let mut out = TierStats::default();
        let mut permille_sum: u64 = 0;
        for slot in shards.values() {
            let tier = slot.cache.tier_stats();
            out.segmented |= tier.segmented;
            out.adaptive |= tier.adaptive;
            out.entries += tier.entries;
            out.probation_entries += tier.probation_entries;
            out.protected_entries += tier.protected_entries;
            out.capacity += tier.capacity;
            out.protected_cap += tier.protected_cap;
            out.bytes_in_use += tier.bytes_in_use;
            permille_sum += u64::from(tier.protected_frac_permille);
        }
        if !shards.is_empty() {
            #[allow(clippy::cast_possible_truncation)]
            {
                out.protected_frac_permille = (permille_sum / shards.len() as u64) as u32;
            }
        }
        out
    }

    /// Folds a dropped shard's counters into the monotonic history.
    fn retire(&self, shard: &ShardedLruCache<JobKey, Estimate>) {
        let history = shard.stats();
        self.retired
            .write()
            .expect("retired stats poisoned")
            .absorb(&history);
    }

    /// Records one executed allocator simulation (fast or full).
    pub fn count_run(&self) {
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cell derived via the pressure-aware fast path.
    pub fn count_fast_path(&self) {
        self.fast_path.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cell that paid a full stateful replay.
    pub fn count_full_replay(&self) {
        self.full_replays.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cell served by the incremental sweep path.
    pub fn count_incremental(&self) {
        self.incremental.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one parameterized-replay fit.
    pub fn count_param_replay(&self) {
        self.param_fits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one unbounded replay executed for the fast path.
    pub fn count_unbounded(&self) {
        self.unbounded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `events` events fed to the allocator by one replay.
    pub fn count_replayed_events(&self, events: usize) {
        self.replayed_events
            .fetch_add(events as u64, Ordering::Relaxed);
    }

    /// Drops the shard for `fingerprint` (a replaced device
    /// configuration), returning how many cached estimates it held. Other
    /// devices' shards are untouched, and the dropped shard's counter
    /// history is retained so [`stats`](Self::stats) never goes
    /// backwards.
    pub fn invalidate(&self, fingerprint: &DeviceFingerprint) -> usize {
        let removed = self
            .shards
            .write()
            .expect("sim shard map poisoned")
            .remove(fingerprint);
        let Some(slot) = removed else {
            return 0;
        };
        self.retire(&slot.cache);
        let entries = slot.cache.len();
        self.invalidated
            .fetch_add(entries as u64, Ordering::Relaxed);
        entries
    }

    /// Clones every resident estimate grouped by device fingerprint,
    /// entries in each shard's LRU → MRU order (see
    /// [`ShardedLruCache::export`]). Used by the persistence snapshot.
    #[must_use]
    pub fn export(&self) -> Vec<(DeviceFingerprint, Vec<(JobKey, Estimate)>)> {
        let shards = self.shards.read().expect("sim shard map poisoned");
        shards
            .iter()
            .map(|(fingerprint, slot)| (fingerprint.clone(), slot.cache.export()))
            .collect()
    }

    /// A snapshot of the simulation counters. Monotonic: counters of
    /// retired shards stay folded in.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let shards = self.shards.read().expect("sim shard map poisoned");
        let mut cache = *self.retired.read().expect("retired stats poisoned");
        for slot in shards.values() {
            cache.absorb(&slot.cache.stats());
        }
        SimStats {
            cache,
            sim_runs: self.runs.load(Ordering::Relaxed),
            fast_path_hits: self.fast_path.load(Ordering::Relaxed),
            full_replays: self.full_replays.load(Ordering::Relaxed),
            incremental_cells: self.incremental.load(Ordering::Relaxed),
            param_replays: self.param_fits.load(Ordering::Relaxed),
            unbounded_replays: self.unbounded.load(Ordering::Relaxed),
            replayed_events: self.replayed_events.load(Ordering::Relaxed),
            device_shards: shards.len(),
            invalidated_entries: self.invalidated.load(Ordering::Relaxed),
            evicted_shards: self.evicted_shards.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_core::AnalysisStats;
    use xmem_models::ModelId;
    use xmem_optim::OptimizerKind;
    use xmem_runtime::TrainJobSpec;

    fn key(batch: usize) -> JobKey {
        JobKey::of(&TrainJobSpec::new(
            ModelId::MobileNetV3Small,
            OptimizerKind::Adam,
            batch,
        ))
    }

    fn estimate(peak: u64) -> Estimate {
        Estimate {
            peak_bytes: peak,
            job_peak_bytes: peak / 2,
            tensor_peak_bytes: peak / 4,
            oom_predicted: false,
            curve: Vec::new(),
            stats: AnalysisStats::default(),
        }
    }

    /// A synthetic device with a distinct fingerprint per capacity.
    fn device(capacity: u64) -> GpuDevice {
        GpuDevice {
            name: "sim-test",
            capacity,
            framework_bytes: 512 << 20,
            init_bytes: 0,
        }
    }

    #[test]
    fn equal_configs_share_a_shard_and_distinct_ones_do_not() {
        let sims = SimShards::new(8, 2);
        let a = GpuDevice::rtx3060();
        let b = GpuDevice::rtx3060();
        let c = GpuDevice::rtx4060();
        assert!(Arc::ptr_eq(&sims.shard(&a), &sims.shard(&b)));
        assert!(!Arc::ptr_eq(&sims.shard(&a), &sims.shard(&c)));
        assert_eq!(sims.stats().device_shards, 2);
    }

    #[test]
    fn invalidation_is_per_device() {
        let sims = SimShards::new(8, 2);
        let kept = GpuDevice::rtx3060();
        let replaced = GpuDevice::rtx4060();
        sims.shard(&kept).insert(key(1), estimate(100));
        sims.shard(&replaced).insert(key(1), estimate(200));
        sims.shard(&replaced).insert(key(2), estimate(300));

        assert_eq!(sims.invalidate(&DeviceFingerprint::of(&replaced)), 2);
        assert_eq!(sims.stats().invalidated_entries, 2);
        assert_eq!(sims.stats().device_shards, 1);
        assert_eq!(sims.shard(&kept).peek(&key(1)), Some(estimate(100)));
        // The replaced device starts cold.
        assert_eq!(sims.shard(&replaced).peek(&key(1)), None);
        // Invalidating an unknown fingerprint is a no-op.
        assert_eq!(sims.invalidate(&DeviceFingerprint::of(&replaced)), 0);
    }

    #[test]
    fn stats_stay_monotonic_across_invalidation() {
        let sims = SimShards::new(8, 2);
        let device = GpuDevice::rtx3060();
        sims.shard(&device).insert(key(1), estimate(1));
        assert_eq!(sims.shard(&device).get(&key(1)), Some(estimate(1)));
        assert_eq!(sims.shard(&device).get(&key(2)), None);
        let before = sims.stats();
        assert_eq!((before.cache.hits, before.cache.misses), (1, 1));

        sims.invalidate(&DeviceFingerprint::of(&device));
        let after = sims.stats();
        assert_eq!(
            after.cache, before.cache,
            "dropping a shard must not erase its counter history"
        );
        assert_eq!(after.device_shards, 0);
        assert_eq!(after.invalidated_entries, 1);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let sims = SimShards::new(8, 2);
        let a = GpuDevice::rtx3060();
        let b = GpuDevice::rtx4060();
        sims.shard(&a).insert(key(1), estimate(1));
        sims.shard(&b).insert(key(1), estimate(2));
        assert_eq!(sims.shard(&a).get(&key(1)), Some(estimate(1)));
        assert_eq!(sims.shard(&b).get(&key(2)), None);
        sims.count_run();
        sims.count_fast_path();
        let stats = sims.stats();
        assert_eq!(stats.cache.insertions, 2);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.sim_runs, 1);
        assert_eq!(stats.fast_path_hits, 1);
        assert_eq!(stats.full_replays, 0);
    }

    #[test]
    fn fleet_cap_retires_the_least_recently_used_shard() {
        let sims = SimShards::new(8, 2).with_max_devices(2);
        assert_eq!(sims.max_devices(), 2);
        sims.shard(&device(1 << 30)).insert(key(1), estimate(1));
        sims.shard(&device(2 << 30)).insert(key(1), estimate(2));
        // Touch the first again: the second becomes the LRU victim.
        assert_eq!(sims.shard(&device(1 << 30)).get(&key(1)), Some(estimate(1)));

        sims.shard(&device(3 << 30)).insert(key(1), estimate(3));
        let stats = sims.stats();
        assert_eq!(stats.device_shards, 2, "the cap holds");
        assert_eq!(stats.evicted_shards, 1);
        // The survivor kept its entries; the victim's shard is cold when
        // recreated.
        assert_eq!(
            sims.shard(&device(1 << 30)).peek(&key(1)),
            Some(estimate(1))
        );
        assert_eq!(sims.shard(&device(2 << 30)).peek(&key(1)), None);
    }

    #[test]
    fn fleet_cap_eviction_keeps_stats_monotonic() {
        let sims = SimShards::new(8, 2).with_max_devices(1);
        sims.shard(&device(1 << 30)).insert(key(1), estimate(1));
        assert_eq!(sims.shard(&device(1 << 30)).get(&key(1)), Some(estimate(1)));
        let before = sims.stats();

        // A second fingerprint evicts the first whole shard.
        sims.shard(&device(2 << 30)).insert(key(1), estimate(2));
        let after = sims.stats();
        assert_eq!(after.device_shards, 1);
        assert_eq!(after.evicted_shards, 1);
        assert!(after.cache.hits >= before.cache.hits);
        assert!(
            after.cache.insertions > before.cache.insertions,
            "history plus the new shard's insert"
        );
        assert_eq!(
            after.invalidated_entries, 0,
            "fleet evictions are not configuration invalidations"
        );
    }

    #[test]
    fn shards_inherit_tiering_and_restored_state_seeds_new_shards() {
        let sims = SimShards::new(8, 1);
        assert_eq!(
            sims.learned_state(),
            (500, 0),
            "initial fraction reported before any shard exists"
        );
        let first = sims.shard(&device(1 << 30));
        assert!(first.tier_stats().adaptive, "every shard is adaptive");
        sims.restore_learned_state(250, 3);
        assert_eq!(first.learned_state(), Some((250, 3)));
        let second = sims.shard(&device(2 << 30));
        assert_eq!(
            second.learned_state(),
            Some((250, 3)),
            "new shards join the fleet at the learned split"
        );
        assert_eq!(sims.learned_state(), (250, 3));
        assert!(sims.tier_stats().adaptive);
    }

    #[test]
    fn fleet_churn_never_grows_past_the_cap() {
        let sims = SimShards::new(4, 2).with_max_devices(3);
        for round in 0..40u64 {
            let shard = sims.shard(&device((round + 1) << 28));
            shard.insert(key(1), estimate(round));
        }
        let stats = sims.stats();
        assert_eq!(stats.device_shards, 3);
        assert_eq!(stats.evicted_shards, 37);
        assert_eq!(
            stats.cache.insertions, 40,
            "single-threaded churn folds every shard's history"
        );
    }
}
