//! Sharded, mutex-per-shard LRU cache with O(1) eviction, bounded by
//! entry count alone, with optional segmented (probation/protected)
//! admission and an optional frequency-sketch admission gate.
//!
//! Keys are spread across `shards` independent maps by hash, so concurrent
//! estimation threads contend only when they touch the same shard. Each
//! shard enforces its own capacity slice with least-recently-used
//! eviction.
//!
//! Recency is an **intrusive, index-linked list** over a slab of nodes:
//! every get/insert/evict is a constant number of index rewrites — no
//! allocation per operation and, critically, no scan over the shard to
//! find the eviction victim (the list tail *is* the victim). An entry
//! count is a fair memory bound here because the costliest tier holds
//! analyzed traces of a narrow size range: over the 25-model zoo at batch
//! 8 (Adam, 2 iterations) one analysis weighs 36–560 KiB. An analysis
//! grows with the job's `iterations`, so that range holds only while the
//! iteration count is bounded. [`ShardedLruCache::with_weigher`] prices
//! every entry so [`ShardedLruCache::bytes_in_use`] reports what a tier
//! holds; the price never evicts.
//!
//! **Segmented admission**
//! ([`ShardedLruCache::with_segmented_admission`]): plain LRU is
//! scan-vulnerable — a one-shot batch-size sweep or admission-control
//! probe storm inserts a run of never-again-touched keys that flush the
//! genuinely hot entries. In segmented mode each shard runs the classic
//! SLRU discipline: new entries land in a **probation** segment, a hit on
//! a probation entry **promotes** it to the **protected** segment
//! (counted in [`CacheStats::promoted`]), the protected segment is capped
//! at a configured fraction of the shard (its LRU demotes back to
//! probation's MRU when over), and eviction victims come from probation
//! first. One-shot keys then die in probation without ever displacing a
//! re-referenced entry. Both recency segments are threaded through the
//! same slab, so every operation stays O(1).
//!
//! **Gated SLRU** ([`ShardedLruCache::with_gated_slru`], what every
//! service cache tier runs): segmented admission at a fixed protected
//! fraction, behind a TinyLFU-style frequency sketch per shard (see the
//! [`tiering`](crate::tiering) module docs). Every access is counted in
//! the sketch, and a *new* key that would force an eviction is admitted
//! only when its estimated frequency strictly exceeds the would-be
//! victim's; otherwise the insert is dropped (counted in
//! [`CacheStats::admission_denied`]; the caller keeps its computed
//! value). Everything else is the plain SLRU discipline, so a gated
//! cache behaves operation for operation like the static split at the
//! same fraction, apart from the inserts the gate refuses.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::tiering::{gated_protected_cap, FrequencySketch, TierStats};

/// Monotonic hit/miss/insert/evict counters for a [`ShardedLruCache`].
///
/// `hits + misses` equals the number of `get_or_insert_with`/`get` calls;
/// a miss that populates the cache also counts one insertion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries evicted to respect the capacity.
    pub evictions: u64,
    /// Probation entries promoted to the protected segment on a hit
    /// (always 0 unless segmented admission is configured).
    pub promoted: u64,
    /// Halving decays of the per-shard frequency sketches (always 0
    /// unless the admission gate is configured).
    pub sketch_resets: u64,
    /// New entries the frequency-sketch admission gate refused because
    /// the eviction victim was at least as hot (the value was still
    /// returned to the caller).
    pub admission_denied: u64,
}

impl CacheStats {
    /// Folds another counter snapshot into this one (used by layers that
    /// retire caches but must keep reporting monotonic totals).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.promoted += other.promoted;
        self.sketch_resets += other.sketch_resets;
        self.admission_denied += other.admission_denied;
    }
}

/// What one shard-level operation did, for the cache's atomic counters.
#[derive(Debug, Clone, Copy, Default)]
struct Events {
    promoted: bool,
    evicted: bool,
    denied: bool,
    sketch_reset: bool,
}

/// Sentinel index terminating the intrusive list.
const NIL: u32 = u32::MAX;

/// Which recency list a node is threaded through. Plain (non-segmented)
/// shards keep everything in `Probation`.
const PROBATION: usize = 0;
/// The re-referenced segment of a segmented shard.
const PROTECTED: usize = 1;

/// The cache's key hash — shard selection and the frequency sketch both
/// derive from this one hash, computed once per operation.
/// `DefaultHasher::new()` uses fixed keys, so the hash (and with it every
/// admission decision) is deterministic across runs.
fn key_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    /// What the weigher priced this entry at.
    cost: u64,
    prev: u32,
    next: u32,
    /// Which recency list ([`PROBATION`] or [`PROTECTED`]) threads this
    /// node.
    segment: usize,
}

/// Head/tail indices of one intrusive recency list (head = MRU,
/// tail = LRU).
#[derive(Debug, Clone, Copy)]
struct ListEnds {
    head: u32,
    tail: u32,
}

impl Default for ListEnds {
    fn default() -> Self {
        ListEnds {
            head: NIL,
            tail: NIL,
        }
    }
}

/// One lock's worth of the cache: a key → slab-index map plus the
/// intrusive recency lists threaded through the slab. All list surgery is
/// O(1). Non-segmented shards use only the probation list.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, u32>,
    nodes: Vec<Option<Node<K, V>>>,
    free: Vec<u32>,
    lists: [ListEnds; 2],
    /// Entries currently in the protected list.
    protected_len: usize,
    /// Entry cap on the protected list; 0 makes the shard a plain LRU.
    protected_cap: usize,
    /// Sum of live entry costs.
    bytes: u64,
    /// The admission gate's frequency sketch, on gated shards.
    sketch: Option<FrequencySketch>,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            lists: [ListEnds::default(); 2],
            protected_len: 0,
            protected_cap: 0,
            bytes: 0,
            sketch: None,
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn node(&self, index: u32) -> &Node<K, V> {
        self.nodes[index as usize]
            .as_ref()
            .expect("vacant lru slot")
    }

    fn node_mut(&mut self, index: u32) -> &mut Node<K, V> {
        self.nodes[index as usize]
            .as_mut()
            .expect("vacant lru slot")
    }

    /// Detaches `index` from its recency list (it stays in the slab/map).
    fn unlink(&mut self, index: u32) {
        let (prev, next, segment) = {
            let n = self.node(index);
            (n.prev, n.next, n.segment)
        };
        if prev == NIL {
            self.lists[segment].head = next;
        } else {
            self.node_mut(prev).next = next;
        }
        if next == NIL {
            self.lists[segment].tail = prev;
        } else {
            self.node_mut(next).prev = prev;
        }
        if segment == PROTECTED {
            self.protected_len -= 1;
        }
    }

    /// Links `index` at the MRU end of `segment`.
    fn push_front(&mut self, index: u32, segment: usize) {
        let old_head = self.lists[segment].head;
        {
            let n = self.node_mut(index);
            n.prev = NIL;
            n.next = old_head;
            n.segment = segment;
        }
        if old_head != NIL {
            self.node_mut(old_head).prev = index;
        }
        self.lists[segment].head = index;
        if self.lists[segment].tail == NIL {
            self.lists[segment].tail = index;
        }
        if segment == PROTECTED {
            self.protected_len += 1;
        }
    }

    /// Counts one access in the admission gate's sketch, if the shard has
    /// one. Returns whether the count triggered a halving decay.
    fn count_access(&mut self, hash: u64) -> bool {
        self.sketch
            .as_mut()
            .is_some_and(|sketch| sketch.increment(hash))
    }

    /// Refreshes `key`'s recency. In segmented mode (a positive protected
    /// cap) a probation hit promotes the entry into the protected
    /// segment, demoting that segment's LRU back to probation's MRU when
    /// it overflows. Returns the value and what the lookup did.
    fn touch(&mut self, key: &K, hash: u64) -> (Option<V>, Events) {
        let mut events = Events {
            sketch_reset: self.count_access(hash),
            ..Events::default()
        };
        let Some(&index) = self.map.get(key) else {
            return (None, events);
        };
        let segment = self.node(index).segment;
        if self.protected_cap > 0 && segment == PROBATION {
            self.unlink(index);
            self.push_front(index, PROTECTED);
            events.promoted = true;
            // At most one entry over the cap: demote the protected LRU.
            if self.protected_len > self.protected_cap {
                let demoted = self.lists[PROTECTED].tail;
                self.unlink(demoted);
                self.push_front(demoted, PROBATION);
            }
        } else if self.lists[segment].head != index {
            self.unlink(index);
            self.push_front(index, segment);
        }
        (Some(self.node(index).value.clone()), events)
    }

    fn peek(&self, key: &K) -> Option<V> {
        self.map.get(key).map(|&i| self.node(i).value.clone())
    }

    /// The LRU entry a full shard's insert evicts — probation's tail when
    /// probation is non-empty (one-shot keys die first), otherwise
    /// protected's. Must not be called on an empty shard.
    fn eviction_victim(&self) -> u32 {
        let victim = if self.lists[PROBATION].tail != NIL {
            self.lists[PROBATION].tail
        } else {
            self.lists[PROTECTED].tail
        };
        debug_assert_ne!(victim, NIL, "evict on empty shard");
        victim
    }

    /// Removes the eviction victim entirely: list, slab, map and byte
    /// gauge.
    fn evict(&mut self) {
        let index = self.eviction_victim();
        self.unlink(index);
        let node = self.nodes[index as usize].take().expect("vacant lru slot");
        self.free.push(index);
        self.map.remove(&node.key);
        self.bytes -= node.cost;
    }

    /// Inserts (or replaces) `key → value` priced at `cost` bytes, then
    /// evicts the LRU entry if the shard is over `capacity`. On gated
    /// shards, a **new** key that needs an eviction must beat the
    /// would-be victim's sketched frequency to be admitted at all.
    fn insert(&mut self, key: K, value: V, cost: u64, capacity: usize, hash: u64) -> Events {
        let mut events = Events {
            sketch_reset: self.count_access(hash),
            ..Events::default()
        };
        if let Some(&index) = self.map.get(&key) {
            // Replacement: refresh value, cost and recency in place. The
            // entry keeps its segment — a write is not the re-reference
            // that earns promotion.
            self.bytes -= self.node(index).cost;
            self.bytes += cost;
            let segment = {
                let n = self.node_mut(index);
                n.value = value;
                n.cost = cost;
                n.segment
            };
            if self.lists[segment].head != index {
                self.unlink(index);
                self.push_front(index, segment);
            }
        } else {
            if let Some(sketch) = &self.sketch {
                // A full shard is never empty (capacity >= 1), so the
                // victim index is live.
                if self.map.len() >= capacity {
                    let victim = key_hash(&self.node(self.eviction_victim()).key);
                    if sketch.estimate(hash) <= sketch.estimate(victim) {
                        events.denied = true;
                        return events;
                    }
                }
            }
            let node = Node {
                key: key.clone(),
                value,
                cost,
                prev: NIL,
                next: NIL,
                segment: PROBATION,
            };
            let index = match self.free.pop() {
                Some(slot) => {
                    self.nodes[slot as usize] = Some(node);
                    slot
                }
                None => {
                    self.nodes.push(Some(node));
                    (self.nodes.len() - 1) as u32
                }
            };
            self.map.insert(key, index);
            self.bytes += cost;
            self.push_front(index, PROBATION);
        }
        // Only a new key grows the shard, by one, so one eviction restores
        // the bound.
        if self.map.len() > capacity {
            self.evict();
            events.evicted = true;
        }
        events
    }
}

/// A concurrent LRU cache split into independently locked shards, with
/// O(1) eviction, an entry-count bound, and optional segmented admission
/// behind an optional frequency-sketch gate.
#[derive(Debug)]
pub struct ShardedLruCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Per-shard capacity slices; they sum to exactly the configured total.
    capacities: Vec<usize>,
    /// Computes an entry's cost. The default weigher costs everything 0,
    /// so the byte gauge only reads non-zero when a real weigher is set.
    weigher: fn(&V) -> u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    promoted: AtomicU64,
    sketch_resets: AtomicU64,
    admission_denied: AtomicU64,
}

fn zero_weight<V>(_: &V) -> u64 {
    0
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLruCache<K, V> {
    /// A cache holding at most `capacity` entries overall, spread over at
    /// most `shards` locks. Capacity is clamped to at least 1, the shard
    /// count to `1..=capacity`, and the per-shard slices partition the
    /// total exactly — occupancy never exceeds `capacity`.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let base = capacity / shards;
        let extra = capacity % shards;
        ShardedLruCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacities: (0..shards).map(|i| base + usize::from(i < extra)).collect(),
            weigher: zero_weight::<V>,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            promoted: AtomicU64::new(0),
            sketch_resets: AtomicU64::new(0),
            admission_denied: AtomicU64::new(0),
        }
    }

    /// Enables segmented (probation/protected) admission at a pinned
    /// fraction: each shard reserves `protected_frac` of its capacity
    /// slice for entries that were hit at least once after insertion. New
    /// entries start in probation, a hit promotes
    /// ([`CacheStats::promoted`]), the protected segment's LRU demotes
    /// back to probation when the segment overflows, and eviction victims
    /// come from probation first — so a scan of one-shot keys (a
    /// batch-size sweep, an admission-probe storm) cannot flush
    /// re-referenced entries.
    ///
    /// `protected_frac` is clamped to `[0.0, 1.0]`; a fraction that
    /// rounds to a zero-entry protected segment for some shard leaves
    /// that shard in plain LRU mode. Replaces any earlier segmentation
    /// and removes the admission gate.
    #[must_use]
    pub fn with_segmented_admission(self, protected_frac: f64) -> Self {
        let frac = protected_frac.clamp(0.0, 1.0);
        self.segment(false, |capacity| {
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
            #[allow(clippy::cast_sign_loss)]
            let protected = (capacity as f64 * frac).round() as usize;
            protected.min(capacity)
        })
    }

    /// The service's cache policy: segmented admission with a fixed
    /// protected fraction of 875‰ (one entry less where that would fill
    /// a shard), behind a TinyLFU frequency-sketch gate that refuses a
    /// new key no hotter than the entry it would evict (see the module
    /// docs).
    #[must_use]
    pub fn with_gated_slru(self) -> Self {
        self.segment(true, gated_protected_cap)
    }

    /// Sets every shard's protected cap from its capacity slice, with or
    /// without a frequency-sketch admission gate.
    fn segment(self, gated: bool, protected_cap: impl Fn(usize) -> usize) -> Self {
        for (shard, &capacity) in self.shards.iter().zip(&self.capacities) {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.protected_cap = protected_cap(capacity);
            shard.sketch = gated.then(|| FrequencySketch::new(capacity));
        }
        self
    }

    /// Prices every inserted value with `weigher`, so
    /// [`bytes_in_use`](Self::bytes_in_use) reports what the cache holds.
    /// The price is a gauge only: eviction stays by entry count.
    #[must_use]
    pub fn with_weigher(mut self, weigher: fn(&V) -> u64) -> Self {
        self.weigher = weigher;
        self
    }

    fn shard_index_of(&self, hash: u64) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        {
            (hash % self.shards.len() as u64) as usize
        }
    }

    /// The total configured capacity (sum of the per-shard slices).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacities.iter().sum()
    }

    /// Total cost of resident entries, as priced by the weigher.
    #[must_use]
    pub fn bytes_in_use(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes)
            .sum()
    }

    /// The number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key` without refreshing recency or touching the hit/miss
    /// counters. Used by single-flight leaders re-checking for a value a
    /// just-retired flight published, so stats keep their "one hit or
    /// miss per query" invariant.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<V> {
        let hash = key_hash(key);
        self.shards[self.shard_index_of(hash)]
            .lock()
            .expect("cache shard poisoned")
            .peek(key)
    }

    /// Clones every resident entry, least- to most-recently-used within
    /// each shard (probation before protected, each walked LRU → MRU),
    /// so re-inserting the sequence into an empty cache approximately
    /// restores recency order: the hottest entries land last and become
    /// the new MRUs. Used by the persistence snapshot.
    #[must_use]
    pub fn export(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            for segment in [PROBATION, PROTECTED] {
                let mut cursor = shard.lists[segment].tail;
                while cursor != NIL {
                    let node = shard.node(cursor);
                    out.push((node.key.clone(), node.value.clone()));
                    cursor = node.prev;
                }
            }
        }
        out
    }

    /// Folds one operation's events into the atomic counters.
    fn count(&self, events: Events) {
        for (happened, counter) in [
            (events.promoted, &self.promoted),
            (events.evicted, &self.evictions),
            (events.denied, &self.admission_denied),
            (events.sketch_reset, &self.sketch_resets),
        ] {
            if happened {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Looks up `key`, refreshing its recency (and, in segmented mode,
    /// promoting a probation entry to the protected segment).
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        let hash = key_hash(key);
        let (found, events) = self.shards[self.shard_index_of(hash)]
            .lock()
            .expect("cache shard poisoned")
            .touch(key, hash);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.count(events);
        found
    }

    /// Inserts `key → value`, evicting within the shard if needed. On a
    /// gated cache under pressure the frequency-sketch gate may refuse a
    /// cold new key outright ([`CacheStats::admission_denied`]).
    pub fn insert(&self, key: K, value: V) {
        let hash = key_hash(&key);
        let index = self.shard_index_of(hash);
        let cost = (self.weigher)(&value);
        let events = self.shards[index]
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value, cost, self.capacities[index], hash);
        if !events.denied {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        self.count(events);
    }

    /// Returns the cached value for `key`, or computes, caches and returns
    /// it. The shard lock is *not* held while `compute` runs, so concurrent
    /// missing threads may compute the value redundantly (last write wins);
    /// the estimation pipeline is deterministic, so duplicates are
    /// identical.
    pub fn get_or_insert_with<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(v) = self.get(key) {
            return Ok(v);
        }
        let value = compute()?;
        self.insert(key.clone(), value.clone());
        Ok(value)
    }

    /// A snapshot of the hit/miss/insert/evict counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            promoted: self.promoted.load(Ordering::Relaxed),
            sketch_resets: self.sketch_resets.load(Ordering::Relaxed),
            admission_denied: self.admission_denied.load(Ordering::Relaxed),
        }
    }

    /// A gauge snapshot of the cache's tier geometry and occupancy —
    /// segment entry counts, entry capacities, bytes in use, and the
    /// protected fraction — aggregated over the shards. Fuels the
    /// `/metrics` `xmem_cache_*` gauges.
    #[must_use]
    pub fn tier_stats(&self) -> TierStats {
        let mut stats = TierStats {
            capacity: self.capacity() as u64,
            ..TierStats::default()
        };
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            stats.entries += shard.map.len() as u64;
            stats.protected_entries += shard.protected_len as u64;
            stats.protected_cap += shard.protected_cap as u64;
            stats.bytes_in_use += shard.bytes;
        }
        stats.probation_entries = stats.entries - stats.protected_entries;
        stats.segmented = stats.protected_cap > 0;
        #[allow(clippy::cast_possible_truncation)]
        {
            stats.protected_frac_permille = (stats.protected_cap * 1000 / stats.capacity) as u32;
        }
        stats
    }

    /// Exhaustive structural self-check of every shard, used by tests: the
    /// recency list must thread exactly the mapped nodes and the byte gauge
    /// must equal the sum of live costs.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    pub fn check_invariants(&self) {
        for (shard, &capacity) in self.shards.iter().zip(&self.capacities) {
            let shard = shard.lock().expect("cache shard poisoned");
            assert!(shard.map.len() <= capacity, "shard over capacity");
            let mut seen = 0usize;
            let mut bytes = 0u64;
            for segment in [PROBATION, PROTECTED] {
                let mut segment_len = 0usize;
                let mut prev = NIL;
                let mut cursor = shard.lists[segment].head;
                while cursor != NIL {
                    let node = shard.node(cursor);
                    assert_eq!(node.prev, prev, "broken prev link");
                    assert_eq!(node.segment, segment, "node in the wrong list");
                    assert_eq!(
                        shard.map.get(&node.key),
                        Some(&cursor),
                        "listed node missing from map"
                    );
                    seen += 1;
                    segment_len += 1;
                    bytes += node.cost;
                    prev = cursor;
                    cursor = node.next;
                }
                assert_eq!(shard.lists[segment].tail, prev, "tail must end the list");
                if segment == PROTECTED {
                    assert_eq!(segment_len, shard.protected_len, "protected gauge drift");
                    assert!(
                        segment_len <= shard.protected_cap,
                        "protected segment over its cap"
                    );
                }
            }
            assert_eq!(seen, shard.map.len(), "list/map size mismatch");
            assert_eq!(bytes, shard.bytes, "byte gauge drift");
            assert_eq!(shard.free.len() + seen, shard.nodes.len(), "slab slot leak");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(8, 2);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.evictions, 0);
        cache.check_invariants();
    }

    #[test]
    fn single_shard_evicts_least_recently_used() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(2, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(10)); // refresh 1; 2 becomes LRU
        cache.insert(3, 30);
        assert_eq!(cache.get(&2), None, "LRU entry 2 was evicted");
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&3), Some(30));
        assert_eq!(cache.stats().evictions, 1);
        cache.check_invariants();
    }

    #[test]
    fn total_capacity_is_never_exceeded() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(16, 4);
        assert_eq!(cache.capacity(), 16);
        for k in 0..1000 {
            cache.insert(k, k);
        }
        assert!(cache.len() <= cache.capacity());
        cache.check_invariants();
    }

    #[test]
    fn capacity_partition_is_exact_even_when_unaligned() {
        // 20 entries over 16 requested shards: slices must sum to 20, not
        // round up to 32.
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(20, 16);
        assert_eq!(cache.capacity(), 20);
        assert_eq!(cache.capacities.iter().sum::<usize>(), 20);
        // Fewer requested entries than shards: shard count shrinks instead
        // of inflating capacity.
        let small: ShardedLruCache<u32, u32> = ShardedLruCache::new(4, 16);
        assert_eq!(small.shard_count(), 4);
        assert_eq!(small.capacity(), 4);
        for k in 0..100 {
            small.insert(k, k);
        }
        assert!(small.len() <= 4);
        small.check_invariants();
    }

    #[test]
    fn get_or_insert_computes_once_per_key() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(8, 2);
        let mut calls = 0;
        for _ in 0..3 {
            let v: Result<u32, ()> = cache.get_or_insert_with(&7, || {
                calls += 1;
                Ok(70)
            });
            assert_eq!(v, Ok(70));
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn compute_errors_are_not_cached() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(8, 2);
        let r: Result<u32, &str> = cache.get_or_insert_with(&7, || Err("boom"));
        assert_eq!(r, Err("boom"));
        assert!(cache.is_empty());
        let r: Result<u32, &str> = cache.get_or_insert_with(&7, || Ok(70));
        assert_eq!(r, Ok(70));
    }

    #[test]
    fn replacing_a_key_updates_value_and_recency_in_place() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(2, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11); // replace: 2 is now LRU
        assert_eq!(cache.len(), 2);
        cache.insert(3, 30);
        assert_eq!(cache.peek(&2), None, "2 was the LRU victim");
        assert_eq!(cache.peek(&1), Some(11));
        cache.check_invariants();
    }

    /// The value doubles as its byte cost.
    fn identity_cost(v: &u64) -> u64 {
        *v
    }

    #[test]
    fn cost_replacement_adjusts_the_gauge() {
        let cache: ShardedLruCache<u32, u64> =
            ShardedLruCache::new(10, 1).with_weigher(identity_cost);
        cache.insert(1, 60);
        cache.insert(1, 20);
        assert_eq!(cache.bytes_in_use(), 20);
        cache.insert(1, 90);
        assert_eq!(cache.bytes_in_use(), 90);
        assert_eq!(cache.len(), 1);
        cache.check_invariants();
    }

    #[test]
    fn segmented_admission_resists_a_one_shot_scan() {
        // Capacity 4, half protected. Two hot keys are hit once each
        // (promoted), then a scan of 8 one-shot keys rolls through: the
        // hot keys must survive in the protected segment.
        let cache: ShardedLruCache<u32, u32> =
            ShardedLruCache::new(4, 1).with_segmented_admission(0.5);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&2), Some(20));
        assert_eq!(cache.stats().promoted, 2);
        for k in 100..108 {
            cache.insert(k, k);
            cache.check_invariants();
        }
        assert_eq!(cache.peek(&1), Some(10), "hot key flushed by scan");
        assert_eq!(cache.peek(&2), Some(20), "hot key flushed by scan");
        // The same scan against a plain LRU flushes both hot keys.
        let plain: ShardedLruCache<u32, u32> = ShardedLruCache::new(4, 1);
        plain.insert(1, 10);
        plain.insert(2, 20);
        assert_eq!(plain.get(&1), Some(10));
        assert_eq!(plain.get(&2), Some(20));
        for k in 100..108 {
            plain.insert(k, k);
        }
        assert_eq!(plain.peek(&1), None);
        assert_eq!(plain.peek(&2), None);
        assert_eq!(plain.stats().promoted, 0, "plain mode never promotes");
    }

    #[test]
    fn protected_overflow_demotes_its_lru_back_to_probation() {
        // Protected cap 1: promoting a second key demotes the first back
        // to probation (as its MRU), where an eviction can reach it.
        let cache: ShardedLruCache<u32, u32> =
            ShardedLruCache::new(4, 1).with_segmented_admission(0.25);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(10)); // 1 → protected
        assert_eq!(cache.get(&2), Some(20)); // 2 → protected, 1 demoted
        assert_eq!(cache.stats().promoted, 2);
        cache.check_invariants();
        // Fill with one-shot keys: 2 (protected) survives every eviction;
        // demoted 1 is probation's MRU, so it outlives the older scan keys
        // but eventually falls to the scan itself.
        cache.insert(3, 30);
        cache.insert(4, 40);
        cache.insert(5, 50);
        assert_eq!(cache.peek(&2), Some(20), "protected key evicted");
        cache.check_invariants();
    }

    #[test]
    fn a_rehit_in_probation_promotes_again_after_demotion() {
        let cache: ShardedLruCache<u32, u32> =
            ShardedLruCache::new(4, 1).with_segmented_admission(0.25);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10)); // promote
        cache.insert(2, 20);
        assert_eq!(cache.get(&2), Some(20)); // promote 2, demote 1
        assert_eq!(cache.get(&1), Some(10)); // re-promote 1, demote 2
        assert_eq!(cache.stats().promoted, 3);
        cache.check_invariants();
    }

    #[test]
    fn a_weigher_without_a_budget_prices_but_evicts_by_count() {
        let plain: ShardedLruCache<u32, u64> =
            ShardedLruCache::new(2, 1).with_weigher(identity_cost);
        let gated: ShardedLruCache<u32, u64> = ShardedLruCache::new(2, 1)
            .with_gated_slru()
            .with_weigher(identity_cost);
        for cache in [plain, gated] {
            cache.insert(1, 10);
            cache.insert(2, u64::MAX / 4);
            assert_eq!(cache.len(), 2, "a cost never evicts");
            assert_eq!(cache.bytes_in_use(), 10 + u64::MAX / 4);
            cache.insert(3, 30);
            assert_eq!(cache.len(), 2, "the entry count still binds");
            let resident: u64 = (1..=3).filter_map(|k| cache.peek(&k)).sum();
            assert_eq!(cache.bytes_in_use(), resident);
            assert_eq!(cache.tier_stats().bytes_in_use, resident);
            cache.check_invariants();
        }
    }

    #[test]
    fn unbudgeted_cache_ignores_costs() {
        let cache: ShardedLruCache<u32, u64> = ShardedLruCache::new(4, 1);
        cache.insert(1, u64::MAX / 2);
        cache.insert(2, u64::MAX / 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes_in_use(), 0, "default weigher prices 0");
        cache.check_invariants();
    }

    #[test]
    fn adaptive_admission_gate_denies_cold_keys_under_pressure() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(4, 1).with_gated_slru();
        for k in 0..4 {
            cache.insert(k, k);
        }
        // Heat the residents: their sketched frequency rises above any
        // unseen key's.
        for _ in 0..3 {
            for k in 0..4 {
                assert_eq!(cache.get(&k), Some(k));
            }
        }
        // A one-shot scan now bounces off the admission gate entirely.
        for k in 100..120 {
            cache.insert(k, k);
            cache.check_invariants();
        }
        for k in 0..4 {
            assert_eq!(cache.peek(&k), Some(k), "hot resident displaced by scan");
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "denied inserts must not evict");
        assert_eq!(stats.admission_denied, 20);
        assert_eq!(
            stats.insertions, 4,
            "denied inserts are not counted as insertions"
        );
    }

    #[test]
    fn adaptive_admission_admits_keys_hotter_than_the_victim() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(2, 1).with_gated_slru();
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Key 3 gets hotter than resident LRU 1 (misses still count
        // accesses in the sketch), so its insert is admitted.
        for _ in 0..3 {
            assert_eq!(cache.get(&3), None);
        }
        cache.insert(3, 30);
        assert_eq!(cache.peek(&3), Some(30), "hot key must be admitted");
        assert_eq!(cache.stats().evictions, 1);
        cache.check_invariants();
    }

    #[test]
    fn a_hot_key_enters_a_small_gated_shard_full_of_promoted_entries() {
        // 875‰ of two entries rounds to both; the gated split keeps one
        // for probation. Were both protected, the full shard's probation
        // would be empty, the gate would weigh key 3 against a protected
        // entry, and the eviction that followed its admission would take
        // key 3 itself, the only probation entry.
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(2, 1).with_gated_slru();
        assert_eq!(cache.tier_stats().protected_cap, 1);
        for k in [1, 2] {
            cache.insert(k, k * 10);
            assert_eq!(cache.get(&k), Some(k * 10), "promoted");
        }
        for _ in 0..5 {
            assert_eq!(cache.get(&3), None);
        }
        cache.insert(3, 30);
        assert_eq!(cache.peek(&3), Some(30), "the hot key must be resident");
        assert_eq!(cache.peek(&1), None, "the demoted key is the victim");
        assert_eq!(cache.stats().evictions, 1);
        cache.check_invariants();
    }

    #[test]
    fn tier_stats_report_geometry_for_every_mode() {
        let off: ShardedLruCache<u32, u32> = ShardedLruCache::new(8, 2);
        let stats = off.tier_stats();
        assert!(!stats.segmented);
        assert_eq!(stats.protected_frac_permille, 0);
        assert_eq!(stats.capacity, 8);

        let pinned: ShardedLruCache<u32, u32> =
            ShardedLruCache::new(8, 2).with_segmented_admission(0.5);
        let stats = pinned.tier_stats();
        assert!(stats.segmented);
        assert_eq!(stats.protected_cap, 4);
        assert_eq!(stats.protected_frac_permille, 500);

        let gated: ShardedLruCache<u32, u64> = ShardedLruCache::new(16, 2)
            .with_weigher(identity_cost)
            .with_gated_slru();
        gated.insert(1, 30);
        let _ = gated.get(&1);
        let stats = gated.tier_stats();
        assert!(stats.segmented);
        assert_eq!(stats.bytes_in_use, 30);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.protected_entries, 1, "promoted on the hit");
        assert_eq!(stats.probation_entries, 0);
        assert_eq!(stats.protected_cap, 14);
        assert_eq!(stats.protected_frac_permille, 875);
    }
}
