//! Sharded, mutex-per-shard LRU cache with O(1) eviction, bounded by
//! entry count alone, and segmented (probation/protected) admission that
//! can be pinned statically or tuned adaptively online.
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
//! **Adaptive tiering** ([`ShardedLruCache::with_adaptive_tiering`],
//! what every service cache tier runs): the segmented
//! discipline, self-tuned. Each shard additionally keeps a TinyLFU-style
//! frequency sketch, two bounded ghost lists (recent probation/protected
//! evictions, key hashes only), and a hill-climbing tuner — see the
//! [`tiering`](crate::tiering) module docs. Three behaviors ride on it:
//!
//! 1. **Sketch-gated admission**: a *new* key that would force an
//!    eviction is admitted only when its estimated frequency strictly
//!    exceeds the would-be victim's; otherwise the insert is dropped
//!    (counted in [`CacheStats::admission_denied`]; the caller keeps its
//!    computed value). One-shot scans no longer displace anything.
//! 2. **Ghost feedback**: a miss that matches a remembered eviction
//!    counts a [`CacheStats::ghost_hits`] and tells the tuner which
//!    segment was undersized.
//! 3. **Learned split with smoothed transitions**: the tuner's fraction
//!    (hard floor/ceiling, integer permille) re-caps the protected
//!    segment with at most one protected→probation demotion per
//!    operation, so a tuner step never causes a demotion storm. All tier
//!    state is integral and advanced only by cache operations: behavior
//!    is deterministic given the access sequence.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::tiering::{permille_from_frac, TierState, TierStats};

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
    /// Misses that matched a remembered eviction in a ghost list
    /// (always 0 unless adaptive tiering is live).
    pub ghost_hits: u64,
    /// Hill-climbing steps the tier tuner took (always 0 unless adaptive
    /// tiering is live).
    pub tuner_steps: u64,
    /// Halving decays of the per-shard frequency sketches (always 0
    /// unless adaptive tiering is live).
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
        self.ghost_hits += other.ghost_hits;
        self.tuner_steps += other.tuner_steps;
        self.sketch_resets += other.sketch_resets;
        self.admission_denied += other.admission_denied;
    }
}

/// Per-operation tier event deltas a shard reports back to the cache's
/// atomic counters.
#[derive(Debug, Clone, Copy, Default)]
struct TierEvents {
    ghost_hits: u64,
    tuner_steps: u64,
    sketch_resets: u64,
    admission_denied: u64,
}

/// What one shard-level insert did.
#[derive(Debug, Clone, Copy, Default)]
struct InsertOutcome {
    evicted: bool,
    denied: bool,
    events: TierEvents,
}

/// Sentinel index terminating the intrusive list.
const NIL: u32 = u32::MAX;

/// Which recency list a node is threaded through. Plain (non-segmented)
/// shards keep everything in `Probation`.
const PROBATION: usize = 0;
/// The re-referenced segment of a segmented shard.
const PROTECTED: usize = 1;

/// The cache's key hash — shard selection, the frequency sketch, and the
/// ghost lists all derive from this one hash, computed once per
/// operation. `DefaultHasher::new()` uses fixed keys, so the hash (and
/// with it every tiering decision) is deterministic across runs.
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
    /// Whether this entry was ever promoted. Eviction files the ghost
    /// under the segment that shaped the entry: a demoted-then-evicted
    /// entry still signals an undersized protected segment when it is
    /// re-referenced.
    hot: bool,
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
    /// Sum of live entry costs.
    bytes: u64,
    /// Adaptive tiering state (sketch, ghosts, tuner), when configured.
    tier: Option<Box<TierState>>,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            lists: [ListEnds::default(); 2],
            protected_len: 0,
            bytes: 0,
            tier: None,
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

    /// Feeds one access into the live tier machinery: the frequency
    /// sketch counts it, the tuner's window ticks (re-capping the
    /// protected segment on a step), and one smoothed rebalance demotion
    /// runs. A no-op for static/frozen shards.
    fn tier_access(&mut self, hash: u64, events: &mut TierEvents) {
        {
            let Some(tier) = &mut self.tier else {
                return;
            };
            if !tier.active {
                return;
            }
            if tier.sketch.increment(hash) {
                events.sketch_resets += 1;
            }
            if tier.tuner.on_access() {
                events.tuner_steps += 1;
                tier.recompute_cap();
            }
        }
        self.rebalance_one();
    }

    /// Smoothed transition toward a shrunk learned split: when protected
    /// occupancy exceeds the live entry cap, demote at most
    /// **one** protected LRU back to probation's MRU. Called once per
    /// operation on live adaptive shards, so a tuner step drains overflow
    /// gradually instead of in a demotion storm.
    fn rebalance_one(&mut self) {
        let Some(tier) = &self.tier else {
            return;
        };
        if !tier.active {
            return;
        }
        if self.protected_len > tier.protected_cap && self.lists[PROTECTED].tail != NIL {
            let demoted = self.lists[PROTECTED].tail;
            self.unlink(demoted);
            self.push_front(demoted, PROBATION);
        }
    }

    /// Refreshes `key`'s recency. In segmented mode (a positive protected
    /// cap) a probation hit promotes the entry into the protected
    /// segment, demoting that segment's LRU back to probation's MRU when
    /// it overflows. On adaptive shards the access also feeds the sketch
    /// and tuner, and a miss consults the ghost lists. Returns the value,
    /// whether a promotion happened, and the tier event deltas.
    fn touch(
        &mut self,
        key: &K,
        static_protected_cap: usize,
        hash: u64,
    ) -> (Option<V>, bool, TierEvents) {
        let mut events = TierEvents::default();
        self.tier_access(hash, &mut events);
        let Some(&index) = self.map.get(key) else {
            if let Some(tier) = &mut self.tier {
                if tier.active && tier.ghost_hit(hash) {
                    events.ghost_hits += 1;
                }
            }
            return (None, false, events);
        };
        let protected_cap = self
            .tier
            .as_ref()
            .map_or(static_protected_cap, |t| t.protected_cap);
        let segment = self.node(index).segment;
        let mut promoted = false;
        if protected_cap > 0 && segment == PROBATION {
            self.unlink(index);
            self.node_mut(index).hot = true;
            self.push_front(index, PROTECTED);
            promoted = true;
            // At most one entry over the cap: demote the protected LRU.
            if self.protected_len > protected_cap {
                let demoted = self.lists[PROTECTED].tail;
                self.unlink(demoted);
                self.push_front(demoted, PROBATION);
            }
        } else if self.lists[segment].head != index {
            self.unlink(index);
            self.push_front(index, segment);
        }
        (Some(self.node(index).value.clone()), promoted, events)
    }

    fn peek(&self, key: &K) -> Option<V> {
        self.map.get(key).map(|&i| self.node(i).value.clone())
    }

    /// Removes the node at `index` entirely: list, slab, map and byte
    /// gauge.
    fn remove_index(&mut self, index: u32) {
        self.unlink(index);
        let node = self.nodes[index as usize].take().expect("vacant lru slot");
        self.free.push(index);
        self.map.remove(&node.key);
        self.bytes -= node.cost;
    }

    /// Removes the LRU entry — probation's tail when probation is
    /// non-empty (one-shot keys die first), otherwise protected's. On
    /// live adaptive shards the victim's key hash is remembered in the
    /// ghost list of the segment that shaped it. Must not be called on an
    /// empty shard.
    fn evict_tail(&mut self) {
        let victim = if self.lists[PROBATION].tail != NIL {
            self.lists[PROBATION].tail
        } else {
            self.lists[PROTECTED].tail
        };
        debug_assert_ne!(victim, NIL, "evict on empty shard");
        if let Some(tier) = &mut self.tier {
            if tier.active {
                let node = self.nodes[victim as usize]
                    .as_ref()
                    .expect("vacant lru slot");
                tier.ghosts[usize::from(node.hot)].record(key_hash(&node.key));
            }
        }
        self.remove_index(victim);
    }

    /// The LRU entry a full shard's insert would evict first.
    fn eviction_victim(&self) -> u32 {
        if self.lists[PROBATION].tail != NIL {
            self.lists[PROBATION].tail
        } else {
            self.lists[PROTECTED].tail
        }
    }

    /// Inserts (or replaces) `key → value` priced at `cost` bytes, then
    /// evicts the LRU entry if the shard is over `capacity`. On live
    /// adaptive shards, a **new** key that needs an eviction must beat
    /// the would-be victim's sketched frequency to be admitted at all.
    fn insert(&mut self, key: K, value: V, cost: u64, capacity: usize, hash: u64) -> InsertOutcome {
        let mut outcome = InsertOutcome::default();
        self.tier_access(hash, &mut outcome.events);
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
            if let Some(tier) = &self.tier {
                if tier.active && self.map.len() >= capacity {
                    // A full shard is never empty (capacity >= 1), so the
                    // victim index is live.
                    let victim = self.eviction_victim();
                    let victim_hash = key_hash(
                        &self.nodes[victim as usize]
                            .as_ref()
                            .expect("vacant lru slot")
                            .key,
                    );
                    if tier.sketch.estimate(hash) <= tier.sketch.estimate(victim_hash) {
                        outcome.events.admission_denied += 1;
                        outcome.denied = true;
                        return outcome;
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
                hot: false,
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
            self.evict_tail();
            outcome.evicted = true;
        }
        outcome
    }
}

/// A concurrent LRU cache split into independently locked shards, with
/// O(1) eviction, an entry-count bound, and optional (static or adaptive)
/// segmented admission.
#[derive(Debug)]
pub struct ShardedLruCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Per-shard capacity slices; they sum to exactly the configured total.
    capacities: Vec<usize>,
    /// Per-shard caps on the protected segment; 0 everywhere (the
    /// default) disables segmented admission and the shard behaves as a
    /// plain LRU. Unused (the tier state's live cap rules) when
    /// `adaptive` is set.
    protected_caps: Vec<usize>,
    /// Whether shards carry adaptive tier state.
    adaptive: bool,
    /// Computes an entry's cost. The default weigher costs everything 0,
    /// so the byte gauge only reads non-zero when a real weigher is set.
    weigher: fn(&V) -> u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    promoted: AtomicU64,
    ghost_hits: AtomicU64,
    tuner_steps: AtomicU64,
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
            protected_caps: vec![0; shards],
            adaptive: false,
            weigher: zero_weight::<V>,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            promoted: AtomicU64::new(0),
            ghost_hits: AtomicU64::new(0),
            tuner_steps: AtomicU64::new(0),
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
    /// that shard in plain LRU mode. Pinning a static fraction clears any
    /// previously installed adaptive state.
    #[must_use]
    pub fn with_segmented_admission(mut self, protected_frac: f64) -> Self {
        let frac = protected_frac.clamp(0.0, 1.0);
        self = self.clear_tiering();
        self.protected_caps = self
            .capacities
            .iter()
            .map(|&cap| {
                #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
                #[allow(clippy::cast_sign_loss)]
                let protected = (cap as f64 * frac).round() as usize;
                protected.min(cap)
            })
            .collect();
        self
    }

    /// Enables self-tuning segmented admission starting from
    /// `initial_frac` (clamped to the tuner's floor/ceiling; see the
    /// module docs):
    /// sketch-gated admission, ghost-list feedback, and a hill-climbing
    /// tuner over the protected fraction.
    #[must_use]
    pub fn with_adaptive_tiering(self, initial_frac: f64) -> Self {
        self.install_adaptive(initial_frac, true)
    }

    /// Adaptive tiering with the tuning loop **frozen**: segment caps
    /// come from the same integer-permille machinery, but the sketch
    /// gate, ghost lists and tuner are all inert — the cache
    /// is operation-for-operation identical to
    /// [`with_segmented_admission`](Self::with_segmented_admission) at
    /// the same fraction. For bit-compat tests.
    #[must_use]
    pub fn with_adaptive_tuning_disabled(self, protected_frac: f64) -> Self {
        self.install_adaptive(protected_frac, false)
    }

    fn install_adaptive(mut self, frac: f64, tuning: bool) -> Self {
        self.adaptive = true;
        self.protected_caps = vec![0; self.shards.len()];
        let permille = permille_from_frac(frac, tuning);
        for (shard, &capacity) in self.shards.iter().zip(&self.capacities) {
            shard.lock().expect("cache shard poisoned").tier =
                Some(Box::new(TierState::new(capacity, permille, tuning)));
        }
        self
    }

    /// Removes any segmentation (static or adaptive); shards behave as
    /// plain LRUs.
    #[must_use]
    fn clear_tiering(mut self) -> Self {
        self.adaptive = false;
        self.protected_caps = vec![0; self.shards.len()];
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").tier = None;
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

    /// Folds one operation's tier event deltas into the atomic counters.
    fn fold_events(&self, events: TierEvents) {
        if events.ghost_hits != 0 {
            self.ghost_hits
                .fetch_add(events.ghost_hits, Ordering::Relaxed);
        }
        if events.tuner_steps != 0 {
            self.tuner_steps
                .fetch_add(events.tuner_steps, Ordering::Relaxed);
        }
        if events.sketch_resets != 0 {
            self.sketch_resets
                .fetch_add(events.sketch_resets, Ordering::Relaxed);
        }
        if events.admission_denied != 0 {
            self.admission_denied
                .fetch_add(events.admission_denied, Ordering::Relaxed);
        }
    }

    /// Looks up `key`, refreshing its recency (and, in segmented mode,
    /// promoting a probation entry to the protected segment).
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        let hash = key_hash(key);
        let index = self.shard_index_of(hash);
        let (found, promoted, events) = self.shards[index]
            .lock()
            .expect("cache shard poisoned")
            .touch(key, self.protected_caps[index], hash);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if promoted {
            self.promoted.fetch_add(1, Ordering::Relaxed);
        }
        self.fold_events(events);
        found
    }

    /// Inserts `key → value`, evicting within the shard if needed. On an
    /// adaptive cache under pressure the frequency-sketch gate may refuse
    /// a cold new key outright ([`CacheStats::admission_denied`]).
    pub fn insert(&self, key: K, value: V) {
        let hash = key_hash(&key);
        let index = self.shard_index_of(hash);
        let cost = (self.weigher)(&value);
        let outcome = self.shards[index]
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value, cost, self.capacities[index], hash);
        if !outcome.denied {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.fold_events(outcome.events);
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
            ghost_hits: self.ghost_hits.load(Ordering::Relaxed),
            tuner_steps: self.tuner_steps.load(Ordering::Relaxed),
            sketch_resets: self.sketch_resets.load(Ordering::Relaxed),
            admission_denied: self.admission_denied.load(Ordering::Relaxed),
        }
    }

    /// A gauge snapshot of the cache's tier geometry and occupancy —
    /// segment entry counts, entry capacities, bytes in use, and the live
    /// protected fraction — aggregated over the shards. Fuels the
    /// `/metrics` `xmem_cache_*` gauges.
    #[must_use]
    pub fn tier_stats(&self) -> TierStats {
        let mut stats = TierStats {
            segmented: self.adaptive || self.protected_caps.iter().any(|&c| c > 0),
            adaptive: self.adaptive,
            capacity: self.capacity() as u64,
            ..TierStats::default()
        };
        let mut permille_sum: u64 = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock().expect("cache shard poisoned");
            stats.entries += shard.map.len() as u64;
            stats.protected_entries += shard.protected_len as u64;
            stats.bytes_in_use += shard.bytes;
            if let Some(tier) = &shard.tier {
                stats.protected_cap += tier.protected_cap as u64;
                permille_sum += u64::from(tier.tuner.permille());
            } else {
                stats.protected_cap += self.protected_caps[i] as u64;
            }
        }
        stats.probation_entries = stats.entries - stats.protected_entries;
        stats.protected_frac_permille = if self.adaptive {
            #[allow(clippy::cast_possible_truncation)]
            {
                (permille_sum / self.shards.len() as u64) as u32
            }
        } else if stats.segmented && stats.capacity > 0 {
            #[allow(clippy::cast_possible_truncation)]
            {
                (stats.protected_cap * 1000 / stats.capacity) as u32
            }
        } else {
            0
        };
        stats
    }

    /// The learned tuner state — the mean protected fraction (permille)
    /// across shards and the maximum sketch decay epoch — or `None` when
    /// the cache is not adaptive. Persisted so warm boots resume the
    /// learned split instead of re-learning from the initial fraction.
    #[must_use]
    pub fn learned_state(&self) -> Option<(u32, u64)> {
        if !self.adaptive {
            return None;
        }
        let mut permille_sum: u64 = 0;
        let mut epoch: u64 = 0;
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            let tier = shard.tier.as_ref()?;
            permille_sum += u64::from(tier.tuner.permille());
            epoch = epoch.max(tier.sketch.epoch());
        }
        #[allow(clippy::cast_possible_truncation)]
        Some(((permille_sum / self.shards.len() as u64) as u32, epoch))
    }

    /// Seeds every shard's tuner with a persisted learned fraction
    /// (band-clamped) and sketch decay epoch. A no-op on non-adaptive
    /// caches; on a live adaptive cache the new split takes effect with
    /// the usual smoothed transitions.
    pub fn restore_learned_state(&self, frac_permille: u32, decay_epoch: u64) {
        if !self.adaptive {
            return;
        }
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            if let Some(tier) = shard.tier.as_mut() {
                tier.restore(frac_permille, decay_epoch);
            }
        }
    }

    /// Exhaustive structural self-check of every shard, used by tests: the
    /// recency list must thread exactly the mapped nodes and the byte gauge
    /// must equal the sum of live costs.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    pub fn check_invariants(&self) {
        for (i, (shard, &capacity)) in self.shards.iter().zip(&self.capacities).enumerate() {
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
                    match &shard.tier {
                        // A live tuner shrinks caps with smoothed (one
                        // per op) demotions, so occupancy may transiently
                        // exceed a fresh cap; only the shard bound is hard.
                        Some(tier) if tier.active => {
                            assert!(segment_len <= capacity, "protected over the shard");
                        }
                        Some(tier) => assert!(
                            segment_len <= tier.protected_cap,
                            "protected segment over its frozen cap"
                        ),
                        None => assert!(
                            segment_len <= self.protected_caps[i],
                            "protected segment over its cap"
                        ),
                    }
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
        let adaptive: ShardedLruCache<u32, u64> = ShardedLruCache::new(2, 1)
            .with_adaptive_tiering(0.5)
            .with_weigher(identity_cost);
        for cache in [plain, adaptive] {
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
        let cache: ShardedLruCache<u32, u32> =
            ShardedLruCache::new(4, 1).with_adaptive_tiering(0.5);
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
        let cache: ShardedLruCache<u32, u32> =
            ShardedLruCache::new(2, 1).with_adaptive_tiering(0.5);
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
    fn ghost_hits_are_counted_and_consumed() {
        let cache: ShardedLruCache<u32, u32> =
            ShardedLruCache::new(2, 1).with_adaptive_tiering(0.5);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Make key 3 hot enough to displace, evicting the probation LRU.
        for _ in 0..3 {
            assert_eq!(cache.get(&3), None);
        }
        cache.insert(3, 30);
        assert_eq!(cache.stats().evictions, 1);
        let ghost_hits_before = cache.stats().ghost_hits;
        // The evicted key's next miss is a ghost hit; the one after is not
        // (the hit consumed the ghost).
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.stats().ghost_hits, ghost_hits_before + 1);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.stats().ghost_hits, ghost_hits_before + 1);
        cache.check_invariants();
    }

    #[test]
    fn tuner_steps_move_the_learned_fraction() {
        let cache: ShardedLruCache<u32, u32> =
            ShardedLruCache::new(8, 1).with_adaptive_tiering(0.5);
        assert_eq!(cache.tier_stats().protected_frac_permille, 500);
        // Resident hot set, all promoted at least once (hot).
        for k in 0..8 {
            cache.insert(k, k);
        }
        for k in 0..8 {
            assert_eq!(cache.get(&k), Some(k));
        }
        // Challenger waves: heat a fresh key past the residents so the
        // gate admits it (evicting a once-promoted resident), then
        // re-miss the whole original set — evicted members land ghost
        // hits on the protected history, and the windowed tuner steps
        // the learned fraction up.
        for wave in 0..40u32 {
            let key = 100 + wave;
            for _ in 0..5 {
                let _ = cache.get(&key);
            }
            cache.insert(key, key);
            for k in 0..8 {
                let _ = cache.get(&k);
            }
            cache.check_invariants();
        }
        let stats = cache.stats();
        assert!(stats.ghost_hits > 0, "no ghost feedback: {stats:?}");
        assert!(stats.tuner_steps > 0, "tuner never stepped: {stats:?}");
        assert!(
            cache.tier_stats().protected_frac_permille > 500,
            "protected ghost pressure must raise the learned fraction"
        );
        cache.check_invariants();
    }

    #[test]
    fn frozen_adaptive_matches_static_slru_operation_for_operation() {
        let frozen: ShardedLruCache<u32, u32> =
            ShardedLruCache::new(8, 1).with_adaptive_tuning_disabled(0.5);
        let pinned: ShardedLruCache<u32, u32> =
            ShardedLruCache::new(8, 1).with_segmented_admission(0.5);
        for op in 0u32..2000 {
            let key = (op * 7 + op / 3) % 24;
            if op % 3 == 0 {
                frozen.insert(key, op);
                pinned.insert(key, op);
            } else {
                assert_eq!(frozen.get(&key), pinned.get(&key), "op {op} diverged");
            }
        }
        let (f, p) = (frozen.stats(), pinned.stats());
        assert_eq!(f, p, "frozen-adaptive counters diverged from static");
        assert_eq!(f.ghost_hits, 0);
        assert_eq!(f.admission_denied, 0);
        assert_eq!(f.tuner_steps, 0);
        frozen.check_invariants();
        pinned.check_invariants();
    }

    #[test]
    fn learned_state_round_trips_through_restore() {
        let cache: ShardedLruCache<u32, u32> =
            ShardedLruCache::new(16, 2).with_adaptive_tiering(0.5);
        assert_eq!(cache.learned_state(), Some((500, 0)));
        cache.restore_learned_state(250, 7);
        assert_eq!(cache.learned_state(), Some((250, 7)));
        // Out-of-band fractions clamp into the tuner band.
        cache.restore_learned_state(0, 7);
        assert_eq!(cache.learned_state(), Some((125, 7)));
        // Non-adaptive caches have no learned state and ignore restores.
        let plain: ShardedLruCache<u32, u32> = ShardedLruCache::new(16, 2);
        assert_eq!(plain.learned_state(), None);
        plain.restore_learned_state(250, 7);
        assert_eq!(plain.learned_state(), None);
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
        assert!(stats.segmented && !stats.adaptive);
        assert_eq!(stats.protected_cap, 4);
        assert_eq!(stats.protected_frac_permille, 500);

        let adaptive: ShardedLruCache<u32, u64> = ShardedLruCache::new(8, 2)
            .with_weigher(identity_cost)
            .with_adaptive_tiering(0.5);
        adaptive.insert(1, 30);
        let _ = adaptive.get(&1);
        let stats = adaptive.tier_stats();
        assert!(stats.segmented && stats.adaptive);
        assert_eq!(stats.bytes_in_use, 30);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.protected_entries, 1, "promoted on the hit");
        assert_eq!(stats.probation_entries, 0);
        assert_eq!(stats.protected_frac_permille, 500);
    }
}
