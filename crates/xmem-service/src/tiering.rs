//! Adaptive tiering machinery for [`ShardedLruCache`]: a TinyLFU-style
//! frequency sketch, bounded ghost lists, and a hill-climbing tuner that
//! learns the probation/protected split online.
//!
//! [`ShardedLruCache`]: crate::ShardedLruCache
//!
//! Production estimator traffic is skewed and shifting — schedulers
//! re-ask about the same few model/optimizer families far more often
//! than the long tail. A hand-picked `protected_frac` serves one shape
//! of that skew; this module makes every cache tier learn it instead:
//!
//! - [`FrequencySketch`] — a 4-bit count-min sketch (a few KiB per
//!   shard) estimating per-key access frequency, halved periodically so
//!   stale popularity decays. On a full shard, a new key is admitted
//!   only when its estimated frequency **strictly exceeds** the eviction
//!   victim's, so one-shot scan keys can no longer displace residents.
//! - [`GhostList`] — a bounded, key-hash-only history of recent
//!   evictions, one per segment. A miss that hits a ghost means the
//!   entry would have survived had its segment been bigger; the two
//!   lists' hit counters tell the tuner which segment is undersized.
//! - [`TierTuner`] — shifts the protected fraction in small
//!   hill-climbing steps (integer permille, hard floor/ceiling) once
//!   per fixed-size access window, driven by the ghost-hit imbalance.
//!   All state is integral and updated only by cache operations, so the
//!   learned split is **deterministic given the access sequence**.
//!
//! The cache applies the learned fraction with smoothed transitions —
//! at most one protected→probation demotion per operation — so a tuner
//! step never causes a demotion storm.

use std::collections::HashMap;

/// Hard floor on the learned protected fraction (permille): the tuner
/// never starves probation below 12.5% of a shard.
pub(crate) const FRAC_FLOOR_PERMILLE: u32 = 125;
/// Hard ceiling on the learned protected fraction (permille).
pub(crate) const FRAC_CEIL_PERMILLE: u32 = 875;
/// How far one tuner step moves the protected fraction (permille).
pub(crate) const TUNER_STEP_PERMILLE: u32 = 25;
/// Accesses per tuner decision window (per shard).
pub(crate) const TUNER_WINDOW: u32 = 64;
/// Sketch estimate at or above which a re-surfacing probation evictee
/// counts as *hot* — evidence the protected share (not probation) was
/// too small to keep it. Three observations within one decay epoch
/// separates repeat customers from tail keys that merely came back once
/// (whose estimate is at most 2: the original access plus the
/// ghost-hitting miss itself).
pub(crate) const HOT_GHOST_ESTIMATE: u32 = 3;

/// The protected fraction every service cache tier's tuner starts from:
/// half/half.
pub(crate) const INITIAL_PROTECTED_FRAC: f64 = 0.5;

/// Converts a protected fraction to integer permille. When `clamp_to_band`
/// is set (live tuning) the result is confined to the tuner's operating
/// band; otherwise only to `[0, 1000]` (frozen tiering must reproduce any
/// pinned fraction exactly).
pub(crate) fn permille_from_frac(frac: f64, clamp_to_band: bool) -> u32 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let permille = (frac.clamp(0.0, 1.0) * 1000.0).round() as u32;
    if clamp_to_band {
        permille.clamp(FRAC_FLOOR_PERMILLE, FRAC_CEIL_PERMILLE)
    } else {
        permille
    }
}

/// The protected-entry cap a permille fraction yields for a shard
/// `capacity`. Integer round-half-up — identical to
/// `(capacity as f64 * frac).round()` whenever `frac` is an exact
/// permille, which keeps frozen-adaptive shards bit-compatible with the
/// float-configured static path.
pub(crate) fn cap_from_permille(capacity: usize, permille: u32) -> usize {
    let cap = (capacity as u64 * u64::from(permille) + 500) / 1000;
    #[allow(clippy::cast_possible_truncation)]
    (cap as usize).min(capacity)
}

/// Finalizer-quality 64→64 bit mixer (splitmix64's), used to derive the
/// sketch's four row hashes from one key hash.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A TinyLFU-style 4-bit count-min sketch with periodic halving decay.
///
/// Sixteen 4-bit counters pack into each `u64` word; every recorded
/// access bumps four counters (one per derived hash), and an estimate is
/// the minimum of the four. Once the number of recorded accesses reaches
/// the sample size (~8× the shard's entry capacity), every counter is
/// halved — recent popularity dominates, stale popularity decays. A few
/// KiB per shard at the default capacities.
#[derive(Debug)]
pub(crate) struct FrequencySketch {
    table: Vec<u64>,
    /// `table.len() - 1`; the table length is a power of two.
    mask: u64,
    /// Accesses recorded since the last halving.
    additions: u32,
    /// Halving threshold.
    sample: u32,
    /// Completed halvings (the decay epoch; persisted).
    resets: u64,
}

impl FrequencySketch {
    /// A sketch sized for a shard holding `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        // ~8 counters per cacheable entry, at least 512, power of two.
        let counters = (capacity.max(64) * 8).next_power_of_two();
        let words = (counters / 16).max(1);
        // Halve every ~16 accesses per cacheable entry. Shards here are
        // small (tens of entries), so a literature-typical 8-10× sample
        // would decay faster than skewed traffic re-references its warm
        // keys — evicted-but-warm keys would read cold by the time they
        // ghost-hit, and the tuner would learn from inverted signals.
        #[allow(clippy::cast_possible_truncation)]
        let sample = (capacity.max(64) * 16) as u32;
        FrequencySketch {
            table: vec![0; words],
            mask: (words - 1) as u64,
            additions: 0,
            sample,
            resets: 0,
        }
    }

    /// The four (word, nibble-shift) counter slots for `hash`.
    fn slots(&self, hash: u64) -> [(usize, u32); 4] {
        let mut out = [(0usize, 0u32); 4];
        let mut h = hash;
        for slot in &mut out {
            h = mix64(h.wrapping_add(0x9e37_79b9_7f4a_7c15));
            #[allow(clippy::cast_possible_truncation)]
            let word = (h & self.mask) as usize;
            let nibble = ((h >> 32) & 15) as u32;
            *slot = (word, nibble * 4);
        }
        out
    }

    /// Records one access to `hash`. Returns `true` when the addition
    /// triggered a halving decay (a sketch reset).
    pub(crate) fn increment(&mut self, hash: u64) -> bool {
        for (word, shift) in self.slots(hash) {
            let counter = (self.table[word] >> shift) & 15;
            if counter < 15 {
                self.table[word] += 1u64 << shift;
            }
        }
        self.additions += 1;
        if self.additions >= self.sample {
            self.halve();
            return true;
        }
        false
    }

    /// Estimated access frequency of `hash` (saturates at 15).
    pub(crate) fn estimate(&self, hash: u64) -> u8 {
        let mut min = 15u64;
        for (word, shift) in self.slots(hash) {
            min = min.min((self.table[word] >> shift) & 15);
        }
        #[allow(clippy::cast_possible_truncation)]
        {
            min as u8
        }
    }

    /// Halves every counter (the periodic decay) and advances the epoch.
    fn halve(&mut self) {
        for word in &mut self.table {
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        self.additions /= 2;
        self.resets += 1;
    }

    /// Completed halvings since creation (monotonic; persisted so warm
    /// boots do not restart the decay clock from zero).
    pub(crate) fn epoch(&self) -> u64 {
        self.resets
    }

    /// Restores the decay epoch from a persisted snapshot (kept
    /// monotonic: an older record never rolls the epoch back).
    pub(crate) fn restore_epoch(&mut self, epoch: u64) {
        self.resets = self.resets.max(epoch);
    }
}

/// Sentinel index terminating a ghost list's intrusive links.
const GHOST_NIL: u32 = u32::MAX;

/// A bounded, key-hash-only LRU history of recent evictions — the same
/// slab/index-linked discipline as the cache's recency lists, so every
/// operation is O(1). Stores no keys or values: 16 bytes per remembered
/// eviction.
#[derive(Debug, Default)]
pub(crate) struct GhostList {
    map: HashMap<u64, u32>,
    /// `(key hash, prev, next)` slots; freed slots are recycled.
    slots: Vec<(u64, u32, u32)>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    cap: usize,
}

impl GhostList {
    pub(crate) fn new(cap: usize) -> Self {
        GhostList {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: GHOST_NIL,
            tail: GHOST_NIL,
            cap: cap.max(8),
        }
    }

    fn unlink(&mut self, index: u32) {
        let (_, prev, next) = self.slots[index as usize];
        if prev == GHOST_NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].2 = next;
        }
        if next == GHOST_NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].1 = prev;
        }
    }

    fn push_front(&mut self, index: u32) {
        let old_head = self.head;
        {
            let slot = &mut self.slots[index as usize];
            slot.1 = GHOST_NIL;
            slot.2 = old_head;
        }
        if old_head != GHOST_NIL {
            self.slots[old_head as usize].1 = index;
        }
        self.head = index;
        if self.tail == GHOST_NIL {
            self.tail = index;
        }
    }

    /// Remembers an evicted key hash (refreshing it if already present),
    /// forgetting the oldest ghost beyond the bound.
    pub(crate) fn record(&mut self, hash: u64) {
        if let Some(&index) = self.map.get(&hash) {
            if self.head != index {
                self.unlink(index);
                self.push_front(index);
            }
            return;
        }
        let index = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = (hash, GHOST_NIL, GHOST_NIL);
                slot
            }
            None => {
                self.slots.push((hash, GHOST_NIL, GHOST_NIL));
                #[allow(clippy::cast_possible_truncation)]
                {
                    (self.slots.len() - 1) as u32
                }
            }
        };
        self.map.insert(hash, index);
        self.push_front(index);
        if self.map.len() > self.cap {
            let victim = self.tail;
            self.unlink(victim);
            let hash = self.slots[victim as usize].0;
            self.map.remove(&hash);
            self.free.push(victim);
        }
    }

    /// Consumes a ghost hit: removes `hash` from the history and reports
    /// whether it was remembered.
    pub(crate) fn take(&mut self, hash: u64) -> bool {
        let Some(index) = self.map.remove(&hash) else {
            return false;
        };
        self.unlink(index);
        self.free.push(index);
        true
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// The hill-climbing tuner: one decision per [`TUNER_WINDOW`] accesses,
/// moving the protected fraction one [`TUNER_STEP_PERMILLE`] toward the
/// segment whose ghosts were hit *more valuably* this window. Each ghost
/// hit is weighted by the key's frequency-sketch estimate: losing a key
/// the sketch still rates hot costs many future hits, while one-hit tail
/// churn re-surfacing in the probation history is worth a single hit —
/// raw counts would let that churn (which every skewed workload produces
/// in bulk) out-vote the few, far more valuable, evicted-hot-key
/// signals. Integral state only — deterministic given the access
/// sequence.
#[derive(Debug)]
pub(crate) struct TierTuner {
    permille: u32,
    window_len: u32,
    probation_ghost_hits: u32,
    protected_ghost_hits: u32,
}

impl TierTuner {
    pub(crate) fn new(permille: u32) -> Self {
        TierTuner {
            permille,
            window_len: 0,
            probation_ghost_hits: 0,
            protected_ghost_hits: 0,
        }
    }

    /// The current learned protected fraction in permille.
    pub(crate) fn permille(&self) -> u32 {
        self.permille
    }

    /// Overwrites the learned fraction (persistence restore). The band
    /// clamp applies so a restored value can never escape the operating
    /// floor/ceiling.
    pub(crate) fn restore_permille(&mut self, permille: u32) {
        self.permille = permille.clamp(FRAC_FLOOR_PERMILLE, FRAC_CEIL_PERMILLE);
    }

    /// Records a ghost hit on the protected (`true`) or probation
    /// (`false`) history for this window, weighted by the key's
    /// frequency-sketch estimate (callers pass at least 1).
    pub(crate) fn note_ghost(&mut self, protected: bool, weight: u32) {
        if protected {
            self.protected_ghost_hits += weight;
        } else {
            self.probation_ghost_hits += weight;
        }
    }

    /// Ticks the access window; at each boundary, steps the fraction
    /// toward the needier segment (ties, including the quiet 0/0 window,
    /// hold position). Returns whether a step was taken.
    pub(crate) fn on_access(&mut self) -> bool {
        self.window_len += 1;
        if self.window_len < TUNER_WINDOW {
            return false;
        }
        self.window_len = 0;
        let (protected, probation) = (self.protected_ghost_hits, self.probation_ghost_hits);
        self.protected_ghost_hits = 0;
        self.probation_ghost_hits = 0;
        if protected > probation {
            // Re-referenced protected evictees: protected is undersized.
            let next = (self.permille + TUNER_STEP_PERMILLE).min(FRAC_CEIL_PERMILLE);
            if next != self.permille {
                self.permille = next;
                return true;
            }
        } else if probation > protected {
            let next = self
                .permille
                .saturating_sub(TUNER_STEP_PERMILLE)
                .max(FRAC_FLOOR_PERMILLE);
            if next != self.permille {
                self.permille = next;
                return true;
            }
        }
        false
    }
}

/// Per-shard adaptive state, boxed into the shard behind its mutex.
/// `active == false` is the frozen (tuning-disabled) flavor used by
/// bit-compat tests: segment caps come from the permille machinery but
/// the sketch gate, ghosts and tuner are all inert.
#[derive(Debug)]
pub(crate) struct TierState {
    pub(crate) sketch: FrequencySketch,
    /// Eviction histories, indexed like the segments: `[probation,
    /// protected]`. Victims file under the segment that *shaped* them —
    /// an entry that was ever promoted records as a protected ghost even
    /// if it was demoted before eviction, since its re-reference means
    /// the protected share was too small to keep it.
    pub(crate) ghosts: [GhostList; 2],
    pub(crate) tuner: TierTuner,
    /// Entry cap on the protected segment (derived from the permille).
    pub(crate) protected_cap: usize,
    /// The shard's entry-capacity slice.
    capacity: usize,
    /// Whether tuning (sketch gate, ghosts, tuner) is live.
    pub(crate) active: bool,
}

impl TierState {
    pub(crate) fn new(capacity: usize, permille: u32, active: bool) -> Self {
        TierState {
            sketch: FrequencySketch::new(capacity),
            ghosts: [GhostList::new(capacity), GhostList::new(capacity)],
            tuner: TierTuner::new(permille),
            protected_cap: cap_from_permille(capacity, permille),
            capacity,
            active,
        }
    }

    /// Re-derives the protected entry cap after a permille change.
    pub(crate) fn recompute_cap(&mut self) {
        self.protected_cap = cap_from_permille(self.capacity, self.tuner.permille());
    }

    /// Consumes a ghost hit for `hash` on a miss and votes for the
    /// segment whose growth would have kept the key. Returns whether a
    /// ghost was hit.
    ///
    /// The vote routes by *evidence*, not only by which history matched:
    /// a protected evictee always argues for more protected space, but a
    /// probation evictee the sketch still rates hot (estimate ≥
    /// [`HOT_GHOST_ESTIMATE`]) does too — it was on its way to promotion
    /// and churned out of probation before earning it, so growing
    /// probation at protected's expense would not have saved it. Only
    /// cold re-references vote for more recency (probation) room. This
    /// matters because SLRU promotion dynamics invert the classic ARC
    /// reading of a probation ghost under frequency-skewed traffic:
    /// the keys a bigger protected segment would serve are exactly the
    /// hot ones that keep dying in probation.
    pub(crate) fn ghost_hit(&mut self, hash: u64) -> bool {
        let estimate = u32::from(self.sketch.estimate(hash));
        let weight = estimate.max(1);
        if self.ghosts[1].take(hash) {
            self.tuner.note_ghost(true, weight);
            true
        } else if self.ghosts[0].take(hash) {
            self.tuner
                .note_ghost(estimate >= HOT_GHOST_ESTIMATE, weight);
            true
        } else {
            false
        }
    }

    /// Restores persisted learned state: the fraction (band-clamped) and
    /// the sketch decay epoch.
    pub(crate) fn restore(&mut self, frac_permille: u32, decay_epoch: u64) {
        self.tuner.restore_permille(frac_permille);
        self.recompute_cap();
        self.sketch.restore_epoch(decay_epoch);
    }
}

/// A point-in-time gauge snapshot of one cache's tier geometry and
/// occupancy, aggregated over its shards — the `/metrics`
/// `xmem_cache_*` gauge source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Whether any probation/protected split is configured (static or
    /// adaptive).
    pub segmented: bool,
    /// Whether the split is adaptively tuned.
    pub adaptive: bool,
    /// Resident entries.
    pub entries: u64,
    /// Resident entries in the probation segment (all of them for a
    /// plain LRU).
    pub probation_entries: u64,
    /// Resident entries in the protected segment.
    pub protected_entries: u64,
    /// Configured entry capacity.
    pub capacity: u64,
    /// Entry cap on the protected segment (summed over shards; live
    /// learned value under adaptive tiering).
    pub protected_cap: u64,
    /// Sum of resident entry costs, as priced by the weigher.
    pub bytes_in_use: u64,
    /// The protected fraction in permille — live learned value under
    /// adaptive tiering, the configured ratio under static segmentation,
    /// 0 when tiering is off.
    pub protected_frac_permille: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_counts_and_estimates() {
        let mut sketch = FrequencySketch::new(64);
        assert_eq!(sketch.estimate(42), 0);
        for _ in 0..5 {
            sketch.increment(42);
        }
        assert_eq!(sketch.estimate(42), 5);
        // Saturates at 15.
        for _ in 0..100 {
            sketch.increment(42);
        }
        assert_eq!(sketch.estimate(42), 15);
    }

    #[test]
    fn sketch_halving_decays_counters_and_advances_epoch() {
        let mut sketch = FrequencySketch::new(64);
        let sample = sketch.sample;
        let mut resets = 0;
        for _ in 0..sample {
            if sketch.increment(7) {
                resets += 1;
            }
        }
        assert_eq!(resets, 1, "one decay per sample period");
        assert_eq!(sketch.epoch(), 1);
        assert_eq!(sketch.estimate(7), 7, "15 halves to 7");
    }

    #[test]
    fn sketch_epoch_restore_is_monotonic() {
        let mut sketch = FrequencySketch::new(64);
        sketch.restore_epoch(5);
        assert_eq!(sketch.epoch(), 5);
        sketch.restore_epoch(3);
        assert_eq!(sketch.epoch(), 5, "restore never rolls back");
    }

    #[test]
    fn ghost_list_remembers_bounded_history_in_order() {
        let mut ghosts = GhostList::new(8);
        for hash in 0..20u64 {
            ghosts.record(hash);
        }
        assert_eq!(ghosts.len(), 8);
        assert!(!ghosts.take(0), "oldest ghosts forgotten");
        assert!(ghosts.take(19));
        assert!(!ghosts.take(19), "a ghost hit is consumed");
        assert_eq!(ghosts.len(), 7);
    }

    #[test]
    fn ghost_list_refreshes_duplicates_instead_of_double_counting() {
        let mut ghosts = GhostList::new(8); // 8 is also the floored minimum
        ghosts.record(1);
        ghosts.record(2);
        ghosts.record(1); // refresh: 1 is now MRU
        for key in 3..=9 {
            ghosts.record(key); // the 9th distinct key evicts 2 (the LRU), not 1
        }
        assert!(ghosts.take(1));
        assert!(!ghosts.take(2));
    }

    #[test]
    fn tuner_steps_toward_the_needier_segment_and_respects_the_band() {
        let mut tuner = TierTuner::new(500);
        // Protected ghosts dominate: fraction climbs one step per window.
        tuner.note_ghost(true, 1);
        for _ in 0..TUNER_WINDOW - 1 {
            assert!(!tuner.on_access());
        }
        assert!(tuner.on_access(), "window boundary steps");
        assert_eq!(tuner.permille(), 500 + TUNER_STEP_PERMILLE);
        // Quiet windows hold position.
        for _ in 0..TUNER_WINDOW {
            tuner.on_access();
        }
        assert_eq!(tuner.permille(), 500 + TUNER_STEP_PERMILLE);
        // Probation ghosts walk it down to the floor, never past it.
        for _ in 0..200 {
            tuner.note_ghost(false, 1);
            for _ in 0..TUNER_WINDOW {
                tuner.on_access();
            }
        }
        assert_eq!(tuner.permille(), FRAC_FLOOR_PERMILLE);
        // And the ceiling caps the climb.
        for _ in 0..200 {
            tuner.note_ghost(true, 1);
            for _ in 0..TUNER_WINDOW {
                tuner.on_access();
            }
        }
        assert_eq!(tuner.permille(), FRAC_CEIL_PERMILLE);
    }

    #[test]
    fn cap_from_permille_matches_float_rounding_on_eighths() {
        for capacity in [1usize, 2, 3, 4, 7, 16, 100, 257] {
            for eighths in 0..=8u32 {
                let frac = f64::from(eighths) / 8.0;
                let permille = permille_from_frac(frac, false);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                #[allow(clippy::cast_precision_loss)]
                let float_cap = ((capacity as f64 * frac).round() as usize).min(capacity);
                assert_eq!(
                    cap_from_permille(capacity, permille),
                    float_cap,
                    "capacity {capacity} frac {frac}"
                );
            }
        }
    }
}
