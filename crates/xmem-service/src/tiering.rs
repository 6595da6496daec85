//! The admission gate and fixed split every service cache tier runs: a
//! TinyLFU-style frequency sketch in front of a segmented LRU whose
//! protected segment holds [`GATED_PROTECTED_PERMILLE`] of each shard.
//!
//! Production estimator traffic is skewed — schedulers re-ask about the
//! same few model/optimizer families far more often than the long tail,
//! and sweeps and admission probes pour in keys that are never asked
//! for again. [`FrequencySketch`] (a few KiB per shard) estimates each
//! key's recent access frequency. On a full shard, a new key is admitted
//! only when its estimate **strictly exceeds** the eviction victim's,
//! so one-shot scan keys never displace residents. All state is integral
//! and updated only by cache operations, so admission is deterministic
//! given the access sequence.

/// The protected fraction of every gated shard, in permille. On the
/// `cache` harness's skewed trace, the gate with this split beats every
/// static split and the hill-climbing tuner it replaced; the gate at a
/// half/half split loses to the best static split.
pub(crate) const GATED_PROTECTED_PERMILLE: u32 = 875;

/// The protected-entry cap a permille fraction yields for a shard
/// `capacity`. Integer round-half-up — identical to
/// `(capacity as f64 * frac).round()` whenever `frac` is an exact
/// permille, so a gated shard splits exactly as the static path does at
/// the same fraction.
pub(crate) fn cap_from_permille(capacity: usize, permille: u32) -> usize {
    let cap = (capacity as u64 * u64::from(permille) + 500) / 1000;
    #[allow(clippy::cast_possible_truncation)]
    (cap as usize).min(capacity)
}

/// The protected-entry cap of a gated shard holding `capacity` entries:
/// [`GATED_PROTECTED_PERMILLE`] of it, less one entry where rounding
/// would leave probation no room. A full shard then always has a
/// probation victim, which is the entry the gate weighs a newcomer
/// against; with no probation room, a new key would evict itself.
pub(crate) fn gated_protected_cap(capacity: usize) -> usize {
    cap_from_permille(capacity, GATED_PROTECTED_PERMILLE).min(capacity.saturating_sub(1))
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
/// the sample size (~16× the shard's entry capacity), every counter is
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
        // keys, and an evicted-but-warm key would read as cold as a
        // one-shot key by the time it came back.
        #[allow(clippy::cast_possible_truncation)]
        let sample = (capacity.max(64) * 16) as u32;
        FrequencySketch {
            table: vec![0; words],
            mask: (words - 1) as u64,
            additions: 0,
            sample,
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

    /// Halves every counter (the periodic decay).
    fn halve(&mut self) {
        for word in &mut self.table {
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        self.additions /= 2;
    }
}

/// A point-in-time gauge snapshot of one cache's tier geometry and
/// occupancy, aggregated over its shards — the `/metrics`
/// `xmem_cache_*` gauge source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Whether any shard has a protected segment (a probation/protected
    /// split).
    pub segmented: bool,
    /// Resident entries.
    pub entries: u64,
    /// Resident entries in the probation segment (all of them for a
    /// plain LRU).
    pub probation_entries: u64,
    /// Resident entries in the protected segment.
    pub protected_entries: u64,
    /// Configured entry capacity.
    pub capacity: u64,
    /// Entry cap on the protected segment (summed over shards).
    pub protected_cap: u64,
    /// Sum of resident entry costs, as priced by the weigher.
    pub bytes_in_use: u64,
    /// The protected cap over the capacity, in permille; 0 when the
    /// cache is not segmented.
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
        assert_eq!(sketch.estimate(7), 7, "15 halves to 7");
    }

    #[test]
    fn cap_from_permille_matches_float_rounding_on_eighths() {
        for capacity in [1usize, 2, 3, 4, 7, 16, 100, 257] {
            for eighths in 0..=8u32 {
                let frac = f64::from(eighths) / 8.0;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                #[allow(clippy::cast_precision_loss)]
                let float_cap = ((capacity as f64 * frac).round() as usize).min(capacity);
                assert_eq!(
                    cap_from_permille(capacity, eighths * 125),
                    float_cap,
                    "capacity {capacity} frac {frac}"
                );
            }
        }
    }
}
