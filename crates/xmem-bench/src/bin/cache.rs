//! `cache` — the cache-tiering benchmark.
//!
//! Replays one deterministic, skewed [`JobKey`] trace — a Zipf(s≈1.0)
//! popularity distribution over a few thousand jobs, polluted with
//! one-shot scan keys (every 10th access is a key never seen again, the
//! sweep/probe traffic shape) and a hot-set rotation at the halfway mark
//! — against the same `ShardedLruCache` under each policy at an
//! **identical entry capacity**, the only bound a cache has: plain LRU,
//! static SLRU at several pinned fractions (including the service's own
//! 875‰ split, without the gate), and the service's gated SLRU (875‰
//! behind the TinyLFU admission gate). Emits `BENCH_cache.json` with
//! per-policy hit rates, replay/warm-serve throughput, resident bytes and
//! the gate's counters, asserting in-harness that the gated policy beats
//! plain LRU, does not lose to the best static fraction, and does not
//! lose to the hill-climbing tuner it replaced.
//!
//! Each policy runs [`REPEATS`] times on a fresh cache. The replays are
//! deterministic, and the harness checks that every repeat counts the
//! same; each timing reported (`total_ns`, and `ns_per_op` from it) is
//! the median of the repeats' samples.
//!
//! Usage: `cache [--quick] [--out PATH]`
//!
//! * `--quick` — CI-sized trace (seconds, not minutes);
//! * `--out`  — output path (default `BENCH_cache.json`).

use serde::Serialize;
use std::time::Instant;
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::TrainJobSpec;
use xmem_service::{JobKey, ShardedLruCache};

/// One timed benchmark (same shape as the `perf` harness).
#[derive(Debug, Serialize)]
struct Benchmark {
    name: String,
    iterations: u64,
    total_ns: u64,
    ns_per_op: f64,
    ops_per_sec: f64,
    unit: String,
}

fn finish(name: &str, unit: &str, iterations: u64, total_ns: u64) -> Benchmark {
    let ns_per_op = total_ns as f64 / iterations.max(1) as f64;
    let bench = Benchmark {
        name: name.to_string(),
        iterations,
        total_ns,
        ns_per_op,
        ops_per_sec: if ns_per_op > 0.0 {
            1e9 / ns_per_op
        } else {
            0.0
        },
        unit: unit.to_string(),
    };
    println!(
        "  {:<34} {:>12.0} ns/{} ({:.0} /s, n={})",
        bench.name, bench.ns_per_op, bench.unit, bench.ops_per_sec, bench.iterations
    );
    bench
}

/// Timed runs per policy; the reported timings are their medians.
const REPEATS: usize = 5;

/// One policy's outcome over the shared trace.
#[derive(Debug, PartialEq, Serialize)]
struct PolicyResult {
    /// Stable policy identifier.
    name: String,
    /// Fraction of trace accesses served without an insert.
    hit_rate: f64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    promoted: u64,
    /// TinyLFU gate denials (gated only; 0 elsewhere).
    admission_denied: u64,
    /// Frequency-sketch halving decays (gated only).
    sketch_resets: u64,
    /// The protected cap over the capacity, in permille.
    protected_frac_permille: u32,
    /// What the resident entries weigh after the replay (the weigher's
    /// gauge, `xmem_cache_bytes_in_use` in the service).
    bytes_in_use: u64,
}

/// Headline comparisons the CI gate and the README table read.
#[derive(Debug, Serialize)]
struct Derived {
    plain_lru_hit_rate: f64,
    best_static_hit_rate: f64,
    /// The pinned fraction that won among the static rows.
    best_static_frac: f64,
    gated_hit_rate: f64,
    /// Gated hit-rate minus plain LRU's (the CI-gated headline).
    gated_vs_plain_delta: f64,
    /// Gated hit-rate minus the best static fraction's.
    gated_vs_best_static_delta: f64,
    /// The hit rate the hill-climbing tuner the gated policy replaced
    /// scored on this trace, in this mode.
    replaced_tuner_hit_rate: f64,
    /// The gated policy's protected fraction, in permille.
    gated_protected_frac_permille: u32,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: &'static str,
    quick: bool,
    generated_unix: u64,
    /// Trace geometry, so a report is self-describing.
    universe: usize,
    trace_len: usize,
    cache_capacity: usize,
    zipf_s: f64,
    benchmarks: Vec<Benchmark>,
    policies: Vec<PolicyResult>,
    derived: Derived,
}

/// xorshift64* — the deterministic trace RNG.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// A Zipf(s) sampler over ranks `0..n` via inverse-CDF binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut XorShift) -> usize {
        #[allow(clippy::cast_precision_loss)]
        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The job universe: one [`JobKey`] per batch size — realistic key
/// contents (model, optimizer, batch, iterations) with cheap uniqueness.
fn job_key(batch: usize) -> JobKey {
    JobKey::of(&TrainJobSpec::new(
        ModelId::MobileNetV3Small,
        OptimizerKind::Adam,
        batch,
    ))
}

/// Bounds of [`cost_of`].
const MIN_COST: u64 = 64;
const MAX_COST: u64 = MIN_COST + 119 * 8;

/// Deterministic synthetic entry cost in bytes, varied (64..=1016, mean
/// ≈540). Every policy prices its entries with it the way the service's
/// stage tier prices its analyses: a gauge, never an eviction bound.
fn cost_of(index: u64) -> u64 {
    let mut h = index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    MIN_COST + (h % 120) * 8
}

/// One trace access: a universe index (the key) plus its entry cost.
#[derive(Clone, Copy)]
struct Access {
    index: u64,
    cost: u64,
}

/// Builds the shared skewed trace: Zipf-ranked accesses over `universe`
/// keys, a one-shot scan key every 10th access, and a hot-set rotation
/// (rank→key mapping shifted by a third of the universe) at the halfway
/// mark.
fn build_trace(universe: usize, len: usize, zipf_s: f64) -> Vec<Access> {
    let zipf = Zipf::new(universe, zipf_s);
    let mut rng = XorShift(0x5eed_cafe_f00d_d00d);
    let mut scan_serial = 0u64;
    let rotation = universe as u64 / 3;
    let mut trace = Vec::with_capacity(len);
    for op in 0..len {
        if op % 10 == 9 {
            // A globally unique one-shot key, outside the Zipf universe.
            scan_serial += 1;
            let index = universe as u64 + scan_serial;
            trace.push(Access {
                index,
                cost: cost_of(index),
            });
            continue;
        }
        let rank = zipf.sample(&mut rng) as u64;
        let phase = u64::from(op >= len / 2);
        let index = (rank + phase * rotation) % universe as u64;
        trace.push(Access {
            index,
            cost: cost_of(index),
        });
    }
    trace
}

/// Runs one cache policy [`REPEATS`] times, each on a fresh cache from
/// `build`, and reports the median timings and the (identical) outcome.
fn run_policy(
    name: &str,
    build: &dyn Fn() -> ShardedLruCache<JobKey, u64>,
    trace: &[Access],
    keys: &[JobKey],
    benchmarks: &mut Vec<Benchmark>,
) -> PolicyResult {
    let mut replay_ns = Vec::with_capacity(REPEATS);
    let mut warm_ns = Vec::with_capacity(REPEATS);
    let mut outcome: Option<PolicyResult> = None;
    for _ in 0..REPEATS {
        let (replay, warm, result) = replay_once(name, &build(), trace, keys);
        replay_ns.push(replay);
        warm_ns.push(warm);
        match &outcome {
            Some(first) => assert_eq!(first, &result, "{name}: a repeat counted differently"),
            None => outcome = Some(result),
        }
    }
    benchmarks.push(finish(
        &format!("replay_{name}"),
        "access",
        trace.len() as u64,
        median(replay_ns),
    ));
    benchmarks.push(finish(
        &format!("warm_get_{name}"),
        "lookup",
        trace.len() as u64 / 4,
        median(warm_ns),
    ));
    outcome.expect("at least one repeat")
}

/// The median of `samples` (the upper one of an even count).
fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Replays the trace against one cache, timing the full replay and a
/// warm-serve pass over the head of the popularity distribution: the
/// replay's and the pass's nanoseconds, and the outcome.
fn replay_once(
    name: &str,
    cache: &ShardedLruCache<JobKey, u64>,
    trace: &[Access],
    keys: &[JobKey],
) -> (u64, u64, PolicyResult) {
    let key_of = |access: &Access| -> JobKey {
        keys.get(access.index as usize)
            .cloned()
            .unwrap_or_else(|| job_key(access.index as usize))
    };
    let started = Instant::now();
    for access in trace {
        let key = key_of(access);
        if cache.get(&key).is_none() {
            cache.insert(key, access.cost);
        }
    }
    let replay_ns = started.elapsed().as_nanos() as u64;

    // Warm-serve throughput: hammer the 32 hottest post-rotation keys —
    // resident under any sane policy — so this times pure hit latency.
    let warm_reps = trace.len() as u64 / 4;
    let rotation = keys.len() as u64 / 3;
    let hot: Vec<JobKey> = (0..32)
        .map(|rank| keys[((rank + rotation) % keys.len() as u64) as usize].clone())
        .collect();
    for key in &hot {
        if cache.get(key).is_none() {
            cache.insert(key.clone(), cost_of(0));
        }
    }
    let before = cache.stats();
    let started = Instant::now();
    for i in 0..warm_reps {
        std::hint::black_box(cache.get(&hot[(i % 32) as usize]));
    }
    let warm_ns = started.elapsed().as_nanos() as u64;
    let stats = cache.stats();
    assert_eq!(
        stats.hits - before.hits,
        warm_reps,
        "{name}: the warm-serve pass must be pure hits"
    );

    // Hit rate over the trace replay: `before` excludes every warm-pass
    // lookup (it adds at most the 32 seeding gets — noise at trace
    // scale), so replay-phase hits/misses are read from it.
    let replay_hits = before.hits;
    let replay_misses = before.misses;
    let tier = cache.tier_stats();
    let entries = tier.entries;
    assert!(
        (entries * MIN_COST..=entries * MAX_COST).contains(&tier.bytes_in_use),
        "{name}: {} resident entries cannot weigh {} B",
        tier.entries,
        tier.bytes_in_use
    );
    #[allow(clippy::cast_precision_loss)]
    let hit_rate = replay_hits as f64 / (replay_hits + replay_misses).max(1) as f64;
    let result = PolicyResult {
        name: name.to_string(),
        hit_rate,
        hits: replay_hits,
        misses: replay_misses,
        insertions: stats.insertions,
        evictions: stats.evictions,
        promoted: stats.promoted,
        admission_denied: stats.admission_denied,
        sketch_resets: stats.sketch_resets,
        protected_frac_permille: tier.protected_frac_permille,
        bytes_in_use: tier.bytes_in_use,
    };
    (replay_ns, warm_ns, result)
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_cache.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("missing value for --out"),
            other => panic!("unknown flag `{other}` (cache [--quick] [--out PATH])"),
        }
    }
    println!(
        "xmem cache tiering harness ({} mode)",
        if quick { "quick" } else { "full" }
    );

    let universe: usize = if quick { 2048 } else { 8192 };
    let trace_len: usize = if quick { 120_000 } else { 1_200_000 };
    let capacity = universe / 8;
    let shards = 4;
    let zipf_s = 1.0;

    println!("  universe={universe} trace={trace_len} capacity={capacity} zipf_s={zipf_s}");
    let trace = build_trace(universe, trace_len, zipf_s);
    let keys: Vec<JobKey> = (0..universe).map(job_key).collect();
    // Scan keys are constructed on the fly; pre-warm the allocator path
    // so the first policy isn't charged for it.
    std::hint::black_box(job_key(universe + 1));

    let weigher: fn(&u64) -> u64 = |cost| *cost;
    let mut benchmarks = Vec::new();
    let mut policies = Vec::new();

    // Each policy is a plain cache with the shared weigher, then its
    // tiering.
    let cache = move || ShardedLruCache::new(capacity, shards).with_weigher(weigher);

    let plain = run_policy("plain_lru", &cache, &trace, &keys, &mut benchmarks);

    let static_fracs = [
        ("static_slru_25", 0.25),
        ("static_slru_50", 0.5),
        ("static_slru_75", 0.75),
        ("static_slru_875", 0.875),
    ];
    for &(name, frac) in &static_fracs {
        let build = || cache().with_segmented_admission(frac);
        policies.push(run_policy(name, &build, &trace, &keys, &mut benchmarks));
    }

    let build = || cache().with_gated_slru();
    let gated = run_policy("gated", &build, &trace, &keys, &mut benchmarks);

    // --- in-harness proof obligations ----------------------------------
    let (best_static_hit_rate, best_static_frac) = policies
        .iter()
        .zip(&static_fracs)
        .map(|(p, &(_, f))| (p.hit_rate, f))
        .fold(
            (0.0f64, 0.0f64),
            |best, cur| {
                if cur.0 > best.0 {
                    cur
                } else {
                    best
                }
            },
        );
    // The hill-climbing tuner (ghost lists steering the protected split
    // inside 125–875‰) that every service tier ran before the split was
    // fixed scored these hit rates on this trace: quick, full.
    let replaced_tuner_hit_rate = if quick { 0.6390 } else { 0.6798 };
    println!(
        "hit rates: plain {:.4} | best static ({best_static_frac}) {:.4} | gated {:.4} ({}‰, {} denials, {} sketch resets) | replaced tuner {replaced_tuner_hit_rate:.4}",
        plain.hit_rate,
        best_static_hit_rate,
        gated.hit_rate,
        gated.protected_frac_permille,
        gated.admission_denied,
        gated.sketch_resets,
    );
    for p in policies.iter() {
        println!("  {:<18} hit_rate {:.4}", p.name, p.hit_rate);
    }
    assert!(
        gated.hit_rate > plain.hit_rate,
        "gated ({:.4}) must beat plain LRU ({:.4}) on this skewed trace",
        gated.hit_rate,
        plain.hit_rate
    );
    assert!(
        gated.hit_rate >= best_static_hit_rate,
        "gated ({:.4}) must not lose to the best static fraction ({best_static_frac}: {:.4})",
        gated.hit_rate,
        best_static_hit_rate
    );
    assert!(
        gated.hit_rate >= replaced_tuner_hit_rate,
        "gated ({:.4}) must not lose to the tuner it replaced ({replaced_tuner_hit_rate:.4})",
        gated.hit_rate,
    );
    assert_eq!(
        gated.protected_frac_permille, 875,
        "the gated policy and `static_slru_875` must share one split"
    );
    assert!(
        gated.sketch_resets > 0,
        "the frequency sketch must have decayed on a trace this long"
    );
    assert!(
        gated.admission_denied > 0,
        "the TinyLFU gate must have denied one-shot scan keys"
    );
    assert_eq!(
        policies
            .iter()
            .chain([&plain])
            .map(|p| p.admission_denied + p.sketch_resets)
            .sum::<u64>(),
        0,
        "ungated policies must not touch the gate"
    );

    let derived = Derived {
        plain_lru_hit_rate: plain.hit_rate,
        best_static_hit_rate,
        best_static_frac,
        gated_hit_rate: gated.hit_rate,
        gated_vs_plain_delta: gated.hit_rate - plain.hit_rate,
        gated_vs_best_static_delta: gated.hit_rate - best_static_hit_rate,
        replaced_tuner_hit_rate,
        gated_protected_frac_permille: gated.protected_frac_permille,
    };
    let mut all_policies = vec![plain];
    all_policies.append(&mut policies);
    all_policies.push(gated);
    let report = Report {
        schema: "xmem-bench-cache/v2",
        quick,
        generated_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        universe,
        trace_len,
        cache_capacity: capacity,
        zipf_s,
        benchmarks,
        policies: all_policies,
        derived,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("wrote {out}");
}
