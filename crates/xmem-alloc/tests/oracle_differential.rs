//! Differential test of the caching allocator against the reference
//! implementation in `tests/reference/` (the allocator before it freed by
//! handle and kept its free blocks in size-binned linked lists).
//!
//! Seeded random alloc/free/`empty_cache` sequences run through both, under
//! every behaviour configuration the simulator and the ablations use, on
//! small bounded devices where reclaim and OOM fire often. Every step must
//! agree on the address or the [`OomError`](xmem_alloc::OomError), and on
//! the counters; snapshots and usage curves must agree throughout.

mod reference;

use xmem_alloc::{AllocatorConfig, BlockHandle, CachingAllocator, DeviceAllocator};

const MIB: usize = 1 << 20;

/// Seeds that once exposed a divergence, replayed on every run (the
/// vendored proptest does not shrink, so failures are pinned by seed).
const REGRESSION_SEEDS: [u64; 0] = [];

/// Random seeds per configuration and device.
const SEEDS: u64 = 24;

/// Steps per sequence.
const STEPS: usize = 400;

/// xorshift64*: a fixed, dependency-free stream per seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn configs() -> Vec<(&'static str, AllocatorConfig)> {
    let mut max_split = AllocatorConfig::pytorch_defaults();
    max_split.max_split_size = Some(4 * MIB);
    let mut gc = AllocatorConfig::pytorch_defaults();
    gc.gc_threshold = Some(0.5);
    vec![
        ("pytorch_defaults", AllocatorConfig::pytorch_defaults()),
        ("without_caching", AllocatorConfig::without_caching()),
        ("without_reclaim", AllocatorConfig::without_reclaim()),
        ("without_round_up", AllocatorConfig::without_round_up()),
        ("max_split_size", max_split),
        ("gc_threshold", gc),
    ]
}

/// `(capacity, external)` in MiB: tight, medium and roomy small devices.
const DEVICES: [(u64, u64); 3] = [(48, 0), (96, 6), (192, 0)];

/// A request size: mostly small-pool tensors, some large-buffer and some
/// huge ones, with repeats so exact fits and address ties occur.
fn size(rng: &mut Rng, recent: &[usize]) -> usize {
    match rng.below(20) {
        0..=2 if !recent.is_empty() => recent[rng.below(recent.len() as u64) as usize],
        3..=11 => rng.below(MIB as u64 + 1) as usize,
        12..=16 => MIB + rng.below(9 * MIB as u64) as usize,
        17 => 4 * MIB,
        _ => 10 * MIB + rng.below(30 * MIB as u64) as usize,
    }
}

/// Runs one sequence through both allocators, returning how many
/// requests ran out of memory.
fn run(seed: u64, name: &str, config: &AllocatorConfig, device: (u64, u64)) -> u64 {
    let make = || {
        DeviceAllocator::new(
            device.0 * MIB as u64,
            DeviceAllocator::DEFAULT_PAGE,
            device.1 * MIB as u64,
        )
    };
    let mut alloc = CachingAllocator::new(config.clone(), make());
    let mut oracle = reference::CachingAllocator::new(config.clone(), make());
    alloc.record_timeline(true);
    oracle.record_timeline(true);

    let at = |step: usize| format!("seed {seed}, {name}, device {device:?}, step {step}");
    let mut rng = Rng::new(seed);
    let mut live: Vec<(BlockHandle, u64)> = Vec::new();
    let mut recent: Vec<usize> = Vec::new();
    let mut clock = 0u64;
    let mut ooms = 0;
    for step in 0..STEPS {
        clock += rng.below(50);
        alloc.advance_clock(clock);
        oracle.advance_clock(clock);
        match rng.below(32) {
            0..=17 => {
                let bytes = size(&mut rng, &recent);
                recent.push(bytes);
                match (alloc.alloc(bytes), oracle.alloc(bytes)) {
                    (Ok(handle), Ok(addr)) => {
                        assert_eq!(handle.addr(), addr, "address at {}", at(step));
                        live.push((handle, addr));
                    }
                    (Err(got), Err(want)) => {
                        assert_eq!(got, want, "OOM at {}", at(step));
                        ooms += 1;
                    }
                    (got, want) => panic!("{got:?} against {want:?} at {}", at(step)),
                }
            }
            18..=30 if !live.is_empty() => {
                let (handle, addr) = live.swap_remove(rng.below(live.len() as u64) as usize);
                alloc.free(handle);
                oracle.free(addr);
            }
            31 => {
                alloc.empty_cache();
                oracle.empty_cache();
            }
            _ => {}
        }
        assert_eq!(
            alloc.counters(),
            oracle.counters(),
            "counters at {}",
            at(step)
        );
        alloc.check_invariants();
        if step % 25 == 0 {
            assert_eq!(
                alloc.snapshot(),
                oracle.snapshot(),
                "snapshot at {}",
                at(step)
            );
        }
    }
    for (handle, addr) in live {
        alloc.free(handle);
        oracle.free(addr);
    }
    assert_eq!(
        alloc.snapshot(),
        oracle.snapshot(),
        "drained, {}",
        at(STEPS)
    );
    alloc.empty_cache();
    oracle.empty_cache();
    alloc.check_invariants();
    assert_eq!(
        alloc.snapshot(),
        oracle.snapshot(),
        "emptied, {}",
        at(STEPS)
    );
    assert_eq!(
        alloc.timeline(),
        oracle.timeline(),
        "timeline, {}",
        at(STEPS)
    );
    assert_eq!(alloc.device().peak_used(), oracle.device().peak_used());
    ooms
}

#[test]
fn random_sequences_match_the_reference_allocator() {
    for (name, config) in configs() {
        let mut ooms = 0;
        for device in DEVICES {
            for seed in (1..=SEEDS).chain(REGRESSION_SEEDS) {
                ooms += run(seed, name, &config, device);
            }
        }
        assert!(ooms > 0, "{name}: the small devices must run out of memory");
    }
}

#[test]
fn unbounded_sequences_match_the_reference_allocator() {
    for (name, config) in configs() {
        for seed in 1..=SEEDS {
            assert_eq!(run(seed, name, &config, (u64::MAX / 2 / MIB as u64, 0)), 0);
        }
    }
}
