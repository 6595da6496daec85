//! The caching allocator against its reference implementation on the event
//! streams of real jobs: every model of the serving benchmark's mix and one
//! large LLaMA-family model, profiled, analyzed and orchestrated exactly as
//! an estimate does, then replayed through both allocators on an unbounded
//! device, a roomy one and one tight enough to reclaim and run out of
//! memory. Each event must
//! agree on the address or the OOM, and the counters and the snapshot must
//! agree at the end. The replay the simulator runs must report the same
//! peaks as the reference.

#[path = "../../xmem-alloc/tests/reference/mod.rs"]
mod reference;

use xmem_alloc::{AllocatorConfig, CachingAllocator, DeviceAllocator, MemoryCounters};
use xmem_core::{Analyzer, EventBuffer, Orchestrator, Simulator};
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{profile_on_cpu, TrainJobSpec};

const MIB: u64 = 1 << 20;

/// The twelve models of the serving benchmark's job mix.
const MODELS: [ModelId; 12] = [
    ModelId::MobileNetV2,
    ModelId::MobileNetV3Small,
    ModelId::MobileNetV3Large,
    ModelId::MnasNet,
    ModelId::RegNetX400MF,
    ModelId::ConvNextTiny,
    ModelId::DistilGpt2,
    ModelId::Gpt2,
    ModelId::T5Small,
    ModelId::GptNeo125M,
    ModelId::Opt125M,
    ModelId::CerebrasGpt111M,
];

fn buffer(model: ModelId, optimizer: OptimizerKind, batch: usize) -> EventBuffer {
    let spec = TrainJobSpec::new(model, optimizer, batch).with_iterations(2);
    let analyzed = Analyzer::new()
        .analyze(&profile_on_cpu(&spec))
        .expect("trace analyzes");
    Orchestrator::default().orchestrate(&analyzed)
}

/// Replays `buffer` through both allocators the way the simulator does
/// (frees of blocks that are not live are skipped; the first OOM ends the
/// run) and returns whether it ran out of memory, with the final counters.
fn replay_both(
    buffer: &EventBuffer,
    config: &AllocatorConfig,
    device: DeviceAllocator,
) -> (bool, MemoryCounters) {
    let mut alloc = CachingAllocator::new(config.clone(), device.clone());
    let mut oracle = reference::CachingAllocator::new(config.clone(), device);
    let mut live = vec![None; buffer.num_blocks];
    let mut oom = false;
    for event in 0..buffer.len() {
        let block = buffer.block[event] as usize;
        if buffer.is_alloc[event] {
            let bytes = buffer.bytes[event] as usize;
            match (alloc.alloc(bytes), oracle.alloc(bytes)) {
                (Ok(handle), Ok(addr)) => {
                    assert_eq!(handle.addr(), addr, "address of event {event}");
                    live[block] = Some((handle, addr));
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "OOM at event {event}");
                    oom = true;
                    break;
                }
                (got, want) => panic!("{got:?} against {want:?} at event {event}"),
            }
        } else if let Some((handle, addr)) = live[block].take() {
            alloc.free(handle);
            oracle.free(addr);
        }
        assert_eq!(
            alloc.counters(),
            oracle.counters(),
            "counters at event {event}"
        );
    }
    alloc.check_invariants();
    assert_eq!(alloc.snapshot(), oracle.snapshot());
    (oom, *oracle.counters())
}

#[test]
fn real_event_streams_replay_identically() {
    let config = AllocatorConfig::pytorch_defaults();
    let page = DeviceAllocator::DEFAULT_PAGE;
    let mut ooms = 0;
    let mut reclaims = 0;
    let mix = MODELS.into_iter().enumerate().map(|(i, model)| {
        let optimizer = OptimizerKind::all()[i % OptimizerKind::all().len()];
        (model, optimizer, 2 + i % 3)
    });
    // One large LLaMA-family job: its many same-shaped layers put hundreds
    // of equal-sized free blocks in one size bin.
    let large = (ModelId::Qwen3_4B, OptimizerKind::AdamW, 1);
    for (model, optimizer, batch) in mix.chain([large]) {
        let buffer = buffer(model, optimizer, batch);

        let (oom, unbounded) = replay_both(&buffer, &config, DeviceAllocator::unlimited());
        assert!(!oom);
        let sim = Simulator::unbounded().replay(&buffer);
        assert_eq!(sim.counters, unbounded, "{model:?}");
        let peak = unbounded.peak_reserved;

        // Roomy: the unbounded peak fits. Tight: two thirds of it, so the
        // allocator reclaims its cache and, for most jobs, runs out.
        let roomy = DeviceAllocator::new(peak + 64 * MIB, page, 0);
        assert!(!replay_both(&buffer, &config, roomy).0);
        let tight = peak / 3 * 2;
        let (oom, counters) = replay_both(&buffer, &config, DeviceAllocator::new(tight, page, 0));
        let sim = Simulator::new(tight, 0).replay(&buffer);
        assert_eq!((sim.oom, sim.counters), (oom, counters), "{model:?}");
        ooms += usize::from(oom);
        reclaims += counters.num_reclaims;
    }
    assert!(ooms > 0, "the tight devices must run out of memory");
    assert!(
        reclaims > 0,
        "the tight devices must reclaim cached segments"
    );
}

#[test]
fn real_event_streams_replay_identically_under_ablations() {
    let mut max_split = AllocatorConfig::pytorch_defaults();
    max_split.max_split_size = Some(8 << 20);
    let mut gc = AllocatorConfig::pytorch_defaults();
    gc.gc_threshold = Some(0.6);
    let configs = [
        AllocatorConfig::without_caching(),
        AllocatorConfig::without_reclaim(),
        AllocatorConfig::without_round_up(),
        max_split,
        gc,
    ];
    for model in [ModelId::MobileNetV3Small, ModelId::DistilGpt2] {
        let buffer = buffer(model, OptimizerKind::AdamW, 4);
        let peak = Simulator::unbounded().replay(&buffer).peak_reserved;
        for config in &configs {
            for capacity in [peak * 2, peak / 4 * 3] {
                let device = DeviceAllocator::new(capacity, DeviceAllocator::DEFAULT_PAGE, 0);
                replay_both(&buffer, config, device);
            }
        }
    }
}
