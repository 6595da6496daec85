//! Scheduler admission control over a **heterogeneous** GPU pool: pack a
//! queue of training jobs onto mixed device types using one xMem device
//! matrix, and compare against the naive policy (one job per GPU).
//!
//! This is the downstream use the paper motivates (§1), scaled to the
//! per-cluster deployment: the scheduler needs every pending job's demand
//! on *every* device type it operates, so it submits the whole queue as a
//! single batched-replay matrix through the async front end. The service
//! profiles and analyzes each distinct job **once** and fans the cached
//! analyses out to per-device allocator simulations — the stats line at
//! the end proves "1 analysis, N simulations" straight from the service
//! counters.
//!
//! ```text
//! cargo run --release --example scheduler_admission
//! ```

use xmem::prelude::*;

/// Registry names of the pool's device types, in the service's registry.
const DEVICE_TYPES: [&str; 2] = ["rtx3060", "rtx4060"];

struct Gpu {
    /// Which registry device type this physical GPU is.
    kind: &'static str,
    device: GpuDevice,
    committed: u64,
    jobs: Vec<usize>,
}

fn main() {
    let queue = [
        TrainJobSpec::new(ModelId::MobileNetV3Large, OptimizerKind::Adam, 300),
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 10),
        TrainJobSpec::new(
            ModelId::ResNet101,
            OptimizerKind::Sgd { momentum: true },
            300,
        ),
        TrainJobSpec::new(ModelId::T5Small, OptimizerKind::Adafactor, 15),
        TrainJobSpec::new(ModelId::MnasNet, OptimizerKind::RMSprop, 400),
        TrainJobSpec::new(ModelId::Opt125M, OptimizerKind::Sgd { momentum: false }, 20),
        // Re-submissions of earlier shapes — the common scheduler pattern;
        // their matrix rows are answered from the shared caches.
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 10),
        TrainJobSpec::new(ModelId::MobileNetV3Large, OptimizerKind::Adam, 300),
    ];
    // A mixed pool: one 12 GiB and two 8 GiB cards.
    let mut pool = [
        Gpu {
            kind: "rtx3060",
            device: GpuDevice::rtx3060(),
            committed: 0,
            jobs: Vec::new(),
        },
        Gpu {
            kind: "rtx4060",
            device: GpuDevice::rtx4060(),
            committed: 0,
            jobs: Vec::new(),
        },
        Gpu {
            kind: "rtx4060",
            device: GpuDevice::rtx4060(),
            committed: 0,
            jobs: Vec::new(),
        },
    ];
    let service = AsyncEstimationService::for_device(pool[0].device);

    println!(
        "Admitting {} jobs onto a heterogeneous pool of {} GPUs ({} device types):\n",
        queue.len(),
        pool.len(),
        DEVICE_TYPES.len()
    );
    // The scheduler event loop: one matrix query answers every pending
    // job's demand on every device type it operates.
    let matrix_future = service
        .matrix(&queue, &DEVICE_TYPES, None, &TraceContext::disabled())
        .expect("queue sized for the workload");
    let matrix = block_on(matrix_future).expect("device types are registered");

    let mut rejected = 0usize;
    for (index, row) in matrix.rows.iter().enumerate() {
        // Best fit: try the pool's GPUs smallest-capacity-first, using
        // this job's demand *on that GPU's device type*.
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by_key(|&g| pool[g].device.capacity);
        let slot = order.into_iter().find(|&g| {
            row.cell(pool[g].kind)
                .is_some_and(|cell| match &cell.estimate {
                    Ok(e) => {
                        !e.oom_predicted
                            && pool[g].device.framework_bytes + pool[g].committed + e.job_peak_bytes
                                <= pool[g].device.capacity
                    }
                    Err(_) => false,
                })
        });
        match slot {
            Some(g) => {
                let demand = row
                    .cell(pool[g].kind)
                    .and_then(|c| c.estimate.as_ref().ok())
                    .expect("fitting cell has an estimate")
                    .job_peak_bytes;
                pool[g].committed += demand;
                pool[g].jobs.push(index);
                println!(
                    "  ADMIT {:<40} -> GPU {g} ({}) demand {:>6.2} GiB",
                    row.spec.label(),
                    pool[g].kind,
                    demand as f64 / (1u64 << 30) as f64
                );
            }
            None => {
                rejected += 1;
                println!(
                    "  QUEUE {:<40} (no capacity on any device)",
                    row.spec.label()
                );
            }
        }
    }

    let inner = service.service();
    let sims = inner.sim_stats();
    println!(
        "\nService after admission: {} analyses for {} jobs x {} device types \
         ({} simulations, {} sim-cache hits) — duplicate shapes were packed \
         without re-profiling.",
        inner.profile_runs(),
        queue.len(),
        DEVICE_TYPES.len(),
        sims.sim_runs,
        sims.cache.hits,
    );
    println!();
    for (i, gpu) in pool.iter().enumerate() {
        println!(
            "GPU {i} ({}): {} jobs, {:.2}/{:.2} GiB committed -> {:?}",
            gpu.kind,
            gpu.jobs.len(),
            (gpu.device.framework_bytes + gpu.committed) as f64 / (1u64 << 30) as f64,
            gpu.device.capacity as f64 / (1u64 << 30) as f64,
            gpu.jobs
                .iter()
                .map(|&j| queue[j].label())
                .collect::<Vec<_>>()
        );
    }
    let placed = pool.iter().map(|g| g.jobs.len()).sum::<usize>();
    println!(
        "\nxMem-guided packing placed {placed}/{} jobs on {} GPUs ({rejected} deferred);\n\
         the naive whole-GPU policy would have placed {}. Verifying co-located\n\
         demand stays under capacity with real runs:",
        queue.len(),
        pool.len(),
        pool.len()
    );
    // Verify: per GPU, the sum of true peaks (minus shared framework) fits.
    // Duplicates are counted deliberately — a re-submitted job was admitted
    // twice, and each admission reserved its own demand slice.
    for (i, gpu) in pool.iter().enumerate() {
        let mut true_total = gpu.device.framework_bytes;
        for &index in &gpu.jobs {
            let gt = run_on_gpu(&queue[index], &gpu.device, None, false);
            assert!(!gt.oom, "an admitted job must fit its own GPU");
            true_total += gt.peak_nvml - gpu.device.framework_bytes;
        }
        println!(
            "  GPU {i} ({}): true co-located demand {:.2} GiB <= {:.2} GiB capacity: {}",
            gpu.kind,
            true_total as f64 / (1u64 << 30) as f64,
            gpu.device.capacity as f64 / (1u64 << 30) as f64,
            true_total <= gpu.device.capacity
        );
        assert!(true_total <= gpu.device.capacity);
    }
}
