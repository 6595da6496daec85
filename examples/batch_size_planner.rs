//! Batch-size planner across a device fleet: for every model, find the
//! largest batch size that trains safely on **each** registered device,
//! using xMem estimates only (no GPU time consumed), then validate one
//! column of the frontier with ground-truth runs.
//!
//! Planning goes through the **async** front end: one admission question
//! per (model, device) pair, all submitted as futures and answered
//! through the shared service concurrently. Per question, a coarse sweep
//! brackets the fit/OOM frontier and bisection pins it down. The pay-off
//! of the multi-device layer shows in the counters: a family whose fit is
//! proven answers every device column from that **one** fit (three anchor
//! profiles), and each column pays only for its own allocator
//! simulations; a family whose fit is rejected profiles each column's
//! probes.
//!
//! ```text
//! cargo run --release --example batch_size_planner
//! ```

use xmem::prelude::*;

fn main() {
    let devices = [
        ("rtx3060", GpuDevice::rtx3060()),
        ("rtx4060", GpuDevice::rtx4060()),
        ("a100", GpuDevice::a100_40g()),
    ];
    let service = AsyncEstimationService::for_device(devices[0].1);
    println!("Largest safe batch size per device (xMem-planned, then validated):\n");
    let questions = [
        (ModelId::Gpt2, OptimizerKind::AdamW, (1, 128)),
        (ModelId::DistilGpt2, OptimizerKind::Adam, (1, 192)),
        (ModelId::ResNet101, OptimizerKind::Adam, (32, 2048)),
        (ModelId::ConvNextTiny, OptimizerKind::AdamW, (32, 2048)),
    ];
    // Submit every (model, device) planning question up front; each
    // resolves to the largest batch that fits that device.
    let futures: Vec<Vec<_>> = questions
        .iter()
        .map(|&(model, optimizer, (lo, hi))| {
            let base = TrainJobSpec::new(model, optimizer, lo);
            devices
                .iter()
                .map(|&(_, device)| {
                    service
                        .plan(&base, device, lo, hi, None, &TraceContext::disabled())
                        .expect("queue sized for the workload")
                })
                .collect()
        })
        .collect();

    print!("{:<16} {:<10}", "model", "optimizer");
    for (name, _) in &devices {
        print!(" {name:>9}");
    }
    println!("  (validated on {})", devices[0].0);
    for (&(model, optimizer, _), row) in questions.iter().zip(futures) {
        print!("{:<16} {:<10}", model.info().name, optimizer.name());
        let answers = block_on(join_all(row));
        let mut planned_first: Option<usize> = None;
        for (i, planned) in answers.into_iter().enumerate() {
            match planned.expect("estimation succeeds") {
                Some(batch) => {
                    if i == 0 {
                        planned_first = Some(batch);
                    }
                    print!(" {batch:>9}");
                }
                None => print!(" {:>9}", "-"),
            }
        }
        // Validate the first column's frontier: the planned batch must
        // run on the real (simulated-GPU) device without OOM.
        match planned_first {
            Some(batch) => {
                let ok = run_on_gpu(
                    &TrainJobSpec::new(model, optimizer, batch),
                    &devices[0].1,
                    None,
                    false,
                );
                println!("  ({})", if ok.oom { "OOM!" } else { "fits" });
                assert!(!ok.oom, "planned batch must fit its device");
            }
            None => println!("  (no fit)"),
        }
    }
    let inner = service.service();
    let sims = inner.sim_stats();
    println!(
        "\nService counters: {} profile runs for {} simulations across {} devices —\n\
         sim cells {} hits / {} misses; each plan's probes rode its family's fit\n\
         where one was proven, and were profiled per batch where it was not.",
        inner.profile_runs(),
        sims.sim_runs,
        sims.device_shards,
        sims.cache.hits,
        sims.cache.misses,
    );
}
