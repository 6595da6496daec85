//! Ablation study (DESIGN.md §4): how much each xMem mechanism contributes.
//!
//! Part 1 — estimation accuracy. Variants each disable one mechanism:
//! * `no-retime`  — Orchestrator lifecycle rules off (raw CPU timings);
//! * `no-filter`  — script-level blocks are replayed too;
//! * `no-roundup` — allocator 512 B rounding off;
//! * `tensor-sum` — no allocator simulation at all: peak of live tensor
//!   bytes (the naive estimate prior work uses, §2.2).
//!
//! Part 2 — OOM-prediction fidelity near the capacity boundary, where the
//! two-level semantics matter:
//! * `no-reclaim` — cached segments are not released before reporting OOM
//!   (the single-level behaviour the paper attributes to DNNMem, §5.1).

use std::fmt::Write as _;
use xmem_alloc::AllocatorConfig;
use xmem_bench::{write_artifact, BenchArgs};
use xmem_core::{Analyzer, Estimator, EstimatorConfig, Orchestrator};
use xmem_eval::metrics;
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{profile_on_cpu, run_on_gpu, GpuDevice, TrainJobSpec};

fn variant_config(device: GpuDevice, variant: &str) -> EstimatorConfig {
    let mut cfg = EstimatorConfig::for_device(device);
    match variant {
        "full" => {}
        "no-retime" => {
            cfg.orchestrator = Orchestrator {
                retime: false,
                ..Orchestrator::default()
            }
        }
        "no-filter" => {
            cfg.orchestrator = Orchestrator {
                filter_script: false,
                ..Orchestrator::default()
            }
        }
        "no-roundup" => cfg.allocator = AllocatorConfig::without_round_up(),
        "no-reclaim" => cfg.allocator = AllocatorConfig::without_reclaim(),
        other => panic!("unknown variant {other}"),
    }
    cfg
}

/// Naive tensor-sum estimate: peak of live requested bytes, no allocator.
fn tensor_sum_estimate(spec: &TrainJobSpec, device: &GpuDevice) -> u64 {
    let trace = profile_on_cpu(spec);
    let analyzed = Analyzer::new().analyze(&trace).expect("well-formed trace");
    let buffer = Orchestrator::default().orchestrate(&analyzed);
    let mut live = 0u64;
    let mut peak = 0u64;
    for (&bytes, &is_alloc) in buffer.bytes.iter().zip(&buffer.is_alloc) {
        if is_alloc {
            live += bytes;
            peak = peak.max(live);
        } else {
            live -= bytes;
        }
    }
    peak + device.framework_bytes
}

fn main() {
    let args = BenchArgs::parse();
    let device = GpuDevice::rtx3060();
    let jobs = [
        (ModelId::ResNet101, OptimizerKind::Adam, 300),
        (ModelId::ConvNextTiny, OptimizerKind::AdamW, 300),
        (ModelId::DistilGpt2, OptimizerKind::AdamW, 20),
        (ModelId::Gpt2, OptimizerKind::Adafactor, 20),
        (ModelId::T5Small, OptimizerKind::Adam, 20),
        (ModelId::MobileNetV3Large, OptimizerKind::RMSprop, 400),
    ];
    let mut csv = String::from("variant,mre,mean_signed_error\n");

    println!(
        "Part 1: accuracy over {} jobs (MRE / mean signed error)",
        jobs.len()
    );
    let truths: Vec<u64> = jobs
        .iter()
        .map(|(model, opt, batch)| {
            let spec = TrainJobSpec::new(*model, *opt, *batch)
                .with_iterations(3)
                .with_seed(args.seed);
            let gt = run_on_gpu(&spec, &device, None, false);
            assert!(!gt.oom);
            gt.peak_nvml
        })
        .collect();
    let report = |variant: &str, estimates: Vec<u64>, csv: &mut String| {
        let errors: Vec<f64> = estimates
            .iter()
            .zip(&truths)
            .map(|(&e, &t)| metrics::relative_error(e, t))
            .collect();
        let signed: f64 = estimates
            .iter()
            .zip(&truths)
            .map(|(&e, &t)| (e as f64 - t as f64) / t as f64)
            .sum::<f64>()
            / truths.len() as f64;
        let mre = metrics::median(&errors).expect("non-empty") * 100.0;
        println!(
            "  {variant:<12} MRE {mre:>7.3}%   bias {:+.3}%",
            signed * 100.0
        );
        let _ = writeln!(csv, "{variant},{:.6},{:.6}", mre / 100.0, signed);
    };
    for variant in ["full", "no-retime", "no-filter", "no-roundup"] {
        let estimates: Vec<u64> = jobs
            .iter()
            .map(|(model, opt, batch)| {
                let spec = TrainJobSpec::new(*model, *opt, *batch)
                    .with_iterations(3)
                    .with_seed(args.seed);
                Estimator::new(variant_config(device, variant))
                    .estimate_job(&spec)
                    .expect("estimation succeeds")
                    .peak_bytes
            })
            .collect();
        report(variant, estimates, &mut csv);
    }
    let estimates: Vec<u64> = jobs
        .iter()
        .map(|(model, opt, batch)| {
            let spec = TrainJobSpec::new(*model, *opt, *batch)
                .with_iterations(3)
                .with_seed(args.seed);
            tensor_sum_estimate(&spec, &device)
        })
        .collect();
    report("tensor-sum", estimates, &mut csv);

    // Part 2: OOM verdicts across the capacity boundary — the two-level
    // reclaim path decides the verdict for jobs just below capacity.
    println!("\nPart 2: OOM-prediction agreement across the capacity boundary");
    let sweep: Vec<TrainJobSpec> = [48, 56, 64, 72, 80, 88, 96, 104]
        .iter()
        .map(|&b| {
            TrainJobSpec::new(ModelId::Gpt2, OptimizerKind::AdamW, b)
                .with_iterations(3)
                .with_seed(args.seed)
        })
        .collect();
    for variant in ["full", "no-reclaim"] {
        let estimator = Estimator::new(variant_config(device, variant));
        let mut agree = 0;
        for spec in &sweep {
            let est = estimator.estimate_job(spec).expect("estimation succeeds");
            let gt = run_on_gpu(spec, &device, None, false);
            if est.oom_predicted == gt.oom {
                agree += 1;
            }
        }
        println!("  {variant:<12} verdict agreement {agree}/{}", sweep.len());
        let _ = writeln!(csv, "{variant}-oom-agreement,{agree},{}", sweep.len());
    }
    write_artifact(&args.out_dir, "ablation_accuracy.csv", &csv);
}
