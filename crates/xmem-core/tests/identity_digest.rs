//! Cross-model identity digest of the whole a-priori pipeline.
//!
//! One FNV-1a hash covers, for every [`ModelId`] × {Adam, SGD with
//! momentum} × {fp32, fp16, `zero_grad` at iteration start}, every profiler
//! trace event, every analyzed block and the resulting [`Estimate`], plus
//! the simulated-GPU ground truth of the fp32 jobs (the engine that
//! profiles also produces it). The constant was captured before the cold
//! path was optimized; any change to what the profiler emits, how the
//! Analyzer attributes blocks, what the Simulator replays or what the GPU
//! run measures moves it. Performance work on the cold path must leave it
//! untouched.

use xmem_core::{AnalyzedTrace, Analyzer, Estimate, Estimator, EstimatorConfig};
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{
    profile_on_cpu, run_on_gpu, GpuDevice, GroundTruth, Precision, TrainJobSpec, ZeroGradPos,
};
use xmem_trace::Trace;

const EXPECTED: u64 = 0x4ade_b7d1_7677_8cef;

/// 64-bit FNV-1a: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
            None => self.u64(0),
        }
    }

    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u64(1);
                self.str(s);
            }
            None => self.u64(0),
        }
    }

    fn trace(&mut self, trace: &Trace) {
        self.str(trace.name());
        self.u64(trace.len() as u64);
        for e in trace.events() {
            self.str(e.category.as_str());
            self.str(trace.name_of(e));
            self.u64(e.ts_us);
            self.u64(e.dur_us);
            let a = &e.args;
            self.opt_u64(a.addr());
            self.opt_u64(a.bytes().map(|b| b as u64));
            self.opt_u64(a.device().map(|d| i64::from(d) as u64));
            self.opt_u64(a.total_allocated());
            self.opt_u64(a.total_reserved());
            self.opt_u64(a.seq());
        }
    }

    fn analyzed(&mut self, analyzed: &AnalyzedTrace) {
        self.u64(analyzed.blocks().len() as u64);
        for b in analyzed.blocks() {
            self.u64(b.id() as u64);
            self.u64(b.addr());
            self.u64(b.bytes());
            self.u64(b.alloc_ts());
            self.opt_u64(b.free_ts());
            self.str(&format!("{:?}", b.category()));
            self.opt_str(analyzed.operator_of(b));
            self.opt_str(analyzed.component_of(b));
        }
        let s = analyzed.lifecycle_stats;
        self.u64(s.unmatched_frees as u64);
        self.u64(s.size_mismatches as u64);
        self.u64(s.persistent_blocks as u64);
    }

    fn estimate(&mut self, e: &Estimate) {
        self.u64(e.peak_bytes);
        self.u64(e.job_peak_bytes);
        self.u64(e.tensor_peak_bytes);
        self.u64(u64::from(e.oom_predicted));
        self.u64(e.curve.len() as u64);
        for (name, count, bytes) in e.stats.categories.iter() {
            self.str(name);
            self.u64(*count as u64);
            self.u64(*bytes);
        }
        self.u64(e.stats.filtered_blocks as u64);
        self.u64(e.stats.adjusted_blocks as u64);
        self.u64(e.stats.unmatched_frees as u64);
    }

    fn ground_truth(&mut self, gt: &GroundTruth) {
        self.u64(gt.peak_nvml);
        self.u64(gt.peak_exact);
        self.u64(u64::from(gt.oom));
        self.u64(gt.duration_us);
        self.str(&format!("{:?}", gt.counters));
    }
}

#[test]
fn pipeline_output_matches_the_captured_digest() {
    let device = GpuDevice::rtx3060();
    let estimator = Estimator::new(EstimatorConfig::for_device(device));
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    for model in ModelId::all() {
        for optimizer in [OptimizerKind::Adam, OptimizerKind::Sgd { momentum: true }] {
            let base = TrainJobSpec::new(model, optimizer, 2).with_iterations(2);
            digest.ground_truth(&run_on_gpu(&base, &device, None, false));
            for spec in [
                base.clone(),
                base.clone().with_precision(Precision::F16),
                base.clone().with_zero_grad(ZeroGradPos::IterStart),
            ] {
                let trace = profile_on_cpu(&spec);
                let analyzed = Analyzer::new().analyze(&trace).expect("trace analyzes");
                let estimate = estimator.estimate_analyzed(&analyzed);
                digest.trace(&trace);
                digest.analyzed(&analyzed);
                digest.estimate(&estimate);
            }
        }
    }
    assert_eq!(
        digest.0, EXPECTED,
        "pipeline digest moved: 0x{:016x}",
        digest.0
    );
}
