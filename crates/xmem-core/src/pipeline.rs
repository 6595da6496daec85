//! The public estimation facade: Analyzer → Orchestrator → Simulator.

use crate::analyzer::{AnalyzedTrace, Analyzer, BlockCategory};
use crate::orchestrator::{EventBuffer, Orchestrator};
use crate::param::{ParamRejection, ParamReplay};
use crate::simulator::Simulator;
use crate::EstimateError;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use xmem_alloc::{AllocatorConfig, TimelinePoint};
use xmem_runtime::{profile_on_cpu, GpuDevice, TrainJobSpec};
use xmem_trace::Trace;

/// Estimation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// Target device (capacity + framework overhead model).
    pub device: GpuDevice,
    /// Framework-allocator behaviour (ablation hook).
    pub allocator: AllocatorConfig,
    /// Orchestrator switches (ablation hooks).
    pub orchestrator: Orchestrator,
    /// Record the estimated usage curve.
    pub record_timeline: bool,
    /// Conservative allowance for CUDA-context variance: real framework
    /// overhead fluctuates a few MiB run to run, so the usable estimate
    /// budgets for the upper end (needed for the estimate to work as a
    /// hard memory cap, §4.1.4's second validation round).
    pub context_allowance: u64,
}

impl EstimatorConfig {
    /// Paper-default configuration for a target device.
    #[must_use]
    pub fn for_device(device: GpuDevice) -> Self {
        EstimatorConfig {
            device,
            allocator: AllocatorConfig::pytorch_defaults(),
            orchestrator: Orchestrator::default(),
            record_timeline: false,
            context_allowance: 8 << 20,
        }
    }

    /// Enables usage-curve recording.
    #[must_use]
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }
}

/// Per-category block statistics of an analysis (diagnostics and the
/// detailed report).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisStats {
    /// `(category name, block count, total bytes)` triples. Shared, so
    /// cloning an [`Estimate`] (every sim-cell hit does) allocates
    /// nothing, and the cells derived from one [`UnboundedReplay`] hold
    /// one copy. Encoded like a `Vec`.
    pub categories: Arc<[(String, usize, u64)]>,
    /// Blocks dropped by the script filter.
    pub filtered_blocks: usize,
    /// Blocks whose lifecycle the Orchestrator adjusted.
    pub adjusted_blocks: usize,
    /// Lifecycle anomalies (unmatched frees).
    pub unmatched_frees: usize,
}

/// The estimation result (paper: `M̂^peak` plus the optional usage curve).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Estimate {
    /// Estimated peak total device usage: job segments + framework
    /// overhead. Directly comparable with NVML-sampled ground truth.
    pub peak_bytes: u64,
    /// Estimated job-only peak (segment memory, no framework overhead).
    pub job_peak_bytes: u64,
    /// Estimated peak tensor (allocated) bytes.
    pub tensor_peak_bytes: u64,
    /// Predicted OOM on the target device (Eq. 1).
    pub oom_predicted: bool,
    /// Estimated usage curve when recording was enabled.
    pub curve: Vec<TimelinePoint>,
    /// Analysis diagnostics.
    pub stats: AnalysisStats,
}

/// The device-independent replay artifact behind the pressure-aware fast
/// path: the orchestrated events replayed **once** against an unbounded
/// simulator.
///
/// The two-level allocator simulation only consults device capacity in two
/// places — proactive garbage collection and the reclaim-then-OOM path on
/// a failed device allocation. A device roomy enough that neither can
/// trigger therefore replays **bit-identically** to the unbounded device,
/// and its whole [`Estimate`] can be *derived* from this artifact in O(1)
/// ([`Estimator::derive_from_replay`]) instead of re-walking the event
/// sequence. Serving layers cache one `UnboundedReplay` per job and pay a
/// full stateful replay only for capacity-pressured devices, where
/// reclaim/OOM genuinely diverge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnboundedReplay {
    /// Peak job segment bytes on the unbounded device (the job's true
    /// segment high-water mark, `M̂^peak` before overheads).
    pub peak_reserved: u64,
    /// Peak tensor (allocated) bytes.
    pub peak_allocated: u64,
    /// Orchestrated events replayed (diagnostics; also the unit of the
    /// perf harness's replay-throughput benchmark).
    pub events: usize,
    /// The analysis diagnostics a derived estimate carries — identical to
    /// what a full replay would report, since they never depend on the
    /// device.
    pub stats: AnalysisStats,
}

/// The xMem estimator.
#[derive(Debug, Clone)]
pub struct Estimator {
    config: EstimatorConfig,
}

/// Page granularity of the simulated device level — the same
/// [`DeviceAllocator::DEFAULT_PAGE`](xmem_alloc::DeviceAllocator::DEFAULT_PAGE)
/// the [`Simulator`] hands to its device, so the fast-path exactness check
/// and the bounded replay can never disagree on granularity. Segment sizes
/// that are multiples of it make framework-level and device-level
/// accounting agree exactly.
const DEVICE_PAGE: usize = xmem_alloc::DeviceAllocator::DEFAULT_PAGE as usize;

impl Estimator {
    /// Creates an estimator.
    #[must_use]
    pub fn new(config: EstimatorConfig) -> Self {
        Estimator { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Estimates from an existing CPU profiler trace (the a-priori path:
    /// the job never ran on a GPU).
    ///
    /// # Errors
    /// Propagates Analyzer failures for malformed traces.
    pub fn estimate_trace(&self, trace: &Trace) -> Result<Estimate, EstimateError> {
        let analyzed = Analyzer::new().analyze(trace)?;
        Ok(self.estimate_analyzed(&analyzed))
    }

    /// Estimates from an already-analyzed trace. This is the cache-friendly
    /// entry point: profiling and analysis are pure functions of the job
    /// spec, so services can memoize an [`AnalyzedTrace`] and re-run only
    /// the device-dependent orchestration + simulation stages.
    #[must_use]
    pub fn estimate_analyzed(&self, analyzed: &AnalyzedTrace) -> Estimate {
        self.estimate_analyzed_counted(analyzed).0
    }

    /// [`estimate_analyzed`](Self::estimate_analyzed), with the number of
    /// events its replay walked ([`SimulationResult::events`]): the unit
    /// serving layers count replay work in.
    ///
    /// [`SimulationResult::events`]: crate::SimulationResult::events
    #[must_use]
    pub fn estimate_analyzed_counted(&self, analyzed: &AnalyzedTrace) -> (Estimate, usize) {
        let buffer = self.config.orchestrator.orchestrate(analyzed);
        let stats = analysis_stats(analyzed, &buffer);
        self.replay_estimate(&buffer, stats, self.config.record_timeline)
    }

    /// Replays `analyzed` once against an **unbounded** device, producing
    /// the device-independent artifact the pressure-aware fast path
    /// derives roomy-device estimates from. Orchestration runs under this
    /// estimator's configuration, so a derived estimate and a full
    /// [`estimate_analyzed`](Self::estimate_analyzed) replay see the same
    /// event sequence.
    #[must_use]
    pub fn replay_unbounded(&self, analyzed: &AnalyzedTrace) -> UnboundedReplay {
        let buffer = self.config.orchestrator.orchestrate(analyzed);
        let sim = Simulator {
            allocator: self.config.allocator.clone(),
            capacity: None,
            framework_bytes: 0,
            record_timeline: false,
        }
        .replay(&buffer);
        UnboundedReplay {
            peak_reserved: sim.peak_reserved,
            peak_allocated: sim.peak_allocated,
            events: sim.events,
            stats: analysis_stats(analyzed, &buffer),
        }
    }

    /// The job-usable capacity under which this estimator's device can be
    /// served by derivation — or `None` when the configuration rules the
    /// fast path out entirely.
    ///
    /// Derivation is exact only when the bounded replay provably cannot
    /// consult capacity: proactive garbage collection must be off, no
    /// usage curve may be requested, and every segment size the allocator
    /// can produce must be a whole number of device pages (so framework-
    /// and device-level accounting agree byte-for-byte). All of that holds
    /// for [`EstimatorConfig::for_device`]; ablated configurations fall
    /// back to the full replay.
    #[must_use]
    pub fn fast_path_capacity(&self) -> Option<u64> {
        let allocator = &self.config.allocator;
        let page_aligned = allocator.small_buffer.is_multiple_of(DEVICE_PAGE)
            && allocator.large_buffer.is_multiple_of(DEVICE_PAGE)
            && allocator.round_large > 0
            && allocator.round_large.is_multiple_of(DEVICE_PAGE);
        if allocator.gc_threshold.is_some() || self.config.record_timeline || !page_aligned {
            return None;
        }
        let device = &self.config.device;
        let job_capacity = device.capacity.checked_sub(device.init_bytes)?;
        Some(job_capacity.saturating_sub(device.framework_bytes))
    }

    /// Derives this device's estimate from a cached [`UnboundedReplay`]
    /// without replaying, when the device is roomy enough for the
    /// derivation to be **bit-identical** to a full replay: its usable
    /// capacity must cover the unbounded segment peak, so neither reclaim
    /// nor OOM can fire. Returns `None` under capacity pressure (or for
    /// configurations [`fast_path_capacity`](Self::fast_path_capacity)
    /// rules out) — the caller then pays the full stateful replay.
    #[must_use]
    pub fn derive_from_replay(&self, replay: &UnboundedReplay) -> Option<Estimate> {
        let usable = self.fast_path_capacity()?;
        if replay.peak_reserved > usable {
            return None;
        }
        let device = &self.config.device;
        let peak_total =
            replay.peak_reserved + device.framework_bytes + self.config.context_allowance;
        Some(Estimate {
            peak_bytes: peak_total,
            job_peak_bytes: replay.peak_reserved,
            tensor_peak_bytes: replay.peak_allocated,
            // `sim.oom` is provably false on a roomy device; only the
            // context-allowance headroom check remains.
            oom_predicted: peak_total > device.capacity - device.init_bytes,
            curve: Vec::new(),
            stats: replay.stats.clone(),
        })
    }

    /// Whether this configuration admits the **incremental sweep** path:
    /// replaying a [materialized](ParamReplay::materialize) event buffer
    /// must be provably identical to the full per-batch pipeline.
    /// Proactive garbage collection and timeline recording both read the
    /// clock in ways a parameterized stream's nominal timestamps cannot
    /// honor, so either rules the path out. (Unlike
    /// [`fast_path_capacity`](Self::fast_path_capacity), page alignment
    /// is irrelevant here: the materialized buffer is replayed through
    /// the real bounded simulator, not derived arithmetically.)
    #[must_use]
    pub fn incremental_exact(&self) -> bool {
        self.config.allocator.gc_threshold.is_none() && !self.config.record_timeline
    }

    /// Fits a [`ParamReplay`] from profiled anchors under this
    /// estimator's orchestrator (see [`ParamReplay::fit`]).
    ///
    /// # Errors
    /// Returns the fit's [`ParamRejection`] when the delta model cannot
    /// be proven exact — callers fall back to full per-batch replays.
    pub fn fit_param_replay(
        &self,
        anchors: &[(usize, &AnalyzedTrace)],
    ) -> Result<ParamReplay, ParamRejection> {
        ParamReplay::fit(&self.config.orchestrator, anchors)
    }

    /// Estimates from a pre-orchestrated event buffer (the incremental
    /// sweep's bounded leg): replays it against this device exactly like
    /// [`estimate_analyzed`](Self::estimate_analyzed) replays a fresh
    /// orchestration, with `stats` standing in for the analysis-stage
    /// diagnostics. Callers must hold the
    /// [`incremental_exact`](Self::incremental_exact) gate, so no usage
    /// curve is recorded.
    #[must_use]
    pub fn estimate_buffer(&self, buffer: &EventBuffer, stats: AnalysisStats) -> Estimate {
        self.estimate_buffer_counted(buffer, stats).0
    }

    /// [`estimate_buffer`](Self::estimate_buffer), with the number of
    /// events its replay walked (see
    /// [`estimate_analyzed_counted`](Self::estimate_analyzed_counted)).
    #[must_use]
    pub fn estimate_buffer_counted(
        &self,
        buffer: &EventBuffer,
        stats: AnalysisStats,
    ) -> (Estimate, usize) {
        self.replay_estimate(buffer, stats, false)
    }

    /// Replays `buffer` against this device and reads the estimate off the
    /// replay, with `stats` as its diagnostics and the number of events
    /// walked.
    fn replay_estimate(
        &self,
        buffer: &EventBuffer,
        stats: AnalysisStats,
        record_timeline: bool,
    ) -> (Estimate, usize) {
        let device = &self.config.device;
        let usable = device.capacity - device.init_bytes;
        let sim = Simulator {
            allocator: self.config.allocator.clone(),
            capacity: Some(usable),
            framework_bytes: device.framework_bytes,
            record_timeline,
        }
        .replay(buffer);

        let job_peak = sim.peak_reserved;
        let peak_total = job_peak + device.framework_bytes + self.config.context_allowance;
        let estimate = Estimate {
            peak_bytes: peak_total,
            job_peak_bytes: job_peak,
            tensor_peak_bytes: sim.peak_allocated,
            oom_predicted: sim.oom || peak_total > usable,
            curve: sim.timeline,
            stats,
        };
        (estimate, sim.events)
    }

    /// Profiles the job on the CPU backend, then estimates — the
    /// end-to-end a-priori workflow of the paper's Fig. 4 — unchanged by
    /// the fast path, which serving layers opt into explicitly.
    ///
    /// # Errors
    /// Propagates Analyzer failures (the generated trace is well-formed,
    /// so failures indicate configuration errors).
    pub fn estimate_job(&self, spec: &TrainJobSpec) -> Result<Estimate, EstimateError> {
        let trace = profile_on_cpu(spec);
        self.estimate_trace(&trace)
    }
}

/// The per-category diagnostics both the full replay and the derived fast
/// path attach to an [`Estimate`]; everything here is a pure function of
/// the analysis and its orchestrated events — never of the device.
pub(crate) fn analysis_stats(analyzed: &AnalyzedTrace, buffer: &EventBuffer) -> AnalysisStats {
    // One pass over the blocks; the report lists categories in
    // declaration order.
    let mut totals = [(0usize, 0u64); BlockCategory::ALL.len()];
    for b in analyzed.blocks() {
        let total = &mut totals[b.category() as usize];
        total.0 += 1;
        total.1 += b.bytes();
    }
    let categories = BlockCategory::ALL
        .iter()
        .zip(totals)
        .map(|(cat, (count, bytes))| (format!("{cat:?}"), count, bytes))
        .collect();
    AnalysisStats {
        categories,
        filtered_blocks: buffer.filtered_blocks,
        adjusted_blocks: buffer.adjusted_blocks,
        unmatched_frees: analyzed.lifecycle_stats.unmatched_frees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_models::ModelId;
    use xmem_optim::OptimizerKind;
    use xmem_runtime::{run_on_gpu, ZeroGradPos};

    fn spec(model: ModelId, opt: OptimizerKind, batch: usize) -> TrainJobSpec {
        TrainJobSpec::new(model, opt, batch).with_iterations(3)
    }

    fn accuracy(model: ModelId, opt: OptimizerKind, batch: usize) -> f64 {
        let device = GpuDevice::rtx3060();
        let s = spec(model, opt, batch);
        let est = Estimator::new(EstimatorConfig::for_device(device))
            .estimate_job(&s)
            .unwrap();
        let gt = run_on_gpu(&s, &device, None, false);
        assert!(!gt.oom, "ground truth must fit for accuracy checks");
        (est.peak_bytes as f64 - gt.peak_nvml as f64).abs() / gt.peak_nvml as f64
    }

    #[test]
    fn small_cnn_estimate_is_accurate() {
        let err = accuracy(ModelId::MobileNetV3Small, OptimizerKind::Adam, 64);
        assert!(err < 0.10, "relative error {err:.3} too high");
    }

    #[test]
    fn transformer_estimate_is_accurate() {
        let err = accuracy(ModelId::DistilGpt2, OptimizerKind::AdamW, 8);
        assert!(err < 0.10, "relative error {err:.3} too high");
    }

    #[test]
    fn estimate_includes_framework_overhead() {
        let device = GpuDevice::rtx3060();
        let s = spec(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8);
        let est = Estimator::new(EstimatorConfig::for_device(device))
            .estimate_job(&s)
            .unwrap();
        assert_eq!(
            est.peak_bytes,
            est.job_peak_bytes + device.framework_bytes + (8 << 20)
        );
        assert!(est.tensor_peak_bytes <= est.job_peak_bytes);
    }

    #[test]
    fn oom_is_predicted_when_job_exceeds_capacity() {
        // Pythia-1B with AdamW needs ~16 GiB of params+grads+state alone —
        // it cannot fit a 12 GiB device at any batch size.
        let device = GpuDevice::rtx3060();
        let s = spec(ModelId::Pythia1B, OptimizerKind::AdamW, 2);
        let est = Estimator::new(EstimatorConfig::for_device(device))
            .estimate_job(&s)
            .unwrap();
        assert!(est.oom_predicted);
        let gt = run_on_gpu(&s, &device, None, false);
        assert!(gt.oom, "ground truth agrees");
    }

    #[test]
    fn zero_grad_placement_shifts_estimate() {
        let device = GpuDevice::rtx3060();
        let pos0 = spec(ModelId::DistilGpt2, OptimizerKind::AdamW, 8);
        let pos1 = pos0.clone().with_zero_grad(ZeroGradPos::IterStart);
        let estimator = Estimator::new(EstimatorConfig::for_device(device));
        let e0 = estimator.estimate_job(&pos0).unwrap();
        let e1 = estimator.estimate_job(&pos1).unwrap();
        assert_ne!(e0.peak_bytes, e1.peak_bytes, "Fig. 1 sensitivity");
    }

    #[test]
    fn derived_estimate_is_bit_identical_on_roomy_devices() {
        // Every builtin device fits this job with room to spare, so the
        // derivation must reproduce the full replay exactly — including
        // the diagnostics.
        let s = spec(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8);
        let trace = xmem_runtime::profile_on_cpu(&s);
        let analyzed = Analyzer::new().analyze(&trace).unwrap();
        for device in [
            GpuDevice::rtx3060(),
            GpuDevice::rtx4060(),
            GpuDevice::a100_40g(),
        ] {
            let estimator = Estimator::new(EstimatorConfig::for_device(device));
            let replay = estimator.replay_unbounded(&analyzed);
            assert!(replay.events > 0);
            let derived = estimator
                .derive_from_replay(&replay)
                .expect("roomy device qualifies for the fast path");
            assert_eq!(derived, estimator.estimate_analyzed(&analyzed));
        }
    }

    #[test]
    fn derivation_refuses_pressured_devices() {
        // A device whose usable capacity sits below the unbounded segment
        // peak may diverge (reclaim / OOM) — the fast path must bow out.
        let s = spec(ModelId::DistilGpt2, OptimizerKind::AdamW, 8);
        let trace = xmem_runtime::profile_on_cpu(&s);
        let analyzed = Analyzer::new().analyze(&trace).unwrap();
        let roomy = Estimator::new(EstimatorConfig::for_device(GpuDevice::a100_40g()));
        let replay = roomy.replay_unbounded(&analyzed);
        let tiny = GpuDevice {
            name: "test-pressured",
            capacity: replay.peak_reserved + (600 << 20),
            framework_bytes: 600 << 20,
            init_bytes: 1 << 20,
        };
        let estimator = Estimator::new(EstimatorConfig::for_device(tiny));
        assert!(
            estimator.fast_path_capacity().unwrap() < replay.peak_reserved,
            "the test device must actually be pressured"
        );
        assert_eq!(estimator.derive_from_replay(&replay), None);
    }

    #[test]
    fn derivation_refuses_inexact_configurations() {
        let s = spec(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8);
        let trace = xmem_runtime::profile_on_cpu(&s);
        let analyzed = Analyzer::new().analyze(&trace).unwrap();
        let device = GpuDevice::a100_40g();
        let replay =
            Estimator::new(EstimatorConfig::for_device(device)).replay_unbounded(&analyzed);

        // Usage-curve recording needs the stateful replay.
        let recording = Estimator::new(EstimatorConfig::for_device(device).with_timeline());
        assert_eq!(recording.fast_path_capacity(), None);
        assert_eq!(recording.derive_from_replay(&replay), None);

        // Proactive GC consults capacity mid-replay.
        let mut gc = EstimatorConfig::for_device(device);
        gc.allocator.gc_threshold = Some(0.8);
        assert_eq!(Estimator::new(gc).fast_path_capacity(), None);

        // Page-misaligned segment sizes break device-level accounting
        // parity.
        let mut odd = EstimatorConfig::for_device(device);
        odd.allocator.large_buffer = 20 * (1 << 20) + 512;
        assert_eq!(Estimator::new(odd).fast_path_capacity(), None);
    }

    #[test]
    fn curve_is_available_on_request() {
        let device = GpuDevice::rtx3060();
        let s = spec(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8);
        let est = Estimator::new(EstimatorConfig::for_device(device).with_timeline())
            .estimate_job(&s)
            .unwrap();
        assert!(!est.curve.is_empty());
        let peak_from_curve = est.curve.iter().map(|p| p.reserved).max().unwrap();
        assert_eq!(peak_from_curve, est.job_peak_bytes);
    }
}
