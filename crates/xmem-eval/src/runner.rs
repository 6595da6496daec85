//! Campaign execution: drives the two-round protocol for a set of
//! configurations × estimators, in parallel.

use crate::protocol::{validate, ConfigKey, GroundTruthSummary, RunRecord};
use crate::XMemEstimator;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use xmem_baselines::{DnnMem, LlMem, MemoryEstimator, SchedTune};
use xmem_runtime::{run_on_gpu, GpuDevice, TrainJobSpec};
use xmem_service::{EstimationService, JobKey, TraceContext};

/// One schedulable unit: a job spec bound to a device and repeat identity.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// The training job.
    pub spec: TrainJobSpec,
    /// Configuration identity for aggregation.
    pub key: ConfigKey,
    /// Target device.
    pub device: GpuDevice,
}

/// The four estimators of the evaluation.
pub struct EstimatorSet {
    /// This paper.
    pub xmem: XMemEstimator,
    /// Static analysis baseline.
    pub dnnmem: DnnMem,
    /// Data-driven baseline (pre-trained).
    pub schedtune: SchedTune,
    /// Direct-GPU baseline.
    pub llmem: LlMem,
}

impl EstimatorSet {
    /// Builds the standard set; SchedTune is trained on its historical
    /// corpus (deterministic in `seed`).
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        EstimatorSet {
            xmem: XMemEstimator::new(),
            dnnmem: DnnMem::new(),
            schedtune: SchedTune::train(seed),
            llmem: LlMem::new(),
        }
    }

    /// Like [`standard`](Self::standard), but xMem routes through a
    /// shared [`EstimationService`]: combined with
    /// [`prewarm_matrix`], a whole campaign's estimation cost collapses
    /// to one replay per `(job, device)` cell, and to one profile/analyze
    /// per distinct job while the prewarmed cells stay resident (a job
    /// profiles again for each request that must compute one of its
    /// cells) — bit-identical to the standalone adapter.
    #[must_use]
    pub fn service_backed(seed: u64, service: Arc<EstimationService>) -> Self {
        EstimatorSet {
            xmem: XMemEstimator::with_service(service),
            dnnmem: DnnMem::new(),
            schedtune: SchedTune::train(seed),
            llmem: LlMem::new(),
        }
    }

    /// The estimators as trait objects, paper plotting order.
    #[must_use]
    pub fn all(&self) -> Vec<&dyn MemoryEstimator> {
        vec![&self.xmem, &self.dnnmem, &self.schedtune, &self.llmem]
    }
}

/// Campaign knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignOptions {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

/// Runs the protocol for every `(config, estimator)` pair. The round-1
/// ground truth is executed once per configuration and shared across
/// estimators (as in the paper, where one real training run serves all
/// comparisons).
#[must_use]
pub fn run_campaign(
    configs: &[JobConfig],
    estimators: &EstimatorSet,
    options: CampaignOptions,
) -> Vec<RunRecord> {
    let threads = if options.threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    } else {
        options.threads
    };
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<RunRecord>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..threads.min(configs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= configs.len() {
                    break;
                }
                let cfg = &configs[i];
                let gt = run_on_gpu(&cfg.spec, &cfg.device, None, false);
                let round1 = GroundTruthSummary {
                    peak: gt.peak_nvml,
                    oom: gt.oom,
                };
                let mut local = Vec::with_capacity(4);
                for est in estimators.all() {
                    if !est.supports(cfg.spec.model) {
                        continue;
                    }
                    local.push(validate(&cfg.spec, &cfg.key, &cfg.device, est, round1));
                }
                records.lock().expect("poisoned").extend(local);
            });
        }
    });

    records.into_inner().expect("poisoned")
}

/// Routes a campaign's whole estimation workload through
/// [`EstimationService::estimate_matrix_traced`]: distinct jobs (seeds and
/// repeats collapse into one [`JobKey`]) × distinct devices, batched so
/// each job profiles **once** and each `(job, device)` cell simulates
/// once — the same collapse the scheduler paths enjoy. Devices are
/// registered under their marketing names; the per-run estimator calls
/// that follow ([`run_campaign`] with a
/// [`service_backed`](EstimatorSet::service_backed) set) are then pure
/// cache hits.
///
/// Returns `(distinct_jobs, distinct_devices)` — with the service's
/// `profile_runs()`/`sim_runs()` counters, that is the whole
/// analysis-collapse proof: `profile_runs == distinct_jobs` and
/// `sim_runs == distinct_jobs × distinct_devices` after a prewarm from
/// cold, however many `(config, repeat)` pairs the campaign holds.
pub fn prewarm_matrix(service: &EstimationService, configs: &[JobConfig]) -> (usize, usize) {
    let untraced = TraceContext::disabled();
    let mut jobs: Vec<TrainJobSpec> = Vec::new();
    let mut seen_jobs: HashSet<JobKey> = HashSet::new();
    let mut devices: Vec<&'static str> = Vec::new();
    for config in configs {
        if seen_jobs.insert(JobKey::of(&config.spec)) {
            jobs.push(config.spec.clone());
        }
        if !devices.contains(&config.device.name) {
            devices.push(config.device.name);
            service.register_device(config.device.name, config.device);
        }
    }
    if jobs.is_empty() || devices.is_empty() {
        return (jobs.len(), devices.len());
    }
    service
        .estimate_matrix_traced(&jobs, &devices, &untraced)
        .expect("prewarm devices were just registered");
    (jobs.len(), devices.len())
}

/// Deterministic per-config seed derived from identity fields (FNV-1a).
#[must_use]
pub fn config_seed(campaign_seed: u64, label: &str, repeat: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ campaign_seed;
    for b in label.bytes().chain(repeat.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Convenience constructor for a [`JobConfig`].
#[must_use]
pub fn job(campaign_seed: u64, spec: TrainJobSpec, device: GpuDevice, repeat: u32) -> JobConfig {
    let seed = config_seed(campaign_seed, &spec.label(), repeat);
    let spec = spec.with_seed(seed);
    let key = ConfigKey {
        model: spec.model,
        optimizer: spec.optimizer,
        batch: spec.batch,
        zero_grad: spec.zero_grad_pos,
        device: device.name.to_string(),
        repeat,
    };
    JobConfig { spec, key, device }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_models::ModelId;
    use xmem_optim::OptimizerKind;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = config_seed(1, "m+Adam+b8+POS0", 1);
        let b = config_seed(1, "m+Adam+b8+POS0", 2);
        let c = config_seed(2, "m+Adam+b8+POS0", 1);
        assert_eq!(a, config_seed(1, "m+Adam+b8+POS0", 1));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn matrix_prewarmed_campaign_collapses_analyses() {
        use xmem_service::{DeviceRegistry, ServiceConfig};

        // 2 distinct jobs × 3 seeded repeats each, one job also probed on
        // a second device: 7 configs, but only 2 analyses and 3 cells.
        let spec_a =
            TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2);
        let spec_b =
            TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2);
        let mut configs = Vec::new();
        for repeat in 1..=3 {
            configs.push(job(1, spec_a.clone(), GpuDevice::rtx3060(), repeat));
            configs.push(job(1, spec_b.clone(), GpuDevice::rtx3060(), repeat));
        }
        configs.push(job(1, spec_a.clone(), GpuDevice::rtx4060(), 1));

        let service = Arc::new(EstimationService::new(
            ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(DeviceRegistry::empty()),
        ));
        let (distinct_jobs, distinct_devices) = prewarm_matrix(&service, &configs);
        assert_eq!((distinct_jobs, distinct_devices), (2, 2));
        assert_eq!(
            service.profile_runs(),
            distinct_jobs as u64,
            "7 configs collapse onto 2 analyses"
        );
        assert_eq!(
            service.sim_runs(),
            (distinct_jobs * distinct_devices) as u64
        );

        // The campaign itself adds zero estimation work on the xMem side…
        let estimators = EstimatorSet::service_backed(7, Arc::clone(&service));
        let records = run_campaign(&configs, &estimators, CampaignOptions { threads: 2 });
        assert_eq!(service.profile_runs(), distinct_jobs as u64);
        assert_eq!(
            service.sim_runs(),
            (distinct_jobs * distinct_devices) as u64
        );

        // …and its xMem estimates are bit-identical to the standalone
        // adapter's.
        let standalone = XMemEstimator::new();
        for record in records.iter().filter(|r| r.estimator == "xMem") {
            let config = configs
                .iter()
                .find(|c| c.key == record.config)
                .expect("record maps to a config");
            assert_eq!(
                record.estimate,
                standalone.estimate(&config.spec, &config.device),
                "service-routed estimate diverged for {}",
                config.spec.label()
            );
        }
    }

    #[test]
    fn small_campaign_produces_records_for_all_estimators() {
        let estimators = EstimatorSet {
            xmem: XMemEstimator::new(),
            dnnmem: DnnMem::new(),
            // Avoid the training cost in unit tests: a tiny corpus.
            schedtune: SchedTune::train(7),
            llmem: LlMem::new(),
        };
        let configs = vec![
            job(
                1,
                TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8)
                    .with_iterations(2),
                GpuDevice::rtx3060(),
                1,
            ),
            job(
                1,
                TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 5).with_iterations(2),
                GpuDevice::rtx3060(),
                1,
            ),
        ];
        let records = run_campaign(&configs, &estimators, CampaignOptions { threads: 2 });
        // CNN: 3 estimators (LLMem unsupported); transformer: 4.
        assert_eq!(records.len(), 3 + 4);
        let xmem_records: Vec<_> = records.iter().filter(|r| r.estimator == "xMem").collect();
        assert_eq!(xmem_records.len(), 2);
        assert!(xmem_records.iter().all(|r| r.c1 && r.c2));
    }
}
