//! xMem behind the common estimator interface.

use std::sync::Arc;
use xmem_baselines::{EstimateOutcome, MemoryEstimator};
use xmem_core::{Estimator, EstimatorConfig};
use xmem_models::ModelId;
use xmem_runtime::{GpuDevice, TrainJobSpec};
use xmem_service::EstimationService;

/// Adapter running the xMem pipeline (CPU profile → analyze → orchestrate
/// → simulate) behind the common [`MemoryEstimator`] interface.
///
/// Two modes, bit-identical in output:
/// * **standalone** ([`XMemEstimator::new`]) — the full pipeline runs per
///   request, exactly as the paper times it;
/// * **service-backed** ([`XMemEstimator::with_service`]) — requests go
///   through a shared [`EstimationService`], so campaign workloads collapse
///   onto one replay per `(job, device)` cell. A job profiles once per
///   request that computes one of its cells; after a prewarm that is once
///   per distinct job for as long as the prewarmed cells stay resident
///   (an evicted cell or an unprewarmed device profiles again; the
///   counters on the service show it).
#[derive(Debug, Clone, Default)]
pub struct XMemEstimator {
    service: Option<Arc<EstimationService>>,
}

impl XMemEstimator {
    /// Creates the standalone adapter (full pipeline per request).
    #[must_use]
    pub fn new() -> Self {
        XMemEstimator::default()
    }

    /// Creates a service-backed adapter: estimates route through
    /// `service`'s per-device simulation shards.
    #[must_use]
    pub fn with_service(service: Arc<EstimationService>) -> Self {
        XMemEstimator {
            service: Some(service),
        }
    }

    /// The backing service, when this adapter is service-backed.
    #[must_use]
    pub fn service(&self) -> Option<&Arc<EstimationService>> {
        self.service.as_ref()
    }
}

impl MemoryEstimator for XMemEstimator {
    fn name(&self) -> &'static str {
        "xMem"
    }

    fn supports(&self, _model: ModelId) -> bool {
        true
    }

    fn estimate(&self, spec: &TrainJobSpec, device: &GpuDevice) -> Option<EstimateOutcome> {
        let est = match &self.service {
            Some(service) => service.estimate_for_device(spec, *device).ok()?,
            None => {
                let estimator = Estimator::new(EstimatorConfig::for_device(*device));
                estimator.estimate_job(spec).ok()?
            }
        };
        Some(EstimateOutcome {
            peak_bytes: est.peak_bytes,
            oom_predicted: est.oom_predicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_optim::OptimizerKind;
    use xmem_service::ServiceConfig;

    #[test]
    fn adapter_estimates_like_the_pipeline() {
        let spec =
            TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2);
        let device = GpuDevice::rtx3060();
        let adapter = XMemEstimator::new();
        let via_adapter = adapter.estimate(&spec, &device).unwrap();
        let direct = Estimator::new(EstimatorConfig::for_device(device))
            .estimate_job(&spec)
            .unwrap();
        assert_eq!(via_adapter.peak_bytes, direct.peak_bytes);
        assert!(!adapter.consumes_gpu());
        assert_eq!(adapter.name(), "xMem");
    }

    #[test]
    fn service_backed_adapter_is_bit_identical_and_collapses_repeats() {
        let spec =
            TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2);
        let device = GpuDevice::rtx3060();
        let service = Arc::new(EstimationService::new(ServiceConfig::for_device(device)));
        let backed = XMemEstimator::with_service(Arc::clone(&service));
        let standalone = XMemEstimator::new().estimate(&spec, &device).unwrap();

        for _ in 0..3 {
            // Seeds differ per repeat but do not shape the profile.
            let repeat = spec.clone().with_seed(42);
            assert_eq!(backed.estimate(&repeat, &device), Some(standalone));
        }
        assert_eq!(service.profile_runs(), 1, "repeats collapse onto one run");
        assert_eq!(service.sim_runs(), 1);
        assert!(backed.service().is_some());
    }
}
