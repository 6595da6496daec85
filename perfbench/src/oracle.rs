//! The differential oracle: every distinct response body is compared
//! byte-for-byte with the server's own renderer applied to the
//! sequential [`Estimator`]'s answer.

use crate::workload::{DeckEntry, Query, PLAN_DEVICE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use xmem_core::{
    AnalyzedTrace, Analyzer, DeviceMatrix, DevicePlacement, Estimate, Estimator, EstimatorConfig,
    MatrixCell, MatrixRow,
};
use xmem_runtime::{profile_on_cpu, GpuDevice, TrainJobSpec};
use xmem_server::api;
use xmem_service::{DeviceRegistry, JobKey};

/// Largest batch `/v1/plan` searches at default flags.
const PLAN_MAX_BATCH: usize = 1024;

pub struct Oracle {
    registry: DeviceRegistry,
    default_device: GpuDevice,
    analyses: Mutex<HashMap<JobKey, Arc<AnalyzedTrace>>>,
}

impl Oracle {
    pub fn new(registry: DeviceRegistry, default_device: GpuDevice) -> Self {
        Oracle {
            registry,
            default_device,
            analyses: Mutex::new(HashMap::new()),
        }
    }

    /// The job's analysis; `keep` memoizes it for jobs that fan out to
    /// several devices (one-shot jobs are not kept, bounding memory).
    fn analyzed(&self, spec: &TrainJobSpec, keep: bool) -> Option<Arc<AnalyzedTrace>> {
        let key = JobKey::of(spec);
        if let Some(hit) = self.analyses.lock().expect("oracle cache").get(&key) {
            return Some(Arc::clone(hit));
        }
        let analyzed = Arc::new(Analyzer::new().analyze(&profile_on_cpu(spec)).ok()?);
        if !keep {
            return Some(analyzed);
        }
        self.analyses
            .lock()
            .expect("oracle cache")
            .insert(key, Arc::clone(&analyzed));
        Some(analyzed)
    }

    fn estimate(&self, spec: &TrainJobSpec, device: GpuDevice, keep: bool) -> Option<Estimate> {
        let analyzed = self.analyzed(spec, keep)?;
        Some(Estimator::new(EstimatorConfig::for_device(device)).estimate_analyzed(&analyzed))
    }

    /// The body the server must answer `query` with.
    pub fn expected_body(&self, query: &Query) -> Option<String> {
        Some(match query {
            Query::Estimate(spec) => {
                api::estimate_body(&self.estimate(spec, self.default_device, false)?)
            }
            Query::Matrix(specs) => {
                let names = self.registry.names();
                let mut rows = Vec::with_capacity(specs.len());
                for spec in specs {
                    let mut cells = Vec::with_capacity(names.len());
                    for name in &names {
                        let device = self.registry.get(name)?;
                        cells.push(MatrixCell {
                            device: name.clone(),
                            estimate: Ok(self.estimate(spec, device, true)?),
                        });
                    }
                    rows.push(MatrixRow {
                        spec: spec.clone(),
                        cells,
                    });
                }
                api::matrix_body(&DeviceMatrix {
                    devices: names,
                    rows,
                })
            }
            Query::BestDevice(spec) => {
                let mut fleet = self.registry.snapshot();
                fleet.sort_by_key(|&(_, device)| device.capacity);
                let mut placement = None;
                for (name, device) in fleet {
                    let estimate = self.estimate(spec, device, true)?;
                    if !estimate.oom_predicted {
                        placement = Some(DevicePlacement {
                            device: name,
                            estimate,
                        });
                        break;
                    }
                }
                api::placement_body(placement.as_ref())
            }
            Query::Plan(base) => {
                let device = self.registry.get(PLAN_DEVICE)?;
                let fits = |batch: usize| -> Option<bool> {
                    let mut spec = base.clone();
                    spec.batch = batch;
                    Some(!self.estimate(&spec, device, false)?.oom_predicted)
                };
                let answer = if fits(1)? {
                    let (mut lo, mut hi) = (1, PLAN_MAX_BATCH);
                    while lo < hi {
                        let mid = (lo + hi).div_ceil(2);
                        if fits(mid)? {
                            lo = mid;
                        } else {
                            hi = mid - 1;
                        }
                    }
                    Some(lo)
                } else {
                    None
                };
                api::plan_body(answer)
            }
        })
    }
}

/// Checks every recorded body against the oracle on `threads` threads;
/// returns the deck slots whose body is missing or differs.
pub fn check(
    oracle: &Oracle,
    deck: &[DeckEntry],
    bodies: &crate::client::Bodies,
    slots: &[usize],
    threads: usize,
) -> Vec<usize> {
    let next = AtomicUsize::new(0);
    let bad = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&slot) = slots.get(i) else { break };
                let matches = match (bodies.get(slot), oracle.expected_body(&deck[slot].query)) {
                    (Some(got), Some(want)) => *got == want.as_bytes(),
                    _ => false,
                };
                if !matches {
                    bad.lock().expect("mismatch list").push(slot);
                }
            });
        }
    });
    let mut bad = bad.into_inner().expect("mismatch list");
    bad.sort_unstable();
    bad
}
