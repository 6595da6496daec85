//! Shared plumbing for the per-figure/table benchmark binaries.
//!
//! Every binary accepts:
//! * `--scale smoke|full` — the paper-scale campaign or a fast same-shape
//!   subsample (default `smoke`);
//! * `--seed <u64>` — the campaign seed (default 2025);
//! * `--out <dir>` — output directory for CSV/JSON artifacts (default
//!   `bench_out/`);
//! * `--threads <n>` — worker threads (default: all cores);
//! * `--uncached` — run xMem standalone (full pipeline per record) instead
//!   of routing the campaign through the estimation service's batched
//!   replay. The default (service-routed) collapses a campaign's xMem cost
//!   to one profile/analyze per distinct job while the prewarmed cells
//!   stay resident; per-record
//!   `estimator_runtime_us` then measures the *serving* path (cache-hit
//!   latency), so pass `--uncached` when reproducing the paper's
//!   standalone runtime numbers (Table 4).
//!
//! Campaign records are cached as JSON per `(setting, scale, seed)` so the
//! figure/table binaries that share a campaign (Fig. 7/8, Tables 3/4) run
//! it once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xmem_eval::anova::{anova_configs, AnovaScale};
use xmem_eval::montecarlo::monte_carlo_configs;
use xmem_eval::runner::{prewarm_matrix, run_campaign, CampaignOptions, EstimatorSet};
use xmem_eval::RunRecord;
use xmem_runtime::GpuDevice;
use xmem_service::{DeviceRegistry, EstimationService, ServiceConfig};

/// Campaign scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast same-shape subsample.
    Smoke,
    /// The paper's full design.
    Full,
}

impl Scale {
    /// Command-line label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        }
    }
}

/// Parsed common arguments.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Campaign scale.
    pub scale: Scale,
    /// Campaign seed.
    pub seed: u64,
    /// Output directory.
    pub out_dir: PathBuf,
    /// Worker threads (0 = all).
    pub threads: usize,
    /// Run xMem standalone per record instead of service-routed (see the
    /// crate docs on `--uncached`).
    pub uncached: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: Scale::Smoke,
            seed: 2025,
            out_dir: PathBuf::from("bench_out"),
            threads: 0,
            uncached: false,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn parse() -> Self {
        let mut args = BenchArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--scale" => {
                    args.scale = match value("--scale").as_str() {
                        "smoke" => Scale::Smoke,
                        "full" => Scale::Full,
                        other => panic!("unknown scale `{other}` (smoke|full)"),
                    }
                }
                "--seed" => args.seed = value("--seed").parse().expect("numeric seed"),
                "--out" => args.out_dir = PathBuf::from(value("--out")),
                "--threads" => args.threads = value("--threads").parse().expect("numeric threads"),
                "--uncached" => args.uncached = true,
                other => panic!("unknown flag `{other}`"),
            }
        }
        args
    }
}

/// Bytes → GiB.
#[must_use]
pub fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Writes an artifact under the output directory, creating it as needed.
///
/// # Panics
/// Panics on I/O failure (benchmark binaries fail loudly).
pub fn write_artifact(out_dir: &Path, name: &str, contents: &str) {
    fs::create_dir_all(out_dir).expect("create output dir");
    let path = out_dir.join(name);
    fs::write(&path, contents).expect("write artifact");
    println!("  wrote {}", path.display());
}

/// Campaign setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// Full-factorial on the RTX 3060.
    Anova,
    /// Randomized configurations on both commodity GPUs.
    MonteCarlo,
}

impl Setting {
    /// Label used in cache filenames and output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Setting::Anova => "anova",
            Setting::MonteCarlo => "montecarlo",
        }
    }
}

/// Runs (or loads from cache) the campaign for a setting. The cache lives
/// under the output directory and is keyed by setting/scale/seed.
#[must_use]
pub fn campaign_records(args: &BenchArgs, setting: Setting) -> Vec<RunRecord> {
    // The estimation mode is part of the cache identity: service-routed
    // and standalone runs differ in `estimator_runtime_us` (serving vs
    // full-pipeline latency), so serving one mode's records for the other
    // would silently corrupt runtime artifacts like Table 4.
    let cache = args.out_dir.join(format!(
        "records_{}_{}_{}{}.json",
        setting.label(),
        args.scale.label(),
        args.seed,
        if args.uncached { "_uncached" } else { "" }
    ));
    if let Ok(s) = fs::read_to_string(&cache) {
        if let Ok(records) = serde_json::from_str::<Vec<RunRecord>>(&s) {
            println!(
                "  loaded {} cached records from {}",
                records.len(),
                cache.display()
            );
            return records;
        }
    }
    let configs = match (setting, args.scale) {
        (Setting::Anova, Scale::Full) => anova_configs(args.seed, &AnovaScale::full()),
        (Setting::Anova, Scale::Smoke) => anova_configs(args.seed, &AnovaScale::smoke()),
        (Setting::MonteCarlo, Scale::Full) => monte_carlo_configs(1306, args.seed),
        (Setting::MonteCarlo, Scale::Smoke) => monte_carlo_configs(160, args.seed),
    };
    println!(
        "  running {} campaign: {} configurations ({} scale{})",
        setting.label(),
        configs.len(),
        args.scale.label(),
        if args.uncached {
            ", standalone xMem"
        } else {
            ", service-routed xMem"
        }
    );
    let started = std::time::Instant::now();
    let (estimators, service) = if args.uncached {
        (EstimatorSet::standard(args.seed), None)
    } else {
        // Route the whole campaign through the estimation service's
        // batched replay: distinct jobs profile once, every (job, device)
        // cell simulates once, and the per-record estimator calls below
        // are pure cache hits.
        let service = Arc::new(EstimationService::new(
            ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(DeviceRegistry::empty()),
        ));
        let (jobs, devices) = prewarm_matrix(&service, &configs);
        println!(
            "  prewarmed matrix: {} configurations -> {} analyses x {} devices \
             ({} profile runs, {} simulations)",
            configs.len(),
            jobs,
            devices,
            service.profile_runs(),
            service.sim_runs(),
        );
        (
            EstimatorSet::service_backed(args.seed, Arc::clone(&service)),
            Some(service),
        )
    };
    let records = run_campaign(
        &configs,
        &estimators,
        CampaignOptions {
            threads: args.threads,
        },
    );
    if let Some(service) = service {
        println!(
            "  analysis collapse held: {} profile runs / {} simulations for {} records",
            service.profile_runs(),
            service.sim_runs(),
            records.len()
        );
    }
    println!(
        "  campaign finished: {} records in {:.1}s",
        records.len(),
        started.elapsed().as_secs_f64()
    );
    fs::create_dir_all(&args.out_dir).expect("create output dir");
    fs::write(
        &cache,
        serde_json::to_string(&records).expect("records serialize"),
    )
    .expect("write cache");
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gib_converts() {
        assert_eq!(gib(1 << 30), 1.0);
        assert_eq!(gib(3 << 29), 1.5);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Scale::Smoke.label(), "smoke");
        assert_eq!(Setting::Anova.label(), "anova");
        assert_eq!(Setting::MonteCarlo.label(), "montecarlo");
    }
}
