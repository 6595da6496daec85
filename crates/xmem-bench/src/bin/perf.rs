//! `perf` — the estimate-serving performance harness.
//!
//! Times the hot paths the service layers optimize — single estimates
//! (cold, warm, and warm with the full request-tracing envelope on),
//! N×D matrix replay through the pressure-aware fast path against the
//! sequential `Estimator` on the same grid, contended simulation-cell
//! cache hits, raw allocator replay throughput, the O(1) LRU against a
//! scan-based reference, the crash-consistent persistence layer
//! (snapshot write cost, warm-boot recovery, and the first estimate
//! after a restart), and a cold batch-size sweep through the incremental
//! parameterized replay against sequential per-batch estimates — and
//! emits a machine-readable `BENCH_estimator.json` so every PR has
//! a measurable trajectory.
//!
//! Usage: `perf [--quick] [--out PATH]`
//!
//! * `--quick` — CI-sized iteration counts (seconds, not minutes);
//! * `--out`  — output path (default `BENCH_estimator.json`, i.e. the
//!   repo root when run from it).

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xmem_core::{
    AnalyzedTrace, Analyzer, Estimate, Estimator, EstimatorConfig, Orchestrator, Simulator,
};
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{profile_on_cpu, GpuDevice, TrainJobSpec};
use xmem_service::{
    EstimationService, ServiceConfig, ShardedLruCache, Telemetry, TelemetryConfig, TraceContext,
};

/// One timed benchmark.
#[derive(Debug, Serialize)]
struct Benchmark {
    /// Stable benchmark identifier.
    name: String,
    /// Operations timed.
    iterations: u64,
    /// Total wall time.
    total_ns: u64,
    /// Per-operation latency.
    ns_per_op: f64,
    /// Throughput.
    ops_per_sec: f64,
    /// What one "operation" is.
    unit: String,
}

/// Service counters snapshot proving what the timed paths executed.
#[derive(Debug, Serialize)]
struct Counters {
    profile_runs: u64,
    sim_runs: u64,
    fast_path_hits: u64,
    full_replays: u64,
    unbounded_replays: u64,
    sim_cache_hits: u64,
    /// Counters of the dedicated incremental-sweep service (its sweep is
    /// timed cold, so these prove the 3-anchor contract exactly).
    sweep_profile_runs: u64,
    sweep_param_replays: u64,
    sweep_incremental_cells: u64,
    sweep_full_replays: u64,
}

/// Headline ratios derived from paired benchmarks.
#[derive(Debug, Serialize)]
struct Derived {
    /// `matrix_replay_full` time over `matrix_replay_fast` time: the
    /// measured speedup of the pressure-aware fast path over one full
    /// sequential replay per cell on an all-roomy fleet (both over
    /// analyses the harness holds).
    matrix_fast_path_speedup: f64,
    /// Scan-based reference LRU insert latency over the intrusive-list
    /// cache's: the measured win of O(1) eviction at this capacity.
    lru_o1_speedup_vs_scan: f64,
    /// Cold first-estimate latency over the first estimate served after a
    /// warm boot from a state dir: what crash-consistent persistence buys
    /// a restarted server on its first request.
    warm_restart_first_estimate_speedup: f64,
    /// Sequential per-batch sweep time over the incremental
    /// (parameterized replay) sweep time, both cold: the win of profiling
    /// 3 anchors and deriving every other batch point instead of
    /// profiling all of them.
    sweep_incremental_speedup: f64,
    /// Warm-estimate slowdown with request tracing on, in percent:
    /// `(estimate_warm_traced - estimate_warm) / estimate_warm * 100`.
    /// The telemetry contract is "free enough to leave on"; the harness
    /// asserts this stays ≤ 5%.
    tracing_overhead_pct: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: &'static str,
    quick: bool,
    generated_unix: u64,
    benchmarks: Vec<Benchmark>,
    counters: Counters,
    derived: Derived,
}

fn bench(name: &str, unit: &str, iterations: u64, mut op: impl FnMut()) -> Benchmark {
    let started = Instant::now();
    for _ in 0..iterations {
        op();
    }
    let total_ns = started.elapsed().as_nanos() as u64;
    finish(name, unit, iterations, total_ns)
}

fn finish(name: &str, unit: &str, iterations: u64, total_ns: u64) -> Benchmark {
    let ns_per_op = total_ns as f64 / iterations.max(1) as f64;
    let bench = Benchmark {
        name: name.to_string(),
        iterations,
        total_ns,
        ns_per_op,
        ops_per_sec: if ns_per_op > 0.0 {
            1e9 / ns_per_op
        } else {
            0.0
        },
        unit: unit.to_string(),
    };
    println!(
        "  {:<34} {:>12.0} ns/{} ({:.0} /s, n={})",
        bench.name, bench.ns_per_op, bench.unit, bench.ops_per_sec, bench.iterations
    );
    bench
}

/// The benchmark job mix: small CNN sweeps plus a transformer.
fn jobs() -> Vec<TrainJobSpec> {
    vec![
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2),
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2),
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 16).with_iterations(2),
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 2).with_iterations(2),
    ]
}

/// Registry names of the synthetic benchmark fleet.
const FLEET: [&str; 8] = ["d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"];

/// An all-roomy 8-device fleet (16–72 GiB): every cell qualifies for the
/// fast path, so the fast/full pairing isolates the replay strategy.
fn fleet_device(index: usize) -> GpuDevice {
    GpuDevice {
        name: "perf-fleet",
        capacity: (16 + 8 * index as u64) << 30,
        framework_bytes: 550 << 20,
        init_bytes: 0,
    }
}

fn register_fleet(service: &EstimationService) {
    for (i, name) in FLEET.iter().enumerate() {
        service.register_device(name, fleet_device(i));
    }
}

/// The benchmark jobs' analyses, computed before any clock starts: the
/// matrix benches time replays of analyses the harness holds.
fn analyses() -> Vec<AnalyzedTrace> {
    jobs()
        .iter()
        .map(|job| {
            Analyzer::new()
                .analyze(&profile_on_cpu(job))
                .expect("benchmark jobs analyze")
        })
        .collect()
}

/// One paper-default estimator per fleet device, in `FLEET` order.
fn fleet_estimators() -> Vec<Estimator> {
    (0..FLEET.len())
        .map(|i| Estimator::new(EstimatorConfig::for_device(fleet_device(i))))
        .collect()
}

/// Times the matrix's fast path over held analyses: one unbounded replay
/// per job, every device's cell derived from it. Returns the cells, row
/// by row.
fn matrix_replay_fast(analyses: &[AnalyzedTrace]) -> (Benchmark, Vec<Vec<Estimate>>) {
    let estimators = fleet_estimators();
    let started = Instant::now();
    let cells: Vec<Vec<Estimate>> = analyses
        .iter()
        .map(|analyzed| {
            let replay = estimators[0].replay_unbounded(analyzed);
            estimators
                .iter()
                .map(|estimator| {
                    estimator
                        .derive_from_replay(&replay)
                        .expect("all-roomy fleet derives every cell")
                })
                .collect()
        })
        .collect();
    let total_ns = started.elapsed().as_nanos() as u64;
    let bench = finish(
        "matrix_replay_fast",
        "cell",
        (analyses.len() * FLEET.len()) as u64,
        total_ns,
    );
    (bench, cells)
}

/// Times the same grid as one full sequential replay per cell, over the
/// same held analyses, and holds every cell to the fast path's.
fn matrix_replay_full(analyses: &[AnalyzedTrace], fast: &[Vec<Estimate>]) -> Benchmark {
    let estimators = fleet_estimators();
    let started = Instant::now();
    let cells: Vec<Vec<_>> = analyses
        .iter()
        .map(|analyzed| {
            estimators
                .iter()
                .map(|estimator| estimator.estimate_analyzed(analyzed))
                .collect()
        })
        .collect();
    let total_ns = started.elapsed().as_nanos() as u64;
    assert_eq!(
        fast, cells,
        "fast-path cells must be bit-identical to full replays"
    );
    finish(
        "matrix_replay_full",
        "cell",
        (analyses.len() * FLEET.len()) as u64,
        total_ns,
    )
}

/// The scan-based eviction reference the O(1) cache replaced: a
/// `min_by_key` sweep over the whole shard per insert at capacity.
struct ScanLru {
    map: std::collections::HashMap<u64, (u64, u64)>, // key -> (value, tick)
    clock: u64,
    capacity: usize,
}

impl ScanLru {
    fn insert(&mut self, key: u64, value: u64) {
        self.clock += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, &(_, tick))| tick)
                .map(|(&k, _)| k)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (value, self.clock));
    }
}

fn main() {
    let untraced = TraceContext::disabled();
    let mut quick = false;
    let mut out = String::from("BENCH_estimator.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("missing value for --out"),
            other => panic!("unknown flag `{other}` (perf [--quick] [--out PATH])"),
        }
    }
    println!(
        "xmem perf harness ({} mode)",
        if quick { "quick" } else { "full" }
    );

    let mut benchmarks = Vec::new();
    let warm_reps: u64 = if quick { 100 } else { 1000 };
    let hit_reps: u64 = if quick { 2_000 } else { 20_000 };
    let replay_reps: u64 = if quick { 5 } else { 40 };
    let lru_reps: u64 = if quick { 20_000 } else { 200_000 };

    // --- single estimates -------------------------------------------------
    let single =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2);
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let cold = bench("estimate_cold", "estimate", 1, || {
        service
            .estimate_traced(&single, None, &untraced)
            .expect("estimates");
    });
    let cold_ns = cold.ns_per_op;
    benchmarks.push(cold);
    let warm = bench("estimate_warm", "estimate", warm_reps, || {
        service
            .estimate_traced(&single, None, &untraced)
            .expect("estimates");
    });
    let warm_ns = warm.ns_per_op;
    benchmarks.push(warm);

    // --- allocator replay throughput --------------------------------------
    {
        let spec =
            TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 4).with_iterations(2);
        let trace = profile_on_cpu(&spec);
        let analyzed = Analyzer::new().analyze(&trace).expect("trace analyzes");
        // Orchestrated once, outside the clock: the figure is the
        // allocator's per-event cost alone.
        let buffer = Orchestrator::default().orchestrate(&analyzed);
        let events = buffer.len() as u64;
        let simulator = Simulator::unbounded();
        let started = Instant::now();
        for _ in 0..replay_reps {
            std::hint::black_box(simulator.replay(&buffer));
        }
        let total_ns = started.elapsed().as_nanos() as u64;
        benchmarks.push(finish(
            "replay_throughput",
            "event",
            events * replay_reps,
            total_ns,
        ));
    }

    // --- tracing overhead on the warm path ---------------------------------
    // The same warm estimate with the full request-telemetry envelope a
    // served request pays: trace begun, every pipeline span recorded,
    // trace finished into the ring + stage histograms. The contract is
    // that tracing is cheap enough to leave on in production.
    let tracing_overhead_pct = {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let traced = bench("estimate_warm_traced", "estimate", warm_reps, || {
            let ctx = telemetry.begin_trace(None);
            service
                .estimate_traced(&single, None, &ctx)
                .expect("estimates");
            telemetry.finish(&ctx, "BENCH", "/v1/estimate", 200, false);
        });
        let pct = (traced.ns_per_op - warm_ns) / warm_ns.max(1.0) * 100.0;
        benchmarks.push(traced);
        assert!(
            pct <= 5.0,
            "tracing overhead on the warm path must stay within 5% (measured {pct:.2}%)"
        );
        pct
    };

    // --- N x D matrix replay: fast path vs sequential full replays -------
    let analyses = analyses();
    let (fast, fast_cells) = matrix_replay_fast(&analyses);
    let full = matrix_replay_full(&analyses, &fast_cells);
    let matrix_fast_path_speedup = full.ns_per_op / fast.ns_per_op.max(1.0);

    // The service's cold matrix takes the same fast path to the same cells.
    let fast_service = EstimationService::for_device(GpuDevice::rtx3060());
    register_fleet(&fast_service);
    {
        let matrix = fast_service
            .estimate_matrix_traced(&jobs(), &FLEET, &untraced)
            .expect("fleet is registered");
        for (row, expected) in matrix.rows.iter().zip(&fast_cells) {
            for (cell, expected) in row.cells.iter().zip(expected) {
                assert_eq!(cell.estimate.as_ref().expect("cell estimates"), expected);
            }
        }
        let stats = fast_service.sim_stats();
        assert_eq!(
            stats.full_replays, 0,
            "all-roomy fleet must serve every cell via the fast path"
        );
        assert_eq!(stats.unbounded_replays, jobs().len() as u64);
    }

    // Warm matrix: every cell is a pure sim-shard hit.
    {
        let jobs = jobs();
        let names: Vec<&str> = FLEET.to_vec();
        let cells = (jobs.len() * FLEET.len()) as u64;
        let reps = if quick { 20 } else { 200 };
        let started = Instant::now();
        for _ in 0..reps {
            fast_service
                .estimate_matrix_traced(&jobs, &names, &untraced)
                .expect("fleet is registered");
        }
        let total_ns = started.elapsed().as_nanos() as u64;
        benchmarks.push(finish("matrix_warm", "cell", cells * reps, total_ns));
    }
    benchmarks.push(fast);
    benchmarks.push(full);

    // --- contended cache-hit latency --------------------------------------
    // 8 threads hammering one warm simulation cell: shard-lock + clone
    // cost under contention.
    {
        let device = GpuDevice::rtx3060();
        fast_service
            .estimate_for_device(&single, device)
            .expect("warms the cell");
        let done = AtomicU64::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..hit_reps {
                        fast_service
                            .estimate_for_device(&single, device)
                            .expect("pure hit");
                    }
                    done.fetch_add(hit_reps, Ordering::Relaxed);
                });
            }
        });
        let total_ns = started.elapsed().as_nanos() as u64;
        benchmarks.push(finish(
            "sim_cell_hit_contended_8t",
            "lookup",
            done.load(Ordering::Relaxed),
            total_ns,
        ));
    }

    // --- O(1) LRU vs the scan-based reference -----------------------------
    // Distinct keys cycling twice the capacity: once warm, every insert
    // evicts, which is exactly where the old implementation scanned.
    let lru_capacity = 1024usize;
    let o1 = {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(lru_capacity, 1);
        let mut key = 0u64;
        bench("lru_insert_o1", "insert", lru_reps, || {
            cache.insert(key % (2 * lru_capacity as u64), key);
            key += 1;
        })
    };
    let scan = {
        let mut cache = ScanLru {
            map: std::collections::HashMap::new(),
            clock: 0,
            capacity: lru_capacity,
        };
        let mut key = 0u64;
        bench("lru_insert_scan_reference", "insert", lru_reps, || {
            cache.insert(key % (2 * lru_capacity as u64), key);
            key += 1;
        })
    };
    let lru_o1_speedup_vs_scan = scan.ns_per_op / o1.ns_per_op.max(1.0);
    benchmarks.push(o1);
    benchmarks.push(scan);

    // --- warm restart: snapshot cost and recovery payoff -------------------
    // A state-dir service populated with the benchmark job mix: how much
    // a snapshot write costs, how long a warm boot (snapshot + journal
    // replay + boot compaction) takes, and what the first estimate after
    // a restart costs when it is a recovered-cache hit instead of a
    // profile run.
    let warm_restart_first_estimate_speedup = {
        let state_dir =
            std::env::temp_dir().join(format!("xmem-perf-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let state_config =
            || ServiceConfig::for_device(GpuDevice::rtx3060()).with_state_dir(&state_dir);

        let persisted = EstimationService::new(state_config());
        assert!(
            persisted.persist_stats().enabled,
            "benchmark state dir must be usable"
        );
        for job in jobs() {
            persisted
                .estimate_traced(&job, None, &untraced)
                .expect("estimates");
        }
        let snapshot_reps: u64 = if quick { 20 } else { 100 };
        benchmarks.push(bench("snapshot_write", "snapshot", snapshot_reps, || {
            persisted.snapshot_now().expect("snapshot writes");
        }));
        drop(persisted);

        let boot_reps: u64 = if quick { 10 } else { 50 };
        benchmarks.push(bench("warm_boot_recovery", "boot", boot_reps, || {
            std::hint::black_box(EstimationService::new(state_config()));
        }));

        let rebooted = EstimationService::new(state_config());
        let started = Instant::now();
        rebooted
            .estimate_traced(&single, None, &untraced)
            .expect("estimates");
        let total_ns = started.elapsed().as_nanos() as u64;
        let after_boot = finish("estimate_after_warm_boot", "estimate", 1, total_ns);
        assert_eq!(
            rebooted.profile_runs(),
            0,
            "the first estimate after a warm boot must be a recovered-cache hit"
        );
        let speedup = cold_ns / after_boot.ns_per_op.max(1.0);
        benchmarks.push(after_boot);
        let _ = std::fs::remove_dir_all(&state_dir);
        speedup
    };

    // --- incremental sweep vs sequential per-batch estimates --------------
    // The same dense batch grid, timed cold twice: as sequential
    // `Estimator` runs (every batch point profiles + analyzes from
    // scratch), and as one sweep on a fresh service (3 anchor profiles
    // fit an affine per-event model, every other cell is derived). Cells
    // must be bit-identical; only the work to produce them differs.
    let (sweep_incremental_speedup, sweep_counters) = {
        let batches: Vec<usize> = (1..=if quick { 12 } else { 48 }).collect();
        let base =
            TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 1).with_iterations(2);

        let sequential = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
        let started = Instant::now();
        let full_cells: Vec<_> = batches
            .iter()
            .map(|&batch| {
                let mut spec = base.clone();
                spec.batch = batch;
                (batch, sequential.estimate_job(&spec))
            })
            .collect();
        let full = finish(
            "sweep_full",
            "cell",
            batches.len() as u64,
            started.elapsed().as_nanos() as u64,
        );

        let inc_sweep = EstimationService::for_device(GpuDevice::rtx3060());
        let started = Instant::now();
        let inc_cells = inc_sweep.sweep_traced(&base, &batches, &untraced);
        let inc = finish(
            "sweep_incremental",
            "cell",
            batches.len() as u64,
            started.elapsed().as_nanos() as u64,
        );

        for ((fb, f), (ib, i)) in full_cells.iter().zip(&inc_cells) {
            assert_eq!(fb, ib);
            let (f, i) = (f.as_ref().expect("sweeps"), i.as_ref().expect("sweeps"));
            assert_eq!(f, i, "incremental sweep cells must be bit-identical");
        }
        let sims = inc_sweep.sim_stats();
        assert_eq!(
            inc_sweep.profile_runs(),
            3,
            "incremental sweep profiles 3 anchors"
        );
        assert_eq!(
            sims.param_replays, 1,
            "one parameterized fit per sweep family"
        );
        assert_eq!(sims.incremental_cells, batches.len() as u64);
        assert_eq!(
            sims.full_replays, 0,
            "no cell may fall back to a full replay"
        );
        let speedup = full.ns_per_op / inc.ns_per_op.max(1.0);
        benchmarks.push(full);
        benchmarks.push(inc);
        (
            speedup,
            (
                inc_sweep.profile_runs(),
                sims.param_replays,
                sims.incremental_cells,
                sims.full_replays,
            ),
        )
    };

    // --- report ------------------------------------------------------------
    let sims = fast_service.sim_stats();
    let counters = Counters {
        profile_runs: fast_service.profile_runs(),
        sim_runs: sims.sim_runs,
        fast_path_hits: sims.fast_path_hits,
        full_replays: sims.full_replays,
        unbounded_replays: sims.unbounded_replays,
        sim_cache_hits: sims.cache.hits,
        sweep_profile_runs: sweep_counters.0,
        sweep_param_replays: sweep_counters.1,
        sweep_incremental_cells: sweep_counters.2,
        sweep_full_replays: sweep_counters.3,
    };
    let report = Report {
        schema: "xmem-bench-perf/v1",
        quick,
        generated_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        benchmarks,
        counters,
        derived: Derived {
            matrix_fast_path_speedup,
            lru_o1_speedup_vs_scan,
            warm_restart_first_estimate_speedup,
            sweep_incremental_speedup,
            tracing_overhead_pct,
        },
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write benchmark report");
    println!(
        "fast-path speedup {:.2}x | O(1) LRU vs scan {:.2}x | warm restart {:.0}x | incremental sweep {:.2}x | tracing overhead {:.2}%",
        report.derived.matrix_fast_path_speedup,
        report.derived.lru_o1_speedup_vs_scan,
        report.derived.warm_restart_first_estimate_speedup,
        report.derived.sweep_incremental_speedup,
        report.derived.tracing_overhead_pct
    );
    println!("wrote {out}");
}
