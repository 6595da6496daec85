//! `xmem-cli` — the command-line front end of the estimator, mirroring how
//! the paper's released tool is used: profile a job on the CPU, estimate
//! its peak GPU memory, inspect per-layer demand.
//!
//! ```text
//! xmem-cli estimate --model gpt2 --optimizer AdamW --batch 16 --device rtx3060
//! xmem-cli sweep    --model gpt2 --optimizer AdamW --batches 1,2,4,8,16,32
//! xmem-cli plan     --model gpt2 --optimizer AdamW --min 1 --max 128 --device rtx3060
//! xmem-cli matrix   --models gpt2,resnet101 --optimizer AdamW --batch 16 \
//!                   --devices rtx3060,rtx4060,a100
//! xmem-cli serve    --jobs queue.jobs --device rtx3060
//! xmem-cli profile  --model distilgpt2 --optimizer Adam --batch 8 --out trace.json
//! xmem-cli estimate-trace --trace trace.json --device rtx4060
//! xmem-cli layers   --model t5-base --optimizer Adafactor --batch 8 --top 12
//! xmem-cli models
//! ```
//!
//! `sweep` and `plan` run through the concurrent [`EstimationService`]:
//! the batch grid fans out across worker threads and the profiled stages
//! are cached, so overlapping probes are answered without re-profiling.
//! `matrix` is the multi-device batched replay: every listed job is
//! profiled and analyzed **once**, and the cached analysis fans out to a
//! concurrent allocator simulation per device — the per-cluster question
//! "which of my device types fits each pending job?" answered in one
//! call. `serve` is the scheduler-shaped batch mode: it reads one job per
//! line, submits them all through the [`AsyncEstimationService`] (with
//! `Busy` backpressure handling and optional per-query deadlines), and
//! drives the resulting futures from a single thread.
//!
//! Every device-addressing command accepts `--registry <file.json>`: a
//! fleet description merged over the built-in devices, so a cluster
//! operator can estimate against custom capacities by name (see
//! [`DeviceRegistry::extend_from_json_str`] for the format).

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmem::core::{layer_report, render_layer_report, render_report, Analyzer, Orchestrator};
use xmem::prelude::*;
use xmem::server::{ClusterConfig, ServerConfig, ServerHandle};
use xmem::service::jobspec::{batch_grid, batch_range, parse_jobs_text, JobDraft};
use xmem::service::{LogLevel, Telemetry, TelemetryConfig};
use xmem::trace::Trace;

fn usage() -> &'static str {
    "usage: xmem-cli <command> [options]\n\
     commands:\n\
       estimate        --model <name> --optimizer <name> --batch <n>\n\
                       [--seq <n>] [--iterations <n>]\n\
                       [--device <name>] [--registry <file.json>] [--pos1] [--fp16]\n\
       sweep           (same job options) --batches <n,n,...> [--threads <n>]\n\
       plan            (same job options, no --batch) --min <n> --max <n>\n\
                       [--threads <n>]  find the largest batch that fits\n\
       matrix          --models <m1,m2,...> --optimizer <name> --batch <n>\n\
                       [--devices <d1,d2,...>] [--registry <file.json>]\n\
                       [--threads <n>] (same job options otherwise)\n\
                       one analysis per model, replayed against every device;\n\
                       prints the fit grid and the best-fit device per job\n\
       serve           --jobs <file|-> [--device ...] [--registry <file.json>]\n\
                       [--workers <n>] [--queue <n>] [--deadline-ms <n>]\n\
                       batch mode: one job per line\n\
                       (`<model> <optimizer> <batch> [seq=N] [iters=N] [pos1] [fp16]`,\n\
                       `#` comments), answered through the async service\n\
       listen          --addr <host:port> [--device ...] [--registry <file.json>]\n\
                       [--workers <n>] [--queue <n>] [--conns <n>] [--drain-ms <n>]\n\
                       [--state-dir <dir>] [--snapshot-ms <n>]\n\
                       [--log-level off|error|warn|info] [--slow-ms <n>]\n\
                       [--trace-capacity <n>]\n\
                       [--peers <a1,a2,...> --auth-token <secret>\n\
                       [--advertise <host:port>]]\n\
                       HTTP/1.1 server: POST /v1/estimate|matrix|sweep|plan|best-device\n\
                       (JSON jobs, same grammar), GET /healthz, GET /metrics\n\
                       (Prometheus), GET /v1/debug/traces (recent request\n\
                       traces; ?n= last-N, ?slow_ms= filter);\n\
                       POST /v1/shutdown drains and exits;\n\
                       --log-level sets the per-request JSON log on stderr\n\
                       (default info), --slow-ms marks+warns slow requests;\n\
                       --state-dir persists cache state (snapshot + journal)\n\
                       across restarts: a warm boot re-serves prior jobs\n\
                       without re-profiling;\n\
                       --peers joins a consistent-hash cluster: requests\n\
                       route to the key's owner (forwarded over HTTP with\n\
                       an x-xmem-forwarded hop guard), and every /v1/*\n\
                       request must carry the shared x-xmem-auth secret;\n\
                       --advertise overrides the ring identity when the\n\
                       bind address is not peer-reachable\n\
       profile         (same job options) --out <trace.json>\n\
       estimate-trace  --trace <trace.json> [--device ...]\n\
       layers          (same job options) [--top <n>]\n\
       models          list the model zoo\n\
     devices default to the built-in registry (rtx3060, rtx4060, a100);\n\
     --registry merges a JSON fleet file over it;\n\
     docs/JOBSPEC.md specifies the shared job grammar (flags, job lines,\n\
     HTTP JSON) with every field, default, and error message\n"
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
        match key {
            "pos1" | "fp16" => {
                flags.insert(key.to_string(), "true".to_string());
            }
            _ => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for --{key}"))?;
                flags.insert(key.to_string(), value.clone());
            }
        }
    }
    Ok(flags)
}

/// The device fleet a command runs against: the built-in registry, with
/// an optional `--registry <file.json>` merged over it.
fn registry_of(flags: &HashMap<String, String>) -> Result<DeviceRegistry, String> {
    let registry = DeviceRegistry::builtin();
    if let Some(path) = flags.get("registry") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("read {path} failed: {e}"))?;
        registry
            .extend_from_json_str(&json)
            .map_err(|e| format!("registry {path}: {e}"))?;
    }
    Ok(registry)
}

fn device_of(
    flags: &HashMap<String, String>,
    registry: &DeviceRegistry,
) -> Result<GpuDevice, String> {
    let name = flags.get("device").map(String::as_str).unwrap_or("rtx3060");
    registry.get(name).ok_or_else(|| {
        format!(
            "unknown device `{name}` (known: {})",
            registry.names().join("|")
        )
    })
}

fn job_of(flags: &HashMap<String, String>) -> Result<TrainJobSpec, String> {
    job_with_batch(flags, None)
}

/// Builds a job spec through the shared grammar
/// ([`xmem::service::jobspec`]); `default_batch` backs commands
/// (`sweep`, `plan`) where the batch size comes from the grid, not
/// `--batch`.
fn job_with_batch(
    flags: &HashMap<String, String>,
    default_batch: Option<usize>,
) -> Result<TrainJobSpec, String> {
    let mut draft = JobDraft::new();
    for field in ["model", "optimizer", "batch", "seq", "iterations"] {
        if let Some(value) = flags.get(field) {
            draft.set(field, value)?;
        }
    }
    for flag in ["pos1", "fp16"] {
        if flags.contains_key(flag) {
            draft.set(flag, "true")?;
        }
    }
    draft.build(default_batch)
}

fn threads_of(flags: &HashMap<String, String>) -> Result<usize, String> {
    flags
        .get("threads")
        .map(|t| {
            t.parse()
                .map_err(|_| "--threads must be a number".to_string())
        })
        .unwrap_or(Ok(0))
}

/// The `matrix` command: profile + analyze each listed model **once**,
/// then replay the cached analyses against every named device — the
/// per-cluster "which device type fits which job?" grid in one call.
fn matrix(flags: &HashMap<String, String>) -> Result<(), String> {
    let untraced = TraceContext::disabled();
    let registry = registry_of(flags)?;
    let model_list = flags
        .get("models")
        .ok_or("--models is required (e.g. --models gpt2,resnet101)")?;
    let mut specs = Vec::new();
    for name in model_list.split(',') {
        let mut per_model = flags.clone();
        per_model.insert("model".to_string(), name.trim().to_string());
        specs.push(job_of(&per_model)?);
    }
    if specs.is_empty() {
        return Err("--models must name at least one model".to_string());
    }
    let devices: Vec<String> = match flags.get("devices") {
        Some(list) => list.split(',').map(|d| d.trim().to_string()).collect(),
        None => registry.names(),
    };
    if devices.is_empty() {
        return Err("no devices to simulate against".to_string());
    }

    let service = EstimationService::new(
        ServiceConfig::for_device(device_of(flags, &registry)?)
            .with_threads(threads_of(flags)?)
            .with_registry(registry.clone()),
    );
    let names: Vec<&str> = devices.iter().map(String::as_str).collect();
    let matrix = service
        .estimate_matrix_traced(&specs, &names, &untraced)
        .map_err(|e| format!("matrix failed: {e}"))?;

    const MIB: f64 = (1u64 << 20) as f64;
    print!("{:<44}", "job \\ peak (MiB) on");
    for device in &matrix.devices {
        print!(" {device:>14}");
    }
    println!(" {:>14}", "best fit");
    let mut failed = 0usize;
    for row in &matrix.rows {
        print!("{:<44}", row.spec.label());
        for cell in &row.cells {
            match &cell.estimate {
                Ok(e) if e.oom_predicted => print!(" {:>14}", "OOM"),
                Ok(e) => print!(" {:>14.1}", e.peak_bytes as f64 / MIB),
                Err(_) => {
                    failed += 1;
                    print!(" {:>14}", "error");
                }
            }
        }
        // Best fit over the *requested* columns: the smallest-capacity
        // device predicted to hold the job.
        let best = row
            .fitting_devices()
            .into_iter()
            .filter_map(|name| registry.get(name).map(|d| (d.capacity, name)))
            .min_by_key(|&(capacity, name)| (capacity, name.to_string()));
        match best {
            Some((_, name)) => println!(" {name:>14}"),
            None => println!(" {:>14}", "-"),
        }
    }
    let sims = service.sim_stats();
    println!(
        "analysis runs: {} (one per job) | simulations: {} ({} jobs x {} devices) | \
         sim cache: {} hits, {} misses",
        service.profile_runs(),
        sims.sim_runs,
        matrix.rows.len(),
        matrix.devices.len(),
        sims.cache.hits,
        sims.cache.misses,
    );
    println!(
        "replay strategy: {} fast-path derivations, {} full replays, {} unbounded seed replays",
        sims.fast_path_hits, sims.full_replays, sims.unbounded_replays,
    );
    if failed > 0 {
        return Err(format!("{failed} matrix cells failed estimation"));
    }
    Ok(())
}

/// The `serve` command: answer a whole queue of jobs through the async
/// front end — submit everything (draining in-flight futures when the
/// bounded queue pushes back), then drive all futures from this thread.
fn serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let source = flags
        .get("jobs")
        .ok_or("--jobs is required (a file, or - for stdin)")?;
    let text = if source == "-" {
        use std::io::Read;
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| format!("read stdin failed: {e}"))?;
        buffer
    } else {
        std::fs::read_to_string(source).map_err(|e| format!("read {source} failed: {e}"))?
    };
    let specs = parse_jobs_text(&text)?;
    if specs.is_empty() {
        return Err("no jobs found".to_string());
    }

    let registry = registry_of(flags)?;
    let device = device_of(flags, &registry)?;
    let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
        flags
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key} must be a number")))
            .unwrap_or(Ok(default))
    };
    let workers = parse_usize("workers", 0)?;
    let queue_depth = parse_usize("queue", 1024)?;
    let deadline = flags
        .get("deadline-ms")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| "--deadline-ms must be a number".to_string())
        })
        .transpose()?
        .map(|ms| Instant::now() + Duration::from_millis(ms));

    let service = AsyncEstimationService::from_service(
        Arc::new(EstimationService::new(
            ServiceConfig::for_device(device).with_registry(registry),
        )),
        workers,
        queue_depth,
    );
    eprintln!(
        "serving {} jobs on {} workers (queue depth {queue_depth})",
        specs.len(),
        service.workers()
    );

    let mut futures: Vec<EstimateFuture> = Vec::with_capacity(specs.len());
    // Monotonic cursor over the submission order: everything before it is
    // settled, so Busy-retries never rescan resolved futures.
    let mut first_pending = 0;
    let untraced = TraceContext::disabled();
    for spec in &specs {
        loop {
            match service.submit(spec, None, deadline, &untraced) {
                Ok(future) => {
                    futures.push(future);
                    break;
                }
                Err(SubmitError::Busy) => {
                    // Backpressure: resolve the oldest unresolved future
                    // to free queue room, then retry this submission.
                    while first_pending < futures.len() && futures[first_pending].is_settled() {
                        first_pending += 1;
                    }
                    match futures.get(first_pending) {
                        Some(pending) => {
                            let _ = pending.clone().wait();
                        }
                        None => std::thread::yield_now(),
                    }
                }
            }
        }
    }

    let outputs = block_on(join_all(futures));
    println!(
        "{:<44} {:>14} {:>14} {:>6}",
        "job", "peak (MiB)", "job peak (MiB)", "fits"
    );
    let mut failed = 0usize;
    for (spec, output) in specs.iter().zip(&outputs) {
        match output {
            Ok(e) => println!(
                "{:<44} {:>14.1} {:>14.1} {:>6}",
                spec.label(),
                e.peak_bytes as f64 / (1 << 20) as f64,
                e.job_peak_bytes as f64 / (1 << 20) as f64,
                if e.oom_predicted { "OOM" } else { "yes" }
            ),
            Err(e) => {
                failed += 1;
                println!("{:<44} {e}", spec.label());
            }
        }
    }
    let inner = service.service();
    let cells = inner.sim_stats().cache;
    let flights = inner.flight_stats();
    let negative = inner.negative_stats();
    println!(
        "sim cells: {} hits, {} misses | single-flight: {} executions, {} coalesced | \
         negative: {} hits, {} insertions | profile runs: {}",
        cells.hits,
        cells.misses,
        flights.executions,
        flights.coalesced,
        negative.hits,
        negative.insertions,
        inner.profile_runs()
    );
    // Per-job failures are reported in the table above, but the process
    // must still signal them (like every other subcommand) so CI and
    // scripts notice estimation regressions.
    if failed > 0 {
        return Err(format!("{failed}/{} jobs failed estimation", specs.len()));
    }
    Ok(())
}

/// The `listen` command: serve the estimation service over HTTP/1.1
/// until a graceful drain is requested (`POST /v1/shutdown` on the wire,
/// or process termination).
fn listen(flags: &HashMap<String, String>) -> Result<(), String> {
    let registry = registry_of(flags)?;
    let device = device_of(flags, &registry)?;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
        flags
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key} must be a number")))
            .unwrap_or(Ok(default))
    };
    let workers = parse_usize("workers", 0)?;
    let queue_depth = parse_usize("queue", 1024)?;
    let conns = parse_usize("conns", 64)?;
    let drain_ms = parse_usize("drain-ms", 5000)?;
    let snapshot_ms = parse_usize("snapshot-ms", 2000)?;
    let slow_ms = parse_usize("slow-ms", 0)?;
    let trace_capacity = parse_usize("trace-capacity", 256)?;
    let log_level = LogLevel::parse(flags.get("log-level").map_or("info", String::as_str))?;

    let mut service_config = ServiceConfig::for_device(device).with_registry(registry);
    if let Some(dir) = flags.get("state-dir") {
        service_config = service_config.with_state_dir(dir);
    }
    let inner = Arc::new(EstimationService::new(service_config));
    let persist = inner.persist_stats();
    if flags.contains_key("state-dir") && !persist.enabled {
        return Err(
            "--state-dir is unusable (see the message above); refusing to \
                    listen without the durability that was asked for"
                .to_string(),
        );
    }
    if persist.enabled {
        println!(
            "state recovered: {} entries ({} skipped, {} torn tails)",
            persist.recovered_entries, persist.recovery_skipped, persist.recovery_truncated
        );
    }
    let snapshotter = persist.enabled.then(|| {
        xmem::service::Snapshotter::spawn(
            Arc::clone(&inner),
            Duration::from_millis(snapshot_ms as u64),
        )
    });
    let service = Arc::new(AsyncEstimationService::from_service(
        Arc::clone(&inner),
        workers,
        queue_depth,
    ));
    let telemetry = Telemetry::new(
        TelemetryConfig::default()
            .with_capacity(trace_capacity)
            .with_log_level(log_level)
            .with_slow_ms(slow_ms as u64),
    );
    let config = ServerConfig::default()
        .with_workers(conns)
        .with_drain_timeout(Duration::from_millis(drain_ms as u64))
        .with_telemetry(telemetry);
    let mut server = ServerHandle::bind(addr.as_str(), Arc::clone(&service), config)
        .map_err(|e| format!("bind {addr} failed: {e}"))?;
    if let Some(peer_list) = flags.get("peers") {
        let auth_token = flags
            .get("auth-token")
            .cloned()
            .ok_or("--peers requires --auth-token (the shared x-xmem-auth secret)")?;
        let peers: Vec<String> = peer_list
            .split(',')
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .collect();
        let self_addr = flags
            .get("advertise")
            .cloned()
            .unwrap_or_else(|| server.local_addr().to_string());
        let cluster = ClusterConfig {
            self_addr,
            peers,
            auth_token,
        };
        server.install_cluster(&cluster)?;
        let ring_len = server.cluster().map(|c| c.ring().len()).unwrap_or(0);
        println!(
            "cluster: {} in a {ring_len}-node ring (x-xmem-auth required on /v1/*)",
            cluster.self_addr,
        );
    } else if flags.contains_key("auth-token") {
        return Err("--auth-token requires --peers (cluster mode)".to_string());
    }
    println!("listening on http://{}", server.local_addr());
    println!(
        "routes: POST /v1/estimate /v1/matrix /v1/sweep /v1/plan /v1/best-device | \
         GET /healthz /metrics /v1/debug/traces | POST /v1/shutdown drains"
    );
    let report = server.wait();
    if let Some(snapshotter) = snapshotter {
        snapshotter.stop();
        // The drain already stopped the ingress, so this snapshot is the
        // complete final state: a restart with the same --state-dir warm-
        // boots every cached entry.
        match inner.snapshot_now() {
            Ok(_) => {
                let stats = inner.persist_stats();
                println!(
                    "final snapshot written: {} bytes, {} snapshot writes this run",
                    stats.snapshot_bytes, stats.snapshot_writes
                );
            }
            Err(e) => eprintln!("final snapshot failed: {e}"),
        }
    }
    println!(
        "drained ({}): {} requests served | profile runs: {} | sim cells: {} hits, {} misses",
        if report.clean { "clean" } else { "stragglers" },
        report.requests_served,
        inner.profile_runs(),
        inner.sim_stats().cache.hits,
        inner.sim_stats().cache.misses
    );
    Ok(())
}

/// What a one-shot query cost: profile runs and sim-cell reads.
fn print_work(service: &EstimationService) {
    let cells = service.sim_stats().cache;
    println!(
        "profile runs: {} | sim cells: {} hits, {} misses",
        service.profile_runs(),
        cells.hits,
        cells.misses
    );
}

fn run() -> Result<(), String> {
    let untraced = TraceContext::disabled();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return Err(usage().to_string());
    };
    let flags = parse_flags(rest)?;
    match command.as_str() {
        "estimate" => {
            let spec = job_of(&flags)?;
            let device = device_of(&flags, &registry_of(&flags)?)?;
            let estimator = Estimator::new(EstimatorConfig::for_device(device));
            let estimate = estimator
                .estimate_job(&spec)
                .map_err(|e| format!("estimation failed: {e}"))?;
            print!("{}", render_report(&spec.label(), &estimate));
            Ok(())
        }
        "sweep" => {
            let spec = job_with_batch(&flags, Some(1))?;
            let device = device_of(&flags, &registry_of(&flags)?)?;
            let grid = flags
                .get("batches")
                .ok_or("--batches is required (e.g. --batches 1,2,4,8)")?;
            // `split` yields one item even from a blank flag, so the empty
            // grid is told apart before splitting.
            if grid.trim().is_empty() {
                return Err("--batches must name at least one batch size".to_string());
            }
            let batches = batch_grid(
                grid.split(',')
                    .map(|raw| raw.trim().parse().map_err(|_| format!("bad batch `{raw}`"))),
            )?;
            let service = EstimationService::new(
                ServiceConfig::for_device(device).with_threads(threads_of(&flags)?),
            );
            println!(
                "{:<8} {:>14} {:>14} {:>6}",
                "batch", "peak (MiB)", "job peak (MiB)", "fits"
            );
            for (batch, estimate) in service.sweep_traced(&spec, &batches, &untraced) {
                match estimate {
                    Ok(e) => println!(
                        "{:<8} {:>14.1} {:>14.1} {:>6}",
                        batch,
                        e.peak_bytes as f64 / (1 << 20) as f64,
                        e.job_peak_bytes as f64 / (1 << 20) as f64,
                        if e.oom_predicted { "OOM" } else { "yes" }
                    ),
                    Err(e) => println!("{batch:<8} estimation failed: {e}"),
                }
            }
            print_work(&service);
            Ok(())
        }
        "plan" => {
            let spec = job_with_batch(&flags, Some(1))?;
            let device = device_of(&flags, &registry_of(&flags)?)?;
            let parse_bound = |key: &str, default: usize| -> Result<usize, String> {
                flags
                    .get(key)
                    .map(|v| v.parse().map_err(|_| format!("--{key} must be a number")))
                    .unwrap_or(Ok(default))
            };
            let lo = parse_bound("min", 1)?;
            let hi = parse_bound("max", 1024)?;
            batch_range(lo, hi)?;
            let service = EstimationService::new(
                ServiceConfig::for_device(device).with_threads(threads_of(&flags)?),
            );
            match service.max_batch_for_device_traced(&spec, device, lo, hi, &untraced) {
                Ok(Some(batch)) => println!(
                    "largest batch for {} on {}: {batch}",
                    spec.label(),
                    device.name
                ),
                Ok(None) => println!(
                    "{} does not fit {} at any batch in [{lo}, {hi}]",
                    spec.label(),
                    device.name
                ),
                Err(e) => return Err(format!("estimation failed: {e}")),
            }
            print_work(&service);
            Ok(())
        }
        "matrix" => matrix(&flags),
        "serve" => serve(&flags),
        "listen" => listen(&flags),
        "profile" => {
            let spec = job_of(&flags)?;
            let out = flags.get("out").ok_or("--out is required")?;
            let trace = profile_on_cpu(&spec);
            let json = trace
                .to_json_string()
                .map_err(|e| format!("serialize failed: {e}"))?;
            std::fs::write(out, json).map_err(|e| format!("write failed: {e}"))?;
            println!(
                "wrote {} events ({} memory instants) to {out}",
                trace.events().len(),
                trace.memory_instants().count()
            );
            Ok(())
        }
        "estimate-trace" => {
            let path = flags.get("trace").ok_or("--trace is required")?;
            let device = device_of(&flags, &registry_of(&flags)?)?;
            let json = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
            let trace = Trace::from_json_str(&json).map_err(|e| format!("parse failed: {e}"))?;
            let estimator = Estimator::new(EstimatorConfig::for_device(device));
            let estimate = estimator
                .estimate_trace(&trace)
                .map_err(|e| format!("estimation failed: {e}"))?;
            print!("{}", render_report(trace.name(), &estimate));
            Ok(())
        }
        "layers" => {
            let spec = job_of(&flags)?;
            let top: usize = flags
                .get("top")
                .map(|t| t.parse().map_err(|_| "--top must be a number".to_string()))
                .transpose()?
                .unwrap_or(15);
            let trace = profile_on_cpu(&spec);
            let analyzed = Analyzer::new()
                .analyze(&trace)
                .map_err(|e| format!("analysis failed: {e}"))?;
            let report = layer_report(&analyzed, &Orchestrator::default());
            print!("{}", render_layer_report(&report, top));
            Ok(())
        }
        "models" => {
            println!(
                "{:<32} {:<12} {:>14} {:<14}",
                "name", "class", "params", "batch grid"
            );
            for model in ModelId::all() {
                let info = model.info();
                println!(
                    "{:<32} {:<12} {:>14} {:<14}",
                    info.name,
                    info.arch.label(),
                    info.published_params,
                    format!(
                        "{}..{}/{}",
                        info.batch_grid.min, info.batch_grid.max, info.batch_grid.step
                    )
                );
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
