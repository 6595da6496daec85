//! Serving benchmark for `xmem-cli listen`.
//!
//! ```text
//! perfbench --server <xmem-cli> --fleet <fleet.json> --workload <name>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--commit <id>] [--rustc <version>]
//! ```
//!
//! One run: set up the workload several times on fresh servers (spawn +
//! prewarm through the measured load; the median is `setup_s`), measure
//! the last one for `--seconds`, shut it down, and check every distinct
//! response body against the sequential estimator. With `--trace 1` a
//! traced pass then replays the same requests in process (see
//! `trace.rs`) and the per-layer metrics replace the end-to-end ones.
//! The last stdout line is the JSON result; the lines before it are the
//! human-readable report and the run stamp. `run.py` builds and runs it.

mod client;
mod meter;
mod oracle;
mod procfs;
mod trace;
mod workload;

use client::{Bodies, Phase, Sample, Server};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};
use trace::{Pass, RequestSpans};
use workload::{Workload, WORKLOADS};
use xmem_service::{DeviceRegistry, SpanRecord};

/// Fresh-server setups per run; `setup_s` is the median of the quieter
/// half by host steal.
const SETUPS: usize = 7;
/// The server's default device (`xmem-cli listen` without `--device`).
const DEFAULT_DEVICE: &str = "rtx3060";
/// Threads the correctness check uses once the server is gone.
const CHECK_THREADS: usize = 2;

struct Args {
    server: String,
    fleet: String,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for --{key}"))?;
        flags.insert(key.to_string(), value);
    }
    let mut take = |key: &str| {
        flags
            .remove(key)
            .ok_or_else(|| format!("--{key} is required"))
    };
    let number = |value: String, key: &str| {
        value
            .parse::<u64>()
            .map_err(|_| format!("--{key} must be a whole number"))
    };
    let args = Args {
        server: take("server")?,
        fleet: take("fleet")?,
        workload: take("workload")?,
        seed: number(take("seed")?, "seed")?,
        seconds: number(take("seconds")?, "seconds")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
        commit: take("commit").unwrap_or_else(|_| "unknown".to_string()),
        rustc: take("rustc").unwrap_or_else(|_| "unknown".to_string()),
    };
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(args)
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of sorted `values`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The end-to-end figures of one measured phase.
struct Measured {
    /// Steal-corrected (see [`summarize`]).
    rps: f64,
    p50_ms: f64,
    raw_rps: f64,
    raw_p50_ms: f64,
    cpu_ms_per_req: f64,
    /// Windows the medians are taken over, of `total_windows`.
    windows: usize,
    total_windows: usize,
    completed: usize,
    overall_p50_ms: f64,
    p99_ms: Option<(f64, usize)>,
    steal_share: f64,
}

/// Share of host CPU time the host did not steal (floored, so a fully
/// stolen interval cannot divide by zero).
fn unstolen(steal: f64) -> f64 {
    (1.0 - steal).max(0.05)
}

/// One measured window.
#[derive(Debug, Clone, Copy)]
struct Window {
    rps: f64,
    p50_ms: f64,
    cpu_ms_per_req: f64,
    unstolen: f64,
}

/// The quieter half of `items` by host steal share (at least one).
fn quieter_half<T: Copy>(mut items: Vec<(f64, T)>) -> Vec<T> {
    items.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = items.len().div_ceil(2);
    items.into_iter().take(keep).map(|(_, item)| item).collect()
}

/// Throughput, median latency and server CPU per request, each the
/// median over the measured windows in which the host stole the least
/// CPU (the quieter half). Windows are bounded by the `/proc` readings
/// connection 0 took.
///
/// Host steal stretches every wall-clock figure of a window by the share
/// of CPU time the host withheld, so `rps` and `p50_ms` are expressed per
/// unstolen second: a window's throughput is divided by, and its median
/// latency multiplied by, the share the host did not steal. The raw
/// figures are reported beside them. Server CPU time is not charged
/// while stolen and needs no correction.
fn summarize(phase: &Phase) -> Result<Measured, String> {
    let ticks = &phase.ticks;
    let mut windows = Vec::new();
    for pair in ticks.windows(2) {
        let (from, to) = (pair[0], pair[1]);
        let span = to.at_s - from.at_s;
        // A short last window says little.
        if span < 0.5 * client::WINDOW.as_secs_f64() {
            continue;
        }
        let mut latencies: Vec<f64> = phase
            .samples
            .iter()
            .filter(|s| s.ok && s.done_s >= from.at_s && s.done_s < to.at_s)
            .map(|s| s.latency_ms)
            .collect();
        if latencies.is_empty() {
            continue;
        }
        let count = latencies.len() as f64;
        let cpu_ms =
            (to.server_cpu_ticks - from.server_cpu_ticks) as f64 * 1e3 / procfs::TICKS_PER_S;
        let steal = procfs::steal_share(from.host, to.host);
        windows.push((
            steal,
            Window {
                rps: count / span,
                p50_ms: median(&mut latencies),
                cpu_ms_per_req: cpu_ms / count,
                unstolen: unstolen(steal),
            },
        ));
    }
    if windows.is_empty() {
        return Err("no measured window completed a request".to_string());
    }
    let total_windows = windows.len();
    let quiet = quieter_half(windows);
    let pick = |f: fn(&Window) -> f64| {
        let mut v: Vec<f64> = quiet.iter().map(f).collect();
        median(&mut v)
    };
    let mut all: Vec<f64> = phase
        .samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_ms)
        .collect();
    all.sort_by(f64::total_cmp);
    let beyond_p99 = all.len() / 100;
    Ok(Measured {
        rps: pick(|w| w.rps / w.unstolen),
        p50_ms: pick(|w| w.p50_ms * w.unstolen),
        raw_rps: pick(|w| w.rps),
        raw_p50_ms: pick(|w| w.p50_ms),
        cpu_ms_per_req: pick(|w| w.cpu_ms_per_req),
        windows: quiet.len(),
        total_windows,
        completed: all.len(),
        overall_p50_ms: quantile(&all, 0.5),
        p99_ms: (beyond_p99 >= 10).then(|| (quantile(&all, 0.99), beyond_p99)),
        steal_share: procfs::steal_share(ticks[0].host, ticks[ticks.len() - 1].host),
    })
}

/// Everything the untraced run measured.
struct Run {
    measured: Measured,
    setup_s: Vec<f64>,
    setup_steal: Vec<f64>,
    peak_rss_mib: f64,
    threads: u64,
    nvcsw_per_req: f64,
    attempted: usize,
    failed: usize,
    mismatched_slots: usize,
    bodies: Bodies,
    /// Speed meter kernel runs per CPU-second during the measured phase.
    host_speed: f64,
}

fn run_untraced(
    args: &Args,
    workload: &Workload,
    registry: &DeviceRegistry,
) -> Result<Run, String> {
    let deck: Vec<Vec<u8>> = workload.deck.iter().map(|e| e.wire.clone()).collect();
    let bodies = Bodies::new(deck.len());
    let mut samples: Vec<Sample> = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_steal = Vec::new();
    let mut server = None;
    for round in 0..SETUPS {
        let host_before = procfs::host_cpu()?;
        let spawned = Instant::now();
        let fresh = Server::spawn(&args.server, &args.fleet)?;
        let prewarm = client::run_phase(fresh.addr, &deck, &workload.setup, &bodies, None, None)?;
        setup_s.push(spawned.elapsed().as_secs_f64());
        setup_steal.push(procfs::steal_share(host_before, procfs::host_cpu()?));
        samples.extend(prewarm.samples);
        if round + 1 < SETUPS {
            fresh.shutdown();
        } else {
            server = Some(fresh);
        }
    }
    let server = server.expect("the last setup keeps its server");
    let pid = server.pid();
    let status_before = procfs::process_status(pid)?;
    let meter = meter::Meter::start()?;
    let phase = client::run_phase(
        server.addr,
        &deck,
        &workload.measured,
        &bodies,
        Some(Duration::from_secs(args.seconds)),
        Some(pid),
    );
    let status_after = procfs::process_status(pid);
    let host_speed = meter.stop();
    server.shutdown();
    let phase = phase?;
    let host_speed = host_speed?;
    let status_after = status_after?;
    let measured = summarize(&phase)?;
    let measured_requests = phase.samples.len();
    if measured_requests >= workload.measured.len() {
        println!("note: the measured stream ran out before the time limit");
    }
    samples.extend(phase.samples);

    // Every distinct body the server sent, against the oracle.
    let default_device = registry.get(DEFAULT_DEVICE).ok_or("no default device")?;
    let oracle = oracle::Oracle::new(registry.clone(), default_device);
    let mut slots: Vec<usize> = samples.iter().map(|s| s.slot as usize).collect();
    slots.sort_unstable();
    slots.dedup();
    let bad: HashSet<usize> =
        oracle::check(&oracle, &workload.deck, &bodies, &slots, CHECK_THREADS)
            .into_iter()
            .collect();
    let failed = samples
        .iter()
        .filter(|s| !s.ok || bad.contains(&(s.slot as usize)))
        .count();
    Ok(Run {
        setup_s,
        setup_steal,
        peak_rss_mib: status_after.vm_hwm_kib as f64 / 1024.0,
        threads: status_after.threads,
        nvcsw_per_req: (status_after.nonvoluntary_switches - status_before.nonvoluntary_switches)
            as f64
            / measured_requests.max(1) as f64,
        measured,
        attempted: samples.len(),
        failed,
        mismatched_slots: bad.len(),
        bodies,
        host_speed,
    })
}

fn metric(value: f64, unit: &str) -> serde::Value {
    serde::Value::Object(vec![
        ("value".to_string(), serde::Value::F64(value)),
        ("unit".to_string(), serde::Value::Str(unit.to_string())),
    ])
}

/// Total length of the union of `intervals` (start, end).
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            _ => {
                if let Some((s, e)) = current {
                    total += e - s;
                }
                current = Some((start, end));
            }
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

fn interval(span: &SpanRecord) -> (u64, u64) {
    (span.start_ns, span.start_ns + span.duration_ns)
}

fn contains(outer: &SpanRecord, inner: &SpanRecord) -> bool {
    inner.id != outer.id
        && inner.start_ns >= outer.start_ns
        && inner.start_ns + inner.duration_ns <= outer.start_ns + outer.duration_ns
}

/// The layers a request's time is attributed to.
const LAYERS: [&str; 8] = [
    "wire", "api", "pool", "service", "profile", "analyze", "sim", "param",
];

/// Self time per layer of one request, in nanoseconds ([`LAYERS`] order).
fn layer_self_times(r: &RequestSpans) -> [u64; 8] {
    let named = |name: &'static str| r.inner.iter().filter(move |s| s.name == name);
    let timed: Vec<(u64, u64)> = r
        .inner
        .iter()
        .filter(|s| s.duration_ns > 0)
        .map(interval)
        .chain(r.replay.map(|(start, len)| (start, start + len)))
        .collect();
    let service = r.call.saturating_sub(union_len(timed));
    let profile = named("stage.profile").map(|s| s.duration_ns).sum();
    let analyze = named("stage.analyze").map(|s| s.duration_ns).sum();
    // `sim.replay` spans include the unbounded replay they seed.
    let sim = named("sim.replay").map(|s| s.duration_ns).sum::<u64>()
        + r.replay.map_or(0, |(_, len)| len);
    let param = named("sweep.param_fit")
        .map(|fit| {
            let anchors = r
                .inner
                .iter()
                .filter(|s| s.name.starts_with("stage.") && contains(fit, s))
                .map(interval)
                .collect();
            fit.duration_ns.saturating_sub(union_len(anchors))
        })
        .sum();
    [
        r.parse + r.write,
        r.decode + r.render,
        r.pool.saturating_sub(r.call),
        service,
        profile,
        analyze,
        sim,
        param,
    ]
}

/// Durations of every allocator replay in the pass: default-device
/// replays, unbounded seeds, and full `sim.replay`s net of the seed they
/// contain.
fn replay_durations(pass: &Pass) -> Vec<f64> {
    let mut out = Vec::new();
    for r in &pass.requests {
        out.extend(r.replay.map(|(_, len)| len as f64));
        for span in &r.inner {
            match (span.name, span.outcome) {
                ("sim.unbounded", _) => out.push(span.duration_ns as f64),
                ("sim.replay", "full-replay") => {
                    let seeds: u64 = r
                        .inner
                        .iter()
                        .filter(|s| s.name == "sim.unbounded" && contains(span, s))
                        .map(|s| s.duration_ns)
                        .sum();
                    out.push(span.duration_ns.saturating_sub(seeds) as f64);
                }
                _ => {}
            }
        }
    }
    out
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The per-layer metrics from the traced pass, its untraced twin, and
/// the untraced load run.
fn layer_metrics(
    traced: &Pass,
    baseline: &Pass,
    run: &Run,
) -> Vec<(&'static str, f64, &'static str)> {
    let measured: Vec<&RequestSpans> = traced.requests.iter().filter(|r| !r.setup).collect();
    let n = measured.len().max(1) as f64;
    let med = |f: &dyn Fn(&RequestSpans) -> f64| {
        let mut v: Vec<f64> = measured.iter().map(|r| f(r)).collect();
        median(&mut v)
    };
    let per_call = |name: &str| {
        let mut v: Vec<f64> = traced
            .requests
            .iter()
            .flat_map(|r| r.inner.iter())
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns as f64)
            .collect();
        median(&mut v)
    };
    let (b, a) = (&traced.before, &traced.after);
    let stage_hits = a.stage.hits - b.stage.hits;
    let stage_lookups = stage_hits + a.stage.misses - b.stage.misses;
    let sim_hits = a.sim.cache.hits - b.sim.cache.hits;
    let sim_lookups = sim_hits + a.sim.cache.misses - b.sim.cache.misses;
    let per_kreq = |delta: u64| delta as f64 * 1e3 / n;

    let self_times: Vec<[u64; 8]> = measured.iter().map(|r| layer_self_times(r)).collect();
    let attributed_ms: f64 = (0..LAYERS.len())
        .map(|i| {
            let mut v: Vec<f64> = self_times.iter().map(|t| t[i] as f64).collect();
            median(&mut v)
        })
        .sum::<f64>()
        / 1e6;
    let pool_total: u64 = measured.iter().map(|r| r.pool).sum();
    let call_total: u64 = measured.iter().map(|r| r.call).sum();
    let traced_total: u64 = traced.requests.iter().map(RequestSpans::total).sum();
    let baseline_total: u64 = baseline.requests.iter().map(RequestSpans::total).sum();
    let mut replays = replay_durations(traced);
    vec![
        ("wire.parse_us", med(&|r| r.parse as f64) / 1e3, "us"),
        ("wire.write_us", med(&|r| r.write as f64) / 1e3, "us"),
        ("api.decode_us", med(&|r| r.decode as f64) / 1e3, "us"),
        ("api.render_us", med(&|r| r.render as f64) / 1e3, "us"),
        (
            "api.body_kib",
            measured.iter().map(|r| r.body_bytes as f64).sum::<f64>() / n / 1024.0,
            "KiB",
        ),
        (
            "pool.handoff_us",
            med(&|r| r.pool.saturating_sub(r.call) as f64) / 1e3,
            "us",
        ),
        ("pool.busy", ratio(call_total, pool_total), "share"),
        ("service.call_us", med(&|r| r.call as f64) / 1e3, "us"),
        (
            "cache.stage.hit_ratio",
            ratio(stage_hits, stage_lookups),
            "share",
        ),
        (
            "cache.stage.evictions_per_kreq",
            per_kreq(a.stage.evictions - b.stage.evictions),
            "count",
        ),
        (
            "cache.stage.admission_denied_per_kreq",
            per_kreq(a.stage.admission_denied - b.stage.admission_denied),
            "count",
        ),
        ("cache.sim.hit_ratio", ratio(sim_hits, sim_lookups), "share"),
        (
            "profile.runs_per_kreq",
            per_kreq(a.profile_runs - b.profile_runs),
            "count",
        ),
        ("profile.ms", per_call("stage.profile") / 1e6, "ms"),
        ("analyze.ms", per_call("stage.analyze") / 1e6, "ms"),
        ("sim.replay_us", median(&mut replays) / 1e3, "us"),
        (
            "sim.events_per_replay",
            traced.events_per_replay.unwrap_or(0.0),
            "count",
        ),
        (
            "param.fit_accept_ratio",
            ratio(
                a.sim.param_replays - b.sim.param_replays,
                a.params.insertions - b.params.insertions,
            ),
            "share",
        ),
        (
            "sim.incremental_cells",
            (a.sim.incremental_cells - b.sim.incremental_cells) as f64,
            "count",
        ),
        ("process.threads", run.threads as f64, "count"),
        ("process.nvcsw_per_req", run.nvcsw_per_req, "count"),
        ("host.steal_share", run.measured.steal_share, "share"),
        (
            "unattributed_share",
            1.0 - attributed_ms / run.measured.p50_ms,
            "share",
        ),
        (
            "trace.overhead_share",
            ratio(traced_total, baseline_total.max(1)) - 1.0,
            "share",
        ),
    ]
}

/// Human-readable per-route and per-layer breakdown of the traced pass.
fn print_trace_report(traced: &Pass, baseline: &Pass) {
    let measured: Vec<&RequestSpans> = traced.requests.iter().filter(|r| !r.setup).collect();
    let mut routes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &measured {
        routes.entry(r.route).or_default().push(r.call as f64 / 1e3);
    }
    for (route, mut calls) in routes {
        let count = calls.len();
        println!(
            "trace service.call_us[{route}] median {:.1} us over {count} requests",
            median(&mut calls)
        );
    }
    let self_times: Vec<[u64; 8]> = measured.iter().map(|r| layer_self_times(r)).collect();
    for (i, layer) in LAYERS.iter().enumerate() {
        let mut v: Vec<f64> = self_times.iter().map(|t| t[i] as f64 / 1e3).collect();
        println!("trace self_us[{layer}] median {:.1}", median(&mut v));
    }
    println!(
        "trace requests {} (+{} setup), traced wall {:.3} s, untraced wall {:.3} s",
        measured.len(),
        traced.requests.len() - measured.len(),
        traced.wall_s,
        baseline.wall_s
    );
}

/// Byte-compares the traced pass's rendered bodies with the server's.
fn traced_mismatches(traced: &Pass, workload: &Workload, bodies: &Bodies) -> usize {
    let sequence = workload.setup.iter().chain(workload.measured.iter());
    traced
        .requests
        .iter()
        .zip(sequence)
        .filter(|(r, &slot)| {
            bodies
                .get(slot as usize)
                .is_some_and(|body| trace::fnv1a(body) != r.body_hash)
        })
        .count()
}

fn main() {
    let outcome = if std::env::args().nth(1).as_deref() == Some(meter::METER_FLAG) {
        meter::meter_main()
    } else {
        run()
    };
    match outcome {
        Ok(()) => {}
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workload = Workload::generate(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload `{}` (known: {})",
            args.workload,
            WORKLOADS.join(", ")
        )
    })?;
    let fleet = std::fs::read_to_string(&args.fleet).map_err(|e| format!("{}: {e}", args.fleet))?;
    let registry = DeviceRegistry::builtin();
    registry
        .extend_from_json_str(&fleet)
        .map_err(|e| format!("{}: {e}", args.fleet))?;

    let run = run_untraced(&args, &workload, &registry)?;
    let m = &run.measured;
    let mut setup = quieter_half(
        run.setup_steal
            .iter()
            .zip(&run.setup_s)
            .map(|(&steal, &secs)| (steal, secs * unstolen(steal)))
            .collect(),
    );
    let setup_s = median(&mut setup);
    println!(
        "workload {} seed {} seconds {}: {} connections x {} pipelined, {} requests attempted, {} failed, {} distinct bodies mismatched",
        workload.name,
        args.seed,
        args.seconds,
        client::CONNECTIONS,
        client::PIPELINE,
        run.attempted,
        run.failed,
        run.mismatched_slots
    );
    // Wall-clock and CPU figures are scaled to the nominal host speed
    // (see `meter.rs`): on a host running at `scale` of it, work takes
    // 1 / scale as long.
    let scale = run.host_speed / meter::NOMINAL_RUNS_PER_CPU_S;
    let rps = m.rps / scale;
    let p50_ms = m.p50_ms * scale;
    let cpu_ms_per_req = m.cpu_ms_per_req * scale;
    let setup_s = setup_s * scale;
    println!(
        "host speed {:.1} meter runs per CPU-second = {scale:.4} x nominal; figures below are per unstolen second at nominal speed",
        run.host_speed
    );
    println!(
        "rps {rps:.2} req/s (median of the {} quieter of {} windows; raw {:.2} req/s)",
        m.windows, m.total_windows, m.raw_rps
    );
    println!(
        "p50_ms {p50_ms:.4} ms (median of {} window medians, {} samples; raw {:.4} ms, overall raw p50 {:.4} ms)",
        m.windows, m.completed, m.raw_p50_ms, m.overall_p50_ms
    );
    match m.p99_ms {
        Some((p99, beyond)) => {
            println!("p99_ms {p99:.4} ms raw ({beyond} samples beyond it; not gated)")
        }
        None => println!("p99_ms n/a (fewer than 10 samples beyond it)"),
    }
    println!(
        "cpu_ms_per_req {cpu_ms_per_req:.4} ms (median of {} windows; raw {:.4} ms)",
        m.windows, m.cpu_ms_per_req
    );
    println!("peak_rss_mib {:.2} MiB", run.peak_rss_mib);
    println!(
        "setup_s {setup_s:.4} s (median of the {} quieter of {SETUPS} fresh-server setups; raw {:?})",
        setup.len(),
        run.setup_s
    );

    let mut correct = run.failed == 0;
    let mut metrics: Vec<(&str, f64, &str)> = vec![
        ("rps", rps, "req/s"),
        ("p50_ms", p50_ms, "ms"),
        ("cpu_ms_per_req", cpu_ms_per_req, "ms"),
        ("peak_rss_mib", run.peak_rss_mib, "MiB"),
        ("setup_s", setup_s, "s"),
    ];
    if args.trace {
        let default_device = registry.get(DEFAULT_DEVICE).ok_or("no default device")?;
        let baseline = trace::replay(&workload, &registry, default_device, false)?;
        let traced = trace::replay(&workload, &registry, default_device, true)?;
        let mismatches = traced_mismatches(&traced, &workload, &run.bodies);
        if mismatches > 0 {
            println!("trace: {mismatches} replayed responses differ from the server's");
            correct = false;
        }
        print_trace_report(&traced, &baseline);
        metrics = layer_metrics(&traced, &baseline, &run);
        for (name, value, unit) in &metrics {
            println!("{name} {value:.4} {unit}");
        }
    }

    let stamp = serde::Value::Object(vec![
        ("commit".to_string(), serde::Value::Str(args.commit.clone())),
        (
            "nproc".to_string(),
            serde::Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("rustc".to_string(), serde::Value::Str(args.rustc.clone())),
        (
            "profile".to_string(),
            serde::Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        (
            "workload".to_string(),
            serde::Value::Str(workload.name.to_string()),
        ),
        ("seed".to_string(), serde::Value::U64(args.seed)),
        ("seconds".to_string(), serde::Value::U64(args.seconds)),
        (
            "setup_steal_share".to_string(),
            serde::Value::Array(
                run.setup_steal
                    .iter()
                    .map(|&s| serde::Value::F64(s))
                    .collect(),
            ),
        ),
        (
            "measured_steal_share".to_string(),
            serde::Value::F64(m.steal_share),
        ),
        ("server_threads".to_string(), serde::Value::U64(run.threads)),
        ("host_speed".to_string(), serde::Value::F64(run.host_speed)),
    ]);
    println!(
        "stamp {}",
        serde_json::to_string(&stamp).map_err(|e| e.to_string())?
    );
    let result = serde::Value::Object(vec![
        ("correct".to_string(), serde::Value::Bool(correct)),
        (
            "attempted".to_string(),
            serde::Value::U64(run.attempted as u64),
        ),
        ("failed".to_string(), serde::Value::U64(run.failed as u64)),
        (
            "metrics".to_string(),
            serde::Value::Object(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| (name.to_string(), metric(value, unit)))
                    .collect(),
            ),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}
