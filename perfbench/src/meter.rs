//! A host speed meter for the measured phase.
//!
//! On a shared host the same binary's CPU time per request drifts by tens
//! of percent over minutes with no steal reported (frequency, cache and
//! sibling-thread pressure from other tenants). The meter is a second
//! process at `nice 19` that repeats a fixed allocation- and hash-heavy
//! kernel while the server is measured and reports kernel runs per second
//! of its *own* CPU time: a figure that moves with the host's speed but
//! not with the share of CPU it gets. At nice 19 it takes about 1.5 % of a
//! saturated CPU from the server, the same for every commit.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The argument that turns the harness binary into the meter.
pub const METER_FLAG: &str = "--speed-meter";

/// Kernel runs per CPU-second on the host the benchmark was tuned on;
/// metrics are scaled to this speed.
pub const NOMINAL_RUNS_PER_CPU_S: f64 = 2000.0;

/// About half a millisecond of allocation, scattered writes and hash-map
/// traffic.
fn kernel(seed: u64) -> u64 {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    };
    let mut blocks: Vec<Vec<u64>> = Vec::new();
    let mut acc = 0u64;
    for i in 0..200u64 {
        let len = 8 + (next() % 4096) as usize;
        let mut block = vec![i; len];
        block[len / 2] ^= next();
        acc = acc.wrapping_add(block[len / 3]);
        blocks.push(block);
        if blocks.len() > 64 {
            let victim = (next() % blocks.len() as u64) as usize;
            blocks.swap_remove(victim);
        }
    }
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(4096);
    for i in 0..4096u64 {
        map.insert(next(), i);
    }
    let keys: Vec<u64> = map.keys().copied().step_by(3).collect();
    for key in keys {
        acc = acc.wrapping_add(map.get(&key).copied().unwrap_or(0));
    }
    acc
}

/// CPU time of the calling thread, in nanoseconds.
fn thread_cpu_ns() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").map_err(|e| e.to_string())?;
    stat.split_whitespace()
        .next()
        .and_then(|ns| ns.parse().ok())
        .ok_or_else(|| "malformed schedstat".to_string())
}

/// The meter process: runs the kernel until stdin closes, then prints
/// `<runs> <cpu ns>`.
pub fn meter_main() -> Result<(), String> {
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        // Detached on purpose: it ends with the process.
        std::thread::spawn(move || {
            let _ = std::io::stdin().read_to_end(&mut Vec::new());
            stop.store(true, Ordering::SeqCst);
        });
    }
    let start = thread_cpu_ns()?;
    let mut runs = 0u64;
    while !stop.load(Ordering::SeqCst) {
        black_box(kernel(black_box(runs)));
        runs += 1;
    }
    let used = thread_cpu_ns()? - start;
    let mut out = std::io::stdout();
    writeln!(out, "{runs} {used}")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())
}

/// A running meter process.
pub struct Meter {
    child: Child,
}

impl Meter {
    pub fn start() -> Result<Meter, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new("nice")
            .args(["-n", "19"])
            .arg(exe)
            .arg(METER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn the speed meter: {e}"))?;
        Ok(Meter { child })
    }

    /// Stops the meter; returns kernel runs per CPU-second.
    pub fn stop(mut self) -> Result<f64, String> {
        drop(self.child.stdin.take());
        let stdout = self.child.stdout.take().ok_or("meter stdout")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let fields: Vec<f64> = line
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        match fields[..] {
            [runs, cpu_ns] if runs > 0.0 && cpu_ns > 0.0 => Ok(runs / (cpu_ns / 1e9)),
            _ => Err(format!("the speed meter reported `{}`", line.trim())),
        }
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
