//! Readings from `/proc`: the server's CPU time, memory high-water mark,
//! threads and context switches, and the host's steal time.

use std::fs;

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on
/// every Linux ABI the benchmark targets).
pub const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of process `pid`, in clock ticks.
pub fn process_cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| "malformed stat".to_string())
    };
    Ok(field(11)? + field(12)?)
}

/// Selected lines of `/proc/<pid>/status`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessStatus {
    pub vm_hwm_kib: u64,
    pub threads: u64,
    pub nonvoluntary_switches: u64,
}

/// `VmHWM` and `Threads` of process `pid`, and its involuntary context
/// switches summed over every thread (the process-level line counts the
/// main thread only).
pub fn process_status(pid: u32) -> Result<ProcessStatus, String> {
    let mut out = status_fields(&format!("/proc/{pid}/status"))?;
    out.nonvoluntary_switches = 0;
    let tasks = fs::read_dir(format!("/proc/{pid}/task")).map_err(|e| e.to_string())?;
    for task in tasks.flatten() {
        // A thread may exit between listing and reading.
        if let Ok(fields) = status_fields(&task.path().join("status").to_string_lossy()) {
            out.nonvoluntary_switches += fields.nonvoluntary_switches;
        }
    }
    Ok(out)
}

fn status_fields(path: &str) -> Result<ProcessStatus, String> {
    let status = fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut out = ProcessStatus::default();
    for line in status.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let number = || {
            value
                .split_whitespace()
                .next()
                .and_then(|n| n.parse().ok())
                .unwrap_or(0)
        };
        match key {
            "VmHWM" => out.vm_hwm_kib = number(),
            "Threads" => out.threads = number(),
            "nonvoluntary_ctxt_switches" => out.nonvoluntary_switches = number(),
            _ => {}
        }
    }
    Ok(out)
}

/// Aggregate host CPU counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    pub total: u64,
    pub steal: u64,
}

pub fn host_cpu() -> Result<HostCpu, String> {
    let stat = fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
    let line = stat.lines().next().ok_or("empty /proc/stat")?;
    // cpu user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already folded into user/nice.
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    Ok(HostCpu {
        total: values.iter().sum(),
        steal: values.get(7).copied().unwrap_or(0),
    })
}

/// Share of host CPU time stolen between two readings.
pub fn steal_share(from: HostCpu, to: HostCpu) -> f64 {
    let total = to.total.saturating_sub(from.total);
    if total == 0 {
        return 0.0;
    }
    to.steal.saturating_sub(from.steal) as f64 / total as f64
}
