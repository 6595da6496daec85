//! Human-readable estimate reports.

use crate::pipeline::Estimate;
use std::fmt::Write as _;

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Renders a multi-line report of an estimate — used by the examples and
/// the CLI-style tooling.
#[must_use]
pub fn render_report(job: &str, estimate: &Estimate) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "xMem estimate for {job}");
    let _ = writeln!(
        out,
        "  peak device memory : {:>8.3} GiB (job {:.3} GiB + framework {:.3} GiB)",
        gib(estimate.peak_bytes),
        gib(estimate.job_peak_bytes),
        gib(estimate.peak_bytes - estimate.job_peak_bytes),
    );
    let _ = writeln!(
        out,
        "  peak tensor memory : {:>8.3} GiB",
        gib(estimate.tensor_peak_bytes)
    );
    let _ = writeln!(
        out,
        "  OOM predicted      : {}",
        if estimate.oom_predicted { "YES" } else { "no" }
    );
    let _ = writeln!(out, "  memory blocks by category:");
    for (name, count, bytes) in estimate.stats.categories.iter() {
        if *count > 0 {
            let _ = writeln!(
                out,
                "    {name:<16} {count:>7} blocks {:>10.3} GiB",
                gib(*bytes)
            );
        }
    }
    let _ = writeln!(
        out,
        "  orchestration: {} lifecycles adjusted, {} script blocks filtered",
        estimate.stats.adjusted_blocks, estimate.stats.filtered_blocks
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnalysisStats;

    #[test]
    fn report_mentions_key_numbers() {
        let est = Estimate {
            peak_bytes: 3 << 30,
            job_peak_bytes: (3 << 30) - (529 << 20),
            tensor_peak_bytes: 2 << 30,
            oom_predicted: false,
            curve: Vec::new(),
            stats: AnalysisStats {
                categories: vec![("Parameter".into(), 42, 1 << 30)].into(),
                filtered_blocks: 3,
                adjusted_blocks: 7,
                unmatched_frees: 0,
            },
        };
        let r = render_report("demo", &est);
        assert!(r.contains("demo"));
        assert!(r.contains("3.000 GiB"));
        assert!(r.contains("Parameter"));
        assert!(r.contains("7 lifecycles adjusted"));
        assert!(r.contains("no"));
    }
}
