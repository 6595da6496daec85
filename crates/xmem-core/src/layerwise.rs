//! Per-layer (component) memory breakdown — the "distribution-prepared"
//! capability of paper §6.2/§6.4: partitioning a model across devices
//! requires memory demand *per layer*, which the Analyzer's attribution
//! already provides. This module aggregates it.

use crate::analyzer::{AnalyzedBlock, AnalyzedTrace, BlockCategory};
use crate::orchestrator::Orchestrator;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Memory demand of one model component (module path).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerMemory {
    /// Component path (e.g. `transformer.h.0`); blocks outside any
    /// component aggregate under `"<global>"`.
    pub component: String,
    /// Number of memory blocks attributed to the component.
    pub blocks: usize,
    /// Total bytes ever allocated by the component.
    pub total_bytes: u64,
    /// Bytes that persist for the whole job (parameters, optimizer state).
    pub persistent_bytes: u64,
    /// Peak of simultaneously live bytes from this component alone, under
    /// orchestrated (GPU-semantic) lifecycles — the quantity a pipeline
    /// partitioner must budget per stage.
    pub peak_live_bytes: u64,
}

/// Aggregates an analyzed trace into per-component memory demands, sorted
/// by descending live peak.
#[must_use]
pub fn layer_report(analyzed: &AnalyzedTrace, orchestrator: &Orchestrator) -> Vec<LayerMemory> {
    // Orchestrated timings give GPU-semantic lifecycles: each kept block
    // with the free time rules 1–5 give it.
    let mut groups: BTreeMap<&str, Vec<(&AnalyzedBlock, u64)>> = BTreeMap::new();
    for (b, lifetime) in orchestrator.lifetimes(analyzed) {
        let (true, Some(lifetime)) = (b.category().is_kept(), lifetime) else {
            continue;
        };
        let key = analyzed.component_of(b).unwrap_or("<global>");
        groups.entry(key).or_default().push((b, lifetime.free_ts));
    }

    let mut report: Vec<LayerMemory> = groups
        .into_iter()
        .map(|(component, blocks)| {
            let total_bytes = blocks.iter().map(|(b, _)| b.bytes()).sum();
            let persistent_bytes = blocks
                .iter()
                .map(|(b, _)| b)
                .filter(|b| {
                    matches!(
                        b.category(),
                        BlockCategory::Parameter | BlockCategory::OptimizerState
                    ) || b.is_persistent()
                })
                .map(|b| b.bytes())
                .sum();
            // Sweep-line peak over this component's orchestrated lifetimes.
            let mut events: Vec<(u64, i64)> = Vec::with_capacity(blocks.len() * 2);
            for &(b, free_ts) in &blocks {
                events.push((b.alloc_ts(), b.bytes() as i64));
                events.push((free_ts, -(b.bytes() as i64)));
            }
            // Frees before allocs at equal timestamps keep the peak tight.
            events.sort_by_key(|&(ts, delta)| (ts, delta));
            let mut live = 0i64;
            let mut peak = 0i64;
            for (_, delta) in events {
                live += delta;
                peak = peak.max(live);
            }
            LayerMemory {
                component: component.to_string(),
                blocks: blocks.len(),
                total_bytes,
                persistent_bytes,
                peak_live_bytes: peak.max(0) as u64,
            }
        })
        .collect();
    report.sort_by_key(|l| std::cmp::Reverse(l.peak_live_bytes));
    report
}

/// Renders the top-`n` components as an aligned table.
#[must_use]
pub fn render_layer_report(report: &[LayerMemory], n: usize) -> String {
    use std::fmt::Write as _;
    let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} {:>7} {:>12} {:>14} {:>12}",
        "component", "blocks", "total MiB", "persistent MiB", "peak MiB"
    );
    for l in report.iter().take(n) {
        let _ = writeln!(
            out,
            "{:<40} {:>7} {:>12.1} {:>14.1} {:>12.1}",
            l.component,
            l.blocks,
            mib(l.total_bytes),
            mib(l.persistent_bytes),
            mib(l.peak_live_bytes)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Analyzer;
    use xmem_models::ModelId;
    use xmem_optim::OptimizerKind;
    use xmem_runtime::{profile_on_cpu, TrainJobSpec};

    fn report_for(model: ModelId) -> Vec<LayerMemory> {
        let spec = TrainJobSpec::new(model, OptimizerKind::Adam, 8).with_iterations(2);
        let trace = profile_on_cpu(&spec);
        let analyzed = Analyzer::new().analyze(&trace).unwrap();
        layer_report(&analyzed, &Orchestrator::default())
    }

    #[test]
    fn transformer_blocks_appear_per_layer() {
        let report = report_for(ModelId::DistilGpt2);
        let block_components: Vec<&str> = report
            .iter()
            .map(|l| l.component.as_str())
            .filter(|c| c.starts_with("transformer.h."))
            .collect();
        assert!(
            block_components.len() >= 6,
            "expected all 6 decoder blocks, got {block_components:?}"
        );
    }

    #[test]
    fn peaks_are_bounded_by_totals() {
        for l in report_for(ModelId::MobileNetV3Small) {
            assert!(l.peak_live_bytes <= l.total_bytes, "{}", l.component);
            assert!(l.persistent_bytes <= l.total_bytes, "{}", l.component);
            assert!(l.blocks > 0);
        }
    }

    #[test]
    fn parameters_sit_in_the_global_component() {
        // Parameters materialize inside `model.to(device)`, before any
        // module forward window, so they aggregate under `<global>` — the
        // per-layer rows hold activations/gradients.
        let report = report_for(ModelId::DistilGpt2);
        let global = report
            .iter()
            .find(|l| l.component == "<global>")
            .expect("global bucket exists");
        let params = ModelId::DistilGpt2.build().param_bytes();
        assert!(
            global.persistent_bytes >= params,
            "global persistent {} must cover parameters {params}",
            global.persistent_bytes
        );
        // Decoder blocks carry meaningful activation peaks.
        for l in report
            .iter()
            .filter(|l| l.component.starts_with("transformer.h."))
        {
            assert!(
                l.peak_live_bytes > 1 << 20,
                "{}: peak {}",
                l.component,
                l.peak_live_bytes
            );
        }
    }

    #[test]
    fn rendering_lists_requested_rows() {
        let report = report_for(ModelId::MobileNetV3Small);
        let rendered = render_layer_report(&report, 5);
        assert_eq!(rendered.lines().count(), 1 + report.len().min(5));
        assert!(rendered.contains("component"));
    }
}
