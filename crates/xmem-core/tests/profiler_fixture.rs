//! Pins the CPU profiler's output byte for byte.
//!
//! `golden_trace.rs` checks what the Analyzer makes of the committed
//! fixture; this test checks that the profiler still *produces* that
//! fixture: `profile_on_cpu` (MobileNetV3-Small, Adam, batch 2,
//! 2 iterations) serialized through the `xmem-trace` JSON writer must equal
//! the committed file exactly. Any change to event order, timestamps,
//! addresses, names or arguments shows up here first.

use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{profile_on_cpu, TrainJobSpec};

const FIXTURE: &str = include_str!("fixtures/mobilenet_v3_small_adam_b2.trace.json");

#[test]
fn profile_on_cpu_serializes_to_the_committed_fixture() {
    let spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 2).with_iterations(2);
    let json = profile_on_cpu(&spec)
        .to_json_string()
        .expect("trace serializes");
    assert_eq!(json.len(), FIXTURE.len(), "serialized length drifted");
    if let Some(at) = json.bytes().zip(FIXTURE.bytes()).position(|(a, b)| a != b) {
        let lo = at.saturating_sub(80);
        panic!(
            "profiler output diverges from the fixture at byte {at}:\n  got:      {}\n  expected: {}",
            &json[lo..(at + 80).min(json.len())],
            &FIXTURE[lo..(at + 80).min(FIXTURE.len())],
        );
    }
}

/// The profiler interns each name once per run and only names some event
/// carries.
#[test]
fn profile_on_cpu_stores_each_distinct_name_once() {
    for model in [ModelId::MobileNetV3Small, ModelId::DistilGpt2] {
        let spec = TrainJobSpec::new(model, OptimizerKind::Adam, 2).with_iterations(2);
        let trace = profile_on_cpu(&spec);
        let distinct: std::collections::BTreeSet<&str> =
            trace.events().iter().map(|e| trace.name_of(e)).collect();
        let table: std::collections::BTreeSet<&str> = trace.names().iter().map(|n| &**n).collect();
        assert_eq!(table.len(), trace.names().len(), "{model:?}: no name twice");
        assert_eq!(table, distinct, "{model:?}: no unused name");
    }
}
