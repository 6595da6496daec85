//! The a-priori contract: xMem works from a profiler *file*. Serializing
//! the CPU trace to JSON and re-parsing it must not change the estimate.

use xmem::prelude::*;
use xmem::trace::Trace;

#[test]
fn json_roundtrip_preserves_the_estimate() {
    let spec = TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 8);
    let trace = profile_on_cpu(&spec);
    let json = trace.to_json_string().expect("serialize");
    let parsed = Trace::from_json_str(&json).expect("parse");

    let estimator = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
    let direct = estimator.estimate_trace(&trace).expect("direct estimate");
    let roundtrip = estimator
        .estimate_trace(&parsed)
        .expect("roundtrip estimate");
    assert_eq!(direct.peak_bytes, roundtrip.peak_bytes);
    assert_eq!(direct.job_peak_bytes, roundtrip.job_peak_bytes);
    assert_eq!(direct.oom_predicted, roundtrip.oom_predicted);
}

#[test]
fn traces_have_the_profiler_schema() {
    let spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2);
    let trace = profile_on_cpu(&spec);
    let json = trace.to_json_string().expect("serialize");
    for needle in [
        "\"traceEvents\"",
        "\"cpu_op\"",
        "\"python_function\"",
        "\"user_annotation\"",
        "\"cpu_instant_event\"",
        "ProfilerStep#1",
        "Optimizer.step#Adam.step",
        "Optimizer.zero_grad#Adam.zero_grad",
        "aten::convolution",
        "autograd::engine::evaluate_function",
        "\"Addr\"",
        "\"Bytes\"",
    ] {
        assert!(json.contains(needle), "schema is missing {needle}");
    }
}

#[test]
fn foreign_events_do_not_break_estimation() {
    // A real PyTorch export contains categories xMem ignores; splice some
    // in and re-estimate.
    let spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2);
    let trace = profile_on_cpu(&spec);
    let json = trace.to_json_string().expect("serialize");
    let spliced = json.replacen(
        "{\"ph\":\"X\",\"cat\":\"cpu_op\"",
        "{\"ph\":\"X\",\"cat\":\"kernel\",\"name\":\"volta_sgemm\",\"pid\":9,\"tid\":9,\"ts\":1,\"dur\":5},\
         {\"ph\":\"X\",\"cat\":\"cpu_op\"",
        1,
    );
    let parsed = Trace::from_json_str(&spliced).expect("parse");
    let estimator = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
    let a = estimator.estimate_trace(&trace).expect("baseline");
    let b = estimator.estimate_trace(&parsed).expect("spliced");
    assert_eq!(a.peak_bytes, b.peak_bytes);
}

#[test]
fn foreign_names_survive_a_round_trip() {
    // Names no profiler emits, in the categories xMem reads (escapes,
    // non-ASCII, empty, near-misses of known prefixes), between events of
    // categories it skips.
    let json = r#"{"schemaVersion":1,"displayTimeUnit":"us","traceName":"foreign \"job\"","traceEvents":[
        {"ph":"X","cat":"kernel","name":"volta_sgemm","pid":1,"tid":1,"ts":0,"dur":5},
        {"ph":"X","cat":"cpu_op","name":"my_ext::fused\tkernel \"v2\"","pid":1,"tid":1,"ts":1,"dur":2},
        {"ph":"X","cat":"python_function","name":"nn.Module:encoder","pid":1,"tid":1,"ts":2,"dur":3},
        {"ph":"X","cat":"user_annotation","name":"Schritt \u00fcber \u2603","pid":1,"tid":1,"ts":3,"dur":1},
        {"ph":"X","cat":"gpu_memcpy","name":"Memcpy HtoD","pid":1,"tid":1,"ts":4,"dur":1},
        {"ph":"X","cat":"cpu_op","name":"","pid":1,"tid":1,"ts":5,"dur":1},
        {"ph":"i","cat":"cpu_instant_event","name":"[memory] pool","pid":1,"tid":1,"ts":6,"args":{"Addr":16,"Bytes":64,"Device Id":0}},
        {"ph":"X","cat":"cpu_op","name":"my_ext::fused\tkernel \"v2\"","pid":1,"tid":1,"ts":7,"dur":2}
    ]}"#;
    let trace = Trace::from_json_str(json).expect("parse");
    let names: Vec<&str> = trace.events().iter().map(|e| trace.name_of(e)).collect();
    assert_eq!(
        names,
        [
            "my_ext::fused\tkernel \"v2\"",
            "nn.Module:encoder",
            "Schritt über ☃",
            "",
            "[memory] pool",
            "my_ext::fused\tkernel \"v2\"",
        ]
    );
    assert_eq!(trace.name(), "foreign \"job\"");
    assert_eq!(trace.names().len(), 5, "skipped events intern nothing");
    let rewritten = trace.to_json_string().expect("serialize");
    let back = Trace::from_json_str(&rewritten).expect("reparse");
    assert_eq!(back, trace);
    assert_eq!(back.to_json_string().expect("serialize"), rewritten);
}
