//! A scheduler talking to the estimator **over the network**: the
//! deployment the paper motivates — an estimation service in front of a
//! GPU cluster, answering admission and placement questions over HTTP
//! before a job ever touches a device.
//!
//! The example starts an in-process server on an ephemeral loopback port
//! (exactly what `xmem-cli listen` runs), then drives a scheduling pass
//! through the blocking HTTP client: placement (`POST /v1/best-device`)
//! for a queue of jobs, then admission planning (`POST /v1/plan`) on the
//! chosen device — and proves the wire adds **nothing but transport**:
//! every HTTP response body is byte-identical to rendering the equivalent
//! direct `EstimationService` call's result.
//!
//! ```text
//! cargo run --release --example remote_scheduler
//! ```

use serde::Value;
use std::sync::Arc;
use xmem::prelude::*;
use xmem::server::{api, HttpClient, ServerConfig, ServerHandle};
use xmem::service::jobspec::job_to_value;

fn main() {
    let untraced = TraceContext::disabled();
    // The per-cluster service: built-in fleet (rtx3060 / rtx4060 / a100),
    // served over HTTP on an ephemeral port.
    let service = Arc::new(AsyncEstimationService::for_device(GpuDevice::rtx3060()));
    let server = ServerHandle::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind loopback server");
    let addr = server.local_addr();
    println!("remote scheduler talking to http://{addr}\n");

    let queue = [
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2),
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 4).with_iterations(2),
        TrainJobSpec::new(ModelId::MobileNetV3Large, OptimizerKind::Adam, 64).with_iterations(2),
    ];

    let mut client = HttpClient::connect(addr).expect("connect");
    let direct = service.service();

    println!("{:<44} {:>10} {:>12}", "job", "placement", "max batch");
    for job in &queue {
        // Placement over the wire...
        let body = serde_json::to_string(&job_to_value(job)).expect("job renders");
        let response = client
            .post_json("/v1/best-device", &body)
            .expect("placement request");
        assert_eq!(
            response.status,
            200,
            "placement failed: {}",
            response.text()
        );

        // ...is byte-identical to rendering the direct call's result.
        let direct_placement = direct
            .best_device_for_job_traced(job, &untraced)
            .expect("direct placement succeeds");
        assert_eq!(
            response.text(),
            api::placement_body(direct_placement.as_ref()),
            "the wire must add transport, not interpretation"
        );

        let parsed: Value = serde_json::from_str(&response.text()).expect("placement JSON");
        let device = parsed
            .as_object()
            .and_then(|o| serde::obj_get(o, "placement"))
            .and_then(Value::as_object)
            .and_then(|o| serde::obj_get(o, "device"))
            .and_then(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .expect("a fitting device");

        // Admission planning on the placed device, over the wire.
        let plan_request = format!(
            "{{\"job\":{},\"device\":{},\"min\":1,\"max\":64}}",
            serde_json::to_string(&job_to_value(job)).expect("job renders"),
            serde_json::to_string(&device).expect("name renders"),
        );
        let plan = client
            .post_json("/v1/plan", &plan_request)
            .expect("plan request");
        assert_eq!(plan.status, 200, "plan failed: {}", plan.text());
        let direct_plan = direct
            .max_batch_for_device_traced(
                job,
                direct.registry().get(&device).expect("device registered"),
                1,
                64,
                &untraced,
            )
            .expect("direct plan succeeds");
        assert_eq!(
            plan.text(),
            api::plan_body(direct_plan),
            "plan responses must be byte-identical to the direct path"
        );
        let max_batch = direct_plan.map_or("-".to_string(), |b| b.to_string());
        println!("{:<44} {:>10} {:>12}", job.label(), device, max_batch);
    }

    // The wire layer's own accounting.
    let health = client.get("/healthz").expect("health probe");
    assert_eq!(health.status, 200);
    let metrics = client.get("/metrics").expect("metrics scrape");
    assert!(metrics
        .text()
        .contains("xmem_http_requests_total{route=\"best_device\"} 3"));
    println!(
        "\nserver answered {} requests | profile runs: {} | sim cells: {} hits, {} misses",
        server.metrics().requests_total(),
        direct.profile_runs(),
        direct.sim_stats().cache.hits,
        direct.sim_stats().cache.misses,
    );

    let report = server.shutdown();
    assert!(report.clean, "drain must complete cleanly");
    println!(
        "server drained cleanly after {} requests",
        report.requests_served
    );
}
