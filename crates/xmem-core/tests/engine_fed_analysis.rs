//! The Analyzer fed straight from the engine, as the estimation service
//! runs it, against the Analyzer over the recorded, time-sorted trace;
//! and every analysis's classification and orchestration against their
//! references.
//!
//! Both routes must give the same analysis byte for byte: the serialized
//! `AnalyzedTrace` is the persisted stage record, and the stage tier
//! prices an entry by its `approx_bytes`. The engine reports memory
//! instants in time order and each span when it closes, so the two routes
//! differ only in the order spans arrive in.
//!
//! Both routes share one classifying sweep and one Orchestrator, so each
//! analysis is also held to references that share neither:
//!
//! - every block's operator and component window must be the one the
//!   linear scans `WindowIndex::op_at` and `component_at` find at its
//!   allocation;
//! - the replay buffer, under the default Orchestrator and both
//!   ablations, must equal the sort-then-renumber build it replaced
//!   (`reference/`).
//!
//! Hand-built traces add what no engine run makes: allocations listed
//! out of time order, frees stamped before their allocation, and
//! gradients and batch data with no later `zero_grad` or iteration.
//!
//! Tier-1 runs a stride sample of the grid. The whole grid is ignored by
//! default; run it in release:
//!
//! ```text
//! cargo test --release -p xmem-core --test engine_fed_analysis -- --include-ignored
//! ```

mod reference;

use xmem_core::{AnalyzedTrace, Analyzer, BlockCategory, EstimateError, Orchestrator};
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{profile_into, profile_on_cpu, Precision, TrainJobSpec, ZeroGradPos};
use xmem_trace::{names, EventCategory, Trace, TraceEvent};

/// Batch sizes of the grid: a stride over 1..=33.
const BATCHES: [usize; 5] = [1, 9, 17, 25, 33];

/// Every model × optimizer × batch × `zero_grad` placement × precision.
fn grid() -> Vec<TrainJobSpec> {
    let mut optimizers = OptimizerKind::all().to_vec();
    optimizers.push(OptimizerKind::Sgd { momentum: false });
    let mut jobs = Vec::new();
    for model in ModelId::all() {
        for &optimizer in &optimizers {
            for batch in BATCHES {
                for pos in [ZeroGradPos::BeforeBackward, ZeroGradPos::IterStart] {
                    for precision in [Precision::F32, Precision::F16] {
                        jobs.push(
                            TrainJobSpec::new(model, optimizer, batch)
                                .with_iterations(2)
                                .with_zero_grad(pos)
                                .with_precision(precision),
                        );
                    }
                }
            }
        }
    }
    jobs
}

/// The job analyzed both ways: fed from the engine, and over its trace.
fn both_ways(
    spec: &TrainJobSpec,
) -> (
    Result<AnalyzedTrace, EstimateError>,
    Result<AnalyzedTrace, EstimateError>,
) {
    let fed = profile_into(spec, Analyzer::new().sink()).finish();
    let recorded = Analyzer::new().analyze(&profile_on_cpu(spec));
    (fed, recorded)
}

fn assert_identical(spec: &TrainJobSpec) {
    let label = spec.label();
    let (fed, recorded) = both_ways(spec);
    let fed = fed.unwrap_or_else(|e| panic!("{label}: engine-fed analysis failed: {e}"));
    let recorded = recorded.unwrap_or_else(|e| panic!("{label}: trace analysis failed: {e}"));
    assert_eq!(
        fed.lifecycle_stats, recorded.lifecycle_stats,
        "{label}: lifecycle stats"
    );
    assert_eq!(
        fed.approx_bytes(),
        recorded.approx_bytes(),
        "{label}: approx_bytes"
    );
    assert_classified_like_the_scan(&fed, &label);
    assert_orchestrated_like_the_reference(&fed, &label);
    let fed = serde_json::to_string(&fed).expect("encodes");
    let recorded = serde_json::to_string(&recorded).expect("encodes");
    assert!(fed == recorded, "{label}: serialized analyses differ");
}

/// Whether `a` and `b` are the same window, or both none.
fn same<W>(a: Option<&W>, b: Option<&W>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => std::ptr::eq(a, b),
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// Every block attributed to the operator and component windows the
/// linear scans find at its allocation.
fn assert_classified_like_the_scan(analyzed: &AnalyzedTrace, label: &str) {
    let windows = analyzed.windows();
    for block in analyzed.blocks() {
        let ts = block.alloc_ts();
        assert!(
            same(analyzed.operator_window(block), windows.op_at(ts)),
            "{label}: block {} at {ts}: operator",
            block.id()
        );
        assert!(
            same(analyzed.component_window(block), windows.component_at(ts)),
            "{label}: block {} at {ts}: component",
            block.id()
        );
    }
}

/// The default Orchestrator and its two ablations.
const ORCHESTRATORS: [Orchestrator; 3] = [
    Orchestrator {
        retime: true,
        filter_script: true,
    },
    Orchestrator {
        retime: false,
        filter_script: true,
    },
    Orchestrator {
        retime: true,
        filter_script: false,
    },
];

/// The replay buffer of every orchestrator equal to the reference build's.
fn assert_orchestrated_like_the_reference(analyzed: &AnalyzedTrace, label: &str) {
    for orchestrator in ORCHESTRATORS {
        assert!(
            orchestrator.orchestrate(analyzed) == reference::orchestrate(&orchestrator, analyzed),
            "{label}: {orchestrator:?}: the buffer differs from the reference"
        );
    }
}

/// Every `STRIDE`-th job of the grid. The stride is prime and shares no
/// factor with any dimension of the grid, so the sample varies every
/// dimension from one job to the next.
#[test]
fn a_stride_sample_of_the_zoo_analyzes_identically_both_ways() {
    const STRIDE: usize = 97;
    let jobs = grid();
    let mut models = std::collections::HashSet::new();
    for spec in jobs.iter().step_by(STRIDE) {
        assert_identical(spec);
        models.insert(spec.model);
    }
    assert!(
        models.len() >= 20,
        "the sample covers {} models",
        models.len()
    );
}

#[test]
#[ignore = "3 500 jobs, ~52 s in release on 2 vCPUs; CI runs it"]
fn the_whole_zoo_analyzes_identically_both_ways() {
    for spec in grid() {
        assert_identical(&spec);
    }
}

#[test]
fn a_job_of_no_iterations_fails_the_same_way_both_ways() {
    let spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 2).with_iterations(0);
    let (fed, recorded) = both_ways(&spec);
    let fed = fed.expect_err("an engine-fed run of no iterations has no analysis");
    let recorded = recorded.expect_err("a trace of no iterations has no analysis");
    assert_eq!(fed, recorded);
    assert_eq!(fed, EstimateError::MissingIterations);
}

/// xorshift64*: a deterministic stream for the hand-built traces.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
    }
}

/// A hand-built trace over 0..120 µs: two iterations of 50 µs, then
/// 20 µs outside any; `model.to` at the start, one `zero_grad` in the
/// first iteration only, a dataloader fetch in each iteration and one
/// after them, an optimizer step; random operator and component windows;
/// and random allocations and frees on few addresses at few timestamps.
/// The spans are listed in no order, as the sink takes them; the memory
/// instants in time order when `sorted`, else in a random one.
fn hand_built(rng: &mut XorShift, sorted: bool) -> Trace {
    let mut t = Trace::new("hand-built");
    let span = |t: &mut Trace, category, name: &str, ts, dur| {
        let id = t.intern(name);
        t.push(TraceEvent::span(category, id, ts, dur));
    };
    let annotation = EventCategory::UserAnnotation;
    span(&mut t, annotation, &names::profiler_step(1), 0, 50);
    span(&mut t, annotation, &names::profiler_step(2), 50, 50);
    span(&mut t, annotation, names::MODEL_TO_DEVICE, 0, 3);
    span(
        &mut t,
        annotation,
        &names::optimizer_zero_grad("Adam"),
        20,
        2,
    );
    span(&mut t, annotation, &names::optimizer_step("Adam"), 40, 5);
    for start in [4, 54, 104] {
        span(&mut t, annotation, names::DATALOADER_NEXT, start, 4);
    }
    let kernels = [
        "aten::linear".to_owned(),
        names::autograd_node("AddmmBackward0"),
        names::ACCUMULATE_GRAD.to_owned(),
    ];
    for _ in 0..rng.below(24) {
        let kernel = &kernels[rng.below(3) as usize];
        let (start, dur) = (rng.below(120), rng.below(12));
        span(&mut t, EventCategory::CpuOp, kernel, start, dur);
    }
    for _ in 0..rng.below(8) {
        let path = format!("model.{}", rng.below(3));
        let (start, dur) = (rng.below(120), rng.below(40));
        span(
            &mut t,
            EventCategory::PythonFunction,
            &names::nn_module(&path),
            start,
            dur,
        );
    }
    let memory = t.intern(names::MEMORY);
    let mut instants = Vec::new();
    for _ in 0..1 + rng.below(60) {
        let ts = rng.below(30) * 4;
        let addr = 0x1000 + 0x100 * rng.below(6);
        let bytes = 512 * (1 + rng.below(4));
        instants.push(if rng.below(3) == 0 {
            TraceEvent::mem_free(memory, ts, addr, bytes, -1)
        } else {
            TraceEvent::mem_alloc(memory, ts, addr, bytes, -1)
        });
    }
    if sorted {
        instants.sort_by_key(|e| e.ts_us);
    }
    for e in instants {
        t.push(e);
    }
    t
}

#[test]
fn hand_built_analyses_classify_and_orchestrate_like_the_references() {
    let mut rng = XorShift(0x9e37_79b9_97f4_a7c1);
    // What the cases must have covered between them.
    let (mut out_of_order, mut free_first, mut ties) = (0, 0, 0);
    let (mut lone_gradients, mut lone_batches) = (0, 0);
    for case in 0..400 {
        let trace = hand_built(&mut rng, case % 2 == 0);
        let analyzed = match Analyzer::new().analyze(&trace) {
            Ok(analyzed) => analyzed,
            Err(EstimateError::EmptyTrace) => continue,
            Err(e) => panic!("case {case}: {e}"),
        };
        let label = format!("case {case}");
        assert_classified_like_the_scan(&analyzed, &label);
        assert_orchestrated_like_the_reference(&analyzed, &label);

        let blocks = analyzed.blocks();
        let ann = &analyzed.windows().annotations;
        out_of_order += usize::from(!blocks.is_sorted_by_key(|b| b.alloc_ts()));
        free_first += blocks
            .iter()
            .filter(|b| b.free_ts().is_some_and(|f| f < b.alloc_ts()))
            .count();
        ties += blocks
            .iter()
            .filter(|b| b.free_ts() == Some(b.alloc_ts()))
            .count();
        lone_gradients += blocks
            .iter()
            .filter(|b| b.category() == BlockCategory::Gradient)
            .filter(|b| ann.next_zero_grad_end(b.alloc_ts()).is_none())
            .count();
        lone_batches += blocks
            .iter()
            .filter(|b| b.category() == BlockCategory::BatchData)
            .filter(|b| ann.iteration_end(b.alloc_ts()).is_none())
            .count();
    }
    for (what, count) in [
        ("allocations out of time order", out_of_order),
        ("frees stamped before their allocation", free_first),
        ("frees at their allocation's instant", ties),
        ("gradients with no later zero_grad", lone_gradients),
        ("batch data outside every iteration", lone_batches),
    ] {
        assert!(count > 0, "no case had {what}");
    }
}
