//! Execution-window indices (paper §3.2, Analyzer step 2).
//!
//! Rebuilds, from span events, the structures the attribution pass queries:
//! operator windows (`cpu_op`), component windows (`python_function`) and
//! the training-phase annotation windows (`user_annotation`).
//!
//! Names are classified once per distinct name, when the analyzing sink
//! interns it, not once per event, and every window of one kernel or
//! module holds the same `Arc<str>` (on a recorded trace, the trace's
//! own). Spans arrive as a profiler reports them, each when it closes;
//! the collected lists are put in start order once, at the end. Analyzed
//! blocks name their windows by index. Names serialize as plain strings.

use crate::AnalyzingSink;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;
use xmem_trace::{names, EventCategory, Trace};

/// One operator execution window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpWindow {
    /// Kernel name (`aten::…` or autograd node).
    pub name: Arc<str>,
    /// Start timestamp (µs).
    pub start: u64,
    /// End timestamp (exclusive).
    pub end: u64,
    /// Forward/backward linking sequence number, when recorded.
    pub seq: Option<u64>,
    /// Whether this is a backward-engine node.
    pub is_backward: bool,
    /// Whether this is a gradient-accumulation node.
    pub is_accumulate_grad: bool,
}

/// A component (module) window derived from `python_function` spans.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentWindow {
    /// Module path (e.g. `transformer.h.0`).
    pub name: Arc<str>,
    /// Start timestamp.
    pub start: u64,
    /// End timestamp (exclusive).
    pub end: u64,
}

/// Training-phase windows from `user_annotation` events.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnotationIndex {
    /// `(iteration, start, end)` of each `ProfilerStep#k`.
    pub iterations: Vec<(u32, u64, u64)>,
    /// `optimizer.zero_grad()` windows.
    pub zero_grads: Vec<(u64, u64)>,
    /// `optimizer.step()` windows.
    pub optimizer_steps: Vec<(u64, u64)>,
    /// Dataloader fetch windows.
    pub dataloads: Vec<(u64, u64)>,
    /// `loss.backward()` windows.
    pub backwards: Vec<(u64, u64)>,
    /// Model-loading window (`model.to(device)`).
    pub model_load: Option<(u64, u64)>,
}

impl AnnotationIndex {
    /// Whether `ts` falls within any of the given windows.
    fn contains(windows: &[(u64, u64)], ts: u64) -> bool {
        windows.iter().any(|&(s, e)| s <= ts && ts < e)
    }

    /// Whether `ts` is inside a dataloader fetch.
    #[must_use]
    pub fn in_dataload(&self, ts: u64) -> bool {
        Self::contains(&self.dataloads, ts)
    }

    /// Whether `ts` is inside an `optimizer.step()` window.
    #[must_use]
    pub fn in_optimizer_step(&self, ts: u64) -> bool {
        Self::contains(&self.optimizer_steps, ts)
    }

    /// Whether `ts` is inside a `loss.backward()` window.
    #[must_use]
    pub fn in_backward(&self, ts: u64) -> bool {
        Self::contains(&self.backwards, ts)
    }

    /// Whether `ts` is inside the model-loading window.
    #[must_use]
    pub fn in_model_load(&self, ts: u64) -> bool {
        self.model_load.is_some_and(|(s, e)| s <= ts && ts < e)
    }

    /// End of the iteration containing `ts`, if any.
    #[must_use]
    pub fn iteration_end(&self, ts: u64) -> Option<u64> {
        self.iterations
            .iter()
            .find(|&&(_, s, e)| s <= ts && ts < e)
            .map(|&(_, _, e)| e)
    }

    /// End of the first `zero_grad` window starting at or after `ts`.
    #[must_use]
    pub fn next_zero_grad_end(&self, ts: u64) -> Option<u64> {
        self.zero_grads
            .iter()
            .filter(|&&(s, _)| s >= ts)
            .map(|&(_, e)| e)
            .min()
    }
}

/// The full window index of a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowIndex {
    ops: Vec<OpWindow>,
    components: Vec<ComponentWindow>,
    /// Annotation windows.
    pub annotations: AnnotationIndex,
}

impl WindowIndex {
    /// Approximate resident size of the index in bytes: the window
    /// structs plus each distinct name allocation once, however many
    /// windows share it — the window share of an analyzed trace's cache
    /// cost.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let mut names: Vec<(*const u8, usize)> = self
            .ops
            .iter()
            .map(|w| &w.name)
            .chain(self.components.iter().map(|w| &w.name))
            .map(|name| (name.as_ptr(), name.len()))
            .collect();
        names.sort_unstable();
        names.dedup();
        // An `Arc<str>` allocation holds two counters before the bytes.
        let name_bytes: usize = names.iter().map(|&(_, len)| 16 + len).sum();
        let a = &self.annotations;
        let spans =
            a.zero_grads.len() + a.optimizer_steps.len() + a.dataloads.len() + a.backwards.len();
        let windows = std::mem::size_of::<OpWindow>() * self.ops.len()
            + std::mem::size_of::<ComponentWindow>() * self.components.len()
            + std::mem::size_of::<(u32, u64, u64)>() * a.iterations.len()
            + std::mem::size_of::<(u64, u64)>() * spans;
        (name_bytes + windows) as u64
    }

    /// Makes the windows of one name share one string, as
    /// [`build`](Self::build) leaves them; a decoded index holds a copy
    /// per window.
    pub(crate) fn share_names(&mut self) {
        let mut names: HashSet<Arc<str>> = HashSet::new();
        let windows = self.ops.iter_mut().map(|w| &mut w.name);
        for name in windows.chain(self.components.iter_mut().map(|w| &mut w.name)) {
            match names.get(&**name) {
                Some(shared) => *name = Arc::clone(shared),
                None => {
                    names.insert(Arc::clone(name));
                }
            }
        }
    }

    /// Builds the index from a trace: the trace fed through the
    /// [`AnalyzingSink`], whose windows these are.
    #[must_use]
    pub fn build(trace: &Trace) -> Self {
        AnalyzingSink::from_trace(trace, -1).windows.finish()
    }

    /// All operator windows (sorted by start).
    #[must_use]
    pub fn ops(&self) -> &[OpWindow] {
        &self.ops
    }

    /// All component windows (sorted by start).
    #[must_use]
    pub fn components(&self) -> &[ComponentWindow] {
        &self.components
    }

    /// The operator window containing `ts`. Operator windows do not nest
    /// (kernels execute sequentially on one thread), so the rightmost
    /// window starting at or before `ts` decides.
    ///
    /// A linear scan back from `ts`: the reference for the sweep that
    /// classifies an analysis's blocks.
    #[must_use]
    pub fn op_at(&self, ts: u64) -> Option<&OpWindow> {
        let idx = self.ops.partition_point(|w| w.start <= ts);
        self.ops[..idx].iter().rev().find(|w| ts < w.end)
    }

    /// The innermost component window containing `ts` (module spans nest:
    /// the whole-model span contains per-component spans; the one with the
    /// latest start is innermost).
    ///
    /// A linear scan back from `ts`: the reference for the sweep that
    /// classifies an analysis's blocks.
    #[must_use]
    pub fn component_at(&self, ts: u64) -> Option<&ComponentWindow> {
        let idx = self.components.partition_point(|w| w.start <= ts);
        self.components[..idx].iter().rev().find(|w| ts < w.end)
    }
}

/// Collects windows from spans as a profiler reports them, each when it
/// closes. [`finish`](Self::finish) stable-sorts every list by start,
/// which lists the windows exactly as a time-sorted trace does: equal
/// starts keep the order the spans arrived in.
#[derive(Debug, Default)]
pub(crate) struct WindowCollector {
    index: WindowIndex,
}

impl WindowCollector {
    /// Adds the window, if any, of one span named `class`.
    pub(crate) fn span(
        &mut self,
        category: EventCategory,
        class: &NameClass,
        ts_us: u64,
        dur_us: u64,
        seq: Option<u64>,
    ) {
        // Zero-length spans still cover their start instant.
        let (start, end) = (
            ts_us,
            ts_us.saturating_add(dur_us).max(ts_us.saturating_add(1)),
        );
        let annotations = &mut self.index.annotations;
        match category {
            EventCategory::CpuOp => self.index.ops.push(OpWindow {
                name: Arc::clone(&class.name),
                start,
                end,
                seq,
                is_backward: class.is_backward,
                is_accumulate_grad: class.is_accumulate_grad,
            }),
            EventCategory::PythonFunction => {
                if let Some(path) = &class.module {
                    self.index.components.push(ComponentWindow {
                        name: Arc::clone(path),
                        start,
                        end,
                    });
                }
            }
            EventCategory::UserAnnotation => match class.annotation {
                Some(Annotation::Step(k)) => annotations.iterations.push((k, start, end)),
                Some(Annotation::ZeroGrad) => annotations.zero_grads.push((start, end)),
                Some(Annotation::OptimizerStep) => annotations.optimizer_steps.push((start, end)),
                Some(Annotation::Dataload) => annotations.dataloads.push((start, end)),
                Some(Annotation::Backward) => annotations.backwards.push((start, end)),
                // The last in start order, as a time-sorted trace lists it.
                Some(Annotation::ModelLoad)
                    if annotations.model_load.is_none_or(|(s, _)| s <= start) =>
                {
                    annotations.model_load = Some((start, end));
                }
                Some(Annotation::ModelLoad) | None => {}
            },
            EventCategory::CpuInstantEvent => {}
        }
    }

    /// The index, every list in start order. Analyses retain it, so it
    /// keeps no spare capacity.
    pub(crate) fn finish(self) -> WindowIndex {
        fn by_start<T>(windows: &mut Vec<T>, start: impl Fn(&T) -> u64) {
            windows.sort_by_key(start);
            move_to_exact(windows);
        }
        let mut index = self.index;
        by_start(&mut index.ops, |w| w.start);
        by_start(&mut index.components, |w| w.start);
        let a = &mut index.annotations;
        by_start(&mut a.iterations, |w| w.1);
        for windows in [
            &mut a.zero_grads,
            &mut a.optimizer_steps,
            &mut a.dataloads,
            &mut a.backwards,
        ] {
            by_start(windows, |w| w.0);
        }
        index
    }
}

/// Moves `items` into a fresh allocation of exactly their length.
///
/// An analysis is kept long after the run that built it, so the vectors it
/// keeps are allocated anew once the run is over. Grown, and shrunk in
/// place, among the engine's short-lived allocations, they would pin the
/// memory freed around them: a service holding hundreds of analyses then
/// peaked ~30 % higher in RSS.
pub(crate) fn move_to_exact<T>(items: &mut Vec<T>) {
    let mut exact = Vec::with_capacity(items.len());
    exact.append(items);
    *items = exact;
}

/// A training-phase annotation a `user_annotation` name marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Annotation {
    /// `ProfilerStep#k`.
    Step(u32),
    ZeroGrad,
    OptimizerStep,
    Dataload,
    Backward,
    ModelLoad,
}

/// What the index makes of one distinct event name, worked out once per
/// name with the [`names`] predicates. Which fields apply depends on the
/// event's category: an op window reads the kernel flags, a module span
/// its path, an annotation its kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NameClass {
    /// The name itself, shared with the trace's table.
    name: Arc<str>,
    is_backward: bool,
    is_accumulate_grad: bool,
    /// The module path of an `nn.Module: <path>` name.
    module: Option<Arc<str>>,
    annotation: Option<Annotation>,
}

impl NameClass {
    pub(crate) fn of(name: &Arc<str>) -> Self {
        let annotation = if let Some(k) = names::parse_profiler_step(name) {
            Some(Annotation::Step(k))
        } else if names::is_optimizer_zero_grad(name) {
            Some(Annotation::ZeroGrad)
        } else if names::is_optimizer_step(name) {
            Some(Annotation::OptimizerStep)
        } else if **name == *names::DATALOADER_NEXT {
            Some(Annotation::Dataload)
        } else if **name == *names::BACKWARD_CALL {
            Some(Annotation::Backward)
        } else if **name == *names::MODEL_TO_DEVICE {
            Some(Annotation::ModelLoad)
        } else {
            None
        };
        NameClass {
            name: Arc::clone(name),
            is_backward: names::is_backward_op(name),
            is_accumulate_grad: **name == *names::ACCUMULATE_GRAD,
            module: names::parse_nn_module(name).map(Arc::from),
            annotation,
        }
    }
}

/// Answers [`WindowIndex::op_at`] or [`WindowIndex::component_at`], as
/// an index into the windows, for a nondecreasing run of timestamps in
/// one forward pass: O(windows + queries) in all.
///
/// Windows are taken in start order. A stack holds those that have
/// started and were still open when pushed. A query pops the ones on top
/// that have ended by `ts`; the window left on top is the latest-starting
/// one still open, the rightmost covering `ts`. A popped window has
/// ended, so no later query needs it: each window is pushed and popped at
/// most once.
pub(crate) struct CoveringSweep<'a, W, F> {
    windows: &'a [W],
    /// A window's `(start, end)`.
    bounds: F,
    /// The first window not yet pushed.
    next: usize,
    open: Vec<usize>,
}

impl<'a, W, F: Fn(&W) -> (u64, u64)> CoveringSweep<'a, W, F> {
    /// A sweep over `windows`, sorted by start.
    pub(crate) fn new(windows: &'a [W], bounds: F) -> Self {
        CoveringSweep {
            windows,
            bounds,
            next: 0,
            open: Vec::new(),
        }
    }

    /// The index of the rightmost window covering `ts`. `ts` must not lie
    /// before the previous query's.
    pub(crate) fn at(&mut self, ts: u64) -> Option<usize> {
        while let Some(window) = self.windows.get(self.next) {
            let (start, end) = (self.bounds)(window);
            if start > ts {
                break;
            }
            if end > ts {
                self.open.push(self.next);
            }
            self.next += 1;
        }
        while let Some(&top) = self.open.last() {
            if (self.bounds)(&self.windows[top]).1 > ts {
                return Some(top);
            }
            self.open.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_trace::TraceEvent;

    fn span(t: &mut Trace, category: EventCategory, name: &str, ts: u64, dur: u64) {
        let id = t.intern(name);
        t.push(TraceEvent::span(category, id, ts, dur));
    }

    fn demo_trace() -> Trace {
        let mut t = Trace::new("t");
        span(
            &mut t,
            EventCategory::UserAnnotation,
            &names::profiler_step(1),
            0,
            100,
        );
        span(
            &mut t,
            EventCategory::PythonFunction,
            &names::nn_module("model"),
            5,
            60,
        );
        span(
            &mut t,
            EventCategory::PythonFunction,
            &names::nn_module("model.layer1"),
            10,
            20,
        );
        let linear = t.intern("aten::linear");
        t.push(TraceEvent::span_with_seq(
            EventCategory::CpuOp,
            linear,
            12,
            6,
            7,
        ));
        span(
            &mut t,
            EventCategory::UserAnnotation,
            &names::optimizer_zero_grad("AdamW"),
            70,
            5,
        );
        span(
            &mut t,
            EventCategory::UserAnnotation,
            &names::optimizer_step("AdamW"),
            80,
            10,
        );
        t.sort_by_time();
        t
    }

    #[test]
    fn op_lookup_finds_containing_window() {
        let idx = WindowIndex::build(&demo_trace());
        let w = idx.op_at(14).expect("inside aten::linear");
        assert_eq!(&*w.name, "aten::linear");
        assert_eq!(w.seq, Some(7));
        assert!(idx.op_at(40).is_none());
        assert!(idx.op_at(11).is_none());
        assert!(idx.op_at(18).is_none(), "end is exclusive");
    }

    #[test]
    fn component_lookup_prefers_innermost() {
        let idx = WindowIndex::build(&demo_trace());
        assert_eq!(&*idx.component_at(15).unwrap().name, "model.layer1");
        assert_eq!(&*idx.component_at(40).unwrap().name, "model");
        assert!(idx.component_at(90).is_none());
    }

    #[test]
    fn annotations_are_indexed() {
        let idx = WindowIndex::build(&demo_trace());
        assert_eq!(idx.annotations.iterations, vec![(1, 0, 100)]);
        assert!(idx.annotations.in_optimizer_step(85));
        assert!(!idx.annotations.in_optimizer_step(95));
        assert_eq!(idx.annotations.next_zero_grad_end(0), Some(75));
        assert_eq!(idx.annotations.next_zero_grad_end(71), None);
        assert_eq!(idx.annotations.iteration_end(50), Some(100));
        assert_eq!(idx.annotations.iteration_end(150), None);
    }

    /// xorshift64*: a deterministic stream for the differential tests.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        }
    }

    /// Random windows sorted by start: nested, equal-start, zero-length
    /// and disjoint ones all occur.
    fn random_spans(rng: &mut XorShift, n: usize) -> Vec<(u64, u64)> {
        let mut spans: Vec<(u64, u64)> = (0..n)
            .map(|_| {
                let start = rng.below(200);
                let len = match rng.below(4) {
                    0 => 0,
                    1 => rng.below(3),
                    2 => rng.below(20),
                    _ => rng.below(150),
                };
                (start, start + len)
            })
            .collect();
        spans.sort_by_key(|s| s.0);
        spans
    }

    /// The index of `window` in `windows`, found by identity.
    fn position<W>(windows: &[W], window: Option<&W>) -> Option<usize> {
        window.map(|w| {
            windows
                .iter()
                .position(|v| std::ptr::eq(v, w))
                .expect("a window of the index")
        })
    }

    /// Asks both sweeps about every timestamp of `times`, in order, and
    /// holds each answer to the linear scan's.
    fn assert_sweeps_match(index: &WindowIndex, times: impl Iterator<Item = u64>, label: &str) {
        let mut ops = CoveringSweep::new(index.ops(), |w| (w.start, w.end));
        let mut components = CoveringSweep::new(index.components(), |w| (w.start, w.end));
        for ts in times {
            assert_eq!(
                ops.at(ts),
                position(index.ops(), index.op_at(ts)),
                "{label}: op_at({ts})"
            );
            assert_eq!(
                components.at(ts),
                position(index.components(), index.component_at(ts)),
                "{label}: component_at({ts})"
            );
        }
    }

    #[test]
    fn lookup_matches_the_linear_scan() {
        let mut rng = XorShift(0x9e37_79b9_97f4_a7c1);
        for case in 0..300 {
            let n = rng.below(40) as usize;
            let index = WindowIndex {
                ops: random_spans(&mut rng, n)
                    .into_iter()
                    .map(|(start, end)| OpWindow {
                        name: Arc::from("op"),
                        start,
                        end,
                        seq: None,
                        is_backward: false,
                        is_accumulate_grad: false,
                    })
                    .collect(),
                components: random_spans(&mut rng, n)
                    .into_iter()
                    .map(|(start, end)| ComponentWindow {
                        name: Arc::from("c"),
                        start,
                        end,
                    })
                    .collect(),
                annotations: AnnotationIndex::default(),
            };
            // Every instant once, then a run with repeats and gaps.
            assert_sweeps_match(&index, 0..400, &format!("case {case}"));
            let mut ts = 0;
            let times = std::iter::from_fn(|| {
                ts += rng.below(4) * rng.below(8);
                (ts < 400).then_some(ts)
            });
            let times: Vec<u64> = times.collect();
            assert_sweeps_match(&index, times.into_iter(), &format!("case {case}, strided"));
        }
    }

    #[test]
    fn lookup_matches_the_linear_scan_on_a_real_trace() {
        use xmem_models::ModelId;
        use xmem_optim::OptimizerKind;
        use xmem_runtime::{profile_on_cpu, TrainJobSpec};
        let spec =
            TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 2).with_iterations(2);
        let trace = profile_on_cpu(&spec);
        let index = WindowIndex::build(&trace);
        let times = trace.memory_instants().map(|e| e.ts_us);
        assert_sweeps_match(&index, times, "distilgpt2");
    }

    /// The index as it was built before names were classified per name:
    /// every event's name parsed with the [`names`] predicates.
    fn per_event_reference(trace: &Trace) -> WindowIndex {
        let window = |e: &TraceEvent| (e.ts_us, e.end_us().max(e.ts_us.saturating_add(1)));
        let mut ops: Vec<OpWindow> = trace
            .of_category(EventCategory::CpuOp)
            .map(|e| {
                let name = trace.name_of(e);
                OpWindow {
                    name: Arc::from(name),
                    start: window(e).0,
                    end: window(e).1,
                    seq: e.args.seq(),
                    is_backward: names::is_backward_op(name),
                    is_accumulate_grad: name == names::ACCUMULATE_GRAD,
                }
            })
            .collect();
        ops.sort_by_key(|w| w.start);
        let mut components: Vec<ComponentWindow> = trace
            .of_category(EventCategory::PythonFunction)
            .filter_map(|e| {
                names::parse_nn_module(trace.name_of(e)).map(|path| ComponentWindow {
                    name: Arc::from(path),
                    start: window(e).0,
                    end: window(e).1,
                })
            })
            .collect();
        components.sort_by_key(|w| w.start);
        let mut annotations = AnnotationIndex::default();
        for e in trace.of_category(EventCategory::UserAnnotation) {
            let (name, span) = (trace.name_of(e), window(e));
            if let Some(k) = names::parse_profiler_step(name) {
                annotations.iterations.push((k, span.0, span.1));
            } else if names::is_optimizer_zero_grad(name) {
                annotations.zero_grads.push(span);
            } else if names::is_optimizer_step(name) {
                annotations.optimizer_steps.push(span);
            } else if name == names::DATALOADER_NEXT {
                annotations.dataloads.push(span);
            } else if name == names::BACKWARD_CALL {
                annotations.backwards.push(span);
            } else if name == names::MODEL_TO_DEVICE {
                annotations.model_load = Some(span);
            }
        }
        annotations.iterations.sort_by_key(|w| w.1);
        WindowIndex {
            ops,
            components,
            annotations,
        }
    }

    /// Every distinct name of the golden fixture, plus edge cases around
    /// each prefix and constant the classification tests for.
    fn classification_corpus() -> Vec<String> {
        let fixture = Trace::from_json_str(include_str!(
            "../tests/fixtures/mobilenet_v3_small_adam_b2.trace.json"
        ))
        .expect("fixture parses");
        let mut corpus: Vec<String> = fixture.names().iter().map(|n| n.to_string()).collect();
        for edge in [
            "nn.Module: ",
            "nn.Module:",
            "ProfilerStep#",
            "ProfilerStep#x",
            "ProfilerStep#-1",
            "ProfilerStep#+7",
            "ProfilerStep#4294967295",
            "ProfilerStep#4294967296",
            "",
            "torch::autograd::AccumulateGrad ",
        ] {
            corpus.push(edge.to_string());
        }
        for constant in [
            names::PROFILER_STEP_PREFIX,
            names::OPTIMIZER_STEP_PREFIX,
            names::OPTIMIZER_ZERO_GRAD_PREFIX,
            names::DATALOADER_NEXT,
            names::MODEL_TO_DEVICE,
            names::BACKWARD_CALL,
            names::NN_MODULE_PREFIX,
            names::AUTOGRAD_NODE_PREFIX,
            names::ACCUMULATE_GRAD,
            names::MEMORY,
        ] {
            // One byte short, one byte long, and each end flipped.
            corpus.push(constant[..constant.len() - 1].to_string());
            corpus.push(format!("{constant}x"));
            corpus.push(format!("{constant}7"));
            corpus.push(format!("x{}", &constant[1..]));
            corpus.push(format!("{}x", &constant[..constant.len() - 1]));
        }
        corpus
    }

    #[test]
    fn per_name_classification_matches_the_string_predicates() {
        let corpus = classification_corpus();
        for name in &corpus {
            let class = NameClass::of(&Arc::from(name.as_str()));
            assert_eq!(&*class.name, name.as_str());
            assert_eq!(class.is_backward, names::is_backward_op(name), "{name:?}");
            assert_eq!(
                class.is_accumulate_grad,
                name == names::ACCUMULATE_GRAD,
                "{name:?}"
            );
            assert_eq!(
                class.module.as_deref(),
                names::parse_nn_module(name),
                "{name:?}"
            );
            let step = names::parse_profiler_step(name);
            let expected = if let Some(k) = step {
                Some(Annotation::Step(k))
            } else if names::is_optimizer_zero_grad(name) {
                Some(Annotation::ZeroGrad)
            } else if names::is_optimizer_step(name) {
                Some(Annotation::OptimizerStep)
            } else if name == names::DATALOADER_NEXT {
                Some(Annotation::Dataload)
            } else if name == names::BACKWARD_CALL {
                Some(Annotation::Backward)
            } else if name == names::MODEL_TO_DEVICE {
                Some(Annotation::ModelLoad)
            } else {
                None
            };
            assert_eq!(class.annotation, expected, "{name:?}");
        }
        // The edge cases do exercise both sides of every test.
        let classes: Vec<NameClass> = corpus
            .iter()
            .map(|n| NameClass::of(&Arc::from(n.as_str())))
            .collect();
        assert!(classes.iter().any(|c| c.module.as_deref() == Some("")));
        assert!(classes
            .iter()
            .any(|c| c.annotation == Some(Annotation::Step(u32::MAX))));
        assert!(classes.iter().any(|c| c.is_accumulate_grad));
    }

    #[test]
    fn the_index_matches_per_event_classification() {
        // Every name of the corpus in every category, at staggered times.
        let mut t = Trace::new("corpus");
        let categories = [
            EventCategory::CpuOp,
            EventCategory::PythonFunction,
            EventCategory::UserAnnotation,
            EventCategory::CpuInstantEvent,
        ];
        for (i, name) in classification_corpus().iter().enumerate() {
            let id = t.intern(name);
            for (c, &category) in categories.iter().enumerate() {
                let ts = (i * 7 + c * 3) as u64 % 97;
                t.push(TraceEvent::span_with_seq(
                    category,
                    id,
                    ts,
                    (i % 5) as u64,
                    i as u64,
                ));
            }
        }
        t.sort_by_time();
        assert_eq!(WindowIndex::build(&t), per_event_reference(&t));

        let fixture = Trace::from_json_str(include_str!(
            "../tests/fixtures/mobilenet_v3_small_adam_b2.trace.json"
        ))
        .expect("fixture parses");
        assert_eq!(WindowIndex::build(&fixture), per_event_reference(&fixture));
    }

    #[test]
    fn windows_of_one_name_share_one_string() {
        let fixture = Trace::from_json_str(include_str!(
            "../tests/fixtures/mobilenet_v3_small_adam_b2.trace.json"
        ))
        .expect("fixture parses");
        let index = WindowIndex::build(&fixture);
        for pair in index.ops().windows(2) {
            if pair[0].name == pair[1].name {
                assert!(Arc::ptr_eq(&pair[0].name, &pair[1].name));
            }
        }
        let table = fixture.names();
        assert!(index
            .ops()
            .iter()
            .all(|w| table.iter().any(|n| Arc::ptr_eq(n, &w.name))));
    }

    #[test]
    fn backward_ops_are_flagged() {
        let mut t = Trace::new("t");
        span(
            &mut t,
            EventCategory::CpuOp,
            &names::autograd_node("LinearBackward0"),
            0,
            4,
        );
        span(&mut t, EventCategory::CpuOp, names::ACCUMULATE_GRAD, 5, 2);
        let idx = WindowIndex::build(&t);
        assert!(idx.ops()[0].is_backward);
        assert!(idx.ops()[1].is_accumulate_grad);
        assert!(idx.ops()[1].is_backward);
    }
}
