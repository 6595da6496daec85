//! Event sinks: where the engine reports execution structure.
//!
//! The CPU backend attaches a [`Profiler`] that builds a
//! [`xmem_trace::Trace`] with the four event categories xMem consumes; the
//! GPU backend attaches a [`NullSink`] (ground truth needs only the arena's
//! sampler).

use xmem_trace::{EventCategory, Trace, TraceEvent};

/// Receives execution structure from the engine.
pub trait Sink {
    /// A completed span (module call, annotation or kernel).
    fn span(&mut self, category: EventCategory, name: &str, ts_us: u64, dur_us: u64);

    /// A completed kernel span carrying a forward/backward sequence number.
    fn span_seq(&mut self, name: &str, ts_us: u64, dur_us: u64, seq: u64);

    /// A memory allocation instant.
    fn mem_alloc(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32);

    /// A memory free instant.
    fn mem_free(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32);

    /// Whether anything reported is kept; the engine skips building event
    /// names for a sink that discards them.
    fn records(&self) -> bool {
        true
    }
}

/// Discards everything (GPU ground-truth runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn span(&mut self, _: EventCategory, _: &str, _: u64, _: u64) {}
    fn span_seq(&mut self, _: &str, _: u64, _: u64, _: u64) {}
    fn mem_alloc(&mut self, _: u64, _: u64, _: usize, _: i32) {}
    fn mem_free(&mut self, _: u64, _: u64, _: usize, _: i32) {}
    fn records(&self) -> bool {
        false
    }
}

/// Builds a profiler trace, PyTorch-style.
#[derive(Debug)]
pub struct Profiler {
    trace: Trace,
}

impl Profiler {
    /// Creates a profiler for a job called `name`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Profiler {
            trace: Trace::new(name),
        }
    }

    /// Finishes profiling, returning the time-sorted trace.
    #[must_use]
    pub fn into_trace(mut self) -> Trace {
        self.trace.sort_by_time();
        self.trace
    }
}

impl Sink for Profiler {
    fn span(&mut self, category: EventCategory, name: &str, ts_us: u64, dur_us: u64) {
        self.trace
            .push(TraceEvent::span(category, name, ts_us, dur_us));
    }

    fn span_seq(&mut self, name: &str, ts_us: u64, dur_us: u64, seq: u64) {
        self.trace.push(TraceEvent::span_with_seq(
            EventCategory::CpuOp,
            name,
            ts_us,
            dur_us,
            seq,
        ));
    }

    fn mem_alloc(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32) {
        self.trace
            .push(TraceEvent::mem_alloc(ts_us, addr, bytes as u64, device));
    }

    fn mem_free(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32) {
        self.trace
            .push(TraceEvent::mem_free(ts_us, addr, bytes as u64, device));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_collects_and_sorts() {
        let mut p = Profiler::new("job");
        p.span(EventCategory::UserAnnotation, "ProfilerStep#1", 50, 100);
        p.mem_alloc(10, 0xa, 512, -1);
        p.span_seq("aten::linear", 20, 5, 3);
        let t = p.into_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[0].ts_us, 10);
        assert_eq!(t.events()[1].args.seq, Some(3));
        assert_eq!(t.name(), "job");
    }

    #[test]
    fn null_sink_is_inert() {
        let mut s = NullSink;
        s.mem_alloc(0, 1, 2, -1);
        s.span(EventCategory::CpuOp, "x", 0, 1);
    }
}
