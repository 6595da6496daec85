//! Event sinks: where the engine reports execution structure.
//!
//! A CPU profiling run reports to any sink (`profile_into`): a
//! [`Profiler`] builds a [`xmem_trace::Trace`] with the four event
//! categories xMem consumes, and a consumer may instead analyze the events
//! as they arrive. The GPU backend attaches a [`NullSink`] (ground truth
//! needs only the arena's sampler).

use xmem_trace::{names, EventCategory, NameId, Trace, TraceEvent};

/// Receives execution structure from the engine.
///
/// Names travel as ids: the engine resolves each distinct name with
/// [`intern`](Sink::intern) once per run, ahead of the events that carry
/// it, so reporting an event hashes, formats and allocates no string.
pub trait Sink {
    /// The id events named `name` carry.
    fn intern(&mut self, name: &str) -> NameId;

    /// A completed span (module call, annotation or kernel).
    fn span(&mut self, category: EventCategory, name: NameId, ts_us: u64, dur_us: u64);

    /// A completed kernel span carrying a forward/backward sequence number.
    fn span_seq(&mut self, name: NameId, ts_us: u64, dur_us: u64, seq: u64);

    /// A memory allocation instant.
    fn mem_alloc(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32);

    /// A memory free instant.
    fn mem_free(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32);

    /// Whether anything reported is kept; the engine skips building and
    /// interning event names for a sink that discards them.
    fn records(&self) -> bool {
        true
    }
}

/// Discards everything (GPU ground-truth runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn intern(&mut self, _: &str) -> NameId {
        NameId::default()
    }
    fn span(&mut self, _: EventCategory, _: NameId, _: u64, _: u64) {}
    fn span_seq(&mut self, _: NameId, _: u64, _: u64, _: u64) {}
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
    /// The id of [`names::MEMORY`], interned with the first instant.
    memory: Option<NameId>,
}

impl Profiler {
    /// Creates a profiler for a job called `name`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Profiler {
            trace: Trace::new(name),
            memory: None,
        }
    }

    /// Finishes profiling, returning the time-sorted trace.
    #[must_use]
    pub fn into_trace(mut self) -> Trace {
        self.trace.sort_by_time();
        self.trace
    }

    fn memory(&mut self) -> NameId {
        match self.memory {
            Some(id) => id,
            None => *self.memory.insert(self.trace.intern(names::MEMORY)),
        }
    }
}

impl Sink for Profiler {
    fn intern(&mut self, name: &str) -> NameId {
        self.trace.intern(name)
    }

    fn span(&mut self, category: EventCategory, name: NameId, ts_us: u64, dur_us: u64) {
        self.trace
            .push(TraceEvent::span(category, name, ts_us, dur_us));
    }

    fn span_seq(&mut self, name: NameId, ts_us: u64, dur_us: u64, seq: u64) {
        self.trace.push(TraceEvent::span_with_seq(
            EventCategory::CpuOp,
            name,
            ts_us,
            dur_us,
            seq,
        ));
    }

    fn mem_alloc(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32) {
        let name = self.memory();
        self.trace.push(TraceEvent::mem_alloc(
            name,
            ts_us,
            addr,
            bytes as u64,
            device,
        ));
    }

    fn mem_free(&mut self, ts_us: u64, addr: u64, bytes: usize, device: i32) {
        let name = self.memory();
        self.trace.push(TraceEvent::mem_free(
            name,
            ts_us,
            addr,
            bytes as u64,
            device,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_collects_and_sorts() {
        let mut p = Profiler::new("job");
        let step = p.intern("ProfilerStep#1");
        let linear = p.intern("aten::linear");
        p.span(EventCategory::UserAnnotation, step, 50, 100);
        p.mem_alloc(10, 0xa, 512, -1);
        p.span_seq(linear, 20, 5, 3);
        p.mem_free(30, 0xa, 512, -1);
        let t = p.into_trace();
        assert_eq!(t.len(), 4);
        assert_eq!(t.events()[0].ts_us, 10);
        assert_eq!(t.name_of(&t.events()[0]), names::MEMORY);
        assert_eq!(t.events()[1].args.seq(), Some(3));
        assert_eq!(t.name_of(&t.events()[1]), "aten::linear");
        assert_eq!(t.name(), "job");
        assert_eq!(t.names().len(), 3, "each name is stored once");
    }

    #[test]
    fn null_sink_is_inert() {
        let mut s = NullSink;
        s.mem_alloc(0, 1, 2, -1);
        let x = s.intern("x");
        s.span(EventCategory::CpuOp, x, 0, 1);
    }
}
