use crate::{EventCategory, TraceEvent};

/// An in-memory profiler trace: ordered events plus minimal metadata.
///
/// Events are kept in emission order; [`Trace::sort_by_time`] restores
/// time order after merging sources (the JSON parser calls it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace labelled `name` (usually the job name).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Trace label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Stable-sorts events by start timestamp (ties keep emission order, so
    /// enclosing spans stay ahead of contained events emitted later).
    ///
    /// Sorts compact `(ts, index)` keys rather than the events themselves:
    /// the index makes every key unique, so an unstable key sort yields the
    /// stable order, and each event is then moved exactly once.
    pub fn sort_by_time(&mut self) {
        let mut keys: Vec<(u64, usize)> = self
            .events
            .iter()
            .enumerate()
            .map(|(i, e)| (e.ts_us, i))
            .collect();
        keys.sort_unstable();
        let mut slots: Vec<Option<TraceEvent>> = std::mem::take(&mut self.events)
            .into_iter()
            .map(Some)
            .collect();
        self.events = keys
            .into_iter()
            .map(|(_, i)| slots[i].take().expect("each index is taken once"))
            .collect();
    }

    /// Iterates events of one category.
    pub fn of_category(&self, category: EventCategory) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// Iterates the memory alloc/free instants.
    pub fn memory_instants(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.is_memory_instant())
    }

    /// Approximate resident size of this trace in bytes: the event
    /// structs plus their heap-owned names. Used by bytes-budgeted caches
    /// to price retained traces (exact heap accounting is not the goal —
    /// a stable, cheap, monotone-in-size figure is).
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let fixed = std::mem::size_of::<TraceEvent>() as u64 * self.events.len() as u64;
        let names: u64 = self.events.iter().map(|e| e.name.len() as u64).sum();
        fixed + names + self.name.len() as u64
    }

    /// Timestamp of the last event end, i.e. the trace horizon.
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.events
            .iter()
            .map(TraceEvent::end_us)
            .max()
            .unwrap_or(0)
    }

    /// The `ProfilerStep#k` annotation spans in step order, as
    /// `(step, start, end)`.
    #[must_use]
    pub fn iteration_windows(&self) -> Vec<(u32, u64, u64)> {
        let mut windows: Vec<(u32, u64, u64)> = self
            .of_category(EventCategory::UserAnnotation)
            .filter_map(|e| {
                crate::names::parse_profiler_step(&e.name).map(|k| (k, e.ts_us, e.end_us()))
            })
            .collect();
        windows.sort_by_key(|w| w.0);
        windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn iteration_windows_are_parsed_and_ordered() {
        let mut t = Trace::new("t");
        t.push(TraceEvent::span(
            EventCategory::UserAnnotation,
            names::profiler_step(2),
            100,
            50,
        ));
        t.push(TraceEvent::span(
            EventCategory::UserAnnotation,
            names::profiler_step(1),
            10,
            80,
        ));
        t.push(TraceEvent::span(
            EventCategory::CpuOp,
            "aten::linear",
            12,
            4,
        ));
        let w = t.iteration_windows();
        assert_eq!(w, vec![(1, 10, 90), (2, 100, 150)]);
    }

    #[test]
    fn category_filters() {
        let mut t = Trace::new("t");
        t.push(TraceEvent::span(EventCategory::CpuOp, "aten::add", 0, 1));
        t.push(TraceEvent::mem_alloc(1, 0x2, 512, -1));
        assert_eq!(t.of_category(EventCategory::CpuOp).count(), 1);
        assert_eq!(t.memory_instants().count(), 1);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.end_us(), 1);
    }

    #[test]
    fn sort_by_time_matches_a_stable_sort_under_heavy_ties() {
        // xorshift64*: timestamps from a handful of values, so most events
        // tie with many others.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        };
        for len in [0, 1, 2, 7, 64, 1000] {
            let mut t = Trace::new("t");
            for i in 0..len {
                let ts = below(5);
                t.push(TraceEvent::span(
                    EventCategory::CpuOp,
                    format!("e{i}"),
                    ts,
                    i,
                ));
            }
            let mut reference = t.events().to_vec();
            reference.sort_by_key(|e| e.ts_us);
            t.sort_by_time();
            assert_eq!(t.events(), reference.as_slice(), "{len} events");
        }
    }

    #[test]
    fn sort_is_stable_for_nested_spans() {
        let mut t = Trace::new("t");
        t.push(TraceEvent::span(
            EventCategory::PythonFunction,
            "outer",
            5,
            10,
        ));
        t.push(TraceEvent::span(EventCategory::CpuOp, "inner", 5, 4));
        t.push(TraceEvent::span(EventCategory::CpuOp, "early", 1, 1));
        t.sort_by_time();
        assert_eq!(t.events()[0].name, "early");
        assert_eq!(t.events()[1].name, "outer");
        assert_eq!(t.events()[2].name, "inner");
    }
}
