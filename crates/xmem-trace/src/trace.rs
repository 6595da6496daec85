use crate::{EventCategory, NameId, TraceEvent};
use std::collections::HashMap;
use std::sync::Arc;

/// An in-memory profiler trace: ordered events, the table of the names
/// they carry, and minimal metadata.
///
/// A profiler emits thousands of events over a few dozen distinct names,
/// so each name is stored once, in this trace's table, and every event
/// carries its [`NameId`]. Names are shared (`Arc<str>`), so a consumer
/// such as the Analyzer can keep them past the trace without copying.
///
/// Events are kept in emission order; [`Trace::sort_by_time`] restores
/// time order after merging sources (the JSON parser calls it).
#[derive(Debug, Clone)]
pub struct Trace {
    name: String,
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, NameId>,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace labelled `name` (usually the job name).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            names: Vec::new(),
            ids: HashMap::new(),
            events: Vec::new(),
        }
    }

    /// Trace label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The id of `name` in this trace's table, adding it on first use.
    /// Producers intern each distinct name once and tag events with the id.
    ///
    /// # Panics
    /// Panics past `u32::MAX` distinct names.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = NameId(u32::try_from(self.names.len()).expect("at most u32::MAX names"));
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, id);
        id
    }

    /// The name table, indexed by [`NameId::index`].
    #[must_use]
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// The name of `event`, an event of this trace.
    #[must_use]
    pub fn name_of(&self, event: &TraceEvent) -> &str {
        &self.names[event.name.index()]
    }

    /// Appends an event, whose name must come from this trace's
    /// [`intern`](Self::intern).
    ///
    /// # Panics
    /// Panics if the event's name id is outside this trace's table.
    pub fn push(&mut self, event: TraceEvent) {
        assert!(
            event.name.index() < self.names.len(),
            "event name id {} is not in this trace's table",
            event.name.index()
        );
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
    /// A profiler emits instants in time order and each span when it
    /// closes, after the events it encloses. So the events that start no
    /// earlier than any event before them are in order already; only the
    /// rest (the spans, about a quarter of a profile) are sorted, as compact
    /// `(ts, index)` keys. The index makes every key unique, so merging the
    /// two key lists gives exactly the stable order. The events are then
    /// permuted into it in place, one swap per move.
    pub fn sort_by_time(&mut self) {
        const PLACED: usize = usize::MAX;
        let mut in_order: Vec<(u64, usize)> = Vec::with_capacity(self.events.len());
        let mut late: Vec<(u64, usize)> = Vec::new();
        let mut latest = 0;
        for (i, e) in self.events.iter().enumerate() {
            if e.ts_us >= latest {
                latest = e.ts_us;
                in_order.push((e.ts_us, i));
            } else {
                late.push((e.ts_us, i));
            }
        }
        if late.is_empty() {
            return;
        }
        late.sort_unstable();
        // `order[k]` is the index of the event that belongs at position k.
        let mut order: Vec<usize> = Vec::with_capacity(self.events.len());
        let (mut a, mut b) = (0, 0);
        while a < in_order.len() || b < late.len() {
            if b == late.len() || (a < in_order.len() && in_order[a] < late[b]) {
                order.push(in_order[a].1);
                a += 1;
            } else {
                order.push(late[b].1);
                b += 1;
            }
        }
        // Follow each cycle of the permutation, swapping each event into
        // its place.
        for start in 0..order.len() {
            let mut k = start;
            loop {
                let from = std::mem::replace(&mut order[k], PLACED);
                if from == start || from == PLACED {
                    break;
                }
                self.events.swap(k, from);
                k = from;
            }
        }
    }

    /// Iterates events of one category.
    pub fn of_category(&self, category: EventCategory) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// Iterates the memory alloc/free instants.
    pub fn memory_instants(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.is_memory_instant())
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
        let steps: Vec<Option<u32>> = self
            .names
            .iter()
            .map(|name| crate::names::parse_profiler_step(name))
            .collect();
        let mut windows: Vec<(u32, u64, u64)> = self
            .of_category(EventCategory::UserAnnotation)
            .filter_map(|e| steps[e.name.index()].map(|k| (k, e.ts_us, e.end_us())))
            .collect();
        windows.sort_by_key(|w| w.0);
        windows
    }
}

/// Traces are equal when their labels match and their events match in
/// order, with names compared as strings: two traces of the same run are
/// equal however their tables happen to number the names.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.events.len() == other.events.len()
            && self.events.iter().zip(&other.events).all(|(a, b)| {
                a.category == b.category
                    && a.ts_us == b.ts_us
                    && a.dur_us == b.dur_us
                    && a.args == b.args
                    && self.name_of(a) == other.name_of(b)
            })
    }
}

impl Eq for Trace {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    fn span(t: &mut Trace, category: EventCategory, name: &str, ts: u64, dur: u64) {
        let id = t.intern(name);
        t.push(TraceEvent::span(category, id, ts, dur));
    }

    #[test]
    fn iteration_windows_are_parsed_and_ordered() {
        let mut t = Trace::new("t");
        span(
            &mut t,
            EventCategory::UserAnnotation,
            &names::profiler_step(2),
            100,
            50,
        );
        span(
            &mut t,
            EventCategory::UserAnnotation,
            &names::profiler_step(1),
            10,
            80,
        );
        span(&mut t, EventCategory::CpuOp, "aten::linear", 12, 4);
        let w = t.iteration_windows();
        assert_eq!(w, vec![(1, 10, 90), (2, 100, 150)]);
    }

    #[test]
    fn category_filters() {
        let mut t = Trace::new("t");
        span(&mut t, EventCategory::CpuOp, "aten::add", 0, 1);
        let memory = t.intern(names::MEMORY);
        t.push(TraceEvent::mem_alloc(memory, 1, 0x2, 512, -1));
        assert_eq!(t.of_category(EventCategory::CpuOp).count(), 1);
        assert_eq!(t.memory_instants().count(), 1);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.end_us(), 1);
    }

    #[test]
    fn names_are_stored_once_per_distinct_name() {
        let mut t = Trace::new("t");
        let vocabulary = ["aten::add", "aten::mul", names::MEMORY, "", "aten::add "];
        for i in 0..1000u64 {
            span(
                &mut t,
                EventCategory::CpuOp,
                vocabulary[i as usize % vocabulary.len()],
                i,
                1,
            );
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.names().len(), vocabulary.len());
        for (i, e) in t.events().iter().enumerate() {
            assert_eq!(t.name_of(e), vocabulary[i % vocabulary.len()]);
        }
        assert_eq!(t.intern("aten::mul"), t.events()[1].name);
    }

    #[test]
    fn equality_compares_names_not_ids() {
        let mut a = Trace::new("t");
        let x = a.intern("x");
        let y = a.intern("y");
        a.push(TraceEvent::span(EventCategory::CpuOp, y, 0, 1));
        a.push(TraceEvent::span(EventCategory::CpuOp, x, 1, 1));
        let mut b = Trace::new("t");
        span(&mut b, EventCategory::CpuOp, "y", 0, 1);
        span(&mut b, EventCategory::CpuOp, "x", 1, 1);
        assert_ne!(a.events()[0].name, b.events()[0].name);
        assert_eq!(a, b);
        span(&mut b, EventCategory::CpuOp, "x", 2, 1);
        assert_ne!(a, b);
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
                span(&mut t, EventCategory::CpuOp, &format!("e{i}"), ts, i);
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
        span(&mut t, EventCategory::PythonFunction, "outer", 5, 10);
        span(&mut t, EventCategory::CpuOp, "inner", 5, 4);
        span(&mut t, EventCategory::CpuOp, "early", 1, 1);
        t.sort_by_time();
        assert_eq!(t.name_of(&t.events()[0]), "early");
        assert_eq!(t.name_of(&t.events()[1]), "outer");
        assert_eq!(t.name_of(&t.events()[2]), "inner");
    }
}
