use serde::{Deserialize, Serialize};
use std::fmt;

/// The four profiler event categories xMem consumes (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventCategory {
    /// Python-level call spans (module forward/backward invocations);
    /// provide the parent-child component hierarchy.
    PythonFunction,
    /// Training-phase markers: `ProfilerStep#k`, optimizer step/zero_grad,
    /// dataloader fetches, model loading.
    UserAnnotation,
    /// Dispatched computational kernels (`aten::*`) with precise start/end
    /// timestamps and forward↔backward sequence numbers.
    CpuOp,
    /// Memory allocation/free instants: address, signed bytes, device id —
    /// with no linkage to the triggering operator.
    CpuInstantEvent,
}

impl EventCategory {
    /// The `cat` string used in the JSON interchange format.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            EventCategory::PythonFunction => "python_function",
            EventCategory::UserAnnotation => "user_annotation",
            EventCategory::CpuOp => "cpu_op",
            EventCategory::CpuInstantEvent => "cpu_instant_event",
        }
    }

    /// Parses a `cat` string; unknown categories yield `None`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "python_function" => Some(EventCategory::PythonFunction),
            "user_annotation" => Some(EventCategory::UserAnnotation),
            "cpu_op" => Some(EventCategory::CpuOp),
            "cpu_instant_event" => Some(EventCategory::CpuInstantEvent),
            _ => None,
        }
    }
}

impl fmt::Display for EventCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Index of a name in its [`Trace`](crate::Trace)'s name table.
///
/// An id means something only in the trace that issued it (see
/// [`Trace::intern`](crate::Trace::intern)); resolve it with
/// [`Trace::name_of`](crate::Trace::name_of).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub(crate) u32);

impl NameId {
    /// The id of entry `index` of a name table. A consumer that keeps its
    /// own table in place of a [`Trace`](crate::Trace)'s, such as a sink
    /// that analyzes events as the engine reports them, numbers its names
    /// with it.
    #[must_use]
    pub const fn from_index(index: u32) -> Self {
        NameId(index)
    }

    /// Position of the name in [`Trace::names`](crate::Trace::names).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bit positions of the optional `u64`-sized attributes, in packing order.
const ADDR: u32 = 0;
const BYTES: u32 = 1;
const TOTAL_ALLOCATED: u32 = 2;
const TOTAL_RESERVED: u32 = 3;
const SEQ: u32 = 4;
const DEVICE: u32 = 5;
const SLOT_FIELDS: u8 = (1 << DEVICE) - 1;

/// Optional attributes attached to an event (`args` in the JSON format).
///
/// Every attribute is optional and read through its accessor. The
/// attributes present are packed in field order: the first two into
/// inline slots, any further ones into one boxed spill array. Profiler
/// events carry at most two (a memory instant's address and byte count, or
/// a kernel's sequence number), so only imported traces that also record
/// the allocator gauges allocate.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct EventArgs {
    present: u8,
    device: i32,
    slots: [u64; 2],
    spill: Option<Box<[u64; 3]>>,
}

impl EventArgs {
    /// Packs the `u64`-sized attributes, given in bit order (the signed
    /// byte count as its two's-complement bit pattern). Unused slots stay
    /// zero, so equal attributes compare equal.
    pub(crate) fn pack(values: [Option<u64>; 5], device: Option<i32>) -> Self {
        let mut args = EventArgs::default();
        let mut rank = 0;
        for (bit, value) in values.into_iter().enumerate() {
            let Some(value) = value else { continue };
            args.present |= 1 << bit;
            match args.slots.get_mut(rank) {
                Some(slot) => *slot = value,
                None => args.spill.get_or_insert_with(Default::default)[rank - 2] = value,
            }
            rank += 1;
        }
        if let Some(device) = device {
            args.present |= 1 << DEVICE;
            args.device = device;
        }
        args
    }

    fn get(&self, bit: u32) -> Option<u64> {
        if self.present & (1 << bit) == 0 {
            return None;
        }
        let rank = (self.present & SLOT_FIELDS & ((1 << bit) - 1)).count_ones() as usize;
        match self.slots.get(rank) {
            Some(&value) => Some(value),
            None => self.spill.as_ref().map(|spill| spill[rank - 2]),
        }
    }

    /// Memory address of an allocation/free instant.
    #[must_use]
    pub fn addr(&self) -> Option<u64> {
        self.get(ADDR)
    }

    /// Signed byte count: positive allocates, negative frees.
    #[must_use]
    pub fn bytes(&self) -> Option<i64> {
        self.get(BYTES).map(|b| b as i64)
    }

    /// Device id (-1 = CPU, 0+ = accelerator ordinal).
    #[must_use]
    pub fn device(&self) -> Option<i32> {
        (self.present & (1 << DEVICE) != 0).then_some(self.device)
    }

    /// Allocator "allocated bytes" gauge at this instant, when recorded.
    #[must_use]
    pub fn total_allocated(&self) -> Option<u64> {
        self.get(TOTAL_ALLOCATED)
    }

    /// Allocator "reserved bytes" gauge at this instant, when recorded.
    #[must_use]
    pub fn total_reserved(&self) -> Option<u64> {
        self.get(TOTAL_RESERVED)
    }

    /// Sequence number linking a forward `cpu_op` to its backward node.
    #[must_use]
    pub fn seq(&self) -> Option<u64> {
        self.get(SEQ)
    }

    /// True when no attribute is set (serialized as absent `args`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }
}

impl fmt::Debug for EventArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventArgs")
            .field("addr", &self.addr())
            .field("bytes", &self.bytes())
            .field("device", &self.device())
            .field("total_allocated", &self.total_allocated())
            .field("total_reserved", &self.total_reserved())
            .field("seq", &self.seq())
            .finish()
    }
}

/// One profiler event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Category (`cat`).
    pub category: EventCategory,
    /// Event name, an index into the owning trace's name table.
    pub name: NameId,
    /// Start timestamp in virtual microseconds.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instant events).
    pub dur_us: u64,
    /// Optional attributes.
    pub args: EventArgs,
}

impl TraceEvent {
    /// A duration span event (`ph: "X"`).
    #[must_use]
    pub fn span(category: EventCategory, name: NameId, ts_us: u64, dur_us: u64) -> Self {
        TraceEvent {
            category,
            name,
            ts_us,
            dur_us,
            args: EventArgs::default(),
        }
    }

    /// A span with a forward/backward sequence number.
    #[must_use]
    pub fn span_with_seq(
        category: EventCategory,
        name: NameId,
        ts_us: u64,
        dur_us: u64,
        seq: u64,
    ) -> Self {
        TraceEvent {
            args: EventArgs {
                present: 1 << SEQ,
                slots: [seq, 0],
                ..EventArgs::default()
            },
            ..TraceEvent::span(category, name, ts_us, dur_us)
        }
    }

    /// A memory instant (named `[memory]` by the profiler) recording an
    /// allocation of `bytes` at `addr`.
    #[must_use]
    pub fn mem_alloc(name: NameId, ts_us: u64, addr: u64, bytes: u64, device: i32) -> Self {
        Self::memory(name, ts_us, addr, bytes as i64, device)
    }

    /// A memory instant recording a free of `bytes` at `addr`.
    #[must_use]
    pub fn mem_free(name: NameId, ts_us: u64, addr: u64, bytes: u64, device: i32) -> Self {
        Self::memory(name, ts_us, addr, (bytes as i64).wrapping_neg(), device)
    }

    fn memory(name: NameId, ts_us: u64, addr: u64, bytes: i64, device: i32) -> Self {
        TraceEvent {
            category: EventCategory::CpuInstantEvent,
            name,
            ts_us,
            dur_us: 0,
            args: EventArgs {
                present: (1 << ADDR) | (1 << BYTES) | (1 << DEVICE),
                device,
                slots: [addr, bytes as u64],
                spill: None,
            },
        }
    }

    /// End timestamp (`ts + dur`), saturating at `u64::MAX`. Parsed traces
    /// never saturate: the reader rejects spans that end past it.
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.ts_us.saturating_add(self.dur_us)
    }

    /// Whether this is a memory alloc/free instant.
    #[must_use]
    pub fn is_memory_instant(&self) -> bool {
        self.category == EventCategory::CpuInstantEvent && self.args.present & (1 << BYTES) != 0
    }

    /// Whether `[self.ts, self.end)` fully contains `[other.ts, other.end)`.
    /// Instants (zero duration) are contained when their timestamp falls in
    /// the half-open window.
    #[must_use]
    pub fn contains(&self, other: &TraceEvent) -> bool {
        if other.dur_us == 0 {
            self.ts_us <= other.ts_us && other.ts_us < self.end_us()
        } else {
            self.ts_us <= other.ts_us && other.end_us() <= self.end_us()
        }
    }

    /// Whether the timestamp `ts` falls within this event's span.
    #[must_use]
    pub fn covers_ts(&self, ts: u64) -> bool {
        self.ts_us <= ts && ts < self.end_us().max(self.ts_us.saturating_add(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_roundtrip() {
        for c in [
            EventCategory::PythonFunction,
            EventCategory::UserAnnotation,
            EventCategory::CpuOp,
            EventCategory::CpuInstantEvent,
        ] {
            assert_eq!(EventCategory::parse(c.as_str()), Some(c));
        }
        assert_eq!(EventCategory::parse("gpu_memcpy"), None);
    }

    const NAME: NameId = NameId(0);

    #[test]
    fn memory_instants_sign_bytes() {
        let a = TraceEvent::mem_alloc(NAME, 5, 0x10, 1024, -1);
        assert_eq!(a.args.bytes(), Some(1024));
        assert_eq!(a.args.addr(), Some(0x10));
        assert_eq!(a.args.device(), Some(-1));
        assert_eq!(a.args.seq(), None);
        assert!(a.is_memory_instant());
        let f = TraceEvent::mem_free(NAME, 9, 0x10, 1024, -1);
        assert_eq!(f.args.bytes(), Some(-1024));
        assert_eq!(f, {
            let values = [Some(0x10), Some((-1024i64) as u64), None, None, None];
            TraceEvent {
                args: EventArgs::pack(values, Some(-1)),
                ..f.clone()
            }
        });
    }

    #[test]
    fn every_attribute_combination_packs_and_reads_back() {
        for mask in 0u32..64 {
            let values: [Option<u64>; 5] = std::array::from_fn(|bit| {
                (mask & (1 << bit) != 0).then_some(u64::MAX - bit as u64)
            });
            let device = (mask & (1 << DEVICE) != 0).then_some(-7);
            let args = EventArgs::pack(values, device);
            assert_eq!(args.addr(), values[0], "mask {mask:#b}");
            assert_eq!(args.bytes(), values[1].map(|b| b as i64), "mask {mask:#b}");
            assert_eq!(args.total_allocated(), values[2], "mask {mask:#b}");
            assert_eq!(args.total_reserved(), values[3], "mask {mask:#b}");
            assert_eq!(args.seq(), values[4], "mask {mask:#b}");
            assert_eq!(args.device(), device, "mask {mask:#b}");
            assert_eq!(args.is_empty(), mask == 0);
            assert_eq!(args.spill.is_some(), (mask & 0x1f).count_ones() > 2);
        }
    }

    #[test]
    fn events_are_compact() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 56);
    }

    #[test]
    fn containment_is_half_open() {
        let outer = TraceEvent::span(EventCategory::CpuOp, NAME, 10, 10);
        let inner = TraceEvent::span(EventCategory::CpuOp, NAME, 12, 5);
        let instant_at_end = TraceEvent::mem_alloc(NAME, 20, 0x1, 1, -1);
        let instant_inside = TraceEvent::mem_alloc(NAME, 19, 0x1, 1, -1);
        assert!(outer.contains(&inner));
        assert!(!outer.contains(&instant_at_end));
        assert!(outer.contains(&instant_inside));
    }

    #[test]
    fn covers_ts_handles_spans() {
        let e = TraceEvent::span(EventCategory::CpuOp, NAME, 10, 10);
        assert!(e.covers_ts(10));
        assert!(e.covers_ts(19));
        assert!(!e.covers_ts(20));
        assert!(!e.covers_ts(9));
    }

    #[test]
    fn extreme_timestamps_saturate() {
        let last = TraceEvent::span(EventCategory::CpuOp, NAME, u64::MAX, 0);
        assert_eq!(last.end_us(), u64::MAX);
        // A zero-length span at the last representable instant covers
        // nothing rather than wrapping around to cover everything.
        assert!(!last.covers_ts(u64::MAX));
        assert!(!last.covers_ts(0));
        let long = TraceEvent::span(EventCategory::CpuOp, NAME, u64::MAX - 5, 100);
        assert_eq!(long.end_us(), u64::MAX);
    }
}
