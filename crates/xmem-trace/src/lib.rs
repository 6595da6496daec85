//! Profiler trace model and JSON interchange format.
//!
//! The paper's pipeline consumes PyTorch-profiler exports: chrome-trace JSON
//! containing four event categories (§3.2) — `python_function` (module-call
//! hierarchy), `user_annotation` (training-phase markers such as
//! `ProfilerStep#k` and `Optimizer.zero_grad#...`), `cpu_op` (`aten::*`
//! kernels with start/end timestamps and forward/backward sequence numbers)
//! and `cpu_instant_event` (raw memory allocation/free instants carrying
//! address, signed byte count and device id, with **no linkage** to the
//! operator that caused them — recreating that linkage is the Analyzer's
//! job).
//!
//! This crate defines the in-memory [`Trace`] model, the canonical event
//! [`names`] the runtime emits and the Analyzer recognizes, and a
//! serde-based reader/writer for the JSON schema. A trace stores each
//! distinct name once, in its own table; events carry a [`NameId`] into it.
//! The parser is tolerant: events of unknown categories are skipped,
//! mirroring how the real tool ignores the many other categories a PyTorch
//! trace contains. It rejects events whose values overflow (a span ending
//! past `u64::MAX`, a byte count of `i64::MIN`) with a typed error.
//!
//! # Example
//!
//! ```
//! use xmem_trace::{names, EventCategory, Trace, TraceEvent};
//!
//! let mut trace = Trace::new("demo");
//! let linear = trace.intern("aten::linear");
//! let memory = trace.intern(names::MEMORY);
//! trace.push(TraceEvent::span(EventCategory::CpuOp, linear, 10, 25));
//! trace.push(TraceEvent::mem_alloc(memory, 12, 0xdead_0000, 4096, -1));
//! trace.push(TraceEvent::mem_free(memory, 20, 0xdead_0000, 4096, -1));
//!
//! let json = trace.to_json_string().unwrap();
//! let parsed = Trace::from_json_str(&json).unwrap();
//! assert_eq!(parsed, trace);
//! assert_eq!(parsed.names().len(), 2);
//! assert_eq!(parsed.name_of(&parsed.events()[0]), "aten::linear");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod json;
pub mod names;
mod trace;

pub use event::{EventArgs, EventCategory, NameId, TraceEvent};
pub use json::TraceParseError;
pub use trace::Trace;
