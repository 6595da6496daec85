//! Chrome-trace-style JSON reader/writer.
//!
//! The on-disk schema matches what `torch.profiler` exports closely enough
//! that the Analyzer logic transfers: a top-level `traceEvents` array of
//! objects with `ph` (phase: `"X"` span / `"i"` instant), `cat`, `name`,
//! `ts`, `dur` and an `args` object carrying `Addr` / `Bytes` /
//! `Device Id` / `Total Allocated` / `Total Reserved` /
//! `Sequence number`.

use crate::{EventArgs, EventCategory, Trace, TraceEvent};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

/// Failure to parse a trace JSON document.
#[derive(Debug)]
pub enum TraceParseError {
    /// The document is not valid JSON or misses required fields.
    Json(serde_json::Error),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The event at `index` of `traceEvents` holds values no trace can
    /// represent.
    InvalidEvent {
        /// Position of the event in the document's `traceEvents` array.
        index: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::Json(e) => write!(f, "invalid trace json: {e}"),
            TraceParseError::Io(e) => write!(f, "trace io failure: {e}"),
            TraceParseError::InvalidEvent { index, reason } => {
                write!(f, "invalid trace event {index}: {reason}")
            }
        }
    }
}

impl Error for TraceParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceParseError::Json(e) => Some(e),
            TraceParseError::Io(e) => Some(e),
            TraceParseError::InvalidEvent { .. } => None,
        }
    }
}

impl From<serde_json::Error> for TraceParseError {
    fn from(e: serde_json::Error) -> Self {
        TraceParseError::Json(e)
    }
}

impl From<std::io::Error> for TraceParseError {
    fn from(e: std::io::Error) -> Self {
        TraceParseError::Io(e)
    }
}

#[derive(Serialize, Deserialize)]
struct RawArgs {
    #[serde(rename = "Addr", skip_serializing_if = "Option::is_none")]
    addr: Option<u64>,
    #[serde(rename = "Bytes", skip_serializing_if = "Option::is_none")]
    bytes: Option<i64>,
    #[serde(rename = "Device Id", skip_serializing_if = "Option::is_none")]
    device: Option<i32>,
    #[serde(rename = "Total Allocated", skip_serializing_if = "Option::is_none")]
    total_allocated: Option<u64>,
    #[serde(rename = "Total Reserved", skip_serializing_if = "Option::is_none")]
    total_reserved: Option<u64>,
    #[serde(rename = "Sequence number", skip_serializing_if = "Option::is_none")]
    seq: Option<u64>,
}

#[derive(Serialize, Deserialize)]
struct RawEvent {
    ph: String,
    cat: String,
    name: String,
    pid: u32,
    tid: u32,
    ts: u64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    dur: Option<u64>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    args: Option<RawArgs>,
}

#[derive(Serialize, Deserialize)]
struct RawTrace {
    #[serde(rename = "schemaVersion")]
    schema_version: u32,
    #[serde(rename = "displayTimeUnit", default)]
    display_time_unit: Option<String>,
    #[serde(rename = "traceName", default)]
    trace_name: Option<String>,
    #[serde(rename = "traceEvents")]
    trace_events: Vec<RawEvent>,
}

fn to_raw(trace: &Trace, event: &TraceEvent) -> RawEvent {
    let a = &event.args;
    let args = (!a.is_empty()).then(|| RawArgs {
        addr: a.addr(),
        bytes: a.bytes(),
        device: a.device(),
        total_allocated: a.total_allocated(),
        total_reserved: a.total_reserved(),
        seq: a.seq(),
    });
    RawEvent {
        ph: if event.dur_us == 0 && event.category == EventCategory::CpuInstantEvent {
            "i".to_string()
        } else {
            "X".to_string()
        },
        cat: event.category.as_str().to_string(),
        name: trace.name_of(event).to_string(),
        pid: 1,
        tid: 1,
        ts: event.ts_us,
        dur: if event.category == EventCategory::CpuInstantEvent {
            None
        } else {
            Some(event.dur_us)
        },
        args,
    }
}

/// Adds `raw` (event `index` of the document) to `trace`, interning its
/// name. Events of unknown categories are skipped.
fn push_raw(trace: &mut Trace, index: usize, raw: RawEvent) -> Result<(), TraceParseError> {
    let Some(category) = EventCategory::parse(&raw.cat) else {
        return Ok(());
    };
    let invalid = |reason| TraceParseError::InvalidEvent { index, reason };
    let dur_us = raw.dur.unwrap_or(0);
    if raw.ts.checked_add(dur_us).is_none() {
        return Err(invalid("span ends past the largest timestamp"));
    }
    let args = match raw.args {
        Some(a) => {
            if a.bytes == Some(i64::MIN) {
                return Err(invalid("byte count out of range"));
            }
            EventArgs::pack(
                [
                    a.addr,
                    a.bytes.map(|b| b as u64),
                    a.total_allocated,
                    a.total_reserved,
                    a.seq,
                ],
                a.device,
            )
        }
        None => EventArgs::default(),
    };
    let name = trace.intern(&raw.name);
    trace.push(TraceEvent {
        category,
        name,
        ts_us: raw.ts,
        dur_us,
        args,
    });
    Ok(())
}

impl Trace {
    /// Serializes the trace to the JSON interchange format.
    ///
    /// # Errors
    /// Propagates serialization failures (effectively unreachable for this
    /// schema).
    pub fn to_json_string(&self) -> Result<String, TraceParseError> {
        let raw = RawTrace {
            schema_version: 1,
            display_time_unit: Some("us".to_string()),
            trace_name: Some(self.name().to_string()),
            trace_events: self.events().iter().map(|e| to_raw(self, e)).collect(),
        };
        Ok(serde_json::to_string(&raw)?)
    }

    /// Writes the JSON document to `writer`.
    ///
    /// # Errors
    /// Propagates I/O and serialization failures.
    pub fn write_json<W: Write>(&self, mut writer: W) -> Result<(), TraceParseError> {
        let s = self.to_json_string()?;
        writer.write_all(s.as_bytes())?;
        Ok(())
    }

    /// Parses a JSON document. Events with unknown categories are skipped
    /// (PyTorch traces contain many more categories than xMem consumes);
    /// each distinct name is interned once; events are re-sorted by
    /// timestamp.
    ///
    /// # Errors
    /// Returns [`TraceParseError::Json`] for malformed documents and
    /// [`TraceParseError::InvalidEvent`] for an event whose span ends past
    /// `u64::MAX` or whose byte count is `i64::MIN` (its size has no
    /// positive counterpart).
    pub fn from_json_str(s: &str) -> Result<Self, TraceParseError> {
        let raw: RawTrace = serde_json::from_str(s)?;
        let mut trace = Trace::new(raw.trace_name.unwrap_or_default());
        for (index, event) in raw.trace_events.into_iter().enumerate() {
            push_raw(&mut trace, index, event)?;
        }
        trace.sort_by_time();
        Ok(trace)
    }

    /// Reads and parses a JSON document from `reader`.
    ///
    /// # Errors
    /// Propagates I/O and parse failures.
    pub fn read_json<R: Read>(mut reader: R) -> Result<Self, TraceParseError> {
        let mut s = String::new();
        reader.read_to_string(&mut s)?;
        Trace::from_json_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    fn sample_trace() -> Trace {
        let mut t = Trace::new("job");
        let step = t.intern(&names::profiler_step(1));
        let module = t.intern(&names::nn_module("encoder.0"));
        let linear = t.intern("aten::linear");
        let memory = t.intern(names::MEMORY);
        t.push(TraceEvent::span(
            EventCategory::UserAnnotation,
            step,
            0,
            100,
        ));
        t.push(TraceEvent::span(
            EventCategory::PythonFunction,
            module,
            5,
            40,
        ));
        t.push(TraceEvent::span_with_seq(
            EventCategory::CpuOp,
            linear,
            6,
            30,
            7,
        ));
        t.push(TraceEvent::mem_alloc(memory, 8, 0xabc, 4096, -1));
        t.push(TraceEvent::mem_free(memory, 90, 0xabc, 4096, -1));
        t
    }

    #[test]
    fn roundtrip_preserves_events() {
        let t = sample_trace();
        let json = t.to_json_string().unwrap();
        let back = Trace::from_json_str(&json).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.name(), "job");
    }

    #[test]
    fn schema_uses_pytorch_arg_names() {
        let t = sample_trace();
        let json = t.to_json_string().unwrap();
        assert!(json.contains("\"Addr\""));
        assert!(json.contains("\"Bytes\""));
        assert!(json.contains("\"Device Id\""));
        assert!(json.contains("\"Sequence number\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn unknown_categories_are_skipped() {
        let json = r#"{
            "schemaVersion": 1,
            "traceEvents": [
                {"ph":"X","cat":"kernel","name":"sgemm","pid":1,"tid":1,"ts":0,"dur":5},
                {"ph":"X","cat":"cpu_op","name":"aten::add","pid":1,"tid":1,"ts":1,"dur":2}
            ]
        }"#;
        let t = Trace::from_json_str(json).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.name_of(&t.events()[0]), "aten::add");
        assert_eq!(t.names().len(), 1, "skipped events intern nothing");
    }

    #[test]
    fn malformed_document_is_an_error() {
        assert!(Trace::from_json_str("{\"traceEvents\": 5}").is_err());
        assert!(Trace::from_json_str("not json").is_err());
    }

    #[test]
    fn parser_sorts_by_time() {
        let json = r#"{
            "schemaVersion": 1,
            "traceEvents": [
                {"ph":"X","cat":"cpu_op","name":"late","pid":1,"tid":1,"ts":50,"dur":2},
                {"ph":"X","cat":"cpu_op","name":"early","pid":1,"tid":1,"ts":1,"dur":2}
            ]
        }"#;
        let t = Trace::from_json_str(json).unwrap();
        assert_eq!(t.name_of(&t.events()[0]), "early");
    }

    #[test]
    fn every_argument_survives_a_round_trip() {
        let json = r#"{"schemaVersion":1,"displayTimeUnit":"us","traceName":"gauges","traceEvents":[{"ph":"i","cat":"cpu_instant_event","name":"[memory]","pid":1,"tid":1,"ts":3,"args":{"Addr":18446744073709551615,"Bytes":-9223372036854775807,"Device Id":-2147483648,"Total Allocated":1,"Total Reserved":2,"Sequence number":3}},{"ph":"X","cat":"cpu_op","name":"aten::mm","pid":1,"tid":1,"ts":4,"dur":0,"args":{"Total Reserved":9}}]}"#;
        let t = Trace::from_json_str(json).unwrap();
        let a = &t.events()[0].args;
        assert_eq!(a.addr(), Some(u64::MAX));
        assert_eq!(a.bytes(), Some(-i64::MAX));
        assert_eq!(a.device(), Some(i32::MIN));
        assert_eq!(a.total_allocated(), Some(1));
        assert_eq!(a.total_reserved(), Some(2));
        assert_eq!(a.seq(), Some(3));
        assert_eq!(t.events()[1].args.total_reserved(), Some(9));
        assert_eq!(t.to_json_string().unwrap(), json);
    }

    #[test]
    fn unrepresentable_events_are_typed_errors() {
        let doc = |event: &str| {
            format!(
                r#"{{"schemaVersion":1,"traceEvents":[{{"ph":"X","cat":"cpu_op","name":"a","pid":1,"tid":1,"ts":0,"dur":1}},{event}]}}"#
            )
        };
        let overflowing_span = doc(
            r#"{"ph":"X","cat":"cpu_op","name":"b","pid":1,"tid":1,"ts":18446744073709551610,"dur":100}"#,
        );
        assert!(matches!(
            Trace::from_json_str(&overflowing_span),
            Err(TraceParseError::InvalidEvent { index: 1, .. })
        ));
        let unnegatable = doc(
            r#"{"ph":"i","cat":"cpu_instant_event","name":"[memory]","pid":1,"tid":1,"ts":0,"args":{"Addr":1,"Bytes":-9223372036854775808,"Device Id":-1}}"#,
        );
        let err = Trace::from_json_str(&unnegatable).unwrap_err();
        assert!(matches!(
            err,
            TraceParseError::InvalidEvent { index: 1, .. }
        ));
        assert!(err.to_string().contains("event 1"), "{err}");
        // The largest representable span end is accepted.
        let last = doc(
            r#"{"ph":"X","cat":"cpu_op","name":"b","pid":1,"tid":1,"ts":18446744073709551610,"dur":5}"#,
        );
        assert_eq!(Trace::from_json_str(&last).unwrap().end_us(), u64::MAX);
    }

    #[test]
    fn write_json_to_writer() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_json(&mut buf).unwrap();
        let back = Trace::read_json(&buf[..]).unwrap();
        assert_eq!(back.len(), t.len());
    }
}
