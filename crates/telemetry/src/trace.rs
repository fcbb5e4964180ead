//! Structured tracing spans and events on the logical tick clock.
//!
//! A [`Telemetry`] handle is a cheap clone-able capability passed down
//! the stack (engine → controller → movement detector). Disabled
//! handles cost one branch per call, so instrumented hot paths stay
//! free when nobody is watching. Enabled handles share one sink and
//! one [`MetricsRegistry`].
//!
//! Records are stamped with the *logical* tick, never wall time, and
//! span ids are assigned from a deterministic per-run counter, so two
//! replays of the same seeded scenario emit byte-identical JSONL — a
//! property `scripts/ci.sh` enforces with `cmp`.
//!
//! # Span/event line schema (one JSON object per line)
//!
//! ```text
//! {"tick":T,"ev":"open","span":S,"parent":P,"name":N,"attrs":{...}}
//! {"tick":T,"ev":"close","span":S}
//! {"tick":T,"ev":"event","parent":P,"name":N,"attrs":{...}}
//! ```
//!
//! `parent` is omitted for roots; `attrs` values are JSON scalars or
//! arrays (non-finite floats become `null`).

use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::registry::MetricsRegistry;
use crate::render::{escape_json, fmt_f64};
use crate::slo::SloEngine;

/// Identifier of an open span, unique within one run.
///
/// Ids are handed out sequentially from 1 in emission order, which
/// makes them reproducible across replays of the same scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// An attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (ticks, counts, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered via shortest-roundtrip `Display`).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (rule names, labels).
    Str(String),
    /// Float vector (feature vectors, per-class margins).
    F64s(Vec<f64>),
    /// Integer vector (idle sets, stream indices).
    U64s(Vec<u64>),
}

impl Value {
    fn render(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::F64(v) => fmt_f64(*v),
            Value::Bool(v) => v.to_string(),
            Value::Str(s) => format!("\"{}\"", escape_json(s)),
            Value::F64s(vs) => {
                let parts: Vec<String> = vs.iter().map(|v| fmt_f64(*v)).collect();
                format!("[{}]", parts.join(","))
            }
            Value::U64s(vs) => {
                let parts: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                format!("[{}]", parts.join(","))
            }
        }
    }
}

/// What a trace record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span opened.
    Open,
    /// A span closed.
    Close,
    /// A point event.
    Event,
}

/// One structured trace record (one JSONL line).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Logical tick the record was emitted at.
    pub tick: u64,
    /// Open / close / event.
    pub kind: RecordKind,
    /// Span or event name (empty for closes).
    pub name: String,
    /// The span this record opens or closes.
    pub span: Option<SpanId>,
    /// Enclosing span, when any.
    pub parent: Option<SpanId>,
    /// Attribute key/value pairs, in emission order.
    pub attrs: Vec<(String, Value)>,
}

impl Record {
    /// Renders the record as its JSONL line (no trailing newline).
    pub fn render(&self) -> String {
        let mut s = format!("{{\"tick\":{}", self.tick);
        match self.kind {
            RecordKind::Open => {
                s.push_str(",\"ev\":\"open\"");
                if let Some(SpanId(id)) = self.span {
                    s.push_str(&format!(",\"span\":{id}"));
                }
            }
            RecordKind::Close => {
                s.push_str(",\"ev\":\"close\"");
                if let Some(SpanId(id)) = self.span {
                    s.push_str(&format!(",\"span\":{id}"));
                }
                s.push('}');
                return s;
            }
            RecordKind::Event => s.push_str(",\"ev\":\"event\""),
        }
        if let Some(SpanId(p)) = self.parent {
            s.push_str(&format!(",\"parent\":{p}"));
        }
        s.push_str(&format!(",\"name\":\"{}\"", escape_json(&self.name)));
        s.push_str(",\"attrs\":{");
        let parts: Vec<String> =
            self.attrs.iter().map(|(k, v)| format!("\"{}\":{}", escape_json(k), v.render())).collect();
        s.push_str(&parts.join(","));
        s.push_str("}}");
        s
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&Value> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

enum Sink {
    /// Metrics wanted, trace discarded.
    Null,
    /// Records kept in memory for programmatic inspection.
    Buffer(Vec<Record>),
    /// Records rendered straight to a JSONL writer.
    Writer(Box<dyn Write + Send>),
}

struct Inner {
    registry: MetricsRegistry,
    sink: Sink,
    next_span: u64,
    write_error: Option<io::Error>,
    /// An attached SLO engine sees every span tick, event and counter
    /// increment ([`Telemetry::set_slo`]).
    slo: Option<SloEngine>,
}

/// The shared telemetry capability. See the module docs.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.inner.is_some()).finish()
    }
}

impl Telemetry {
    /// A no-op handle: every call is a single branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Metrics are collected; span/event records are discarded.
    pub fn metrics_only() -> Self {
        Self::with_sink(Sink::Null)
    }

    /// Records are buffered in memory ([`records`](Self::records),
    /// [`trace_string`](Self::trace_string)).
    pub fn buffering() -> Self {
        Self::with_sink(Sink::Buffer(Vec::new()))
    }

    /// Records are rendered to `w` as JSONL as they are emitted.
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        Self::with_sink(Sink::Writer(w))
    }

    fn with_sink(sink: Sink) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Inner {
                registry: MetricsRegistry::new(),
                sink,
                next_span: 1,
                write_error: None,
                slo: None,
            }))),
        }
    }

    /// Whether this handle collects anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Inner>> {
        // A panic while holding the lock poisons it; telemetry must
        // never turn that into a second panic, so take the data as-is.
        self.inner.as_ref().map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Hands a record to the sink. The record is built only for a sink
    /// that keeps it, so a metrics-only handle allocates nothing here.
    fn emit(inner: &mut Inner, record: impl FnOnce() -> Record) {
        match &mut inner.sink {
            Sink::Null => {}
            Sink::Buffer(buf) => buf.push(record()),
            Sink::Writer(w) => {
                if inner.write_error.is_none() {
                    if let Err(e) = writeln!(w, "{}", record().render()) {
                        inner.write_error = Some(e);
                    }
                }
            }
        }
    }

    /// Opens a span at `tick`; returns its id, or `None` when
    /// disabled.
    pub fn span_open(
        &self,
        tick: u64,
        name: &str,
        parent: Option<SpanId>,
        attrs: &[(&str, Value)],
    ) -> Option<SpanId> {
        let mut inner = self.lock()?;
        if let Some(slo) = inner.slo.as_mut() {
            slo.advance(tick);
        }
        let id = SpanId(inner.next_span);
        inner.next_span += 1;
        Self::emit(&mut inner, || Record {
            tick,
            kind: RecordKind::Open,
            name: name.to_string(),
            span: Some(id),
            parent,
            attrs: attrs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        });
        Some(id)
    }

    /// Closes a previously opened span at `tick`.
    pub fn span_close(&self, tick: u64, span: SpanId) {
        if let Some(mut inner) = self.lock() {
            if let Some(slo) = inner.slo.as_mut() {
                slo.advance(tick);
            }
            Self::emit(&mut inner, || Record {
                tick,
                kind: RecordKind::Close,
                name: String::new(),
                span: Some(span),
                parent: None,
                attrs: Vec::new(),
            });
        }
    }

    /// Emits a point event at `tick`.
    pub fn event(&self, tick: u64, name: &str, parent: Option<SpanId>, attrs: &[(&str, Value)]) {
        if let Some(mut inner) = self.lock() {
            if let Some(slo) = inner.slo.as_mut() {
                slo.ingest_event(tick, name, attrs);
            }
            Self::emit(&mut inner, || Record {
                tick,
                kind: RecordKind::Event,
                name: name.to_string(),
                span: None,
                parent,
                attrs: attrs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            });
        }
    }

    /// Adds to a registry counter.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(mut inner) = self.lock() {
            inner.registry.counter_add(name, n);
            if let Some(slo) = inner.slo.as_mut() {
                slo.ingest_counter(name, n);
            }
        }
    }

    /// Sets a registry gauge.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(mut inner) = self.lock() {
            inner.registry.gauge_set(name, v);
        }
    }

    /// Records into a deterministic (tick-domain) histogram.
    pub fn histo_record(&self, name: &str, v: u64) {
        if let Some(mut inner) = self.lock() {
            inner.registry.histo_record(name, v);
        }
    }

    /// Records `n` samples of `v` into a wall-clock histogram
    /// (excluded from deterministic dumps); `n = 0` records nothing.
    pub fn histo_record_wall(&self, name: &str, v: u64, n: u64) {
        if let Some(mut inner) = self.lock() {
            inner.registry.histo_record_wall(name, v, n);
        }
    }

    /// Runs `f` against the registry (for reads); `None` when
    /// disabled.
    pub fn with_registry<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> Option<R> {
        let inner = self.lock()?;
        Some(f(&inner.registry))
    }

    /// Attaches an SLO engine: from now on every span tick, event and
    /// counter increment is routed into it. No-op when disabled.
    pub fn set_slo(&self, engine: SloEngine) {
        if let Some(mut inner) = self.lock() {
            inner.slo = Some(engine);
        }
    }

    /// Runs `f` against the attached SLO engine; `None` when disabled
    /// or no engine is attached.
    pub fn with_slo<R>(&self, f: impl FnOnce(&SloEngine) -> R) -> Option<R> {
        let inner = self.lock()?;
        inner.slo.as_ref().map(f)
    }

    /// The attached SLO engine's deterministic report; `None` when
    /// disabled or no engine is attached.
    pub fn slo_text(&self) -> Option<String> {
        self.with_slo(SloEngine::render_text)
    }

    /// JSON metrics dump; `None` when disabled.
    pub fn metrics_json(&self, include_wall: bool) -> Option<String> {
        self.with_registry(|r| r.to_json(include_wall))
    }

    /// Prometheus text exposition; `None` when disabled.
    pub fn prometheus_text(&self, include_wall: bool) -> Option<String> {
        self.with_registry(|r| r.prometheus_text(include_wall))
    }

    /// A copy of the buffered records (empty unless built with
    /// [`buffering`](Self::buffering)).
    pub fn records(&self) -> Vec<Record> {
        match self.lock() {
            Some(inner) => match &inner.sink {
                Sink::Buffer(buf) => buf.clone(),
                _ => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// The buffered trace rendered as JSONL (one record per line).
    pub fn trace_string(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }

    /// Flushes a writer sink and surfaces any deferred write error.
    pub fn flush(&self) -> io::Result<()> {
        if let Some(mut inner) = self.lock() {
            if let Some(e) = inner.write_error.take() {
                return Err(e);
            }
            if let Sink::Writer(w) = &mut inner.sink {
                return w.flush();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.span_open(0, "x", None, &[]), None);
        t.event(0, "y", None, &[]);
        t.counter_add("c", 1);
        assert_eq!(t.metrics_json(true), None);
        assert!(t.records().is_empty());
    }

    #[test]
    fn span_ids_are_sequential_and_lines_render() {
        let t = Telemetry::buffering();
        let a = t.span_open(5, "window", None, &[("st", Value::F64(1.5))]).unwrap();
        let b = t
            .span_open(6, "rule1", Some(a), &[("label", Value::Str("w3".into()))])
            .unwrap();
        t.event(6, "deauth", Some(b), &[("ws", Value::U64(3))]);
        t.span_close(7, b);
        t.span_close(8, a);
        assert_eq!(a, SpanId(1));
        assert_eq!(b, SpanId(2));
        let lines: Vec<String> = t.trace_string().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            "{\"tick\":5,\"ev\":\"open\",\"span\":1,\"name\":\"window\",\"attrs\":{\"st\":1.5}}"
        );
        assert_eq!(
            lines[1],
            "{\"tick\":6,\"ev\":\"open\",\"span\":2,\"parent\":1,\"name\":\"rule1\",\"attrs\":{\"label\":\"w3\"}}"
        );
        assert_eq!(
            lines[2],
            "{\"tick\":6,\"ev\":\"event\",\"parent\":2,\"name\":\"deauth\",\"attrs\":{\"ws\":3}}"
        );
        assert_eq!(lines[3], "{\"tick\":7,\"ev\":\"close\",\"span\":2}");
    }

    #[test]
    fn clones_share_one_sink_and_registry() {
        let t = Telemetry::buffering();
        let u = t.clone();
        t.span_open(0, "a", None, &[]);
        u.span_open(1, "b", None, &[]);
        u.counter_add("n", 2);
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.with_registry(|r| r.counter("n")), Some(2));
    }

    #[test]
    fn writer_sink_emits_jsonl() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared::default();
        let t = Telemetry::to_writer(Box::new(shared.clone()));
        t.event(3, "e", None, &[("k", Value::Bool(true))]);
        t.flush().unwrap();
        let bytes = shared.0.lock().unwrap().clone();
        let s = String::from_utf8(bytes).unwrap();
        assert_eq!(s, "{\"tick\":3,\"ev\":\"event\",\"name\":\"e\",\"attrs\":{\"k\":true}}\n");
    }

    #[test]
    fn non_finite_floats_render_null() {
        let t = Telemetry::buffering();
        t.event(0, "e", None, &[("x", Value::F64(f64::NAN)), ("v", Value::F64s(vec![1.0, f64::INFINITY]))]);
        let s = t.trace_string();
        assert!(s.contains("\"x\":null"), "{s}");
        assert!(s.contains("\"v\":[1,null]"), "{s}");
    }
}
