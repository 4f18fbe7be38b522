//! Structured span tracing with a deterministic in-memory collector.
//!
//! A [`Recorder`] collects the spans and metrics of **one sequential
//! activity** — one area, one frame loop, one benchmark run. Span order is
//! a per-recorder logical sequence number (`seq`), not wall-clock, so two
//! runs of the same seeded workload produce identical traces; wall-clock
//! durations ride along for the timing reports but are excluded from the
//! deterministic export.
//!
//! A recorder keeps a bounded trace: the newest [`SPAN_RING`] closed
//! spans, in a ring, plus a per-name `(count, wall_nanos)` aggregate of
//! every span it ever closed. A long-running service therefore holds the
//! same trace memory in its first minute and its tenth hour, and
//! [`crate::ObsReport::stage_totals`] still counts every span.
//!
//! Determinism rule: never share one recorder between threads that run
//! concurrently — give each concurrent activity its own recorder and merge
//! the snapshots (scopes with the same name merge canonically in
//! [`crate::ObsReport::from_scopes`]). The recorder is `Sync` so a scoped
//! thread *can* use one, but interleaved `seq` assignment would then
//! depend on scheduling.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{slot, MetricsSnapshot};
use crate::report::{ScopeReport, StageStat};

/// Closed spans one recorder retains: the newest ones, oldest evicted
/// first. Every span, evicted or not, stays counted in the recorder's
/// per-name aggregate.
const SPAN_RING: usize = 1_024;

/// A span/field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl FieldValue {
    /// The unsigned value, when this is a `U64`.
    fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, when this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (see the taxonomy in DESIGN.md §8).
    pub name: String,
    /// Per-recorder open-order sequence number (the logical clock).
    pub seq: u64,
    /// `seq` of the enclosing span, when opened inside one.
    pub parent: Option<u64>,
    /// Nesting depth (0 = root).
    pub depth: u32,
    /// Caller-supplied logical timestamp (frame / round / iteration index).
    pub logical: Option<u64>,
    /// Wall-clock duration in nanoseconds (excluded from the deterministic
    /// export).
    pub wall_nanos: u64,
    /// Attached fields, in record order.
    pub fields: Vec<(String, FieldValue)>,
}

impl SpanRecord {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up an unsigned field by key.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(FieldValue::as_u64)
    }

    /// Looks up a boolean field by key.
    pub fn field_bool(&self, key: &str) -> Option<bool> {
        match self.field(key) {
            Some(FieldValue::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// Looks up a string field by key.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(FieldValue::Str(s)) => Some(s),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct RecorderState {
    /// How many closed spans `spans` keeps.
    ring: usize,
    next_seq: u64,
    /// The newest closed spans, in close order (at most `ring`).
    spans: VecDeque<SpanRecord>,
    /// Count and wall time of every span ever closed, by name.
    stage_totals: BTreeMap<String, StageStat>,
    metrics: MetricsSnapshot,
}

/// The in-memory collector for one scope (see module docs).
#[derive(Debug, Clone)]
pub struct Recorder {
    scope: Arc<str>,
    state: Arc<Mutex<RecorderState>>,
}

impl Recorder {
    /// A fresh recorder for the named scope.
    pub fn new(scope: &str) -> Self {
        Self::with_ring(scope, SPAN_RING)
    }

    /// A recorder that keeps its metrics and counts every span in its
    /// per-name totals, but retains no span records: for a loop that
    /// opens a span per message, where the totals are the useful part and
    /// a full ring would only be memory.
    pub fn totals_only(scope: &str) -> Self {
        Self::with_ring(scope, 0)
    }

    fn with_ring(scope: &str, ring: usize) -> Self {
        let state = RecorderState {
            ring,
            next_seq: 0,
            spans: VecDeque::new(),
            stage_totals: BTreeMap::new(),
            metrics: MetricsSnapshot::default(),
        };
        Recorder { scope: Arc::from(scope), state: Arc::new(Mutex::new(state)) }
    }

    /// The scope name.
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Adds `v` to a counter.
    pub fn counter_add(&self, name: &str, v: u64) {
        self.state.lock().expect("recorder poisoned").metrics.counter_add(name, v);
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.state.lock().expect("recorder poisoned").metrics.gauge_set(name, v);
    }

    /// Records a histogram observation (default buckets).
    pub fn observe(&self, name: &str, v: f64) {
        self.state.lock().expect("recorder poisoned").metrics.observe(name, v);
    }

    /// Records a histogram observation into buckets with the given
    /// strictly increasing upper bounds (used on first touch; later
    /// observations reuse them).
    pub fn observe_with(&self, name: &str, v: f64, bounds: &[f64]) {
        self.state.lock().expect("recorder poisoned").metrics.observe_with(name, v, bounds);
    }

    /// Opens a root span directly on this recorder (no TLS parenting; use
    /// [`crate::span`] inside [`crate::with_recorder`] for nested spans).
    pub fn span(&self, name: &str) -> SpanGuard {
        self.open(name, None, None, 0, false)
    }

    /// [`Recorder::span`] with a logical timestamp.
    pub fn span_at(&self, name: &str, logical: u64) -> SpanGuard {
        self.open(name, Some(logical), None, 0, false)
    }

    pub(crate) fn open(
        &self,
        name: &str,
        logical: Option<u64>,
        parent: Option<u64>,
        depth: u32,
        tls: bool,
    ) -> SpanGuard {
        let seq = {
            let mut st = self.state.lock().expect("recorder poisoned");
            let s = st.next_seq;
            st.next_seq += 1;
            s
        };
        SpanGuard(Some(OpenSpan {
            rec: self.clone(),
            name: name.to_string(),
            seq,
            parent,
            depth,
            logical,
            fields: Vec::new(),
            start: Instant::now(),
            tls,
        }))
    }

    /// Snapshot of everything recorded so far: the metrics, the per-name
    /// span totals, and the retained spans sorted by `seq`.
    pub fn snapshot(&self) -> ScopeReport {
        let st = self.state.lock().expect("recorder poisoned");
        let mut spans: Vec<SpanRecord> = st.spans.iter().cloned().collect();
        spans.sort_by_key(|s| s.seq);
        ScopeReport {
            scope: self.scope.to_string(),
            metrics: st.metrics.clone(),
            stage_totals: st.stage_totals.clone(),
            spans,
        }
    }

    fn finish(&self, record: SpanRecord) {
        let mut st = self.state.lock().expect("recorder poisoned");
        let total = slot(&mut st.stage_totals, &record.name, StageStat::default);
        total.count += 1;
        total.wall_nanos += u128::from(record.wall_nanos);
        if st.ring == 0 {
            return;
        }
        if st.spans.len() == st.ring {
            st.spans.pop_front();
        }
        st.spans.push_back(record);
    }
}

struct OpenSpan {
    rec: Recorder,
    name: String,
    seq: u64,
    parent: Option<u64>,
    depth: u32,
    logical: Option<u64>,
    fields: Vec<(String, FieldValue)>,
    start: Instant,
    tls: bool,
}

/// An open span; records itself on drop. Inert when tracing is off.
pub struct SpanGuard(Option<OpenSpan>);

impl SpanGuard {
    /// The inert guard handed out when no recorder is installed.
    pub(crate) fn noop() -> Self {
        SpanGuard(None)
    }

    /// Attaches a field to the span.
    pub fn record(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some(open) = &mut self.0 {
            open.fields.push((key.to_string(), value.into()));
        }
    }

    /// This span's sequence number (None when inert).
    pub fn seq(&self) -> Option<u64> {
        self.0.as_ref().map(|o| o.seq)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            let record = SpanRecord {
                name: open.name,
                seq: open.seq,
                parent: open.parent,
                depth: open.depth,
                logical: open.logical,
                wall_nanos: open.start.elapsed().as_nanos() as u64,
                fields: open.fields,
            };
            if open.tls {
                crate::pop_open(record.seq);
            }
            open.rec.finish(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_sequenced_in_open_order() {
        let rec = Recorder::new("t");
        {
            let _a = rec.span("outer");
            let _b = rec.span_at("inner", 7);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].name, "outer");
        assert_eq!(snap.spans[0].seq, 0);
        assert_eq!(snap.spans[1].name, "inner");
        assert_eq!(snap.spans[1].seq, 1);
        assert_eq!(snap.spans[1].logical, Some(7));
    }

    #[test]
    fn the_ring_keeps_the_newest_spans_and_the_totals_count_every_one() {
        let rec = Recorder::new("t");
        let closed = 10 * SPAN_RING;
        for i in 0..closed {
            let _sp = rec.span_at("s", i as u64);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), SPAN_RING);
        let first = (closed - SPAN_RING) as u64;
        assert_eq!(snap.spans[0].seq, first);
        assert_eq!(snap.spans.last().unwrap().seq, closed as u64 - 1);
        assert!(snap.spans.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        let report = crate::ObsReport::from_scopes(vec![snap]);
        assert_eq!(report.stage_totals()["s"].count, closed as u64);
    }

    #[test]
    fn a_totals_only_recorder_counts_spans_and_keeps_none() {
        let rec = Recorder::totals_only("t");
        for i in 0..3 * SPAN_RING {
            let _sp = rec.span_at("s", i as u64);
        }
        rec.counter_add("c", 2);
        let snap = rec.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.metrics.counter("c"), 2);
        assert_eq!(snap.stage_totals["s"].count, 3 * SPAN_RING as u64);
    }

    #[test]
    fn fields_attach_and_read_back() {
        let rec = Recorder::new("t");
        {
            let mut sp = rec.span("s");
            sp.record("n", 3u64);
            sp.record("ok", true);
            sp.record("tag", "x");
        }
        let sp = &rec.snapshot().spans[0];
        assert_eq!(sp.field_u64("n"), Some(3));
        assert_eq!(sp.field("ok"), Some(&FieldValue::Bool(true)));
        assert_eq!(sp.field("tag").and_then(FieldValue::as_str), Some("x"));
        assert_eq!(sp.field("absent"), None);
    }
}
