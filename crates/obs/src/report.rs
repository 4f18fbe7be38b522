//! JSON export: the [`ObsReport`].
//!
//! An `ObsReport` is the merged view over every recorder's
//! [`ScopeReport`], sorted canonically by scope name. Two exports exist:
//!
//! * [`ObsReport::to_json`] — everything, wall-clock durations included;
//!   the per-stage breakdown the bench harness emits.
//! * [`ObsReport::to_json_deterministic`] — the logical-clock trace only:
//!   wall-clock durations, gauges, `volatile.*` metrics and `wall_*` span
//!   fields are dropped, so two runs of the same seed produce
//!   **byte-identical** output (a tested invariant).

use std::collections::BTreeMap;

use serde::Content;

use crate::metrics::{slot, MetricsSnapshot, VOLATILE_PREFIX};
use crate::trace::{FieldValue, SpanRecord};

/// Everything one recorder collected.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeReport {
    /// Scope name (e.g. `frame`, `area3`).
    pub scope: String,
    /// The scope's metrics.
    pub metrics: MetricsSnapshot,
    /// Count and wall time of every span the scope closed, by name —
    /// spans the recorder's ring has since evicted included.
    pub stage_totals: BTreeMap<String, StageStat>,
    /// The retained (most recently closed) spans, in `seq` order.
    pub spans: Vec<SpanRecord>,
}

/// Aggregate of all spans sharing a name (a pipeline stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStat {
    /// Number of spans.
    pub count: u64,
    /// Total wall-clock nanoseconds across them.
    pub wall_nanos: u128,
}

/// The merged observability report (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// Scope reports, sorted by scope name.
    pub scopes: Vec<ScopeReport>,
}

impl ObsReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the canonical report: scopes sorted by name, same-named
    /// scopes merged (metrics folded, spans concatenated in input order).
    pub fn from_scopes(scopes: Vec<ScopeReport>) -> Self {
        let mut merged: Vec<ScopeReport> = Vec::new();
        for s in scopes {
            match merged.iter_mut().find(|m| m.scope == s.scope) {
                Some(m) => {
                    m.metrics.merge(&s.metrics);
                    add_stage_totals(&mut m.stage_totals, &s.stage_totals);
                    m.spans.extend(s.spans);
                }
                None => merged.push(s),
            }
        }
        merged.sort_by(|a, b| a.scope.cmp(&b.scope));
        ObsReport { scopes: merged }
    }

    /// The named scope, when present.
    pub fn scope(&self, name: &str) -> Option<&ScopeReport> {
        self.scopes.iter().find(|s| s.scope == name)
    }

    /// A counter inside one scope (0 when absent).
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        self.scope(scope).map_or(0, |s| s.metrics.counter(name))
    }

    /// A counter summed across every scope.
    pub fn total_counter(&self, name: &str) -> u64 {
        self.scopes.iter().map(|s| s.metrics.counter(name)).sum()
    }

    /// Every span with the given name, as `(scope, span)` pairs in scope
    /// order.
    pub fn spans_named<'a>(&'a self, name: &str) -> Vec<(&'a str, &'a SpanRecord)> {
        self.scopes
            .iter()
            .flat_map(|s| {
                s.spans
                    .iter()
                    .filter(|sp| sp.name == name)
                    .map(move |sp| (s.scope.as_str(), sp))
            })
            .collect()
    }

    /// Per-stage aggregation: span name → count + total wall time. This is
    /// the "where does a cycle spend its time" table. It reads the scopes'
    /// aggregates, so it counts every span ever closed, not only the
    /// retained ones.
    pub fn stage_totals(&self) -> BTreeMap<String, StageStat> {
        let mut out: BTreeMap<String, StageStat> = BTreeMap::new();
        for s in &self.scopes {
            add_stage_totals(&mut out, &s.stage_totals);
        }
        out
    }

    /// Pretty JSON with wall-clock timings — the bench/report export.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&Doc(self.to_content(false)))
            .expect("obs report serializes")
    }

    /// Pretty JSON of the deterministic (logical-clock) trace only — two
    /// runs of the same seed produce byte-identical output.
    pub fn to_json_deterministic(&self) -> String {
        serde_json::to_string_pretty(&Doc(self.to_content(true)))
            .expect("obs report serializes")
    }

    fn to_content(&self, deterministic: bool) -> Content {
        let scopes = self
            .scopes
            .iter()
            .map(|s| scope_content(s, deterministic))
            .collect::<Vec<_>>();
        Content::Map(vec![("scopes".into(), Content::Seq(scopes))])
    }
}

/// Folds the per-name span totals `from` into `into`.
fn add_stage_totals(into: &mut BTreeMap<String, StageStat>, from: &BTreeMap<String, StageStat>) {
    for (name, st) in from {
        let total = slot(into, name, StageStat::default);
        total.count += st.count;
        total.wall_nanos += st.wall_nanos;
    }
}

/// `Content` pass-through so the serde_json shim can print a hand-built
/// tree (the derive shim cannot express this document's nested maps).
struct Doc(Content);

impl serde::Serialize for Doc {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

fn scope_content(s: &ScopeReport, det: bool) -> Content {
    let keep = |name: &str| !det || !name.starts_with(VOLATILE_PREFIX);
    let counters = s
        .metrics
        .counters
        .iter()
        .filter(|(k, _)| keep(k))
        .map(|(k, v)| (k.clone(), Content::U64(*v)))
        .collect();
    let histograms = s
        .metrics
        .histograms
        .iter()
        .filter(|(k, _)| keep(k))
        .map(|(k, h)| {
            (
                k.clone(),
                Content::Map(vec![
                    (
                        "bounds".into(),
                        Content::Seq(h.bounds().iter().map(|&b| Content::F64(b)).collect()),
                    ),
                    (
                        "counts".into(),
                        Content::Seq(h.counts().iter().map(|&c| Content::U64(c)).collect()),
                    ),
                    ("count".into(), Content::U64(h.count)),
                    ("sum".into(), Content::F64(h.sum)),
                ]),
            )
        })
        .collect();
    let mut map = vec![
        ("scope".into(), Content::Str(s.scope.clone())),
        ("counters".into(), Content::Map(counters)),
        ("histograms".into(), Content::Map(histograms)),
    ];
    if !det {
        let gauges = s
            .metrics
            .gauges
            .iter()
            .map(|(k, g)| {
                (
                    k.clone(),
                    Content::Map(vec![
                        ("value".into(), Content::F64(g.value)),
                        ("updates".into(), Content::U64(g.updates)),
                    ]),
                )
            })
            .collect();
        map.push(("gauges".into(), Content::Map(gauges)));
    }
    map.push((
        "spans".into(),
        Content::Seq(s.spans.iter().map(|sp| span_content(sp, det)).collect()),
    ));
    Content::Map(map)
}

fn span_content(sp: &SpanRecord, det: bool) -> Content {
    let mut map = vec![
        ("seq".into(), Content::U64(sp.seq)),
        ("name".into(), Content::Str(sp.name.clone())),
        (
            "parent".into(),
            sp.parent.map_or(Content::Null, Content::U64),
        ),
        ("depth".into(), Content::U64(u64::from(sp.depth))),
        (
            "logical".into(),
            sp.logical.map_or(Content::Null, Content::U64),
        ),
    ];
    if !det {
        map.push(("wall_nanos".into(), Content::U64(sp.wall_nanos)));
    }
    let fields = sp
        .fields
        .iter()
        .filter(|(k, _)| !det || !(k.starts_with("wall_") || k.starts_with(VOLATILE_PREFIX)))
        .map(|(k, v)| (k.clone(), field_content(v)))
        .collect::<Vec<_>>();
    if !fields.is_empty() {
        map.push(("fields".into(), Content::Map(fields)));
    }
    Content::Map(map)
}

fn field_content(v: &FieldValue) -> Content {
    match v {
        FieldValue::U64(x) => Content::U64(*x),
        FieldValue::I64(x) => Content::I64(*x),
        FieldValue::F64(x) => Content::F64(*x),
        FieldValue::Bool(x) => Content::Bool(*x),
        FieldValue::Str(x) => Content::Str(x.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample() -> ObsReport {
        let a = Recorder::new("area1");
        {
            let mut sp = a.span_at("area.step1", 1);
            sp.record("gn_iterations", 4u64);
        }
        a.counter_add("pcg.iterations", 17);
        a.counter_add("volatile.relay.frames", 3);
        a.gauge_set("noise", 0.8);
        let b = Recorder::new("frame");
        b.counter_add("mw.send.ok", 2);
        ObsReport::from_scopes(vec![a.snapshot(), b.snapshot()])
    }

    #[test]
    fn scopes_sort_and_query() {
        let r = sample();
        assert_eq!(r.scopes[0].scope, "area1");
        assert_eq!(r.scopes[1].scope, "frame");
        assert_eq!(r.counter("area1", "pcg.iterations"), 17);
        assert_eq!(r.total_counter("pcg.iterations"), 17);
        let spans = r.spans_named("area.step1");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].0, "area1");
        assert_eq!(spans[0].1.field_u64("gn_iterations"), Some(4));
        assert_eq!(r.stage_totals()["area.step1"].count, 1);
    }

    #[test]
    fn same_scope_merges() {
        let a = Recorder::new("x");
        a.counter_add("c", 1);
        let b = Recorder::new("x");
        b.counter_add("c", 2);
        let r = ObsReport::from_scopes(vec![a.snapshot(), b.snapshot()]);
        assert_eq!(r.scopes.len(), 1);
        assert_eq!(r.counter("x", "c"), 3);
    }

    #[test]
    fn deterministic_export_drops_volatile_and_wall() {
        let r = sample();
        let full = r.to_json();
        let det = r.to_json_deterministic();
        assert!(full.contains("wall_nanos"));
        assert!(full.contains("volatile.relay.frames"));
        assert!(full.contains("gauges"));
        assert!(!det.contains("wall_nanos"));
        assert!(!det.contains("volatile.relay.frames"));
        assert!(!det.contains("gauges"));
        assert!(det.contains("pcg.iterations"));
        assert!(det.contains("area.step1"));
    }
}
