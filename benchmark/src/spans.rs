//! Harness-side spans for the traced pass.
//!
//! The benchmark records a span around every call it makes into a public
//! function of the crates: name, start, end, the span that caused it and
//! the operation it belongs to. Spans stay in memory for the whole pass
//! and are written to `benchmark/out/trace_<workload>.json` when the run
//! ends. A disabled tracer (`Tracer::off`) records nothing, so the
//! end-to-end pass and the traced pass share one code path and their
//! difference is the tracing overhead.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; `NO_PARENT` marks a root.
pub type SpanId = u32;
/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    /// Operation (frame, sweep, epoch) the span belongs to; spans of one
    /// operation share it.
    op: u64,
}

/// Collects spans from any thread of one pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

/// An open span; closing it records the end time.
#[must_use = "a span measures until `end` is called"]
#[derive(Debug)]
pub struct OpenSpan<'t> {
    tracer: &'t Tracer,
    id: SpanId,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span for operation `op` under `parent`.
    pub fn begin(&self, name: &'static str, parent: SpanId, op: u64) -> OpenSpan<'_> {
        let id = match &self.spans {
            None => NO_PARENT,
            Some(spans) => {
                let start_ns = self.now_ns();
                let mut spans = spans
                    .lock()
                    .expect("no thread panics while holding the span list");
                spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent,
                    op,
                });
                (spans.len() - 1) as SpanId
            }
        };
        OpenSpan { tracer: self, id }
    }

    /// Runs `f` inside a span.
    pub fn scoped<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, op);
        let out = f();
        span.end();
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans
            .as_ref()
            .map_or(0, |s| s.lock().expect("span list lock").len())
    }

    /// Writes the spans as JSON: a `names` table and one
    /// `[name, start_ns, end_ns, parent, op]` row per span (`parent` is
    /// the row index of the causing span, −1 for a root).
    ///
    /// # Errors
    /// The I/O error of creating the directory or writing the file.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        let spans = spans.lock().expect("span list lock");
        let mut names: Vec<&'static str> = Vec::new();
        let mut out = String::with_capacity(64 + spans.len() * 40);
        let mut rows = String::with_capacity(spans.len() * 40);
        for (i, sp) in spans.iter().enumerate() {
            let name_idx = names.iter().position(|n| *n == sp.name).unwrap_or_else(|| {
                names.push(sp.name);
                names.len() - 1
            });
            let parent = if sp.parent == NO_PARENT {
                -1
            } else {
                i64::from(sp.parent)
            };
            if i > 0 {
                rows.push(',');
            }
            rows.push_str(&format!(
                "\n[{name_idx},{},{},{parent},{}]",
                sp.start_ns, sp.end_ns, sp.op
            ));
        }
        out.push_str(&format!("{{\"workload\": \"{workload}\", \"names\": ["));
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{n}\""));
        }
        out.push_str("], \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"], \"spans\": [");
        out.push_str(&rows);
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl OpenSpan<'_> {
    /// The span's id, to parent further spans on.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Closes the span.
    pub fn end(self) {
        if let Some(spans) = &self.tracer.spans {
            let end_ns = self.tracer.now_ns();
            spans.lock().expect("span list lock")[self.id as usize].end_ns = end_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_nest_and_export_as_valid_json() {
        let t = Tracer::on();
        let root = t.begin("run", NO_PARENT, 0);
        let v = t.scoped("op", root.id(), 7, || 41 + 1);
        assert_eq!(v, 42);
        root.end();
        assert_eq!(t.len(), 2);

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit-test-spans");
        let path = dir.join("trace_unit.json");
        t.write_json(&path, "unit").unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("unit"));
        assert_eq!(doc.get("names").unwrap().items().len(), 2);
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 2);
        // The child row names row 0 as its parent and carries its op id.
        assert_eq!(spans[1].items()[3], json::Value::Number(0.0));
        assert_eq!(spans[1].items()[4], json::Value::Number(7.0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::off();
        t.scoped("op", NO_PARENT, 0, || ());
        assert_eq!(t.len(), 0);
    }
}
