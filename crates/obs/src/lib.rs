//! # pgse-obs — pipeline-wide deterministic observability.
//!
//! The measurement substrate of the prototype: every layer (WLS, the DSE
//! runner, the middleware, the cluster interface, the per-frame
//! orchestrator) records **spans** and **metrics** here instead of keeping
//! ad-hoc timers. The design goals, in order:
//!
//! 1. **Deterministic.** Traces order by per-recorder logical sequence
//!    numbers and carry logical timestamps (frame / round / iteration
//!    indices); wall-clock rides along but is excluded from the
//!    deterministic export. The same seeded workload yields byte-identical
//!    [`ObsReport::to_json_deterministic`] output — tests assert on traces
//!    without flaking.
//! 2. **Mergeable.** Each concurrent activity records into its own
//!    [`Recorder`]; snapshots combine associatively + commutatively
//!    ([`MetricsSnapshot::merge`], [`ObsReport::from_scopes`]), so
//!    per-area/per-thread collection needs no cross-thread coordination —
//!    the "lock-free-ish" property: contention-free by construction, with
//!    only an uncontended per-recorder mutex underneath.
//! 3. **Zero-cost when off.** Instrumented code calls the free functions
//!    ([`span`], [`counter_add`], …); without an installed recorder they
//!    are no-ops, so library crates stay instrumentation-free to callers
//!    that don't observe.
//!
//! ## Usage
//!
//! ```
//! use pgse_obs as obs;
//!
//! let rec = obs::Recorder::new("area0");
//! let report = obs::with_recorder(&rec, || {
//!     let mut sp = obs::span_at("area.step1", 1);
//!     obs::counter_add("wls.gn_iterations", 3);
//!     sp.record("gn_iterations", 3u64);
//!     drop(sp);
//!     obs::ObsReport::from_scopes(vec![rec.snapshot()])
//! });
//! assert_eq!(report.counter("area0", "wls.gn_iterations"), 3);
//! ```

use std::cell::RefCell;

pub mod metrics;
pub mod report;
pub mod trace;

pub use metrics::{Gauge, Histogram, MetricsSnapshot, VOLATILE_PREFIX};
pub use report::{ObsReport, ScopeReport, StageStat};
pub use trace::{FieldValue, Recorder, SpanGuard, SpanRecord};

thread_local! {
    /// The thread's installed recorder, if any.
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// `seq`s of the spans currently open via the TLS entry points, in
    /// nesting order (for parent/depth assignment).
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Installs `rec` as this thread's recorder for the duration of `f`. The
/// previous recorder (and its open-span nesting) is restored afterwards,
/// panics included.
pub fn with_recorder<R>(rec: &Recorder, f: impl FnOnce() -> R) -> R {
    struct Restore {
        prev: Option<Recorder>,
        prev_open: Vec<u64>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
            OPEN.with(|o| *o.borrow_mut() = std::mem::take(&mut self.prev_open));
        }
    }
    let _restore = Restore {
        prev: CURRENT.with(|c| c.borrow_mut().replace(rec.clone())),
        prev_open: OPEN.with(|o| std::mem::take(&mut *o.borrow_mut())),
    };
    f()
}

/// This thread's installed recorder, if any.
pub fn current() -> Option<Recorder> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Opens a span on the installed recorder, parented to the innermost open
/// TLS span. Inert (and free) when no recorder is installed.
pub fn span(name: &str) -> SpanGuard {
    open(name, None)
}

/// [`span`] with a logical timestamp (frame / round / iteration index).
pub fn span_at(name: &str, logical: u64) -> SpanGuard {
    open(name, Some(logical))
}

fn open(name: &str, logical: Option<u64>) -> SpanGuard {
    match current() {
        Some(rec) => OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            let guard = rec.open(name, logical, parent, o.len() as u32, true);
            o.push(guard.seq().expect("live recorder span has a seq"));
            guard
        }),
        None => SpanGuard::noop(),
    }
}

/// Pops `seq` from the TLS open-span stack (called by the guard's drop).
pub(crate) fn pop_open(seq: u64) {
    OPEN.with(|o| {
        let mut o = o.borrow_mut();
        if o.last() == Some(&seq) {
            o.pop();
        } else {
            // Out-of-order drop (guard moved out of its scope): remove
            // just this entry so siblings keep a sane parent chain.
            o.retain(|&s| s != seq);
        }
    });
}

/// Adds `v` to a counter on the installed recorder (no-op when none).
pub fn counter_add(name: &str, v: u64) {
    if let Some(rec) = current() {
        rec.counter_add(name, v);
    }
}

/// Sets a gauge on the installed recorder (no-op when none).
pub fn gauge_set(name: &str, v: f64) {
    if let Some(rec) = current() {
        rec.gauge_set(name, v);
    }
}

/// Records a histogram observation on the installed recorder (no-op when
/// none).
pub fn observe(name: &str, v: f64) {
    if let Some(rec) = current() {
        rec.observe(name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_functions_are_noops_without_a_recorder() {
        let mut sp = span("orphan");
        sp.record("x", 1u64);
        assert_eq!(sp.seq(), None);
        counter_add("c", 1);
        gauge_set("g", 1.0);
        observe("h", 1.0);
        assert!(current().is_none());
    }

    #[test]
    fn tls_spans_nest_with_parents_and_depth() {
        let rec = Recorder::new("t");
        with_recorder(&rec, || {
            let outer = span("outer");
            let outer_seq = outer.seq().unwrap();
            {
                let inner = span_at("inner", 3);
                assert_eq!(inner.seq(), Some(1));
            }
            let sibling = span("sibling");
            assert!(sibling.seq().unwrap() > outer_seq);
        });
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 3);
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.logical, Some(3));
        let sibling = snap.spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(sibling.parent, Some(0));
    }

    #[test]
    fn with_recorder_restores_the_previous_recorder() {
        let a = Recorder::new("a");
        let b = Recorder::new("b");
        with_recorder(&a, || {
            counter_add("c", 1);
            with_recorder(&b, || counter_add("c", 10));
            counter_add("c", 1);
        });
        assert!(current().is_none());
        assert_eq!(a.snapshot().metrics.counter("c"), 2);
        assert_eq!(b.snapshot().metrics.counter("c"), 10);
    }

    #[test]
    fn same_workload_same_logical_trace() {
        let run = || {
            let rec = Recorder::new("w");
            with_recorder(&rec, || {
                for i in 0..3u64 {
                    let mut sp = span_at("iter", i);
                    sp.record("i", i);
                    counter_add("iters", 1);
                }
            });
            ObsReport::from_scopes(vec![rec.snapshot()]).to_json_deterministic()
        };
        assert_eq!(run(), run());
    }
}
