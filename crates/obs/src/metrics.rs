//! Mergeable metrics: counters, gauges and fixed-bucket histograms.
//!
//! A [`MetricsSnapshot`] is the value type everything else builds on: each
//! per-area/per-thread recorder owns one, and snapshots combine with
//! [`MetricsSnapshot::merge`], which is **associative and commutative** —
//! folding N per-worker snapshots yields the same totals regardless of
//! grouping or order (the property `crates/obs/tests/props.rs` pins).
//!
//! Metric names starting with [`VOLATILE_PREFIX`] mark quantities that are
//! *not* reproducible run-to-run (e.g. relay counters that trail delivery
//! by a few frames); the deterministic JSON export drops them.

use std::collections::BTreeMap;

/// Prefix marking metrics whose value may differ between two runs of the
/// same seed (timing races, trailing counters). They are kept in the full
/// [`crate::ObsReport::to_json`] export but excluded from
/// [`crate::ObsReport::to_json_deterministic`].
pub const VOLATILE_PREFIX: &str = "volatile.";

/// Default histogram bucket upper bounds — tuned for iteration counts and
/// other small-cardinality pipeline quantities.
const DEFAULT_BUCKETS: &[f64] =
    &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0];

/// A last-writer-wins gauge. Merging keeps the value with the most
/// updates (ties broken by the larger value), which makes the merge a
/// max under a total order — associative and commutative.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Gauge {
    /// Last value set.
    pub value: f64,
    /// How many times the gauge was set.
    pub updates: u64,
}

impl Gauge {
    fn dominates(&self, other: &Gauge) -> bool {
        self.updates > other.updates
            || (self.updates == other.updates && self.value.total_cmp(&other.value).is_gt())
    }
}

/// A fixed-bucket histogram: `counts[i]` counts observations `v` with
/// `bounds[i-1] < v <= bounds[i]`; the final slot is the overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (`+inf` while empty).
    pub min: f64,
    /// Largest observation (`-inf` while empty).
    pub max: f64,
}

impl Histogram {
    /// A histogram over the given strictly increasing upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries, overflow last).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Index of the bucket `v` falls into.
    pub fn bucket_index(&self, v: f64) -> usize {
        self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len())
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let i = self.bucket_index(v);
        self.counts[i] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Both histograms must share bounds (all
    /// same-named histograms in this workspace do).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram merge: bound mismatch");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Upper-bound estimate of the `q`-quantile (`0 < q <= 1`): the upper
    /// bound of the bucket containing the ⌈q·count⌉-th observation (for
    /// the overflow bucket, the observed maximum). `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(if i < self.bounds.len() { self.bounds[i] } else { self.max });
            }
        }
        Some(self.max)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(DEFAULT_BUCKETS)
    }
}

/// A mergeable snapshot of one recorder's metrics. Updates look a name up
/// by `&str` and copy it only when the metric is first recorded, so a
/// metric's steady-state update does not allocate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotone counters, summed on merge.
    pub counters: BTreeMap<String, u64>,
    /// Gauges; merge keeps the most-updated value.
    pub gauges: BTreeMap<String, Gauge>,
    /// Histograms; merge adds bucket counts elementwise.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `v` to the named counter.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *slot(&mut self.counters, name, || 0) += v;
    }

    /// Current value of the named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        let g = slot(&mut self.gauges, name, Gauge::default);
        g.value = v;
        g.updates += 1;
    }

    /// Records an observation into the named histogram (default buckets).
    pub fn observe(&mut self, name: &str, v: f64) {
        slot(&mut self.histograms, name, Histogram::default).observe(v);
    }

    /// Records an observation into the named histogram with explicit
    /// bucket bounds (used on first touch; later observations reuse them).
    pub fn observe_with(&mut self, name: &str, v: f64, bounds: &[f64]) {
        slot(&mut self.histograms, name, || Histogram::new(bounds)).observe(v);
    }

    /// Folds `other` into `self` (associative and commutative; see module
    /// docs).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, g) in &other.gauges {
            match self.gauges.get_mut(k) {
                Some(mine) if mine.dominates(g) => {}
                Some(mine) => *mine = *g,
                None => {
                    self.gauges.insert(k.clone(), *g);
                }
            }
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }
}

/// The entry for `name`, looked up by `&str`: the key is allocated only
/// when the entry is first created.
pub(crate) fn slot<'m, V>(
    map: &'m mut BTreeMap<String, V>,
    name: &str,
    new: impl FnOnce() -> V,
) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), new());
    }
    map.get_mut(name).expect("inserted above")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_on_merge() {
        let mut a = MetricsSnapshot::new();
        a.counter_add("x", 2);
        let mut b = MetricsSnapshot::new();
        b.counter_add("x", 3);
        b.counter_add("y", 1);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.counter("absent"), 0);
    }

    #[test]
    fn gauge_merge_keeps_most_updated() {
        let mut a = MetricsSnapshot::new();
        a.gauge_set("g", 1.0);
        a.gauge_set("g", 2.0);
        let mut b = MetricsSnapshot::new();
        b.gauge_set("g", 99.0);
        a.merge(&b);
        assert_eq!(a.gauges["g"].value, 2.0);
        assert_eq!(a.gauges["g"].updates, 2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        assert_eq!(h.quantile(0.5), None);
        for v in [0.5, 3.0, 4.0, 50.0, 1e6] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[1, 2, 1, 1]);
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1e6);
        // rank 3 of 5 lands in the (1, 10] bucket.
        assert_eq!(h.quantile(0.5), Some(10.0));
        // The top observation sits in the overflow bucket → observed max.
        assert_eq!(h.quantile(1.0), Some(1e6));
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new(&[1.0, 10.0]);
        a.observe(0.5);
        let mut b = Histogram::new(&[1.0, 10.0]);
        b.observe(5.0);
        b.observe(20.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.count, 3);
    }
}
