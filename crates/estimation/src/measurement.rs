//! The measurement model.
//!
//! The paper's data sources are "power flow-injections and voltage
//! magnitudes", plus phasor data where PMUs are installed (§II). Each
//! measurement carries its standard deviation; WLS weights are `1/σ²`.

use serde::{Deserialize, Serialize};

/// Which side of a branch a flow measurement is taken at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowSide {
    /// Metering at the from terminal.
    From,
    /// Metering at the to terminal.
    To,
}

/// The physical quantity a measurement observes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MeasurementKind {
    /// SCADA voltage magnitude at a bus (p.u.).
    Vmag { bus: usize },
    /// Active power injection at a bus (p.u.).
    Pinj { bus: usize },
    /// Reactive power injection at a bus (p.u.).
    Qinj { bus: usize },
    /// Active power flow on a branch (p.u.).
    Pflow { branch: usize, side: FlowSide },
    /// Reactive power flow on a branch (p.u.).
    Qflow { branch: usize, side: FlowSide },
    /// PMU voltage magnitude at a bus (p.u.) — higher accuracy than SCADA.
    PmuVmag { bus: usize },
    /// PMU voltage angle at a bus (radians), synchronized to the global
    /// reference — this is what lets distributed estimators share a frame.
    PmuAngle { bus: usize },
}

impl MeasurementKind {
    /// The bus this measurement is physically attached to (the from/to bus
    /// for flow measurements).
    pub fn site(&self, branches: &[pgse_grid::Branch]) -> usize {
        match *self {
            MeasurementKind::Vmag { bus }
            | MeasurementKind::Pinj { bus }
            | MeasurementKind::Qinj { bus }
            | MeasurementKind::PmuVmag { bus }
            | MeasurementKind::PmuAngle { bus } => bus,
            MeasurementKind::Pflow { branch, side } | MeasurementKind::Qflow { branch, side } => {
                let br = &branches[branch];
                match side {
                    FlowSide::From => br.from,
                    FlowSide::To => br.to,
                }
            }
        }
    }

    /// True for PMU (synchrophasor) measurements.
    fn is_pmu(&self) -> bool {
        matches!(
            self,
            MeasurementKind::PmuVmag { .. } | MeasurementKind::PmuAngle { .. }
        )
    }
}

/// One measurement: a kind, the telemetered value, and its accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// What is measured.
    pub kind: MeasurementKind,
    /// Telemetered value (p.u., or radians for angles).
    pub value: f64,
    /// Standard deviation of the measurement error.
    pub sigma: f64,
}

impl Measurement {
    /// Creates a measurement.
    ///
    /// # Panics
    /// Panics if `sigma` is not strictly positive.
    pub fn new(kind: MeasurementKind, value: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "measurement sigma must be positive");
        Measurement { kind, value, sigma }
    }

    /// WLS weight `1/σ²`.
    pub fn weight(&self) -> f64 {
        1.0 / (self.sigma * self.sigma)
    }
}

/// An ordered collection of measurements for one (sub)network.
///
/// Every row carries an *active* flag. An inactive row keeps its place —
/// and so the Jacobian and gain sparsity patterns — but is weightless: the
/// estimator writes its `H` row as zeros, skips its `h(x)`, and counts it
/// in no degree of freedom. That is how a rejected measurement, a row lost
/// to an RTU outage, or a restoration pseudo row not in use is expressed
/// without changing the shape of the problem (DESIGN.md §15).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MeasurementSet {
    measurements: Vec<Measurement>,
    /// Per-row activity; empty means every row is active (the common case
    /// costs nothing), otherwise one flag per row.
    #[serde(default)]
    active: Vec<bool>,
}

impl PartialEq for MeasurementSet {
    fn eq(&self, other: &Self) -> bool {
        self.measurements == other.measurements
            && (0..self.len()).all(|i| self.is_active(i) == other.is_active(i))
    }
}

impl MeasurementSet {
    /// An empty set.
    pub fn new() -> Self {
        MeasurementSet { measurements: Vec::new(), active: Vec::new() }
    }

    /// Adds an active measurement.
    pub fn push(&mut self, m: Measurement) {
        self.measurements.push(m);
        if !self.active.is_empty() {
            self.active.push(true);
        }
    }

    /// Adds a measurement that holds its row but carries no weight until
    /// [`MeasurementSet::activate`]d.
    pub fn push_inactive(&mut self, m: Measurement) {
        self.measurements.push(m);
        self.active.resize(self.measurements.len() - 1, true);
        self.active.push(false);
    }

    /// Number of rows, active or not.
    pub fn len(&self) -> usize {
        self.measurements.len()
    }

    /// Whether row `i` carries weight.
    pub fn is_active(&self, i: usize) -> bool {
        self.active.get(i).copied().unwrap_or(true)
    }

    /// Number of active rows — what degrees of freedom and redundancy
    /// count.
    pub fn n_active(&self) -> usize {
        self.len() - self.active.iter().filter(|&&a| !a).count()
    }

    /// Makes row `i` weightless; its place in the set is kept.
    pub fn deactivate(&mut self, i: usize) {
        assert!(i < self.len(), "deactivate: row {i} out of range");
        self.active.resize(self.len(), true);
        self.active[i] = false;
    }

    /// Gives row `i` its weight back.
    pub fn activate(&mut self, i: usize) {
        assert!(i < self.len(), "activate: row {i} out of range");
        if let Some(a) = self.active.get_mut(i) {
            *a = true;
        }
    }

    /// Mutable access to row `i`'s measurement (its kind should not change:
    /// the set's structure is what cached patterns are keyed on).
    pub fn get_mut(&mut self, i: usize) -> &mut Measurement {
        &mut self.measurements[i]
    }

    /// True when no measurements are present.
    pub fn is_empty(&self) -> bool {
        self.measurements.is_empty()
    }

    /// Slice access.
    pub fn as_slice(&self) -> &[Measurement] {
        &self.measurements
    }

    /// The telemetered value vector `z`.
    pub fn values(&self) -> Vec<f64> {
        self.measurements.iter().map(|m| m.value).collect()
    }

    /// The WLS weight vector `diag(R⁻¹)`; an inactive row weighs zero.
    pub fn weights(&self) -> Vec<f64> {
        let mut w = Vec::with_capacity(self.len());
        self.weights_into(&mut w);
        w
    }

    /// [`MeasurementSet::weights`] into `w`, reusing its allocation.
    pub(crate) fn weights_into(&self, w: &mut Vec<f64>) {
        w.clear();
        let rows = self.measurements.iter().enumerate();
        w.extend(rows.map(|(i, m)| if self.is_active(i) { m.weight() } else { 0.0 }));
    }

    /// Removes the row at `idx`, shifting every later row down.
    pub fn remove(&mut self, idx: usize) -> Measurement {
        if !self.active.is_empty() {
            self.active.remove(idx);
        }
        self.measurements.remove(idx)
    }

    /// Active rows, in order, with their indices.
    fn active_rows(&self) -> impl Iterator<Item = (usize, &Measurement)> {
        self.measurements.iter().enumerate().filter(|(i, _)| self.is_active(*i))
    }

    /// Count of active PMU measurements.
    pub fn n_pmu(&self) -> usize {
        self.active_rows().filter(|(_, m)| m.kind.is_pmu()).count()
    }

    /// Measurement redundancy `m / s` over active rows for a state
    /// dimension `s`.
    pub fn redundancy(&self, state_dim: usize) -> f64 {
        self.n_active() as f64 / state_dim as f64
    }

    /// Retains only measurements for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(&Measurement) -> bool) {
        if self.active.is_empty() {
            self.measurements.retain(keep);
            return;
        }
        let mut i = 0;
        let active = std::mem::take(&mut self.active);
        self.measurements.retain(|m| {
            let k = keep(m);
            if k {
                self.active.push(active[i]);
            }
            i += 1;
            k
        });
    }

    /// Approximate serialized size in bytes, used by the communication model
    /// when the architecture ships pseudo measurements between estimators.
    pub fn wire_size(&self) -> usize {
        // kind tag + indices + value + sigma, conservatively 32 bytes each.
        32 * self.len()
    }

    /// Places `scan` onto this *layout*: a copy of `self` whose first
    /// `rows` rows take the values and σ of the scan rows of the same kind,
    /// in order, and are inactive where the scan has no such row. Rows from
    /// `rows` on keep the layout's own values and activity. `None` when the
    /// scan is not a subsequence of the layout's first `rows` kinds.
    ///
    /// One pass over both sets: a scan that lost rows in flight (an RTU
    /// outage sheds whole sites) is still an ordered subsequence of the
    /// telemetry plan it was generated from.
    pub fn overlay(&self, scan: &MeasurementSet, rows: usize) -> Option<MeasurementSet> {
        let mut out = self.clone();
        let mut next = scan.as_slice().iter().peekable();
        for j in 0..rows {
            match next.peek() {
                Some(m) if m.kind == out.measurements[j].kind => {
                    out.measurements[j] = **m;
                    out.activate(j);
                    next.next();
                }
                _ => out.deactivate(j),
            }
        }
        next.peek().is_none().then_some(out)
    }
}

impl FromIterator<Measurement> for MeasurementSet {
    fn from_iter<T: IntoIterator<Item = Measurement>>(iter: T) -> Self {
        MeasurementSet { measurements: iter.into_iter().collect(), active: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_is_inverse_variance() {
        let m = Measurement::new(MeasurementKind::Vmag { bus: 0 }, 1.0, 0.5);
        assert!((m.weight() - 4.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sigma_rejected() {
        Measurement::new(MeasurementKind::Vmag { bus: 0 }, 1.0, 0.0);
    }

    #[test]
    fn set_accumulates_and_reports() {
        let mut set = MeasurementSet::new();
        assert!(set.is_empty());
        set.push(Measurement::new(MeasurementKind::Pinj { bus: 1 }, 0.3, 0.01));
        set.push(Measurement::new(MeasurementKind::PmuAngle { bus: 0 }, 0.0, 0.001));
        assert_eq!(set.len(), 2);
        assert_eq!(set.values(), vec![0.3, 0.0]);
        assert_eq!(set.n_pmu(), 1);
        assert!(set.active_rows().any(|(_, m)| matches!(m.kind, MeasurementKind::PmuAngle { .. })));
        assert!((set.redundancy(4) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn site_resolves_flow_measurements() {
        let branches = vec![pgse_grid::Branch::line(3, 7, 0.01, 0.1, 0.0)];
        let from = MeasurementKind::Pflow { branch: 0, side: FlowSide::From };
        let to = MeasurementKind::Qflow { branch: 0, side: FlowSide::To };
        assert_eq!(from.site(&branches), 3);
        assert_eq!(to.site(&branches), 7);
        assert_eq!(MeasurementKind::Vmag { bus: 5 }.site(&branches), 5);
    }

    #[test]
    fn remove_drops_by_index() {
        let mut set: MeasurementSet = [
            Measurement::new(MeasurementKind::Vmag { bus: 0 }, 1.0, 0.01),
            Measurement::new(MeasurementKind::Vmag { bus: 1 }, 1.1, 0.01),
        ]
        .into_iter()
        .collect();
        let removed = set.remove(0);
        assert!(matches!(removed.kind, MeasurementKind::Vmag { bus: 0 }));
        assert_eq!(set.len(), 1);
    }

    fn three() -> MeasurementSet {
        [
            Measurement::new(MeasurementKind::Vmag { bus: 0 }, 1.0, 0.5),
            Measurement::new(MeasurementKind::Pinj { bus: 1 }, 0.3, 0.01),
            Measurement::new(MeasurementKind::PmuAngle { bus: 0 }, 0.0, 0.001),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn an_inactive_row_keeps_its_place_and_weighs_nothing() {
        let mut set = three();
        assert_eq!(set.n_active(), 3);
        set.deactivate(2);
        assert_eq!(set.len(), 3);
        assert_eq!(set.n_active(), 2);
        assert_eq!(set.weights(), vec![4.0, 1e4, 0.0]);
        assert!(!set
            .active_rows()
            .any(|(_, m)| matches!(m.kind, MeasurementKind::PmuAngle { .. })));
        assert_eq!(set.n_pmu(), 0);
        assert!((set.redundancy(2) - 1.0).abs() < 1e-15);
        // A pushed row is active; an explicitly inactive one is not.
        set.push(Measurement::new(MeasurementKind::Vmag { bus: 2 }, 1.0, 0.5));
        set.push_inactive(Measurement::new(MeasurementKind::Vmag { bus: 3 }, 1.0, 0.5));
        assert_eq!((set.len(), set.n_active()), (5, 3));
        // Removal and retention keep the flags aligned with their rows.
        set.remove(0);
        assert!(!set.is_active(1) && !set.is_active(3));
        set.retain(|m| !matches!(m.kind, MeasurementKind::Pinj { .. }));
        assert_eq!((set.len(), set.n_active()), (3, 1));
        assert!(!set.is_active(0) && set.is_active(1) && !set.is_active(2));
        set.activate(0);
        assert_eq!(set.n_active(), 2);
    }

    #[test]
    fn equality_compares_activity_not_its_representation() {
        let mut a = three();
        let b = three();
        a.deactivate(1);
        assert_ne!(a, b);
        a.activate(1);
        assert_eq!(a, b, "an all-active mask equals no mask");
    }

    #[test]
    fn overlay_places_a_short_scan_and_rejects_a_foreign_one() {
        let mut layout = three();
        layout.push_inactive(Measurement::new(MeasurementKind::Vmag { bus: 0 }, 1.0, 0.1));
        let scan: MeasurementSet = [
            Measurement::new(MeasurementKind::Vmag { bus: 0 }, 1.02, 0.5),
            Measurement::new(MeasurementKind::PmuAngle { bus: 0 }, 0.1, 0.001),
        ]
        .into_iter()
        .collect();
        let placed = layout.overlay(&scan, 3).unwrap();
        assert_eq!(placed.len(), 4);
        assert!(placed.is_active(0) && !placed.is_active(1) && placed.is_active(2));
        assert!(!placed.is_active(3), "rows past the scan keep the layout's activity");
        assert_eq!(placed.as_slice()[2].value, 0.1);
        // A full scan fills every row.
        assert_eq!(layout.overlay(&three(), 3).unwrap().n_active(), 3);
        // A row the plan never emits does not align.
        let foreign: MeasurementSet =
            [Measurement::new(MeasurementKind::Qinj { bus: 9 }, 0.0, 0.01)].into_iter().collect();
        assert!(layout.overlay(&foreign, 3).is_none());
    }

    #[test]
    fn the_mask_survives_serialization_and_defaults_to_all_active() {
        let mut set = three();
        set.deactivate(1);
        let c = serde::Serialize::to_content(&set);
        let back: MeasurementSet = serde::Deserialize::from_content(&c).unwrap();
        assert_eq!(back, set);
        // A set serialized before rows had flags reads back all active.
        let legacy = match c {
            serde::Content::Map(m) => {
                serde::Content::Map(m.into_iter().filter(|(k, _)| k != "active").collect())
            }
            other => panic!("a set serializes as a map, got {other:?}"),
        };
        let old: MeasurementSet = serde::Deserialize::from_content(&legacy).unwrap();
        assert_eq!(old, three());
    }

    #[test]
    fn wire_size_scales_with_count() {
        let mut set = MeasurementSet::new();
        for i in 0..10 {
            set.push(Measurement::new(MeasurementKind::Vmag { bus: i }, 1.0, 0.01));
        }
        assert_eq!(set.wire_size(), 320);
    }
}
