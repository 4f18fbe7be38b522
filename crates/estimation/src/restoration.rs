//! Observability restoration.
//!
//! When telemetry loss leaves state variables unobserved (an RTU outage, a
//! dropped PMU feed — the failure scenarios Bose et al. \[6\] exercise), the
//! estimator can be kept runnable by adding *pseudo measurements* drawn
//! from the last good estimate or from forecasts, with deliberately large
//! σ so they carry almost no weight wherever real telemetry exists.
//!
//! A streaming estimator keeps one measurement layout per area, so the
//! pseudo rows restoration may need live in a *superset* appended to the
//! layout at deploy ([`append_pseudo_superset`]): one angle pin per bus with
//! an angle state and one magnitude pin per bus, inactive until used.
//! [`place_pseudo`] moves what [`restore`] appended onto those rows, so a
//! restored frame solves on the same Jacobian and gain patterns as a clean
//! one.

use pgse_grid::{Network, Ybus};

use crate::jacobian::StateSpace;
use crate::measurement::{Measurement, MeasurementKind, MeasurementSet};
use crate::observability::{check, Observability};

/// What restoration did.
#[derive(Debug, Clone)]
pub struct RestorationReport {
    /// Pseudo measurements appended (indices into the returned set).
    pub added: Vec<usize>,
    /// Observability after restoration.
    pub after: Observability,
}

/// Standard deviation given to restoration pseudo measurements: large
/// enough that any real measurement dominates them.
const PSEUDO_SIGMA_VM: f64 = 0.1;
/// Angle pseudo-measurement deviation (radians).
const PSEUDO_SIGMA_VA: f64 = 0.2;

/// Restores observability of `set` on `net` by appending weak pseudo
/// measurements at the untouched state variables, using the prior profile
/// `(vm0, va0)` (e.g. the previous frame's estimate, or flat values).
///
/// Returns the augmented set and a report; if the set was already
/// observable it is returned unchanged. Every branch of `net` counts as in
/// service; [`restore_on`] takes the matrix of a switched grid.
pub fn restore(
    net: &Network,
    set: &MeasurementSet,
    space: &StateSpace,
    vm0: &[f64],
    va0: &[f64],
) -> (MeasurementSet, RestorationReport) {
    restore_on(net, &Ybus::new(net), set, space, vm0, va0)
}

/// [`restore`] with observability judged on `ybus`, an admittance matrix
/// of `net` (see [`check`]).
pub fn restore_on(
    net: &Network,
    ybus: &Ybus,
    set: &MeasurementSet,
    space: &StateSpace,
    vm0: &[f64],
    va0: &[f64],
) -> (MeasurementSet, RestorationReport) {
    let before = check(net, ybus, set, space);
    if before.observable {
        return (set.clone(), RestorationReport { added: Vec::new(), after: before });
    }
    let mut augmented = set.clone();
    let mut added = Vec::new();

    // Structural holes: pin each untouched state variable directly.
    let n = net.n_buses();
    for bus in 0..n {
        if let Some(col) = space.angle_pos(bus) {
            if before.untouched_states.contains(&col) {
                added.push(augmented.len());
                augmented.push(Measurement::new(
                    MeasurementKind::PmuAngle { bus },
                    va0[bus],
                    PSEUDO_SIGMA_VA,
                ));
            }
        }
        let vcol = space.mag_pos(bus);
        if before.untouched_states.contains(&vcol) {
            added.push(augmented.len());
            augmented.push(Measurement::new(
                MeasurementKind::Vmag { bus },
                vm0[bus],
                PSEUDO_SIGMA_VM,
            ));
        }
    }

    // Numerical rank deficiency without structural holes (e.g. a missing
    // angle reference): anchor the frame at bus 0, then keep adding weak
    // full-state anchors at successive buses until the gain matrix is SPD.
    let mut bus = 0usize;
    let mut after = check(net, ybus, &augmented, space);
    while !after.observable && bus < n {
        if let Some(_col) = space.angle_pos(bus) {
            added.push(augmented.len());
            augmented.push(Measurement::new(
                MeasurementKind::PmuAngle { bus },
                va0[bus],
                PSEUDO_SIGMA_VA,
            ));
        }
        added.push(augmented.len());
        augmented.push(Measurement::new(
            MeasurementKind::Vmag { bus },
            vm0[bus],
            PSEUDO_SIGMA_VM,
        ));
        after = check(net, ybus, &augmented, space);
        bus += 1;
    }
    (augmented, RestorationReport { added, after })
}

/// Appends the inactive pseudo-measurement superset to `set`: per bus, a
/// [`MeasurementKind::PmuAngle`] pin when `space` has an angle state for
/// it, then a [`MeasurementKind::Vmag`] pin. Every row touches one state,
/// so the superset adds only diagonal entries to the gain pattern.
pub fn append_pseudo_superset(set: &mut MeasurementSet, space: &StateSpace) {
    for bus in 0..space.n_buses() {
        if space.angle_pos(bus).is_some() {
            set.push_inactive(Measurement::new(
                MeasurementKind::PmuAngle { bus },
                0.0,
                PSEUDO_SIGMA_VA,
            ));
        }
        set.push_inactive(Measurement::new(MeasurementKind::Vmag { bus }, 1.0, PSEUDO_SIGMA_VM));
    }
}

/// Places pseudo measurements (what [`restore`] appended) onto the
/// superset rows of `set` that start at row `superset_start`: each row of
/// the same kind takes the value and σ and becomes active. A row asked for
/// twice carries the combined information of both — weights summed, value
/// weight-averaged — which is what two identical-kind rows contribute to
/// the normal equations.
///
/// # Panics
/// When a pseudo measurement has no superset row (a kind restoration never
/// emits, or a superset built for another state space).
pub fn place_pseudo(
    set: &mut MeasurementSet,
    superset_start: usize,
    pseudo: impl IntoIterator<Item = Measurement>,
) {
    for m in pseudo {
        let slot = (superset_start..set.len())
            .find(|&i| set.as_slice()[i].kind == m.kind)
            .unwrap_or_else(|| panic!("no superset row for pseudo measurement {:?}", m.kind));
        if set.is_active(slot) {
            let old = set.as_slice()[slot];
            let w = old.weight() + m.weight();
            let value = (old.weight() * old.value + m.weight() * m.value) / w;
            *set.get_mut(slot) = Measurement::new(m.kind, value, w.sqrt().recip());
        } else {
            *set.get_mut(slot) = m;
            set.activate(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::TelemetryPlan;
    use crate::wls::{WlsEstimator, WlsOptions};
    use pgse_grid::cases::ieee14;
    use pgse_powerflow::{solve, PfOptions};

    fn truth() -> (pgse_grid::Network, pgse_powerflow::PfSolution) {
        let net = ieee14();
        let pf = solve(&net, &PfOptions::default()).unwrap();
        (net, pf)
    }

    #[test]
    fn observable_set_passes_through_unchanged() {
        let (net, pf) = truth();
        let set = TelemetryPlan::full(&net, vec![0]).generate(&net, &pf, 1.0, 1);
        let space = StateSpace::with_reference(14, 0);
        let (aug, report) = restore(&net, &set, &space, &pf.vm, &pf.va);
        assert!(report.added.is_empty());
        assert_eq!(aug.len(), set.len());
        assert!(report.after.observable);
    }

    #[test]
    fn rtu_outage_is_restored_and_estimable() {
        let (net, pf) = truth();
        // Kill every measurement touching buses 9-13 (an RTU cluster).
        let dead: Vec<usize> = vec![9, 10, 11, 12, 13];
        let mut set = TelemetryPlan::full(&net, vec![0]).generate(&net, &pf, 1.0, 1);
        set.retain(|m| {
            let site = m.kind.site(&net.branches);
            let flows_into_dead = match m.kind {
                crate::measurement::MeasurementKind::Pflow { branch, .. }
                | crate::measurement::MeasurementKind::Qflow { branch, .. } => {
                    let br = &net.branches[branch];
                    dead.contains(&br.from) || dead.contains(&br.to)
                }
                crate::measurement::MeasurementKind::Pinj { bus }
                | crate::measurement::MeasurementKind::Qinj { bus } => {
                    // Injections at neighbours of dead buses involve them too.
                    dead.contains(&bus)
                        || net.branches.iter().any(|br| {
                            (br.from == bus && dead.contains(&br.to))
                                || (br.to == bus && dead.contains(&br.from))
                        })
                }
                _ => false,
            };
            !dead.contains(&site) && !flows_into_dead
        });
        let space = StateSpace::with_reference(14, 0);
        let before = check(&net, &Ybus::new(&net), &set, &space);
        assert!(!before.observable, "outage must break observability");

        // Restore from a flat prior.
        let vm0 = vec![1.0; 14];
        let va0 = vec![0.0; 14];
        let (aug, report) = restore(&net, &set, &space, &vm0, &va0);
        assert!(report.after.observable, "{:?}", report.after.reason);
        assert!(!report.added.is_empty());

        // The estimator now runs; observed buses stay accurate.
        let est = WlsEstimator::new(net.clone(), space, WlsOptions::default());
        let out = est.estimate(&aug).unwrap();
        for i in 0..9 {
            assert!((out.vm[i] - pf.vm[i]).abs() < 5e-3, "bus {i}");
        }
    }

    #[test]
    fn missing_reference_gets_anchored() {
        let (net, pf) = truth();
        // Full state space with no PMU: the angle frame is free.
        let set = TelemetryPlan::full(&net, vec![]).generate(&net, &pf, 1.0, 1);
        let space = StateSpace::full(14);
        assert!(!check(&net, &Ybus::new(&net), &set, &space).observable);
        let (aug, report) = restore(&net, &set, &space, &pf.vm, &pf.va);
        assert!(report.after.observable, "{:?}", report.after.reason);
        let est = WlsEstimator::new(net, space, WlsOptions::default());
        assert!(est.estimate(&aug).is_ok());
    }

    #[test]
    fn placed_pseudo_rows_estimate_like_appended_ones() {
        let (net, pf) = truth();
        let space = StateSpace::full(14);
        let mut set = TelemetryPlan::full(&net, vec![0]).generate(&net, &pf, 1.0, 1);
        let scan_len = set.len();
        let mut layout = set.clone();
        append_pseudo_superset(&mut layout, &space);
        assert_eq!(layout.len(), scan_len + 2 * 14);
        assert_eq!(layout.n_active(), scan_len);
        // Shed every row whose equation involves bus 12 or 13: an RTU
        // outage that leaves both unobserved.
        let dead = [12usize, 13];
        let touches = |b: usize| dead.contains(&b);
        set.retain(|m| match m.kind {
            MeasurementKind::Pflow { branch, .. } | MeasurementKind::Qflow { branch, .. } => {
                !touches(net.branches[branch].from) && !touches(net.branches[branch].to)
            }
            MeasurementKind::Pinj { bus } | MeasurementKind::Qinj { bus } => {
                !touches(bus)
                    && !net.branches.iter().any(|br| {
                        (br.from == bus && touches(br.to)) || (br.to == bus && touches(br.from))
                    })
            }
            _ => !touches(m.kind.site(&net.branches)),
        });
        let mut placed = layout.overlay(&set, scan_len).unwrap();
        assert_eq!(placed.n_active(), set.len());

        let (vm0, va0) = (vec![1.0; 14], vec![0.0; 14]);
        let (aug, report) = restore(&net, &set, &space, &vm0, &va0);
        let (masked_aug, masked_report) = restore(&net, &placed, &space, &vm0, &va0);
        assert!(!report.added.is_empty());
        assert_eq!(report.added.len(), masked_report.added.len());
        let pseudo = masked_report.added.iter().map(|&i| masked_aug.as_slice()[i]);
        place_pseudo(&mut placed, scan_len, pseudo);
        assert!(check(&net, &Ybus::new(&net), &placed, &space).observable);

        let est = WlsEstimator::new(net.clone(), space, WlsOptions::direct());
        let appended = est.estimate(&aug).unwrap();
        let in_place = est.estimate(&placed).unwrap();
        for i in 0..14 {
            assert!((appended.vm[i] - in_place.vm[i]).abs() < 1e-9, "vm[{i}]");
            assert!((appended.va[i] - in_place.va[i]).abs() < 1e-9, "va[{i}]");
        }
    }

    #[test]
    fn a_pseudo_row_asked_for_twice_sums_its_weights() {
        let space = StateSpace::full(2);
        let mut set = MeasurementSet::new();
        append_pseudo_superset(&mut set, &space);
        let pin = |v| Measurement::new(MeasurementKind::Vmag { bus: 1 }, v, PSEUDO_SIGMA_VM);
        place_pseudo(&mut set, 0, [pin(1.0), pin(1.1)]);
        assert_eq!(set.n_active(), 1);
        let row = set.as_slice()[3];
        assert!(matches!(row.kind, MeasurementKind::Vmag { bus: 1 }));
        assert!((row.weight() - 2.0 / (PSEUDO_SIGMA_VM * PSEUDO_SIGMA_VM)).abs() < 1e-9);
        assert!((row.value - 1.05).abs() < 1e-12);
    }

    #[test]
    fn pseudo_sigmas_are_weak() {
        // The pseudo measurements must be at least an order of magnitude
        // weaker than real telemetry so they never fight real data.
        assert!(PSEUDO_SIGMA_VM >= 10.0 * crate::synthetic::SigmaSet::default().vmag);
        assert!(PSEUDO_SIGMA_VA >= 10.0 * crate::synthetic::SigmaSet::default().pmu_angle);
    }
}
