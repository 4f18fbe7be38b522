//! Numerical observability analysis.
//!
//! A network is observable with a given measurement set when the gain
//! matrix `G = HᵀR⁻¹H`, evaluated at flat start, is positive definite.
//! We check that directly with the sparse Cholesky, and report which state
//! variables are touched by no measurement at all — the cheap structural
//! pre-check that catches most deployment mistakes (e.g. an area whose PMU
//! feed dropped).

use pgse_grid::{Network, Ybus};
use pgse_sparsela::SparseCholesky;

use crate::jacobian::{assemble_jacobian, StateSpace};
use crate::measurement::MeasurementSet;

/// Result of an observability check.
#[derive(Debug, Clone)]
pub struct Observability {
    /// Whether the WLS problem is solvable (gain matrix SPD).
    pub observable: bool,
    /// State-variable columns with no incident measurement (structural
    /// holes); indices into the state vector.
    pub untouched_states: Vec<usize>,
    /// Measurement redundancy `m / dim`.
    pub redundancy: f64,
    /// Human-readable reason when unobservable.
    pub reason: Option<String>,
}

/// Checks observability of `set` on `net`, with admittance matrix `ybus`,
/// under `space`. Only active rows count: an inactive row observes
/// nothing, and neither does a branch `ybus` holds open
/// ([`Ybus::with_branch_status`], a re-valued estimator's matrix).
pub fn check(
    net: &Network,
    ybus: &Ybus,
    set: &MeasurementSet,
    space: &StateSpace,
) -> Observability {
    let n = net.n_buses();
    let vm = vec![1.0; n];
    let va = vec![0.0; n];
    let h = assemble_jacobian(net, ybus, set, space, &vm, &va);

    // Structural pre-check: columns with no entries.
    let mut touched = vec![false; space.dim()];
    for r in 0..h.nrows() {
        let (cols, _) = h.row(r);
        for &c in cols {
            touched[c] = true;
        }
    }
    let untouched_states: Vec<usize> =
        (0..space.dim()).filter(|&c| !touched[c]).collect();
    let redundancy = set.redundancy(space.dim());

    if set.n_active() < space.dim() {
        return Observability {
            observable: false,
            untouched_states,
            redundancy,
            reason: Some(format!(
                "only {} measurements for {} states",
                set.n_active(),
                space.dim()
            )),
        };
    }
    if !untouched_states.is_empty() {
        return Observability {
            observable: false,
            untouched_states,
            redundancy,
            reason: Some("state variables with no incident measurement".into()),
        };
    }
    let gain = h.ata_weighted(&set.weights());
    match SparseCholesky::factor(&gain) {
        Ok(_) => Observability { observable: true, untouched_states, redundancy, reason: None },
        Err(e) => Observability {
            observable: false,
            untouched_states,
            redundancy,
            reason: Some(format!("gain matrix not positive definite: {e}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobian::StateSpace;
    use crate::synthetic::TelemetryPlan;
    use pgse_grid::cases::ieee14;
    use pgse_powerflow::{solve, PfOptions};

    #[test]
    fn full_telemetry_is_observable() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let set = TelemetryPlan::full(&net, vec![0]).generate(&net, &sol, 1.0, 1);
        let obs = check(&net, &Ybus::new(&net), &set, &StateSpace::with_reference(14, 0));
        assert!(obs.observable, "{:?}", obs.reason);
        assert!(obs.redundancy > 2.0);
        assert!(obs.untouched_states.is_empty());
    }

    #[test]
    fn too_few_measurements_fail_fast() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let mut plan = TelemetryPlan::full(&net, vec![]);
        plan.injection_buses.clear();
        plan.flow_branches_from.clear();
        let set = plan.generate(&net, &sol, 1.0, 1);
        let obs = check(&net, &Ybus::new(&net), &set, &StateSpace::with_reference(14, 0));
        assert!(!obs.observable);
        assert!(obs.reason.unwrap().contains("measurements for"));
    }

    #[test]
    fn missing_angle_reference_is_unobservable_in_full_space() {
        // Full state space (all angles unknown) without any PMU angle:
        // the gain matrix has the uniform-angle-shift null space.
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let set = TelemetryPlan::full(&net, vec![]).generate(&net, &sol, 1.0, 1);
        let obs = check(&net, &Ybus::new(&net), &set, &StateSpace::full(14));
        assert!(!obs.observable);
    }

    #[test]
    fn near_singular_gain_is_a_typed_verdict_not_a_panic_or_nan() {
        // The angle reference's *only* measurement — one PMU angle —
        // down-weighted to 1e-12: every state is structurally touched, but
        // the gain's smallest pivot sits far below `1e-10 · max|diag|`.
        use crate::measurement::{Measurement, MeasurementKind};
        use crate::wls::{StateEstimate, WlsError, WlsEstimator, WlsOptions};
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let mut set = TelemetryPlan::full(&net, vec![]).generate(&net, &sol, 1.0, 1);
        set.push(Measurement::new(MeasurementKind::PmuAngle { bus: 0 }, sol.va[0], 1e6));
        let obs = check(&net, &Ybus::new(&net), &set, &StateSpace::full(14));
        assert!(obs.untouched_states.is_empty());
        assert!(!obs.observable);
        assert!(obs.reason.unwrap().contains("not positive definite"));

        let est = WlsEstimator::new(net, StateSpace::full(14), WlsOptions::direct());
        let at_truth = StateEstimate {
            vm: sol.vm.clone(),
            va: sol.va.clone(),
            iterations: 0,
            objective: 0.0,
            residuals: vec![0.0; set.len()],
        };
        assert!(matches!(
            crate::baddata::normalized_residuals(&est, &set, &at_truth),
            Err(WlsError::NotObservable(_))
        ));
        assert!(matches!(est.estimate(&set), Err(WlsError::NotObservable(_))));
    }

    #[test]
    fn an_inactive_row_observes_nothing() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let mut set = TelemetryPlan::full(&net, vec![3]).generate(&net, &sol, 1.0, 1);
        let space = StateSpace::full(14);
        assert!(check(&net, &Ybus::new(&net), &set, &space).observable);
        // Deactivating the only angle reference leaves the frame free,
        // exactly as removing it would.
        let pmu_angle = set
            .as_slice()
            .iter()
            .position(|m| matches!(m.kind, crate::measurement::MeasurementKind::PmuAngle { .. }))
            .unwrap();
        set.deactivate(pmu_angle);
        let masked = check(&net, &Ybus::new(&net), &set, &space);
        set.remove(pmu_angle);
        let removed = check(&net, &Ybus::new(&net), &set, &space);
        assert!(!masked.observable && !removed.observable);
        assert_eq!(masked.redundancy, removed.redundancy);
    }

    #[test]
    fn pmu_anchoring_restores_observability_in_full_space() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let set = TelemetryPlan::full(&net, vec![3]).generate(&net, &sol, 1.0, 1);
        let obs = check(&net, &Ybus::new(&net), &set, &StateSpace::full(14));
        assert!(obs.observable, "{:?}", obs.reason);
    }
}
