//! Hierarchical (two-level) state estimation.
//!
//! The structure industry runs today (§I): each balancing authority
//! estimates its own subsystem, then a *reliability-coordinator* level
//! merges the solutions. Unlike the decentralized Step 2 — where each
//! subsystem re-evaluates its own boundary with neighbours' pseudo data —
//! the coordinator solves one **boundary system** spanning every tie line
//! at once: states of all boundary buses (and their first neighbours'
//! pseudo anchors), measured tie-line flows, and the subsystems' solutions
//! as pseudo measurements.
//!
//! This gives the architecture's hierarchical mode a real algorithm to
//! run, and an accuracy/latency comparison point against the decentralized
//! variant (the trade-off the paper's related work \[11\] discusses).

use pgse_estimation::jacobian::StateSpace;
use pgse_estimation::measurement::{FlowSide, Measurement, MeasurementKind, MeasurementSet};
use pgse_estimation::synthetic::SigmaSet;
use pgse_estimation::wls::{WlsError, WlsEstimator, WlsOptions};
use pgse_grid::{Branch, Bus, Network};
use pgse_powerflow::equations::branch_flows;
use pgse_powerflow::PfSolution;

use crate::decomposition::Decomposition;
use crate::estimator::AreaSolution;
use crate::pseudo::PseudoMeasurement;

/// The coordinator's boundary model: every boundary bus of every
/// subsystem, plus all tie lines.
pub struct Coordinator {
    /// The boundary network the coordinator estimates.
    boundary_net: Network,
    /// Global bus index of each coordinator-local bus.
    global_ids: Vec<usize>,
    /// Coordinator-local index per global bus (usize::MAX when absent).
    local_of: Vec<usize>,
    /// Tie-line truth flows (from-side, in coordinator branch order).
    tie_truth: Vec<(f64, f64)>,
    estimator: WlsEstimator,
}

impl Coordinator {
    /// Builds the coordinator model from the decomposition and the global
    /// operating point (tie-line metering comes from the field; here, from
    /// the solved power flow).
    pub fn new(
        net: &Network,
        decomp: &Decomposition,
        pf: &PfSolution,
        wls: WlsOptions,
    ) -> Self {
        // Coordinator buses: all boundary buses, globally indexed.
        let mut globals: Vec<usize> = decomp
            .areas
            .iter()
            .flat_map(|a| a.boundary.iter().map(|&l| a.global_ids[l]))
            .collect();
        globals.sort_unstable();
        globals.dedup();
        let mut local_of = vec![usize::MAX; net.n_buses()];
        for (l, &g) in globals.iter().enumerate() {
            local_of[g] = l;
        }
        let mut buses: Vec<Bus> = globals
            .iter()
            .map(|&g| {
                let mut b = net.buses[g].clone();
                b.area = 0;
                b
            })
            .collect();
        if !buses.iter().any(|b| b.kind == pgse_grid::BusKind::Slack) {
            buses[0].kind = pgse_grid::BusKind::Slack;
        }
        // Coordinator branches: the tie lines (both endpoints are boundary
        // buses by definition).
        let all_flows = branch_flows(net, &pf.vm, &pf.va);
        let mut branches = Vec::new();
        let mut tie_truth = Vec::new();
        for &k in &decomp.tie_lines {
            let br = &net.branches[k];
            branches.push(Branch {
                from: local_of[br.from],
                to: local_of[br.to],
                ..br.clone()
            });
            tie_truth.push((all_flows[k].p_from, all_flows[k].q_from));
        }
        let boundary_net = Network {
            name: "coordinator-boundary".into(),
            base_mva: net.base_mva,
            buses,
            branches,
        };
        let n = boundary_net.n_buses();
        let estimator = WlsEstimator::new(boundary_net.clone(), StateSpace::full(n), wls);
        Coordinator { boundary_net, global_ids: globals, local_of, tie_truth, estimator }
    }

    /// Number of boundary buses in the coordinator model.
    pub fn n_boundary_buses(&self) -> usize {
        self.boundary_net.n_buses()
    }

    /// The coordination solve: takes every subsystem's uploaded solution
    /// (as pseudo measurements) plus tie-line flow telemetry, and returns
    /// the reconciled boundary states keyed by global bus index.
    ///
    /// # Errors
    /// Propagates WLS failures.
    fn reconcile(
        &self,
        uploads: &[Vec<PseudoMeasurement>],
        noise_level: f64,
        seed: u64,
    ) -> Result<Vec<(usize, f64, f64)>, WlsError> {
        let mut sp = pgse_obs::span("hier.reconcile");
        sp.record("uploads", uploads.len());
        pgse_obs::counter_add("hier.reconciles", 1);
        let mut set = MeasurementSet::new();
        // Subsystem solutions at boundary buses anchor the solve.
        for batch in uploads {
            for p in batch {
                let l = self.local_of[p.global_bus];
                if l == usize::MAX {
                    continue; // sensitive-internal upload: outside the boundary model
                }
                set.push(Measurement::new(MeasurementKind::Vmag { bus: l }, p.vm, p.sigma_vm));
                set.push(Measurement::new(
                    MeasurementKind::PmuAngle { bus: l },
                    p.va,
                    p.sigma_va,
                ));
            }
        }
        // Tie-line flow telemetry sharpens the cross-boundary consistency.
        let sig = SigmaSet::default().flow * noise_level;
        let mut state = seed | 1;
        let mut gauss = move || {
            let mut x = state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            state = x;
            let u = ((x >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            let mut y = state;
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            state = y;
            let v = (y >> 11) as f64 / (1u64 << 53) as f64;
            (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
        };
        for (k, &(p, q)) in self.tie_truth.iter().enumerate() {
            set.push(Measurement::new(
                MeasurementKind::Pflow { branch: k, side: FlowSide::From },
                p + sig * gauss(),
                sig,
            ));
            set.push(Measurement::new(
                MeasurementKind::Qflow { branch: k, side: FlowSide::From },
                q + sig * gauss(),
                sig,
            ));
        }
        let out = self.estimator.estimate(&set)?;
        Ok(self
            .global_ids
            .iter()
            .enumerate()
            .map(|(l, &g)| (g, out.vm[l], out.va[l]))
            .collect())
    }
}

/// Runs the full two-level hierarchy: local Step-1 solutions are uploaded,
/// the coordinator reconciles the boundary, and the corrections are folded
/// back into each area's solution.
///
/// # Errors
/// Propagates WLS failures from either level.
pub fn reconcile_hierarchy(
    coordinator: &Coordinator,
    decomp: &Decomposition,
    step1: &[AreaSolution],
    uploads: &[Vec<PseudoMeasurement>],
    noise_level: f64,
    seed: u64,
) -> Result<Vec<AreaSolution>, WlsError> {
    let reconciled = coordinator.reconcile(uploads, noise_level, seed)?;
    let mut by_global = std::collections::HashMap::new();
    for (g, vm, va) in reconciled {
        by_global.insert(g, (vm, va));
    }
    Ok(decomp
        .areas
        .iter()
        .zip(step1)
        .map(|(info, sol)| {
            let mut updated = sol.clone();
            for &l in &info.boundary {
                if let Some(&(vm, va)) = by_global.get(&info.global_ids[l]) {
                    updated.vm[l] = vm;
                    updated.va[l] = va;
                }
            }
            updated
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::{decompose, DecompositionOptions};
    use crate::estimator::AreaEstimator;
    use pgse_estimation::wls::SolveCache;
    use pgse_grid::cases::ieee118_like;
    use pgse_powerflow::{solve, PfOptions};

    #[allow(clippy::type_complexity)]
    fn setup() -> (
        Network,
        PfSolution,
        Decomposition,
        Vec<AreaEstimator>,
        Vec<AreaSolution>,
        Vec<Vec<PseudoMeasurement>>,
    ) {
        let net = ieee118_like();
        let pf = solve(&net, &PfOptions::default()).unwrap();
        let decomp = decompose(&net, &DecompositionOptions::default());
        let estimators: Vec<AreaEstimator> = decomp
            .areas
            .iter()
            .map(|a| AreaEstimator::new(a.clone(), &net, &pf, WlsOptions::default()))
            .collect();
        let step1: Vec<AreaSolution> = estimators
            .iter()
            .map(|e| e.step1_cached(&e.generate_telemetry(1.0, 9), &mut SolveCache::new()).unwrap())
            .collect();
        let uploads: Vec<Vec<PseudoMeasurement>> = estimators
            .iter()
            .zip(&step1)
            .map(|(e, s)| e.export_pseudo(s))
            .collect();
        (net, pf, decomp, estimators, step1, uploads)
    }

    #[test]
    fn coordinator_model_covers_all_boundary_buses() {
        let (net, pf, decomp, _, _, _) = setup();
        let coord = Coordinator::new(&net, &decomp, &pf, WlsOptions::default());
        let expected: std::collections::HashSet<usize> = decomp
            .areas
            .iter()
            .flat_map(|a| a.boundary.iter().map(|&l| a.global_ids[l]))
            .collect();
        assert_eq!(coord.n_boundary_buses(), expected.len());
    }

    #[test]
    fn reconciliation_stays_close_to_truth() {
        let (net, pf, decomp, _, _, uploads) = setup();
        let coord = Coordinator::new(&net, &decomp, &pf, WlsOptions::default());
        let rec = coord.reconcile(&uploads, 1.0, 33).unwrap();
        for (g, vm, va) in rec {
            assert!((vm - pf.vm[g]).abs() < 1e-2, "bus {g} vm");
            assert!((va - pf.va[g]).abs() < 1e-2, "bus {g} va");
        }
    }

    #[test]
    fn hierarchy_updates_only_boundary_states() {
        let (net, pf, decomp, _, step1, uploads) = setup();
        let coord = Coordinator::new(&net, &decomp, &pf, WlsOptions::default());
        let merged =
            reconcile_hierarchy(&coord, &decomp, &step1, &uploads, 1.0, 33).unwrap();
        for (info, (before, after)) in decomp.areas.iter().zip(step1.iter().zip(&merged)) {
            for l in 0..before.vm.len() {
                if !info.boundary.contains(&l) {
                    assert_eq!(before.vm[l], after.vm[l], "area {} bus {l}", info.area);
                }
            }
        }
    }

    #[test]
    fn hierarchical_accuracy_is_comparable_to_step1() {
        let (net, pf, decomp, _, step1, uploads) = setup();
        let coord = Coordinator::new(&net, &decomp, &pf, WlsOptions::default());
        let merged =
            reconcile_hierarchy(&coord, &decomp, &step1, &uploads, 1.0, 33).unwrap();
        let boundary_err = |sols: &[AreaSolution]| -> f64 {
            let mut total = 0.0;
            let mut count = 0;
            for (info, sol) in decomp.areas.iter().zip(sols) {
                for &l in &info.boundary {
                    let g = info.global_ids[l];
                    total += (sol.va[l] - pf.va[g]).abs() + (sol.vm[l] - pf.vm[g]).abs();
                    count += 1;
                }
            }
            total / count as f64
        };
        let e1 = boundary_err(&step1);
        let e2 = boundary_err(&merged);
        assert!(e2 <= 1.5 * e1 + 1e-4, "hierarchy {e2} vs step1 {e1}");
    }
}
