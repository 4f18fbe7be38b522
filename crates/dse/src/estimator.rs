//! One subsystem's state estimator: local telemetry, Step 1, Step 2.

use pgse_estimation::jacobian::{live_branch_flows, StateSpace};
use pgse_estimation::measurement::{FlowSide, Measurement, MeasurementKind, MeasurementSet};
use pgse_estimation::restoration::append_pseudo_superset;
use pgse_estimation::synthetic::{SigmaSet, TelemetryPlan};
use pgse_estimation::wls::{SolveCache, WlsError, WlsEstimator, WlsOptions};
use pgse_grid::{Branch, Network};
use pgse_powerflow::equations::bus_injections;
use pgse_powerflow::PfSolution;

use crate::decomposition::AreaInfo;
use crate::pseudo::PseudoMeasurement;

/// A subsystem's estimation result (local bus indexing, global frame).
#[derive(Debug, Clone)]
pub struct AreaSolution {
    /// Estimated voltage magnitudes per local bus.
    pub vm: Vec<f64>,
    /// Estimated voltage angles per local bus.
    pub va: Vec<f64>,
    /// Gauss–Newton iterations the solve took (the paper's `Ni`).
    pub iterations: usize,
    /// WLS objective at the solution.
    pub objective: f64,
}

impl AreaSolution {
    /// Approximate wire/memory footprint of this solution — the state-side
    /// contribution to a failover checkpoint's size, used when pricing a
    /// redistribution plan (paper §IV-C ships raw area data between
    /// clusters; the streaming failover ships checkpoints the same way).
    pub fn approx_bytes(&self) -> u64 {
        ((self.vm.len() + self.va.len()) * std::mem::size_of::<f64>()
            + 2 * std::mem::size_of::<u64>()) as u64
    }
}

/// One incident tie line as seen from this area.
#[derive(Debug, Clone)]
struct IncidentTie {
    /// Branch index in the *extended* network.
    ext_branch: usize,
    /// Which side of that branch is metered (the local end).
    side: FlowSide,
    /// True flows at the metered side (from the global operating point).
    truth_p: f64,
    truth_q: f64,
}

/// A state estimator bound to one subsystem.
///
/// Holds two models: the local subnet (Step 1) and the one-hop extension
/// with neighbour boundary buses and tie lines (Step 2).
#[derive(Clone)]
pub struct AreaEstimator {
    /// The preliminary-step description of this area.
    pub info: AreaInfo,
    /// Local ground truth sampled from the global power flow.
    truth: PfSolution,
    /// Step-1 telemetry plan.
    plan: TelemetryPlan,
    /// Step-1 measurement layout: the plan's rows, then the inactive
    /// restoration pseudo superset.
    layout: MeasurementSet,
    /// Step-1 estimator (local subnet, PMU-anchored full state space).
    step1_est: WlsEstimator,
    /// Step-2 estimator on the extended network.
    step2_est: WlsEstimator,
    /// Global branch index of every extended-network branch: the subnet's
    /// branches, then the incident ties.
    global_branches: Vec<usize>,
    /// Extended-network bus count and mapping: global id → extended local
    /// index for the appended neighbour buses.
    ext_of_global: std::collections::HashMap<usize, usize>,
    /// Incident tie lines (metered at the local end).
    ties: Vec<IncidentTie>,
}

impl AreaEstimator {
    /// Builds the estimator for `info` against the global network and its
    /// solved operating point.
    pub fn new(
        info: AreaInfo,
        global_net: &Network,
        global_pf: &PfSolution,
        wls: WlsOptions,
    ) -> Self {
        let subnet = info.subnet.clone();
        let n_local = subnet.n_buses();

        // Step-1 telemetry: V everywhere, injections at *internal* buses
        // only (boundary injections involve tie-line flows outside the
        // local model), flows on every internal branch, PMU at the sites.
        let internal: Vec<usize> =
            (0..n_local).filter(|i| !info.boundary.contains(i)).collect();
        let plan = TelemetryPlan {
            vmag_all: true,
            injection_buses: internal,
            flow_branches_from: (0..subnet.n_branches()).collect(),
            flow_branches_to: Vec::new(),
            pmu_buses: info.pmu_sites.clone(),
            sigmas: SigmaSet::default(),
        };

        // Extended network: subnet + neighbour endpoints of incident ties.
        let mut ext_net = subnet.clone();
        let mut ext_of_global = std::collections::HashMap::new();
        let mut local_of_global = std::collections::HashMap::new();
        for (l, &g) in info.global_ids.iter().enumerate() {
            local_of_global.insert(g, l);
        }
        let mut global_branches = global_net.internal_branches(info.area);
        debug_assert_eq!(global_branches.len(), subnet.n_branches(), "info is of global_net");
        let mut ties = Vec::new();
        for (k, br) in global_net.branches.iter().enumerate() {
            let a_from = global_net.buses[br.from].area;
            let a_to = global_net.buses[br.to].area;
            if a_from == a_to || (a_from != info.area && a_to != info.area) {
                continue;
            }
            let (local_g, remote_g) =
                if a_from == info.area { (br.from, br.to) } else { (br.to, br.from) };
            let ext_remote = *ext_of_global.entry(remote_g).or_insert_with(|| {
                let idx = ext_net.buses.len();
                let mut bus = global_net.buses[remote_g].clone();
                bus.area = 1; // mark as foreign in the extended model
                ext_net.buses.push(bus);
                idx
            });
            // Preserve the branch's electrical orientation.
            let (ext_from, ext_to, side) = if a_from == info.area {
                (local_of_global[&local_g], ext_remote, FlowSide::From)
            } else {
                (ext_remote, local_of_global[&local_g], FlowSide::To)
            };
            let ext_branch = ext_net.branches.len();
            ext_net.branches.push(Branch { from: ext_from, to: ext_to, ..br.clone() });
            global_branches.push(k);
            ties.push(IncidentTie { ext_branch, side, truth_p: 0.0, truth_q: 0.0 });
        }

        let space = StateSpace::full(n_local);
        let mut layout = plan.layout(&subnet);
        append_pseudo_superset(&mut layout, &space);
        let step1_est = WlsEstimator::new(subnet, space, wls);
        let ext_n = ext_net.n_buses();
        let step2_est = WlsEstimator::new(ext_net, StateSpace::full(ext_n), wls);
        let mut est = AreaEstimator {
            info,
            truth: PfSolution::default(),
            plan,
            layout,
            step1_est,
            step2_est,
            global_branches,
            ext_of_global,
            ties,
        };
        est.set_truth(global_pf);
        est
    }

    /// This estimator re-valued for a switched grid: branch `k` of the
    /// global network is in service iff `closed[k]`, and `global_pf` is the
    /// switched grid's operating point. The area description, telemetry
    /// plan, measurement layout and Step-2 numbering are kept; both WLS
    /// models keep their patterns ([`WlsEstimator::with_branch_status`]), so
    /// every solve cache of this estimator stays valid on the copy.
    pub fn with_branch_status(&self, closed: &[bool], global_pf: &PfSolution) -> Self {
        let ext: Vec<bool> = self.global_branches.iter().map(|&k| closed[k]).collect();
        let n_sub = self.info.subnet.n_branches();
        let mut est = AreaEstimator {
            step1_est: self.step1_est.with_branch_status(&ext[..n_sub]),
            step2_est: self.step2_est.with_branch_status(&ext),
            ..self.clone()
        };
        est.set_truth(global_pf);
        est
    }

    /// Samples the ground truth from the global operating point: voltages
    /// are slices of it; injections and flows are recomputed on this
    /// estimator's own models (Step 1 for the local truth, Step 2 for the
    /// tie flows), so internal measurements are exactly consistent with
    /// them and an open branch carries nothing.
    fn set_truth(&mut self, global_pf: &PfSolution) {
        let n = self.info.global_ids.len();
        let ext_n = self.step2_est.network().n_buses();
        let (mut vm, mut va) = (vec![0.0; ext_n], vec![0.0; ext_n]);
        let globals = self.info.global_ids.iter().enumerate();
        for (l, &g) in globals.chain(self.ext_of_global.iter().map(|(g, e)| (*e, g))) {
            (vm[l], va[l]) = (global_pf.vm[g], global_pf.va[g]);
        }
        let w2 = &self.step2_est;
        let ext_flows = live_branch_flows(w2.network(), w2.ybus(), &vm, &va);
        for tie in &mut self.ties {
            let f = &ext_flows[tie.ext_branch];
            (tie.truth_p, tie.truth_q) = match tie.side {
                FlowSide::From => (f.p_from, f.q_from),
                FlowSide::To => (f.p_to, f.q_to),
            };
        }
        vm.truncate(n);
        va.truncate(n);
        let w1 = &self.step1_est;
        let (p_inj, q_inj) = bus_injections(w1.ybus(), &vm, &va);
        let flows = live_branch_flows(w1.network(), w1.ybus(), &vm, &va);
        self.truth = PfSolution { vm, va, p_inj, q_inj, flows, iterations: 0, mismatch: 0.0 };
    }

    /// The local ground truth (testing and error metrics).
    pub fn truth(&self) -> &PfSolution {
        &self.truth
    }

    /// The Step-1 WLS estimator — the hook point for post-solve bad-data
    /// analysis (chi-square gate, LNR identification) and observability
    /// restoration, which operate on the local subnet and state space.
    pub fn step1_estimator(&self) -> &WlsEstimator {
        &self.step1_est
    }

    /// Number of measurements a full, fault-free Step-1 scan carries —
    /// the telemetry plan's length on the local subnet. A shorter scan
    /// means telemetry was lost in flight (e.g. an RTU outage shed a
    /// site's measurements) and is the cheap trigger for an observability
    /// check before solving.
    pub fn scan_len(&self) -> usize {
        self.plan.len(self.step1_est.network())
    }

    /// The area's Step-1 measurement layout, fixed at construction: the
    /// telemetry plan's [`AreaEstimator::scan_len`] rows in scan order,
    /// then the inactive restoration pseudo superset
    /// ([`pgse_estimation::restoration::append_pseudo_superset`]) starting
    /// at row `scan_len`. Every frame of the area solves on this shape, so
    /// its Jacobian and gain patterns change only with the topology.
    pub fn step1_layout(&self) -> &MeasurementSet {
        &self.layout
    }

    /// Places a scan onto [`AreaEstimator::step1_layout`]: rows the scan
    /// lost in flight (an RTU outage) stay in place, inactive. `None` when
    /// the scan carries a row the plan does not emit, or out of order.
    pub fn place_scan(&self, scan: &MeasurementSet) -> Option<MeasurementSet> {
        self.layout.overlay(scan, self.scan_len())
    }

    /// Generates this area's telemetry scan for one time frame.
    pub fn generate_telemetry(&self, noise_level: f64, seed: u64) -> MeasurementSet {
        self.plan.generate(
            self.step1_est.network(),
            &self.truth,
            noise_level,
            seed ^ (self.info.area as u64).wrapping_mul(0x517c_c1b7_2722_0a95),
        )
    }

    /// The first Gauss–Newton gain system `(G, rhs)` of a Step-1 solve:
    /// `G = HᵀWH` and `rhs = HᵀWr` evaluated at the flat start, read off a
    /// freshly begun wave — exactly the linear system a cold
    /// [`AreaEstimator::step1_cached`] solves on its first iteration. Exposed so
    /// conformance tests and benchmarks can exercise the sparse solvers on
    /// *real* per-area gain matrices instead of synthetic ones.
    ///
    /// # Panics
    /// Panics when `set` leaves the area structurally unobservable.
    pub fn step1_gain_system(
        &self,
        set: &MeasurementSet,
    ) -> (pgse_sparsela::Csr, Vec<f64>) {
        let mut cache = SolveCache::new();
        let wave =
            self.step1_est.wave_begin(set, None, &mut cache).expect("observable measurement set");
        (wave.gain().clone(), wave.rhs().to_vec())
    }

    /// Opens a Gauss–Newton *wave* for a Step-1 solve: the caller drives
    /// the iteration loop and supplies each gain-system solution itself,
    /// which lets a streaming round solve the gain systems of same-pattern
    /// areas together as lanes of one batched factorization. The
    /// per-iteration numeric sequence is identical to
    /// [`AreaEstimator::step1_cached`], so a wave-driven solve is bitwise
    /// equal to the callback-driven one.
    ///
    /// # Errors
    /// Propagates WLS setup failures (length mismatch, structure build).
    pub fn step1_wave<'a>(
        &'a self,
        set: &'a MeasurementSet,
        cache: &'a mut SolveCache,
    ) -> Result<pgse_estimation::GnWave<'a>, WlsError> {
        self.step1_est.wave_begin(set, None, cache)
    }

    /// DSE Step 1: local WLS on the area's own measurements, through
    /// `cache`. The cache carries the symbolic structures and the factor
    /// across frames and warm-starts the solve from the previous frame's
    /// Step-1 solution; a new [`SolveCache`] gives the cold solve.
    ///
    /// # Errors
    /// Propagates WLS failures (unobservable area, solver breakdown).
    pub fn step1_cached(
        &self,
        set: &MeasurementSet,
        cache: &mut SolveCache,
    ) -> Result<AreaSolution, WlsError> {
        let est = self.step1_est.estimate_cached(set, None, cache)?;
        Ok(AreaSolution {
            vm: est.vm,
            va: est.va,
            iterations: est.iterations,
            objective: est.objective,
        })
    }

    /// Exports the boundary/sensitive solutions as pseudo measurements.
    pub fn export_pseudo(&self, sol: &AreaSolution) -> Vec<PseudoMeasurement> {
        self.info
            .exported_buses()
            .into_iter()
            .map(|l| PseudoMeasurement {
                from_area: self.info.area,
                global_bus: self.info.global_ids[l],
                vm: sol.vm[l],
                va: sol.va[l],
                sigma_vm: 0.003,
                sigma_va: 0.002,
            })
            .collect()
    }

    /// DSE Step 2: re-evaluates the boundary and sensitive states using the
    /// local measurements plus the neighbours' pseudo measurements on the
    /// one-hop-extended model, through `cache`. Buses outside the
    /// re-evaluated set keep their Step-1 solution. The warm start is
    /// explicit — Step 1 + the pseudo values — so a held cache gives bit
    /// for bit what a new one gives; it carries the symbolic structures
    /// and the factor they refresh, and rebuilds them when a missed
    /// neighbour batch changes the set's shape.
    ///
    /// # Errors
    /// Propagates WLS failures.
    pub fn step2_cached(
        &self,
        step1: &AreaSolution,
        neighbor_pseudo: &[PseudoMeasurement],
        local_set: &MeasurementSet,
        noise_level: f64,
        seed: u64,
        cache: &mut SolveCache,
    ) -> Result<AreaSolution, WlsError> {
        let (set, vm0, va0) =
            self.step2_inputs(step1, neighbor_pseudo, local_set, noise_level, seed);
        let est = self.step2_est.estimate_cached(&set, Some((&vm0, &va0)), cache)?;
        Ok(self.merge_step2(step1, &est.vm, &est.va, est.iterations, est.objective))
    }

    /// Builds the Step-2 measurement set (local scan + tie-line flows +
    /// neighbour pseudo measurements) and its warm-start profile.
    fn step2_inputs(
        &self,
        step1: &AreaSolution,
        neighbor_pseudo: &[PseudoMeasurement],
        local_set: &MeasurementSet,
        noise_level: f64,
        seed: u64,
    ) -> (MeasurementSet, Vec<f64>, Vec<f64>) {
        // Local measurements re-index unchanged: the extension appends
        // buses and branches after the local ones. Inactive local rows stay
        // inactive, so Step 2 keeps one shape too.
        let mut set = local_set.clone();
        // Tie-line flow telemetry at the local ends.
        let mut rng_state = seed
            ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.info.area as u64 + 1);
        let mut gauss = move || {
            // xorshift-based deterministic noise, adequate for σ-scaled
            // measurement perturbations.
            let mut x = rng_state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            rng_state = x;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            let mut y = rng_state;
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            rng_state = y;
            let v = (y >> 11) as f64 / (1u64 << 53) as f64;
            (-2.0 * u.max(1e-12).ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
        };
        let sig_flow = SigmaSet::default().flow * noise_level;
        for tie in &self.ties {
            set.push(Measurement::new(
                MeasurementKind::Pflow { branch: tie.ext_branch, side: tie.side },
                tie.truth_p + sig_flow * gauss(),
                sig_flow,
            ));
            set.push(Measurement::new(
                MeasurementKind::Qflow { branch: tie.ext_branch, side: tie.side },
                tie.truth_q + sig_flow * gauss(),
                sig_flow,
            ));
        }
        // Neighbour pseudo measurements at the appended buses.
        for p in neighbor_pseudo {
            if let Some(&ext) = self.ext_of_global.get(&p.global_bus) {
                set.push(Measurement::new(MeasurementKind::Vmag { bus: ext }, p.vm, p.sigma_vm));
                set.push(Measurement::new(
                    MeasurementKind::PmuAngle { bus: ext },
                    p.va,
                    p.sigma_va,
                ));
            }
        }

        // Warm-start the extended solve from Step 1 + the pseudo values.
        let ext_n = self.step2_est.network().n_buses();
        let mut vm0 = vec![1.0; ext_n];
        let mut va0 = vec![0.0; ext_n];
        vm0[..step1.vm.len()].copy_from_slice(&step1.vm);
        va0[..step1.va.len()].copy_from_slice(&step1.va);
        for p in neighbor_pseudo {
            if let Some(&ext) = self.ext_of_global.get(&p.global_bus) {
                vm0[ext] = p.vm;
                va0[ext] = p.va;
            }
        }
        (set, vm0, va0)
    }

    /// Merge: re-evaluated buses take the Step-2 values; the rest keep
    /// their Step-1 solution.
    fn merge_step2(
        &self,
        step1: &AreaSolution,
        est_vm: &[f64],
        est_va: &[f64],
        iterations: usize,
        objective: f64,
    ) -> AreaSolution {
        let mut vm = step1.vm.clone();
        let mut va = step1.va.clone();
        for l in self.info.exported_buses() {
            vm[l] = est_vm[l];
            va[l] = est_va[l];
        }
        AreaSolution { vm, va, iterations, objective }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::{decompose, DecompositionOptions};
    use pgse_grid::cases::ieee118_like;
    use pgse_powerflow::{solve, PfOptions};

    fn setup() -> (pgse_grid::Network, PfSolution, crate::decomposition::Decomposition) {
        let net = ieee118_like();
        let pf = solve(&net, &PfOptions::default()).unwrap();
        let d = decompose(&net, &DecompositionOptions::default());
        (net, pf, d)
    }

    #[test]
    fn step1_recovers_local_state() {
        let (net, pf, d) = setup();
        let est = AreaEstimator::new(d.areas[0].clone(), &net, &pf, WlsOptions::default());
        // Tiny noise: Step 1 must land very near the truth.
        let set = est.generate_telemetry(0.05, 7);
        let sol = est.step1_cached(&set, &mut SolveCache::new()).unwrap();
        for (l, &g) in est.info.global_ids.iter().enumerate() {
            assert!((sol.vm[l] - pf.vm[g]).abs() < 5e-3, "vm bus {g}");
            assert!((sol.va[l] - pf.va[g]).abs() < 5e-3, "va bus {g}");
        }
    }

    #[test]
    fn every_area_is_locally_observable() {
        let (net, pf, d) = setup();
        for info in &d.areas {
            let est = AreaEstimator::new(info.clone(), &net, &pf, WlsOptions::default());
            let set = est.generate_telemetry(1.0, 3);
            let sol = est.step1_cached(&set, &mut SolveCache::new());
            assert!(sol.is_ok(), "area {} failed: {:?}", info.area, sol.err());
        }
    }

    #[test]
    fn exported_pseudo_covers_gs_buses() {
        let (net, pf, d) = setup();
        let est = AreaEstimator::new(d.areas[2].clone(), &net, &pf, WlsOptions::default());
        let set = est.generate_telemetry(1.0, 1);
        let sol = est.step1_cached(&set, &mut SolveCache::new()).unwrap();
        let pseudo = est.export_pseudo(&sol);
        assert_eq!(pseudo.len(), est.info.gs());
        for p in &pseudo {
            assert_eq!(p.from_area, 2);
            assert!(est.info.global_ids.contains(&p.global_bus));
        }
    }

    #[test]
    fn step2_improves_boundary_accuracy() {
        let (net, pf, d) = setup();
        let estimators: Vec<AreaEstimator> = d
            .areas
            .iter()
            .map(|a| AreaEstimator::new(a.clone(), &net, &pf, WlsOptions::default()))
            .collect();
        let noise = 1.0;
        let sets: Vec<MeasurementSet> =
            estimators.iter().map(|e| e.generate_telemetry(noise, 11)).collect();
        let step1: Vec<AreaSolution> = estimators
            .iter()
            .zip(&sets)
            .map(|(e, s)| e.step1_cached(s, &mut SolveCache::new()).unwrap())
            .collect();
        let all_pseudo: Vec<Vec<PseudoMeasurement>> = estimators
            .iter()
            .zip(&step1)
            .map(|(e, s)| e.export_pseudo(s))
            .collect();

        // Area 4 (the best-connected) re-evaluates with its neighbours'
        // pseudo data.
        let a = 4usize;
        let mut inbox = Vec::new();
        for &nb in &estimators[a].info.neighbors {
            inbox.extend(all_pseudo[nb].iter().copied());
        }
        let s2 = estimators[a]
            .step2_cached(&step1[a], &inbox, &sets[a], noise, 13, &mut SolveCache::new())
            .unwrap();

        let err = |sol: &AreaSolution| -> f64 {
            estimators[a]
                .info
                .boundary
                .iter()
                .map(|&l| {
                    let g = estimators[a].info.global_ids[l];
                    (sol.va[l] - pf.va[g]).abs() + (sol.vm[l] - pf.vm[g]).abs()
                })
                .sum()
        };
        let e1 = err(&step1[a]);
        let e2 = err(&s2);
        // Step 2 must not blow up the boundary solution, and typically
        // tightens it (extra redundancy from ties + neighbours).
        assert!(e2 <= e1 * 1.5 + 1e-4, "step2 {e2} vs step1 {e1}");
        // Internal non-exported buses are untouched.
        for l in 0..step1[a].vm.len() {
            if !estimators[a].info.exported_buses().contains(&l) {
                assert_eq!(s2.vm[l], step1[a].vm[l]);
            }
        }
    }

    #[test]
    fn cached_steps_match_uncached() {
        let (net, pf, d) = setup();
        let estimators: Vec<AreaEstimator> = d
            .areas
            .iter()
            .map(|a| AreaEstimator::new(a.clone(), &net, &pf, WlsOptions::default()))
            .collect();
        let noise = 1.0;
        let sets: Vec<MeasurementSet> =
            estimators.iter().map(|e| e.generate_telemetry(noise, 11)).collect();
        let step1: Vec<AreaSolution> = estimators
            .iter()
            .zip(&sets)
            .map(|(e, s)| e.step1_cached(s, &mut SolveCache::new()).unwrap())
            .collect();
        let all_pseudo: Vec<Vec<PseudoMeasurement>> =
            estimators.iter().zip(&step1).map(|(e, s)| e.export_pseudo(s)).collect();

        let a = 4usize;
        let mut s1_cache = SolveCache::new();
        let s1c = estimators[a].step1_cached(&sets[a], &mut s1_cache).unwrap();
        for l in 0..step1[a].vm.len() {
            assert!((s1c.vm[l] - step1[a].vm[l]).abs() < 1e-7);
            assert!((s1c.va[l] - step1[a].va[l]).abs() < 1e-7);
        }

        let mut inbox = Vec::new();
        for &nb in &estimators[a].info.neighbors {
            inbox.extend(all_pseudo[nb].iter().copied());
        }
        let s2 = estimators[a]
            .step2_cached(&step1[a], &inbox, &sets[a], noise, 13, &mut SolveCache::new())
            .unwrap();
        let mut s2_cache = SolveCache::new();
        let s2c = estimators[a]
            .step2_cached(&step1[a], &inbox, &sets[a], noise, 13, &mut s2_cache)
            .unwrap();
        for l in 0..s2.vm.len() {
            assert!((s2c.vm[l] - s2.vm[l]).abs() < 1e-7);
            assert!((s2c.va[l] - s2.va[l]).abs() < 1e-7);
        }
        assert_eq!(s1_cache.symbolic_builds, 1);
        assert_eq!(s2_cache.symbolic_builds, 1);

        // A second frame through the same caches reuses the structures.
        let sets2: Vec<MeasurementSet> =
            estimators.iter().map(|e| e.generate_telemetry(noise, 12)).collect();
        estimators[a].step1_cached(&sets2[a], &mut s1_cache).unwrap();
        assert_eq!(s1_cache.symbolic_builds, 1);
        assert_eq!(s1_cache.symbolic_reuses, 1);
        assert_eq!(s1_cache.warm_solves, 1);
    }

    #[test]
    fn a_held_step2_cache_follows_a_changing_inbox_exactly() {
        let (net, pf, d) = setup();
        let ests: Vec<AreaEstimator> = d
            .areas
            .iter()
            .map(|a| AreaEstimator::new(a.clone(), &net, &pf, WlsOptions::default()))
            .collect();
        let a = 4usize;
        let lost = ests[a].info.neighbors[0];
        assert!(ests[a].info.neighbors.len() > 1);
        // One held cache through full → one-neighbour-missing → full →
        // full inboxes: a missed batch drops its pseudo rows, so the set
        // changes shape and the cache rebuilds once per change.
        let mut held = SolveCache::new();
        for (f, (missing, builds)) in
            [(None, 1), (Some(lost), 2), (None, 3), (None, 3)].into_iter().enumerate()
        {
            let seed = 30 + f as u64;
            let sets: Vec<MeasurementSet> =
                ests.iter().map(|e| e.generate_telemetry(1.0, seed)).collect();
            let step1: Vec<AreaSolution> = ests
                .iter()
                .zip(&sets)
                .map(|(e, s)| e.step1_cached(s, &mut SolveCache::new()).unwrap())
                .collect();
            let inbox: Vec<PseudoMeasurement> = (ests[a].info.neighbors.iter())
                .filter(|&&nb| Some(nb) != missing)
                .flat_map(|&nb| ests[nb].export_pseudo(&step1[nb]))
                .collect();
            let step2 = |cache: &mut SolveCache| {
                ests[a].step2_cached(&step1[a], &inbox, &sets[a], 1.0, seed, cache).unwrap()
            };
            let (h, fresh) = (step2(&mut held), step2(&mut SolveCache::new()));
            // The warm start is explicit, so the held cache is bit for bit
            // the fresh one.
            assert_eq!(h.iterations, fresh.iterations, "frame {f}");
            for (p, q) in h.vm.iter().chain(&h.va).zip(fresh.vm.iter().chain(&fresh.va)) {
                assert_eq!(p.to_bits(), q.to_bits(), "frame {f}");
            }
            assert_eq!(h.objective.to_bits(), fresh.objective.to_bits(), "frame {f}");
            assert_eq!(held.symbolic_builds, builds, "frame {f}");
        }
        assert_eq!(held.symbolic_reuses, 1);
    }

    #[test]
    fn gain_system_is_solvable_and_pattern_stable_across_frames() {
        let (net, pf, d) = setup();
        let est = AreaEstimator::new(d.areas[0].clone(), &net, &pf, WlsOptions::default());
        let set_a = est.generate_telemetry(1.0, 7);
        let set_b = est.generate_telemetry(1.0, 8);
        let (gain_a, rhs_a) = est.step1_gain_system(&set_a);
        let (gain_b, _) = est.step1_gain_system(&set_b);
        let dim = 2 * est.info.subnet.n_buses();
        assert_eq!(gain_a.nrows(), dim);
        assert_eq!(rhs_a.len(), dim);
        // Same telemetry plan → same Jacobian structure → the gain
        // matrices of successive frames share one sparsity pattern. That
        // is what lets the batched solver stack warm frames as lanes.
        assert_eq!(gain_a.row_ptr(), gain_b.row_ptr());
        assert_eq!(gain_a.col_idx(), gain_b.col_idx());
        // And each frame's system is SPD: the direct solver must accept it
        // and produce a genuine solution.
        let chol = pgse_sparsela::SparseCholesky::factor(&gain_a).unwrap();
        let x = chol.solve(&rhs_a);
        let gx = gain_a.mul_vec(&x);
        for (g, r) in gx.iter().zip(&rhs_a) {
            assert!((g - r).abs() < 1e-6 * rhs_a.len() as f64, "residual {g} vs {r}");
        }
    }

    #[test]
    fn the_layout_keeps_one_pattern_for_clean_short_and_restored_scans() {
        let (net, pf, d) = setup();
        let est = AreaEstimator::new(d.areas[0].clone(), &net, &pf, WlsOptions::direct());
        let n = est.info.subnet.n_buses();
        assert_eq!(est.step1_layout().len(), est.scan_len() + 2 * n);
        assert_eq!(est.step1_layout().n_active(), est.scan_len());

        let scan = est.generate_telemetry(1.0, 4);
        let clean = est.place_scan(&scan).unwrap();
        assert_eq!(clean.n_active(), scan.len());
        // A short scan: every row of one bus lost.
        let mut short = scan.clone();
        short.retain(|m| m.kind.site(&est.info.subnet.branches) != 1);
        let placed = est.place_scan(&short).unwrap();
        assert_eq!(placed.len(), clean.len());
        assert_eq!(placed.n_active(), short.len());
        let mut reversed = scan.clone();
        let first = reversed.remove(0);
        reversed.push(first);
        assert!(est.place_scan(&reversed).is_none(), "out of order does not place");

        // Clean and short frames solve on one cached structure, and the
        // clean layout solve is bitwise the solve of the bare scan.
        let mut cache = SolveCache::new();
        let s_layout = est.step1_cached(&clean, &mut cache).unwrap();
        est.step1_cached(&placed, &mut cache).ok();
        assert_eq!(cache.symbolic_builds, 1);
        let bare = est.step1_cached(&scan, &mut SolveCache::new()).unwrap();
        let fresh = est.step1_cached(&clean, &mut SolveCache::new()).unwrap();
        assert_eq!(bare.iterations, fresh.iterations);
        for (p, q) in bare.vm.iter().chain(&bare.va).zip(fresh.vm.iter().chain(&fresh.va)) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        assert_eq!(bare.objective.to_bits(), fresh.objective.to_bits());
        assert!(s_layout.iterations > 0);
    }

    #[test]
    fn a_revalued_area_keeps_its_caches_and_tracks_the_switched_grid() {
        let (net, pf, d) = setup();
        let est = AreaEstimator::new(d.areas[0].clone(), &net, &pf, WlsOptions::direct());
        let mut closed = vec![true; net.n_branches()];
        // Every branch closed: the re-valued copy is the deployed estimator.
        let same = est.with_branch_status(&closed, &pf);
        let scan = |e: &AreaEstimator| e.generate_telemetry(1.0, 3).values();
        assert_eq!(scan(&same), scan(&est));

        // Open an internal branch of the area that islands nothing.
        let internal = net.internal_branches(0);
        let local = (0..internal.len())
            .find(|&l| {
                let mut sub = est.info.subnet.clone();
                sub.branches.remove(l);
                sub.is_connected()
            })
            .expect("area 0 has a cycle");
        closed[internal[local]] = false;
        let post_pf = solve(&net.with_branch_status(&closed), &PfOptions::default()).unwrap();
        let open = est.with_branch_status(&closed, &post_pf);
        let f = &open.truth().flows[local];
        assert_eq!((f.p_from, f.q_from, f.p_to, f.q_to), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(open.step1_layout().len(), est.step1_layout().len());

        // One cache across the switch: no new symbolic analysis, and the
        // estimate lands on the switched grid's state.
        let mut cache = SolveCache::new();
        let before = est.place_scan(&est.generate_telemetry(1.0, 5)).unwrap();
        est.step1_cached(&before, &mut cache).unwrap();
        let after = open.place_scan(&open.generate_telemetry(0.05, 6)).unwrap();
        let sol = open.step1_cached(&after, &mut cache).unwrap();
        assert_eq!((cache.symbolic_builds, cache.symbolic_reuses), (1, 1));
        for (l, &g) in open.info.global_ids.iter().enumerate() {
            assert!((sol.vm[l] - post_pf.vm[g]).abs() < 5e-3, "vm bus {g}");
            assert!((sol.va[l] - post_pf.va[g]).abs() < 5e-3, "va bus {g}");
        }
    }

    #[test]
    fn extended_model_has_foreign_buses_and_ties() {
        let (net, pf, d) = setup();
        for info in &d.areas {
            let est = AreaEstimator::new(info.clone(), &net, &pf, WlsOptions::default());
            assert!(!est.ties.is_empty(), "area {}", info.area);
            assert!(!est.ext_of_global.is_empty(), "area {}", info.area);
            assert!(est.ext_of_global.len() <= est.ties.len());
        }
    }

    #[test]
    fn telemetry_is_deterministic_per_seed() {
        let (net, pf, d) = setup();
        let est = AreaEstimator::new(d.areas[1].clone(), &net, &pf, WlsOptions::default());
        assert_eq!(
            est.generate_telemetry(1.0, 5).values(),
            est.generate_telemetry(1.0, 5).values()
        );
    }
}
