//! Synthetic telemetry: noisy measurements sampled from a solved power
//! flow.
//!
//! The paper's estimators consume SCADA scans (every ~4 s) and PMU frames
//! (30/s); we have no field data, so telemetry is synthesized from the
//! ground-truth operating point with zero-mean Gaussian errors — the exact
//! statistical model the WLS formulation assumes.
//!
//! The per-frame noise *level* follows the paper's §IV-B.2: the mapping
//! method estimates the noise level `x = f(δt)` for each time frame and
//! predicts Gauss–Newton iterations as `Ni = g1·x + g2`. [`NoiseProcess`]
//! implements `f` as a diurnal profile plus seeded per-frame jitter.
//!
//! **Observability note:** this module *generates* telemetry (synthetic
//! measurements); it is no longer the place where run-time measurements of
//! the pipeline itself accumulate. Execution metrics — scan counts, noise
//! gauges, solver iterations, stage timings — are recorded through
//! `pgse-obs` ([`pgse_obs::counter_add`] / [`pgse_obs::gauge_set`] /
//! [`pgse_obs::span`]) and exported in the `ObsReport`; each
//! [`TelemetryPlan::generate`] call runs inside a `telemetry.generate`
//! span carrying the scan size and noise level.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pgse_grid::Network;
use pgse_powerflow::PfSolution;

use crate::measurement::{FlowSide, Measurement, MeasurementKind, MeasurementSet};

/// The time-frame noise process `x = f(δt)`.
#[derive(Debug, Clone)]
pub struct NoiseProcess {
    /// Baseline noise level (multiplies every σ); `1.0` is nominal accuracy.
    pub base_level: f64,
    /// Relative amplitude of the diurnal component.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal component in seconds.
    pub period_s: f64,
    /// Relative amplitude of the seeded per-frame jitter.
    pub jitter: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for NoiseProcess {
    fn default() -> Self {
        NoiseProcess {
            base_level: 1.0,
            diurnal_amplitude: 0.5,
            period_s: 86_400.0,
            jitter: 0.2,
            seed: 0,
        }
    }
}

impl NoiseProcess {
    /// The noise level at time frame `δt` (seconds since epoch of the run).
    ///
    /// Deterministic: the jitter is hashed from the frame index, so repeated
    /// calls agree and distributed components can evaluate `f` locally.
    pub fn level(&self, dt_seconds: f64) -> f64 {
        let diurnal = 1.0
            + self.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * dt_seconds / self.period_s).sin();
        let frame = (dt_seconds.max(0.0)) as u64;
        let mut rng = StdRng::seed_from_u64(self.seed ^ frame.wrapping_mul(0x9e37_79b9));
        let j = 1.0 + self.jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        (self.base_level * diurnal * j).max(0.05)
    }
}

/// Measurement standard deviations by class (p.u. / radians).
#[derive(Debug, Clone, Copy)]
pub struct SigmaSet {
    /// SCADA voltage magnitude.
    pub vmag: f64,
    /// SCADA P/Q injection.
    pub inj: f64,
    /// SCADA P/Q branch flow.
    pub flow: f64,
    /// PMU voltage magnitude.
    pub pmu_vmag: f64,
    /// PMU voltage angle.
    pub pmu_angle: f64,
}

impl Default for SigmaSet {
    fn default() -> Self {
        SigmaSet { vmag: 0.004, inj: 0.01, flow: 0.008, pmu_vmag: 0.002, pmu_angle: 0.001 }
    }
}

/// What to telemeter from a network.
#[derive(Debug, Clone)]
pub struct TelemetryPlan {
    /// Measure voltage magnitude at every bus.
    pub vmag_all: bool,
    /// Buses whose P/Q injections are measured (commonly all internal
    /// buses; DSE omits boundary buses whose injections involve tie lines
    /// outside the local model).
    pub injection_buses: Vec<usize>,
    /// Branches measured at the from side (P and Q).
    pub flow_branches_from: Vec<usize>,
    /// Branches measured at the to side (P and Q).
    pub flow_branches_to: Vec<usize>,
    /// PMU sites (voltage magnitude + synchronized angle).
    pub pmu_buses: Vec<usize>,
    /// Accuracy classes.
    pub sigmas: SigmaSet,
}

impl TelemetryPlan {
    /// The full-SCADA plan: V everywhere, injections everywhere, from-side
    /// flows on every branch, PMUs at the given buses.
    pub fn full(net: &Network, pmu_buses: Vec<usize>) -> Self {
        TelemetryPlan {
            vmag_all: true,
            injection_buses: (0..net.n_buses()).collect(),
            flow_branches_from: (0..net.n_branches()).collect(),
            flow_branches_to: Vec::new(),
            pmu_buses,
            sigmas: SigmaSet::default(),
        }
    }

    /// Number of measurements this plan produces.
    pub fn len(&self, net: &Network) -> usize {
        (if self.vmag_all { net.n_buses() } else { 0 })
            + 2 * self.injection_buses.len()
            + 2 * self.flow_branches_from.len()
            + 2 * self.flow_branches_to.len()
            + 2 * self.pmu_buses.len()
    }

    /// The plan's rows in scan order: each measured kind with its accuracy
    /// class σ.
    fn rows(&self, net: &Network) -> Vec<(MeasurementKind, f64)> {
        let sg = &self.sigmas;
        let mut rows = Vec::with_capacity(self.len(net));
        if self.vmag_all {
            rows.extend((0..net.n_buses()).map(|bus| (MeasurementKind::Vmag { bus }, sg.vmag)));
        }
        for &bus in &self.injection_buses {
            rows.push((MeasurementKind::Pinj { bus }, sg.inj));
            rows.push((MeasurementKind::Qinj { bus }, sg.inj));
        }
        for (branches, side) in
            [(&self.flow_branches_from, FlowSide::From), (&self.flow_branches_to, FlowSide::To)]
        {
            for &branch in branches {
                rows.push((MeasurementKind::Pflow { branch, side }, sg.flow));
                rows.push((MeasurementKind::Qflow { branch, side }, sg.flow));
            }
        }
        for &bus in &self.pmu_buses {
            rows.push((MeasurementKind::PmuVmag { bus }, sg.pmu_vmag));
            rows.push((MeasurementKind::PmuAngle { bus }, sg.pmu_angle));
        }
        rows
    }

    /// The plan's measurement layout: every row a scan of this plan
    /// carries, in scan order, valued `0.0` at its class σ. A scan that
    /// lost rows in flight is an ordered subsequence of it (see
    /// [`MeasurementSet::overlay`]).
    pub fn layout(&self, net: &Network) -> MeasurementSet {
        self.rows(net).into_iter().map(|(kind, sigma)| Measurement::new(kind, 0.0, sigma)).collect()
    }

    /// Generates a noisy measurement set from the solved operating point.
    ///
    /// `noise_level` scales every σ (both the sampling noise and the σ
    /// recorded in the measurement, since the telemetry system knows its own
    /// accuracy class). `seed` makes the scan reproducible.
    pub fn generate(
        &self,
        net: &Network,
        sol: &PfSolution,
        noise_level: f64,
        seed: u64,
    ) -> MeasurementSet {
        assert!(noise_level > 0.0, "noise level must be positive");
        let mut sp = pgse_obs::span("telemetry.generate");
        sp.record("noise_level", noise_level);
        pgse_obs::counter_add("telemetry.scans", 1);
        pgse_obs::gauge_set("telemetry.noise_level", noise_level);
        let mut rng = StdRng::seed_from_u64(seed);
        // Box–Muller standard normal.
        let mut gauss = move || {
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let set: MeasurementSet = self
            .rows(net)
            .into_iter()
            .map(|(kind, sigma)| {
                let s = sigma * noise_level;
                Measurement::new(kind, true_value(kind, sol) + s * gauss(), s)
            })
            .collect();
        sp.record("scan_size", set.len());
        set
    }
}

/// The value `kind` reads at the solved operating point `sol`.
fn true_value(kind: MeasurementKind, sol: &PfSolution) -> f64 {
    let flow = |branch: usize| &sol.flows[branch];
    match kind {
        MeasurementKind::Vmag { bus } | MeasurementKind::PmuVmag { bus } => sol.vm[bus],
        MeasurementKind::PmuAngle { bus } => sol.va[bus],
        MeasurementKind::Pinj { bus } => sol.p_inj[bus],
        MeasurementKind::Qinj { bus } => sol.q_inj[bus],
        MeasurementKind::Pflow { branch, side: FlowSide::From } => flow(branch).p_from,
        MeasurementKind::Pflow { branch, side: FlowSide::To } => flow(branch).p_to,
        MeasurementKind::Qflow { branch, side: FlowSide::From } => flow(branch).q_from,
        MeasurementKind::Qflow { branch, side: FlowSide::To } => flow(branch).q_to,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgse_grid::cases::ieee14;
    use pgse_powerflow::{solve, PfOptions};

    #[test]
    fn noise_level_is_deterministic_and_positive() {
        let p = NoiseProcess::default();
        for t in [0.0, 100.0, 3600.0, 40_000.0, 86_400.0] {
            let a = p.level(t);
            let b = p.level(t);
            assert_eq!(a, b);
            assert!(a > 0.0);
        }
    }

    #[test]
    fn noise_level_varies_over_the_day() {
        let p = NoiseProcess { jitter: 0.0, ..NoiseProcess::default() };
        let morning = p.level(86_400.0 / 4.0); // sin = 1 → high
        let evening = p.level(3.0 * 86_400.0 / 4.0); // sin = −1 → low
        assert!(morning > evening);
        assert!((morning - 1.5).abs() < 1e-9);
        assert!((evening - 0.5).abs() < 1e-9);
    }

    #[test]
    fn plan_len_matches_generated_count() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let plan = TelemetryPlan::full(&net, vec![0, 6]);
        let set = plan.generate(&net, &sol, 1.0, 42);
        assert_eq!(set.len(), plan.len(&net));
        // 14 V + 28 inj + 40 flows + 4 PMU
        assert_eq!(set.len(), 86);
    }

    #[test]
    fn generation_is_reproducible_per_seed() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let plan = TelemetryPlan::full(&net, vec![0]);
        let a = plan.generate(&net, &sol, 1.0, 7);
        let b = plan.generate(&net, &sol, 1.0, 7);
        assert_eq!(a.values(), b.values());
        let c = plan.generate(&net, &sol, 1.0, 8);
        assert_ne!(a.values(), c.values());
    }

    #[test]
    fn noise_scales_with_level() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let plan = TelemetryPlan::full(&net, vec![]);
        let low = plan.generate(&net, &sol, 0.5, 3);
        let high = plan.generate(&net, &sol, 4.0, 3);
        // Same seed → same normal draws → deviations scale exactly 8×.
        let truth = plan.generate(&net, &sol, 1e-9, 3);
        let dev = |s: &MeasurementSet| -> f64 {
            s.values()
                .iter()
                .zip(truth.values())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        };
        let ratio = dev(&high) / dev(&low);
        assert!((ratio - 8.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn recorded_sigma_matches_sampling_sigma() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let plan = TelemetryPlan::full(&net, vec![]);
        let set = plan.generate(&net, &sol, 2.0, 1);
        // First measurement is a Vmag with σ = 0.004 × 2.
        assert!((set.as_slice()[0].sigma - 0.008).abs() < 1e-15);
    }

    #[test]
    fn layout_lists_the_generated_kinds_in_order() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let plan =
            TelemetryPlan { flow_branches_to: vec![3], ..TelemetryPlan::full(&net, vec![2]) };
        let scan = plan.generate(&net, &sol, 1.0, 5);
        let layout = plan.layout(&net);
        assert_eq!(layout.len(), scan.len());
        for (l, m) in layout.as_slice().iter().zip(scan.as_slice()) {
            assert_eq!(l.kind, m.kind);
            assert_eq!(l.sigma, m.sigma, "noise level 1 records the class σ");
        }
    }

    #[test]
    fn empty_plan_generates_nothing() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let plan = TelemetryPlan {
            vmag_all: false,
            injection_buses: vec![],
            flow_branches_from: vec![],
            flow_branches_to: vec![],
            pmu_buses: vec![],
            sigmas: SigmaSet::default(),
        };
        assert!(plan.generate(&net, &sol, 1.0, 0).is_empty());
    }
}
