//! Bad-data detection and identification.
//!
//! Classical WLS post-processing (Abur & Expósito ch. 5): the chi-square
//! test on the weighted objective detects the presence of gross errors, and
//! the largest-normalized-residual (LNR) test identifies and removes the
//! offending measurement, re-estimating until the test passes.

use pgse_sparsela::SparseCholesky;

use crate::jacobian::{assemble_jacobian, StateSpace};
use crate::measurement::MeasurementSet;
use crate::wls::{StateEstimate, WlsError, WlsEstimator};

/// Upper-tail critical value of the chi-square distribution with `dof`
/// degrees of freedom at confidence `p` (e.g. `0.95`), via the
/// Wilson–Hilferty cube approximation.
pub fn chi_square_critical(dof: usize, p: f64) -> f64 {
    assert!(dof > 0, "chi-square needs positive dof");
    assert!((0.5..1.0).contains(&p), "confidence in [0.5, 1)");
    let k = dof as f64;
    let z = normal_quantile(p);
    let t = 1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt();
    k * t * t * t
}

/// Standard normal quantile (Acklam-style rational approximation, adequate
/// for test thresholds).
pub fn normal_quantile(p: f64) -> f64 {
    // Beasley-Springer-Moro.
    let a = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    let b = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    let c = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    let d = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let plow = 0.02425;
    if p < plow {
        let q = (-2.0 * p.ln()).sqrt();
        (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
            / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    } else if p <= 1.0 - plow {
        let q = p - 0.5;
        let r = q * q;
        (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Whether the chi-square test flags bad data in `estimate`.
pub fn chi_square_detects(estimate: &StateEstimate, state_dim: usize, confidence: f64) -> bool {
    let m = estimate.residuals.len();
    if m <= state_dim {
        return false;
    }
    estimate.objective > chi_square_critical(m - state_dim, confidence)
}

/// Normalized residuals `|rᵢ| / √(Sᵢᵢ)` with `S = R − H·G⁻¹·Hᵀ`.
///
/// Uses one gain-matrix Cholesky and one solve per measurement, which is
/// fine at subsystem scale. Measurements whose residual covariance is
/// numerically zero (leverage ≈ 1, critical measurements) get a normalized
/// residual of zero — the LNR test cannot identify errors in critical
/// measurements, matching the theory.
pub fn normalized_residuals(
    est: &WlsEstimator,
    set: &MeasurementSet,
    estimate: &StateEstimate,
) -> Result<Vec<f64>, WlsError> {
    let space: &StateSpace = est.space();
    let w = set.weights();
    let h = assemble_jacobian(est.network(), est.ybus(), set, space, &estimate.vm, &estimate.va);
    let gain = h.ata_weighted(&w);
    let chol = SparseCholesky::factor(&gain)
        .map_err(|e| WlsError::NotObservable(e.to_string()))?;
    let mut out = Vec::with_capacity(set.len());
    for (i, m) in set.as_slice().iter().enumerate() {
        // hᵢ: the i-th row of H as a dense vector.
        let (cols, vals) = h.row(i);
        let mut hi = vec![0.0; space.dim()];
        for (c, v) in cols.iter().zip(vals) {
            hi[*c] = *v;
        }
        let gi = chol.solve(&hi);
        let hgh: f64 = hi.iter().zip(&gi).map(|(a, b)| a * b).sum();
        let r_ii = m.sigma * m.sigma;
        let s_ii = (r_ii - hgh).max(0.0);
        if s_ii < 1e-14 {
            out.push(0.0);
        } else {
            out.push(estimate.residuals[i].abs() / s_ii.sqrt());
        }
    }
    Ok(out)
}

/// Outcome of the detect-identify-remove loop.
#[derive(Debug, Clone)]
pub struct BadDataReport {
    /// Indices (into the *original* set) of removed measurements, in
    /// removal order.
    pub removed: Vec<usize>,
    /// The final estimate after all removals.
    pub estimate: StateEstimate,
    /// Whether the chi-square test passes at the end.
    pub clean: bool,
}

/// Runs WLS, then repeatedly removes the measurement with the largest
/// normalized residual while the chi-square test fails (capped at
/// `max_removals`).
pub fn identify_and_remove(
    est: &WlsEstimator,
    set: &MeasurementSet,
    confidence: f64,
    max_removals: usize,
) -> Result<BadDataReport, WlsError> {
    let mut working = set.clone();
    // Track original indices through removals.
    let mut index_map: Vec<usize> = (0..set.len()).collect();
    let mut removed = Vec::new();
    let mut estimate = est.estimate(&working)?;
    for _ in 0..max_removals {
        if !chi_square_detects(&estimate, est.space().dim(), confidence) {
            return Ok(BadDataReport { removed, estimate, clean: true });
        }
        let rn = normalized_residuals(est, &working, &estimate)?;
        let (worst, &worst_val) = rn
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite residuals"))
            .expect("non-empty set");
        if worst_val < 3.0 {
            // Nothing identifiable even though chi-square fired.
            return Ok(BadDataReport { removed, estimate, clean: false });
        }
        working.remove(worst);
        removed.push(index_map.remove(worst));
        estimate = est.estimate(&working)?;
    }
    let clean = !chi_square_detects(&estimate, est.space().dim(), confidence);
    Ok(BadDataReport { removed, estimate, clean })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobian::StateSpace;
    use crate::synthetic::TelemetryPlan;
    use crate::wls::WlsOptions;
    use pgse_grid::cases::ieee14;
    use pgse_powerflow::{solve, PfOptions};

    fn setup() -> (WlsEstimator, MeasurementSet) {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let plan = TelemetryPlan::full(&net, vec![0]);
        let set = plan.generate(&net, &sol, 1.0, 99);
        let est = WlsEstimator::new(
            net.clone(),
            StateSpace::with_reference(14, net.slack()),
            WlsOptions::default(),
        );
        (est, set)
    }

    #[test]
    fn chi_square_critical_matches_tables() {
        // χ²₀.₉₅ reference values: 10 dof → 18.307, 50 dof → 67.505,
        // 100 dof → 124.342 (Wilson–Hilferty is tight at high dof).
        assert!((chi_square_critical(10, 0.95) - 18.307).abs() < 0.2);
        assert!((chi_square_critical(50, 0.95) - 67.505).abs() < 0.5);
        assert!((chi_square_critical(100, 0.95) - 124.342).abs() < 0.5);
        // χ²₀.₉₉: 10 dof → 23.209, 100 dof → 135.807.
        assert!((chi_square_critical(10, 0.99) - 23.209).abs() < 0.3);
        assert!((chi_square_critical(100, 0.99) - 135.807).abs() < 0.6);
    }

    #[test]
    fn normal_quantile_sanity() {
        assert!((normal_quantile(0.975) - 1.95996).abs() < 1e-3);
        assert!((normal_quantile(0.5)).abs() < 1e-6);
        assert!((normal_quantile(0.95) - 1.64485).abs() < 1e-3);
        assert!((normal_quantile(0.99) - 2.32635).abs() < 1e-3);
        assert!((normal_quantile(0.999) - 3.09023).abs() < 1e-3);
        // Symmetry through the tail branch.
        assert!((normal_quantile(0.025) + normal_quantile(0.975)).abs() < 1e-3);
    }

    #[test]
    fn clean_data_passes_chi_square() {
        let (est, set) = setup();
        let out = est.estimate(&set).unwrap();
        assert!(!chi_square_detects(&out, est.space().dim(), 0.99));
    }

    #[test]
    fn gross_error_is_detected_and_identified() {
        let (est, mut set) = setup();
        // Corrupt one injection by 30σ.
        let bad_idx = 20usize;
        let mut bad = set.as_slice()[bad_idx];
        bad.value += 30.0 * bad.sigma;
        set.remove(bad_idx);
        let mut corrupted = MeasurementSet::new();
        for (i, m) in set.as_slice().iter().enumerate() {
            if i == bad_idx {
                corrupted.push(bad);
            }
            corrupted.push(*m);
        }
        if bad_idx >= set.len() {
            corrupted.push(bad);
        }
        let report = identify_and_remove(&est, &corrupted, 0.95, 5).unwrap();
        assert!(report.clean);
        assert_eq!(report.removed.len(), 1);
        // The removed measurement is the corrupted one.
        let removed = corrupted.as_slice()[report.removed[0]];
        assert!((removed.value - bad.value).abs() < 1e-12);
    }

    #[test]
    fn normalized_residuals_flag_the_bad_measurement() {
        let (est, mut set) = setup();
        let bad_idx = 10usize;
        let mut bad = set.remove(bad_idx);
        bad.value += 25.0 * bad.sigma;
        let mut corrupted = MeasurementSet::new();
        for (i, m) in set.as_slice().iter().enumerate() {
            if i == bad_idx {
                corrupted.push(bad);
            }
            corrupted.push(*m);
        }
        let out = est.estimate(&corrupted).unwrap();
        let rn = normalized_residuals(&est, &corrupted, &out).unwrap();
        let max_idx = rn
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_idx, bad_idx);
        assert!(rn[bad_idx] > 3.0);
    }

    #[test]
    fn report_on_clean_data_removes_nothing() {
        let (est, set) = setup();
        let report = identify_and_remove(&est, &set, 0.95, 5).unwrap();
        assert!(report.clean);
        assert!(report.removed.is_empty());
    }
}
