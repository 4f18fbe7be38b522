//! Bad-data detection and identification.
//!
//! Classical WLS post-processing (Abur & Expósito ch. 5): the chi-square
//! test on the weighted objective detects the presence of gross errors, and
//! the largest-normalized-residual (LNR) test identifies the offending
//! measurement, re-estimating until the test passes.
//!
//! A rejected measurement is *deactivated*, not removed: its row stays in
//! the set with zero weight, so the Jacobian pattern, the gain's symbolic
//! analysis and the cached factor all survive the rejection. The loop
//! starts from a converged estimate, factors the gain numerically over the
//! cached analysis, and re-solves warm through the same [`SolveCache`] —
//! see [`identify_cached`].

use std::sync::Arc;

use pgse_sparsela::CholSymbolic;

use crate::measurement::MeasurementSet;
use crate::wls::{SolveCache, StateEstimate, WlsError, WlsEstimator};

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
fn normal_quantile(p: f64) -> f64 {
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

/// Whether the chi-square test flags bad data: the weighted objective of
/// an estimate of `set` against the critical value at `confidence` for
/// `active rows − state_dim` degrees of freedom. Inactive rows count in no
/// degree of freedom.
pub fn chi_square_detects(
    set: &MeasurementSet,
    objective: f64,
    state_dim: usize,
    confidence: f64,
) -> bool {
    let m = set.n_active();
    m > state_dim && objective > chi_square_critical(m - state_dim, confidence)
}

/// Normalized residuals `|rᵢ| / √(Sᵢᵢ)` with `S = R − H·G⁻¹·Hᵀ`, at the
/// estimate's state.
///
/// `Sᵢᵢ = σᵢ² − hᵢᵀG⁻¹hᵢ`: one gain factorization, then one forward-only
/// sparse solve per active row for its quadratic form
/// ([`pgse_sparsela::SparseCholesky::inv_quad_form`]). Measurements whose residual
/// covariance is numerically zero (leverage ≈ 1, critical measurements)
/// get a normalized residual of zero — the LNR test cannot identify errors
/// in critical measurements, matching the theory. Inactive rows get zero
/// too.
pub fn normalized_residuals(
    est: &WlsEstimator,
    set: &MeasurementSet,
    estimate: &StateEstimate,
) -> Result<Vec<f64>, WlsError> {
    let quad =
        est.gain_quad_forms(set, &estimate.vm, &estimate.va, &mut SolveCache::new(), None)?;
    Ok(normalize(set, &estimate.residuals, &quad))
}

/// `|rᵢ| / √(σᵢ² − qᵢ)` per active row, zero where the variance vanishes.
fn normalize(set: &MeasurementSet, residuals: &[f64], quad: &[f64]) -> Vec<f64> {
    set.as_slice()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if !set.is_active(i) {
                return 0.0;
            }
            let s_ii = (m.sigma * m.sigma - quad[i]).max(0.0);
            if s_ii < 1e-14 {
                0.0
            } else {
                residuals[i].abs() / s_ii.sqrt()
            }
        })
        .collect()
}

/// Post-WLS bad-data gate configuration.
///
/// After a solve the weighted objective is tested against the chi-square
/// critical value at `confidence`; a set that fires runs the
/// largest-normalized-residual loop ([`identify_cached`]), capped at
/// `max_removals` rejections.
#[derive(Debug, Clone, Copy)]
pub struct BadDataGate {
    /// Chi-square confidence level (e.g. `0.999`). High values keep the
    /// false-alarm rate on clean frames negligible, which is what makes
    /// the `suspect == cleared + unidentifiable` accounting exact against
    /// a seeded injection schedule.
    pub confidence: f64,
    /// Maximum measurements the LNR loop rejects from one set.
    pub max_removals: usize,
}

impl Default for BadDataGate {
    fn default() -> Self {
        BadDataGate { confidence: 0.999, max_removals: 4 }
    }
}

/// Outcome of the detect-identify-reject loop.
#[derive(Debug, Clone)]
pub struct BadDataReport {
    /// Indices (into the set the loop was given — rejected rows keep their
    /// place, so these are the original indices) of the rejected
    /// measurements, in rejection order.
    pub removed: Vec<usize>,
    /// The final estimate after all rejections.
    pub estimate: StateEstimate,
    /// Whether the chi-square test passes at the end.
    pub clean: bool,
    /// Gauss–Newton iterations the loop's re-solves ran.
    pub resolve_iterations: usize,
}

/// Runs WLS from a flat start on a throwaway cache, then
/// [`identify_cached`]: repeatedly rejects the measurement with the largest
/// normalized residual while the chi-square test fails (capped at
/// `max_removals`). `set` itself is not modified.
pub fn identify_and_remove(
    est: &WlsEstimator,
    set: &MeasurementSet,
    confidence: f64,
    max_removals: usize,
) -> Result<BadDataReport, WlsError> {
    let mut cache = SolveCache::new();
    let mut working = set.clone();
    let start = est.estimate_cached(&working, None, &mut cache)?;
    let gate = BadDataGate { confidence, max_removals };
    identify_cached(est, &mut working, start, gate, &mut cache, None)
}

/// The LNR loop on a converged estimate: while the chi-square test fires,
/// deactivate the active row with the largest normalized residual (ties go
/// to the later row) and re-solve — warm from the previous estimate,
/// through `cache`. Stops unidentifiable (`clean: false`) when no residual
/// reaches 3, or after `gate.max_removals` rejections.
///
/// `start` must be the converged estimate of `set` whose structures
/// `cache` holds. The gain at each pass's state is factored numerically
/// over a cached analysis — the cache's own factor when its pattern
/// matches, else `sym` (e.g. the one a streaming round's `BatchPlan`
/// holds), else a fresh one — and left in the cache; with the direct solver
/// every re-solve iteration then refreshes that factor in place, so the
/// cache's `refactor_reuse + refactor_full` grows by exactly
/// [`BadDataReport::resolve_iterations`]. Nothing about the set's shape
/// changes: rejected rows are left deactivated in `set`.
///
/// # Errors
/// A re-solve or a gain factorization fails.
pub fn identify_cached(
    est: &WlsEstimator,
    set: &mut MeasurementSet,
    start: StateEstimate,
    gate: BadDataGate,
    cache: &mut SolveCache,
    mut sym: Option<Arc<CholSymbolic>>,
) -> Result<BadDataReport, WlsError> {
    let dim = est.space().dim();
    let mut estimate = start;
    let mut removed = Vec::new();
    let mut resolve_iterations = 0;
    for _ in 0..gate.max_removals {
        if !chi_square_detects(set, estimate.objective, dim, gate.confidence) {
            return Ok(BadDataReport { removed, estimate, clean: true, resolve_iterations });
        }
        let quad = est.gain_quad_forms(set, &estimate.vm, &estimate.va, cache, sym.take())?;
        let rn = normalize(set, &estimate.residuals, &quad);
        // Inactive rows read 0 and never reach the threshold.
        let worst = rn
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .filter(|&(_, &v)| v >= 3.0);
        let Some((worst, _)) = worst else {
            // Nothing identifiable even though chi-square fired.
            return Ok(BadDataReport { removed, estimate, clean: false, resolve_iterations });
        };
        set.deactivate(worst);
        removed.push(worst);
        estimate = est.estimate_cached(set, Some((&estimate.vm, &estimate.va)), cache)?;
        resolve_iterations += estimate.iterations;
    }
    let clean = !chi_square_detects(set, estimate.objective, dim, gate.confidence);
    Ok(BadDataReport { removed, estimate, clean, resolve_iterations })
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
        assert!(!chi_square_detects(&set, out.objective, est.space().dim(), 0.99));
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
    fn cached_loop_keeps_the_structures_and_accounts_every_resolve() {
        let (pcg, mut set) = setup();
        let est =
            WlsEstimator::new(pcg.network().clone(), pcg.space().clone(), WlsOptions::direct());
        let m = set.as_slice()[20];
        set.get_mut(20).value = m.value + 30.0 * m.sigma;
        let mut cache = SolveCache::new();
        let start = est.estimate_cached(&set, None, &mut cache).unwrap();
        let (builds, solves) = (cache.symbolic_builds, cache.refactor_reuse + cache.refactor_full);
        let mut working = set.clone();
        let rep =
            identify_cached(&est, &mut working, start, BadDataGate::default(), &mut cache, None)
                .unwrap();
        assert!(rep.clean);
        assert_eq!(rep.removed, vec![20]);
        // Rejection is a zero weight: same rows, same structures, and every
        // re-solve iteration refreshed the factor the loop left cached.
        assert_eq!(working.len(), set.len());
        assert_eq!(working.n_active(), set.len() - 1);
        assert_eq!(cache.symbolic_builds, builds);
        assert!(rep.resolve_iterations > 0);
        assert_eq!(
            cache.refactor_full + cache.refactor_reuse,
            solves + rep.resolve_iterations as u64
        );
        assert_eq!(cache.refactor_full, 1);
        // And it lands where the public flat-start loop does.
        let plain = identify_and_remove(&est, &set, 0.999, 4).unwrap();
        assert_eq!(plain.removed, rep.removed);
        for (a, b) in plain.estimate.vm.iter().zip(&rep.estimate.vm) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn report_on_clean_data_removes_nothing() {
        let (est, set) = setup();
        let report = identify_and_remove(&est, &set, 0.95, 5).unwrap();
        assert!(report.clean);
        assert!(report.removed.is_empty());
    }
}
