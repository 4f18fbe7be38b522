//! Property suite for the bad-data machinery: the largest-normalized-
//! residual (LNR) removal step must strictly decrease the weighted WLS
//! objective, the detect-identify-remove loop must terminate with the
//! injected gross error gone, and the cache-resident loop — rejection as a
//! zero weight, warm re-solves — must reach exactly the verdicts of the
//! remove-and-re-solve-from-flat-start loop it replaced, kept here as a
//! differential oracle.

use proptest::prelude::*;

use pgse_dse::decomposition::{decompose, DecompositionOptions};
use pgse_dse::AreaEstimator;
use pgse_estimation::baddata::{
    chi_square_critical, identify_and_remove, identify_cached, normalized_residuals, BadDataGate,
};
use pgse_estimation::jacobian::{assemble_jacobian, StateSpace};
use pgse_estimation::synthetic::TelemetryPlan;
use pgse_estimation::wls::{SolveCache, StateEstimate, WlsEstimator, WlsOptions};
use pgse_estimation::MeasurementSet;
use pgse_grid::cases::{ieee118_like, ieee14};
use pgse_grid::Network;
use pgse_powerflow::{solve, PfOptions};
use pgse_sparsela::SparseCholesky;

/// The LNR loop before rejection became a zero weight: each pass factors
/// a fresh gain, runs one dense solve per measurement for its normalized
/// residual, *removes* the worst row and re-solves from a flat start.
/// Returns `(removed indices into set, final estimate, clean)`.
fn oracle_lnr(
    est: &WlsEstimator,
    set: &MeasurementSet,
    confidence: f64,
    max_removals: usize,
) -> (Vec<usize>, StateEstimate, bool) {
    let dim = est.space().dim();
    let detects = |e: &StateEstimate| {
        let m = e.residuals.len();
        m > dim && e.objective > chi_square_critical(m - dim, confidence)
    };
    let mut working = set.clone();
    let mut index_map: Vec<usize> = (0..set.len()).collect();
    let mut removed = Vec::new();
    let mut estimate = est.estimate(&working).unwrap();
    for _ in 0..max_removals {
        if !detects(&estimate) {
            return (removed, estimate, true);
        }
        let rn = oracle_normalized(est, &working, &estimate);
        let (worst, &worst_val) = rn
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        if worst_val < 3.0 {
            return (removed, estimate, false);
        }
        working.remove(worst);
        removed.push(index_map.remove(worst));
        estimate = est.estimate(&working).unwrap();
    }
    let clean = !detects(&estimate);
    (removed, estimate, clean)
}

/// Normalized residuals by one dense-vector solve per measurement.
fn oracle_normalized(est: &WlsEstimator, set: &MeasurementSet, e: &StateEstimate) -> Vec<f64> {
    let h = assemble_jacobian(est.network(), est.ybus(), set, est.space(), &e.vm, &e.va);
    let chol = SparseCholesky::factor(&h.ata_weighted(&set.weights())).unwrap();
    set.as_slice()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let (cols, vals) = h.row(i);
            let mut hi = vec![0.0; est.space().dim()];
            for (c, v) in cols.iter().zip(vals) {
                hi[*c] = *v;
            }
            let hgh: f64 = hi.iter().zip(chol.solve(&hi)).map(|(a, b)| a * b).sum();
            let s_ii = (m.sigma * m.sigma - hgh).max(0.0);
            if s_ii < 1e-14 {
                0.0
            } else {
                e.residuals[i].abs() / s_ii.sqrt()
            }
        })
        .collect()
}

fn assert_states_agree(a: &StateEstimate, b: &StateEstimate, what: &str) {
    for (p, q) in a.vm.iter().chain(&a.va).zip(b.vm.iter().chain(&b.va)) {
        assert!((p - q).abs() < 1e-7, "{what}: states differ: {p} vs {q}");
    }
}

/// Corrupts row `slot % len` of `set` by `magnitude`·σ.
fn corrupt(set: &mut MeasurementSet, slot: usize, magnitude: f64) -> usize {
    let i = slot % set.len();
    let m = set.get_mut(i);
    m.value += magnitude * m.sigma;
    i
}

fn estimator(net: &Network) -> WlsEstimator {
    WlsEstimator::new(
        net.clone(),
        StateSpace::with_reference(net.n_buses(), net.slack()),
        WlsOptions::default(),
    )
}

/// A full-SCADA ieee14 scan with one measurement corrupted by
/// `magnitude`·σ at `slot` (mapped into the set's index range).
fn corrupted_scan(seed: u64, slot: usize, magnitude: f64) -> (MeasurementSet, usize) {
    let net = ieee14();
    let sol = solve(&net, &PfOptions::default()).unwrap();
    let plan = TelemetryPlan::full(&net, vec![net.slack()]);
    let clean = plan.generate(&net, &sol, 1.0, seed);
    let bad_idx = slot % clean.len();
    let set: MeasurementSet = clean
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut m = *m;
            if i == bad_idx {
                m.value += magnitude * m.sigma;
            }
            m
        })
        .collect();
    (set, bad_idx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One LNR removal step — drop the measurement with the largest
    /// normalized residual — strictly decreases the weighted objective.
    #[test]
    fn lnr_removal_strictly_decreases_objective(
        seed in 0u64..1_000_000,
        slot in 0usize..200,
        magnitude in 12.0f64..40.0,
    ) {
        let net = ieee14();
        let est = estimator(&net);
        let (set, _) = corrupted_scan(seed, slot, magnitude);
        let before = est.estimate(&set).unwrap();
        let rn = normalized_residuals(&est, &set, &before).unwrap();
        let worst = rn
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        prop_assume!(rn[worst] > 3.0); // identifiable (non-critical) error
        let mut reduced = set.clone();
        reduced.remove(worst);
        let after = est.estimate(&reduced).unwrap();
        prop_assert!(
            after.objective < before.objective,
            "objective must strictly decrease: {} -> {}",
            before.objective,
            after.objective
        );
    }

    /// The full loop identifies the injected measurement and ends clean.
    #[test]
    fn identify_loop_removes_the_injected_error(
        seed in 0u64..1_000_000,
        slot in 0usize..200,
        magnitude in 20.0f64..40.0,
    ) {
        let net = ieee14();
        let est = estimator(&net);
        let (set, bad_idx) = corrupted_scan(seed, slot, magnitude);
        let report = identify_and_remove(&est, &set, 0.99, 4).unwrap();
        prop_assert!(report.clean, "loop must end chi-square clean");
        prop_assert!(
            report.removed.contains(&bad_idx),
            "removed {:?} must include injected index {bad_idx}",
            report.removed
        );
    }

    /// One or two gross errors on an IEEE-14 scan: the cache-resident loop
    /// rejects exactly what the oracle removes, in the same order, reaches
    /// the same verdict, and lands on the same state.
    #[test]
    fn cached_loop_matches_the_remove_and_resolve_oracle(
        seed in 0u64..1_000_000,
        slot_a in 0usize..200,
        slot_b in 0usize..200,
        n_errors in 1usize..3,
        magnitude_a in 12.0f64..40.0,
        magnitude_b in 12.0f64..40.0,
    ) {
        let net = ieee14();
        let est = estimator(&net);
        let (mut set, bad_a) = corrupted_scan(seed, slot_a, magnitude_a);
        if n_errors == 2 {
            prop_assume!(slot_b % set.len() != bad_a);
            corrupt(&mut set, slot_b, magnitude_b);
        }
        let (removed, oracle, clean) = oracle_lnr(&est, &set, 0.99, 4);
        let report = identify_and_remove(&est, &set, 0.99, 4).unwrap();
        prop_assert_eq!(&report.removed, &removed);
        prop_assert_eq!(report.clean, clean);
        assert_states_agree(&report.estimate, &oracle, "ieee14");
    }
}

/// Every IEEE-118 area's Step-1 scan with one 25σ error, through the public
/// loop and through the streaming path — the scan placed on the area's
/// layout (pseudo superset included), a warm-cached Step-1 solve, then the
/// cache-resident loop — against the oracle on the bare scan. Normalized
/// residuals agree with the dense-solve ones, critical measurements (zero)
/// included.
#[test]
fn every_ieee118_area_matches_the_oracle_on_the_layout() {
    let net = ieee118_like();
    let pf = solve(&net, &PfOptions::default()).unwrap();
    let decomp = decompose(&net, &DecompositionOptions::default());
    let gate = BadDataGate::default();
    for info in &decomp.areas {
        let a = info.area;
        let area = AreaEstimator::new(info.clone(), &net, &pf, WlsOptions::direct());
        let est = area.step1_estimator();
        let mut scan = area.generate_telemetry(1.0, 40 + a as u64);
        let bad = corrupt(&mut scan, 13 * (a + 1), 25.0);

        let (removed, oracle, clean) = oracle_lnr(est, &scan, gate.confidence, gate.max_removals);
        assert!(clean && removed.contains(&bad), "area {a}: oracle {removed:?}");

        let public = identify_and_remove(est, &scan, gate.confidence, gate.max_removals).unwrap();
        assert_eq!(public.removed, removed, "area {a}");
        assert_eq!(public.clean, clean, "area {a}");
        assert_states_agree(&public.estimate, &oracle, "public loop");

        let mut placed = area.place_scan(&scan).unwrap();
        let mut cache = SolveCache::new();
        let start = est.estimate_cached(&placed, None, &mut cache).unwrap();
        let rn = normalized_residuals(est, &placed, &start).unwrap();
        let rn_oracle = oracle_normalized(est, &scan, &est.estimate(&scan).unwrap());
        for (i, (p, q)) in rn.iter().zip(&rn_oracle).enumerate() {
            assert_eq!(*p == 0.0, *q == 0.0, "area {a} row {i}: critical verdicts differ");
            assert!((p - q).abs() <= 1e-6 * q.max(1.0), "area {a} row {i}: {p} vs {q}");
        }
        assert!(rn[scan.len()..].iter().all(|&r| r == 0.0), "inactive superset rows");
        let stream = identify_cached(est, &mut placed, start, gate, &mut cache, None).unwrap();
        assert_eq!(stream.removed, removed, "area {a}");
        assert_eq!(stream.clean, clean, "area {a}");
        assert_states_agree(&stream.estimate, &oracle, "layout loop");
        assert_eq!(cache.symbolic_builds, 1, "area {a}: one structure for the whole loop");
    }
}
