//! Integration of the estimation stack across cases and configurations:
//! power flow → telemetry → WLS → DSE, on every bundled network.

use pgse::dse::{run_dse, DseOptions};
use pgse::estimation::jacobian::StateSpace;
use pgse::estimation::synthetic::TelemetryPlan;
use pgse::estimation::wls::{WlsEstimator, WlsOptions};
use pgse::grid::cases::{ieee118_like, ieee14, synthetic_grid, SyntheticSpec};
use pgse::powerflow::{solve, PfOptions};
use pgse_bench::itermodel::fit_affine;

#[test]
fn centralized_wls_works_on_every_bundled_case() {
    let cases = vec![
        ieee14(),
        ieee118_like(),
        synthetic_grid(&SyntheticSpec {
            n_areas: 6,
            buses_per_area: (6, 12),
            extra_edges: 3,
            ties_per_edge: 1,
            seed: 9,
        }),
    ];
    for net in cases {
        let pf = solve(&net, &PfOptions::default()).unwrap();
        let plan = TelemetryPlan::full(&net, vec![net.slack()]);
        let set = plan.generate(&net, &pf, 1.0, 5);
        let est = WlsEstimator::new(
            net.clone(),
            StateSpace::with_reference(net.n_buses(), net.slack()),
            WlsOptions::default(),
        );
        let out = est.estimate(&set).unwrap_or_else(|e| panic!("{}: {e}", net.name));
        assert!(out.vm_rmse(&pf.vm) < 5e-3, "{}: {}", net.name, out.vm_rmse(&pf.vm));
    }
}

#[test]
fn iteration_count_grows_affinely_with_noise() {
    // The empirical basis of the paper's Ni = g1·x + g2 model (§IV-B.2):
    // sweep the noise level on the 14-bus system, fit the affine model,
    // and require a sane fit.
    let net = ieee14();
    let pf = solve(&net, &PfOptions::default()).unwrap();
    let plan = TelemetryPlan::full(&net, vec![net.slack()]);
    let est = WlsEstimator::new(
        net.clone(),
        StateSpace::with_reference(net.n_buses(), net.slack()),
        WlsOptions { tol: 1e-9, ..WlsOptions::default() },
    );
    let mut samples = Vec::new();
    for level_step in 1..=8 {
        let x = level_step as f64 * 0.5;
        for seed in 0..4u64 {
            let set = plan.generate(&net, &pf, x, 100 + seed);
            if let Ok(out) = est.estimate(&set) {
                samples.push((x, out.iterations as f64));
            }
        }
    }
    assert!(samples.len() > 20, "most solves converge");
    let (model, _r2) = fit_affine(&samples);
    // Iterations never decrease with noise, and the intercept is a small
    // positive base cost.
    assert!(model.g1 >= 0.0, "slope {}", model.g1);
    assert!(model.g2 > 0.0 && model.g2 < 20.0, "intercept {}", model.g2);
}

#[test]
fn dse_works_on_a_wecc_scale_synthetic_grid() {
    // The paper's ongoing-work target: dozens of balancing authorities.
    let net = synthetic_grid(&SyntheticSpec {
        n_areas: 20,
        buses_per_area: (6, 12),
        extra_edges: 10,
        ties_per_edge: 2,
        seed: 21,
    });
    let pf = solve(&net, &PfOptions::default()).unwrap();
    let report = run_dse(&net, &pf, &DseOptions::default()).unwrap();
    assert_eq!(report.step1.len(), 20);
    assert!(report.vm_rmse(&pf.vm) < 1e-2, "vm rmse {}", report.vm_rmse(&pf.vm));
    assert!(report.va_rmse(&pf.va) < 1e-2, "va rmse {}", report.va_rmse(&pf.va));
}

#[test]
fn step2_exchange_rounds_match_diameter_bound() {
    let net = ieee118_like();
    let pf = solve(&net, &PfOptions::default()).unwrap();
    // Request absurdly many rounds; the runner clamps to the diameter.
    let r = run_dse(&net, &pf, &DseOptions { rounds: 100, ..Default::default() }).unwrap();
    let single = run_dse(&net, &pf, &DseOptions { rounds: 1, ..Default::default() }).unwrap();
    // Diameter of the Fig. 3 graph is 4 → at most 4× the single-round
    // exchange volume.
    assert!(r.exchanged_bytes <= 4 * single.exchanged_bytes + 64);
}
