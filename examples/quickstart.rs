//! Quickstart: centralized WLS state estimation on the IEEE 14-bus system.
//!
//! Solves the ground-truth power flow, synthesizes one noisy SCADA/PMU
//! scan, runs the WLS estimator, and prints the estimated state next to
//! the truth.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pgse::estimation::jacobian::StateSpace;
use pgse::estimation::synthetic::TelemetryPlan;
use pgse::estimation::wls::{SolveCache, WlsEstimator, WlsOptions};
use pgse::grid::cases::ieee14;
use pgse::powerflow::{solve, PfOptions};

fn main() {
    let net = ieee14();
    println!("case: {} ({} buses, {} branches)", net.name, net.n_buses(), net.n_branches());

    // Ground truth.
    let pf = solve(&net, &PfOptions::default()).expect("power flow converges");
    println!(
        "power flow: {} Newton iterations, mismatch {:.2e} p.u., losses {:.2} MW\n",
        pf.iterations,
        pf.mismatch,
        pf.total_losses() * net.base_mva
    );

    // One telemetry scan: full SCADA + a PMU at the slack bus.
    let plan = TelemetryPlan::full(&net, vec![net.slack()]);
    let scan = plan.generate(&net, &pf, 1.0, 42);
    println!(
        "telemetry: {} measurements ({} PMU), redundancy {:.2}",
        scan.len(),
        scan.n_pmu(),
        scan.redundancy(2 * net.n_buses() - 1)
    );

    // WLS: every Gauss–Newton step solves its gain system through the
    // cache's sparse Cholesky — one full factorization, numeric refreshes after.
    let estimator = WlsEstimator::new(
        net.clone(),
        StateSpace::with_reference(net.n_buses(), net.slack()),
        WlsOptions::default(),
    );
    let mut cache = SolveCache::new();
    let est = estimator.estimate_cached(&scan, None, &mut cache).expect("estimation converges");
    println!(
        "WLS: {} Gauss-Newton iterations, objective {:.1}, gain factors {} full + {} refreshed\n",
        est.iterations, est.objective, cache.refactor_full, cache.refactor_reuse
    );

    println!("bus |  V true  V est   |  angle true  angle est (deg)");
    println!("----+-------------------+----------------------------");
    let deg = 180.0 / std::f64::consts::PI;
    for i in 0..net.n_buses() {
        println!(
            "{:>3} |  {:.4}  {:.4}   |  {:>8.3}    {:>8.3}",
            net.buses[i].id,
            pf.vm[i],
            est.vm[i],
            pf.va[i] * deg,
            est.va[i] * deg
        );
    }
    println!(
        "\nRMSE: |V| {:.2e} p.u., angle {:.2e} rad",
        est.vm_rmse(&pf.vm),
        est.va_rmse(&pf.va)
    );
}
