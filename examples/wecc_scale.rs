//! The paper's ongoing-work target: DSE across a WECC-sized system with
//! 37 balancing authorities, on a larger cluster fleet, including the
//! two-level hierarchical reconciliation the reliability coordinator runs
//! today.
//!
//! ```text
//! cargo run --release --example wecc_scale
//! ```

use pgse::core::{PrototypeConfig, SystemPrototype};
use pgse::dse::decomposition::{decompose, DecompositionOptions};
use pgse::dse::estimator::AreaEstimator;
use pgse::dse::hierarchical::{reconcile_hierarchy, Coordinator};
use pgse::estimation::wls::{SolveCache, WlsOptions};
use pgse::grid::cases::{synthetic_grid, SyntheticSpec};
use pgse::powerflow::{solve, PfOptions};

fn main() {
    // A WECC-scale interconnection: 37 balancing authorities.
    let net = synthetic_grid(&SyntheticSpec::default());
    println!(
        "WECC-scale synthetic interconnection: {} buses, {} branches, {} balancing authorities\n",
        net.n_buses(),
        net.n_branches(),
        net.n_areas()
    );

    // --- The full prototype on 6 clusters.
    let config = PrototypeConfig { n_clusters: 6, ..Default::default() };
    let mut proto = SystemPrototype::deploy(net.clone(), config).expect("deployment");
    let report = proto.run_frame(0.0).expect("frame");
    println!("prototype frame (6 clusters, decentralized exchange):");
    println!(
        "  mapping imbalance {:.3}, step2 cut {:.0}, migrations {}",
        report.step1_imbalance, report.step2_cut, report.migrations
    );
    println!(
        "  step1 {:?} + exchange {:?} ({} B) + step2 {:?}",
        report.step1_time, report.exchange_time, report.exchanged_bytes, report.step2_time
    );
    println!(
        "  accuracy: |V| rmse {:.2e} p.u., angle rmse {:.2e} rad\n",
        report.vm_rmse, report.va_rmse
    );

    // --- The two-level hierarchy the reliability coordinator runs today.
    let pf = solve(&net, &PfOptions::default()).expect("power flow");
    let decomp = decompose(&net, &DecompositionOptions::default());
    let estimators: Vec<AreaEstimator> = decomp
        .areas
        .iter()
        .map(|a| AreaEstimator::new(a.clone(), &net, &pf, WlsOptions::default()))
        .collect();
    let t0 = std::time::Instant::now();
    let step1: Vec<_> = estimators
        .iter()
        .map(|e| {
            e.step1_cached(&e.generate_telemetry(1.0, 17), &mut SolveCache::new()).expect("step1")
        })
        .collect();
    let uploads: Vec<_> =
        estimators.iter().zip(&step1).map(|(e, s)| e.export_pseudo(s)).collect();
    let coordinator = Coordinator::new(&net, &decomp, &pf, WlsOptions::default());
    let merged = reconcile_hierarchy(&coordinator, &decomp, &step1, &uploads, 1.0, 17)
        .expect("reconciliation");
    let elapsed = t0.elapsed();

    let (vm, va) = pgse::dse::runner::aggregate(&decomp, &merged);
    let rmse = |a: &[f64], b: &[f64]| {
        (a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>() / a.len() as f64).sqrt()
    };
    println!("hierarchical (two-level) estimation:");
    println!(
        "  coordinator boundary system: {} buses, {} tie lines",
        coordinator.n_boundary_buses(),
        decomp.tie_lines.len()
    );
    println!(
        "  local solves + reconciliation in {:?}; |V| rmse {:.2e}, angle rmse {:.2e}",
        elapsed,
        rmse(&vm, &pf.vm),
        rmse(&va, &pf.va)
    );
    println!("\n(the paper's ongoing work: real-time DSE at the BA level feeding the RC hierarchy)");
}
