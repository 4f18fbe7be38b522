//! Differential oracle for the distributed estimator on grids other than
//! IEEE-118: on seeded multi-area rings the two-step DSE answer is held
//! against the centralized WLS answer on the same seed. Changes to Step 2
//! are judged here as well as on the bundled case.

use pgse::dse::runner::{run_centralized, run_dse, DseOptions};
use pgse::grid::cases::builder::{build, AreaPlan};
use pgse::powerflow::{solve, PfOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A ring of 3–5 areas with 20–40 buses each, sizes drawn from `seed`.
fn ring_plan(seed: u64) -> AreaPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_areas = rng.gen_range(3usize..=5);
    AreaPlan {
        name: format!("ring-{seed}"),
        bus_counts: (0..n_areas).map(|_| rng.gen_range(20usize..=40)).collect(),
        area_edges: (0..n_areas).map(|a| (a, (a + 1) % n_areas)).collect(),
        ties_per_edge: 2,
        seed,
        load_mw: (15.0, 45.0),
        chord_fraction: 0.25,
    }
}

#[test]
fn dse_tracks_the_centralized_estimate_on_seeded_rings() {
    for seed in 0..12u64 {
        let net = build(&ring_plan(seed));
        let pf = solve(&net, &PfOptions::default())
            .unwrap_or_else(|e| panic!("ring {seed}: power flow failed: {e}"));
        let opts = DseOptions { seed: 100 + seed, ..DseOptions::default() };

        let dse = run_dse(&net, &pf, &opts).unwrap();
        let (central, _) = run_centralized(&net, &pf, &opts).unwrap();

        // Decentralization costs some optimality, never more than a small
        // factor of the centralized error, and never the absolute gate the
        // benchmark holds IEEE-118 to.
        let (c_vm, c_va) = (central.vm_rmse(&pf.vm), central.va_rmse(&pf.va));
        for (what, d, c) in [
            ("vm", dse.vm_rmse(&pf.vm), c_vm),
            ("va", dse.va_rmse(&pf.va), c_va),
        ] {
            assert!(d <= 3.0 * c + 1e-4, "ring {seed} {what}: dse {d:.3e} vs central {c:.3e}");
            assert!(d <= 5e-3, "ring {seed} {what}: dse rmse {d:.3e}");
        }
    }
}
