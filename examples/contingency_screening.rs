//! Streaming N-1 contingency screening: the scenario engine consuming
//! the snapshot epoch stream and publishing violation products.
//!
//! Publishes three estimated operating points into a `SnapshotStore`
//! (progressively more stressed), sweeps each with the two-tier
//! screening engine (warm rank-1 DC screen → warm-started AC
//! confirmation of the suspects), and prints the per-epoch accounting
//! plus the published product stream. Asserts that every sweep closes its
//! accounting identity and that the published products advance with the
//! base epoch.
//!
//! ```text
//! cargo run --release --example contingency_screening
//! ```

use pgse::grid::cases::ieee118_like;
use pgse::powerflow::{solve, PfOptions};
use pgse::stream::{
    ScenarioConfig, ScenarioEngine, ScenarioStore, SnapshotStore, SystemSnapshot,
};

fn main() {
    let net = ieee118_like();
    let base = solve(&net, &PfOptions::default()).expect("base case");

    // The epoch stream: the same solved state under progressively higher
    // loading, standing in for the estimator's published snapshots.
    let store = SnapshotStore::new();
    let out = ScenarioStore::new();
    let engine = ScenarioEngine::new(net.clone(), ScenarioConfig { n_workers: 4, ..Default::default() });

    println!(
        "streaming N-1 screening: {} outages per epoch, {} workers\n",
        net.n_branches(),
        4
    );
    println!("epoch | islanded | screened | suspects | violated | cleared | p99 case | identity");
    println!("------+----------+----------+----------+----------+---------+----------+---------");

    let mut last_base_epoch = None;
    for (epoch, stress) in [1.0f64, 1.03, 1.06].iter().enumerate() {
        let snap = SystemSnapshot {
            epoch: epoch as u64,
            frame_seq: epoch as u64 + 1,
            dt_seconds: 0.0,
            vm: base.vm.iter().map(|v| v / stress.sqrt()).collect(),
            va: base.va.iter().map(|a| a * stress).collect(),
            degraded_areas: Vec::new(),
        };
        store.publish(snap).expect("monotone epoch stream");
        let r = engine.run(&store, &out, 1).remove(0);
        println!(
            "{:>5} | {:>8} | {:>8} | {:>8} | {:>8} | {:>7} | {:>6.2}ms | {}",
            r.base_epoch,
            r.skipped_islanding,
            r.screened,
            r.suspects,
            r.violated,
            r.cleared,
            r.p99_case_ns() as f64 / 1e6,
            if r.identity_holds() { "closed" } else { "VIOLATED" },
        );
        assert!(r.identity_holds(), "epoch {}: accounting identity violated", r.base_epoch);
        let base_epoch = out.load().expect("a completed sweep publishes").base_epoch;
        assert!(
            last_base_epoch < Some(base_epoch),
            "products must advance with the base epoch: {last_base_epoch:?} then {base_epoch}"
        );
        last_base_epoch = Some(base_epoch);
    }

    let product = out.load().expect("products published");
    println!(
        "\nlatest product: epoch {} (base epoch {}, frame {}) — {} insecure case(s)",
        product.epoch,
        product.base_epoch,
        product.base_frame_seq,
        product.insecure.len()
    );
    for case in product.insecure.iter().take(8) {
        let br = &net.branches[case.branch];
        println!(
            "  outage of branch {} ({}-{}): {}{} violation(s)",
            case.branch,
            br.from,
            br.to,
            if case.converged { "" } else { "DIVERGED, " },
            case.violations.len(),
        );
    }
}
