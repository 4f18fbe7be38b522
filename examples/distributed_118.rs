//! The paper's testbed scenario: the IEEE-118-like system, decomposed into
//! 9 subsystems, distributed over the 3-cluster fleet (Nwiceb, Catamount,
//! Chinook) with pseudo-measurement exchange through MeDICi pipelines.
//!
//! Runs several time frames of the full prototype and prints the mapping,
//! imbalance ratios, migration, exchange volume, and accuracy of each —
//! the live version of the paper's Figs. 4–5 and Table II. Each area keeps
//! its factorizations across frames: the run analyses every area's two
//! gain structures once, checked at the end.
//!
//! ```text
//! cargo run --release --example distributed_118
//! ```

use pgse::core::{PrototypeConfig, SystemPrototype};
use pgse::grid::cases::ieee118_like;

fn main() {
    let net = ieee118_like();
    println!(
        "deploying prototype: {} buses, {} subsystems, 3 HPC clusters\n",
        net.n_buses(),
        net.n_areas()
    );
    let mut prototype =
        SystemPrototype::deploy(net, PrototypeConfig::default()).expect("deployment");

    // Decomposition summary (paper Fig. 3 / Table I).
    let decomp = prototype.decomposition();
    println!("decomposition graph: {} edges, diameter {}", decomp.edges.len(), decomp.diameter());
    for (a, info) in decomp.areas.iter().enumerate() {
        println!(
            "  subsystem {}: {} buses, {} boundary, {} sensitive (gs = {})",
            a + 1,
            info.subnet.n_buses(),
            info.boundary.len(),
            info.sensitive.len(),
            info.gs()
        );
    }
    println!();

    let cluster_names = ["Nwiceb", "Catamount", "Chinook"];
    for frame in 0..4u64 {
        let dt = frame as f64 * 6.0 * 3600.0; // every 6 hours of the day
        let report = prototype.run_frame(dt).expect("frame runs");
        println!("frame {} (δt = {:>6.0} s):", report.frame, report.dt_seconds);
        println!(
            "  noise level x = {:.3}, predicted Ni = {:.2}, observed Ni = {:?}",
            report.noise_level, report.predicted_iterations, report.step1_iterations
        );
        let obs = prototype.obs_report();
        let step2_iterations: Vec<u64> = obs
            .spans_named("area.step2")
            .into_iter()
            .filter(|(_, sp)| sp.logical == Some(report.frame))
            .filter_map(|(_, sp)| sp.field_u64("iterations"))
            .collect();
        println!("  step-2 GN iterations = {step2_iterations:?}");
        for (c, name) in cluster_names.iter().enumerate() {
            let subs: Vec<String> = report
                .step1_assignment
                .iter()
                .enumerate()
                .filter(|(_, &p)| p == c)
                .map(|(a, _)| (a + 1).to_string())
                .collect();
            println!(
                "  {:<10} hosts subsystems {{{}}} ({} buses)",
                name,
                subs.join(", "),
                report.buses_per_cluster[c]
            );
        }
        println!(
            "  step1 imbalance {:.3} | step2 imbalance {:.3}, cut {:.0}, migrations {}",
            report.step1_imbalance, report.step2_imbalance, report.step2_cut, report.migrations
        );
        println!(
            "  exchange: {} bytes over {} middleware frames in {:?}",
            report.exchanged_bytes, report.relayed_frames, report.exchange_time
        );
        println!(
            "  times: step1 {:?}, step2 {:?} | accuracy: |V| rmse {:.2e}, angle rmse {:.2e}\n",
            report.step1_time, report.step2_time, report.vm_rmse, report.va_rmse
        );
    }

    // Machine-readable run breakdown: the ObsReport aggregates every
    // scope's spans and counters across the four frames.
    let obs = prototype.obs_report();
    println!("observability: per-stage totals over 4 frames");
    for (stage, stat) in obs.stage_totals() {
        println!(
            "  {:<16} × {:>3}  {:>10.3} ms",
            stage,
            stat.count,
            stat.wall_nanos as f64 / 1e6
        );
    }
    println!("observability: per-area gain factors / middleware retries");
    for scope in &obs.scopes {
        if !scope.scope.starts_with("area") {
            continue;
        }
        println!(
            "  {:<8} gain factors {:>2} full + {:>3} refreshed | retries {}",
            scope.scope,
            scope.metrics.counter("wls.refactor.full"),
            scope.metrics.counter("wls.refactor.reuse"),
            scope.metrics.counter("mw.retry.attempts"),
        );
    }
    println!(
        "  frame    sends ok {} | retries {} | missed {}",
        obs.counter("frame", "mw.send.ok"),
        obs.counter("frame", "mw.retry.attempts"),
        obs.counter("frame", "exchange.missed"),
    );
    // Each area analyses its Step-1 and Step-2 gain structures on the
    // first frame and refreshes the held factors on every later one.
    let (builds, reuses) =
        (obs.total_counter("wls.symbolic.build"), obs.total_counter("wls.symbolic.reuse"));
    println!("  symbolic analyses: {builds} built, {reuses} reused");
    let areas = prototype.decomposition().n_areas() as u64;
    assert_eq!(builds, 2 * areas, "a warm frame re-analysed a gain structure");
    std::fs::create_dir_all("target/obs").expect("create target/obs");
    std::fs::write("target/obs/distributed_118.json", obs.to_json()).expect("write report");
    println!("\nfull ObsReport JSON written to target/obs/distributed_118.json");
}
