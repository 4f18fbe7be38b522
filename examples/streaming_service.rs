//! The continuous state-estimation service (`pgse-stream`) end to end:
//! a warm-started lockstep run over the IEEE-118-like system, a cold
//! rerun of the same frame stream for comparison, and a free-running
//! run with a tight queue to demonstrate explicit load shedding.
//!
//! Writes the warm run's full ObsReport to
//! `target/obs/stream_service.json`.
//!
//! ```text
//! cargo run --release --example streaming_service
//! ```

use std::time::Duration;

use pgse::grid::cases::ieee118_like;
use pgse::stream::{StreamConfig, StreamReport, StreamService};

const FRAMES: u64 = 30;

fn print_report(tag: &str, report: &StreamReport) {
    println!("{tag}:");
    println!(
        "  frames: {} fed, {} ingested, {} solved, {} shed (stale {}, overflow {}, superseded {}), {} corrupt",
        report.frames_fed,
        report.ingested,
        report.area_frames_solved,
        report.shed(),
        report.shed_stale,
        report.shed_overflow,
        report.shed_superseded,
        report.corrupt,
    );
    println!(
        "  rounds: {} total, {} published, {} rejected, {} unpublishable | degraded area-rounds {}",
        report.rounds,
        report.frames_published,
        report.publish_rejected,
        report.rounds_unpublishable,
        report.degraded_area_rounds,
    );
    println!(
        "  solve: {} GN iterations in {:.1} ms | symbolic {} built / {} reused, {} warm starts",
        report.gn_iterations,
        report.solve_nanos as f64 / 1e6,
        report.symbolic_builds,
        report.symbolic_reuses,
        report.warm_solves,
    );
    println!(
        "  serve: epoch {:?} | {:.1} frames/s | frame latency p50 {:.2} ms, p99 {:.2} ms",
        report.last_epoch,
        report.frames_per_second(),
        report.latency_p50_ms,
        report.latency_p99_ms,
    );
    assert_eq!(report.unaccounted(), 0, "accounting identity must close");
    println!("  accounting: ingested == solved + shed  ✓\n");
}

fn main() {
    let net = ieee118_like();
    let base = StreamConfig { n_frames: FRAMES, seed: 118, ..StreamConfig::default() };
    println!(
        "streaming SE service: {} buses, {} areas, {} frames per run\n",
        net.n_buses(),
        net.n_areas(),
        FRAMES
    );

    // 1. Warm lockstep run: symbolic structure and prior states carry
    //    across frames, so steady frames skip pattern discovery.
    let warm_service =
        StreamService::deploy(&net, StreamConfig { warm: true, ..base.clone() }).expect("deploy");
    let warm = warm_service.run();
    print_report("warm lockstep run", &warm);

    // 2. Cold rerun of the identical frame stream: every frame rebuilds
    //    symbolic structure and starts from flat voltages.
    let cold_service =
        StreamService::deploy(&net, StreamConfig { warm: false, ..base.clone() }).expect("deploy");
    let cold = cold_service.run();
    print_report("cold lockstep run", &cold);

    let iter_ratio = warm.gn_iterations as f64 / cold.gn_iterations.max(1) as f64;
    let time_ratio = warm.solve_nanos as f64 / cold.solve_nanos.max(1) as f64;
    println!(
        "warm / cold: {:.2}× GN iterations, {:.2}× solve time\n",
        iter_ratio, time_ratio
    );

    // 3. Free-running run with a tight queue: the feeder outpaces the
    //    solver, so the latest-wins policy sheds superseded frames —
    //    counted, never silently lost.
    let shed_service = StreamService::deploy(
        &net,
        StreamConfig {
            lockstep: false,
            queue_capacity: 2,
            pacing: Duration::from_micros(200),
            ..base.clone()
        },
    )
    .expect("deploy");
    let shed = shed_service.run();
    print_report("free-running run (tight queue)", &shed);

    std::fs::create_dir_all("target/obs").expect("create target/obs");
    let obs = warm_service.obs_report();
    std::fs::write("target/obs/stream_service.json", obs.to_json()).expect("write report");
    println!("artifact: target/obs/stream_service.json");
}
