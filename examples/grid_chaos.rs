//! Grid chaos: every robustness layer of DESIGN.md §15 in one seeded
//! run over the IEEE-118-like system — a 25σ gross measurement error, an
//! RTU outage shedding two telemetry sites, and a line switched out
//! mid-stream under PGSF v2 versioned topology.
//!
//! The run demonstrates and asserts:
//! * the chi-square gate catches the injected gross error and the LNR
//!   loop removes exactly the seeded measurement
//!   (`suspect_frames == cleared_by_lnr + degraded_unidentifiable`);
//! * observability restoration repairs the shortened post-outage scan
//!   with pseudo measurements (`rtu_outages == frames_restored +
//!   short_scan_observable + unobservable_degraded`);
//! * the line switch islands nothing, so the transition re-values every
//!   area's model on its deployed patterns and rebuilds no symbolic
//!   structure (`symbolic_rebuilds == 0`, two builds per area);
//! * publishing never stops and the frame accounting identity closes;
//! * a same-seed rerun produces a byte-identical deterministic
//!   ObsReport — chaos included.
//!
//! Writes `target/obs/grid_chaos.json` (the deterministic ObsReport).
//!
//! ```text
//! cargo run --release --example grid_chaos
//! ```

use pgse::grid::cases::ieee118_like;
use pgse::grid::Network;
use pgse::medici::ScanFaultPlan;
use pgse::stream::{BadDataGate, StreamConfig, StreamService, SwitchingEvent};

const FRAMES: u64 = 16;

/// First branch whose endpoints share an area: opening it cannot island
/// the grid (area subgraphs are 2-edge-connected in this case family),
/// so the switch is a value on the deployed models, not an islanding
/// merge.
fn intra_area_branch(net: &Network) -> usize {
    net.branches
        .iter()
        .position(|br| net.buses[br.from].area == net.buses[br.to].area)
        .expect("the 118-bus case has intra-area branches")
}

fn chaos_config(branch: usize) -> StreamConfig {
    StreamConfig {
        n_frames: FRAMES,
        seed: 118,
        warm: true,
        deterministic_rounds: true,
        // One 25σ gross error in area 2's frame 3, one RTU outage
        // shedding two sites from area 4's frame 6 — both pure functions
        // of (area, seq), so reruns inject identically.
        scan_faults: Some(ScanFaultPlan {
            seed: 13,
            gross_magnitude: 25.0,
            rtu_sites: 2,
            gross_at: vec![(3, 2)],
            rtu_at: vec![(6, 4)],
            ..ScanFaultPlan::default()
        }),
        baddata: Some(BadDataGate::default()),
        restoration: true,
        // Line switched out at frame 10: frames 10.. carry PGSF v2 with
        // the new topology version.
        switching: vec![SwitchingEvent { at_seq: 10, branch, close: false }],
        ..StreamConfig::default()
    }
}

fn main() {
    let net = ieee118_like();
    let branch = intra_area_branch(&net);
    println!(
        "grid chaos: {} buses, {} areas, {} frames — gross error @3, RTU outage @6, line {} out @10\n",
        net.n_buses(),
        net.n_areas(),
        FRAMES,
        branch,
    );

    let service = StreamService::deploy(&net, chaos_config(branch)).expect("deploy");
    let affected = service.stage_affected_areas(1);
    let report = service.run();

    println!(
        "frames: {} published of {} fed | rounds {} | degraded area-rounds {}",
        report.frames_published, report.frames_fed, report.rounds, report.degraded_area_rounds,
    );
    println!(
        "bad data: {} injected, {} suspect frames, {} cleared by LNR, {} measurements rejected",
        report.gross_injected,
        report.suspect_frames,
        report.cleared_by_lnr,
        report.bad_data_removed,
    );
    for ev in &report.bad_data_events {
        println!("  seq {} area {}: rejected layout rows {:?}", ev.seq, ev.area, ev.removed);
    }
    println!(
        "restoration: {} outages shed {} measurements, {} frames restored with {} pseudo measurements",
        report.rtu_outages,
        report.rtu_shed_measurements,
        report.frames_restored,
        report.pseudo_added,
    );
    println!(
        "topology: {} transition(s), {} symbolic rebuild(s) across affected areas {:?}",
        report.topology_transitions,
        report.symbolic_rebuilds,
        (0..affected.len()).filter(|&a| affected[a]).collect::<Vec<_>>(),
    );

    // Every robustness identity closes from the one report.
    assert_eq!(report.unaccounted(), 0, "frame accounting identity");
    assert_eq!(
        report.suspect_frames,
        report.cleared_by_lnr + report.degraded_unidentifiable,
        "bad-data identity"
    );
    assert_eq!(
        report.rtu_outages,
        report.frames_restored + report.short_scan_observable + report.unobservable_degraded,
        "restoration identity"
    );
    assert_eq!(report.frames_published, FRAMES, "chaos must not stop publishing");
    assert!(report.cleared_by_lnr >= 1, "the injected gross error must be identified");
    assert_eq!(report.topology_transitions, 1, "one mid-stream topology switch");
    assert_eq!(report.symbolic_rebuilds, 0, "a switch that islands nothing rebuilds nothing");
    assert_eq!(report.area_symbolic_builds, vec![2; affected.len()], "deploy-time builds only");
    println!("\nidentities: accounting ✓  bad-data ✓  restoration ✓  publishing never stopped ✓");

    // Same-seed rerun: chaos, restoration, and the topology switch are
    // all deterministic, so the ObsReport must be byte-identical.
    let obs = service.obs_report().to_json_deterministic();
    let rerun = StreamService::deploy(&net, chaos_config(branch)).expect("deploy rerun");
    let rerun_report = rerun.run();
    assert_eq!(rerun_report.frames_published, FRAMES);
    let obs2 = rerun.obs_report().to_json_deterministic();
    assert_eq!(obs, obs2, "same-seed chaos runs must export byte-identical ObsReports");
    println!("determinism: same-seed rerun exported a byte-identical ObsReport ✓");

    std::fs::create_dir_all("target/obs").expect("create target/obs");
    std::fs::write("target/obs/grid_chaos.json", &obs).expect("write report");
    println!("artifact: target/obs/grid_chaos.json");
}
