//! Live failover demo: a lockstep streaming run over the IEEE-118-like
//! system in which an entire compute cluster is killed mid-stream. The
//! supervisor detects the loss on its deterministic round clock,
//! repartitions the decomposition graph over the survivors, hands the
//! orphaned areas their checkpoints, and the service keeps publishing —
//! the run prints the full supervision event log and the recovery
//! latency in rounds.
//!
//! Writes `target/obs/failover.json` — the run's full ObsReport,
//! including the `stream.supervise` scope (deaths, migrations, shipped
//! checkpoint bytes).
//!
//! ```text
//! cargo run --release --example failover
//! ```

use pgse::grid::cases::ieee118_like;
use pgse::stream::supervise::{DEAD_AFTER, N_CLUSTERS};
use pgse::stream::{KillSchedule, StreamConfig, StreamService, SupervisionEvent};

const FRAMES: u64 = 24;
const KILL_SEQ: u64 = 8;
const DEAD_CLUSTER: usize = 1;

fn main() {
    let net = ieee118_like();
    let cfg = StreamConfig {
        n_frames: FRAMES,
        seed: 118,
        deterministic_rounds: true,
        kills: KillSchedule {
            cluster_kills: vec![(KILL_SEQ, DEAD_CLUSTER)],
            ..KillSchedule::default()
        },
        ..StreamConfig::default()
    };
    let service = StreamService::deploy(&net, cfg).expect("deploy");
    let assignment = service.cluster_assignment().to_vec();
    let orphans: Vec<usize> = assignment
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c == DEAD_CLUSTER)
        .map(|(a, _)| a)
        .collect();
    println!(
        "failover demo: {} buses, {} areas on {} clusters (assignment {:?})",
        net.n_buses(),
        assignment.len(),
        N_CLUSTERS,
        assignment,
    );
    println!(
        "kill schedule: cluster {DEAD_CLUSTER} (areas {orphans:?}) dies at frame {KILL_SEQ} of {FRAMES}\n"
    );

    let report = service.run();

    println!("supervision log:");
    for event in &report.events {
        println!("  [seq {:>2}] {event:?}", event.seq());
    }

    // Recovery latency: rounds from the kill to the last orphan's fresh
    // publish. The watchdog bound is `DEAD_AFTER + 1` rounds.
    let recovered_seq = report
        .events
        .iter()
        .filter_map(|e| match *e {
            SupervisionEvent::Recovered { area, seq } if orphans.contains(&area) => Some(seq),
            _ => None,
        })
        .max()
        .expect("orphaned areas never recovered");
    println!(
        "\nrecovery: {} areas re-hosted off cluster {DEAD_CLUSTER}, {} checkpoint bytes shipped",
        report.areas_rehosted, report.failover_bytes,
    );
    println!(
        "recovery latency: {} rounds (kill at seq {KILL_SEQ}, all fresh by seq {recovered_seq}; bound {})",
        recovered_seq - KILL_SEQ,
        DEAD_AFTER + 1,
    );
    println!(
        "restarts: {} warm from checkpoints, {} cold | heartbeats {}, suspected {}, dead {}",
        report.checkpoints_restored,
        report.cold_restarts,
        report.heartbeats,
        report.suspected,
        report.workers_declared_dead,
    );
    println!(
        "service: {} / {} frames published, last epoch {:?}, requeued {}, degraded area-rounds {}",
        report.frames_published,
        FRAMES,
        report.last_epoch,
        report.requeued,
        report.degraded_area_rounds,
    );

    assert_eq!(report.cluster_deaths, 1, "the cluster kill must fire");
    assert_eq!(report.areas_rehosted, orphans.len() as u64, "every orphan re-hosted");
    assert_eq!(report.frames_published, FRAMES, "publishing never stopped");
    let snap = service.store().load().expect("final snapshot");
    assert!(snap.degraded_areas.is_empty(), "final state fully fresh: {snap:?}");
    assert_eq!(report.unaccounted(), 0, "accounting identity must close");
    println!("accounting: ingested + requeued == solved + shed  ✓");

    std::fs::create_dir_all("target/obs").expect("create target/obs");
    let obs = service.obs_report();
    std::fs::write("target/obs/failover.json", obs.to_json()).expect("write report");
    println!("\nartifact: target/obs/failover.json");
}
