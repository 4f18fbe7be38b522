//! `steady118`, `tiles12x30`, `faults118`: the full hop chain of the
//! north star, timed where a reader sees it.
//!
//! `StreamService::run` (feeder → PGSF → medici TCP → ingest → Step 1 →
//! exchange → Step 2 → publish) runs in one thread,
//! `pgse_serve::tail_store` forwards its store into a `Broadcaster`, a
//! `SnapshotServer` streams PGSS deltas over TCP, and the harness thread
//! is the one `RemoteReader`. The service runs lockstep: scan *s* is sent
//! only after state *s−1* published, so the interval between consecutive
//! epochs decoded at the reader is one full scan-to-reader cycle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pgse_grid::cases::ieee118_like;
use pgse_grid::Network;
use pgse_medici::{EndpointRegistry, ScanFault, ScanFaultPlan};
use pgse_powerflow::{solve, PfOptions};
use pgse_serve::{
    apply_delta, tail_store, AreaMap, Broadcaster, DeliveryMode, FullView, RemoteReader,
    ServeConfig, ServeMsg, SnapshotServer, Subscribe, SubscriptionFilter,
};
use pgse_stream::{
    BadDataGate, KillSchedule, StreamConfig, StreamReport, StreamService, SwitchingEvent,
};

use super::{rmse, Detail, Meter, Pass, Workload};
use crate::spans::{Tracer, NO_PARENT};
use crate::tiles::tiled_grid;

/// Seed of the tile plan: the tile's topology is part of the workload's
/// definition, not of its seeded inputs.
const TILE_PLAN_SEED: u64 = 30;
/// Tiles in the ring. 24 tiles diverge in power flow and deploy time is
/// superlinear in bus count, so the grid stays at 360 buses.
const N_TILES: usize = 12;
/// Logical URL of the snapshot server (resolved to an ephemeral port).
const SERVE_URL: &str = "tcp://serve.benchmark:9000";
/// How often the store tail and the reader's idle check poll.
const TAIL_POLL: Duration = Duration::from_micros(100);
/// Reader wait per message before it checks whether the service ended.
const READ_DEADLINE: Duration = Duration::from_millis(250);
/// Accuracy gate: RMSE of the reader's reconstructed state against the
/// power-flow truth, in p.u. and radians.
const RMSE_BOUND: f64 = 5e-3;

/// The grid stream workload `w` runs on.
///
/// # Errors
/// When the tile grid does not assemble.
pub fn grid(w: Workload) -> Result<Network, String> {
    match w {
        Workload::Tiles12x30 => tiled_grid(N_TILES, TILE_PLAN_SEED),
        _ => Ok(ieee118_like()),
    }
}

/// The seeded measurement-fault plan of `faults118`.
pub fn scan_fault_plan(seed: u64) -> ScanFaultPlan {
    ScanFaultPlan {
        seed: 13 ^ seed,
        gross_prob: 0.2,
        gross_magnitude: 25.0,
        rtu_prob: 0.1,
        rtu_sites: 2,
        ..ScanFaultPlan::default()
    }
}

/// The service configuration of stream workload `w` for `n_frames`
/// frames.
///
/// Every stream workload sets `deterministic_rounds` on top of
/// `StreamConfig::default()`: a round starts once every area's queue has
/// accepted the frame it solves. The free-running
/// `pop_latest(pop_deadline)` sweep gives an area 50 ms to show up, so on
/// a shared host a scheduler stall degrades about one round in 10 000 —
/// a failed operation that comes and goes between two sets of runs of the
/// same code, which no benchmark can be compared on. The gate also makes
/// the round structure, and so `faults118`'s asserted fault counts,
/// seed-determined.
pub fn stream_config(w: Workload, net: &Network, n_frames: u64, seed: u64) -> StreamConfig {
    let base = StreamConfig {
        n_frames,
        seed,
        deterministic_rounds: true,
        ..StreamConfig::default()
    };
    if w != Workload::Faults118 {
        return base;
    }
    StreamConfig {
        scan_faults: Some(scan_fault_plan(seed)),
        baddata: Some(BadDataGate::default()),
        restoration: true,
        switching: vec![SwitchingEvent {
            at_seq: (n_frames / 2).max(1),
            branch: net.tie_lines()[0],
            close: false,
        }],
        kills: KillSchedule {
            worker_kills: vec![(n_frames / 4, 3)],
            ..KillSchedule::default()
        },
        ..base
    }
}

/// Everything a stream pass needs, deployed and connected.
pub struct StreamReady {
    workload: Workload,
    n_frames: u64,
    net: Network,
    service: StreamService,
    bc: Arc<Broadcaster>,
    server: SnapshotServer,
    reader: RemoteReader,
}

impl std::fmt::Debug for StreamReady {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamReady")
            .field("workload", &self.workload)
            .field("n_frames", &self.n_frames)
            .finish()
    }
}

/// Counts of one stream pass.
#[derive(Debug)]
pub struct StreamDetail {
    pub report: StreamReport,
}

/// Builds the grid, the service, the serving side and the one streamed
/// reader.
///
/// # Errors
/// A one-line description of the step that failed.
pub fn setup(
    w: Workload,
    n_frames: u64,
    seed: u64,
    tracer: &Tracer,
) -> Result<StreamReady, String> {
    let root = tracer.begin("setup", NO_PARENT, 0);
    let net = tracer.scoped("grid.build", root.id(), 0, || grid(w))?;
    let cfg = stream_config(w, &net, n_frames, seed);

    let service = tracer
        .scoped("stream.deploy", root.id(), 0, || {
            StreamService::deploy(&net, cfg)
        })
        .map_err(|e| format!("{}: stream service did not deploy: {e}", net.name))?;

    let map = AreaMap::new(
        service
            .decomposition()
            .areas
            .iter()
            .map(|a| a.global_ids.iter().map(|&g| g as u32).collect())
            .collect(),
        net.n_buses() as u32,
    );
    let registry = EndpointRegistry::new();
    let bc = Arc::new(Broadcaster::new(map, 16));
    let server = tracer
        .scoped("serve.start", root.id(), 0, || {
            SnapshotServer::start(
                &registry,
                ServeConfig {
                    url: SERVE_URL.into(),
                    ..ServeConfig::default()
                },
                Arc::clone(&bc),
            )
        })
        .map_err(|e| format!("snapshot server did not start: {e}"))?;
    let reader = tracer
        .scoped("serve.reader_connect", root.id(), 0, || {
            RemoteReader::connect(
                &registry,
                SERVE_URL,
                Subscribe {
                    filter: SubscriptionFilter::All,
                    mode: DeliveryMode::Delta,
                    deliver_url: None,
                },
            )
        })
        .map_err(|e| format!("reader did not connect: {e}"))?;
    // The reactor registers the subscription on its next sweep; the run
    // must not publish before it has, or the first epoch is a catch-up.
    let t0 = Instant::now();
    while bc.n_subscribers() == 0 {
        if t0.elapsed() > Duration::from_secs(5) {
            return Err("the reactor did not register the reader within 5 s".into());
        }
        std::thread::sleep(TAIL_POLL);
    }
    root.end();
    Ok(StreamReady {
        workload: w,
        n_frames,
        net,
        service,
        bc,
        server,
        reader,
    })
}

/// Power-flow truth on the topology the run ends on (`faults118` opens a
/// tie line half way through).
fn final_truth(net: &Network, cfg: &StreamConfig) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut closed = vec![true; net.n_branches()];
    for ev in &cfg.switching {
        closed[ev.branch] = ev.close;
    }
    let pf = solve(&net.with_branch_status(&closed), &PfOptions::default())
        .map_err(|e| format!("ground-truth power flow failed: {e}"))?;
    Ok((pf.vm, pf.va))
}

/// Scan faults `plan` schedules over the run, `(gross, rtu)` — re-derived
/// from the plan alone, independently of what the feeder counted.
fn scheduled_faults(plan: &ScanFaultPlan, n_frames: u64, n_areas: usize) -> (u64, u64) {
    let (mut gross, mut rtu) = (0, 0);
    for s in 0..n_frames {
        for a in 0..n_areas {
            match plan.fault_for(a, s) {
                Some(ScanFault::GrossError { .. }) => gross += 1,
                Some(ScanFault::RtuOutage { .. }) => rtu += 1,
                None => {}
            }
        }
    }
    (gross, rtu)
}

/// Runs the service to completion with the harness thread as the reader.
pub fn run(ready: StreamReady, tracer: &Tracer) -> Pass {
    let StreamReady {
        workload,
        n_frames,
        net,
        service,
        bc,
        server,
        mut reader,
    } = ready;
    let mut problems = Vec::new();
    let stop_tail = AtomicBool::new(false);
    let service_done = AtomicBool::new(false);
    let root = tracer.begin("run", NO_PARENT, 0);
    let root_id = root.id();

    let mut meter = Meter::new(n_frames as usize);
    let mut held: Option<FullView> = None;
    let mut degraded_snapshots = 0u64;
    let mut tail_coalesced = 0u64;

    let report = std::thread::scope(|s| {
        let svc = s.spawn(|| {
            let r = tracer.scoped("stream.run", root_id, 0, || service.run());
            service_done.store(true, Ordering::SeqCst);
            r
        });
        let tail = s.spawn(|| {
            tracer.scoped("serve.tail_store", root_id, 0, || {
                tail_store(service.store(), &bc, &stop_tail, TAIL_POLL)
            })
        });

        let mut last_decoded = meter.now();
        loop {
            let op = held.as_ref().map_or(0, |v| v.frame_seq + 1);
            let span = tracer.begin("serve.reader_next", root_id, op);
            let msg = reader.next_within(READ_DEADLINE);
            span.end();
            let view = match msg {
                Ok(ServeMsg::Full(v)) => Some(v),
                Ok(ServeMsg::Delta(d)) => match held.as_ref() {
                    Some(base) => {
                        match tracer
                            .scoped("serve.apply_delta", root_id, op, || apply_delta(base, &d))
                        {
                            Ok(v) => Some(v),
                            Err(e) => {
                                problems.push(format!(
                                    "delta for epoch {} did not apply: {e}",
                                    d.epoch
                                ));
                                break;
                            }
                        }
                    }
                    None => {
                        problems.push("a delta arrived before any full view".into());
                        break;
                    }
                },
                Ok(other) => {
                    problems.push(format!("unexpected message from the server: {other:?}"));
                    break;
                }
                // Timeout or hang-up: over once the service has ended and
                // the reader holds its last epoch.
                Err(_) => {
                    let caught_up =
                        held.as_ref().map(|v| v.epoch) == service.store().current_epoch();
                    if service_done.load(Ordering::SeqCst) && caught_up {
                        break;
                    }
                    None
                }
            };
            if let Some(v) = view {
                // The store is latest-wins: a tail thread held up for a
                // whole cycle forwards only the newer epoch, and this
                // interval then spans more than one frame.
                let frames =
                    (v.frame_seq + 1).saturating_sub(held.as_ref().map_or(0, |h| h.frame_seq + 1));
                if frames > 0 {
                    let now = meter.now();
                    meter.record(frames, (now - last_decoded) * 1e3 / frames as f64);
                    last_decoded = now;
                    tail_coalesced += frames - 1;
                }
                degraded_snapshots += u64::from(!v.degraded_areas.is_empty());
                let last = v.frame_seq + 1 == n_frames;
                held = Some(v);
                if last {
                    break;
                }
            }
        }

        let report = svc.join().expect("service thread does not panic");
        // Let the tail forward anything the reader did not wait for, then
        // stop it.
        let t0 = Instant::now();
        while bc.report().epochs < report.frames_published && t0.elapsed() < Duration::from_secs(2)
        {
            std::thread::sleep(TAIL_POLL);
        }
        stop_tail.store(true, Ordering::SeqCst);
        tail.join().expect("tail thread does not panic");
        report
    });
    let (events, harness_cpu_s) = meter.finish();
    root.end();

    let last_snapshot = service.store().load();
    drop(reader);
    server.stop();
    let serve = bc.report();

    // ---- correctness gate ------------------------------------------------
    if report.unaccounted() != 0 {
        problems.push(format!(
            "stream accounting identity open by {}",
            report.unaccounted()
        ));
    }
    if serve.unaccounted() != 0 {
        problems.push(format!(
            "serve accounting identity open by {}",
            serve.unaccounted()
        ));
    }
    match (&held, &last_snapshot) {
        (Some(view), Some(snap)) => {
            if view.epoch != snap.epoch || view.vm != snap.vm || view.va != snap.va {
                problems
                    .push("the reader's reconstructed state differs from the last snapshot".into());
            }
            match final_truth(&net, service.config()) {
                Ok((vm, va)) => {
                    let (vm_err, va_err) = (rmse(&view.vm, &vm), rmse(&view.va, &va));
                    if !(vm_err <= RMSE_BOUND && va_err <= RMSE_BOUND) {
                        problems.push(format!(
                            "final state is off the power-flow truth: vm rmse {vm_err:.2e}, va rmse {va_err:.2e}"
                        ));
                    }
                }
                Err(e) => problems.push(e),
            }
        }
        _ => problems.push("no state reached the reader".into()),
    }
    if workload == Workload::Faults118 {
        if report.suspect_frames != report.cleared_by_lnr + report.degraded_unidentifiable {
            problems.push("bad-data identity is open".into());
        }
        // Every injected outage is restored, found observable or
        // degraded — except on the frames the killed worker's queue shed
        // while it was down, which were never solved.
        let handled =
            report.frames_restored + report.short_scan_observable + report.unobservable_degraded;
        if !(handled..=handled + report.shed()).contains(&report.rtu_outages) {
            problems.push(format!(
                "restoration identity is open: {} outages, {handled} handled, {} frames shed",
                report.rtu_outages,
                report.shed()
            ));
        }
        let expected_faults = service
            .config()
            .scan_faults
            .as_ref()
            .map_or((0, 0), |plan| {
                scheduled_faults(plan, n_frames, service.n_areas())
            });
        if (report.gross_injected, report.rtu_outages) != expected_faults {
            problems.push(format!(
                "injected (gross, rtu) = ({}, {}), the seeded plan schedules {expected_faults:?}",
                report.gross_injected, report.rtu_outages
            ));
        }
        if report.topology_transitions != 1 || report.workers_restarted == 0 {
            problems.push("the switching event or the worker kill did not take place".into());
        }
    }
    if workload == Workload::Tiles12x30 && report.batched_lanes == 0 {
        problems.push("no gain solve was batched on the tiled grid".into());
    }

    // A frame fails when the service never publishes it, when the
    // broadcaster sheds it for a reader that fell behind, or — on the
    // clean streams — when it is published with a degraded area: an area
    // missed its round. `faults118` injects the faults that degrade some
    // of its snapshots, so there they are the per-layer
    // `stream.degraded_share`. An epoch the latest-wins tail skipped did
    // not fail: the reader holds the newer state, and the check above
    // holds its last one against the store bit for bit.
    let degraded_failed = match workload {
        Workload::Faults118 => 0,
        _ => degraded_snapshots,
    };
    let failed = (n_frames.saturating_sub(report.frames_published) + serve.shed + degraded_failed)
        .min(n_frames);
    if failed > 0 || tail_coalesced > 0 {
        eprintln!(
            "{}: {failed} failed frames, {tail_coalesced} epochs skipped by the store tail: \
             published {} of {n_frames} ({degraded_snapshots} snapshots degraded at the reader), \
             rounds {}, degraded area rounds {}, solve errors {}, send failures {}, ingest shed \
             stale/overflow/superseded {}/{}/{}; serve epochs {}, shed {}",
            workload.name(),
            report.frames_published,
            report.rounds,
            report.degraded_area_rounds,
            report.solve_errors,
            report.send_failures,
            report.shed_stale,
            report.shed_overflow,
            report.shed_superseded,
            serve.epochs,
            serve.shed,
        );
    }
    Pass {
        events,
        attempted: n_frames,
        failed,
        problems,
        harness_cpu_s,
        detail: Detail::Stream(Box::new(StreamDetail { report })),
    }
}
