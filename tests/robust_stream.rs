//! Robustness acceptance suite for the streaming estimator
//! (`pgse-stream`): bad-data rejection, observability restoration, and
//! versioned live topology — the grid-chaos conformance criteria.
//!
//! * **Gross errors are identified exactly**: the seeded scan-fault plan
//!   is a pure function of `(area, seq)`, so the test re-derives the
//!   injected ground truth independently and pins the LNR loop's removed
//!   measurement indices against it — at every worker-pool size;
//! * the suspect-frame accounting identity closes exactly:
//!   `suspect_frames == cleared_by_lnr + degraded_unidentifiable`;
//! * **RTU outages restore**: shortened scans are repaired with pseudo
//!   measurements from the carried estimate and the restoration identity
//!   `rtu_outages == frames_restored + short_scan_observable +
//!   unobservable_degraded` closes from the report *and* the replayed obs
//!   counters;
//! * an area whose Step 1 *and* Step 2 both fail on a scan is published
//!   degraded (its carried state, listed in `degraded_areas`), never clean;
//! * **a mid-stream branch switch that islands nothing re-runs no symbolic
//!   analysis** (pinned per area via `area_symbolic_builds`) and ends on
//!   the switched grid's power-flow truth, the same-seed deterministic
//!   ObsReport stays byte-identical across the transition at 1/2/8
//!   threads, and an islanding switch merges the orphaned buses into a
//!   surviving area within bounded rounds;
//! * **outside a topology transition nothing changes shape**: gross
//!   errors, RTU outages and restoration are weights on a fixed layout, so
//!   such a run ends with exactly the symbolic builds of a clean one, and
//!   every Gauss–Newton iteration — LNR re-solves included — is one
//!   refactorization (`refactor_reuse + refactor_full == gn_iterations`).

use std::collections::HashSet;
use std::sync::Mutex;

use pgse::contingency::islanding_outages;
use pgse::dse::decomposition::{decompose, DecompositionOptions};
use pgse::grid::cases::ieee118_like;
use pgse::grid::{Branch, Bus, BusKind, Network};
use pgse::medici::{ScanFault, ScanFaultPlan};
use pgse::powerflow::{solve, PfOptions};
use pgse::stream::{
    BadDataGate, KillSchedule, StreamConfig, StreamReport, StreamService, SwitchingEvent,
};

const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// Each test runs a full multi-threaded service; serialize the file so
/// lockstep timeouts stay load-independent.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

/// Every Gauss–Newton iteration of the run, LNR re-solves included, is
/// exactly one numeric refactorization or one full factorization.
fn assert_refactor_identity(r: &StreamReport) {
    assert_eq!(r.refactor_reuse + r.refactor_full, r.gn_iterations, "{r:?}");
}

/// The robust counters that must be invariant across worker-pool sizes.
fn robust_fingerprint(r: &StreamReport) -> Vec<u64> {
    vec![
        r.gross_injected,
        r.rtu_outages,
        r.rtu_shed_measurements,
        r.suspect_frames,
        r.cleared_by_lnr,
        r.degraded_unidentifiable,
        r.bad_data_removed,
        r.frames_restored,
        r.pseudo_added,
        r.short_scan_observable,
        r.unobservable_degraded,
        r.topology_transitions,
        r.symbolic_rebuilds,
        r.topology_version_skew,
    ]
}

#[test]
fn gross_errors_identified_exactly_at_every_pool_size() {
    let _serial = serial();
    let net = ieee118_like();
    // Probe deployment: how many areas does the decomposition produce?
    let n_areas =
        StreamService::deploy(&net, StreamConfig::default()).unwrap().n_areas();
    assert!(n_areas >= 2, "need a multi-area case");

    // One scheduled 25σ gross error per area, at distinct frames (all
    // within the run's frame range).
    let schedule: Vec<(u64, usize)> =
        (0..n_areas).map(|a| (2 + a as u64, a)).collect();
    assert!(schedule.iter().all(|&(s, _)| s < 12), "schedule overruns the frames");
    let plan = ScanFaultPlan {
        seed: 1234,
        gross_magnitude: 25.0,
        gross_at: schedule.clone(),
        ..ScanFaultPlan::default()
    };
    let cfg = StreamConfig {
        n_frames: 12,
        seed: 42,
        deterministic_rounds: true,
        baddata: Some(BadDataGate { confidence: 0.999, max_removals: 4 }),
        scan_faults: Some(plan.clone()),
        ..StreamConfig::default()
    };

    let mut fingerprints = Vec::new();
    for threads in POOL_SIZES {
        let (report, scan_lens) = with_pool(threads, || {
            let service = StreamService::deploy(&net, cfg.clone()).unwrap();
            let lens: Vec<usize> =
                (0..service.n_areas()).map(|a| service.area_scan_len(a)).collect();
            (service.run(), lens)
        });

        // Every frame fed and accounted; suspect accounting closes exactly.
        assert_eq!(report.unaccounted(), 0, "{report:?}");
        assert_refactor_identity(&report);
        assert_eq!(report.gross_injected, schedule.len() as u64);
        assert_eq!(
            report.suspect_frames,
            report.cleared_by_lnr + report.degraded_unidentifiable,
            "{report:?}"
        );
        // Every scheduled gross error fired the gate and was identified.
        assert!(report.cleared_by_lnr >= schedule.len() as u64, "{report:?}");

        // Re-derive the injected ground truth from the plan alone and pin
        // the LNR loop's removed indices against it, frame by frame.
        for &(seq, area) in &schedule {
            let slot = match plan.fault_for(area, seq) {
                Some(ScanFault::GrossError { slot, .. }) => slot,
                other => panic!("plan disagrees with itself: {other:?}"),
            };
            let expected = (slot % scan_lens[area] as u64) as usize;
            let ev = report
                .bad_data_events
                .iter()
                .find(|e| e.seq == seq && e.area == area)
                .unwrap_or_else(|| {
                    panic!("no bad-data event for area {area} frame {seq}: {report:?}")
                });
            assert_eq!(
                ev.removed, vec![expected],
                "area {area} frame {seq} @ {threads} threads"
            );
        }

        fingerprints.push((robust_fingerprint(&report), report.bad_data_events.clone()));
    }
    // The whole robust ledger is worker-pool invariant.
    for w in fingerprints.windows(2) {
        assert_eq!(w[0], w[1], "robust accounting varies with pool size");
    }
}

#[test]
fn rtu_outages_restore_and_the_identity_closes_from_obs_counters() {
    let _serial = serial();
    let net = ieee118_like();
    let n_areas =
        StreamService::deploy(&net, StreamConfig::default()).unwrap().n_areas();

    // Two scheduled RTU outages in different areas, two sites each.
    let schedule: Vec<(u64, usize)> = vec![(4, 0), (8, 1 % n_areas)];
    let plan = ScanFaultPlan {
        seed: 77,
        rtu_sites: 2,
        rtu_at: schedule.clone(),
        ..ScanFaultPlan::default()
    };
    let cfg = StreamConfig {
        n_frames: 12,
        seed: 9,
        deterministic_rounds: true,
        restoration: true,
        scan_faults: Some(plan),
        ..StreamConfig::default()
    };

    let mut fingerprints = Vec::new();
    for threads in POOL_SIZES {
        let (report, obs) = with_pool(threads, || {
            let service = StreamService::deploy(&net, cfg.clone()).unwrap();
            let report = service.run();
            (report, service.obs_report())
        });

        assert_eq!(report.unaccounted(), 0, "{report:?}");
        assert_refactor_identity(&report);
        assert_eq!(report.rtu_outages, schedule.len() as u64, "{report:?}");
        assert!(report.rtu_shed_measurements > 0, "outage shed nothing: {report:?}");
        // Every shortened scan is accounted: restored, already observable,
        // or degraded — nothing falls through.
        assert_eq!(
            report.rtu_outages,
            report.frames_restored
                + report.short_scan_observable
                + report.unobservable_degraded,
            "{report:?}"
        );
        // Silencing whole RTU sites leaves the dead buses unobservable, so
        // restoration must actually append pseudo measurements.
        assert!(report.frames_restored > 0, "{report:?}");
        assert!(report.pseudo_added > 0, "{report:?}");
        assert_eq!(report.unobservable_degraded, 0, "{report:?}");
        // The stream never stops publishing through the outages.
        assert_eq!(report.frames_published, 12, "{report:?}");

        // The same identity, replayed from the exported obs counters alone.
        assert_eq!(obs.counter("stream", "stream.faults.rtu"), report.rtu_outages);
        assert_eq!(
            obs.counter("stream", "stream.restore.frames"),
            report.frames_restored
        );
        assert_eq!(obs.counter("stream", "stream.restore.pseudo"), report.pseudo_added);
        assert_eq!(
            obs.counter("stream", "stream.faults.rtu"),
            obs.counter("stream", "stream.restore.frames")
                + obs.counter("stream", "stream.restore.unobservable")
                + report.short_scan_observable,
        );

        fingerprints.push(robust_fingerprint(&report));
    }
    for w in fingerprints.windows(2) {
        assert_eq!(w[0], w[1], "restoration accounting varies with pool size");
    }
}

#[test]
fn area_failing_both_steps_is_published_degraded_not_clean() {
    let _serial = serial();
    let net = ieee118_like();
    // With restoration off, the two-site RTU outage on area 2's last scan
    // leaves it unobservable: Step 1 and Step 2 both fail on it.
    let cfg = StreamConfig {
        n_frames: 6,
        seed: 3,
        deterministic_rounds: true,
        restoration: false,
        scan_faults: Some(ScanFaultPlan {
            rtu_sites: 2,
            rtu_at: vec![(5, 2)],
            ..Default::default()
        }),
        ..Default::default()
    };
    let service = StreamService::deploy(&net, cfg).unwrap();
    let report = service.run();

    assert_eq!(report.solve_errors, 2, "{report:?}");
    assert_eq!(report.unaccounted(), 0, "{report:?}");
    assert_refactor_identity(&report);
    assert_eq!(report.frames_published, 6, "{report:?}");
    // The area published its carried state, so the round says so.
    assert_eq!(report.degraded_area_rounds, 1, "{report:?}");
    let last = service.store().load().unwrap();
    assert_eq!(last.frame_seq, 5);
    assert_eq!(last.degraded_areas, vec![2]);
}

#[test]
fn gross_errors_outages_and_restoration_keep_every_structure() {
    let _serial = serial();
    let net = ieee118_like();
    let n_areas =
        StreamService::deploy(&net, StreamConfig::default()).unwrap().n_areas();
    // Gross errors and two-site RTU outages, never on the same (frame,
    // area) — a scheduled gross error would win — and all after the first
    // round, so every neighbour has reported once.
    let gross_at: Vec<(u64, usize)> = (0..n_areas).map(|a| (2 + a as u64, a)).collect();
    let rtu_at: Vec<(u64, usize)> =
        (0..n_areas).map(|a| (3 + a as u64, (a + 2) % n_areas)).collect();
    let cfg = StreamConfig {
        n_frames: 14,
        seed: 17,
        deterministic_rounds: true,
        baddata: Some(BadDataGate::default()),
        restoration: true,
        scan_faults: Some(ScanFaultPlan {
            seed: 5,
            gross_magnitude: 25.0,
            gross_at: gross_at.clone(),
            rtu_sites: 2,
            rtu_at: rtu_at.clone(),
            ..ScanFaultPlan::default()
        }),
        ..StreamConfig::default()
    };

    let mut ledgers = Vec::new();
    for threads in POOL_SIZES {
        let report = with_pool(threads, || StreamService::deploy(&net, cfg.clone()).unwrap().run());
        assert_eq!(report.unaccounted(), 0, "{report:?}");
        assert_eq!(report.gross_injected, n_areas as u64, "{report:?}");
        assert_eq!(report.rtu_outages, n_areas as u64, "{report:?}");
        assert!(report.cleared_by_lnr > 0 && report.frames_restored > 0, "{report:?}");
        // One Step-1 and one Step-2 analysis per area, exactly what a clean
        // run pays: no rejection, lost row or pseudo row changed a shape.
        assert_eq!(report.area_symbolic_builds, vec![2; n_areas], "@ {threads} threads");
        assert_eq!(report.symbolic_rebuilds, 0);
        assert_refactor_identity(&report);
        ledgers.push((robust_fingerprint(&report), report.bad_data_events.clone()));
    }
    for w in ledgers.windows(2) {
        assert_eq!(w[0], w[1], "robust accounting varies with pool size");
    }
}

/// An intra-area branch whose endpoints are both strictly internal (no
/// inter-area neighbor) and whose removal keeps the area's own subgraph
/// connected — a pure branch switch: exactly one area's Ybus changes and
/// nothing islands.
fn internal_cycle_branch(net: &Network) -> usize {
    let nb = net.n_buses();
    let mut boundary = vec![false; nb];
    for br in &net.branches {
        if net.buses[br.from].area != net.buses[br.to].area {
            boundary[br.from] = true;
            boundary[br.to] = true;
        }
    }
    'cand: for (bi, br) in net.branches.iter().enumerate() {
        let a = net.buses[br.from].area;
        if net.buses[br.to].area != a || boundary[br.from] || boundary[br.to] {
            continue;
        }
        // BFS over the area's intra-branches minus the candidate.
        let buses: Vec<usize> = (0..nb).filter(|&b| net.buses[b].area == a).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for (i, b2) in net.branches.iter().enumerate() {
            if i == bi || net.buses[b2.from].area != a || net.buses[b2.to].area != a {
                continue;
            }
            adj[b2.from].push(b2.to);
            adj[b2.to].push(b2.from);
        }
        let mut seen = vec![false; nb];
        let mut stack = vec![buses[0]];
        seen[buses[0]] = true;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        if buses.iter().any(|&b| !seen[b]) {
            continue 'cand;
        }
        return bi;
    }
    panic!("no internal cycle branch in {}", net.name);
}

/// Root-mean-square difference of two profiles.
fn rmse(a: &[f64], b: &[f64]) -> f64 {
    let s: f64 = a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum();
    (s / a.len() as f64).sqrt()
}

#[test]
fn branch_switch_that_islands_nothing_rebuilds_no_symbolic_structure() {
    let _serial = serial();
    let net = ieee118_like();
    let n_areas = StreamService::deploy(&net, StreamConfig::default()).unwrap().n_areas();
    let switch_cfg = |branch: usize| StreamConfig {
        n_frames: 12,
        seed: 21,
        warm: true,
        deterministic_rounds: true,
        switching: vec![SwitchingEvent { at_seq: 6, branch, close: false }],
        ..StreamConfig::default()
    };

    // An internal cycle branch, and the tie line `faults118` opens.
    for branch in [internal_cycle_branch(&net), net.tie_lines()[0]] {
        let cfg = switch_cfg(branch);
        let mut closed = vec![true; net.n_branches()];
        closed[branch] = false;
        let truth = solve(&net.with_branch_status(&closed), &PfOptions::default()).unwrap();
        let mut jsons = Vec::new();
        for threads in POOL_SIZES {
            let (report, affected, islanding, json, last) = with_pool(threads, || {
                let service = StreamService::deploy(&net, cfg.clone()).unwrap();
                assert_eq!(service.n_topology_stages(), 2);
                let affected = service.stage_affected_areas(1).to_vec();
                let islanding = service.stage_islanding_events(1);
                let report = service.run();
                let json = service.obs_report().to_json_deterministic();
                (report, affected, islanding, json, service.store().load().unwrap())
            });

            // The switch re-values the bank; nothing islands.
            let n_affected = affected.iter().filter(|&&b| b).count();
            assert_eq!(n_affected, 0, "branch {branch}: affected map: {affected:?}");
            assert_eq!(islanding, 0);

            // One transition and no symbolic re-analysis anywhere: every
            // area keeps exactly its cold-start structures (one Step-1 and
            // one Step-2 analysis).
            assert_eq!(report.topology_transitions, 1, "{report:?}");
            assert_eq!(report.symbolic_rebuilds, 0, "{report:?}");
            assert_eq!(report.topology_version_skew, 0, "{report:?}");
            assert_refactor_identity(&report);
            assert_eq!(report.area_symbolic_builds, vec![2; n_areas], "branch {branch}");

            // The stream rides through the switch without losing a frame.
            assert_eq!(report.frames_published, 12, "{report:?}");
            assert_eq!(report.unaccounted(), 0, "{report:?}");
            // Warm reuse continues on both sides of the transition.
            assert!(report.symbolic_reuses > 0, "{report:?}");
            // And the last state is the switched grid's.
            let (vm_err, va_err) = (rmse(&last.vm, &truth.vm), rmse(&last.va, &truth.va));
            assert!(vm_err <= 5e-3 && va_err <= 5e-3, "branch {branch}: {vm_err} {va_err}");

            jsons.push(json);
        }
        // Same seed + same switch schedule ⇒ byte-identical deterministic
        // ObsReport at every pool size, *across* the topology transition.
        for w in jsons.windows(2) {
            assert_eq!(w[0], w[1], "ObsReport diverges across pool sizes");
        }
    }

    // A worker killed two frames after the switch restarts on the
    // structures it checkpointed: the switch left them valid.
    let cfg = StreamConfig {
        kills: KillSchedule { worker_kills: vec![(8, 0)], ..KillSchedule::default() },
        ..switch_cfg(internal_cycle_branch(&net))
    };
    let report = StreamService::deploy(&net, cfg).unwrap().run();
    assert!(report.restart_symbolic_retained >= 1, "{report:?}");
    assert_eq!(report.symbolic_rebuilds, 0, "{report:?}");
    assert_eq!(report.frames_published, 12, "{report:?}");
    assert_eq!(report.unaccounted(), 0, "{report:?}");
}

/// A two-area network where one branch is a bridge of area 0's own
/// subgraph but **not** of the interconnection: opening it splits area 0
/// in two while the grid stays connected through area 1.
fn dumbbell_net() -> (Network, usize) {
    let mut buses = Vec::new();
    // Area 0: triangle {0,1,2} — bridge — triangle {3,4,5}.
    for i in 0..6 {
        buses.push(Bus::load(i + 1, 0, 0.15, 0.05));
    }
    // Area 1: triangle {6,7,8}.
    for i in 6..9 {
        buses.push(Bus::load(i + 1, 1, 0.15, 0.05));
    }
    buses[0].kind = BusKind::Slack;
    buses[0].vm_setpoint = 1.03;
    buses[0].pd = 0.0;
    buses[6].kind = BusKind::Pv;
    buses[6].pg = 0.6;
    buses[6].vm_setpoint = 1.02;
    buses[6].pd = 0.0;

    let l = |f: usize, t: usize| Branch::line(f, t, 0.02, 0.08, 0.02);
    let branches = vec![
        l(0, 1),
        l(1, 2),
        l(0, 2),
        l(2, 3), // the area-0 bridge under test
        l(3, 4),
        l(4, 5),
        l(3, 5),
        l(6, 7),
        l(7, 8),
        l(6, 8),
        l(0, 6), // tie: left half of area 0 ↔ area 1
        l(5, 7), // tie: right half of area 0 ↔ area 1
    ];
    let net =
        Network { name: "dumbbell9".into(), base_mva: 100.0, buses, branches };
    net.validate().unwrap();
    (net, 3)
}

#[test]
fn islanding_switch_merges_orphaned_buses_into_a_surviving_area() {
    let _serial = serial();
    let (net, bridge) = dumbbell_net();

    // Sanity: the branch under test is a bridge of area 0's subgraph but
    // not of the interconnection.
    let global_bridges: HashSet<usize> = islanding_outages(&net).into_iter().collect();
    assert!(!global_bridges.contains(&bridge), "tie path must keep the grid whole");
    let decomp = decompose(&net, &DecompositionOptions::default());
    let a0 = decomp.areas.iter().find(|a| a.global_ids.contains(&0)).unwrap();
    let local_bridges = islanding_outages(&a0.subnet);
    let is_area_bridge = local_bridges.iter().any(|&lb| {
        let f = a0.global_ids[a0.subnet.branches[lb].from];
        let t = a0.global_ids[a0.subnet.branches[lb].to];
        (f.min(t), f.max(t)) == (2, 3)
    });
    assert!(is_area_bridge, "2–3 must bridge area 0's subgraph");

    let cfg = StreamConfig {
        n_frames: 10,
        seed: 5,
        deterministic_rounds: true,
        switching: vec![SwitchingEvent { at_seq: 5, branch: bridge, close: false }],
        ..StreamConfig::default()
    };

    let run = || {
        let service = StreamService::deploy(&net, cfg.clone()).unwrap();
        assert_eq!(service.n_topology_stages(), 2);
        assert!(service.stage_islanding_events(1) >= 1, "islanding not detected");
        // Both the split area and the area absorbing the orphans change.
        let affected = service.stage_affected_areas(1).to_vec();
        assert!(affected.iter().filter(|&&b| b).count() >= 2, "{affected:?}");
        let report = service.run();
        (report, service.obs_report().to_json_deterministic())
    };
    let (report_a, json_a) = run();
    let (report_b, json_b) = run();

    // The transition happened, the orphans were re-homed, and the stream
    // kept publishing full-system snapshots within bounded rounds.
    assert_eq!(report_a.topology_transitions, 1, "{report_a:?}");
    assert!(report_a.symbolic_rebuilds >= 2, "{report_a:?}");
    assert_eq!(report_a.frames_published, 10, "{report_a:?}");
    assert_eq!(report_a.unaccounted(), 0, "{report_a:?}");
    assert_refactor_identity(&report_a);

    // Same seed ⇒ identical run, across the islanding merge.
    assert_eq!(robust_fingerprint(&report_a), robust_fingerprint(&report_b));
    assert_eq!(json_a, json_b, "same-seed ObsReports diverge across islanding");
}

/// Every optional round step at once: gross errors and RTU outages, the
/// LNR gate and restoration, a tie-line opening that islands nothing, a
/// worker kill, a cluster kill and an injected panic. The run stays
/// pool-invariant, every frame is accounted, and no step re-analyses a
/// structure.
#[test]
fn every_round_step_composed_is_pool_invariant_and_accounted() {
    let _serial = serial();
    let net = ieee118_like();
    let cfg = StreamConfig {
        n_frames: 16,
        seed: 61,
        deterministic_rounds: true,
        baddata: Some(BadDataGate::default()),
        restoration: true,
        scan_faults: Some(ScanFaultPlan {
            seed: 23,
            gross_prob: 0.15,
            gross_magnitude: 25.0,
            rtu_prob: 0.1,
            rtu_sites: 2,
            ..ScanFaultPlan::default()
        }),
        switching: vec![SwitchingEvent { at_seq: 8, branch: net.tie_lines()[0], close: false }],
        kills: KillSchedule {
            worker_kills: vec![(5, 3)],
            cluster_kills: vec![(3, 2)],
            panics: vec![(10, 4)],
        },
        ..StreamConfig::default()
    };
    // A report's counts and event lists, without its wall-clock values.
    let counts = |r: &StreamReport| {
        let zero = std::time::Duration::ZERO;
        let r = StreamReport {
            solve_nanos: 0,
            heartbeats: 0,
            latency_p50_ms: 0.0,
            latency_p99_ms: 0.0,
            elapsed: zero,
            ..r.clone()
        };
        format!("{r:?}")
    };

    let mut runs = Vec::new();
    for threads in POOL_SIZES {
        let (report, json, n_areas) = with_pool(threads, || {
            let service = StreamService::deploy(&net, cfg.clone()).unwrap();
            let report = service.run();
            (report, service.obs_report().to_json_deterministic(), service.n_areas())
        });
        assert_eq!(report.unaccounted(), 0, "{report:?}");
        assert_eq!(
            report.suspect_frames,
            report.cleared_by_lnr + report.degraded_unidentifiable,
            "{report:?}"
        );
        assert_eq!(report.topology_transitions, 1, "{report:?}");
        assert!(report.worker_panics >= 1, "{report:?}");
        assert!(report.cluster_deaths >= 1, "{report:?}");
        // Every composed step did its work.
        assert!(report.cleared_by_lnr > 0 && report.frames_restored > 0, "{report:?}");
        assert!(report.workers_restarted > report.worker_panics, "{report:?}");
        assert_eq!(report.frames_published, 16, "{report:?}");
        assert_eq!(report.area_symbolic_builds, vec![2; n_areas], "@ {threads} threads");
        assert_refactor_identity(&report);
        runs.push((counts(&report), json));
    }
    for w in runs.windows(2) {
        assert_eq!(w[0].0, w[1].0, "report counts vary with pool size");
        assert!(w[0].1 == w[1].1, "deterministic ObsReport varies with pool size");
    }
}
