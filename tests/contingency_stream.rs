//! Conformance suite for the streaming N-1 contingency screening engine:
//! the determinism and accounting contract of `pgse_stream::scenarios`.
//!
//! * every published base epoch gets a **full** N-1 sweep — one case per
//!   branch of the network, no sampling;
//! * the accounting identities `enumerated == screened +
//!   skipped_islanding` and `screened == cleared + violated + shed_stale`
//!   close exactly, from both the [`ScenarioReport`] tallies and the
//!   exported [`ObsReport`] counters;
//! * same-seed sweeps are **byte-identical** across 1-, 2- and 8-worker
//!   pools in both deterministic exports (report JSON and obs JSON);
//! * a sweep superseded by a newer base epoch sheds its remaining cases
//!   as `shed_stale`, still closes the identities, and never publishes a
//!   product against the old epoch;
//! * the violation-product stream is epoch-stamped and strictly monotone
//!   in the base epoch.

use std::sync::atomic::{AtomicUsize, Ordering};

use pgse::contingency::{analyze_one_warm, ratings_from_state, Contingency, CtgResult};
use pgse::grid::cases::{ieee14, ieee118_like};
use pgse::grid::Network;
use pgse::powerflow::{solve, PfOptions};
use pgse::stream::scenarios::EpochWatch;
use pgse::stream::{
    CaseOutcome, ScenarioConfig, ScenarioEngine, ScenarioReport, ScenarioStore, SnapshotStore,
    SystemSnapshot,
};

fn base_snapshot(net: &Network, epoch: u64) -> SystemSnapshot {
    let sol = solve(net, &PfOptions::default()).expect("base case solves");
    SystemSnapshot {
        epoch,
        frame_seq: epoch + 1,
        dt_seconds: 0.0,
        vm: sol.vm,
        va: sol.va,
        degraded_areas: Vec::new(),
    }
}

/// A watch that never supersedes the sweep.
struct Never;
impl EpochWatch for Never {
    fn latest_epoch(&self) -> Option<u64> {
        None
    }
}

/// A watch that reports a newer epoch after a fixed number of polls —
/// deterministic with a single worker, since then the poll sequence is
/// exactly the claim sequence.
struct FlipAfter {
    polls: AtomicUsize,
    after: usize,
    newer: u64,
}

impl FlipAfter {
    fn new(after: usize, newer: u64) -> Self {
        FlipAfter { polls: AtomicUsize::new(0), after, newer }
    }
}

impl EpochWatch for FlipAfter {
    fn latest_epoch(&self) -> Option<u64> {
        if self.polls.fetch_add(1, Ordering::Relaxed) >= self.after {
            Some(self.newer)
        } else {
            None
        }
    }
}

/// Ratings tight enough that the IEEE-118 sweep exercises every terminal
/// state: suspects escalate and some AC solves confirm violations.
fn exercised_config(n_workers: usize) -> ScenarioConfig {
    ScenarioConfig {
        n_workers,
        limits: pgse::contingency::Limits {
            rating_factor: 1.1,
            rating_floor: 0.05,
            ..Default::default()
        },
        screen_margin: 0.7,
        ..Default::default()
    }
}

/// Both identities, recomputed from the *obs* counters rather than the
/// report tallies.
fn obs_identities_hold(r: &ScenarioReport) -> bool {
    let obs = r.obs_report();
    let c = |name: &str| obs.counter("scenario", name);
    c("scenario.enumerated") == c("scenario.screened") + c("scenario.skipped_islanding")
        && c("scenario.screened")
            == c("scenario.cleared") + c("scenario.violated") + c("scenario.shed_stale")
}

#[test]
fn full_ieee118_sweep_per_epoch_closes_identity_from_report_and_obs() {
    let net = ieee118_like();
    let n_branches = net.n_branches();
    let engine = ScenarioEngine::new(net.clone(), exercised_config(4));
    let out = ScenarioStore::new();

    for epoch in 0..3u64 {
        let r = engine.sweep_and_publish(&base_snapshot(&net, epoch), &Never, &out);
        // Full N-1: one case per branch of the network, every one terminal.
        assert_eq!(r.enumerated, n_branches);
        assert_eq!(r.cases.len(), n_branches);
        assert!(r.identity_holds(), "report identity violated: {r:?}");
        assert!(obs_identities_hold(&r), "obs identity violated");
        assert_eq!(r.shed_stale, 0);
        assert!(!r.superseded);
        assert_eq!(r.published_epoch, Some(epoch));

        // The two accountings agree case by case.
        let obs = r.obs_report();
        assert_eq!(obs.counter("scenario", "scenario.enumerated"), n_branches as u64);
        assert_eq!(obs.counter("scenario", "scenario.suspects"), r.suspects as u64);
        assert_eq!(obs.spans_named("scenario.case").len(), n_branches);
        assert_eq!(
            obs.spans_named("scenario.solve").len(),
            r.cases.iter().filter(|c| c.ac.is_some()).count()
        );
    }

    // This operating point and rating set must actually exercise the
    // interesting paths, or the suite proves nothing. The 118-bus mesh
    // has no bridges, so its screened count covers the full list…
    let r = engine.sweep(&base_snapshot(&net, 10), &Never);
    assert_eq!(r.skipped_islanding, 0, "the 118-bus mesh has no bridges");
    assert_eq!(r.screened, n_branches);
    assert!(r.suspects > 0, "screen margin must escalate cases");
    assert!(r.violated > 0, "tight ratings must confirm violations");
    assert!(r.cleared > 0, "most cases must clear");

    // …while the 14-bus system pins the islanding gate: its one radial
    // spur is skipped before any worker runs.
    let net14 = ieee14();
    let engine14 = ScenarioEngine::new(net14.clone(), exercised_config(2));
    let r14 = engine14.sweep(&base_snapshot(&net14, 0), &Never);
    assert!(r14.identity_holds());
    assert!(obs_identities_hold(&r14));
    assert!(r14.skipped_islanding >= 1, "ieee14 branch 13 islands bus 7");
    assert_eq!(r14.screened, net14.n_branches() - r14.skipped_islanding);
}

#[test]
fn deterministic_exports_are_byte_identical_across_pool_sizes() {
    let net = ieee118_like();
    let base = base_snapshot(&net, 0);
    let sweeps: Vec<ScenarioReport> = [1usize, 2, 8]
        .iter()
        .map(|&w| ScenarioEngine::new(net.clone(), exercised_config(w)).sweep(&base, &Never))
        .collect();

    let report_json: Vec<String> = sweeps.iter().map(|r| r.to_json_deterministic()).collect();
    let obs_json: Vec<String> =
        sweeps.iter().map(|r| r.obs_report().to_json_deterministic()).collect();
    assert_eq!(report_json[0], report_json[1], "1 vs 2 workers: report JSON differs");
    assert_eq!(report_json[0], report_json[2], "1 vs 8 workers: report JSON differs");
    assert_eq!(obs_json[0], obs_json[1], "1 vs 2 workers: obs JSON differs");
    assert_eq!(obs_json[0], obs_json[2], "1 vs 8 workers: obs JSON differs");

    // The timing half is genuinely recorded (and genuinely excluded).
    for r in &sweeps {
        assert!(r.wall_ns > 0);
        assert!(r.p99_case_ns() > 0);
        assert!(!r.to_json().is_empty());
        assert!(!report_json[0].contains("wall_ns"), "deterministic JSON leaks wall time");
        assert!(!obs_json[0].contains("wall_ns"), "deterministic obs leaks wall time");
        assert!(!obs_json[0].contains("volatile."), "deterministic obs leaks volatile metrics");
    }
    // Worker balance is observable in the non-deterministic half: both
    // tiers claim through the counters, so the claims total the screen
    // cases plus the AC solves that ran.
    assert_eq!(sweeps[1].tasks_per_worker.len(), 2);
    let ac_solved = sweeps[1].cases.iter().filter(|c| c.ac.is_some()).count();
    assert_eq!(
        sweeps[1].tasks_per_worker.iter().sum::<usize>(),
        sweeps[1].screened + ac_solved
    );
}

/// The live sweep against the single-case reference: with a zero screen
/// margin every survivable IEEE-118 outage escalates to AC, and each AC
/// result equals `analyze_one_warm` (a fresh model, warm from the same base
/// point, the same ratings) at one and at four workers.
#[test]
fn every_escalated_case_matches_the_single_case_reference() {
    let net = ieee118_like();
    let sol = solve(&net, &PfOptions::default()).expect("base case solves");
    let base = base_snapshot(&net, 0);
    let cfg = |n_workers| ScenarioConfig { screen_margin: 0.0, ..exercised_config(n_workers) };
    let limits = cfg(1).limits;
    let rat = ratings_from_state(&net, &base.vm, &base.va, &limits);
    let reference: Vec<CtgResult> = (0..net.n_branches())
        .map(|k| analyze_one_warm(&net, Contingency::BranchOutage(k), &rat, &limits, &sol))
        .collect();
    for n_workers in [1usize, 4] {
        let r = ScenarioEngine::new(net.clone(), cfg(n_workers)).sweep(&base, &Never);
        assert_eq!(r.suspects, r.screened, "a zero margin escalates every screened case");
        assert!(r.violated > 0, "tight ratings must confirm violations");
        for c in &r.cases {
            let want = &reference[c.branch];
            let ac = c.ac.as_ref().unwrap_or_else(|| panic!("branch {}: no AC", c.branch));
            assert_eq!(ac.converged, want.converged, "{n_workers} workers, branch {}", c.branch);
            assert_eq!(ac.violations, want.violations, "{n_workers} workers, branch {}", c.branch);
            assert_eq!(ac.iterations, want.iterations, "{n_workers} workers, branch {}", c.branch);
        }
    }
}

#[test]
fn superseded_sweep_sheds_stale_and_never_publishes_old_epoch() {
    let net = ieee118_like();
    let base = base_snapshot(&net, 0);
    // One worker → the staleness poll sequence is the claim sequence, so
    // flipping after K polls deterministically sheds everything after the
    // first K claims.
    let cfg = ScenarioConfig { n_workers: 1, ..exercised_config(1) };
    let engine = ScenarioEngine::new(net.clone(), cfg);
    let out = ScenarioStore::new();

    let watch = FlipAfter::new(5, 1);
    let r = engine.sweep_and_publish(&base, &watch, &out);
    assert!(r.superseded, "watch flipped mid-sweep");
    assert!(r.shed_stale > 0, "remaining cases must shed as stale");
    assert!(r.identity_holds(), "shed sweep still balances: {r:?}");
    assert!(obs_identities_hold(&r));
    assert_eq!(r.published_epoch, None, "superseded sweep must not publish");
    assert!(out.load().is_none(), "no product may exist for the old epoch");

    // Exactly the first K claims completed (modulo gate-phase islanding
    // cases, which are decided before any worker runs).
    let ran = r.cases.iter().filter(|c| c.screen_ns > 0 || c.solve_ns > 0).count();
    assert_eq!(ran, 5);
    // Shed cases carry no AC result, and cases the screen tier never
    // reached carry no screening verdict either.
    for c in &r.cases {
        if c.outcome == CaseOutcome::ShedStale {
            assert!(c.ac.is_none());
            if c.screen_ns == 0 {
                assert!(!c.suspect);
                assert!(c.dc_loading.is_none());
            }
        }
    }

    // A fresh sweep against the *new* epoch publishes normally.
    let r1 = engine.sweep_and_publish(&base_snapshot(&net, 1), &Never, &out);
    assert_eq!(r1.published_epoch, Some(0));
    assert_eq!(out.load().unwrap().base_epoch, 1);
}

#[test]
fn supersession_during_solve_tier_sheds_suspects() {
    let net = ieee118_like();
    let base = base_snapshot(&net, 0);
    let cfg = ScenarioConfig { n_workers: 1, ..exercised_config(1) };
    let engine = ScenarioEngine::new(net.clone(), cfg);

    // Find how many claims the screen tier makes, then flip a few claims
    // into the solve tier.
    let healthy = engine.sweep(&base, &Never);
    let screened_claims = healthy.screened;
    assert!(healthy.suspects > 2, "need suspects to interrupt");

    // Phase 1 polls once per claim plus once for the terminating empty
    // claim; the two extra polls land two claims into the solve tier.
    let watch = FlipAfter::new(screened_claims + 3, 7);
    let r = engine.sweep(&base, &watch);
    assert!(r.superseded);
    assert!(r.identity_holds(), "{r:?}");
    assert!(obs_identities_hold(&r));
    // The screen tier finished, so every shed case is an escalated
    // suspect whose AC solve never ran.
    assert!(r.shed_stale > 0);
    for c in &r.cases {
        if c.outcome == CaseOutcome::ShedStale {
            assert!(c.suspect, "only suspects remained when the flip hit");
            assert!(c.ac.is_none());
        }
    }
    // AC results that did complete are kept.
    assert_eq!(
        r.cases.iter().filter(|c| c.ac.is_some()).count(),
        2
    );
}

#[test]
fn run_loop_sweeps_each_new_epoch_once_and_products_stay_monotone() {
    let net = ieee14();
    let engine = ScenarioEngine::new(net.clone(), ScenarioConfig::default());
    let store = SnapshotStore::new();
    let out = ScenarioStore::new();

    store.publish(base_snapshot(&net, 0)).unwrap();
    let mut reports = engine.run(&store, &out, 1);
    store.publish(base_snapshot(&net, 1)).unwrap();
    reports.extend(engine.run(&store, &out, 1));

    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].base_epoch, 0);
    assert_eq!(reports[1].base_epoch, 1);
    for r in &reports {
        assert!(r.identity_holds());
        assert!(!r.superseded);
    }
    // The product stream carries its own monotone epochs and points back
    // at the base epochs it was computed from.
    assert_eq!(reports[0].published_epoch, Some(0));
    assert_eq!(reports[1].published_epoch, Some(1));
    let latest = out.load().unwrap();
    assert_eq!(latest.epoch, 1);
    assert_eq!(latest.base_epoch, 1);
    assert_eq!(latest.base_frame_seq, 2);
}
