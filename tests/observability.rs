//! Trace-asserting observability suite.
//!
//! Runs the full IEEE-118 prototype and checks the pipeline's behaviour
//! *from its own trace*: the per-scope `ObsReport` must prove that every
//! area ran Step 1 before Step 2, that the PCG kernel stayed within its
//! iteration budget on every Gauss–Newton step, that a healthy exchange
//! spent zero retries, and that the logical-clock trace is byte-identical
//! across same-seed runs.

use pgse::core::{CoordinationMode, PrototypeConfig, SystemPrototype};
use pgse::estimation::wls::WlsOptions;
use pgse::grid::cases::ieee118_like;
use pgse::obs::ObsReport;

const N_AREAS: usize = 9;

fn run_healthy() -> (SystemPrototype, ObsReport) {
    let mut proto =
        SystemPrototype::deploy(ieee118_like(), PrototypeConfig::default()).unwrap();
    proto.run_frame(0.0).unwrap();
    let obs = proto.obs_report();
    (proto, obs)
}

#[test]
fn every_area_runs_step1_before_step2() {
    let (_proto, obs) = run_healthy();
    for a in 0..N_AREAS {
        let scope = obs.scope(&format!("area{a}")).expect("area scope recorded");
        let seq_of = |name: &str| {
            scope
                .spans
                .iter()
                .find(|sp| sp.name == name)
                .unwrap_or_else(|| panic!("area{a} missing {name} span"))
                .seq
        };
        let (s1, s2) = (seq_of("area.step1"), seq_of("area.step2"));
        assert!(s1 < s2, "area{a}: step1 seq {s1} must precede step2 seq {s2}");
        // Both stages are stamped with the frame's logical clock.
        for sp in scope.spans.iter().filter(|sp| sp.name.starts_with("area.step")) {
            assert_eq!(sp.logical, Some(1), "area{a} {} logical clock", sp.name);
        }
    }
}

#[test]
fn pcg_stays_within_its_iteration_budget_on_every_gn_step() {
    let budget = WlsOptions::default().cg.max_iter as u64;
    let (_proto, obs) = run_healthy();
    let solves = obs.spans_named("pcg.solve");
    assert!(!solves.is_empty(), "the WLS gain solves must trace pcg.solve spans");
    for (scope, sp) in &solves {
        let iters = sp.field_u64("iterations").expect("pcg.solve records iterations");
        assert!(iters >= 1 && iters <= budget, "{scope}: pcg took {iters} > {budget}");
        assert_eq!(sp.field_bool("converged"), Some(true), "{scope}: pcg diverged");
    }
    // The counters agree with the spans, and nothing failed.
    assert_eq!(obs.total_counter("pcg.solves"), solves.len() as u64);
    assert_eq!(obs.total_counter("pcg.failures"), 0);
    let total_iters: u64 = solves
        .iter()
        .map(|(_, sp)| sp.field_u64("iterations").unwrap())
        .sum();
    assert_eq!(obs.total_counter("pcg.iterations"), total_iters);
}

#[test]
fn healthy_exchange_spends_zero_retries_and_misses_nothing() {
    let (_proto, obs) = run_healthy();
    // All 24 directed sends succeeded on the first attempt.
    assert_eq!(obs.counter("frame", "mw.send.ok"), 24);
    assert_eq!(obs.counter("frame", "mw.send.exhausted"), 0);
    assert_eq!(obs.counter("frame", "mw.retry.attempts"), 0);
    // Every inbox collected its full neighbourhood: no misses, timeouts,
    // duplicates or corruption anywhere in the fleet.
    assert_eq!(obs.counter("frame", "exchange.missed"), 0);
    assert_eq!(obs.counter("frame", "exchange.degraded"), 0);
    assert_eq!(obs.total_counter("exchange.frames"), 24);
    assert_eq!(obs.total_counter("exchange.timeouts"), 0);
    assert_eq!(obs.total_counter("exchange.duplicates"), 0);
    assert_eq!(obs.total_counter("exchange.corrupt"), 0);
    for sp in obs.spans_named("mw.send") {
        assert_eq!(sp.1.field_u64("attempts"), Some(1), "healthy send retried");
    }
}

#[test]
fn hierarchical_trace_routes_through_the_coordinator() {
    let config = PrototypeConfig {
        mode: CoordinationMode::Hierarchical,
        ..Default::default()
    };
    let mut proto = SystemPrototype::deploy(ieee118_like(), config).unwrap();
    proto.run_frame(0.0).unwrap();
    let obs = proto.obs_report();
    let coord = obs.scope("coordinator").expect("coordinator scope recorded");
    // 9 uplinks into the coordinator, then 1 downlink per area.
    assert_eq!(coord.metrics.counter("exchange.frames"), 9);
    for a in 0..N_AREAS {
        assert_eq!(obs.counter(&format!("area{a}"), "exchange.frames"), 1);
    }
    assert_eq!(obs.counter("frame", "mw.send.ok"), 18);
}

#[test]
fn same_seed_runs_trace_identically() {
    let (_pa, a) = run_healthy();
    let (_pb, b) = run_healthy();
    let (ja, jb) = (a.to_json_deterministic(), b.to_json_deterministic());
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "same seed must produce a byte-identical logical trace");
    // Export the full (wall-clock) report for the CI artifact.
    std::fs::create_dir_all("target/obs").unwrap();
    std::fs::write("target/obs/observability_118.json", a.to_json()).unwrap();
    // Sanity: the export carries per-stage timings for the tentpole stages.
    let stages = a.stage_totals();
    for stage in ["frame", "frame.step1", "frame.exchange", "frame.step2", "pcg.solve"] {
        assert!(stages.contains_key(stage), "stage_totals missing {stage}");
    }
}
