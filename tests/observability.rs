//! Trace-asserting observability suite.
//!
//! Runs the full IEEE-118 prototype and checks the pipeline's behaviour
//! *from its own trace*: the per-scope `ObsReport` must prove that every
//! area ran Step 1 before Step 2, that every Gauss–Newton step solved its
//! gain system through exactly one (re)factorization, that each area's
//! gain structures are analysed once however many frames run, that a
//! healthy exchange spent zero retries, and that the logical-clock trace
//! is byte-identical across same-seed runs.

use pgse::core::{CoordinationMode, PrototypeConfig, SystemPrototype};
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
fn every_gn_step_factors_its_gain_exactly_once() {
    let (_proto, obs) = run_healthy();
    for a in 0..N_AREAS {
        let scope = format!("area{a}");
        let gn = obs.counter(&scope, "wls.gn_iterations");
        let reuse = obs.counter(&scope, "wls.refactor.reuse");
        let full = obs.counter(&scope, "wls.refactor.full");
        assert!(gn > 0, "{scope} ran no Gauss–Newton step");
        assert!(full >= 1, "{scope}: the first gain solve must factor from scratch");
        assert_eq!(reuse + full, gn, "{scope}: one gain factor per Gauss–Newton step");
    }
    // The estimator has one gain solver; nothing traces a PCG.
    for scope in &obs.scopes {
        let pcg: Vec<&String> =
            scope.metrics.counters.keys().filter(|k| k.starts_with("pcg.")).collect();
        assert!(pcg.is_empty(), "{}: unexpected counters {pcg:?}", scope.scope);
    }
}

#[test]
fn held_slots_analyse_each_gain_structure_once_per_deployment() {
    const FRAMES: u64 = 20;
    let mut proto = SystemPrototype::deploy(ieee118_like(), PrototypeConfig::default()).unwrap();
    for f in 0..FRAMES {
        proto.run_frame(f as f64 * 4.0).unwrap();
    }
    let obs = proto.obs_report();
    // Two gain structures per area (Step 1 and Step 2), analysed on the
    // first frame and reused on every later one.
    let structures = 2 * N_AREAS as u64;
    assert_eq!(obs.total_counter("wls.symbolic.build"), structures);
    assert_eq!(obs.total_counter("wls.symbolic.reuse"), structures * (FRAMES - 1));
    for a in 0..N_AREAS {
        let scope = format!("area{a}");
        let gn = obs.counter(&scope, "wls.gn_iterations");
        let reuse = obs.counter(&scope, "wls.refactor.reuse");
        let full = obs.counter(&scope, "wls.refactor.full");
        assert_eq!(reuse + full, gn, "{scope}: one gain factor per Gauss–Newton step");
    }
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
    for stage in ["frame", "frame.step1", "frame.exchange", "frame.step2", "wls.gain_solve"] {
        assert!(stages.contains_key(stage), "stage_totals missing {stage}");
    }
}
