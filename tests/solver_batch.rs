//! Solver conformance + regression suite for the batched multi-area gain
//! solve and numeric refactorization reuse.
//!
//! The acceptance criteria of this subsystem, pinned as tests:
//!
//! * **Batched == sequential, bitwise.** Stacking identical-pattern
//!   per-area gain systems into lanes and solving them together produces
//!   bit-for-bit the same solutions as factoring each system alone — on
//!   thread pools of 1, 2, and 8 workers.
//! * **Refactorization reuse == from-scratch, bitwise.** Refreshing a
//!   cached numeric factorization across warm frames (pattern unchanged,
//!   values moved) equals a clean factorization of every frame, again
//!   across 1|2|8-thread pools.
//! * **No stale factors.** A topology change that keeps the measurement
//!   set's shape invalidates the cached pattern and numeric factor; the
//!   `refactor_reuse`/`refactor_full` counters account for every
//!   Gauss–Newton iteration exactly, in the report and the obs scope.
//! * **The stream's lanes.** On a ring of identical tiles the stream's
//!   Step 1 solves same-pattern areas as lanes of one batched factor, with
//!   the same export and final state on every pool size.

use std::sync::{Arc, Mutex};

use pgse::dse::decomposition::{decompose, DecompositionOptions};
use pgse::dse::AreaEstimator;
use pgse::estimation::measurement::MeasurementSet;
use pgse::estimation::wls::{SolveCache, WlsEstimator, WlsOptions};
use pgse::grid::cases::builder::{build, AreaPlan};
use pgse::grid::cases::ieee118_like;
use pgse::grid::{Branch, BusKind, Network};
use pgse::powerflow::{solve, PfOptions};
use pgse::sparsela::{BatchCholesky, BatchPlan, CholSymbolic, Csr, SparseCholesky};
use pgse::stream::{StreamConfig, StreamService};

/// The pool sweeps are load-sensitive; serialize the file like
/// `tests/streaming.rs` does.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Real per-area gain systems: one `(G, rhs)` per area per frame, where a
/// frame differs only in telemetry values — every frame of one area
/// shares that area's gain sparsity pattern.
fn area_frame_systems(frames: u64) -> Vec<Vec<(Csr, Vec<f64>)>> {
    let net = ieee118_like();
    let pf = solve(&net, &PfOptions::default()).unwrap();
    let d = decompose(&net, &DecompositionOptions::default());
    d.areas
        .iter()
        .map(|a| {
            let est = AreaEstimator::new(a.clone(), &net, &pf, WlsOptions::default());
            (0..frames)
                .map(|f| {
                    let set = est.generate_telemetry(1.0, 100 + f);
                    est.step1_gain_system(&set)
                })
                .collect()
        })
        .collect()
}

fn pools() -> Vec<rayon::ThreadPool> {
    [1usize, 2, 8]
        .iter()
        .map(|&n| rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap())
        .collect()
}

#[test]
fn batched_solve_is_bitwise_identical_to_scalar_across_pools() {
    let _serial = serial();
    let areas = area_frame_systems(3);

    // Scalar reference: every system factored and solved on its own.
    let reference: Vec<Vec<Vec<f64>>> = areas
        .iter()
        .map(|frames| {
            frames
                .iter()
                .map(|(g, b)| SparseCholesky::factor(g).unwrap().solve(b))
                .collect()
        })
        .collect();

    // One flat list mixing all areas' frames exercises pattern grouping:
    // solve_round must regroup each area's frames into one batch.
    let flat: Vec<(&Csr, &[f64])> = areas
        .iter()
        .flat_map(|frames| frames.iter().map(|(g, b)| (g, b.as_slice())))
        .collect();
    let flat_ref: Vec<&Vec<f64>> = reference.iter().flatten().collect();

    for pool in pools() {
        let sols: Vec<Vec<f64>> = pool
            .install(|| BatchPlan::new().solve_round(&flat).results)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(sols.len(), flat_ref.len());
        for (i, (got, want)) in sols.iter().zip(&flat_ref).enumerate() {
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "system {i} diverged on a {}-thread pool",
                    pool.current_num_threads()
                );
            }
        }
    }
}

#[test]
fn refactor_reuse_is_bitwise_identical_to_from_scratch_across_pools() {
    let _serial = serial();
    let areas = area_frame_systems(5);

    for pool in pools() {
        pool.install(|| {
            for frames in &areas {
                // Warm path: factor frame 0 once, refresh the numeric
                // factor for every later frame.
                let lane_refs: Vec<&Csr> = vec![&frames[0].0];
                let mut batch = BatchCholesky::factor(&lane_refs).unwrap();
                let mut scalar = SparseCholesky::factor(&frames[0].0).unwrap();
                for (g, b) in &frames[1..] {
                    batch.refactor(&[g]).unwrap();
                    scalar.refactor(g).unwrap();
                    // From-scratch path on the same frame.
                    let fresh = SparseCholesky::factor(g).unwrap();
                    let sym = Arc::new(CholSymbolic::analyze(g));
                    let shared = SparseCholesky::factor_with_symbolic(sym, g).unwrap();
                    let want = fresh.solve(b);
                    for got in
                        [batch.solve_all(&[b]).swap_remove(0), scalar.solve(b), shared.solve(b)]
                    {
                        for (x, y) in got.iter().zip(&want) {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "refactor diverged on a {}-thread pool",
                                pool.current_num_threads()
                            );
                        }
                    }
                }
            }
        });
    }
}

#[test]
fn streaming_warm_run_accounts_every_refactorization() {
    let _serial = serial();
    let net = ieee118_like();
    let cfg = StreamConfig { n_frames: 8, seed: 5, ..StreamConfig::default() };
    let service = StreamService::deploy(&net, cfg).unwrap();
    let report = service.run();

    assert_eq!(report.frames_published, 8);
    assert_eq!(report.unaccounted(), 0, "{report:?}");
    // Warm frames refreshed cached numeric factors; every Gauss–Newton
    // iteration was exactly one refresh or one full factorization.
    assert!(report.refactor_reuse > 0, "{report:?}");
    assert!(report.refactor_full > 0, "{report:?}");
    assert!(report.refactor_reuse > report.refactor_full, "{report:?}");
    assert_eq!(
        report.refactor_reuse + report.refactor_full,
        report.gn_iterations,
        "{report:?}"
    );

    // The obs scope tells the same story.
    let obs = service.obs_report();
    assert_eq!(obs.counter("stream", "stream.refactor_reuse"), report.refactor_reuse);
    assert_eq!(obs.counter("stream", "stream.refactor_full"), report.refactor_full);
    assert!(obs.total_counter("wls.refactor.reuse") >= report.refactor_reuse);
}

#[test]
fn topology_change_mid_stream_forces_clean_refactor() {
    let _serial = serial();
    // Drive the estimator's cache through a mid-stream topology change:
    // same measurement-set shape, different Ybus pattern. The stale
    // pattern and numeric factor must be discarded, never reused.
    let net = ieee118_like();
    let pf = solve(&net, &PfOptions::default()).unwrap();
    let d = decompose(&net, &DecompositionOptions::default());
    let est = AreaEstimator::new(d.areas[0].clone(), &net, &pf, WlsOptions::direct());
    let sets: Vec<MeasurementSet> =
        (0..3u64).map(|f| est.generate_telemetry(1.0, 200 + f)).collect();

    let mut cache = SolveCache::new();
    for set in &sets[..2] {
        est.step1_cached(set, &mut cache).unwrap();
    }
    assert_eq!(cache.symbolic_builds, 1);
    assert_eq!(cache.refactor_full, 1, "one full factorization per steady topology");
    let reuse_before = cache.refactor_reuse;
    assert!(reuse_before > 0);

    // The same area with one extra internal branch between two buses that
    // were NOT adjacent before: the measurement plan keeps its shape
    // (same buses, flows indexed per branch are appended after), but the
    // Ybus pattern changes.
    let mut grown = d.areas[0].subnet.clone();
    let ybus = pgse::grid::Ybus::new(&grown);
    let (from, to) = (0..grown.n_buses())
        .flat_map(|i| ((i + 1)..grown.n_buses()).map(move |j| (i, j)))
        .find(|&(i, j)| !ybus.row(i).0.contains(&j))
        .expect("area 0 is not a clique");
    let proto = grown.branches[0].clone();
    grown.branches.push(pgse::grid::Branch { from, to, ..proto });
    let grown_est = WlsEstimator::new(
        grown,
        pgse::estimation::jacobian::StateSpace::full(d.areas[0].subnet.n_buses()),
        WlsOptions::direct(),
    );
    grown_est.estimate_cached(&sets[2], None, &mut cache).unwrap();

    // The cache rebuilt everything rather than reusing stale structures.
    assert_eq!(cache.symbolic_builds, 2, "stale pattern silently reused");
    assert_eq!(cache.refactor_full, 2, "stale numeric factor silently reused");
    assert!(cache.refactor_reuse > reuse_before);
}

#[test]
fn round_batch_plan_is_bitwise_identical_to_scalar_across_pools() {
    let _serial = serial();
    // Streaming-round shape: each round dispatches one gain system per
    // area through the shared plan — distinct patterns across areas,
    // repeating patterns across rounds (frames).
    let areas = area_frame_systems(3);
    let n_frames = 3;

    // Scalar reference, frame-major like the rounds below.
    let reference: Vec<Vec<Vec<f64>>> = (0..n_frames)
        .map(|f| {
            areas
                .iter()
                .map(|frames| {
                    let (g, b) = &frames[f];
                    SparseCholesky::factor(g).unwrap().solve(b)
                })
                .collect()
        })
        .collect();

    for pool in pools() {
        pool.install(|| {
            let mut plan = BatchPlan::new();
            for (f, frame_ref) in reference.iter().enumerate() {
                let systems: Vec<(&Csr, &[f64])> =
                    areas.iter().map(|frames| (&frames[f].0, frames[f].1.as_slice())).collect();
                let out = plan.solve_round(&systems);
                // Dispatch accounting closes exactly per round.
                assert_eq!(
                    out.batched_lanes + out.scalar_fallbacks,
                    systems.len() as u64,
                    "round {f}"
                );
                // Rounds after the first reuse every symbolic analysis.
                assert_eq!(out.sym_reused.iter().all(|&r| r), f > 0, "round {f}");
                for (a, (got, want)) in out.results.iter().zip(frame_ref).enumerate() {
                    let got = got.as_ref().unwrap();
                    for (x, y) in got.iter().zip(want) {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "area {a} round {f} diverged on a {}-thread pool",
                            pool.current_num_threads()
                        );
                    }
                }
            }
            // One analysis per distinct area pattern, never more.
            assert!(plan.cached_symbolics() <= areas.len());
        });
    }
}

/// A ring of `n` copies of one seeded 30-bus area, consecutive tiles
/// joined by two tie lines — the grid `benchmark/src/tiles.rs` builds for
/// `tiles12x30`, whose identical tiles give identical Step-1 gain patterns.
fn tile_ring(n: usize) -> Network {
    const TILE: usize = 30;
    let tile = build(&AreaPlan {
        name: "tile".into(),
        bus_counts: vec![TILE],
        area_edges: vec![],
        ties_per_edge: 0,
        seed: 30,
        load_mw: (15.0, 45.0),
        chord_fraction: 0.25,
    });
    let (mut buses, mut branches) = (Vec::new(), Vec::new());
    for t in 0..n {
        for b in &tile.buses {
            let mut bus = b.clone();
            bus.id = t * TILE + b.id;
            bus.area = t;
            if t > 0 && bus.kind == BusKind::Slack {
                bus.kind = BusKind::Pv;
            }
            buses.push(bus);
        }
        for br in &tile.branches {
            branches.push(Branch { from: t * TILE + br.from, to: t * TILE + br.to, ..br.clone() });
        }
    }
    for t in 0..n {
        for (here, there) in [(7, 19), (11, 23)] {
            let (from, to) = (t * TILE + here, (t + 1) % n * TILE + there);
            branches.push(Branch::line(from, to, 0.03, 0.12, 0.02));
        }
    }
    let net =
        Network { name: format!("tiles{n}x{TILE}"), base_mva: tile.base_mva, buses, branches };
    net.validate().unwrap();
    net
}

#[test]
fn the_stream_solves_identical_tiles_as_lanes_on_every_pool() {
    let _serial = serial();
    // The smallest ring (three tiles) already has a same-pattern group.
    let net = tile_ring(3);
    let truth = solve(&net, &PfOptions::default()).unwrap();
    let rmse = |a: &[f64], b: &[f64]| {
        (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
    };
    let mut first: Option<(String, Vec<u64>)> = None;
    for pool in pools() {
        let threads = pool.current_num_threads();
        let (obs, report, snap) = pool.install(|| {
            let cfg = StreamConfig {
                n_frames: 8,
                seed: 30,
                deterministic_rounds: true,
                ..StreamConfig::default()
            };
            let service = StreamService::deploy(&net, cfg).unwrap();
            let report = service.run();
            (service.obs_report().to_json_deterministic(), report, service.store().load())
        });
        assert_eq!(report.frames_published, 8, "{threads} threads");
        let snap = snap.expect("a published state");
        assert!(report.batched_lanes > 0, "{threads} threads: {report:?}");
        assert_eq!(
            report.batched_lanes + report.scalar_fallbacks,
            report.gain_solves,
            "{threads} threads: every gain solve is a lane or a scalar fallback"
        );
        // Each area's step goes to that area's wave: a step applied to
        // another member's state leaves the estimate off the truth (or
        // never converges, and nothing publishes).
        let (vm_err, va_err) = (rmse(&snap.vm, &truth.vm), rmse(&snap.va, &truth.va));
        assert!(
            vm_err <= 5e-3 && va_err <= 5e-3,
            "{threads} threads: rmse {vm_err:.2e} {va_err:.2e}"
        );
        let bits: Vec<u64> = snap.vm.iter().chain(&snap.va).map(|x| x.to_bits()).collect();
        match &first {
            None => first = Some((obs, bits)),
            Some((obs1, bits1)) => {
                assert!(obs == *obs1, "{threads} threads: the deterministic export differs");
                assert!(bits == *bits1, "{threads} threads: the final state differs");
            }
        }
    }
}
