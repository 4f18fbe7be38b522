//! Determinism acceptance suite for intra-node parallelism.
//!
//! The `rayon` shim is a real thread-pool executor, so these tests pin the
//! repo's core reproducibility claim: a WLS solve is byte-for-byte the
//! same on any pool size, the uncached entry point is bit-for-bit the
//! cached engine, DSE Step 2 on a persistent cache is bit-for-bit Step 2
//! on a throwaway one, a worker restarted from a checkpoint converges
//! bitwise like the one that never died, and the same-seed ObsReport
//! stays byte-identical with the prototype's clusters fanning areas out
//! on real pools.

use pgse::core::{PrototypeConfig, SystemPrototype};
use pgse::dse::decomposition::{decompose, DecompositionOptions};
use pgse::dse::{AreaEstimator, AreaSolution, PseudoMeasurement};
use pgse::estimation::measurement::MeasurementSet;
use pgse::estimation::jacobian::StateSpace;
use pgse::estimation::synthetic::TelemetryPlan;
use pgse::estimation::wls::{SolveCache, WlsEstimator, WlsOptions};
use pgse::grid::cases::ieee118_like;
use pgse::grid::Network;
use pgse::powerflow::{solve as solve_pf, PfOptions, PfSolution};

const POOL_SIZES: [usize; 3] = [1, 2, 8];

fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

/// One frame's Step-2 inputs for one area: its scan, its Step-1 solution
/// and the neighbours' pseudo measurements.
type Step2Frame = (MeasurementSet, AreaSolution, Vec<PseudoMeasurement>);

/// Every area's direct-solver estimator with `frames` consecutive frames
/// of Step-2 inputs (fresh noise per frame, fixed structure).
fn step2_frames(
    net: &Network,
    pf: &PfSolution,
    frames: u64,
) -> Vec<(AreaEstimator, Vec<Step2Frame>)> {
    let d = decompose(net, &DecompositionOptions::default());
    let ests: Vec<AreaEstimator> = d
        .areas
        .iter()
        .map(|a| AreaEstimator::new(a.clone(), net, pf, WlsOptions::direct()))
        .collect();
    let mut inputs: Vec<Vec<Step2Frame>> = vec![Vec::new(); ests.len()];
    for f in 0..frames {
        let sets: Vec<MeasurementSet> =
            ests.iter().map(|e| e.generate_telemetry(1.0, 400 + f)).collect();
        let s1: Vec<AreaSolution> = ests
            .iter()
            .zip(&sets)
            .map(|(e, s)| e.step1_cached(s, &mut SolveCache::new()).unwrap())
            .collect();
        let pseudo: Vec<Vec<PseudoMeasurement>> =
            ests.iter().zip(&s1).map(|(e, s)| e.export_pseudo(s)).collect();
        for (a, (set, sol)) in sets.into_iter().zip(s1).enumerate() {
            let inbox =
                ests[a].info.neighbors.iter().flat_map(|&nb| pseudo[nb].iter().copied()).collect();
            inputs[a].push((set, sol, inbox));
        }
    }
    ests.into_iter().zip(inputs).collect()
}

#[test]
fn wls_solve_bitwise_identical_parallel_vs_sequential() {
    let net = ieee118_like();
    let pf = solve_pf(&net, &PfOptions::default()).unwrap();
    let plan = TelemetryPlan::full(&net, vec![net.slack()]);
    let set = plan.generate(&net, &pf, 1.0, 7);
    let est = WlsEstimator::new(
        net.clone(),
        StateSpace::with_reference(net.n_buses(), net.slack()),
        WlsOptions::default(),
    );
    // The sequential reference: solved outside any pool.
    let seq = est.estimate(&set).unwrap();
    let step2_areas = step2_frames(&net, &pf, 4);
    for threads in POOL_SIZES {
        let par = with_pool(threads, || est.estimate(&set).unwrap());
        assert_eq!(par.iterations, seq.iterations, "@ {threads} threads");
        for (p, q) in par.vm.iter().zip(&seq.vm) {
            assert_eq!(p.to_bits(), q.to_bits(), "vm @ {threads} threads");
        }
        for (p, q) in par.va.iter().zip(&seq.va) {
            assert_eq!(p.to_bits(), q.to_bits(), "va @ {threads} threads");
        }
        // The uncached entry point is the cached engine on a throwaway
        // cache: bitwise the same solve.
        let (plain, cached) = with_pool(threads, || {
            let cached = est.estimate_cached(&set, None, &mut SolveCache::new()).unwrap();
            (est.estimate(&set).unwrap(), cached)
        });
        assert_eq!(plain.iterations, cached.iterations, "@ {threads} threads");
        for (p, q) in plain.vm.iter().zip(&cached.vm).chain(plain.va.iter().zip(&cached.va)) {
            assert_eq!(p.to_bits(), q.to_bits(), "cached @ {threads} threads");
        }
        assert_eq!(plain.objective.to_bits(), cached.objective.to_bits());
        // DSE Step 2 is that same engine on the one-hop-extended model: on
        // every area, frame after frame, the persistent cache (one symbolic
        // build, one full factorization, numeric refactors after) gives
        // bit for bit what a throwaway cache gives.
        with_pool(threads, || {
            for (a, (est, frames)) in step2_areas.iter().enumerate() {
                let mut cache = SolveCache::new();
                let mut gn = 0u64;
                for (f, (set, s1, inbox)) in frames.iter().enumerate() {
                    let seed = 900 + f as u64;
                    let cached = est.step2_cached(s1, inbox, set, 1.0, seed, &mut cache).unwrap();
                    let plain = est
                        .step2_cached(s1, inbox, set, 1.0, seed, &mut SolveCache::new())
                        .unwrap();
                    assert_eq!(cached.iterations, plain.iterations, "area {a} frame {f}");
                    gn += cached.iterations as u64;
                    for (p, q) in
                        cached.vm.iter().zip(&plain.vm).chain(cached.va.iter().zip(&plain.va))
                    {
                        assert_eq!(
                            p.to_bits(),
                            q.to_bits(),
                            "step 2, area {a} frame {f} @ {threads} threads"
                        );
                    }
                }
                assert_eq!(cache.symbolic_builds, 1, "area {a}");
                assert_eq!(cache.refactor_full, 1, "area {a}");
                assert_eq!(cache.refactor_reuse + cache.refactor_full, gn, "area {a}");
            }
        });
    }
}

#[test]
fn checkpoint_restored_solve_bitwise_identical_to_uninterrupted_cache() {
    // The failover contract: a worker restarted from a checkpoint (warm
    // vm/va profile only — symbolic structures rebuild from the frame's
    // measurement layout) must converge **bitwise identically** to the
    // worker that never died, at any pool size.
    let net = ieee118_like();
    let pf = solve_pf(&net, &PfOptions::default()).unwrap();
    let plan = TelemetryPlan::full(&net, vec![net.slack()]);
    let est = WlsEstimator::new(
        net.clone(),
        StateSpace::with_reference(net.n_buses(), net.slack()),
        WlsOptions::default(),
    );
    // Same measurement structure, fresh noise per frame: the streaming
    // workload shape.
    let frame = |seq: u64| plan.generate(&net, &pf, 1.0, seq);

    for threads in POOL_SIZES {
        let (survivor, restored, ckpt_desc, restored_desc) = with_pool(threads, || {
            // The uninterrupted worker solves frames 0..=2 and keeps going.
            let mut cache_a = SolveCache::new();
            for seq in 0..3u64 {
                let sol = est.estimate_cached(&frame(seq), None, &mut cache_a).unwrap();
                cache_a.restore_warm(sol.vm.clone(), sol.va.clone());
            }
            // Checkpoint taken at the frame-2 boundary, then the worker dies.
            let warm = cache_a.export_warm().expect("warm profile after 3 frames");
            let ckpt_desc = cache_a.structure_descriptor().expect("structures built");

            // The replacement comes up with a fresh cache and only the
            // checkpoint's warm profile.
            let mut cache_b = SolveCache::new();
            cache_b.restore_warm(warm.0, warm.1);

            let survivor = est.estimate_cached(&frame(3), None, &mut cache_a).unwrap();
            let restored = est.estimate_cached(&frame(3), None, &mut cache_b).unwrap();
            let restored_desc = cache_b.structure_descriptor().expect("rebuilt structures");
            // The restart costs exactly one symbolic rebuild, nothing else.
            assert_eq!(cache_b.symbolic_builds, 1);
            assert_eq!(cache_b.warm_solves, 1);
            (survivor, restored, ckpt_desc, restored_desc)
        });
        // The rebuilt symbolic structures are the ones the lost worker ran.
        assert_eq!(restored_desc, ckpt_desc, "@ {threads} threads");
        assert_eq!(restored.iterations, survivor.iterations, "@ {threads} threads");
        for (p, q) in restored.vm.iter().zip(&survivor.vm) {
            assert_eq!(p.to_bits(), q.to_bits(), "restored vm @ {threads} threads");
        }
        for (p, q) in restored.va.iter().zip(&survivor.va) {
            assert_eq!(p.to_bits(), q.to_bits(), "restored va @ {threads} threads");
        }
    }
}

#[test]
fn same_seed_obsreport_byte_identical_with_parallelism_on() {
    // The prototype's clusters fan areas out on real pools — the
    // deterministic trace must survive that concurrency.
    let run = || {
        let mut proto =
            SystemPrototype::deploy(ieee118_like(), PrototypeConfig::default()).unwrap();
        proto.run_frame(0.0).unwrap();
        proto.obs_report().to_json_deterministic()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed ObsReport must stay byte-identical under parallelism");
}
