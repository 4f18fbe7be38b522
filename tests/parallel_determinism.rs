//! Determinism acceptance suite for intra-node parallelism.
//!
//! The `rayon` shim is a real thread-pool executor, so these tests pin the
//! repo's core reproducibility claim: parallel kernels are **bitwise
//! identical** to their sequential references for any worker count
//! (`vecops`' fixed-chunk reduction contract), a full WLS solve is
//! byte-for-byte the same with `parallel` on or off, DSE Step 2 on a
//! persistent cache is bit-for-bit Step 2 on a throwaway one, and the
//! same-seed ObsReport stays byte-identical with parallelism enabled.
//!
//! Thresholds are lowered process-wide so the parallel paths engage even
//! at IEEE-118 scale; that is safe precisely because of the contract under
//! test — execution strategy can never change a result.

use pgse::core::{PrototypeConfig, SystemPrototype};
use pgse::dse::decomposition::{decompose, DecompositionOptions};
use pgse::dse::{AreaEstimator, AreaSolution, PseudoMeasurement};
use pgse::estimation::measurement::MeasurementSet;
use pgse::estimation::jacobian::{assemble_jacobian, StateSpace};
use pgse::estimation::synthetic::TelemetryPlan;
use pgse::estimation::wls::{GainSolver, PrecondKind, SolveCache, WlsEstimator, WlsOptions};
use pgse::grid::cases::ieee118_like;
use pgse::grid::{Network, Ybus};
use pgse::powerflow::{solve as solve_pf, PfOptions, PfSolution};
use pgse::sparsela::pcg::{pcg, CgOptions, Preconditioner};
use pgse::sparsela::{tuning, vecops, Csr};

const POOL_SIZES: [usize; 3] = [1, 2, 8];

fn engage_parallel_kernels() {
    tuning::set_par_elems_threshold(1);
    tuning::set_par_rows_threshold(1);
}

fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

fn gain_118() -> (Csr, Vec<f64>) {
    let net = ieee118_like();
    let pf = solve_pf(&net, &PfOptions::default()).unwrap();
    let plan = TelemetryPlan::full(&net, vec![net.slack()]);
    let set = plan.generate(&net, &pf, 1.0, 1);
    let space = StateSpace::with_reference(net.n_buses(), net.slack());
    let ybus = Ybus::new(&net);
    let vm = vec![1.0; net.n_buses()];
    let va = vec![0.0; net.n_buses()];
    let h = assemble_jacobian(&net, &ybus, &set, &space, &vm, &va);
    let gain = h.ata_weighted(&set.weights());
    let mut rhs = vec![0.0; space.dim()];
    let wr: Vec<f64> = set.values().iter().zip(set.weights()).map(|(z, w)| z * w * 0.01).collect();
    h.spmv_transpose(&wr, &mut rhs);
    (gain, rhs)
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
        let s1: Vec<AreaSolution> =
            ests.iter().zip(&sets).map(|(e, s)| e.step1(s).unwrap()).collect();
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
fn blas1_kernels_bitwise_identical_across_thread_counts() {
    engage_parallel_kernels();
    let n = 10_240; // ten DET_CHUNK chunks: a real multi-chunk reduction
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.137).sin() * 1.7).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.071).cos() - 0.3).collect();
    let dot_ref = vecops::dot(&x, &y);
    let mut axpy_ref = y.clone();
    vecops::axpy(-0.37, &x, &mut axpy_ref);
    for threads in POOL_SIZES {
        let (d, a) = with_pool(threads, || {
            let d = vecops::par_dot(&x, &y);
            let mut a = y.clone();
            vecops::par_axpy(-0.37, &x, &mut a);
            (d, a)
        });
        assert_eq!(d.to_bits(), dot_ref.to_bits(), "par_dot @ {threads} threads");
        for (p, q) in a.iter().zip(&axpy_ref) {
            assert_eq!(p.to_bits(), q.to_bits(), "par_axpy @ {threads} threads");
        }
    }
}

#[test]
fn par_spmv_bitwise_identical_across_thread_counts() {
    engage_parallel_kernels();
    let (gain, rhs) = gain_118();
    let mut y_ref = vec![0.0; gain.nrows()];
    gain.spmv(&rhs, &mut y_ref);
    for threads in POOL_SIZES {
        let y = with_pool(threads, || {
            let mut y = vec![0.0; gain.nrows()];
            gain.par_spmv(&rhs, &mut y);
            y
        });
        for (p, q) in y.iter().zip(&y_ref) {
            assert_eq!(p.to_bits(), q.to_bits(), "par_spmv @ {threads} threads");
        }
    }
}

#[test]
fn parallel_pcg_bitwise_identical_across_thread_counts() {
    engage_parallel_kernels();
    let (gain, rhs) = gain_118();
    let m = Preconditioner::jacobi(&gain).unwrap();
    let seq = pcg(
        &gain,
        &rhs,
        &m,
        &CgOptions { rel_tol: 1e-10, max_iter: 5000, parallel: false },
    )
    .unwrap();
    for threads in POOL_SIZES {
        let par = with_pool(threads, || {
            pcg(&gain, &rhs, &m, &CgOptions { rel_tol: 1e-10, max_iter: 5000, parallel: true })
                .unwrap()
        });
        assert_eq!(par.iterations, seq.iterations, "@ {threads} threads");
        assert_eq!(
            par.rel_residual.to_bits(),
            seq.rel_residual.to_bits(),
            "@ {threads} threads"
        );
        for (p, q) in par.x.iter().zip(&seq.x) {
            assert_eq!(p.to_bits(), q.to_bits(), "pcg state @ {threads} threads");
        }
    }
}

/// Why a `parallel: true` solve cannot lose to the sequential one on a
/// 1-core runner: `pcg`, `apply_dot`, the `par_*` vecops and `par_spmv`
/// all AND `tuning::pool_parallel()` into their size gates, and a
/// 1-thread pool answers `false` — the sequential kernels run.
#[test]
fn one_thread_pool_takes_the_sequential_kernels() {
    for threads in POOL_SIZES {
        let parallel = with_pool(threads, tuning::pool_parallel);
        assert_eq!(parallel, threads > 1, "pool_parallel @ {threads} threads");
    }
}

#[test]
fn wls_solve_bitwise_identical_parallel_vs_sequential() {
    engage_parallel_kernels();
    let net = ieee118_like();
    let pf = solve_pf(&net, &PfOptions::default()).unwrap();
    let plan = TelemetryPlan::full(&net, vec![net.slack()]);
    let set = plan.generate(&net, &pf, 1.0, 7);
    let estimator = |solver: GainSolver, parallel: bool| {
        let defaults = WlsOptions::default();
        let opts =
            WlsOptions { solver, cg: CgOptions { parallel, ..defaults.cg }, ..defaults };
        WlsEstimator::new(net.clone(), StateSpace::with_reference(net.n_buses(), net.slack()), opts)
    };
    let pcg_ic0 = GainSolver::Pcg { precond: PrecondKind::Ic0 };
    let seq = estimator(pcg_ic0, false).estimate(&set).unwrap();
    let step2_areas = step2_frames(&net, &pf, 4);
    for threads in POOL_SIZES {
        let par = with_pool(threads, || estimator(pcg_ic0, true).estimate(&set).unwrap());
        assert_eq!(par.iterations, seq.iterations, "@ {threads} threads");
        assert_eq!(par.solver_iterations, seq.solver_iterations, "@ {threads} threads");
        for (p, q) in par.vm.iter().zip(&seq.vm) {
            assert_eq!(p.to_bits(), q.to_bits(), "vm @ {threads} threads");
        }
        for (p, q) in par.va.iter().zip(&seq.va) {
            assert_eq!(p.to_bits(), q.to_bits(), "va @ {threads} threads");
        }
        // The uncached entry point is the cached engine on a throwaway
        // cache: bitwise the same solve, under either gain solver.
        for solver in [pcg_ic0, GainSolver::Direct] {
            let est = estimator(solver, true);
            let (plain, cached) = with_pool(threads, || {
                let cached = est.estimate_cached(&set, None, &mut SolveCache::new()).unwrap();
                (est.estimate(&set).unwrap(), cached)
            });
            assert_eq!(plain.iterations, cached.iterations, "{solver:?} @ {threads} threads");
            for (p, q) in plain.vm.iter().zip(&cached.vm).chain(plain.va.iter().zip(&cached.va)) {
                assert_eq!(p.to_bits(), q.to_bits(), "{solver:?} @ {threads} threads");
            }
            assert_eq!(plain.objective.to_bits(), cached.objective.to_bits());
        }
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
                    let plain = est.step2(s1, inbox, set, 1.0, seed).unwrap();
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
    engage_parallel_kernels();
    // The failover contract: a worker restarted from a checkpoint (warm
    // vm/va profile only — symbolic structures rebuild from the frame's
    // measurement layout) must converge **bitwise identically** to the
    // worker that never died, at any pool size.
    let net = ieee118_like();
    let pf = solve_pf(&net, &PfOptions::default()).unwrap();
    let plan = TelemetryPlan::full(&net, vec![net.slack()]);
    let opts = WlsOptions {
        solver: GainSolver::Pcg { precond: PrecondKind::Ic0 },
        ..WlsOptions::default()
    };
    let est = WlsEstimator::new(
        net.clone(),
        StateSpace::with_reference(net.n_buses(), net.slack()),
        opts,
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
        assert_eq!(restored.solver_iterations, survivor.solver_iterations, "@ {threads} threads");
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
    engage_parallel_kernels();
    // PrototypeConfig's WLS options now default to parallel kernels, and the
    // prototype's clusters fan areas out on real pools — the deterministic
    // trace must survive both levels of concurrency.
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
