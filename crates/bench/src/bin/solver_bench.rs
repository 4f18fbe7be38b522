//! Gain-solve benchmark → `target/obs/BENCH_solver.json`.
//!
//! Three sections, one JSON report:
//!
//! 1. **Sequential vs parallel PCG.** Builds the real IEEE-118 WLS gain
//!    matrix `G = HᵀWH`, replicates it block-diagonally with weak
//!    SPD-preserving coupling into a large synthetic case (118 buses
//!    alone sits below the parallel-kernel size thresholds), and times
//!    the Jacobi-PCG solve with `parallel: false` vs `parallel: true`.
//!    The two solves are bitwise identical by the `vecops` fixed-chunk
//!    determinism contract; that is asserted. The speedup itself is
//!    *recorded*, never asserted — on a 1–2 core runner the parallel
//!    path legitimately lands below 1× and an assertion would either
//!    fail spuriously or (as the old `threads >= 4` gate did) silently
//!    skip, reporting success without measuring anything.
//!
//! 2. **Warm-frame batched direct solve.** Models the streaming warm
//!    path: several areas' gain systems share a sparsity pattern across
//!    frames, only values change. The pre-batch cost per warm frame was
//!    one IC(0) build + PCG per lane; the batched path refreshes one
//!    lane-interleaved numeric factorization and solves all lanes
//!    together. This speedup is pure amortization — no extra cores
//!    involved — so its ≥1.5× floor is asserted on ANY core count.
//!
//! 3. **Streaming round.** One cross-area `BatchPlan::solve_round` over
//!    every in-flight gain system vs each system factoring alone — the
//!    service's round-level dispatch vs the per-area fan-out it
//!    replaced. Shared symbolic analysis plus lane amortization must buy
//!    ≥1.3× per round, on any core count.
//!
//! ```text
//! cargo run --release -p pgse-bench --bin solver_bench
//! ```

use std::time::{Duration, Instant};

use pgse_bench::timing::{paired_best, paired_best_until, time_ns};
use pgse_estimation::jacobian::{assemble_jacobian, StateSpace};
use pgse_estimation::synthetic::TelemetryPlan;
use pgse_grid::cases::ieee118_like;
use pgse_grid::Ybus;
use pgse_powerflow::{solve, PfOptions};
use pgse_sparsela::pcg::{pcg, CgOptions, CgOutcome, Preconditioner};
use pgse_sparsela::{BatchCholesky, BatchPlan, Coo, Csr, SparseCholesky};

/// Block copies of the IEEE-118 gain matrix in the large case. Sized so
/// the per-iteration SpMV (the parallel workhorse) dominates the small
/// BLAS-1 ops and the pool's per-operation dispatch overhead.
const COPIES: usize = 120;
/// Relative strength of the inter-copy coupling.
const COUPLE: f64 = 1e-3;
/// Timed repetitions per configuration (the minimum is reported).
const REPS: usize = 5;
/// Identical-pattern gain systems per warm frame (areas in flight).
const LANES: usize = 8;
/// Distinct warm frames cycled through the timed rounds.
const FRAMES: usize = 4;
/// Measurement rounds for the warm-frame comparison.
const WARM_ROUNDS: usize = 8;

fn gain_system() -> (Csr, Vec<f64>) {
    let net = ieee118_like();
    let pf = solve(&net, &PfOptions::default()).unwrap();
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

/// Replicates `a` block-diagonally `copies` times and couples matching
/// states of consecutive copies. The coupling adds a weighted graph
/// Laplacian (positive semidefinite), so SPD-ness is preserved.
fn replicate_coupled(a: &Csr, copies: usize, couple: f64) -> Csr {
    let nb = a.nrows();
    let n = nb * copies;
    let mut coo = Coo::new(n, n);
    for k in 0..copies {
        let off = k * nb;
        for i in 0..nb {
            let (cols, vals) = a.row(i);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(off + i, off + c, *v);
            }
        }
    }
    for k in 0..copies - 1 {
        let (o1, o2) = (k * nb, (k + 1) * nb);
        for i in 0..nb {
            let d = couple * a.get(i, i);
            coo.push(o1 + i, o1 + i, d);
            coo.push(o2 + i, o2 + i, d);
            coo.push(o1 + i, o2 + i, -d);
            coo.push(o2 + i, o1 + i, -d);
        }
    }
    coo.to_csr()
}

/// Minimum wall time over `REPS` solves (after one warm-up).
fn time_solve(a: &Csr, b: &[f64], m: &Preconditioner, opts: &CgOptions) -> (Duration, CgOutcome) {
    let mut best = Duration::MAX;
    let mut out = pcg(a, b, m, opts).expect("warm-up solve converges");
    for _ in 0..REPS {
        let t0 = Instant::now();
        out = pcg(a, b, m, opts).expect("timed solve converges");
        best = best.min(t0.elapsed());
    }
    (best, out)
}

/// An SPD-preserving value variant of `base` with the same sparsity
/// pattern: the diagonal congruence `D·A·D` with per-state scale factors
/// `d_i > 0` keyed on `(seed, i)` — exactly what per-frame measurement
/// re-weighting does to a gain matrix.
fn lane_frame(base: &Csr, seed: u64) -> Csr {
    let n = base.nrows();
    let d: Vec<f64> = (0..n)
        .map(|i| 1.0 + 1e-3 * ((seed.wrapping_mul(31) + i as u64) % 23) as f64)
        .collect();
    let mut m = base.clone();
    let row_ptr = base.row_ptr().to_vec();
    let col_idx = base.col_idx().to_vec();
    let vals = m.values_mut();
    for r in 0..n {
        for p in row_ptr[r]..row_ptr[r + 1] {
            vals[p] *= d[r] * d[col_idx[p]];
        }
    }
    m
}

/// Pre-batch warm-frame cost: each lane independently builds its IC(0)
/// preconditioner and runs PCG — what the streaming service paid per
/// warm frame before batched refactorization.
fn prebatch_frame(lanes: &[Csr], rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let opts = CgOptions { rel_tol: 1e-8, max_iter: 10_000, parallel: false };
    lanes
        .iter()
        .zip(rhs)
        .map(|(a, b)| {
            let m = Preconditioner::ic0(a).expect("SPD lane");
            pcg(a, b, &m, &opts).expect("lane converges").x
        })
        .collect()
}

/// Batched warm-frame cost: one numeric refresh of the shared-pattern
/// lane-interleaved factorization, then all lanes solved together.
fn batch_frame(chol: &mut BatchCholesky, lanes: &[Csr], rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let refs: Vec<&Csr> = lanes.iter().collect();
    chol.refactor(&refs).expect("SPD lanes");
    let rhs_refs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
    chol.solve_all(&rhs_refs)
}

fn main() {
    let (gain, rhs) = gain_system();
    let big = replicate_coupled(&gain, COPIES, COUPLE);
    let n = big.nrows();
    let big_rhs: Vec<f64> = (0..COPIES).flat_map(|_| rhs.iter().copied()).collect();
    let precond = Preconditioner::jacobi(&big).expect("SPD diagonal");
    let threads = rayon::current_num_threads();
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    println!(
        "case: ieee118 gain x{COPIES} coupled — n = {n}, nnz = {}, pool threads = {threads}",
        big.nnz()
    );

    let seq_opts = CgOptions { rel_tol: 1e-8, max_iter: 10_000, parallel: false };
    let par_opts = CgOptions { parallel: true, ..seq_opts };
    let (t_seq, out_seq) = time_solve(&big, &big_rhs, &precond, &seq_opts);
    let (t_par, out_par) = time_solve(&big, &big_rhs, &precond, &par_opts);

    let bitwise = out_seq.x.iter().zip(&out_par.x).all(|(a, b)| a.to_bits() == b.to_bits())
        && out_seq.iterations == out_par.iterations;
    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64();
    println!("sequential: {:>9.3} ms  ({} iterations)", t_seq.as_secs_f64() * 1e3, out_seq.iterations);
    println!("parallel:   {:>9.3} ms  ({} iterations)", t_par.as_secs_f64() * 1e3, out_par.iterations);
    println!("speedup:    {speedup:>9.2}x   bitwise-identical: {bitwise}");
    if speedup < 1.5 {
        println!(
            "(parallel speedup below 1.5x — informational only; \
             {cores} cores / {threads} pool threads on this runner)"
        );
    }

    // ---- Warm-frame batched direct solve vs per-lane IC(0)+PCG ----
    let frames: Vec<Vec<Csr>> = (0..FRAMES)
        .map(|f| (0..LANES).map(|l| lane_frame(&gain, (f * LANES + l) as u64)).collect())
        .collect();
    let lane_rhs: Vec<Vec<f64>> = (0..LANES)
        .map(|l| rhs.iter().map(|v| v * (1.0 + 0.01 * l as f64)).collect())
        .collect();

    let refs: Vec<&Csr> = frames[0].iter().collect();
    let mut batch = BatchCholesky::factor(&refs).expect("SPD warm lanes");

    // The batched path must agree bitwise with independent scalar
    // factorizations before its timing means anything.
    let batch_sols = batch_frame(&mut batch, &frames[0], &lane_rhs);
    let warm_bitwise = frames[0].iter().zip(&lane_rhs).zip(&batch_sols).all(|((a, b), xs)| {
        let scalar = SparseCholesky::factor(a).expect("SPD lane").solve(b);
        scalar.iter().zip(xs).all(|(s, x)| s.to_bits() == x.to_bits())
    });

    let mut fi = 0usize;
    let mut si = 0usize;
    let (t_batch, t_prebatch) = paired_best_until(
        WARM_ROUNDS,
        || {
            fi += 1;
            let f = &frames[fi % FRAMES];
            time_ns(|| {
                std::hint::black_box(batch_frame(&mut batch, f, &lane_rhs));
            })
        },
        || {
            si += 1;
            let f = &frames[si % FRAMES];
            time_ns(|| {
                std::hint::black_box(prebatch_frame(f, &lane_rhs));
            })
        },
        |f, s| f.saturating_mul(3) < s.saturating_mul(2),
    );
    let warm_speedup = t_prebatch as f64 / t_batch as f64;
    println!(
        "warm frame ({LANES} lanes): pre-batch {:>9.3} ms, batched {:>9.3} ms — {warm_speedup:.2}x",
        t_prebatch as f64 / 1e6,
        t_batch as f64 / 1e6,
    );

    // ---- Streaming round: one cross-area batched dispatch vs per-area
    // factoring — the round-level solve the service's wave driver runs.
    // The plan's symbolic cache is warmed outside the timed region, like
    // the persistent plan the service carries across rounds.
    let round_rhs: Vec<&[f64]> = lane_rhs.iter().map(Vec::as_slice).collect();
    let mut plan = BatchPlan::new();
    let mut round_fi = 0usize;
    {
        let systems: Vec<(&Csr, &[f64])> =
            frames[0].iter().zip(&round_rhs).map(|(g, b)| (g, *b)).collect();
        let warmup = plan.solve_round(&systems);
        assert_eq!(
            warmup.batched_lanes + warmup.scalar_fallbacks,
            LANES as u64,
            "round dispatch accounting must close"
        );
    }
    let mut round_si = 0usize;
    let (t_round_batch, t_round_scalar) = paired_best(
        WARM_ROUNDS,
        || {
            round_fi += 1;
            let f = &frames[round_fi % FRAMES];
            let systems: Vec<(&Csr, &[f64])> =
                f.iter().zip(&round_rhs).map(|(g, b)| (g, *b)).collect();
            time_ns(|| {
                std::hint::black_box(plan.solve_round(&systems));
            })
        },
        || {
            round_si += 1;
            let f = &frames[round_si % FRAMES];
            time_ns(|| {
                for (g, b) in f.iter().zip(&round_rhs) {
                    std::hint::black_box(
                        SparseCholesky::factor(g).expect("SPD system").solve(b),
                    );
                }
            })
        },
    );
    let round_speedup = t_round_scalar as f64 / t_round_batch as f64;
    println!(
        "streaming round ({LANES} systems): per-area {:>9.3} ms, batched {:>9.3} ms — {round_speedup:.2}x",
        t_round_scalar as f64 / 1e6,
        t_round_batch as f64 / 1e6,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"case\": \"ieee118_gain_x{copies}_coupled\",\n",
            "  \"n\": {n},\n",
            "  \"nnz\": {nnz},\n",
            "  \"cores\": {cores},\n",
            "  \"threads\": {threads},\n",
            "  \"iterations\": {iters},\n",
            "  \"sequential_ms\": {seq:.6},\n",
            "  \"parallel_ms\": {par:.6},\n",
            "  \"speedup\": {speedup:.4},\n",
            "  \"deterministic_bitwise\": {bitwise},\n",
            "  \"warm_lanes\": {lanes},\n",
            "  \"warm_prebatch_ms_per_frame\": {warm_pre:.6},\n",
            "  \"warm_batch_ms_per_frame\": {warm_batch:.6},\n",
            "  \"warm_batch_speedup\": {warm_speedup:.4},\n",
            "  \"warm_batch_bitwise\": {warm_bitwise},\n",
            "  \"stream_round_scalar_ms\": {round_scalar:.6},\n",
            "  \"stream_round_batch_ms\": {round_batch:.6},\n",
            "  \"stream_round_speedup\": {round_speedup:.4}\n",
            "}}\n"
        ),
        copies = COPIES,
        n = n,
        nnz = big.nnz(),
        cores = cores,
        threads = threads,
        iters = out_seq.iterations,
        seq = t_seq.as_secs_f64() * 1e3,
        par = t_par.as_secs_f64() * 1e3,
        speedup = speedup,
        bitwise = bitwise,
        lanes = LANES,
        warm_pre = t_prebatch as f64 / 1e6,
        warm_batch = t_batch as f64 / 1e6,
        warm_speedup = warm_speedup,
        warm_bitwise = warm_bitwise,
        round_scalar = t_round_scalar as f64 / 1e6,
        round_batch = t_round_batch as f64 / 1e6,
        round_speedup = round_speedup,
    );
    // Round-trip through the parser so a malformed report can never ship.
    #[derive(serde::Deserialize)]
    #[allow(dead_code)]
    struct SolverBenchReport {
        case: String,
        n: usize,
        nnz: usize,
        cores: usize,
        threads: usize,
        iterations: usize,
        sequential_ms: f64,
        parallel_ms: f64,
        speedup: f64,
        deterministic_bitwise: bool,
        warm_lanes: usize,
        warm_prebatch_ms_per_frame: f64,
        warm_batch_ms_per_frame: f64,
        warm_batch_speedup: f64,
        warm_batch_bitwise: bool,
        stream_round_scalar_ms: f64,
        stream_round_batch_ms: f64,
        stream_round_speedup: f64,
    }
    let parsed: SolverBenchReport = serde_json::from_str(&json).expect("valid JSON");
    assert!(parsed.sequential_ms > 0.0 && parsed.parallel_ms > 0.0);
    assert!(parsed.warm_prebatch_ms_per_frame > 0.0 && parsed.warm_batch_ms_per_frame > 0.0);
    std::fs::create_dir_all("target/obs").expect("create target/obs");
    std::fs::write("target/obs/BENCH_solver.json", &json).expect("write BENCH_solver.json");
    println!("benchmark JSON written to target/obs/BENCH_solver.json");

    assert!(bitwise, "parallel solve diverged bitwise from the sequential reference");
    assert!(warm_bitwise, "batched warm solve diverged bitwise from scalar per-lane solves");
    assert!(
        warm_speedup >= 1.5,
        "warm-frame batched solve speedup {warm_speedup:.2}x is below the 1.5x floor \
         (amortization, not parallelism — it must hold on any core count)"
    );
    // On a single-thread pool the tuning gate must route every "parallel"
    // kernel back to the sequential code path, so the parallel
    // configuration can cost at most measurement noise. (This is the
    // regression the gate fixes: pre-gate, a 1-core runner paid the
    // chunked-dispatch overhead for nothing and landed near 0.88x.)
    if threads == 1 {
        assert!(
            speedup >= 0.95,
            "1-thread parallel PCG landed at {speedup:.2}x — the pool gate must keep \
             a single-thread pool on the sequential path (≥0.95x)"
        );
    }
    assert!(
        round_speedup >= 1.3,
        "streaming-round batched dispatch speedup {round_speedup:.2}x is below the 1.3x \
         floor (shared symbolic analysis + lane amortization, any core count)"
    );
}
