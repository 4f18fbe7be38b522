//! Row-distributed preconditioned conjugate gradient.
//!
//! This is the structure of the paper's HPC state-estimation kernel
//! (Chen et al. \[2\]): the SPD gain matrix is block-partitioned by rows
//! across the ranks of one cluster; every iteration performs
//!
//! 1. an **allgather** of the shared direction vector,
//! 2. a **local SpMV** over the rank's row block,
//! 3. **allreduced** dot products for the step sizes.
//!
//! The Jacobi preconditioner is applied entirely locally (each rank owns
//! its diagonal block entries) — the reason it is the preconditioner of
//! choice for the distributed solver.

use pgse_sparsela::Csr;

use crate::comm::{CommError, Communicator};

/// Result of a distributed PCG solve (identical on every rank).
#[derive(Debug, Clone)]
pub struct DpcgOutcome {
    /// The full solution vector.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub rel_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Contiguous row range owned by `rank` when `n` rows are split over
/// `size` ranks (remainder spread over the first ranks).
pub fn row_range(n: usize, size: usize, rank: usize) -> std::ops::Range<usize> {
    let base = n / size;
    let extra = n % size;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    start..start + len
}

/// Solves `A x = b` with Jacobi-preconditioned CG across the communicator.
///
/// Every rank passes its *local row block* `a_local` (with full-width
/// columns, rows `row_range(n, size, rank)`) and the matching slice of the
/// right-hand side. All ranks receive the same [`DpcgOutcome`].
///
/// # Errors
/// [`CommError`] when a peer disappears mid-solve.
///
/// # Panics
/// Panics when the local block shape disagrees with `row_range`.
pub fn dpcg_solve(
    comm: &mut Communicator,
    a_local: &Csr,
    b_local: &[f64],
    rel_tol: f64,
    max_iter: usize,
) -> Result<DpcgOutcome, CommError> {
    let n = a_local.ncols();
    let my = row_range(n, comm.size(), comm.rank());
    assert_eq!(a_local.nrows(), my.len(), "local block has wrong row count");
    assert_eq!(b_local.len(), my.len(), "local rhs has wrong length");

    // Jacobi preconditioner: the local diagonal entries.
    let minv: Vec<f64> = my
        .clone()
        .enumerate()
        .map(|(li, gi)| {
            let d = a_local.get(li, gi);
            if d > 0.0 {
                1.0 / d
            } else {
                1.0
            }
        })
        .collect();

    let bnorm2 = comm.allreduce_scalar(b_local.iter().map(|v| v * v).sum())?;
    let bnorm = bnorm2.sqrt();
    if bnorm == 0.0 {
        return Ok(DpcgOutcome { x: vec![0.0; n], iterations: 0, rel_residual: 0.0, converged: true });
    }

    let m_local = my.len();
    let mut x_local = vec![0.0f64; m_local];
    let mut r_local = b_local.to_vec();
    let mut z_local: Vec<f64> = r_local.iter().zip(&minv).map(|(r, m)| r * m).collect();
    let mut p_local = z_local.clone();
    let mut rz = comm.allreduce_scalar(r_local.iter().zip(&z_local).map(|(a, b)| a * b).sum())?;

    let mut iterations = 0usize;
    let mut rel = 1.0f64;
    let mut converged = false;
    let mut ap_local = vec![0.0f64; m_local];
    while iterations < max_iter {
        iterations += 1;
        // Distributed SpMV: gather the full direction vector, multiply the
        // local row block.
        let p_full = comm.allgather(p_local.clone())?;
        a_local.spmv(&p_full, &mut ap_local);
        let pap =
            comm.allreduce_scalar(p_local.iter().zip(&ap_local).map(|(a, b)| a * b).sum())?;
        if pap <= 0.0 {
            break;
        }
        let alpha = rz / pap;
        for i in 0..m_local {
            x_local[i] += alpha * p_local[i];
            r_local[i] -= alpha * ap_local[i];
        }
        let rnorm2 = comm.allreduce_scalar(r_local.iter().map(|v| v * v).sum())?;
        rel = rnorm2.sqrt() / bnorm;
        if rel <= rel_tol {
            converged = true;
            break;
        }
        for i in 0..m_local {
            z_local[i] = r_local[i] * minv[i];
        }
        let rz_new =
            comm.allreduce_scalar(r_local.iter().zip(&z_local).map(|(a, b)| a * b).sum())?;
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..m_local {
            p_local[i] = z_local[i] + beta * p_local[i];
        }
    }
    let x = comm.allgather(x_local)?;
    Ok(DpcgOutcome { x, iterations, rel_residual: rel, converged })
}

/// Splits a full matrix into the row block owned by `rank` (helper for
/// tests and the cluster runtime, which holds the assembled gain matrix on
/// the master and scatters blocks to workers).
pub fn extract_row_block(a: &Csr, size: usize, rank: usize) -> Csr {
    let range = row_range(a.nrows(), size, rank);
    let rows: Vec<usize> = range.collect();
    let cols: Vec<usize> = (0..a.ncols()).collect();
    a.submatrix(&rows, &cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::spawn_world;
    use pgse_sparsela::{Coo, SparseCholesky};

    fn laplacian2d(k: usize) -> Csr {
        let n = k * k;
        let idx = |r: usize, c: usize| r * k + c;
        let mut coo = Coo::new(n, n);
        for r in 0..k {
            for c in 0..k {
                let i = idx(r, c);
                coo.push(i, i, 5.0);
                if r + 1 < k {
                    coo.push(i, idx(r + 1, c), -1.0);
                    coo.push(idx(r + 1, c), i, -1.0);
                }
                if c + 1 < k {
                    coo.push(i, idx(r, c + 1), -1.0);
                    coo.push(idx(r, c + 1), i, -1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn row_ranges_tile_the_matrix() {
        for (n, size) in [(10usize, 3usize), (7, 7), (100, 8), (5, 1)] {
            let mut covered = 0usize;
            for rank in 0..size {
                let r = row_range(n, size, rank);
                assert_eq!(r.start, covered, "n={n} size={size} rank={rank}");
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn row_range_with_fewer_rows_than_ranks() {
        // n < size: the first n ranks own one row each, the rest are empty.
        let (n, size) = (3usize, 5usize);
        let mut covered = 0usize;
        for rank in 0..size {
            let r = row_range(n, size, rank);
            assert_eq!(r.start, covered, "rank {rank}");
            assert_eq!(r.len(), usize::from(rank < n), "rank {rank}");
            covered = r.end;
        }
        assert_eq!(covered, n);
        // Degenerate corners.
        assert_eq!(row_range(0, 4, 0), 0..0);
        assert_eq!(row_range(0, 4, 3), 0..0);
        assert_eq!(row_range(1, 1, 0), 0..1);
    }

    #[test]
    fn row_range_spreads_remainder_over_leading_ranks() {
        // 10 rows over 4 ranks: remainder 2 → sizes 3,3,2,2 (never 4,2,2,2).
        let sizes: Vec<usize> = (0..4).map(|r| row_range(10, 4, r).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        // Generally: sizes are non-increasing and differ by at most one.
        for (n, size) in [(23usize, 7usize), (100, 13), (6, 6), (8, 3)] {
            let sizes: Vec<usize> = (0..size).map(|r| row_range(n, size, r).len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "n={n} size={size}: {sizes:?}");
            assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "n={n} size={size}: {sizes:?}");
        }
    }

    #[test]
    fn empty_rank_blocks_still_solve() {
        // More ranks than rows: the surplus ranks hold empty blocks but must
        // participate in every collective without corrupting the solve.
        let a = laplacian2d(2); // n = 4
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let size = 6;
        let results = spawn_world(size, |mut comm| {
            let block = extract_row_block(&a, size, comm.rank());
            let range = row_range(n, size, comm.rank());
            dpcg_solve(&mut comm, &block, &b[range], 1e-12, 100).unwrap()
        });
        let ax = a.mul_vec(&results[0].x);
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-9);
        }
        for out in &results {
            assert!(out.converged);
            assert_eq!(out.x, results[0].x);
        }
    }

    #[test]
    fn distributed_matches_serial_pcg_on_ieee118_gain() {
        // The paper's actual kernel input: the WLS gain matrix G = HᵀWH of
        // the IEEE-118-like case at flat start (n = 235 states).
        use pgse_estimation::jacobian::{assemble_jacobian, StateSpace};
        use pgse_estimation::synthetic::TelemetryPlan;
        use pgse_grid::cases::ieee118_like;
        use pgse_grid::Ybus;
        use pgse_powerflow::{solve as solve_pf, PfOptions};

        let net = ieee118_like();
        let pf = solve_pf(&net, &PfOptions::default()).expect("power flow");
        let plan = TelemetryPlan::full(&net, vec![net.slack()]);
        let set = plan.generate(&net, &pf, 1.0, 1);
        let space = StateSpace::with_reference(net.n_buses(), net.slack());
        let ybus = Ybus::new(&net);
        let vm = vec![1.0; net.n_buses()];
        let va = vec![0.0; net.n_buses()];
        let h = assemble_jacobian(&net, &ybus, &set, &space, &vm, &va);
        let gain = h.ata_weighted(&set.weights());
        let n = gain.nrows();
        let mut rhs = vec![0.0; n];
        let wr: Vec<f64> =
            set.values().iter().zip(set.weights()).map(|(z, w)| z * w * 0.01).collect();
        h.spmv_transpose(&wr, &mut rhs);

        let serial = SparseCholesky::factor(&gain).unwrap().solve(&rhs);
        for size in [2usize, 5] {
            let results = spawn_world(size, |mut comm| {
                let block = extract_row_block(&gain, size, comm.rank());
                let range = row_range(n, size, comm.rank());
                dpcg_solve(&mut comm, &block, &rhs[range], 1e-10, 5000).unwrap()
            });
            let scale = serial.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
            for out in &results {
                assert!(out.converged, "size {size}");
                for (p, q) in out.x.iter().zip(&serial) {
                    assert!(
                        (p - q).abs() < 1e-6 * scale,
                        "size {size}: {p} vs {q} (scale {scale})"
                    );
                }
            }
            assert_eq!(results[0].x, results[size - 1].x, "ranks disagree at size {size}");
        }
    }

    #[test]
    fn distributed_matches_serial_pcg() {
        let a = laplacian2d(9);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let serial = SparseCholesky::factor(&a).unwrap().solve(&b);
        for size in [1usize, 2, 4] {
            let results = spawn_world(size, |mut comm| {
                let block = extract_row_block(&a, size, comm.rank());
                let range = row_range(n, size, comm.rank());
                let b_local = b[range].to_vec();
                dpcg_solve(&mut comm, &block, &b_local, 1e-10, 2000).unwrap()
            });
            for out in &results {
                assert!(out.converged, "size {size}");
                for (p, q) in out.x.iter().zip(&serial) {
                    assert!((p - q).abs() < 1e-7, "size {size}");
                }
            }
            // All ranks agree exactly.
            assert_eq!(results[0].x, results[size - 1].x);
        }
    }

    #[test]
    fn iteration_count_is_rank_independent() {
        let a = laplacian2d(6);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut counts = Vec::new();
        for size in [1usize, 3] {
            let results = spawn_world(size, |mut comm| {
                let block = extract_row_block(&a, size, comm.rank());
                let range = row_range(n, size, comm.rank());
                dpcg_solve(&mut comm, &block, &b[range], 1e-10, 1000).unwrap()
            });
            counts.push(results[0].iterations);
        }
        // The math is identical; only the data layout differs.
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplacian2d(4);
        let results = spawn_world(2, |mut comm| {
            let block = extract_row_block(&a, 2, comm.rank());
            let range = row_range(16, 2, comm.rank());
            let b = vec![0.0; range.len()];
            dpcg_solve(&mut comm, &block, &b, 1e-10, 100).unwrap()
        });
        assert!(results[0].x.iter().all(|&v| v == 0.0));
        assert_eq!(results[0].iterations, 0);
    }

    #[test]
    fn residual_is_small_on_random_spd() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 6.0);
            if i + 1 < n {
                let w = rng.gen_range(-1.0..1.0);
                coo.push(i, i + 1, w);
                coo.push(i + 1, i, w);
            }
        }
        let a = coo.to_csr();
        let xtrue: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b = a.mul_vec(&xtrue);
        let results = spawn_world(3, |mut comm| {
            let block = extract_row_block(&a, 3, comm.rank());
            let range = row_range(n, 3, comm.rank());
            dpcg_solve(&mut comm, &block, &b[range], 1e-11, 1000).unwrap()
        });
        for (p, q) in results[0].x.iter().zip(&xtrue) {
            assert!((p - q).abs() < 1e-8);
        }
    }
}
