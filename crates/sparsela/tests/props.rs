//! Property tests on the linear-algebra invariants.

use proptest::prelude::*;

use pgse_sparsela::{Coo, Csr, DenseMatrix, SparseCholesky, SparseLu};

/// Random SPD matrix via `MᵀM + c·I`, returned with a right-hand side.
fn spd_system() -> impl Strategy<Value = (Csr, Vec<f64>)> {
    (3usize..14).prop_flat_map(|n| {
        let trips = proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..3 * n);
        let rhs = proptest::collection::vec(-2.0f64..2.0, n);
        (trips, rhs).prop_map(move |(trips, rhs)| {
            let mut coo = Coo::new(n, n);
            for (i, j, v) in trips {
                coo.push(i, j, v);
            }
            let m = coo.to_csr();
            let spd = m
                .ata_weighted(&vec![1.0; n])
                .add_scaled(&Csr::identity(n), 2.0 + n as f64 * 0.1);
            (spd, rhs)
        })
    })
}

/// Random structurally unsymmetric system whose diagonal is mostly zero:
/// one dominant entry per row at a random column `perm[i]` (nonsingular by
/// row dominance: it outweighs the row's other entries together) plus
/// sparse unsymmetric noise, returned with a right-hand side.
fn unsymmetric_system() -> impl Strategy<Value = (Csr, Vec<f64>)> {
    (3usize..14).prop_flat_map(|n| {
        let trips = proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..3 * n);
        let rhs = proptest::collection::vec(-2.0f64..2.0, n);
        (trips, 1u64..500, rhs).prop_map(move |(trips, seed, rhs)| {
            let mut coo = Coo::new(n, n);
            for (i, &j) in permutation(n, seed).iter().enumerate() {
                coo.push(i, j, if i % 2 == 0 { 1.0 } else { -1.0 } * (3 * n + 1) as f64);
            }
            for (i, j, v) in trips {
                coo.push(i, j, v);
            }
            (coo.to_csr(), rhs)
        })
    })
}

/// Random permutation of `0..n` derived from a seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        p.swap(i, j);
    }
    p
}

/// The dense oracle: `A = L·Lᵀ` by [`DenseMatrix::cholesky`], then the
/// two triangular solves written out.
fn dense_cholesky_solve(a: &DenseMatrix, b: &[f64]) -> Vec<f64> {
    let l = a.cholesky().unwrap();
    let n = b.len();
    let mut y = b.to_vec();
    for i in 0..n {
        for k in 0..i {
            y[i] -= l[(i, k)] * y[k];
        }
        y[i] /= l[(i, i)];
    }
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            y[i] -= l[(k, i)] * y[k];
        }
        y[i] /= l[(i, i)];
    }
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_factorizations_agree_with_dense_oracles((spd, rhs) in spd_system()) {
        let dense = spd.to_dense().solve(&rhs).unwrap();
        let dense_chol = dense_cholesky_solve(&spd.to_dense(), &rhs);
        let tree = SparseCholesky::factor(&spd).unwrap().solve(&rhs);
        let lu = SparseLu::factor_csr(&spd, 1.0).unwrap().solve(&rhs);
        for i in 0..rhs.len() {
            prop_assert!((dense_chol[i] - dense[i]).abs() < 1e-7, "dense cholesky");
            prop_assert!((tree[i] - dense[i]).abs() < 1e-7, "scholesky");
            prop_assert!((lu[i] - dense[i]).abs() < 1e-7, "lu");
        }
    }

    #[test]
    fn lu_solves_unsymmetric_patterns_with_zero_diagonals((a, rhs) in unsymmetric_system()) {
        let dense = a.to_dense().solve(&rhs).unwrap();
        for tol in [1.0, 0.1] {
            let lu = SparseLu::factor_csr(&a, tol).unwrap().solve(&rhs);
            for i in 0..rhs.len() {
                prop_assert!((lu[i] - dense[i]).abs() < 1e-9, "tol {tol}, x[{i}]");
            }
        }
    }

    #[test]
    fn cholesky_is_ordering_invariant((spd, rhs) in spd_system(), seed in 1u64..500) {
        let n = spd.nrows();
        let reference = dense_cholesky_solve(&spd.to_dense(), &rhs);
        let natural = SparseCholesky::factor_natural(&spd).unwrap().solve(&rhs);
        let permuted =
            SparseCholesky::factor_with_perm(&spd, permutation(n, seed)).unwrap().solve(&rhs);
        for i in 0..n {
            prop_assert!((natural[i] - reference[i]).abs() < 1e-7);
            prop_assert!((permuted[i] - reference[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn permute_sym_preserves_spectra_proxy((spd, rhs) in spd_system(), seed in 1u64..500) {
        // xᵀAx is invariant under symmetric permutation (with x permuted).
        let n = spd.nrows();
        let perm = permutation(n, seed);
        let pap = spd.permute_sym(&perm);
        let mut inv = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let xp: Vec<f64> = (0..n).map(|newi| rhs[perm[newi]]).collect();
        let quad = |a: &Csr, x: &[f64]| {
            let ax = a.mul_vec(x);
            x.iter().zip(&ax).map(|(p, q)| p * q).sum::<f64>()
        };
        prop_assert!((quad(&spd, &rhs) - quad(&pap, &xp)).abs() < 1e-8);
    }
}
