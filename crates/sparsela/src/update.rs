//! Sherman–Morrison low-rank solve updates over a cached sparse Cholesky
//! factor.
//!
//! Contingency screening solves thousands of systems that differ from a
//! *base* matrix by a symmetric rank-1 term: removing branch `k` from the
//! DC susceptance Laplacian turns `B` into `B' = B − w·u·uᵀ` with
//! `u = e_f − e_t` (two nonzeros, or one when an endpoint is grounded).
//! Refactoring `B'` per outage throws the base factorization away; the
//! Sherman–Morrison identity keeps it:
//!
//! ```text
//! (A + c·u·uᵀ)⁻¹ b  =  A⁻¹b − (c·uᵀA⁻¹b / (1 + c·uᵀA⁻¹u)) · A⁻¹u
//! ```
//!
//! [`UpdatedFactor::new`] pays one cached-factor solve (`z = A⁻¹u`) per
//! update; every subsequent [`UpdatedFactor::update_solution`] is O(n)
//! vector arithmetic on an already-known base solution — the *warm* outage
//! solve of the streaming screening engine. A vanishing denominator
//! `1 + c·uᵀz` means the updated matrix is singular; for a graph Laplacian
//! that is exactly the bridge-removal (islanding) case, surfaced as the
//! typed [`LaError::SingularUpdate`] instead of garbage angles.

use crate::scholesky::SparseCholesky;
use crate::{LaError, LaResult};

/// A rank-1 modification `A' = A + c·u·uᵀ` of a factored SPD matrix,
/// solvable through the *base* factor without refactorization (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct UpdatedFactor {
    /// `z = A⁻¹u`, the one cached-factor solve this update paid for.
    z: Vec<f64>,
    /// The update coefficient `c` (negative for removals/downdates).
    c: f64,
    /// `1 + c·uᵀz` — the Sherman–Morrison denominator.
    denom: f64,
    /// The sparse update vector `u`, kept for the `uᵀx` inner products.
    u_idx: Vec<usize>,
    u_val: Vec<f64>,
}

impl UpdatedFactor {
    /// Prepares the rank-1 update `A' = A + c·u·uᵀ` over `chol` (a factor
    /// of `A`), where `u` is given sparsely as `(u_idx, u_val)` pairs.
    ///
    /// # Errors
    /// [`LaError::SingularUpdate`] when `A'` is singular to working
    /// precision (`|1 + c·uᵀA⁻¹u|` below `1e-8` of the cancelled term) —
    /// for a Laplacian downdate this is the islanding case.
    ///
    /// # Panics
    /// Panics when `u_idx`/`u_val` lengths differ or an index is out of
    /// range.
    pub fn new(chol: &SparseCholesky, u_idx: &[usize], u_val: &[f64], c: f64) -> LaResult<Self> {
        assert_eq!(u_idx.len(), u_val.len(), "rank-1 update: index/value lengths");
        let n = chol.dim();
        let mut u = vec![0.0; n];
        for (&i, &v) in u_idx.iter().zip(u_val) {
            assert!(i < n, "rank-1 update: index {i} out of range for dim {n}");
            u[i] += v;
        }
        let z = chol.solve(&u);
        let utz: f64 = u_idx.iter().zip(u_val).map(|(&i, &v)| v * z[i]).sum();
        let denom = 1.0 + c * utz;
        // Relative test: the denominator cancels `c·uᵀz` against 1, so
        // measure the residual against the larger of the two.
        let scale = 1.0f64.max((c * utz).abs());
        if !denom.is_finite() || denom.abs() <= 1e-8 * scale {
            return Err(LaError::SingularUpdate { denom });
        }
        Ok(UpdatedFactor {
            z,
            c,
            denom,
            u_idx: u_idx.to_vec(),
            u_val: u_val.to_vec(),
        })
    }

    /// The Sherman–Morrison denominator `1 + c·uᵀA⁻¹u`. Distance from zero
    /// is the conditioning margin of the updated system.
    pub fn denom(&self) -> f64 {
        self.denom
    }

    /// `uᵀx` for the stored sparse `u`.
    fn dot_u(&self, x: &[f64]) -> f64 {
        self.u_idx.iter().zip(&self.u_val).map(|(&i, &v)| v * x[i]).sum()
    }

    /// Given `x = A⁻¹b` (already solved against the *base* factor), returns
    /// `x' = A'⁻¹b` in O(n) — no triangular solve at all. This is the warm
    /// fast path: amortize one base solve across every rank-1 variant.
    pub fn update_solution(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.z.len(), "rank-1 update: solution length");
        let alpha = self.c * self.dot_u(x) / self.denom;
        x.iter().zip(&self.z).map(|(xi, zi)| xi - alpha * zi).collect()
    }

    /// Full solve `A'x = b` through the base factor (one cached-factor
    /// solve plus the O(n) correction).
    pub fn solve(&self, chol: &SparseCholesky, b: &[f64]) -> Vec<f64> {
        self.update_solution(&chol.solve(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Coo, Csr};

    /// Path-graph Laplacian plus a chord, grounded at node 0 (so the full
    /// matrix is SPD): every edge but the chord endpoints' is a bridge.
    fn grounded_laplacian(n: usize, edges: &[(usize, usize, f64)]) -> Csr {
        let mut coo = Coo::new(n, n);
        for &(f, t, w) in edges {
            // Node index 0 is "ground": rows/cols are 1-shifted.
            let (fi, ti) = (f.checked_sub(1), t.checked_sub(1));
            if let Some(fi) = fi {
                coo.push(fi, fi, w);
            }
            if let Some(ti) = ti {
                coo.push(ti, ti, w);
            }
            if let (Some(fi), Some(ti)) = (fi, ti) {
                coo.push(fi, ti, -w);
                coo.push(ti, fi, -w);
            }
        }
        coo.to_csr()
    }

    fn incidence(f: usize, t: usize) -> (Vec<usize>, Vec<f64>) {
        let mut idx = Vec::new();
        let mut val = Vec::new();
        if let Some(fi) = f.checked_sub(1) {
            idx.push(fi);
            val.push(1.0);
        }
        if let Some(ti) = t.checked_sub(1) {
            idx.push(ti);
            val.push(-1.0);
        }
        (idx, val)
    }

    /// 5-node ring: 0-1-2-3-4-0, plus chord 1-3. No single edge removal
    /// disconnects it.
    const RING: &[(usize, usize, f64)] = &[
        (0, 1, 2.0),
        (1, 2, 3.0),
        (2, 3, 1.5),
        (3, 4, 2.5),
        (4, 0, 1.0),
        (1, 3, 0.5),
    ];

    #[test]
    fn rank1_removal_matches_cold_factorization() {
        let a = grounded_laplacian(4, RING);
        let chol = SparseCholesky::factor(&a).unwrap();
        let b: Vec<f64> = vec![0.4, -0.1, 0.7, -1.0];
        let x_base = chol.solve(&b);
        for (k, &(f, t, w)) in RING.iter().enumerate() {
            let (u_idx, u_val) = incidence(f, t);
            let upd = UpdatedFactor::new(&chol, &u_idx, &u_val, -w)
                .unwrap_or_else(|e| panic!("edge {k} removal should be nonsingular: {e}"));
            let x_warm = upd.update_solution(&x_base);
            // Cold reference: factor the edge-removed matrix from scratch.
            let removed: Vec<_> =
                RING.iter().enumerate().filter(|&(i, _)| i != k).map(|(_, &e)| e).collect();
            let a2 = grounded_laplacian(4, &removed);
            let x_cold = SparseCholesky::factor(&a2).unwrap().solve(&b);
            for (p, q) in x_warm.iter().zip(&x_cold) {
                assert!((p - q).abs() < 1e-9, "edge {k}: warm {p} vs cold {q}");
            }
            // And the full-solve path agrees with the fast path.
            for (p, q) in upd.solve(&chol, &b).iter().zip(&x_warm) {
                assert!((p - q).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bridge_removal_is_reported_singular() {
        // Path 0-1-2: every edge is a bridge; removing either one isolates
        // part of the graph and the downdated Laplacian goes singular.
        let path: &[(usize, usize, f64)] = &[(0, 1, 2.0), (1, 2, 3.0)];
        let a = grounded_laplacian(2, path);
        let chol = SparseCholesky::factor(&a).unwrap();
        for &(f, t, w) in path {
            let (u_idx, u_val) = incidence(f, t);
            let err = UpdatedFactor::new(&chol, &u_idx, &u_val, -w).unwrap_err();
            assert!(matches!(err, LaError::SingularUpdate { .. }), "{err}");
        }
        // A *positive* update (strengthening the edge) stays regular.
        let (u_idx, u_val) = incidence(0, 1);
        assert!(UpdatedFactor::new(&chol, &u_idx, &u_val, 2.0).is_ok());
    }

    #[test]
    fn positive_rank1_update_matches_cold() {
        let a = grounded_laplacian(4, RING);
        let chol = SparseCholesky::factor(&a).unwrap();
        let b = vec![1.0, 0.0, -0.5, 0.25];
        // Double edge (2,3): add another copy with the same incidence.
        let (u_idx, u_val) = incidence(2, 3);
        let upd = UpdatedFactor::new(&chol, &u_idx, &u_val, 1.5).unwrap();
        let mut edges = RING.to_vec();
        edges.push((2, 3, 1.5));
        let a2 = grounded_laplacian(4, &edges);
        let cold = SparseCholesky::factor(&a2).unwrap().solve(&b);
        for (p, q) in upd.solve(&chol, &b).iter().zip(&cold) {
            assert!((p - q).abs() < 1e-9);
        }
    }
}
