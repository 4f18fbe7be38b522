//! Gilbert–Peierls sparse LU factorization with a fill-reducing symmetric
//! pre-order and row partial pivoting.
//!
//! This is the general sparse direct solver the Newton power flow relies on
//! (the power-flow Jacobian is unsymmetric). The work is split in two:
//!
//! * [`LuSymbolic`] is the pattern-only half, analysed once per pattern: a
//!   minimum-degree order `Q` of the pattern of `A + Aᵀ`
//!   ([`crate::ordering::minimum_degree`]).
//! * The numeric pass ([`SparseLu::factor_with_symbolic`]) factors `Q·A·Qᵀ`
//!   one column at a time: the column of the factors is the solution of a
//!   sparse triangular system whose nonzero pattern is discovered by a
//!   depth-first reachability search over the columns of `L` computed so
//!   far — the total work is proportional to the number of floating-point
//!   operations actually performed, not to `n²`.
//!
//! Row pivots are chosen by value, so the patterns of `L` and `U` are only
//! known after the numeric pass; the order is what carries over between
//! factorizations. It decides fill, never correctness: any matrix of the
//! analysed dimension factors over it, including one whose value pattern
//! lost entries that were exactly zero (a `Coo` drops them) or gained some.
//! [`SparseLu::factor`] is analyse + numeric in one call.
//!
//! Reference: J. R. Gilbert and T. Peierls, "Sparse partial pivoting in time
//! proportional to arithmetic operations", SIAM J. Sci. Stat. Comput., 1988.

use std::sync::Arc;

use crate::csc::Csc;
use crate::csr::Csr;
use crate::ordering;
use crate::{LaError, LaResult};

/// The pattern-only half of a sparse LU factorization: the fill-reducing
/// symmetric order, reusable by every numeric pass of the same dimension.
#[derive(Debug, Clone)]
pub struct LuSymbolic {
    /// `perm[new] = old`.
    perm: Vec<usize>,
    /// `inv[old] = new`.
    inv: Vec<usize>,
}

impl LuSymbolic {
    /// Minimum-degree order of the pattern of `a + aᵀ` (values ignored).
    pub fn analyze(a: &Csc) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "lu: square only");
        let n = a.nrows();
        // The CSC arrays of A are the CSR arrays of Aᵀ, and the ordering
        // symmetrizes the pattern itself.
        let at = Csr::from_raw(
            n,
            n,
            a.col_ptr().to_vec(),
            a.row_idx().to_vec(),
            a.values().to_vec(),
        );
        let perm = ordering::minimum_degree(&at);
        let mut inv = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        LuSymbolic { perm, inv }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.perm.len()
    }
}

/// A sparse LU factorization `P·Q·A·Qᵀ = L·U` with a symmetric pre-order
/// `Q` and row pivoting `P`.
///
/// `L` is unit lower triangular, `U` upper triangular; both are stored
/// column-compressed in the pivoted row order.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    sym: Arc<LuSymbolic>,
    /// Column pointers of L.
    lp: Vec<usize>,
    /// Row indices of L (pivoted order); the unit diagonal is stored first
    /// in each column.
    li: Vec<usize>,
    lx: Vec<f64>,
    /// Column pointers of U.
    up: Vec<usize>,
    /// Row indices of U (pivoted order); the diagonal is the last entry of
    /// each column.
    ui: Vec<usize>,
    ux: Vec<f64>,
    /// `row_of[old_row]` = the row of `L·U` it ends up in (`P` after `Q`).
    row_of: Vec<usize>,
}

/// Workspace for the depth-first reach used by the column solves.
struct ReachWorkspace {
    /// DFS stack of nodes.
    stack: Vec<usize>,
    /// Per-node iteration position within its L column.
    pstack: Vec<usize>,
    /// Visited marker, keyed by factorization step.
    mark: Vec<usize>,
    /// Output pattern, filled from the back (`xi[top..n]`).
    xi: Vec<usize>,
}

impl SparseLu {
    /// Factors the square matrix `a` (given in CSC): analyses its pattern
    /// ([`LuSymbolic::analyze`]), then runs the numeric pass.
    ///
    /// `pivot_tol` in `(0, 1]` controls threshold partial pivoting: the
    /// diagonal candidate is kept if it is at least `pivot_tol` times the
    /// largest candidate, which preserves sparsity; `1.0` is strict partial
    /// pivoting.
    ///
    /// # Errors
    /// [`LaError::SingularPivot`] if no acceptable pivot exists in some
    /// column.
    pub fn factor(a: &Csc, pivot_tol: f64) -> LaResult<Self> {
        Self::factor_with_symbolic(Arc::new(LuSymbolic::analyze(a)), a, pivot_tol)
    }

    /// Convenience: factors a CSR matrix.
    pub fn factor_csr(a: &Csr, pivot_tol: f64) -> LaResult<Self> {
        Self::factor(&a.to_csc(), pivot_tol)
    }

    /// The numeric pass alone: factors `a` under the order of `sym`, which
    /// may have been analysed on any matrix of the same dimension (see the
    /// module docs). `pivot_tol` as in [`SparseLu::factor`].
    ///
    /// # Errors
    /// [`LaError::DimensionMismatch`] when `a` and `sym` differ in
    /// dimension; [`LaError::SingularPivot`] if no acceptable pivot exists
    /// in some column.
    pub fn factor_with_symbolic(sym: Arc<LuSymbolic>, a: &Csc, pivot_tol: f64) -> LaResult<Self> {
        assert_eq!(a.nrows(), a.ncols(), "lu: square only");
        assert!(pivot_tol > 0.0 && pivot_tol <= 1.0, "lu: pivot_tol in (0,1]");
        let n = a.nrows();
        if sym.dim() != n {
            return Err(LaError::DimensionMismatch { expected: sym.dim(), found: n });
        }
        let mut lp = Vec::with_capacity(n + 1);
        let mut li: Vec<usize> = Vec::new();
        let mut lx: Vec<f64> = Vec::new();
        let mut up = Vec::with_capacity(n + 1);
        let mut ui: Vec<usize> = Vec::new();
        let mut ux: Vec<f64> = Vec::new();
        // usize::MAX marks "row not yet pivotal".
        let mut pinv = vec![usize::MAX; n];
        let mut x = vec![0.0f64; n];
        let mut ws = ReachWorkspace {
            stack: Vec::with_capacity(n),
            pstack: vec![0; n],
            mark: vec![usize::MAX; n],
            xi: vec![0; n],
        };
        lp.push(0);
        up.push(0);

        for k in 0..n {
            // Column k of Q·A·Qᵀ is column perm[k] of A, rows relabelled.
            let (rows, vals) = a.col(sym.perm[k]);
            // Sparse triangular solve x = L \ A(:,k); pattern in xi[top..n],
            // in topological order so dependencies resolve front-to-back.
            let top = sparse_reach(&lp, &li, rows.iter().map(|&r| sym.inv[r]), k, &pinv, &mut ws);
            for (&r, &v) in rows.iter().zip(vals) {
                x[sym.inv[r]] = v;
            }
            for &i in &ws.xi[top..n] {
                let Some(jcol) = pinv_col(&pinv, i) else {
                    continue; // row not pivotal yet: no L column to eliminate with
                };
                // L's unit diagonal is the first entry of column jcol.
                let xj = x[i];
                for p in (lp[jcol] + 1)..lp[jcol + 1] {
                    x[li[p]] -= lx[p] * xj;
                }
            }

            // Pivot search among rows that are not yet pivotal.
            let mut best = -1.0f64;
            let mut ipiv = usize::MAX;
            for &i in &ws.xi[top..n] {
                if pinv[i] == usize::MAX {
                    let t = x[i].abs();
                    if t > best {
                        best = t;
                        ipiv = i;
                    }
                } else {
                    // Row already pivotal: this is a U entry.
                    ui.push(pinv[i]);
                    ux.push(x[i]);
                }
            }
            if ipiv == usize::MAX || best <= 0.0 {
                return Err(LaError::SingularPivot { step: k });
            }
            // Threshold pivoting: prefer the diagonal if it is large enough.
            if pinv[k] == usize::MAX && x[k].abs() >= pivot_tol * best {
                ipiv = k;
            }
            let pivot = x[ipiv];
            ui.push(k);
            ux.push(pivot);
            pinv[ipiv] = k;
            li.push(ipiv); // unit diagonal, remapped to k after the loop
            lx.push(1.0);
            for &i in &ws.xi[top..n] {
                if pinv[i] == usize::MAX {
                    let v = x[i] / pivot;
                    if v != 0.0 {
                        li.push(i);
                        lx.push(v);
                    }
                }
                x[i] = 0.0;
            }
            lp.push(li.len());
            up.push(ui.len());
        }
        // Remap L's row indices into the pivoted order.
        for idx in &mut li {
            *idx = pinv[*idx];
        }
        let row_of = sym.inv.iter().map(|&new| pinv[new]).collect();
        Ok(SparseLu { n, sym, lp, li, lx, up, ui, ux, row_of })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of nonzeros in the `L` and `U` factors combined.
    pub fn factor_nnz(&self) -> usize {
        self.lx.len() + self.ux.len()
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "lu solve: rhs length");
        // y = P Q b
        let mut y = vec![0.0; self.n];
        for (old, &row) in self.row_of.iter().enumerate() {
            y[row] = b[old];
        }
        // Forward solve L z = y (unit diagonal first in each column).
        for j in 0..self.n {
            let yj = y[j];
            if yj == 0.0 {
                continue;
            }
            for p in (self.lp[j] + 1)..self.lp[j + 1] {
                y[self.li[p]] -= self.lx[p] * yj;
            }
        }
        // Backward solve U w = z (diagonal last in each column).
        for j in (0..self.n).rev() {
            let dpos = self.up[j + 1] - 1;
            debug_assert_eq!(self.ui[dpos], j, "U diagonal position");
            y[j] /= self.ux[dpos];
            let xj = y[j];
            if xj == 0.0 {
                continue;
            }
            for p in self.up[j]..dpos {
                y[self.ui[p]] -= self.ux[p] * xj;
            }
        }
        // x = Qᵀ w
        self.sym.inv.iter().map(|&new| y[new]).collect()
    }
}

/// Computes the reach of the column whose (relabelled) row indices are
/// `starts` in the directed graph of the `L` columns built so far; `k` is
/// the factorization step. Returns `top`; the pattern is `ws.xi[top..n]` in
/// topological order.
fn sparse_reach(
    lp: &[usize],
    li: &[usize],
    starts: impl Iterator<Item = usize>,
    k: usize,
    pinv: &[usize],
    ws: &mut ReachWorkspace,
) -> usize {
    let n = pinv.len();
    let mut top = n;
    let first_child = |node: usize| pinv_col(pinv, node).map_or(0, |j| lp[j] + 1);
    for start in starts {
        if ws.mark[start] == k {
            continue;
        }
        // Iterative DFS from `start`.
        ws.stack.clear();
        ws.stack.push(start);
        ws.mark[start] = k;
        ws.pstack[start] = first_child(start);
        while let Some(&node) = ws.stack.last() {
            let end = pinv_col(pinv, node).map_or(0, |j| lp[j + 1]);
            let mut descended = false;
            while ws.pstack[node] < end {
                let child = li[ws.pstack[node]];
                ws.pstack[node] += 1;
                if ws.mark[child] != k {
                    ws.mark[child] = k;
                    ws.pstack[child] = first_child(child);
                    ws.stack.push(child);
                    descended = true;
                    break;
                }
            }
            if !descended {
                ws.stack.pop();
                top -= 1;
                ws.xi[top] = node;
            }
        }
    }
    top
}

/// The L column associated with row `i`, if that row is pivotal.
#[inline]
fn pinv_col(pinv: &[usize], i: usize) -> Option<usize> {
    (pinv[i] != usize::MAX).then_some(pinv[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Coo, DenseMatrix};

    fn residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x);
        ax.iter().zip(b).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn solves_small_dense_system() {
        let d = DenseMatrix::from_rows(
            3,
            3,
            &[2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.5],
        );
        let a = Csr::from_dense(&d);
        let lu = SparseLu::factor_csr(&a, 1.0).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = lu.solve(&b);
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let d = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let a = Csr::from_dense(&d);
        let lu = SparseLu::factor_csr(&a, 1.0).unwrap();
        let x = lu.solve(&[5.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn detects_singular_matrix() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        // Row/column 2 is structurally empty.
        let a = coo.to_csr();
        assert!(matches!(
            SparseLu::factor_csr(&a, 1.0),
            Err(LaError::SingularPivot { .. })
        ));
    }

    #[test]
    fn random_sparse_systems_solve_accurately() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..20 {
            let n = 5 + (trial % 30);
            let mut coo = Coo::new(n, n);
            for i in 0..n {
                // Strong diagonal keeps the system well conditioned.
                coo.push(i, i, 4.0 + rng.gen::<f64>());
                for _ in 0..3 {
                    let j = rng.gen_range(0..n);
                    if j != i {
                        coo.push(i, j, rng.gen_range(-1.0..1.0));
                    }
                }
            }
            let a = coo.to_csr();
            let xtrue: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b = a.mul_vec(&xtrue);
            let lu = SparseLu::factor_csr(&a, 1.0).unwrap();
            let x = lu.solve(&b);
            for (xi, ti) in x.iter().zip(&xtrue) {
                assert!((xi - ti).abs() < 1e-9, "trial {trial}: {xi} vs {ti}");
            }
        }
    }

    #[test]
    fn threshold_pivoting_still_accurate() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let n = 25;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 5.0);
            if i + 1 < n {
                coo.push(i, i + 1, rng.gen_range(-1.0..1.0));
                coo.push(i + 1, i, rng.gen_range(-1.0..1.0));
            }
        }
        let a = coo.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x_strict = SparseLu::factor_csr(&a, 1.0).unwrap().solve(&b);
        let x_thresh = SparseLu::factor_csr(&a, 0.1).unwrap().solve(&b);
        for (p, q) in x_strict.iter().zip(&x_thresh) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn factor_nnz_reports_fill() {
        let a = Csr::identity(4);
        let lu = SparseLu::factor_csr(&a, 1.0).unwrap();
        // Identity: L has 4 unit diagonals, U has 4 diagonals.
        assert_eq!(lu.factor_nnz(), 8);
        assert_eq!(lu.dim(), 4);
    }

    /// An arrow matrix with its hub at index 0: factored in natural order
    /// the first elimination fills everything, eliminated last it fills
    /// nothing.
    fn arrow(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + i as f64);
            if i > 0 {
                coo.push(0, i, 1.0);
                coo.push(i, 0, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn pre_order_keeps_an_arrow_free_of_fill() {
        let n = 40;
        let a = arrow(n);
        let lu = SparseLu::factor_csr(&a, 1.0).unwrap();
        // L and U together hold exactly A's entries plus L's unit diagonal.
        assert_eq!(lu.factor_nnz(), a.nnz() + n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        assert!(residual(&a, &lu.solve(&b), &b) < 1e-12);
    }

    #[test]
    fn symbolic_is_reused_across_value_patterns() {
        let n = 12;
        let full = arrow(n);
        let sym = Arc::new(LuSymbolic::analyze(&full.to_csc()));
        assert_eq!(sym.dim(), n);
        // Drop every hub entry but one from the matrix: a strict subset of
        // the analysed pattern. Then add entries the analysis never saw.
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + i as f64);
        }
        coo.push(0, 5, 1.0);
        let subset = coo.to_csr();
        coo.push(3, 7, 2.0);
        coo.push(7, 3, -0.5);
        let superset = full.add_scaled(&coo.to_csr(), 1.0);
        for a in [&full, &subset, &superset] {
            let lu = SparseLu::factor_with_symbolic(Arc::clone(&sym), &a.to_csc(), 1.0).unwrap();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
            assert!(residual(a, &lu.solve(&b), &b) < 1e-12);
        }
        assert!(matches!(
            SparseLu::factor_with_symbolic(sym, &Csc::from_csr(&Csr::identity(n + 1)), 1.0),
            Err(LaError::DimensionMismatch { expected: 12, found: 13 })
        ));
    }
}
