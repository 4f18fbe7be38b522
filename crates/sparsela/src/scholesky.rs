//! Up-looking sparse Cholesky with elimination-tree symbolic analysis and
//! numeric-only refactorization.
//!
//! This module implements the general sparse factorization used by serious
//! solvers: the *elimination tree* of the matrix predicts each row's
//! nonzero pattern (`ereach`), a counting pass sizes the columns of `L`
//! exactly, and the numeric pass computes one row of `L` at a time touching
//! only true nonzeros — time proportional to `flops(L)`.
//!
//! The symbolic side (permutation, elimination tree, row patterns, the full
//! structure of `L`) lives in [`CholSymbolic`] and depends only on the
//! matrix *pattern*. When the pattern is unchanged across solves — the warm
//! frames of the streaming estimator, or the lanes of a batched multi-area
//! solve ([`crate::batch`]) — the symbolic analysis is paid once and every
//! later factorization is a numeric-only refresh
//! ([`SparseCholesky::refactor`]) that replays exactly the same
//! floating-point operation sequence as a from-scratch factorization, so
//! the two are bitwise identical (see DESIGN.md §12).
//!
//! Reference: T. A. Davis, *Direct Methods for Sparse Linear Systems*,
//! SIAM 2006, ch. 4 (the CSparse `cs_chol` family).

use std::sync::Arc;

use crate::csr::Csr;
use crate::ordering;
use crate::{LaError, LaResult};

/// The elimination tree of an `n × n` symmetric matrix given by its *lower*
/// pattern in raw CSR (`parent[k] = usize::MAX` for roots).
fn etree_from_pattern(n: usize, row_ptr: &[usize], col_idx: &[usize]) -> Vec<usize> {
    let mut parent = vec![usize::MAX; n];
    let mut ancestor = vec![usize::MAX; n];
    for k in 0..n {
        for &i0 in col_idx[row_ptr[k]..row_ptr[k + 1]].iter().filter(|&&c| c < k) {
            // Walk from i0 to the root of its subtree with path compression.
            let mut i = i0;
            while i != usize::MAX && i != k {
                let next = ancestor[i];
                ancestor[i] = k;
                if next == usize::MAX {
                    parent[i] = k;
                }
                i = next;
            }
        }
    }
    parent
}

/// Computes the pattern of row `k` of `L` (excluding the diagonal) into
/// `pattern`, using the elimination tree; `mark` is a workspace keyed by
/// `k`. The pattern is emitted sorted ascending.
fn ereach(
    row_ptr: &[usize],
    col_idx: &[usize],
    k: usize,
    parent: &[usize],
    mark: &mut [usize],
    stack: &mut Vec<usize>,
    pattern: &mut Vec<usize>,
) {
    pattern.clear();
    mark[k] = k;
    for &i0 in col_idx[row_ptr[k]..row_ptr[k + 1]].iter().filter(|&&c| c < k) {
        // Climb the tree until an already-marked node, collecting the path.
        stack.clear();
        let mut i = i0;
        while mark[i] != k {
            stack.push(i);
            mark[i] = k;
            i = parent[i];
            debug_assert!(i != usize::MAX, "path must reach k's subtree");
        }
        // The path root-ward is deeper in the tree; emit in reverse so the
        // full pattern stays topologically ordered per path.
        while let Some(v) = stack.pop() {
            pattern.push(v);
        }
    }
    pattern.sort_unstable();
}

/// The pattern-only half of a sparse Cholesky factorization, reusable
/// across every matrix that carries the same sparsity pattern.
///
/// Holds the fill-reducing permutation, the permuted input pattern with a
/// value map back into the original matrix, the full structure of `L`
/// (column pointers + row indices, diagonal first per column), and the
/// per-row elimination patterns (`ereach` output) the numeric pass replays.
/// Building it runs the elimination-tree analysis once; every
/// `CholSymbolic::factor_values` afterwards is numeric-only work
/// proportional to `flops(L)` with no pattern discovery at all.
#[derive(Debug, Clone)]
pub struct CholSymbolic {
    n: usize,
    /// `perm[new] = old`.
    perm: Vec<usize>,
    /// `iperm[old] = new`.
    iperm: Vec<usize>,
    /// Pattern of the (unpermuted) input matrix, for staleness checks.
    a_row_ptr: Vec<usize>,
    a_col_idx: Vec<usize>,
    /// Permuted pattern `P·A·Pᵀ` with, per stored entry, the index of the
    /// matching value in the input matrix's `values()`.
    ap_row_ptr: Vec<usize>,
    ap_col_idx: Vec<usize>,
    ap_val_of_a: Vec<usize>,
    /// Column pointers of `L` (diagonal first in each column).
    lp: Vec<usize>,
    /// Row indices of `L`'s entries, in the exact fill order of the
    /// numeric pass.
    li: Vec<usize>,
    /// Concatenated row patterns of `L` (diagonal excluded, ascending):
    /// row `k`'s pattern is `ri[rp[k]..rp[k + 1]]`.
    rp: Vec<usize>,
    ri: Vec<usize>,
}

impl CholSymbolic {
    /// Runs the symbolic analysis on `a`'s pattern after a minimum-degree
    /// permutation (values ignored).
    pub fn analyze(a: &Csr) -> Self {
        let perm = ordering::minimum_degree(a);
        Self::analyze_with_perm(a, perm)
    }

    /// Runs the symbolic analysis under the given `perm[new] = old`.
    fn analyze_with_perm(a: &Csr, perm: Vec<usize>) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "cholesky: square only");
        assert_eq!(perm.len(), a.nrows(), "cholesky: perm length");
        let n = a.nrows();
        let mut inv = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }

        // Permuted pattern with columns sorted ascending per row, plus the
        // value map back into `a` so later numeric passes never permute.
        let mut ap_row_ptr = Vec::with_capacity(n + 1);
        ap_row_ptr.push(0usize);
        let mut ap_col_idx = Vec::with_capacity(a.nnz());
        let mut ap_val_of_a = Vec::with_capacity(a.nnz());
        let mut rowbuf: Vec<(usize, usize)> = Vec::new();
        for new_r in 0..n {
            let old_r = perm[new_r];
            rowbuf.clear();
            for p in a.row_ptr()[old_r]..a.row_ptr()[old_r + 1] {
                rowbuf.push((inv[a.col_idx()[p]], p));
            }
            rowbuf.sort_unstable();
            for &(c, p) in &rowbuf {
                ap_col_idx.push(c);
                ap_val_of_a.push(p);
            }
            ap_row_ptr.push(ap_col_idx.len());
        }

        let parent = etree_from_pattern(n, &ap_row_ptr, &ap_col_idx);

        // One ereach sweep: row patterns (stored for every later numeric
        // pass) and exact column counts of L.
        let mut mark = vec![usize::MAX; n];
        let mut stack = Vec::new();
        let mut pattern = Vec::new();
        let mut counts = vec![1usize; n]; // diagonals
        let mut rp = Vec::with_capacity(n + 1);
        rp.push(0usize);
        let mut ri = Vec::new();
        for k in 0..n {
            ereach(&ap_row_ptr, &ap_col_idx, k, &parent, &mut mark, &mut stack, &mut pattern);
            for &i in &pattern {
                counts[i] += 1;
            }
            ri.extend_from_slice(&pattern);
            rp.push(ri.len());
        }
        let mut lp = Vec::with_capacity(n + 1);
        lp.push(0usize);
        for k in 0..n {
            lp.push(lp[k] + counts[k]);
        }

        // Replay the numeric fill order structurally to fix li once: at
        // step k the diagonal of column k goes in first (nothing reaches
        // column k before step k), then later rows append below it.
        let mut li = vec![0usize; lp[n]];
        let mut free: Vec<usize> = lp[..n].to_vec();
        for k in 0..n {
            for &i in &ri[rp[k]..rp[k + 1]] {
                li[free[i]] = k;
                free[i] += 1;
            }
            li[free[k]] = k;
            free[k] += 1;
        }

        CholSymbolic {
            n,
            perm,
            iperm: inv,
            a_row_ptr: a.row_ptr().to_vec(),
            a_col_idx: a.col_idx().to_vec(),
            ap_row_ptr,
            ap_col_idx,
            ap_val_of_a,
            lp,
            li,
            rp,
            ri,
        }
    }

    /// Whether `a` has exactly the pattern this structure was built from.
    pub fn matches(&self, a: &Csr) -> bool {
        a.nrows() == self.n
            && a.ncols() == self.n
            && a.row_ptr() == self.a_row_ptr.as_slice()
            && a.col_idx() == self.a_col_idx.as_slice()
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries of the input pattern.
    pub fn a_nnz(&self) -> usize {
        self.a_col_idx.len()
    }

    /// Nonzeros in `L` (per lane, for batched factors).
    pub fn l_nnz(&self) -> usize {
        self.li.len()
    }

    /// Crate-internal accessors for the batched factorization/solve, which
    /// share this structure across lanes.
    pub(crate) fn perm(&self) -> &[usize] {
        &self.perm
    }
    pub(crate) fn lp(&self) -> &[usize] {
        &self.lp
    }
    pub(crate) fn li(&self) -> &[usize] {
        &self.li
    }
    pub(crate) fn rp(&self) -> &[usize] {
        &self.rp
    }
    pub(crate) fn ri(&self) -> &[usize] {
        &self.ri
    }
    pub(crate) fn ap_row_ptr(&self) -> &[usize] {
        &self.ap_row_ptr
    }
    pub(crate) fn ap_col_idx(&self) -> &[usize] {
        &self.ap_col_idx
    }
    pub(crate) fn ap_val_of_a(&self) -> &[usize] {
        &self.ap_val_of_a
    }

    /// The pivot-rejection threshold of the numeric pass on `values`
    /// (`1e-10 · max |diag|`, matching the from-scratch factorization).
    pub(crate) fn tiny_of(&self, values: &[f64]) -> f64 {
        let mut scale = 0.0f64;
        for k in 0..self.n {
            for p in self.ap_row_ptr[k]..self.ap_row_ptr[k + 1] {
                if self.ap_col_idx[p] == k {
                    scale = scale.max(values[self.ap_val_of_a[p]].abs());
                }
            }
        }
        1e-10 * scale
    }

    /// Numeric factorization of `a` over this structure into `work.spare`:
    /// the up-looking pass with all pattern discovery pre-resolved. The
    /// floating-point operation sequence is identical to a from-scratch
    /// factorization of the same matrix, so the values are bitwise
    /// identical to that factor's. Every entry of `L` is written before it
    /// is read, so whatever `work` held before does not matter, and a
    /// buffer of the right size is reused without allocating.
    ///
    /// # Errors
    /// [`LaError::NotPositiveDefinite`] when the matrix is not SPD; `L` is
    /// then left partial in `work.spare`.
    fn factor_values(&self, a: &Csr, work: &mut FactorWork) -> LaResult<()> {
        debug_assert!(self.matches(a), "CholSymbolic: pattern mismatch");
        let n = self.n;
        let av = a.values();
        let FactorWork { spare: lx, free, x } = work;
        lx.resize(self.lp[n], 0.0);
        free.clear();
        free.extend_from_slice(&self.lp[..n]);
        x.clear();
        x.resize(n, 0.0);
        let tiny = self.tiny_of(av);
        for k in 0..n {
            // Scatter the lower row A(k, 0..=k) of the permuted matrix.
            let mut d = 0.0;
            for p in self.ap_row_ptr[k]..self.ap_row_ptr[k + 1] {
                let c = self.ap_col_idx[p];
                let v = av[self.ap_val_of_a[p]];
                if c < k {
                    x[c] = v;
                } else if c == k {
                    d = v;
                }
            }
            // Solve L(0..k, 0..k) · l = A(0..k, k) over the stored pattern.
            for &i in &self.ri[self.rp[k]..self.rp[k + 1]] {
                let lii = lx[self.lp[i]];
                let lki = x[i] / lii;
                x[i] = 0.0;
                // Update x with column i's below-diagonal entries computed
                // so far.
                for q in (self.lp[i] + 1)..free[i] {
                    x[self.li[q]] -= lx[q] * lki;
                }
                d -= lki * lki;
                debug_assert_eq!(self.li[free[i]], k);
                lx[free[i]] = lki;
                free[i] += 1;
            }
            if d <= tiny || !d.is_finite() {
                return Err(LaError::NotPositiveDefinite { step: k, value: d });
            }
            lx[free[k]] = d.sqrt();
            free[k] += 1;
        }
        Ok(())
    }
}

/// The numeric pass's buffers a factor keeps between refreshes, so a warm
/// [`SparseCholesky::refactor`] allocates nothing: the values a refresh
/// factors into (swapped with the factor's own on success), each column's
/// fill cursor and the scattered row.
#[derive(Debug, Clone, Default)]
struct FactorWork {
    spare: Vec<f64>,
    free: Vec<usize>,
    x: Vec<f64>,
}

/// A sparse `L·Lᵀ` factorization with a fill-reducing symmetric
/// permutation, `L` stored column-compressed. The symbolic structure is
/// shared (`Arc`) so refactorizations and batched solves never re-run the
/// pattern analysis.
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    sym: Arc<CholSymbolic>,
    lx: Vec<f64>,
    work: FactorWork,
}

impl SparseCholesky {
    /// Factors `a` after a minimum-degree permutation.
    ///
    /// # Errors
    /// [`LaError::NotPositiveDefinite`] when the matrix is not SPD.
    pub fn factor(a: &Csr) -> LaResult<Self> {
        let perm = ordering::minimum_degree(a);
        Self::factor_with_perm(a, perm)
    }

    /// Factors without reordering.
    pub fn factor_natural(a: &Csr) -> LaResult<Self> {
        Self::factor_with_perm(a, (0..a.nrows()).collect())
    }

    /// Factors `P·a·Pᵀ` for `perm[new] = old`.
    pub fn factor_with_perm(a: &Csr, perm: Vec<usize>) -> LaResult<Self> {
        Self::numeric(Arc::new(CholSymbolic::analyze_with_perm(a, perm)), a)
    }

    /// Factors `a` over a pre-built symbolic structure (which `a` must
    /// match), skipping the pattern analysis entirely.
    ///
    /// # Errors
    /// [`LaError::PatternMismatch`] when `a` does not carry the analyzed
    /// pattern; [`LaError::NotPositiveDefinite`] when it is not SPD.
    pub fn factor_with_symbolic(sym: Arc<CholSymbolic>, a: &Csr) -> LaResult<Self> {
        if !sym.matches(a) {
            return Err(LaError::PatternMismatch {
                expected_nnz: sym.a_nnz(),
                found_nnz: a.nnz(),
            });
        }
        Self::numeric(sym, a)
    }

    /// The numeric pass of `a` over `sym`, which `a` matches.
    fn numeric(sym: Arc<CholSymbolic>, a: &Csr) -> LaResult<Self> {
        let mut work = FactorWork::default();
        sym.factor_values(a, &mut work)?;
        let lx = std::mem::take(&mut work.spare);
        Ok(SparseCholesky { sym, lx, work })
    }

    /// Numeric-only refactorization: refreshes the factor for new values of
    /// a matrix with the *same* pattern, skipping the symbolic analysis.
    /// The result is bitwise identical to a from-scratch
    /// [`SparseCholesky::factor`] of `a` (same permutation, same operation
    /// order). On error the previous factor is retained untouched: the
    /// refresh factors into a spare buffer the factor holds and swaps it in
    /// on success, so from the second refresh on it allocates nothing.
    ///
    /// # Errors
    /// [`LaError::PatternMismatch`] when `a`'s pattern differs from the
    /// cached structure (the caller must refactor from scratch);
    /// [`LaError::NotPositiveDefinite`] when `a` is not SPD.
    pub fn refactor(&mut self, a: &Csr) -> LaResult<()> {
        if !self.sym.matches(a) {
            return Err(LaError::PatternMismatch {
                expected_nnz: self.sym.a_nnz(),
                found_nnz: a.nnz(),
            });
        }
        self.sym.factor_values(a, &mut self.work)?;
        std::mem::swap(&mut self.lx, &mut self.work.spare);
        Ok(())
    }

    /// The shared symbolic structure.
    pub fn symbolic(&self) -> &CholSymbolic {
        &self.sym
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// Nonzeros in `L` (fill metric).
    pub fn l_nnz(&self) -> usize {
        self.lx.len()
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let sym = &*self.sym;
        let n = sym.n;
        assert_eq!(b.len(), n, "cholesky solve: rhs length");
        let mut y: Vec<f64> = sym.perm.iter().map(|&old| b[old]).collect();
        // Forward: L z = y (column-oriented, diagonal first).
        for j in 0..n {
            y[j] /= self.lx[sym.lp[j]];
            let yj = y[j];
            for p in (sym.lp[j] + 1)..sym.lp[j + 1] {
                y[sym.li[p]] -= self.lx[p] * yj;
            }
        }
        // Backward: Lᵀ x = z.
        for j in (0..n).rev() {
            let mut s = y[j];
            for p in (sym.lp[j] + 1)..sym.lp[j + 1] {
                s -= self.lx[p] * y[sym.li[p]];
            }
            y[j] = s / self.lx[sym.lp[j]];
        }
        let mut out = vec![0.0; n];
        for (new, &old) in sym.perm.iter().enumerate() {
            out[old] = y[new];
        }
        out
    }

    /// The quadratic form `hᵀ·A⁻¹·h = ‖L⁻¹·P·h‖²` for a sparse `h` given
    /// as `(indices, values)` — one forward substitution, no backward one.
    /// This is the leverage term of a normalized residual: with `A` the
    /// gain matrix and `h` a Jacobian row, `σ² − hᵀA⁻¹h` is that row's
    /// residual variance.
    ///
    /// `work` is a caller-owned workspace of length
    /// [`SparseCholesky::dim`], all zeros on entry and left all zeros on
    /// return, so a loop over many rows allocates nothing. The substitution
    /// starts at the first permuted column `h` touches (`L` is lower
    /// triangular, so everything before it stays zero) and skips columns
    /// whose running value is exactly zero.
    pub fn inv_quad_form(&self, idx: &[usize], vals: &[f64], work: &mut [f64]) -> f64 {
        let sym = &*self.sym;
        assert_eq!(work.len(), sym.n, "inv_quad_form: workspace length");
        let mut first = sym.n;
        for (&i, &v) in idx.iter().zip(vals) {
            let j = sym.iperm[i];
            work[j] += v;
            first = first.min(j);
        }
        let mut sum = 0.0;
        for j in first..sym.n {
            if work[j] == 0.0 {
                continue;
            }
            let yj = work[j] / self.lx[sym.lp[j]];
            work[j] = 0.0;
            sum += yj * yj;
            for p in (sym.lp[j] + 1)..sym.lp[j + 1] {
                work[sym.li[p]] -= self.lx[p] * yj;
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts this thread's allocations, so a test can show a warm
    /// refresh allocates nothing.
    struct Counting;

    thread_local! {
        static ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|n| n.set(n.get() + 1));
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

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
    fn etree_of_tridiagonal_is_a_path() {
        let mut coo = Coo::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 2.0);
            if i + 1 < 5 {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        let a = coo.to_csr();
        let parent = etree_from_pattern(a.nrows(), a.row_ptr(), a.col_idx());
        assert_eq!(parent, vec![1, 2, 3, 4, usize::MAX]);
    }

    #[test]
    fn solve_matches_dense_oracle_under_every_ordering() {
        let a = laplacian2d(7);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 29 % 13) as f64) - 6.0).collect();
        let oracle = a.to_dense().solve(&b).unwrap();
        let reversed: Vec<usize> = (0..n).rev().collect();
        for chol in [
            SparseCholesky::factor(&a).unwrap(),
            SparseCholesky::factor_natural(&a).unwrap(),
            SparseCholesky::factor_with_perm(&a, reversed).unwrap(),
        ] {
            for (p, q) in chol.solve(&b).iter().zip(&oracle) {
                assert!((p - q).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn natural_order_also_solves() {
        let a = laplacian2d(5);
        let xtrue: Vec<f64> = (0..25).map(|i| (i as f64 * 0.21).sin()).collect();
        let b = a.mul_vec(&xtrue);
        let x = SparseCholesky::factor_natural(&a).unwrap().solve(&b);
        for (p, q) in x.iter().zip(&xtrue) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn min_degree_reduces_fill_on_grid() {
        // On a 2-D grid the natural (row-by-row) order gives a full band;
        // minimum degree must not do worse.
        let a = laplacian2d(12);
        let md = SparseCholesky::factor(&a).unwrap();
        let nat = SparseCholesky::factor_natural(&a).unwrap();
        assert!(md.l_nnz() <= nat.l_nnz(), "md {} vs natural {}", md.l_nnz(), nat.l_nnz());
    }

    #[test]
    fn sparse_beats_envelope_fill_on_arrow_matrix() {
        // Arrow matrix (dense last row/col): envelope of the natural order
        // stores everything below the arrow; the tree-based factorization
        // stores only true fill. Orderings aside, both must solve.
        let n = 40;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 10.0);
        }
        for i in 0..n - 1 {
            coo.push(i, n - 1, 1.0);
            coo.push(n - 1, i, 1.0);
        }
        let a = coo.to_csr();
        let chol = SparseCholesky::factor(&a).unwrap();
        // Arrow with min-degree: L keeps O(n) entries.
        assert!(chol.l_nnz() <= 2 * n + 2, "fill {}", chol.l_nnz());
        let b = vec![1.0; n];
        let x = chol.solve(&b);
        let ax = a.mul_vec(&x);
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 5.0);
        coo.push(1, 0, 5.0);
        coo.push(1, 1, 1.0);
        assert!(matches!(
            SparseCholesky::factor(&coo.to_csr()),
            Err(LaError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn random_spd_systems_solve() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let n = 30;
            let mut coo = Coo::new(n, n);
            for i in 0..n {
                coo.push(i, i, 1.0);
                for _ in 0..2 {
                    let j = rng.gen_range(0..n);
                    if j != i {
                        let v = rng.gen_range(-0.5..0.5);
                        coo.push(i, j, v);
                        coo.push(j, i, v);
                    }
                }
            }
            let m = coo.to_csr();
            let spd = m.ata_weighted(&vec![1.0; n]).add_scaled(&Csr::identity(n), 2.0);
            let xtrue: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b = spd.mul_vec(&xtrue);
            let x = SparseCholesky::factor(&spd).unwrap().solve(&b);
            for (p, q) in x.iter().zip(&xtrue) {
                assert!((p - q).abs() < 1e-8);
            }
        }
    }

    /// Same pattern, different values: the workload of a warm streaming
    /// frame. Perturbations are keyed on the unordered index pair so the
    /// matrix stays symmetric.
    fn rescaled(a: &Csr, seed: u64) -> Csr {
        let n = a.nrows();
        let mut b = a.clone();
        for r in 0..n {
            for p in a.row_ptr()[r]..a.row_ptr()[r + 1] {
                let c = a.col_idx()[p];
                let key = (seed + (r.min(c) * n + r.max(c)) as u64) % 17;
                b.values_mut()[p] *= 1.0 + 1e-3 * (key as f64 - 8.0);
            }
        }
        // Strengthen the diagonal so the perturbed matrix stays SPD.
        b.add_scaled(&Csr::identity(n), 0.5)
    }

    #[test]
    fn refactor_is_bitwise_identical_to_from_scratch() {
        let a = laplacian2d(9);
        let mut chol = SparseCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        for seed in [1u64, 2, 3] {
            let a2 = rescaled(&a, seed);
            assert!(chol.symbolic().matches(&a2));
            chol.refactor(&a2).unwrap();
            let fresh = SparseCholesky::factor(&a2).unwrap();
            assert_eq!(chol.l_nnz(), fresh.l_nnz());
            let x1 = chol.solve(&b);
            let x2 = fresh.solve(&b);
            for (p, q) in x1.iter().zip(&x2) {
                assert_eq!(p.to_bits(), q.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn refactor_rejects_changed_pattern() {
        let a = laplacian2d(5);
        let mut chol = SparseCholesky::factor(&a).unwrap();
        // A different pattern: drop the grid couplings, keep the diagonal.
        let diag = Csr::identity(a.nrows());
        assert!(!chol.symbolic().matches(&diag));
        assert!(matches!(chol.refactor(&diag), Err(LaError::PatternMismatch { .. })));
        // The previous factor is still usable after the rejection.
        let b = vec![1.0; a.nrows()];
        let x = chol.solve(&b);
        let ax = a.mul_vec(&x);
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn refactor_failure_keeps_previous_factor() {
        let a = laplacian2d(4);
        let mut chol = SparseCholesky::factor(&a).unwrap();
        // Same pattern, indefinite values.
        let mut bad = a.clone();
        for v in bad.values_mut() {
            *v = -*v;
        }
        assert!(matches!(chol.refactor(&bad), Err(LaError::NotPositiveDefinite { .. })));
        let b = vec![1.0; a.nrows()];
        let ax = a.mul_vec(&chol.solve(&b));
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-10, "previous factor lost after failed refactor");
        }
    }

    #[test]
    fn a_warm_refactor_allocates_nothing() {
        let a = laplacian2d(8);
        let mut chol = SparseCholesky::factor(&a).unwrap();
        let frames: Vec<Csr> = (1..5).map(|seed| rescaled(&a, seed)).collect();
        // The first refresh sizes the spare buffer the later ones reuse.
        chol.refactor(&frames[0]).unwrap();
        let b = vec![1.0; a.nrows()];
        for a2 in &frames[1..] {
            let before = ALLOCS.with(Cell::get);
            chol.refactor(a2).unwrap();
            assert_eq!(ALLOCS.with(Cell::get) - before, 0, "a warm refresh allocated");
            let x = chol.solve(&b);
            let fresh = SparseCholesky::factor(a2).unwrap().solve(&b);
            for (p, q) in x.iter().zip(&fresh) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
        let mut bad = a.clone();
        for v in bad.values_mut() {
            *v = -*v;
        }
        // A failed refresh leaves the spare partial; the next one overwrites
        // every entry it reads.
        assert!(chol.refactor(&bad).is_err());
        let before = ALLOCS.with(Cell::get);
        chol.refactor(&frames[0]).unwrap();
        assert_eq!(ALLOCS.with(Cell::get) - before, 0, "a refresh after a failed one allocated");
        let fresh = SparseCholesky::factor(&frames[0]).unwrap().solve(&b);
        for (p, q) in chol.solve(&b).iter().zip(&fresh) {
            assert_eq!(p.to_bits(), q.to_bits(), "refresh after a failed one");
        }
    }

    #[test]
    fn forward_only_quadratic_form_matches_solve_then_dot() {
        // G = HᵀWH for a random sparse H whose last row is the only one
        // touching the last column: that row has leverage w·hᵀG⁻¹h = 1
        // exactly, the critical-measurement case.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let (m, n) = (40, 16);
        let mut coo = Coo::new(m, n);
        for r in 0..m - 1 {
            coo.push(r, r % (n - 1), 1.0 + rng.gen_range(0.0..1.0));
            for _ in 0..3 {
                coo.push(r, rng.gen_range(0..n - 1), rng.gen_range(-1.0..1.0));
            }
        }
        coo.push(m - 1, n - 1, 0.7);
        coo.push(m - 1, 3, -0.4);
        let h = coo.to_csr();
        let w: Vec<f64> = (0..m).map(|_| rng.gen_range(0.5..4.0)).collect();
        let chol = SparseCholesky::factor(&h.ata_weighted(&w)).unwrap();
        let mut work = vec![0.0; n];
        for r in 0..m {
            let (cols, vals) = h.row(r);
            let mut dense = vec![0.0; n];
            for (&c, &v) in cols.iter().zip(vals) {
                dense[c] += v;
            }
            let reference: f64 =
                dense.iter().zip(chol.solve(&dense)).map(|(a, b)| a * b).sum();
            let q = chol.inv_quad_form(cols, vals, &mut work);
            let err = (q - reference).abs();
            assert!(err <= 1e-12 * reference.abs(), "row {r}: {q} vs {reference}");
            assert!(work.iter().all(|&x| x == 0.0), "workspace left dirty by row {r}");
        }
        let (cols, vals) = h.row(m - 1);
        let leverage = w[m - 1] * chol.inv_quad_form(cols, vals, &mut work);
        assert!((leverage - 1.0).abs() < 1e-12, "critical row leverage {leverage}");
    }

    #[test]
    fn shared_symbolic_factors_match_independent_ones() {
        let a = laplacian2d(6);
        let sym = Arc::new(CholSymbolic::analyze(&a));
        let a2 = rescaled(&a, 9);
        let shared = SparseCholesky::factor_with_symbolic(Arc::clone(&sym), &a2).unwrap();
        let fresh = SparseCholesky::factor(&a2).unwrap();
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.3).cos()).collect();
        for (p, q) in shared.solve(&b).iter().zip(&fresh.solve(&b)) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        // And the structure rejects a mismatched matrix.
        assert!(matches!(
            SparseCholesky::factor_with_symbolic(sym, &Csr::identity(a.nrows())),
            Err(LaError::PatternMismatch { .. })
        ));
    }
}
