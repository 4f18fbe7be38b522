//! Compressed sparse row storage and the kernels built on it.

use crate::csc::Csc;
use crate::dense::DenseMatrix;

/// A sparse matrix in compressed sparse row format.
///
/// Column indices within each row are kept sorted and unique; all
/// constructors in this crate maintain that invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix from raw parts.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong pointer length,
    /// out-of-range columns, or unsorted/duplicate columns within a row).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), vals.len(), "col/val length");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "nnz mismatch");
        for r in 0..nrows {
            assert!(row_ptr[r] <= row_ptr[r + 1], "row_ptr not monotone");
            let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "columns not strictly increasing in row {r}");
            }
            if let Some(&last) = cols.last() {
                assert!(last < ncols, "column out of range in row {r}");
            }
        }
        Csr { nrows, ncols, row_ptr, col_idx, vals }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Builds from a dense matrix, dropping exact zeros. Intended for tests.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut coo = crate::Coo::new(d.nrows(), d.ncols());
        for i in 0..d.nrows() {
            for j in 0..d.ncols() {
                coo.push(i, j, d[(i, j)]);
            }
        }
        coo.to_csr()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row pointer array (length `nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable value array (pattern is fixed; only values may change).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// The column indices and values of row `r`.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Value at `(r, c)`, or `0.0` if not stored. Binary search per row.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// `y ← A·x`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length");
        assert_eq!(y.len(), self.nrows, "spmv: y length");
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c];
            }
            y[r] = acc;
        }
    }

    /// Allocating form of [`Csr::spmv`].
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv(x, &mut y);
        y
    }

    /// `y ← Aᵀ·x` without materializing the transpose.
    pub fn spmv_transpose(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "spmv_transpose: x length");
        assert_eq!(y.len(), self.ncols, "spmv_transpose: y length");
        y.fill(0.0);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            let xr = x[r];
            for (c, v) in cols.iter().zip(vals) {
                y[*c] += v * xr;
            }
        }
    }

    /// Materialized transpose `Aᵀ` as CSR.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut next = counts[..self.ncols].to_vec();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![0f64; self.nnz()];
        for r in 0..self.nrows {
            let (cols, rvals) = self.row(r);
            for (c, v) in cols.iter().zip(rvals) {
                let slot = next[*c];
                col_idx[slot] = r;
                vals[slot] = *v;
                next[*c] += 1;
            }
        }
        // Row-major traversal emits sorted indices within each transposed row.
        Csr { nrows: self.ncols, ncols: self.nrows, row_ptr: counts, col_idx, vals }
    }

    /// Reinterprets the same storage as CSC of the transpose-free matrix:
    /// `A` in CSR is exactly `A` stored column-compressed after transposing.
    pub fn to_csc(&self) -> Csc {
        let t = self.transpose();
        Csc::from_raw(self.nrows, self.ncols, t.row_ptr, t.col_idx, t.vals)
    }

    /// Sparse matrix product `A·B` (Gustavson's algorithm).
    ///
    /// # Panics
    /// Panics if `self.ncols != b.nrows`.
    pub fn matmul(&self, b: &Csr) -> Csr {
        assert_eq!(self.ncols, b.nrows, "matmul: inner dimension");
        let n = b.ncols;
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<usize> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        // Dense accumulator + occupancy marker, reused across rows.
        let mut acc = vec![0f64; n];
        let mut mark = vec![usize::MAX; n];
        let mut pattern: Vec<usize> = Vec::new();
        for i in 0..self.nrows {
            pattern.clear();
            let (acols, avals) = self.row(i);
            for (k, av) in acols.iter().zip(avals) {
                let (bcols, bvals) = b.row(*k);
                for (j, bv) in bcols.iter().zip(bvals) {
                    if mark[*j] != i {
                        mark[*j] = i;
                        acc[*j] = 0.0;
                        pattern.push(*j);
                    }
                    acc[*j] += av * bv;
                }
            }
            pattern.sort_unstable();
            for &j in &pattern {
                if acc[j] != 0.0 {
                    col_idx.push(j);
                    vals.push(acc[j]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr { nrows: self.nrows, ncols: n, row_ptr, col_idx, vals }
    }

    /// Weighted normal-equations product `AᵀWA` with `W = diag(w)`.
    ///
    /// This is the WLS *gain matrix* builder: `G = Hᵀ R⁻¹ H`.
    ///
    /// # Panics
    /// Panics if `w.len() != self.nrows`.
    pub fn ata_weighted(&self, w: &[f64]) -> Csr {
        assert_eq!(w.len(), self.nrows, "ata_weighted: weight length");
        let mut wa = self.clone();
        for r in 0..self.nrows {
            let (lo, hi) = (wa.row_ptr[r], wa.row_ptr[r + 1]);
            for v in &mut wa.vals[lo..hi] {
                *v *= w[r];
            }
        }
        self.transpose().matmul(&wa)
    }

    /// Sparse sum `A + αB` (same dimensions required).
    pub fn add_scaled(&self, b: &Csr, alpha: f64) -> Csr {
        assert_eq!(self.nrows, b.nrows, "add: rows");
        assert_eq!(self.ncols, b.ncols, "add: cols");
        let mut coo = crate::Coo::with_capacity(self.nrows, self.ncols, self.nnz() + b.nnz());
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(r, *c, *v);
            }
            let (cols, vals) = b.row(r);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(r, *c, alpha * *v);
            }
        }
        coo.to_csr()
    }

    /// The matrix diagonal (length `min(nrows, ncols)`).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols)).map(|i| self.get(i, i)).collect()
    }

    /// Extracts the submatrix with the given rows and columns (in the given
    /// order), relabelling indices to `0..rows.len()` / `0..cols.len()`.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> Csr {
        let mut colmap = vec![usize::MAX; self.ncols];
        for (new, &old) in cols.iter().enumerate() {
            assert!(old < self.ncols, "submatrix: column {old} out of range");
            colmap[old] = new;
        }
        let mut coo = crate::Coo::new(rows.len(), cols.len());
        for (new_r, &old_r) in rows.iter().enumerate() {
            let (rcols, rvals) = self.row(old_r);
            for (c, v) in rcols.iter().zip(rvals) {
                if colmap[*c] != usize::MAX {
                    coo.push(new_r, colmap[*c], *v);
                }
            }
        }
        coo.to_csr()
    }

    /// Symmetric permutation `P A Pᵀ` for square `A`: entry `(i,j)` moves to
    /// `(perm_inv[i], perm_inv[j])` where `perm[new] = old`.
    pub fn permute_sym(&self, perm: &[usize]) -> Csr {
        assert_eq!(self.nrows, self.ncols, "permute_sym: square only");
        assert_eq!(perm.len(), self.nrows, "permute_sym: perm length");
        let mut inv = vec![0usize; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let mut coo = crate::Coo::with_capacity(self.nrows, self.ncols, self.nnz());
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(inv[r], inv[*c], *v);
            }
        }
        coo.to_csr()
    }

    /// Converts to dense; intended for tests and tiny systems.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                d[(r, *c)] = *v;
            }
        }
        d
    }

    /// Maximum absolute entry difference against another matrix of the same
    /// shape (structural zeros compare as `0.0`).
    pub fn max_abs_diff(&self, other: &Csr) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut m = 0.0f64;
        for r in 0..self.nrows {
            let (c1, _) = self.row(r);
            let (c2, _) = other.row(r);
            for &c in c1.iter().chain(c2) {
                m = m.max((self.get(r, c) - other.get(r, c)).abs());
            }
        }
        m
    }

    /// Checks numerical symmetry to tolerance `tol` (square matrices only).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                if (v - self.get(*c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut c = Coo::new(3, 3);
        for &(i, j, v) in &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)] {
            c.push(i, j, v);
        }
        c.to_csr()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(a.mul_vec(&x), vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn spmv_transpose_matches_materialized() {
        let a = sample();
        let x = vec![1.0, -1.0, 2.0];
        let mut y1 = vec![0.0; 3];
        a.spmv_transpose(&x, &mut y1);
        let y2 = a.transpose().mul_vec(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn matmul_matches_dense() {
        let a = sample();
        let b = sample().transpose();
        let c = a.matmul(&b);
        let dref = a.to_dense().matmul(&b.to_dense());
        assert!(c.to_dense().max_abs_diff(&dref) < 1e-12);
    }

    #[test]
    fn ata_weighted_is_symmetric_and_correct() {
        let a = sample();
        let w = vec![2.0, 0.5, 1.0];
        let g = a.ata_weighted(&w);
        assert!(g.is_symmetric(1e-12));
        // Reference: dense Aᵀ diag(w) A.
        let ad = a.to_dense();
        let mut wd = DenseMatrix::zeros(3, 3);
        for i in 0..3 {
            wd[(i, i)] = w[i];
        }
        let gref = ad.transposed().matmul(&wd).matmul(&ad);
        assert!(g.to_dense().max_abs_diff(&gref) < 1e-12);
    }

    #[test]
    fn identity_acts_trivially() {
        let i = Csr::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.mul_vec(&x), x);
    }

    #[test]
    fn submatrix_extracts_and_relabels() {
        let a = sample();
        let s = a.submatrix(&[0, 2], &[0, 2]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(1, 0), 4.0);
    }

    #[test]
    fn permute_sym_preserves_entries() {
        let a = sample();
        let p = vec![2, 0, 1]; // new order of old indices
        let b = a.permute_sym(&p);
        for (new_i, &old_i) in p.iter().enumerate() {
            for (new_j, &old_j) in p.iter().enumerate() {
                assert_eq!(b.get(new_i, new_j), a.get(old_i, old_j));
            }
        }
    }

    #[test]
    fn add_scaled_combines() {
        let a = sample();
        let s = a.add_scaled(&a, -1.0);
        assert_eq!(s.nnz(), 0);
        let d = a.add_scaled(&Csr::identity(3), 2.0);
        assert_eq!(d.get(0, 0), 3.0);
        assert_eq!(d.get(1, 1), 5.0);
    }

    #[test]
    fn diagonal_reads_diag() {
        assert_eq!(sample().diagonal(), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn symmetric_detection() {
        assert!(!sample().is_symmetric(1e-12));
        let g = sample().ata_weighted(&[1.0; 3]);
        assert!(g.is_symmetric(1e-12));
    }
}
