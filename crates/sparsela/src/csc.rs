//! Compressed sparse column storage.
//!
//! The Gilbert–Peierls LU factorization works column-by-column, so it
//! consumes matrices in CSC form.

use crate::csr::Csr;

/// A sparse matrix in compressed sparse column format. Row indices within
/// each column are sorted and unique.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl Csc {
    /// Builds from raw parts.
    ///
    /// # Panics
    /// Panics on inconsistent arrays (see [`Csr::from_raw`] for the mirrored
    /// invariants).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(col_ptr.len(), ncols + 1, "col_ptr length");
        assert_eq!(row_idx.len(), vals.len(), "row/val length");
        assert_eq!(*col_ptr.last().unwrap(), row_idx.len(), "nnz mismatch");
        for c in 0..ncols {
            assert!(col_ptr[c] <= col_ptr[c + 1], "col_ptr not monotone");
            let rows = &row_idx[col_ptr[c]..col_ptr[c + 1]];
            for w in rows.windows(2) {
                assert!(w[0] < w[1], "rows not strictly increasing in column {c}");
            }
            if let Some(&last) = rows.last() {
                assert!(last < nrows, "row out of range in column {c}");
            }
        }
        Csc { nrows, ncols, col_ptr, row_idx, vals }
    }

    /// Converts from CSR.
    pub fn from_csr(a: &Csr) -> Self {
        a.to_csc()
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

    /// The row indices and values of column `c`.
    pub fn col(&self, c: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[c], self.col_ptr[c + 1]);
        (&self.row_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Column pointer array (length `ncols + 1`).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Value array.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable value array: a numeric refill of a fixed pattern. Entries
    /// may be set to exactly zero and stay stored.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Value at `(r, c)`, or `0.0` when absent.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (rows, vals) = self.col(c);
        match rows.binary_search(&r) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Converts back to CSR.
    pub fn to_csr(&self) -> Csr {
        // CSC of A has the same raw layout as CSR of Aᵀ; transpose twice.
        Csr::from_raw(
            self.ncols,
            self.nrows,
            self.col_ptr.clone(),
            self.row_idx.clone(),
            self.vals.clone(),
        )
        .transpose()
    }

    /// `y ← A·x` directly from CSC (scatter form).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length");
        assert_eq!(y.len(), self.nrows, "spmv: y length");
        y.fill(0.0);
        for c in 0..self.ncols {
            let xc = x[c];
            if xc == 0.0 {
                continue;
            }
            let (rows, vals) = self.col(c);
            for (r, v) in rows.iter().zip(vals) {
                y[*r] += v * xc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample_csr() -> Csr {
        let mut c = Coo::new(3, 4);
        for &(i, j, v) in &[(0, 0, 1.0), (0, 3, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)] {
            c.push(i, j, v);
        }
        c.to_csr()
    }

    #[test]
    fn csr_csc_roundtrip() {
        let a = sample_csr();
        let b = Csc::from_csr(&a).to_csr();
        assert_eq!(a, b);
    }

    #[test]
    fn get_reads_entries() {
        let a = Csc::from_csr(&sample_csr());
        assert_eq!(a.get(0, 3), 2.0);
        assert_eq!(a.get(2, 2), 5.0);
        assert_eq!(a.get(1, 0), 0.0);
    }

    #[test]
    fn spmv_matches_csr() {
        let a = sample_csr();
        let c = Csc::from_csr(&a);
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let mut y = vec![0.0; 3];
        c.spmv(&x, &mut y);
        assert_eq!(y, a.mul_vec(&x));
    }

    #[test]
    fn values_mut_refills_in_place_and_keeps_explicit_zeros() {
        let mut a = Csc::from_csr(&sample_csr());
        let pattern = (a.col_ptr().to_vec(), a.row_idx().to_vec());
        let base = a.values().as_ptr();
        for (k, v) in a.values_mut().iter_mut().enumerate() {
            *v = if k == 0 { 0.0 } else { 10.0 * k as f64 };
        }
        assert_eq!((a.col_ptr().to_vec(), a.row_idx().to_vec()), pattern);
        assert_eq!(a.values().as_ptr(), base, "refilled without reallocating");
        assert_eq!(a.nnz(), 5, "an exact zero stays stored");
        assert_eq!(a.get(0, 0), 0.0);
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let mut y = vec![0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, a.to_csr().mul_vec(&x));
    }

    #[test]
    fn dimensions_follow_source() {
        let c = Csc::from_csr(&sample_csr());
        assert_eq!(c.nrows(), 3);
        assert_eq!(c.ncols(), 4);
        assert_eq!(c.nnz(), 5);
    }
}
