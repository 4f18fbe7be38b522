//! Symbolic (pattern-only) precomputation for repeated normal-equation
//! products.
//!
//! The WLS gain matrix `G = HᵀWH` is rebuilt every Gauss–Newton iteration
//! of every time frame, but its *sparsity pattern* depends only on the
//! measurement Jacobian's pattern — which is fixed while the topology and
//! the telemetry plan stay put. [`AtaSymbolic`] runs Gustavson's pattern
//! pass once and replays only the numeric accumulation afterwards: no
//! per-row pattern discovery, no column sorting, no allocation. This is
//! the cross-frame structure reuse the streaming service leans on.
//!
//! The same split powers the solve side: [`crate::scholesky::CholSymbolic`]
//! caches the Cholesky elimination structure of the gain pattern so warm
//! frames refresh numeric factors without re-analysis, and
//! [`crate::batch`] stacks identical-pattern gain systems into lanes over
//! one shared symbolic structure.

use crate::csr::Csr;

/// The cached symbolic structure of `AᵀWA` for one Jacobian pattern.
///
/// Build it once from a matrix with the target pattern; every later
/// [`AtaSymbolic::compute_into`] fills values only. The numeric result
/// matches [`Csr::ata_weighted`] entry for entry (same accumulation
/// order), except that entries which happen to cancel to exactly zero are
/// kept as explicit zeros — the pattern is structural, not value-pruned.
#[derive(Debug, Clone)]
pub struct AtaSymbolic {
    /// Pattern of `A` the cache was built from (validation).
    a_row_ptr: Vec<usize>,
    a_col_idx: Vec<usize>,
    a_ncols: usize,
    /// Structure of `Aᵀ`: row pointers, column indices, and for each
    /// stored entry the index of the matching value in `A.values()`.
    at_row_ptr: Vec<usize>,
    at_col_idx: Vec<usize>,
    at_val_of_a: Vec<usize>,
    /// Structure of `G = AᵀWA`.
    g_row_ptr: Vec<usize>,
    g_col_idx: Vec<usize>,
    /// Column → value slot of the `G` row being filled: the one piece of
    /// scratch [`AtaSymbolic::compute_into`] writes, held so it allocates
    /// nothing.
    slot: Vec<usize>,
}

impl AtaSymbolic {
    /// Runs the symbolic pass on `a`'s pattern (values ignored).
    pub fn new(a: &Csr) -> Self {
        let n = a.ncols();
        // Transpose structure with a value-permutation back into A.
        let mut at_row_ptr = vec![0usize; n + 1];
        for &c in a.col_idx() {
            at_row_ptr[c + 1] += 1;
        }
        for i in 0..n {
            at_row_ptr[i + 1] += at_row_ptr[i];
        }
        let nnz = a.nnz();
        let mut at_col_idx = vec![0usize; nnz];
        let mut at_val_of_a = vec![0usize; nnz];
        let mut next = at_row_ptr.clone();
        for r in 0..a.nrows() {
            for k in a.row_ptr()[r]..a.row_ptr()[r + 1] {
                let c = a.col_idx()[k];
                let slot = next[c];
                next[c] += 1;
                at_col_idx[slot] = r;
                at_val_of_a[slot] = k;
            }
        }

        // Gustavson pattern pass for G = Aᵀ·A.
        let mut g_row_ptr = Vec::with_capacity(n + 1);
        g_row_ptr.push(0usize);
        let mut g_col_idx: Vec<usize> = Vec::new();
        let mut mark = vec![usize::MAX; n];
        let mut pattern: Vec<usize> = Vec::new();
        for i in 0..n {
            pattern.clear();
            for &k in &at_col_idx[at_row_ptr[i]..at_row_ptr[i + 1]] {
                for &j in &a.col_idx()[a.row_ptr()[k]..a.row_ptr()[k + 1]] {
                    if mark[j] != i {
                        mark[j] = i;
                        pattern.push(j);
                    }
                }
            }
            pattern.sort_unstable();
            g_col_idx.extend_from_slice(&pattern);
            g_row_ptr.push(g_col_idx.len());
        }

        AtaSymbolic {
            a_row_ptr: a.row_ptr().to_vec(),
            a_col_idx: a.col_idx().to_vec(),
            a_ncols: n,
            at_row_ptr,
            at_col_idx,
            at_val_of_a,
            g_row_ptr,
            g_col_idx,
            slot: vec![0; n],
        }
    }

    /// Whether `a` has exactly the pattern this cache was built from.
    pub fn matches(&self, a: &Csr) -> bool {
        a.ncols() == self.a_ncols
            && a.row_ptr() == self.a_row_ptr.as_slice()
            && a.col_idx() == self.a_col_idx.as_slice()
    }

    /// Dimension of the product (`A.ncols()`).
    pub fn dim(&self) -> usize {
        self.a_ncols
    }

    /// An all-zero matrix with the cached `G` structure — the reusable
    /// output buffer for [`AtaSymbolic::compute_into`].
    pub fn g_template(&self) -> Csr {
        Csr::from_raw(
            self.a_ncols,
            self.a_ncols,
            self.g_row_ptr.clone(),
            self.g_col_idx.clone(),
            vec![0.0; self.g_col_idx.len()],
        )
    }

    /// Numeric `AᵀWA` into the cached pattern, returning a fresh matrix.
    ///
    /// # Panics
    /// Panics if `a` does not match the cached pattern or `w` has the
    /// wrong length (debug-checked; release relies on the caller keeping
    /// the estimator/cache pairing straight).
    pub fn compute(&mut self, a: &Csr, w: &[f64]) -> Csr {
        let mut g = self.g_template();
        self.compute_into(a, w, &mut g);
        g
    }

    /// Numeric `AᵀWA` written into `g`, which must carry the cached
    /// structure (see [`AtaSymbolic::g_template`]); allocates nothing.
    ///
    /// Row `i` of `G` is zero-filled, then every product `a_ki·w_k·a_kj`
    /// is added straight into its value slot, found through a column map
    /// of that row — the same `(i, t, p)` order, and so the same bits, as
    /// a dense accumulator gathered into the pattern.
    pub fn compute_into(&mut self, a: &Csr, w: &[f64], g: &mut Csr) {
        debug_assert!(self.matches(a), "AtaSymbolic: pattern mismatch");
        assert_eq!(w.len(), a.nrows(), "AtaSymbolic: weight length");
        assert_eq!(g.nnz(), self.g_col_idx.len(), "AtaSymbolic: output nnz");
        assert_eq!(g.row_ptr(), self.g_row_ptr.as_slice(), "AtaSymbolic: output pattern");
        debug_assert_eq!(g.col_idx(), self.g_col_idx.as_slice(), "AtaSymbolic: output pattern");
        let AtaSymbolic {
            a_row_ptr,
            a_col_idx,
            a_ncols,
            at_row_ptr,
            at_col_idx,
            at_val_of_a,
            g_row_ptr,
            g_col_idx,
            slot,
        } = self;
        let a_vals = a.values();
        let vals = g.values_mut();
        for i in 0..*a_ncols {
            let (lo, hi) = (g_row_ptr[i], g_row_ptr[i + 1]);
            for (p, &j) in (lo..hi).zip(&g_col_idx[lo..hi]) {
                slot[j] = p;
                vals[p] = 0.0;
            }
            // Row i of Aᵀ = column i of A: add a_ki · w_k · row_k(A).
            for t in at_row_ptr[i]..at_row_ptr[i + 1] {
                let k = at_col_idx[t];
                let aki_w = a_vals[at_val_of_a[t]] * w[k];
                let (lo, hi) = (a_row_ptr[k], a_row_ptr[k + 1]);
                for (&j, &a_kj) in a_col_idx[lo..hi].iter().zip(&a_vals[lo..hi]) {
                    vals[slot[j]] += aki_w * a_kj;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Csr {
        // A 5×4 rectangular pattern with an empty column interaction.
        let mut coo = Coo::new(5, 4);
        for &(r, c, v) in &[
            (0usize, 0usize, 2.0f64),
            (0, 2, -1.0),
            (1, 1, 3.0),
            (1, 3, 0.5),
            (2, 0, 1.0),
            (2, 1, -2.0),
            (3, 2, 4.0),
            (4, 3, 1.5),
        ] {
            coo.push(r, c, v);
        }
        coo.to_csr()
    }

    #[test]
    fn cached_product_matches_ata_weighted() {
        let a = sample();
        let w = [1.0, 0.5, 2.0, 0.25, 4.0];
        let mut sym = AtaSymbolic::new(&a);
        assert!(sym.matches(&a));
        let g = sym.compute(&a, &w);
        let reference = a.ata_weighted(&w);
        assert!(g.max_abs_diff(&reference) < 1e-14);
        assert!(g.is_symmetric(1e-14));
    }

    #[test]
    fn structural_zeros_are_kept_not_dropped() {
        // Values chosen so G[0,1] cancels exactly: the value-pruned
        // ata_weighted drops it, the symbolic pattern keeps the slot.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, -1.0);
        let a = coo.to_csr();
        let mut sym = AtaSymbolic::new(&a);
        let g = sym.compute(&a, &[1.0, 1.0]);
        assert_eq!(g.nnz(), 4, "structural pattern retained");
        assert_eq!(g.get(0, 1), 0.0);
        let reference = a.ata_weighted(&[1.0, 1.0]);
        assert!(g.max_abs_diff(&reference) < 1e-14);
    }

    #[test]
    fn reuse_across_value_changes() {
        let a = sample();
        let mut sym = AtaSymbolic::new(&a);
        let mut g = sym.g_template();
        for scale in [1.0, 2.0, 0.1] {
            let mut b = a.clone();
            for v in b.values_mut() {
                *v *= scale;
            }
            assert!(sym.matches(&b), "pattern unchanged by value scaling");
            sym.compute_into(&b, &[1.0; 5], &mut g);
            let reference = b.ata_weighted(&[1.0; 5]);
            assert!(g.max_abs_diff(&reference) < 1e-12);
        }
    }

    #[test]
    fn mismatched_pattern_is_detected() {
        let a = sample();
        let sym = AtaSymbolic::new(&a);
        let mut coo = Coo::new(5, 4);
        coo.push(0, 0, 1.0);
        let b = coo.to_csr();
        assert!(!sym.matches(&b));
    }

    /// The gather-based product as it was before the slot map, kept
    /// verbatim as the oracle: a dense accumulator with a row mark, then a
    /// gather into the pattern.
    fn oracle_compute_into(sym: &AtaSymbolic, a: &Csr, w: &[f64], g: &mut Csr) {
        let n = sym.a_ncols;
        let mut acc = vec![0f64; n];
        let mut mark = vec![usize::MAX; n];
        let a_vals = a.values();
        for i in 0..n {
            // Row i of Aᵀ = column i of A: accumulate a_ki · w_k · row_k(A).
            for t in sym.at_row_ptr[i]..sym.at_row_ptr[i + 1] {
                let k = sym.at_col_idx[t];
                let aki_w = a_vals[sym.at_val_of_a[t]] * w[k];
                for p in sym.a_row_ptr[k]..sym.a_row_ptr[k + 1] {
                    let j = sym.a_col_idx[p];
                    if mark[j] != i {
                        mark[j] = i;
                        acc[j] = 0.0;
                    }
                    acc[j] += aki_w * a_vals[p];
                }
            }
            let (lo, hi) = (sym.g_row_ptr[i], sym.g_row_ptr[i + 1]);
            let vals = g.values_mut();
            for (p, &j) in (lo..hi).zip(&sym.g_col_idx[lo..hi]) {
                vals[p] = if mark[j] == i { acc[j] } else { 0.0 };
            }
        }
    }

    /// A seeded `m × n` pattern with about `per_row` entries a row, values
    /// of mixed sign and magnitude, some exact zeros and negative zeros.
    fn random_matrix(m: usize, n: usize, per_row: usize, seed: u64) -> Csr {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        };
        let (mut row_ptr, mut col_idx, mut vals) = (vec![0usize], Vec::new(), Vec::new());
        for _ in 0..m {
            let mut cols: Vec<usize> = (0..per_row).map(|_| (next() as usize) % n).collect();
            cols.sort_unstable();
            cols.dedup();
            for &c in &cols {
                let v = match next() % 9 {
                    0 => 0.0,
                    1 => -0.0,
                    k => (next() as f64 / (1u64 << 53) as f64 - 0.5) * 10f64.powi(k as i32 - 4),
                };
                col_idx.push(c);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_raw(m, n, row_ptr, col_idx, vals)
    }

    #[test]
    fn the_slot_map_product_is_bitwise_the_gather_product() {
        for (seed, (m, n, per_row)) in
            [(5, 4, 2), (60, 25, 4), (200, 80, 6), (40, 40, 1)].into_iter().enumerate()
        {
            let a = random_matrix(m, n, per_row, seed as u64 + 1);
            let mut sym = AtaSymbolic::new(&a);
            let (mut got, mut want) = (sym.g_template(), sym.g_template());
            for round in 0..3u64 {
                let mut b = a.clone();
                for (p, v) in b.values_mut().iter_mut().enumerate() {
                    *v *= 1.0 + (p as f64 + round as f64).sin() * 0.5;
                }
                // Zero weights are inactive rows.
                let w: Vec<f64> = (0..m)
                    .map(|k| {
                        if (k as u64 + round).is_multiple_of(5) {
                            0.0
                        } else {
                            1.0 / (k as f64 + 0.5)
                        }
                    })
                    .collect();
                // Stale values in the output buffers must not leak through.
                got.values_mut().fill(f64::NAN);
                want.values_mut().fill(f64::NAN);
                sym.compute_into(&b, &w, &mut got);
                oracle_compute_into(&sym, &b, &w, &mut want);
                for (p, (x, y)) in got.values().iter().zip(want.values()).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "case {seed} round {round} slot {p}");
                }
            }
        }
    }
}
