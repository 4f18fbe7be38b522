//! Batched multi-area solves: identical-pattern SPD systems factored and
//! solved together as *lanes* of one blocked sparse Cholesky.
//!
//! The distributed state estimator's Step-1 hot path is one WLS gain solve
//! per area per Gauss–Newton iteration. The per-area gain matrices are
//! independent, similarly sized, and — for areas on a steady topology —
//! carry patterns that repeat frame after frame. Solving them one at a
//! time repeats the expensive part of sparse factorization (index
//! traversal, pattern-driven control flow) once per area; the batched path
//! walks the shared symbolic structure ([`crate::CholSymbolic`]) **once**
//! and carries `n_lanes` numeric values per stored entry, laid out
//! lane-interleaved (`lx[p · n_lanes + l]`) so the lane-inner loops are
//! fixed-stride, vectorizable [`crate::vecops`] kernels
//! ([`crate::vecops::lanes_mul_sub`], [`crate::vecops::lanes_div`]).
//!
//! This is the SIMD-over-systems formulation of the batched-solver
//! literature (cf. the internal-block/boundary split of block-bordered
//! power-system matrices): amortize the sparse index work across systems,
//! keep the floating-point work per system unchanged. Because the lane
//! kernels are elementwise, **every lane performs exactly the
//! floating-point operation sequence of a scalar
//! [`crate::SparseCholesky`] factorization/solve of that system alone**,
//! so batched results are bitwise identical to per-system results — the
//! conformance contract `tests/solver_batch.rs` pins (DESIGN.md §12).

use std::sync::Arc;

use crate::csr::Csr;
use crate::scholesky::{CholSymbolic, SparseCholesky};
use crate::vecops::{lanes_div, lanes_gather, lanes_gather_at, lanes_mul_sub};
use crate::{LaError, LaResult};

/// Same-pattern groups of at least this many systems factor as lanes of one
/// [`BatchCholesky`]; a lone system takes the scalar numeric pass. The two
/// passes are bitwise identical per system, so the gate only picks the
/// cheaper loop shape for the group size at hand.
const BATCH_LANES_MIN: usize = 2;

/// Groups systems by exact sparsity pattern (dimensions + `row_ptr` +
/// `col_idx`), preserving first-occurrence order. Each group's members can
/// share one symbolic analysis and one batched factorization.
fn group_by_pattern(lanes: &[&Csr]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, a) in lanes.iter().enumerate() {
        match groups.iter_mut().find(|g| {
            let r = lanes[g[0]];
            r.nrows() == a.nrows()
                && r.ncols() == a.ncols()
                && r.row_ptr() == a.row_ptr()
                && r.col_idx() == a.col_idx()
        }) {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// A batched sparse Cholesky factorization: `n_lanes` SPD systems with the
/// same sparsity pattern, factored together over one shared
/// [`CholSymbolic`]. Values are lane-interleaved — entry `p` of lane `l`
/// lives at `lx[p · n_lanes + l]` — so the lane-inner loops are contiguous
/// fixed-width blocks.
#[derive(Debug, Clone)]
pub struct BatchCholesky {
    sym: Arc<CholSymbolic>,
    n_lanes: usize,
    lx: Vec<f64>,
}

/// The batched numeric pass: the exact up-looking recurrence of
/// [`CholSymbolic::factor_values`], with every scalar operation widened to
/// an elementwise lane block. Per lane the operation sequence (and hence
/// every result bit) is identical to the scalar pass on that lane alone.
fn factor_values_batched(sym: &CholSymbolic, lanes: &[&Csr]) -> LaResult<Vec<f64>> {
    let n = sym.dim();
    let nl = lanes.len();
    let lp = sym.lp();
    let li = sym.li();
    let rp = sym.rp();
    let ri = sym.ri();
    let app = sym.ap_row_ptr();
    let apc = sym.ap_col_idx();
    let apv = sym.ap_val_of_a();
    // Per-lane pivot thresholds, matching each lane's scalar factorization.
    let tiny: Vec<f64> = lanes.iter().map(|a| sym.tiny_of(a.values())).collect();
    let mut lx = vec![0.0f64; lp[n] * nl];
    let mut free: Vec<usize> = lp[..n].to_vec();
    let mut x = vec![0.0f64; n * nl];
    let mut d = vec![0.0f64; nl];
    let mut lki = vec![0.0f64; nl];
    // Hoist the per-lane value slices once: the scatter phase below is the
    // profiling-dominant loop of the whole batched pass, and re-deriving
    // `a.values()` per entry keeps the compiler from vectorizing it.
    let lane_vals: Vec<&[f64]> = lanes.iter().map(|a| a.values()).collect();
    for k in 0..n {
        // Scatter the lower row A(k, 0..=k) of every lane through the
        // LANE_WIDTH-chunked gather kernels (pure copies).
        d.fill(0.0);
        for p in app[k]..app[k + 1] {
            let c = apc[p];
            if c < k {
                lanes_gather_at(&mut x, c * nl, &lane_vals, apv[p]);
            } else if c == k {
                lanes_gather(&mut d, &lane_vals, apv[p]);
            }
        }
        // Solve L(0..k, 0..k) · l = A(0..k, k) across all lanes at once.
        for &i in &ri[rp[k]..rp[k + 1]] {
            lki.copy_from_slice(&x[i * nl..(i + 1) * nl]);
            lanes_div(&mut lki, &lx[lp[i] * nl..(lp[i] + 1) * nl]);
            x[i * nl..(i + 1) * nl].fill(0.0);
            for q in (lp[i] + 1)..free[i] {
                let r = li[q];
                lanes_mul_sub(&mut x[r * nl..(r + 1) * nl], &lx[q * nl..(q + 1) * nl], &lki);
            }
            lanes_mul_sub(&mut d, &lki, &lki);
            lx[free[i] * nl..(free[i] + 1) * nl].copy_from_slice(&lki);
            free[i] += 1;
        }
        for l in 0..nl {
            if d[l] <= tiny[l] || !d[l].is_finite() {
                return Err(LaError::Lane {
                    lane: l,
                    source: Box::new(LaError::NotPositiveDefinite { step: k, value: d[l] }),
                });
            }
        }
        let row = free[k] * nl;
        for l in 0..nl {
            lx[row + l] = d[l].sqrt();
        }
        free[k] += 1;
    }
    Ok(lx)
}

impl BatchCholesky {
    /// Factors the given systems together. All lanes must be square, SPD,
    /// and carry the same pattern; the fill-reducing permutation is
    /// computed once from the shared pattern (so it equals the one a
    /// scalar [`SparseCholesky::factor`] of any lane would pick).
    ///
    /// # Errors
    /// [`LaError::DimensionMismatch`] on an empty batch;
    /// [`LaError::Lane`] wrapping [`LaError::PatternMismatch`] when a lane
    /// deviates from lane 0's pattern, or [`LaError::NotPositiveDefinite`]
    /// when a lane is not SPD (at the same elimination step its scalar
    /// factorization would report).
    pub fn factor(lanes: &[&Csr]) -> LaResult<Self> {
        let first = *lanes.first().ok_or(LaError::DimensionMismatch { expected: 1, found: 0 })?;
        let sym = Arc::new(CholSymbolic::analyze(first));
        Self::factor_with_symbolic(sym, lanes)
    }

    /// Factors over a pre-built symbolic structure (e.g. one shared with a
    /// [`SparseCholesky`] of the same pattern).
    pub fn factor_with_symbolic(sym: Arc<CholSymbolic>, lanes: &[&Csr]) -> LaResult<Self> {
        if lanes.is_empty() {
            return Err(LaError::DimensionMismatch { expected: 1, found: 0 });
        }
        for (l, a) in lanes.iter().enumerate() {
            if !sym.matches(a) {
                return Err(LaError::Lane {
                    lane: l,
                    source: Box::new(LaError::PatternMismatch {
                        expected_nnz: sym.a_nnz(),
                        found_nnz: a.nnz(),
                    }),
                });
            }
        }
        let lx = factor_values_batched(&sym, lanes)?;
        Ok(BatchCholesky { sym, n_lanes: lanes.len(), lx })
    }

    /// Numeric-only refresh of every lane for new values with unchanged
    /// patterns (the warm-frame path). Bitwise identical to a from-scratch
    /// [`BatchCholesky::factor`] of the same lanes. On error the previous
    /// factor is retained untouched.
    ///
    /// # Errors
    /// [`LaError::DimensionMismatch`] on a lane-count change;
    /// [`LaError::Lane`] wrapping [`LaError::PatternMismatch`] or
    /// [`LaError::NotPositiveDefinite`] per lane.
    pub fn refactor(&mut self, lanes: &[&Csr]) -> LaResult<()> {
        if lanes.len() != self.n_lanes {
            return Err(LaError::DimensionMismatch {
                expected: self.n_lanes,
                found: lanes.len(),
            });
        }
        for (l, a) in lanes.iter().enumerate() {
            if !self.sym.matches(a) {
                return Err(LaError::Lane {
                    lane: l,
                    source: Box::new(LaError::PatternMismatch {
                        expected_nnz: self.sym.a_nnz(),
                        found_nnz: a.nnz(),
                    }),
                });
            }
        }
        self.lx = factor_values_batched(&self.sym, lanes)?;
        Ok(())
    }

    /// Number of lanes in the batch.
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// Matrix dimension (shared by all lanes).
    pub fn dim(&self) -> usize {
        self.sym.dim()
    }

    /// Nonzeros in `L` per lane.
    pub fn l_nnz(&self) -> usize {
        self.sym.l_nnz()
    }

    /// The shared symbolic structure.
    pub fn symbolic(&self) -> &CholSymbolic {
        &self.sym
    }

    /// Solves all lanes at once with lane-interleaved sweeps: one pass over
    /// the shared index structure serves every system. Per lane, bitwise
    /// identical to [`SparseCholesky::solve`] on that lane's own factor.
    ///
    /// # Panics
    /// Panics if `rhs.len() != n_lanes` or any rhs has the wrong length.
    pub fn solve_all(&self, rhs: &[&[f64]]) -> Vec<Vec<f64>> {
        let sym = &*self.sym;
        let n = sym.dim();
        let nl = self.n_lanes;
        assert_eq!(rhs.len(), nl, "solve_all: lane count");
        for b in rhs {
            assert_eq!(b.len(), n, "solve_all: rhs length");
        }
        let (perm, lp, li) = (sym.perm(), sym.lp(), sym.li());
        let mut y = vec![0.0f64; n * nl];
        for (new, &old) in perm.iter().enumerate() {
            for (l, b) in rhs.iter().enumerate() {
                y[new * nl + l] = b[old];
            }
        }
        let mut yj = vec![0.0f64; nl];
        // Forward: L z = y.
        for j in 0..n {
            let dj = lp[j];
            lanes_div(&mut y[j * nl..(j + 1) * nl], &self.lx[dj * nl..(dj + 1) * nl]);
            yj.copy_from_slice(&y[j * nl..(j + 1) * nl]);
            for p in (dj + 1)..lp[j + 1] {
                let r = li[p];
                lanes_mul_sub(&mut y[r * nl..(r + 1) * nl], &self.lx[p * nl..(p + 1) * nl], &yj);
            }
        }
        // Backward: Lᵀ x = z.
        let mut s = vec![0.0f64; nl];
        for j in (0..n).rev() {
            let dj = lp[j];
            s.copy_from_slice(&y[j * nl..(j + 1) * nl]);
            for p in (dj + 1)..lp[j + 1] {
                let r = li[p];
                lanes_mul_sub(&mut s, &self.lx[p * nl..(p + 1) * nl], &y[r * nl..(r + 1) * nl]);
            }
            lanes_div(&mut s, &self.lx[dj * nl..(dj + 1) * nl]);
            y[j * nl..(j + 1) * nl].copy_from_slice(&s);
        }
        let mut out = vec![vec![0.0f64; n]; nl];
        for (new, &old) in perm.iter().enumerate() {
            for (l, x) in out.iter_mut().enumerate() {
                x[old] = y[new * nl + l];
            }
        }
        out
    }
}

/// Per-round dispatch statistics and results of one [`BatchPlan::solve_round`].
#[derive(Debug)]
pub struct RoundOutcome {
    /// Per-system solutions (or per-system errors), in input order.
    pub results: Vec<LaResult<Vec<f64>>>,
    /// Per-system flag: `true` when the system's symbolic analysis was
    /// already cached from an earlier round (a numeric-only pass — the
    /// batched analogue of [`SparseCholesky::refactor`]), `false` when
    /// this round had to run the full symbolic analysis.
    pub sym_reused: Vec<bool>,
    /// Pattern groups dispatched through the lane-interleaved batched
    /// factorization this round.
    pub batch_groups: u64,
    /// Systems solved as lanes of a batched factorization.
    pub batched_lanes: u64,
    /// Systems solved through the scalar path: a lone pattern (group of
    /// one), invalid shape, or recovery after a batched group failed on
    /// one lane. The accounting identity
    /// `batched_lanes + scalar_fallbacks == systems dispatched` holds by
    /// construction — every system lands in exactly one bucket.
    pub scalar_fallbacks: u64,
}

/// Round-level batched solving across areas: groups the gain systems of
/// one streaming round by sparsity pattern ([`BatchPlan::group`]) and
/// solves same-pattern groups through one lane-interleaved
/// [`BatchCholesky`] ([`solve_group`]), caching the symbolic analyses
/// (`CholSymbolic`) **across rounds** so warm rounds run numeric-only
/// passes. Odd-pattern areas fall back to scalar solves over the cached
/// symbolic of their pattern, so the fallback costs no more than the
/// per-area path.
///
/// Shared symbolic analyses use the same fill-reducing ordering a scalar
/// [`SparseCholesky::factor`] would pick for the pattern, and the batched
/// numeric kernels are bitwise identical per lane to scalar passes, so
/// routing a round through a `BatchPlan` never changes a result bit — the
/// determinism pins (1|2|8-thread pools, same-seed exports) survive.
#[derive(Debug, Default)]
pub struct BatchPlan {
    /// Cached symbolic analyses, fingerprint-keyed for lookup and verified
    /// structurally with [`CholSymbolic::matches`] before reuse.
    syms: Vec<(u64, Arc<CholSymbolic>)>,
}

/// FNV-1a over the full sparsity pattern (dims + `row_ptr` + `col_idx`),
/// one whole word per step. Lookup key only — reuse is always confirmed
/// with the exact comparison in [`CholSymbolic::matches`], so a collision
/// costs a miss, never a wrong factorization.
fn pattern_fingerprint(a: &Csr) -> u64 {
    let words = [a.nrows(), a.ncols()].into_iter().chain(a.row_ptr().iter().copied());
    words
        .chain(a.col_idx().iter().copied())
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, x| (h ^ x as u64).wrapping_mul(0x1000_0000_01b3))
}

/// One same-pattern group of the systems handed to [`BatchPlan::group`].
#[derive(Debug)]
pub struct PatternGroup {
    /// The members' positions in the input, ascending.
    pub members: Vec<usize>,
    /// The plan's symbolic analysis of the members' pattern.
    pub sym: Arc<CholSymbolic>,
    /// Whether the plan held `sym` before this lookup (else it analysed
    /// the pattern now).
    pub cached: bool,
}

/// Solves one pattern group's SPD systems over their shared analysis
/// `sym`: as lanes of one [`BatchCholesky`] when there are at least two of
/// them and every lane factors, else one scalar factorization each, so a
/// lane that does not factor (e.g. not SPD) fails alone. Returns the
/// per-system results, in input order, and whether the group ran batched.
/// Either way each result is bitwise the scalar factor-and-solve of that
/// system.
///
/// Every system carries `sym`'s pattern and a right-hand side of its
/// dimension (the per-group body of [`BatchPlan::solve_round`], which
/// checks both).
pub fn solve_group(
    sym: &Arc<CholSymbolic>,
    systems: &[(&Csr, &[f64])],
) -> (Vec<LaResult<Vec<f64>>>, bool) {
    if systems.len() >= BATCH_LANES_MIN {
        let lanes: Vec<&Csr> = systems.iter().map(|&(a, _)| a).collect();
        if let Ok(batch) = BatchCholesky::factor_with_symbolic(Arc::clone(sym), &lanes) {
            let rhs: Vec<&[f64]> = systems.iter().map(|&(_, b)| b).collect();
            return (batch.solve_all(&rhs).into_iter().map(Ok).collect(), true);
        }
    }
    let scalar = systems.iter().map(|&(a, b)| {
        SparseCholesky::factor_with_symbolic(Arc::clone(sym), a).map(|chol| chol.solve(b))
    });
    (scalar.collect(), false)
}

impl BatchPlan {
    /// An empty plan with no cached symbolic analyses.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of symbolic analyses currently cached.
    pub fn cached_symbolics(&self) -> usize {
        self.syms.len()
    }

    /// Drops all cached symbolic analyses (e.g. after a topology change
    /// invalidates every pattern).
    pub fn clear(&mut self) {
        self.syms.clear();
    }

    /// The cached symbolic analysis of `a`'s pattern, analysing (and
    /// caching) it first when the plan has none; the flag says whether it
    /// was already cached. A caller that factors outside
    /// [`BatchPlan::solve_round`] — e.g. a bad-data pass over a gain the
    /// round just solved — gets the same analysis, so its numeric factor
    /// is bitwise the round's.
    pub fn symbolic(&mut self, a: &Csr) -> (Arc<CholSymbolic>, bool) {
        let fp = pattern_fingerprint(a);
        if let Some((_, sym)) = self.syms.iter().find(|(f, s)| *f == fp && s.matches(a)) {
            return (Arc::clone(sym), true);
        }
        let sym = Arc::new(CholSymbolic::analyze(a));
        self.syms.push((fp, Arc::clone(&sym)));
        (sym, false)
    }

    /// Groups `mats` by exact sparsity pattern, in first-occurrence order,
    /// and looks each group's analysis up once ([`BatchPlan::symbolic`]).
    /// A caller that iterates — a Gauss–Newton wave whose gain keeps its
    /// pattern — groups once and solves each group with [`solve_group`]
    /// on every iteration; groups share nothing, so they can run apart.
    pub fn group(&mut self, mats: &[&Csr]) -> Vec<PatternGroup> {
        let groups = group_by_pattern(mats).into_iter().map(|members| {
            let (sym, cached) = self.symbolic(mats[members[0]]);
            PatternGroup { members, sym, cached }
        });
        groups.collect()
    }

    /// Solves one round's worth of independent SPD systems, batching
    /// same-pattern groups of two or more as lanes and reusing cached
    /// symbolic analyses from earlier rounds: [`BatchPlan::group`], then
    /// [`solve_group`] per group. Errors are per-system: one indefinite
    /// area cannot fail the round.
    pub fn solve_round(&mut self, systems: &[(&Csr, &[f64])]) -> RoundOutcome {
        let n = systems.len();
        let mut out = RoundOutcome {
            results: (0..n)
                .map(|_| Err(LaError::DimensionMismatch { expected: 0, found: 0 }))
                .collect(),
            sym_reused: vec![false; n],
            batch_groups: 0,
            batched_lanes: 0,
            scalar_fallbacks: 0,
        };
        let mut valid: Vec<usize> = Vec::with_capacity(n);
        for (i, (a, b)) in systems.iter().enumerate() {
            if a.nrows() != a.ncols() || b.len() != a.nrows() {
                out.results[i] = Err(LaError::DimensionMismatch {
                    expected: a.nrows(),
                    found: if a.nrows() != a.ncols() { a.ncols() } else { b.len() },
                });
                out.scalar_fallbacks += 1;
            } else {
                valid.push(i);
            }
        }
        let mats: Vec<&Csr> = valid.iter().map(|&i| systems[i].0).collect();
        for PatternGroup { members, sym, cached } in self.group(&mats) {
            // Map group positions back to input positions.
            let idx: Vec<usize> = members.iter().map(|&g| valid[g]).collect();
            let group: Vec<(&Csr, &[f64])> = idx.iter().map(|&i| systems[i]).collect();
            let (results, batched) = solve_group(&sym, &group);
            for (&i, x) in idx.iter().zip(results) {
                out.results[i] = x;
                out.sym_reused[i] = cached;
            }
            if batched {
                out.batch_groups += 1;
                out.batched_lanes += idx.len() as u64;
            } else {
                out.scalar_fallbacks += idx.len() as u64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

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

    /// Same pattern, lane-specific values, still symmetric positive
    /// definite: the perturbation is keyed on the unordered index pair so
    /// `(i,j)` and `(j,i)` scale identically.
    fn lane_variant(a: &Csr, seed: u64) -> Csr {
        let n = a.nrows();
        let mut b = a.clone();
        for r in 0..n {
            for p in a.row_ptr()[r]..a.row_ptr()[r + 1] {
                let c = a.col_idx()[p];
                let key = (seed.wrapping_mul(31) + (r.min(c) * n + r.max(c)) as u64) % 23;
                b.values_mut()[p] *= 1.0 + 1e-3 * (key as f64 - 11.0);
            }
        }
        b.add_scaled(&Csr::identity(n), 1.0 + 0.1 * seed as f64)
    }

    fn rhs_for(n: usize, seed: u64) -> Vec<f64> {
        (0..n).map(|i| (((seed + i as u64) * 37 % 101) as f64) * 0.02 - 1.0).collect()
    }

    #[test]
    fn batched_factor_solve_is_bitwise_identical_to_scalar() {
        let base = laplacian2d(6);
        let lanes: Vec<Csr> = (0..5).map(|s| lane_variant(&base, s)).collect();
        let refs: Vec<&Csr> = lanes.iter().collect();
        let batch = BatchCholesky::factor(&refs).unwrap();
        assert_eq!(batch.n_lanes(), 5);
        let rhs: Vec<Vec<f64>> = (0..5).map(|l| rhs_for(base.nrows(), l)).collect();
        let rhs_refs: Vec<&[f64]> = rhs.iter().map(|b| b.as_slice()).collect();
        let all = batch.solve_all(&rhs_refs);
        for (l, a) in lanes.iter().enumerate() {
            let scalar = SparseCholesky::factor(a).unwrap();
            assert_eq!(batch.l_nnz(), scalar.l_nnz());
            let xs = scalar.solve(&rhs[l]);
            for (p, q) in all[l].iter().zip(&xs) {
                assert_eq!(p.to_bits(), q.to_bits(), "lane {l}");
            }
        }
    }

    #[test]
    fn refactor_is_bitwise_identical_to_fresh_batch() {
        let base = laplacian2d(5);
        let frame0: Vec<Csr> = (0..3).map(|s| lane_variant(&base, s)).collect();
        let refs0: Vec<&Csr> = frame0.iter().collect();
        let mut batch = BatchCholesky::factor(&refs0).unwrap();
        let frame1: Vec<Csr> = (10..13).map(|s| lane_variant(&base, s)).collect();
        let refs1: Vec<&Csr> = frame1.iter().collect();
        batch.refactor(&refs1).unwrap();
        let fresh = BatchCholesky::factor(&refs1).unwrap();
        let b = rhs_for(base.nrows(), 9);
        let rhs: Vec<&[f64]> = vec![&b; 3];
        for (l, (x1, x2)) in batch.solve_all(&rhs).iter().zip(&fresh.solve_all(&rhs)).enumerate() {
            for (p, q) in x1.iter().zip(x2) {
                assert_eq!(p.to_bits(), q.to_bits(), "lane {l}");
            }
        }
    }

    #[test]
    fn mismatched_lane_reports_typed_error() {
        let base = laplacian2d(4);
        let odd = Csr::identity(base.nrows());
        let refs: Vec<&Csr> = vec![&base, &odd, &base];
        match BatchCholesky::factor(&refs) {
            Err(LaError::Lane { lane: 1, source }) => {
                assert!(matches!(*source, LaError::PatternMismatch { .. }), "{source:?}");
            }
            other => panic!("expected lane-1 pattern mismatch, got {other:?}"),
        }
        assert!(matches!(
            BatchCholesky::factor(&[]),
            Err(LaError::DimensionMismatch { found: 0, .. })
        ));
    }

    #[test]
    fn indefinite_lane_reports_lane_and_step() {
        let base = laplacian2d(4);
        let good = lane_variant(&base, 1);
        let mut bad = base.clone();
        for v in bad.values_mut() {
            *v = -*v;
        }
        let refs: Vec<&Csr> = vec![&good, &bad];
        match BatchCholesky::factor(&refs) {
            Err(LaError::Lane { lane: 1, source }) => match *source {
                LaError::NotPositiveDefinite { step, .. } => {
                    // The same step the scalar factorization reports.
                    match SparseCholesky::factor(&bad) {
                        Err(LaError::NotPositiveDefinite { step: s2, .. }) => {
                            assert_eq!(step, s2)
                        }
                        other => panic!("scalar factor should fail, got {other:?}"),
                    }
                }
                ref other => panic!("expected NotPositiveDefinite, got {other:?}"),
            },
            other => panic!("expected lane-1 failure, got {other:?}"),
        }
    }

    #[test]
    fn refactor_failure_keeps_previous_lanes() {
        let base = laplacian2d(4);
        let lanes: Vec<Csr> = (0..2).map(|s| lane_variant(&base, s)).collect();
        let refs: Vec<&Csr> = lanes.iter().collect();
        let mut batch = BatchCholesky::factor(&refs).unwrap();
        let mut bad = lanes[1].clone();
        for v in bad.values_mut() {
            *v = -*v;
        }
        let bad_refs: Vec<&Csr> = vec![&lanes[0], &bad];
        assert!(batch.refactor(&bad_refs).is_err());
        // Old factor still solves lane 0's original system.
        let b = rhs_for(base.nrows(), 3);
        let x = batch.solve_all(&[&b, &b]).swap_remove(0);
        let ax = lanes[0].mul_vec(&x);
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-8, "previous factor lost after failed refactor");
        }
    }

    #[test]
    fn group_by_pattern_separates_and_orders() {
        let a = laplacian2d(4);
        let b = lane_variant(&a, 2); // same pattern as a
        let c = Csr::identity(a.nrows());
        let d = laplacian2d(3);
        let lanes: Vec<&Csr> = vec![&a, &c, &b, &d, &c];
        assert_eq!(group_by_pattern(&lanes), vec![vec![0, 2], vec![1, 4], vec![3]]);
    }

    #[test]
    fn batch_plan_round_matches_scalar_and_accounts_exactly() {
        let base_a = laplacian2d(5);
        let base_b = laplacian2d(4);
        // Three systems on pattern A (batched), one lone system on
        // pattern B (scalar fallback).
        let mats: Vec<Csr> = vec![
            lane_variant(&base_a, 0),
            lane_variant(&base_b, 1),
            lane_variant(&base_a, 2),
            lane_variant(&base_a, 3),
        ];
        let rhs: Vec<Vec<f64>> =
            mats.iter().enumerate().map(|(i, m)| rhs_for(m.nrows(), i as u64)).collect();
        let systems: Vec<(&Csr, &[f64])> =
            mats.iter().zip(&rhs).map(|(m, b)| (m, b.as_slice())).collect();

        let mut plan = BatchPlan::new();
        let round1 = plan.solve_round(&systems);
        assert_eq!(round1.batch_groups, 1);
        assert_eq!(round1.batched_lanes, 3);
        assert_eq!(round1.scalar_fallbacks, 1);
        assert_eq!(
            round1.batched_lanes + round1.scalar_fallbacks,
            systems.len() as u64,
            "every dispatched system lands in exactly one bucket"
        );
        assert!(round1.sym_reused.iter().all(|&r| !r), "round 1 analyzes fresh");
        assert_eq!(plan.cached_symbolics(), 2);
        for (i, (m, b)) in systems.iter().enumerate() {
            let scalar = SparseCholesky::factor(m).unwrap().solve(b);
            let x = round1.results[i].as_ref().unwrap();
            for (p, q) in x.iter().zip(&scalar) {
                assert_eq!(p.to_bits(), q.to_bits(), "system {i}");
            }
        }

        // Warm round: new values, same patterns — symbolic analyses reuse.
        let mats2: Vec<Csr> = vec![
            lane_variant(&base_a, 10),
            lane_variant(&base_b, 11),
            lane_variant(&base_a, 12),
            lane_variant(&base_a, 13),
        ];
        let systems2: Vec<(&Csr, &[f64])> =
            mats2.iter().zip(&rhs).map(|(m, b)| (m, b.as_slice())).collect();
        let round2 = plan.solve_round(&systems2);
        assert!(round2.sym_reused.iter().all(|&r| r), "round 2 reuses every analysis");
        assert_eq!(plan.cached_symbolics(), 2, "no duplicate analyses cached");
        for (i, (m, b)) in systems2.iter().enumerate() {
            let scalar = SparseCholesky::factor(m).unwrap().solve(b);
            let x = round2.results[i].as_ref().unwrap();
            for (p, q) in x.iter().zip(&scalar) {
                assert_eq!(p.to_bits(), q.to_bits(), "warm system {i}");
            }
        }
        // A factor taken outside the round over the plan's analysis is
        // the round's factor, and the lookup analyses nothing new.
        let (sym, cached) = plan.symbolic(&mats2[1]);
        assert!(cached);
        assert_eq!(plan.cached_symbolics(), 2);
        let outside = SparseCholesky::factor_with_symbolic(sym, &mats2[1]).unwrap();
        let x = round2.results[1].as_ref().unwrap();
        for (p, q) in x.iter().zip(&outside.solve(&rhs[1])) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        plan.clear();
        assert_eq!(plan.cached_symbolics(), 0);
    }

    #[test]
    fn a_group_with_an_indefinite_lane_fails_that_lane_alone_and_runs_scalar() {
        let base = laplacian2d(4);
        let sym = Arc::new(CholSymbolic::analyze(&base));
        let good: Vec<Csr> = (0..3).map(|s| lane_variant(&base, s)).collect();
        let mut indef = base.clone();
        for v in indef.values_mut() {
            *v = -*v;
        }
        let b = rhs_for(base.nrows(), 4);
        let scalar = |a: &Csr| SparseCholesky::factor(a).unwrap().solve(&b);
        let bitwise = |x: &LaResult<Vec<f64>>, want: &[f64], what: &str| {
            let x = x.as_ref().unwrap();
            assert!(x.iter().zip(want).all(|(p, q)| p.to_bits() == q.to_bits()), "{what}");
        };

        // All lanes factor: one batched pass.
        let systems: Vec<(&Csr, &[f64])> = good.iter().map(|a| (a, b.as_slice())).collect();
        let (results, batched) = solve_group(&sym, &systems);
        assert!(batched);
        for (l, a) in good.iter().enumerate() {
            bitwise(&results[l], &scalar(a), "batched lane");
        }

        // One indefinite lane: the group runs scalar and only that lane errs.
        let systems: Vec<(&Csr, &[f64])> =
            vec![(&good[0], &b), (&indef, &b), (&good[1], &b), (&good[2], &b)];
        let (results, batched) = solve_group(&sym, &systems);
        assert!(!batched, "a group whose batch failed is reported scalar");
        assert_eq!(results.len(), 4);
        assert!(matches!(results[1], Err(LaError::NotPositiveDefinite { .. })));
        for (k, a) in [(0, &good[0]), (2, &good[1]), (3, &good[2])] {
            bitwise(&results[k], &scalar(a), "recovered lane");
        }

        // A lone system takes the scalar pass.
        let (results, batched) = solve_group(&sym, &systems[..1]);
        assert!(!batched);
        bitwise(&results[0], &scalar(&good[0]), "lone system");
    }

    #[test]
    fn group_looks_each_pattern_up_once_in_first_occurrence_order() {
        let (a, c) = (laplacian2d(4), laplacian2d(3));
        let b = lane_variant(&a, 2);
        let mut plan = BatchPlan::new();
        plan.symbolic(&c);
        let groups = plan.group(&[&a, &c, &b]);
        let shape: Vec<(Vec<usize>, bool)> =
            groups.iter().map(|g| (g.members.clone(), g.cached)).collect();
        assert_eq!(shape, vec![(vec![0, 2], false), (vec![1], true)]);
        assert!(groups[0].sym.matches(&b) && groups[1].sym.matches(&c));
        assert_eq!(plan.cached_symbolics(), 2);
        assert!(plan.group(&[&b]).iter().all(|g| g.cached));
        assert_eq!(plan.cached_symbolics(), 2);
    }

    #[test]
    fn batch_plan_isolates_per_system_errors() {
        let base = laplacian2d(4);
        let good0 = lane_variant(&base, 0);
        let good1 = lane_variant(&base, 1);
        let mut indef = base.clone();
        for v in indef.values_mut() {
            *v = -*v;
        }
        let b = rhs_for(base.nrows(), 2);
        // The indefinite system shares the batch's pattern, so the batched
        // factor fails and the group recovers scalar per lane.
        let systems: Vec<(&Csr, &[f64])> = vec![(&good0, &b), (&indef, &b), (&good1, &b)];
        let mut plan = BatchPlan::new();
        let round = plan.solve_round(&systems);
        assert_eq!(round.batched_lanes, 0);
        assert_eq!(round.scalar_fallbacks, 3);
        assert!(matches!(round.results[1], Err(LaError::NotPositiveDefinite { .. })));
        for i in [0usize, 2] {
            let scalar =
                SparseCholesky::factor(systems[i].0).unwrap().solve(systems[i].1);
            let x = round.results[i].as_ref().unwrap();
            for (p, q) in x.iter().zip(&scalar) {
                assert_eq!(p.to_bits(), q.to_bits(), "system {i}");
            }
        }
        // A malformed rhs is rejected per-system, not per-round.
        let short = vec![1.0; 3];
        let systems2: Vec<(&Csr, &[f64])> = vec![(&good0, &b), (&good0, &short)];
        let round2 = plan.solve_round(&systems2);
        assert!(round2.results[0].is_ok());
        assert!(matches!(round2.results[1], Err(LaError::DimensionMismatch { .. })));
        assert_eq!(round2.batched_lanes + round2.scalar_fallbacks, 2);
    }
}
