//! Bus admittance matrix and branch two-port admittances.
//!
//! Built with the standard π-model conventions (matching MATPOWER): for a
//! branch with series admittance `ys = 1/(r + jx)`, total charging `b`, and
//! complex tap `t = tap·e^{j·shift}` on the from side,
//!
//! ```text
//! Yff = (ys + j·b/2) / |t|²      Yft = −ys / conj(t)
//! Ytf = −ys / t                  Ytt =  ys + j·b/2
//! ```
//!
//! Bus shunts `gs + j·bs` add to the diagonal.

use pgse_sparsela::Cplx;

use crate::model::{Branch, Network};

/// The four two-port admittance entries of one branch.
#[derive(Debug, Clone, Copy)]
pub struct BranchAdmittance {
    /// From-from self admittance.
    pub yff: Cplx,
    /// From-to transfer admittance.
    pub yft: Cplx,
    /// To-from transfer admittance.
    pub ytf: Cplx,
    /// To-to self admittance.
    pub ytt: Cplx,
}

impl BranchAdmittance {
    /// Computes the two-port entries of `branch`.
    pub fn of(branch: &Branch) -> Self {
        let ys = Cplx::new(branch.r, branch.x).recip();
        let half_b = Cplx::new(0.0, branch.b / 2.0);
        let t = Cplx::from_polar(branch.tap, branch.shift);
        let t2 = t.norm_sqr();
        BranchAdmittance {
            yff: (ys + half_b) / t2,
            yft: -(ys / t.conj()),
            ytf: -(ys / t),
            ytt: ys + half_b,
        }
    }
}

/// The complex bus admittance matrix in compressed sparse row form.
#[derive(Debug, Clone)]
pub struct Ybus {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<Cplx>,
    /// Branches assembled out of service, ascending.
    open: Vec<usize>,
}

impl Ybus {
    /// Assembles the admittance matrix of `net`.
    pub fn new(net: &Network) -> Self {
        Ybus::assemble(net, |_| true)
    }

    /// Assembles the admittance matrix with per-branch breaker status on
    /// the pattern of [`Ybus::new`]: branch `k` contributes its two-port
    /// entries iff `closed[k]`, and an open branch keeps its slots as exact
    /// zeros. A switch therefore changes values, never the pattern, and with
    /// every branch closed the result is bitwise [`Ybus::new`]'s.
    ///
    /// # Panics
    /// Panics if `closed.len() != net.n_branches()`.
    pub fn with_branch_status(net: &Network, closed: &[bool]) -> Self {
        assert_eq!(closed.len(), net.n_branches(), "status per branch");
        Ybus::assemble(net, |k| closed[k])
    }

    fn assemble(net: &Network, closed: impl Fn(usize) -> bool) -> Self {
        let n = net.n_buses();
        // Triplet accumulation, then row-compress with duplicate summing.
        let mut trips: Vec<(usize, usize, Cplx)> =
            Vec::with_capacity(4 * net.n_branches() + n);
        let mut open = Vec::new();
        for (k, br) in net.branches.iter().enumerate() {
            let y = if closed(k) {
                BranchAdmittance::of(br)
            } else {
                open.push(k);
                let z = Cplx::ZERO;
                BranchAdmittance { yff: z, yft: z, ytf: z, ytt: z }
            };
            trips.push((br.from, br.from, y.yff));
            trips.push((br.from, br.to, y.yft));
            trips.push((br.to, br.from, y.ytf));
            trips.push((br.to, br.to, y.ytt));
        }
        for (i, bus) in net.buses.iter().enumerate() {
            // Keep every diagonal present even for shunt-free isolated buses.
            trips.push((i, i, Cplx::new(bus.gs, bus.bs)));
        }
        trips.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut vals: Vec<Cplx> = Vec::new();
        row_ptr.push(0usize);
        let mut row = 0usize;
        for (r, c, v) in trips {
            while row < r {
                row_ptr.push(col_idx.len());
                row += 1;
            }
            if let (Some(&last_c), true) = (col_idx.last(), row_ptr[row] < col_idx.len()) {
                if last_c == c {
                    *vals.last_mut().expect("vals tracks col_idx") += v;
                    continue;
                }
            }
            col_idx.push(c);
            vals.push(v);
        }
        while row < n {
            row_ptr.push(col_idx.len());
            row += 1;
        }
        Ybus { n, row_ptr, col_idx, vals, open }
    }

    /// Matrix dimension (number of buses).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The column indices and admittances of row `i` (bus `i`'s neighbours
    /// including itself).
    pub fn row(&self, i: usize) -> (&[usize], &[Cplx]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// The raw CSR arrays `(row_ptr, col_idx, vals)`: the pattern a cached
    /// structure is keyed by, and the values for parity checks.
    pub fn csr_parts(&self) -> (&[usize], &[usize], &[Cplx]) {
        (&self.row_ptr, &self.col_idx, &self.vals)
    }

    /// The stored admittances, in the order of [`Ybus::csr_parts`], for a
    /// numeric rewrite on the fixed pattern (an outaged branch's slots
    /// re-summed without it). An entry set to zero stays stored.
    pub fn values_mut(&mut self) -> &mut [Cplx] {
        &mut self.vals
    }

    /// The branches assembled out of service ([`Ybus::with_branch_status`]),
    /// ascending: their slots hold exact zeros.
    pub fn open_branches(&self) -> &[usize] {
        &self.open
    }

    /// Entry `Y[i][j]`, or zero when structurally absent.
    pub fn get(&self, i: usize, j: usize) -> Cplx {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => Cplx::ZERO,
        }
    }

    /// Complex bus injections `S = V ∘ conj(Y·V)` for the voltage phasor
    /// vector `v`.
    pub fn injections(&self, v: &[Cplx]) -> Vec<Cplx> {
        assert_eq!(v.len(), self.n, "injections: voltage length");
        (0..self.n)
            .map(|i| {
                let (cols, vals) = self.row(i);
                let mut iy = Cplx::ZERO;
                for (c, y) in cols.iter().zip(vals) {
                    iy += *y * v[*c];
                }
                v[i] * iy.conj()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Bus, BusKind, Network};

    fn tiny_net() -> Network {
        let mut buses = vec![Bus::load(1, 0, 0.0, 0.0), Bus::load(2, 0, 0.4, 0.1)];
        buses[0].kind = BusKind::Slack;
        Network {
            name: "tiny".into(),
            base_mva: 100.0,
            buses,
            branches: vec![Branch::line(0, 1, 0.02, 0.1, 0.04)],
        }
    }

    #[test]
    fn line_two_port_is_symmetric() {
        let y = BranchAdmittance::of(&Branch::line(0, 1, 0.02, 0.1, 0.04));
        assert!((y.yft - y.ytf).abs() < 1e-15);
        assert!((y.yff - y.ytt).abs() < 1e-15);
        // yff = ys + jb/2
        let ys = Cplx::new(0.02, 0.1).recip();
        assert!((y.yff - (ys + Cplx::new(0.0, 0.02))).abs() < 1e-15);
    }

    #[test]
    fn transformer_tap_scales_entries() {
        let tr = Branch::transformer(0, 1, 0.0, 0.2, 0.95);
        let y = BranchAdmittance::of(&tr);
        let ys = Cplx::new(0.0, 0.2).recip();
        assert!((y.yff - ys / (0.95 * 0.95)).abs() < 1e-12);
        assert!((y.yft - -(ys / 0.95)).abs() < 1e-12);
        assert!((y.ytt - ys).abs() < 1e-12);
    }

    #[test]
    fn ybus_row_sums_equal_shunt_terms() {
        // With zero charging and zero shunts, each Ybus row sums to zero.
        let mut net = tiny_net();
        net.branches[0].b = 0.0;
        let y = Ybus::new(&net);
        for i in 0..2 {
            let (_, vals) = y.row(i);
            let sum = vals.iter().fold(Cplx::ZERO, |acc, v| acc + *v);
            assert!(sum.abs() < 1e-14, "row {i} sum {sum}");
        }
    }

    #[test]
    fn ybus_is_symmetric_for_lines() {
        let net = tiny_net();
        let y = Ybus::new(&net);
        assert!((y.get(0, 1) - y.get(1, 0)).abs() < 1e-15);
    }

    #[test]
    fn injections_balance_on_lossless_transfer() {
        // Pure reactance: P flows conserve, so P injections sum to zero.
        let mut net = tiny_net();
        net.branches[0].r = 0.0;
        net.branches[0].b = 0.0;
        let y = Ybus::new(&net);
        let v = vec![Cplx::from_polar(1.0, 0.0), Cplx::from_polar(0.98, -0.05)];
        let s = y.injections(&v);
        assert!((s[0].re + s[1].re).abs() < 1e-12);
    }

    #[test]
    fn bus_shunt_appears_on_diagonal() {
        let mut net = tiny_net();
        net.buses[1].bs = 0.19;
        let with = Ybus::new(&net);
        net.buses[1].bs = 0.0;
        let without = Ybus::new(&net);
        let d = with.get(1, 1) - without.get(1, 1);
        assert!((d - Cplx::new(0.0, 0.19)).abs() < 1e-15);
    }

    #[test]
    fn an_open_branch_keeps_its_slots_and_takes_the_filtered_values() {
        // A triangle with a doubled side: opening one of the pair leaves the
        // shared slots fed by the other.
        let mut buses = vec![
            Bus::load(1, 0, 0.0, 0.0),
            Bus::load(2, 0, 0.4, 0.1),
            Bus::load(3, 0, 0.3, 0.05),
        ];
        buses[0].kind = BusKind::Slack;
        buses[2].bs = 0.05;
        let net = Network {
            name: "tri".into(),
            base_mva: 100.0,
            buses,
            branches: vec![
                Branch::line(0, 1, 0.02, 0.1, 0.04),
                Branch::line(1, 2, 0.03, 0.12, 0.02),
                Branch::line(0, 2, 0.01, 0.08, 0.03),
                Branch::line(1, 2, 0.04, 0.15, 0.01),
            ],
        };
        let full = Ybus::new(&net);
        for k in 0..net.n_branches() {
            let mut closed = vec![true; net.n_branches()];
            closed[k] = false;
            let live = Ybus::with_branch_status(&net, &closed);
            let cold = Ybus::new(&net.with_branch_status(&closed));
            assert_eq!(live.open_branches(), [k]);
            let (lp, lc, lv) = live.csr_parts();
            let (fp, fc, _) = full.csr_parts();
            assert_eq!((lp, lc), (fp, fc), "branch {k}: pattern");
            for i in 0..net.n_buses() {
                for (&j, &v) in lc[lp[i]..lp[i + 1]].iter().zip(&lv[lp[i]..lp[i + 1]]) {
                    let want = cold.get(i, j);
                    assert!((v - want).abs() <= 1e-12, "branch {k}: Y[{i}][{j}] {v} vs {want}");
                    if want == Cplx::ZERO {
                        assert_eq!(v, Cplx::ZERO, "branch {k}: Y[{i}][{j}] is an exact zero");
                    }
                }
            }
        }
        assert!(full.open_branches().is_empty());
    }

    #[test]
    fn all_closed_status_build_matches_plain_build() {
        let net = tiny_net();
        let a = Ybus::new(&net);
        let b = Ybus::with_branch_status(&net, &[true]);
        let (ap, ac, av) = a.csr_parts();
        let (bp, bc, bv) = b.csr_parts();
        assert_eq!(ap, bp);
        assert_eq!(ac, bc);
        for (x, y) in av.iter().zip(bv) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn every_diagonal_is_stored() {
        let net = tiny_net();
        let y = Ybus::new(&net);
        for i in 0..net.n_buses() {
            let (cols, _) = y.row(i);
            assert!(cols.contains(&i));
        }
    }
}
