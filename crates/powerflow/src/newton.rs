//! Newton–Raphson power-flow solver.
//!
//! Every solve runs on a [`PfModel`], built once per network: the state
//! index, the admittance matrix with each branch's slots in it, the
//! structural Jacobian with a scatter map per admittance slot, and one LU
//! order analysed on that structure. A solve then only refills values:
//! an outaged branch's slots are re-summed without it (exact zeros on the
//! same pattern, not a new network), the Jacobian is written in place on
//! every iteration, and the LU runs its numeric pass alone. The symbolic
//! structure never depends on values, so a flat start — whose
//! zero-resistance branches give exactly zero entries — and every N-1
//! case of a sweep factor over the same order.
//!
//! [`solve`] and [`solve_warm`] build a model and solve it once; the N-1
//! sweeps of `pgse-contingency` build one per network and solve it per
//! case.

use std::borrow::Cow;
use std::sync::Arc;

use pgse_grid::{BranchAdmittance, BusKind, Network, Ybus};
use pgse_sparsela::{Cplx, Csc, LuSymbolic, SparseLu};

use crate::equations::{branch_flow, bus_injections, injection_derivatives_of, BranchFlow};

/// Options for the Newton iteration.
#[derive(Debug, Clone, Copy)]
pub struct PfOptions {
    /// Convergence tolerance on the infinity norm of the power mismatch
    /// (p.u.).
    pub tol: f64,
    /// Maximum Newton iterations.
    pub max_iter: usize,
}

impl Default for PfOptions {
    fn default() -> Self {
        PfOptions { tol: 1e-8, max_iter: 20 }
    }
}

/// Power-flow failure modes.
#[derive(Debug, Clone)]
pub enum PfError {
    /// The Newton iteration did not reach tolerance.
    DidNotConverge { iterations: usize, mismatch: f64 },
    /// The Jacobian was singular (e.g. an unobservable island).
    SingularJacobian(String),
}

impl std::fmt::Display for PfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PfError::DidNotConverge { iterations, mismatch } => {
                write!(f, "power flow stalled after {iterations} iterations (mismatch {mismatch:.3e} p.u.)")
            }
            PfError::SingularJacobian(e) => write!(f, "singular power-flow Jacobian: {e}"),
        }
    }
}

impl std::error::Error for PfError {}

/// A converged operating point.
#[derive(Debug, Clone, Default)]
pub struct PfSolution {
    /// Voltage magnitudes (p.u.), one per bus.
    pub vm: Vec<f64>,
    /// Voltage angles (radians), one per bus; slack at 0.
    pub va: Vec<f64>,
    /// Active bus injections at the solution (p.u.).
    pub p_inj: Vec<f64>,
    /// Reactive bus injections at the solution (p.u.).
    pub q_inj: Vec<f64>,
    /// Terminal flows of every branch.
    pub flows: Vec<BranchFlow>,
    /// Newton iterations used.
    pub iterations: usize,
    /// Final mismatch infinity norm (p.u.).
    pub mismatch: f64,
}

impl PfSolution {
    /// Total series active losses (p.u.).
    pub fn total_losses(&self) -> f64 {
        self.flows.iter().map(BranchFlow::p_loss).sum()
    }
}

/// Solves the AC power flow of `net` from a flat start: one
/// [`PfModel`] of `net`, solved once.
///
/// # Errors
/// [`PfError::DidNotConverge`] or [`PfError::SingularJacobian`].
pub fn solve(net: &Network, opts: &PfOptions) -> Result<PfSolution, PfError> {
    PfModel::new(net).solve(None, None, opts)
}

/// Solves the AC power flow of `net` warm-started from a previous
/// operating point `(vm0, va0)` — the contingency-screening path, where a
/// post-outage solution sits close to the base case and a warm Newton
/// start converges in fewer iterations than a flat one.
///
/// The warm state is sanitized before use: magnitudes at voltage-controlled
/// buses are clamped back to their setpoints (the Newton formulation holds
/// them fixed) and angles are re-referenced so the slack sits at zero.
///
/// # Errors
/// [`PfError::DidNotConverge`] or [`PfError::SingularJacobian`].
///
/// # Panics
/// Panics when `vm0`/`va0` lengths differ from the bus count.
pub fn solve_warm(
    net: &Network,
    opts: &PfOptions,
    vm0: &[f64],
    va0: &[f64],
) -> Result<PfSolution, PfError> {
    PfModel::new(net).solve(None, Some((vm0, va0)), opts)
}

/// One branch of the model: its ends, its two-port and the Ybus slots
/// (indices into the stored values) of its `ff`, `ft`, `tf`, `tt` entries.
#[derive(Debug, Clone)]
struct ModelBranch {
    from: usize,
    to: usize,
    y: BranchAdmittance,
    slots: [usize; 4],
}

impl ModelBranch {
    /// The two-port entries, in the order of `slots`.
    fn parts(&self) -> [Cplx; 4] {
        [self.y.yff, self.y.yft, self.y.ytf, self.y.ytt]
    }
}

/// The Newton power-flow model of one network, built once and solved any
/// number of times, concurrently if need be (see the module docs).
#[derive(Debug, Clone)]
pub struct PfModel {
    /// Angle state position per bus (`usize::MAX` at the slack).
    th_pos: Vec<usize>,
    /// Magnitude state position per bus (`usize::MAX` unless PQ).
    v_pos: Vec<usize>,
    slack: usize,
    /// Flat-start magnitudes: the setpoint at controlled buses, 1.0 at PQ.
    vm_flat: Vec<f64>,
    p_sched: Vec<f64>,
    q_sched: Vec<f64>,
    /// Bus shunts `gs + j·bs`.
    shunt: Vec<Cplx>,
    /// The admittance matrix with every branch in service.
    ybus: Ybus,
    branches: Vec<ModelBranch>,
    /// The structural Jacobian: every entry any Ybus slot can produce.
    /// Its values are a template; each solve refills a copy.
    jac: Csc,
    /// Per Ybus slot, the Jacobian value positions of its `∂P/∂θ`,
    /// `∂P/∂V`, `∂Q/∂θ`, `∂Q/∂V` entries (`usize::MAX` where the row or
    /// column state does not exist).
    jac_map: Vec<[usize; 4]>,
    /// The LU order of the structural Jacobian, shared by every solve.
    lu: Arc<LuSymbolic>,
}

impl PfModel {
    /// Builds the model of `net`: state index, admittance matrix and
    /// branch slot map, structural Jacobian and its LU analysis.
    ///
    /// # Panics
    /// Panics when a branch names a bus outside `net`.
    pub fn new(net: &Network) -> Self {
        let n = net.n_buses();
        let (th_pos, v_pos, nx) = state_index(net);
        let ybus = Ybus::new(net);
        let (row_ptr, cols, _) = ybus.csr_parts();
        let slot = |i: usize, j: usize| {
            let row = &cols[row_ptr[i]..row_ptr[i + 1]];
            row_ptr[i] + row.binary_search(&j).expect("a branch's entries are stored")
        };
        let branches = net
            .branches
            .iter()
            .map(|br| {
                let (f, t) = (br.from, br.to);
                ModelBranch {
                    from: f,
                    to: t,
                    y: BranchAdmittance::of(br),
                    slots: [slot(f, f), slot(f, t), slot(t, f), slot(t, t)],
                }
            })
            .collect();

        // Every (slot, part) with both states present is one Jacobian
        // entry, and no two share a position: th_pos and v_pos are
        // injective with disjoint ranges.
        let mut entries: Vec<(usize, usize, usize)> = Vec::with_capacity(4 * ybus.nnz());
        for i in 0..n {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            for (s, &j) in (lo..hi).zip(&cols[lo..hi]) {
                let rows = [th_pos[i], th_pos[i], v_pos[i], v_pos[i]];
                let jcols = [th_pos[j], v_pos[j], th_pos[j], v_pos[j]];
                for (part, (&r, &c)) in rows.iter().zip(&jcols).enumerate() {
                    if r != usize::MAX && c != usize::MAX {
                        entries.push((c, r, 4 * s + part));
                    }
                }
            }
        }
        entries.sort_unstable();
        let mut col_ptr = vec![0usize; nx + 1];
        let mut row_idx = Vec::with_capacity(entries.len());
        let mut jac_map = vec![[usize::MAX; 4]; ybus.nnz()];
        for (pos, &(c, r, key)) in entries.iter().enumerate() {
            col_ptr[c + 1] += 1;
            row_idx.push(r);
            jac_map[key / 4][key % 4] = pos;
        }
        for c in 0..nx {
            col_ptr[c + 1] += col_ptr[c];
        }
        let jac = Csc::from_raw(nx, nx, col_ptr, row_idx, vec![1.0; entries.len()]);
        let lu = Arc::new(LuSymbolic::analyze(&jac));

        PfModel {
            th_pos,
            v_pos,
            slack: net.slack(),
            vm_flat: net
                .buses
                .iter()
                .map(|b| if b.kind == BusKind::Pq { 1.0 } else { b.vm_setpoint })
                .collect(),
            p_sched: net.buses.iter().map(|b| b.p_injection()).collect(),
            q_sched: net.buses.iter().map(|b| b.q_injection()).collect(),
            shunt: net.buses.iter().map(|b| Cplx::new(b.gs, b.bs)).collect(),
            ybus,
            branches,
            jac,
            jac_map,
            lu,
        }
    }

    /// Solves the power flow with branch `outage` out of service (`None`:
    /// all in service), from the warm state `start` — sanitized as in
    /// [`solve_warm`] — or from a flat start when `None`.
    ///
    /// The solution is in the base numbering: `flows` holds one entry per
    /// modelled branch, and the outaged branch's is zero.
    ///
    /// # Errors
    /// [`PfError::DidNotConverge`] or [`PfError::SingularJacobian`]. An
    /// outage that islands a bus leaves its Jacobian row and column exactly
    /// zero, so it always reports singular.
    ///
    /// # Panics
    /// Panics when `outage` is not a branch of the model or the `start`
    /// lengths differ from the bus count.
    pub fn solve(
        &self,
        outage: Option<usize>,
        start: Option<(&[f64], &[f64])>,
        opts: &PfOptions,
    ) -> Result<PfSolution, PfError> {
        let n = self.th_pos.len();
        let (th_pos, v_pos) = (&self.th_pos, &self.v_pos);
        let ybus = match outage {
            None => Cow::Borrowed(&self.ybus),
            Some(k) => Cow::Owned(self.ybus_without(k)),
        };

        // Flat start or the caller's warm state with controlled magnitudes
        // clamped back to setpoints and angles re-referenced to the slack.
        let (mut vm, mut va): (Vec<f64>, Vec<f64>) = match start {
            None => (self.vm_flat.clone(), vec![0.0f64; n]),
            Some((vm0, va0)) => {
                assert_eq!(vm0.len(), n, "warm start: vm length");
                assert_eq!(va0.len(), n, "warm start: va length");
                (
                    (0..n)
                        .map(|i| if v_pos[i] != usize::MAX { vm0[i] } else { self.vm_flat[i] })
                        .collect(),
                    va0.iter().map(|&a| a - va0[self.slack]).collect(),
                )
            }
        };

        let mut jac = self.jac.clone();
        let mut mismatch_norm = f64::INFINITY;
        for iter in 0..=opts.max_iter {
            let (p, q) = bus_injections(&ybus, &vm, &va);
            // Mismatch vector f = [ΔP at non-slack; ΔQ at PQ].
            let mut f = vec![0.0f64; self.jac.ncols()];
            for i in 0..n {
                if th_pos[i] != usize::MAX {
                    f[th_pos[i]] = self.p_sched[i] - p[i];
                }
                if v_pos[i] != usize::MAX {
                    f[v_pos[i]] = self.q_sched[i] - q[i];
                }
            }
            mismatch_norm = f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if mismatch_norm <= opts.tol {
                let flows = self
                    .branches
                    .iter()
                    .enumerate()
                    .map(|(k, br)| {
                        if outage == Some(k) {
                            BranchFlow::default()
                        } else {
                            branch_flow(&br.y, br.from, br.to, &vm, &va)
                        }
                    })
                    .collect();
                return Ok(PfSolution {
                    vm,
                    va,
                    p_inj: p,
                    q_inj: q,
                    flows,
                    iterations: iter,
                    mismatch: mismatch_norm,
                });
            }
            if iter == opts.max_iter {
                break;
            }

            self.fill_jacobian(&mut jac, &ybus, &vm, &va, &p, &q);
            let lu = SparseLu::factor_with_symbolic(Arc::clone(&self.lu), &jac, 1.0)
                .map_err(|e| PfError::SingularJacobian(e.to_string()))?;
            let dx = lu.solve(&f);

            // Damped update: full Newton steps can overshoot from a flat
            // start on electrically long systems. Backtrack the step until
            // the mismatch norm decreases (Armijo-style, accept the last
            // trial if nothing helps — near convergence the full step is
            // always taken).
            let mut alpha = 1.0f64;
            let mut accepted = false;
            for _ in 0..5 {
                let mut vm_try = vm.clone();
                let mut va_try = va.clone();
                for i in 0..n {
                    if th_pos[i] != usize::MAX {
                        va_try[i] += alpha * dx[th_pos[i]];
                    }
                    if v_pos[i] != usize::MAX {
                        vm_try[i] += alpha * dx[v_pos[i]];
                    }
                }
                let (pt, qt) = bus_injections(&ybus, &vm_try, &va_try);
                let mut m_try = 0.0f64;
                for i in 0..n {
                    if th_pos[i] != usize::MAX {
                        m_try = m_try.max((self.p_sched[i] - pt[i]).abs());
                    }
                    if v_pos[i] != usize::MAX {
                        m_try = m_try.max((self.q_sched[i] - qt[i]).abs());
                    }
                }
                if m_try < mismatch_norm || alpha <= 0.125 {
                    vm = vm_try;
                    va = va_try;
                    accepted = true;
                    break;
                }
                alpha *= 0.5;
            }
            debug_assert!(accepted, "damping loop always accepts a step");
        }
        Err(PfError::DidNotConverge { iterations: opts.max_iter, mismatch: mismatch_norm })
    }

    /// The admittance matrix with branch `k` out of service, on the full
    /// pattern. Each slot `k` touches is re-summed from the shunt and the
    /// branches still in service, so a slot only `k` fed is exactly zero —
    /// subtracting `k`'s two-port from the base value would leave rounding
    /// residue where an islanded bus must have nothing.
    fn ybus_without(&self, k: usize) -> Ybus {
        let out = &self.branches[k];
        let mut ybus = self.ybus.clone();
        let vals = ybus.values_mut();
        for &s in &out.slots {
            vals[s] = Cplx::ZERO;
        }
        vals[out.slots[0]] += self.shunt[out.from];
        if out.to != out.from {
            vals[out.slots[3]] += self.shunt[out.to];
        }
        for (j, br) in self.branches.iter().enumerate() {
            if j == k {
                continue;
            }
            for (&s, y) in br.slots.iter().zip(br.parts()) {
                if out.slots.contains(&s) {
                    vals[s] += y;
                }
            }
        }
        ybus
    }

    /// Writes the Newton Jacobian at `(vm, va)` into `jac`'s values, one
    /// pass over the stored admittances of `ybus` (the model's pattern).
    fn fill_jacobian(
        &self,
        jac: &mut Csc,
        ybus: &Ybus,
        vm: &[f64],
        va: &[f64],
        p: &[f64],
        q: &[f64],
    ) {
        let (row_ptr, cols, y) = ybus.csr_parts();
        let vals = jac.values_mut();
        for i in 0..self.th_pos.len() {
            for s in row_ptr[i]..row_ptr[i + 1] {
                let d = injection_derivatives_of(y[s], vm, va, p[i], q[i], i, cols[s]);
                for (&pos, v) in self.jac_map[s].iter().zip([d.0, d.1, d.2, d.3]) {
                    if pos != usize::MAX {
                        vals[pos] = v;
                    }
                }
            }
        }
    }
}

/// State indexing `(th_pos, v_pos, nx)`: angles at all non-slack buses,
/// then magnitudes at PQ buses; `usize::MAX` marks a bus without that
/// state.
fn state_index(net: &Network) -> (Vec<usize>, Vec<usize>, usize) {
    let n = net.n_buses();
    let slack = net.slack();
    let mut th_pos = vec![usize::MAX; n];
    let mut v_pos = vec![usize::MAX; n];
    let mut nth = 0usize;
    for (i, p) in th_pos.iter_mut().enumerate() {
        if i != slack {
            *p = nth;
            nth += 1;
        }
    }
    let mut nv = 0usize;
    for (i, bus) in net.buses.iter().enumerate() {
        if bus.kind == BusKind::Pq {
            v_pos[i] = nth + nv;
            nv += 1;
        }
    }
    (th_pos, v_pos, nth + nv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equations::bus_injections;
    use pgse_grid::cases::{ieee118_like, ieee14, synthetic_grid, SyntheticSpec};
    use pgse_sparsela::Coo;

    #[test]
    fn ieee14_converges_quadratically() {
        let sol = solve(&ieee14(), &PfOptions::default()).unwrap();
        assert!(sol.iterations <= 5, "took {} iterations", sol.iterations);
        assert!(sol.mismatch <= 1e-8);
    }

    #[test]
    fn ieee14_matches_published_solution() {
        // Published solved voltages of the IEEE 14-bus case (PSTCA).
        let sol = solve(&ieee14(), &PfOptions::default()).unwrap();
        let deg = 180.0 / std::f64::consts::PI;
        let expect_vm = [
            1.060, 1.045, 1.010, 1.019, 1.020, 1.070, 1.062, 1.090, 1.056, 1.051, 1.057, 1.055,
            1.050, 1.036,
        ];
        let expect_va_deg = [
            0.0, -4.98, -12.72, -10.33, -8.78, -14.22, -13.37, -13.36, -14.94, -15.10, -14.79,
            -15.07, -15.16, -16.04,
        ];
        for i in 0..14 {
            assert!(
                (sol.vm[i] - expect_vm[i]).abs() < 5e-3,
                "Vm bus {}: {} vs {}",
                i + 1,
                sol.vm[i],
                expect_vm[i]
            );
            assert!(
                (sol.va[i] * deg - expect_va_deg[i]).abs() < 0.2,
                "Va bus {}: {} vs {}",
                i + 1,
                sol.va[i] * deg,
                expect_va_deg[i]
            );
        }
    }

    #[test]
    fn slack_covers_losses() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        // Power balance: Σ injections = Σ losses (+ shunt consumption,
        // which for case14 is a capacitor producing Q only).
        let p_total: f64 = sol.p_inj.iter().sum();
        assert!((p_total - sol.total_losses()).abs() < 1e-6);
        assert!(sol.total_losses() > 0.0);
    }

    #[test]
    fn pv_magnitudes_are_held() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        for (i, bus) in net.buses.iter().enumerate() {
            if bus.kind != BusKind::Pq {
                assert!((sol.vm[i] - bus.vm_setpoint).abs() < 1e-12, "bus {i}");
            }
        }
        assert_eq!(sol.va[net.slack()], 0.0);
    }

    #[test]
    fn injections_match_schedule_at_pq_buses() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        for (i, bus) in net.buses.iter().enumerate() {
            if i != net.slack() {
                assert!((sol.p_inj[i] - bus.p_injection()).abs() < 1e-7, "P bus {i}");
            }
            if bus.kind == BusKind::Pq {
                assert!((sol.q_inj[i] - bus.q_injection()).abs() < 1e-7, "Q bus {i}");
            }
        }
    }

    #[test]
    fn ieee118_like_converges() {
        let sol = solve(&ieee118_like(), &PfOptions::default()).unwrap();
        assert!(sol.iterations <= 8, "took {} iterations", sol.iterations);
        // Sanity: voltages near nominal at a healthy operating point.
        for (i, &v) in sol.vm.iter().enumerate() {
            assert!(v > 0.85 && v < 1.15, "bus {i} voltage {v}");
        }
    }

    #[test]
    fn synthetic_wecc_scale_converges() {
        let net = synthetic_grid(&SyntheticSpec {
            n_areas: 12,
            buses_per_area: (8, 16),
            extra_edges: 6,
            ties_per_edge: 2,
            seed: 5,
        });
        let sol = solve(&net, &PfOptions::default()).unwrap();
        assert!(sol.mismatch <= 1e-8);
    }

    #[test]
    fn wecc_scale_synthetic_converges() {
        let net = synthetic_grid(&SyntheticSpec::default());
        assert_eq!(net.n_buses(), 753);
        let opts = PfOptions::default();
        let sol = solve(&net, &opts).unwrap();
        assert!(sol.mismatch <= opts.tol);
        assert!(sol.iterations <= 8, "took {} iterations", sol.iterations);
    }

    /// The Newton Jacobian of `net` at `(vm, va)` as the model fills it,
    /// reassembled on its value pattern: exact zeros dropped, as a `Coo`
    /// does.
    fn jacobian_at(net: &Network, vm: &[f64], va: &[f64]) -> Csc {
        let model = PfModel::new(net);
        let (p, q) = bus_injections(&model.ybus, vm, va);
        let mut jac = model.jac.clone();
        model.fill_jacobian(&mut jac, &model.ybus, vm, va, &p, &q);
        let mut coo = Coo::new(jac.nrows(), jac.ncols());
        for c in 0..jac.ncols() {
            let (rows, vals) = jac.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                coo.push(r, c, v);
            }
        }
        coo.to_csr().to_csc()
    }

    fn flat_start(net: &Network) -> (Vec<f64>, Vec<f64>) {
        let vm = net
            .buses
            .iter()
            .map(|b| if b.kind == BusKind::Pq { 1.0 } else { b.vm_setpoint })
            .collect();
        (vm, vec![0.0; net.n_buses()])
    }

    /// `‖J·x − b‖∞ / ‖b‖∞` for the solve of `J·x = b` over `sym`.
    fn relative_residual(sym: &Arc<LuSymbolic>, jac: &Csc) -> f64 {
        let b: Vec<f64> = (0..jac.nrows()).map(|i| 1.0 + (i as f64).sin()).collect();
        let x = SparseLu::factor_with_symbolic(Arc::clone(sym), jac, 1.0).unwrap().solve(&b);
        let mut jx = vec![0.0; b.len()];
        jac.spmv(&x, &mut jx);
        let err = jx.iter().zip(&b).fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        err / b.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    #[test]
    fn ordered_lu_keeps_the_ieee118_jacobian_sparse() {
        // 217 columns, 1 651 nonzeros. Factored in natural order the
        // flat-start Jacobian fills to 11 188 nonzeros and the one at the
        // solution to 22 256 (47 % of dense).
        let net = ieee118_like();
        let (vm, va) = flat_start(&net);
        let sol = solve(&net, &PfOptions::default()).unwrap();
        for jac in [jacobian_at(&net, &vm, &va), jacobian_at(&net, &sol.vm, &sol.va)] {
            assert_eq!((jac.ncols(), jac.nnz()), (217, 1651));
            let lu = SparseLu::factor(&jac, 1.0).unwrap();
            assert!(lu.factor_nnz() <= 4000, "L+U holds {} nonzeros", lu.factor_nnz());
        }
    }

    #[test]
    fn one_analysis_factors_outage_and_flat_start_jacobians() {
        for net in [ieee14(), ieee118_like()] {
            let base = solve(&net, &PfOptions::default()).unwrap();
            let base_jac = jacobian_at(&net, &base.vm, &base.va);
            let sym = Arc::new(LuSymbolic::analyze(&base_jac));
            assert!(relative_residual(&sym, &base_jac) <= 1e-10);

            // (a) One branch away from the slack out, same state: a smaller
            // Jacobian pattern.
            let slack = net.slack();
            let k = (0..net.n_branches())
                .find(|&k| {
                    let mut post = net.clone();
                    let br = post.branches.remove(k);
                    br.from != slack && br.to != slack && post.is_connected()
                })
                .expect("a survivable outage");
            let mut post = net.clone();
            post.branches.remove(k);
            let post_jac = jacobian_at(&post, &base.vm, &base.va);
            assert!(post_jac.nnz() < base_jac.nnz());
            assert!(relative_residual(&sym, &post_jac) <= 1e-10);

            // (b) The flat start: zero-resistance branches contribute exact
            // zeros, which the assembled matrix drops.
            let (vm, va) = flat_start(&net);
            let flat_jac = jacobian_at(&net, &vm, &va);
            if net.branches.iter().any(|b| b.r == 0.0) {
                assert!(flat_jac.nnz() < base_jac.nnz(), "flat start lost no entries");
            }
            assert!(relative_residual(&sym, &flat_jac) <= 1e-10);
        }
    }

    #[test]
    fn warm_start_from_solution_converges_immediately() {
        let net = ieee14();
        let base = solve(&net, &PfOptions::default()).unwrap();
        let warm = solve_warm(&net, &PfOptions::default(), &base.vm, &base.va).unwrap();
        assert_eq!(warm.iterations, 0, "restarting at the solution is free");
        for (a, b) in warm.vm.iter().zip(&base.vm) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn warm_start_matches_flat_start_solution() {
        // Perturb the base state and re-solve: the warm path must land on
        // the same operating point as the flat start, in no more iterations.
        let net = ieee118_like();
        let flat = solve(&net, &PfOptions::default()).unwrap();
        let vm0: Vec<f64> = flat.vm.iter().map(|v| v * 1.01).collect();
        let va0: Vec<f64> = flat.va.iter().map(|a| a + 0.02).collect();
        let warm = solve_warm(&net, &PfOptions::default(), &vm0, &va0).unwrap();
        assert!(warm.iterations <= flat.iterations, "{} > {}", warm.iterations, flat.iterations);
        for i in 0..net.n_buses() {
            assert!((warm.vm[i] - flat.vm[i]).abs() < 1e-8, "vm bus {i}");
            assert!((warm.va[i] - flat.va[i]).abs() < 1e-8, "va bus {i}");
        }
        assert_eq!(warm.va[net.slack()], 0.0);
    }

    #[test]
    fn warm_start_clamps_controlled_magnitudes() {
        let net = ieee14();
        let base = solve(&net, &PfOptions::default()).unwrap();
        // Corrupt the PV/slack magnitudes and shift all angles; sanitation
        // must clamp the former and re-reference the latter.
        let vm0: Vec<f64> = base.vm.iter().map(|v| v + 0.3).collect();
        let va0: Vec<f64> = base.va.iter().map(|a| a + 1.0).collect();
        let warm = solve_warm(&net, &PfOptions::default(), &vm0, &va0).unwrap();
        for (i, bus) in net.buses.iter().enumerate() {
            if bus.kind != BusKind::Pq {
                assert!((warm.vm[i] - bus.vm_setpoint).abs() < 1e-12, "bus {i}");
            }
        }
        assert_eq!(warm.va[net.slack()], 0.0);
    }

    #[test]
    fn one_model_solves_every_outage_like_the_branch_removed_network() {
        let opts = PfOptions::default();
        for net in [ieee14(), ieee118_like()] {
            let base = solve(&net, &opts).unwrap();
            let model = PfModel::new(&net);
            for k in 0..net.n_branches() {
                let mut post = net.clone();
                post.branches.remove(k);
                if !post.is_connected() {
                    continue;
                }
                let want = solve_warm(&post, &opts, &base.vm, &base.va).unwrap();
                let got = model.solve(Some(k), Some((&base.vm, &base.va)), &opts).unwrap();
                assert_eq!(got.iterations, want.iterations, "branch {k}");
                for i in 0..net.n_buses() {
                    assert!((got.vm[i] - want.vm[i]).abs() <= 1e-10, "branch {k}: vm bus {i}");
                    assert!((got.va[i] - want.va[i]).abs() <= 1e-10, "branch {k}: va bus {i}");
                }
                // Flows stay in base numbering; the open branch carries none.
                assert_eq!(got.flows.len(), net.n_branches());
                assert_eq!(got.flows[k].p_from, 0.0);
                for (kk, w) in want.flows.iter().enumerate() {
                    let g = &got.flows[if kk >= k { kk + 1 } else { kk }];
                    assert!((g.p_from - w.p_from).abs() <= 1e-8, "branch {k}: flow {kk}");
                    assert!((g.q_to - w.q_to).abs() <= 1e-8, "branch {k}: flow {kk}");
                }
            }
        }
    }

    #[test]
    fn an_islanding_outage_leaves_exact_zeros_and_no_solution() {
        // IEEE-14 branch 13 (7-8) is bus 8's only connection.
        let net = ieee14();
        let base = solve(&net, &PfOptions::default()).unwrap();
        let model = PfModel::new(&net);
        let out = &model.branches[13];
        let ybus = model.ybus_without(13);
        for &s in &out.slots[1..3] {
            assert_eq!(ybus.csr_parts().2[s], Cplx::ZERO, "off-diagonal slot {s}");
        }
        assert_eq!(ybus.get(out.to, out.to), model.shunt[out.to]);
        assert_eq!(model.shunt[out.to], Cplx::ZERO, "bus 8 carries no shunt");
        assert!(matches!(
            model.solve(Some(13), Some((&base.vm, &base.va)), &PfOptions::default()),
            Err(PfError::SingularJacobian(_))
        ));
    }

    #[test]
    fn infeasible_case_reports_nonconvergence() {
        let mut net = ieee14();
        // Absurd load forces divergence or a singular Jacobian.
        for b in &mut net.buses {
            b.pd *= 100.0;
        }
        assert!(solve(&net, &PfOptions::default()).is_err());
    }
}
