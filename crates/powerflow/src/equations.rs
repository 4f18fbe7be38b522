//! AC power-flow arithmetic shared by the power flow and the estimator.
//!
//! All functions work on polar voltages `(vm, va)` and the sparse [`Ybus`].
//! The flow formulas use the branch two-port entries, which makes taps,
//! shifts, and charging handled uniformly: with `Yft = gft + j·bft`,
//!
//! ```text
//! P_ft = vm_f²·gff + vm_f·vm_t·(gft·cos θ_ft + bft·sin θ_ft)
//! Q_ft = −vm_f²·bff + vm_f·vm_t·(gft·sin θ_ft − bft·cos θ_ft)
//! ```

use pgse_grid::{BranchAdmittance, Network, Ybus};
use pgse_sparsela::Cplx;

/// Active/reactive flow observed at both ends of one branch (p.u.).
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchFlow {
    /// Active power entering at the from side.
    pub p_from: f64,
    /// Reactive power entering at the from side.
    pub q_from: f64,
    /// Active power entering at the to side.
    pub p_to: f64,
    /// Reactive power entering at the to side.
    pub q_to: f64,
}

impl BranchFlow {
    /// Series active-power loss on the branch.
    pub fn p_loss(&self) -> f64 {
        self.p_from + self.p_to
    }
}

/// Computes the active and reactive bus injections `P_i, Q_i` for the
/// voltage profile `(vm, va)`.
pub fn bus_injections(ybus: &Ybus, vm: &[f64], va: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = ybus.dim();
    let mut p = vec![0.0; n];
    let mut q = vec![0.0; n];
    bus_injections_into(ybus, vm, va, &mut p, &mut q, |_, _| {});
    (p, q)
}

/// [`bus_injections`] written into `p` and `q`, handing `each(s, (sin θ,
/// cos θ))` the trigonometry of every stored entry `s` (in
/// [`Ybus::csr_parts`] order, `θ = θ_i − θ_j` for row `i`, column `j`) as
/// the one pass computes it.
pub fn bus_injections_into(
    ybus: &Ybus,
    vm: &[f64],
    va: &[f64],
    p: &mut [f64],
    q: &mut [f64],
    mut each: impl FnMut(usize, (f64, f64)),
) {
    let n = ybus.dim();
    assert_eq!(vm.len(), n, "bus_injections: vm length");
    assert_eq!(va.len(), n, "bus_injections: va length");
    assert_eq!(p.len(), n, "bus_injections: p length");
    assert_eq!(q.len(), n, "bus_injections: q length");
    let row_ptr = ybus.csr_parts().0;
    for i in 0..n {
        let (cols, vals) = ybus.row(i);
        let lo = row_ptr[i];
        let mut pi = 0.0;
        let mut qi = 0.0;
        for (k, (j, y)) in cols.iter().zip(vals).enumerate() {
            let th = va[i] - va[*j];
            let (s, c) = th.sin_cos();
            each(lo + k, (s, c));
            pi += vm[*j] * (y.re * c + y.im * s);
            qi += vm[*j] * (y.re * s - y.im * c);
        }
        p[i] = vm[i] * pi;
        q[i] = vm[i] * qi;
    }
}

/// Computes the four terminal flows of every branch.
pub fn branch_flows(net: &Network, vm: &[f64], va: &[f64]) -> Vec<BranchFlow> {
    net.branches
        .iter()
        .map(|br| branch_flow(&BranchAdmittance::of(br), br.from, br.to, vm, va))
        .collect()
}

/// The terminal flows of one branch with two-port `y` between buses `f`
/// and `t`.
pub(crate) fn branch_flow(
    y: &BranchAdmittance,
    f: usize,
    t: usize,
    vm: &[f64],
    va: &[f64],
) -> BranchFlow {
    branch_flow_at(y, vm[f], vm[t], (va[f] - va[t]).sin_cos())
}

/// The terminal flows of one branch with two-port `y` (as in
/// [`branch_flows`]) given `V_f`, `V_t` and `(sin θ_ft, cos θ_ft)`, for
/// callers that already hold the angle's trigonometry.
#[inline]
pub fn branch_flow_at(
    y: &BranchAdmittance,
    vm_f: f64,
    vm_t: f64,
    (s, c): (f64, f64),
) -> BranchFlow {
    let vf2 = vm_f * vm_f;
    let vt2 = vm_t * vm_t;
    let vfvt = vm_f * vm_t;
    BranchFlow {
        p_from: vf2 * y.yff.re + vfvt * (y.yft.re * c + y.yft.im * s),
        q_from: -vf2 * y.yff.im + vfvt * (y.yft.re * s - y.yft.im * c),
        // The to-side sees the angle difference with opposite sign.
        p_to: vt2 * y.ytt.re + vfvt * (y.ytf.re * c - y.ytf.im * s),
        q_to: -vt2 * y.ytt.im + vfvt * (-y.ytf.re * s - y.ytf.im * c),
    }
}

/// Partial derivatives of the injection pair `(P_i, Q_i)` with respect to
/// the state at bus `j` (`∂/∂θ_j`, `∂/∂V_j`), given precomputed `P_i, Q_i`.
///
/// Returns `(dp_dth, dp_dv, dq_dth, dq_dv)`. `i == j` selects the diagonal
/// formulas.
#[allow(clippy::too_many_arguments)]
pub fn injection_derivatives(
    ybus: &Ybus,
    vm: &[f64],
    va: &[f64],
    p_i: f64,
    q_i: f64,
    i: usize,
    j: usize,
) -> (f64, f64, f64, f64) {
    injection_derivatives_of(ybus.get(i, j), vm, va, p_i, q_i, i, j)
}

/// [`injection_derivatives`] with the admittance `y = Y[i][j]` given, for
/// callers that walk the stored entries and need no lookup.
pub(crate) fn injection_derivatives_of(
    y: Cplx,
    vm: &[f64],
    va: &[f64],
    p_i: f64,
    q_i: f64,
    i: usize,
    j: usize,
) -> (f64, f64, f64, f64) {
    // One call per arm, so each inlined copy sees which formulas it runs.
    if i == j {
        injection_derivatives_at(y, vm, p_i, q_i, i, j, (0.0, 1.0))
    } else {
        injection_derivatives_at(y, vm, p_i, q_i, i, j, (va[i] - va[j]).sin_cos())
    }
}

/// [`injection_derivatives`] with the admittance `y = Y[i][j]` and
/// `(sin θ_ij, cos θ_ij)` given; the diagonal (`i == j`) formulas do not
/// read the trigonometry.
#[inline]
pub fn injection_derivatives_at(
    y: Cplx,
    vm: &[f64],
    p_i: f64,
    q_i: f64,
    i: usize,
    j: usize,
    (s, c): (f64, f64),
) -> (f64, f64, f64, f64) {
    let (g, b) = (y.re, y.im);
    let vi = vm[i];
    if i == j {
        (
            -q_i - b * vi * vi,
            p_i / vi + g * vi,
            p_i - g * vi * vi,
            q_i / vi - b * vi,
        )
    } else {
        let vj = vm[j];
        (
            vi * vj * (g * s - b * c),
            vi * (g * c + b * s),
            -vi * vj * (g * c + b * s),
            vi * (g * s - b * c),
        )
    }
}

/// Partial derivatives of the from-side branch flows `(P_ft, Q_ft)` of
/// `branch` with respect to `(θ_f, V_f, θ_t, V_t)`.
///
/// Returns `(dp, dq)` where each is `[d/dθ_f, d/dV_f, d/dθ_t, d/dV_t]`.
pub fn from_flow_derivatives(
    y: &BranchAdmittance,
    vm_f: f64,
    vm_t: f64,
    th_ft: f64,
) -> ([f64; 4], [f64; 4]) {
    from_flow_derivatives_at(y, vm_f, vm_t, th_ft.sin_cos())
}

/// [`from_flow_derivatives`] given `(sin θ_ft, cos θ_ft)`.
#[inline]
pub fn from_flow_derivatives_at(
    y: &BranchAdmittance,
    vm_f: f64,
    vm_t: f64,
    (s, c): (f64, f64),
) -> ([f64; 4], [f64; 4]) {
    let (gff, bff) = (y.yff.re, y.yff.im);
    let (gft, bft) = (y.yft.re, y.yft.im);
    let vfvt = vm_f * vm_t;
    let dp = [
        vfvt * (-gft * s + bft * c),
        2.0 * vm_f * gff + vm_t * (gft * c + bft * s),
        vfvt * (gft * s - bft * c),
        vm_f * (gft * c + bft * s),
    ];
    let dq = [
        vfvt * (gft * c + bft * s),
        -2.0 * vm_f * bff + vm_t * (gft * s - bft * c),
        -vfvt * (gft * c + bft * s),
        vm_f * (gft * s - bft * c),
    ];
    (dp, dq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgse_grid::cases::ieee14;
    use pgse_grid::Ybus;

    /// Central finite difference oracle for derivative checks.
    fn fd<F: Fn(&[f64], &[f64]) -> f64>(
        f: F,
        vm: &[f64],
        va: &[f64],
        wrt_v: bool,
        k: usize,
    ) -> f64 {
        let h = 1e-6;
        let mut vmp = vm.to_vec();
        let mut vam = va.to_vec();
        let mut vmm = vm.to_vec();
        let mut vap = va.to_vec();
        if wrt_v {
            vmp[k] += h;
            vmm[k] -= h;
            (f(&vmp, va) - f(&vmm, va)) / (2.0 * h)
        } else {
            vap[k] += h;
            vam[k] -= h;
            (f(vm, &vap) - f(vm, &vam)) / (2.0 * h)
        }
    }

    fn test_profile(n: usize) -> (Vec<f64>, Vec<f64>) {
        let vm: Vec<f64> = (0..n).map(|i| 1.0 + 0.02 * ((i as f64) * 0.7).sin()).collect();
        let va: Vec<f64> = (0..n).map(|i| 0.05 * ((i as f64) * 1.3).cos()).collect();
        (vm, va)
    }

    #[test]
    fn injections_match_complex_form() {
        let net = ieee14();
        let y = Ybus::new(&net);
        let (vm, va) = test_profile(14);
        let (p, q) = bus_injections(&y, &vm, &va);
        let v: Vec<_> = vm
            .iter()
            .zip(&va)
            .map(|(&m, &a)| pgse_sparsela::Cplx::from_polar(m, a))
            .collect();
        let s = y.injections(&v);
        for i in 0..14 {
            assert!((p[i] - s[i].re).abs() < 1e-12, "P at {i}");
            assert!((q[i] - s[i].im).abs() < 1e-12, "Q at {i}");
        }
    }

    #[test]
    fn flow_sums_equal_injections() {
        // Kirchhoff: the injection at a bus equals the sum of flows leaving
        // it plus the shunt consumption.
        let net = ieee14();
        let y = Ybus::new(&net);
        let (vm, va) = test_profile(14);
        let (p, q) = bus_injections(&y, &vm, &va);
        let flows = branch_flows(&net, &vm, &va);
        for i in 0..14 {
            let mut psum = 0.0;
            let mut qsum = 0.0;
            for (k, br) in net.branches.iter().enumerate() {
                if br.from == i {
                    psum += flows[k].p_from;
                    qsum += flows[k].q_from;
                }
                if br.to == i {
                    psum += flows[k].p_to;
                    qsum += flows[k].q_to;
                }
            }
            // Shunt at the bus consumes gs·V² and produces bs·V².
            let bus = &net.buses[i];
            psum += bus.gs * vm[i] * vm[i];
            qsum -= bus.bs * vm[i] * vm[i];
            assert!((p[i] - psum).abs() < 1e-10, "P mismatch at bus {i}");
            assert!((q[i] - qsum).abs() < 1e-10, "Q mismatch at bus {i}");
        }
    }

    #[test]
    fn injection_derivatives_match_finite_differences() {
        let net = ieee14();
        let y = Ybus::new(&net);
        let (vm, va) = test_profile(14);
        let (p, q) = bus_injections(&y, &vm, &va);
        for i in [0usize, 3, 8] {
            let (cols, _) = y.row(i);
            for &j in cols {
                let (dp_dth, dp_dv, dq_dth, dq_dv) =
                    injection_derivatives(&y, &vm, &va, p[i], q[i], i, j);
                let pf = |vm: &[f64], va: &[f64]| bus_injections(&y, vm, va).0[i];
                let qf = |vm: &[f64], va: &[f64]| bus_injections(&y, vm, va).1[i];
                assert!((dp_dth - fd(pf, &vm, &va, false, j)).abs() < 1e-5, "dP/dθ ({i},{j})");
                assert!((dp_dv - fd(pf, &vm, &va, true, j)).abs() < 1e-5, "dP/dV ({i},{j})");
                assert!((dq_dth - fd(qf, &vm, &va, false, j)).abs() < 1e-5, "dQ/dθ ({i},{j})");
                assert!((dq_dv - fd(qf, &vm, &va, true, j)).abs() < 1e-5, "dQ/dV ({i},{j})");
            }
        }
    }

    #[test]
    fn flow_derivatives_match_finite_differences() {
        let net = ieee14();
        let (vm, va) = test_profile(14);
        for k in [0usize, 7, 13, 19] {
            let br = &net.branches[k];
            let y = BranchAdmittance::of(br);
            let (f, t) = (br.from, br.to);
            let (dp, dq) = from_flow_derivatives(&y, vm[f], vm[t], va[f] - va[t]);
            let pflow = |vm: &[f64], va: &[f64]| branch_flows(&net, vm, va)[k].p_from;
            let qflow = |vm: &[f64], va: &[f64]| branch_flows(&net, vm, va)[k].q_from;
            for (col, (wrt_v, bus)) in
                [(false, f), (true, f), (false, t), (true, t)].into_iter().enumerate()
            {
                assert!(
                    (dp[col] - fd(pflow, &vm, &va, wrt_v, bus)).abs() < 1e-5,
                    "dP col {col} branch {k}"
                );
                assert!(
                    (dq[col] - fd(qflow, &vm, &va, wrt_v, bus)).abs() < 1e-5,
                    "dQ col {col} branch {k}"
                );
            }
        }
    }

    #[test]
    fn losses_are_nonnegative_on_resistive_lines() {
        let net = ieee14();
        let (vm, va) = test_profile(14);
        let flows = branch_flows(&net, &vm, &va);
        for (k, br) in net.branches.iter().enumerate() {
            if br.r > 0.0 {
                assert!(flows[k].p_loss() > -1e-12, "branch {k} negative loss");
            }
        }
    }
}
