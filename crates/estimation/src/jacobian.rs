//! State space, `h(x)` evaluation, and sparse Jacobian assembly.
//!
//! The state is the polar voltage at every bus: angles `θ` and magnitudes
//! `V`. Two reference conventions are supported:
//!
//! * **Slack-referenced** ([`StateSpace::with_reference`]): one bus angle is
//!   fixed (classical centralized SE);
//! * **PMU-referenced** ([`StateSpace::full`]): all angles are unknowns and
//!   synchronized PMU angle measurements anchor the frame — the convention
//!   the distributed estimator relies on (Jiang et al. \[5\]).

use pgse_grid::{BranchAdmittance, Network, Ybus};
use pgse_powerflow::equations::{
    branch_flow_at, branch_flows, bus_injections_into, from_flow_derivatives_at,
    injection_derivatives_at, BranchFlow,
};
use pgse_sparsela::{Coo, Csr};

use crate::measurement::{FlowSide, MeasurementKind, MeasurementSet};

/// Maps bus angles/magnitudes to positions in the state vector.
#[derive(Debug, Clone)]
pub struct StateSpace {
    n: usize,
    /// Angle-variable position per bus; `usize::MAX` for the reference bus.
    th_pos: Vec<usize>,
    /// Magnitude-variable position per bus.
    v_pos: Vec<usize>,
    dim: usize,
}

impl StateSpace {
    /// All angles and magnitudes unknown (PMU-anchored frame).
    pub fn full(n: usize) -> Self {
        let th_pos: Vec<usize> = (0..n).collect();
        let v_pos: Vec<usize> = (n..2 * n).collect();
        StateSpace { n, th_pos, v_pos, dim: 2 * n }
    }

    /// Angle at `ref_bus` fixed to zero; all other angles and every
    /// magnitude unknown.
    pub fn with_reference(n: usize, ref_bus: usize) -> Self {
        assert!(ref_bus < n, "reference bus out of range");
        let mut th_pos = vec![usize::MAX; n];
        let mut k = 0usize;
        for (i, pos) in th_pos.iter_mut().enumerate() {
            if i != ref_bus {
                *pos = k;
                k += 1;
            }
        }
        let v_pos: Vec<usize> = (k..k + n).collect();
        StateSpace { n, th_pos, v_pos, dim: 2 * n - 1 }
    }

    /// Number of buses.
    pub fn n_buses(&self) -> usize {
        self.n
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// State-vector position of bus `i`'s angle, if it is a variable.
    pub fn angle_pos(&self, i: usize) -> Option<usize> {
        let p = self.th_pos[i];
        (p != usize::MAX).then_some(p)
    }

    /// State-vector position of bus `i`'s magnitude.
    pub fn mag_pos(&self, i: usize) -> usize {
        self.v_pos[i]
    }

    /// Applies the update `x ← x + Δx` onto the voltage profile.
    pub fn apply_update(&self, dx: &[f64], vm: &mut [f64], va: &mut [f64]) {
        debug_assert_eq!(dx.len(), self.dim);
        for i in 0..self.n {
            if let Some(p) = self.angle_pos(i) {
                va[i] += dx[p];
            }
            vm[i] += dx[self.v_pos[i]];
        }
    }
}

/// The terminal flows of every branch of `net` at `(vm, va)`; a branch
/// `ybus` holds open ([`Ybus::open_branches`]) carries exactly none.
pub fn live_branch_flows(net: &Network, ybus: &Ybus, vm: &[f64], va: &[f64]) -> Vec<BranchFlow> {
    let mut flows = branch_flows(net, vm, va);
    for &k in ybus.open_branches() {
        flows[k] = BranchFlow::default();
    }
    flows
}

/// One branch as a linearization reads it: its ends, its two-port, and
/// the admittance slots whose angles are its own.
#[derive(Debug, Clone)]
struct Port {
    from: usize,
    to: usize,
    y: BranchAdmittance,
    /// Slot of `Y[from][to]` ([`Ybus::csr_parts`] order): its angle is `θ_ft`.
    ft: usize,
    /// Slot of `Y[to][from]`: its angle is `θ_tf`, the to side's `θ_ft`.
    tf: usize,
    open: bool,
}

/// The network half of a linearization, built once per estimator: every
/// branch's two-port (no [`BranchAdmittance::of`] per iteration), the
/// admittance slots that carry its angle, and the open-branch mask of the
/// [`Ybus`] it was built on.
#[derive(Debug, Clone)]
pub(crate) struct BranchPorts {
    ports: Vec<Port>,
}

impl BranchPorts {
    /// The ports of `net`'s branches on `ybus`, which must be built from
    /// `net` (any branch status).
    pub(crate) fn new(net: &Network, ybus: &Ybus) -> Self {
        let (row_ptr, col_idx, _) = ybus.csr_parts();
        let slot = |i: usize, j: usize| {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            lo + col_idx[lo..hi].binary_search(&j).expect("every branch has its Ybus slots")
        };
        let ports = net
            .branches
            .iter()
            .map(|br| Port {
                from: br.from,
                to: br.to,
                y: BranchAdmittance::of(br),
                ft: slot(br.from, br.to),
                tf: slot(br.to, br.from),
                open: false,
            })
            .collect();
        BranchPorts { ports }.with_open(ybus.open_branches())
    }

    /// These ports with exactly the branches `open` out of service.
    pub(crate) fn with_open(&self, open: &[usize]) -> Self {
        let mut ports = self.ports.clone();
        for p in &mut ports {
            p.open = false;
        }
        for &k in open {
            ports[k].open = true;
        }
        BranchPorts { ports }
    }

    /// `h` of one measurement at `(vm, va)`, with `at` evaluated there.
    pub(crate) fn h(&self, kind: MeasurementKind, vm: &[f64], va: &[f64], at: &PointTrig) -> f64 {
        match kind {
            MeasurementKind::Vmag { bus } | MeasurementKind::PmuVmag { bus } => vm[bus],
            MeasurementKind::PmuAngle { bus } => va[bus],
            MeasurementKind::Pinj { bus } => at.p[bus],
            MeasurementKind::Qinj { bus } => at.q[bus],
            MeasurementKind::Pflow { branch, side } | MeasurementKind::Qflow { branch, side } => {
                let port = &self.ports[branch];
                if port.open {
                    return 0.0;
                }
                let f = branch_flow_at(&port.y, vm[port.from], vm[port.to], at.trig[port.ft]);
                match (kind, side) {
                    (MeasurementKind::Pflow { .. }, FlowSide::From) => f.p_from,
                    (MeasurementKind::Pflow { .. }, FlowSide::To) => f.p_to,
                    (_, FlowSide::From) => f.q_from,
                    (_, FlowSide::To) => f.q_to,
                }
            }
        }
    }
}

/// The point half of a linearization: one pass over the stored admittances
/// at `(vm, va)` keeps each entry's `(sin θ_ij, cos θ_ij)` and the bus
/// injections `P`, `Q` it sums — everything `h` and `H` read that is not a
/// voltage. Buffers are reused, so a warm evaluation allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct PointTrig {
    trig: Vec<(f64, f64)>,
    p: Vec<f64>,
    q: Vec<f64>,
}

impl PointTrig {
    /// Evaluates the pass at `(vm, va)`.
    pub(crate) fn evaluate(&mut self, ybus: &Ybus, vm: &[f64], va: &[f64]) {
        let n = ybus.dim();
        self.trig.resize(ybus.nnz(), (0.0, 0.0));
        self.p.resize(n, 0.0);
        self.q.resize(n, 0.0);
        let trig = &mut self.trig;
        bus_injections_into(ybus, vm, va, &mut self.p, &mut self.q, |s, sc| trig[s] = sc);
    }

    /// A fresh evaluation at `(vm, va)`.
    fn at(ybus: &Ybus, vm: &[f64], va: &[f64]) -> Self {
        let mut at = PointTrig::default();
        at.evaluate(ybus, vm, va);
        at
    }
}

/// Walks every Jacobian entry at `(vm, va)` in the canonical assembly
/// order, feeding `(row, col, value)` to `sink`; `at` is evaluated at
/// `(vm, va)` on `ybus`, and `ports` built on `ybus`. The *order and
/// positions* of the emitted entries depend only on the measurement kinds,
/// the Ybus pattern, and the state space — never on the values or on which
/// rows are active — which is what lets [`JacobianPattern`] replay a
/// recorded emission order frame after frame. Inactive rows are emitted
/// too; the callers zero or drop them. An open branch's flow rows emit
/// exact zeros at their usual positions, and its admittance slots are
/// stored zeros ([`Ybus::with_branch_status`]), so a switch changes no
/// position.
fn for_each_jacobian_entry(
    ports: &BranchPorts,
    ybus: &Ybus,
    set: &MeasurementSet,
    space: &StateSpace,
    vm: &[f64],
    at: &PointTrig,
    mut sink: impl FnMut(usize, usize, f64),
) {
    let (row_ptr, col_idx, y) = ybus.csr_parts();
    for (row, m) in set.as_slice().iter().enumerate() {
        // A column that is `None` (the reference angle) is not emitted.
        let mut emit = |col: Option<usize>, v: f64| {
            if let Some(col) = col {
                sink(row, col, v);
            }
        };
        match m.kind {
            MeasurementKind::Vmag { bus } | MeasurementKind::PmuVmag { bus } => {
                emit(Some(space.mag_pos(bus)), 1.0);
            }
            MeasurementKind::PmuAngle { bus } => {
                emit(space.angle_pos(bus), 1.0);
            }
            MeasurementKind::Pinj { bus } | MeasurementKind::Qinj { bus } => {
                let is_p = matches!(m.kind, MeasurementKind::Pinj { .. });
                let (p, q) = (at.p[bus], at.q[bus]);
                for s in row_ptr[bus]..row_ptr[bus + 1] {
                    let j = col_idx[s];
                    let (dp_dth, dp_dv, dq_dth, dq_dv) =
                        injection_derivatives_at(y[s], vm, p, q, bus, j, at.trig[s]);
                    let (dth, dv) = if is_p { (dp_dth, dp_dv) } else { (dq_dth, dq_dv) };
                    emit(space.angle_pos(j), dth);
                    emit(Some(space.mag_pos(j)), dv);
                }
            }
            MeasurementKind::Pflow { branch, side } | MeasurementKind::Qflow { branch, side } => {
                let is_p = matches!(m.kind, MeasurementKind::Pflow { .. });
                let port = &ports.ports[branch];
                let y = port.y;
                // The to side is the from side of the reversed two-port.
                let (yy, f, t, sc) = match side {
                    FlowSide::From => (y, port.from, port.to, at.trig[port.ft]),
                    FlowSide::To => (
                        BranchAdmittance { yff: y.ytt, yft: y.ytf, ytf: y.yft, ytt: y.yff },
                        port.to,
                        port.from,
                        at.trig[port.tf],
                    ),
                };
                let (dp, dq) = from_flow_derivatives_at(&yy, vm[f], vm[t], sc);
                let d = if port.open {
                    [0.0; 4]
                } else if is_p {
                    dp
                } else {
                    dq
                };
                emit(space.angle_pos(f), d[0]);
                emit(Some(space.mag_pos(f)), d[1]);
                emit(space.angle_pos(t), d[2]);
                emit(Some(space.mag_pos(t)), d[3]);
            }
        }
    }
}

/// Assembles the sparse measurement Jacobian `H = ∂h/∂x` at `(vm, va)`.
/// An inactive row is empty (the assembly drops exact zeros).
pub fn assemble_jacobian(
    net: &Network,
    ybus: &Ybus,
    set: &MeasurementSet,
    space: &StateSpace,
    vm: &[f64],
    va: &[f64],
) -> Csr {
    let mut coo = Coo::with_capacity(set.len(), space.dim(), 8 * set.len());
    let (ports, at) = (BranchPorts::new(net, ybus), PointTrig::at(ybus, vm, va));
    for_each_jacobian_entry(&ports, ybus, set, space, vm, &at, |r, c, v| {
        if set.is_active(r) {
            coo.push(r, c, v);
        }
    });
    coo.to_csr()
}

/// The cached sparsity pattern of one measurement Jacobian.
///
/// Built once per (topology, telemetry-plan) pair, it records the CSR
/// structure of `H` *including structural zeros* (entries whose derivative
/// happens to vanish at a particular operating point are kept as explicit
/// zeros, so the pattern is stable across frames) plus a permutation from
/// canonical emission order to CSR value slots. A warm-frame assembly is
/// then a zero-fill plus one scatter pass over the point's precomputed
/// trigonometry and injections (`PointTrig`) — no COO sort, no dedup, no
/// second pass over the admittances, no allocation.
#[derive(Debug, Clone)]
pub struct JacobianPattern {
    /// The measurement kinds, row by row, the pattern was built for.
    kinds: Vec<MeasurementKind>,
    /// The admittance pattern it was built against.
    ybus_row_ptr: Vec<usize>,
    ybus_col_idx: Vec<usize>,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// Emission order → CSR value index (duplicates map to the same slot
    /// and accumulate).
    perm: Vec<usize>,
    ncols: usize,
}

impl JacobianPattern {
    /// Runs the symbolic pass: replays the assembly at a flat profile and
    /// records where every emission lands.
    pub fn new(net: &Network, ybus: &Ybus, set: &MeasurementSet, space: &StateSpace) -> Self {
        let n = space.n_buses();
        let (vm, va) = (vec![1.0; n], vec![0.0; n]);
        let mut pushes: Vec<(usize, usize)> = Vec::with_capacity(8 * set.len());
        let (ports, at) = (BranchPorts::new(net, ybus), PointTrig::at(ybus, &vm, &va));
        for_each_jacobian_entry(&ports, ybus, set, space, &vm, &at, |r, c, _| {
            pushes.push((r, c));
        });

        // Per-row sorted-unique columns.
        let nrows = set.len();
        let mut per_row: Vec<Vec<usize>> = vec![Vec::new(); nrows];
        for &(r, c) in &pushes {
            per_row[r].push(c);
        }
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(pushes.len());
        for cols in &mut per_row {
            cols.sort_unstable();
            cols.dedup();
            col_idx.extend_from_slice(cols);
            row_ptr.push(col_idx.len());
        }

        // Emission order → value slot.
        let perm = pushes
            .iter()
            .map(|&(r, c)| {
                let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
                lo + col_idx[lo..hi].binary_search(&c).expect("column recorded above")
            })
            .collect();

        let (ybus_row_ptr, ybus_col_idx, _) = ybus.csr_parts();
        JacobianPattern {
            kinds: set.as_slice().iter().map(|m| m.kind).collect(),
            ybus_row_ptr: ybus_row_ptr.to_vec(),
            ybus_col_idx: ybus_col_idx.to_vec(),
            row_ptr,
            col_idx,
            perm,
            ncols: space.dim(),
        }
    }

    /// Whether `set` and `ybus` still have the structure this pattern was
    /// built from: the same measurement kinds row by row (values, σ and
    /// row activity excluded — they change every frame without changing
    /// the pattern) and the same admittance pattern. Both inputs shape the
    /// Jacobian: a topology change that alters the Ybus pattern invalidates
    /// the cache even when the measurement set is unchanged (the staleness
    /// hole the refactorization-reuse path must never fall into). An exact
    /// comparison, run once per solve.
    pub fn matches(&self, set: &MeasurementSet, ybus: &Ybus) -> bool {
        let (row_ptr, col_idx, _) = ybus.csr_parts();
        set.len() == self.kinds.len()
            && set.as_slice().iter().zip(&self.kinds).all(|(m, k)| m.kind == *k)
            && row_ptr == self.ybus_row_ptr.as_slice()
            && col_idx == self.ybus_col_idx.as_slice()
    }

    /// Stored entries (structural zeros included).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// An all-zero Jacobian with this structure — the reusable buffer the
    /// numeric assembly scatters into.
    pub fn template(&self) -> Csr {
        Csr::from_raw(
            self.row_ptr.len() - 1,
            self.ncols,
            self.row_ptr.clone(),
            self.col_idx.clone(),
            vec![0.0; self.col_idx.len()],
        )
    }

    /// Numeric assembly at `(vm, va)` scattered into `jac`, which must
    /// carry this pattern (see [`JacobianPattern::template`]); `ports` and
    /// `at` are as [`for_each_jacobian_entry`] reads them. The rows of
    /// inactive measurements are written as zeros.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble_into(
        &self,
        ports: &BranchPorts,
        ybus: &Ybus,
        set: &MeasurementSet,
        space: &StateSpace,
        vm: &[f64],
        at: &PointTrig,
        jac: &mut Csr,
    ) {
        assert_eq!(jac.nnz(), self.col_idx.len(), "JacobianPattern: buffer nnz");
        assert_eq!(jac.row_ptr(), self.row_ptr.as_slice(), "JacobianPattern: buffer pattern");
        debug_assert!(self.matches(set, ybus), "JacobianPattern: set/ybus mismatch");
        let vals = jac.values_mut();
        vals.fill(0.0);
        let mut k = 0usize;
        let perm = &self.perm;
        for_each_jacobian_entry(ports, ybus, set, space, vm, at, |_, _, v| {
            vals[perm[k]] += v;
            k += 1;
        });
        assert_eq!(k, perm.len(), "JacobianPattern: emission count drifted");
        if set.n_active() < set.len() {
            for r in (0..set.len()).filter(|&r| !set.is_active(r)) {
                vals[self.row_ptr[r]..self.row_ptr[r + 1]].fill(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::Measurement;
    use pgse_grid::cases::ieee14;
    use pgse_powerflow::equations::bus_injections;

    /// `h(x)` as it was evaluated before the one-pass linearization, kept
    /// verbatim as the oracle: [`bus_injections`] and every branch's flow
    /// from a fresh two-port. An open branch's flows read exactly 0.
    fn evaluate_h(
        net: &Network,
        ybus: &Ybus,
        set: &MeasurementSet,
        vm: &[f64],
        va: &[f64],
    ) -> Vec<f64> {
        let (p, q) = bus_injections(ybus, vm, va);
        let flows = live_branch_flows(net, ybus, vm, va);
        set.as_slice()
            .iter()
            .map(|m| match m.kind {
                MeasurementKind::Vmag { bus } | MeasurementKind::PmuVmag { bus } => vm[bus],
                MeasurementKind::PmuAngle { bus } => va[bus],
                MeasurementKind::Pinj { bus } => p[bus],
                MeasurementKind::Qinj { bus } => q[bus],
                MeasurementKind::Pflow { branch, side } => match side {
                    FlowSide::From => flows[branch].p_from,
                    FlowSide::To => flows[branch].p_to,
                },
                MeasurementKind::Qflow { branch, side } => match side {
                    FlowSide::From => flows[branch].q_from,
                    FlowSide::To => flows[branch].q_to,
                },
            })
            .collect()
    }

    fn profile(n: usize) -> (Vec<f64>, Vec<f64>) {
        let vm: Vec<f64> = (0..n).map(|i| 1.0 + 0.03 * ((i as f64) * 0.9).sin()).collect();
        let va: Vec<f64> = (0..n).map(|i| 0.04 * ((i as f64) * 1.1).cos()).collect();
        (vm, va)
    }

    fn all_kinds_set() -> MeasurementSet {
        [
            Measurement::new(MeasurementKind::Vmag { bus: 3 }, 1.0, 0.004),
            Measurement::new(MeasurementKind::PmuVmag { bus: 0 }, 1.0, 0.002),
            Measurement::new(MeasurementKind::PmuAngle { bus: 0 }, 0.0, 0.001),
            Measurement::new(MeasurementKind::Pinj { bus: 4 }, 0.0, 0.01),
            Measurement::new(MeasurementKind::Qinj { bus: 8 }, 0.0, 0.01),
            Measurement::new(MeasurementKind::Pflow { branch: 2, side: FlowSide::From }, 0.0, 0.008),
            Measurement::new(MeasurementKind::Pflow { branch: 2, side: FlowSide::To }, 0.0, 0.008),
            Measurement::new(MeasurementKind::Qflow { branch: 9, side: FlowSide::From }, 0.0, 0.008),
            Measurement::new(MeasurementKind::Qflow { branch: 9, side: FlowSide::To }, 0.0, 0.008),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn state_space_dimensions() {
        let full = StateSpace::full(14);
        assert_eq!(full.dim(), 28);
        assert_eq!(full.angle_pos(0), Some(0));
        let refd = StateSpace::with_reference(14, 0);
        assert_eq!(refd.dim(), 27);
        assert_eq!(refd.angle_pos(0), None);
        assert_eq!(refd.angle_pos(1), Some(0));
        assert_eq!(refd.mag_pos(0), 13);
    }

    #[test]
    fn apply_update_respects_reference() {
        let space = StateSpace::with_reference(3, 1);
        let mut vm = vec![1.0; 3];
        let mut va = vec![0.0; 3];
        let dx = vec![0.01, 0.02, 0.1, 0.2, 0.3];
        space.apply_update(&dx, &mut vm, &mut va);
        assert_eq!(va, vec![0.01, 0.0, 0.02]);
        assert_eq!(vm, vec![1.1, 1.2, 1.3]);
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let net = ieee14();
        let ybus = Ybus::new(&net);
        let set = all_kinds_set();
        let space = StateSpace::full(14);
        let (vm, va) = profile(14);
        let h0 = evaluate_h(&net, &ybus, &set, &vm, &va);
        let jac = assemble_jacobian(&net, &ybus, &set, &space, &vm, &va);
        let eps = 1e-6;
        for col in 0..space.dim() {
            let mut vmp = vm.clone();
            let mut vap = va.clone();
            let mut dx = vec![0.0; space.dim()];
            dx[col] = eps;
            space.apply_update(&dx, &mut vmp, &mut vap);
            let hp = evaluate_h(&net, &ybus, &set, &vmp, &vap);
            for row in 0..set.len() {
                let fd = (hp[row] - h0[row]) / eps;
                let an = jac.get(row, col);
                assert!(
                    (fd - an).abs() < 1e-4 * an.abs().max(1.0),
                    "H[{row}][{col}]: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn reference_column_is_absent() {
        let net = ieee14();
        let ybus = Ybus::new(&net);
        let set = all_kinds_set();
        let space = StateSpace::with_reference(14, 0);
        let (vm, va) = profile(14);
        let jac = assemble_jacobian(&net, &ybus, &set, &space, &vm, &va);
        assert_eq!(jac.ncols(), 27);
        assert_eq!(jac.nrows(), set.len());
    }

    #[test]
    fn pattern_assembly_matches_fresh_assembly() {
        let net = ieee14();
        let ybus = Ybus::new(&net);
        let set = all_kinds_set();
        let space = StateSpace::full(14);
        let pattern = JacobianPattern::new(&net, &ybus, &set, &space);
        assert!(pattern.matches(&set, &ybus));
        let mut jac = pattern.template();
        // Two different operating points through the same cached pattern.
        for phase in [0.9, 1.7] {
            let vm: Vec<f64> =
                (0..14).map(|i| 1.0 + 0.03 * ((i as f64) * phase).sin()).collect();
            let va: Vec<f64> = (0..14).map(|i| 0.04 * ((i as f64) * 1.1).cos()).collect();
            let (ports, at) = (BranchPorts::new(&net, &ybus), PointTrig::at(&ybus, &vm, &va));
            pattern.assemble_into(&ports, &ybus, &set, &space, &vm, &at, &mut jac);
            let fresh = assemble_jacobian(&net, &ybus, &set, &space, &vm, &va);
            for r in 0..set.len() {
                for c in 0..space.dim() {
                    assert!(
                        (jac.get(r, c) - fresh.get(r, c)).abs() < 1e-14,
                        "H[{r}][{c}] cached {} vs fresh {}",
                        jac.get(r, c),
                        fresh.get(r, c)
                    );
                }
            }
        }
    }

    #[test]
    fn pattern_detects_changed_set_structure() {
        let net = ieee14();
        let ybus = Ybus::new(&net);
        let set = all_kinds_set();
        let space = StateSpace::full(14);
        let pattern = JacobianPattern::new(&net, &ybus, &set, &space);

        // Same values, different structure → mismatch.
        let mut grown = set.clone();
        grown.push(Measurement::new(MeasurementKind::Vmag { bus: 7 }, 1.0, 0.01));
        assert!(!pattern.matches(&grown, &ybus));

        // Same structure, different values or activity → still matches.
        let mut renoised = set.clone();
        renoised.get_mut(2).value = 0.25;
        renoised.deactivate(4);
        assert!(pattern.matches(&renoised, &ybus));

        // Same length, one kind changed → mismatch.
        let mut swapped = set.clone();
        swapped.get_mut(0).kind = MeasurementKind::Vmag { bus: 4 };
        assert!(!pattern.matches(&swapped, &ybus));
    }

    #[test]
    fn pattern_detects_changed_ybus_structure() {
        let net = ieee14();
        let ybus = Ybus::new(&net);
        let set = all_kinds_set();
        let space = StateSpace::full(14);
        let pattern = JacobianPattern::new(&net, &ybus, &set, &space);
        assert!(pattern.matches(&set, &ybus));

        // A topology change (new branch) with the *same* measurement set
        // must invalidate the cached pattern: the Jacobian of any injection
        // measurement at the touched buses gains entries.
        let mut grown = net.clone();
        let proto = grown.branches[0].clone();
        grown.branches.push(pgse_grid::Branch { from: 2, to: 11, ..proto });
        let ybus2 = Ybus::new(&grown);
        assert!(!pattern.matches(&set, &ybus2));
    }

    #[test]
    fn direct_measurements_have_unit_rows() {
        let net = ieee14();
        let ybus = Ybus::new(&net);
        let set: MeasurementSet =
            [Measurement::new(MeasurementKind::Vmag { bus: 5 }, 1.0, 0.01)].into_iter().collect();
        let space = StateSpace::full(14);
        let (vm, va) = profile(14);
        let jac = assemble_jacobian(&net, &ybus, &set, &space, &vm, &va);
        assert_eq!(jac.nnz(), 1);
        assert_eq!(jac.get(0, space.mag_pos(5)), 1.0);
    }

    /// The walk as it was before the fused kernel, kept verbatim as the
    /// oracle: its own `bus_injections`, a `Ybus::get` and a `sin_cos` per
    /// injection entry, a `BranchAdmittance::of` and an open-list scan per
    /// flow row.
    fn oracle_entries(
        net: &Network,
        ybus: &Ybus,
        set: &MeasurementSet,
        space: &StateSpace,
        vm: &[f64],
        va: &[f64],
        sink: &mut dyn FnMut(usize, usize, f64),
    ) {
        use pgse_powerflow::equations::{from_flow_derivatives, injection_derivatives};
        let (p, q) = bus_injections(ybus, vm, va);
        for (row, m) in set.as_slice().iter().enumerate() {
            let push_angle = |sink: &mut dyn FnMut(usize, usize, f64), bus: usize, v: f64| {
                if let Some(col) = space.angle_pos(bus) {
                    sink(row, col, v);
                }
            };
            match m.kind {
                MeasurementKind::Vmag { bus } | MeasurementKind::PmuVmag { bus } => {
                    sink(row, space.mag_pos(bus), 1.0);
                }
                MeasurementKind::PmuAngle { bus } => push_angle(sink, bus, 1.0),
                MeasurementKind::Pinj { bus } | MeasurementKind::Qinj { bus } => {
                    let is_p = matches!(m.kind, MeasurementKind::Pinj { .. });
                    let (cols, _) = ybus.row(bus);
                    for &j in cols {
                        let (dp_dth, dp_dv, dq_dth, dq_dv) =
                            injection_derivatives(ybus, vm, va, p[bus], q[bus], bus, j);
                        let (dth, dv) = if is_p { (dp_dth, dp_dv) } else { (dq_dth, dq_dv) };
                        push_angle(sink, j, dth);
                        sink(row, space.mag_pos(j), dv);
                    }
                }
                MeasurementKind::Pflow { branch, side }
                | MeasurementKind::Qflow { branch, side } => {
                    let is_p = matches!(m.kind, MeasurementKind::Pflow { .. });
                    let br = &net.branches[branch];
                    let y = BranchAdmittance::of(br);
                    let (yy, f, t) = match side {
                        FlowSide::From => (y, br.from, br.to),
                        FlowSide::To => (
                            BranchAdmittance { yff: y.ytt, yft: y.ytf, ytf: y.yft, ytt: y.yff },
                            br.to,
                            br.from,
                        ),
                    };
                    let (dp, dq) = from_flow_derivatives(&yy, vm[f], vm[t], va[f] - va[t]);
                    let open = ybus.open_branches().contains(&branch);
                    let d = if open {
                        [0.0; 4]
                    } else if is_p {
                        dp
                    } else {
                        dq
                    };
                    push_angle(sink, f, d[0]);
                    sink(row, space.mag_pos(f), d[1]);
                    push_angle(sink, t, d[2]);
                    sink(row, space.mag_pos(t), d[3]);
                }
            }
        }
    }

    /// Every measurement kind at every site of `net`: magnitudes and both
    /// injections at each bus, all four flows of each branch, and a PMU
    /// pair at every fifth bus.
    fn every_row(net: &Network) -> MeasurementSet {
        let mut set = MeasurementSet::new();
        for bus in 0..net.n_buses() {
            for kind in [
                MeasurementKind::Vmag { bus },
                MeasurementKind::Pinj { bus },
                MeasurementKind::Qinj { bus },
            ] {
                set.push(Measurement::new(kind, 0.5, 0.01));
            }
            if bus.is_multiple_of(5) {
                set.push(Measurement::new(MeasurementKind::PmuVmag { bus }, 1.0, 0.002));
                set.push(Measurement::new(MeasurementKind::PmuAngle { bus }, 0.0, 0.001));
            }
        }
        for branch in 0..net.n_branches() {
            for side in [FlowSide::From, FlowSide::To] {
                set.push(Measurement::new(MeasurementKind::Pflow { branch, side }, 0.1, 0.008));
                set.push(Measurement::new(MeasurementKind::Qflow { branch, side }, 0.1, 0.008));
            }
        }
        set
    }

    /// A seeded random profile around flat: `|V|` in 0.9–1.1, `θ` within
    /// ±0.3 rad.
    fn random_profile(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let vm = (0..n).map(|_| 1.0 + 0.1 * unit()).collect();
        let va = (0..n).map(|_| 0.3 * unit()).collect();
        (vm, va)
    }

    /// The kernel's `h` and `H` against [`evaluate_h`], the oracle walk and
    /// [`assemble_jacobian`], bit for bit, on `net` under `closed`.
    fn assert_kernel_is_bitwise_the_reference(net: &Network, closed: &[bool], seed: u64) {
        let n = net.n_buses();
        let ybus = Ybus::with_branch_status(net, closed);
        // As an estimator re-valued for a switch holds them: the closed
        // ports, masked.
        let ports = BranchPorts::new(net, &Ybus::new(net)).with_open(ybus.open_branches());
        let mut set = every_row(net);
        for r in (0..set.len()).step_by(7) {
            set.deactivate(r);
        }
        for space in [StateSpace::full(n), StateSpace::with_reference(n, net.slack())] {
            let pattern = JacobianPattern::new(net, &ybus, &set, &space);
            let mut jac = pattern.template();
            let mut at = PointTrig::default();
            for k in 0..3 {
                let (vm, va) = random_profile(n, seed + k);
                at.evaluate(&ybus, &vm, &va);
                let h = evaluate_h(net, &ybus, &set, &vm, &va);
                for (i, m) in set.as_slice().iter().enumerate() {
                    let got = ports.h(m.kind, &vm, &va, &at);
                    assert_eq!(got.to_bits(), h[i].to_bits(), "h row {i} ({:?})", m.kind);
                }

                pattern.assemble_into(&ports, &ybus, &set, &space, &vm, &at, &mut jac);
                let mut oracle = vec![vec![0.0f64; space.dim()]; set.len()];
                oracle_entries(net, &ybus, &set, &space, &vm, &va, &mut |r, c, v| {
                    oracle[r][c] += v;
                });
                let fresh = assemble_jacobian(net, &ybus, &set, &space, &vm, &va);
                for (r, oracle_row) in oracle.iter().enumerate() {
                    let (cols, vals) = jac.row(r);
                    for (&c, &v) in cols.iter().zip(vals) {
                        let want = if set.is_active(r) { oracle_row[c] } else { 0.0 };
                        assert_eq!(v.to_bits(), want.to_bits(), "H[{r}][{c}]");
                    }
                    // What the COO assembly stores, the pattern holds
                    // bitwise; what it drops is an exact zero there.
                    let (fcols, fvals) = fresh.row(r);
                    for (&c, &v) in fcols.iter().zip(fvals) {
                        assert_eq!(v.to_bits(), jac.get(r, c).to_bits(), "fresh H[{r}][{c}]");
                    }
                    for &c in cols.iter().filter(|c| !fcols.contains(c)) {
                        assert_eq!(jac.get(r, c), 0.0, "dropped H[{r}][{c}]");
                    }
                }
            }
        }
    }

    /// Each case closed, then with one branch open.
    fn check_case(net: &Network, open: usize, seed: u64) {
        let mut closed = vec![true; net.n_branches()];
        assert_kernel_is_bitwise_the_reference(net, &closed, seed);
        closed[open] = false;
        assert_kernel_is_bitwise_the_reference(net, &closed, seed + 100);
    }

    #[test]
    fn the_fused_kernel_is_bitwise_the_reference_on_ieee14() {
        check_case(&ieee14(), 6, 14);
    }

    #[test]
    fn the_fused_kernel_is_bitwise_the_reference_on_an_ieee118_area() {
        let (area, _) = pgse_grid::cases::ieee118_like().extract_area(2);
        check_case(&area, area.n_branches() / 2, 118);
    }

    #[test]
    fn the_fused_kernel_is_bitwise_the_reference_on_a_30_bus_tile() {
        use pgse_grid::cases::builder::{build, AreaPlan};
        let tile = build(&AreaPlan {
            name: "tile".into(),
            bus_counts: vec![30],
            area_edges: Vec::new(),
            ties_per_edge: 0,
            seed: 30,
            load_mw: (15.0, 45.0),
            chord_fraction: 0.25,
        });
        check_case(&tile, 3, 30);
    }
}
