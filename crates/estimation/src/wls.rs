//! The Gauss–Newton WLS estimator.
//!
//! Each iteration solves the *normal equations*
//! `G·Δx = HᵀR⁻¹·(z − h(x))` with `G = HᵀR⁻¹H` by the sparse Cholesky
//! held in the [`SolveCache`]: the first solve on a gain pattern factors
//! it, every later one refreshes the numeric values over the cached
//! symbolic analysis. There is one Gauss–Newton loop, [`GnWave`]; every
//! `estimate*` entry point drives it.

use std::sync::Arc;

use pgse_grid::{Network, Ybus};
use pgse_sparsela::{AtaSymbolic, CholSymbolic, Csr, LaError, SparseCholesky};

use crate::jacobian::{BranchPorts, JacobianPattern, PointTrig, StateSpace};
use crate::measurement::MeasurementSet;

/// Options of the Gauss–Newton loop.
#[derive(Debug, Clone, Copy)]
pub struct WlsOptions {
    /// Convergence tolerance on `‖Δx‖∞`.
    pub tol: f64,
    /// Maximum Gauss–Newton iterations.
    pub max_iter: usize,
}

impl WlsOptions {
    /// Alias of [`WlsOptions::default`]; the frozen benchmark replay
    /// (`benchmark/src/replay.rs`) still calls it.
    pub fn direct() -> Self {
        WlsOptions::default()
    }
}

impl Default for WlsOptions {
    fn default() -> Self {
        WlsOptions { tol: 1e-7, max_iter: 25 }
    }
}

/// WLS failure modes.
#[derive(Debug, Clone)]
pub enum WlsError {
    /// The gain matrix is singular/indefinite: the network is not
    /// observable with the given measurement set.
    NotObservable(String),
    /// The gain matrix or right-hand side holds a non-finite entry: an
    /// input (a value or a standard deviation) overflowed the arithmetic,
    /// which says nothing about observability.
    NonFinite(String),
    /// The inner linear solver failed.
    Solver(LaError),
    /// The Gauss–Newton loop did not reach tolerance.
    DidNotConverge { iterations: usize, last_step: f64 },
}

impl std::fmt::Display for WlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WlsError::NotObservable(e) => write!(f, "system not observable: {e}"),
            WlsError::NonFinite(e) => write!(f, "non-finite gain system: {e}"),
            WlsError::Solver(e) => write!(f, "gain solve failed: {e}"),
            WlsError::DidNotConverge { iterations, last_step } => {
                write!(f, "WLS stalled after {iterations} iterations (last step {last_step:.3e})")
            }
        }
    }
}

impl std::error::Error for WlsError {}

/// The estimator's output.
#[derive(Debug, Clone)]
pub struct StateEstimate {
    /// Estimated voltage magnitudes (p.u.).
    pub vm: Vec<f64>,
    /// Estimated voltage angles (radians).
    pub va: Vec<f64>,
    /// Gauss–Newton iterations used — the paper's `Ni`.
    pub iterations: usize,
    /// Weighted objective `J(x̂) = Σ w·r²` at the solution.
    pub objective: f64,
    /// Measurement residuals `z − h(x̂)`.
    pub residuals: Vec<f64>,
}

impl StateEstimate {
    /// Root-mean-square voltage-magnitude error against a reference profile.
    pub fn vm_rmse(&self, truth: &[f64]) -> f64 {
        rmse(&self.vm, truth)
    }

    /// Root-mean-square angle error (radians) against a reference profile.
    pub fn va_rmse(&self, truth: &[f64]) -> f64 {
        rmse(&self.va, truth)
    }
}

fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmse: length mismatch");
    let s: f64 = a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum();
    (s / a.len() as f64).sqrt()
}

/// Cross-frame solve state for [`WlsEstimator::estimate_cached`].
///
/// Holds everything that survives between frames while the topology and
/// telemetry plan stay put: the Jacobian sparsity pattern, the symbolic
/// structure of the gain matrix `G = HᵀWH`, reusable numeric buffers for
/// both, and the previous frame's solution as the warm start. Structures
/// rebuild automatically (and are counted) when the measurement set's
/// structure changes.
#[derive(Debug, Clone, Default)]
pub struct SolveCache {
    pattern: Option<JacobianPattern>,
    jac_buf: Option<Csr>,
    gain_sym: Option<AtaSymbolic>,
    gain_buf: Option<Csr>,
    /// Cached factor of the gain matrix; every gain solve on an unchanged
    /// pattern — later iterations of one solve, and warm frames — refreshes
    /// its numeric values only, bitwise identical to a from-scratch
    /// factorization at a fraction of the cost.
    chol: Option<SparseCholesky>,
    warm: Option<(Vec<f64>, Vec<f64>)>,
    /// One solve's scratch, reused so a warm solve allocates only what it
    /// returns: the set's weights, and per iteration the point half of the
    /// linearization, the weighted residuals `W·(z − h(x))` and the
    /// right-hand side `HᵀW·(z − h(x))`.
    w: Vec<f64>,
    at: PointTrig,
    wr: Vec<f64>,
    rhs: Vec<f64>,
    /// Symbolic structures built from scratch (topology/plan changes).
    pub symbolic_builds: u64,
    /// Frames that reused the cached structures.
    pub symbolic_reuses: u64,
    /// Solves seeded from a warm state.
    pub warm_solves: u64,
    /// Solves that fell back to a flat start.
    pub cold_solves: u64,
    /// Gain solves that refreshed the cached numeric factor (pattern
    /// unchanged — the cheap path).
    pub refactor_reuse: u64,
    /// Gain solves that factored from scratch (first frame, or the gain
    /// pattern changed).
    pub refactor_full: u64,
}

impl SolveCache {
    /// An empty cache; structures build lazily on first use.
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// Drops cached structures and the warm state (e.g. after a topology
    /// change the caller knows about).
    pub fn clear(&mut self) {
        self.pattern = None;
        self.jac_buf = None;
        self.gain_sym = None;
        self.gain_buf = None;
        self.chol = None;
        self.warm = None;
    }

    /// Prepares the cache for a restarted worker whose topology was
    /// verified unchanged (the checkpoint's [`StructureDescriptor`]
    /// matches): the symbolic structures are kept — saving the re-analysis
    /// the restart would otherwise pay — while all per-run numeric state
    /// (cached factor, warm start) is dropped and the counters are
    /// zeroed, as in a fresh cache. Results are unaffected either way:
    /// structures rebuild deterministically from the first frame.
    pub fn retain_structures_for_restart(&mut self) {
        self.chol = None;
        self.warm = None;
        self.symbolic_builds = 0;
        self.symbolic_reuses = 0;
        self.warm_solves = 0;
        self.cold_solves = 0;
        self.refactor_reuse = 0;
        self.refactor_full = 0;
    }

    /// The gain matrix of the last assembled iteration — its *pattern* is
    /// what a caller looks up a shared symbolic factorization by.
    pub fn gain(&self) -> Option<&Csr> {
        self.gain_buf.as_ref()
    }

    /// Clones the warm-start profile out of the cache — the checkpointable
    /// half of a streaming worker's state. `None` until a solve succeeds.
    pub fn export_warm(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        self.warm.clone()
    }

    /// Seeds the warm-start profile from a checkpoint. Symbolic structures
    /// are *not* part of a checkpoint — they rebuild deterministically from
    /// the first frame's measurement layout (one `symbolic_builds` tick),
    /// after which the restored worker converges exactly as the
    /// uninterrupted one would (see the restart-parity test in
    /// `tests/parallel_determinism.rs`).
    pub fn restore_warm(&mut self, vm: Vec<f64>, va: Vec<f64>) {
        assert_eq!(vm.len(), va.len(), "warm profile vm/va length mismatch");
        self.warm = Some((vm, va));
    }

    /// Compact identity of the cached symbolic structures, recorded in
    /// checkpoints so a restored worker can verify that its rebuilt
    /// structures match what the lost worker was running with. `None`
    /// before the first cached solve.
    pub fn structure_descriptor(&self) -> Option<StructureDescriptor> {
        let jac = self.jac_buf.as_ref()?;
        let gain = self.gain_buf.as_ref()?;
        Some(StructureDescriptor {
            jacobian_rows: jac.nrows(),
            jacobian_nnz: jac.nnz(),
            gain_dim: gain.nrows(),
            gain_nnz: gain.nnz(),
        })
    }
}

/// Shape fingerprint of a [`SolveCache`]'s symbolic structures (checkpoint
/// metadata; the structures themselves rebuild deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureDescriptor {
    /// Jacobian row count (measurements).
    pub jacobian_rows: usize,
    /// Jacobian stored nonzeros.
    pub jacobian_nnz: usize,
    /// Gain-matrix dimension (state variables).
    pub gain_dim: usize,
    /// Gain-matrix stored nonzeros.
    pub gain_nnz: usize,
}

/// Maps a failed factorization of `gain` to the estimator-level error. A
/// non-finite entry in the system is reported as such — an overflowed
/// input, not a rank defect; otherwise an SPD failure is the "not
/// observable" diagnosis and anything else a solver error. Runs only after
/// a factorization failed, so the solve path never scans the system.
fn factor_err(e: LaError, gain: &Csr, rhs: &[f64]) -> WlsError {
    if let Some(v) = gain.values().iter().chain(rhs).find(|v| !v.is_finite()) {
        return WlsError::NonFinite(format!("{v} in the gain system ({e})"));
    }
    match e {
        LaError::NotPositiveDefinite { .. } => WlsError::NotObservable(e.to_string()),
        other => WlsError::Solver(other),
    }
}

/// Solves one gain system `G·Δx = rhs` through the cache's factor slot:
/// a numeric refresh of the cached factor when its pattern matches `gain`
/// (the refresh itself checks), else a factorization from scratch that
/// replaces it. Each call ticks exactly one of `reuse`/`full`.
fn solve_gain(
    gain: &Csr,
    rhs: &[f64],
    slot: &mut Option<SparseCholesky>,
    reuse: &mut u64,
    full: &mut u64,
) -> Result<Vec<f64>, WlsError> {
    if let Some(chol) = slot.as_mut() {
        match chol.refactor(gain) {
            Ok(()) => {
                *reuse += 1;
                pgse_obs::counter_add("wls.refactor.reuse", 1);
                return Ok(chol.solve(rhs));
            }
            Err(LaError::PatternMismatch { .. }) => {}
            Err(e) => {
                // The values turned indefinite (or similar): drop the
                // factor so the next frame starts clean, and fail this
                // solve like a from-scratch one would.
                *slot = None;
                return Err(factor_err(e, gain, rhs));
            }
        }
    }
    let chol = SparseCholesky::factor(gain).map_err(|e| factor_err(e, gain, rhs))?;
    *full += 1;
    pgse_obs::counter_add("wls.refactor.full", 1);
    let x = chol.solve(rhs);
    *slot = Some(chol);
    Ok(x)
}

/// A WLS estimator bound to one (sub)network and state-space convention.
#[derive(Debug, Clone)]
pub struct WlsEstimator {
    net: Network,
    ybus: Ybus,
    /// The network half of every linearization, built with `ybus`.
    ports: BranchPorts,
    space: StateSpace,
    opts: WlsOptions,
}

impl WlsEstimator {
    /// Builds an estimator. When `set`s will carry a PMU angle reference use
    /// [`StateSpace::full`]; otherwise use a slack-referenced space.
    pub fn new(net: Network, space: StateSpace, opts: WlsOptions) -> Self {
        assert_eq!(space.n_buses(), net.n_buses(), "state space size mismatch");
        let ybus = {
            let _sp = pgse_obs::span("wls.ybus");
            Ybus::new(&net)
        };
        let ports = BranchPorts::new(&net, &ybus);
        WlsEstimator { net, ybus, ports, space, opts }
    }

    /// This estimator re-valued for a switched grid: branch `k` of
    /// [`WlsEstimator::network`] is in service iff `closed[k]`. The
    /// admittances keep their pattern ([`Ybus::with_branch_status`]) and an
    /// open branch's flow rows read exactly 0 in `h` and `H` at their usual
    /// positions, so every [`SolveCache`] built on this estimator stays
    /// valid on the copy. LNR runs on the copy itself; observability
    /// checks and restoration read it through [`WlsEstimator::ybus`].
    pub fn with_branch_status(&self, closed: &[bool]) -> WlsEstimator {
        let ybus = Ybus::with_branch_status(&self.net, closed);
        WlsEstimator {
            net: self.net.clone(),
            ports: self.ports.with_open(ybus.open_branches()),
            ybus,
            space: self.space.clone(),
            opts: self.opts,
        }
    }

    /// The network this estimator operates on.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The admittance matrix of [`WlsEstimator::network`] under this
    /// estimator's branch status, built once.
    pub fn ybus(&self) -> &Ybus {
        &self.ybus
    }

    /// The state-space convention in use.
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// Runs Gauss–Newton WLS from a flat start — the cached engine on a
    /// throwaway [`SolveCache`], so nothing survives the call.
    ///
    /// # Errors
    /// See [`WlsError`].
    pub fn estimate(&self, set: &MeasurementSet) -> Result<StateEstimate, WlsError> {
        self.estimate_cached(set, None, &mut SolveCache::new())
    }

    /// Runs WLS with cross-frame structure reuse and cache-managed warm
    /// starts — the streaming hot path.
    ///
    /// An explicit `warm` profile wins; otherwise the cache's stored state
    /// from the previous successful solve is used; otherwise flat start.
    /// Symbolic structures (Jacobian pattern + gain structure) are reused
    /// across calls and rebuilt only when `set`'s structure changes.
    ///
    /// # Errors
    /// See [`WlsError`].
    pub fn estimate_cached(
        &self,
        set: &MeasurementSet,
        warm: Option<(&[f64], &[f64])>,
        cache: &mut SolveCache,
    ) -> Result<StateEstimate, WlsError> {
        let mut est_span = pgse_obs::span("wls.estimate");
        let mut wave = self.wave_begin(set, warm, cache)?;
        while !wave.step()? {}
        est_span.record("iterations", wave.iterations());
        wave.finish()
    }

    /// The residuals `z − h(x)` of `set` at `(vm, va)`; an inactive row's
    /// residual is exactly `0.0`, whatever its `h(x)` reads.
    pub fn residuals(&self, set: &MeasurementSet, vm: &[f64], va: &[f64]) -> Vec<f64> {
        let mut r = Vec::with_capacity(set.len());
        self.residuals_into(set, vm, va, &mut PointTrig::default(), &mut r);
        r
    }

    /// [`WlsEstimator::residuals`] into `r`, evaluating `at` at `(vm, va)`
    /// on the way: the one pass over the admittances an iteration makes.
    fn residuals_into(
        &self,
        set: &MeasurementSet,
        vm: &[f64],
        va: &[f64],
        at: &mut PointTrig,
        r: &mut Vec<f64>,
    ) {
        at.evaluate(&self.ybus, vm, va);
        r.clear();
        r.extend(set.as_slice().iter().enumerate().map(|(i, m)| {
            if set.is_active(i) {
                m.value - self.ports.h(m.kind, vm, va, at)
            } else {
                0.0
            }
        }));
    }

    /// `hᵢᵀ·G⁻¹·hᵢ` for every active row `i` of `set`, with `H` and
    /// `G = HᵀWH` evaluated at `(vm, va)` in the cache's buffers (`0.0` for
    /// inactive rows) — the leverage half of a normalized residual.
    ///
    /// `G` is factored numerically over a cached symbolic analysis: the
    /// cache's own factor when its pattern matches, else `sym` when given
    /// and matching (e.g. the one a round's `BatchPlan` holds), else a
    /// fresh analysis. The factor stays in the cache, so the gain solves
    /// that follow refresh it instead of re-analysing. Each quadratic form
    /// is one forward-only sparse solve ([`SparseCholesky::inv_quad_form`]).
    ///
    /// Neither a Gauss–Newton iteration nor a gain solve: no solve counter
    /// moves.
    ///
    /// # Errors
    /// [`WlsError::NotObservable`] when the set leaves a state without an
    /// incident measurement or `G` is not positive definite.
    pub(crate) fn gain_quad_forms(
        &self,
        set: &MeasurementSet,
        vm: &[f64],
        va: &[f64],
        cache: &mut SolveCache,
        sym: Option<Arc<CholSymbolic>>,
    ) -> Result<Vec<f64>, WlsError> {
        self.ensure_structures(set, cache)?;
        let SolveCache { pattern, jac_buf, gain_sym, gain_buf, chol, w, at, .. } = cache;
        let (Some(pattern), Some(jac), Some(gain_sym), Some(gain)) =
            (pattern.as_ref(), jac_buf.as_mut(), gain_sym.as_mut(), gain_buf.as_mut())
        else {
            unreachable!("ensure_structures built every buffer");
        };
        at.evaluate(&self.ybus, vm, va);
        pattern.assemble_into(&self.ports, &self.ybus, set, &self.space, vm, at, jac);
        set.weights_into(w);
        gain_sym.compute_into(jac, w, gain);
        let fresh = |gain: &Csr| match sym {
            Some(s) if s.matches(gain) => SparseCholesky::factor_with_symbolic(s, gain),
            _ => SparseCholesky::factor(gain),
        };
        let factor = match chol.take() {
            Some(mut c) => match c.refactor(gain) {
                Err(LaError::PatternMismatch { .. }) => fresh(gain),
                refreshed => refreshed.map(|()| c),
            },
            None => fresh(gain),
        };
        let factor = factor.map_err(|e| factor_err(e, gain, &[]))?;
        let mut work = vec![0.0; factor.dim()];
        let quad = (0..set.len())
            .map(|i| {
                if !set.is_active(i) {
                    return 0.0;
                }
                let (cols, vals) = jac.row(i);
                factor.inv_quad_form(cols, vals, &mut work)
            })
            .collect();
        *chol = Some(factor);
        Ok(quad)
    }

    /// (Re)builds the cache's symbolic structures when the set's shape or
    /// the network topology (Ybus pattern) changed, returning whether it
    /// did. The Ybus check is what keeps a cached direct factor from being
    /// numerically refreshed against a stale structure after a topology
    /// change. Row activity is not part of the shape.
    fn ensure_structures(
        &self,
        set: &MeasurementSet,
        cache: &mut SolveCache,
    ) -> Result<bool, WlsError> {
        let rebuild = match &cache.pattern {
            Some(p) => !p.matches(set, &self.ybus),
            None => true,
        };
        if rebuild {
            let _sp = pgse_obs::span("wls.symbolic");
            let pattern = JacobianPattern::new(&self.net, &self.ybus, set, &self.space);
            let jac = pattern.template();
            // Structural observability on the cached pattern: it is a
            // superset of any numeric Jacobian's pattern, so a hole here is
            // a hole in every frame.
            let mut touched = vec![false; self.space.dim()];
            for &c in jac.col_idx() {
                touched[c] = true;
            }
            if let Some(hole) = touched.iter().position(|&t| !t) {
                return Err(WlsError::NotObservable(format!(
                    "state variable {hole} has no incident measurement"
                )));
            }
            let sym = AtaSymbolic::new(&jac);
            cache.gain_buf = Some(sym.g_template());
            cache.jac_buf = Some(jac);
            cache.gain_sym = Some(sym);
            cache.pattern = Some(pattern);
            cache.chol = None;
            cache.symbolic_builds += 1;
            pgse_obs::counter_add("wls.symbolic.build", 1);
        }
        Ok(rebuild)
    }

    /// Opens a resumable Gauss–Newton solve — the one GN loop of this
    /// crate. [`WlsEstimator::estimate_cached`] drives it with the
    /// estimator's own gain solver; the streaming round instead collects
    /// the `(gain, rhs)` systems of same-pattern waves, solves them as one
    /// group (`sparsela::solve_group`), and feeds each step back with
    /// [`GnWave::note_solved`] + [`GnWave::apply_step`]. Either way the
    /// per-iteration floating-point sequence is the same, so an external
    /// solver that is bitwise identical to the cached Cholesky yields
    /// bitwise-identical states and the same cache bookkeeping.
    ///
    /// On return the first iteration is already assembled: `gain()`/`rhs()`
    /// hold the first system.
    ///
    /// # Errors
    /// [`WlsError::NotObservable`] when the set has fewer active rows than
    /// states or leaves a state variable without an incident measurement.
    pub fn wave_begin<'a>(
        &'a self,
        set: &'a MeasurementSet,
        warm: Option<(&[f64], &[f64])>,
        cache: &'a mut SolveCache,
    ) -> Result<GnWave<'a>, WlsError> {
        let n = self.net.n_buses();
        if set.n_active() < self.space.dim() {
            return Err(WlsError::NotObservable(format!(
                "{} measurements for {} state variables",
                set.n_active(),
                self.space.dim()
            )));
        }
        if !self.ensure_structures(set, cache)? {
            cache.symbolic_reuses += 1;
            pgse_obs::counter_add("wls.symbolic.reuse", 1);
        }
        let warm_used = warm.is_some() || cache.warm.is_some();
        let (vm, va) = match (warm, &cache.warm) {
            (Some((wm, wa)), _) => (wm.to_vec(), wa.to_vec()),
            (None, Some((wm, wa))) => (wm.clone(), wa.clone()),
            (None, None) => (vec![1.0; n], vec![0.0; n]),
        };
        if warm_used {
            cache.warm_solves += 1;
            pgse_obs::counter_add("wls.warm_starts", 1);
        } else {
            cache.cold_solves += 1;
        }
        set.weights_into(&mut cache.w);
        let mut wave = GnWave {
            est: self,
            set,
            cache,
            vm,
            va,
            iter: 0,
            last_step: f64::INFINITY,
            converged: false,
        };
        wave.assemble();
        Ok(wave)
    }
}

/// One area's in-flight Gauss–Newton solve, created by
/// [`WlsEstimator::wave_begin`]. [`WlsEstimator::estimate_cached`] steps
/// it with the estimator's own gain solver; with the linear solves
/// externalized the driver loop is:
///
/// 1. read [`GnWave::gain`] / [`GnWave::rhs`] (collect across waves),
/// 2. solve externally (e.g. as lanes of one batched factorization),
/// 3. [`GnWave::note_solved`] + [`GnWave::apply_step`] — which assembles
///    the next iteration unless the wave is [`GnWave::done`].
///
/// When done, [`GnWave::finish`] closes the solve (residuals, objective,
/// warm-state update, `wls.gn_iterations`).
pub struct GnWave<'a> {
    est: &'a WlsEstimator,
    set: &'a MeasurementSet,
    /// Holds the set's weights (`w`), fixed for the solve, and the
    /// iteration's buffers.
    cache: &'a mut SolveCache,
    vm: Vec<f64>,
    va: Vec<f64>,
    iter: usize,
    last_step: f64,
    converged: bool,
}

impl<'a> GnWave<'a> {
    /// Assembles the next iteration's Jacobian, right-hand side, and gain
    /// matrix into the cache buffers: one pass over the admittances at the
    /// current point, then `h`, `H` and `G = HᵀWH` from it, allocating
    /// nothing.
    fn assemble(&mut self) {
        self.iter += 1;
        let est = self.est;
        let SolveCache { pattern, jac_buf, gain_sym, gain_buf, w, at, wr, rhs, .. } =
            &mut *self.cache;
        let pattern = pattern.as_ref().expect("prepared by wave_begin");
        let gain_sym = gain_sym.as_mut().expect("prepared by wave_begin");
        let jac = jac_buf.as_mut().expect("prepared by wave_begin");
        let gain = gain_buf.as_mut().expect("prepared by wave_begin");
        {
            let _sp = pgse_obs::span("wls.jacobian");
            est.residuals_into(self.set, &self.vm, &self.va, at, wr);
            pattern.assemble_into(&est.ports, &est.ybus, self.set, &est.space, &self.vm, at, jac);
        }
        for (ri, wi) in wr.iter_mut().zip(w.iter()) {
            *ri *= wi;
        }
        rhs.resize(est.space.dim(), 0.0);
        jac.spmv_transpose(wr, rhs);
        {
            let _sp = pgse_obs::span("wls.gain");
            gain_sym.compute_into(jac, w, gain);
        }
    }

    /// The current iteration's gain matrix `G = HᵀWH`.
    pub fn gain(&self) -> &Csr {
        self.cache.gain_buf.as_ref().expect("assembled")
    }

    /// The current iteration's right-hand side `HᵀWr`.
    pub fn rhs(&self) -> &[f64] {
        &self.cache.rhs
    }

    /// Records how the external solver handled this iteration's system —
    /// `symbolic_reused: true` for a numeric pass over a cached symbolic
    /// analysis (the batched analogue of a factor refresh), `false` for a
    /// full analysis — keeping the cache's
    /// `refactor_reuse + refactor_full == gn_iterations` identity exact.
    pub fn note_solved(&mut self, symbolic_reused: bool) {
        if symbolic_reused {
            self.cache.refactor_reuse += 1;
            pgse_obs::counter_add("wls.refactor.reuse", 1);
        } else {
            self.cache.refactor_full += 1;
            pgse_obs::counter_add("wls.refactor.full", 1);
        }
    }

    /// Solves the current gain system against the cache's factor slot,
    /// then advances like [`GnWave::apply_step`]. Returns [`GnWave::done`].
    ///
    /// # Errors
    /// See [`WlsError`] — the gain solve's failures.
    fn step(&mut self) -> Result<bool, WlsError> {
        let dx = {
            let _sp = pgse_obs::span("wls.gain_solve");
            let SolveCache { gain_buf, chol, refactor_reuse, refactor_full, rhs, .. } =
                &mut *self.cache;
            let gain = gain_buf.as_ref().expect("assembled");
            solve_gain(gain, rhs, chol, refactor_reuse, refactor_full)?
        };
        Ok(self.apply_step(&dx))
    }

    /// Applies the externally solved step `Δx`, then assembles the next
    /// iteration unless converged or out of iterations. Returns
    /// [`GnWave::done`]. A non-finite `Δx` is not applied and ends the
    /// wave: [`GnWave::finish`] then fails.
    pub fn apply_step(&mut self, dx: &[f64]) -> bool {
        if !dx.iter().all(|v| v.is_finite()) {
            self.last_step = f64::NAN;
            return true;
        }
        self.est.space.apply_update(dx, &mut self.vm, &mut self.va);
        self.last_step = dx.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        self.converged = self.last_step <= self.est.opts.tol;
        if !self.done() {
            self.assemble();
        }
        self.done()
    }

    /// Whether the wave needs no further solves (converged, exhausted, or
    /// ended by a non-finite step).
    pub fn done(&self) -> bool {
        self.converged || self.last_step.is_nan() || self.iter >= self.est.opts.max_iter
    }

    /// Gauss–Newton iterations assembled so far.
    pub fn iterations(&self) -> usize {
        self.iter
    }

    /// Closes the solve: on convergence computes residuals and objective,
    /// stores the warm state in the cache, and returns the estimate. Ticks
    /// `wls.gn_iterations` either way.
    ///
    /// # Errors
    /// [`WlsError::NonFinite`] when a step was not finite (the warm state
    /// is left alone); [`WlsError::DidNotConverge`] when the iteration
    /// budget ran out.
    pub fn finish(self) -> Result<StateEstimate, WlsError> {
        pgse_obs::counter_add("wls.gn_iterations", self.iter as u64);
        if self.last_step.is_nan() {
            let step = self.iter;
            return Err(WlsError::NonFinite(format!("Gauss–Newton step {step} is not finite")));
        }
        if !self.converged {
            return Err(WlsError::DidNotConverge {
                iterations: self.iter,
                last_step: self.last_step,
            });
        }
        let mut residuals = Vec::with_capacity(self.set.len());
        self.est.residuals_into(self.set, &self.vm, &self.va, &mut self.cache.at, &mut residuals);
        let objective = residuals.iter().zip(&self.cache.w).map(|(ri, wi)| ri * ri * wi).sum();
        match &mut self.cache.warm {
            Some((vm, va)) => {
                vm.clone_from(&self.vm);
                va.clone_from(&self.va);
            }
            warm => *warm = Some((self.vm.clone(), self.va.clone())),
        }
        Ok(StateEstimate {
            vm: self.vm,
            va: self.va,
            iterations: self.iter,
            objective,
            residuals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::{FlowSide, Measurement, MeasurementKind};
    use pgse_grid::cases::ieee14;
    use pgse_powerflow::{solve, PfOptions};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts this thread's allocations, so a test can show a warm
    /// iteration allocates nothing.
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

    /// Exact (noise-free) measurement set from the solved power flow.
    fn exact_set(net: &pgse_grid::Network, pmu_buses: &[usize]) -> MeasurementSet {
        let sol = solve(net, &PfOptions::default()).unwrap();
        let mut set = MeasurementSet::new();
        for i in 0..net.n_buses() {
            set.push(Measurement::new(MeasurementKind::Vmag { bus: i }, sol.vm[i], 0.004));
            set.push(Measurement::new(MeasurementKind::Pinj { bus: i }, sol.p_inj[i], 0.01));
            set.push(Measurement::new(MeasurementKind::Qinj { bus: i }, sol.q_inj[i], 0.01));
        }
        for (k, f) in sol.flows.iter().enumerate() {
            set.push(Measurement::new(
                MeasurementKind::Pflow { branch: k, side: FlowSide::From },
                f.p_from,
                0.008,
            ));
            set.push(Measurement::new(
                MeasurementKind::Qflow { branch: k, side: FlowSide::From },
                f.q_from,
                0.008,
            ));
        }
        for &b in pmu_buses {
            set.push(Measurement::new(MeasurementKind::PmuVmag { bus: b }, sol.vm[b], 0.002));
            set.push(Measurement::new(MeasurementKind::PmuAngle { bus: b }, sol.va[b], 0.001));
        }
        set
    }

    #[test]
    fn zero_noise_recovers_exact_state_slack_referenced() {
        let net = ieee14();
        let truth = solve(&net, &PfOptions::default()).unwrap();
        let set = exact_set(&net, &[]);
        let est = WlsEstimator::new(
            net.clone(),
            StateSpace::with_reference(14, net.slack()),
            WlsOptions::default(),
        );
        let out = est.estimate(&set).unwrap();
        assert!(out.vm_rmse(&truth.vm) < 1e-7, "vm rmse {}", out.vm_rmse(&truth.vm));
        assert!(out.va_rmse(&truth.va) < 1e-7, "va rmse {}", out.va_rmse(&truth.va));
        assert!(out.objective < 1e-8);
    }

    #[test]
    fn zero_noise_recovers_exact_state_pmu_referenced() {
        let net = ieee14();
        let truth = solve(&net, &PfOptions::default()).unwrap();
        let set = exact_set(&net, &[0, 5]);
        let est = WlsEstimator::new(net, StateSpace::full(14), WlsOptions::default());
        let out = est.estimate(&set).unwrap();
        assert!(out.vm_rmse(&truth.vm) < 1e-7);
        assert!(out.va_rmse(&truth.va) < 1e-7);
    }

    #[test]
    fn underdetermined_set_is_rejected() {
        let net = ieee14();
        let set: MeasurementSet =
            [Measurement::new(MeasurementKind::Vmag { bus: 0 }, 1.0, 0.01)].into_iter().collect();
        let est =
            WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::default());
        assert!(matches!(est.estimate(&set), Err(WlsError::NotObservable(_))));
    }

    #[test]
    fn unobservable_island_is_detected() {
        // Plenty of measurements, but none touching buses 9-13's angles
        // beyond magnitude: delete all injections/flows involving the
        // 6-11-10-9-14-13-12 region except magnitudes.
        let net = ieee14();
        let mut set = exact_set(&net, &[]);
        let cut: Vec<usize> = vec![5, 8, 9, 10, 11, 12, 13];
        set.retain(|m| match m.kind {
            MeasurementKind::Pinj { bus } | MeasurementKind::Qinj { bus } => !cut.contains(&bus),
            MeasurementKind::Pflow { branch, .. } | MeasurementKind::Qflow { branch, .. } => {
                let br = &net.branches[branch];
                !cut.contains(&br.from) && !cut.contains(&br.to)
            }
            _ => true,
        });
        // Keep enough raw count that only observability (rank), not the
        // count check, can reject.
        while set.len() < 27 {
            set.push(Measurement::new(MeasurementKind::Vmag { bus: 0 }, 1.06, 0.004));
        }
        let est =
            WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::default());
        assert!(est.estimate(&set).is_err());
    }

    #[test]
    fn a_non_finite_input_is_not_reported_as_unobservable() {
        let net = ieee14();
        let set = exact_set(&net, &[0]);
        let est = WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::default());
        assert!(est.estimate(&set).is_ok());
        // σ = 1e-200: the weight 1/σ² overflows to ∞ in the first gain.
        let mut overflowed_weight = set.clone();
        overflowed_weight.push(Measurement::new(MeasurementKind::Vmag { bus: 3 }, 1.0, 1e-200));
        // A value of 1e300 at σ = 1e-3: the first step is finite but huge,
        // and the next iteration's gain holds NaN.
        let mut overflowed_value = set.clone();
        overflowed_value.push(Measurement::new(MeasurementKind::Vmag { bus: 3 }, 1e300, 1e-3));
        for (what, bad) in [("weight", overflowed_weight), ("value", overflowed_value)] {
            let out = est.estimate(&bad);
            assert!(matches!(out, Err(WlsError::NonFinite(_))), "{what}: {out:?}");
        }
    }

    #[test]
    fn a_non_finite_step_ends_the_wave_and_keeps_the_warm_start() {
        let net = ieee14();
        let set = exact_set(&net, &[0]);
        let est = WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::default());
        let mut cache = SolveCache::new();
        let good = est.estimate_cached(&set, None, &mut cache).unwrap();
        // One NaN in an otherwise zero step: `f64::max` would drop it and
        // read the step as converged.
        let mut wave = est.wave_begin(&set, None, &mut cache).unwrap();
        let mut dx = vec![0.0; wave.rhs().len()];
        dx[3] = f64::NAN;
        assert!(wave.apply_step(&dx));
        assert!(wave.done());
        let out = wave.finish();
        assert!(matches!(out, Err(WlsError::NonFinite(_))), "{out:?}");
        assert_eq!(cache.warm, Some((good.vm, good.va)));
    }

    #[test]
    fn cached_solve_matches_uncached() {
        let net = ieee14();
        let set = exact_set(&net, &[0]);
        let est =
            WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::default());
        let plain = est.estimate(&set).unwrap();
        let mut cache = SolveCache::new();
        let cached = est.estimate_cached(&set, None, &mut cache).unwrap();
        for i in 0..14 {
            assert!((plain.vm[i] - cached.vm[i]).abs() < 1e-8);
            assert!((plain.va[i] - cached.va[i]).abs() < 1e-8);
        }
        assert_eq!(cache.symbolic_builds, 1);
        assert_eq!(cache.symbolic_reuses, 0);
        assert_eq!(cache.cold_solves, 1);
    }

    #[test]
    fn cache_reuses_structures_and_warm_state_across_frames() {
        let net = ieee14();
        let set = exact_set(&net, &[0]);
        let est =
            WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::default());
        let mut cache = SolveCache::new();
        let first = est.estimate_cached(&set, None, &mut cache).unwrap();
        let second = est.estimate_cached(&set, None, &mut cache).unwrap();
        assert_eq!(cache.symbolic_builds, 1, "structures built once");
        assert_eq!(cache.symbolic_reuses, 1);
        assert_eq!(cache.warm_solves, 1, "second frame warm-starts from the first");
        assert!(
            second.iterations <= first.iterations,
            "warm {} !<= cold {}",
            second.iterations,
            first.iterations
        );
        assert!(cache.warm.is_some());
    }

    #[test]
    fn cache_rebuilds_on_structure_change() {
        let net = ieee14();
        let set = exact_set(&net, &[0]);
        let est = WlsEstimator::new(
            net.clone(),
            StateSpace::with_reference(14, 0),
            WlsOptions::default(),
        );
        let mut cache = SolveCache::new();
        est.estimate_cached(&set, None, &mut cache).unwrap();
        // Drop one measurement: different structure, must rebuild and still
        // agree with the uncached estimator on the modified set.
        let mut smaller = set.clone();
        smaller.remove(1);
        let cached = est.estimate_cached(&smaller, None, &mut cache).unwrap();
        assert_eq!(cache.symbolic_builds, 2);
        let plain = est.estimate(&smaller).unwrap();
        for i in 0..14 {
            assert!((plain.vm[i] - cached.vm[i]).abs() < 1e-7);
            assert!((plain.va[i] - cached.va[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn cached_path_detects_unobservable_structure() {
        let net = ieee14();
        let set: MeasurementSet = (0..30)
            .map(|_| Measurement::new(MeasurementKind::Vmag { bus: 0 }, 1.06, 0.004))
            .collect();
        let est =
            WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::default());
        let mut cache = SolveCache::new();
        assert!(matches!(
            est.estimate_cached(&set, None, &mut cache),
            Err(WlsError::NotObservable(_))
        ));
    }

    #[test]
    fn direct_cached_reuses_numeric_factor_and_counts_exactly() {
        let net = ieee14();
        let set = exact_set(&net, &[0]);
        let est = WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::direct());
        let mut cache = SolveCache::new();
        let first = est.estimate_cached(&set, None, &mut cache).unwrap();
        // First frame: iteration 1 factors from scratch, later iterations
        // of the same frame already refresh the cached factor.
        assert_eq!(cache.refactor_full, 1);
        assert_eq!(cache.refactor_reuse, first.iterations as u64 - 1);
        let second = est.estimate_cached(&set, None, &mut cache).unwrap();
        // Warm frame: every gain solve is a numeric-only refresh, and each
        // Gauss–Newton iteration does exactly one gain solve.
        assert_eq!(cache.refactor_full, 1);
        assert_eq!(
            cache.refactor_reuse + cache.refactor_full,
            (first.iterations + second.iterations) as u64
        );
        // The cached result matches an uncached direct solve.
        let plain = est.estimate(&set).unwrap();
        for i in 0..14 {
            assert!((plain.vm[i] - second.vm[i]).abs() < 1e-8);
            assert!((plain.va[i] - second.va[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn ybus_pattern_change_forces_clean_refactor() {
        // The staleness pin at the estimator level: a topology change that
        // alters the Ybus pattern (same measurement set!) must rebuild the
        // symbolic structures and take a full factorization — never a
        // numeric refresh of the stale factor.
        let net = ieee14();
        let set = exact_set(&net, &[0]);
        let est = WlsEstimator::new(
            net.clone(),
            StateSpace::with_reference(14, 0),
            WlsOptions::direct(),
        );
        let mut cache = SolveCache::new();
        est.estimate_cached(&set, None, &mut cache).unwrap();
        est.estimate_cached(&set, None, &mut cache).unwrap();
        assert_eq!(cache.symbolic_builds, 1);
        assert_eq!(cache.refactor_full, 1);
        let reuses_before = cache.refactor_reuse;

        // New branch → new Ybus pattern, measurement set unchanged.
        let mut grown = net.clone();
        let proto = grown.branches[0].clone();
        grown.branches.push(pgse_grid::Branch { from: 2, to: 11, ..proto });
        let est2 = WlsEstimator::new(
            grown,
            StateSpace::with_reference(14, 0),
            WlsOptions::direct(),
        );
        let out = est2.estimate_cached(&set, None, &mut cache).unwrap();
        assert_eq!(cache.symbolic_builds, 2, "Ybus change must rebuild structures");
        assert_eq!(cache.refactor_full, 2, "first solve after rebuild is a full factorization");
        assert!(cache.refactor_reuse > reuses_before, "later iterations refresh the new factor");
        // And the result matches a fresh estimator with no cache history.
        let fresh = est2.estimate(&set).unwrap();
        for i in 0..14 {
            assert!((out.vm[i] - fresh.vm[i]).abs() < 1e-7);
            assert!((out.va[i] - fresh.va[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn wave_driven_solve_matches_cached_direct_bitwise() {
        let net = ieee14();
        let set = exact_set(&net, &[0]);
        let est = WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::direct());

        let mut cache_scalar = SolveCache::new();
        let scalar: Vec<StateEstimate> = (0..2)
            .map(|_| est.estimate_cached(&set, None, &mut cache_scalar).unwrap())
            .collect();

        let mut cache_wave = SolveCache::new();
        let mut plan = pgse_sparsela::BatchPlan::new();
        let mut waved: Vec<StateEstimate> = Vec::new();
        for _ in 0..2 {
            let mut wave = est.wave_begin(&set, None, &mut cache_wave).unwrap();
            loop {
                let out = plan.solve_round(&[(wave.gain(), wave.rhs())]);
                wave.note_solved(out.sym_reused[0]);
                let x = out.results.into_iter().next().unwrap().unwrap();
                if wave.apply_step(&x) {
                    break;
                }
            }
            waved.push(wave.finish().unwrap());
        }

        for (s, w) in scalar.iter().zip(&waved) {
            assert_eq!(s.iterations, w.iterations);
            for i in 0..14 {
                assert_eq!(s.vm[i].to_bits(), w.vm[i].to_bits(), "vm[{i}]");
                assert_eq!(s.va[i].to_bits(), w.va[i].to_bits(), "va[{i}]");
            }
        }
        // Cache bookkeeping matches the scalar path tick for tick.
        assert_eq!(cache_wave.symbolic_builds, cache_scalar.symbolic_builds);
        assert_eq!(cache_wave.symbolic_reuses, cache_scalar.symbolic_reuses);
        assert_eq!(cache_wave.warm_solves, cache_scalar.warm_solves);
        assert_eq!(cache_wave.cold_solves, cache_scalar.cold_solves);
        assert_eq!(cache_wave.refactor_full, cache_scalar.refactor_full);
        assert_eq!(cache_wave.refactor_reuse, cache_scalar.refactor_reuse);
        assert_eq!(
            cache_wave.refactor_reuse + cache_wave.refactor_full,
            (waved[0].iterations + waved[1].iterations) as u64
        );
        assert!(cache_wave.warm.is_some());
    }

    #[test]
    fn restart_retention_keeps_structures_and_zeroes_counters() {
        let net = ieee14();
        let set = exact_set(&net, &[0]);
        let est = WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::direct());
        let mut cache = SolveCache::new();
        est.estimate_cached(&set, None, &mut cache).unwrap();
        let desc = cache.structure_descriptor().unwrap();
        cache.retain_structures_for_restart();
        assert_eq!(cache.structure_descriptor(), Some(desc));
        assert!(cache.warm.is_none());
        assert_eq!(cache.symbolic_builds, 0);
        assert_eq!(cache.refactor_reuse + cache.refactor_full, 0);
        // The next solve reuses the kept analysis instead of rebuilding.
        est.estimate_cached(&set, None, &mut cache).unwrap();
        assert_eq!(cache.symbolic_builds, 0);
        assert_eq!(cache.symbolic_reuses, 1);
        assert_eq!(cache.cold_solves, 1, "warm state does not survive a restart");
    }

    #[test]
    fn deactivating_a_row_estimates_like_removing_it() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let set = crate::synthetic::TelemetryPlan::full(&net, vec![0]).generate(&net, &sol, 1.0, 3);
        let est = WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::direct());
        let dim = est.space().dim();
        for i in [0usize, 20, 41, set.len() - 1] {
            let mut masked = set.clone();
            masked.deactivate(i);
            let mut removed = set.clone();
            removed.remove(i);
            let a = est.estimate(&masked).unwrap();
            let b = est.estimate(&removed).unwrap();
            assert_eq!(a.iterations, b.iterations, "row {i}");
            for k in 0..14 {
                assert!((a.vm[k] - b.vm[k]).abs() < 1e-10, "row {i}: vm[{k}]");
                assert!((a.va[k] - b.va[k]).abs() < 1e-10, "row {i}: va[{k}]");
            }
            assert!((a.objective - b.objective).abs() <= 1e-10 * b.objective, "row {i}");
            assert_eq!(masked.n_active() - dim, removed.len() - dim, "row {i}: dof");
            // The masked row contributes nothing: zero residual, same shape.
            assert_eq!(a.residuals.len(), set.len());
            assert_eq!(a.residuals[i], 0.0);
        }
    }

    #[test]
    fn an_open_branch_estimates_like_the_branch_removed_network() {
        use crate::observability::check;
        use pgse_powerflow::BranchFlow;
        let net = ieee14();
        let space = || StateSpace::with_reference(14, 0);
        let est = WlsEstimator::new(net.clone(), space(), WlsOptions::direct());
        let (mut cases, mut blind) = (0, 0);
        for k in 0..net.n_branches() {
            let mut closed = vec![true; net.n_branches()];
            closed[k] = false;
            let post = net.with_branch_status(&closed);
            if !post.is_connected() {
                continue; // islanding: a re-deploy, not a value
            }
            cases += 1;
            // A scan of the switched grid in base numbering: branch k reads 0.
            let mut truth = solve(&post, &PfOptions::default()).unwrap();
            truth.flows.insert(k, BranchFlow::default());
            let plan = crate::synthetic::TelemetryPlan::full(&net, vec![0]);
            let set = plan.generate(&net, &truth, 1.0, 40 + k as u64);
            // The same scan on the branch-removed network: k's flow rows
            // dropped, later branches renumbered.
            let renumber = |set: &MeasurementSet| -> MeasurementSet {
                let mut out = MeasurementSet::new();
                for m in set.as_slice() {
                    let mut m = *m;
                    match &mut m.kind {
                        MeasurementKind::Pflow { branch, .. }
                        | MeasurementKind::Qflow { branch, .. } => {
                            if *branch == k {
                                continue;
                            }
                            *branch -= usize::from(*branch > k);
                        }
                        _ => {}
                    }
                    out.push(m);
                }
                out
            };
            let open = est.with_branch_status(&closed);
            let removed = WlsEstimator::new(post.clone(), space(), WlsOptions::direct());
            assert_eq!(open.ybus().csr_parts().1, est.ybus().csr_parts().1, "branch {k}");
            let a = open.estimate(&set).unwrap();
            let b = removed.estimate(&renumber(&set)).unwrap();
            assert_eq!(a.iterations, b.iterations, "branch {k}");
            for i in 0..14 {
                assert!((a.vm[i] - b.vm[i]).abs() <= 1e-10, "branch {k}: vm[{i}]");
                assert!((a.va[i] - b.va[i]).abs() <= 1e-10, "branch {k}: va[{i}]");
            }
            // An RTU outage that leaves one end of the open branch seen
            // through that branch's flow rows alone.
            for dead in [net.branches[k].from, net.branches[k].to] {
                let touches = |b: usize| {
                    b == dead
                        || net.branches.iter().enumerate().any(|(j, br)| {
                            j != k && ((br.from, br.to) == (b, dead) || (br.to, br.from) == (b, dead))
                        })
                };
                let mut short = set.clone();
                short.retain(|m| match m.kind {
                    MeasurementKind::Pflow { branch, .. } | MeasurementKind::Qflow { branch, .. } => {
                        let br = &net.branches[branch];
                        branch == k || (br.from != dead && br.to != dead)
                    }
                    MeasurementKind::Pinj { bus } | MeasurementKind::Qinj { bus } => {
                        !touches(bus) && bus != net.branches[k].from && bus != net.branches[k].to
                    }
                    _ => m.kind.site(&net.branches) != dead,
                });
                let on_open = check(&net, open.ybus(), &short, &space()).observable;
                let on_removed =
                    check(&post, removed.ybus(), &renumber(&short), &space()).observable;
                assert_eq!(on_open, on_removed, "branch {k}, dead site {dead}");
                let on_closed = check(&net, est.ybus(), &short, &space()).observable;
                blind += usize::from(on_closed && !on_open);
            }
        }
        assert!(cases > 0);
        // The verdicts are not vacuous: a closed-branch model would call
        // some of these outages observable through the open branch.
        assert!(blind > 0);
    }

    #[test]
    fn a_masked_set_keeps_its_structures_across_activity_changes() {
        let net = ieee14();
        let set = exact_set(&net, &[0]);
        let est = WlsEstimator::new(net, StateSpace::with_reference(14, 0), WlsOptions::direct());
        let mut cache = SolveCache::new();
        est.estimate_cached(&set, None, &mut cache).unwrap();
        let mut masked = set.clone();
        masked.deactivate(5);
        est.estimate_cached(&masked, None, &mut cache).unwrap();
        masked.activate(5);
        masked.deactivate(30);
        est.estimate_cached(&masked, None, &mut cache).unwrap();
        assert_eq!(cache.symbolic_builds, 1, "activity is not structure");
        assert_eq!(cache.refactor_full, 1, "every later solve refreshes one factor");
    }

    #[test]
    fn warm_start_converges_faster() {
        let net = ieee14();
        let truth = solve(&net, &PfOptions::default()).unwrap();
        let set = exact_set(&net, &[]);
        let est = WlsEstimator::new(
            net,
            StateSpace::with_reference(14, 0),
            WlsOptions::default(),
        );
        let cold = est.estimate(&set).unwrap();
        let warm = est
            .estimate_cached(&set, Some((&truth.vm, &truth.va)), &mut SolveCache::new())
            .unwrap();
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn a_warm_solve_allocates_its_estimate_and_the_gain_solves_only() {
        let net = ieee14();
        let sol = solve(&net, &PfOptions::default()).unwrap();
        let plan = crate::synthetic::TelemetryPlan::full(&net, vec![0]);
        let est = WlsEstimator::new(net.clone(), StateSpace::full(14), WlsOptions::default());
        let mut cache = SolveCache::new();
        est.estimate_cached(&plan.generate(&net, &sol, 1.0, 1), None, &mut cache).unwrap();
        for seed in 2..5 {
            let set = plan.generate(&net, &sol, 1.0, seed);
            let before = ALLOCS.with(Cell::get);
            let out = est.estimate_cached(&set, None, &mut cache).unwrap();
            let allocs = ALLOCS.with(Cell::get) - before;
            assert!(out.iterations > 1, "seed {seed}: a warm solve that steps");
            // The returned vm, va and residuals; per iteration, the gain
            // solve's permuted right-hand side and its result.
            assert_eq!(allocs, 3 + 2 * out.iterations, "seed {seed}");
        }
    }

    #[test]
    fn a_warm_iteration_linearizes_and_forms_the_gain_without_allocating() {
        let net = ieee14();
        let mut set = exact_set(&net, &[0]);
        set.deactivate(7);
        let mut closed = vec![true; net.n_branches()];
        closed[4] = false;
        for est in [
            WlsEstimator::new(
                net.clone(),
                StateSpace::with_reference(14, 0),
                WlsOptions::default(),
            ),
            WlsEstimator::new(net.clone(), StateSpace::full(14), WlsOptions::default())
                .with_branch_status(&closed),
        ] {
            let mut cache = SolveCache::new();
            est.estimate_cached(&set, None, &mut cache).unwrap();
            let mut wave = est.wave_begin(&set, None, &mut cache).unwrap();
            let before = ALLOCS.with(Cell::get);
            wave.assemble();
            let allocs = ALLOCS.with(Cell::get) - before;
            assert_eq!(allocs, 0, "h, H, the right-hand side and G of one iteration");
        }
    }
}
