//! # pgse-contingency
//!
//! Massive N-1 contingency analysis — the companion HPC application the
//! paper's state-estimation kernel descends from (Chen, Huang &
//! Chavarría-Miranda \[2\]: *"Performance evaluation of counter-based dynamic
//! load balancing schemes for massive contingency analysis"*), and one of
//! the downstream consumers of the estimated state the paper lists
//! (§I: "contingency analysis, optimal power flow, economic dispatch…").
//!
//! The crate provides the per-case tiers the streaming scenario engine
//! (`pgse-stream`'s `scenarios` module) composes; the engine owns the
//! sweep, claiming cases through the counter-based dynamic scheme of \[2\]:
//! * [`islanding_outages`] — O(buses + branches) bridge analysis of the
//!   branch multigraph separating survivable outages from islanding ones;
//! * [`DcScreener`] — the cheap screening tier: cached base-case
//!   factorization + Sherman–Morrison rank-1 outage pricing ([`dc`]);
//! * [`analyze_with`] — the expensive tier: a full AC re-solve over one
//!   [`PfModel`] of the base network, the outaged branch a zero admittance
//!   on the base pattern, flat- or warm-started from the base operating
//!   point, with voltage/loading limit checks in base branch numbering;
//!   [`analyze_one`] / [`analyze_one_warm`] build the model for one case.

pub mod dc;

pub use dc::{DcScreener, ScreenVerdict, ScreenedCase};

use pgse_grid::Network;
use pgse_powerflow::{PfModel, PfOptions, PfSolution};

/// One contingency case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contingency {
    /// Outage of one branch (by index into `net.branches`).
    BranchOutage(usize),
}

impl Contingency {
    /// The outaged branch index.
    pub fn branch(&self) -> usize {
        let Contingency::BranchOutage(k) = *self;
        k
    }
}

/// A post-contingency limit violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Bus voltage outside `[v_min, v_max]`.
    Voltage { bus: usize, vm: f64 },
    /// Branch apparent-power loading above its emergency rating.
    Overload { branch: usize, loading: f64, rating: f64 },
}

/// Operating limits used by the checker.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Minimum bus voltage (p.u.).
    pub v_min: f64,
    /// Maximum bus voltage (p.u.).
    pub v_max: f64,
    /// Emergency rating as a multiple of the base-case branch flow.
    pub rating_factor: f64,
    /// Floor on the emergency rating (p.u.), so lightly-loaded branches
    /// are not flagged by tiny base flows.
    pub rating_floor: f64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { v_min: 0.92, v_max: 1.10, rating_factor: 1.5, rating_floor: 0.5 }
    }
}

/// The outcome of one contingency solve.
#[derive(Debug, Clone)]
pub struct CtgResult {
    /// The analyzed case.
    pub contingency: Contingency,
    /// Whether the post-contingency power flow converged (non-convergence
    /// is itself a severe flag).
    pub converged: bool,
    /// Limit violations found.
    pub violations: Vec<Violation>,
    /// Newton iterations the solve took (per-case cost varies — the reason
    /// dynamic balancing wins in \[2\]).
    pub iterations: usize,
}

impl CtgResult {
    /// Severe cases: diverged or violating.
    pub fn is_insecure(&self) -> bool {
        !self.converged || !self.violations.is_empty()
    }
}

/// Branch indices whose outage disconnects the network: the **bridges** of
/// the branch multigraph, found by one iterative Tarjan DFS in
/// O(buses + branches) — replacing the old clone-the-network-and-BFS per
/// branch screen, which was O(branches · (buses + branches)).
///
/// Parallel branches are handled by edge identity (a branch with a
/// parallel companion is never a bridge), and self-loops can never
/// disconnect anything. Assumes the base network is connected; on a
/// disconnected base the bridges of each component are still returned.
pub fn islanding_outages(net: &Network) -> Vec<usize> {
    let n = net.n_buses();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (k, br) in net.branches.iter().enumerate() {
        if br.from == br.to {
            continue;
        }
        adj[br.from].push((br.to, k));
        adj[br.to].push((br.from, k));
    }
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut timer = 0usize;
    let mut bridges = Vec::new();
    // Explicit DFS stack: (node, entering branch id, next adjacency slot).
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        stack.push((root, usize::MAX, 0));
        while let Some(top) = stack.last_mut() {
            let (u, pe) = (top.0, top.1);
            if let Some(&(v, e)) = adj[u].get(top.2) {
                top.2 += 1;
                if e == pe {
                    // The tree edge we came in on; a *parallel* branch has
                    // a different id and correctly counts as a back edge.
                    continue;
                }
                if disc[v] == usize::MAX {
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, e, 0));
                } else {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                let (u, pe, _) = stack.pop().expect("frame present");
                if let Some(&(p, _, _)) = stack.last() {
                    low[p] = low[p].min(low[u]);
                    if low[u] > disc[p] {
                        bridges.push(pe);
                    }
                }
            }
        }
    }
    bridges.sort_unstable();
    bridges
}

/// Emergency ratings derived from the base case.
pub fn ratings(_net: &Network, base: &PfSolution, limits: &Limits) -> Vec<f64> {
    ratings_from_flows(&base.flows, limits)
}

/// Emergency ratings derived from an arbitrary operating state — the
/// streaming path, where the base case arrives as an estimated vm/va
/// profile rather than a solved [`PfSolution`].
pub fn ratings_from_state(net: &Network, vm: &[f64], va: &[f64], limits: &Limits) -> Vec<f64> {
    ratings_from_flows(&pgse_powerflow::branch_flows(net, vm, va), limits)
}

fn ratings_from_flows(flows: &[pgse_powerflow::BranchFlow], limits: &Limits) -> Vec<f64> {
    flows
        .iter()
        .map(|f| {
            let s = (f.p_from * f.p_from + f.q_from * f.q_from).sqrt();
            (limits.rating_factor * s).max(limits.rating_floor)
        })
        .collect()
}

/// Analyzes one contingency from a flat start: builds the base network's
/// [`PfModel`] and runs [`analyze_with`] on it once.
pub fn analyze_one(
    net: &Network,
    contingency: Contingency,
    ratings: &[f64],
    limits: &Limits,
) -> CtgResult {
    analyze_with(&PfModel::new(net), contingency, ratings, limits, None)
}

/// [`analyze_one`] warm-started from the base operating point — the
/// post-outage solution sits close to the base case, so Newton converges
/// in fewer iterations than from a flat start.
pub fn analyze_one_warm(
    net: &Network,
    contingency: Contingency,
    ratings: &[f64],
    limits: &Limits,
    base: &PfSolution,
) -> CtgResult {
    analyze_with(&PfModel::new(net), contingency, ratings, limits, Some((&base.vm, &base.va)))
}

/// Analyzes one contingency over `model`, the base network's Newton model:
/// the outaged branch becomes a zero admittance on the base pattern, the
/// power flow starts from `start` (flat when `None`), and voltages and
/// loadings are checked against `limits` and `ratings` — all in base
/// branch numbering. The outaged branch carries no flow and is never
/// reported overloaded.
///
/// # Panics
/// Panics when the branch is not in the model or `ratings` is shorter
/// than the branch list.
pub fn analyze_with(
    model: &PfModel,
    contingency: Contingency,
    ratings: &[f64],
    limits: &Limits,
    start: Option<(&[f64], &[f64])>,
) -> CtgResult {
    let k = contingency.branch();
    match model.solve(Some(k), start, &PfOptions::default()) {
        Err(_) => CtgResult { contingency, converged: false, violations: Vec::new(), iterations: 0 },
        Ok(sol) => {
            let mut violations = Vec::new();
            for (bus, &vm) in sol.vm.iter().enumerate() {
                if vm < limits.v_min || vm > limits.v_max {
                    violations.push(Violation::Voltage { bus, vm });
                }
            }
            for (branch, f) in sol.flows.iter().enumerate().filter(|&(b, _)| b != k) {
                let s = (f.p_from * f.p_from + f.q_from * f.q_from).sqrt();
                if s > ratings[branch] {
                    violations.push(Violation::Overload {
                        branch,
                        loading: s,
                        rating: ratings[branch],
                    });
                }
            }
            CtgResult { contingency, converged: true, violations, iterations: sol.iterations }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgse_grid::cases::{ieee118_like, ieee14};
    use pgse_powerflow::solve;

    fn base(net: &Network) -> PfSolution {
        solve(net, &PfOptions::default()).unwrap()
    }

    /// Every single-branch outage that leaves the network connected.
    fn survivable(net: &Network) -> Vec<Contingency> {
        let bridges = islanding_outages(net);
        (0..net.n_branches())
            .filter(|k| !bridges.contains(k))
            .map(Contingency::BranchOutage)
            .collect()
    }

    #[test]
    fn screening_excludes_islanding_outages() {
        let net = ieee14();
        let ctgs = survivable(&net);
        // Branch 13 (7-8) is bus 8's only connection: its outage islands.
        assert!(!ctgs.contains(&Contingency::BranchOutage(13)));
        assert!(ctgs.len() < net.n_branches());
        assert!(ctgs.len() >= net.n_branches() - 3);
    }

    #[test]
    fn bridge_screen_agrees_with_clone_and_check() {
        // The O(N+B) bridge screen must reproduce the old remove-one-and-
        // test-connectivity semantics exactly.
        for net in [ieee14(), ieee118_like()] {
            let bridges = islanding_outages(&net);
            for k in 0..net.n_branches() {
                let mut reduced = net.clone();
                reduced.branches.remove(k);
                assert_eq!(
                    !reduced.is_connected(),
                    bridges.contains(&k),
                    "branch {k}: bridge screen vs connectivity check"
                );
            }
        }
    }

    #[test]
    fn parallel_branches_are_never_bridges() {
        let mut net = ieee14();
        // Duplicate branch 13 (7-8), the only islanding outage: with a
        // parallel companion neither copy is a bridge any more.
        let dup = net.branches[13].clone();
        net.branches.push(dup);
        let bridges = islanding_outages(&net);
        assert!(!bridges.contains(&13), "{bridges:?}");
        assert!(!bridges.contains(&(net.n_branches() - 1)), "{bridges:?}");
    }

    #[test]
    fn base_case_within_its_own_ratings() {
        let net = ieee14();
        let b = base(&net);
        let limits = Limits::default();
        let rat = ratings(&net, &b, &limits);
        for (k, f) in b.flows.iter().enumerate() {
            let s = (f.p_from * f.p_from + f.q_from * f.q_from).sqrt();
            assert!(s <= rat[k] + 1e-12, "branch {k}");
        }
    }

    #[test]
    fn single_outage_analysis_runs() {
        let net = ieee14();
        let b = base(&net);
        let limits = Limits::default();
        let rat = ratings(&net, &b, &limits);
        let r = analyze_one(&net, Contingency::BranchOutage(0), &rat, &limits);
        assert!(r.converged);
        assert!(r.iterations > 0);
    }

    /// How far a violation sits from its threshold: flips between two
    /// solves of the same case are only legitimate inside solver tolerance.
    fn margin(v: &Violation, limits: &Limits) -> f64 {
        match v {
            Violation::Voltage { vm, .. } => {
                (vm - limits.v_min).abs().min((vm - limits.v_max).abs())
            }
            Violation::Overload { loading, rating, .. } => (loading - rating).abs(),
        }
    }

    fn same_site(a: &Violation, b: &Violation) -> bool {
        match (a, b) {
            (Violation::Voltage { bus: x, .. }, Violation::Voltage { bus: y, .. }) => x == y,
            (Violation::Overload { branch: x, .. }, Violation::Overload { branch: y, .. }) => {
                x == y
            }
            _ => false,
        }
    }

    #[test]
    fn warm_analysis_agrees_with_cold_in_fewer_iterations() {
        let net = ieee14();
        let b = base(&net);
        let limits = Limits { rating_factor: 1.05, rating_floor: 0.01, ..Limits::default() };
        let rat = ratings(&net, &b, &limits);
        for ctg in survivable(&net) {
            let cold = analyze_one(&net, ctg, &rat, &limits);
            let warm = analyze_one_warm(&net, ctg, &rat, &limits, &b);
            assert_eq!(cold.converged, warm.converged, "{ctg:?}");
            // Both solves land on the same operating point to tolerance, so
            // any violation found by one and not the other must sit within
            // solver tolerance of its threshold.
            for (from, to) in [(&cold, &warm), (&warm, &cold)] {
                for v in &from.violations {
                    if !to.violations.iter().any(|w| same_site(v, w)) {
                        assert!(margin(v, &limits) < 1e-6, "{ctg:?}: unmatched {v:?}");
                    }
                }
            }
            if cold.converged {
                assert!(warm.iterations <= cold.iterations, "{ctg:?}");
            }
        }
    }

    #[test]
    fn one_shared_model_analyzes_every_ieee118_outage_like_a_fresh_one() {
        let net = ieee118_like();
        let b = base(&net);
        let limits = Limits { rating_factor: 1.05, rating_floor: 0.01, ..Limits::default() };
        let rat = ratings(&net, &b, &limits);
        let model = PfModel::new(&net);
        let mut overloads = 0;
        for ctg in survivable(&net) {
            let shared = analyze_with(&model, ctg, &rat, &limits, Some((&b.vm, &b.va)));
            let fresh = analyze_one_warm(&net, ctg, &rat, &limits, &b);
            assert_eq!(shared.converged, fresh.converged, "{ctg:?}");
            assert_eq!(shared.iterations, fresh.iterations, "{ctg:?}");
            assert_eq!(shared.violations, fresh.violations, "{ctg:?}");
            for v in &shared.violations {
                if let Violation::Overload { branch, .. } = v {
                    assert_ne!(*branch, ctg.branch(), "the open branch is overloaded");
                    overloads += 1;
                }
            }
        }
        assert!(overloads > 0, "tight ratings must find overloads");
    }

    #[test]
    fn tight_ratings_flag_overloads() {
        // With ratings barely above base flows, losing a heavy line must
        // overload its parallel paths.
        let net = ieee14();
        let b = base(&net);
        let limits = Limits { rating_factor: 1.05, rating_floor: 0.01, ..Limits::default() };
        let rat = ratings(&net, &b, &limits);
        // Outage of branch 0 (the 1-2 line carrying most slack output).
        let r = analyze_one(&net, Contingency::BranchOutage(0), &rat, &limits);
        assert!(r.is_insecure(), "heavy-line outage must violate tight ratings");
        assert!(r.violations.iter().any(|v| matches!(v, Violation::Overload { .. })));
    }
}
