//! Property suite for the contingency crate, over randomized stitched
//! multi-area networks:
//!
//! * the bridge-based islanding filter agrees with an independent
//!   union-find connectivity oracle on every single-branch outage;
//! * warm-started outage solves (rank-1 DC updates and warm-started AC)
//!   agree with their cold counterparts to tolerance;
//! * the warm AC solve over the ordered sparse LU agrees with a Newton
//!   iteration whose linear solves go through a dense oracle.

use proptest::prelude::*;

use pgse_contingency::{
    analyze_one, analyze_one_warm, islanding_outages, ratings, Contingency, DcScreener, Limits,
    ScreenVerdict, Violation,
};
use pgse_grid::cases::builder::{build, AreaPlan};
use pgse_grid::cases::ieee14;
use pgse_grid::{BusKind, Network, Ybus};
use pgse_powerflow::equations::{branch_flows, bus_injections, injection_derivatives};
use pgse_powerflow::{solve, solve_dc, solve_warm, PfOptions};
use pgse_sparsela::DenseMatrix;

fn arb_plan() -> impl Strategy<Value = AreaPlan> {
    (2usize..5, 3usize..8, 1usize..3, any::<u64>(), 10.0f64..25.0).prop_map(
        |(n_areas, buses, ties, seed, load)| {
            let edges: Vec<(usize, usize)> = (1..n_areas).map(|a| (a - 1, a)).collect();
            AreaPlan {
                name: "ctg-prop".into(),
                bus_counts: vec![buses; n_areas],
                area_edges: edges,
                ties_per_edge: ties,
                seed,
                load_mw: (load, load + 8.0),
                chord_fraction: 0.25,
            }
        },
    )
}

/// Independent connectivity oracle: union-find over all branches except
/// the outaged one.
fn islands_without(net: &Network, skip: usize) -> bool {
    let n = net.n_buses();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (k, br) in net.branches.iter().enumerate() {
        if k == skip {
            continue;
        }
        let (a, b) = (find(&mut parent, br.from), find(&mut parent, br.to));
        if a != b {
            parent[a] = b;
        }
    }
    let root = find(&mut parent, 0);
    (1..n).any(|i| find(&mut parent, i) != root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Tarjan bridge filter names exactly the outages the union-find
    /// oracle says disconnect the network.
    #[test]
    fn islanding_filter_matches_union_find_oracle(plan in arb_plan()) {
        let net = build(&plan);
        let flagged = islanding_outages(&net);
        for k in 0..net.n_branches() {
            let oracle = islands_without(&net, k);
            let bridged = flagged.binary_search(&k).is_ok();
            prop_assert_eq!(
                bridged, oracle,
                "branch {} ({}-{}): bridge filter {} vs oracle {}",
                k, net.branches[k].from, net.branches[k].to, bridged, oracle
            );
        }
    }

    /// Rank-1-updated post-outage DC angles equal a cold DC solve of the
    /// branch-removed network, for every survivable outage.
    #[test]
    fn warm_dc_screen_matches_cold_outage_solve(plan in arb_plan()) {
        let net = build(&plan);
        let scr = DcScreener::new(&net, &Limits::default()).unwrap();
        for k in 0..net.n_branches() {
            let Some(warm_va) = scr.post_outage_angles(k) else {
                prop_assert!(
                    islands_without(&net, k),
                    "branch {k}: screener refused a survivable outage"
                );
                continue;
            };
            prop_assert!(matches!(scr.screen_outage(k), ScreenVerdict::Screened(_)));
            let mut reduced = net.clone();
            reduced.branches.remove(k);
            let cold = solve_dc(&reduced).unwrap();
            for (i, (&w, &c)) in warm_va.iter().zip(&cold.va).enumerate() {
                prop_assert!(
                    (w - c).abs() < 1e-8,
                    "branch {k}, bus {i}: warm {w} vs cold {c}"
                );
            }
        }
    }

    /// Warm-started AC outage solves land on the same operating point as
    /// cold ones, case by case, in no more iterations.
    #[test]
    fn warm_ac_outage_solves_match_cold(plan in arb_plan()) {
        let net = build(&plan);
        let Ok(base) = solve(&net, &PfOptions::default()) else {
            // Builder occasionally produces stressed operating points the
            // flat start cannot solve; nothing to compare then.
            return Ok(());
        };
        let limits = Limits::default();
        let rat = ratings(&net, &base, &limits);
        // The full product (cases × branches) is too slow for a property
        // runner; three spread-out survivable outages pin the behaviour.
        let survivable: Vec<usize> = {
            let isl = islanding_outages(&net);
            (0..net.n_branches()).filter(|k| isl.binary_search(k).is_err()).collect()
        };
        for &k in survivable.iter().step_by(survivable.len().div_ceil(3).max(1)) {
            let ctg = Contingency::BranchOutage(k);
            let cold = analyze_one(&net, ctg, &rat, &limits);
            let warm = analyze_one_warm(&net, ctg, &rat, &limits, &base);
            prop_assert_eq!(cold.converged, warm.converged, "branch {}", k);
            if cold.converged {
                prop_assert!(
                    warm.iterations <= cold.iterations,
                    "branch {}: warm took {} > cold {}",
                    k, warm.iterations, cold.iterations
                );
                prop_assert_eq!(
                    cold.violations.len(), warm.violations.len(),
                    "branch {}: {:?} vs {:?}", k, cold.violations, warm.violations
                );
            }
        }
    }
}

/// The Newton power flow's warm-started iteration — the same start
/// sanitation, mismatch, damped step and stopping rule — with each linear
/// solve done densely by [`DenseMatrix::solve`]. `None` when it does not
/// converge or the Jacobian is singular.
fn dense_newton_warm(
    net: &Network,
    opts: &PfOptions,
    vm0: &[f64],
    va0: &[f64],
) -> Option<(Vec<f64>, Vec<f64>)> {
    let n = net.n_buses();
    let ybus = Ybus::new(net);
    let slack = net.slack();
    let mut th_pos = vec![usize::MAX; n];
    let mut v_pos = vec![usize::MAX; n];
    let mut nx = 0;
    for i in (0..n).filter(|&i| i != slack) {
        th_pos[i] = nx;
        nx += 1;
    }
    for i in (0..n).filter(|&i| net.buses[i].kind == BusKind::Pq) {
        v_pos[i] = nx;
        nx += 1;
    }
    let mut vm: Vec<f64> = net
        .buses
        .iter()
        .zip(vm0)
        .map(|(b, &v)| if b.kind == BusKind::Pq { v } else { b.vm_setpoint })
        .collect();
    let mut va: Vec<f64> = va0.iter().map(|&a| a - va0[slack]).collect();
    let p_sched: Vec<f64> = net.buses.iter().map(|b| b.p_injection()).collect();
    let q_sched: Vec<f64> = net.buses.iter().map(|b| b.q_injection()).collect();
    let mismatch = |vm: &[f64], va: &[f64]| {
        let (p, q) = bus_injections(&ybus, vm, va);
        let mut f = vec![0.0; nx];
        for i in 0..n {
            if th_pos[i] != usize::MAX {
                f[th_pos[i]] = p_sched[i] - p[i];
            }
            if v_pos[i] != usize::MAX {
                f[v_pos[i]] = q_sched[i] - q[i];
            }
        }
        let norm = f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        (f, norm, p, q)
    };
    for iter in 0..=opts.max_iter {
        let (f, norm, p, q) = mismatch(&vm, &va);
        if norm <= opts.tol {
            return Some((vm, va));
        }
        if iter == opts.max_iter {
            return None;
        }
        let mut jac = DenseMatrix::zeros(nx, nx);
        for i in 0..n {
            for &j in ybus.row(i).0 {
                let d = injection_derivatives(&ybus, &vm, &va, p[i], q[i], i, j);
                for (row, col, v) in [
                    (th_pos[i], th_pos[j], d.0),
                    (th_pos[i], v_pos[j], d.1),
                    (v_pos[i], th_pos[j], d.2),
                    (v_pos[i], v_pos[j], d.3),
                ] {
                    if row != usize::MAX && col != usize::MAX {
                        jac[(row, col)] = v;
                    }
                }
            }
        }
        let dx = jac.solve(&f).ok()?;
        let mut alpha = 1.0f64;
        loop {
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
            if mismatch(&vm_try, &va_try).1 < norm || alpha <= 0.125 {
                vm = vm_try;
                va = va_try;
                break;
            }
            alpha *= 0.5;
        }
    }
    None
}

/// The limit check of the contingency analysis, on a post-outage state of
/// `post` (branch `k` removed from the base numbering).
fn violations(
    post: &Network,
    k: usize,
    vm: &[f64],
    va: &[f64],
    ratings: &[f64],
    limits: &Limits,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (bus, &v) in vm.iter().enumerate() {
        if v < limits.v_min || v > limits.v_max {
            out.push(Violation::Voltage { bus, vm: v });
        }
    }
    for (kk, f) in branch_flows(post, vm, va).iter().enumerate() {
        let orig = if kk >= k { kk + 1 } else { kk };
        let s = (f.p_from * f.p_from + f.q_from * f.q_from).sqrt();
        if s > ratings[orig] {
            out.push(Violation::Overload { branch: orig, loading: s, rating: ratings[orig] });
        }
    }
    out
}

/// How far a violation sits from its threshold.
fn margin(v: &Violation, limits: &Limits) -> f64 {
    match v {
        Violation::Voltage { vm, .. } => (vm - limits.v_min).abs().min((vm - limits.v_max).abs()),
        Violation::Overload { loading, rating, .. } => (loading - rating).abs(),
    }
}

fn same_site(a: &Violation, b: &Violation) -> bool {
    match (a, b) {
        (Violation::Voltage { bus: x, .. }, Violation::Voltage { bus: y, .. }) => x == y,
        (Violation::Overload { branch: x, .. }, Violation::Overload { branch: y, .. }) => x == y,
        _ => false,
    }
}

/// Every survivable IEEE-14 outage, warm-started from the base case: the
/// solver (ordered sparse LU) and the dense-oracle Newton converge alike,
/// land on the same state, and flag the same violations up to ones within
/// solver tolerance of their threshold.
#[test]
fn warm_newton_matches_a_dense_oracle_on_every_ieee14_outage() {
    let net = ieee14();
    let opts = PfOptions::default();
    let base = solve(&net, &opts).unwrap();
    let limits = Limits { rating_factor: 1.05, rating_floor: 0.01, ..Limits::default() };
    let rat = ratings(&net, &base, &limits);
    let bridges = islanding_outages(&net);
    for k in (0..net.n_branches()).filter(|k| !bridges.contains(k)) {
        let ctg = Contingency::BranchOutage(k);
        let mut post = net.clone();
        post.branches.remove(k);
        let sparse = analyze_one_warm(&net, ctg, &rat, &limits, &base);
        let dense = dense_newton_warm(&post, &opts, &base.vm, &base.va);
        assert_eq!(sparse.converged, dense.is_some(), "{ctg:?}");
        let Some((vm, va)) = dense else { continue };
        let sol = solve_warm(&post, &opts, &base.vm, &base.va).unwrap();
        for i in 0..net.n_buses() {
            assert!((sol.vm[i] - vm[i]).abs() <= 1e-9, "{ctg:?}: vm bus {i}");
            assert!((sol.va[i] - va[i]).abs() <= 1e-9, "{ctg:?}: va bus {i}");
        }
        let oracle = violations(&post, k, &vm, &va, &rat, &limits);
        for (from, to) in [(&sparse.violations, &oracle), (&oracle, &sparse.violations)] {
            for v in from {
                if !to.iter().any(|w| same_site(v, w)) {
                    assert!(margin(v, &limits) < 1e-6, "{ctg:?}: unmatched {v:?}");
                }
            }
        }
    }
}
