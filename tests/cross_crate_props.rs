//! Property-based tests on the cross-crate invariants the system relies
//! on: sparse kernels against dense oracles, solver correctness on random
//! systems, partition invariants on random graphs, and wire-format
//! round-trips.

use proptest::prelude::*;

use pgse::medici::framing::{read_frame, write_frame};
use pgse::partition::{brute_force_optimal, partition_kway, WeightedGraph};
use pgse::sparsela::{Coo, Csr, DenseMatrix, SparseCholesky, SparseLu};

/// Strategy: a random sparse square matrix with a strong diagonal, as
/// (n, triplets).
fn diag_dominant_matrix() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (3usize..12).prop_flat_map(|n| {
        let entries = proptest::collection::vec(
            (0..n, 0..n, -1.0f64..1.0),
            0..(3 * n),
        );
        entries.prop_map(move |mut trips| {
            for i in 0..n {
                trips.push((i, i, 8.0));
            }
            (n, trips)
        })
    })
}

fn build(n: usize, trips: &[(usize, usize, f64)]) -> Csr {
    let mut coo = Coo::new(n, n);
    for &(i, j, v) in trips {
        coo.push(i, j, v);
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spmv_matches_dense_oracle((n, trips) in diag_dominant_matrix(),
                                 seed in 0u64..1000) {
        let a = build(n, &trips);
        let x: Vec<f64> = (0..n).map(|i| ((seed + i as u64) as f64 * 0.37).sin()).collect();
        let sparse = a.mul_vec(&x);
        let dense = a.to_dense().mul_vec(&x);
        for (s, d) in sparse.iter().zip(&dense) {
            prop_assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn transpose_is_involutive((n, trips) in diag_dominant_matrix()) {
        let a = build(n, &trips);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn csr_csc_roundtrip((n, trips) in diag_dominant_matrix()) {
        let a = build(n, &trips);
        prop_assert_eq!(a.to_csc().to_csr(), a);
    }

    #[test]
    fn matmul_matches_dense_oracle((n, trips) in diag_dominant_matrix()) {
        let a = build(n, &trips);
        let b = a.transpose();
        let sparse = a.matmul(&b).to_dense();
        let dense = a.to_dense().matmul(&b.to_dense());
        prop_assert!(sparse.max_abs_diff(&dense) < 1e-10);
    }

    #[test]
    fn sparse_lu_solves_diag_dominant((n, trips) in diag_dominant_matrix(),
                                      seed in 0u64..1000) {
        let a = build(n, &trips);
        let xtrue: Vec<f64> = (0..n).map(|i| ((seed * 7 + i as u64) as f64 * 0.11).cos()).collect();
        let b = a.mul_vec(&xtrue);
        let lu = SparseLu::factor_csr(&a, 1.0).unwrap();
        let x = lu.solve(&b);
        for (p, q) in x.iter().zip(&xtrue) {
            prop_assert!((p - q).abs() < 1e-8);
        }
    }

    #[test]
    fn cholesky_and_lu_agree_on_spd((n, trips) in diag_dominant_matrix(),
                                    seed in 0u64..1000) {
        // AᵀA + strong diagonal is SPD.
        let a = build(n, &trips);
        let spd = a.ata_weighted(&vec![1.0; n]).add_scaled(&Csr::identity(n), 4.0);
        let b: Vec<f64> = (0..n).map(|i| ((seed + 3 * i as u64) as f64 * 0.29).sin()).collect();
        let chol = SparseCholesky::factor(&spd).unwrap().solve(&b);
        let lu = SparseLu::factor_csr(&spd, 1.0).unwrap().solve(&b);
        for (p, q) in chol.iter().zip(&lu) {
            prop_assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn dense_solve_matches_lu((n, trips) in diag_dominant_matrix(),
                              seed in 0u64..1000) {
        let a = build(n, &trips);
        let b: Vec<f64> = (0..n).map(|i| ((seed + i as u64) as f64).sin()).collect();
        let dense: DenseMatrix = a.to_dense();
        let x1 = dense.solve(&b).unwrap();
        let x2 = SparseLu::factor_csr(&a, 1.0).unwrap().solve(&b);
        for (p, q) in x1.iter().zip(&x2) {
            prop_assert!((p - q).abs() < 1e-8);
        }
    }
}

/// Strategy: a random connected weighted graph as (n, extra edges, weights).
fn connected_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..24).prop_flat_map(|n| {
        let weights = proptest::collection::vec(1.0f64..20.0, n);
        let extras = proptest::collection::vec((0..n, 0..n, 1.0f64..5.0), 0..2 * n);
        (weights, extras).prop_map(move |(w, extras)| {
            let mut g = WeightedGraph::with_vertex_weights(w);
            // Spanning path guarantees connectivity.
            for v in 1..n {
                g.add_edge(v - 1, v, 1.0);
            }
            for (u, v, ew) in extras {
                if u != v {
                    g.add_edge(u, v, ew);
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kway_partitions_are_complete_and_valid(g in connected_graph(), k in 2usize..5) {
        prop_assume!(k <= g.n());
        let p = partition_kway(&g, k, &Default::default());
        prop_assert_eq!(p.assignment.len(), g.n());
        prop_assert!(p.all_parts_used());
        prop_assert!(p.imbalance(&g) >= 1.0 - 1e-12);
        prop_assert!(p.edge_cut(&g) >= 0.0);
    }

    #[test]
    fn oracle_never_loses_to_heuristic_under_same_balance(g in connected_graph()) {
        prop_assume!(g.n() <= 10);
        let k = 2usize;
        let heur = partition_kway(&g, k, &Default::default());
        // Give the exhaustive oracle exactly the balance slack the
        // heuristic used: the heuristic's partition is then in the
        // oracle's feasible set, so the oracle's cut cannot be worse.
        let oracle = brute_force_optimal(&g, k, heur.imbalance(&g) + 1e-9);
        prop_assert!(
            oracle.edge_cut(&g) <= heur.edge_cut(&g) + 1e-9,
            "oracle {} vs heuristic {}",
            oracle.edge_cut(&g),
            heur.edge_cut(&g)
        );
    }

    #[test]
    fn heuristic_matches_oracle_on_unit_weight_graphs(g in connected_graph()) {
        prop_assume!(g.n() <= 10);
        // Unit vertex weights: balance is always achievable, so cut
        // quality is directly comparable.
        let mut unit = WeightedGraph::new(g.n());
        for (u, v, w) in g.edges() {
            unit.add_edge(u, v, w);
        }
        let k = 2usize;
        let heur = partition_kway(&unit, k, &Default::default());
        let oracle = brute_force_optimal(&unit, k, 1.34);
        prop_assert!(
            heur.edge_cut(&unit) <= 3.0 * oracle.edge_cut(&unit) + 6.0,
            "heuristic {} vs oracle {}",
            heur.edge_cut(&unit),
            oracle.edge_cut(&unit)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn framing_roundtrips_arbitrary_payloads(body in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        let got = read_frame(&mut std::io::Cursor::new(&buf)).unwrap();
        prop_assert_eq!(got, body);
    }

    #[test]
    fn pseudo_measurements_roundtrip(vals in proptest::collection::vec(
        (0usize..500, -1.0f64..1.0, 0.8f64..1.2), 0..40)) {
        use pgse::dse::pseudo::{from_wire, to_wire};
        let batch: Vec<pgse::dse::PseudoMeasurement> = vals
            .into_iter()
            .map(|(bus, va, vm)| pgse::dse::PseudoMeasurement {
                from_area: bus % 9,
                global_bus: bus,
                vm,
                va,
                sigma_vm: 0.003,
                sigma_va: 0.002,
            })
            .collect();
        let back = from_wire(&to_wire(&batch)).unwrap();
        prop_assert_eq!(back, batch);
    }
}
