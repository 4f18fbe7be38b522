//! Property-based tests of the batched multi-area solver: on random SPD
//! systems with shared sparsity patterns, the lane-interleaved batch is
//! bitwise identical to independent scalar factorizations, refactoring is
//! bitwise identical to factoring from scratch, and malformed inputs
//! (mismatched sizes, non-SPD lanes) produce typed errors naming the
//! offending lane.

use proptest::prelude::*;

use std::sync::Arc;

use pgse_sparsela::{
    BatchCholesky, BatchPlan, CholSymbolic, Coo, Csr, LaError, SparseCholesky,
};

/// Strategy: a random sparse SPD matrix as (n, triplets); `AᵀA + cI` of a
/// diagonally-strengthened random matrix is SPD with symmetric pattern.
fn spd_parts() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (3usize..10).prop_flat_map(|n| {
        let entries =
            proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..(3 * n));
        entries.prop_map(move |mut trips| {
            for i in 0..n {
                trips.push((i, i, 6.0));
            }
            (n, trips)
        })
    })
}

fn build_spd(n: usize, trips: &[(usize, usize, f64)]) -> Csr {
    let mut coo = Coo::new(n, n);
    for &(i, j, v) in trips {
        coo.push(i, j, v);
    }
    let a = coo.to_csr();
    a.ata_weighted(&vec![1.0; n]).add_scaled(&Csr::identity(n), 3.0)
}

/// A same-pattern SPD value variant of `base`: the diagonal congruence
/// `D·base·D` with positive per-index scales keyed on `(seed, index)`.
fn lane_variant(base: &Csr, seed: u64) -> Csr {
    let n = base.nrows();
    let d: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.02 * ((seed.wrapping_mul(37) + i as u64) % 19) as f64)
        .collect();
    let mut m = base.clone();
    let row_ptr = base.row_ptr().to_vec();
    let col_idx = base.col_idx().to_vec();
    let vals = m.values_mut();
    for r in 0..n {
        for p in row_ptr[r]..row_ptr[r + 1] {
            vals[p] *= d[r] * d[col_idx[p]];
        }
    }
    m
}

fn rhs_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n).map(|i| ((seed * 13 + i as u64) as f64 * 0.29).sin() + 0.1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batched_lanes_match_scalar_factorizations_bitwise(
        (n, trips) in spd_parts(),
        n_lanes in 1usize..6,
        seed in 0u64..1000,
    ) {
        let base = build_spd(n, &trips);
        let lanes: Vec<Csr> =
            (0..n_lanes).map(|l| lane_variant(&base, seed + l as u64)).collect();
        let refs: Vec<&Csr> = lanes.iter().collect();
        let batch = BatchCholesky::factor(&refs).unwrap();
        let rhs: Vec<Vec<f64>> = (0..n_lanes).map(|l| rhs_for(n, seed + l as u64)).collect();
        let rhs_refs: Vec<&[f64]> = rhs.iter().map(|b| b.as_slice()).collect();
        let all = batch.solve_all(&rhs_refs);
        for (l, lane) in lanes.iter().enumerate() {
            let scalar = SparseCholesky::factor(lane).unwrap();
            let want = scalar.solve(&rhs[l]);
            for (x, y) in all[l].iter().zip(&want) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn solve_round_matches_individual_solves_bitwise(
        (n_a, trips_a) in spd_parts(),
        (n_b, trips_b) in spd_parts(),
        seed in 0u64..1000,
    ) {
        // Two distinct patterns interleaved: grouping must reassemble
        // each pattern's lanes and return results in input order.
        let base_a = build_spd(n_a, &trips_a);
        let base_b = build_spd(n_b, &trips_b);
        let mats: Vec<Csr> = (0..6u64)
            .map(|i| {
                let base = if i % 2 == 0 { &base_a } else { &base_b };
                lane_variant(base, seed + i)
            })
            .collect();
        let rhs: Vec<Vec<f64>> =
            mats.iter().enumerate().map(|(i, m)| rhs_for(m.nrows(), seed + i as u64)).collect();
        let systems: Vec<(&Csr, &[f64])> =
            mats.iter().zip(&rhs).map(|(m, b)| (m, b.as_slice())).collect();
        let sols = BatchPlan::new().solve_round(&systems).results;
        prop_assert_eq!(sols.len(), systems.len());
        for ((m, b), got) in systems.iter().zip(&sols) {
            let want = SparseCholesky::factor(m).unwrap().solve(b);
            for (x, y) in got.as_ref().unwrap().iter().zip(&want) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn refactor_matches_fresh_factorization_bitwise(
        (n, trips) in spd_parts(),
        n_lanes in 1usize..5,
        seed in 0u64..1000,
    ) {
        let base = build_spd(n, &trips);
        let first: Vec<Csr> =
            (0..n_lanes).map(|l| lane_variant(&base, seed + l as u64)).collect();
        let second: Vec<Csr> =
            (0..n_lanes).map(|l| lane_variant(&base, seed + 100 + l as u64)).collect();
        let first_refs: Vec<&Csr> = first.iter().collect();
        let second_refs: Vec<&Csr> = second.iter().collect();

        let mut warm = BatchCholesky::factor(&first_refs).unwrap();
        warm.refactor(&second_refs).unwrap();
        let fresh = BatchCholesky::factor(&second_refs).unwrap();
        let b = rhs_for(n, seed);
        let rhs: Vec<&[f64]> = vec![&b; n_lanes];
        for (got, want) in warm.solve_all(&rhs).iter().zip(&fresh.solve_all(&rhs)) {
            for (x, y) in got.iter().zip(want) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn mismatched_lane_size_reports_its_position(
        (n, trips) in spd_parts(),
        bad_pos in 0usize..4,
    ) {
        let base = build_spd(n, &trips);
        let other = build_spd(n + 1, &{
            let mut t = trips.clone();
            t.push((n, n, 6.0));
            t
        });
        let rhs_base = rhs_for(n, 1);
        let rhs_other = rhs_for(n + 1, 1);
        let mut systems: Vec<(&Csr, &[f64])> = vec![(&base, rhs_base.as_slice()); 4];
        // A right-hand side of the wrong length must be rejected as a
        // typed per-system dimension error at exactly `bad_pos`.
        systems[bad_pos] = (&base, rhs_other.as_slice());
        for (pos, res) in BatchPlan::new().solve_round(&systems).results.iter().enumerate() {
            if pos == bad_pos {
                prop_assert!(matches!(res, Err(LaError::DimensionMismatch { .. })), "{:?}", res);
            } else {
                prop_assert!(res.is_ok(), "system {} failed: {:?}", pos, res);
            }
        }
        // So must a lane whose pattern differs from its batch symbolic.
        let sym = Arc::new(CholSymbolic::analyze(&base));
        let mut mixed: Vec<&Csr> = vec![&base; 4];
        mixed[bad_pos] = &other;
        match BatchCholesky::factor_with_symbolic(sym, &mixed) {
            Err(LaError::Lane { lane, source }) => {
                prop_assert_eq!(lane, bad_pos);
                prop_assert!(matches!(*source, LaError::PatternMismatch { .. }));
            }
            other => prop_assert!(false, "expected Lane error, got {:?}", other),
        }
    }

    #[test]
    fn indefinite_lane_reports_lane_and_scalar_step(
        (n, trips) in spd_parts(),
        n_lanes in 2usize..5,
        bad in 0usize..5,
        seed in 0u64..1000,
    ) {
        let bad = bad % n_lanes;
        let base = build_spd(n, &trips);
        let mut lanes: Vec<Csr> =
            (0..n_lanes).map(|l| lane_variant(&base, seed + l as u64)).collect();
        // Poison one lane: flip the sign of every value. The matrix stays
        // symmetric with the same pattern but is negative definite.
        for v in lanes[bad].values_mut() {
            *v = -*v;
        }
        let refs: Vec<&Csr> = lanes.iter().collect();
        match BatchCholesky::factor(&refs) {
            Err(LaError::Lane { lane, source }) => {
                prop_assert_eq!(lane, bad);
                // The reported step is the same one the scalar
                // factorization of that lane fails at.
                let scalar_err = SparseCholesky::factor(&lanes[bad]).unwrap_err();
                match (*source, scalar_err) {
                    (
                        LaError::NotPositiveDefinite { step, .. },
                        LaError::NotPositiveDefinite { step: s2, .. },
                    ) => prop_assert_eq!(step, s2),
                    other => prop_assert!(false, "expected NPD pair, got {:?}", other),
                }
            }
            other => prop_assert!(false, "expected Lane error, got {:?}", other),
        }
    }

    #[test]
    fn failed_refactor_preserves_the_previous_factor(
        (n, trips) in spd_parts(),
        seed in 0u64..1000,
    ) {
        let base = build_spd(n, &trips);
        let good = lane_variant(&base, seed);
        let mut poisoned = good.clone();
        for v in poisoned.values_mut() {
            *v = -*v;
        }
        let refs: Vec<&Csr> = vec![&good];
        let mut batch = BatchCholesky::factor(&refs).unwrap();
        let b = rhs_for(n, seed);
        let before = batch.solve_all(&[&b]);
        prop_assert!(batch.refactor(&[&poisoned]).is_err());
        // The old numeric factor survives a failed refresh untouched.
        let after = batch.solve_all(&[&b]);
        for (x, y) in before[0].iter().zip(&after[0]) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
