//! Adaptive repartitioning.
//!
//! Between DSE Step 1 and Step 2 the graph weights change (edge weights
//! become real communication volumes, vertex weights change with the new
//! computation estimate), and the paper re-invokes METIS's repartitioning
//! routine: improve the objective under the *new* weights while moving as
//! few subsystems as possible, because every moved subsystem forces its raw
//! measurement data to be redistributed to another cluster (§IV-C). In the
//! paper's example only subsystems 4 and 5 swap clusters (Figs. 4→5).

use crate::graph::WeightedGraph;
use crate::partition::Partition;

/// Options of the adaptive repartitioner.
#[derive(Debug, Clone, Copy)]
pub struct RepartitionOptions {
    /// Allowed load-imbalance ratio under the new weights.
    pub imbalance_tol: f64,
    /// Cut-gain a move must additionally earn per unit of migration (the
    /// redistribution cost of moving a subsystem's raw data).
    pub migration_penalty: f64,
    /// Refinement passes.
    pub passes: usize,
}

impl Default for RepartitionOptions {
    fn default() -> Self {
        RepartitionOptions { imbalance_tol: 1.10, migration_penalty: 1.0, passes: 8 }
    }
}

/// Adapts `previous` to the (re-weighted) graph `g`.
///
/// Starts from the previous assignment and performs migration-penalized
/// FM moves: a move's score is its edge-cut gain minus
/// `migration_penalty × Δmigration`, with rebalancing moves forced when a
/// part exceeds the tolerance.
///
/// # Panics
/// Panics when `previous` does not match `g`'s vertex count.
pub fn repartition(
    g: &WeightedGraph,
    previous: &Partition,
    opts: &RepartitionOptions,
) -> Partition {
    assert_eq!(previous.assignment.len(), g.n(), "partition/graph size mismatch");
    let k = previous.k;
    let mut assignment = previous.assignment.clone();
    let avg = g.total_weight() / k as f64;
    let max_load = opts.imbalance_tol * avg;
    let mut loads = vec![0.0f64; k];
    for (v, &p) in assignment.iter().enumerate() {
        loads[p] += g.vertex_weight(v);
    }

    for _ in 0..opts.passes {
        let mut moved = false;
        for v in 0..g.n() {
            let a = assignment[v];
            let w = g.vertex_weight(v);
            let part_count = assignment.iter().filter(|&&p| p == a).count();
            if part_count <= 1 {
                continue;
            }
            let mut conn = vec![0.0f64; k];
            for &(u, ew) in g.neighbors(v) {
                conn[assignment[u]] += ew;
            }
            let overloaded = loads[a] > max_load;
            let mut best: Option<(usize, f64)> = None;
            for b in 0..k {
                if b == a {
                    continue;
                }
                let fits = loads[b] + w <= max_load;
                let improves_balance = loads[b] + w < loads[a];
                if !(fits || (overloaded && improves_balance)) {
                    continue;
                }
                // Migration delta of this move relative to the previous
                // mapping: +1 when leaving the original cluster, −1 when
                // returning to it.
                let dmig = (b != previous.assignment[v]) as i64
                    - (a != previous.assignment[v]) as i64;
                let gain = conn[b] - conn[a] - opts.migration_penalty * dmig as f64;
                let acceptable =
                    if overloaded && improves_balance { true } else { gain > 1e-12 };
                if acceptable {
                    let score = if overloaded { gain + (loads[a] - loads[b]) } else { gain };
                    if best.is_none_or(|(_, s)| score > s) {
                        best = Some((b, score));
                    }
                }
            }
            if let Some((b, _)) = best {
                loads[a] -= w;
                loads[b] += w;
                assignment[v] = b;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    Partition::new(assignment, k)
}

/// Remaps `previous` onto the surviving parts after the clusters in
/// `dead` disappear from the fleet.
///
/// This is the failover variant of the paper's pre-Step-1/pre-Step-2
/// remap: the objective is still balance + connectivity, but the
/// migration constraint is absolute — **only vertices hosted on a dead
/// part move**. Survivors keep every subsystem they already hold, so
/// the redistribution plan derived from the result (`pgse-cluster`'s
/// `plan_redistribution`) contains
/// exclusively moves that originate at a dead cluster, and the raw-data
/// shipping cost of the failover is the minimum the placement allows.
///
/// Dead-part vertices are placed heaviest-first: each goes to the
/// surviving part with the strongest edge connectivity to the already
/// placed assignment among parts that stay under `opts.imbalance_tol`
/// (ties broken by lighter load, then lower part index); when no
/// survivor fits the tolerance, the least-loaded survivor takes it. The
/// procedure is fully deterministic for deterministic inputs.
///
/// The part count `k` is preserved — dead parts simply end up empty —
/// so the returned assignment stays directly comparable with `previous`
/// for migration accounting.
///
/// # Panics
/// Panics when `previous` does not match `g`'s vertex count, when `dead`
/// names a part `>= k`, or when every part is dead.
pub fn repartition_shrink(
    g: &WeightedGraph,
    previous: &Partition,
    dead: &[usize],
    opts: &RepartitionOptions,
) -> Partition {
    assert_eq!(previous.assignment.len(), g.n(), "partition/graph size mismatch");
    let k = previous.k;
    let mut is_dead = vec![false; k];
    for &d in dead {
        assert!(d < k, "dead part {d} out of range (k = {k})");
        is_dead[d] = true;
    }
    let survivors: Vec<usize> = (0..k).filter(|&p| !is_dead[p]).collect();
    assert!(!survivors.is_empty(), "every part is dead; nothing to shrink onto");

    let mut assignment = previous.assignment.clone();
    let avg = g.total_weight() / survivors.len() as f64;
    let max_load = opts.imbalance_tol * avg;
    let mut loads = vec![0.0f64; k];
    for (v, &p) in assignment.iter().enumerate() {
        if !is_dead[p] {
            loads[p] += g.vertex_weight(v);
        }
    }

    // Orphans, heaviest first (index-ordered within equal weights).
    let mut movers: Vec<usize> =
        (0..g.n()).filter(|&v| is_dead[assignment[v]]).collect();
    movers.sort_by(|&a, &b| {
        g.vertex_weight(b)
            .partial_cmp(&g.vertex_weight(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    for v in movers {
        let w = g.vertex_weight(v);
        let mut conn = vec![0.0f64; k];
        for &(u, ew) in g.neighbors(v) {
            // Earlier movers are already re-placed; still-orphaned
            // neighbours contribute nothing (their part is going away).
            if !is_dead[assignment[u]] {
                conn[assignment[u]] += ew;
            }
        }
        let mut best: Option<usize> = None;
        for &b in &survivors {
            let fits = loads[b] + w <= max_load;
            let better = match best {
                None => true,
                Some(cur) => {
                    let cur_fits = loads[cur] + w <= max_load;
                    // Lexicographic: fits > connectivity > lighter load.
                    (fits, conn[b], -loads[b]) > (cur_fits, conn[cur], -loads[cur])
                }
            };
            if better {
                best = Some(b);
            }
        }
        let b = best.expect("at least one survivor");
        assignment[v] = b;
        loads[b] += w;
    }
    Partition::new(assignment, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway::{partition_kway, tests::table1_graph, KwayOptions};

    #[test]
    fn stable_weights_cause_no_migration() {
        let g = table1_graph();
        let p1 = partition_kway(&g, 3, &KwayOptions::default());
        let p2 = repartition(&g, &p1, &RepartitionOptions::default());
        assert_eq!(p2.migration(&p1), 0);
    }

    #[test]
    fn weight_shift_triggers_bounded_migration() {
        // Step 2 weights: one subsystem becomes much more expensive.
        let g1 = table1_graph();
        let p1 = partition_kway(&g1, 3, &KwayOptions::default());
        let mut g2 = table1_graph();
        g2.set_vertex_weight(4, 40.0); // subsystem 5 triples in cost
        let p2 = repartition(&g2, &p1, &RepartitionOptions::default());
        assert!(p2.imbalance(&g2) <= 1.35, "imbalance {}", p2.imbalance(&g2));
        // Migration stays small — the paper's example moves two subsystems.
        assert!(p2.migration(&p1) <= 3, "migration {}", p2.migration(&p1));
    }

    #[test]
    fn migration_penalty_suppresses_marginal_moves() {
        let g = table1_graph();
        let p1 = partition_kway(&g, 3, &KwayOptions::default());
        // With an enormous penalty, nothing moves even if small cut gains
        // exist.
        let frozen = repartition(
            &g,
            &p1,
            &RepartitionOptions { migration_penalty: 1e9, ..Default::default() },
        );
        assert_eq!(frozen.migration(&p1), 0);
    }

    #[test]
    fn rebalancing_overrides_penalty_when_overloaded() {
        let mut g = table1_graph();
        // Make part loads wildly uneven under the old mapping.
        let p1 = partition_kway(&table1_graph(), 3, &KwayOptions::default());
        for &v in &p1.part(0) {
            g.set_vertex_weight(v, 100.0);
        }
        let p2 = repartition(
            &g,
            &p1,
            &RepartitionOptions { migration_penalty: 10.0, ..Default::default() },
        );
        assert!(p2.imbalance(&g) < p1.imbalance(&g));
        assert!(p2.migration(&p1) > 0);
    }

    #[test]
    fn shrink_moves_only_dead_part_vertices() {
        let g = table1_graph();
        let p1 = partition_kway(&g, 3, &KwayOptions::default());
        for dead in 0..3usize {
            let shrunk = repartition_shrink(&g, &p1, &[dead], &RepartitionOptions::default());
            for v in 0..g.n() {
                if p1.assignment[v] != dead {
                    assert_eq!(
                        shrunk.assignment[v], p1.assignment[v],
                        "vertex {v} moved although its part {} survived",
                        p1.assignment[v]
                    );
                } else {
                    assert_ne!(shrunk.assignment[v], dead, "vertex {v} left on dead part");
                }
            }
            // The dead part is empty; k is preserved for migration math.
            assert_eq!(shrunk.k, 3);
            assert!(shrunk.part(dead).is_empty());
            // Exactly the dead part's vertices migrated.
            assert_eq!(shrunk.migration(&p1), p1.part(dead).len());
        }
    }

    #[test]
    fn shrink_keeps_survivor_loads_reasonably_balanced() {
        let g = table1_graph();
        let p1 = partition_kway(&g, 3, &KwayOptions::default());
        let shrunk = repartition_shrink(&g, &p1, &[2], &RepartitionOptions::default());
        let loads = shrunk.part_loads(&g);
        let total: f64 = loads.iter().sum();
        let avg = total / 2.0;
        for p in [0usize, 1] {
            assert!(
                loads[p] <= 1.5 * avg,
                "survivor {p} overloaded: {} vs avg {avg}",
                loads[p]
            );
        }
        assert_eq!(loads[2], 0.0);
    }

    #[test]
    fn shrink_is_deterministic() {
        let g = table1_graph();
        let p1 = partition_kway(&g, 3, &KwayOptions::default());
        let a = repartition_shrink(&g, &p1, &[1], &RepartitionOptions::default());
        let b = repartition_shrink(&g, &p1, &[1], &RepartitionOptions::default());
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn shrink_handles_multiple_dead_parts() {
        let g = table1_graph();
        let p1 = partition_kway(&g, 3, &KwayOptions::default());
        let shrunk = repartition_shrink(&g, &p1, &[0, 2], &RepartitionOptions::default());
        // Everything lands on the lone survivor.
        assert!(shrunk.assignment.iter().all(|&p| p == 1));
    }

    #[test]
    #[should_panic(expected = "every part is dead")]
    fn shrink_rejects_killing_the_whole_fleet() {
        let g = table1_graph();
        let p1 = partition_kway(&g, 3, &KwayOptions::default());
        repartition_shrink(&g, &p1, &[0, 1, 2], &RepartitionOptions::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shrink_rejects_unknown_parts() {
        let g = table1_graph();
        let p1 = partition_kway(&g, 3, &KwayOptions::default());
        repartition_shrink(&g, &p1, &[7], &RepartitionOptions::default());
    }

    #[test]
    fn full_sequence_mirrors_paper_workflow() {
        // Step 1: uniform edge weights (no Step-1 communication).
        let mut g1 = table1_graph();
        for (u, v, _) in g1.edges() {
            g1.set_edge_weight(u, v, 1.0);
        }
        // Step 2: Table I communication weights.
        let g2 = table1_graph();
        let p1 = partition_kway(&g1, 3, &KwayOptions::default());
        let p2 = repartition(&g2, &p1, &RepartitionOptions::default());
        assert!(p1.all_parts_used() && p2.all_parts_used());
        assert!(p2.imbalance(&g2) <= 1.10);
        // Paper: the Step-2 scheme moves only a couple of subsystems.
        assert!(p2.migration(&p1) <= 4);
    }
}
