//! Multilevel k-way partitioning.
//!
//! The classic METIS recipe at prototype scale:
//!
//! 1. **Coarsen** by heavy-edge matching until the graph is small;
//! 2. **Initial partition** of the coarsest graph by greedy
//!    largest-weight-first assignment to the least-loaded part;
//! 3. **Uncoarsen**, projecting the assignment back level by level and
//!    running an FM-style boundary **refinement** pass at each level.
//!
//! Refinement moves a vertex when it reduces the edge cut without breaking
//! the balance constraint, or when it repairs an overloaded part.

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

use crate::graph::WeightedGraph;
use crate::partition::Partition;

/// Coarsening stops once the graph has at most `COARSEN_TO × k` vertices.
const COARSEN_TO: usize = 8;
/// Refinement passes per level.
const REFINE_PASSES: usize = 8;

/// Options of the multilevel partitioner.
#[derive(Debug, Clone, Copy)]
pub struct KwayOptions {
    /// Allowed load-imbalance ratio (METIS default threshold: 1.05).
    pub imbalance_tol: f64,
    /// RNG seed for matching/tie-breaking (results are deterministic per
    /// seed).
    pub seed: u64,
}

impl Default for KwayOptions {
    fn default() -> Self {
        KwayOptions { imbalance_tol: 1.05, seed: 1 }
    }
}

/// Partitions `g` into `k` parts.
///
/// # Panics
/// Panics if `k == 0` or `k > g.n()`.
pub fn partition_kway(g: &WeightedGraph, k: usize, opts: &KwayOptions) -> Partition {
    assert!(k > 0, "k must be positive");
    assert!(k <= g.n(), "more parts than vertices");
    if k == g.n() {
        return Partition::new((0..g.n()).collect(), k);
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Coarsening phase: a stack of (graph, map-to-coarse).
    let mut levels: Vec<(WeightedGraph, Vec<usize>)> = Vec::new();
    let mut current = g.clone();
    while current.n() > COARSEN_TO * k {
        let (coarse, map) = coarsen_once(&current, &mut rng);
        if coarse.n() == current.n() {
            break; // no matching progress (e.g. no edges)
        }
        levels.push((current, map));
        current = coarse;
    }

    // Initial partition of the coarsest graph.
    let mut assignment = greedy_initial(&current, k);
    refine(&current, &mut assignment, k, opts);

    // Uncoarsening with refinement.
    while let Some((fine, map)) = levels.pop() {
        let mut fine_assignment = vec![0usize; fine.n()];
        for v in 0..fine.n() {
            fine_assignment[v] = assignment[map[v]];
        }
        assignment = fine_assignment;
        refine(&fine, &mut assignment, k, opts);
        current = fine;
    }
    let _ = current;
    Partition::new(assignment, k)
}

/// One heavy-edge-matching coarsening step. Returns the coarse graph and
/// the fine→coarse vertex map.
fn coarsen_once(g: &WeightedGraph, rng: &mut StdRng) -> (WeightedGraph, Vec<usize>) {
    let n = g.n();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut mate = vec![usize::MAX; n];
    for &v in &order {
        if mate[v] != usize::MAX {
            continue;
        }
        // Match with the heaviest-edge unmatched neighbour.
        let best = g
            .neighbors(v)
            .iter()
            .filter(|(u, _)| mate[*u] == usize::MAX && *u != v)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite weights"));
        match best {
            Some(&(u, _)) => {
                mate[v] = u;
                mate[u] = v;
            }
            None => mate[v] = v, // stays single
        }
    }
    // Assign coarse ids.
    let mut map = vec![usize::MAX; n];
    let mut next = 0usize;
    for v in 0..n {
        if map[v] != usize::MAX {
            continue;
        }
        map[v] = next;
        let m = mate[v];
        if m != v && m != usize::MAX {
            map[m] = next;
        }
        next += 1;
    }
    // Build the coarse graph.
    let mut vwgt = vec![0.0f64; next];
    for v in 0..n {
        vwgt[map[v]] += g.vertex_weight(v);
    }
    let mut coarse = WeightedGraph::with_vertex_weights(vwgt);
    for (u, v, w) in g.edges() {
        let (cu, cv) = (map[u], map[v]);
        if cu != cv {
            coarse.add_edge(cu, cv, w);
        }
    }
    (coarse, map)
}

/// Region-growing initial assignment: seeds are spread by farthest-point
/// sampling, then the least-loaded part repeatedly claims the unassigned
/// vertex most strongly connected to it. Produces contiguous, balanced
/// regions — much better refinement starting points than weight-greedy
/// striping.
fn greedy_initial(g: &WeightedGraph, k: usize) -> Vec<usize> {
    let n = g.n();
    // Farthest-point seeds (BFS hop distance).
    let mut seeds = vec![0usize];
    while seeds.len() < k {
        let dist = multi_source_bfs(g, &seeds);
        let far = (0..n)
            .filter(|v| !seeds.contains(v))
            .max_by_key(|&v| if dist[v] == usize::MAX { n + 1 } else { dist[v] })
            .expect("k <= n leaves unseeded vertices");
        seeds.push(far);
    }
    let mut assignment = vec![usize::MAX; n];
    let mut loads = vec![0.0f64; k];
    for (p, &s) in seeds.iter().enumerate() {
        assignment[s] = p;
        loads[p] += g.vertex_weight(s);
    }
    let mut remaining = n - k;
    while remaining > 0 {
        // Least-loaded part claims next.
        let p = (0..k)
            .min_by(|&a, &b| loads[a].partial_cmp(&loads[b]).expect("finite loads"))
            .expect("k > 0");
        // Best unassigned vertex: strongest connectivity to part p; fall
        // back to any unassigned vertex (disconnected graphs).
        let mut best: Option<(usize, f64)> = None;
        for v in 0..n {
            if assignment[v] != usize::MAX {
                continue;
            }
            let conn: f64 = g
                .neighbors(v)
                .iter()
                .filter(|(u, _)| assignment[*u] == p)
                .map(|(_, w)| w)
                .sum();
            if best.is_none_or(|(_, c)| conn > c) {
                best = Some((v, conn));
            }
        }
        let (v, _) = best.expect("remaining > 0");
        assignment[v] = p;
        loads[p] += g.vertex_weight(v);
        remaining -= 1;
    }
    assignment
}

/// BFS hop distances from a set of sources.
fn multi_source_bfs(g: &WeightedGraph, sources: &[usize]) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut queue = std::collections::VecDeque::new();
    for &s in sources {
        dist[s] = 0;
        queue.push_back(s);
    }
    while let Some(v) = queue.pop_front() {
        for &(u, _) in g.neighbors(v) {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// FM-style refinement passes: cut-reducing moves under the balance
/// constraint, plus rebalancing moves when a part exceeds the tolerance.
pub(crate) fn refine(g: &WeightedGraph, assignment: &mut [usize], k: usize, opts: &KwayOptions) {
    let avg = g.total_weight() / k as f64;
    let max_load = opts.imbalance_tol * avg;
    let mut loads = vec![0.0f64; k];
    for (v, &p) in assignment.iter().enumerate() {
        loads[p] += g.vertex_weight(v);
    }
    for _ in 0..REFINE_PASSES {
        let mut improved = false;
        for v in 0..g.n() {
            let a = assignment[v];
            let w = g.vertex_weight(v);
            // Connectivity of v to each part.
            let mut conn = vec![0.0f64; k];
            for &(u, ew) in g.neighbors(v) {
                conn[assignment[u]] += ew;
            }
            // Don't empty a part (each cluster must host work).
            let part_count = assignment.iter().filter(|&&p| p == a).count();
            if part_count <= 1 {
                continue;
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
                let gain = conn[b] - conn[a];
                let acceptable = if overloaded && improves_balance {
                    // Repairing balance may pay a small cut penalty.
                    true
                } else {
                    gain > 1e-12
                };
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
                improved = true;
            }
        }
        // KL-style swap pass: escapes balanced local optima that single
        // moves cannot leave (both parts full). Quadratic, so reserved for
        // decomposition-scale graphs.
        if g.n() <= 1024 {
            improved |= swap_pass(g, assignment, &mut loads, max_load);
        }
        if !improved {
            break;
        }
    }
}

/// One pass of cut-reducing pairwise swaps under the balance constraint.
/// Returns whether anything moved.
fn swap_pass(
    g: &WeightedGraph,
    assignment: &mut [usize],
    loads: &mut [f64],
    max_load: f64,
) -> bool {
    let n = g.n();
    let mut any = false;
    for v in 0..n {
        // Gain of moving x into part p, from its current part.
        let gain_to = |assignment: &[usize], x: usize, p: usize| -> f64 {
            let mut to_p = 0.0;
            let mut internal = 0.0;
            for &(u, w) in g.neighbors(x) {
                if assignment[u] == p {
                    to_p += w;
                } else if assignment[u] == assignment[x] {
                    internal += w;
                }
            }
            to_p - internal
        };
        let a = assignment[v];
        let wv = g.vertex_weight(v);
        let mut best: Option<(usize, f64)> = None;
        for u in (v + 1)..n {
            let b = assignment[u];
            if b == a {
                continue;
            }
            let wu = g.vertex_weight(u);
            let fits = loads[a] - wv + wu <= max_load && loads[b] - wu + wv <= max_load;
            if !fits {
                continue;
            }
            let gain = gain_to(assignment, v, b) + gain_to(assignment, u, a)
                - 2.0 * g.edge_weight(u, v);
            if gain > 1e-12 && best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((u, gain));
            }
        }
        if let Some((u, _)) = best {
            let b = assignment[u];
            let wu = g.vertex_weight(u);
            assignment[v] = b;
            assignment[u] = a;
            loads[a] += wu - wv;
            loads[b] += wv - wu;
            any = true;
        }
    }
    any
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The paper's Table I decomposition graph.
    pub(crate) fn table1_graph() -> WeightedGraph {
        let mut g = WeightedGraph::with_vertex_weights(vec![
            14.0, 13.0, 13.0, 13.0, 13.0, 12.0, 14.0, 13.0, 13.0,
        ]);
        for (u, v) in [
            (0, 1),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 5),
            (2, 5),
            (3, 4),
            (3, 6),
            (4, 5),
            (4, 6),
            (4, 7),
            (6, 8),
        ] {
            let w = g.vertex_weight(u) + g.vertex_weight(v);
            g.add_edge(u, v, w);
        }
        g
    }

    #[test]
    fn table1_three_way_is_balanced() {
        // The paper's Fig. 4 scenario: 9 subsystems → 3 clusters, balanced.
        let g = table1_graph();
        let p = partition_kway(&g, 3, &KwayOptions::default());
        assert!(p.all_parts_used());
        let loads = p.part_loads(&g);
        assert_eq!(loads.iter().sum::<f64>(), 118.0);
        // Every part has exactly 3 subsystems at these near-equal weights.
        for part in 0..3 {
            assert_eq!(p.part(part).len(), 3, "loads {loads:?}");
        }
        assert!(p.imbalance(&g) <= 1.05, "imbalance {}", p.imbalance(&g));
    }

    #[test]
    fn two_cliques_are_separated() {
        // Two 4-cliques joined by one light edge: the obvious bisection.
        let mut g = WeightedGraph::new(8);
        for c in [0usize, 4] {
            for i in c..c + 4 {
                for j in (i + 1)..c + 4 {
                    g.add_edge(i, j, 10.0);
                }
            }
        }
        g.add_edge(3, 4, 1.0);
        let p = partition_kway(&g, 2, &KwayOptions::default());
        assert_eq!(p.edge_cut(&g), 1.0);
        assert!(p.imbalance(&g) <= 1.0 + 1e-12);
    }

    #[test]
    fn k_equals_n_is_identity_like() {
        let g = table1_graph();
        let p = partition_kway(&g, 9, &KwayOptions::default());
        assert!(p.all_parts_used());
        assert_eq!(p.assignment.len(), 9);
    }

    #[test]
    fn large_random_graph_stays_within_tolerance() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200;
        let mut g = WeightedGraph::with_vertex_weights(
            (0..n).map(|_| rng.gen_range(5.0..25.0)).collect(),
        );
        for v in 1..n {
            let u = rng.gen_range(0..v);
            g.add_edge(u, v, rng.gen_range(1.0..5.0));
        }
        for _ in 0..300 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && g.edge_weight(u, v) == 0.0 {
                g.add_edge(u, v, rng.gen_range(1.0..5.0));
            }
        }
        for k in [2usize, 4, 8] {
            let p = partition_kway(&g, k, &KwayOptions::default());
            assert!(p.all_parts_used(), "k={k}");
            // Weighted graphs with coarse granularity can slightly exceed
            // the tolerance; allow a small slack above the target.
            assert!(p.imbalance(&g) <= 1.15, "k={k} imbalance {}", p.imbalance(&g));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = table1_graph();
        let a = partition_kway(&g, 3, &KwayOptions::default());
        let b = partition_kway(&g, 3, &KwayOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn refinement_reduces_cut_of_bad_start() {
        let g = table1_graph();
        // Deliberately bad: stripes.
        let mut asg: Vec<usize> = (0..9).map(|v| v % 3).collect();
        let before = Partition::new(asg.clone(), 3).edge_cut(&g);
        refine(&g, &mut asg, 3, &KwayOptions::default());
        let after = Partition::new(asg, 3).edge_cut(&g);
        assert!(after <= before, "{after} !<= {before}");
    }
}
