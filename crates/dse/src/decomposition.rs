//! The preliminary step: decomposition and sensitivity analysis.
//!
//! Carried out once per topology, off-line (paper §II, Preliminary Step):
//! boundary buses are the tie-line endpoints; *sensitive internal* buses
//! are the internal buses whose state reacts most strongly to boundary
//! conditions. We quantify that with the DC (susceptance-Laplacian)
//! sensitivity matrix `S = −B_ii⁻¹ B_ib`: internal bus `i`'s sensitivity is
//! the row norm of `S`, and the top fraction is marked sensitive. These are
//! the buses whose Step-1 solutions are shipped to neighbours and
//! re-evaluated in Step 2, and `gs = |boundary| + |sensitive|` feeds the
//! partitioner's edge-weight model.

use pgse_grid::Network;
use pgse_sparsela::{Coo, SparseCholesky};

/// Tuning of the preliminary step.
#[derive(Debug, Clone, Copy)]
pub struct DecompositionOptions {
    /// Fraction of internal buses marked sensitive (ceil-rounded).
    pub sensitive_fraction: f64,
}

impl Default for DecompositionOptions {
    fn default() -> Self {
        DecompositionOptions { sensitive_fraction: 0.25 }
    }
}

/// Everything a subsystem's estimator needs to know about its area.
#[derive(Debug, Clone)]
pub struct AreaInfo {
    /// Area id.
    pub area: usize,
    /// The extracted local network (internal branches only).
    pub subnet: Network,
    /// Local bus index → global bus index.
    pub global_ids: Vec<usize>,
    /// Local indices of boundary buses (tie-line endpoints).
    pub boundary: Vec<usize>,
    /// Local indices of sensitive internal buses.
    pub sensitive: Vec<usize>,
    /// Neighbouring areas (share at least one tie line).
    pub neighbors: Vec<usize>,
    /// Local indices of PMU sites (≥ 1 per area — the shared reference).
    pub pmu_sites: Vec<usize>,
}

impl AreaInfo {
    /// `gs`: the count of boundary + sensitive internal buses (paper
    /// Expression (5) input).
    pub fn gs(&self) -> usize {
        self.boundary.len() + self.sensitive.len()
    }

    /// Local indices whose solutions are exported to neighbours.
    pub fn exported_buses(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.boundary.iter().chain(&self.sensitive).copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The full decomposition of an interconnection.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Per-area information, indexed by area id.
    pub areas: Vec<AreaInfo>,
    /// Decomposition-graph edges (area pairs joined by tie lines).
    pub edges: Vec<(usize, usize)>,
    /// Global indices of tie-line branches.
    pub tie_lines: Vec<usize>,
}

impl Decomposition {
    /// Number of subsystems.
    pub fn n_areas(&self) -> usize {
        self.areas.len()
    }

    /// Decomposition-graph diameter in hops — the paper's bound on the
    /// number of Step-1/Step-2 exchange rounds before convergence.
    pub fn diameter(&self) -> usize {
        let n = self.n_areas();
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut diameter = 0usize;
        for s in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[s] = 0;
            let mut q = std::collections::VecDeque::from([s]);
            while let Some(v) = q.pop_front() {
                for &w in &adj[v] {
                    if dist[w] == usize::MAX {
                        dist[w] = dist[v] + 1;
                        q.push_back(w);
                    }
                }
            }
            for &d in &dist {
                if d != usize::MAX {
                    diameter = diameter.max(d);
                }
            }
        }
        diameter
    }
}

/// Runs the preliminary step on `net`.
///
/// # Panics
/// Panics when the network has no areas.
pub fn decompose(net: &Network, opts: &DecompositionOptions) -> Decomposition {
    let n_areas = net.n_areas();
    assert!(n_areas > 0, "network has no areas");
    let tie_lines = net.tie_lines();
    let edges = net.area_adjacency();

    let mut areas = Vec::with_capacity(n_areas);
    for a in 0..n_areas {
        let (subnet, global_ids) = net.extract_area(a);
        let mut local_of = std::collections::HashMap::new();
        for (l, &g) in global_ids.iter().enumerate() {
            local_of.insert(g, l);
        }
        let boundary: Vec<usize> = net
            .boundary_buses(a)
            .into_iter()
            .map(|g| local_of[&g])
            .collect();
        let sensitive = sensitive_internal_buses(&subnet, &boundary, opts.sensitive_fraction);
        let neighbors: Vec<usize> = edges
            .iter()
            .filter_map(|&(u, v)| {
                if u == a {
                    Some(v)
                } else if v == a {
                    Some(u)
                } else {
                    None
                }
            })
            .collect();
        // PMU at the highest-degree local bus (a realistic siting heuristic)
        // — it anchors the area's angle frame.
        let mut degree = vec![0usize; subnet.n_buses()];
        for br in &subnet.branches {
            degree[br.from] += 1;
            degree[br.to] += 1;
        }
        let pmu = (0..subnet.n_buses())
            .max_by_key(|&i| degree[i])
            .expect("area has buses");
        areas.push(AreaInfo {
            area: a,
            subnet,
            global_ids,
            boundary,
            sensitive,
            neighbors,
            pmu_sites: vec![pmu],
        });
    }
    Decomposition { areas, edges, tie_lines }
}

/// DC sensitivity analysis: ranks internal buses by the row norm of
/// `S = −B_ii⁻¹ B_ib` and returns the top `fraction` (ceil) as sensitive.
///
/// Falls back to an empty set when the area has no boundary or no internal
/// buses.
fn sensitive_internal_buses(
    subnet: &Network,
    boundary: &[usize],
    fraction: f64,
) -> Vec<usize> {
    let n = subnet.n_buses();
    let is_boundary: Vec<bool> = {
        let mut v = vec![false; n];
        for &b in boundary {
            v[b] = true;
        }
        v
    };
    let internal: Vec<usize> = (0..n).filter(|&i| !is_boundary[i]).collect();
    if internal.is_empty() || boundary.is_empty() || fraction <= 0.0 {
        return Vec::new();
    }

    // Grounded block B_ii of the local susceptance Laplacian (DC
    // approximation), assembled sparse; `row[i]` is internal bus i's row.
    let ni = internal.len();
    let mut row = vec![None; n];
    for (r, &i) in internal.iter().enumerate() {
        row[i] = Some(r);
    }
    let mut bii = Coo::new(ni, ni);
    for br in &subnet.branches {
        let w = 1.0 / br.x;
        let (f, t) = (row[br.from], row[br.to]);
        if let Some(f) = f {
            bii.push(f, f, w);
        }
        if let Some(t) = t {
            bii.push(t, t, w);
        }
        if let (Some(f), Some(t)) = (f, t) {
            bii.push(f, t, -w);
            bii.push(t, f, -w);
        }
    }
    for r in 0..ni {
        // Tiny regularisation keeps pathological islands solvable.
        bii.push(r, r, 1e-9);
    }
    // Row norms of S = −B_ii⁻¹ B_ib: one factorization, one solve per
    // boundary column. A factorization failure leaves every norm at zero.
    let mut norms = vec![0.0f64; ni];
    if let Ok(chol) = SparseCholesky::factor(&bii.to_csr()) {
        for &bb in boundary {
            // −B_ib's column: the susceptance of each internal–bb branch.
            let mut rhs = vec![0.0; ni];
            for br in &subnet.branches {
                let far = match (br.from == bb, br.to == bb) {
                    (true, false) => row[br.to],
                    (false, true) => row[br.from],
                    _ => None,
                };
                if let Some(r) = far {
                    rhs[r] += 1.0 / br.x;
                }
            }
            for (r, v) in chol.solve(&rhs).into_iter().enumerate() {
                norms[r] += v * v;
            }
        }
    }
    let take = ((ni as f64) * fraction).ceil() as usize;
    let mut ranked: Vec<usize> = (0..ni).collect();
    ranked.sort_by(|&a, &b| norms[b].partial_cmp(&norms[a]).expect("finite norms"));
    let mut out: Vec<usize> = ranked.into_iter().take(take).map(|r| internal[r]).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgse_grid::cases::{ieee118_like, synthetic_grid, SyntheticSpec};

    #[test]
    fn ieee118_decomposition_matches_paper_shape() {
        let net = ieee118_like();
        let d = decompose(&net, &DecompositionOptions::default());
        assert_eq!(d.n_areas(), 9);
        assert_eq!(d.edges.len(), 12);
        // Fig. 3's graph: subsystem 9 to subsystems 2/3 is the longest
        // path, 4 hops (8-6-4-5-1 zero-indexed).
        assert_eq!(d.diameter(), 4);
        for a in &d.areas {
            assert!(!a.boundary.is_empty(), "area {} has no boundary", a.area);
            assert!(!a.pmu_sites.is_empty());
            assert!(a.gs() >= a.boundary.len());
        }
    }

    #[test]
    fn global_ids_partition_the_buses() {
        let net = ieee118_like();
        let d = decompose(&net, &DecompositionOptions::default());
        let mut seen = vec![false; net.n_buses()];
        for a in &d.areas {
            for &g in &a.global_ids {
                assert!(!seen[g], "bus {g} in two areas");
                seen[g] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s), "some bus in no area");
    }

    #[test]
    fn sensitive_buses_are_internal() {
        let net = ieee118_like();
        let d = decompose(&net, &DecompositionOptions::default());
        for a in &d.areas {
            for &s in &a.sensitive {
                assert!(!a.boundary.contains(&s), "area {}: sensitive bus {s} is boundary", a.area);
            }
        }
    }

    #[test]
    fn sensitive_fraction_scales_count() {
        let net = ieee118_like();
        let small = decompose(&net, &DecompositionOptions { sensitive_fraction: 0.1 });
        let large = decompose(&net, &DecompositionOptions { sensitive_fraction: 0.5 });
        let count = |d: &Decomposition| -> usize { d.areas.iter().map(|a| a.sensitive.len()).sum() };
        assert!(count(&large) > count(&small));
        let zero = decompose(&net, &DecompositionOptions { sensitive_fraction: 0.0 });
        assert_eq!(count(&zero), 0);
    }

    #[test]
    fn sensitivity_prefers_buses_near_the_boundary() {
        // A path 0-1-2-3-4 with boundary at 0: sensitivity must decrease
        // along the path, so bus 1 outranks bus 4.
        use pgse_grid::{Branch, Bus, BusKind, Network};
        let mut buses: Vec<Bus> = (0..5).map(|i| Bus::load(i + 1, 0, 0.1, 0.02)).collect();
        buses[0].kind = BusKind::Slack;
        let branches = (0..4).map(|i| Branch::line(i, i + 1, 0.01, 0.1, 0.0)).collect();
        let net = Network { name: "path".into(), base_mva: 100.0, buses, branches };
        let sens = sensitive_internal_buses(&net, &[0], 0.25);
        assert_eq!(sens, vec![1]);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let net = synthetic_grid(&SyntheticSpec { n_areas: 6, ..Default::default() });
        let d = decompose(&net, &DecompositionOptions::default());
        for a in &d.areas {
            for &nb in &a.neighbors {
                assert!(d.areas[nb].neighbors.contains(&a.area));
            }
        }
    }

    #[test]
    fn exported_buses_deduplicate() {
        let net = ieee118_like();
        let d = decompose(&net, &DecompositionOptions::default());
        for a in &d.areas {
            let e = a.exported_buses();
            let mut sorted = e.clone();
            sorted.dedup();
            assert_eq!(e.len(), sorted.len());
            assert_eq!(e.len(), a.gs());
        }
    }

    #[test]
    fn sensitive_sets_are_pinned_on_ieee118_and_a_synthetic_ring() {
        let d = decompose(&ieee118_like(), &DecompositionOptions::default());
        let ieee118: Vec<Vec<usize>> = vec![
            vec![4, 12],
            vec![1, 8],
            vec![7, 8, 10],
            vec![8, 9],
            vec![8, 12],
            vec![5, 9],
            vec![3, 7, 9],
            vec![5, 8, 11],
            vec![2, 4, 6],
        ];
        let got: Vec<Vec<usize>> = d.areas.iter().map(|a| a.sensitive.clone()).collect();
        assert_eq!(got, ieee118);

        let plan = pgse_grid::cases::builder::AreaPlan {
            name: "ring".into(),
            bus_counts: vec![24, 31, 27, 36],
            area_edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            ties_per_edge: 2,
            seed: 7,
            load_mw: (15.0, 45.0),
            chord_fraction: 0.25,
        };
        let d = decompose(&pgse_grid::cases::builder::build(&plan), &DecompositionOptions::default());
        let ring: Vec<Vec<usize>> = vec![
            vec![1, 3, 4, 5, 13, 15],
            vec![1, 3, 7, 8, 10, 16, 28],
            vec![5, 10, 11, 12, 15, 20],
            vec![10, 18, 26, 27, 28, 29, 30, 35],
        ];
        let got: Vec<Vec<usize>> = d.areas.iter().map(|a| a.sensitive.clone()).collect();
        assert_eq!(got, ring);
    }
}
