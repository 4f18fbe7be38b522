//! Fill-reducing ordering.
//!
//! Power-grid matrices are extremely sparse (average bus degree ≈ 3), and
//! the sparse Cholesky profits from a fill-reducing symmetric permutation:
//! minimum degree.
//!
//! It operates on the *pattern* of a square matrix given as [`Csr`];
//! values are ignored, and the pattern is symmetrized internally.
//!
//! The returned permutation `perm` is in "new ← old" form:
//! `perm[new] = old`, matching [`Csr::permute_sym`].

use crate::csr::Csr;

/// Adjacency lists of the symmetrized pattern, excluding the diagonal.
fn symmetric_adjacency(a: &Csr) -> Vec<Vec<usize>> {
    assert_eq!(a.nrows(), a.ncols(), "ordering: square only");
    let n = a.nrows();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        let (cols, _) = a.row(i);
        for &j in cols {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    adj
}

/// Greedy minimum-degree ordering (clique-update variant).
///
/// At each step the vertex of minimum current degree is eliminated and its
/// neighbourhood is turned into a clique, mimicking symbolic Gaussian
/// elimination. Quadratic worst case; intended for the matrix sizes this
/// prototype handles (up to a few thousand buses).
pub fn minimum_degree(a: &Csr) -> Vec<usize> {
    let mut adj: Vec<std::collections::BTreeSet<usize>> = symmetric_adjacency(a)
        .into_iter()
        .map(|l| l.into_iter().collect())
        .collect();
    let n = adj.len();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&i| !eliminated[i])
            .min_by_key(|&i| adj[i].len())
            .expect("vertices remain");
        eliminated[v] = true;
        order.push(v);
        let nbrs: Vec<usize> = adj[v].iter().copied().filter(|&w| !eliminated[w]).collect();
        // Fill-in: connect the eliminated vertex's surviving neighbours.
        for (ai, &wi) in nbrs.iter().enumerate() {
            adj[wi].remove(&v);
            for &wj in &nbrs[ai + 1..] {
                adj[wi].insert(wj);
                adj[wj].insert(wi);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    /// A path graph's adjacency matrix with arbitrary vertex labels.
    fn shuffled_path(n: usize) -> Csr {
        // Label vertices by bit-reversal-ish shuffle so the natural order is bad.
        let label: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n).collect();
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
        }
        for w in 0..n - 1 {
            let (a, b) = (label[w], label[w + 1]);
            coo.push(a, b, -1.0);
            coo.push(b, a, -1.0);
        }
        coo.to_csr()
    }

    fn is_permutation(p: &[usize]) -> bool {
        let mut seen = vec![false; p.len()];
        for &v in p {
            if v >= p.len() || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        true
    }

    #[test]
    fn min_degree_is_a_permutation() {
        let a = shuffled_path(17);
        assert!(is_permutation(&minimum_degree(&a)));
    }

    #[test]
    fn min_degree_handles_disconnected_graphs() {
        // Two disjoint edges plus an isolated vertex.
        let mut coo = Coo::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0);
        }
        coo.push(0, 1, -1.0);
        coo.push(1, 0, -1.0);
        coo.push(2, 3, -1.0);
        coo.push(3, 2, -1.0);
        let a = coo.to_csr();
        assert!(is_permutation(&minimum_degree(&a)));
    }
}
