//! Triangle counting and two-hop neighbourhood statistics over the
//! Gustavson SpGEMM engine — the classic "A²" graph analytics that the
//! sparse × sparse multiply of `smash-kernels` unlocks.
//!
//! Triangle counting is the textbook masked SpGEMM workload. With `L`
//! the strict lower triangle of the symmetric adjacency, each entry
//! `(L·L)[u][v]` counts the paths `u → w → v` with `u > w > v`, and
//! masking by `L` keeps only the pairs `u > v` that close into an edge —
//! so `Σ (L·L)∘L` counts every triangle exactly once, by its vertices in
//! descending order. The masked product never materializes the paths
//! that miss an edge, and `L·L` performs at most a quarter of `A·A`'s
//! flops for any vertex order (`Σₖ d⁻ₖ·d⁺ₖ ≤ Σₖ dₖ²/4`, with `d⁻ₖ`/`d⁺ₖ`
//! the neighbours of `k` below/above it). Diagonal entries (self-loops)
//! fall outside `L` and are ignored.
//!
//! # Example
//!
//! ```
//! use smash_graph::{triangles, Graph};
//! use smash_kernels::Executor;
//!
//! // K4 has C(4,3) = 4 triangles.
//! let mut edges = Vec::new();
//! for u in 0..4u32 {
//!     for v in 0..4u32 {
//!         if u != v {
//!             edges.push((u, v));
//!         }
//!     }
//! }
//! let g = Graph::<f64>::from_edges(4, &edges);
//! let adj = triangles::undirected_adjacency(&g);
//! assert_eq!(triangles::triangle_count(&Executor::auto(), &adj), 4);
//! ```

use crate::Graph;
use smash_kernels::Executor;
use smash_matrix::{Csr, CsrBuilder, Scalar};

/// The symmetrised 0/1 adjacency `A ∨ Aᵀ` of a graph: every directed
/// edge contributes both orientations, weights clamped back to one, no
/// self-loops (`Graph` never stores them). This is the operand
/// [`triangle_count`] expects.
pub fn undirected_adjacency<T: Scalar>(g: &Graph<T>) -> Csr<T> {
    let sum = g
        .adjacency()
        .add(&g.adjacency_transpose())
        .expect("adjacency and its transpose are conformable");
    // Clamp the summed weights (2 where both orientations exist) back to
    // the 0/1 pattern, preserving the already-sorted structure.
    let mut builder = CsrBuilder::with_capacity(sum.cols(), sum.rows(), sum.nnz());
    let ones: Vec<T> = vec![T::ONE; sum.cols()];
    for i in 0..sum.rows() {
        let (cols, _) = sum.row(i);
        builder.push_row(cols, &ones[..cols.len()]);
    }
    builder.finish()
}

/// Counts the triangles of an undirected graph given its symmetric 0/1
/// adjacency (see [`undirected_adjacency`]): takes the strict lower
/// triangle `L` (one `partition_point` per sorted row), computes the
/// masked product `(L·L)∘L` through the executor's SpGEMM engine, and
/// sums its values — each triangle exactly once (see the
/// [module docs](self)). Diagonal entries are ignored.
///
/// The SpGEMM runs serial or parallel per the executor's mode; the count
/// is identical either way (the engine is bit-identical across modes).
///
/// # Panics
///
/// Panics if `adj` is not square.
pub fn triangle_count<T: Scalar>(exec: &Executor, adj: &Csr<T>) -> u64 {
    assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
    let mut builder = CsrBuilder::with_capacity(adj.cols(), adj.rows(), adj.nnz() / 2);
    for u in 0..adj.rows() {
        let (cols, vals) = adj.row(u);
        let below = cols.partition_point(|&v| (v as usize) < u);
        builder.push_row(&cols[..below], &vals[..below]);
    }
    let l = builder.finish();
    let closed = exec.spgemm_masked(&l, &l, &l);
    let total: f64 = closed.values().iter().map(|v| v.to_f64()).sum();
    total.round() as u64
}

/// Per-vertex count of *distinct* two-hop neighbours: the row nnz of
/// `A²`, i.e. the number of vertices reachable in exactly two steps
/// (including the vertex itself when it sits on any cycle of length 2).
/// The multiplication runs through the executor's SpGEMM engine.
///
/// # Panics
///
/// Panics if `adj` is not square.
pub fn two_hop_counts<T: Scalar>(exec: &Executor, adj: &Csr<T>) -> Vec<usize> {
    assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
    let paths = exec.spgemm(adj, adj);
    (0..adj.rows()).map(|u| paths.row_nnz(u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: u32) -> Csr<f64> {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        undirected_adjacency(&Graph::<f64>::from_edges(n as usize, &edges))
    }

    #[test]
    fn complete_graphs_have_binomial_triangles() {
        let exec = Executor::auto();
        // K_n has C(n, 3) triangles.
        assert_eq!(triangle_count(&exec, &complete(3)), 1);
        assert_eq!(triangle_count(&exec, &complete(4)), 4);
        assert_eq!(triangle_count(&exec, &complete(6)), 20);
    }

    #[test]
    fn paths_and_stars_are_triangle_free() {
        let exec = Executor::serial();
        let path = undirected_adjacency(&Graph::<f64>::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        ));
        assert_eq!(triangle_count(&exec, &path), 0);
        let star = undirected_adjacency(&Graph::<f64>::from_edges(
            5,
            &[(0, 1), (0, 2), (0, 3), (0, 4)],
        ));
        assert_eq!(triangle_count(&exec, &star), 0);
    }

    #[test]
    fn undirected_adjacency_is_symmetric_and_binary() {
        let adj = undirected_adjacency(&Graph::<f64>::from_edges(4, &[(0, 1), (2, 1), (3, 0)]));
        assert_eq!(adj.to_dense(), adj.transpose().to_dense());
        assert!(adj.values().iter().all(|&v| v == 1.0));
        assert_eq!(adj.nnz(), 6); // three edges, both orientations
    }

    #[test]
    fn two_hop_counts_on_a_path() {
        // 0 - 1 - 2: from the endpoints, two hops reach the far endpoint
        // or backtrack home ({0, 2} — 2 distinct); from the middle, both
        // neighbours lead straight back ({1} — 1 distinct).
        let exec = Executor::serial();
        let path = undirected_adjacency(&Graph::<f64>::from_edges(3, &[(0, 1), (1, 2)]));
        assert_eq!(two_hop_counts(&exec, &path), vec![2, 1, 2]);
    }

    /// The oracle: per edge `u < v`, the common neighbours `w > v` found
    /// by a sorted-list intersection — each triangle once.
    fn intersection_count(adj: &Csr<f64>) -> u64 {
        let mut total = 0;
        for u in 0..adj.rows() {
            let nu = adj.row(u).0;
            for &v in nu.iter().filter(|&&v| v as usize > u) {
                let nv = adj.row(v as usize).0;
                total += nu
                    .iter()
                    .filter(|&&w| w > v && nv.binary_search(&w).is_ok())
                    .count() as u64;
            }
        }
        total
    }

    #[test]
    fn triangle_count_agrees_across_modes_on_rmat() {
        for seed in [9, 10, 11, 12] {
            let g: Graph = crate::generators::rmat(128, 600, seed);
            let adj = undirected_adjacency(&g);
            let want = intersection_count(&adj);
            assert!(want > 0, "seed {seed}: R-MAT input has no triangles");
            for exec in [
                Executor::serial(),
                Executor::parallel(),
                Executor::with_threads(2),
            ] {
                assert_eq!(triangle_count(&exec, &adj), want, "seed {seed}");
            }
        }
    }

    #[test]
    fn diagonal_entries_do_not_change_the_count() {
        // K4 plus a pendant vertex, then the same adjacency with a
        // self-loop on every vertex: the self-loops close no triangle.
        let mut edges = vec![(3, 4)];
        for u in 0..4u32 {
            for v in u + 1..4 {
                edges.push((u, v));
            }
        }
        let adj = undirected_adjacency(&Graph::<f64>::from_edges(5, &edges));
        let mut looped = adj.to_coo();
        for u in 0..5 {
            looped.push(u, u, 1.0);
        }
        looped.compress();
        let looped = Csr::from_coo(&looped);
        assert_eq!(looped.nnz(), adj.nnz() + 5);
        for exec in [Executor::serial(), Executor::with_threads(2)] {
            assert_eq!(triangle_count(&exec, &adj), 4);
            assert_eq!(triangle_count(&exec, &looped), 4);
        }
    }
}
