//! Graph substrate and applications for the SMASH reproduction: the
//! PageRank and Betweenness Centrality workloads of the paper's §6 and
//! Fig. 18, built as iterated SpMV over the mechanisms of `smash-kernels`.
//!
//! Each algorithm has an instrumented form (a simulator [`Engine`] and a
//! [`GraphMechanism`]) and a native form that takes an `&Executor` plus
//! any executor operand — CSR, SMASH or dynamic — so serial, parallel,
//! and per-format variants are one function: [`pagerank_power`],
//! [`betweenness_native`], [`personalized_pagerank_batched`],
//! [`triangle_count`].
//!
//! [`Engine`]: smash_sim::Engine
//!
//! # Example
//!
//! ```
//! use smash_graph::{generators, pagerank, GraphMechanism, PageRankConfig};
//! use smash_sim::CountEngine;
//!
//! let g = generators::rmat(128, 512, 42);
//! let cfg = PageRankConfig { iterations: 3, ..Default::default() };
//! let mut e = CountEngine::new();
//! let ranks = pagerank::pagerank(&mut e, GraphMechanism::Csr, &g, &cfg);
//! assert_eq!(ranks.len(), g.vertices());
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batched;
pub mod bc;
pub mod generators;
mod graph;
pub mod incremental;
pub mod pagerank;
pub mod triangles;

pub use batched::{personalized_pagerank, personalized_pagerank_batched, seed_batch};
pub use bc::{betweenness, betweenness_native, betweenness_reference, BcConfig};
pub use generators::{generate_graphs, paper_graphs, GraphSpec};
pub use graph::Graph;
pub use incremental::{pagerank_power, uniform_ranks, IncrementalPageRank, PowerSolve};
pub use pagerank::{pagerank, pagerank_reference, GraphMechanism, PageRankConfig};
pub use triangles::{triangle_count, two_hop_counts, undirected_adjacency};

/// Serial == parallel contracts of the executor-driven graph algorithms:
/// PageRank and betweenness over CSR and SMASH operands return the same
/// bits at every pool size and track the uninstrumented references.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::{
            betweenness_native, betweenness_reference, generators, pagerank_power,
            pagerank_reference, uniform_ranks, BcConfig, Graph, PageRankConfig,
        };
        use smash_core::SmashConfig;
        use smash_kernels::{Executor, SpmvOperand};

        const THREADS: [usize; 4] = [1, 2, 3, 8];

        fn close(a: f64, b: f64) -> bool {
            (a - b).abs() < 1e-9 * (1.0 + b.abs())
        }

        fn smash_cfg() -> SmashConfig {
            SmashConfig::row_major(&[2, 4, 16]).unwrap()
        }

        /// Fixed-iteration PageRank from the uniform start.
        fn pagerank<'a>(
            exec: &Executor,
            m: impl Into<SpmvOperand<'a, f64>>,
            cfg: &PageRankConfig,
        ) -> Vec<f64> {
            let m = m.into();
            let r0 = uniform_ranks(m.rows());
            pagerank_power(exec, m, &r0, cfg.damping, 0.0, cfg.iterations).ranks
        }

        /// Betweenness over the graph's adjacency, CSR or SMASH-encoded.
        fn betweenness(exec: &Executor, g: &Graph, cfg: &BcConfig, smash: bool) -> Vec<f64> {
            let at = g.adjacency_transpose();
            if smash {
                let a = exec.encode(g.adjacency(), smash_cfg());
                let at = exec.encode(&at, smash_cfg());
                betweenness_native(exec, &a, &at, cfg)
            } else {
                betweenness_native(exec, g.adjacency(), &at, cfg)
            }
        }

        fn pagerank_cfg() -> PageRankConfig {
            PageRankConfig {
                iterations: 5,
                ..Default::default()
            }
        }

        fn bc_cfg() -> BcConfig {
            BcConfig {
                sources: vec![1, 2],
                max_levels: 32,
                ..Default::default()
            }
        }

        #[test]
        fn pagerank_parallel_matches_reference() {
            let g = generators::rmat(128, 512, 3);
            let want = pagerank_reference(&g, &pagerank_cfg());
            let got = pagerank(
                &Executor::with_threads(4),
                &g.transition_matrix(),
                &pagerank_cfg(),
            );
            for (a, b) in got.iter().zip(&want) {
                assert!(close(*a, *b), "{a} vs {b}");
            }
        }

        #[test]
        fn pagerank_parallel_is_bit_identical_across_thread_counts() {
            let g = generators::rmat(128, 1024, 7);
            let m = g.transition_matrix();
            let cfg = PageRankConfig::default();
            let want = pagerank(&Executor::serial(), &m, &cfg);
            for threads in THREADS {
                let got = pagerank(&Executor::with_threads(threads), &m, &cfg);
                assert_eq!(got, want, "threads = {threads}");
            }
        }

        #[test]
        fn betweenness_parallel_matches_reference() {
            let g = generators::rmat(64, 256, 7);
            let want = betweenness_reference(&g, &bc_cfg());
            let got = betweenness(&Executor::with_threads(4), &g, &bc_cfg(), false);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }

        #[test]
        fn betweenness_parallel_is_bit_identical_across_thread_counts() {
            let g = generators::road_network(100, 220, 5);
            let cfg = BcConfig::default();
            let want = betweenness(&Executor::serial(), &g, &cfg, false);
            for threads in THREADS {
                let got = betweenness(&Executor::with_threads(threads), &g, &cfg, false);
                assert_eq!(got, want, "threads = {threads}");
            }
        }

        #[test]
        fn pagerank_parallel_smash_matches_reference() {
            let g = generators::rmat(128, 512, 3);
            let want = pagerank_reference(&g, &pagerank_cfg());
            let exec = Executor::with_threads(4);
            let sm = exec.encode(&g.transition_matrix(), smash_cfg());
            let got = pagerank(&exec, &sm, &pagerank_cfg());
            for (a, b) in got.iter().zip(&want) {
                assert!(close(*a, *b), "{a} vs {b}");
            }
        }

        #[test]
        fn pagerank_parallel_smash_is_bit_identical_across_thread_counts() {
            let g = generators::rmat(128, 1024, 7);
            let cfg = PageRankConfig::default();
            let sm = Executor::serial().encode(&g.transition_matrix(), smash_cfg());
            let want = pagerank(&Executor::serial(), &sm, &cfg);
            for threads in THREADS {
                let got = pagerank(&Executor::with_threads(threads), &sm, &cfg);
                assert_eq!(got, want, "threads = {threads}");
            }
        }

        #[test]
        fn betweenness_parallel_smash_matches_reference() {
            let g = generators::rmat(64, 256, 7);
            let want = betweenness_reference(&g, &bc_cfg());
            let got = betweenness(&Executor::with_threads(4), &g, &bc_cfg(), true);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }

        #[test]
        fn betweenness_parallel_smash_is_bit_identical_across_thread_counts() {
            let g = generators::road_network(100, 220, 5);
            let cfg = BcConfig::default();
            let want = betweenness(&Executor::serial(), &g, &cfg, true);
            for threads in THREADS {
                let got = betweenness(&Executor::with_threads(threads), &g, &cfg, true);
                assert_eq!(got, want, "threads = {threads}");
            }
        }
    }
}
