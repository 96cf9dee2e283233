//! Batched **personalized** PageRank: many personalization vectors served
//! in one pass over the transition matrix per iteration.
//!
//! Serving personalized rankings (one random-walk restart distribution per
//! user or query) with the classic power iteration means one SpMV per
//! query per iteration — the matrix is re-streamed from memory once per
//! query. Batching the personalization vectors into the columns of one
//! [`Dense`] operand turns every iteration into a single sparse × dense
//! SpMM ([`Executor::spmm_dense`]), whose column-tiled kernels stream the
//! matrix once per 8-wide column tile instead.
//!
//! **Determinism guarantee:** column `j` of
//! [`personalized_pagerank_batched`] is bit-identical to
//! [`personalized_pagerank`] run alone on column `j` — the batched SpMM's
//! per-column arithmetic order equals the SpMV's, and the rank update is
//! element-wise. Batching changes throughput, never results.

use crate::PageRankConfig;
use smash_kernels::{Executor, SpmvOperand};
use smash_matrix::{Dense, Scalar};

/// Personalized PageRank for a single restart distribution `p`:
/// `r' = d·M·r + (1−d)·p`, starting from `r = p`, with every SpMV over the
/// transition matrix `m` (any executor operand) routed through the
/// executor.
///
/// This is the one-query reference the batched variant is pinned against.
///
/// # Panics
///
/// Panics if `p.len() != m.rows()`, or with the executor's typed error
/// message (e.g. a non-square operand).
pub fn personalized_pagerank<'a, T: Scalar>(
    exec: &Executor,
    m: impl Into<SpmvOperand<'a, T>>,
    cfg: &PageRankConfig,
    p: &[T],
) -> Vec<T> {
    let m = m.into();
    let n = m.rows();
    assert_eq!(p.len(), n, "personalization length must equal vertices");
    let mut r = p.to_vec();
    let mut y = vec![T::ZERO; n];
    let damping = T::from_f64(cfg.damping);
    let restart = T::from_f64(1.0 - cfg.damping);
    for _ in 0..cfg.iterations {
        exec.spmv(m, &r, &mut y);
        for ((ri, yi), pi) in r.iter_mut().zip(&y).zip(p) {
            *ri = damping * *yi + restart * *pi;
        }
    }
    r
}

/// Batched personalized PageRank: one `Dense` of personalization vectors
/// (one column per query) per pass over the transition matrix `m`. Every
/// power iteration is a single [`Executor::spmm_dense`] followed by one
/// element-wise rank update, so the matrix is streamed once per RHS column
/// tile instead of once per query. `m` may be any executor operand — on a
/// SMASH-compressed matrix this is the serve-many-queries shape on the
/// paper's storage format.
///
/// Column `j` of the result is bit-identical to
/// [`personalized_pagerank`] over the same operand with `p` = column `j`
/// of `personalization`, at every executor mode and thread count. Across
/// formats (CSR vs. SMASH) results agree to floating-point tolerance: the
/// compressed kernel pads blocks with explicit zeros, so its per-row
/// accumulation order differs from CSR's.
///
/// # Panics
///
/// Panics if `personalization.rows() != m.rows()`, or with the executor's
/// typed error message.
pub fn personalized_pagerank_batched<'a, T: Scalar>(
    exec: &Executor,
    m: impl Into<SpmvOperand<'a, T>>,
    cfg: &PageRankConfig,
    personalization: &Dense<T>,
) -> Dense<T> {
    let m = m.into();
    assert_eq!(
        personalization.rows(),
        m.rows(),
        "personalization rows must equal vertices"
    );
    let mut r = personalization.clone();
    let mut y = Dense::zeros(personalization.rows(), personalization.cols());
    let damping = T::from_f64(cfg.damping);
    let restart = T::from_f64(1.0 - cfg.damping);
    for _ in 0..cfg.iterations {
        exec.spmm_dense(m, &r, &mut y);
        for ((ri, yi), pi) in r
            .as_mut_slice()
            .iter_mut()
            .zip(y.as_slice())
            .zip(personalization.as_slice())
        {
            *ri = damping * *yi + restart * *pi;
        }
    }
    r
}

/// Builds the `vertices x seeds.len()` personalization batch whose column
/// `j` is the unit restart distribution of `seeds[j]` — the "one query per
/// user" input of a personalized-ranking service.
///
/// # Panics
///
/// Panics if a seed is `>= vertices`.
pub fn seed_batch<T: Scalar>(vertices: usize, seeds: &[usize]) -> Dense<T> {
    let mut p = Dense::zeros(vertices, seeds.len());
    for (j, &s) in seeds.iter().enumerate() {
        assert!(s < vertices, "seed {s} outside {vertices} vertices");
        p.set(s, j, T::ONE);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Graph};
    use smash_core::SmashConfig;

    fn sample() -> Graph {
        generators::rmat(128, 768, 3)
    }

    fn cfg() -> PageRankConfig {
        PageRankConfig {
            iterations: 8,
            ..Default::default()
        }
    }

    #[test]
    fn batched_columns_are_bit_identical_to_single_queries() {
        let g = sample();
        let m = g.transition_matrix();
        let exec = Executor::auto();
        let seeds = [0usize, 7, 19, 42, 63, 64, 100, 127, 5];
        let p = seed_batch::<f64>(g.vertices(), &seeds);
        let batched = personalized_pagerank_batched(&exec, &m, &cfg(), &p);
        for (j, &s) in seeds.iter().enumerate() {
            let single = personalized_pagerank(&exec, &m, &cfg(), &p.col(j));
            assert_eq!(batched.col(j), single, "seed {s} (column {j})");
        }
    }

    #[test]
    fn batched_is_bit_identical_across_executor_modes() {
        let g = generators::rmat(192, 2048, 11);
        let m = g.transition_matrix();
        let seeds: Vec<usize> = (0..16).map(|i| (i * 11) % 192).collect();
        let p = seed_batch::<f64>(g.vertices(), &seeds);
        let want = personalized_pagerank_batched(&Executor::serial(), &m, &cfg(), &p);
        for exec in [
            Executor::parallel(),
            Executor::with_threads(2),
            Executor::with_threads(8),
            Executor::auto(),
        ] {
            let got = personalized_pagerank_batched(&exec, &m, &cfg(), &p);
            assert_eq!(
                got,
                want,
                "mode {:?}/{} threads",
                exec.mode(),
                exec.threads()
            );
        }
    }

    #[test]
    fn smash_variant_matches_csr_to_tolerance() {
        let g = sample();
        let m = g.transition_matrix();
        let exec = Executor::auto();
        let seeds = [3usize, 31, 65];
        let p = seed_batch::<f64>(g.vertices(), &seeds);
        let smash_cfg = SmashConfig::row_major(&[2, 4]).unwrap();
        let want = personalized_pagerank_batched(&exec, &m, &cfg(), &p);
        let sm = exec.encode(&m, smash_cfg);
        let got = personalized_pagerank_batched(&exec, &sm, &cfg(), &p);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn ranks_stay_distributions_without_dangling_vertices() {
        // On a graph where every vertex has out-edges, each personalized
        // rank column remains a probability distribution.
        let g = generators::road_network(256, 512, 1);
        let m = g.transition_matrix();
        let exec = Executor::serial();
        let seeds = [0usize, 17, 200];
        let p = seed_batch::<f64>(g.vertices(), &seeds);
        let r = personalized_pagerank_batched(&exec, &m, &cfg(), &p);
        for j in 0..seeds.len() {
            let sum: f64 = r.col(j).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "column {j} sums to {sum}");
        }
    }

    #[test]
    fn personalization_localizes_rank_mass() {
        let g = generators::road_network(256, 512, 5);
        let m = g.transition_matrix();
        let exec = Executor::serial();
        let seeds = [10usize, 200];
        let p = seed_batch::<f64>(g.vertices(), &seeds);
        let r = personalized_pagerank_batched(&exec, &m, &cfg(), &p);
        // Each seed holds more rank in its own column than in the other's.
        assert!(r.get(10, 0) > r.get(10, 1));
        assert!(r.get(200, 1) > r.get(200, 0));
    }

    #[test]
    #[should_panic(expected = "seed")]
    fn seed_batch_rejects_out_of_range_seed() {
        seed_batch::<f64>(4, &[4]);
    }
}
