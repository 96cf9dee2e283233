//! Serving many queries at once: batched right-hand sides.
//!
//! A personalized-ranking service answers one query per user — each query
//! is a personalized PageRank with that user's restart distribution. Run
//! naively, every query re-streams the whole transition matrix once per
//! power iteration. Batching the queries into the columns of one dense
//! operand turns each iteration into a single column-tiled sparse × dense
//! SpMM that streams the matrix once per 8-wide tile — same results, bit
//! for bit, far less memory traffic.
//!
//! Run with: `cargo run --release --example serve_batch`

use smash::graph::{
    generators, personalized_pagerank, personalized_pagerank_batched, seed_batch, PageRankConfig,
};
use smash::matrix::Dense;
use smash::Executor;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The served graph: a web-like power-law structure.
    let g = generators::rmat(4096, 80_000, 42);
    let cfg = PageRankConfig {
        iterations: 10,
        ..Default::default()
    };
    let exec = Executor::auto();
    let m = g.transition_matrix();

    // 16 concurrent queries, one personalization column per user.
    let seeds: Vec<usize> = (0..16).map(|i| (i * 257) % g.vertices()).collect();
    let p: Dense<f64> = seed_batch(g.vertices(), &seeds);
    println!(
        "serving {} personalized PageRank queries over {} vertices / {} edges",
        seeds.len(),
        g.vertices(),
        g.edges()
    );

    // Path A: the naive service loop — one full power iteration per query.
    let t = Instant::now();
    let singles: Vec<Vec<f64>> = (0..seeds.len())
        .map(|j| personalized_pagerank(&exec, &m, &cfg, &p.col(j)))
        .collect();
    let loop_time = t.elapsed();

    // Path B: one batched pass — every iteration is a single SpMM.
    let t = Instant::now();
    let batched = personalized_pagerank_batched(&exec, &m, &cfg, &p);
    let batch_time = t.elapsed();

    // Batching never changes an answer: every column is bit-identical to
    // its independently-served query.
    for (j, single) in singles.iter().enumerate() {
        assert_eq!(&batched.col(j), single, "query {j} diverged");
    }
    println!(
        "all {} query results bit-identical across paths",
        seeds.len()
    );
    println!(
        "  per-query loop: {loop_time:?}\n  batched pass:   {batch_time:?}  ({:.2}x)",
        loop_time.as_secs_f64() / batch_time.as_secs_f64()
    );

    // The top-ranked vertex of a personalized query is (almost always) the
    // seed itself — rank mass concentrates around the restart vertex.
    let j = 0;
    let col = batched.col(j);
    let (top, _) = col
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty");
    println!(
        "query 0 (seed {}): top-ranked vertex {top}, rank {:.4}",
        seeds[j], col[top]
    );
    Ok(())
}
