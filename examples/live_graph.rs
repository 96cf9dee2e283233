//! A live graph under edit: incremental PageRank over a stream of edge
//! insertions, served from a `DynamicMatrix` transition matrix — the
//! overlay absorbs each insertion, every solve warm-starts from the
//! previous ranks, and periodic compaction folds the accumulated deltas
//! back into the base tier.
//!
//! Run with: `cargo run --release --example live_graph`

use smash::graph::{generators, pagerank_power, uniform_ranks, IncrementalPageRank};
use smash::Executor;

fn main() {
    // A road network: every vertex keeps out-edges, so rank mass never
    // drains through dangling columns and warm restarts pay off in
    // iterations, not just in skipped rebuilds.
    let g = generators::road_network(1024, 2_048, 21);
    println!(
        "live graph: {} vertices, {} edges (avg degree {:.1})",
        g.vertices(),
        g.edges(),
        g.edges() as f64 / g.vertices() as f64
    );

    let tol = 1e-10;
    let mut pr = IncrementalPageRank::new(&g, 0.85, tol, 1000);
    let exec = Executor::auto();
    let cold = pr.solve(&exec);
    println!(
        "cold solve: {} iterations to |Δr|₁ < {tol:e}",
        cold.iterations
    );

    println!(
        "\n{:<8} {:>9} {:>11} {:>13}",
        "batch", "inserted", "warm iters", "overlay nnz"
    );
    let mut seed = 1u64;
    for round in 1..=5 {
        // A batch of pseudo-random edge insertions; duplicates and
        // self-loops bounce off `add_edge` exactly as they would off
        // `Graph::from_edges`.
        let mut inserted = 0;
        for _ in 0..40 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = (seed >> 16) as usize % pr.vertices();
            let v = (seed >> 40) as usize % pr.vertices();
            inserted += pr.add_edge(u, v) as usize;
        }
        let overlay_len = pr.matrix().overlay().len();
        let warm = pr.solve(&exec);
        println!(
            "{:<8} {:>9} {:>11} {:>13}",
            format!("#{round}"),
            inserted,
            warm.iterations,
            overlay_len
        );
    }

    // The exactness contract behind the speed: the overlaid transition
    // matrix solves to the *bit-identical* trajectory of a from-scratch
    // rebuild of the mutated graph.
    let rebuilt = pr.snapshot().transition_matrix();
    let r0 = uniform_ranks::<f64>(pr.vertices());
    let dynamic = pagerank_power(&exec, pr.matrix(), &r0, 0.85, tol, 1000);
    let oracle = pagerank_power(&exec, &rebuilt, &r0, 0.85, tol, 1000);
    assert_eq!(dynamic.ranks, oracle.ranks);
    assert_eq!(dynamic.iterations, oracle.iterations);
    println!(
        "\noverlaid solve == rebuilt solve (bitwise), {} iterations both",
        oracle.iterations
    );

    // Fold the overlay away; solves are unaffected.
    pr.compact();
    assert!(pr.matrix().overlay().is_empty());
    let compacted = pagerank_power(&exec, pr.matrix(), &r0, 0.85, tol, 1000);
    assert_eq!(compacted.ranks, oracle.ranks);
    println!("compacted: overlay empty, solution unchanged");
}
