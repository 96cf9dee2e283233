//! Ablation benches for three SMASH design choices: hierarchy depth,
//! Bitmap-0 ratio, and the simulator's prefetcher.
//!
//! These report simulated *cycles* as the measured quantity is wall-clock
//! of the simulation; the interesting numbers are printed once per run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smash_core::SmashConfig;
use smash_kernels::{harness, Mechanism};
use smash_matrix::generators;
use smash_sim::SystemConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let a = generators::clustered(1024, 1024, 10_000, 6, 42);
    let sys = SystemConfig::paper_table2_scaled(16);

    // Hierarchy depth 1 vs 3 for the same matrix.
    for ratios in [&[2u32][..], &[2, 4], &[2, 4, 16]] {
        let cfg = SmashConfig::row_major(ratios).expect("valid");
        let cycles = harness::sim_spmv(Mechanism::Smash, &a, &cfg, &sys).cycles;
        println!(
            "ablation depth {}: {} simulated cycles",
            ratios.len(),
            cycles
        );
        group.bench_with_input(
            BenchmarkId::new("smash_depth", ratios.len()),
            &cfg,
            |b, cfg| b.iter(|| black_box(harness::sim_spmv(Mechanism::Smash, &a, cfg, &sys))),
        );
    }

    // Prefetcher on/off for the CSR baseline.
    for (name, s) in [
        ("prefetch_on", sys.clone()),
        ("prefetch_off", sys.clone().without_prefetch()),
    ] {
        let cfg = SmashConfig::row_major(&[2, 4, 16]).expect("valid");
        let cycles = harness::sim_spmv(Mechanism::TacoCsr, &a, &cfg, &s).cycles;
        println!("ablation {name}: {cycles} simulated cycles (CSR SpMV)");
        group.bench_with_input(BenchmarkId::new("csr", name), &s, |b, s| {
            b.iter(|| black_box(harness::sim_spmv(Mechanism::TacoCsr, &a, &cfg, s)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
