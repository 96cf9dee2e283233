//! Rank/select index microbenchmarks: O(1) indexed rank vs the O(n) word
//! scan, and O(1) directory row seeks vs full Bitmap-0 expansion.
//!
//! These quantify the tentpole of the indexed-access refactor: the
//! kernels' per-row addressing no longer pays O(logical bits) per call.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smash_core::{Bitmap, RankIndex, SmashConfig, SmashMatrix};
use smash_matrix::generators;
use std::hint::black_box;
use std::time::Duration;

fn bitmap_with_density(bits: usize, every: usize) -> Bitmap {
    let mut b = Bitmap::zeros(bits);
    for i in (0..bits).step_by(every) {
        b.set(i, true);
    }
    b
}

/// Indexed vs scanning rank at several probe positions of a 1 Mi-bit map.
fn bench_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("rank");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let bits = 1 << 20;
    let bm = bitmap_with_density(bits, 3);
    let idx = RankIndex::build(&bm);
    // Probe positions spread across the bitmap (the scan cost grows with
    // the position; the indexed cost does not).
    let probes: Vec<usize> = (1..=16).map(|i| i * (bits / 16) - 7).collect();
    group.bench_with_input(BenchmarkId::new("indexed", bits), &probes, |b, probes| {
        b.iter(|| {
            let mut acc = 0usize;
            for &p in probes {
                acc += idx.rank(&bm, black_box(p));
            }
            acc
        })
    });
    group.bench_with_input(BenchmarkId::new("scan", bits), &probes, |b, probes| {
        b.iter(|| {
            let mut acc = 0usize;
            for &p in probes {
                acc += bm.rank(black_box(p));
            }
            acc
        })
    });
    group.finish();
}

/// Select throughput over the same bitmap.
fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("select");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let bm = bitmap_with_density(1 << 20, 5);
    let idx = RankIndex::build(&bm);
    let ones = idx.ones();
    let ks: Vec<usize> = (1..=16).map(|i| i * (ones / 16) - 1).collect();
    group.bench_with_input(BenchmarkId::new("indexed", ones), &ks, |b, ks| {
        b.iter(|| {
            let mut acc = 0usize;
            for &k in ks {
                acc += idx.select(&bm, black_box(k)).unwrap();
            }
            acc
        })
    });
    group.bench_with_input(BenchmarkId::new("iter_ones_nth", ones), &ks, |b, ks| {
        b.iter(|| {
            let mut acc = 0usize;
            for &k in ks {
                acc += bm.iter_ones().nth(black_box(k)).unwrap();
            }
            acc
        })
    });
    group.finish();
}

/// Seeking one row of a compressed matrix: the directory-seeded walker vs
/// expanding the whole logical Bitmap-0 first.
fn bench_row_seek(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_seek");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let a = generators::clustered(2048, 2048, 60_000, 6, 17);
    let sm = SmashMatrix::encode(
        &a,
        SmashConfig::row_major(&[2, 4, 16]).expect("paper config"),
    );
    let rows: Vec<usize> = (0..16).map(|i| i * 127 % 2048).collect();
    group.bench_with_input(BenchmarkId::new("directory", 2048), &rows, |b, rows| {
        b.iter(|| {
            let mut acc = 0usize;
            for &r in rows {
                // O(levels) seek + top-down walk of just that row's blocks.
                let r = black_box(r);
                sm.for_each_block_in(r..r + 1, |_, col, ordinal| acc += ordinal + col);
            }
            acc
        })
    });
    group.bench_with_input(BenchmarkId::new("expand_full", 2048), &rows, |b, rows| {
        b.iter(|| {
            let mut acc = 0usize;
            for &r in rows {
                // What the seed kernels did: materialize the dense bitmap,
                // then scan to the row.
                let full = sm.full_bitmap0();
                let bpl = sm.blocks_per_line();
                let base = full.rank(r * bpl);
                for (i, logical) in full
                    .iter_ones()
                    .skip_while(|&l| l < r * bpl)
                    .take_while(|&l| l < (r + 1) * bpl)
                    .enumerate()
                {
                    acc += base + i + logical;
                }
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rank, bench_select, bench_row_seek);
criterion_main!(benches);
