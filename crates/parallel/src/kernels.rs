//! Parallel drivers of the native hot paths, and the one range fan-out
//! every range-parallel engine runs on.
//!
//! Every kernel here is **bit-identical** to its serial counterpart — the
//! generic drivers `smash_matrix::spmv_rows` / `spmm_dense_rows`, or
//! `SmashMatrix::encode` for the compressor — at every thread count. Two
//! properties make that hold:
//!
//! 1. the matrix is split into *contiguous* line ranges, balanced by
//!    non-zero count, and each worker writes a disjoint slice of the
//!    output (or returns a part spliced back in range order), so no
//!    reduction across threads ever reorders floating-point additions;
//!    and
//! 2. within a range, each line is computed by exactly the serial loop
//!    body, in the serial order.
//!
//! The partition depends only on the matrix and the pool's thread count,
//! never on scheduling, so repeated runs are deterministic too. The two
//! helpers below are the only places a pool is entered: [`for_each_range`]
//! for engines that return a part per range, and the private row-slab
//! splitter for drivers that write a caller's output in place.

use crate::partition::partition_by_weight;
use crate::pool::ThreadPool;
use smash_core::{BitBlocks, Layout, SmashConfig, SmashMatrix};
use smash_matrix::{Csr, Dense, RowRead, Scalar};
use std::ops::Range;

/// Runs `body` over `0..n` and hands its results to `sink` in range order
/// — the one fan-out of every range-parallel engine, where serial is the
/// one-range case.
///
/// * `None`: `sink(body(0..n))`, inline on the calling thread; no pool is
///   touched.
/// * `Some(pool)`: `0..n` is split into at most `pool.threads()`
///   contiguous, non-empty ranges balanced by `weight` (plus one per
///   item, so zero-weight items still spread), `body` runs once per range
///   as a pool job, and after every job has finished `sink` receives the
///   results in range order. A panicking job re-raises on the caller once
///   all jobs are done; `sink` then never runs.
///
/// The split depends only on `n`, `weight` and the thread count. So when
/// `body` computes each item as the one-range run does and `sink`
/// concatenates, the output is bit-identical with and without a pool.
pub fn for_each_range<R: Send>(
    pool: Option<&ThreadPool>,
    n: usize,
    weight: impl Fn(usize) -> u64,
    body: impl Fn(Range<usize>) -> R + Sync,
    mut sink: impl FnMut(R),
) {
    let Some(pool) = pool else {
        sink(body(0..n));
        return;
    };
    let ranges = partition_by_weight(n, pool.threads(), weight);
    let mut parts: Vec<Option<R>> = ranges.iter().map(|_| None).collect();
    pool.scoped(|s| {
        for (range, slot) in ranges.into_iter().zip(parts.iter_mut()) {
            let body = &body;
            s.execute(move || *slot = Some(body(range)));
        }
    });
    for part in parts {
        sink(part.expect("the scope joined every range"));
    }
}

/// Splits `out` — `stride` elements per row of `a` — into the row slabs of
/// `a`'s weight-balanced granule ranges and runs `body(range, slab)` for
/// each on the pool. Output rows past the last granule are zeroed.
fn for_each_row_slab<T: Scalar, R: RowRead<T> + ?Sized>(
    pool: &ThreadPool,
    a: &R,
    out: &mut [T],
    stride: usize,
    body: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let ranges = partition_by_weight(a.granules(), pool.threads(), |g| a.granule_weight(g));
    pool.scoped(|s| {
        let mut rest = out;
        let mut consumed = 0usize;
        for range in ranges {
            // Granule range [range.start, range.end) covers matrix rows
            // [granule_row(range.start), granule_row(range.end)) — the
            // last granule of a blocked format may be clipped.
            let row_hi = a.granule_row(range.end);
            let (slab, tail) = rest.split_at_mut((row_hi - consumed) * stride);
            consumed = row_hi;
            rest = tail;
            let body = &body;
            s.execute(move || body(range, slab));
        }
        // Rows beyond the last granule cannot exist for non-degenerate
        // decompositions, but guard against an all-empty operand.
        rest.fill(T::ZERO);
    });
}

/// Parallel `y = A·x` over any [`RowRead`] operand — *the* parallel SpMV
/// driver of the kernel stack, for every format.
///
/// The operand's granules (rows, or block rows for BCSR) are split into
/// contiguous ranges balanced by [`RowRead::granule_weight`]; each worker
/// runs [`RowRead::spmv_granules`] — the format's exact serial loop body —
/// over its range into a disjoint slice of `y`. No reduction ever
/// reorders floating-point additions, so the result is bit-identical to
/// the serial driver `smash_matrix::spmv_rows` at every thread count.
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or `y.len() != a.rows()` (plus any
/// format-specific granule panics, e.g. column-major SMASH).
pub fn par_spmv_rows<T: Scalar, R: RowRead<T> + ?Sized>(
    pool: &ThreadPool,
    a: &R,
    x: &[T],
    y: &mut [T],
) {
    assert_eq!(x.len(), a.cols(), "x length must equal matrix cols");
    assert_eq!(y.len(), a.rows(), "y length must equal matrix rows");
    for_each_row_slab(pool, a, y, 1, |range, y| a.spmv_granules(range, x, y));
}

/// Parallel `C = A·B` (B dense) over any [`RowRead`] operand — the single
/// parallel batched driver for every format, bit-identical to
/// `smash_matrix::spmm_dense_rows` at every thread count. Workers write
/// disjoint row slabs of `C`.
///
/// # Panics
///
/// Panics if `b.rows() != a.cols()`, `c.rows() != a.rows()`, or
/// `c.cols() != b.cols()`.
pub fn par_spmm_dense_rows<T: Scalar, R: RowRead<T> + ?Sized>(
    pool: &ThreadPool,
    a: &R,
    b: &Dense<T>,
    c: &mut Dense<T>,
) {
    assert_eq!(b.rows(), a.cols(), "inner dimensions must agree");
    assert_eq!(c.rows(), a.rows(), "output rows must equal a.rows()");
    assert_eq!(c.cols(), b.cols(), "output cols must equal b.cols()");
    for_each_row_slab(pool, a, c.as_mut_slice(), b.cols(), |range, c| {
        a.spmm_dense_granules(range, b, c)
    });
}

/// Parallel CSR → SMASH compression; the produced matrix is `==` to
/// `SmashMatrix::encode(a, config)` (same bitmap hierarchy, same NZA
/// block order and padding) at any thread count.
///
/// Workers block disjoint line ranges into [`BitBlocks`] parts; the main
/// thread splices the parts in line order and builds the upper bitmap
/// levels once.
pub fn par_csr_to_smash<T: Scalar>(
    pool: &ThreadPool,
    a: &Csr<T>,
    config: SmashConfig,
) -> SmashMatrix<T> {
    match config.layout() {
        Layout::RowMajor => par_encode_lines(pool, a.rows(), a.cols(), config, |l| a.row(l)),
        Layout::ColMajor => {
            // Column-major encoding walks the CSC transpose-view, exactly
            // like the serial encoder.
            let csc = a.to_csc();
            par_encode_lines(pool, a.rows(), a.cols(), config, |l| csc.col(l))
        }
    }
}

/// Shared parallel encoder over an abstract "line" accessor (CSR rows or
/// CSC columns), mirroring `SmashMatrix::encode_lines`.
fn par_encode_lines<'m, T: Scalar, F>(
    pool: &ThreadPool,
    rows: usize,
    cols: usize,
    config: SmashConfig,
    line_entries: F,
) -> SmashMatrix<T>
where
    F: Fn(usize) -> (&'m [u32], &'m [T]) + Sync,
{
    let b0 = config.block_size();
    let (lines, line_len) = match config.layout() {
        Layout::RowMajor => (rows, cols),
        Layout::ColMajor => (cols, rows),
    };
    let bpl = line_len.div_ceil(b0);
    let mut parts = Vec::new();
    for_each_range(
        Some(pool),
        lines,
        |l| line_entries(l).0.len() as u64,
        |range| {
            let mut part = BitBlocks::new(b0, bpl);
            for line in range {
                let (offsets, values) = line_entries(line);
                part.push_line(line, offsets, values);
            }
            part.finish()
        },
        |part| parts.push(part),
    );
    SmashMatrix::from_bit_blocks(rows, cols, config, &parts)
        .expect("parallel encoder preserves all invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_matrix::{generators, spmm_dense_rows, spmv_rows, Bcsr, Coo};

    fn test_vector(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect()
    }

    fn pools() -> Vec<ThreadPool> {
        [1, 2, 3, 8].map(ThreadPool::new).into_iter().collect()
    }

    #[test]
    fn for_each_range_sinks_in_range_order_with_and_without_a_pool() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Per item: a weight-skewed value; per range: its items in order.
        let weight = |i: usize| (i as u64 * 7919) % 31;
        let body = |r: Range<usize>| r.map(|i| i * i + 1).collect::<Vec<_>>();
        for n in [0usize, 1, 5, 100] {
            let calls = AtomicUsize::new(0);
            let mut want = Vec::new();
            let mut sinks = 0;
            for_each_range(
                None,
                n,
                weight,
                |r| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    body(r)
                },
                |part| {
                    sinks += 1;
                    want.extend(part);
                },
            );
            assert_eq!(calls.into_inner(), 1, "None runs body once, n = {n}");
            assert_eq!(sinks, 1);
            assert_eq!(want, body(0..n));
            for pool in pools() {
                let mut ranges = Vec::new();
                for_each_range(
                    Some(&pool),
                    n,
                    weight,
                    |r| (r.clone(), body(r)),
                    |p| ranges.push(p),
                );
                // Sinks arrive in range order, tiling 0..n contiguously…
                let mut next = 0;
                for (r, _) in &ranges {
                    assert_eq!(r.start, next, "n = {n}, threads {}", pool.threads());
                    next = r.end;
                }
                assert_eq!(next, n);
                assert!(ranges.len() <= pool.threads());
                // …and concatenate to the one-range result.
                let got: Vec<usize> = ranges.into_iter().flat_map(|(_, v)| v).collect();
                assert_eq!(got, want, "n = {n}, threads {}", pool.threads());
            }
        }
    }

    #[test]
    fn par_spmv_csr_is_bit_identical_to_serial() {
        let a = generators::power_law(96, 80, 700, 1.3, 11);
        let x = test_vector(80);
        let mut want = vec![0.0; 96];
        // Serial reference: the same per-row loop, no pool.
        spmv_rows(&a, &x, &mut want);
        for pool in pools() {
            let mut y = vec![1.0; 96];
            par_spmv_rows(&pool, &a, &x, &mut y);
            assert_eq!(y, want, "threads = {}", pool.threads());
        }
    }

    #[test]
    fn par_spmv_bcsr_matches_one_thread_exactly() {
        let a = generators::clustered(70, 66, 500, 5, 3);
        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        let x = test_vector(66);
        let mut want = vec![0.0; 70];
        spmv_rows(&bcsr, &x, &mut want);
        for pool in pools() {
            let mut y = vec![9.0; 70];
            par_spmv_rows(&pool, &bcsr, &x, &mut y);
            assert_eq!(y, want, "threads = {}", pool.threads());
        }
    }

    #[test]
    fn par_spmv_smash_matches_one_thread_exactly() {
        let a = generators::banded(90, 90, 5, 600, 7);
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16]).unwrap());
        let x = test_vector(90);
        let mut want = vec![0.0; 90];
        spmv_rows(&sm, &x, &mut want);
        for pool in pools() {
            let mut y = vec![-3.0; 90];
            par_spmv_rows(&pool, &sm, &x, &mut y);
            assert_eq!(y, want, "threads = {}", pool.threads());
        }
    }

    #[test]
    fn par_compression_equals_serial_encode() {
        let a = generators::clustered(64, 72, 600, 4, 21);
        for ratios in [&[2u32][..], &[4, 4], &[2, 4, 16]] {
            let cfg = SmashConfig::row_major(ratios).unwrap();
            let want = SmashMatrix::encode(&a, cfg.clone());
            for pool in pools() {
                let got = par_csr_to_smash(&pool, &a, cfg.clone());
                assert_eq!(got, want, "ratios {ratios:?}, threads {}", pool.threads());
            }
        }
    }

    #[test]
    fn par_compression_handles_col_major() {
        let a = generators::uniform(37, 53, 400, 9);
        let cfg = SmashConfig::col_major(&[2, 4]).unwrap();
        let want = SmashMatrix::encode(&a, cfg.clone());
        for pool in pools() {
            let got = par_csr_to_smash(&pool, &a, cfg.clone());
            assert_eq!(got, want, "threads {}", pool.threads());
        }
    }

    fn test_batch(rows: usize, cols: usize) -> Dense<f64> {
        generators::dense_batch(rows, cols, 5)
    }

    #[test]
    fn par_spmm_dense_kernels_match_one_thread_exactly() {
        let a = generators::power_law(96, 80, 700, 1.3, 11);
        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16]).unwrap());
        for n in [1usize, 4, 8, 13] {
            let b = test_batch(80, n);
            let mut want = Dense::zeros(96, n);
            let mut got = Dense::zeros(96, n);

            spmm_dense_rows(&a, &b, &mut want);
            for pool in pools() {
                got.as_mut_slice().fill(f64::NAN);
                par_spmm_dense_rows(&pool, &a, &b, &mut got);
                assert_eq!(got, want, "csr, n = {n}, threads = {}", pool.threads());
            }

            spmm_dense_rows(&bcsr, &b, &mut want);
            for pool in pools() {
                got.as_mut_slice().fill(f64::NAN);
                par_spmm_dense_rows(&pool, &bcsr, &b, &mut got);
                assert_eq!(got, want, "bcsr, n = {n}, threads = {}", pool.threads());
            }

            spmm_dense_rows(&sm, &b, &mut want);
            for pool in pools() {
                got.as_mut_slice().fill(f64::NAN);
                par_spmm_dense_rows(&pool, &sm, &b, &mut got);
                assert_eq!(got, want, "smash, n = {n}, threads = {}", pool.threads());
            }
        }
    }

    #[test]
    fn par_spmm_dense_columns_match_par_spmv() {
        let a = generators::clustered(70, 66, 500, 5, 3);
        let b = test_batch(66, 8);
        let pool = ThreadPool::new(4);
        let mut c = Dense::zeros(70, 8);
        par_spmm_dense_rows(&pool, &a, &b, &mut c);
        for j in 0..8 {
            let mut y = vec![0.0; 70];
            par_spmv_rows(&pool, &a, &b.col(j), &mut y);
            assert_eq!(c.col(j), y, "column {j}");
        }
    }

    #[test]
    fn empty_matrix_is_handled_by_all_kernels() {
        let a = Csr::<f64>::from_coo(&Coo::new(16, 16));
        let pool = ThreadPool::new(4);
        let mut y = vec![5.0; 16];
        par_spmv_rows(&pool, &a, &test_vector(16), &mut y);
        assert!(y.iter().all(|&v| v == 0.0));
        let sm = par_csr_to_smash(&pool, &a, SmashConfig::row_major(&[2, 4]).unwrap());
        assert_eq!(
            sm,
            SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4]).unwrap())
        );
        let b = test_batch(16, 3);
        let mut c = Dense::from_vec(16, 3, vec![5.0; 48]).unwrap();
        par_spmm_dense_rows(&pool, &a, &b, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }
}
