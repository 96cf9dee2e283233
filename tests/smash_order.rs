//! The SMASH accumulation contract, pinned against an oracle.
//!
//! Every SMASH SpMV and batched SpMM computes a row in the *row-striped*
//! order of `smash::matrix::simd`: the element at column `c` adds into
//! stripe `c % T::LANES`, in increasing column order, and the stripes fold
//! pairwise once per row. The oracle below is that definition written
//! against the CSR form, with no blocks, bitmaps or SIMD. Every SMASH
//! kernel — serial, parallel at 1/2/8 threads, `Executor` Auto, and each
//! column of the batched product — must equal it exactly, under every ISA
//! tier, in both precisions, for every ratio vector. Stored blocks also
//! hold padding zeros the CSR form lacks; with finite inputs they add
//! signed zeros, which `==` cannot see. So, as a consequence, the result
//! does not depend on the ratio vector.

use smash::encoding::{SmashConfig, SmashMatrix};
use smash::matrix::simd::{self, Isa};
use smash::matrix::{generators, spmm_dense_rows, spmv_rows, Coo, Csr, Dense, Scalar};
use smash::parallel::{par_spmm_dense_rows, par_spmv_rows, ThreadPool};
use smash::Executor;
use std::sync::{Mutex, OnceLock};

/// Ratio vectors covering one to four levels, block sizes with and
/// without a specialized body (1, 2, 4, 8 and 3, 16), and a level-1
/// ratio above 64.
const RATIOS: [&[u32]; 11] = [
    &[1, 4],
    &[2],
    &[2, 4],
    &[2, 4, 16],
    &[4, 16],
    &[8],
    &[8, 64],
    &[2, 128],
    &[2, 2, 2, 2],
    &[3, 4],
    &[16],
];

/// RHS width with one tile of each width (8 + 4 + 1).
const RHS: usize = 13;

/// Serializes every use of the process-global ISA override.
fn isa_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` under every tier this CPU supports, restoring the default
/// resolution afterwards even if `f` panics.
fn for_each_isa(mut f: impl FnMut(Isa)) {
    let _guard = isa_lock().lock().unwrap_or_else(|e| e.into_inner());
    for isa in Isa::ALL.into_iter().filter(|i| i.is_supported()) {
        simd::set_override(Some(isa));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(isa)));
        simd::set_override(None);
        if let Err(p) = out {
            std::panic::resume_unwind(p);
        }
    }
}

/// The contract, from the CSR form: per row, stripes by column, one
/// pairwise fold.
fn oracle<T: Scalar>(a: &Csr<T>, x: &[T]) -> Vec<T> {
    (0..a.rows())
        .map(|i| {
            let (cols, vals) = a.row(i);
            let mut s = [T::ZERO; 8];
            for (&c, &v) in cols.iter().zip(vals) {
                s[c as usize % T::LANES] += v * x[c as usize];
            }
            let mut width = T::LANES;
            while width > 1 {
                width /= 2;
                for l in 0..width {
                    let upper = s[l + width];
                    s[l] += upper;
                }
            }
            s[0]
        })
        .collect()
}

/// Signed non-integer values, so any change of summation order shows.
fn value(i: usize, c: usize) -> f64 {
    ((i * 7 + c * 13) % 23) as f64 / 7.0 - 1.5
}

/// Rows of varied shape on `cols` columns: empty rows, single entries,
/// dense runs crossing block and word borders, and scattered entries.
fn shaped(rows: usize, cols: usize) -> Csr<f64> {
    let mut coo = Coo::new(rows, cols);
    for i in 0..rows {
        let cs: Vec<usize> = match i % 6 {
            0 => vec![],
            1 => vec![(i * 5) % cols],
            2 => (0..cols).filter(|c| c % 3 != 1).collect(),
            3 => ((i % 9)..cols.min(i % 9 + 70)).collect(),
            4 => (0..cols).filter(|c| (c * 7 + i) % 11 == 0).collect(),
            _ => vec![0, cols / 2, cols - 1],
        };
        for c in cs {
            coo.push(i, c, value(i, c));
        }
    }
    Csr::from_coo(&coo)
}

/// Every SMASH kernel on `a`, under every ISA tier and ratio vector,
/// against the oracle.
fn check<T: Scalar>(a: &Csr<T>) {
    let x: Vec<T> = (0..a.cols())
        .map(|c| T::from_f64(0.3 + (c % 11) as f64 * 0.173))
        .collect();
    let b = generators::dense_batch::<T>(a.cols(), RHS, 3);
    let want = oracle(a, &x);
    let want_cols: Vec<Vec<T>> = (0..RHS).map(|j| oracle(a, &b.col(j))).collect();
    let pools: Vec<ThreadPool> = [1, 2, 8].into_iter().map(ThreadPool::new).collect();
    let exec = Executor::auto();
    for_each_isa(|isa| {
        for ratios in RATIOS {
            let label = format!("{} {ratios:?} {}x{}", isa.name(), a.rows(), a.cols());
            let sm = SmashMatrix::encode(a, SmashConfig::row_major(ratios).expect("ratios"));
            let mut y = vec![T::ZERO; a.rows()];
            spmv_rows(&sm, &x, &mut y);
            assert!(y == want, "spmv_rows, {label}");
            for pool in &pools {
                let mut yp = vec![T::ZERO; a.rows()];
                par_spmv_rows(pool, &sm, &x, &mut yp);
                assert!(
                    yp == want,
                    "par_spmv_rows at {} threads, {label}",
                    pool.threads()
                );
            }
            let mut ya = vec![T::ZERO; a.rows()];
            exec.spmv(&sm, &x, &mut ya);
            assert!(ya == want, "Executor Auto, {label}");

            let mut c = Dense::zeros(a.rows(), RHS);
            spmm_dense_rows(&sm, &b, &mut c);
            for (j, col) in want_cols.iter().enumerate() {
                assert!(c.col(j) == *col, "spmm_dense_rows column {j}, {label}");
            }
            for pool in &pools {
                let mut cp = Dense::zeros(a.rows(), RHS);
                par_spmm_dense_rows(pool, &sm, &b, &mut cp);
                assert!(
                    cp == c,
                    "par_spmm_dense_rows at {} threads, {label}",
                    pool.threads()
                );
            }
        }
    });
}

#[test]
fn smash_kernels_match_the_row_striped_oracle_f64() {
    // 77 columns: no block size in RATIOS divides it, and at b0 = 2 a line
    // holds 39 blocks, so level-1 groups of 4, 64 or 128 straddle lines.
    for a in [shaped(30, 77), shaped(12, 300), shaped(5, 1)] {
        check(&a);
    }
}

#[test]
fn smash_kernels_match_the_row_striped_oracle_f32() {
    for a in [shaped(30, 77), shaped(12, 300)] {
        check(&a.cast::<f32>());
    }
}

#[test]
fn smash_spmv_does_not_depend_on_the_ratio_vector() {
    let a = generators::clustered(40, 203, 1500, 5, 17);
    let x: Vec<f64> = (0..a.cols())
        .map(|c| 1.0 / (1.0 + c as f64 * 0.37))
        .collect();
    let results: Vec<Vec<f64>> = RATIOS
        .iter()
        .map(|ratios| {
            let sm = SmashMatrix::encode(&a, SmashConfig::row_major(ratios).expect("ratios"));
            let mut y = vec![0.0; a.rows()];
            spmv_rows(&sm, &x, &mut y);
            y
        })
        .collect();
    for (ratios, y) in RATIOS.iter().zip(&results) {
        assert!(*y == results[0], "{ratios:?} differs from {:?}", RATIOS[0]);
    }
    assert!(results[0] == oracle(&a, &x));
}
