//! The Gustavson SpGEMM engine pinned against the inner-product oracle:
//! triplet-exact equality (not tolerance) at every thread count and both
//! precisions, the shared drop-exact-zeros cancellation policy across
//! every sparse × sparse kernel, and the structural edge cases. The
//! masked product `(A · B) ∘ M` is pinned against the unmasked product
//! filtered by the mask's pattern, with the same exactness.

use proptest::prelude::*;
use smash::encoding::{SmashConfig, SmashMatrix};
use smash::kernels::{native, spgemm};
use smash::matrix::{Coo, Csr, Scalar};
use smash::{Degradation, ExecReport, Executor, MemoryBudget, NonFinitePolicy, SmashError};

/// The oracle: `Csr::spmm_inner`'s triplet list — per (i, j), the
/// ascending-k `mul_add` fold over the structural intersection, exact
/// zeros dropped.
fn oracle<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Vec<(u32, u32, T)> {
    a.spmm_inner(&b.to_csc()).unwrap().entries().to_vec()
}

/// Every stored triplet, read straight from the CSR arrays (`to_coo`
/// would drop explicit zeros), so a stored zero fails the comparison.
fn engine_entries<T: Scalar>(c: &Csr<T>) -> Vec<(u32, u32, T)> {
    (0..c.rows())
        .flat_map(|i| {
            let (cols, vals) = c.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i as u32, j, v))
        })
        .collect()
}

/// Sparse matrix with integer-valued (hence exactly representable,
/// order-independent) entries, including negatives so products cancel.
fn arb_matrix(
    rows: core::ops::Range<usize>,
    cols: core::ops::Range<usize>,
) -> impl Strategy<Value = Csr<f64>> {
    (rows, cols)
        .prop_flat_map(|(r, c)| {
            let entries = proptest::collection::vec((0..r, 0..c, -8i32..9), 0..(r * c).min(220));
            (Just(r), Just(c), entries)
        })
        .prop_map(|(r, c, entries)| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, v as f64);
            }
            coo.compress();
            Csr::from_coo(&coo)
        })
}

/// A linked pair `(A: r×k, B: k×c)` with conforming inner dimension.
fn arb_pair() -> impl Strategy<Value = (Csr<f64>, Csr<f64>)> {
    (1usize..40).prop_flat_map(|k| (arb_matrix(1..40, k..k + 1), arb_matrix(k..k + 1, 1..40)))
}

/// A linked pair plus an `r×c` output mask.
fn arb_masked() -> impl Strategy<Value = (Csr<f64>, Csr<f64>, Csr<f64>)> {
    arb_pair().prop_flat_map(|(a, b)| {
        let (r, c) = (a.rows(), b.cols());
        (Just(a), Just(b), arb_matrix(r..r + 1, c..c + 1))
    })
}

/// The masked-product reference: `c`'s triplets at `mask`'s positions.
fn filtered<T: Scalar>(c: &Csr<T>, mask: &Csr<T>) -> Vec<(u32, u32, T)> {
    engine_entries(c)
        .into_iter()
        .filter(|&(i, j, _)| mask.row(i as usize).0.binary_search(&j).is_ok())
        .collect()
}

/// The masked product chunked under the tightest budget every row fits
/// alone in: the cap starts at zero and rises to each per-row minimum the
/// typed error reports until the run fits.
fn tightest_chunked<T: Scalar>(a: &Csr<T>, b: &Csr<T>, m: &Csr<T>) -> (Csr<T>, ExecReport) {
    let mut cap = 0;
    loop {
        let exec = Executor::serial().with_budget(MemoryBudget::degrade_over(cap));
        match exec.try_spgemm_masked(a, b, m) {
            Ok(run) => return run,
            Err(SmashError::ResourceExhausted { needed, .. }) if needed > cap => cap = needed,
            Err(other) => panic!("tightest budget {cap}: {other}"),
        }
    }
}

/// `spgemm_masked` is triplet-exact to `spgemm` filtered by the mask:
/// serial, at threads {1, 2, 3, 8}, and chunked under the tightest
/// per-row budget.
fn check_masked<T: Scalar>(a: &Csr<T>, b: &Csr<T>, m: &Csr<T>) -> TestCaseResult {
    let want = filtered(&Executor::serial().spgemm(a, b), m);
    let serial = Executor::serial().spgemm_masked(a, b, m);
    prop_assert_eq!(&engine_entries(&serial), &want);
    for threads in [1usize, 2, 3, 8] {
        let c = Executor::with_threads(threads).spgemm_masked(a, b, m);
        prop_assert_eq!(&engine_entries(&c), &want, "threads={}", threads);
    }
    let (c, _) = tightest_chunked(a, b, m);
    prop_assert_eq!(&engine_entries(&c), &want, "chunked");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance pin: `Executor::spgemm` output is `==` (exact
    /// triplets, not approximately) to the inner-product oracle serially
    /// and at threads {1, 2, 8}, in both precisions (integer-valued
    /// entries stay exact at f32).
    #[test]
    fn engine_is_triplet_exact_to_the_oracle_at_all_thread_counts(pair in arb_pair()) {
        let (a, b) = pair;
        let (a32, b32) = (a.cast::<f32>(), b.cast::<f32>());
        let (want, want32) = (oracle(&a, &b), oracle(&a32, &b32));
        let execs = [1usize, 2, 8].map(|t| (t, Executor::with_threads(t)));
        for (threads, exec) in std::iter::once((0, Executor::serial())).chain(execs) {
            prop_assert_eq!(&engine_entries(&exec.spgemm(&a, &b)), &want, "threads={}", threads);
            let c = exec.spgemm(&a32, &b32);
            prop_assert_eq!(&engine_entries(&c), &want32, "f32 threads={}", threads);
        }
    }

    /// Adversarial cancellation: integer entries with both signs make
    /// exact cancellation common. Every sparse × sparse kernel must
    /// apply the same policy — drop positions whose accumulation
    /// cancels to ±0.0, never store an explicit zero — so their triplet
    /// lists agree exactly (integer arithmetic is order-independent).
    #[test]
    fn cancellation_policy_is_shared_by_every_sparse_kernel(pair in arb_pair()) {
        let (a, b) = pair;
        let want = oracle(&a, &b);
        prop_assert!(want.iter().all(|&(_, _, v)| v != 0.0), "oracle stored a zero");

        let c = Executor::serial().spgemm(&a, &b);
        prop_assert!(c.values().iter().all(|&v| v != 0.0), "engine stored a zero");
        prop_assert_eq!(&engine_entries(&c), &want);

        let bc = b.to_csc();
        let plain = native::spmm_csr(&a, &bc);
        prop_assert_eq!(plain.entries(), want.as_slice());
        let opt = native::spmm_csr_opt(&a, &bc);
        prop_assert_eq!(opt.entries(), want.as_slice());

        // The SMASH block-merge kernel, same policy at block granularity.
        let sa = SmashMatrix::encode(&a, SmashConfig::row_major(&[2]).unwrap());
        let sb = SmashMatrix::encode(&b, SmashConfig::col_major(&[2]).unwrap());
        let sm = native::spmm_smash(&sa, &sb);
        prop_assert!(sm.entries().iter().all(|&(_, _, v)| v != 0.0));
        prop_assert_eq!(sm.entries(), want.as_slice());
    }

    /// The masked contract at both precisions (integer-valued entries
    /// stay exact at f32).
    #[test]
    fn masked_product_is_the_filtered_product_in_every_mode(triple in arb_masked()) {
        let (a, b, m) = triple;
        check_masked(&a, &b, &m)?;
        check_masked(&a.cast::<f32>(), &b.cast::<f32>(), &m.cast::<f32>())?;
    }

    /// Output structure invariants: per row, columns strictly increasing
    /// (sorted, duplicate-free) and row_ptr consistent.
    #[test]
    fn output_columns_are_sorted_and_duplicate_free(pair in arb_pair()) {
        let (a, b) = pair;
        let c = Executor::serial().spgemm(&a, &b);
        prop_assert_eq!(c.rows(), a.rows());
        prop_assert_eq!(c.cols(), b.cols());
        for i in 0..c.rows() {
            let (cols, _) = c.row(i);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {} not strictly sorted", i);
        }
    }
}

#[test]
fn executor_modes_are_exact_to_the_oracle() {
    let a = smash::matrix::generators::power_law(160, 140, 4_000, 1.3, 3);
    let b = smash::matrix::generators::clustered(140, 120, 3_000, 5, 4);
    let want = oracle(&a, &b);
    for (name, exec) in [
        ("serial", Executor::serial()),
        ("parallel", Executor::parallel()),
        ("threads2", Executor::with_threads(2)),
        ("threads8", Executor::with_threads(8)),
        ("auto", Executor::auto()),
    ] {
        assert_eq!(engine_entries(&exec.spgemm(&a, &b)), want, "{name}");
    }
}

#[test]
fn engineered_cancellation_is_dropped_everywhere() {
    // A = [1, -1] against B whose two rows carry identical values in
    // column 0 (cancels exactly) and different values in column 1
    // (survives): C = [0 (dropped), -2.0].
    let mut a = Coo::new(1, 2);
    a.push(0, 0, 1.0);
    a.push(0, 1, -1.0);
    let a = Csr::from_coo(&a);
    let mut b = Coo::new(2, 2);
    b.push(0, 0, 7.0);
    b.push(0, 1, 3.0);
    b.push(1, 0, 7.0);
    b.push(1, 1, 5.0);
    let b = Csr::from_coo(&b);

    let want = vec![(0u32, 1u32, -2.0f64)];
    assert_eq!(oracle(&a, &b), want);
    assert_eq!(engine_entries(&Executor::serial().spgemm(&a, &b)), want);
    assert_eq!(native::spmm_csr(&a, &b.to_csc()).entries(), want.as_slice());
    assert_eq!(
        native::spmm_csr_opt(&a, &b.to_csc()).entries(),
        want.as_slice()
    );
    assert_eq!(
        engine_entries(&Executor::with_threads(2).spgemm(&a, &b)),
        want
    );
}

#[test]
fn empty_operands_produce_empty_products() {
    let empty_a = Csr::<f64>::from_coo(&Coo::new(0, 8));
    let b = smash::matrix::generators::uniform(8, 8, 20, 1);
    let c = Executor::serial().spgemm(&empty_a, &b);
    assert_eq!((c.rows(), c.cols(), c.nnz()), (0, 8, 0));

    let no_entries = Csr::<f64>::from_coo(&Coo::new(8, 8));
    let c = Executor::serial().spgemm(&b, &no_entries);
    assert_eq!((c.rows(), c.cols(), c.nnz()), (8, 8, 0));
    assert_eq!(engine_entries(&c), oracle(&b, &no_entries));

    let zero_cols = Csr::<f64>::from_coo(&Coo::new(8, 0));
    let c = Executor::serial().spgemm(&b, &zero_cols);
    assert_eq!((c.rows(), c.cols(), c.nnz()), (8, 0, 0));
}

#[test]
fn fully_dense_row_uses_the_dense_accumulator_and_matches() {
    // One row of A touching every row of a dense-ish B: the row's upper
    // bound saturates and the dense accumulator path runs.
    let n = 300; // > DENSE_ACCUM_MIN_COLS, so the choice is bound-driven
    let mut a = Coo::new(2, n);
    for k in 0..n {
        a.push(0, k, 1.0 + (k % 7) as f64);
    }
    a.push(1, 3, 2.0); // and one sparse row through the hash path
    let a = Csr::from_coo(&a);
    let b = smash::matrix::generators::uniform(n, n, 6 * n, 5);

    // Row 0's bound covers every stored entry of B; row 1's is one row.
    let (bounds, _) = spgemm::symbolic_bounds(&a, &b);
    assert_eq!(bounds[0], b.nnz() as u64);
    assert_eq!(bounds[1], b.row_nnz(3) as u64);

    assert_eq!(
        engine_entries(&Executor::serial().spgemm(&a, &b)),
        oracle(&a, &b)
    );
}

#[test]
fn outer_product_of_vectors_is_exact() {
    // (n×1) · (1×n): every pairing contributes exactly one product — the
    // symbolic bound is exact and no accumulation happens.
    let n = 40;
    let mut col = Coo::new(n, 1);
    let mut row = Coo::new(1, n);
    for i in 0..n {
        if i % 3 != 0 {
            col.push(i, 0, 1.0 + i as f64);
        }
        if i % 4 != 0 {
            row.push(0, i, 2.0 - i as f64);
        }
    }
    let (col, row) = (Csr::from_coo(&col), Csr::from_coo(&row));
    let c = Executor::serial().spgemm(&col, &row);
    assert_eq!(engine_entries(&c), oracle(&col, &row));
    // Structure: rows where col is occupied × cols where row is occupied,
    // minus exact zeros (none here: 2 - i hits zero only at i = 2... which
    // IS a stored position when 2 % 4 != 0 — value 0.0 is never pushed by
    // Coo, so the oracle drops it too).
    for i in 0..n {
        let expect = if col.row_nnz(i) == 0 {
            0
        } else {
            row.row(0).1.iter().filter(|&&v| v != 0.0).count()
        };
        assert_eq!(c.row_nnz(i), expect, "row {i}");
    }
}

#[test]
fn smash_emission_is_equal_to_encoding_the_product() {
    let a = smash::matrix::generators::power_law(96, 96, 2_500, 1.25, 17);
    let cfg = SmashConfig::row_major(&[2, 4]).unwrap();
    let want = SmashMatrix::encode(&Executor::serial().spgemm(&a, &a), cfg.clone());
    for (name, exec) in [
        ("serial", Executor::serial()),
        ("threads8", Executor::with_threads(8)),
    ] {
        assert_eq!(exec.spgemm_smash(&a, &a, cfg.clone()), want, "{name}");
    }
}

#[test]
fn executor_spmm_smash_parallel_mode_runs_and_matches() {
    // Regression: Parallel/Auto used to silently fall back to the serial
    // kernel; now they dispatch the row-parallel variant, which must stay
    // triplet-identical.
    let a = smash::matrix::generators::uniform(96, 80, 2_500, 3);
    let b = smash::matrix::generators::clustered(80, 64, 2_000, 4, 4);
    let sa = SmashMatrix::encode(&a, SmashConfig::row_major(&[2]).unwrap());
    let sb = SmashMatrix::encode(&b, SmashConfig::col_major(&[2]).unwrap());
    let want = native::spmm_smash(&sa, &sb);
    for (name, exec) in [
        ("parallel", Executor::parallel()),
        ("threads2", Executor::with_threads(2)),
        ("threads8", Executor::with_threads(8)),
        ("auto", Executor::auto()),
    ] {
        assert_eq!(
            exec.spmm_smash(&sa, &sb).entries(),
            want.entries(),
            "{name}"
        );
    }
}

#[test]
fn masked_edge_cases() {
    let a = smash::matrix::generators::power_law(120, 120, 2_500, 1.3, 5);
    let full = Executor::serial().spgemm(&a, &a);
    for (name, exec) in [
        ("serial", Executor::serial()),
        ("threads3", Executor::with_threads(3)),
    ] {
        // An empty mask keeps nothing.
        let empty = Csr::<f64>::from_coo(&Coo::new(120, 120));
        let c = exec.spgemm_masked(&a, &a, &empty);
        assert_eq!((c.rows(), c.cols(), c.nnz()), (120, 120, 0), "{name}");

        // A mask over exactly the positions the product never hits.
        let mut misses = Coo::new(120, 120);
        for i in 0..120 {
            for j in 0..120u32 {
                if full.row(i).0.binary_search(&j).is_err() {
                    misses.push(i, j as usize, 1.0);
                }
            }
        }
        let misses = Csr::from_coo(&misses);
        assert!(misses.nnz() > 0);
        assert_eq!(exec.spgemm_masked(&a, &a, &misses).nnz(), 0, "{name}");

        // An all-dense mask is the unmasked product.
        let mut dense = Coo::new(120, 120);
        for i in 0..120 {
            for j in 0..120 {
                dense.push(i, j, -1.0);
            }
        }
        let dense = Csr::from_coo(&dense);
        assert_eq!(exec.spgemm_masked(&a, &a, &dense), full, "{name}");
    }

    // The tightest per-row budget really chunks the masked run.
    let (c, report) = tightest_chunked(&a, &a, &a);
    assert_eq!(engine_entries(&c), filtered(&full, &a));
    match &report.degradations[..] {
        [Degradation::ChunkedSpgemm { chunks, .. }] => assert!(*chunks > 1, "{chunks}"),
        other => panic!("expected one ChunkedSpgemm degradation, got {other:?}"),
    }
}

#[test]
fn masked_product_reports_typed_errors() {
    let a = smash::matrix::generators::uniform(16, 12, 60, 3);
    let b = smash::matrix::generators::uniform(12, 10, 50, 4);
    let exec = Executor::serial();

    let wrong = smash::matrix::generators::uniform(16, 9, 20, 5);
    match exec.try_spgemm_masked(&a, &b, &wrong) {
        Err(SmashError::DimensionMismatch { op, expected, got }) => {
            assert_eq!(op, "spgemm_masked");
            assert_eq!((expected, got), ((16, 10), (16, 9)));
        }
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }

    // row_ptr points past the index arrays.
    let corrupt = Csr::<f64>::from_parts_unchecked(16, 10, vec![5; 17], vec![0], vec![1.0]);
    assert!(matches!(
        exec.try_spgemm_masked(&a, &b, &corrupt),
        Err(SmashError::InvalidStructure { format: "csr", .. })
    ));

    // Reject scans A and B; the mask's values are never read.
    let reject = Executor::serial().with_non_finite_policy(NonFinitePolicy::Reject);
    let mut nan_a = a.to_coo();
    nan_a.push(0, 0, f64::NAN);
    nan_a.compress();
    let nan_a = Csr::from_coo(&nan_a);
    let mask = smash::matrix::generators::uniform(16, 10, 40, 6);
    assert!(matches!(
        reject.try_spgemm_masked(&nan_a, &b, &mask),
        Err(SmashError::NonFinite {
            op: "spgemm_masked",
            operand: "A"
        })
    ));
    let nan_mask = Csr::from_parts_unchecked(
        16,
        10,
        mask.row_ptr().to_vec(),
        mask.col_ind().to_vec(),
        vec![f64::NAN; mask.nnz()],
    );
    let (c, _) = reject.try_spgemm_masked(&a, &b, &nan_mask).unwrap();
    assert_eq!(c, reject.spgemm_masked(&a, &b, &mask));
}
