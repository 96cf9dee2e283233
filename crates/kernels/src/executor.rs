//! The unified **executor** layer: the one public entry surface of the
//! native kernels over *format × precision × serial/parallel*.
//!
//! Callers hand the [`Executor`] any supported operand format — [`Csr`],
//! [`Bcsr`](smash_matrix::Bcsr), a compressed [`SmashMatrix`] or a
//! [`DynamicMatrix`] overlay — at any [`Scalar`] precision. The operand's
//! [`RowRead`](smash_matrix::RowRead) view feeds one serial driver
//! (`smash_matrix::spmv_rows` / `spmm_dense_rows`) or one parallel driver
//! (`smash_parallel::par_spmv_rows` / `par_spmm_dense_rows`); there is no
//! per-format kernel function to pick.
//!
//! Each operation has **one body**: validation, the [`Plan`], the
//! serial/parallel choice and the degradation ladder live there. For
//! `spmv`, `spmm_dense`, `spgemm`, `spgemm_masked` and `encode` that body
//! is the `try_*` call, which the panicking call unwraps, panicking with
//! the typed [`SmashError`]'s message, so the two tiers cannot drift
//! apart. `spgemm_smash` and `spmm_smash` have no `try_*` twin; they run
//! the same validation, plan and ladder and panic on the error.
//!
//! Three [`ExecMode`]s exist:
//!
//! * [`ExecMode::Serial`] — always the single-threaded native kernel.
//! * [`ExecMode::Parallel`] — always the thread-pool kernel (worker count
//!   from [`SMASH_THREADS`](smash_parallel::THREADS_ENV) or the available cores).
//! * [`ExecMode::Auto`] — per-call choice delegated to the measured
//!   cost-model [`Planner`]: the operand is
//!   profiled ([`MatrixProfile`]) and
//!   scored against the checked-in calibration table; when no
//!   calibration row matches, the planner's threshold tier
//!   ([`AUTO_PARALLEL_NNZ`], [`AUTO_MIN_ROWS_PER_THREAD`]) decides.
//!
//! The fixed modes pin their plan (format, worker count, lead tile) with
//! no profile or planner behind it. Either way one predicate — does the
//! plan name more than one worker? — decides whether the pool runs, and
//! `Executor::plan_*` return the same plan a call acts on, with its
//! rationale, without running anything.
//!
//! **Determinism guarantee:** because every parallel kernel in
//! `smash-parallel` is bit-identical to its serial counterpart, the
//! executor's output is bit-identical across all three modes, every
//! thread count, and both precisions — `Auto` never trades accuracy for
//! speed.
//!
//! # Example
//!
//! ```
//! use smash_kernels::Executor;
//! use smash_matrix::generators;
//!
//! let a = generators::uniform(64, 64, 400, 1);
//! let x = vec![1.0f64; 64];
//! let mut y = vec![0.0f64; 64];
//! let exec = Executor::auto();
//! exec.spmv(&a, &x, &mut y);            // same entry point for every format
//!
//! let mut serial = vec![0.0f64; 64];
//! Executor::serial().spmv(&a, &x, &mut serial);
//! assert_eq!(y, serial);                // bit-identical across modes
//! ```

use crate::error::{panic_detail, SmashError};
use crate::operand::check_smash_spmm_operands;
pub use crate::operand::SpmvOperand;
use crate::planner::{Format, MatrixProfile, Op, Plan, PlanRequest, Planner};
use crate::spgemm;
use smash_core::{DynamicMatrix, Layout, SmashConfig, SmashMatrix};
use smash_matrix::{spmm_dense_rows, spmv_rows, Coo, Csr, Dense, Scalar};
use smash_parallel::{
    default_threads, par_csr_to_smash, par_spmm_dense_rows, par_spmv_rows, threads_from_env,
    ThreadPool,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Minimum work items before the planner's **threshold tier** reaches
/// for the thread pool: below this, partitioning + wakeup overhead
/// dominates the kernel. It decides only under `Auto`, when no
/// calibration row matches the operand (see [`Planner`]).
pub const AUTO_PARALLEL_NNZ: usize = 16_384;

/// Minimum rows-per-worker before the threshold tier
/// parallelizes: with fewer, the contiguous row ranges are too small to
/// amortize dispatch.
pub const AUTO_MIN_ROWS_PER_THREAD: usize = 4;

/// Serial/parallel dispatch policy of an [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Always run the single-threaded native kernel.
    Serial,
    /// Always run the thread-pool kernel (a one-worker pool runs the
    /// serial kernel directly: same bits, no hand-off).
    Parallel,
    /// Decide per call from the operand's shape and density.
    Auto,
}

/// A cap on the **transient engine memory** (accumulators plus per-chunk
/// staging) an [`Executor::try_spgemm`] or
/// [`Executor::try_spgemm_masked`] run may allocate. The exact-sized
/// output itself is exempt — the budget bounds what the engine uses *on
/// top of* the result the caller asked for.
///
/// Two flavours: [`reject_over`](Self::reject_over) fails an over-budget
/// product with [`SmashError::ResourceExhausted`];
/// [`degrade_over`](Self::degrade_over) instead re-plans it as a serial
/// row-chunked streaming run whose peak scratch stays within the cap —
/// bit-identical output, reported in the [`ExecReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    bytes: u64,
    degrade: bool,
}

impl MemoryBudget {
    /// A budget that fails over-budget operations with
    /// [`SmashError::ResourceExhausted`].
    pub fn reject_over(bytes: u64) -> Self {
        MemoryBudget {
            bytes,
            degrade: false,
        }
    }

    /// A budget that degrades over-budget operations to a row-chunked
    /// streaming execution capped at `bytes` of scratch.
    pub fn degrade_over(bytes: u64) -> Self {
        MemoryBudget {
            bytes,
            degrade: true,
        }
    }

    /// The cap in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether over-budget operations degrade to chunked execution
    /// instead of failing.
    pub fn degrades(&self) -> bool {
        self.degrade
    }
}

/// How an executor treats NaN/±infinity in operand values. The policy
/// applies to every call: the `try_*` bodies check it, and the panicking
/// calls built on them panic with the same typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NonFinitePolicy {
    /// IEEE semantics: non-finite inputs flow through the arithmetic.
    #[default]
    Propagate,
    /// Every call scans operand values up front and fails with
    /// [`SmashError::NonFinite`] (`try_*`) or panics with its message
    /// (`spmv`, `spmm_dense`, `spgemm`, `spgemm_masked`, `spgemm_smash`,
    /// `spmm_smash`, `encode`) before running any kernel.
    Reject,
}

/// One rung of the graceful-degradation ladder a `try_*` call descended,
/// reported in its [`ExecReport`] (and appended to the plan's rationale).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// The parallel kernel panicked; the call was retried serially.
    WorkerPanic {
        /// The stringified panic payload.
        detail: String,
    },
    /// The executor wanted a pool but has none (spawn failed at
    /// construction); the call ran serially.
    PoolUnavailable {
        /// Why the pool is missing.
        detail: String,
    },
    /// The product exceeded the [`MemoryBudget`] and ran as a serial
    /// row-chunked streaming execution instead.
    ChunkedSpgemm {
        /// Number of row chunks the run was split into.
        chunks: usize,
        /// Peak transient scratch of the chunked run (≤ the budget).
        peak_scratch_bytes: u64,
        /// The budget the run was held to.
        budget_bytes: u64,
    },
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Degradation::WorkerPanic { detail } => {
                write!(
                    f,
                    "degraded: parallel kernel panicked ({detail}), retried serially"
                )
            }
            Degradation::PoolUnavailable { detail } => {
                write!(f, "degraded: pool unavailable ({detail}), ran serially")
            }
            Degradation::ChunkedSpgemm {
                chunks,
                peak_scratch_bytes,
                budget_bytes,
            } => write!(
                f,
                "degraded: over budget, ran as {chunks} serial chunks \
                 (peak scratch {peak_scratch_bytes} of {budget_bytes} bytes)"
            ),
        }
    }
}

/// What a `try_*` call actually did: the [`Plan`] it acted on, plus any
/// degradations taken on the way to the (always correct) result. Each
/// degradation is also appended to `plan.rationale`, so the one-line
/// explanation stays self-contained.
#[derive(Debug)]
pub struct ExecReport {
    /// The dispatch plan the call acted on, rationale extended with any
    /// degradations.
    pub plan: Plan,
    /// The degradation ladder rungs descended, in order. Empty on a clean
    /// run.
    pub degradations: Vec<Degradation>,
}

impl ExecReport {
    fn new(plan: Plan) -> Self {
        ExecReport {
            plan,
            degradations: Vec::new(),
        }
    }

    fn note(&mut self, d: Degradation) {
        let rationale = self.plan.rationale.to_mut();
        rationale.push_str("; ");
        rationale.push_str(&d.to_string());
        self.degradations.push(d);
    }

    /// Whether the call had to degrade from its planned execution.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }
}

/// Format × precision × serial/parallel dispatcher for the native kernels.
///
/// One executor serves every [`Scalar`] precision — it owns a thread pool
/// (for the parallel modes), not per-type state — so a single instance can
/// run an `f64` solve and an `f32` inference pass back to back.
///
/// See the [module docs](self) for the dispatch rules and the determinism
/// guarantee, and [`Executor::try_spmv`] for the shape every operation
/// shares.
#[derive(Debug)]
pub struct Executor {
    mode: ExecMode,
    /// Present iff `mode` may parallelize (`Parallel` or `Auto`).
    pool: Option<ThreadPool>,
    /// Present iff `mode` is `Auto`: the cost model its per-call
    /// decisions delegate to.
    planner: Option<Planner>,
    /// Why `pool` is `None` although the mode wanted one (resilient
    /// construction after a spawn failure) — reported as a
    /// [`Degradation::PoolUnavailable`] by every `try_*` call.
    pool_error: Option<String>,
    /// Transient-memory cap for `try_spgemm` (`None`: unbounded).
    budget: Option<MemoryBudget>,
    /// NaN/infinity policy of every call.
    nonfinite: NonFinitePolicy,
}

impl Executor {
    fn assemble(mode: ExecMode, pool: Option<ThreadPool>, planner: Option<Planner>) -> Self {
        Executor {
            mode,
            pool,
            planner,
            pool_error: None,
            budget: None,
            nonfinite: NonFinitePolicy::default(),
        }
    }

    /// An executor that always runs the serial native kernels.
    pub fn serial() -> Self {
        Executor::assemble(ExecMode::Serial, None, None)
    }

    /// An executor that always uses the thread pool, sized from
    /// [`SMASH_THREADS`](smash_parallel::THREADS_ENV) (or the available cores when unset).
    pub fn parallel() -> Self {
        Executor::with_threads(default_threads())
    }

    /// An executor that always uses a pool of exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or the OS refuses to spawn a worker.
    /// [`Executor::try_with_threads`] is the fallible front door.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "an executor needs at least one thread");
        Executor::assemble(ExecMode::Parallel, Some(ThreadPool::new(threads)), None)
    }

    /// Fallible [`Executor::with_threads`]: a rejected thread count or an
    /// OS spawn refusal comes back as [`SmashError::PoolUnavailable`]
    /// instead of a panic.
    ///
    /// # Errors
    ///
    /// [`SmashError::PoolUnavailable`] when `threads == 0` or the pool
    /// cannot be spawned.
    pub fn try_with_threads(threads: usize) -> Result<Self, SmashError> {
        if threads == 0 {
            return Err(SmashError::PoolUnavailable {
                detail: "0 worker threads requested".into(),
            });
        }
        let pool = ThreadPool::try_new(threads).map_err(|e| SmashError::PoolUnavailable {
            detail: e.to_string(),
        })?;
        Ok(Executor::assemble(ExecMode::Parallel, Some(pool), None))
    }

    /// Fallible [`Executor::parallel`]: unlike the panicking constructor,
    /// a malformed `SMASH_THREADS` override is rejected with a typed
    /// error instead of being silently replaced by the hardware count.
    ///
    /// # Errors
    ///
    /// [`SmashError::PoolUnavailable`] for a malformed override or a
    /// failed spawn.
    pub fn try_parallel() -> Result<Self, SmashError> {
        let threads = threads_from_env()
            .map_err(|e| SmashError::PoolUnavailable {
                detail: e.to_string(),
            })?
            .unwrap_or_else(default_threads);
        Executor::try_with_threads(threads)
    }

    /// An executor that chooses serial or parallel per call through the
    /// built-in calibrated [`Planner`] (threshold fallback when no
    /// calibration row matches). The pool is sized from
    /// [`SMASH_THREADS`](smash_parallel::THREADS_ENV) (or the available cores), so
    /// `SMASH_THREADS=1` pins `Auto` to serial execution globally.
    pub fn auto() -> Self {
        Executor::auto_with(Planner::built_in())
    }

    /// An `Auto` executor driven by a caller-supplied [`Planner`] —
    /// e.g. [`Planner::empty`] to get the pure threshold dispatch, or a
    /// planner parsed from a site-specific calibration table.
    pub fn auto_with(planner: Planner) -> Self {
        Executor::assemble(
            ExecMode::Auto,
            Some(ThreadPool::new(default_threads())),
            Some(planner),
        )
    }

    /// An `Auto` executor that **degrades instead of panicking** when the
    /// pool cannot be built: on a spawn failure the executor comes up
    /// serial, and every `try_*` call reports the missing pool as a
    /// [`Degradation::PoolUnavailable`] in its [`ExecReport`] — the
    /// construction rung of the degradation ladder.
    pub fn auto_resilient() -> Self {
        let planner = Some(Planner::built_in());
        match ThreadPool::try_new(default_threads()) {
            Ok(pool) => Executor::assemble(ExecMode::Auto, Some(pool), planner),
            Err(e) => {
                let mut exec = Executor::assemble(ExecMode::Auto, None, planner);
                exec.pool_error = Some(e.to_string());
                exec
            }
        }
    }

    /// Sets the transient-memory budget consulted by
    /// [`Executor::try_spgemm`].
    #[must_use]
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the NaN/infinity policy of every call.
    #[must_use]
    pub fn with_non_finite_policy(mut self, policy: NonFinitePolicy) -> Self {
        self.nonfinite = policy;
        self
    }

    /// The transient-memory budget, if one is set.
    pub fn budget(&self) -> Option<MemoryBudget> {
        self.budget
    }

    /// The NaN/infinity policy of every call.
    pub fn non_finite_policy(&self) -> NonFinitePolicy {
        self.nonfinite
    }

    /// The planner driving `Auto` decisions (`None` for the fixed
    /// `Serial`/`Parallel` modes).
    pub fn planner(&self) -> Option<&Planner> {
        self.planner.as_ref()
    }

    /// The dispatch mode of this executor.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Worker threads the parallel path would use (1 for a serial
    /// executor).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, ThreadPool::threads)
    }

    /// The rationale of a fixed mode's pinned plans (only `Serial` and
    /// `Parallel` executors have no planner).
    fn pinned_rationale(&self) -> &'static str {
        if self.mode == ExecMode::Serial {
            "pinned by the Serial executor: the serial kernel"
        } else {
            "pinned by the Parallel executor: one range per pool worker"
        }
    }

    /// Builds the [`Plan`] a call acts on. `Auto` asks its planner, which
    /// profiles the operand and scores the calibrated candidates (the
    /// threshold rule is the planner's fallback tier). The fixed modes pin
    /// the plan to their own worker count and build no profile, so
    /// `profile` and `work` only run under `Auto`.
    ///
    /// Every call then applies one dispatch predicate,
    /// [`Choice::parallel`](crate::planner::Choice::parallel): the pool
    /// runs iff the plan names more than one worker. A pool-less executor
    /// never plans wide (its [`threads`](Self::threads) is 1), and a
    /// one-worker pool runs the serial kernel directly — the same bits
    /// without the hand-off.
    fn make_plan(
        &self,
        op: Op,
        format: Format,
        rhs_cols: usize,
        profile: impl FnOnce() -> MatrixProfile,
        work: impl FnOnce() -> Option<u64>,
    ) -> Plan {
        let req = PlanRequest::pinned(op, format, self.threads()).with_rhs(rhs_cols);
        match &self.planner {
            Some(planner) => {
                let req = match work() {
                    Some(w) => req.with_work(w),
                    None => req,
                };
                planner.plan(&profile(), &req)
            }
            None => Plan::pinned(&req, self.pinned_rationale()),
        }
    }

    /// The [`Plan`] — choice, predicted cost, rationale — that
    /// [`Executor::spmv`] acts on for this operand, without running
    /// anything. A `Serial`/`Parallel` executor returns its pinned plan.
    pub fn plan_spmv<'a, T: Scalar>(&self, a: impl Into<SpmvOperand<'a, T>>) -> Plan {
        let a = a.into();
        self.make_plan(a.op_spmv(), a.format(), 1, || a.profile(), || None)
    }

    /// The [`Plan`] that [`Executor::spmm_dense`] acts on for this
    /// operand and a `rhs_cols`-wide batch.
    pub fn plan_spmm_dense<'a, T: Scalar>(
        &self,
        a: impl Into<SpmvOperand<'a, T>>,
        rhs_cols: usize,
    ) -> Plan {
        let a = a.into();
        self.make_plan(
            a.op_spmm_dense(),
            a.format(),
            rhs_cols,
            || a.profile(),
            || None,
        )
    }

    /// The [`Plan`] that [`Executor::spgemm`] acts on, including (under
    /// `Auto`) the symbolic flop count it weighs.
    pub fn plan_spgemm<T: Scalar>(&self, a: &Csr<T>, b: &Csr<T>) -> Plan {
        self.make_plan(
            Op::Spgemm,
            Format::Csr,
            1,
            || MatrixProfile::of_csr(a),
            || Some(spgemm::stored_work(a, b)),
        )
    }

    /// The [`Plan`] that [`Executor::encode`] acts on.
    pub fn plan_encode<T: Scalar>(&self, a: &Csr<T>) -> Plan {
        self.make_plan(
            Op::Encode,
            Format::Csr,
            1,
            || MatrixProfile::of_csr(a),
            || None,
        )
    }

    /// Sparse matrix-vector product `y = A * x` over any supported format
    /// and precision: [`Executor::try_spmv`], panicking on its error.
    ///
    /// Dispatches to the serial or parallel kernel of the operand's format
    /// per the executor's [`ExecMode`]; the result is bit-identical
    /// whichever path runs.
    ///
    /// # Panics
    ///
    /// Panics with the [`SmashError`] message of [`Executor::try_spmv`] —
    /// e.g. `"spmv: dimension mismatch …"` if `x.len() != a.cols()` or
    /// `y.len() != a.rows()`, a structure error for a corrupt operand, or
    /// a non-finite value under [`NonFinitePolicy::Reject`].
    ///
    /// # Example
    ///
    /// ```
    /// use smash_core::{SmashConfig, SmashMatrix};
    /// use smash_kernels::Executor;
    /// use smash_matrix::generators;
    ///
    /// let exec = Executor::auto();
    /// let a = generators::banded(96, 96, 3, 500, 7);
    /// let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4])?);
    /// let x = vec![0.5f64; 96];
    /// let (mut y_csr, mut y_sm) = (vec![0.0; 96], vec![0.0; 96]);
    /// exec.spmv(&a, &x, &mut y_csr);   // CSR operand
    /// exec.spmv(&sm, &x, &mut y_sm);   // compressed operand, same call
    /// # Ok::<(), smash_core::SmashError>(())
    /// ```
    #[track_caller]
    pub fn spmv<'a, T: Scalar>(&self, a: impl Into<SpmvOperand<'a, T>>, x: &[T], y: &mut [T]) {
        or_panic(self.try_spmv(a, x, y));
    }

    /// Batched sparse × dense multiply `C = A * B` over any supported
    /// sparse format: `B` is a dense batch of right-hand-side columns
    /// (e.g. many concurrent queries against one served matrix), processed
    /// in register-blocked column tiles so the sparse operand is streamed
    /// once per tile instead of once per vector. This is
    /// [`Executor::try_spmm_dense`], panicking on its error.
    ///
    /// Under [`ExecMode::Auto`] the decision weighs the *total* work —
    /// stored values × right-hand sides — so a matrix too small to
    /// parallelize one SpMV can still go wide once enough right-hand
    /// sides are batched. Whichever path runs, the result is bit-identical
    /// — and column `j` of `C` is bit-identical to [`Executor::spmv`]
    /// against column `j` of `B`.
    ///
    /// # Panics
    ///
    /// Panics with the [`SmashError`] message of
    /// [`Executor::try_spmm_dense`] — e.g. on `b.rows() != a.cols()`,
    /// `c.rows() != a.rows()` or `c.cols() != b.cols()`.
    ///
    /// # Example
    ///
    /// ```
    /// use smash_kernels::Executor;
    /// use smash_matrix::{generators, Dense};
    ///
    /// let a = generators::banded(64, 64, 3, 400, 7);
    /// let b = Dense::from_vec(64, 8, vec![0.5f64; 64 * 8])?;
    /// let mut c = Dense::zeros(64, 8);
    /// Executor::auto().spmm_dense(&a, &b, &mut c);
    ///
    /// let mut serial = Dense::zeros(64, 8);
    /// Executor::serial().spmm_dense(&a, &b, &mut serial);
    /// assert_eq!(c, serial); // bit-identical across modes
    /// # Ok::<(), smash_matrix::MatrixError>(())
    /// ```
    #[track_caller]
    pub fn spmm_dense<'a, T: Scalar>(
        &self,
        a: impl Into<SpmvOperand<'a, T>>,
        b: &Dense<T>,
        c: &mut Dense<T>,
    ) {
        or_panic(self.try_spmm_dense(a, b, c));
    }

    /// Sparse × sparse multiply `C = A · B`, both operands CSR, through
    /// the row-wise Gustavson engine ([`crate::spgemm`]): symbolic sizing,
    /// per-row dense/hash accumulators, direct CSR emission with exact
    /// allocation. This is [`Executor::try_spgemm`], panicking on its
    /// error.
    ///
    /// Under [`ExecMode::Auto`] the serial/parallel decision weighs the
    /// **stored work** `Σ_{(i,k) ∈ A} nnz(B[k,:])` — the flop count
    /// Gustavson actually performs, which for sparse × sparse can dwarf
    /// (or undercut) either operand's nnz. Whichever path runs, the
    /// output is bit-identical — and triplet-exact to the
    /// `Csr::spmm_inner` inner-product oracle.
    ///
    /// # Panics
    ///
    /// Panics with the [`SmashError`] message of [`Executor::try_spgemm`]
    /// — e.g. `"spgemm: dimension mismatch …"` if `a.cols() != b.rows()`.
    ///
    /// # Example
    ///
    /// ```
    /// use smash_kernels::Executor;
    /// use smash_matrix::generators;
    ///
    /// let a = generators::power_law(96, 96, 1_200, 1.3, 5);
    /// let c = Executor::auto().spgemm(&a, &a);
    /// assert_eq!(c, Executor::serial().spgemm(&a, &a)); // bit-identical
    /// ```
    #[track_caller]
    pub fn spgemm<T: Scalar>(&self, a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
        or_panic(self.try_spgemm(a, b)).0
    }

    /// Masked sparse × sparse multiply `C = (A · B) ∘ M`: the Gustavson
    /// product kept only at `mask`'s stored positions (values ignored),
    /// computed without materializing the unmasked product. The result
    /// is `==` to [`Executor::spgemm`]'s filtered by the mask's pattern,
    /// whichever path runs. This is [`Executor::try_spgemm_masked`],
    /// panicking on its error.
    ///
    /// # Panics
    ///
    /// Panics with the [`SmashError`] message of
    /// [`Executor::try_spgemm_masked`] — e.g. `"spgemm_masked: dimension
    /// mismatch …"` if the mask is not `a.rows() × b.cols()`.
    ///
    /// # Example
    ///
    /// ```
    /// use smash_kernels::Executor;
    /// use smash_matrix::generators;
    ///
    /// let a = generators::power_law(96, 96, 1_200, 1.3, 5);
    /// let exec = Executor::auto();
    /// let c = exec.spgemm_masked(&a, &a, &a); // (A·A) ∘ A
    /// let full = exec.spgemm(&a, &a).to_coo();
    /// let filtered: Vec<_> = full
    ///     .entries()
    ///     .iter()
    ///     .filter(|&&(i, j, _)| a.row(i as usize).0.binary_search(&j).is_ok())
    ///     .copied()
    ///     .collect();
    /// assert_eq!(c.to_coo().entries(), filtered); // exact, not approx
    /// ```
    #[track_caller]
    pub fn spgemm_masked<T: Scalar>(&self, a: &Csr<T>, b: &Csr<T>, mask: &Csr<T>) -> Csr<T> {
        or_panic(self.try_spgemm_masked(a, b, mask)).0
    }

    /// Sparse × sparse multiply emitted straight into the SMASH encoding
    /// (compress-on-the-fly): `==` to compressing
    /// [`Executor::spgemm`]'s result with `SmashMatrix::encode`, without
    /// materializing the intermediate CSR. Validation, plan and
    /// degradation ladder as in [`Executor::try_spgemm`]; no
    /// [`MemoryBudget`] applies.
    ///
    /// # Panics
    ///
    /// Panics if `config` is not row-major, or with the [`SmashError`]
    /// message of a failed validation — e.g. `"spgemm_smash: dimension
    /// mismatch …"` if `a.cols() != b.rows()`.
    #[track_caller]
    pub fn spgemm_smash<T: Scalar>(
        &self,
        a: &Csr<T>,
        b: &Csr<T>,
        config: SmashConfig,
    ) -> SmashMatrix<T> {
        const OP: &str = "spgemm_smash";
        assert_eq!(config.layout(), Layout::RowMajor, "emission is row-major");
        let run = || {
            let (bounds, mut report) = self.spgemm_prelude(OP, a, b, None)?;
            self.ladder(
                OP,
                &mut report,
                &mut (),
                |pool, _| spgemm::spgemm_smash(Some(pool), a, b, &bounds, config.clone()),
                |_| spgemm::spgemm_smash(None, a, b, &bounds, config.clone()),
            )
        };
        or_panic(run())
    }

    /// Block-granular SMASH SpMM (`A` row-major × `B` column-major, both
    /// 1-level). Both operands are validated (cached structural check plus
    /// the [`NonFinitePolicy`] scan of their NZAs), then the call runs
    /// serial or row-parallel per the executor's plan down the degradation
    /// ladder — under `Auto` the planner's threshold tier weighs the two
    /// operands' stored values. Every path runs the serial per-row merge
    /// body, so every mode returns the identical triplet list.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not 1-level row-major/col-major with
    /// matching block sizes, or dimensions disagree; otherwise with the
    /// [`SmashError`] message of a failed validation.
    #[track_caller]
    pub fn spmm_smash<T: Scalar>(&self, a: &SmashMatrix<T>, b: &SmashMatrix<T>) -> Coo<T> {
        const OP: &str = "spmm_smash";
        assert_eq!(a.config().layout(), Layout::RowMajor, "A must be row-major");
        check_smash_spmm_operands(a, b);
        let run = || {
            a.validate().map_err(SmashError::Encoding)?;
            b.validate().map_err(SmashError::Encoding)?;
            self.check_finite(OP, "A", a.nza().values())?;
            self.check_finite(OP, "B", b.nza().values())?;
            let plan = self.make_plan(
                Op::Spgemm,
                Format::Smash,
                1,
                || MatrixProfile::of_smash(a),
                || Some((a.nza().len() + b.nza().len()) as u64),
            );
            let mut report = self.start_report(plan);
            self.ladder(
                OP,
                &mut report,
                &mut (),
                |pool, _| spgemm::spmm_smash(Some(pool), a, b),
                |_| spgemm::spmm_smash(None, a, b),
            )
        };
        or_panic(run())
    }

    /// Compresses a CSR matrix into the SMASH encoding, in parallel when
    /// the executor's plan calls for it: [`Executor::try_encode`],
    /// panicking on its error. The produced matrix is `==` to
    /// `SmashMatrix::encode(a, config)` either way.
    ///
    /// # Panics
    ///
    /// Panics with the [`SmashError`] message of [`Executor::try_encode`].
    #[track_caller]
    pub fn encode<T: Scalar>(&self, a: &Csr<T>, config: SmashConfig) -> SmashMatrix<T> {
        or_panic(self.try_encode(a, config)).0
    }

    /// Merges a dynamic matrix's overlay into its base tier
    /// ([`DynamicMatrix::compact`]), re-encoding a SMASH base through
    /// [`Executor::encode`]. The compacted base is `==` to building it
    /// from scratch from the merged matrix, whichever path runs.
    pub fn compact<T: Scalar>(&self, m: &mut DynamicMatrix<T>) {
        m.compact_with(|merged, config| self.encode(merged, config));
    }

    // ------------------------------------------------------------------
    // The single bodies: validated operands, typed errors, graceful
    // degradation. The panicking calls above unwrap these.
    // ------------------------------------------------------------------

    /// Starts a report on `plan`, recording up front the construction
    /// rung of the ladder (a pool that failed to spawn) if it applies.
    fn start_report(&self, plan: Plan) -> ExecReport {
        let mut report = ExecReport::new(plan);
        if let Some(detail) = &self.pool_error {
            report.note(Degradation::PoolUnavailable {
                detail: detail.clone(),
            });
        }
        report
    }

    /// Runs one op down the degradation ladder: `wide` on the pool when
    /// the plan says so — a panic there is reported and the call retried
    /// through `serial` — otherwise `serial` directly. A panic in `serial`
    /// becomes [`SmashError::Panicked`]. `out` is the output both write;
    /// the serial kernels write all of it, so a retry after a partial
    /// parallel write is bit-identical to a clean serial run.
    fn ladder<O: ?Sized, R>(
        &self,
        op: &'static str,
        report: &mut ExecReport,
        out: &mut O,
        wide: impl FnOnce(&ThreadPool, &mut O) -> R,
        serial: impl FnOnce(&mut O) -> R,
    ) -> Result<R, SmashError> {
        if report.plan.choice.parallel() {
            match catch_unwind(AssertUnwindSafe(|| wide(self.pool(), &mut *out))) {
                Ok(r) => return Ok(r),
                Err(payload) => report.note(Degradation::WorkerPanic {
                    detail: panic_detail(payload.as_ref()),
                }),
            }
        }
        catch_unwind(AssertUnwindSafe(|| serial(out))).map_err(|payload| SmashError::Panicked {
            op,
            detail: panic_detail(payload.as_ref()),
        })
    }

    /// The [`NonFinitePolicy::Reject`] scan over a matrix operand —
    /// operand-level (not a slice scan) because a dynamic operand's
    /// values live in both its base tier and its overlay.
    fn check_operand_finite<T: Scalar>(
        &self,
        op: &'static str,
        a: &SpmvOperand<'_, T>,
    ) -> Result<(), SmashError> {
        if self.nonfinite == NonFinitePolicy::Reject && !a.values_finite() {
            return Err(SmashError::NonFinite { op, operand: "A" });
        }
        Ok(())
    }

    /// The [`NonFinitePolicy::Reject`] scan over one operand's values.
    fn check_finite<T: Scalar>(
        &self,
        op: &'static str,
        operand: &'static str,
        values: &[T],
    ) -> Result<(), SmashError> {
        if self.nonfinite == NonFinitePolicy::Reject && values.iter().any(|v| !v.is_finite()) {
            return Err(SmashError::NonFinite { op, operand });
        }
        Ok(())
    }

    /// Whether the fault-injection harness forces this budget check to
    /// report exhaustion (always `false` outside the `fault-injection`
    /// feature).
    fn budget_fault_injected() -> bool {
        #[cfg(feature = "fault-injection")]
        {
            smash_parallel::faultinject::should_fail(smash_parallel::faultinject::Site::BudgetCheck)
        }
        #[cfg(not(feature = "fault-injection"))]
        {
            false
        }
    }

    /// Sparse matrix-vector product `y = A * x`, the one body behind
    /// [`Executor::spmv`]: validates the operands up front (dimensions,
    /// cached structural [`validate`](Csr::validate), the
    /// [`NonFinitePolicy`]) and descends the degradation ladder instead
    /// of panicking — a parallel kernel panic is caught, reported, and
    /// retried serially (the serial driver overwrites every output
    /// element, so the retry is bit-identical to a clean serial run).
    ///
    /// # Errors
    ///
    /// [`SmashError::DimensionMismatch`], [`SmashError::InvalidStructure`]
    /// / [`SmashError::Encoding`] / [`SmashError::Unsupported`] from
    /// operand validation, [`SmashError::NonFinite`] under the `Reject`
    /// policy, [`SmashError::Panicked`] if the serial retry panics too.
    pub fn try_spmv<'a, T: Scalar>(
        &self,
        a: impl Into<SpmvOperand<'a, T>>,
        x: &[T],
        y: &mut [T],
    ) -> Result<ExecReport, SmashError> {
        const OP: &str = "spmv";
        let a = a.into();
        if x.len() != a.cols() {
            return Err(SmashError::DimensionMismatch {
                op: OP,
                expected: (a.cols(), 1),
                got: (x.len(), 1),
            });
        }
        if y.len() != a.rows() {
            return Err(SmashError::DimensionMismatch {
                op: OP,
                expected: (a.rows(), 1),
                got: (y.len(), 1),
            });
        }
        a.check(OP)?;
        self.check_operand_finite(OP, &a)?;
        self.check_finite(OP, "x", x)?;
        let plan = self.make_plan(a.op_spmv(), a.format(), 1, || a.profile(), || None);
        let mut report = self.start_report(plan);
        let r = a.row_read();
        self.ladder(
            OP,
            &mut report,
            y,
            |pool, y| par_spmv_rows(pool, r, x, y),
            |y| spmv_rows(r, x, y),
        )?;
        Ok(report)
    }

    /// Batched sparse × dense product `C = A * B`, the one body behind
    /// [`Executor::spmm_dense`]: validated operands and the same
    /// degradation ladder as [`Executor::try_spmv`].
    ///
    /// # Errors
    ///
    /// As [`Executor::try_spmv`], with `B` covered by the non-finite scan
    /// as well.
    pub fn try_spmm_dense<'a, T: Scalar>(
        &self,
        a: impl Into<SpmvOperand<'a, T>>,
        b: &Dense<T>,
        c: &mut Dense<T>,
    ) -> Result<ExecReport, SmashError> {
        const OP: &str = "spmm_dense";
        let a = a.into();
        if b.rows() != a.cols() {
            return Err(SmashError::DimensionMismatch {
                op: OP,
                expected: (a.cols(), b.cols()),
                got: (b.rows(), b.cols()),
            });
        }
        if c.rows() != a.rows() || c.cols() != b.cols() {
            return Err(SmashError::DimensionMismatch {
                op: OP,
                expected: (a.rows(), b.cols()),
                got: (c.rows(), c.cols()),
            });
        }
        a.check(OP)?;
        self.check_operand_finite(OP, &a)?;
        self.check_finite(OP, "B", b.as_slice())?;
        let plan = self.make_plan(
            a.op_spmm_dense(),
            a.format(),
            b.cols(),
            || a.profile(),
            || None,
        );
        let mut report = self.start_report(plan);
        let r = a.row_read();
        self.ladder(
            OP,
            &mut report,
            c,
            |pool, c| par_spmm_dense_rows(pool, r, b, c),
            |c| spmm_dense_rows(r, b, c),
        )?;
        Ok(report)
    }

    /// Sparse × sparse multiply, the one body behind
    /// [`Executor::spgemm`] — and the resource-governed one: operands are
    /// validated up front, and the symbolic pass runs once; its per-row
    /// bounds size the serial, parallel or chunked engine that follows.
    /// When a [`MemoryBudget`] is set the product's transient engine
    /// memory is estimated from those bounds **before any numeric
    /// allocation** — an over-budget product either fails with
    /// [`SmashError::ResourceExhausted`] or (for a
    /// [`MemoryBudget::degrade_over`] budget) runs as a serial
    /// row-chunked streaming execution with bounded peak scratch,
    /// bit-identical to the unchunked engine. Parallel kernel panics
    /// degrade to a serial retry as in [`Executor::try_spmv`].
    ///
    /// # Errors
    ///
    /// The validation errors of [`Executor::try_spmv`], plus
    /// [`SmashError::ResourceExhausted`] for an over-budget product
    /// without degradation (or one whose single widest row cannot fit
    /// even chunked).
    pub fn try_spgemm<T: Scalar>(
        &self,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<(Csr<T>, ExecReport), SmashError> {
        self.spgemm_body("spgemm", a, b, None)
    }

    /// Masked sparse × sparse multiply `C = (A · B) ∘ M`, the one body
    /// behind [`Executor::spgemm_masked`]: [`Executor::try_spgemm`]'s
    /// validation, plan, budget and ladder, with the Gustavson rows
    /// accumulating only at `mask`'s stored positions (see the
    /// [`spgemm`] module docs). The mask's structure is
    /// validated; its values are ignored.
    ///
    /// # Errors
    ///
    /// As [`Executor::try_spgemm`], plus
    /// [`SmashError::DimensionMismatch`] if `mask` is not
    /// `a.rows() × b.cols()` and [`SmashError::InvalidStructure`] for a
    /// corrupt mask.
    pub fn try_spgemm_masked<T: Scalar>(
        &self,
        a: &Csr<T>,
        b: &Csr<T>,
        mask: &Csr<T>,
    ) -> Result<(Csr<T>, ExecReport), SmashError> {
        self.spgemm_body("spgemm_masked", a, b, Some(mask))
    }

    /// The shared body of [`Executor::try_spgemm`] (`mask = None`) and
    /// [`Executor::try_spgemm_masked`].
    fn spgemm_body<T: Scalar>(
        &self,
        op: &'static str,
        a: &Csr<T>,
        b: &Csr<T>,
        mask: Option<&Csr<T>>,
    ) -> Result<(Csr<T>, ExecReport), SmashError> {
        let (bounds, mut report) = self.spgemm_prelude(op, a, b, mask)?;
        if let Some(budget) = self.budget {
            let needed = spgemm::estimate_engine_bytes(&bounds, mask, b.cols());
            if needed > budget.bytes() || Self::budget_fault_injected() {
                if !budget.degrades() {
                    return Err(SmashError::ResourceExhausted {
                        needed,
                        budget: budget.bytes(),
                    });
                }
                let (c, run) = spgemm::spgemm_chunked(a, b, mask, &bounds, budget.bytes())?;
                report.note(Degradation::ChunkedSpgemm {
                    chunks: run.chunks,
                    peak_scratch_bytes: run.peak_scratch_bytes,
                    budget_bytes: run.budget_bytes,
                });
                return Ok((c, report));
            }
        }
        let c = self.ladder(
            op,
            &mut report,
            &mut (),
            |pool, _| spgemm::spgemm(Some(pool), a, b, mask, &bounds),
            |_| spgemm::spgemm(None, a, b, mask, &bounds),
        )?;
        Ok((c, report))
    }

    /// The validation prefix every Gustavson product shares: dimensions,
    /// cached structural checks of `a`, `b` and the optional `mask` (whose
    /// values are never read), the [`NonFinitePolicy`] scan of `a` and
    /// `b`, then one symbolic pass whose stored work feeds the plan. Returns
    /// the per-row bounds and the report started on that plan.
    fn spgemm_prelude<T: Scalar>(
        &self,
        op: &'static str,
        a: &Csr<T>,
        b: &Csr<T>,
        mask: Option<&Csr<T>>,
    ) -> Result<(Vec<u64>, ExecReport), SmashError> {
        if a.cols() != b.rows() {
            return Err(SmashError::DimensionMismatch {
                op,
                expected: (a.cols(), b.cols()),
                got: (b.rows(), b.cols()),
            });
        }
        if let Some(m) = mask {
            if (m.rows(), m.cols()) != (a.rows(), b.cols()) {
                return Err(SmashError::DimensionMismatch {
                    op,
                    expected: (a.rows(), b.cols()),
                    got: (m.rows(), m.cols()),
                });
            }
            SpmvOperand::Csr(m).check(op)?;
        }
        SpmvOperand::Csr(a).check(op)?;
        SpmvOperand::Csr(b).check(op)?;
        self.check_finite(op, "A", a.values())?;
        self.check_finite(op, "B", b.values())?;
        let (bounds, work) = spgemm::symbolic_bounds(a, b);
        let plan = self.make_plan(
            Op::Spgemm,
            Format::Csr,
            1,
            || MatrixProfile::of_csr(a),
            || Some(work),
        );
        Ok((bounds, self.start_report(plan)))
    }

    /// CSR → SMASH compression, the one body behind
    /// [`Executor::encode`]: validates the CSR operand (cached structural
    /// check plus the [`NonFinitePolicy`] scan) and descends the
    /// degradation ladder — a panicking parallel encoder is caught,
    /// reported, and retried serially; the result is `==` either way.
    ///
    /// # Errors
    ///
    /// [`SmashError::InvalidStructure`] / [`SmashError::NonFinite`] from
    /// validation, [`SmashError::Panicked`] if the serial retry panics.
    pub fn try_encode<T: Scalar>(
        &self,
        a: &Csr<T>,
        config: SmashConfig,
    ) -> Result<(SmashMatrix<T>, ExecReport), SmashError> {
        const OP: &str = "encode";
        SpmvOperand::Csr(a).check(OP)?;
        self.check_finite(OP, "A", a.values())?;
        let plan = self.make_plan(
            Op::Encode,
            Format::Csr,
            1,
            || MatrixProfile::of_csr(a),
            || None,
        );
        let mut report = self.start_report(plan);
        let sm = self.ladder(
            OP,
            &mut report,
            &mut (),
            |pool, _| par_csr_to_smash(pool, a, config.clone()),
            |_| SmashMatrix::encode(a, config.clone()),
        )?;
        Ok((sm, report))
    }

    fn pool(&self) -> &ThreadPool {
        self.pool
            .as_ref()
            .expect("parallel dispatch implies a pool")
    }
}

/// Unwraps a `try_*` result for its panicking twin: the typed error's
/// message becomes the panic message.
#[track_caller]
fn or_panic<R>(result: Result<R, SmashError>) -> R {
    match result {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

impl Default for Executor {
    /// The default executor is [`Executor::auto`].
    fn default() -> Self {
        Executor::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_vector;
    use crate::error::panic_detail;
    use crate::native;
    use smash_matrix::{generators, Bcsr};

    fn modes() -> Vec<(&'static str, Executor)> {
        vec![
            ("serial", Executor::serial()),
            ("parallel", Executor::parallel()),
            ("threads2", Executor::with_threads(2)),
            ("auto", Executor::auto()),
            ("default", Executor::default()),
        ]
    }

    #[test]
    fn all_modes_agree_bitwise_on_all_formats() {
        // Big enough that Auto takes the parallel path for CSR.
        let a = generators::clustered(256, 256, 20_000, 5, 3);
        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4]).unwrap());
        let x = test_vector::<f64>(a.cols());
        let mut want = vec![0.0; a.rows()];

        for (fmt, serial_y) in [
            ("csr", {
                spmv_rows(&a, &x, &mut want);
                want.clone()
            }),
            ("bcsr", {
                spmv_rows(&bcsr, &x, &mut want);
                want.clone()
            }),
            ("smash", {
                spmv_rows(&sm, &x, &mut want);
                want.clone()
            }),
        ] {
            for (mode, exec) in modes() {
                let mut y = vec![f64::NAN; a.rows()];
                match fmt {
                    "csr" => exec.spmv(&a, &x, &mut y),
                    "bcsr" => exec.spmv(&bcsr, &x, &mut y),
                    _ => exec.spmv(&sm, &x, &mut y),
                }
                assert_eq!(y, serial_y, "{fmt} via {mode}");
            }
        }
    }

    /// A `rows x cols` matrix with every entry stored.
    fn full(rows: usize, cols: usize) -> Csr<f64> {
        let mut coo = Coo::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                coo.push(i, j, 1.0 + (i + j) as f64);
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn auto_stays_serial_below_the_thresholds() {
        // The threshold tier alone: no calibration row can match.
        let exec = Executor::auto_with(Planner::empty());
        // Tiny matrix: never worth dispatching.
        assert!(!exec.plan_spmv(&full(8, 8)).choice.parallel());
        // Heavy but short (2 rows, ~1M work units): row ranges would be
        // degenerate.
        let short = full(2, 64);
        assert!(!exec
            .plan_spmm_dense(&short, 1_000_000 / 128)
            .choice
            .parallel());
        let t = exec.threads();
        if t > 1 {
            let a = full(4 * t, 64);
            let rhs = AUTO_PARALLEL_NNZ.div_ceil(a.nnz());
            assert!(exec.plan_spmm_dense(&a, rhs).choice.parallel());
        }
    }

    #[test]
    fn fixed_modes_report_the_plan_they_run() {
        // The 64x64, 300-nnz probe: too small for any planner to go wide,
        // yet a fixed Parallel executor runs it on its pool.
        let a = generators::uniform(64, 64, 300, 1);
        let x = test_vector::<f64>(64);
        let mut y = vec![0.0; 64];
        for (exec, threads, mode) in [
            (Executor::with_threads(2), 2, "Parallel"),
            (Executor::serial(), 1, "Serial"),
        ] {
            let report = exec.try_spmv(&a, &x, &mut y).unwrap();
            assert_eq!(
                report.plan.choice.threads, threads,
                "{}",
                report.plan.rationale
            );
            assert!(
                report.plan.rationale.contains(mode),
                "{}",
                report.plan.rationale
            );
            assert_eq!(exec.plan_spmv(&a).choice, report.plan.choice);
            // Pinned plans carry the lead tile of the batch width.
            assert_eq!(exec.plan_spmm_dense(&a, 8).choice.tile, 8);
            assert_eq!(exec.plan_spmm_dense(&a, 5).choice.tile, 4);
        }
    }

    #[test]
    fn infallible_calls_unwrap_their_try_twin() {
        let a = generators::clustered(128, 128, 4_000, 5, 3);
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4]).unwrap());
        let x = test_vector::<f64>(128);
        let b = test_batch(128, 6);
        let cfg = SmashConfig::row_major(&[2, 4]).unwrap();
        for (mode, exec) in modes() {
            for op in [SpmvOperand::Csr(&a), SpmvOperand::Smash(&sm)] {
                let (mut y, mut y_try) = (vec![f64::NAN; 128], vec![f64::NAN; 128]);
                exec.spmv(op, &x, &mut y);
                exec.try_spmv(op, &x, &mut y_try).unwrap();
                assert_eq!(y, y_try, "spmv via {mode}");
                let (mut c, mut c_try) = (Dense::zeros(128, 6), Dense::zeros(128, 6));
                exec.spmm_dense(op, &b, &mut c);
                exec.try_spmm_dense(op, &b, &mut c_try).unwrap();
                assert_eq!(c, c_try, "spmm_dense via {mode}");
            }
            assert_eq!(exec.spgemm(&a, &a), exec.try_spgemm(&a, &a).unwrap().0);
            assert_eq!(
                exec.spgemm_masked(&a, &a, &a),
                exec.try_spgemm_masked(&a, &a, &a).unwrap().0
            );
            assert_eq!(
                exec.encode(&a, cfg.clone()),
                exec.try_encode(&a, cfg.clone()).unwrap().0
            );
        }
        // The panic carries the typed error's message.
        let message = |f: &dyn Fn()| {
            let payload = catch_unwind(AssertUnwindSafe(f)).unwrap_err();
            panic_detail(payload.as_ref())
        };
        let exec = Executor::serial();
        let msg = message(&|| exec.spmv(&a, &x[..5], &mut vec![0.0; 128]));
        assert!(msg.starts_with("spmv: dimension mismatch"), "{msg}");
        let msg = message(&|| exec.spmm_dense(&a, &b, &mut Dense::zeros(128, 5)));
        assert!(msg.starts_with("spmm_dense: dimension mismatch"), "{msg}");
        let msg = message(&|| {
            exec.spgemm(&a, &generators::uniform(7, 7, 10, 2));
        });
        assert!(msg.starts_with("spgemm: dimension mismatch"), "{msg}");
        let msg = message(&|| {
            exec.spgemm_smash(&a, &generators::uniform(7, 7, 10, 2), cfg.clone());
        });
        assert!(msg.starts_with("spgemm_smash: dimension mismatch"), "{msg}");
        let msg = message(&|| {
            exec.spgemm_masked(&a, &a, &generators::uniform(128, 7, 10, 2));
        });
        assert!(
            msg.starts_with("spgemm_masked: dimension mismatch"),
            "{msg}"
        );
        let bad = Csr::<f64>::from_parts_unchecked(2, 2, vec![0, 5, 5], vec![0], vec![1.0]);
        let msg = message(&|| {
            exec.encode(&bad, cfg.clone());
        });
        assert!(msg.starts_with("invalid csr structure"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "spmv: operand A holds a NaN or infinity")]
    fn reject_policy_applies_to_infallible_calls() {
        let mut coo = Coo::<f64>::new(2, 2);
        coo.push(0, 0, f64::NAN);
        let a = Csr::from_coo(&coo);
        Executor::serial()
            .with_non_finite_policy(NonFinitePolicy::Reject)
            .spmv(&a, &[1.0, 1.0], &mut [0.0; 2]);
    }

    #[test]
    fn smash_products_apply_the_non_finite_policy() {
        let mut coo = Coo::<f64>::new(4, 4);
        coo.push(0, 0, f64::NAN);
        coo.push(1, 1, 2.0);
        let a = Csr::from_coo(&coo);
        let b = generators::uniform(4, 4, 6, 3);
        let sa = SmashMatrix::encode(&a, SmashConfig::row_major(&[2]).unwrap());
        let sb = SmashMatrix::encode(&b, SmashConfig::col_major(&[2]).unwrap());
        let cfg = SmashConfig::row_major(&[2]).unwrap();
        for (mode, exec) in modes() {
            let reject = exec.with_non_finite_policy(NonFinitePolicy::Reject);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                reject.spgemm_smash(&a, &b, cfg.clone());
            }))
            .unwrap_err();
            let msg = panic_detail(payload.as_ref());
            assert_eq!(
                msg, "spgemm_smash: operand A holds a NaN or infinity",
                "{mode}"
            );
            let payload = catch_unwind(AssertUnwindSafe(|| {
                reject.spmm_smash(&sa, &sb);
            }))
            .unwrap_err();
            let msg = panic_detail(payload.as_ref());
            assert_eq!(
                msg, "spmm_smash: operand A holds a NaN or infinity",
                "{mode}"
            );
        }
        // The default policy lets IEEE semantics flow through.
        assert!(Executor::serial().spgemm_smash(&a, &b, cfg).nnz() > 0);
        let c = Executor::serial().spmm_smash(&sa, &sb);
        assert_eq!((c.rows(), c.cols()), (4, 4));
    }

    #[test]
    fn serial_mode_reports_one_thread() {
        assert_eq!(Executor::serial().threads(), 1);
        assert_eq!(Executor::serial().mode(), ExecMode::Serial);
        assert_eq!(Executor::with_threads(3).threads(), 3);
    }

    #[test]
    fn spmm_modes_agree() {
        let a = generators::uniform(96, 80, 6_000, 7);
        let b = generators::uniform(80, 64, 4_000, 8);
        let want = native::spmm_csr(&a, &b.to_csc());
        for (mode, exec) in modes() {
            assert_eq!(
                exec.spgemm(&a, &b).to_coo().entries(),
                want.entries(),
                "{mode}"
            );
        }
    }

    #[test]
    fn encode_modes_agree() {
        let a = generators::power_law(128, 128, 20_000, 1.3, 5);
        let cfg = SmashConfig::row_major(&[2, 4]).unwrap();
        let want = SmashMatrix::encode(&a, cfg.clone());
        for (mode, exec) in modes() {
            assert_eq!(exec.encode(&a, cfg.clone()), want, "{mode}");
        }
    }

    #[test]
    fn executor_is_precision_agnostic() {
        let a64 = generators::uniform(64, 64, 2_000, 9);
        let a32 = a64.cast::<f32>();
        let exec = Executor::auto();
        let mut y64 = vec![0.0f64; 64];
        let mut y32 = vec![0.0f32; 64];
        exec.spmv(&a64, &test_vector::<f64>(64), &mut y64);
        exec.spmv(&a32, &test_vector::<f32>(64), &mut y32);
        for (w, n) in y64.iter().zip(&y32) {
            assert!(n.approx_eq(f32::from_f64(*w), f32::TOLERANCE));
        }
    }

    fn test_batch(rows: usize, cols: usize) -> Dense<f64> {
        generators::dense_batch(rows, cols, 5)
    }

    #[test]
    fn spmm_dense_modes_agree_bitwise_on_all_formats() {
        // Small nnz but many right-hand sides: nnz * cols crosses the Auto
        // threshold, exercising the batched parallel path.
        let a = generators::clustered(256, 256, 8_000, 5, 3);
        let bcsr = Bcsr::from_csr(&a, 2, 2).unwrap();
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4]).unwrap());
        let b = test_batch(256, 8);
        let mut want = Dense::zeros(256, 8);
        let mut got = Dense::zeros(256, 8);
        for (fmt, serial_c) in [
            ("csr", {
                spmm_dense_rows(&a, &b, &mut want);
                want.clone()
            }),
            ("bcsr", {
                spmm_dense_rows(&bcsr, &b, &mut want);
                want.clone()
            }),
            ("smash", {
                spmm_dense_rows(&sm, &b, &mut want);
                want.clone()
            }),
        ] {
            for (mode, exec) in modes() {
                got.as_mut_slice().fill(f64::NAN);
                match fmt {
                    "csr" => exec.spmm_dense(&a, &b, &mut got),
                    "bcsr" => exec.spmm_dense(&bcsr, &b, &mut got),
                    _ => exec.spmm_dense(&sm, &b, &mut got),
                }
                assert_eq!(got, serial_c, "{fmt} via {mode}");
            }
        }
    }

    #[test]
    fn spmm_dense_columns_match_spmv_through_executor() {
        let a = generators::uniform(96, 80, 2_000, 9);
        let b = test_batch(80, 6);
        let exec = Executor::auto();
        let mut c = Dense::zeros(96, 6);
        exec.spmm_dense(&a, &b, &mut c);
        for j in 0..6 {
            let mut y = vec![0.0; 96];
            exec.spmv(&a, &b.col(j), &mut y);
            assert_eq!(c.col(j), y, "column {j}");
        }
    }

    #[test]
    fn auto_weighs_batched_work_by_rhs_count() {
        let exec = Executor::auto_with(Planner::empty());
        let t = exec.threads();
        if t <= 1 {
            return; // single-core host: Auto never parallelizes
        }
        let a = full(4 * t, 64);
        // One vector of work below the threshold...
        assert!(a.nnz() < AUTO_PARALLEL_NNZ);
        assert!(!exec.plan_spmv(&a).choice.parallel());
        // ...crosses it once enough right-hand sides are batched (the
        // planner multiplies stored work by the batch width).
        let rhs = AUTO_PARALLEL_NNZ.div_ceil(a.nnz());
        assert!(!exec.plan_spmm_dense(&a, rhs - 1).choice.parallel());
        assert!(exec.plan_spmm_dense(&a, rhs).choice.parallel());
    }

    #[test]
    fn try_spmv_matches_panicking_tier_on_clean_input() {
        let a = generators::clustered(256, 256, 20_000, 5, 3);
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4]).unwrap());
        let x = test_vector::<f64>(256);
        let mut want = vec![0.0; 256];
        Executor::serial().spmv(&a, &x, &mut want);
        for (mode, exec) in modes() {
            let mut y = vec![f64::NAN; 256];
            let report = exec.try_spmv(&a, &x, &mut y).unwrap();
            assert_eq!(y, want, "csr via {mode}");
            assert!(!report.degraded(), "clean run must not degrade");
            let mut y = vec![f64::NAN; 256];
            exec.try_spmv(&sm, &x, &mut y).unwrap();
            let mut want_sm = vec![0.0; 256];
            Executor::serial().spmv(&sm, &x, &mut want_sm);
            assert_eq!(y, want_sm, "smash via {mode}");
        }
    }

    #[test]
    fn try_spmv_rejects_bad_dimensions_with_typed_errors() {
        let a = generators::uniform(8, 6, 20, 1);
        let exec = Executor::serial();
        let mut y = vec![0.0; 8];
        let err = exec.try_spmv(&a, &[0.0; 5], &mut y).unwrap_err();
        assert!(
            matches!(err, SmashError::DimensionMismatch { op: "spmv", .. }),
            "short x: {err}"
        );
        let err = exec.try_spmv(&a, &[0.0; 6], &mut [0.0; 7]).unwrap_err();
        assert!(
            matches!(err, SmashError::DimensionMismatch { .. }),
            "short y: {err}"
        );
    }

    #[test]
    fn try_spmv_surfaces_corrupt_structure_as_error_not_panic() {
        // Adversarial CSR: row_ptr points past the value arrays.
        let bad = Csr::<f64>::from_parts_unchecked(2, 2, vec![0, 5, 5], vec![0], vec![1.0]);
        let exec = Executor::serial();
        let mut y = vec![0.0; 2];
        let err = exec.try_spmv(&bad, &[1.0, 1.0], &mut y).unwrap_err();
        assert!(
            matches!(err, SmashError::InvalidStructure { format: "csr", .. }),
            "{err}"
        );
    }

    #[test]
    fn non_finite_policy_rejects_nan_and_infinity() {
        let mut coo = Coo::<f64>::new(2, 2);
        coo.push(0, 0, f64::NAN);
        let a = Csr::from_coo(&coo);
        let exec = Executor::serial().with_non_finite_policy(NonFinitePolicy::Reject);
        let mut y = vec![0.0; 2];
        let err = exec.try_spmv(&a, &[1.0, 1.0], &mut y).unwrap_err();
        assert!(
            matches!(err, SmashError::NonFinite { operand: "A", .. }),
            "{err}"
        );
        // A finite matrix with an infinite x is also rejected…
        let good = generators::uniform(2, 2, 2, 3);
        let err = exec
            .try_spmv(&good, &[1.0, f64::INFINITY], &mut y)
            .unwrap_err();
        assert!(matches!(err, SmashError::NonFinite { operand: "x", .. }));
        // …while the default policy lets IEEE semantics flow through.
        let report = Executor::serial().try_spmv(&a, &[1.0, 1.0], &mut y);
        assert!(report.is_ok());
        assert!(y[0].is_nan());
    }

    #[test]
    fn try_spmm_dense_validates_and_matches() {
        let a = generators::uniform(48, 40, 900, 5);
        let b = test_batch(40, 6);
        let mut want = Dense::zeros(48, 6);
        spmm_dense_rows(&a, &b, &mut want);
        for (mode, exec) in modes() {
            let mut c = Dense::zeros(48, 6);
            exec.try_spmm_dense(&a, &b, &mut c).unwrap();
            assert_eq!(c, want, "{mode}");
        }
        let err = Executor::serial()
            .try_spmm_dense(&a, &b, &mut Dense::zeros(48, 5))
            .unwrap_err();
        assert!(matches!(err, SmashError::DimensionMismatch { .. }), "{err}");
    }

    #[test]
    fn try_spgemm_budget_rejects_or_degrades() {
        let a = generators::power_law(128, 128, 3_000, 1.3, 5);
        let want = Executor::serial().spgemm(&a, &a);
        // Unbudgeted: plain engine.
        let (c, report) = Executor::serial().try_spgemm(&a, &a).unwrap();
        assert_eq!(c, want);
        assert!(!report.degraded());
        // A 64 KiB cap is far below this product's engine estimate.
        let cap = 64 * 1024;
        let err = Executor::serial()
            .with_budget(MemoryBudget::reject_over(cap))
            .try_spgemm(&a, &a)
            .unwrap_err();
        match err {
            SmashError::ResourceExhausted { needed, budget } => {
                assert_eq!(budget, cap);
                assert!(needed > cap);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // Same cap with degradation: chunked run, bit-identical output,
        // peak scratch within the budget.
        let (c, report) = Executor::serial()
            .with_budget(MemoryBudget::degrade_over(cap))
            .try_spgemm(&a, &a)
            .unwrap();
        assert_eq!(c, want, "chunked degradation must be bit-identical");
        assert!(report.degraded());
        match &report.degradations[0] {
            Degradation::ChunkedSpgemm {
                chunks,
                peak_scratch_bytes,
                budget_bytes,
            } => {
                assert!(*chunks > 1);
                assert!(peak_scratch_bytes <= budget_bytes);
                assert_eq!(*budget_bytes, cap);
            }
            other => panic!("expected ChunkedSpgemm, got {other:?}"),
        }
        assert!(
            report.plan.rationale.contains("degraded"),
            "rationale records the ladder: {}",
            report.plan.rationale
        );
        // A roomy budget stays on the plain engine.
        let (c, report) = Executor::serial()
            .with_budget(MemoryBudget::reject_over(u64::MAX))
            .try_spgemm(&a, &a)
            .unwrap();
        assert_eq!(c, want);
        assert!(!report.degraded());
    }

    #[test]
    fn try_spgemm_matches_across_modes() {
        let a = generators::power_law(150, 150, 5_000, 1.4, 9);
        let want = Executor::serial().spgemm(&a, &a);
        for (mode, exec) in modes() {
            let (c, _) = exec.try_spgemm(&a, &a).unwrap();
            assert_eq!(c, want, "{mode}");
        }
        let b = generators::uniform(7, 7, 10, 2);
        let err = Executor::serial().try_spgemm(&a, &b).unwrap_err();
        assert!(matches!(err, SmashError::DimensionMismatch { .. }));
    }

    #[test]
    fn try_encode_matches_across_modes() {
        let a = generators::power_law(128, 128, 20_000, 1.3, 5);
        let cfg = SmashConfig::row_major(&[2, 4]).unwrap();
        let want = SmashMatrix::encode(&a, cfg.clone());
        for (mode, exec) in modes() {
            let (sm, report) = exec.try_encode(&a, cfg.clone()).unwrap();
            assert_eq!(sm, want, "{mode}");
            assert!(!report.degraded(), "{mode}");
        }
    }

    #[test]
    fn try_with_threads_reports_typed_pool_errors() {
        let err = Executor::try_with_threads(0).unwrap_err();
        assert!(matches!(err, SmashError::PoolUnavailable { .. }), "{err}");
        let exec = Executor::try_with_threads(2).unwrap();
        assert_eq!(exec.threads(), 2);
    }

    #[test]
    fn auto_resilient_matches_auto_on_a_healthy_host() {
        let exec = Executor::auto_resilient();
        let a = generators::uniform(64, 64, 1_500, 4);
        let x = test_vector::<f64>(64);
        let (mut y, mut want) = (vec![0.0; 64], vec![0.0; 64]);
        Executor::serial().spmv(&a, &x, &mut want);
        let report = exec.try_spmv(&a, &x, &mut y).unwrap();
        assert_eq!(y, want);
        // Spawn succeeded here, so no degradation is recorded.
        assert!(!report.degraded());
    }

    #[test]
    fn budget_accessors_roundtrip() {
        let exec = Executor::serial()
            .with_budget(MemoryBudget::degrade_over(1 << 20))
            .with_non_finite_policy(NonFinitePolicy::Reject);
        assert_eq!(exec.budget(), Some(MemoryBudget::degrade_over(1 << 20)));
        assert_eq!(exec.non_finite_policy(), NonFinitePolicy::Reject);
        assert!(exec.budget().unwrap().degrades());
        assert!(!MemoryBudget::reject_over(8).degrades());
        assert_eq!(MemoryBudget::reject_over(8).bytes(), 8);
        assert_eq!(Executor::serial().budget(), None);
    }

    #[test]
    fn dynamic_operand_matches_rebuilt_matrix_across_modes() {
        use smash_core::DynamicMatrix;
        let a = generators::clustered(256, 256, 20_000, 5, 3);
        let mut dm = DynamicMatrix::from_csr(a.clone());
        dm.set(3, 7, 2.5);
        dm.add(100, 100, -1.25);
        dm.delete(0, a.row(0).0.first().map_or(0, |&c| c as usize));
        let rebuilt = dm.merged_csr();
        let x = test_vector::<f64>(256);
        let b = test_batch(256, 8);
        let mut want = vec![0.0; 256];
        Executor::serial().spmv(&rebuilt, &x, &mut want);
        let mut want_c = Dense::zeros(256, 8);
        Executor::serial().spmm_dense(&rebuilt, &b, &mut want_c);
        for (mode, exec) in modes() {
            let mut y = vec![f64::NAN; 256];
            exec.spmv(&dm, &x, &mut y);
            assert_eq!(y, want, "spmv dynamic via {mode}");
            let mut c = Dense::zeros(256, 8);
            c.as_mut_slice().fill(f64::NAN);
            exec.spmm_dense(&dm, &b, &mut c);
            assert_eq!(c, want_c, "spmm_dense dynamic via {mode}");
            let mut y = vec![f64::NAN; 256];
            let report = exec.try_spmv(&dm, &x, &mut y).unwrap();
            assert_eq!(y, want, "try_spmv dynamic via {mode}");
            assert!(!report.degraded());
        }
        // The plan names the dynamic op and format, and (with no
        // calibration rows for it) lands in the threshold tier.
        let plan = Executor::auto().plan_spmv(&dm);
        assert!(!plan.calibrated, "{}", plan.rationale);
        assert_eq!(plan.choice.format, Format::Dynamic);
        assert!(plan.rationale.contains("dyn_spmv"), "{}", plan.rationale);
    }

    #[test]
    fn dynamic_operand_non_finite_overlay_is_rejected() {
        use smash_core::DynamicMatrix;
        let a = generators::uniform(16, 16, 60, 3);
        let mut dm = DynamicMatrix::from_csr(a);
        dm.set(2, 2, f64::NAN);
        let exec = Executor::serial().with_non_finite_policy(NonFinitePolicy::Reject);
        let mut y = vec![0.0; 16];
        let err = exec
            .try_spmv(&dm, &test_vector::<f64>(16), &mut y)
            .unwrap_err();
        assert!(
            matches!(err, SmashError::NonFinite { operand: "A", .. }),
            "{err}"
        );
        // Deletes carry no value, so deleting the bad entry clears the scan.
        let mut dm2 = DynamicMatrix::from_csr(generators::uniform(16, 16, 60, 3));
        dm2.delete(2, 2);
        assert!(exec.try_spmv(&dm2, &test_vector::<f64>(16), &mut y).is_ok());
    }

    #[test]
    fn executor_compact_matches_direct_compaction() {
        use smash_core::DynamicMatrix;
        let a = generators::power_law(128, 128, 20_000, 1.3, 5);
        let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4]).unwrap());
        for (mode, exec) in modes() {
            let mut dm = DynamicMatrix::from_smash(sm.clone());
            dm.set(5, 9, 4.0);
            dm.delete(17, 3);
            let want = SmashMatrix::encode(&dm.merged_csr(), sm.config().clone());
            exec.compact(&mut dm);
            assert!(dm.overlay().is_empty(), "{mode}");
            match dm.base() {
                smash_core::DynamicBase::Smash(got) => assert_eq!(*got, want, "{mode}"),
                other => panic!("expected a SMASH base, got {other:?}"),
            }
        }
    }

    #[test]
    fn smash_spmm_through_executor_matches_native() {
        let a = generators::uniform(40, 48, 300, 3);
        let b = generators::clustered(48, 36, 250, 4, 4);
        let sa = SmashMatrix::encode(&a, SmashConfig::row_major(&[2]).unwrap());
        let sb = SmashMatrix::encode(&b, SmashConfig::col_major(&[2]).unwrap());
        let want = native::spmm_smash(&sa, &sb);
        for (mode, exec) in modes() {
            assert_eq!(
                exec.spmm_smash(&sa, &sb).entries(),
                want.entries(),
                "{mode}"
            );
        }
    }
}
