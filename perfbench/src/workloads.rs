//! The four workloads. Each one is set up from Matrix Market text, solves
//! in a closed loop through the executor surface, and checks its outputs
//! against a reference computed outside the timed region.

use crate::inputs::{self, Rng};
use crate::trace::Tracer;
use crate::{Kind, Scale, SMASH_RATIOS};
use smash_core::{DynamicMatrix, SmashConfig, SmashMatrix};
use smash_kernels::{Executor, NonFinitePolicy, Plan, SpmvOperand};
use smash_matrix::{market, Csr, Dense, Scalar};
use std::hint::black_box;
use std::time::Instant;

/// PageRank damping factor and L1 convergence tolerance.
const DAMPING: f64 = 0.85;
const TOLERANCE: f64 = 1e-8;
const MAX_ITERATIONS: usize = 1000;

/// Personalized-PageRank batch width and fixed iteration count.
const PPR_QUERIES: usize = 16;
const PPR_ITERATIONS: usize = 20;

/// Edges inserted per live-graph solve, and solves between compactions
/// (even, so compactions land on traced solves of a traced run).
const LIVE_BATCH: usize = 16;
const LIVE_COMPACT_EVERY: u32 = 8;

/// Every n-th solve of the sampled workloads is checked.
const CHECK_EVERY: u32 = 4;

/// Matrix Market text for one workload and seed.
#[derive(Debug, Clone)]
pub struct Input {
    pub kind: Kind,
    pub seed: u64,
    pub text: String,
}

impl Input {
    pub fn generate(kind: Kind, seed: u64, scale: Scale) -> Input {
        let full = scale == Scale::Full;
        let mut rng = Rng::new(seed ^ 0xA5A5_0000 ^ kind as u64);
        let text = match kind {
            Kind::PagerankSmash => {
                let n = if full { 16_384 } else { 512 };
                inputs::transition_market(&inputs::blocky(n, 2, 8, &mut rng))
            }
            Kind::PprServe => {
                let (scale, draws) = if full { (12, 64_000) } else { (7, 1_500) };
                inputs::transition_market(&inputs::rmat(scale, draws, &mut rng))
            }
            Kind::LiveGraph => {
                let side = if full { 128 } else { 16 };
                inputs::transition_market(&inputs::road(side, &mut rng))
            }
            Kind::Triangles => {
                let (scale, draws) = if full { (12, 32_000) } else { (7, 800) };
                inputs::symmetric_pattern_market(&inputs::rmat(scale, draws, &mut rng)).0
            }
        };
        Input { kind, seed, text }
    }
}

/// One set-up workload, ready to solve.
pub(crate) trait Workload {
    /// Computes the check references (untimed).
    fn prepare_reference(&mut self);
    /// One solve; returns its iteration count, or the error a call returned.
    fn solve(&mut self, tr: &mut Tracer) -> Result<usize, String>;
    /// Checks the last solve when it is sampled (`None`: not checked).
    fn check(&mut self, id: u32) -> Option<bool>;
    /// Checks the last solve if `check` skipped it.
    fn final_check(&mut self) -> Option<bool>;
    /// What the checks compare against, for the run descriptor.
    fn reference_descriptor(&self) -> Vec<(&'static str, String)>;
    /// Median time of one reference computation, in ms.
    fn reference_ms(&self) -> f64;

    /// The workload's matrix in CSR form (merged view for a dynamic one).
    fn csr(&self) -> Csr<f64>;
    /// The operand the solves run over.
    fn operand(&self) -> SpmvOperand<'_, f64>;
    /// Bytes the operand stores.
    fn operand_bytes(&self) -> usize;
    /// The executor the solves use.
    fn exec(&self) -> &Executor;
    /// Span name of the solve's main kernel call.
    fn main_span(&self) -> &'static str;
    /// One call of the solve's main kernel on `exec`.
    fn main_op(&mut self, exec: &Executor);
    /// The plan the solve's executor makes for its main kernel.
    fn main_plan(&self) -> Plan;
    /// Flops and computed bytes (from array sizes) of one main-kernel call.
    fn main_cost(&self) -> (f64, f64);
    /// Layer metrics this workload measures itself in its solve loop.
    fn own_metrics(&self, _tr: &Tracer) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn shape_json(&self) -> String {
        let a = self.csr();
        format!(
            "{{\"rows\": {}, \"cols\": {}, \"nnz\": {}}}",
            a.rows(),
            a.cols(),
            a.nnz()
        )
    }
}

/// Parse and CSR build, the set-up steps every workload shares.
fn load(input: &Input, tr: &mut Tracer) -> Csr<f64> {
    let coo = tr.span("matrix.parse", "smash-matrix", |_| {
        market::read_coo::<f64, _>(input.text.as_bytes())
    });
    let coo = coo.expect("generated Matrix Market text parses");
    tr.span("matrix.csr_build", "smash-matrix", |_| Csr::from_coo(&coo))
}

fn smash_config() -> SmashConfig {
    SmashConfig::row_major(&SMASH_RATIOS).expect("the benchmark's SMASH hierarchy is valid")
}

pub(crate) fn setup(input: &Input, tr: &mut Tracer) -> Box<dyn Workload> {
    let exec = |tr: &mut Tracer, policy: NonFinitePolicy| {
        tr.span("kernels.executor", "smash-kernels", |_| {
            Executor::auto().with_non_finite_policy(policy)
        })
    };
    let rng = Rng::new(input.seed ^ 0x0050_1BE5);
    match input.kind {
        Kind::PagerankSmash => {
            let exec = exec(tr, NonFinitePolicy::default());
            let csr = load(input, tr);
            let sm = tr.span("kernels.encode", "smash-kernels", |_| {
                exec.encode(&csr, smash_config())
            });
            let n = csr.rows();
            Box::new(PagerankSmash {
                exec,
                csr,
                sm,
                ranks: vec![0.0; n],
                reference: Vec::new(),
                reference_ms: f64::NAN,
                reference_iterations: 0,
            })
        }
        Kind::PprServe => {
            let exec = exec(tr, NonFinitePolicy::Reject);
            let csr = load(input, tr);
            Box::new(PprServe {
                exec,
                serial: Executor::serial().with_non_finite_policy(NonFinitePolicy::Reject),
                csr,
                rng,
                seeds: Vec::new(),
                result: Dense::zeros(0, 0),
                last_checked: false,
                reference_ms: Vec::new(),
            })
        }
        Kind::LiveGraph => {
            let exec = exec(tr, NonFinitePolicy::default());
            let csr = load(input, tr);
            // Out-neighbour lists: row u of Pᵀ lists the targets of u.
            let out = tr.span("matrix.transpose", "smash-matrix", |_| csr.transpose());
            let out: Vec<Vec<u32>> = (0..out.rows()).map(|u| out.row(u).0.to_vec()).collect();
            let n = csr.rows();
            let dm = tr.span("core.dynamic_new", "smash-core", |_| {
                DynamicMatrix::from_csr(csr)
            });
            Box::new(LiveGraph {
                exec,
                dm,
                out,
                rng,
                ranks: vec![1.0 / n as f64; n],
                start: Vec::new(),
                last_iterations: 0,
                solves: 0,
                overlay_entries: Vec::new(),
                last_checked: false,
                reference_ms: Vec::new(),
            })
        }
        Kind::Triangles => {
            let exec = exec(tr, NonFinitePolicy::default());
            let adj = load(input, tr);
            Box::new(Triangles {
                exec,
                adj,
                count: 0,
                reference: 0,
                reference_ms: f64::NAN,
                flops: 0,
                product_nnz: 0,
                useful: 0,
                product_bytes: 0,
            })
        }
    }
}

/// Power iteration to L1 tolerance: `r ← d·(A r) + (1 − d)/n`, one
/// executor SpMV per iteration. `r` holds the start vector on entry and
/// the ranks on exit.
fn power_solve(exec: &Executor, a: SpmvOperand<'_, f64>, r: &mut [f64], tr: &mut Tracer) -> usize {
    let n = r.len();
    let teleport = (1.0 - DAMPING) / n as f64;
    let mut y = vec![0.0; n];
    let mut iterations = 0;
    while iterations < MAX_ITERATIONS {
        tr.span("kernels.spmv", "smash-kernels", |_| exec.spmv(a, r, &mut y));
        iterations += 1;
        let mut residual = 0.0;
        for (ri, &yi) in r.iter_mut().zip(&y) {
            let next = DAMPING * yi + teleport;
            residual += (next - *ri).abs();
            *ri = next;
        }
        if residual < TOLERANCE {
            break;
        }
    }
    iterations
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn probe_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i % 7) as f64 / 7.0).collect()
}

// ---------------------------------------------------------------------------

struct PagerankSmash {
    exec: Executor,
    csr: Csr<f64>,
    sm: SmashMatrix<f64>,
    ranks: Vec<f64>,
    reference: Vec<f64>,
    reference_ms: f64,
    reference_iterations: usize,
}

impl Workload for PagerankSmash {
    fn prepare_reference(&mut self) {
        let n = self.csr.rows();
        let mut r = vec![1.0 / n as f64; n];
        let t = Instant::now();
        self.reference_iterations = power_solve(
            &Executor::serial(),
            (&self.csr).into(),
            &mut r,
            &mut Tracer::new(false),
        );
        self.reference_ms = ms_since(t);
        self.reference = r;
    }

    fn solve(&mut self, tr: &mut Tracer) -> Result<usize, String> {
        let n = self.sm.rows();
        self.ranks.clear();
        self.ranks.resize(n, 1.0 / n as f64);
        Ok(power_solve(
            &self.exec,
            (&self.sm).into(),
            &mut self.ranks,
            tr,
        ))
    }

    fn check(&mut self, _id: u32) -> Option<bool> {
        Some(
            self.ranks.len() == self.reference.len()
                && self
                    .ranks
                    .iter()
                    .zip(&self.reference)
                    .all(|(a, b)| a.approx_eq_default(*b)),
        )
    }

    fn final_check(&mut self) -> Option<bool> {
        None
    }

    fn reference_descriptor(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "reference",
                crate::json_str("same PageRank over the CSR form, serial"),
            ),
            (
                "reference_iterations",
                self.reference_iterations.to_string(),
            ),
        ]
    }

    fn reference_ms(&self) -> f64 {
        self.reference_ms
    }

    fn csr(&self) -> Csr<f64> {
        self.csr.clone()
    }

    fn operand(&self) -> SpmvOperand<'_, f64> {
        (&self.sm).into()
    }

    fn operand_bytes(&self) -> usize {
        self.sm.storage_bytes()
    }

    fn exec(&self) -> &Executor {
        &self.exec
    }

    fn main_span(&self) -> &'static str {
        "kernels.spmv"
    }

    fn main_op(&mut self, exec: &Executor) {
        let x = probe_vector(self.sm.cols());
        let mut y = vec![0.0; self.sm.rows()];
        exec.spmv(&self.sm, &x, &mut y);
        black_box(&y);
    }

    fn main_plan(&self) -> Plan {
        self.exec.plan_spmv(&self.sm)
    }

    fn main_cost(&self) -> (f64, f64) {
        let vectors = 8 * (self.sm.rows() + self.sm.cols());
        (
            2.0 * self.sm.nnz() as f64,
            (self.sm.storage_bytes() + vectors) as f64,
        )
    }
}

// ---------------------------------------------------------------------------

struct PprServe {
    exec: Executor,
    serial: Executor,
    csr: Csr<f64>,
    rng: Rng,
    seeds: Vec<usize>,
    result: Dense<f64>,
    last_checked: bool,
    reference_ms: Vec<f64>,
}

impl PprServe {
    /// `R ← α·(P R) + (1 − α)·E` for a fixed number of iterations, one
    /// validated `try_spmm_dense` per iteration.
    fn batch(
        exec: &Executor,
        p: &Csr<f64>,
        seeds: &[usize],
        tr: &mut Tracer,
    ) -> Result<Dense<f64>, String> {
        let n = p.rows();
        let k = seeds.len();
        let mut e = Dense::zeros(n, k);
        for (q, &s) in seeds.iter().enumerate() {
            e.set(s, q, 1.0);
        }
        let mut r = e.clone();
        let mut c = Dense::zeros(n, k);
        for _ in 0..PPR_ITERATIONS {
            tr.span("kernels.try_spmm_dense", "smash-kernels", |_| {
                exec.try_spmm_dense(p, &r, &mut c)
            })
            .map_err(|err| err.to_string())?;
            for ((ri, &ci), &ei) in r
                .as_mut_slice()
                .iter_mut()
                .zip(c.as_slice())
                .zip(e.as_slice())
            {
                *ri = DAMPING * ci + (1.0 - DAMPING) * ei;
            }
        }
        Ok(r)
    }

    fn check_now(&mut self) -> bool {
        let t = Instant::now();
        let want = Self::batch(
            &self.serial,
            &self.csr,
            &self.seeds,
            &mut Tracer::new(false),
        );
        self.reference_ms.push(ms_since(t));
        self.last_checked = true;
        want.is_ok_and(|w| w == self.result)
    }
}

impl Workload for PprServe {
    fn prepare_reference(&mut self) {}

    fn solve(&mut self, tr: &mut Tracer) -> Result<usize, String> {
        // Fresh, distinct seed vertices for every batch.
        let n = self.csr.rows();
        self.seeds.clear();
        while self.seeds.len() < PPR_QUERIES.min(n) {
            let s = self.rng.below(n);
            if !self.seeds.contains(&s) {
                self.seeds.push(s);
            }
        }
        self.last_checked = false;
        self.result = Self::batch(&self.exec, &self.csr, &self.seeds, tr)?;
        Ok(PPR_ITERATIONS)
    }

    fn check(&mut self, id: u32) -> Option<bool> {
        id.is_multiple_of(CHECK_EVERY).then(|| self.check_now())
    }

    fn final_check(&mut self) -> Option<bool> {
        (!self.last_checked).then(|| self.check_now())
    }

    fn reference_descriptor(&self) -> Vec<(&'static str, String)> {
        vec![(
            "reference",
            crate::json_str("same batch on Executor::serial(), bit-identical"),
        )]
    }

    fn reference_ms(&self) -> f64 {
        crate::median(&self.reference_ms)
    }

    fn csr(&self) -> Csr<f64> {
        self.csr.clone()
    }

    fn operand(&self) -> SpmvOperand<'_, f64> {
        (&self.csr).into()
    }

    fn operand_bytes(&self) -> usize {
        self.csr.storage_bytes()
    }

    fn exec(&self) -> &Executor {
        &self.exec
    }

    fn main_span(&self) -> &'static str {
        "kernels.try_spmm_dense"
    }

    fn main_op(&mut self, exec: &Executor) {
        let n = self.csr.rows();
        let b = Dense::from_vec(n, PPR_QUERIES, probe_vector(n * PPR_QUERIES))
            .expect("probe batch has n × k values");
        let mut c = Dense::zeros(n, PPR_QUERIES);
        let report = exec.try_spmm_dense(&self.csr, &b, &mut c);
        black_box((&report.is_ok(), &c));
    }

    fn main_plan(&self) -> Plan {
        self.exec.plan_spmm_dense(&self.csr, PPR_QUERIES)
    }

    fn main_cost(&self) -> (f64, f64) {
        let k = PPR_QUERIES;
        let dense = 8 * k * (self.csr.rows() + self.csr.cols());
        (
            2.0 * (self.csr.nnz() * k) as f64,
            (self.csr.storage_bytes() + dense) as f64,
        )
    }
}

// ---------------------------------------------------------------------------

struct LiveGraph {
    exec: Executor,
    dm: DynamicMatrix<f64>,
    out: Vec<Vec<u32>>,
    rng: Rng,
    /// Warm-start vector, carried from solve to solve.
    ranks: Vec<f64>,
    /// The last solve's start vector (for its check).
    start: Vec<f64>,
    last_iterations: usize,
    solves: u32,
    overlay_entries: Vec<f64>,
    last_checked: bool,
    reference_ms: Vec<f64>,
}

impl LiveGraph {
    /// Picks a batch of new edges and returns the overlay writes that
    /// insert them: every out-edge of a source whose degree changed is
    /// re-weighted to `1/outdeg`.
    fn next_writes(&mut self) -> Vec<(usize, usize, f64)> {
        let n = self.out.len();
        let mut sources = Vec::new();
        let mut added = 0;
        while added < LIVE_BATCH {
            let (u, v) = (self.rng.below(n), self.rng.below(n) as u32);
            if u as u32 == v || self.out[u].contains(&v) {
                continue;
            }
            self.out[u].push(v);
            sources.push(u);
            added += 1;
        }
        sources.sort_unstable();
        sources.dedup();
        let mut writes = Vec::new();
        for u in sources {
            let w = 1.0 / self.out[u].len() as f64;
            writes.extend(self.out[u].iter().map(|&v| (v as usize, u, w)));
        }
        writes
    }

    fn check_now(&mut self) -> bool {
        let merged = self.dm.merged_csr();
        let mut r = self.start.clone();
        let t = Instant::now();
        let iterations = power_solve(
            &self.exec,
            (&merged).into(),
            &mut r,
            &mut Tracer::new(false),
        );
        self.reference_ms.push(ms_since(t));
        self.last_checked = true;
        iterations == self.last_iterations && r == self.ranks
    }
}

impl Workload for LiveGraph {
    fn prepare_reference(&mut self) {}

    fn solve(&mut self, tr: &mut Tracer) -> Result<usize, String> {
        let writes = self.next_writes();
        let dm = &mut self.dm;
        tr.span_n(
            "core.overlay_write",
            "smash-core",
            writes.len() as u32,
            |_| {
                for &(r, c, v) in &writes {
                    dm.set(r, c, v);
                }
            },
        );
        self.overlay_entries.push(self.dm.overlay().len() as f64);
        self.start.clone_from(&self.ranks);
        self.last_iterations = power_solve(&self.exec, (&self.dm).into(), &mut self.ranks, tr);
        self.last_checked = false;
        self.solves += 1;
        if self.solves.is_multiple_of(LIVE_COMPACT_EVERY) {
            // Compaction does not change the merged view, so the check of
            // this solve still sees the matrix it solved over.
            let (exec, dm) = (&self.exec, &mut self.dm);
            tr.span("kernels.compact", "smash-kernels", |_| exec.compact(dm));
        }
        Ok(self.last_iterations)
    }

    fn check(&mut self, id: u32) -> Option<bool> {
        id.is_multiple_of(CHECK_EVERY).then(|| self.check_now())
    }

    fn final_check(&mut self) -> Option<bool> {
        (!self.last_checked).then(|| self.check_now())
    }

    fn reference_descriptor(&self) -> Vec<(&'static str, String)> {
        vec![(
            "reference",
            crate::json_str("same warm-started solve over merged_csr(), bit-identical"),
        )]
    }

    fn reference_ms(&self) -> f64 {
        crate::median(&self.reference_ms)
    }

    fn csr(&self) -> Csr<f64> {
        self.dm.merged_csr()
    }

    fn operand(&self) -> SpmvOperand<'_, f64> {
        (&self.dm).into()
    }

    fn operand_bytes(&self) -> usize {
        let base = match self.dm.base() {
            smash_core::DynamicBase::Csr(a) => a.storage_bytes(),
            smash_core::DynamicBase::Smash(a) => a.storage_bytes(),
        };
        // Overlay entries counted as one column index plus one value.
        base + self.dm.overlay().len() * 12
    }

    fn exec(&self) -> &Executor {
        &self.exec
    }

    fn main_span(&self) -> &'static str {
        "kernels.spmv"
    }

    fn main_op(&mut self, exec: &Executor) {
        let x = probe_vector(self.dm.cols());
        let mut y = vec![0.0; self.dm.rows()];
        exec.spmv(&self.dm, &x, &mut y);
        black_box(&y);
    }

    fn main_plan(&self) -> Plan {
        self.exec.plan_spmv(&self.dm)
    }

    fn main_cost(&self) -> (f64, f64) {
        let vectors = 8 * (self.dm.rows() + self.dm.cols());
        (
            2.0 * self.dm.nnz() as f64,
            (self.operand_bytes() + vectors) as f64,
        )
    }

    fn own_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let mut m = Vec::new();
        let writes = tr.per_call("core.overlay_write");
        if !writes.is_empty() {
            m.push(("core.overlay_write_us", crate::median(&writes) / 1e3));
            m.push(("core.overlay_entries", crate::median(&self.overlay_entries)));
        }
        let compactions = tr.durations("kernels.compact");
        if !compactions.is_empty() {
            m.push(("core.compact_ms", crate::median(&compactions) / 1e6));
        }
        m
    }
}

// ---------------------------------------------------------------------------

struct Triangles {
    exec: Executor,
    adj: Csr<f64>,
    count: u64,
    reference: u64,
    reference_ms: f64,
    flops: u64,
    product_nnz: usize,
    useful: usize,
    product_bytes: usize,
}

/// Triangles of a symmetric 0/1 adjacency by sorted-list intersection:
/// for every edge `u < v`, the common neighbours `w > v`.
pub(crate) fn intersection_count(adj: &Csr<f64>) -> u64 {
    let mut total = 0u64;
    for u in 0..adj.rows() {
        let nu = adj.row(u).0;
        for &v in nu.iter().filter(|&&v| v as usize > u) {
            let nv = adj.row(v as usize).0;
            let (mut i, mut j) = (0, 0);
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        total += u64::from(nu[i] > v);
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    total
}

/// Gustavson flop count of `A·A` and, for the product `c`, how many of its
/// entries land on an edge of `A`.
pub(crate) fn product_stats(a: &Csr<f64>, c: &Csr<f64>) -> (u64, usize) {
    let flops = (0..a.rows())
        .map(|i| {
            a.row(i)
                .0
                .iter()
                .map(|&k| a.row_nnz(k as usize) as u64)
                .sum::<u64>()
        })
        .sum();
    let mut useful = 0;
    for u in 0..a.rows() {
        let (edges, paths) = (a.row(u).0, c.row(u).0);
        let (mut p, mut q) = (0, 0);
        while p < edges.len() && q < paths.len() {
            match edges[p].cmp(&paths[q]) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    useful += 1;
                    p += 1;
                    q += 1;
                }
            }
        }
    }
    (flops, useful)
}

impl Workload for Triangles {
    fn prepare_reference(&mut self) {
        let t = Instant::now();
        self.reference = intersection_count(&self.adj);
        self.reference_ms = ms_since(t);
        let c = Executor::serial().spgemm(&self.adj, &self.adj);
        let (flops, useful) = product_stats(&self.adj, &c);
        self.flops = flops;
        self.useful = useful;
        self.product_nnz = c.nnz();
        self.product_bytes = c.storage_bytes();
    }

    fn solve(&mut self, tr: &mut Tracer) -> Result<usize, String> {
        let (exec, adj) = (&self.exec, &self.adj);
        self.count = tr.span("graph.triangle_count", "smash-graph", |_| {
            smash_graph::triangles::triangle_count(exec, adj)
        });
        Ok(1)
    }

    fn check(&mut self, _id: u32) -> Option<bool> {
        Some(self.count == self.reference)
    }

    fn final_check(&mut self) -> Option<bool> {
        None
    }

    fn reference_descriptor(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "reference",
                crate::json_str("sorted-adjacency intersection count"),
            ),
            ("triangles", self.reference.to_string()),
        ]
    }

    fn reference_ms(&self) -> f64 {
        self.reference_ms
    }

    fn csr(&self) -> Csr<f64> {
        self.adj.clone()
    }

    fn operand(&self) -> SpmvOperand<'_, f64> {
        (&self.adj).into()
    }

    fn operand_bytes(&self) -> usize {
        self.adj.storage_bytes()
    }

    fn exec(&self) -> &Executor {
        &self.exec
    }

    fn main_span(&self) -> &'static str {
        "graph.triangle_count"
    }

    fn main_op(&mut self, exec: &Executor) {
        black_box(exec.spgemm(&self.adj, &self.adj));
    }

    fn main_plan(&self) -> Plan {
        self.exec.plan_spgemm(&self.adj, &self.adj)
    }

    fn main_cost(&self) -> (f64, f64) {
        (
            2.0 * self.flops as f64,
            (2 * self.adj.storage_bytes() + self.product_bytes) as f64,
        )
    }

    fn own_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let mut m = vec![
            ("kernels.spgemm_flops", self.flops as f64),
            (
                "kernels.spgemm_useful_ratio",
                self.useful as f64 / self.product_nnz.max(1) as f64,
            ),
        ];
        let counts = tr.durations("graph.triangle_count");
        if !counts.is_empty() {
            m.push(("graph.triangle_count_ms", crate::median(&counts) / 1e6));
        }
        m
    }
}
