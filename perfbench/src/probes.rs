//! Per-layer metrics of a traced run. Spans give what the benchmark's own
//! calls can separate (parse, CSR build, encode, per-call kernel time);
//! probes on the workload's own matrix measure the rest (SMASH decode
//! against CSR, fork-join, planning, the dynamic overlay, SpGEMM waste).
//! Every workload reports every metric, so a layer change shows both
//! where it should move and where it should not.

use crate::inputs::Rng;
use crate::trace::Tracer;
use crate::workloads::{product_stats, Input, Workload};
use crate::{median, time_median, Metric, POOL_WORKERS, SMASH_RATIOS};
use smash_core::{DynamicMatrix, SmashConfig};
use smash_kernels::Executor;
use smash_matrix::{Coo, Csr, CsrBuilder, Dense};
use std::hint::black_box;
use std::time::Instant;

/// Per-layer metric names and units, in report order.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("matrix.parse_ms", "ms"),
    ("matrix.parse_mb_per_s", "MB/s"),
    ("matrix.csr_build_ms", "ms"),
    ("kernels.encode_ms", "ms"),
    ("core.operand_bytes", "bytes"),
    ("core.bytes_vs_csr", "ratio"),
    ("kernels.spmv_us", "us"),
    ("core.decode_ns_per_block", "ns"),
    ("core.spmv_vs_csr", "ratio"),
    ("kernels.spmm_dense_us", "us"),
    ("kernels.try_overhead_us", "us"),
    ("kernels.plan_us", "us"),
    ("kernels.plan_hit", "count"),
    ("parallel.forkjoin_us", "us"),
    ("parallel.speedup_2t", "ratio"),
    ("core.overlay_write_us", "us"),
    ("core.overlay_entries", "count"),
    ("core.merged_read_overhead", "ratio"),
    ("core.compact_ms", "ms"),
    ("kernels.spgemm_ms", "ms"),
    ("kernels.spgemm_flops", "count"),
    ("kernels.spgemm_useful_ratio", "ratio"),
    ("graph.mask_ms", "ms"),
    ("graph.iterations", "count"),
    ("kernels.gflops", "GFLOP/s"),
    ("kernels.gb_per_s_computed", "GB/s"),
    ("trace.overhead", "ratio"),
    ("trace.other_share", "ratio"),
];

/// Rows of the fork-join probe operand.
const FORKJOIN_ROWS: usize = 64;
/// Vertices of the SpGEMM probe's leading sub-graph on workloads that do
/// not multiply sparse matrices themselves.
const SPGEMM_PROBE_VERTICES: usize = 2048;
/// Right-hand sides of the spmm_dense probe.
const SPMM_PROBE_RHS: usize = 16;

struct Sink(Vec<Metric>);

impl Sink {
    fn push(&mut self, name: &'static str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("every per-layer metric is listed in PER_LAYER");
        self.0.push(Metric { name, value, unit });
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|m| m.name == name)
    }
}

/// The per-layer metrics of a traced run, except the two `trace.*`
/// metrics `run` adds from the paired solve times.
pub(crate) fn layer_metrics(
    w: &mut dyn Workload,
    setup: &Tracer,
    tr: &Tracer,
    input: &Input,
    iterations: &[f64],
) -> Vec<Metric> {
    let mut m = Sink(Vec::new());
    let own = w.own_metrics(tr);
    let own_value = |name: &str| own.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    let csr = w.csr();
    let serial = Executor::serial();
    let wide = Executor::with_threads(POOL_WORKERS.min(w.exec().threads().max(1)));
    let mut rng = Rng::new(input.seed ^ 0x0980_7BE5);

    // Set-up layers, from the set-up spans.
    let parse_ns = median(&setup.durations("matrix.parse"));
    m.push("matrix.parse_ms", parse_ns / 1e6);
    m.push(
        "matrix.parse_mb_per_s",
        input.text.len() as f64 / 1e6 / (parse_ns / 1e9),
    );
    m.push(
        "matrix.csr_build_ms",
        median(&setup.durations("matrix.csr_build")) / 1e6,
    );

    // Encode and SMASH decode against CSR on the same matrix.
    let config = SmashConfig::row_major(&SMASH_RATIOS).expect("valid SMASH hierarchy");
    let encodes = setup.durations("kernels.encode");
    let encode_ns = if encodes.is_empty() {
        time_median(3, 10, 0.3, || {
            black_box(w.exec().encode(&csr, config.clone()));
        })
    } else {
        median(&encodes)
    };
    m.push("kernels.encode_ms", encode_ns / 1e6);
    let sm = w.exec().encode(&csr, config);
    m.push("core.operand_bytes", w.operand_bytes() as f64);
    m.push(
        "core.bytes_vs_csr",
        w.operand_bytes() as f64 / csr.storage_bytes() as f64,
    );
    let x: Vec<f64> = (0..csr.cols()).map(|i| 1.0 / (1 + i % 13) as f64).collect();
    let mut y = vec![0.0; csr.rows()];
    let spmv_calls = tr.per_call("kernels.spmv");
    let spmv_ns = if spmv_calls.is_empty() {
        let op = w.operand();
        time_median(5, 2000, 0.3, || w.exec().spmv(op, &x, &mut y))
    } else {
        median(&spmv_calls)
    };
    m.push("kernels.spmv_us", spmv_ns / 1e3);
    let (mut csr_s, mut sm_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while csr_s.len() < 5 || (csr_s.len() < 1000 && start.elapsed().as_secs_f64() < 0.6) {
        let t = Instant::now();
        serial.spmv(&csr, &x, &mut y);
        csr_s.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        serial.spmv(&sm, &x, &mut y);
        sm_s.push(t.elapsed().as_nanos() as f64);
    }
    let (csr_ns, sm_ns) = (median(&csr_s), median(&sm_s));
    m.push(
        "core.decode_ns_per_block",
        (sm_ns - csr_ns) / sm.num_blocks().max(1) as f64,
    );
    m.push("core.spmv_vs_csr", csr_ns / sm_ns);

    // Batched multiply, plain against validated.
    let op = w.operand();
    let b = Dense::from_vec(
        csr.cols(),
        SPMM_PROBE_RHS,
        (0..csr.cols() * SPMM_PROBE_RHS)
            .map(|i| 1.0 / (1 + i % 11) as f64)
            .collect(),
    )
    .expect("probe batch has cols × k values");
    let mut c = Dense::zeros(csr.rows(), SPMM_PROBE_RHS);
    let (mut plain, mut tried) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < 3 || (plain.len() < 500 && start.elapsed().as_secs_f64() < 0.5) {
        let t = Instant::now();
        w.exec().spmm_dense(op, &b, &mut c);
        plain.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let ok = w.exec().try_spmm_dense(op, &b, &mut c).is_ok();
        tried.push(t.elapsed().as_nanos() as f64);
        black_box(ok);
    }
    m.push("kernels.spmm_dense_us", median(&plain) / 1e3);
    m.push(
        "kernels.try_overhead_us",
        (median(&tried) - median(&plain)) / 1e3,
    );

    // Planner: cost of a plan, and whether its serial/wide choice matches
    // the faster of the measured serial and 2-worker main-kernel calls.
    let plan_ns = time_median(20, 5000, 0.2, || {
        black_box(w.main_plan());
    });
    m.push("kernels.plan_us", plan_ns / 1e3);
    let plan_wide = w.main_plan().choice.parallel();
    let (mut ser, mut par) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while ser.len() < 3 || (ser.len() < 200 && start.elapsed().as_secs_f64() < 0.6) {
        let t = Instant::now();
        w.main_op(&serial);
        ser.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        w.main_op(&wide);
        par.push(t.elapsed().as_nanos() as f64);
    }
    let (ser_ns, par_ns) = (median(&ser), median(&par));
    m.push(
        "kernels.plan_hit",
        f64::from(plan_wide == (par_ns < ser_ns)),
    );

    // Pool fork-join on a tiny operand: the 2-worker call minus serial.
    let head = leading_rows(&csr, FORKJOIN_ROWS);
    let (xh, mut yh) = (vec![1.0; head.cols()], vec![0.0; head.rows()]);
    let (mut s1, mut s2) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while s1.len() < 50 || (s1.len() < 20_000 && start.elapsed().as_secs_f64() < 0.3) {
        let t = Instant::now();
        serial.spmv(&head, &xh, &mut yh);
        s1.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        wide.spmv(&head, &xh, &mut yh);
        s2.push(t.elapsed().as_nanos() as f64);
    }
    m.push("parallel.forkjoin_us", (median(&s2) - median(&s1)) / 1e3);
    m.push("parallel.speedup_2t", ser_ns / par_ns);

    // Dynamic overlay: writes, merged reads, compaction.
    let writes = own_value("core.overlay_entries").map_or(csr.nnz() / 100, |e| e as usize);
    let mut dm = DynamicMatrix::from_csr(csr.clone());
    let cells: Vec<(usize, usize)> = (0..writes.max(16))
        .map(|_| (rng.below(csr.rows()), rng.below(csr.cols())))
        .collect();
    let t = Instant::now();
    for &(r, c) in &cells {
        dm.set(r, c, 0.5);
    }
    let write_ns = t.elapsed().as_nanos() as f64 / cells.len() as f64;
    let merged = dm.merged_csr();
    let (mut dyn_s, mut flat_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while dyn_s.len() < 5 || (dyn_s.len() < 1000 && start.elapsed().as_secs_f64() < 0.4) {
        let t = Instant::now();
        w.exec().spmv(&dm, &x, &mut y);
        dyn_s.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        w.exec().spmv(&merged, &x, &mut y);
        flat_s.push(t.elapsed().as_nanos() as f64);
    }
    let compact_ns = time_median(3, 3, 10.0, || {
        let mut copy = dm.clone();
        w.exec().compact(&mut copy);
        black_box(copy);
    });
    m.push(
        "core.overlay_write_us",
        own_value("core.overlay_write_us").unwrap_or(write_ns / 1e3),
    );
    m.push(
        "core.overlay_entries",
        own_value("core.overlay_entries").unwrap_or(dm.overlay().len() as f64),
    );
    m.push(
        "core.merged_read_overhead",
        median(&dyn_s) / median(&flat_s),
    );
    m.push(
        "core.compact_ms",
        own_value("core.compact_ms").unwrap_or(compact_ns / 1e6),
    );

    // SpGEMM and the triangle mask.
    let own_product = own_value("kernels.spgemm_flops").is_some();
    let adj = if own_product {
        csr.clone()
    } else {
        symmetric_leading(&csr, SPGEMM_PROBE_VERTICES)
    };
    let spgemm_ns = time_median(3, 20, 0.5, || {
        black_box(w.exec().spgemm(&adj, &adj));
    });
    let count_ms = own_value("graph.triangle_count_ms").unwrap_or_else(|| {
        time_median(3, 20, 0.5, || {
            black_box(smash_graph::triangles::triangle_count(w.exec(), &adj));
        }) / 1e6
    });
    let (flops, useful) = match (
        own_value("kernels.spgemm_flops"),
        own_value("kernels.spgemm_useful_ratio"),
    ) {
        (Some(f), Some(u)) => (f, u),
        _ => {
            let c = serial.spgemm(&adj, &adj);
            let (f, hits) = product_stats(&adj, &c);
            (f as f64, hits as f64 / c.nnz().max(1) as f64)
        }
    };
    m.push("kernels.spgemm_ms", spgemm_ns / 1e6);
    m.push("kernels.spgemm_flops", flops);
    m.push("kernels.spgemm_useful_ratio", useful);
    m.push("graph.mask_ms", count_ms - spgemm_ns / 1e6);

    // Solver iterations and the main kernel's arithmetic rate.
    m.push("graph.iterations", median(iterations));
    let main = tr.per_call(w.main_span());
    let main_ns = if main.is_empty() {
        ser_ns
    } else {
        median(&main)
    };
    let (work_flops, bytes) = w.main_cost();
    m.push("kernels.gflops", work_flops / main_ns);
    m.push("kernels.gb_per_s_computed", bytes / main_ns);

    debug_assert!(PER_LAYER
        .iter()
        .take(PER_LAYER.len() - 2)
        .all(|(n, _)| m.has(n)));
    m.0
}

/// The first `rows` rows of `a` (all columns).
fn leading_rows(a: &Csr<f64>, rows: usize) -> Csr<f64> {
    let rows = rows.min(a.rows());
    let mut b = CsrBuilder::with_capacity(a.cols(), rows, a.row_ptr()[rows] as usize);
    for i in 0..rows {
        let (cols, vals) = a.row(i);
        b.push_row(cols, vals);
    }
    b.finish()
}

/// The symmetric 0/1 pattern of `a`'s leading `k × k` block, without the
/// diagonal: an undirected adjacency for the SpGEMM probe.
fn symmetric_leading(a: &Csr<f64>, k: usize) -> Csr<f64> {
    let k = k.min(a.rows()).min(a.cols());
    let mut coo = Coo::new(k, k);
    for i in 0..k {
        for &j in a.row(i).0 {
            let j = j as usize;
            if j < k && j != i {
                coo.push(i, j, 1.0);
                coo.push(j, i, 1.0);
            }
        }
    }
    coo.compress();
    let summed = Csr::from_coo(&coo);
    // Mirrored pairs were summed to 2; clamp back to the 0/1 pattern.
    let mut b = CsrBuilder::with_capacity(k, k, summed.nnz());
    let ones = vec![1.0; k];
    for i in 0..k {
        let cols = summed.row(i).0;
        b.push_row(cols, &ones[..cols.len()]);
    }
    b.finish()
}
