//! Tables 2–4: the simulated system configuration, the matrix suite and
//! the graph inputs — printed with our generated counterparts next to the
//! paper's numbers.

use crate::config::ExpConfig;
use crate::report::{r2, Table};
use smash_graph::paper_graphs;
use smash_matrix::locality::locality_of_sparsity;
use smash_matrix::suite::generate_suite;

/// Table 2: the simulated system.
pub fn table02(cfg: &ExpConfig) -> Vec<Table> {
    let sys = cfg.system_spmv();
    let full = smash_sim::SystemConfig::paper_table2();
    let mut t = Table::new(
        "Table 2: simulated system configuration",
        &["component", "paper", "this run (scaled)"],
    );
    t.push_row(vec![
        "CPU".into(),
        format!(
            "{} GHz, {}-wide OOO, {}-entry ROB, {}/{} LQ/SQ",
            full.core.freq_ghz,
            full.core.issue_width,
            full.core.rob_entries,
            full.core.load_queue,
            full.core.store_queue
        ),
        "same".into(),
    ]);
    for (name, a, b) in [
        ("L1", &full.l1, &sys.l1),
        ("L2", &full.l2, &sys.l2),
        ("L3", &full.l3, &sys.l3),
    ] {
        t.push_row(vec![
            name.into(),
            format!(
                "{} KB, {}-way, {}-cycle, {} B line, {} MSHRs",
                a.size_bytes / 1024,
                a.ways,
                a.latency,
                a.line_bytes,
                a.mshrs
            ),
            format!("{} KB (scaled 1/{})", b.size_bytes / 1024, cfg.scale_spmv),
        ]);
    }
    t.push_row(vec![
        "DRAM".into(),
        format!(
            "1 channel, {} banks, open row ({} / {} cycles)",
            full.dram.banks, full.dram.row_hit_latency, full.dram.row_miss_latency
        ),
        "same".into(),
    ]);
    vec![t]
}

/// Table 3: the matrix suite, paper stats vs generated stats.
pub fn table03(cfg: &ExpConfig) -> Vec<Table> {
    let mut t = Table::new(
        "Table 3: evaluated sparse matrices (paper vs generated)",
        &[
            "matrix",
            "rows (paper)",
            "nnz (paper)",
            "sparsity% (paper)",
            "rows (gen)",
            "nnz (gen)",
            "sparsity% (gen)",
            "locality@8",
        ],
    );
    for (spec, m) in generate_suite(cfg.scale_spmv, cfg.seed) {
        let gen_sparsity = 100.0 * m.nnz() as f64 / (m.rows() as f64 * m.cols() as f64);
        t.push_row(vec![
            format!("{}: {}", spec.label(), spec.name),
            format!("{}", spec.rows),
            format!("{}", spec.nnz),
            r2(spec.sparsity_percent()),
            format!("{}", m.rows()),
            format!("{}", m.nnz()),
            r2(gen_sparsity),
            r2(locality_of_sparsity(&m, 8)),
        ]);
    }
    t.note(format!(
        "generated at linear scale 1/{} with seeded synthetic structure (smash_matrix::suite)",
        cfg.scale_spmv
    ));
    vec![t]
}

/// Table 4: the graph inputs, paper stats vs generated stats.
pub fn table04(cfg: &ExpConfig) -> Vec<Table> {
    let mut t = Table::new(
        "Table 4: input graphs (paper vs generated)",
        &[
            "graph",
            "vertices (paper)",
            "edges (paper)",
            "vertices (gen)",
            "edges (gen)",
            "avg degree (gen)",
        ],
    );
    for spec in paper_graphs() {
        let g = spec.generate(cfg.scale_graph, cfg.seed);
        t.push_row(vec![
            format!("{}: {}", spec.label(), spec.name),
            format!("{}", spec.vertices),
            format!("{}", spec.edges),
            format!("{}", g.vertices()),
            format!("{}", g.edges()),
            r2(g.edges() as f64 / g.vertices() as f64),
        ]);
    }
    t.note(format!("generated at linear scale 1/{}", cfg.scale_graph));
    vec![t]
}
