//! Regenerates every table and figure in one run. Flags: --fast,
//! --scale-spmv N, --scale-spmm N, --scale-graph N, --seed N.

use smash_experiments::{figs, print_tables, ExpConfig};

fn main() {
    let cfg = ExpConfig::from_args();
    println!("# SMASH reproduction — full experiment run");
    println!(
        "config: scale spmv 1/{}, spmm 1/{}, graph 1/{}, seed {}, fast {}\n",
        cfg.scale_spmv, cfg.scale_spmm, cfg.scale_graph, cfg.seed, cfg.fast
    );
    print_tables(&figs::tables::table02(&cfg));
    print_tables(&figs::tables::table03(&cfg));
    print_tables(&figs::tables::table04(&cfg));
    print_tables(&figs::fig03::run(&cfg));
    println!("{}", figs::fig03::indexing_breakdown(&cfg));
    print_tables(&figs::fig09::run(&cfg));
    print_tables(&figs::fig10_13::run_spmv(&cfg));
    print_tables(&figs::fig10_13::run_spmm(&cfg));
    print_tables(&figs::fig14_15::run(&cfg));
    print_tables(&figs::fig16_17::run(&cfg));
    print_tables(&figs::fig18::run(&cfg));
    print_tables(&figs::fig19::run(&cfg));
    print_tables(&figs::fig20::run(&cfg));
    print_tables(&figs::area::run(&cfg));
}
