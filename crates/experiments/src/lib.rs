//! Experiment harness that regenerates every table and figure of the SMASH
//! paper's evaluation.
//!
//! Each figure lives in [`figs`] as a `run(&ExpConfig) -> Vec<Table>`
//! function; the binaries in `src/bin/` are thin wrappers (one per figure
//! or table), and `run_all` regenerates everything in one run.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod figs;
pub mod paper_ref;
pub mod report;

pub use config::ExpConfig;
pub use report::Table;

/// Prints a set of tables to stdout.
pub fn print_tables(tables: &[Table]) {
    for t in tables {
        println!("{t}");
    }
}
