//! Experiment configuration and a small argument parser shared by all
//! binaries.

use smash_sim::SystemConfig;

/// Shared knobs of the experiment binaries.
///
/// The defaults follow the scaled-working-set methodology: matrices
/// shrink linearly by `scale` (non-zeros by `scale²`, preserving Table 3's
/// sparsity) and the cache hierarchy shrinks by the same factor, preserving
/// the paper's working-set : cache ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpConfig {
    /// Linear matrix scale for SpMV/SpAdd experiments.
    pub scale_spmv: usize,
    /// Linear matrix scale for SpMM experiments (inner-product SpMM is
    /// O(n²) dot products, so it runs smaller).
    pub scale_spmm: usize,
    /// Linear scale for the Table 4 graphs.
    pub scale_graph: usize,
    /// RNG seed for all generators.
    pub seed: u64,
    /// Fast mode: a 5-matrix subset and fewer sweep points.
    pub fast: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale_spmv: 16,
            scale_spmm: 64,
            scale_graph: 64,
            seed: 42,
            fast: false,
        }
    }
}

impl ExpConfig {
    /// Parses `--scale-spmv N`, `--scale-spmm N`, `--scale-graph N`,
    /// `--seed N` and `--fast` from the process arguments; unknown
    /// arguments abort with a usage message.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags or malformed values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut cfg = ExpConfig::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| -> usize {
                it.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{name} requires an integer value"))
            };
            match arg.as_str() {
                "--scale-spmv" => cfg.scale_spmv = value("--scale-spmv").max(1),
                "--scale-spmm" => cfg.scale_spmm = value("--scale-spmm").max(1),
                "--scale-graph" => cfg.scale_graph = value("--scale-graph").max(1),
                "--seed" => cfg.seed = value("--seed") as u64,
                "--fast" => cfg.fast = true,
                other => panic!(
                    "unknown argument `{other}`; supported: --scale-spmv N, \
                     --scale-spmm N, --scale-graph N, --seed N, --fast"
                ),
            }
        }
        cfg
    }

    /// Simulated system for SpMV-scale experiments (caches shrunk with the
    /// matrices).
    pub fn system_spmv(&self) -> SystemConfig {
        SystemConfig::paper_table2_scaled(self.scale_spmv)
    }

    /// Simulated system for SpMM-scale experiments.
    pub fn system_spmm(&self) -> SystemConfig {
        SystemConfig::paper_table2_scaled(self.scale_spmm)
    }

    /// Simulated system for graph experiments.
    pub fn system_graph(&self) -> SystemConfig {
        SystemConfig::paper_table2_scaled(self.scale_graph)
    }

    /// Indices (0-based) into the Table 3 suite used by this run.
    pub fn matrix_indices(&self) -> Vec<usize> {
        if self.fast {
            vec![1, 4, 7, 12, 13] // M2, M5, M8, M13, M14
        } else {
            (0..15).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_design() {
        let c = ExpConfig::default();
        assert_eq!(c.scale_spmv, 16);
        assert_eq!(c.scale_spmm, 64);
        assert!(!c.fast);
        assert_eq!(c.matrix_indices().len(), 15);
    }

    #[test]
    fn parses_flags() {
        let c = ExpConfig::parse(
            ["--fast", "--scale-spmv", "8", "--seed", "7"]
                .into_iter()
                .map(String::from),
        );
        assert!(c.fast);
        assert_eq!(c.scale_spmv, 8);
        assert_eq!(c.seed, 7);
        assert_eq!(c.matrix_indices().len(), 5);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn rejects_unknown_flags() {
        ExpConfig::parse(["--bogus".to_string()]);
    }

    #[test]
    fn scaled_systems_shrink_caches() {
        let c = ExpConfig::default();
        assert!(c.system_spmm().l3.size_bytes < c.system_spmv().l3.size_bytes);
    }
}
