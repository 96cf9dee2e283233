//! The batched Sparse Matrix × Dense Matrix (SpMDM, `C = A * B`) column
//! tiling as the kernel layer sees it.
//!
//! The native SpMDM kernels run through each format's
//! [`RowRead`](smash_matrix::RowRead) view, and every one of them splits
//! the right-hand side into the register-blocked column tiles of
//! [`smash_matrix::for_each_rhs_tile`]. This module materializes that
//! schedule for callers that reason about it ahead of a run — the
//! [`planner`](crate::planner) reads its lead tile from here, so a plan's
//! `tile` is always the width the kernels actually start with.

/// The register-blocked column tiles `(start, width)` the SpMDM kernels
/// split `n` right-hand sides into — materialized from
/// [`smash_matrix::for_each_rhs_tile`], the single definition of the
/// schedule: contiguous tiles of 8, then 4, then 1, covering `0..n` once.
pub fn rhs_tiles(n: usize) -> Vec<(usize, usize)> {
    let mut tiles = Vec::new();
    smash_matrix::for_each_rhs_tile(n, |j0, w| tiles.push((j0, w)));
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rhs_tiles_cover_the_width_once() {
        for n in [0usize, 1, 3, 4, 7, 8, 12, 17, 64] {
            let tiles = rhs_tiles(n);
            let mut covered = 0usize;
            for &(j0, w) in &tiles {
                assert_eq!(j0, covered, "tiles must be contiguous");
                assert!(w == 8 || w == 4 || w == 1);
                covered += w;
            }
            assert_eq!(covered, n);
        }
    }
}
