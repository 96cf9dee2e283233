//! O(1) random access into the compressed hierarchy, and the one
//! top-down walker every SMASH kernel decodes through: the software
//! analogue of the BMU's per-matrix `bmapinfo` state and its per-level
//! scan (paper §4–5).
//!
//! Historically every kernel that needed per-line addressing expanded the
//! *entire* logical Bitmap-0 (`BitmapHierarchy::expand_full`) — O(dense
//! size) auxiliary memory and scan time per call. [`LineDirectory`]
//! replaces that: built once per matrix, it holds per-level
//! [`RankIndex`]es and each line's starting NZA ordinal. A walk over any
//! line range seeks one cursor per level in O(levels) and then scans the
//! hierarchy top-down, as the BMU does: for every set parent bit it
//! visits only that parent's child group, with aligned word loads and
//! count-trailing-zeros, and keeps a running stored-bit count per level
//! to address the next child group — no `select`, no per-bit `get()`, no
//! division per block, no expansion.
//!
//! Auxiliary memory is O(lines + stored-bits / 512) instead of O(logical
//! bits): sublinear in the dense matrix size.

use crate::{BitmapHierarchy, RankIndex, MAX_LEVELS};
use std::ops::Range;

/// Per-matrix directory for O(1) row seeks into the compressed form.
///
/// The directory snapshots positional metadata of a [`BitmapHierarchy`];
/// queries take the hierarchy again (the directory does not own it) and
/// are only valid for the hierarchy the directory was built from —
/// [`SmashMatrix`](crate::SmashMatrix) builds one at construction and
/// keeps the pair together.
///
/// # Example
///
/// ```
/// use smash_core::{SmashConfig, SmashMatrix};
/// use smash_matrix::generators;
///
/// let a = generators::banded(64, 64, 3, 300, 1);
/// let sm = SmashMatrix::encode(&a, SmashConfig::row_major(&[2, 4, 16])?);
/// // Row 40's blocks, without expanding Bitmap-0:
/// let first = sm.directory().start_ordinal(40);
/// let mut seen = 0;
/// sm.for_each_block_in(40..41, |row, col, ordinal| {
///     assert_eq!((row, ordinal), (40, first + seen));
///     assert!(col < 64);
///     seen += 1;
/// });
/// assert_eq!(seen, sm.directory().blocks_in_line(40));
/// # Ok::<(), smash_core::SmashError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineDirectory {
    /// One rank/select index per stored bitmap level.
    level_ranks: Vec<RankIndex>,
    /// Starting NZA block ordinal of each line (length `lines + 1`).
    starts: Vec<u32>,
    /// Level-0 bits per line.
    bpl: usize,
}

impl LineDirectory {
    /// Builds the directory: per-level rank indexes plus one O(levels)
    /// seek per line. Total cost O(stored bits / 64 + lines · levels).
    ///
    /// # Panics
    ///
    /// Panics if `lines * bpl` disagrees with the hierarchy's logical
    /// level-0 length.
    pub fn build(h: &BitmapHierarchy, lines: usize, bpl: usize) -> LineDirectory {
        assert_eq!(
            lines * bpl,
            h.logical_bits(0),
            "directory shape disagrees with the hierarchy"
        );
        let level_ranks: Vec<RankIndex> = (0..h.num_levels())
            .map(|l| RankIndex::build(h.stored_level(l)))
            .collect();
        let mut dir = LineDirectory {
            level_ranks,
            starts: Vec::with_capacity(lines + 1),
            bpl,
        };
        let stored0 = h.stored_level(0);
        for line in 0..lines {
            let (pos, _) = dir.locate(h, 0, line * bpl);
            dir.starts
                .push(dir.level_ranks[0].rank(stored0, pos) as u32);
        }
        dir.starts.push(dir.level_ranks[0].ones() as u32);
        dir
    }

    /// Number of lines covered.
    pub fn line_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Level-0 bits per line.
    pub fn blocks_per_line(&self) -> usize {
        self.bpl
    }

    /// Per-line starting NZA block ordinal (length `line_count() + 1`):
    /// entry `l` is the number of non-zero blocks strictly before line
    /// `l`. This is the array SpMM's per-line addressing reads.
    pub fn line_starts(&self) -> &[u32] {
        &self.starts
    }

    /// NZA ordinal of line `l`'s first block — an O(1) row seek.
    ///
    /// # Panics
    ///
    /// Panics if `line >= line_count()`.
    pub fn start_ordinal(&self, line: usize) -> usize {
        assert!(line < self.line_count(), "line {line} out of range");
        self.starts[line] as usize
    }

    /// Number of non-zero blocks in line `l`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= line_count()`.
    pub fn blocks_in_line(&self, line: usize) -> usize {
        assert!(line < self.line_count(), "line {line} out of range");
        (self.starts[line + 1] - self.starts[line]) as usize
    }

    /// The top-down walk behind
    /// [`SmashMatrix::for_each_block_in`](crate::SmashMatrix::for_each_block_in):
    /// calls `f(line, offset, ordinal)` for every non-zero block of
    /// `lines`, in storage order, where `offset` is the block's first
    /// element within its line (`block_in_line * b0`) and `ordinal` its
    /// NZA block index.
    ///
    /// Seeding costs one [`RankIndex::rank`] per level. From there each
    /// level keeps a cursor — the stored span still to scan, the offset
    /// from stored to logical index, and the running count of set bits
    /// already passed — so a set parent bit addresses its child group
    /// directly (`count * ratio`). The line is tracked incrementally.
    /// `h` must be the hierarchy the directory was built from.
    ///
    /// # Panics
    ///
    /// Panics if `lines` runs past `line_count()` or the hierarchy has a
    /// different level count than the directory (or more than
    /// [`MAX_LEVELS`]).
    #[inline]
    pub(crate) fn for_each_block_in<F: FnMut(usize, usize, usize)>(
        &self,
        h: &BitmapHierarchy,
        lines: Range<usize>,
        b0: usize,
        mut f: F,
    ) {
        assert!(
            lines.start <= lines.end && lines.end <= self.line_count(),
            "line range {lines:?} out of range {}",
            self.line_count()
        );
        let levels = h.num_levels();
        assert!(
            levels == self.level_ranks.len() && levels <= MAX_LEVELS,
            "directory built from a different hierarchy"
        );
        let bpl = self.bpl;
        if lines.is_empty() || bpl == 0 {
            return;
        }
        let top = levels - 1;
        let ratios = h.ratios();
        // Logical bounds of the range at every level: `lo` rounds down,
        // `hi` up, so each level covers every ancestor of a block in range.
        let mut lo = [0usize; MAX_LEVELS];
        let mut hi = [0usize; MAX_LEVELS];
        lo[0] = lines.start * bpl;
        hi[0] = lines.end * bpl;
        for l in 1..levels {
            let g = ratios[l] as usize;
            lo[l] = lo[l - 1] / g;
            hi[l] = hi[l - 1].div_ceil(g);
        }
        // Per-level cursor: the stored span `pos..end` left to scan, the
        // logical index of stored bit `s` (`s + delta`), and the number of
        // set bits before `pos` (the rank that addresses child groups).
        let mut pos = [0usize; MAX_LEVELS];
        let mut end = [0usize; MAX_LEVELS];
        let mut delta = [0usize; MAX_LEVELS];
        let mut ones = [0usize; MAX_LEVELS];
        pos[top] = lo[top];
        end[top] = hi[top];
        // Seed the counts at the first stored position each level's walk
        // reaches: the position of `lo[l]` when its group is stored, else
        // the start of the next stored group (its insertion point).
        let mut p = lo[top];
        let mut stored = true;
        for l in (1..levels).rev() {
            ones[l] = self.level_ranks[l].rank(h.stored_level(l), p);
            stored = stored && h.stored_level(l).get(p);
            let g = ratios[l] as usize;
            p = ones[l] * g + if stored { lo[l - 1] - lo[l] * g } else { 0 };
        }
        let words0 = h.stored_level(0).words();
        let mut ordinal = self.starts[lines.start] as usize;
        let mut line = lines.start;
        let mut line_end = lo[0] + bpl;
        // Every level-0 bit the walk reaches is a block; `j` is its
        // logical index.
        let mut emit = |j: usize| {
            while j >= line_end {
                line += 1;
                line_end += bpl;
            }
            f(line, (j + bpl - line_end) * b0, ordinal);
            ordinal += 1;
        };
        if top == 0 {
            for_each_one_in(words0, lo[0], hi[0], &mut emit);
            return;
        }
        let (words1, g0) = (h.stored_level(1).words(), ratios[1] as usize);
        let mut l = top;
        loop {
            if l == 1 {
                // The hot loop: the two lowest levels as nested scans, each
                // set level-1 bit opening its level-0 child group in place.
                let d1 = delta[1];
                let mut k = ones[1];
                for_each_one_in(words1, pos[1], end[1], |s| {
                    let (base, first) = ((s + d1) * g0, k * g0);
                    k += 1;
                    let from = first + base.max(lo[0]) - base;
                    let to = first + (base + g0).min(hi[0]) - base;
                    let d0 = base - first;
                    for_each_one_in(words0, from, to, |s0| emit(s0 + d0));
                });
                ones[1] = k;
                if top == 1 {
                    return;
                }
                l = 2;
                continue;
            }
            match next_one_in(h.stored_level(l).words(), pos[l], end[l]) {
                None if l == top => return,
                None => l += 1,
                Some(s) => {
                    // Descend into the child group of stored bit `s`: the
                    // `ones[l]`-th stored group of level `l - 1`, clipped
                    // to the range.
                    pos[l] = s + 1;
                    let g = ratios[l] as usize;
                    let first = ones[l] * g;
                    ones[l] += 1;
                    let base = (s + delta[l]) * g;
                    pos[l - 1] = first + base.max(lo[l - 1]) - base;
                    end[l - 1] = first + (base + g).min(hi[l - 1]) - base;
                    delta[l - 1] = base - first;
                    l -= 1;
                }
            }
        }
    }

    /// Number of non-zero blocks whose logical level-0 index is below
    /// `logical` — rank into the *logical* Bitmap-0 in O(levels) without
    /// expanding it.
    ///
    /// # Panics
    ///
    /// Panics if `logical > h.logical_bits(0)` or the hierarchy disagrees
    /// with the directory.
    pub fn block_rank(&self, h: &BitmapHierarchy, logical: usize) -> usize {
        assert_eq!(h.num_levels(), self.level_ranks.len(), "hierarchy mismatch");
        if logical >= h.logical_bits(0) {
            assert_eq!(logical, h.logical_bits(0), "logical index out of range");
            return self.level_ranks[0].ones();
        }
        let (pos, _) = self.locate(h, 0, logical);
        self.level_ranks[0].rank(h.stored_level(0), pos)
    }

    /// Logical level-0 index of NZA block `ordinal` — select into the
    /// *logical* Bitmap-0 in O(levels), or `None` past the last block.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy disagrees with the directory.
    pub fn block_select(&self, h: &BitmapHierarchy, ordinal: usize) -> Option<usize> {
        assert_eq!(h.num_levels(), self.level_ranks.len(), "hierarchy mismatch");
        let s = self.level_ranks[0].select(h.stored_level(0), ordinal)?;
        Some(self.stored_to_logical(h, 0, s))
    }

    /// Directory footprint in bytes — the peak auxiliary memory an
    /// indexed kernel needs, O(lines + stored-bits / 512).
    pub fn aux_bytes(&self) -> usize {
        self.level_ranks
            .iter()
            .map(RankIndex::aux_bytes)
            .sum::<usize>()
            + self.starts.len() * std::mem::size_of::<u32>()
    }

    /// Maps logical bit `j` of `level` to its position in the stored
    /// (compacted) bitmap, returning `(position, present)`. When the
    /// group holding `j` was compacted away, `position` is the insertion
    /// point: every stored set bit below it has a smaller logical index.
    fn locate(&self, h: &BitmapHierarchy, level: usize, j: usize) -> (usize, bool) {
        let top = h.num_levels() - 1;
        if level == top {
            // The top level is stored in full: logical == stored.
            return (j, true);
        }
        let g = h.ratios()[level + 1] as usize;
        let (parent_pos, parent_exists) = self.locate(h, level + 1, j / g);
        let parent_bitmap = h.stored_level(level + 1);
        let present = parent_exists && parent_bitmap.get(parent_pos);
        // Groups stored before this one = set parent bits before `j / g`.
        let k = self.level_ranks[level + 1].rank(parent_bitmap, parent_pos);
        if present {
            (k * g + j % g, true)
        } else {
            (k * g, false)
        }
    }

    /// Maps stored bit `s` of `level` back to its logical index, walking
    /// the parent chain upward with one O(1) select per level.
    fn stored_to_logical(&self, h: &BitmapHierarchy, level: usize, s: usize) -> usize {
        let top = h.num_levels() - 1;
        if level == top {
            return s;
        }
        let g = h.ratios()[level + 1] as usize;
        let parent_pos = self.level_ranks[level + 1]
            .select(h.stored_level(level + 1), s / g)
            .expect("stored group always has a set parent bit");
        self.stored_to_logical(h, level + 1, parent_pos) * g + s % g
    }
}

/// The words of `words` covering bits `[from, to)` (non-empty), each as
/// `(first bit index, word masked to the span)`.
#[inline(always)]
fn span_words(words: &[u64], from: usize, to: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let (first, last) = (from / 64, (to - 1) / 64);
    let (lo, hi) = (u64::MAX << (from % 64), u64::MAX >> (63 - (to - 1) % 64));
    words[first..=last]
        .iter()
        .zip(first..)
        .map(move |(&word, w)| {
            let mut m = word;
            if w == first {
                m &= lo;
            }
            if w == last {
                m &= hi;
            }
            (w * 64, m)
        })
}

/// Calls `f(s)` for every set bit `s` of `words` in `[from, to)`, in
/// order: one aligned load per word, count-trailing-zeros to find a bit,
/// clear-lowest-bit to drop it (the §4.4 software scan).
#[inline(always)]
fn for_each_one_in(words: &[u64], from: usize, to: usize, mut f: impl FnMut(usize)) {
    if from >= to {
        return;
    }
    for (base, mut m) in span_words(words, from, to) {
        while m != 0 {
            f(base + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// Position of the first set bit of `words` in `[from, to)`.
#[inline(always)]
fn next_one_in(words: &[u64], from: usize, to: usize) -> Option<usize> {
    if from >= to {
        return None;
    }
    span_words(words, from, to)
        .find(|&(_, m)| m != 0)
        .map(|(base, m)| base + m.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bitmap;

    fn bm(bits: &[usize], len: usize) -> Bitmap {
        let mut b = Bitmap::zeros(len);
        for &i in bits {
            b.set(i, true);
        }
        b
    }

    /// Walks `lines` and returns `(line, block_in_line, ordinal)` triples.
    fn walk(dir: &LineDirectory, h: &BitmapHierarchy, lines: Range<usize>) -> Vec<[usize; 3]> {
        let mut got = Vec::new();
        dir.for_each_block_in(h, lines, 1, |line, blk, ordinal| {
            got.push([line, blk, ordinal])
        });
        got
    }

    /// Oracle: the walker must agree with filtering the expanded bitmap,
    /// over every line range `r0..r1` (empty ones included).
    fn check_against_expansion(h: &BitmapHierarchy, lines: usize, bpl: usize) {
        let dir = LineDirectory::build(h, lines, bpl);
        let full = h.expand_full(0);
        let all: Vec<[usize; 3]> = full
            .iter_ones()
            .enumerate()
            .map(|(o, l)| [l / bpl, l % bpl, o])
            .collect();
        let mut expect_ord = 0usize;
        for line in 0..lines {
            let want: Vec<[usize; 3]> = all.iter().copied().filter(|t| t[0] == line).collect();
            assert_eq!(dir.start_ordinal(line), expect_ord);
            assert_eq!(dir.blocks_in_line(line), want.len());
            expect_ord += want.len();
        }
        for r0 in 0..=lines {
            for r1 in r0..=lines {
                let want: Vec<[usize; 3]> = all
                    .iter()
                    .copied()
                    .filter(|t| (r0..r1).contains(&t[0]))
                    .collect();
                assert_eq!(walk(&dir, h, r0..r1), want, "lines {r0}..{r1}");
            }
        }
        // Logical rank/select agree with the expansion too.
        for logical in 0..=h.logical_bits(0) {
            assert_eq!(dir.block_rank(h, logical), full.rank(logical));
        }
        for (k, t) in all.iter().enumerate() {
            assert_eq!(dir.block_select(h, k), Some(t[0] * bpl + t[1]));
        }
        assert_eq!(dir.block_select(h, all.len()), None);
    }

    #[test]
    fn cursor_matches_expansion_across_shapes() {
        // (bits, len, lines, ratios)
        let cases: Vec<(Vec<usize>, usize, usize, Vec<u32>)> = vec![
            (vec![0, 2, 13], 16, 4, vec![2, 4]),
            (vec![3, 17, 40, 41, 63], 64, 8, vec![2, 4, 4]),
            (vec![], 64, 8, vec![2, 8]),
            ((0..64).collect(), 64, 4, vec![2, 2, 2, 2]),
            (vec![9], 10, 2, vec![2, 4]),
            (vec![0, 299], 300, 10, vec![2, 8, 8]),
            (vec![5, 6, 7], 40, 5, vec![2]), // single level
            ((0..200).filter(|i| i % 3 != 1).collect(), 200, 2, vec![2]),
            ((0..130).step_by(7).collect(), 260, 2, vec![2, 64, 2]),
            (vec![0, 64, 65, 127, 128], 192, 3, vec![2, 128]),
            (vec![], 0, 7, vec![2, 4]), // zero columns
            (vec![], 0, 0, vec![2]),    // empty matrix
        ];
        for (bits, len, lines, ratios) in cases {
            let bpl = len.checked_div(lines).unwrap_or(0);
            let h = BitmapHierarchy::from_level0(&bm(&bits, len), &ratios).unwrap();
            check_against_expansion(&h, lines, bpl);
        }
    }

    #[test]
    fn cursor_handles_groups_straddling_lines() {
        // bpl = 3 with ratio-4 groups: every group crosses a line border,
        // so most ranges start and end mid-group.
        let bits: Vec<usize> = (0..60).filter(|i| i % 5 != 2).collect();
        let h = BitmapHierarchy::from_level0(&bm(&bits, 60), &[2, 4, 4]).unwrap();
        check_against_expansion(&h, 20, 3);
        let sparse: Vec<usize> = (0..60).filter(|i| i % 11 == 4).collect();
        let h = BitmapHierarchy::from_level0(&bm(&sparse, 60), &[2, 4, 2, 2]).unwrap();
        check_against_expansion(&h, 20, 3);
    }

    #[test]
    fn walker_yields_element_offsets() {
        let h = BitmapHierarchy::from_level0(&bm(&[1, 4, 5], 6), &[4, 2]).unwrap();
        let dir = LineDirectory::build(&h, 2, 3);
        let mut got = Vec::new();
        dir.for_each_block_in(&h, 0..2, 4, |line, off, ord| got.push((line, off, ord)));
        assert_eq!(got, vec![(0, 4, 0), (1, 4, 1), (1, 8, 2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn walker_rejects_ranges_past_the_end() {
        let h = BitmapHierarchy::from_level0(&bm(&[1], 16), &[2, 4]).unwrap();
        LineDirectory::build(&h, 4, 4).for_each_block_in(&h, 2..5, 2, |_, _, _| {});
    }

    #[test]
    fn directory_rejects_wrong_shape() {
        let h = BitmapHierarchy::from_level0(&bm(&[1], 16), &[2, 4]).unwrap();
        let result = std::panic::catch_unwind(|| LineDirectory::build(&h, 3, 4));
        assert!(result.is_err(), "12 != 16 logical bits must panic");
    }
}
