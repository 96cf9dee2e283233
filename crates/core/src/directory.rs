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
//! visits only that parent's child group, with word loads and
//! count-trailing-zeros, and keeps a running stored-bit count per level
//! to address the next child group — no `select`, no per-bit `get()`, no
//! division per block, no expansion. The walk hands out level-0 bits a
//! word-sized *fragment* at a time (one line's share of a child group, as
//! a `u64` mask), so a kernel visits blocks by shifting a register rather
//! than by one callback per block.
//!
//! Auxiliary memory is O(lines + stored-bits / 512) instead of O(logical
//! bits): sublinear in the dense matrix size.

use crate::{BitmapHierarchy, RankIndex, MAX_LEVELS};

// The walk keeps one bit cursor per level above 0.
const _: () = assert!(
    MAX_LEVELS <= 4,
    "the group walk has cursors for four levels"
);
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

    /// The group-level walk every SMASH decode runs on: hands `sink` one
    /// *fragment* `(line, first_block, mask, ordinal)` at a time over
    /// `lines`, in storage order. A fragment is the piece of one aligned
    /// word of the stored Bitmap-0 that falls in one line and (for two or
    /// more levels) in one child group of a set level-1 bit: bit `i` of
    /// `mask` is block `first_block + i` of `line`, bit 0 is set, and
    /// `ordinal` is the NZA ordinal of that first block, the other set
    /// bits following consecutively. The sink returns the ordinal one past
    /// the fragment (`ordinal + mask.count_ones()`): every consumer steps
    /// through the bits anyway, so the walk never counts them
    /// (`count_ones` is a software sequence on the baseline x86-64
    /// target).
    ///
    /// Seeding costs one [`RankIndex::rank`] per level. Each level then
    /// has a bit cursor — the stored span left to load, the loaded word
    /// piece, and the running rank that addresses the next child group —
    /// and, with the line and the ordinal, these are local variables of
    /// one flat loop. Each fragment costs one word load and a few shifts.
    /// `h` must be the hierarchy the directory was built from.
    ///
    /// # Panics
    ///
    /// Panics if `lines` runs past `line_count()` or the hierarchy has a
    /// different level count than the directory (or more than
    /// [`MAX_LEVELS`]).
    #[inline(always)]
    pub(crate) fn for_each_group_in<S: FragmentSink>(
        &self,
        h: &BitmapHierarchy,
        lines: Range<usize>,
        sink: &mut S,
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
        // Seed each level's rank at the first stored position its walk
        // reaches: the position of `lo[l]` when its group is stored, else
        // the start of the next stored group (its insertion point).
        let mut ones = [0usize; MAX_LEVELS];
        let mut p = lo[top];
        let mut stored = true;
        for l in (1..levels).rev() {
            ones[l] = self.level_ranks[l].rank(h.stored_level(l), p);
            stored = stored && h.stored_level(l).get(p);
            let g = ratios[l] as usize;
            p = ones[l] * g + if stored { lo[l - 1] - lo[l] * g } else { 0 };
        }
        let mut level0 = Level0 {
            words: h.stored_level(0).words(),
            bpl,
            line: lines.start,
            line_end: lo[0] + bpl,
            ordinal: self.starts[lines.start] as usize,
        };
        // One bit cursor per level above 0, the top one opened on the
        // whole range (the top level is stored in full); each lower one is
        // reopened on the child group of every set bit above it.
        let words = |l: usize| {
            if l <= top {
                h.stored_level(l).words()
            } else {
                &[]
            }
        };
        let ratio = |l: usize| ratios.get(l).map_or(1, |&g| g as usize);
        let (words1, words2, words3) = (words(1), words(2), words(3));
        let (g1, g2, g3) = (ratio(1), ratio(2), ratio(3));
        let (mut s1, mut s2, mut s3) = (Scan::new(ones[1]), Scan::new(ones[2]), Scan::new(ones[3]));
        match top {
            1 => s1.open(words1, (lo[1], hi[1], 0)),
            2 => s2.open(words2, (lo[2], hi[2], 0)),
            3 => s3.open(words3, (lo[3], hi[3], 0)),
            _ => {}
        }
        if top == 0 {
            // A single level is stored in full (logical == stored): its one
            // level-0 span is the range itself.
            level0.emit((lo[0], hi[0], 0), sink);
            return;
        }
        loop {
            // The next set level-1 bit, refilling each level from the one
            // above as it runs dry.
            let span = {
                let b1 = loop {
                    if let Some(b) = s1.next(words1) {
                        break b;
                    }
                    if top == 1 {
                        return;
                    }
                    let b2 = loop {
                        if let Some(b) = s2.next(words2) {
                            break b;
                        }
                        if top == 2 {
                            return;
                        }
                        let Some(b3) = s3.next(words3) else { return };
                        s2.open(words2, s3.child(b3, g3, lo[2], hi[2]));
                    };
                    s1.open(words1, s2.child(b2, g2, lo[1], hi[1]));
                };
                s1.child(b1, g1, lo[0], hi[0])
            };
            level0.emit(span, sink);
        }
    }

    /// The per-block view of [`for_each_group_in`](Self::for_each_group_in)
    /// behind [`SmashMatrix::for_each_block_in`](crate::SmashMatrix::for_each_block_in):
    /// calls `f(line, offset, ordinal)` for every non-zero block of
    /// `lines`, in storage order, where `offset` is the block's first
    /// element within its line (`block_in_line * b0`) and `ordinal` its
    /// NZA block index.
    ///
    /// # Panics
    ///
    /// As [`for_each_group_in`](Self::for_each_group_in).
    #[inline]
    pub(crate) fn for_each_block_in<F: FnMut(usize, usize, usize)>(
        &self,
        h: &BitmapHierarchy,
        lines: Range<usize>,
        b0: usize,
        mut f: F,
    ) {
        self.for_each_group_in(h, lines, &mut PerBlock { f: &mut f, b0 });
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

/// The consumer of a group walk
/// ([`LineDirectory::for_each_group_in`]): takes one fragment
/// `(line, first_block, mask, ordinal)` and returns the ordinal one past
/// it. Closures of that shape are sinks; a kernel whose per-fragment body
/// must be inlined into the walk (its accumulators kept in registers)
/// implements the trait with an `#[inline(always)]` method.
pub(crate) trait FragmentSink {
    /// Consumes one fragment; returns `ordinal + mask.count_ones()`.
    fn fragment(&mut self, line: usize, first_block: usize, mask: u64, ordinal: usize) -> usize;
}

impl<F: FnMut(usize, usize, u64, usize) -> usize> FragmentSink for F {
    #[inline(always)]
    fn fragment(&mut self, line: usize, first_block: usize, mask: u64, ordinal: usize) -> usize {
        self(line, first_block, mask, ordinal)
    }
}

/// The sink behind [`LineDirectory::for_each_block_in`]: one call of `f`
/// per set bit, inlined into the walk like a kernel body.
struct PerBlock<F> {
    f: F,
    b0: usize,
}

impl<F: FnMut(usize, usize, usize)> FragmentSink for PerBlock<F> {
    #[inline(always)]
    fn fragment(&mut self, line: usize, first: usize, mut mask: u64, mut ordinal: usize) -> usize {
        while mask != 0 {
            (self.f)(
                line,
                (first + mask.trailing_zeros() as usize) * self.b0,
                ordinal,
            );
            ordinal += 1;
            mask &= mask - 1;
        }
        ordinal
    }
}

/// A cursor over the set bits of one stored span of a level: stored bits
/// `pos..end` still to load (logical index = stored + `delta`), the set
/// bits `m` of the last loaded word piece (bit 0 is stored bit `base`),
/// and the running rank `ones` that addresses the next child group.
#[derive(Clone, Copy)]
struct Scan {
    pos: usize,
    end: usize,
    delta: usize,
    m: u64,
    base: usize,
    ones: usize,
}

impl Scan {
    /// An empty cursor whose set bits so far number `ones`.
    fn new(ones: usize) -> Scan {
        Scan {
            pos: 0,
            end: 0,
            delta: 0,
            m: 0,
            base: 0,
            ones,
        }
    }

    /// Starts scanning the span `(from, to, delta)` of `words`, loading
    /// its first word piece (a child group usually fits in it).
    #[inline(always)]
    fn open(&mut self, words: &[u64], (from, to, delta): (usize, usize, usize)) {
        (self.end, self.delta, self.base) = (to, delta, from);
        if from < to {
            let n = (to - from).min(64 - from % 64);
            (self.m, self.pos) = (piece(words, from, n), from + n);
        } else {
            (self.m, self.pos) = (0, to);
        }
    }

    /// The next set stored bit of the span, loading it an aligned word
    /// piece at a time and skipping runs of empty words.
    #[inline(always)]
    fn next(&mut self, words: &[u64]) -> Option<usize> {
        while self.m == 0 {
            if self.pos >= self.end {
                return None;
            }
            if self.pos.is_multiple_of(64) {
                self.pos = 64 * skip_empty(words, self.pos / 64, (self.end - 1) / 64);
            }
            let n = (self.end - self.pos).min(64 - self.pos % 64);
            (self.m, self.base) = (piece(words, self.pos, n), self.pos);
            self.pos += n;
        }
        let s = self.base + self.m.trailing_zeros() as usize;
        self.m &= self.m - 1;
        Some(s)
    }

    /// The child span of set stored bit `s`: the `ones`-th stored group of
    /// `g` bits one level down, clipped to that level's logical range
    /// `lo..hi`, as `(from, to, delta)`.
    #[inline(always)]
    fn child(&mut self, s: usize, g: usize, lo: usize, hi: usize) -> (usize, usize, usize) {
        let (base, first) = ((s + self.delta) * g, self.ones * g);
        self.ones += 1;
        (
            first + base.max(lo) - base,
            first + (base + g).min(hi) - base,
            base - first,
        )
    }
}

/// The level-0 end of a walk: the stored level-0 bitmap, the line the
/// walk is in (and where it ends, in logical bits) and the running NZA
/// ordinal.
struct Level0<'a> {
    words: &'a [u64],
    bpl: usize,
    line: usize,
    line_end: usize,
    ordinal: usize,
}

impl Level0<'_> {
    /// Hands the set bits of the stored level-0 span `from..to` (logical
    /// index = stored + `delta`) to `sink`, one fragment per piece of an
    /// aligned word that lies in one line. Each fragment starts at a set
    /// bit.
    #[inline(always)]
    fn emit<S: FragmentSink>(&mut self, (from, to, delta): (usize, usize, usize), sink: &mut S) {
        if from >= to {
            return;
        }
        let (mut w, last) = (from / 64, (to - 1) / 64);
        if w == last {
            // The common case: a child group inside one word.
            self.word(piece(self.words, from, to - from), from + delta, sink);
            return;
        }
        let words = &self.words[..=last];
        let mut m = words[w] & (u64::MAX << (from % 64));
        loop {
            if w == last {
                m &= u64::MAX >> (63 - (to - 1) % 64);
            }
            self.word(m, w * 64 + delta, sink);
            if w == last {
                return;
            }
            w = skip_empty(words, w + 1, last);
            m = words[w];
        }
    }

    /// Hands the set bits of `m`, whose bit 0 has logical index `j`, to
    /// `sink` as one fragment per line they fall in.
    #[inline(always)]
    fn word<S: FragmentSink>(&mut self, mut m: u64, mut j: usize, sink: &mut S) {
        while m != 0 {
            let tz = m.trailing_zeros() as usize;
            (m, j) = (m >> tz, j + tz);
            while j >= self.line_end {
                self.line += 1;
                self.line_end += self.bpl;
            }
            // The bits of `m` left in this line, and those past it.
            let k = self.line_end - j;
            let rest = if k < 64 { m >> k } else { 0 };
            let mask = m ^ (rest << (k % 64));
            let first = j + self.bpl - self.line_end;
            let next = sink.fragment(self.line, first, mask, self.ordinal);
            debug_assert_eq!(
                next,
                self.ordinal + mask.count_ones() as usize,
                "a fragment consumer must step one ordinal per block"
            );
            self.ordinal = next;
            (m, j) = (rest, j + k);
        }
    }
}

/// The first non-empty word of `words[w..last]`, or `last` when there is
/// none: four words a step (a flat Bitmap-0 is mostly empty words),
/// landing on the non-empty one without a branch.
#[inline(always)]
fn skip_empty(words: &[u64], mut w: usize, last: usize) -> usize {
    while w + 4 <= last {
        let (a, b, c, d) = (words[w], words[w + 1], words[w + 2], words[w + 3]);
        if a | b | c | d != 0 {
            return w + usize::from(a == 0) + usize::from(a | b == 0) + usize::from(a | b | c == 0);
        }
        w += 4;
    }
    while w < last && words[w] == 0 {
        w += 1;
    }
    w
}

/// Bits `p..p + n` of `words` as the low `n` bits of a word, for a piece
/// inside one word (`1 <= n <= 64 - p % 64`): one load, one shift.
#[inline(always)]
fn piece(words: &[u64], p: usize, n: usize) -> u64 {
    (words[p / 64] >> (p % 64)) & (u64::MAX >> (64 - n))
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

    /// Walks `lines` a fragment at a time, returning
    /// `(line, first_block, mask, ordinal)` per fragment.
    fn groups(
        dir: &LineDirectory,
        h: &BitmapHierarchy,
        lines: Range<usize>,
    ) -> Vec<(usize, usize, u64, usize)> {
        let mut got = Vec::new();
        let mut sink = |line, first, mask: u64, ordinal| {
            got.push((line, first, mask, ordinal));
            ordinal + mask.count_ones() as usize
        };
        dir.for_each_group_in(h, lines, &mut sink);
        got
    }

    /// Oracle for the group walk: over every line range, the fragments
    /// expand to exactly the expansion's blocks; each one starts at a set
    /// bit, stays inside its line and (with two or more levels) inside one
    /// level-1 group; and ordinals run on from the range's first block.
    fn check_groups_against_expansion(h: &BitmapHierarchy, lines: usize, bpl: usize) {
        let dir = LineDirectory::build(h, lines, bpl);
        let all: Vec<[usize; 3]> = h
            .expand_full(0)
            .iter_ones()
            .enumerate()
            .map(|(o, l)| [l / bpl, l % bpl, o])
            .collect();
        let g1 = h.ratios().get(1).map(|&g| g as usize);
        for r0 in 0..=lines {
            for r1 in r0..=lines {
                let want: Vec<[usize; 3]> = all
                    .iter()
                    .copied()
                    .filter(|t| (r0..r1).contains(&t[0]))
                    .collect();
                let mut got = Vec::new();
                let mut next_ordinal = want.first().map(|t| t[2]);
                for (line, first, mask, ordinal) in groups(&dir, h, r0..r1) {
                    let label = format!("lines {r0}..{r1}, fragment ({line}, {first}, {mask:#b})");
                    assert!((r0..r1).contains(&line), "{label}");
                    assert_eq!(mask & 1, 1, "{label}: must start at a set bit");
                    let last = first + 63 - mask.leading_zeros() as usize;
                    assert!(last < bpl, "{label}: leaves its line");
                    if let Some(g) = g1 {
                        let base = line * bpl;
                        assert_eq!(
                            (base + first) / g,
                            (base + last) / g,
                            "{label}: spans groups"
                        );
                    }
                    assert_eq!(Some(ordinal), next_ordinal, "{label}: ordinal");
                    let mut m = mask;
                    let mut o = ordinal;
                    while m != 0 {
                        got.push([line, first + m.trailing_zeros() as usize, o]);
                        o += 1;
                        m &= m - 1;
                    }
                    next_ordinal = Some(o);
                }
                assert_eq!(got, want, "lines {r0}..{r1}");
            }
        }
    }

    #[test]
    fn group_walk_matches_expansion_across_shapes() {
        // (bits, len, lines, ratios): one to four levels, level-1 ratios
        // above 64, groups straddling lines, empty lines and matrices.
        let wide: Vec<usize> = (0..1300)
            .filter(|i| i % 7 == 0 || (200..330).contains(i))
            .collect();
        let cases: Vec<(Vec<usize>, usize, usize, Vec<u32>)> = vec![
            (vec![5, 6, 7], 40, 5, vec![2]),
            ((0..200).filter(|i| i % 3 != 1).collect(), 200, 2, vec![2]),
            (wide.clone(), 1300, 5, vec![8]),
            (vec![0, 2, 13], 16, 4, vec![2, 4]),
            (vec![9], 10, 2, vec![2, 4]),
            (vec![], 64, 8, vec![2, 8]),
            (vec![0, 64, 65, 127, 128], 192, 3, vec![2, 128]),
            (wide.clone(), 1300, 5, vec![2, 128]),
            (wide.clone(), 1300, 10, vec![1, 100]),
            (vec![3, 17, 40, 41, 63], 64, 8, vec![2, 4, 4]),
            (vec![0, 299], 300, 10, vec![2, 8, 8]),
            ((0..130).step_by(7).collect(), 260, 2, vec![2, 64, 2]),
            (wide.clone(), 1300, 13, vec![4, 200, 2]),
            ((0..64).collect(), 64, 4, vec![2, 2, 2, 2]),
            (wide, 1300, 5, vec![2, 4, 2, 3]),
            (vec![], 0, 7, vec![2, 4]),
            (vec![], 0, 0, vec![2]),
        ];
        for (bits, len, lines, ratios) in cases {
            let bpl = len.checked_div(lines).unwrap_or(0);
            let h = BitmapHierarchy::from_level0(&bm(&bits, len), &ratios).unwrap();
            check_groups_against_expansion(&h, lines, bpl);
        }
    }

    #[test]
    fn group_walk_handles_groups_straddling_lines() {
        // bpl = 3 with ratio-4 groups: every group crosses a line border.
        let bits: Vec<usize> = (0..60).filter(|i| i % 5 != 2).collect();
        let h = BitmapHierarchy::from_level0(&bm(&bits, 60), &[2, 4, 4]).unwrap();
        check_groups_against_expansion(&h, 20, 3);
        // bpl = 70 with ratio-128 groups: groups straddle lines and words.
        let bits: Vec<usize> = (0..700).filter(|i| i % 3 == 0 || i % 11 == 0).collect();
        let h = BitmapHierarchy::from_level0(&bm(&bits, 700), &[2, 128, 2]).unwrap();
        check_groups_against_expansion(&h, 10, 70);
        let h = BitmapHierarchy::from_level0(&bm(&bits, 700), &[2]).unwrap();
        check_groups_against_expansion(&h, 10, 70);
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
