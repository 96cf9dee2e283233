//! Seeded input generation. Every workload starts from Matrix Market text
//! held in memory; the text is produced here from `--seed` alone, so the
//! same seed always yields the same bytes, and the program under test only
//! ever sees those bytes.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A directed graph as sorted, de-duplicated out-neighbour lists.
#[derive(Debug, Clone)]
pub struct EdgeList {
    pub vertices: usize,
    pub out: Vec<Vec<u32>>,
}

impl EdgeList {
    fn from_set(vertices: usize, edges: BTreeSet<(u32, u32)>) -> Self {
        let mut out = vec![Vec::new(); vertices];
        for (u, v) in edges {
            out[u as usize].push(v);
        }
        EdgeList { vertices, out }
    }

    pub fn edges(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }
}

/// In-edges of every vertex arrive in `runs` aligned runs of `run` source
/// vertices: with an 8-aligned run the transition matrix fills whole
/// 8-wide blocks, the structure SMASH compresses best.
pub fn blocky(vertices: usize, runs: usize, run: usize, rng: &mut Rng) -> EdgeList {
    let groups = vertices / run;
    let mut edges = BTreeSet::new();
    for v in 0..vertices {
        let mut picked = BTreeSet::new();
        while picked.len() < runs {
            picked.insert(rng.below(groups));
        }
        for g in picked {
            for u in g * run..(g + 1) * run {
                edges.insert((u as u32, v as u32));
            }
        }
    }
    EdgeList::from_set(vertices, edges)
}

/// R-MAT (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) on `2^scale` vertices,
/// `edges` draws, self-loops and duplicates dropped.
pub fn rmat(scale: u32, edges: usize, rng: &mut Rng) -> EdgeList {
    let vertices = 1usize << scale;
    let mut set = BTreeSet::new();
    for _ in 0..edges {
        let (mut u, mut v) = (0usize, 0usize);
        for bit in (0..scale).rev() {
            let p = rng.unit();
            let (du, dv) = if p < 0.57 {
                (0, 0)
            } else if p < 0.76 {
                (0, 1)
            } else if p < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            u |= du << bit;
            v |= dv << bit;
        }
        if u != v {
            set.insert((u as u32, v as u32));
        }
    }
    EdgeList::from_set(vertices, set)
}

/// A road-like network: a `side × side` grid whose streets exist with
/// probability 0.7 (both directions), plus a ring edge for any vertex the
/// grid left without an exit, so no vertex dangles.
pub fn road(side: usize, rng: &mut Rng) -> EdgeList {
    let vertices = side * side;
    let mut set = BTreeSet::new();
    for r in 0..side {
        for c in 0..side {
            let u = (r * side + c) as u32;
            if c + 1 < side && rng.unit() < 0.7 {
                set.insert((u, u + 1));
                set.insert((u + 1, u));
            }
            if r + 1 < side && rng.unit() < 0.7 {
                let d = u + side as u32;
                set.insert((u, d));
                set.insert((d, u));
            }
        }
    }
    let mut has_exit = vec![false; vertices];
    for &(u, _) in &set {
        has_exit[u as usize] = true;
    }
    for (u, exits) in has_exit.iter().enumerate() {
        if !exits {
            set.insert((u as u32, ((u + 1) % vertices) as u32));
        }
    }
    EdgeList::from_set(vertices, set)
}

/// The column-stochastic transition matrix `P[v][u] = 1/outdeg(u)` as
/// `matrix coordinate real general` text (1-based, shortest round-trip
/// decimal, so parsing restores every weight bit for bit).
pub fn transition_market(g: &EdgeList) -> String {
    let mut text = String::with_capacity(g.edges() * 28 + 64);
    text.push_str("%%MatrixMarket matrix coordinate real general\n");
    let _ = writeln!(text, "{} {} {}", g.vertices, g.vertices, g.edges());
    for (u, outs) in g.out.iter().enumerate() {
        let w = 1.0 / outs.len() as f64;
        for &v in outs {
            let _ = writeln!(text, "{} {} {}", v + 1, u + 1, w);
        }
    }
    text
}

/// The undirected 0/1 adjacency `A ∨ Aᵀ` (no diagonal) as
/// `matrix coordinate pattern symmetric` text: the lower triangle only,
/// mirrored by the reader.
pub fn symmetric_pattern_market(g: &EdgeList) -> (String, usize) {
    let mut lower = BTreeSet::new();
    for (u, outs) in g.out.iter().enumerate() {
        for &v in outs {
            let (a, b) = (u as u32, v);
            lower.insert((a.max(b), a.min(b)));
        }
    }
    let mut text = String::with_capacity(lower.len() * 14 + 64);
    text.push_str("%%MatrixMarket matrix coordinate pattern symmetric\n");
    let _ = writeln!(text, "{} {} {}", g.vertices, g.vertices, lower.len());
    for &(r, c) in &lower {
        let _ = writeln!(text, "{} {}", r + 1, c + 1);
    }
    (text, lower.len())
}
