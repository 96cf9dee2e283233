//! In-memory span recorder. Spans are opened by the benchmark's own code
//! around each call into a layer crate (never inside the crates), carry
//! their parent and solve id, and are written out when the run ends.
//! When the recorder is disabled a span is a single branch around the call.

use std::io::Write as _;
use std::time::Instant;

/// The layer crates a span can be attributed to, plus the benchmark's own
/// code (`other`: solver arithmetic, bookkeeping, span overhead).
pub const LAYERS: [&str; 6] = [
    "smash-matrix",
    "smash-core",
    "smash-kernels",
    "smash-parallel",
    "smash-graph",
    "other",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// `None` for set-up and probe spans.
    pub solve: Option<u32>,
    /// Layer calls made inside the span (a batch of overlay writes is one
    /// span of many calls).
    pub calls: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    solve: Option<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            solve: None,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans opened from now on with `solve` (`None`: set-up or
    /// probe spans).
    pub fn set_solve(&mut self, solve: Option<u32>) {
        self.solve = solve;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `calls` layer calls.
    pub fn span_n<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        calls: u32,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            solve: self.solve,
            calls,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Runs `f` inside a span of one layer call.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.span_n(name, layer, 1, f)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Per-call durations (ns) of every recorded span called `name`.
    pub fn per_call(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.calls > 0)
            .map(|s| s.ns() as f64 / f64::from(s.calls))
            .collect()
    }

    /// Self time of every span: its duration minus the time its children
    /// cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ns();
            }
        }
        own
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"solve\":{},\"calls\":{}}}",
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.solve.map_or("null".into(), |p| p.to_string()),
                s.calls
            )?;
        }
        w.flush()
    }
}

/// Per-layer self time summed over the traced solves, in `LAYERS` order,
/// plus the number of solves it covers. Every solve's root span belongs to
/// `other`, so the layer totals add up to the total solve time exactly.
pub fn layer_split(t: &Tracer) -> ([f64; 6], [u64; 6], usize) {
    let own = t.self_times();
    let mut ns = [0.0f64; 6];
    let mut calls = [0u64; 6];
    let mut solves = 0;
    for (s, &o) in t.spans().iter().zip(&own) {
        if s.solve.is_none() {
            continue;
        }
        if s.parent.is_none() {
            solves += 1;
        }
        let k = LAYERS
            .iter()
            .position(|&l| l == s.layer)
            .expect("span layer is one of LAYERS");
        ns[k] += o as f64;
        calls[k] += u64::from(s.calls);
    }
    (ns, calls, solves)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_sum_to_solve_time() {
        let mut t = Tracer::new(true);
        let work = |n: u64| (0..n).fold(0u64, |a, b| a.wrapping_add(b * b));
        for solve in 0..3 {
            t.set_solve(Some(solve));
            t.span_n("solve", "other", 0, |t| {
                std::hint::black_box(work(10_000));
                t.span("kernels.spmv", "smash-kernels", |t| {
                    std::hint::black_box(work(20_000));
                    t.span("core.decode", "smash-core", |_| work(5_000))
                });
                t.span_n("core.overlay_write", "smash-core", 7, |_| work(1_000))
            });
        }
        t.set_solve(None);
        t.span("matrix.parse", "smash-matrix", |_| work(1_000));
        let (ns, calls, solves) = layer_split(&t);
        let roots: u64 = t
            .spans()
            .iter()
            .filter(|s| s.name == "solve")
            .map(Span::ns)
            .sum();
        assert_eq!(solves, 3);
        assert_eq!(ns.iter().sum::<f64>(), roots as f64);
        assert_eq!(
            calls[1],
            3 * 8,
            "one decode call plus seven writes per solve"
        );
        assert_eq!(ns[0], 0.0, "set-up spans are not solve time");
    }
}
