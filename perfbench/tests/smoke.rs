//! Smoke test: every workload on tiny inputs, untraced and traced, on two
//! seeds. Every named metric must be emitted with its unit and every
//! output check must pass.

use smash_perfbench::{run, Kind, RunConfig, Scale, END_TO_END, PER_LAYER};

fn tiny(kind: Kind, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        kind,
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        trace_out: None,
    }
}

fn assert_metrics(kind: Kind, seed: u64, trace: bool, want: &[(&str, &str)]) {
    let r = run(&tiny(kind, seed, trace));
    let label = format!("{} seed {seed} trace {trace}", kind.name());
    assert!(r.correct, "{label}: output check failed");
    assert_eq!(r.failed, 0, "{label}: failed solves");
    assert!(r.attempted >= 1, "{label}: no solve attempted");
    assert_eq!(r.metrics.len(), want.len(), "{label}: metric count");
    for (name, unit) in want {
        let m = r
            .metric(name)
            .unwrap_or_else(|| panic!("{label}: metric {name} missing"));
        assert_eq!(m.unit, *unit, "{label}: unit of {name}");
        assert!(m.value.is_finite(), "{label}: {name} = {}", m.value);
    }
    let line = r.json_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for kind in Kind::ALL {
        for seed in [1, 2] {
            assert_metrics(kind, seed, false, &END_TO_END);
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for kind in Kind::ALL {
        for seed in [1, 2] {
            assert_metrics(kind, seed, true, &PER_LAYER);
        }
    }
}

#[test]
fn same_seed_same_input_other_seed_other_input() {
    use smash_perfbench::inputs::{rmat, Rng};
    let a = rmat(8, 2_000, &mut Rng::new(7));
    let b = rmat(8, 2_000, &mut Rng::new(7));
    let c = rmat(8, 2_000, &mut Rng::new(8));
    assert_eq!(a.out, b.out);
    assert_ne!(a.out, c.out);
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    // Every listed workload is one the benchmark runs, with its `why`.
    let listed: Vec<&str> = spec.lines().filter(|l| l.contains("\"why\"")).collect();
    assert!(listed.len() >= 2, "BENCHMARK.json lists {listed:?}");
    for line in listed {
        let name = line.split('"').nth(3).expect("a workload entry has a name");
        let kind = Kind::parse(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        let why = format!("\"why\": \"{}\"", kind.why());
        assert!(line.contains(&why), "{name}: why differs from Kind::why");
    }
}
