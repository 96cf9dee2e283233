//! `smash-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run descriptor, every metric with its unit, the per-layer
//! split of solve time (traced runs), and as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use smash_perfbench::{run, Kind, RunConfig, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: smash-perfbench --workload <pagerank-smash|ppr-serve|live-graph|triangles> \
--seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] [--trace-out <file>]";

fn parse_args() -> Result<RunConfig, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut scale, mut trace_out) = (Scale::Full, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err("--scale takes full or tiny".into()),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(RunConfig {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        trace_out,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("smash-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg);
    println!("descriptor {}", result.descriptor_line());
    for m in &result.metrics {
        println!(
            "metric {:<30} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    for line in &result.layer_lines {
        println!("{line}");
    }
    println!("{}", result.json_line());
    ExitCode::SUCCESS
}
