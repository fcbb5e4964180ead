//! Paper-scale serving benchmark for the FADEWICH runtime.
//!
//! ```text
//! perfbench --workload <paper_day|auth_storm|fleet_lossy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). The seeded generation is cached under
//! `.bench_cache/`. Human-readable lines go first; the last line of
//! standard output is the JSON result: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod alloc;
mod gen;
mod layers;
mod measure;
mod serve;
mod stats;
#[cfg(test)]
mod testing;

use std::path::Path;
use std::process::ExitCode;

use fadewich_telemetry::WallClock;

use crate::serve::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: perfbench --workload <paper_day|auth_storm|fleet_lossy> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result =
        gen::load_or_generate(Path::new(".bench_cache"), args.seed).and_then(|generated| {
            let spec = args.workload.spec(generated.day.n_ticks());
            let inputs = serve::build_inputs(&generated, spec, args.seed)?;
            measure::run(
                &generated,
                &inputs,
                args.workload,
                &WallClock,
                args.seconds,
                args.trace,
            )
        });
    match result {
        Ok(report) => {
            for line in &report.notes {
                println!("{line}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload fleet_lossy --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::FleetLossy,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload hit --seed 1 --seconds 1 --trace 0",
            "--workload paper_day --seed -1 --seconds 1 --trace 0",
            "--workload paper_day --seed 1 --seconds 0 --trace 0",
            "--workload paper_day --seed 1 --seconds 1 --trace 2",
            "--workload paper_day --seed 1 --seconds 1",
            "--workload paper_day --seed 1 --seconds 1 --trace",
            "--workload paper_day --seed 1 --seconds 1 --trace 0 --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
