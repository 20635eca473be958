//! The benchmark's command line; see the library documentation.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::bench::{self, Config};
use perfbench::workload::{self, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(workload::find(&value).ok_or_else(|| {
                    format!("unknown workload `{value}`; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where the traced run's spans go: the build directory.
fn spans_path(workload: &str) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    dir.join(format!("perfbench-spans-{workload}.json"))
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = bench::run(&config);
    for why in &report.errors {
        eprintln!("perfbench: failed: {why}");
    }
    println!(
        "perfbench: workload={} seed={} samples={} passes={} attempted={} failed={}",
        config.workload.name,
        config.seed,
        report.samples,
        report.passes,
        report.attempted,
        report.failed
    );
    if let Some(json) = &report.spans_json {
        let path = spans_path(config.workload.name);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => println!("perfbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for m in &report.wall {
        println!(
            "perfbench: wall clock, not reported: {} = {} {}",
            m.name, m.value, m.unit
        );
    }
    for m in &report.metrics {
        println!("perfbench: {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", bench::result_json(&report));
    ExitCode::SUCCESS
}
