//! Command line of the wavefuse benchmark.
//!
//! ```text
//! wavebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric with its unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

use std::process::ExitCode;

use wavebench::{workloads, Params, Workload};

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: wavebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = value("--workload").and_then(Workload::parse) else {
        return usage();
    };
    let (Some(Ok(seed)), Some(Ok(seconds)), Some(trace @ ("0" | "1"))) = (
        value("--seed").map(str::parse::<u64>),
        value("--seconds").map(str::parse::<f64>),
        value("--trace"),
    ) else {
        return usage();
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return usage();
    }
    let params = Params {
        seed,
        seconds,
        trace: trace == "1",
        tiny: false,
    };
    match workloads::run(workload, &params) {
        Ok(outcome) => {
            print!("{}", outcome.table());
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wavebench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}
