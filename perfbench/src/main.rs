//! Runs one benchmark workload and prints its record.
//!
//! ```text
//! lvq-perfbench --workload wallet|heavy --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the JSON record
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! is the provenance stamp. Exits 1 when the correctness gate fails and
//! 2 when the run could not be set up.

use std::path::PathBuf;
use std::process::ExitCode;

use lvq_bench::Scale;
use lvq_perfbench::{output, run, Config, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!("lvq-perfbench: {problem}");
    eprintln!("usage: lvq-perfbench --workload wallet|heavy --seed N --seconds S --trace 0|1");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Paper,
        work: target.join("perfbench"),
        faults: None,
    };
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lvq-perfbench: run failed: {e}");
            return ExitCode::from(2);
        }
    };
    for failure in &report.failures {
        eprintln!("lvq-perfbench: FAILED {failure}");
    }
    if !report.addr6.is_empty() {
        println!("addr6 {}", output::addr6(&report));
    }
    println!("provenance {}", output::provenance(&cfg));
    println!("{}", output::record(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
