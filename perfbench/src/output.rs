//! The run's printed record and its provenance stamp.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::bench::{Config, Report};
use crate::input::{repo_root, scale_name, source_fingerprint, CHAIN_SEED};

/// A JSON number: every digit as measured; non-finite values, which
/// JSON cannot carry, become `-1`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

/// A JSON string literal.
fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The record the benchmark prints as its last line.
pub fn record(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// The traced Addr6 breakdown as a JSON object.
pub fn addr6(report: &Report) -> String {
    let fields: Vec<String> = report
        .addr6
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), number(*v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The first line of a command's standard output, if it ran.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

/// Seed, scale, code revision and host facts of this run, as a JSON
/// object.
pub fn provenance(cfg: &Config) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let sha_ni = cpuinfo
        .lines()
        .any(|l| l.starts_with("flags") && l.split_whitespace().any(|f| f == "sha_ni"));
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // Only a checkout that is itself a git repository has a revision;
    // asking git elsewhere could report an enclosing repository's.
    let git = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": {}, \"blocks\": {}, \
         \"chain_seed\": {}, \"git_rev\": {}, \"source_sha256\": {}, \"nproc\": {}, \"sha_ni\": {}, \"rustc\": {}}}",
        string(cfg.workload.name()),
        cfg.seed,
        number(cfg.seconds),
        cfg.trace,
        string(scale_name(cfg.scale)),
        cfg.scale.blocks(),
        CHAIN_SEED,
        string(&git),
        string(&source_fingerprint(&repo_root(), &["crates", "perfbench/src"])),
        nproc,
        sha_ni,
        string(&rustc),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Metric;

    #[test]
    fn record_is_one_json_line_with_the_contract_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "qps",
                unit: "1/s",
                value: 1.25,
            }],
            ..Report::default()
        };
        assert_eq!(
            record(&report),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 1.25, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(number(f64::NAN), "-1");
    }
}
