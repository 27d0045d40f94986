//! Self-test of the benchmark at small scale: every metric listed in
//! `BENCHMARK.json` is printed with its unit, honest runs pass the
//! correctness gate, and a tampered response makes the run fail.

use std::path::PathBuf;

use lvq_bench::Scale;
use lvq_node::FaultPlan;
use lvq_perfbench::input::{ground_truth, Input, WalletPool};
use lvq_perfbench::{output, run, Config, Report, Workload};

const WORKLOADS: [Workload; 2] = [Workload::Wallet, Workload::Heavy];

fn config(test: &str, workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::Small,
        work: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{test}")),
        faults: None,
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

fn assert_prints_all(report: &Report, section: &str) {
    let record = output::record(report);
    let wanted = listed(section);
    assert!(!wanted.is_empty());
    assert_eq!(report.metrics.len(), wanted.len(), "{section}: {record}");
    for (name, unit) in wanted {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = record
            .find(&needle)
            .unwrap_or_else(|| panic!("{name} missing from {record}"));
        let unit_field = format!("\"unit\": \"{unit}\"}}");
        assert!(
            record[at..].starts_with(&needle) && record[at..].contains(&unit_field),
            "{name} printed without unit {unit}: {record}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_passes_the_gate() {
    for workload in WORKLOADS {
        let report = run(&config("e2e", workload, false)).expect("run completes");
        assert!(report.correct, "{workload:?}: {:?}", report.failures);
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= 2, "{workload:?} ran a few requests");
        assert_prints_all(&report, "end_to_end");
        for m in &report.metrics {
            assert!(m.value > 0.0, "{workload:?}: {} is {}", m.name, m.value);
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for workload in WORKLOADS {
        let report = run(&config("layers", workload, true)).expect("traced run completes");
        assert!(report.correct, "{workload:?}: {:?}", report.failures);
        assert_prints_all(&report, "per_layer");
        assert_eq!(report.addr6.is_empty(), workload != Workload::Heavy);
    }
}

#[test]
fn tampered_responses_fail_the_run() {
    let plan = FaultPlan {
        flip_prob: 0.5,
        stale_prob: 0.3,
        ..FaultPlan::none()
    };
    for workload in WORKLOADS {
        let cfg = Config {
            faults: Some(plan),
            ..config("faults", workload, false)
        };
        let report = run(&cfg).expect("a faulty transport still lets the run finish");
        assert!(report.failed > 0, "{workload:?}: no failure reported");
        assert!(!report.correct, "{workload:?}: the gate did not fire");
    }
}

#[test]
fn one_pass_ground_truth_equals_history_of() {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-truth");
    std::fs::create_dir_all(&work).unwrap();
    let input = Input::load(Scale::Small, &work).expect("small chain");
    let requests = WalletPool::new(&input).sequence(3, 0, 40);
    let truth = ground_truth(&input.chain, &requests);
    for r in &requests {
        let want: Vec<_> = input
            .chain
            .history_of(&r.address)
            .into_iter()
            .map(|(h, tx)| (h, tx.txid()))
            .collect();
        assert_eq!(truth[&r.address], want, "{}", r.address);
        assert_eq!(want.is_empty(), r.label == "unseen");
    }
}
