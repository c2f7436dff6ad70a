//! Quick-size runs of every workload through the real binary, and the
//! span-accounting check of the traced run.

use lsc_abi::json::{self, JsonValue};
use std::path::Path;
use std::process::Command;

const END_TO_END: &[&str] = &[
    "setup_s",
    "commit_p50_ms",
    "commit_tput_tx_s",
    "op_p50_ms",
    "peak_rss_mb",
];

/// Run the benchmark from the repository root; returns (record, result).
fn run(workload: &str, seed: u64, trace: bool) -> (JsonValue, JsonValue) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_rentbench"))
        .current_dir(&root)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "2",
            "--trace",
            if trace { "1" } else { "0" },
            "--quick",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "expected a record and a result line");
    let result = json::parse(lines[lines.len() - 1]).expect("result line is JSON");
    let record = json::parse(lines[lines.len() - 2]).expect("record line is JSON");
    let record = record.get("record").expect("record object").clone();
    (record, result)
}

fn number(v: &JsonValue) -> f64 {
    match v {
        JsonValue::Number(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

fn check_untraced(workload: &str, seed: u64) {
    let (record, result) = run(workload, seed, false);
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{workload} notes: {:?}",
        record.get("notes")
    );
    assert_eq!(number(result.get("failed").expect("failed")), 0.0);
    assert!(number(result.get("attempted").expect("attempted")) >= 1.0);
    let metrics = result.get("metrics").expect("metrics");
    let JsonValue::Object(map) = metrics else {
        panic!("metrics is an object");
    };
    assert_eq!(
        map.len(),
        END_TO_END.len(),
        "exactly the end-to-end metrics"
    );
    for name in END_TO_END {
        let value = number(metrics.get(name).and_then(|m| m.get("value")).expect(name));
        assert!(value > 0.0, "{workload}: {name} = {value}");
    }
    assert_eq!(number(record.get("seed").expect("seed")), seed as f64);
}

#[test]
fn quick_rent_roll() {
    check_untraced("rent_roll", 101);
}

#[test]
fn quick_tenant_portal() {
    check_untraced("tenant_portal", 102);
}

#[test]
fn quick_lease_amendments() {
    check_untraced("lease_amendments", 103);
}

/// In the traced run the self times of each request's spans add up to
/// the request's root span exactly, and at most 10% of a request's time
/// (median) lies outside every layer span.
fn check_traced(workload: &str, seed: u64) {
    let (record, result) = run(workload, seed, true);
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{workload} notes: {:?}",
        record.get("notes")
    );
    let coverage = record.get("coverage").expect("coverage");
    assert!(number(coverage.get("requests").expect("requests")) > 0.0);
    assert_eq!(
        number(coverage.get("max_sum_error_ns").expect("sum error")),
        0.0,
        "{workload}: self times must add up to the request duration"
    );
    let unattributed = number(coverage.get("unattributed_p50").expect("unattributed"));
    assert!(
        unattributed <= 0.10,
        "{workload}: {unattributed} of a request lies outside layer spans"
    );
    let metrics = result.get("metrics").expect("metrics");
    for name in [
        "trace.overhead_pct",
        "chain.submit_us",
        "evm.execute_us.payRent",
    ] {
        assert!(metrics.get(name).is_some(), "{workload}: {name} missing");
    }
}

#[test]
fn traced_rent_roll_spans_add_up() {
    check_traced("rent_roll", 201);
}

#[test]
fn traced_tenant_portal_spans_add_up() {
    check_traced("tenant_portal", 202);
}

#[test]
fn traced_lease_amendments_spans_add_up() {
    check_traced("lease_amendments", 203);
}
